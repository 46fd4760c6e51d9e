"""Declarative packing and unpacking of bit fields in 32-bit words.

The architecture in the paper is defined almost entirely in terms of bit
fields: the 4-bit message type, the destination address in the high bits of
``m0``, the ``STATUS`` and ``CONTROL`` register layouts, the ``MsgIp``
composition of Figure 7, and the memory-address command encoding of
Figure 9.  This module gives all of those a single, well-tested mechanism.

A :class:`BitField` names a contiguous run of bits; a :class:`BitLayout`
is an ordered, non-overlapping collection of fields over a fixed word width
and converts between integers and field dictionaries.

Example
-------
>>> layout = BitLayout("demo", [BitField("lo", 0, 4), BitField("hi", 4, 4)])
>>> layout.pack(lo=0x3, hi=0xA)
163
>>> layout.unpack(163)["hi"]
10
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.errors import BitfieldError

WORD_BITS = 32
WORD_MASK = 0xFFFF_FFFF


def mask(width: int) -> int:
    """Return a mask of ``width`` low-order one bits."""
    if width < 0:
        raise BitfieldError(f"negative field width: {width}")
    return (1 << width) - 1


def to_word(value: int) -> int:
    """Truncate ``value`` to an unsigned 32-bit word."""
    return value & WORD_MASK


def sign_extend(value: int, bits: int) -> int:
    """Interpret the low ``bits`` of ``value`` as a two's-complement integer."""
    if bits <= 0 or bits > WORD_BITS:
        raise BitfieldError(f"cannot sign-extend to {bits} bits")
    value &= mask(bits)
    sign_bit = 1 << (bits - 1)
    return (value ^ sign_bit) - sign_bit


@dataclass(frozen=True)
class BitField:
    """A named run of ``width`` bits starting at bit ``shift`` (LSB = 0)."""

    name: str
    shift: int
    width: int

    def __post_init__(self) -> None:
        if not self.name:
            raise BitfieldError("bit field must have a name")
        if self.shift < 0 or self.width <= 0:
            raise BitfieldError(
                f"field {self.name!r}: shift and width must be non-negative/positive"
            )
        if self.shift + self.width > WORD_BITS:
            raise BitfieldError(
                f"field {self.name!r} spills past bit {WORD_BITS - 1} "
                f"(shift={self.shift}, width={self.width})"
            )

    @property
    def max_value(self) -> int:
        """Largest value representable in this field."""
        return mask(self.width)

    @property
    def field_mask(self) -> int:
        """Mask with ones in this field's bit positions."""
        return mask(self.width) << self.shift

    def extract(self, word: int) -> int:
        """Read this field out of ``word``."""
        return (word >> self.shift) & mask(self.width)

    def insert(self, word: int, value: int) -> int:
        """Return ``word`` with this field replaced by ``value``."""
        if value < 0 or value > self.max_value:
            raise BitfieldError(
                f"value {value} does not fit in {self.width}-bit field {self.name!r}"
            )
        return (word & ~self.field_mask & WORD_MASK) | (value << self.shift)


class BitLayout:
    """An ordered set of non-overlapping :class:`BitField` objects.

    The layout checks at construction time that no two fields overlap, which
    catches register-layout typos immediately rather than as corrupt state
    during simulation.
    """

    def __init__(self, name: str, fields: Iterable[BitField]):
        self.name = name
        self._fields: Dict[str, BitField] = {}
        used = 0
        for field in fields:
            if field.name in self._fields:
                raise BitfieldError(f"layout {name!r}: duplicate field {field.name!r}")
            if used & field.field_mask:
                raise BitfieldError(
                    f"layout {name!r}: field {field.name!r} overlaps an earlier field"
                )
            used |= field.field_mask
            self._fields[field.name] = field
        self._used_mask = used
        # (shift, mask) per field: the interface reads CONTROL and STATUS
        # fields on every message, so :meth:`get` is one lookup, a shift
        # and a mask.
        self._extract: Dict[str, Tuple[int, int]] = {
            field.name: (field.shift, mask(field.width)) for field in self
        }

    def __iter__(self) -> Iterator[BitField]:
        return iter(self._fields.values())

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def field(self, name: str) -> BitField:
        """Look up a field by name."""
        try:
            return self._fields[name]
        except KeyError:
            raise BitfieldError(f"layout {self.name!r} has no field {name!r}") from None

    @property
    def used_mask(self) -> int:
        """Mask of all bits claimed by some field."""
        return self._used_mask

    def pack(self, **values: int) -> int:
        """Build a word from field values; unspecified fields are zero."""
        word = 0
        for name, value in values.items():
            word = self.field(name).insert(word, value)
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """Split ``word`` into a ``{field name: value}`` dictionary."""
        return {f.name: f.extract(word) for f in self}

    def update(self, word: int, **values: int) -> int:
        """Return ``word`` with the named fields replaced."""
        for name, value in values.items():
            word = self.field(name).insert(word, value)
        return word

    def get(self, word: int, name: str) -> int:
        """Extract one named field from ``word``."""
        try:
            shift, width_mask = self._extract[name]
        except KeyError:
            raise BitfieldError(f"layout {self.name!r} has no field {name!r}") from None
        return (word >> shift) & width_mask

    def describe(self, word: int) -> str:
        """Human-readable rendering, used by ``repr`` of register classes."""
        parts = ", ".join(f"{f.name}={f.extract(word)}" for f in self)
        return f"<{self.name} {parts}>"


class Register:
    """A mutable 32-bit register with a :class:`BitLayout`.

    Used for the NI's ``STATUS`` and ``CONTROL`` registers, where software
    and hardware both read and write individual fields.  Every write goes
    through the :attr:`word` setter, so a subclass that acts on writes
    overrides that one property.
    """

    def __init__(self, layout: BitLayout, initial: int = 0):
        self.layout = layout
        self._word = to_word(initial)

    @property
    def word(self) -> int:
        """The raw 32-bit contents."""
        return self._word

    @word.setter
    def word(self, value: int) -> None:
        self._word = to_word(value)

    def __getitem__(self, name: str) -> int:
        return self.layout.get(self._word, name)

    def __setitem__(self, name: str, value: int) -> None:
        self.word = self.layout.update(self._word, **{name: value})

    def load(self, values: Mapping[str, int]) -> None:
        """Set several fields at once."""
        self.word = self.layout.update(self._word, **dict(values))

    def as_dict(self) -> Dict[str, int]:
        """All fields of the current value."""
        return self.layout.unpack(self.word)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.layout.describe(self.word)
