"""Whole-thread code generation: how the TAM machine executes threads.

The reference interpreter (``ReferenceMachine`` in
``tests/tam/tam_reference.py``, the tests' oracle) decides what every
instruction is — an ``isinstance`` chain, operand classification, a
frame-slot bounds check, an enum-keyed stats update — every time it
executes it.  Those decisions are static properties of the codeblock,
and this module makes them once, the software analogue of the paper's
observation that a handler whose ``MsgIp`` is precomputed can run as one
straight jump: each whole thread becomes a *single generated Python
function*.  At ``load()`` time the instruction sequence is emitted as
source text with operand shapes, slot indices, and synchronisation
counters resolved to constants, ``exec``'d once per codeblock, and
dispatched as one call per thread run.

Three structural choices make the generated code fast:

* **Flat frames** — an activation is a plain list, not an object:
  ``f[0]`` is the codeblock's inlet
  dispatch dict (message delivery is two list indexes and a dict get),
  ``f[1]`` the :class:`~repro.tam.frame.FrameRef`, ``f[2]`` the
  :class:`CodegenBlock` descriptor, ``f[3]`` the owner node id (so
  inlined message code never touches the FrameRef descriptors on the
  hot path), slots live at ``f[SLOT_BASE + s]`` and counters after the
  slots — every offset a compile-time constant in the generated source.
  :class:`FlatFrameView` re-presents a flat frame in the reference
  interpreter's ``Frame`` shape for hosts and tests.
* **Two-element stack pushes** — a continuation is pushed as two bare
  appends (frame, then thread function) instead of an allocated tuple;
  the service loop pops the function and calls it with the frame.
* **Batched statistics** — the first line of every generated thread
  bumps one integer in a machine-wide run-count list; instruction mixes
  and send-word counts are static per thread, so the machine folds
  ``runs x static mix`` into :class:`~repro.tam.stats.TamStats` once per
  run instead of once per thread.  (On *error* paths this charges the
  full thread where the reference path charges the executed prefix; the
  error itself is identical, and no equivalence contract covers stats
  after a raise.)

Equivalence: generated code raises the reference path's exact errors at
the same execution points (out-of-range slots, bad SEND/IFETCH/ISTORE
references, counter underflow, missing threads, threads without STOP)
and reproduces the reference service order exactly.  Every machine
runs the fused loop in :meth:`TamMachine._run_loop` over the
:class:`repro.sim.sweep.ActiveSweep` flag arrays; machines with an
observer attached post through ``machine._post`` captured at compile
time, and the loop sends each of their messages through the observed
handlers, so a run is bit-identical to a reference run either way
(``tests/tam/test_backend_matrix``,
``tests/tam/test_codegen_differential``).
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FrameError, TamError
from repro.tam.codeblock import Codeblock, InletSpec
from repro.tam.frame import FrameRef
from repro.tam.instructions import (
    ConInstr,
    FallocInstr,
    ForkInstr,
    IallocInstr,
    IfetchInstr,
    Imm,
    IstoreInstr,
    Kind,
    MovInstr,
    OpInstr,
    ReadInstr,
    ResetInstr,
    SelfInstr,
    SendInstr,
    SwitchInstr,
    WriteInstr,
)
from repro.tam.messages import IStructRef, MsgKind, TamMessage

# Flat-frame layout: [inlets, ref, block, node_id,
# slot 0..frame_size-1, counter 0..n_counters-1].
SLOT_BASE = 4

# ALU source templates mirroring the reference interpreter's ALU table
# (tests/tam/tam_reference.py) so both compute bit-identical values.  {a}/{b}
# are side-effect-free expressions, safe to evaluate twice (MIN/MAX).
# The second element names the coercion each operand gets; immediates
# are coerced at emission time instead (``int(16)`` folds to ``16``),
# which removes one call per immediate operand from the hot thread
# bodies.
_OP_TEMPLATES = {
    "IADD": ("{a} + {b}", "int"),
    "ISUB": ("{a} - {b}", "int"),
    "IMUL": ("{a} * {b}", "int"),
    "IDIV": ("{a} // {b}", "int"),
    "FADD": ("{a} + {b}", "float"),
    "FSUB": ("{a} - {b}", "float"),
    "FMUL": ("{a} * {b}", "float"),
    "FDIV": ("{a} / {b}", "float"),
    "LT": ("1 if {a} < {b} else 0", None),
    "LE": ("1 if {a} <= {b} else 0", None),
    "EQ": ("1 if {a} == {b} else 0", None),
    "AND": ("1 if ({a} and {b}) else 0", None),
    "OR": ("1 if ({a} or {b}) else 0", None),
    "MIN": ("{a} if {a} < {b} else {b}", None),
    "MAX": ("{a} if {a} > {b} else {b}", None),
}

# Ops whose emitted expression is a literal ``1``/``0``, giving the
# destination slot a provably-int value for slot_types tracking.
_INT_RESULT_OPS = frozenset({"LT", "LE", "EQ", "AND", "OR"})


# ---------------------------------------------------------------------------
# Runtime helpers the generated code calls on cold paths.  Each raises
# the reference interpreter's exact error.
# ---------------------------------------------------------------------------


def _oob(frame: list, slot: int) -> None:
    """Out-of-range slot access: the reference FrameError."""
    block = frame[2]
    raise FrameError(
        f"{block.name}{frame[1]}: slot {slot} outside frame "
        f"of {block.frame_size}"
    )


def _underflow(frame: list, counter: str) -> None:
    block = frame[2]
    raise FrameError(
        f"{block.name}{frame[1]}: counter {counter!r} "
        "decremented below zero"
    )


def _check_send_ref(ref, slot: int) -> None:
    """Slow-path SEND target check (identity test failed in-line)."""
    if not isinstance(ref, FrameRef):
        raise TamError(
            f"SEND through slot {slot} which holds "
            f"{ref!r}, not a frame reference"
        )


def _check_ifetch_ref(ref, slot: int) -> None:
    if not isinstance(ref, IStructRef):
        raise TamError(
            f"IFETCH through slot {slot} which holds "
            f"{ref!r}, not an I-structure reference"
        )


def _check_istore_ref(ref, slot: int) -> None:
    if not isinstance(ref, IStructRef):
        raise TamError(
            f"ISTORE through slot {slot} which holds "
            f"{ref!r}, not an I-structure reference"
        )


def _bad_node(node: int) -> None:
    """Slow-path target check for inlined posts: the _post error."""
    raise TamError(f"message addressed to unknown node {node}")


def _missing_inlet(codeblock_name: str, inlet: int) -> Callable:
    """A reply target for an IFETCH whose reply inlet does not exist.

    The reference path raises when the reply is *delivered*, so the
    stub must surface the error at that turn, not when the read posts.
    """
    message = f"codeblock {codeblock_name!r} has no inlet {inlet}"

    def missing(stack, frame, value):
        raise TamError(message)

    return missing


def _missing_thread(codeblock_name: str, label: str) -> Callable:
    """A continuation for a FORK/SWITCH target that does not exist.

    The reference path resolves labels when the continuation is popped,
    so the error must surface at service time, not at load time.
    """
    message = f"codeblock {codeblock_name!r} has no thread {label!r}"

    def missing(stack, frame):
        raise TamError(message)

    return missing


# ---------------------------------------------------------------------------
# Host-facing descriptors.
# ---------------------------------------------------------------------------


class CodegenBlock:
    """One codeblock compiled to generated thread/inlet functions."""

    __slots__ = (
        "name",
        "codeblock",
        "frame_size",
        "threads",
        "inlets",
        "entry_fn",
        "counter_order",
        "counter_init",
        "source",
    )

    def __init__(self, codeblock: Codeblock) -> None:
        self.name = codeblock.name
        self.codeblock = codeblock
        self.frame_size = codeblock.frame_size
        self.threads: Dict[str, Callable] = {}
        self.inlets: Dict[int, Callable] = {}
        self.entry_fn: Optional[Callable] = None
        # Counters live after the slots, in codeblock insertion order.
        self.counter_order: Tuple[str, ...] = tuple(codeblock.counters)
        self.counter_init: List[int] = [
            spec.count for spec in codeblock.counters.values()
        ]
        self.source = ""

    def counter_index(self, counter: str) -> int:
        """Flat-frame index of ``counter``, which must be declared."""
        return SLOT_BASE + self.frame_size + self.counter_order.index(counter)

    def make_frame(self, ref: FrameRef) -> list:
        return [self.inlets, ref, self, ref.node] + [0] * self.frame_size + (
            list(self.counter_init)
        )


def flat_read(frame: list, slot: int):
    """Checked host-level slot read on a flat frame."""
    block = frame[2]
    if slot < 0 or slot >= block.frame_size:
        _oob(frame, slot)
    return frame[SLOT_BASE + slot]


def flat_write(frame: list, slot: int, value) -> None:
    """Checked host-level slot write on a flat frame."""
    block = frame[2]
    if slot < 0 or slot >= block.frame_size:
        _oob(frame, slot)
    frame[SLOT_BASE + slot] = value


class FlatFrameView:
    """A flat frame seen as ``ref`` / ``slots`` / ``read`` /
    ``counter_value``.

    Slots and counters read through to the live flat frame, so the view
    compares field for field against the reference interpreter's
    ``Frame`` — the backend-matrix tests use exactly that.
    """

    __slots__ = ("_frame",)

    def __init__(self, frame: list) -> None:
        self._frame = frame

    @property
    def ref(self) -> FrameRef:
        return self._frame[1]

    @property
    def slots(self) -> list:
        block = self._frame[2]
        return self._frame[SLOT_BASE:SLOT_BASE + block.frame_size]

    def read(self, slot: int):
        return flat_read(self._frame, slot)

    def counter_value(self, counter: str) -> int:
        block = self._frame[2]
        if counter not in block.counter_order:
            # The reference Frame's error, as Frame.reset / RESET raise it.
            raise FrameError(f"{block.name}{self.ref}: no counter {counter!r}")
        return self._frame[block.counter_index(counter)]


# ---------------------------------------------------------------------------
# Source emission.
# ---------------------------------------------------------------------------


class _Emitter:
    """Per-codeblock emission state: namespace, constant pool, names."""

    def __init__(self, codeblock: Codeblock, machine) -> None:
        self.codeblock = codeblock
        self.machine = machine
        # The exec namespace: restricted builtins plus the machine hooks
        # every message instruction needs.  ``post`` is whatever
        # machine._post resolves to *now* — the observed wrapper when an
        # observer was attached before load().
        self.namespace = {
            "__builtins__": {},
            "int": int,
            "float": float,
            "zip": zip,
            "TamError": TamError,
            "FrameError": FrameError,
            "FrameRef": FrameRef,
            "IStructRef": IStructRef,
            "TamMessage": TamMessage,
            "SEND": MsgKind.SEND,
            "FALLOC": MsgKind.FALLOC,
            "IALLOC": MsgKind.IALLOC,
            "PREAD": MsgKind.PREAD,
            "PWRITE": MsgKind.PWRITE,
            "READ": MsgKind.READ,
            "WRITE": MsgKind.WRITE,
            "post": machine._post,
            "rr": machine._round_robin,
            "tr": machine._cg_runs,
            "_oob": _oob,
            "_undf": _underflow,
            "_ck_send": _check_send_ref,
            "_ck_ifetch": _check_ifetch_ref,
            "_ck_istore": _check_istore_ref,
        }
        # Unobserved machines get the post transport inlined into
        # _run_loop's flags: generated message instructions
        # append to the target inbox and set the sweep flag directly,
        # skipping the closure call, and build plain tuples instead of
        # TamMessages for the kinds the fused loop consumes positionally
        # (SEND, PREAD).
        # Observed machines keep the ``post`` call so the observed
        # wrapper sees every message and _on_pread's attribute access
        # keeps working.
        self.inline_post = machine.observer is None
        if self.inline_post:
            self.namespace.update({
                "nodes": machine.nodes,
                "sched": machine._sched,
                "NN": machine.n_nodes,
                "_badnode": _bad_node,
            })
        self.frame_size = codeblock.frame_size
        self.counter_order = tuple(codeblock.counters)
        # Per-thread slot typing: slot -> "int" | "float" | None, valid
        # for the thread body currently being emitted.  Within a thread
        # all slot writes are straight-line (Switch branches only push
        # continuations), so forward tracking is sound; it lets
        # coerced_operand drop ``int(...)``/``float(...)`` around slots
        # whose current value provably has the target type.
        self.slot_types: Dict[int, Optional[str]] = {}
        # Per-thread descriptor cache (inline mode): desc slot ->
        # (ref local, node local) already emitted for this thread body.
        # Straight-line threads fetch from the same I-structure slot
        # many times (matmul's dot-product threads issue dozens of
        # IFETCHes against two arrays); once the first access verified
        # the slot holds an IStructRef on a valid node, repeats reuse
        # the locals — the slot is unchanged, so the skipped checks
        # would pass (or fail) identically.  Invalidated on slot write.
        self.desc_cache: Dict[int, Tuple[str, str]] = {}
        # Set by post_lines when the current thread body emitted its
        # scheduler-local preamble (see post_lines); reset per thread.
        self.uses_sched_locals = False
        # Thread labels -> generated function names, assigned up front so
        # forward FORK references resolve (name lookup happens at call
        # time against the shared namespace).
        self.thread_names = {
            label: f"t{i}" for i, label in enumerate(codeblock.threads)
        }
        self._n_constants = 0
        self._n_missing = 0

    # -- expression helpers -------------------------------------------------

    def constant(self, value) -> str:
        """A source expression reproducing ``value`` exactly."""
        kind = type(value)
        if kind is int or kind is bool:
            return repr(value)
        if kind is float and isfinite(value):
            return repr(value)  # float repr round-trips exactly
        name = f"K{self._n_constants}"
        self._n_constants += 1
        self.namespace[name] = value
        return name

    def slot_expr(self, slot: int) -> str:
        return f"f[{SLOT_BASE + slot}]"

    def operand(self, operand) -> str:
        if isinstance(operand, Imm):
            return self.constant(operand.value)
        return self.slot_expr(operand)

    def coerced_operand(self, operand, coerce: Optional[str]) -> str:
        """``operand`` with the op's type coercion applied.

        Immediates are compile-time constants, so their coercion folds
        into the emitted literal; slots keep the runtime call because
        frame contents are only known when the thread runs.
        """
        if isinstance(operand, Imm):
            value = operand.value
            if coerce == "int":
                value = int(value)
            elif coerce == "float":
                value = float(value)
            return self.constant(value)
        expr = self.slot_expr(operand)
        if coerce is not None and self.slot_types.get(operand) != coerce:
            expr = f"{coerce}({expr})"
        return expr

    def counter_index(self, counter: str) -> int:
        return SLOT_BASE + self.frame_size + self.counter_order.index(counter)

    def thread_fn(self, label: str) -> str:
        """The generated name for ``label``, or a missing-thread stub."""
        name = self.thread_names.get(label)
        if name is None:
            name = f"tmiss{self._n_missing}"
            self._n_missing += 1
            self.namespace[name] = _missing_thread(self.codeblock.name, label)
        return name

    def inlet_fn(self, number: int) -> str:
        """The single-value delivery variant for inlet ``number``.

        Returns the ``i<number>s`` name (see
        :func:`_with_single_value_variant`), or a raising stub when the
        inlet does not exist so the reference error surfaces at
        delivery time.
        """
        if number in self.codeblock.inlets:
            return f"i{number}s"
        name = f"imiss{self._n_missing}"
        self._n_missing += 1
        self.namespace[name] = _missing_inlet(self.codeblock.name, number)
        return name

    def first_oob(self, accesses) -> Optional[int]:
        """The first out-of-range slot in reference access order, if any.

        ``accesses`` lists operands/slots in the order the reference
        interpreter touches them; the whole instruction compiles to one
        ``_oob`` raise when any is out of range (later reads never run).
        """
        for access in accesses:
            if isinstance(access, Imm):
                continue
            if not 0 <= access < self.frame_size:
                return access
        return None

    def post_lines(
        self,
        node_expr: str,
        message: str,
        checked: bool = True,
        node_var: Optional[str] = None,
    ) -> List[str]:
        """Statements that post ``message`` to node ``node_expr``.

        ``message`` is a source template with ``{n}`` standing for the
        target-node expression; ``node_expr`` is evaluated exactly once
        in both modes.  Observed machines emit one ``post(...)`` call;
        unobserved ones inline the transport — inbox append plus the
        sweep wake rule over the flag arrays.  ``checked=False`` skips
        the bounds test for targets the round-robin allocator produced;
        ``node_var`` names a local already holding a bounds-checked
        node id (the descriptor cache, READ/WRITE), skipping both the
        assignment and the test.

        The first inlined post of a thread body hoists
        ``sched.sweep_pos``/``in_current``/``in_next`` into locals for
        the rest of the body: a generated thread runs entirely within
        one turn, and the fused loop only advances ``sweep_pos`` and
        swaps the flag arrays between turns, so the hoisted values
        stay live for every post the thread makes.
        """
        if not self.inline_post:
            return [f"post({message.format(n=node_expr)})"]
        lines = []
        if not self.uses_sched_locals:
            self.uses_sched_locals = True
            lines += [
                "_sp = sched.sweep_pos",
                "_ic = sched.in_current",
                "_in = sched.in_next",
            ]
        if node_var is not None:
            n = node_var
        else:
            n = "_n"
            lines.append(f"_n = {node_expr}")
            if checked:
                lines += ["if _n < 0 or _n >= NN:", "    _badnode(_n)"]
        lines += [
            f"nodes[{n}].inbox.append({message.format(n=n)})",
            f"if {n} > _sp:",
            f"    _ic[{n}] = True",
            "else:",
            f"    _in[{n}] = True",
        ]
        return lines

    def desc_lines(self, slot: int, check_fn: str) -> Tuple[str, str, List[str]]:
        """A checked descriptor/node local pair for ``slot`` (inline mode).

        Returns ``(ref_var, node_var, lines)``; ``lines`` is empty when
        an earlier IFETCH/ISTORE in this thread body already verified
        the same slot.  ``check_fn`` is the raising type check for the
        instruction that emits first (later accesses can only succeed
        or fail the same way, so which check guards the slot does not
        change behaviour).
        """
        cached = self.desc_cache.get(slot)
        if cached is not None:
            return cached[0], cached[1], []
        dvar, nvar = f"_d{slot}", f"_n{slot}"
        lines = [
            f"{dvar} = {self.slot_expr(slot)}",
            f"if {dvar}.__class__ is not IStructRef:",
            f"    {check_fn}({dvar}, {slot})",
        ]
        return dvar, nvar, lines

    def desc_node_lines(self, slot: int, dvar: str, nvar: str) -> List[str]:
        """Bounds-checked node extraction, second half of the cache fill.

        Split from :meth:`desc_lines` so a compile-time out-of-range
        index raise can sit between the type check and the node check,
        matching the reference interpreter's access order.  Only this
        half publishes the cache entry: an instruction that bailed on
        an out-of-range index never reaches the node check, so later
        accesses to the same slot must re-emit it.
        """
        self.desc_cache[slot] = (dvar, nvar)
        return [
            f"{nvar} = {dvar}.node",
            f"if {nvar} < 0 or {nvar} >= NN:",
            f"    _badnode({nvar})",
        ]


def _push_lines(emitter: _Emitter, label: str) -> List[str]:
    fn = emitter.thread_fn(label)
    return ["stack.append(f)", f"stack.append({fn})"]


def _emit_instr(e: _Emitter, instr) -> List[str]:
    """Source statements for one instruction (unindented)."""
    kind = type(instr)
    if kind is ConInstr:
        bad = e.first_oob([instr.dest])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        vt = type(instr.value)
        e.slot_types[instr.dest] = (
            "int" if vt is int else "float" if vt is float else None
        )
        e.desc_cache.pop(instr.dest, None)
        return [f"{e.slot_expr(instr.dest)} = {e.constant(instr.value)}"]
    if kind is MovInstr:
        bad = e.first_oob([instr.src, instr.dest])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        e.slot_types[instr.dest] = e.slot_types.get(instr.src)
        e.desc_cache.pop(instr.dest, None)
        return [f"{e.slot_expr(instr.dest)} = {e.slot_expr(instr.src)}"]
    if kind is SelfInstr:
        bad = e.first_oob([instr.dest])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        e.slot_types[instr.dest] = None
        e.desc_cache.pop(instr.dest, None)
        return [f"{e.slot_expr(instr.dest)} = f[1]"]
    if kind is OpInstr:
        bad = e.first_oob([instr.a, instr.b])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        entry = _OP_TEMPLATES.get(instr.op.name)
        if entry is None:  # pragma: no cover - parity with reference
            return [f"raise TamError({f'unimplemented op {instr.op}'!r})"]
        template, coerce = entry
        bad = e.first_oob([instr.dest])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        name = instr.op.name
        # Operand expressions read the pre-instruction typing state;
        # only then does dest pick up this op's result type (coercing
        # ops produce their coercion type, comparisons and AND/OR emit
        # literal 1/0, MIN/MAX pass operands through untyped).
        a = e.coerced_operand(instr.a, coerce)
        b = e.coerced_operand(instr.b, coerce)
        e.slot_types[instr.dest] = (
            coerce
            if coerce is not None
            else "int" if name in _INT_RESULT_OPS else None
        )
        e.desc_cache.pop(instr.dest, None)
        # Integer identity folds: ``x + 0`` / ``x * 1`` style moves are
        # a common TAM idiom (there is no register copy instruction);
        # ``a`` is already coerced, so dropping the no-op keeps the
        # value bit-identical.  Floats are left alone (``-0.0 + 0.0``
        # would change sign).
        if coerce == "int" and isinstance(instr.b, Imm):
            bv = int(instr.b.value)
            if (name in ("IADD", "ISUB") and bv == 0) or (
                name in ("IMUL", "IDIV") and bv == 1
            ):
                return [f"{e.slot_expr(instr.dest)} = {a}"]
        expr = template.format(a=a, b=b)
        return [f"{e.slot_expr(instr.dest)} = {expr}"]
    if kind is ForkInstr:
        return _push_lines(e, instr.label)
    if kind is SwitchInstr:
        bad = e.first_oob([instr.cond])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        lines = [f"if {e.slot_expr(instr.cond)}:"]
        lines += ["    " + line for line in _push_lines(e, instr.then_label)]
        if instr.else_label is not None:
            lines.append("else:")
            lines += [
                "    " + line for line in _push_lines(e, instr.else_label)
            ]
        return lines
    if kind is ResetInstr:
        counter, count = instr.counter, instr.count
        if counter not in e.codeblock.counters:
            message = (
                f"{{0}}{{1}}: no counter {counter!r}"
            )
            return [
                f"raise FrameError({message!r}.format(f[2].name, f[1]))"
            ]
        if count < 0:
            return [
                "raise FrameError("
                f"{f'cannot reset counter {counter!r} to {count}'!r})"
            ]
        return [f"f[{e.counter_index(counter)}] = {count}"]
    if kind is FallocInstr:
        return e.post_lines(
            "rr()",
            "TamMessage(FALLOC, {n}, 0, 0, (), "
            f"{instr.codeblock!r}, (f[1], {instr.reply_inlet}))",
            checked=False,
        )
    if kind is SendInstr:
        bad = e.first_oob([instr.frame_slot])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        lines = [
            f"_r = {e.slot_expr(instr.frame_slot)}",
            "if _r.__class__ is not FrameRef:",
            f"    _ck_send(_r, {instr.frame_slot})",
        ]
        bad = e.first_oob(list(instr.values))
        if bad is not None:
            return lines + [f"_oob(f, {bad})"]
        values = "".join(f"{e.slot_expr(s)}, " for s in instr.values)
        # Inlined posts build a plain tuple: the fused loop consumes
        # SEND/REPLY positionally, and skipping the NamedTuple
        # constructor is measurable at this call frequency.
        ctor = "(" if e.inline_post else "TamMessage(SEND, "
        head = "SEND, " if e.inline_post else ""
        return lines + e.post_lines(
            "_r.node",
            f"{ctor}{head}{{n}}, {instr.inlet}, _r.frame_id, ({values}))",
        )
    if kind is IallocInstr:
        bad = e.first_oob([instr.length])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        return e.post_lines(
            "rr()",
            "TamMessage(IALLOC, {n}, 0, 0, (), '', "
            f"(f[1], {instr.reply_inlet}), 0, int({e.operand(instr.length)}))",
            checked=False,
        )
    if kind is IfetchInstr:
        bad = e.first_oob([instr.desc_slot])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        if e.inline_post:
            dvar, nvar, lines = e.desc_lines(instr.desc_slot, "_ck_ifetch")
            bad = e.first_oob([instr.index])
            if bad is not None:
                return lines + [f"_oob(f, {bad})"]
            if lines:
                lines += e.desc_node_lines(instr.desc_slot, dvar, nvar)
            # The inline PREAD carries the bound single-value reply
            # inlet, the frame list itself, and the owner node id
            # (``f[3]``): the fused loop replies without any frame or
            # inlet lookup and defers readers without packing a
            # DeferredReader.  Compact layout: [2] inlet fn, [3] frame,
            # [4] owner node, [5] descriptor, [6] index.
            # coerced_operand folds the index coercion away for
            # immediates and provably-int slots (loop counters), the
            # two common cases.
            return lines + e.post_lines(
                nvar,
                f"(PREAD, {{n}}, {e.inlet_fn(instr.reply_inlet)}, f, "
                f"f[3], {dvar}.descriptor, "
                f"{e.coerced_operand(instr.index, 'int')})",
                node_var=nvar,
            )
        lines = [
            f"_d = {e.slot_expr(instr.desc_slot)}",
            "if _d.__class__ is not IStructRef:",
            f"    _ck_ifetch(_d, {instr.desc_slot})",
        ]
        bad = e.first_oob([instr.index])
        if bad is not None:
            return lines + [f"_oob(f, {bad})"]
        return lines + e.post_lines(
            "_d.node",
            "TamMessage(PREAD, {n}, 0, 0, (), '', "
            f"(f[1], {instr.reply_inlet}), _d.descriptor, "
            f"int({e.operand(instr.index)}))",
        )
    if kind is IstoreInstr:
        bad = e.first_oob([instr.desc_slot])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        if e.inline_post:
            dvar, nvar, lines = e.desc_lines(instr.desc_slot, "_ck_istore")
            bad = e.first_oob([instr.index, instr.value])
            if bad is not None:
                return lines + [f"_oob(f, {bad})"]
            if lines:
                lines += e.desc_node_lines(instr.desc_slot, dvar, nvar)
            return lines + e.post_lines(
                nvar,
                "TamMessage(PWRITE, {n}, 0, 0, "
                f"({e.slot_expr(instr.value)},), '', None, {dvar}.descriptor, "
                f"{e.coerced_operand(instr.index, 'int')})",
                node_var=nvar,
            )
        lines = [
            f"_d = {e.slot_expr(instr.desc_slot)}",
            "if _d.__class__ is not IStructRef:",
            f"    _ck_istore(_d, {instr.desc_slot})",
        ]
        bad = e.first_oob([instr.index, instr.value])
        if bad is not None:
            return lines + [f"_oob(f, {bad})"]
        return lines + e.post_lines(
            "_d.node",
            "TamMessage(PWRITE, {n}, 0, 0, "
            f"({e.slot_expr(instr.value)},), '', None, _d.descriptor, "
            f"int({e.operand(instr.index)}))",
        )
    if kind is ReadInstr:
        bad = e.first_oob([instr.node_slot, instr.address])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        return _memory_post_lines(
            e,
            instr,
            "TamMessage(READ, {n}, "
            f"0, 0, (), '', (f[1], {instr.reply_inlet}), 0, 0, _a)",
        )
    if kind is WriteInstr:
        bad = e.first_oob([instr.node_slot, instr.address, instr.value])
        if bad is not None:
            return [f"_oob(f, {bad})"]
        return _memory_post_lines(
            e,
            instr,
            "TamMessage(WRITE, {n}, "
            f"0, 0, ({e.slot_expr(instr.value)},), '', None, 0, 0, _a)",
        )
    # Unknown instruction subclass: raise the reference error when (and
    # only when) the thread actually runs.
    return [f"raise TamError({f'unimplemented instruction {instr!r}'!r})"]


def _memory_post_lines(e: _Emitter, instr, message: str) -> List[str]:
    """Post a READ/WRITE whose template takes the address as ``_a``.

    The reference interpreter converts the target node id and then the
    address before ``_post`` range-checks the node, so an address that
    fails to convert must raise before a bad node is reported.
    """
    lines = [
        f"_t = int({e.slot_expr(instr.node_slot)})",
        f"_a = int({e.operand(instr.address)})",
    ]
    if e.inline_post:
        lines += ["if _t < 0 or _t >= NN:", "    _badnode(_t)"]
    return lines + e.post_lines("_t", message, node_var="_t")


def _emit_thread(
    e: _Emitter, label: str, run_index: int
) -> Tuple[List[str], Tuple, Tuple]:
    """Generate one thread function; returns (lines, mix, send mix)."""
    codeblock = e.codeblock
    prefix, complete = codeblock.executable_prefix(label)
    e.slot_types.clear()
    e.desc_cache.clear()
    e.uses_sched_locals = False
    mix: Dict[Kind, int] = {}
    send_words: Dict[int, int] = {}
    for instr in prefix:
        mix[instr.kind] = mix.get(instr.kind, 0) + 1
        if isinstance(instr, SendInstr):
            words = len(instr.values)
            send_words[words] = send_words.get(words, 0) + 1
        elif isinstance(instr, (FallocInstr, IallocInstr)):
            send_words[1] = send_words.get(1, 0) + 1
    body = prefix[:-1] if complete else prefix
    lines = [
        f"def {e.thread_names[label]}(stack, f):",
        f"    tr[{run_index}] += 1",
    ]
    for instr in body:
        lines += ["    " + line for line in _emit_instr(e, instr)]
    if not complete:
        message = (
            f"thread {label!r} of {codeblock.name!r} fell off its end "
            "without STOP"
        )
        lines.append(f"    raise TamError({message!r})")
    return lines, tuple(mix.items()), tuple(send_words.items())


def _emit_inlet(e: _Emitter, number: int, spec: InletSpec) -> List[str]:
    """Generate one inlet delivery function ``i<number>(stack, f, values)``.

    ``validate()`` guarantees destination slots are in range and the
    counter (with its zero-thread) exists, so delivery is unconditional
    stores plus a constant-index counter decrement.
    """
    lines = [f"def i{number}(stack, f, values):"]
    dest = spec.dest_slots
    if len(dest) == 1:
        lines += [
            "    if values:",
            f"        f[{SLOT_BASE + dest[0]}] = values[0]",
        ]
    elif dest:
        name = f"D{number}"
        e.namespace[name] = tuple(SLOT_BASE + slot for slot in dest)
        lines += [
            f"    for _s, _v in zip({name}, values):",
            "        f[_s] = _v",
        ]
    counter = spec.counter
    if counter is None:
        if not dest:
            lines.append("    pass")
        return _with_single_value_variant(e, number, spec, lines)
    index = e.counter_index(counter)
    thread_fn = e.thread_fn(e.codeblock.counters[counter].thread)
    lines += [
        f"    _c = f[{index}]",
        "    if _c <= 0:",
        f"        _undf(f, {counter!r})",
        "    _c -= 1",
        f"    f[{index}] = _c",
        "    if _c == 0:",
        "        stack.append(f)",
        f"        stack.append({thread_fn})",
    ]
    return _with_single_value_variant(e, number, spec, lines)


def _with_single_value_variant(
    e: _Emitter, number: int, spec: InletSpec, lines: List[str]
) -> List[str]:
    """Append the one-value delivery variant ``i<number>s(stack, f, v)``.

    Machine-built replies (PREAD/IFETCH responses on the fused path)
    always carry exactly one value; a variant that takes it bare skips
    the tuple packing on the sending side and the unpack here.  The
    body mirrors the general inlet with ``values`` replaced by one
    unconditional store (reference semantics bank ``zip(dest_slots,
    values)``, so one value lands in the first destination slot).
    """
    if not e.inline_post:
        return lines
    variant = [f"def i{number}s(stack, f, v):"]
    body_start = len(variant)
    dest = spec.dest_slots
    if dest:
        variant.append(f"    f[{SLOT_BASE + dest[0]}] = v")
    counter = spec.counter
    if counter is not None:
        index = e.counter_index(counter)
        thread_fn = e.thread_fn(e.codeblock.counters[counter].thread)
        variant += [
            f"    _c = f[{index}]",
            "    if _c <= 0:",
            f"        _undf(f, {counter!r})",
            "    _c -= 1",
            f"    f[{index}] = _c",
            "    if _c == 0:",
            "        stack.append(f)",
            f"        stack.append({thread_fn})",
        ]
    if len(variant) == body_start:
        variant.append("    pass")
    return lines + [""] + variant


# Source-text -> code-object cache.  The emitted source is a pure
# function of the codeblock and the emission mode (machine identity only
# enters through namespace *bindings*), so re-loading the same program
# on a fresh machine — every benchmark repeat, every experiment run —
# skips CPython's parser, which costs more than executing the compiled
# module.  Bounded so pathological workloads cannot grow it forever.
_CODE_CACHE: Dict[Tuple[str, str], object] = {}
_CODE_CACHE_MAX = 256


def _compiled_code(source: str, filename: str):
    key = (filename, source)
    code = _CODE_CACHE.get(key)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = compile(source, filename, "exec")
        _CODE_CACHE[key] = code
    return code


def compile_codegen(codeblock: Codeblock, machine) -> CodegenBlock:
    """Compile a validated codeblock into generated functions.

    Compilation is per *machine*: the generated source closes over the
    machine's post/round-robin hooks and its thread-run-count list, and
    registers each thread's static instruction and send-word mixes with
    the machine for end-of-run stats folding.
    """
    emitter = _Emitter(codeblock, machine)
    block = CodegenBlock(codeblock)
    chunks: List[str] = []
    for label in codeblock.threads:
        run_index = len(machine._cg_runs)
        machine._cg_runs.append(0)
        lines, mix, send_words = _emit_thread(emitter, label, run_index)
        machine._cg_meta.append((mix, send_words))
        chunks.append("\n".join(lines))
    for number, spec in codeblock.inlets.items():
        chunks.append("\n".join(_emit_inlet(emitter, number, spec)))
    block.source = "\n\n".join(chunks) + "\n"
    namespace = emitter.namespace
    exec(
        _compiled_code(block.source, f"<tam codegen {codeblock.name}>"),
        namespace,
    )
    block.threads = {
        label: namespace[name] for label, name in emitter.thread_names.items()
    }
    block.inlets = {
        number: namespace[f"i{number}"] for number in codeblock.inlets
    }
    if codeblock.entry is not None:
        block.entry_fn = block.threads[codeblock.entry]
    return block
