"""Differential property test: the generated-code machine against the reference.

The generated-code machine produces every TAM number, and its
optimizations — per-thread slot typing, dropped coercions, integer
identity folds, the per-thread I-structure descriptor cache, inlined
posts — are exactly where a silent divergence from the reference
interpreter would hide.  The three paper programs exercise only the
shapes their compiler emits, so Hypothesis draws small codeblocks here
instead and runs each on both machines, unobserved and under a
:class:`~repro.obs.tracer.Tracer`.  Every run must end one of two ways:

* the same final state — frame slots (type and repr), counters,
  I-structure contents, :class:`~repro.tam.stats.TamStats`, turn count,
  and tracer stream; or
* the same exception, type and message.

Program shape (one codeblock ``fz`` on 1–3 nodes): the entry thread
banks its own reference, a target node id, and some data, then
allocates one I-structure whose reply posts ``t0``.  Threads
``t0..tK`` mix CON/MOV/SELF/OP over every ``Op``, FORK/SWITCH, RESET,
IFETCH/ISTORE, SEND to self, and READ/WRITE, and most end by forking
their successor.  Control only moves forward — a FORK/SWITCH target, or
the thread an inlet counter posts when a thread messages that inlet,
always has a higher index than the thread itself — so every draw
terminates.  Error-prone shapes (out-of-range indices, a missing inlet,
an unknown counter, a negative reset, a bad node, misaligned addresses,
references in arithmetic, an overwritten descriptor) appear only in
about one draw in six, so most draws run to completion; double writes,
never-written reads, counter underflow, and division by zero arise on
their own.

Tier-1 runs a derandomized budget of 200 examples; ``-m slow`` runs a
larger one.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.tracer import Tracer
from repro.tam.codeblock import Codeblock
from repro.tam.instructions import (
    ConInstr,
    ForkInstr,
    IallocInstr,
    IfetchInstr,
    Imm,
    IstoreInstr,
    MovInstr,
    Op,
    OpInstr,
    ReadInstr,
    ResetInstr,
    SelfInstr,
    SendInstr,
    StopInstr,
    SwitchInstr,
    WriteInstr,
)
from repro.tam.messages import IStructRef
from repro.tam.runtime import TamMachine
from repro.tam.stats import TamStats
from tam_reference import ReferenceMachine

# Frame layout: data slots, then the three slots the entry thread banks.
DATA = tuple(range(4))
SELF, DESC, NODE = 4, 5, 6
FRAME_SIZE = 7
REFS = (SELF, DESC, NODE)
ANY_SLOT = DATA + REFS
DESC_INLET = 0  # the IALLOC reply; its counter "go" posts t0
OUT_OF_RANGE = 64  # past any I-structure a draw allocates
MISSING_INLET = 9

# Division by a zero slot ends a run, so the dividing ops are drawn at
# half the weight of the others.
OPS = tuple(Op) + tuple(op for op in Op if op not in (Op.IDIV, Op.FDIV))
VALUES = st.one_of(
    # The constants the identity folds and coercions turn on.
    st.sampled_from([0, 1, True, False, 0.0, -0.0, 1.0, 0.5, -1.5, 2**53 + 1]),
    st.integers(-8, 8),
    # Small fractional floats change under int(); the full range adds
    # huge, tiny and integral ones.
    st.floats(-8, 8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(2**53, 2**62),
    st.integers(-(2**62), -(2**53)),
)


def stats_as_dict(stats: TamStats) -> dict:
    return {
        "instructions": {
            kind.name: count for kind, count in stats.instructions.items()
        },
        "messages": stats.messages.as_dict(),
        "threads_run": stats.threads_run,
        "frames_allocated": stats.frames_allocated,
        "istructures_allocated": stats.istructures_allocated,
    }


def pick(draw, options):
    """One of ``options``; shrinks toward the first."""
    return options[draw(st.integers(0, len(options) - 1))]


@st.composite
def programs(draw):
    """``(n_nodes, codeblock, length)`` for one terminating program.

    Draws only primitives and builds the instructions here, which keeps
    generation cheap enough for a tier-1 budget.
    """
    n_nodes = draw(st.integers(1, 3))
    n_threads = draw(st.integers(1, 5))
    length = draw(st.integers(1, 6))
    block = Codeblock("fz", frame_size=FRAME_SIZE)
    block.add_inlet(DESC_INLET, dest_slots=(DESC,), counter="go")
    block.add_counter("go", 1, "t0")
    # Data inlets: inlet number -> index of the thread its counter
    # posts, or None for an inlet without a counter.
    posts = {}
    for number in range(1, draw(st.integers(1, 3)) + 1):
        dest = tuple(
            dict.fromkeys(
                pick(draw, DATA) for _ in range(draw(st.integers(0, 2)))
            )
        )
        if draw(st.booleans()):
            posts[number] = None
            block.add_inlet(number, dest_slots=dest)
        else:
            posts[number] = draw(st.integers(0, n_threads - 1))
            counter = f"c{number}"
            block.add_inlet(number, dest_slots=dest, counter=counter)
            block.add_counter(
                counter, draw(st.integers(1, 3)), f"t{posts[number]}"
            )
    counters = tuple(block.counters)
    # About one program in six may draw the error-prone shapes; the
    # rest draw only well-formed ones, so most runs complete.
    faulty = draw(st.integers(0, 5)) == 5

    def rare() -> bool:
        return faulty and draw(st.integers(0, 3)) == 3

    # The data slot the current thread wrote last: operands read it back
    # half the time, building the def-use chains that codegen's slot
    # typing and descriptor cache reason about.
    written = []

    def data_slot():
        # Frame and I-structure references reach arithmetic only
        # rarely: most ops reject them, ending the run early.
        if rare():
            return pick(draw, REFS)
        if written and draw(st.booleans()):
            return written[-1]
        return pick(draw, DATA)

    def operand():
        return Imm(draw(VALUES)) if draw(st.booleans()) else data_slot()

    # Each ISTORE takes its own element (the structure grows to fit), so
    # only a thread that runs twice writes one twice.  IFETCH indices are
    # chosen once every thread is drawn (see below).
    stored = []  # (thread index, element) per ISTORE

    def bad_index():
        return pick(draw, (Imm(-1), Imm(OUT_OF_RANGE)) + DATA)

    def address():
        if rare():
            return pick(draw, (Imm(-8), Imm(3)) + DATA)
        return Imm(pick(draw, (0, 8, 16)))

    def data_op(kind):
        # A rare write over the descriptor makes later I-structure ops
        # in the thread fail, unless a stale descriptor cache hides it.
        dest = DESC if rare() else pick(draw, DATA)
        written.append(dest)
        if kind == "con":
            return ConInstr(dest, draw(VALUES))
        if kind == "mov":
            return MovInstr(dest, data_slot())
        if rare():
            return SelfInstr(dest)
        return OpInstr(pick(draw, OPS), dest, operand(), operand())

    def thread_op(i, chained):
        """One instruction legal in thread ``t<i>``."""
        # A thread pushed twice runs twice, so the successor a thread
        # chains to is not also a FORK/SWITCH target.
        later = [f"t{j}" for j in range(i + 1 + chained, n_threads)]
        inlets = [n for n, j in posts.items() if j is None or j > i]
        kinds = ["con", "mov", "op", "op", "op", "op"]
        kinds += ["reset", "istore", "write"]
        if later:
            kinds += ["fork", "switch"]
        if inlets:
            kinds += ["ifetch", "read", "send"]
        kind = pick(draw, kinds)
        if kind in ("con", "mov", "op"):
            return data_op(kind)
        if kind == "reset":
            counter = "nope" if rare() else pick(draw, counters)
            count = -1 if rare() else draw(st.integers(0, 3))
            return ResetInstr(counter, count)
        if kind == "istore":
            if rare():
                element = bad_index()
            else:
                element = Imm(len(stored))
                stored.append((i, element.value))
            # Storing the value just computed keeps it observable after
            # later writes overwrite its slot.
            if written and draw(st.booleans()):
                return IstoreInstr(DESC, element, written[-1])
            return IstoreInstr(DESC, element, pick(draw, ANY_SLOT))
        if kind == "write":
            return WriteInstr(NODE, address(), pick(draw, DATA))
        if kind == "fork":
            return ForkInstr(pick(draw, later))
        if kind == "switch":
            cond, then = pick(draw, ANY_SLOT), pick(draw, later)
            otherwise = pick(draw, later) if draw(st.booleans()) else None
            return SwitchInstr(cond, then, otherwise)
        if kind == "ifetch":
            reply = pick(draw, inlets)
            if rare():
                return IfetchInstr(DESC, bad_index(), reply)
            return ("ifetch", reply)  # index chosen below
        if kind == "read":
            return ReadInstr(NODE, address(), pick(draw, inlets))
        inlet = MISSING_INLET if rare() else pick(draw, inlets)
        values = tuple(
            pick(draw, ANY_SLOT) for _ in range(draw(st.integers(0, 2)))
        )
        return SendInstr(SELF, inlet, values)

    node = n_nodes if rare() else draw(st.integers(0, n_nodes - 1))
    entry = [SelfInstr(SELF), ConInstr(NODE, node)]
    # Nonzero starting data, so few runs end dividing by an untouched slot.
    entry += [ConInstr(slot, draw(VALUES.filter(bool))) for slot in DATA]
    entry += [
        data_op(pick(draw, ("con", "mov", "op")))
        for _ in range(draw(st.integers(1, 6)))
    ]
    bodies = []
    # Threads joined by FORKs to their successors all run once the first
    # of them does; chain[i] names the first thread of t<i>'s chain.
    chain = []
    chained = False
    for i in range(n_threads):
        written.clear()
        chain.append(chain[-1] if chained else i)
        # Most threads hand on to the next, so most of the drawn code
        # runs.
        chained = i + 1 < n_threads and draw(st.integers(0, 3)) > 0
        body = [thread_op(i, chained) for _ in range(draw(st.integers(2, 10)))]
        if chained:
            body.append(ForkInstr(f"t{i + 1}"))
        bodies.append(body)
    length = max(length, len(stored))
    for i, body in enumerate(bodies):
        # An IFETCH reads an element stored somewhere in its thread's
        # chain, which runs whenever the IFETCH does, before or after it
        # (a read before the write defers and is satisfied).  Only a
        # chain without ISTOREs reads an element nothing may write.
        elements = [e for j, e in stored if chain[j] == chain[i]]
        for k, instr in enumerate(body):
            if isinstance(instr, tuple):
                if elements:
                    element = pick(draw, elements)
                else:
                    element = draw(st.integers(0, length - 1))
                body[k] = IfetchInstr(DESC, Imm(element), instr[1])
        block.add_thread(f"t{i}", body + [StopInstr()])
    entry += [IallocInstr(Imm(length), DESC_INLET), StopInstr()]
    block.add_thread("entry", entry)
    block.set_entry("entry")
    return n_nodes, block, length


def snapshot(value):
    return type(value).__name__, repr(value)


def outcome(program, Machine: type, traced: bool) -> dict:
    """Run ``program`` once; the observable result or the error."""
    n_nodes, block, length = program
    machine = Machine(n_nodes)
    if traced:
        tracer = Tracer(capacity=None)
        machine.attach(tracer)
    try:
        machine.load(block)
        ref = machine.boot("fz")
        machine.run(max_turns=100_000)
    except Exception as error:  # any error must match across machines
        return {"error": (type(error).__name__, str(error))}
    view = machine.frame_view(ref)
    desc = view.read(DESC)
    return {
        "slots": [snapshot(value) for value in view.slots],
        "counters": {name: view.counter_value(name) for name in block.counters},
        "istructure": [
            snapshot(machine.istructure_peek(desc, i)) for i in range(length)
        ]
        if isinstance(desc, IStructRef)
        else None,
        "stats": stats_as_dict(machine.stats),
        "turns": machine.turns_executed,
        "events": list(tracer) if traced else None,
    }


def check_equivalent(program) -> None:
    for traced in (False, True):
        reference = outcome(program, ReferenceMachine, traced)
        codegen = outcome(program, TamMachine, traced)
        assert codegen == reference
        result = {key: value for key, value in codegen.items() if key != "events"}
        if traced:
            # Tracing observes the run without changing it.
            assert result == plain
        plain = result


FUZZ = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(FUZZ, max_examples=200)
@given(programs())
def test_codegen_matches_reference(program):
    check_equivalent(program)


@pytest.mark.slow
@settings(FUZZ, max_examples=3000)
@given(programs())
def test_codegen_matches_reference_extended(program):
    check_equivalent(program)


def test_address_error_precedes_unknown_node():
    """Shrunk draw: a WRITE to a missing node through a FrameRef address.

    The reference converts the address before ``_post`` rejects the
    node, so both machines raise the conversion's TypeError; the inlined
    codegen post once range-checked the node first.
    """
    block = Codeblock("fz", frame_size=FRAME_SIZE)
    block.add_inlet(DESC_INLET, dest_slots=(DESC,), counter="go")
    block.add_counter("go", 1, "t0")
    block.add_thread(
        "entry",
        [
            SelfInstr(SELF),
            ConInstr(NODE, 1),
            IallocInstr(Imm(1), DESC_INLET),
            StopInstr(),
        ],
    )
    block.add_thread("t0", [SelfInstr(1), WriteInstr(NODE, 1, 0), StopInstr()])
    block.set_entry("entry")
    program = (1, block, 1)
    assert outcome(program, ReferenceMachine, False)["error"][0] == "TypeError"
    check_equivalent(program)
