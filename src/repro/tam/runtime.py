"""The TAM runtime: multi-node execution with full message accounting.

This is the reproduction's equivalent of the Berkeley TAM simulator the
paper used (Section 4.2.1): it executes codeblocks over a set of nodes,
counts every TAM instruction by class, and counts every inter-frame
message by type and outcome.  Like the paper's simulator it "does not
model any number of processors or any network latency" for *timing* —
messages are delivered reliably and scheduling is deterministic — but the
*placement* is real: frames and I-structures are distributed round-robin
and every cross-frame interaction is a message, exactly as the programs
were compiled for the paper.

Scheduling is LIFO per node (the paper determined its presence-bit
outcome ratios under "LIFO scheduling of dataflow tokens"); nodes are
serviced round-robin, one message or one thread per turn, so runs are
reproducible bit for bit.

Each whole thread is compiled at ``load()`` time to one generated Python
function over flat-list frames (:mod:`repro.tam.codegen`), and nodes are
served by one fused loop over the flag arrays of
:class:`repro.sim.sweep.ActiveSweep`, which skips idle nodes for free,
observed or not.  The per-instruction interpreter that specifies the
same semantics is this machine's subclass ``ReferenceMachine`` in
``tests/tam/tam_reference.py``, the oracle the tests compare every run
with: field-for-field identical :class:`~repro.tam.stats.TamStats` and
turn-for-turn identical trace streams (``tests/tam/test_backend_matrix.py``,
``tests/tam/test_codegen_differential.py``,
``tests/sim/test_determinism.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import DeadlockError, IStructureError, TamError
from repro.node.istructure import DeferredReader, IStructureMemory
from repro.node.memory import Memory
from repro.tam.codeblock import Codeblock
from repro.tam.codegen import (
    FlatFrameView,
    compile_codegen,
    flat_read,
    flat_write,
)
from repro.tam.frame import FrameRef
from repro.tam.messages import (
    FRAME_ID_BITS as _FRAME_ID_BITS,
    IStructRef,
    MsgKind,
    TamMessage,
)
from repro.obs.observer import Observer, observer_of
from repro.sim.sweep import ActiveSweep
from repro.tam.stats import TamStats

__all__ = ["IStructRef", "MsgKind", "TamMessage", "TamMachine"]

# Message-kind sentinel for machine-built replies on the fused loop: the
# tuple carries the bound inlet function and the flat frame itself ([2]
# and [3]), so delivery is one call with no frame or inlet lookup.  Only
# _run_loop creates and consumes these.
_FAST_REPLY = object()

# A message kind no message carries: an observed run binds the fused
# loop's inline kinds to it, so every message takes _process_message.
_NO_KIND = object()


class _NodeState:
    """Per-node runtime state."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.inbox: Deque[TamMessage] = deque()
        # Continuation stack: two bare elements per continuation — frame,
        # then thread function — so popping one allocates nothing.
        self.stack: List = []
        self.frames: Dict[int, list] = {}
        self.istructures = IStructureMemory()
        self.memory = Memory()
        self.next_frame_id = 1


class TamMachine:
    """A whole TAM machine.

    :meth:`load` compiles each codeblock's threads to generated code and
    :meth:`run` serves the nodes to quiescence in one loop.

    :meth:`attach` fills the machine's one ``observer`` slot with any
    :class:`~repro.obs.observer.Observer`: posts raise ``on_tam_post``
    and handled messages ``on_tam_handle_begin`` /
    ``on_tam_handle_end``.  The first attach
    swaps the entry points for observed wrappers before ``load()``
    generates code over them, so a machine with nothing attached runs
    byte-identical hot-path code (zero overhead when off).
    """

    def __init__(self, n_nodes: int = 1) -> None:
        if n_nodes < 1:
            raise TamError("a TAM machine needs at least one node")
        self.n_nodes = n_nodes
        self.nodes = [_NodeState(n) for n in range(n_nodes)]
        self.codeblocks: Dict[str, Codeblock] = {}
        self.stats = TamStats()
        self.turns_executed = 0
        self._rr_next = 0
        self._compiled: Dict[str, object] = {}
        # The loop's activity flags (repro.sim.sweep) are per-machine
        # state because _post and generated code set them directly; they
        # are `.active` only while a run is in progress.
        self._sched = ActiveSweep(n_nodes)
        # Run accounting: one run counter per generated thread (bumped by
        # the generated code), one (instruction mix, send-word mix)
        # record per thread, folded into stats after each run.
        self._cg_runs: List[int] = []
        self._cg_meta: List[Tuple[Tuple, Tuple]] = []
        self.observer: Optional[Observer] = None

    def attach(self, observer: Observer) -> None:
        """Subscribe ``observer`` to posts and handled messages, beside any
        earlier one.  Attach before :meth:`load`: generated code binds
        the posting entry point when it is built.
        """
        if self.codeblocks:
            raise TamError("attach observers before loading a codeblock")
        if self.observer is None:
            self._install_observed_entry_points()
        self.observer = observer_of(self.observer, observer)

    def _install_observed_entry_points(self) -> None:
        """Swap the message entry points for observed wrappers, once.

        Installed as *instance* attributes, which is what makes
        observation free when absent: the generated code captures
        ``machine._post`` at ``load()`` time, and ``_process_message``,
        which every message of an observed run takes, reads
        ``self._deliver`` / ``self._on_pread`` and the rest on each
        call, so with nothing attached they resolve to the original
        methods.  Only the seven leaf handlers are wrapped (not
        ``_process_message``, which dispatches to them), so each handled
        message raises one begin/end pair; a reply posted inside a
        handler falls between the two, which links request to response.
        """
        plain_post = self._post

        def observed_post(message: TamMessage) -> None:
            self.observer.on_tam_post(message)
            plain_post(message)

        self._post = observed_post

        def wrap_handler(handler):
            def observed(state: _NodeState, message: TamMessage) -> None:
                observer = self.observer
                observer.on_tam_handle_begin(state.node_id, message)
                try:
                    handler(state, message)
                finally:
                    observer.on_tam_handle_end(state.node_id, message)

            return observed

        for name in (
            "_deliver",
            "_on_pread",
            "_on_pwrite",
            "_on_falloc",
            "_on_ialloc",
            "_on_read",
            "_on_write",
        ):
            setattr(self, name, wrap_handler(getattr(self, name)))

    # ------------------------------------------------------------------
    # Program loading and boot.
    # ------------------------------------------------------------------

    def load(self, codeblock: Codeblock) -> None:
        codeblock.validate()
        if codeblock.name in self.codeblocks:
            raise TamError(f"codeblock {codeblock.name!r} already loaded")
        self.codeblocks[codeblock.name] = codeblock
        self._compile(codeblock)

    def _compile(self, codeblock: Codeblock) -> None:
        """Generate the codeblock's thread and inlet functions."""
        self._compiled[codeblock.name] = compile_codegen(codeblock, self)

    def boot(
        self, codeblock_name: str, slots: Optional[Dict[int, object]] = None
    ) -> FrameRef:
        """Create the root activation on node 0 and post its entry thread.

        Boot is runtime setup, not program communication: it sends no
        messages and counts nothing.
        """
        ref = self._activate(0, codeblock_name)
        for slot, value in (slots or {}).items():
            self.write_slot(ref, slot, value)
        if self.codeblocks[codeblock_name].entry is None:
            raise TamError(f"codeblock {codeblock_name!r} has no entry thread")
        return ref

    def _activate(self, node_id: int, codeblock_name: str) -> FrameRef:
        """Allocate a frame on ``node_id`` and post its entry thread, if any."""
        try:
            block = self._compiled[codeblock_name]
        except KeyError:
            raise TamError(f"unknown codeblock {codeblock_name!r}") from None
        state = self.nodes[node_id]
        ref = FrameRef(node_id, state.next_frame_id)
        state.next_frame_id += 1
        frame = block.make_frame(ref)
        state.frames[ref.frame_id] = frame
        self.stats.frames_allocated += 1
        if block.entry_fn is not None:
            state.stack.append(frame)
            state.stack.append(block.entry_fn)
        return ref

    def read_slot(self, ref: FrameRef, slot: int):
        """Host-level frame inspection (results, not program semantics)."""
        return flat_read(self._frame(self.nodes[ref.node], ref.frame_id), slot)

    def write_slot(self, ref: FrameRef, slot: int, value) -> None:
        """Host-level frame setup (e.g. banking the root's own reference)."""
        flat_write(self._frame(self.nodes[ref.node], ref.frame_id), slot, value)

    def frame_view(self, ref: FrameRef) -> FlatFrameView:
        """An activation's ``slots`` / ``read`` / ``counter_value`` view
        (:class:`~repro.tam.codegen.FlatFrameView`), read through to the
        live frame."""
        return FlatFrameView(self._frame(self.nodes[ref.node], ref.frame_id))

    def istructure_peek(self, ref: "IStructRef", index: int):
        """Host-level I-structure inspection."""
        return self.nodes[ref.node].istructures.peek(ref.descriptor, index)

    def _round_robin(self) -> int:
        node = self._rr_next
        self._rr_next = (self._rr_next + 1) % self.n_nodes
        return node

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(self, max_turns: int = 100_000_000) -> TamStats:
        """Execute to quiescence; returns the accumulated statistics.

        ``max_turns`` bounds *productive* turns (threads run plus messages
        processed) exactly: a run needing exactly ``max_turns`` turns
        succeeds, one needing more raises before executing the excess
        turn.  Sweeps over idle nodes are not charged against it.
        """
        try:
            turns = self._run_loop(max_turns)
        finally:
            # Fold even when the run raised mid-way: the generated code
            # has already bumped its run counters, and stats accumulate
            # across run() calls.
            self._fold_codegen_stats()
        self.turns_executed += turns
        self._check_quiescence()
        return self.stats

    def _run_loop(self, max_turns: int) -> int:
        """Scheduling, delivery, and presence bits in one loop.

        Threads were compiled to single functions at ``load()`` time
        (:mod:`repro.tam.codegen`); a continuation is two stack elements
        (frame list, thread function), so a thread turn is two pops and
        one call.  This inlines, in one frame: the service order of
        :mod:`repro.sim.sweep` over :class:`~repro.sim.sweep.ActiveSweep`'s
        flags, with enabled threads served before messages (TAM's
        continuation vector has priority over inlets, so a counter
        re-armed by its own thread is reset before the next message
        decrements it), inlet delivery through the flat frame's dispatch
        dict (``frame[0]``), and the PRead/PWrite protocols over the
        I-structure internals
        (:class:`~repro.node.istructure.IStructureMemory`, with no
        :class:`~repro.node.istructure.DeferredReader` built).  Per-turn
        cost is what makes or breaks the machine; every layer boundary
        that remains here shows up directly in the benchmarks.

        An observed run binds the four inline kinds to ``_NO_KIND``, so
        every message takes the ``_process_message`` branch and reaches
        the observed handler wrappers, one begin/end pair per message.
        Only the inline branches build ``_FAST_REPLY`` messages, so an
        observed run has none.
        """
        nodes = self.nodes
        sched = self._sched
        n = self.n_nodes
        in_current = sched.in_current
        in_next = sched.in_next
        # stack/inbox are bound once in NodeState.__init__ and never
        # reassigned, so indexing parallel lists replaces an attribute
        # load on every turn.
        stacks = [s.stack for s in nodes]
        inboxes = [s.inbox for s in nodes]
        framemaps = [s.frames for s in nodes]
        # I-structure internals, pre-resolved per node: the descriptor
        # map and the stats block are both stable attributes, and the
        # PREAD/PWRITE branches touch them on every presence-bit turn.
        arraymaps = [s.istructures._arrays for s in nodes]
        istats = [s.istructures.stats for s in nodes]
        process = self._process_message
        mix = self.stats.messages
        fast_reply = _FAST_REPLY
        if self.observer is None:
            kind_send = MsgKind.SEND
            kind_reply = MsgKind.REPLY
            kind_pread = MsgKind.PREAD
            kind_pwrite = MsgKind.PWRITE
        else:
            kind_send = kind_reply = kind_pread = kind_pwrite = _NO_KIND

        for state in nodes:
            if state.stack or state.inbox:
                in_current[state.node_id] = True
        sched.sweep_pos = -1
        sched.active = True
        turns = 0
        # Hot message-mix tallies kept in locals and folded in the
        # finally block: an integer increment beats an attribute
        # read-modify-write at tens of thousands per run.
        n_preads_full = 0
        # Per-node reads_full tallies, likewise folded at the end: a
        # list-slot increment beats a stats-object attribute RMW on the
        # single hottest presence-bit counter.
        reads_full_local = [0] * n
        try:
            while True:
                i = in_current.index(True)
                while i != n:
                    in_current[i] = False
                    stack = stacks[i]
                    inbox = inboxes[i]
                    if stack:
                        # Only generated code consults sweep_pos (for
                        # the wake rule when it posts), and only thread
                        # bodies post — message branches below wake
                        # with the loop's own `i`.
                        sched.sweep_pos = i
                        stack.pop()(stack, stack.pop())
                    else:
                        # Flagged nodes always have work, so the inbox
                        # is non-empty here.  TamMessage is a
                        # NamedTuple; positional access skips the
                        # attribute descriptors.
                        message = inbox.popleft()
                        kind = message[0]
                        if kind is fast_reply:
                            # Machine-built reply carrying the bound
                            # single-value inlet, the frame list, and
                            # the bare value: delivery is one call, no
                            # frame/inlet lookup, no values tuple.
                            message[2](stack, message[3], message[4])
                        elif kind is kind_pread:
                            # Compact inline PREAD: [2] reply-inlet fn,
                            # [3] frame, [4] owner node, [5] descriptor,
                            # [6] index.
                            descriptor = message[5]
                            try:
                                array = arraymaps[i][descriptor]
                            except KeyError:
                                raise IStructureError(
                                    f"unknown I-structure descriptor "
                                    f"{descriptor:#x}"
                                ) from None
                            element_index = message[6]
                            # Direct index with a negative guard: one
                            # comparison on the hot path instead of a
                            # range test plus a len() call.
                            try:
                                if element_index < 0:
                                    raise IndexError
                                element = array[element_index]
                            except IndexError:
                                raise IStructureError(
                                    f"index {element_index} outside "
                                    f"I-structure of {len(array)} elements"
                                ) from None
                            if element.full:
                                reads_full_local[i] += 1
                                n_preads_full += 1
                                # Flag stores are idempotent, no dedup.
                                rnode = message[4]
                                inboxes[rnode].append((
                                    fast_reply,
                                    rnode,
                                    message[2],
                                    message[3],
                                    element.value,
                                ))
                                if rnode > i:
                                    in_current[rnode] = True
                                else:
                                    in_next[rnode] = True
                            else:
                                waiters = element.waiters
                                if waiters:
                                    istats[i].reads_deferred += 1
                                    mix.preads_deferred += 1
                                else:
                                    istats[i].reads_empty += 1
                                    mix.preads_empty += 1
                                # Deferred readers keep the same
                                # (fn, frame, node) shape the reply
                                # needs — no DeferredReader packing.
                                waiters.append(
                                    (message[2], message[3], message[4])
                                )
                        elif kind is kind_send or kind is kind_reply:
                            frame = framemaps[i].get(message[3])
                            if frame is None:
                                raise TamError(
                                    f"node {i}: no frame {message[3]}"
                                )
                            deliver = frame[0].get(message[2])
                            if deliver is None:
                                raise TamError(
                                    f"codeblock {frame[2].name!r} has no "
                                    f"inlet {message[2]}"
                                )
                            deliver(stack, frame, message[4])
                        elif kind is kind_pwrite:
                            # _on_pwrite with IStructureMemory.write
                            # inlined, satisfied readers replied to in
                            # queue order.
                            descriptor = message[7]
                            try:
                                array = arraymaps[i][descriptor]
                            except KeyError:
                                raise IStructureError(
                                    f"unknown I-structure descriptor "
                                    f"{descriptor:#x}"
                                ) from None
                            element_index = message[8]
                            try:
                                if element_index < 0:
                                    raise IndexError
                                element = array[element_index]
                            except IndexError:
                                raise IStructureError(
                                    f"index {element_index} outside "
                                    f"I-structure of {len(array)} elements"
                                ) from None
                            if element.full:
                                raise IStructureError(
                                    f"double write to I-structure "
                                    f"{descriptor:#x}[{element_index}]"
                                )
                            element.full = True
                            value = message[4][0]
                            element.value = value
                            satisfied = element.waiters
                            if satisfied:
                                element.waiters = []
                                n_satisfied = len(satisfied)
                                istats[i].writes_deferred += 1
                                istats[i].deferred_readers_satisfied += (
                                    n_satisfied
                                )
                                mix.pwrites_deferred += 1
                                mix.deferred_readers_satisfied += n_satisfied
                                for reader in satisfied:
                                    rnode = reader[2]
                                    inboxes[rnode].append((
                                        fast_reply,
                                        rnode,
                                        reader[0],
                                        reader[1],
                                        value,
                                    ))
                                    if rnode > i:
                                        in_current[rnode] = True
                                    else:
                                        in_next[rnode] = True
                            else:
                                istats[i].writes_empty += 1
                                mix.pwrites_empty += 1
                        else:
                            # Cold kinds (FALLOC/IALLOC/READ/WRITE), and
                            # every kind when observed, post replies
                            # through _post, which reads sweep_pos for
                            # its wake rule.
                            sched.sweep_pos = i
                            process(nodes[i], message)
                    turns += 1
                    if stack or inbox:
                        if turns >= max_turns:
                            raise TamError(
                                f"TAM run exceeded {max_turns} turns"
                            )
                        in_next[i] = True
                    elif turns >= max_turns and (
                        in_current.index(True, i + 1) != n
                        or in_next.index(True) != n
                    ):
                        raise TamError(
                            f"TAM run exceeded {max_turns} turns"
                        )
                    i = in_current.index(True, i + 1)
                sched.sweep_pos = -1
                if in_next.index(True) == n:
                    return turns
                # Promote: the next sweep's flags become the current
                # sweep's; reassign the sched attributes so wake sites
                # in generated code see the swap.
                in_current, in_next = in_next, in_current
                sched.in_current = in_current
                sched.in_next = in_next
        finally:
            mix.preads_full += n_preads_full
            for j in range(n):
                if reads_full_local[j]:
                    istats[j].reads_full += reads_full_local[j]
            sched.active = False
            sched.sweep_pos = -1
            for i in range(n):
                in_current[i] = False
                in_next[i] = False

    def _fold_codegen_stats(self) -> None:
        """Fold per-thread run counts into the cumulative statistics.

        Generated threads only bump one integer per run; the instruction
        mix and send-word counts are static per thread, so the whole
        run's accounting is ``runs x mix`` here.  Counters are zeroed as
        they are folded, keeping repeated ``run()`` calls additive.
        """
        runs = self._cg_runs
        meta = self._cg_meta
        stats = self.stats
        instructions = stats.instructions
        sends = stats.messages.sends_by_words
        threads_run = 0
        for index, count in enumerate(runs):
            if not count:
                continue
            runs[index] = 0
            threads_run += count
            mix, send_words = meta[index]
            for kind, per_run in mix:
                instructions[kind] += per_run * count
            for words, per_run in send_words:
                sends[words] += per_run * count
        stats.threads_run += threads_run

    def _check_quiescence(self) -> None:
        """Detect computations that stopped with unsatisfied waiters.

        General deadlock detection (a sync counter nothing will ever
        decrement) is undecidable without program knowledge; what *is*
        always wrong at quiescence is an I-structure reader still
        deferred — no work remains that could ever write the element.
        """
        waiters = sum(
            state.istructures.stats.reads_empty
            + state.istructures.stats.reads_deferred
            - state.istructures.stats.deferred_readers_satisfied
            for state in self.nodes
        )
        if waiters > 0:
            raise DeadlockError(
                f"computation quiesced with {waiters} deferred I-structure "
                "reader(s) never satisfied"
            )

    # ------------------------------------------------------------------
    # Message processing.
    # ------------------------------------------------------------------

    def _post(self, message: TamMessage) -> None:
        node = message.node
        if node < 0 or node >= self.n_nodes:
            raise TamError(f"message addressed to unknown node {node}")
        self.nodes[node].inbox.append(message)
        sched = self._sched
        if sched.active:
            # Keep the activity flags in sync: a node the sweep has not
            # reached yet joins the current sweep, otherwise the next one
            # (this is the hottest path in an observed TAM run).
            if node > sched.sweep_pos:
                sched.in_current[node] = True
            else:
                sched.in_next[node] = True

    def _frame(self, state: _NodeState, frame_id: int) -> list:
        try:
            return state.frames[frame_id]
        except KeyError:
            raise TamError(
                f"node {state.node_id}: no frame {frame_id}"
            ) from None

    def _reply(self, reply_to: Tuple[FrameRef, int], values: Tuple) -> None:
        ref, inlet = reply_to
        # Positional TamMessage: (kind, node, inlet, frame_id, values).
        self._post(TamMessage(MsgKind.REPLY, ref.node, inlet, ref.frame_id, values))

    def _process_message(self, state: _NodeState, message: TamMessage) -> None:
        # Identity if-chain ordered by dynamic frequency: enum identity
        # checks avoid the per-message hash a dict dispatch would pay.
        kind = message.kind
        if kind is MsgKind.SEND or kind is MsgKind.REPLY:
            self._deliver(state, message)
        elif kind is MsgKind.PREAD:
            self._on_pread(state, message)
        elif kind is MsgKind.PWRITE:
            self._on_pwrite(state, message)
        elif kind is MsgKind.FALLOC:
            self._on_falloc(state, message)
        elif kind is MsgKind.IALLOC:
            self._on_ialloc(state, message)
        elif kind is MsgKind.READ:
            self._on_read(state, message)
        elif kind is MsgKind.WRITE:
            self._on_write(state, message)
        else:  # pragma: no cover - exhaustive over MsgKind
            raise TamError(f"unimplemented message kind {kind}")

    def _deliver(self, state: _NodeState, message: TamMessage) -> None:
        frame = state.frames.get(message.frame_id)
        if frame is None:
            raise TamError(f"node {state.node_id}: no frame {message.frame_id}")
        deliver = frame[0].get(message.inlet)
        if deliver is None:
            raise TamError(
                f"codeblock {frame[2].name!r} has no inlet "
                f"{message.inlet}"
            )
        deliver(state.stack, frame, message.values)

    def _on_falloc(self, state: _NodeState, message: TamMessage) -> None:
        ref = self._activate(state.node_id, message.codeblock)
        assert message.reply_to is not None
        self.stats.messages.count_send(1)  # the frame-ref reply is a Send
        self._post(
            TamMessage(
                MsgKind.SEND,
                node=message.reply_to[0].node,
                frame_id=message.reply_to[0].frame_id,
                inlet=message.reply_to[1],
                values=(ref,),
            )
        )

    def _on_ialloc(self, state: _NodeState, message: TamMessage) -> None:
        descriptor = state.istructures.allocate(message.index)
        self.stats.istructures_allocated += 1
        assert message.reply_to is not None
        self.stats.messages.count_send(1)
        self._post(
            TamMessage(
                MsgKind.SEND,
                node=message.reply_to[0].node,
                frame_id=message.reply_to[0].frame_id,
                inlet=message.reply_to[1],
                values=(IStructRef(state.node_id, descriptor),),
            )
        )

    def _on_pread(self, state: _NodeState, message: TamMessage) -> None:
        mix = self.stats.messages
        # The reader encoding (the inverse of _decode_reader) and _reply
        # are inlined: this handler runs once per IFETCH and the call
        # overhead is measurable.
        ref, inlet = message.reply_to
        reader = DeferredReader(
            (ref.node << _FRAME_ID_BITS) | ref.frame_id, inlet
        )
        outcome, value = state.istructures.read(
            message.descriptor, message.index, reader
        )
        if outcome == "full":
            mix.preads_full += 1
            self._post(
                TamMessage(MsgKind.REPLY, ref.node, inlet, ref.frame_id, (value,))
            )
        elif outcome == "empty":
            mix.preads_empty += 1
        else:
            mix.preads_deferred += 1

    def _on_pwrite(self, state: _NodeState, message: TamMessage) -> None:
        mix = self.stats.messages
        outcome, satisfied = state.istructures.write(
            message.descriptor, message.index, message.values[0]
        )
        if outcome == "empty":
            mix.pwrites_empty += 1
        else:
            mix.pwrites_deferred += 1
            mix.deferred_readers_satisfied += len(satisfied)
        for reader in satisfied:
            self._reply(_decode_reader(reader), (message.values[0],))

    def _on_read(self, state: _NodeState, message: TamMessage) -> None:
        self.stats.messages.reads += 1
        assert message.reply_to is not None
        self._reply(message.reply_to, (state.memory.load(message.address),))

    def _on_write(self, state: _NodeState, message: TamMessage) -> None:
        self.stats.messages.writes += 1
        state.memory.store(message.address, int(message.values[0]))


def _decode_reader(reader: DeferredReader) -> Tuple[FrameRef, int]:
    node = reader.frame_pointer >> _FRAME_ID_BITS
    frame_id = reader.frame_pointer & ((1 << _FRAME_ID_BITS) - 1)
    return FrameRef(node, frame_id), reader.instruction_pointer
