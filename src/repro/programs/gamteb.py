"""Gamteb on TAM: Monte Carlo photon transport (the paper's second benchmark).

"Gamteb performs a Monte Carlo photon transport simulation" (Section 4.2).
The original traces photons through a carbon cylinder with Compton
scattering, absorption, and pair production.  This reproduction keeps the
NI-relevant structure — what the paper measured is the *message mix* the
program generates — while simplifying the physics:

* photons carry an energy *group*; per-collision cross sections live in a
  shared I-structure table, so **every collision fetches two table entries
  with PReads** (the table is filled concurrently with the first photons'
  flights, so fetches hit full, empty, and deferred elements);
* each collision draws from a deterministic per-photon LCG (computed in
  TAM integer arithmetic — runs are bit-reproducible) and the photon
  **escapes**, is **absorbed**, **scatters** down in energy, or — the pair
  -production analogue — **splits**, FALLOC-ing a new photon activation;
* tallies aggregate up the spawn tree: each photon reports (absorbed,
  escaped) counts to its parent only after all its descendants have
  reported, so termination is race-free and the final counts conserve
  photons exactly.

Every photon is its own activation; photons are spread round-robin over
the nodes, and all interaction (argument passing, table access, tallies)
is messages — as the paper's compilation demanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import TamError
from repro.tam.codeblock import Codeblock
from repro.tam.instructions import (
    ConInstr,
    FallocInstr,
    ForkInstr,
    IallocInstr,
    IfetchInstr,
    Imm,
    IstoreInstr,
    Op,
    OpInstr,
    ResetInstr,
    SelfInstr,
    SendInstr,
    StopInstr,
    SwitchInstr,
)
from repro.tam.runtime import TamMachine
from repro.tam.stats import TamStats
from repro.programs.support import InletNumbers, Slots

GROUPS = 8
"""Energy groups; photons are born in the highest group."""

SPLIT_MIN_GROUP = 4
"""Pair production only above this energy group."""

SPLIT_PROBABILITY = 0.10
ESCAPE_SIGMA = 0.15

PHOTON_DONE_INLET = 6
"""Inlet number where both photons and the driver receive subtree tallies."""

LCG_MULT = 1103515245
LCG_ADD = 12345
LCG_MOD = 2**31


# ---------------------------------------------------------------------------
# The photon codeblock.
# ---------------------------------------------------------------------------


def build_photon_codeblock(done_inlet: int) -> Codeblock:
    """One photon activation.

    ``done_inlet`` is the inlet number — identical on the parent photon
    and on the driver — where the (absorbed, escaped) subtree tally is
    reported, so root photons and descendants share one codeblock.
    """
    s = Slots()
    parent = s.one("parent")
    table = s.one("table")
    group = s.one("group")
    rng = s.one("rng")
    sig_s = s.one("sig_s")
    sig_a = s.one("sig_a")
    absorbed = s.one("absorbed")
    escaped = s.one("escaped")
    kids = s.one("kids")
    dead = s.one("dead")
    child = s.one("child")
    child_seed = s.one("child_seed")
    child_group = s.one("child_group")
    ca = s.one("ca")
    ce = s.one("ce")
    t = s.one("t")
    u = s.one("u")
    p1 = s.one("p1")
    p2 = s.one("p2")
    tot = s.one("tot")
    cond = s.one("cond")
    self_slot = s.one("self")

    inlets = InletNumbers()
    in_parent = inlets.one("parent")
    in_table = inlets.one("table")
    in_state = inlets.one("state")
    in_sig_s = inlets.one("sig_s")
    in_sig_a = inlets.one("sig_a")
    in_kid = inlets.one("kid")
    in_done = inlets.one("done")
    if in_done != done_inlet:
        raise TamError(
            f"photon done inlet is {in_done}, driver expects {done_inlet}"
        )

    photon = Codeblock("photon", frame_size=s.size)
    photon.add_inlet(in_parent, dest_slots=(parent,), counter="args")
    photon.add_inlet(in_table, dest_slots=(table,), counter="args")
    photon.add_inlet(in_state, dest_slots=(group, rng), counter="args")
    photon.add_counter("args", 3, "start")
    photon.add_inlet(in_sig_s, dest_slots=(sig_s,), counter="sig")
    photon.add_inlet(in_sig_a, dest_slots=(sig_a,), counter="sig")
    photon.add_counter("sig", 2, "collide")
    photon.add_inlet(in_kid, dest_slots=(child,), counter="kid_ready")
    photon.add_counter("kid_ready", 1, "feed_kid")
    photon.add_inlet(in_done, dest_slots=(ca, ce), counter="kid_done")
    photon.add_counter("kid_done", 1, "merge")

    photon.add_thread(
        "start",
        [
            ConInstr(absorbed, 0),
            ConInstr(escaped, 0),
            ConInstr(kids, 0),
            ConInstr(dead, 0),
            ForkInstr("step"),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "step",
        [
            ResetInstr("sig", 2),
            OpInstr(Op.IMUL, t, group, Imm(2)),
            IfetchInstr(table, t, reply_inlet=in_sig_s),
            OpInstr(Op.IADD, t, t, Imm(1)),
            IfetchInstr(table, t, reply_inlet=in_sig_a),
            StopInstr(),
        ],
    )

    def advance_rng():
        """state = (LCG_MULT*state + LCG_ADD) mod 2^31, in TAM integer ops."""
        return [
            OpInstr(Op.IMUL, rng, rng, Imm(LCG_MULT)),
            OpInstr(Op.IADD, rng, rng, Imm(LCG_ADD)),
            OpInstr(Op.IDIV, t, rng, Imm(LCG_MOD)),
            OpInstr(Op.IMUL, t, t, Imm(LCG_MOD)),
            OpInstr(Op.ISUB, rng, rng, t),
        ]

    photon.add_thread(
        "collide",
        advance_rng()
        + [
            OpInstr(Op.FDIV, u, rng, Imm(LCG_MOD)),
            # tot = sig_s + sig_a + sigma_escape
            OpInstr(Op.FADD, tot, sig_s, sig_a),
            OpInstr(Op.FADD, tot, tot, Imm(ESCAPE_SIGMA)),
            OpInstr(Op.FDIV, p1, Imm(ESCAPE_SIGMA), tot),
            OpInstr(Op.FADD, p2, sig_a, Imm(ESCAPE_SIGMA)),
            OpInstr(Op.FDIV, p2, p2, tot),
            OpInstr(Op.LT, cond, u, p1),
            SwitchInstr(cond, "escape", "check_absorb"),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "escape",
        [OpInstr(Op.IADD, escaped, escaped, Imm(1)), ForkInstr("die"), StopInstr()],
    )
    photon.add_thread(
        "absorb",
        [OpInstr(Op.IADD, absorbed, absorbed, Imm(1)), ForkInstr("die"), StopInstr()],
    )
    photon.add_thread(
        "check_absorb",
        [
            OpInstr(Op.LT, cond, u, p2),
            SwitchInstr(cond, "absorb", "maybe_split"),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "maybe_split",
        advance_rng()
        + [
            OpInstr(Op.FDIV, u, rng, Imm(LCG_MOD)),
            OpInstr(Op.LT, cond, u, Imm(SPLIT_PROBABILITY)),
            OpInstr(Op.LE, t, Imm(SPLIT_MIN_GROUP), group),
            OpInstr(Op.AND, cond, cond, t),
            SwitchInstr(cond, "split", "scatter"),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "scatter",
        [
            OpInstr(Op.ISUB, group, group, Imm(1)),
            # Thermalised photons are absorbed.
            OpInstr(Op.LE, cond, group, Imm(0)),
            SwitchInstr(cond, "absorb", "step"),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "split",
        [
            # Pair production: one new photon two groups down; the parent
            # itself continues via feed_kid once the child frame exists
            # (serialising splits keeps child_seed/child_group stable).
            OpInstr(Op.IADD, kids, kids, Imm(1)),
            OpInstr(Op.ISUB, child_group, group, Imm(2)),
            OpInstr(Op.IMUL, child_seed, rng, Imm(31)),
            OpInstr(Op.IADD, child_seed, child_seed, Imm(7)),
            OpInstr(Op.IDIV, t, child_seed, Imm(LCG_MOD)),
            OpInstr(Op.IMUL, t, t, Imm(LCG_MOD)),
            OpInstr(Op.ISUB, child_seed, child_seed, t),
            ResetInstr("kid_ready", 1),
            FallocInstr("photon", reply_inlet=in_kid),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "feed_kid",
        [
            # Child argument protocol: parent ref, table ref, (group, seed).
            SelfInstr(self_slot),
            SendInstr(frame_slot=child, inlet=in_parent, values=(self_slot,)),
            SendInstr(frame_slot=child, inlet=in_table, values=(table,)),
            SendInstr(
                frame_slot=child, inlet=in_state, values=(child_group, child_seed)
            ),
            # The parent resumes its own flight as a scatter.
            ForkInstr("scatter"),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "die",
        [
            ConInstr(dead, 1),
            OpInstr(Op.LE, cond, kids, Imm(0)),
            SwitchInstr(cond, "report"),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "merge",
        [
            ResetInstr("kid_done", 1),
            OpInstr(Op.IADD, absorbed, absorbed, ca),
            OpInstr(Op.IADD, escaped, escaped, ce),
            OpInstr(Op.ISUB, kids, kids, Imm(1)),
            OpInstr(Op.LE, cond, kids, Imm(0)),
            OpInstr(Op.AND, cond, cond, dead),
            SwitchInstr(cond, "report"),
            StopInstr(),
        ],
    )

    photon.add_thread(
        "report",
        [
            SendInstr(frame_slot=parent, inlet=in_done, values=(absorbed, escaped)),
            StopInstr(),
        ],
    )
    return photon


# ---------------------------------------------------------------------------
# The driver codeblock.
# ---------------------------------------------------------------------------

DRIVER_SELF_SLOT = 0


def build_driver_codeblock(n_photons: int, seed: int) -> Tuple[Codeblock, Slots]:
    """The driver, with its frame-slot numbering."""
    s = Slots()
    assert s.one("self") == DRIVER_SELF_SLOT
    table = s.one("table")
    fill_i = s.one("fill_i")
    spawn_i = s.one("spawn_i")
    child = s.one("child")
    val = s.one("val")
    t = s.one("t")
    seed_slot = s.one("seed")
    cond = s.one("cond")
    total_abs = s.one("total_abs")
    total_esc = s.one("total_esc")
    ca = s.one("ca")
    ce = s.one("ce")
    remaining = s.one("remaining")
    done_flag = s.one("done_flag")

    inlets = InletNumbers()
    in_table = inlets.one("table")
    in_child = inlets.one("child")
    # The tally inlet must sit at the same number as the photon's own
    # "done" inlet (6): a photon reports to its parent without knowing
    # whether that parent is another photon or the driver.
    in_done = PHOTON_DONE_INLET

    driver = Codeblock("gamteb_driver", frame_size=s.size)
    driver.add_inlet(in_table, dest_slots=(table,), counter="table_ready")
    driver.add_counter("table_ready", 1, "go")
    driver.add_inlet(in_child, dest_slots=(child,), counter="child_ready")
    driver.add_counter("child_ready", 1, "feed")
    driver.add_inlet(in_done, dest_slots=(ca, ce), counter="done_one")
    driver.add_counter("done_one", 1, "accumulate")

    driver.add_thread(
        "entry",
        [
            ConInstr(fill_i, 0),
            ConInstr(spawn_i, 0),
            ConInstr(total_abs, 0),
            ConInstr(total_esc, 0),
            ConInstr(remaining, n_photons),
            ConInstr(done_flag, 0),
            IallocInstr(Imm(2 * GROUPS), reply_inlet=in_table),
            StopInstr(),
        ],
    )
    # Filling and spawning overlap, as in the matmul driver: early photons
    # race the table fill, so some cross-section PReads defer.
    # Photons are sourced first and the table is computed afterwards, the
    # way an Id program's eager consumers race a producer: the first wave
    # of cross-section fetches finds empty elements and defers, and the
    # table fill then satisfies the queued readers through PWrite
    # forwarding — the deferred path the paper prices in Table 1.
    driver.add_thread("go", [ForkInstr("spawn_next"), StopInstr()])

    fill_one = []
    # sigma_scatter(g) = 0.5 + 0.04 g at table[2g];
    # sigma_absorb(g) = 0.2 + 0.02 (GROUPS - g) at table[2g+1].
    fill_one += [
        OpInstr(Op.FMUL, val, fill_i, Imm(0.04)),
        OpInstr(Op.FADD, val, val, Imm(0.5)),
        OpInstr(Op.IMUL, t, fill_i, Imm(2)),
        IstoreInstr(table, t, value=val),
        OpInstr(Op.ISUB, val, Imm(GROUPS), fill_i),
        OpInstr(Op.FMUL, val, val, Imm(0.02)),
        OpInstr(Op.FADD, val, val, Imm(0.2)),
        OpInstr(Op.IADD, t, t, Imm(1)),
        IstoreInstr(table, t, value=val),
        OpInstr(Op.IADD, fill_i, fill_i, Imm(1)),
        ForkInstr("fill_next"),
        StopInstr(),
    ]
    driver.add_thread("fill_one", fill_one)
    driver.add_thread(
        "fill_next",
        [
            OpInstr(Op.LT, cond, fill_i, Imm(GROUPS)),
            SwitchInstr(cond, "fill_one"),
            StopInstr(),
        ],
    )

    driver.add_thread(
        "spawn_next",
        [
            OpInstr(Op.LT, cond, spawn_i, Imm(n_photons)),
            SwitchInstr(cond, "spawn_one", "fill_next"),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "spawn_one",
        [
            ResetInstr("child_ready", 1),
            FallocInstr("photon", reply_inlet=in_child),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "feed",
        [
            # Deterministic per-photon seed, derived in TAM arithmetic.
            OpInstr(Op.IMUL, seed_slot, spawn_i, Imm(2654435761 % LCG_MOD)),
            OpInstr(Op.IADD, seed_slot, seed_slot, Imm(seed % LCG_MOD)),
            OpInstr(Op.IDIV, t, seed_slot, Imm(LCG_MOD)),
            OpInstr(Op.IMUL, t, t, Imm(LCG_MOD)),
            OpInstr(Op.ISUB, seed_slot, seed_slot, t),
            ConInstr(val, GROUPS - 1),
            SendInstr(frame_slot=child, inlet=0, values=(DRIVER_SELF_SLOT,)),
            SendInstr(frame_slot=child, inlet=1, values=(table,)),
            SendInstr(frame_slot=child, inlet=2, values=(val, seed_slot)),
            OpInstr(Op.IADD, spawn_i, spawn_i, Imm(1)),
            ForkInstr("spawn_next"),
            StopInstr(),
        ],
    )

    driver.add_thread(
        "accumulate",
        [
            ResetInstr("done_one", 1),
            OpInstr(Op.IADD, total_abs, total_abs, ca),
            OpInstr(Op.IADD, total_esc, total_esc, ce),
            OpInstr(Op.ISUB, remaining, remaining, Imm(1)),
            OpInstr(Op.LE, cond, remaining, Imm(0)),
            SwitchInstr(cond, "finish"),
            StopInstr(),
        ],
    )
    driver.add_thread("finish", [ConInstr(done_flag, 1), StopInstr()])
    driver.set_entry("entry")
    return driver, s


# ---------------------------------------------------------------------------
# Host-level driver.
# ---------------------------------------------------------------------------


@dataclass
class GamtebResult:
    n_photons: int
    nodes: int
    seed: int
    stats: TamStats
    absorbed: int
    escaped: int
    photons_traced: int
    machine: TamMachine

    def verify(self) -> None:
        """Photon conservation: every photon ever created died exactly once."""
        if self.absorbed + self.escaped != self.photons_traced:
            raise TamError(
                f"photon count not conserved: {self.absorbed} absorbed + "
                f"{self.escaped} escaped != {self.photons_traced} traced"
            )
        if self.photons_traced < self.n_photons:
            raise TamError("fewer photons traced than were sourced")


def run_gamteb(
    n_photons: int = 16,
    nodes: int = 16,
    seed: int = 19920501,
) -> GamtebResult:
    """Run the Gamteb reproduction with ``n_photons`` source particles
    and check photon conservation (:meth:`GamtebResult.verify`)."""
    machine = TamMachine(nodes)
    driver, slots = build_driver_codeblock(n_photons, seed)
    machine.load(build_photon_codeblock(done_inlet=PHOTON_DONE_INLET))
    machine.load(driver)
    ref = machine.boot("gamteb_driver")
    machine.write_slot(ref, DRIVER_SELF_SLOT, ref)
    stats = machine.run()
    done = machine.read_slot(ref, slots["done_flag"])
    if not done:
        raise TamError("gamteb driver never reached its finish thread")
    absorbed = int(machine.read_slot(ref, slots["total_abs"]))
    escaped = int(machine.read_slot(ref, slots["total_esc"]))
    # Photons = all frames except the driver's.
    photons = stats.frames_allocated - 1
    result = GamtebResult(
        n_photons=n_photons,
        nodes=nodes,
        seed=seed,
        stats=stats,
        absorbed=absorbed,
        escaped=escaped,
        photons_traced=photons,
        machine=machine,
    )
    result.verify()
    return result
