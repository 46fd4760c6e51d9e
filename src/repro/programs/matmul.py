"""Blocked matrix multiply on TAM (the paper's first benchmark).

"The matrix multiply program subdivides matrices into 4 by 4 blocks and
computes their products" (Section 4.2), compiled "so that any two
procedure invocations would communicate across the network", at a grain of
roughly 3 floating-point operations per message.

Structure of this reproduction (all cross-frame traffic is messages):

* The **driver** activation allocates three block *directories* (I-
  structures of block references) plus one I-structure per 4×4 block of A
  and B, fills A and B element by element with ``ISTORE`` (PWrite)
  operations, then spawns one **block-product** activation per C block
  (``FALLOC`` + argument Sends) and accumulates the returned block sums.
* Each **block-product** activation loops over k: it fetches the A(i,k)
  and B(k,j) block references from the directories (PReads), fetches all
  32 block elements (PReads), and accumulates the 4×4 product locally
  (64 multiply-adds per k step — the paper's ~3 flops/message grain).
  It finally allocates its C block, banks the 16 results (PWrites),
  registers the block in the C directory, and Sends its local sum home.

Matrices are synthetic but dense and verifiable: ``A[i][j] = 0.5·i +
0.25·j + 1`` and ``B[i][j] = 0.125·i − 0.0625·j + 2``; the driver's
accumulated total and the reassembled C are checked against the closed
form of ``A·B`` (:func:`reference_product`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import TamError
from repro.obs.observer import Observer
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
    SendInstr,
    StopInstr,
    SwitchInstr,
)
from repro.tam.runtime import IStructRef, TamMachine
from repro.tam.stats import TamStats
from repro.programs.support import InletNumbers, Slots

BLOCK = 4
BLOCK_ELEMS = BLOCK * BLOCK


def reference_matrices(n: int) -> Tuple[List[List[float]], List[List[float]]]:
    """A and B of an n×n run, as lists of rows."""
    a = [[0.5 * i + 0.25 * j + 1.0 for j in range(n)] for i in range(n)]
    b = [[0.125 * i - 0.0625 * j + 2.0 for j in range(n)] for i in range(n)]
    return a, b


def reference_product(n: int) -> List[List[float]]:
    """``A·B`` of an n×n run, in closed form.

    ``A[i][k] = a_i + 0.25·k`` and ``B[k][j] = b_j + 0.125·k`` with
    ``a_i = 0.5·i + 1`` and ``b_j = 2 − 0.0625·j``, so with ``S1 = Σk``
    and ``S2 = Σk²`` over ``k < n``, ``C[i][j] = n·a_i·b_j + (0.125·a_i
    + 0.25·b_j)·S1 + 0.03125·S2``.  Every term is a multiple of 1/64
    small enough for float64 to hold exactly, so this equals the product
    by definition bit for bit.
    """
    s1 = n * (n - 1) // 2
    s2 = (n - 1) * n * (2 * n - 1) // 6
    bs = [2.0 - 0.0625 * j for j in range(n)]
    rows = []
    for i in range(n):
        a = 0.5 * i + 1.0
        rows.append([n * a * b + (0.125 * a + 0.25 * b) * s1 + 0.03125 * s2 for b in bs])
    return rows


# ---------------------------------------------------------------------------
# The block-product codeblock.
# ---------------------------------------------------------------------------


def build_block_codeblock(nb: int, done_inlet: int) -> Codeblock:
    """One C(i,j) block-product activation for an nb×nb block grid."""
    s = Slots()
    parent = s.one("parent")
    dir_a = s.one("dirA")
    dir_b = s.one("dirB")
    dir_c = s.one("dirC")
    bi = s.one("i")
    bj = s.one("j")
    k = s.one("k")
    ref_a = s.one("refA")
    ref_b = s.one("refB")
    ref_c = s.one("refC")
    t = s.one("t")
    cond = s.one("cond")
    total = s.one("sum")
    a_el = s.many("a", BLOCK_ELEMS)
    b_el = s.many("b", BLOCK_ELEMS)
    c_el = s.many("c", BLOCK_ELEMS)

    inlets = InletNumbers()
    in_parent = inlets.one("parent")
    in_dirs = inlets.one("dirs")
    in_ij = inlets.one("ij")
    in_dirc = inlets.one("dirc")
    in_ref_a = inlets.one("refA")
    in_ref_b = inlets.one("refB")
    in_a = inlets.many("a", BLOCK_ELEMS)
    in_b = inlets.many("b", BLOCK_ELEMS)
    in_cblk = inlets.one("cblk")

    block = Codeblock("mm_block", frame_size=s.size)
    block.add_inlet(in_parent, dest_slots=(parent,), counter="args")
    block.add_inlet(in_dirs, dest_slots=(dir_a, dir_b), counter="args")
    block.add_inlet(in_ij, dest_slots=(bi, bj), counter="args")
    block.add_inlet(in_dirc, dest_slots=(dir_c,), counter="args")
    block.add_counter("args", 4, "start")
    block.add_inlet(in_ref_a, dest_slots=(ref_a,), counter="refs")
    block.add_inlet(in_ref_b, dest_slots=(ref_b,), counter="refs")
    block.add_counter("refs", 2, "fetch")
    for e in range(BLOCK_ELEMS):
        block.add_inlet(in_a[e], dest_slots=(a_el[e],), counter="elems")
        block.add_inlet(in_b[e], dest_slots=(b_el[e],), counter="elems")
    block.add_counter("elems", 2 * BLOCK_ELEMS, "compute")
    block.add_inlet(in_cblk, dest_slots=(ref_c,), counter="cblk")
    block.add_counter("cblk", 1, "store")

    start = [ConInstr(c_el[e], 0.0) for e in range(BLOCK_ELEMS)]
    start += [ConInstr(k, 0), ForkInstr("k_iter"), StopInstr()]
    block.add_thread("start", start)

    block.add_thread(
        "k_iter",
        [
            ResetInstr("refs", 2),
            OpInstr(Op.IMUL, t, bi, Imm(nb)),
            OpInstr(Op.IADD, t, t, k),
            IfetchInstr(dir_a, t, reply_inlet=in_ref_a),
            OpInstr(Op.IMUL, t, k, Imm(nb)),
            OpInstr(Op.IADD, t, t, bj),
            IfetchInstr(dir_b, t, reply_inlet=in_ref_b),
            StopInstr(),
        ],
    )

    fetch = [ResetInstr("elems", 2 * BLOCK_ELEMS)]
    for e in range(BLOCK_ELEMS):
        fetch.append(IfetchInstr(ref_a, Imm(e), reply_inlet=in_a[e]))
        fetch.append(IfetchInstr(ref_b, Imm(e), reply_inlet=in_b[e]))
    fetch.append(StopInstr())
    block.add_thread("fetch", fetch)

    compute = []
    for r in range(BLOCK):
        for c in range(BLOCK):
            dest = c_el[r * BLOCK + c]
            for kk in range(BLOCK):
                compute.append(
                    OpInstr(Op.FMUL, t, a_el[r * BLOCK + kk], b_el[kk * BLOCK + c])
                )
                compute.append(OpInstr(Op.FADD, dest, dest, t))
    compute += [
        OpInstr(Op.IADD, k, k, Imm(1)),
        OpInstr(Op.LT, cond, k, Imm(nb)),
        SwitchInstr(cond, "k_iter", "finish"),
        StopInstr(),
    ]
    block.add_thread("compute", compute)

    block.add_thread(
        "finish", [IallocInstr(Imm(BLOCK_ELEMS), reply_inlet=in_cblk), StopInstr()]
    )

    store: List = []
    for e in range(BLOCK_ELEMS):
        store.append(IstoreInstr(ref_c, Imm(e), value=c_el[e]))
    # Register the block in the C directory at index i*nb + j.
    store += [
        OpInstr(Op.IMUL, t, bi, Imm(nb)),
        OpInstr(Op.IADD, t, t, bj),
        IstoreInstr(dir_c, t, value=ref_c),
    ]
    # Local block sum, then report home.
    store.append(ConInstr(total, 0.0))
    for e in range(BLOCK_ELEMS):
        store.append(OpInstr(Op.FADD, total, total, c_el[e]))
    store += [
        SendInstr(frame_slot=parent, inlet=done_inlet, values=(total,)),
        StopInstr(),
    ]
    block.add_thread("store", store)
    return block


# ---------------------------------------------------------------------------
# The driver codeblock.
# ---------------------------------------------------------------------------

DRIVER_SELF_SLOT = 0


def build_driver_codeblock(nb: int) -> Tuple[Codeblock, Slots, InletNumbers]:
    """The driver, with its frame-slot and inlet numbering."""
    s = Slots()
    assert s.one("self") == DRIVER_SELF_SLOT
    dir_a = s.one("dirA")
    dir_b = s.one("dirB")
    dir_c = s.one("dirC")
    bi = s.one("bi")  # block fill loop counter
    blk = s.one("blk")  # block being filled
    ci = s.one("ci")  # spawn loop counter
    child = s.one("child")
    t = s.one("t")
    t2 = s.one("t2")
    row = s.one("row")
    col = s.one("col")
    val = s.one("val")
    cond = s.one("cond")
    total = s.one("total")
    sum_in = s.one("sum_in")
    remaining = s.one("remaining")
    done_flag = s.one("done_flag")

    inlets = InletNumbers()
    in_dir_a = inlets.one("dirA")
    in_dir_b = inlets.one("dirB")
    in_dir_c = inlets.one("dirC")
    in_blk = inlets.one("blk")
    in_child = inlets.one("child")
    in_done = inlets.one("done")

    nb2 = nb * nb
    driver = Codeblock("mm_driver", frame_size=s.size)
    driver.add_inlet(in_dir_a, dest_slots=(dir_a,), counter="dirs")
    driver.add_inlet(in_dir_b, dest_slots=(dir_b,), counter="dirs")
    driver.add_inlet(in_dir_c, dest_slots=(dir_c,), counter="dirs")
    driver.add_counter("dirs", 3, "go")
    driver.add_inlet(in_blk, dest_slots=(blk,), counter="blk_ready")
    # Both fill phases share this counter; the posted thread branches on
    # the loop index to decide whether an A or a B block just arrived.
    driver.add_counter("blk_ready", 1, "fill_dispatch")
    driver.add_inlet(in_child, dest_slots=(child,), counter="child_ready")
    driver.add_counter("child_ready", 1, "feed")
    driver.add_inlet(in_done, dest_slots=(sum_in,), counter="done_one")
    driver.add_counter("done_one", 1, "accumulate")

    driver.add_thread(
        "entry",
        [
            ConInstr(bi, 0),
            ConInstr(ci, 0),
            ConInstr(total, 0.0),
            ConInstr(remaining, nb2),
            ConInstr(done_flag, 0),
            IallocInstr(Imm(nb2), reply_inlet=in_dir_a),
            IallocInstr(Imm(nb2), reply_inlet=in_dir_b),
            IallocInstr(Imm(nb2), reply_inlet=in_dir_c),
            StopInstr(),
        ],
    )

    # Once the directories exist, filling and spawning proceed in
    # parallel, as an Id compilation would: consumers race producers, so
    # PReads hit full, empty, and deferred elements — the mix the paper
    # measured under LIFO scheduling.
    driver.add_thread(
        "go",
        [ForkInstr("spawn_next"), ForkInstr("fill_a_next"), StopInstr()],
    )

    # --- fill phase ------------------------------------------------------
    # A and B are filled block by block; each block is its own I-structure
    # (allocated remotely, reference arriving at in_blk).
    driver.add_thread(
        "fill_a_next",
        [
            OpInstr(Op.LT, cond, bi, Imm(nb2)),
            SwitchInstr(cond, "alloc_block", "start_b"),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "alloc_block",
        [
            ResetInstr("blk_ready", 1),
            IallocInstr(Imm(BLOCK_ELEMS), reply_inlet=in_blk),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "fill_dispatch",
        [
            OpInstr(Op.LT, cond, bi, Imm(nb2)),
            SwitchInstr(cond, "fill_a_one", "fill_b_one"),
            StopInstr(),
        ],
    )

    def fill_thread(which: str) -> List:
        """Fill the 16 elements of the block in ``blk`` and register it."""
        instrs: List = []
        # Block grid coordinates from the phase-local index.
        if which == "a":
            index_expr_base = bi
            directory = dir_a
        else:
            index_expr_base = bi
            directory = dir_b
        # t = phase-local block index (bi for A, bi - nb2 for B).
        if which == "a":
            instrs.append(OpInstr(Op.IADD, t, index_expr_base, Imm(0)))
        else:
            instrs.append(OpInstr(Op.ISUB, t, index_expr_base, Imm(nb2)))
        instrs.append(OpInstr(Op.IDIV, row, t, Imm(nb)))  # block row
        instrs.append(OpInstr(Op.IMUL, t2, row, Imm(nb)))
        instrs.append(OpInstr(Op.ISUB, col, t, t2))  # block col
        instrs.append(OpInstr(Op.IMUL, row, row, Imm(BLOCK)))  # global base row
        instrs.append(OpInstr(Op.IMUL, col, col, Imm(BLOCK)))  # global base col
        for e in range(BLOCK_ELEMS):
            er, ec = divmod(e, BLOCK)
            # val = f(row + er, col + ec), computed with FP ops.
            if which == "a":
                # 0.5*(row+er) + 0.25*(col+ec) + 1.0
                instrs.append(OpInstr(Op.IADD, t, row, Imm(er)))
                instrs.append(OpInstr(Op.IADD, t2, col, Imm(ec)))
                instrs.append(OpInstr(Op.FMUL, val, t, Imm(0.5)))
                instrs.append(OpInstr(Op.FMUL, t2, t2, Imm(0.25)))
                instrs.append(OpInstr(Op.FADD, val, val, t2))
                instrs.append(OpInstr(Op.FADD, val, val, Imm(1.0)))
            else:
                # 0.125*(row+er) - 0.0625*(col+ec) + 2.0
                instrs.append(OpInstr(Op.IADD, t, row, Imm(er)))
                instrs.append(OpInstr(Op.IADD, t2, col, Imm(ec)))
                instrs.append(OpInstr(Op.FMUL, val, t, Imm(0.125)))
                instrs.append(OpInstr(Op.FMUL, t2, t2, Imm(0.0625)))
                instrs.append(OpInstr(Op.FSUB, val, val, t2))
                instrs.append(OpInstr(Op.FADD, val, val, Imm(2.0)))
            instrs.append(IstoreInstr(blk, Imm(e), value=val))
        # Register the block: directory index is the phase-local index.
        if which == "a":
            instrs.append(OpInstr(Op.IADD, t, bi, Imm(0)))
        else:
            instrs.append(OpInstr(Op.ISUB, t, bi, Imm(nb2)))
        instrs.append(IstoreInstr(directory, t, value=blk))
        instrs.append(OpInstr(Op.IADD, bi, bi, Imm(1)))
        if which == "a":
            instrs.append(ForkInstr("fill_a_next"))
        else:
            instrs.append(ForkInstr("fill_b_next"))
        instrs.append(StopInstr())
        return instrs

    driver.add_thread("fill_a_one", fill_thread("a"))
    driver.add_thread(
        "start_b",
        [
            # bi continues from nb2 to 2*nb2 for the B phase.
            ForkInstr("fill_b_next"),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "fill_b_next",
        [
            OpInstr(Op.LT, cond, bi, Imm(2 * nb2)),
            SwitchInstr(cond, "alloc_block", "spawn_next"),
            StopInstr(),
        ],
    )
    driver.add_thread("fill_b_one", fill_thread("b"))

    # --- spawn phase -------------------------------------------------------
    driver.add_thread(
        "spawn_next",
        [
            OpInstr(Op.LT, cond, ci, Imm(nb2)),
            SwitchInstr(cond, "spawn_one"),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "spawn_one",
        [
            ResetInstr("child_ready", 1),
            FallocInstr("mm_block", reply_inlet=in_child),
            StopInstr(),
        ],
    )
    driver.add_thread(
        "feed",
        [
            SendInstr(frame_slot=child, inlet=0, values=(DRIVER_SELF_SLOT,)),
            SendInstr(frame_slot=child, inlet=1, values=(dir_a, dir_b)),
            OpInstr(Op.IDIV, row, ci, Imm(nb)),
            OpInstr(Op.IMUL, t, row, Imm(nb)),
            OpInstr(Op.ISUB, col, ci, t),
            SendInstr(frame_slot=child, inlet=2, values=(row, col)),
            SendInstr(frame_slot=child, inlet=3, values=(dir_c,)),
            OpInstr(Op.IADD, ci, ci, Imm(1)),
            ForkInstr("spawn_next"),
            StopInstr(),
        ],
    )

    # --- collection ----------------------------------------------------
    driver.add_thread(
        "accumulate",
        [
            ResetInstr("done_one", 1),
            OpInstr(Op.FADD, total, total, sum_in),
            OpInstr(Op.ISUB, remaining, remaining, Imm(1)),
            OpInstr(Op.LE, cond, remaining, Imm(0)),
            SwitchInstr(cond, "finish"),
            StopInstr(),
        ],
    )
    driver.add_thread("finish", [ConInstr(done_flag, 1), StopInstr()])
    driver.set_entry("entry")
    return driver, s, inlets


# ---------------------------------------------------------------------------
# Host-level driver.
# ---------------------------------------------------------------------------


@dataclass
class MatmulResult:
    """Everything a caller needs from one run."""

    n: int
    nodes: int
    stats: TamStats
    total: float
    machine: TamMachine
    dir_c: IStructRef

    def reassemble_c(self) -> List[List[float]]:
        """Rebuild C, as rows, from the distributed I-structure blocks."""
        nb = self.n // BLOCK
        c = [[0.0] * self.n for _ in range(self.n)]
        for index in range(nb * nb):
            block_ref = self.machine.istructure_peek(self.dir_c, index)
            if block_ref is None:
                raise TamError(f"C block {index} was never written")
            bi, bj = divmod(index, nb)
            for e in range(BLOCK_ELEMS):
                er, ec = divmod(e, BLOCK)
                value = self.machine.istructure_peek(block_ref, e)
                c[bi * BLOCK + er][bj * BLOCK + ec] = value
        return c

    def verify(self) -> None:
        """Raise unless the distributed result matches ``A·B`` to 1e-6 per
        element (and the accumulated total to 1e-6 per element summed)."""
        tolerance = 1e-6
        expected = reference_product(self.n)
        error = max(
            abs(want - got)
            for want_row, got_row in zip(expected, self.reassemble_c())
            for want, got in zip(want_row, got_row)
        )
        if error > tolerance:
            raise TamError(f"matmul result error {error} exceeds {tolerance}")
        total = sum(map(sum, expected))
        if abs(self.total - total) > tolerance * self.n * self.n:
            raise TamError(f"accumulated total {self.total} != {total}")


def run_matmul(
    n: int = 16,
    nodes: int = 16,
    verify: bool = True,
    observer: Optional[Observer] = None,
) -> MatmulResult:
    """Run an n×n blocked matrix multiply on a TAM machine of ``nodes``.

    ``observer`` is attached to the machine (:meth:`TamMachine.attach`);
    results and statistics are identical with or without it.
    """
    if n % BLOCK:
        raise TamError(f"matrix size {n} must be a multiple of {BLOCK}")
    nb = n // BLOCK
    machine = TamMachine(nodes)
    if observer is not None:
        machine.attach(observer)
    driver, slots, inlets = build_driver_codeblock(nb)
    machine.load(build_block_codeblock(nb, done_inlet=inlets["done"]))
    machine.load(driver)
    ref = machine.boot("mm_driver")
    machine.write_slot(ref, DRIVER_SELF_SLOT, ref)
    stats = machine.run()
    total = machine.read_slot(ref, slots["total"])
    dir_c = machine.read_slot(ref, slots["dirC"])
    done = machine.read_slot(ref, slots["done_flag"])
    if not done:
        raise TamError("matmul driver never reached its finish thread")
    result = MatmulResult(
        n=n,
        nodes=nodes,
        stats=stats,
        total=float(total),
        machine=machine,
        dir_c=dir_c,
    )
    if verify:
        result.verify()
    return result
