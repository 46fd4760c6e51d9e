"""Reproduction of Henry & Joerg, *A Tightly-Coupled Processor-Network
Interface* (ASPLOS-V, 1992).

The package implements the paper's network-interface architecture and the
full evaluation stack around it:

* :mod:`repro.nic` — the interface itself: registers, queues, SEND / NEXT,
  REPLY / FORWARD modes, hardware dispatch (MsgIp), protection, and a
  clocked RTL-style model.
* :mod:`repro.isa` — an 88100-flavoured RISC model with the paper's cycle
  cost rules, used to execute and count the handler kernels.
* :mod:`repro.impls` — the three placements (off-chip, on-chip, register
  file), each in basic and optimized form: the six models of Section 4.
* :mod:`repro.kernels` — the handwritten handler sequences behind Table 1.
* :mod:`repro.network` / :mod:`repro.node` — a multicomputer substrate:
  mesh fabric, node memory, I-structures, behavioural handlers.
* :mod:`repro.tam` / :mod:`repro.programs` — a TAM-style fine-grain
  threaded abstract machine and the two evaluation programs (matrix
  multiply and a Gamteb-style photon transport).
* :mod:`repro.eval` — harnesses that regenerate Table 1, Figure 12, the
  off-chip latency sweep, and the extension studies.
* :mod:`repro.api` — a high-level user API for building small machines and
  issuing remote operations.
"""
