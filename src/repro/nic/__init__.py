"""The paper's contribution: the tightly-coupled network interface.

Its parts, each imported from the module that defines it:

* :class:`~repro.nic.interface.NetworkInterface` — the architectural model
  (Figure 1): registers, queues, SEND / NEXT, REPLY / FORWARD modes, and
  :class:`~repro.nic.interface.Riders`, the SEND/NEXT record every
  placement issues.
* :class:`~repro.nic.messages.Message` — the five-word message (Figure 2).
* :mod:`~repro.nic.dispatch` — MsgIp / NextMsgIp hardware dispatch (Figure 7).
* :mod:`~repro.nic.mmio` — the Figure 9 memory-mapped command encoding.
* :mod:`~repro.nic.protection` — PINs, privileged messages, gang scheduling.
* :class:`~repro.nic.rtl.ClockedNIC` — the cycle-stepped RTL-style chip model.

Every message is five words.  The SCROLL-IN / SCROLL-OUT extension for
longer messages (Section 2.1.2) is not modelled: no experiment sends more
than five words.
"""
