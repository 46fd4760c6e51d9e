#!/usr/bin/env python3
"""Cycle-by-cycle walkthrough of the NIC chip (RTL-style model).

The paper's authors built and simulated the off-chip NIC at RTL; this
example clocks the reproduction's equivalent through a complete remote
write: the sender's processor composes the message in three Figure 9 bus
cycles, the transmit
port serialises it one flit per cycle, the wire carries it to the
receiver's receive port, and the dispatch logic's MsgIp output changes
the cycle the message lands.

Run:  python examples/rtl_walkthrough.py
"""

from repro.nic.dispatch import decode_table_address
from repro.nic.interface import NetworkInterface, SendMode
from repro.nic.messages import pack_destination
from repro.nic.mmio import encode_address
from repro.nic.rtl import ClockedNIC

TYPE_WRITE = 3


def main() -> None:
    sender = ClockedNIC(NetworkInterface(node=0))
    receiver_ni = NetworkInterface(node=1)
    receiver_ni.ip_base = 0x0008_0000
    receiver = ClockedNIC(receiver_ni)

    # --- processor side: three bus cycles compose and send -------------
    # Each bus write is one sender clock edge.  The transmit port can
    # start serialising in the same cycle the SEND lands, so every sender
    # edge's output goes onto the wire while the receiver clocks alongside.
    print("sender processor port (Figure 9 bus writes):")
    wire = None

    def clock_receiver(out_flit):
        nonlocal wire
        receiver.tick(rx_flit=wire)
        wire = out_flit

    for label, address, value in [
        ("o0 <- dest|address", encode_address(register="o0"), pack_destination(1, 0x40)),
        ("o1 <- value", encode_address(register="o1"), 0xBEEF),
        # A command-only store names an input register, whose writes the
        # interface ignores.
        (
            f"SEND type={TYPE_WRITE}",
            encode_address("i0", send_mode=SendMode.NORMAL, send_type=TYPE_WRITE),
            0,
        ),
    ]:
        sent, out_flit = sender.bus_write(address, value)
        clock_receiver(out_flit)
        print(f"  cycle {sender.cycle}: {label}" + (f" ({sent.value})" if sent else ""))
        if out_flit is not None:
            print(
                f"  cycle {sender.cycle:2d}: tx {out_flit.kind.value:4s} "
                f"payload={out_flit.payload:#010x}"
            )

    # --- the wire: one flit per cycle -----------------------------------
    print("\nlink (HEAD + five DATA flits):")
    for _ in range(20):
        out_flit = sender.tick()
        clock_receiver(out_flit)
        if out_flit is not None:
            print(
                f"  cycle {sender.cycle:2d}: {out_flit.kind.value:4s} "
                f"payload={out_flit.payload:#010x}"
            )
        if receiver.interface.msg_valid:
            break

    # --- dispatch logic: MsgIp now points at the Write handler ----------
    handler, iafull, oafull = decode_table_address(receiver.msg_ip_wire)
    print(
        f"\nreceiver MsgIp wire: handler id {handler} "
        f"(type {TYPE_WRITE} = Write), iafull={iafull}, oafull={oafull}"
    )
    assert handler == TYPE_WRITE

    # --- receiver processor port: read the message out ------------------
    address, _, _ = receiver.bus_read(encode_address(register="i0"))
    value, _, _ = receiver.bus_read(encode_address(register="i1", do_next=True))
    print(
        f"receiver read i0={address:#010x} (dest|address), i1={value:#06x}, "
        "and issued NEXT in the same bus cycle"
    )
    assert value == 0xBEEF
    assert not receiver.interface.msg_valid
    print(f"\ntotal: sender clocked {sender.cycle} cycles, "
          f"receiver {receiver.cycle} cycles")


if __name__ == "__main__":
    main()
