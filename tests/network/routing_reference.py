"""Routing references the network tests share.

:func:`candidates` is the reference composition of a policy's two
halves: the static route's ranked ports in ``rank`` order, then its
fixed ports.  The fabric never composes them: it keeps the static part
in its route tables and calls only ``rank`` per message.

:class:`NoDateline` is the escape-channel policy before datelines: one
escape channel, so on a torus its escape legs can wait on each other
round a ring.
"""

from repro.network.routing import EscapeVC


def candidates(policy, topology, node, destination, free_slots):
    """Ordered candidate output ports for one head-of-buffer message:
    the ranked ports ordered by ``rank`` given each one's
    ``free_slots(next node, vc)``, then the fixed ports."""
    ranked, fixed = policy.static_route(topology, node, destination)
    if len(ranked) > 1:
        ranked = tuple(policy.rank(ranked, [free_slots(n, vc) for n, vc in ranked]))
    return ranked + fixed


class NoDateline(EscapeVC):
    """``EscapeVC`` with two channels: every escape leg rides the escape
    channel, the wrap link's included."""

    num_vcs = 2
    dateline_vc = EscapeVC.escape_vc
