"""The contract a clocked object implements to run under the kernel.

A component is anything with per-cycle behaviour: a fabric, a
synthetic traffic source, a processor's service loop.  The kernel only
ever calls the three methods below, always in the component's
registration order, so a component never needs to know what else is in
the machine.

Components are duck-typed — subclassing :class:`SimComponent` is
convenient (it supplies the defaults) but not required; any object with
``tick``/``quiescent``/``snapshot`` and a ``name`` can be registered.

Profiling never leaks into this contract: ``python -m repro --profile``
times each component class's ``tick`` through a class-level wrapper
(:mod:`repro.obs.where`), so no instance is written to, and nothing is
wrapped without ``--profile`` — ``tests/obs/test_profiler.py`` asserts
both.
"""

from __future__ import annotations

from typing import Dict


class SimComponent:
    """Base class for kernel-driven components.

    Subclasses override :meth:`tick`; most also override
    :meth:`quiescent` (the default claims the component never holds the
    machine open) and :meth:`snapshot` (the default contributes nothing
    to stall diagnostics).
    """

    #: Display name used in diagnostics; instances may shadow this.
    name: str = "component"

    def tick(self, cycle: int) -> None:
        """Advance one cycle.  ``cycle`` is the kernel's cycle number.

        A component that wants to be idle-skipped calls ``sleep()`` /
        ``wake_at()`` on the :class:`~repro.sim.kernel.SimHandle` it
        received at registration; the kernel never ticks a sleeping
        component.
        """
        raise NotImplementedError

    def quiescent(self) -> bool:
        """True when this component holds no pending work.

        The kernel's default stop condition fires when *every*
        registered component is quiescent — including sleeping ones, so
        a component that sleeps between timed wakes must still report
        non-quiescent while it has work outstanding.
        """
        return True

    def snapshot(self) -> Dict[str, object]:
        """Diagnostic state included in the kernel's stall report."""
        return {}
