"""Receive-side tenancy: scheduling thousands of protection domains.

The paper's Section 2.1.3 sketches multi-user protection for two
processes; this package scales the receive/dispatch path to thousands of
tenants.  :mod:`repro.tenancy.scheduler` provides the pluggable policies
(gang with drain-between-slices, independent round-robin, quantum-based
preemptive), :mod:`repro.tenancy.workload` the heavy-tailed open-loop
tenant traffic and the :class:`~repro.tenancy.workload.MultiTenantRun`
harness the ``multitenant`` eval section drives.
"""

# bench/workloads.py imports make_tenants from here; everything else
# imports it from repro.tenancy.workload.
from repro.tenancy.workload import make_tenants  # noqa: F401
