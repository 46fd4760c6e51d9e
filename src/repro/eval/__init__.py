"""Evaluation harnesses that regenerate the paper's tables and figures.

Each module is one section of the report: it computes and renders its
study and binds the section's :class:`~repro.exp.spec.ExperimentSpec`
as ``SPEC``, which :func:`repro.exp.registry.get` looks up by name.
A harness's names are imported from its own module, for example
``render_figure`` from :mod:`repro.eval.figure12`; the shared program
runs come from :mod:`repro.exp.runcache` (``run_program``).  Regenerate
a section with ``python -m repro --only <section>``.
"""
