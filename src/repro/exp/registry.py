"""The experiment registry: evaluation studies as data, not scripts.

Each section is one module, ``repro.eval.<name>``, that binds its
:class:`ExperimentSpec` as ``SPEC``.  :data:`EVAL_MODULES` lists the
sections in the paper's report order, and :func:`get` imports a
section's module the first time its spec is asked for, so a run imports
only the sections it selects.  ``python -m repro`` is a thin driver:
select names, hand the specs to the runner.  Adding a study to the
evaluation grid is one module binding ``SPEC`` plus its name here — no
new script, no new CLI.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, List

from repro.errors import EvaluationError

if TYPE_CHECKING:
    from repro.exp.spec import ExperimentSpec

#: Evaluation sections in report order; each is ``repro.eval.<name>``.
EVAL_MODULES = (
    "table1",
    "roundtrip",
    "throughput",
    "figure12",
    "latency",
    "ablation",
    "grain",
    "survey",
    "flowcontrol",
    "netsweep",
    "collectives",
    "multitenant",
)


def names() -> List[str]:
    """Every experiment name, in report order."""
    return list(EVAL_MODULES)


def get(name: str) -> "ExperimentSpec":
    """The spec of section ``name``, importing its module on first use."""
    if name not in EVAL_MODULES:
        raise EvaluationError(
            f"unknown experiment {name!r}; known: {', '.join(EVAL_MODULES)}"
        )
    return importlib.import_module(f"repro.eval.{name}").SPEC
