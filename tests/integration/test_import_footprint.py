"""Importing one layer loads only the layers it uses.

Every name is imported from the module that defines it, and no package
``__init__`` imports anything, so a program, a traffic driver or a
network eval section loads none of the layers the design keeps apart
from it.  Each check runs in a fresh interpreter, because the rest of
the suite has imported everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PROGRAMS = ("repro.programs.matmul", "repro.programs.gamteb", "repro.programs.queens")
#: The NIC, the 88100 ISA, the Table 1 models and kernels, the network.
MACHINE_LAYERS = ("repro.nic", "repro.isa", "repro.impls", "repro.kernels", "repro.network")
#: The TAM and the processor node, which no network study runs.
PROCESSOR_LAYERS = ("repro.tam", "repro.isa", "repro.kernels", "repro.node")

#: Imported module -> packages or modules it must not load.
UNUSED = {
    **{
        program: MACHINE_LAYERS + tuple(other for other in PROGRAMS if other != program)
        for program in PROGRAMS
    },
    "repro.network.traffic": ("repro.tam", "repro.nic.rtl", "repro.nic.mmio"),
    "repro.eval.flowcontrol": PROCESSOR_LAYERS,
    "repro.eval.netsweep": PROCESSOR_LAYERS,
    "repro.eval.multitenant": PROCESSOR_LAYERS,
}


def loaded_by(module: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after importing ``module``."""
    code = (
        "import importlib, json, sys\n"
        f"importlib.import_module({module!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("module", sorted(UNUSED))
def test_loads_no_unused_layer(module):
    unused = UNUSED[module]
    loaded = loaded_by(module)
    assert module in loaded
    assert [
        name
        for name in loaded
        if any(name == layer or name.startswith(layer + ".") for layer in unused)
    ] == []


def test_obs_package_loads_no_submodule():
    assert loaded_by("repro.obs") == ["repro", "repro.obs"]
