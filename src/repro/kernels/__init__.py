"""Handwritten Table 1 kernels: protocol, sequences, harness, paper data.

Submodule imports are lazy: the harness pulls in the whole machine stack
(impls → isa → node), and eagerly importing it here would close an import
cycle through :mod:`repro.node.handlers`, which only needs
:mod:`repro.kernels.protocol`.
"""

from typing import Any

_LAZY = {
    "Measurement": "repro.kernels.harness",
    "Table1Column": "repro.kernels.harness",
    "measure_column": "repro.kernels.harness",
    "measure_dispatch": "repro.kernels.harness",
    "measure_processing": "repro.kernels.harness",
    "measure_pwrite_deferred_line": "repro.kernels.harness",
    "measure_sending": "repro.kernels.harness",
    "PROCESSING_CASES": "repro.kernels.sequences",
    "SENDING_MESSAGES": "repro.kernels.sequences",
    "dispatch_kernel": "repro.kernels.sequences",
    "processing_kernel": "repro.kernels.sequences",
    "sending_kernel": "repro.kernels.sequences",
    "protocol": "repro.kernels.protocol",
    "expected": "repro.kernels.expected",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    if name == module_name.rsplit(".", 1)[-1]:
        return module
    return getattr(module, name)
