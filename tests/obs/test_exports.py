"""The obs package surface: lazy exports, __all__, and Tracer.clear.

``repro.obs`` resolves its exports lazily (PEP 562), so importing the
package must not pull in any submodule, every ``__all__`` name must
resolve to the right object, and the order names are touched in must
not matter.  The laziness checks run in a subprocess because the rest
of the suite imports the submodules eagerly.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.obs as obs
from repro.obs.tracer import HOP, SEND, Tracer


def run_snippet(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestLazyExports:
    def test_import_pulls_no_submodules(self):
        # `import repro` itself loads obs.observer (via repro.nic); the
        # package import must add nothing beyond that baseline.
        out = run_snippet(
            "import sys\n"
            "import repro\n"
            "baseline = {m for m in sys.modules if m.startswith('repro.obs')}\n"
            "import repro.obs\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.startswith('repro.obs.') and m not in baseline]\n"
            "print(loaded)\n"
        )
        assert out == "[]"

    def test_attribute_access_loads_only_its_module(self):
        out = run_snippet(
            "import sys\n"
            "import repro.obs\n"
            "baseline = {m for m in sys.modules if m.startswith('repro.obs.')}\n"
            "assert 'repro.obs.lineage' not in baseline\n"
            "repro.obs.LineageTracker\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith('repro.obs.') "
            "and m not in baseline)\n"
            "print(loaded)\n"
        )
        assert out == "['repro.obs.lineage']"

    def test_import_order_does_not_matter(self):
        # breakdown imports lineage; touching them in either order must
        # resolve to the same objects.
        out = run_snippet(
            "from repro.obs import reconcile_lineage, LineageTracker\n"
            "from repro.obs.breakdown import reconcile_lineage as direct\n"
            "print(reconcile_lineage is direct)\n"
        )
        assert out == "True"
        out = run_snippet(
            "from repro.obs import LineageTracker, reconcile_lineage\n"
            "from repro.obs.lineage import LineageTracker as direct\n"
            "print(LineageTracker is direct)\n"
        )
        assert out == "True"

    def test_all_names_resolve(self):
        # Every repro package's __all__, not only this one's: a name
        # deleted from a module but left in __all__ breaks only
        # `from ... import *`.
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        assert obs in packages
        for package in packages:
            for name in package.__all__:
                assert getattr(package, name, None) is not None, (
                    f"{package.__name__}.__all__ names {name!r}"
                )

    def test_all_is_complete(self):
        # Every public name of the submodules' own __all__ that the
        # package maps must round-trip; and the lineage/breakdown
        # additions must be present.
        for required in (
            "Tracer",
            "MetricsRecorder",
            "chrome_trace",
            "LineageTracker",
            "LineageRecord",
            "Span",
            "PHASES",
            "LINEAGE_SCHEMA",
            "reconcile_lineage",
            "phase_breakdown",
            "critical_path",
            "lineage_report",
            "write_lineage",
        ):
            assert required in obs.__all__
        assert list(obs.__all__) == sorted(obs.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            obs.does_not_exist

    def test_dir_lists_exports(self):
        assert set(obs.__all__) <= set(dir(obs))

    def test_star_import_matches_all(self):
        namespace = {}
        exec("from repro.obs import *", namespace)
        exported = {k for k in namespace if not k.startswith("__")}
        assert exported == set(obs.__all__)


class TestTracerClear:
    def test_clear_resets_dropped(self):
        tracer = Tracer(capacity=2)
        for ts in range(5):
            tracer.emit(ts, SEND, 0)
        assert tracer.dropped == 3
        tracer.clear()
        assert tracer.dropped == 0
        assert tracer.emitted == 0
        assert len(tracer) == 0

    def test_clear_resets_per_kind_counts(self):
        tracer = Tracer()
        tracer.emit(0, SEND, 0)
        tracer.emit(1, HOP, 0)
        tracer.emit(2, HOP, 0)
        tracer.clear()
        assert tracer.count(SEND) == 0
        assert tracer.count(HOP) == 0
        # The tracer is reusable after clear with exact counts again.
        tracer.emit(3, HOP, 0)
        assert tracer.count(HOP) == 1
        assert tracer.dropped == 0
