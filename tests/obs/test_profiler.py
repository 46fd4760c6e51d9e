"""The host-time profiler behind ``python -m repro --profile``.

:class:`~repro.obs.where.Instrument` wraps a fixed list of layer
boundaries and component ticks at class level.  Three properties carry
the design:

* **Off means off.**  A run without ``--profile`` never imports the
  instrument and leaves every boundary's original function in place;
  uninstalling puts each original back.
* **On changes nothing.**  Payloads and statistics are identical with
  the instrument installed, and no component gains an attribute.
* **On means exact.**  Call counts reconcile with the tracer's
  independent event counts and the run's cycles, and are deterministic.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp import registry, runner
from repro.exp.spec import EvalOptions
from repro.network.fabric import Fabric
from repro.network.topology import Mesh2D
from repro.nic.messages import pack_destination
from repro.obs import where
from repro.obs.tracer import NEXT, SEND, SEND_STALL, Tracer
from repro.obs.where import (
    BOUNDARIES,
    ROOT,
    Instrument,
    render_where,
    resolve,
    write_where,
)
from repro.programs.matmul import run_matmul
from repro.sim import SimKernel
from repro.tam.runtime import TamMachine

REPO_ROOT = Path(__file__).resolve().parents[2]


def small_params() -> dict:
    params = hotspot_params(EvalOptions())
    params["messages_per_sender"] = 4
    return params


def send(fabric: Fabric, source: int, dest: int, tag: int = 7) -> None:
    interface = fabric.interface(source)
    interface.write_output(0, pack_destination(dest))
    interface.write_output(1, tag)
    interface.send(2)


def calls(taken: dict) -> dict:
    """Drop the seconds (the one volatile part of a profile)."""
    return {name: entry["calls"] for name, entry in taken.items()}


def wrapped_functions():
    """(boundary, owner, attribute) for every function a boundary wraps."""
    return [
        (qualname, owner, attr)
        for module, qualname in BOUNDARIES
        for owner, attr in resolve(module, qualname)
    ]


@pytest.fixture
def instrument():
    instrument = Instrument()
    instrument.install()
    try:
        yield instrument
    finally:
        instrument.uninstall()


class TestZeroCostOff:
    def test_hotspot_payload_identical_with_and_without_profiler(self):
        params = small_params()
        plain = run_hotspot(params)
        instrument = Instrument()
        instrument.install()
        try:
            profiled = run_hotspot(params)
        finally:
            instrument.uninstall()
        assert plain == profiled
        assert instrument.take()["Fabric.tick"]["calls"] == plain["cycles"]

    def test_run_without_profile_never_imports_the_instrument(self):
        code = (
            "import sys\n"
            "from repro.__main__ import main\n"
            "main(['--only', 'table1', 'flowcontrol', '--no-json'])\n"
            "assert 'repro.obs.where' not in sys.modules\n"
            "from repro.obs.where import BOUNDARIES, resolve\n"
            "for module, qualname in BOUNDARIES:\n"
            "    for owner, attr in resolve(module, qualname):\n"
            "        function = vars(owner)[attr]\n"
            "        assert function.__module__ == module, qualname\n"
            "        assert not hasattr(function, '__wrapped__'), qualname\n"
            "print('every boundary unwrapped')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "every boundary unwrapped"

    def test_uninstall_restores_every_original_function(self):
        functions = wrapped_functions()
        originals = [vars(owner)[attr] for _, owner, attr in functions]
        instrument = Instrument()
        instrument.install()
        try:
            for (name, owner, attr), original in zip(functions, originals):
                assert vars(owner)[attr] is not original, name
                assert vars(owner)[attr].__wrapped__ is original, name
        finally:
            instrument.uninstall()
        for (name, owner, attr), original in zip(functions, originals):
            assert vars(owner)[attr] is original, name

    def test_profiling_writes_no_attributes_onto_components(self, instrument):
        fabric = Fabric(Mesh2D(2, 2), serialization_cycles=1)
        send(fabric, 0, 3)
        before = set(vars(fabric))
        kernel = SimKernel()
        kernel.register(fabric)
        cycles = kernel.run(max_cycles=100).cycles
        assert set(vars(fabric)) == before
        assert instrument.take()["Fabric.tick"]["calls"] == cycles


class TestBoundaries:
    def test_boundary_names_are_unique(self):
        names = [qualname for _, qualname in BOUNDARIES]
        assert len(names) == len(set(names))
        assert names[0] == ROOT

    @pytest.mark.parametrize(
        "module, qualname",
        [
            ("repro.sim.kernel", "NoSuchKernel.run"),
            ("repro.sim.kernel", "SimKernel.no_such_method"),
            ("repro.sim.kernel", "SimKernel.handles"),  # a property
            ("repro.obs.lineage", "LineageTracker.no_such_*"),
            ("repro.exp.runner", "no_such_function"),
        ],
    )
    def test_missing_boundary_raises(self, module, qualname):
        with pytest.raises(AttributeError, match=qualname.split(".")[-1]):
            resolve(module, qualname)

    def test_install_with_a_missing_boundary_wraps_nothing(self, monkeypatch):
        functions = wrapped_functions()
        originals = [vars(owner)[attr] for _, owner, attr in functions]
        monkeypatch.setattr(
            where, "BOUNDARIES", BOUNDARIES + (("repro.sim.kernel", "SimKernel.gone"),)
        )
        with pytest.raises(AttributeError, match="SimKernel.gone"):
            Instrument().install()
        assert [vars(owner)[attr] for _, owner, attr in functions] == originals

    def test_every_component_tick_is_a_boundary(self):
        """Every class under ``repro`` that ticks under the kernel (it has
        ``tick`` and ``quiescent``) reports its ticks."""
        boundaries = set(BOUNDARIES)
        components = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for cls in vars(module).values():
                if (
                    inspect.isclass(cls)
                    and cls.__module__ == info.name
                    and inspect.isfunction(vars(cls).get("tick"))
                    and hasattr(cls, "quiescent")
                    and cls.__name__ != "SimComponent"
                ):
                    components.append((info.name, f"{cls.__qualname__}.tick"))
        assert components
        assert [c for c in components if c not in boundaries] == []


class TestKernelAttribution:
    def test_fabric_ticks_every_cycle_and_sleepers_are_skipped(self, instrument):
        payload = run_hotspot(small_params())
        taken = instrument.take()
        cycles = payload["cycles"]
        assert taken["Fabric.tick"]["calls"] == cycles
        assert taken["Fabric.step"]["calls"] == cycles
        assert taken["SimKernel.run"]["calls"] == 1
        # Fifteen senders sleep between offer slots: far fewer ticks than
        # fifteen per cycle.
        assert 0 < taken["_Sender.tick"]["calls"] < 15 * cycles

    def test_attribution_reconciles_with_the_tracer(self, instrument):
        """The three invariants the hot-spot holds by construction, at
        paper scale: every sender tick makes one SEND attempt, the
        fabric ticks every cycle, and each serviced message is one
        ``NEXT``."""
        tracer = Tracer()
        payload = run_hotspot(
            hotspot_params(EvalOptions(paper_scale=True)), tracer=tracer
        )
        taken = instrument.take()
        attempts = tracer.count(SEND) + tracer.count(SEND_STALL)
        assert taken["_Sender.tick"]["calls"] == attempts == 18_244
        assert taken["NetworkInterface.send"]["calls"] == attempts
        assert taken["Fabric.tick"]["calls"] == payload["cycles"] == 7_200
        assert payload["serviced"] == tracer.count(NEXT) == 900
        assert taken["NetworkInterface.next"]["calls"] == payload["serviced"]
        assert taken["Tracer.emit"]["calls"] == tracer.emitted

    def test_profile_deterministic_up_to_seconds(self, instrument):
        profiles = []
        for _ in range(2):
            run_hotspot(small_params(), tracer=Tracer())
            profiles.append(calls(instrument.take()))
        assert profiles[0] == profiles[1]

    def test_attribution_accumulates_across_runs(self, instrument):
        fabric = Fabric(Mesh2D(2, 2), serialization_cycles=1)
        for tag in range(2):
            send(fabric, 0, 3, tag)
            fabric.run_until_quiescent()
        taken = instrument.take()
        assert taken["SimKernel.run"]["calls"] == 2
        assert taken["Fabric.tick"]["calls"] == fabric.stats.cycles
        assert instrument.take() == {}


class TestTamAttribution:
    def test_profiled_run_identical_to_unprofiled(self):
        for backend in TamMachine.BACKENDS:
            plain = run_matmul(n=8, nodes=4, backend=backend)
            instrument = Instrument()
            instrument.install()
            try:
                profiled = run_matmul(n=8, nodes=4, backend=backend)
            finally:
                instrument.uninstall()
            assert plain.total == profiled.total
            assert plain.stats == profiled.stats
            assert plain.machine.turns_executed == profiled.machine.turns_executed
            assert calls(instrument.take()) == {
                "TamMachine.load": 2,
                "TamMachine.run": 1,
            }

    def test_fast_and_reference_attribute_identically(self, instrument):
        profiles = []
        for backend in TamMachine.BACKENDS:
            run_matmul(n=8, nodes=4, backend=backend, tracer=Tracer())
            profiles.append(calls(instrument.take()))
        assert profiles[0] == profiles[1]
        assert profiles[0]["Tracer.emit"] > 0


class TestReport:
    def test_render_where_works_on_plain_payload(self, instrument, tmp_path):
        registry.load_all()
        spec = registry.get("flowcontrol")
        runner.run_one(spec, spec.params(EvalOptions()))
        path = write_where(tmp_path, {"flowcontrol": instrument.take()})
        payload = json.loads(path.read_text())
        section = payload["sections"]["flowcontrol"]
        boundaries = section["boundaries"]
        assert section["total_s"] == boundaries[ROOT]["total_s"]
        assert sum(b["self_s"] for b in boundaries.values()) == pytest.approx(
            section["total_s"]
        )
        text = render_where({"flowcontrol": boundaries})
        assert "profile: flowcontrol" in text
        assert "Fabric.step" in text
        assert "self share" in text
