"""Tests for synthetic traffic patterns and the measured runs."""

import random

import pytest

from repro.errors import NetworkError, RoutingError
from repro.network.routing import AdaptiveRandom, DimensionOrder, EscapeVC
from repro.network.topology import Mesh2D
from repro.network.traffic import (
    HOTSPOT_FRACTION,
    PATTERNS,
    TrafficSource,
    censored_ages,
    pattern_destination,
    run_traffic,
    run_traffic_named,
    saturation_throughput,
)


class FixedRng:
    """A stand-in RNG with scripted draws, for the stochastic patterns."""

    def __init__(self, uniform: float = 0.5, pick: int = 3):
        self.uniform = uniform
        self.pick = pick

    def random(self) -> float:
        return self.uniform

    def randrange(self, n: int) -> int:
        assert self.pick < n
        return self.pick


class TestPatternDestination:
    def test_uniform_draws_from_rng(self):
        assert pattern_destination("uniform", 0, 16, FixedRng(pick=11)) == 11

    def test_hotspot_targets_hot_node(self):
        hot = pattern_destination(
            "hotspot", 5, 16, FixedRng(uniform=HOTSPOT_FRACTION / 2), hot_node=9
        )
        assert hot == 9

    def test_hotspot_background_is_uniform(self):
        cold = pattern_destination(
            "hotspot", 5, 16, FixedRng(uniform=0.99, pick=4), hot_node=9
        )
        assert cold == 4

    def test_bit_rotation_rotates_right(self):
        # 8 nodes, 3 address bits: 0b011 -> 0b101.
        assert pattern_destination("bit-rotation", 0b011, 8, random.Random()) == 0b101

    def test_shuffle_rotates_left(self):
        # 0b011 -> 0b110 (the perfect shuffle).
        assert pattern_destination("shuffle", 0b011, 8, random.Random()) == 0b110

    def test_transpose_swaps_address_halves(self):
        # 16 nodes, 4 bits: 0b0110 -> 0b1001.
        assert pattern_destination("transpose", 0b0110, 16, random.Random()) == 0b1001

    def test_permutations_are_bijections(self):
        for pattern, n_nodes in (
            ("bit-rotation", 64),
            ("shuffle", 64),
            ("transpose", 64),
        ):
            rng = random.Random()
            images = {
                pattern_destination(pattern, node, n_nodes, rng)
                for node in range(n_nodes)
            }
            assert images == set(range(n_nodes))

    def test_permutations_need_power_of_two(self):
        with pytest.raises(RoutingError, match="power-of-two"):
            pattern_destination("bit-rotation", 0, 6, random.Random())

    def test_transpose_needs_even_address_width(self):
        with pytest.raises(RoutingError, match="even address width"):
            pattern_destination("transpose", 0, 8, random.Random())

    def test_unknown_pattern_rejected(self):
        with pytest.raises(RoutingError, match="unknown traffic pattern"):
            pattern_destination("tornado", 0, 16, random.Random())


class TestTrafficSource:
    def make_fabric(self):
        from repro.network.fabric import Fabric

        return Fabric(Mesh2D(2, 2), serialization_cycles=1)

    def test_rate_bounds_checked(self):
        fabric = self.make_fabric()
        with pytest.raises(NetworkError, match="injection rate"):
            TrafficSource(fabric, "uniform", 1.5, seed=0, duration=10)

    def test_unknown_pattern_checked(self):
        fabric = self.make_fabric()
        with pytest.raises(RoutingError, match="unknown traffic pattern"):
            TrafficSource(fabric, "tornado", 0.1, seed=0, duration=10)

    def test_rate_zero_offers_nothing(self):
        fabric = self.make_fabric()
        source = TrafficSource(fabric, "uniform", 0.0, seed=0, duration=10)
        for cycle in range(10):
            source.tick(cycle)
        assert source.offered == 0


class TestCensoredAges:
    def test_counts_router_buffers_and_output_queues(self):
        from repro.network.fabric import Fabric
        from repro.network.router import InTransit
        from repro.nic.messages import Message, pack_destination

        fabric = Fabric(Mesh2D(2, 2), serialization_cycles=1)
        # One message inside a router (stamped at injection)...
        fabric.place(
            1,
            InTransit(Message(3, (pack_destination(3), 0, 0, 0, 0)), injected_at=5),
            neighbor=0,
        )
        # ...and one still in an output queue (cycle stamp in word 1).
        ni = fabric.interfaces[2]
        ni.write_output(0, pack_destination(0))
        ni.write_output(1, 7)
        ni.send(3)
        assert sorted(censored_ages(fabric, now=20)) == [13, 15]

    def test_empty_fabric_has_no_censored_samples(self):
        from repro.network.fabric import Fabric

        assert censored_ages(Fabric(Mesh2D(2, 2)), now=10) == []


class TestRunTraffic:
    RUN = dict(warmup_cycles=20, measure_cycles=80, drain_cycles=500)

    def test_uniform_run_delivers_and_drains(self):
        payload = run_traffic(
            Mesh2D(4, 4), DimensionOrder(), "uniform", 0.1, seed=1, **self.RUN
        )
        assert payload["delivered"] > 0
        assert payload["total_retired"] == payload["total_delivered"]
        assert 0 < payload["throughput"] <= payload["offered_rate"] + 0.05
        assert payload["mean_latency"] > 0
        assert payload["topology"] == "Mesh2D 4x4"
        assert payload["drained"] and payload["deadlock"] is None

    def test_adaptive_past_saturation_records_deadlock(self):
        # Minimal-adaptive has no escape path: pushed past saturation it
        # closes a buffer-wait cycle.  The run is a measurement, not a
        # crash — the payload names the cycle; the identical load under
        # the escape-channel policy drains.
        load = dict(warmup_cycles=50, measure_cycles=150, seed=42)
        stuck = run_traffic_named(
            "mesh", 64, AdaptiveRandom(seed=42), "uniform", 0.5,
            drain_cycles=300, **load
        )
        assert not stuck["drained"]
        assert "router" in stuck["deadlock"]
        safe = run_traffic_named(
            "mesh", 64, EscapeVC(seed=42), "uniform", 0.5,
            drain_cycles=2000, **load
        )
        assert safe["drained"] and safe["deadlock"] is None

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_every_pattern_runs_on_a_square_mesh(self, pattern):
        payload = run_traffic(
            Mesh2D(4, 4), DimensionOrder(), pattern, 0.05, seed=2, **self.RUN
        )
        assert payload["total_retired"] == payload["total_delivered"]

    @pytest.mark.parametrize(
        "make_policy_fn",
        [
            lambda: DimensionOrder(),
            lambda: AdaptiveRandom(seed=3),
            lambda: EscapeVC(seed=3),
        ],
        ids=["dimension-order", "adaptive-random", "escape-vc"],
    )
    def test_same_seed_same_payload(self, make_policy_fn):
        runs = [
            run_traffic_named(
                "torus", 16, make_policy_fn(), "uniform", 0.15, seed=3, **self.RUN
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_zero_rate_run_has_no_censored_samples(self):
        payload = run_traffic(
            Mesh2D(2, 2), DimensionOrder(), "uniform", 0.0, seed=0, **self.RUN
        )
        assert payload["censored"] == 0
        assert payload["censored_mean_age"] == 0.0
        assert payload["mean_latency_lower_bound"] == 0.0

    def test_deadlocked_run_counts_stranded_messages_as_censored(self):
        # The same post-saturation adaptive-random wedge as above: the
        # messages stranded in the deadlocked buffers were previously
        # silently dropped from the latency accounting; they must now
        # appear as right-censored samples whose ages date back to the
        # measurement window.
        stuck = run_traffic_named(
            "mesh", 64, AdaptiveRandom(seed=42), "uniform", 0.5,
            warmup_cycles=50, measure_cycles=150, drain_cycles=300, seed=42,
        )
        assert not stuck["drained"]
        assert stuck["censored"] > 0
        assert stuck["censored_mean_age"] > 0
        assert stuck["mean_latency_lower_bound"] > 0

    def test_lower_bound_folds_censored_ages_into_the_mean(self):
        payload = run_traffic(
            Mesh2D(4, 4), DimensionOrder(), "uniform", 0.3, seed=7, **self.RUN
        )
        delivered = payload["delivered"]
        censored = payload["censored"]
        assert censored > 0  # 0.3 injection leaves traffic in flight
        expected = (
            delivered * payload["mean_latency"]
            + censored * payload["censored_mean_age"]
        ) / (delivered + censored)
        assert payload["mean_latency_lower_bound"] == pytest.approx(
            expected, abs=0.01
        )

    def test_saturation_is_the_largest_throughput(self):
        curve = [{"throughput": 0.1}, {"throughput": 0.3}, {"throughput": 0.25}]
        assert saturation_throughput(curve) == 0.3
        assert saturation_throughput([]) == 0.0
