"""Tests for the Gamteb photon-transport program."""

import dataclasses

import pytest

from repro.errors import TamError
from repro.programs.gamteb import GROUPS, run_gamteb


class TestConservation:
    def test_photons_conserved_16(self):
        result = run_gamteb(n_photons=16, nodes=16)
        assert result.absorbed + result.escaped == result.photons_traced

    def test_photons_conserved_various(self):
        for n in (1, 4, 32):
            result = run_gamteb(n_photons=n, nodes=8)
            assert result.absorbed + result.escaped == result.photons_traced
            assert result.photons_traced >= n

    def test_splits_create_photons(self):
        result = run_gamteb(n_photons=64, nodes=16)
        # With 10% split probability above group 4, some pair production
        # must occur in 64 source photons.
        assert result.photons_traced > 64


class TestVerifyFails:
    """The output check raises on a real run's result made wrong."""

    def test_unconserved_photons_raise(self):
        result = run_gamteb(n_photons=4, nodes=4)
        wrong = dataclasses.replace(result, absorbed=result.absorbed + 1)
        with pytest.raises(TamError, match="photon count not conserved"):
            wrong.verify()

    def test_fewer_traced_than_sourced_raises(self):
        result = run_gamteb(n_photons=4, nodes=4)
        # Conserved, but the run claims one more source photon than it
        # traced.
        wrong = dataclasses.replace(result, n_photons=result.photons_traced + 1)
        with pytest.raises(TamError, match="fewer photons traced"):
            wrong.verify()


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = run_gamteb(n_photons=16, nodes=16, seed=7)
        b = run_gamteb(n_photons=16, nodes=16, seed=7)
        assert (a.absorbed, a.escaped, a.photons_traced) == (
            b.absorbed,
            b.escaped,
            b.photons_traced,
        )
        assert a.stats.messages.as_dict() == b.stats.messages.as_dict()

    def test_different_seeds_differ(self):
        a = run_gamteb(n_photons=32, nodes=16, seed=1)
        b = run_gamteb(n_photons=32, nodes=16, seed=2)
        # Trajectories must actually depend on the seed.
        assert (
            a.stats.messages.total_messages != b.stats.messages.total_messages
            or (a.absorbed, a.escaped) != (b.absorbed, b.escaped)
        )

    def test_node_count_does_not_change_physics(self):
        # Placement affects only message routing, never outcomes.
        a = run_gamteb(n_photons=16, nodes=4, seed=7)
        b = run_gamteb(n_photons=16, nodes=16, seed=7)
        assert (a.absorbed, a.escaped, a.photons_traced) == (
            b.absorbed,
            b.escaped,
            b.photons_traced,
        )


class TestMessageMix:
    def test_collisions_fetch_cross_sections(self):
        result = run_gamteb(n_photons=16, nodes=16)
        mix = result.stats.messages
        # Two table fetches per collision; at least one collision/photon.
        assert mix.preads >= 2 * result.photons_traced
        assert mix.preads % 2 == 0

    def test_table_written_once(self):
        mix = run_gamteb(n_photons=16, nodes=16).stats.messages
        assert mix.pwrites == 2 * GROUPS

    def test_deferred_fetches_exist(self):
        # Photons are sourced before the table fill, so the first wave of
        # cross-section fetches must defer.
        mix = run_gamteb(n_photons=16, nodes=16).stats.messages
        assert mix.preads_empty + mix.preads_deferred > 0
        assert mix.deferred_readers_satisfied > 0

    def test_tally_sends(self):
        result = run_gamteb(n_photons=16, nodes=16)
        mix = result.stats.messages
        # Each photon reports once (send2) plus arg/al­loc traffic.
        assert mix.sends_by_words[2] >= result.photons_traced
