"""Tests for the TAM matrix-multiply program."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import TamError
from repro.programs.matmul import (
    BLOCK,
    reference_matrices,
    reference_product,
    run_matmul,
)
from repro.tam.messages import IStructRef


def product(a, b):
    """``A·B`` by definition."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, column)) for column in columns] for row in a]


class TestCorrectness:
    def test_8x8_matches_the_product(self):
        result = run_matmul(n=8, nodes=4)
        assert result.reassemble_c() == product(*reference_matrices(8))

    def test_16x16_matches_the_product(self):
        result = run_matmul(n=16, nodes=16)
        assert result.reassemble_c() == product(*reference_matrices(16))

    def test_total_is_sum_of_c(self):
        result = run_matmul(n=8, nodes=4)
        expected = product(*reference_matrices(8))
        assert result.total == pytest.approx(sum(map(sum, expected)))

    @pytest.mark.parametrize("n", [4, 8, 24, 100])
    def test_closed_form_is_the_product(self, n):
        assert reference_product(n) == product(*reference_matrices(n))

    def test_single_node(self):
        # All frames on one node: still every interaction is a message.
        result = run_matmul(n=8, nodes=1)
        result.verify()
        assert result.stats.messages.total_messages > 0

    def test_single_block(self):
        result = run_matmul(n=4, nodes=2)
        result.verify()

    def test_non_multiple_of_block_rejected(self):
        with pytest.raises(TamError):
            run_matmul(n=10)

    def test_deterministic(self):
        r1 = run_matmul(n=8, nodes=4)
        r2 = run_matmul(n=8, nodes=4)
        assert r1.stats.messages.as_dict() == r2.stats.messages.as_dict()
        assert r1.stats.total_instructions == r2.stats.total_instructions

    def test_verifying_and_serialising_import_no_numpy(self):
        # A subprocess: the test session itself may have imported NumPy.
        code = (
            "import sys\n"
            "from repro.exp.artifacts import to_jsonable\n"
            "from repro.programs.matmul import run_matmul\n"
            "to_jsonable(run_matmul(n=8, nodes=4, verify=True).stats)\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestVerifyFails:
    """The output check raises on a real run's result made wrong."""

    def test_wrong_element_raises(self):
        result = run_matmul(n=8, nodes=4)
        # A C directory naming the run's four blocks in reverse order.
        machine = result.machine
        blocks = [machine.istructure_peek(result.dir_c, i) for i in range(4)]
        heap = machine.nodes[0].istructures
        reversed_c = heap.allocate(len(blocks))
        heap.store_sequence(reversed_c, blocks[::-1])
        wrong = dataclasses.replace(result, dir_c=IStructRef(0, reversed_c))
        with pytest.raises(TamError, match="matmul result error .* exceeds 1e-06"):
            wrong.verify()

    def test_wrong_total_raises(self):
        result = run_matmul(n=8, nodes=4)
        # Every element is right; only the accumulated total is off.
        dataclasses.replace(result, total=result.total + 1e-5).verify()
        wrong = dataclasses.replace(result, total=result.total + 1.0)
        with pytest.raises(TamError, match="accumulated total"):
            wrong.verify()


class TestMessageMix:
    def test_grain_near_paper(self):
        """Paper: ~3 floating point operations per message."""
        result = run_matmul(n=16, nodes=16)
        assert 2.0 <= result.stats.flops_per_message() <= 5.0

    def test_message_instruction_frequency_moderate(self):
        # Paper: "the dynamic frequency of executing a message sending
        # instruction ... is under 10%" — ours is a leaner compilation, so
        # allow a wider band but demand the same order of magnitude.
        result = run_matmul(n=16, nodes=16)
        assert result.stats.message_instruction_fraction < 0.30

    def test_preads_dominate(self):
        # Element fetches are the bulk of matmul's traffic.
        mix = run_matmul(n=16, nodes=16).stats.messages
        assert mix.preads > mix.sends
        assert mix.preads > mix.pwrites

    def test_presence_outcomes_mixed(self):
        # Fill and spawn overlap, so fetches should see non-full elements.
        mix = run_matmul(n=16, nodes=16).stats.messages
        assert mix.preads_full > 0
        assert mix.preads_empty + mix.preads_deferred > 0
        assert mix.deferred_readers_satisfied > 0

    def test_expected_pread_count(self):
        # nb^2 activations x nb k-steps x 32 element fetches, plus 2 nb^3
        # directory fetches.
        n = 16
        nb = n // BLOCK
        mix = run_matmul(n=n, nodes=16).stats.messages
        assert mix.preads == nb * nb * nb * 32 + 2 * nb**3

    def test_pwrite_count(self):
        # Every element of A, B, C written exactly once, plus directory
        # registrations (A, B, C blocks).
        n = 16
        nb = n // BLOCK
        mix = run_matmul(n=n, nodes=16).stats.messages
        elements = 3 * n * n
        registrations = 3 * nb * nb
        assert mix.pwrites == elements + registrations

    def test_scaling_messages_with_n(self):
        small = run_matmul(n=8, nodes=4).stats.messages.total_messages
        large = run_matmul(n=16, nodes=4).stats.messages.total_messages
        # Message volume grows ~n^3 for fetches.
        assert large > 4 * small
