"""Tests for the ablation, survey, and Table 1 report harnesses."""

import pytest

from repro.eval.ablation import ABLATIONS, render_ablation, run_ablation
from repro.eval.survey import render_survey
from repro.eval.table1 import collect_rows, format_cell, render_report, rows_as_records
from repro.exp.runcache import run_program
from repro.survey.models import SURVEY, survey_principles_satisfied


@pytest.fixture(scope="module")
def matmul_stats():
    return run_program("matmul", size=16)


@pytest.fixture(scope="module")
def ablation_rows(matmul_stats):
    return run_ablation(matmul_stats)


class TestAblation:
    def test_all_variants_and_placements(self, ablation_rows):
        assert len(ablation_rows) == 3 * len(ABLATIONS)

    def test_each_feature_helps(self, ablation_rows):
        by = {(r.placement, r.variant): r.result for r in ablation_rows}
        for placement in ("register", "onchip", "offchip"):
            basic = by[(placement, "basic")].overhead
            for feature in ("+dispatch", "+types", "+reply/forward"):
                assert by[(placement, feature)].overhead < basic

    def test_dispatch_is_the_biggest_single_win(self, ablation_rows):
        """Matches the paper: most dispatch savings come from MsgIp."""
        by = {(r.placement, r.variant): r.result for r in ablation_rows}
        for placement in ("register", "onchip", "offchip"):
            basic = by[(placement, "basic")].overhead
            gains = {
                feature: basic - by[(placement, feature)].overhead
                for feature in ("+dispatch", "+types", "+reply/forward")
            }
            assert gains["+dispatch"] == max(gains.values())

    def test_full_bundle_beats_every_single_feature(self, ablation_rows):
        by = {(r.placement, r.variant): r.result for r in ablation_rows}
        for placement in ("register", "onchip", "offchip"):
            optimized = by[(placement, "optimized")].overhead
            for feature in ("+dispatch", "+types", "+reply/forward"):
                assert optimized < by[(placement, feature)].overhead

    def test_render(self, matmul_stats, ablation_rows):
        text = render_ablation("matmul", ablation_rows)
        assert "+dispatch" in text and "overhead saved" in text


class TestSurvey:
    def test_render_lists_cited_machines(self):
        text = render_survey()
        for name in ("iPSC/2", "CM-5", "MDP"):
            assert name in text
        assert "this work" in text
        assert len(SURVEY) >= 7

    def test_os_dma_orders_of_magnitude_slower(self):
        cycles = {i.name: i.cycles() for i in SURVEY}
        assert cycles["iPSC/2"] > 100 * cycles["CM-5"]

    def test_principles_scoring(self):
        by_name = {i.name: i for i in SURVEY}
        assert survey_principles_satisfied(by_name["iPSC/2"]) == 1
        assert survey_principles_satisfied(by_name["MDP (J-Machine)"]) == 4
        # Register-mapped but no general message-passing model: loses one.
        assert (
            survey_principles_satisfied(by_name["CM-2 grid / iWARP systolic"]) == 3
        )


class TestTable1Report:
    @pytest.fixture(scope="class")
    def rows(self):
        return collect_rows()

    def test_row_count(self, rows):
        # 7 sending + 1 dispatch + 10 processing.
        assert len(rows) == 18

    def test_exact_rows_all_match(self, rows):
        for row in rows:
            if row.exact_expected:
                assert row.matches(), (row.section, row.case, row.measured)

    def test_structural_rows_never_exceed_paper(self, rows):
        """Our leaner runtime must not be *slower* than the paper's."""
        for row in rows:
            if row.exact_expected or row.case == "pwrite_deferred":
                continue
            for key, measured in row.measured.items():
                paper = row.paper[key]
                assert measured <= paper + 1, (row.case, key, measured, paper)

    def test_format_cell(self):
        assert format_cell("sending", "send1", 4) == "4"
        assert format_cell("sending", "send1", (2, 3)) == "2-3"
        assert format_cell("sending", "send1", (2, 2)) == "2"
        assert format_cell("processing", "pwrite_deferred", (15, 6)) == "15+6n"

    def test_render_report(self, rows):
        text = render_report(rows)
        assert "DISPATCH" in text
        assert "exact" in text
        assert "structural" in text
        assert "MISMATCH" not in text


class TestJsonExport:
    def test_records_roundtrip(self):
        import json

        records = rows_as_records(collect_rows())
        assert len(records) == 18
        # Serialisable and faithful.
        parsed = json.loads(json.dumps(records))
        assert parsed[0]["action"] == "sending"
        exact = sum(1 for r in parsed if r["exact"])
        assert exact >= 12
