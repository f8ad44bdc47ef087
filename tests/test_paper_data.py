"""Tests for the transcribed paper data (Tables 1-3)."""

import pytest

from repro.results.paper import (
    PAPER_ROWS,
    TABLE1_COSYNTHESIS,
    TABLE1_PLATFORM,
    TABLE2,
    TABLE3,
)

BENCHMARKS = ["Bm1", "Bm2", "Bm3", "Bm4"]


def test_table1_covers_all_benchmarks_and_policies():
    for table in (TABLE1_COSYNTHESIS, TABLE1_PLATFORM):
        assert sorted(table) == BENCHMARKS
        for by_policy in table.values():
            assert sorted(by_policy) == [
                "baseline",
                "heuristic1",
                "heuristic2",
                "heuristic3",
            ]


def test_tables_2_3_cover_both_approaches():
    for table in (TABLE2, TABLE3):
        assert sorted(table) == BENCHMARKS
        for by_approach in table.values():
            assert sorted(by_approach) == ["power_aware", "thermal_aware"]


def test_max_temp_never_below_avg_temp():
    for table in (TABLE1_COSYNTHESIS, TABLE1_PLATFORM, TABLE2, TABLE3):
        for by_key in table.values():
            for power, max_temp, avg_temp in by_key.values():
                assert max_temp >= avg_temp
                assert power > 0.0


def test_paper_headline_reductions_roughly_recomputable():
    """The paper's quoted reductions roughly follow from its own rows.

    Note: the paper is internally inconsistent here — averaging Table 2's
    rows gives 13.2 °C max / 8.8 °C avg, while the text quotes 10.9 / 6.95.
    Table 3 recomputes to 9.2 / 5.5 against the quoted 9.75 / 5.02.  We
    therefore only check the quoted numbers to ±2.5 °C; EXPERIMENTS.md
    records the discrepancy.
    """

    def reductions(table):
        max_deltas, avg_deltas = [], []
        for by_approach in table.values():
            _, p_max, p_avg = by_approach["power_aware"]
            _, t_max, t_avg = by_approach["thermal_aware"]
            max_deltas.append(p_max - t_max)
            avg_deltas.append(p_avg - t_avg)
        n = len(max_deltas)
        return sum(max_deltas) / n, sum(avg_deltas) / n

    t2_max, t2_avg = reductions(TABLE2)
    assert t2_max == pytest.approx(PAPER_ROWS["table2_max_temp_reduction"], abs=2.5)
    assert t2_avg == pytest.approx(PAPER_ROWS["table2_avg_temp_reduction"], abs=2.5)
    t3_max, t3_avg = reductions(TABLE3)
    assert t3_max == pytest.approx(PAPER_ROWS["table3_max_temp_reduction"], abs=2.5)
    assert t3_avg == pytest.approx(PAPER_ROWS["table3_avg_temp_reduction"], abs=2.5)


def test_table2_thermal_always_cooler():
    for by_approach in TABLE2.values():
        _, p_max, p_avg = by_approach["power_aware"]
        _, t_max, t_avg = by_approach["thermal_aware"]
        assert t_max < p_max
        assert t_avg < p_avg


def test_table3_thermal_always_cooler():
    for by_approach in TABLE3.values():
        _, p_max, p_avg = by_approach["power_aware"]
        _, t_max, t_avg = by_approach["thermal_aware"]
        assert t_max < p_max
        assert t_avg < p_avg


def test_table2_power_rows_match_table1_h3():
    """Table 2's power-aware column is Table 1's co-synthesis heuristic 3."""
    for name in BENCHMARKS:
        assert TABLE2[name]["power_aware"] == TABLE1_COSYNTHESIS[name]["heuristic3"]


def test_table3_power_rows_match_table1_h3():
    for name in BENCHMARKS:
        assert TABLE3[name]["power_aware"] == TABLE1_PLATFORM[name]["heuristic3"]

