import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import left_to_right_sum, make_group
from mlas2 import metrics
from mlas2.metrics import (
    DeltaReport,
    JudgedRanking,
    MetricsReport,
    average_precision,
    delta_report,
    evaluate,
    judge,
    precision_at_1,
    reciprocal_rank,
    render_delta_table,
    round_half_away_from_zero,
)


def jr(labels, qid="q"):
    return JudgedRanking(qid, tuple(labels))


def brute_force_metrics(label_lists):
    """Independent oracle: the three metrics straight from their definitions."""
    p1 = ap = rr = 0.0
    for labels in label_lists:
        p1 += 1.0 if labels[0] == 1 else 0.0
        total_pos = sum(labels)
        acc = 0.0
        seen = 0
        for i, lab in enumerate(labels):
            if lab == 1:
                seen += 1
                acc += seen / (i + 1)
        ap += acc / total_pos
        rr += 1.0 / (labels.index(1) + 1)
    n = len(label_lists)
    return p1 / n, ap / n, rr / n


# ---------------------------------------------------------------------------
# per-ranking metrics
# ---------------------------------------------------------------------------

def test_average_precision_spot_values():
    assert average_precision(jr([1, 0, 0])) == 1.0
    assert average_precision(jr([0, 1, 1])) == pytest.approx(7 / 12, abs=1e-12)
    assert average_precision(jr([1, 1, 1])) == 1.0


def test_reciprocal_rank_spot_values():
    assert reciprocal_rank(jr([0, 0, 1])) == pytest.approx(1 / 3)
    assert reciprocal_rank(jr([1, 0])) == 1.0
    assert reciprocal_rank(jr([0, 1, 0, 1])) == 0.5


def test_metrics_require_a_positive():
    with pytest.raises(ValueError, match="no positive"):
        average_precision(jr([0, 0]))
    with pytest.raises(ValueError, match="no positive"):
        reciprocal_rank(jr([0, 0]))


def test_judged_ranking_invariants():
    with pytest.raises(ValueError, match="empty"):
        JudgedRanking("q", ())
    with pytest.raises(ValueError, match="labels"):
        JudgedRanking("q", (0, 2))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_evaluate_two_rankings():
    report = evaluate([jr([1, 0], "q1"), jr([0, 1], "q2")], test_set="t")
    assert report.p_at_1 == 0.5
    assert report.map == 0.75
    assert report.mrr == 0.75
    assert report.num_questions == 2


def test_evaluate_perfect_single():
    report = evaluate([jr([1])])
    assert (report.p_at_1, report.map, report.mrr) == (1.0, 1.0, 1.0)


def test_evaluate_positives_at_tail():
    n = 5
    report = evaluate([jr([0] * (n - 1) + [1], f"q{i}") for i in range(3)])
    assert report.p_at_1 == 0.0
    assert report.map == pytest.approx(1 / n)
    assert report.mrr == pytest.approx(1 / n)


def test_evaluate_rejects_empty():
    with pytest.raises(ValueError, match="nothing to evaluate"):
        evaluate([])


def test_evaluate_matches_brute_force_oracle():
    import random

    rng = random.Random(7)
    rankings = []
    for i in range(300):
        n = rng.randint(1, 40)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if not any(labels):
            labels[rng.randrange(n)] = 1
        rankings.append(jr(labels, f"q{i}"))
    report = evaluate(rankings)
    p1, ap, rr = brute_force_metrics([list(r.labels) for r in rankings])
    assert report.p_at_1 == pytest.approx(p1, abs=1e-9)
    assert report.map == pytest.approx(ap, abs=1e-9)
    assert report.mrr == pytest.approx(rr, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30).filter(
        lambda labels: any(labels)
    )
)
def test_metric_bounds(labels):
    r = jr(labels)
    n = len(labels)
    assert 1 / n <= reciprocal_rank(r) <= 1.0
    assert average_precision(r) <= 1.0
    assert precision_at_1(r) <= reciprocal_rank(r)


def test_evaluate_adds_left_to_right_whatever_sum_does(monkeypatch):
    # reciprocal ranks (and APs) 1/5, 1/5, 1/6, 1/6: a compensated sum, as
    # Python 3.12's sum() of floats is, differs from the left-to-right one
    rankings = [jr([0] * k + [1], f"q{i}") for i, k in enumerate([4, 4, 5, 5])]
    rr = [reciprocal_rank(r) for r in rankings]
    assert [average_precision(r) for r in rankings] == rr
    assert math.fsum(rr) != left_to_right_sum(rr)
    expected = evaluate(rankings)
    assert expected.map == expected.mrr == left_to_right_sum(rr) / 4
    monkeypatch.setattr(
        metrics, "sum", lambda values, start=0: math.fsum(values) + start, raising=False
    )
    assert evaluate(rankings) == expected


def test_judge_joins_gold_labels():
    group = make_group("q1", "question", [("a", 1), ("b", 0), ("c", 1)])
    ranked = [("q1c1", 0.9), ("q1c2", 0.5), ("q1c0", 0.1)]
    assert judge(group, ranked).labels == (0, 1, 1)
    with pytest.raises(ValueError, match="covers"):
        judge(group, ranked[:2])
    with pytest.raises(ValueError, match="not in question"):
        judge(group, [("zzz", 0.9), ("q1c1", 0.5), ("q1c0", 0.1)])


# ---------------------------------------------------------------------------
# delta reports
# ---------------------------------------------------------------------------

def report(p1, m, rr, name="run"):
    return MetricsReport(test_set=name, num_questions=10, p_at_1=p1, map=m, mrr=rr)


def test_delta_identity_is_zero():
    base = report(0.6, 0.7, 0.8, name="base")
    d = delta_report(base, base)
    assert (d.p_at_1_pct, d.map_pct, d.mrr_pct) == (0.0, 0.0, 0.0)


def test_delta_ten_percent_drop():
    d = delta_report(report(0.60, 0.5, 0.5, "base"), report(0.54, 0.5, 0.5))
    assert d.p_at_1_pct == -10.0


def test_delta_one_decimal_rounding():
    base = report(0.5, 0.5, 0.5, "base")
    run = report(0.4885, 0.4895, 0.489)
    d = delta_report(base, run)
    assert (d.p_at_1_pct, d.map_pct, d.mrr_pct) == (-2.3, -2.1, -2.2)


def test_delta_sign_direction():
    base = report(0.5, 0.5, 0.5, "base")
    up = delta_report(base, report(0.55, 0.6, 0.75))
    assert up.p_at_1_pct > 0 and up.map_pct > 0 and up.mrr_pct > 0
    down = delta_report(base, report(0.45, 0.4, 0.25))
    assert down.p_at_1_pct < 0 and down.map_pct < 0 and down.mrr_pct < 0


def test_delta_rejects_zero_baseline():
    with pytest.raises(ValueError, match="positive"):
        delta_report(report(0.0, 0.5, 0.5, "base"), report(0.5, 0.5, 0.5))


def test_round_half_away_from_zero():
    assert round_half_away_from_zero(0.25) == 0.3
    assert round_half_away_from_zero(-0.25) == -0.3
    assert round_half_away_from_zero(2.34) == 2.3
    assert round_half_away_from_zero(-10.000000000000009) == -10.0
    assert round_half_away_from_zero(0.15) == 0.2


def test_render_delta_table_layout():
    deltas = [
        DeltaReport("En+De", "base", -2.6, -3.8, -3.2),
        DeltaReport("EnDe+DeEn", "base", -10.5, -8.1, -9.3),
        DeltaReport("En+EnDe+De+DeEn", "base", 0.0, 1.2, -4.1),
    ]
    table = render_delta_table(deltas, title="mixed-language runs")
    lines = table.splitlines()
    assert lines[0] == "mixed-language runs"
    assert "P@1" in lines[1] and "MAP" in lines[1] and "MRR" in lines[1]
    body = lines[3:-1]
    assert len(body) == 3  # one row per composition expression
    assert body[0].startswith("En+De")
    assert "-2.6%" in body[0] and "-3.8%" in body[0]
    assert "0.0%" in body[2] and "+1.2%" in body[2]
    assert "relative change" in lines[-1] and "base" in lines[-1]


def test_render_delta_table_rejects_empty():
    with pytest.raises(ValueError):
        render_delta_table([])
