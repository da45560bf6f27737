"""Ranking quality metrics (P@1, MAP, MRR) and relative-change reports.

All three metrics operate on judged rankings: the gold labels of one
question's candidates read off in ranked order. Aggregation assumes every
ranking has at least one positive; filter unanswerable questions out first
(see ``mlas2.dataset.filter_answerable``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from functools import reduce
from operator import add
from typing import Sequence

from mlas2.dataset import COUNT, SCORE, TEXT, QuestionGroup, read_fields


@dataclass(frozen=True)
class JudgedRanking:
    """Gold labels of one question's candidates, best-ranked first."""

    question_id: str
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError(f"empty ranking for question {self.question_id!r}")
        if any(lab not in (0, 1) for lab in self.labels):
            raise ValueError(f"labels must be 0 or 1 for question {self.question_id!r}")


def judge(group: QuestionGroup, ranked: Sequence[tuple[str, float]]) -> JudgedRanking:
    """Join a ranked (candidate id, score) list with the group's gold labels."""
    labels = {c.id: c.label for c in group.candidates}
    if len(ranked) != len(labels):
        raise ValueError(
            f"ranking covers {len(ranked)} of {len(labels)} candidates "
            f"for question {group.question.id!r}"
        )
    if len({cid for cid, _score in ranked}) != len(ranked):
        raise ValueError(f"ranking repeats a candidate for question {group.question.id!r}")
    out = []
    for cid, _score in ranked:
        if cid not in labels:
            raise ValueError(f"ranked candidate {cid!r} not in question {group.question.id!r}")
        if labels[cid] is None:
            raise ValueError(f"candidate {cid!r} is unlabeled")
        out.append(labels[cid])
    return JudgedRanking(group.question.id, tuple(out))


def average_precision(ranking: JudgedRanking) -> float:
    """Mean of precision-at-i over the positions i that hold a positive label.

    [1,0,0] -> 1.0; [0,1,1] -> (1/2 + 2/3) / 2 = 7/12; [1,1,1] -> 1.0.
    """
    positives = 0
    total = 0.0
    for i, label in enumerate(ranking.labels, start=1):
        if label:
            positives += 1
            total += positives / i
    if positives == 0:
        raise ValueError(f"no positive label for question {ranking.question_id!r}")
    return total / positives


def reciprocal_rank(ranking: JudgedRanking) -> float:
    """1 / (1-based rank of the first positive label)."""
    for i, label in enumerate(ranking.labels, start=1):
        if label:
            return 1.0 / i
    raise ValueError(f"no positive label for question {ranking.question_id!r}")


def precision_at_1(ranking: JudgedRanking) -> float:
    return float(ranking.labels[0])


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate metrics for one test set.

    ``num_excluded`` records how many questions were dropped as unanswerable
    before aggregation; it is kept out of the wire-format dict.
    """

    test_set: str
    num_questions: int
    p_at_1: float
    map: float
    mrr: float
    num_excluded: int = 0

    def to_json_dict(self) -> dict:
        return {
            "test": self.test_set,
            "n": self.num_questions,
            "p_at_1": self.p_at_1,
            "map": self.map,
            "mrr": self.mrr,
        }

    @classmethod
    def from_json_dict(cls, raw, where: str) -> "MetricsReport":
        """Inverse of ``to_json_dict``; also reads the optional ``n_excluded``
        count that run records add. A non-object, a missing key or a value of
        the wrong type raises DatasetFormatError naming ``where``."""
        return cls(
            *read_fields(
                {"n_excluded": 0, **raw} if isinstance(raw, dict) else raw, where, "metrics report",
                {"test": TEXT, "n": COUNT, "p_at_1": SCORE, "map": SCORE, "mrr": SCORE,
                 "n_excluded": COUNT},
            )
        )


def evaluate(
    rankings: Sequence[JudgedRanking], test_set: str = "", num_excluded: int = 0
) -> MetricsReport:
    """Aggregate P@1, MAP, and MRR over judged rankings.

    Every ranking must contain a positive label; pass only answerable
    questions.
    """
    if not rankings:
        raise ValueError("nothing to evaluate: no judged rankings")
    n = len(rankings)
    # added left to right with `reduce`: from Python 3.12, `sum()` adds
    # floats with compensation, which would change the averages
    return MetricsReport(
        test_set=test_set,
        num_questions=n,
        p_at_1=reduce(add, (precision_at_1(r) for r in rankings), 0.0) / n,
        map=reduce(add, (average_precision(r) for r in rankings), 0.0) / n,
        mrr=reduce(add, (reciprocal_rank(r) for r in rankings), 0.0) / n,
        num_excluded=num_excluded,
    )


# ---------------------------------------------------------------------------
# relative-delta reporting
# ---------------------------------------------------------------------------

def round_half_away_from_zero(value: float, ndigits: int = 1) -> float:
    """Round a finite value with ties going away from zero (unlike banker's
    rounding), exactly: a double's integer part has at most 309 digits."""
    q = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(q, ROUND_HALF_UP, Context(prec=310 + ndigits)))


@dataclass(frozen=True)
class DeltaReport:
    """Relative change of one run's metrics vs a baseline, in percent,
    rounded half-away-from-zero to one decimal."""

    name: str
    baseline: str
    p_at_1_pct: float
    map_pct: float
    mrr_pct: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_baseline(report: MetricsReport, where: str, error: type[Exception]) -> None:
    """Raise ``error`` naming ``where``, the test and the metric unless every
    metric of a baseline report is positive and ``100 / metric`` is finite:
    ``delta_report`` divides by each, and for a run metric in [0, 1] a
    finite ``100 / base`` bounds the percent change."""
    for metric in ("p_at_1", "map", "mrr"):
        value = getattr(report, metric)
        if value <= 0.0:
            raise error(
                f"{where}: test {report.test_set!r}: baseline {metric} must be positive, "
                f"got {value}"
            )
        if not math.isfinite(100.0 / value):
            raise error(
                f"{where}: test {report.test_set!r}: baseline {metric} is too small for a "
                f"percent change, got {value}"
            )


def delta_report(
    baseline: MetricsReport,
    run: MetricsReport,
    *,
    name: str | None = None,
    baseline_name: str | None = None,
) -> DeltaReport:
    """Percent change of each metric relative to the baseline report; a
    baseline that ``check_baseline`` rejects raises ValueError."""
    baseline_name = baseline_name if baseline_name is not None else baseline.test_set
    check_baseline(baseline, f"baseline {baseline_name!r}", ValueError)

    def pct(metric: str) -> float:
        base = getattr(baseline, metric)
        return round_half_away_from_zero(100.0 * (getattr(run, metric) - base) / base)

    return DeltaReport(
        name=name if name is not None else run.test_set,
        baseline=baseline_name,
        p_at_1_pct=pct("p_at_1"),
        map_pct=pct("map"),
        mrr_pct=pct("mrr"),
    )


def _fmt_pct(value: float) -> str:
    if value == 0.0:
        return "0.0%"
    return f"{value:+.1f}%"


def render_delta_table(deltas: Sequence[DeltaReport], *, title: str = "") -> str:
    """Plain-text delta table: one row per composition expression, columns
    P@1 / MAP / MRR, with a footer spelling out that values are relative
    changes (not absolute point differences)."""
    if not deltas:
        raise ValueError("no delta rows to render")
    label_width = max(len("FT / test set"), max(len(d.name) for d in deltas))
    lines = []
    if title:
        lines.append(title)
    header = f"{'FT / test set':<{label_width}}  {'P@1':>8}  {'MAP':>8}  {'MRR':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for d in deltas:
        lines.append(
            f"{d.name:<{label_width}}  {_fmt_pct(d.p_at_1_pct):>8}  "
            f"{_fmt_pct(d.map_pct):>8}  {_fmt_pct(d.mrr_pct):>8}"
        )
    baselines = sorted({d.baseline for d in deltas})
    lines.append(
        f"relative change vs baseline {', '.join(repr(b) for b in baselines)} "
        "(not absolute percentage points)"
    )
    return "\n".join(lines)
