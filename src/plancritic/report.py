"""Scoring of run records and report emission.

Accuracy is the fraction of runs whose final plan validates as correct,
reported with a 95% normal-approximation confidence interval.  Each run is
read "as of" step t in the shape the loop writes it: round t's plan while
the run has a round t (only its last round can be accepted), then the final
plan.  Per-step confusion counts compare round t's critic call (positive =
plan judged correct) against ground truth.

Scoring is a pure function of records plus the problems they refer to, so
runs can be re-scored offline without touching any backend.  A batch that has
just run reads its accuracy from its records' ground truth instead, with
``accuracy_line``, which ``run`` prints.  A record's ground truth is
``verdict_to_dict`` of the validator's verdict on its final plan;
``check_ground_truth`` holds stored records to that, in ``score`` and when a
run resumes.

The record format is stated here, where records are read, so that reading
and scoring them loads none of the loop's modules; the loop writes records
with ``record_to_dict``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Annotated, Mapping, Sequence

from .generators import DatasetError
from .jsonform import AtLeast, check_bounds, from_json, read_lines
from .pddl import DomainDef, ProblemDef, parse_plan
from .report_formats import REPORT_FORMATS
from .semantics import CritiqueLabel, ValidationResult, self_consistency, validate_plan
from .semantics import verdict_to_dict


# ---------------------------------------------------------------------------
# Records


class StopReason(str, Enum):
    CRITIC_ACCEPTED = "critic-accepted"
    BUDGET_EXCEEDED = "budget-exceeded"
    ITERATIONS_EXHAUSTED = "iterations-exhausted"
    TRANSPORT_FAILURE = "transport-failure"
    INTERNAL_ERROR = "internal-error"


@dataclass(frozen=True)
class IterationEntry:
    step: int
    plan: str
    critic_label: CritiqueLabel
    votes: dict[CritiqueLabel, int]
    plan_prompt_chars: Annotated[int, AtLeast(0)]
    critique_prompt_chars: Annotated[int, AtLeast(0)]

    __post_init__ = check_bounds


@dataclass(frozen=True)
class RunRecord:
    """One problem's run: rounds 0..n-1, n <= max_steps + 1, of which only
    the last can be accepted (and is, exactly when the run stopped as
    critic-accepted), and the plan that stands."""

    problem_id: str
    max_steps: Annotated[int, AtLeast(0)]
    self_consistency: Annotated[int, AtLeast(1)]
    iterations: tuple[IterationEntry, ...]
    final_plan: str
    stop_reason: StopReason
    llm_calls: int
    ground_truth: dict  # verdict_to_dict of the validator's verdict on final_plan
    error: str | None = None

    __post_init__ = check_bounds


class MalformedRecord(DatasetError):
    """A records line that the loop cannot have written."""


def record_to_dict(record: RunRecord) -> dict:
    """The fields of ``record``, its rounds as dicts; the votes and ground
    truth dicts are the record's own, not copies (``dataclasses.asdict``
    would deep-copy them at several times the cost)."""
    data = dict(vars(record))  # StopReason is a str, so it serializes as its value
    data["iterations"] = [dict(vars(entry)) for entry in record.iterations]
    return data


def record_from_dict(data: dict) -> RunRecord:
    """The record ``data`` holds; raises FormError for data not of the form
    ``RunRecord`` declares, and MalformedRecord for rounds not in the loop's
    shape or a field that does not follow from them as the loop derives it."""
    record = from_json(RunRecord, data)
    steps = [entry.step for entry in record.iterations]
    if steps != list(range(len(steps))):
        raise MalformedRecord(f"round steps {steps} are not 0..{len(steps) - 1}")
    if len(steps) > record.max_steps + 1:
        raise MalformedRecord(f"{len(steps)} rounds for max_steps {record.max_steps}")
    for entry in record.iterations:  # 1..self_consistency votes, labelled what they give
        n = sum(entry.votes.values())
        if not 0 < n <= record.self_consistency:
            raise MalformedRecord(
                f"round {entry.step} has {n} votes for self_consistency {record.self_consistency}"
            )
        if min(entry.votes.values()) < 1:
            raise MalformedRecord(f"round {entry.step} has a vote count below 1")
        if self_consistency(entry.votes) is not entry.critic_label:
            raise MalformedRecord(
                f"round {entry.step} is labelled {entry.critic_label.value}, "
                f"but its votes give {self_consistency(entry.votes).value}"
            )
    if any(e.critic_label == CritiqueLabel.CORRECT for e in record.iterations[:-1]):
        raise MalformedRecord("a round before the last is labelled correct")
    accepted = record.stop_reason is StopReason.CRITIC_ACCEPTED
    if accepted != (bool(steps) and record.iterations[-1].critic_label == CritiqueLabel.CORRECT):
        raise MalformedRecord(
            "stop reason critic-accepted without a last round labelled correct" if accepted
            else f"a last round labelled correct with stop reason {record.stop_reason.value}"
        )
    # a round cut short by a failed critique is left out, but the planner
    # reply it judged is counted, and the plan of that reply stands
    cut = record.stop_reason in (StopReason.TRANSPORT_FAILURE, StopReason.INTERNAL_ERROR)
    calls = len(steps) + sum(sum(entry.votes.values()) for entry in record.iterations)
    if record.llm_calls not in ((calls, calls + 1) if cut else (calls,)):
        raise MalformedRecord(f"llm_calls {record.llm_calls} for {len(steps)} rounds and their votes")
    # a run that nothing cut short alone carries no error
    clean = record.stop_reason in (StopReason.CRITIC_ACCEPTED, StopReason.ITERATIONS_EXHAUSTED)
    if (record.error is None) != clean:
        raise MalformedRecord(f"stop reason {record.stop_reason.value} with error {record.error!r}")
    if record.stop_reason is StopReason.ITERATIONS_EXHAUSTED and len(steps) != record.max_steps + 1:
        raise MalformedRecord(f"iterations-exhausted after {len(steps)} of {record.max_steps + 1} rounds")
    if record.llm_calls == calls and record.final_plan != (record.iterations[-1].plan if steps else ""):
        raise MalformedRecord("final_plan is not the last round's plan")
    return record


def check_ground_truth(record: RunRecord, final: ValidationResult) -> None:
    """Raise MalformedRecord unless ``record``'s ground truth is
    ``verdict_to_dict`` of the verdict of ``final``, its final plan's validation."""
    truth = verdict_to_dict(final.verdict)
    if record.ground_truth != truth:
        raise MalformedRecord(
            f"the record of problem {record.problem_id!r} has ground_truth "
            f"{json.dumps(record.ground_truth)}, but its final plan validates as {json.dumps(truth)}"
        )


def parse_records(text: str, path: str | Path) -> list[RunRecord]:
    """The records of the records file text ``text``, read from ``path``;
    raises MalformedRecord, with the file and line, for a line that is not one."""
    return read_lines(text, path, record_from_dict, MalformedRecord)


def read_records(path: str | Path) -> list[RunRecord]:
    return parse_records(Path(path).read_text(), path)


# ---------------------------------------------------------------------------
# Scoring

Z_95 = 1.96


class MissingProblem(ValueError):
    def __init__(self, problem_id: str):
        super().__init__(f"records name problem {problem_id!r}, which the manifest does not list")


def wald_ci(p: float, n: int) -> float:
    """Half-width of the 95% normal-approximation interval for a proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a proportion")
    return Z_95 * math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class StepMetrics:
    step: int
    n_correct: int
    accuracy: float
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n_critiques(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def precision(self) -> float | None:
        denom = self.tp + self.fp
        return self.tp / denom if denom else None

    @property
    def recall(self) -> float | None:
        denom = self.tp + self.fn
        return self.tp / denom if denom else None

    @property
    def critic_accuracy(self) -> float | None:
        total = self.n_critiques
        return (self.tp + self.tn) / total if total else None


@dataclass(frozen=True)
class Metrics:
    n: int
    accuracy: float
    ci_half_width: float
    mean_llm_calls: float
    steps: tuple[StepMetrics, ...]


def score(
    records: Sequence[RunRecord],
    domain: DomainDef,
    problems: Mapping[str, ProblemDef],
) -> Metrics:
    """Recompute ground truth for every recorded plan and aggregate, reading
    each record in the loop's shape (see the module docstring)."""
    if not records:
        raise ValueError("no records to score")
    for record in records:
        if record.problem_id not in problems:
            raise MissingProblem(record.problem_id)

    n = len(records)
    k = max(r.max_steps for r in records)
    n_final_correct = 0
    n_correct = [0] * (k + 1)
    confusion = [{"tp": 0, "fp": 0, "tn": 0, "fn": 0} for _ in range(k + 1)]
    for record in records:
        problem = problems[record.problem_id]
        results: dict[str, ValidationResult] = {}  # by plan text, each validated once
        for text in [entry.plan for entry in record.iterations] + [record.final_plan]:
            if text not in results:
                results[text] = validate_plan(problem, parse_plan(text, domain), domain)
        final = results[record.final_plan]
        check_ground_truth(record, final)
        n_final_correct += final.is_correct
        for step, entry in enumerate(record.iterations):
            truth = results[entry.plan].is_correct
            n_correct[step] += truth
            if entry.critic_label == CritiqueLabel.CORRECT:
                cell = "tp" if truth else "fp"
            else:
                cell = "fn" if truth else "tn"
            confusion[step][cell] += 1
        for step in range(len(record.iterations), k + 1):  # the run is over: its final plan stands
            n_correct[step] += final.is_correct

    accuracy = n_final_correct / n
    return Metrics(
        n=n,
        accuracy=accuracy,
        ci_half_width=wald_ci(accuracy, n),
        mean_llm_calls=sum(r.llm_calls for r in records) / n,
        steps=tuple(
            StepMetrics(step, n_correct[step], n_correct[step] / n, **confusion[step])
            for step in range(k + 1)
        ),
    )


def accuracy_line(records: Sequence[RunRecord]) -> str:
    """``n=<n> accuracy=<accuracy> (<summary_line>)``, with the figures
    ``score`` computes for ``records``, read from each record's ground truth
    (the loop's verdict on its final plan)."""
    n = len(records)
    if not n:
        raise ValueError("no records to score")
    accuracy = sum(record.ground_truth.get("verdict") == "correct" for record in records) / n
    return f"n={n} accuracy={accuracy:.4f} ({_summary(accuracy, wald_ci(accuracy, n))})"


# ---------------------------------------------------------------------------
# Emission


def _summary(accuracy: float, ci_half_width: float) -> str:
    return f"{accuracy * 100:.1f}±{ci_half_width * 100:.1f}"


def summary_line(metrics: Metrics) -> str:
    """Percent accuracy with its interval, e.g. ``85.5±2.8``."""
    return _summary(metrics.accuracy, metrics.ci_half_width)


def _rounded(obj, names) -> dict:
    """The named attributes of ``obj``, numbers rounded to six places."""
    values = {name: getattr(obj, name) for name in names}
    return {name: v if v is None else round(v, 6) for name, v in values.items()}


def metrics_to_dict(metrics: Metrics) -> dict:
    step_names = [f.name for f in fields(StepMetrics)] + ["precision", "recall", "critic_accuracy"]
    return {
        **_rounded(metrics, [f.name for f in fields(Metrics) if f.name != "steps"]),
        "summary": summary_line(metrics),
        "steps": [_rounded(s, step_names) for s in metrics.steps],
    }


def metrics_json(metrics: Metrics) -> str:
    """The JSON text of ``metrics``, as ``score`` prints it and ``report`` writes it."""
    return json.dumps(metrics_to_dict(metrics), indent=2, sort_keys=True)


def _steps_csv(metrics: Metrics) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["step", "n_correct", "accuracy", "tp", "fp", "tn", "fn", "precision", "recall"]
    )
    for s in metrics.steps:
        writer.writerow(
            [
                s.step,
                s.n_correct,
                f"{s.accuracy:.6f}",
                s.tp,
                s.fp,
                s.tn,
                s.fn,
                f"{s.precision:.6f}" if s.precision is not None else "",
                f"{s.recall:.6f}" if s.recall is not None else "",
            ]
        )
    return buf.getvalue()


def _table_text(metrics: Metrics) -> str:
    lines = [
        f"accuracy: {summary_line(metrics)} (n={metrics.n})",
        f"mean llm calls: {metrics.mean_llm_calls:.2f}",
        "",
        f"{'step':>4}  {'correct':>7}  {'accuracy':>8}  {'tp':>5}  {'fp':>5}  {'tn':>5}  {'fn':>5}  {'precision':>9}  {'recall':>9}",
    ]
    for s in metrics.steps:
        precision = f"{s.precision:.3f}" if s.precision is not None else "-"
        recall = f"{s.recall:.3f}" if s.recall is not None else "-"
        lines.append(
            f"{s.step:>4}  {s.n_correct:>7}  {s.accuracy:>8.3f}  {s.tp:>5}  {s.fp:>5}  {s.tn:>5}  {s.fn:>5}  {precision:>9}  {recall:>9}"
        )
    return "\n".join(lines) + "\n"


_FILE_TEXTS = {
    "report.txt": _table_text,
    "steps.csv": _steps_csv,
    "summary.txt": lambda metrics: summary_line(metrics) + "\n",
    "metrics.json": lambda metrics: metrics_json(metrics) + "\n",
}


def emit_report(metrics: Metrics, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the files of the report format ``fmt`` in ``out_dir``; returns them."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / name for name in REPORT_FORMATS[fmt]]
    for path in written:
        path.write_text(_FILE_TEXTS[path.name](metrics))
    return written
