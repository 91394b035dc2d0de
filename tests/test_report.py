import dataclasses
import json
from collections import Counter

import pytest

from plancritic import orchestrator, report
from plancritic.critics import CriticBackend, CriticConfig, MockCritic
from plancritic.generators import GenSpec, generate, load_dataset, write_dataset
from plancritic.orchestrator import LoopConfig, MockPlanner, PlannerConfig, run_batch
from plancritic.domains import blocksworld_domain
from plancritic.pddl import parse_plan, parse_problem, print_plan
from plancritic.semantics import validate_plan, verdict_to_dict
from plancritic.report import (
    REPORT_FORMATS,
    IterationEntry,
    Metrics,
    MissingProblem,
    RunRecord,
    StepMetrics,
    StopReason,
    accuracy_line,
    emit_report,
    metrics_to_dict,
    score,
    summary_line,
    wald_ci,
)
from plancritic.search import SearchLimits, bfs_plan

from .conftest import BW5_PROBLEM_TEXT


class TestWaldCi:
    def test_frozen_values(self):
        assert round(wald_ci(0.893, 600) * 100, 1) == 2.5
        assert round(wald_ci(0.855, 600) * 100, 1) == 2.8

    def test_edges(self):
        assert wald_ci(0.0, 50) == 0.0
        assert wald_ci(1.0, 50) == 0.0

    def test_shrinks_with_n(self):
        assert wald_ci(0.5, 1000) < wald_ci(0.5, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            wald_ci(0.5, 0)
        with pytest.raises(ValueError):
            wald_ci(1.5, 10)


class TestStepMetrics:
    def test_derived_rates(self):
        s = StepMetrics(step=0, n_correct=3, accuracy=0.75, tp=3, fp=1, tn=4, fn=2)
        assert s.n_critiques == 10
        assert s.precision == 0.75
        assert s.recall == 0.6
        assert s.critic_accuracy == 0.7

    def test_undefined_rates_are_none(self):
        s = StepMetrics(step=0, n_correct=0, accuracy=0.0, tp=0, fp=0, tn=0, fn=0)
        assert s.n_critiques == 0
        assert s.precision is None
        assert s.recall is None
        assert s.critic_accuracy is None


BW_DOMAIN = blocksworld_domain()
BW5_PROBLEM = parse_problem(BW5_PROBLEM_TEXT, BW_DOMAIN)


def make_record(pid, entries, final, stop, calls, max_steps=2):
    """A record of the 5-block problem, which every scored record here names,
    with the ground truth of ``final`` on it."""
    iterations = tuple(
        IterationEntry(
            step=step,
            plan=plan,
            critic_label=label,
            votes={label: 1},
            plan_prompt_chars=0,
            critique_prompt_chars=0,
        )
        for step, plan, label in entries
    )
    return RunRecord(
        problem_id=pid,
        max_steps=max_steps,
        self_consistency=1,
        iterations=iterations,
        final_plan=final,
        stop_reason=stop,
        llm_calls=calls,
        ground_truth=verdict_to_dict(
            validate_plan(BW5_PROBLEM, parse_plan(final, BW_DOMAIN), BW_DOMAIN).verdict
        ),
    )


@pytest.fixture()
def plans(wrong_plan, correct_plan):
    return print_plan(wrong_plan), print_plan(correct_plan)


@pytest.fixture()
def records(plans):
    wrong, good = plans
    return [
        # repaired on the second try
        make_record(
            "p1",
            [(0, wrong, "wrong"), (1, good, "correct")],
            good,
            StopReason.CRITIC_ACCEPTED,
            4,
        ),
        # never repaired
        make_record(
            "p2",
            [(0, wrong, "wrong"), (1, wrong, "wrong"), (2, wrong, "wrong")],
            wrong,
            StopReason.ITERATIONS_EXHAUSTED,
            6,
        ),
        # critic missed a correct plan, then the run died
        make_record(
            "p3", [(0, good, "wrong")], good, StopReason.TRANSPORT_FAILURE, 2
        ),
        # critic wrongly accepted a bad plan
        make_record(
            "p4", [(0, wrong, "correct")], wrong, StopReason.CRITIC_ACCEPTED, 2
        ),
    ]


@pytest.fixture()
def problems(bw5_problem):
    return {pid: bw5_problem for pid in ("p1", "p2", "p3", "p4")}


class TestPlanAsOf:
    """Step t reads round t's plan while the run has one, then the final plan."""

    def test_tracks_rounds_then_sticks(self, plans, bw_domain, problems):
        wrong, good = plans
        record = make_record(
            "p1",
            [(0, wrong, "wrong"), (1, good, "correct")],
            good,
            StopReason.CRITIC_ACCEPTED,
            4,
        )
        steps = score([record], bw_domain, problems).steps
        assert steps[0].n_correct == 0
        assert steps[1].n_correct == 1
        assert steps[2].n_correct == 1  # beyond the run: the final plan

    def test_accepted_plan_wins_at_its_step(self, plans, bw_domain, problems):
        wrong, good = plans
        record = make_record(
            "p1", [(0, good, "correct")], good, StopReason.CRITIC_ACCEPTED, 2
        )
        assert score([record], bw_domain, problems).steps[0].n_correct == 1

    def test_no_iterations(self, plans, bw_domain, problems):
        wrong, good = plans
        record = make_record("p1", [], wrong, StopReason.TRANSPORT_FAILURE, 0)
        assert score([record], bw_domain, problems).steps[0].n_correct == 0
        good_final = make_record("p1", [], good, StopReason.TRANSPORT_FAILURE, 0)
        assert score([good_final], bw_domain, problems).steps[0].n_correct == 1


class TestScore:
    def test_final_accuracy(self, records, bw_domain, problems):
        metrics = score(records, bw_domain, problems)
        assert metrics.n == 4
        assert metrics.accuracy == 0.5  # p1 and p3 end correct
        assert metrics.ci_half_width == wald_ci(0.5, 4)
        assert metrics.mean_llm_calls == 3.5

    def test_per_step_accuracy(self, records, bw_domain, problems):
        metrics = score(records, bw_domain, problems)
        assert [s.step for s in metrics.steps] == [0, 1, 2]
        assert [s.n_correct for s in metrics.steps] == [1, 2, 2]
        assert [s.accuracy for s in metrics.steps] == [0.25, 0.5, 0.5]

    def test_per_step_confusion(self, records, bw_domain, problems):
        metrics = score(records, bw_domain, problems)
        s0, s1, s2 = metrics.steps
        assert (s0.tp, s0.fp, s0.tn, s0.fn) == (0, 1, 2, 1)
        assert (s1.tp, s1.fp, s1.tn, s1.fn) == (1, 0, 1, 0)
        assert (s2.tp, s2.fp, s2.tn, s2.fn) == (0, 0, 1, 0)
        # each step's confusion cells sum to the critiques issued at that step
        assert [s.n_critiques for s in metrics.steps] == [4, 2, 1]

    def test_missing_problem(self, records, bw_domain, problems):
        del problems["p4"]
        with pytest.raises(MissingProblem):
            score(records, bw_domain, problems)

    def test_empty_records(self, bw_domain, problems):
        with pytest.raises(ValueError):
            score([], bw_domain, problems)


def as_json(record):
    return json.loads(json.dumps(report.record_to_dict(record)))


class TestDerivedFieldsRefused:
    """A record whose derived fields do not follow from its rounds is refused
    (the other cases are in ``test_cli.TestRecordRefusal``)."""

    def test_cut_record(self, records):
        """A record cut short by a failed critique counts its rounds and votes,
        or one call more for the planner reply of the round left out, whose
        plan alone may stand in place of the last round's; and it carries an
        error."""
        cut = dataclasses.replace(records[0], iterations=records[0].iterations[:1],
                                  stop_reason=StopReason.TRANSPORT_FAILURE, error="critic: down")
        data = as_json(cut)  # round 0 proposed the wrong plan; the final plan is the good one
        assert report.record_from_dict({**data, "llm_calls": 3}).llm_calls == 3
        with pytest.raises(report.MalformedRecord, match="final_plan is not the last round's plan"):
            report.record_from_dict({**data, "llm_calls": 2})
        last = {**data, "final_plan": data["iterations"][0]["plan"]}
        for calls in (2, 3):
            assert report.record_from_dict({**last, "llm_calls": calls}).llm_calls == calls
        with pytest.raises(report.MalformedRecord, match="llm_calls 4 for 1 rounds"):
            report.record_from_dict({**data, "llm_calls": 4})
        with pytest.raises(report.MalformedRecord, match="transport-failure with error None"):
            report.record_from_dict({**data, "llm_calls": 3, "error": None})


class TestAccuracyLine:
    """``run``'s line has the figures ``score`` computes, read from the
    records' ground truth, which every record holds."""

    def expected(self, records, domain, problems):
        metrics = score(records, domain, problems)
        return f"n={metrics.n} accuracy={metrics.accuracy:.4f} ({summary_line(metrics)})"

    def test_null_ground_truth_refused(self, records):
        line = json.dumps(report.record_to_dict(dataclasses.replace(records[0], ground_truth=None)))
        assert '"ground_truth": null' in line
        with pytest.raises(report.MalformedRecord) as refused:
            report.parse_records(line + "\n", "records.jsonl")
        assert str(refused.value) == "records.jsonl line 1: 'ground_truth' must be an object, got null"

    def test_reads_ground_truth(self, records, bw_domain, problems, monkeypatch):
        with_truth = [
            dataclasses.replace(r, ground_truth=verdict_to_dict(validate_plan(
                problems[r.problem_id], parse_plan(r.final_plan, bw_domain), bw_domain).verdict))
            for r in records
        ]
        line = accuracy_line(with_truth[:3])
        assert line == self.expected(with_truth[:3], bw_domain, problems)
        monkeypatch.setattr(report, "parse_plan", None)  # never called
        assert accuracy_line(with_truth[:3]) == line
        assert accuracy_line(with_truth) == "n=4 accuracy=0.5000 (50.0±49.0)"

    def test_empty_records(self):
        with pytest.raises(ValueError):
            accuracy_line([])


class TestScoreOfALoopRun:
    """Scores of one seeded batch: a noisy critic, a transcript budget that
    stops some runs, and a critic that crashes on one problem in round 2.
    First pinned before ``score`` read records in the loop's shape; re-pinned
    when the mock critic's draws left the planner's stream."""

    def test_pinned(self, monkeypatch, tmp_path):
        spec = GenSpec.blocksworld(blocks=4, seed=8, count=24)
        domain, generated = generate(spec)
        plans = [bfs_plan(domain, p, SearchLimits()).plan for p in generated]
        dataset = load_dataset(write_dataset(tmp_path, domain, generated, spec, plans))
        crash_id = dataset.entries[0].id

        class CrashingMockCritic(MockCritic):
            def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
                if problem_id == crash_id and iteration == 2:
                    raise RuntimeError("critic bug")
                return super().critique(
                    domain, problem, plan, problem_id=problem_id, iteration=iteration, result=result
                )

        config = LoopConfig(
            k=4,
            transcript_budget=1750,
            planner=PlannerConfig(golden_prob=0.3, seed=5),
            critic=CriticConfig(
                backend=CriticBackend.MOCK, false_positive=0.2, false_negative=0.05, seed=6
            ),
        )
        monkeypatch.setattr(
            orchestrator,
            "make_backends",
            lambda config, goldens: (
                MockPlanner(goldens, config.planner.golden_prob, config.planner.seed),
                CrashingMockCritic(config.critic),
            ),
        )
        records = run_batch(dataset, config)
        stops = Counter(r.stop_reason for r in records)
        assert stops == {
            StopReason.CRITIC_ACCEPTED: 20,
            StopReason.BUDGET_EXCEEDED: 3,
            StopReason.INTERNAL_ERROR: 1,
        }

        metrics = score(records, dataset.domain, dataset.problems)
        assert metrics.accuracy == 10 / 24
        rows = [(s.step, s.n_correct, s.tp, s.fp, s.tn, s.fn) for s in metrics.steps]
        assert rows == [
            (0, 8, 7, 2, 14, 1),
            (1, 10, 3, 2, 10, 0),
            (2, 10, 0, 4, 4, 0),
            (3, 10, 0, 2, 1, 0),
            (4, 10, 0, 0, 0, 0),
        ]


class TestEmission:
    @pytest.fixture()
    def metrics(self, records, bw_domain, problems):
        return score(records, bw_domain, problems)

    def test_summary_line_format(self):
        metrics = Metrics(
            n=600, accuracy=0.855, ci_half_width=wald_ci(0.855, 600), mean_llm_calls=2.0, steps=()
        )
        assert summary_line(metrics) == "85.5±2.8"

    def test_metrics_to_dict(self, metrics):
        data = metrics_to_dict(metrics)
        assert data["n"] == 4
        assert data["summary"] == summary_line(metrics)
        assert len(data["steps"]) == 3
        assert data["steps"][1]["precision"] == 1.0
        assert data["steps"][2]["precision"] is None
        # deterministic and JSON-stable
        assert json.dumps(data, sort_keys=True) == json.dumps(
            metrics_to_dict(metrics), sort_keys=True
        )

    def test_table_text(self, metrics, tmp_path):
        (path,) = emit_report(metrics, "table-text", tmp_path)
        assert path.name == "report.txt"
        text = path.read_text()
        assert text.startswith(f"accuracy: {summary_line(metrics)} (n=4)")
        assert "mean llm calls: 3.50" in text

    def test_csv(self, metrics, tmp_path):
        steps, summary = emit_report(metrics, "csv", tmp_path)
        lines = steps.read_text().splitlines()
        assert lines[0] == "step,n_correct,accuracy,tp,fp,tn,fn,precision,recall"
        assert len(lines) == 4
        assert lines[1].startswith("0,1,0.250000,0,1,2,1,0.000000,0.000000")
        assert summary.read_text() == summary_line(metrics) + "\n"

    def test_structured(self, metrics, tmp_path):
        (path,) = emit_report(metrics, "structured", tmp_path)
        assert path.name == "metrics.json"
        assert json.loads(path.read_text()) == metrics_to_dict(metrics)

    def test_unknown_format(self, metrics, tmp_path):
        assert "table-text" in REPORT_FORMATS
        with pytest.raises(ValueError):
            emit_report(metrics, "yaml", tmp_path)

    def test_bytes_of_every_format(self, tmp_path):
        """Each format writes its files, named in ``REPORT_FORMATS``, with
        these bytes for one fixed set of figures."""
        metrics = Metrics(
            n=3, accuracy=2 / 3, ci_half_width=wald_ci(2 / 3, 3), mean_llm_calls=2.5, steps=(
                StepMetrics(0, 1, 1 / 3, tp=1, fp=1, tn=1, fn=0),
                StepMetrics(1, 2, 2 / 3, tp=0, fp=0, tn=1, fn=0),
            )
        )
        expected = {
            "table-text": {
                "report.txt": "accuracy: 66.7±53.3 (n=3)\nmean llm calls: 2.50\n\n"
                "step  correct  accuracy     tp     fp     tn     fn  precision     recall\n"
                "   0        1     0.333      1      1      1      0      0.500      1.000\n"
                "   1        2     0.667      0      0      1      0          -          -\n",
            },
            "csv": {
                "steps.csv": "step,n_correct,accuracy,tp,fp,tn,fn,precision,recall\n"
                "0,1,0.333333,1,1,1,0,0.500000,1.000000\n1,2,0.666667,0,0,1,0,,\n",
                "summary.txt": "66.7±53.3\n",
            },
            "structured": {
                "metrics.json": "\n".join([
                    '{', '  "accuracy": 0.666667,', '  "ci_half_width": 0.533444,',
                    '  "mean_llm_calls": 2.5,', '  "n": 3,', '  "steps": [', '    {',
                    '      "accuracy": 0.333333,', '      "critic_accuracy": 0.666667,',
                    '      "fn": 0,', '      "fp": 1,', '      "n_correct": 1,',
                    '      "precision": 0.5,', '      "recall": 1.0,', '      "step": 0,',
                    '      "tn": 1,', '      "tp": 1', '    },', '    {',
                    '      "accuracy": 0.666667,', '      "critic_accuracy": 1.0,',
                    '      "fn": 0,', '      "fp": 0,', '      "n_correct": 2,',
                    '      "precision": null,', '      "recall": null,', '      "step": 1,',
                    '      "tn": 1,', '      "tp": 0', '    }', '  ],',
                    '  "summary": "66.7\\u00b153.3"', '}', '',
                ]),
            },
        }
        assert list(expected) == list(REPORT_FORMATS)
        for fmt, files in expected.items():
            out = tmp_path / fmt
            assert emit_report(metrics, fmt, out) == [out / name for name in REPORT_FORMATS[fmt]]
            assert {path.name: path.read_text() for path in out.iterdir()} == files
