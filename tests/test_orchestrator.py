import dataclasses
import functools
import json
import re
import sys
import time
from pathlib import Path

import pytest

from plancritic import cli, critics, orchestrator, pddl, prompting, semantics
from plancritic.critics import (
    CriticBackend,
    CriticConfig,
    CritiqueVerdict,
    OracleCritic,
)
from plancritic.generators import (
    Dataset,
    GenSpec,
    ManifestEntry,
    generate,
    load_dataset,
    write_dataset,
)
from plancritic.llm import TransportError
from plancritic.orchestrator import (
    LoopConfig,
    LlmPlanner,
    MockPlanner,
    Planner,
    PlannerBackend,
    PlannerConfig,
    ScriptedPlanner,
    call_count,
    extract_plan,
    make_backends,
    make_planner,
    _record_line,
    run_batch,
    run_problem,
)
from plancritic.pddl import Plan, parse_plan, print_plan, problem_key
from plancritic.prompting import (
    Exemplar,
    PoolTooSmall,
    Transcript,
    build_plan_prompt,
    build_pool,
    select_fewshots,
)
from plancritic.report import (
    IterationEntry,
    MalformedRecord,
    RunRecord,
    StopReason,
    read_records,
    record_from_dict,
    record_to_dict,
    score,
    summary_line,
)
from plancritic.search import SearchLimits, bfs_plan
from plancritic.semantics import CritiqueLabel, validate_plan, verdict_to_dict

from .helpers import dataset_of, reference_extract_plan, write_records
from .test_critics import FakeEndpoint, chat_body

C = CritiqueLabel.CORRECT
W = CritiqueLabel.WRONG


class ScriptedCritic:
    """Returns a fixed label per iteration, voted ``samples`` times; the last
    label repeats."""

    def __init__(self, labels, samples=1):
        self.labels = list(labels)
        self.samples = samples

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        label = self.labels[min(iteration, len(self.labels) - 1)]
        return CritiqueVerdict(text=f"the plan is {label.value}", votes={label: self.samples})


class RecordingPlanner(Planner):
    """Returns one fixed plan text and keeps every prompt it is sent."""

    def __init__(self, plan_text):
        self.plan_text = plan_text
        self.prompts = []

    def generate(self, prompt, *, problem_id, iteration):
        self.prompts.append(prompt)
        return self.plan_text


class RecordingCritic(OracleCritic):
    """The oracle critic, keeping the text of every critique."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        verdict = super().critique(
            domain, problem, plan, problem_id=problem_id, iteration=iteration, result=result
        )
        self.texts.append(verdict.text)
        return verdict


class FailingPlanner:
    def generate(self, prompt, *, problem_id, iteration):
        raise TransportError("planner down")


class FailingCritic:
    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        raise TransportError("critic down")


class CrashingCritic(ScriptedCritic):
    """Rejects every plan of the problems in ``crash_ids`` and raises a bug
    at round ``at``; accepts every plan of any other problem."""

    def __init__(self, crash_ids, at=2, samples=1):
        super().__init__([W], samples)
        self.crash_ids = set(crash_ids)
        self.at = at

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        if problem_id not in self.crash_ids:
            return CritiqueVerdict(text="the plan is correct", votes={C: 1})
        if iteration == self.at:
            raise RuntimeError("critic bug")
        return super().critique(domain, problem, plan, problem_id=problem_id, iteration=iteration)

    def close(self):
        pass


# one record line as written before records were serialized from the dataclasses
STORED_LINE = (
    r'{"error": null, '
    r'"final_plan": "(unstack b5 b2)\n(put-down b5)\n(unstack b2 b1)\n(put-down b2)\n(pick-up b3)\n(stack b3 b2)\n(pick-up b5)\n(stack b5 b3)\n(pick-up b2)\n(stack b2 b5)\n(pick-up b1)\n(stack b1 b4)", '
    r'"ground_truth": {"step": 9, "unmet": ["(clear b2)"], "verdict": "wrong_at_step"}, '
    r'"iterations": [{"critic_label": "goal_not_reached", "critique_prompt_chars": 0, '
    r'"plan": "(unstack b5 b2)\n(put-down b5)\n(unstack b2 b1)\n(put-down b2)", '
    r'"plan_prompt_chars": 1382, "step": 0, '
    r'"votes": {"goal_not_reached": 1}}, {"critic_label": "wrong", '
    r'"critique_prompt_chars": 0, '
    r'"plan": "(unstack b5 b2)\n(put-down b5)\n(unstack b2 b1)\n(put-down b2)\n(pick-up b3)\n(stack b3 b2)\n(pick-up b5)\n(stack b5 b3)\n(pick-up b2)\n(stack b2 b5)\n(pick-up b1)\n(stack b1 b4)", '
    r'"plan_prompt_chars": 2479, "step": 1, "votes": {"wrong": 1}}], "llm_calls": 4, '
    r'"max_steps": 1, "problem_id": "p1", "self_consistency": 1, '
    r'"stop_reason": "iterations-exhausted"}'
)


class TestCallCount:
    @pytest.mark.parametrize(
        "rounds,n,expected",
        [(10, 1, 20), (10, 5, 60), (0, 1, 0), (1, 1, 2), (3, 1, 6), (4, 3, 16)],
    )
    def test_values(self, rounds, n, expected):
        assert call_count(rounds, n) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            call_count(-1)
        with pytest.raises(ValueError):
            call_count(2, 0)


class TestExtractPlan:
    def test_numbered_list(self, bw_domain):
        text = "Here is my plan:\n1. (pick-up b3)\n2) (put-down b3)\nDone!"
        plan = extract_plan(text, bw_domain)
        assert print_plan(plan) == "(pick-up b3)\n(put-down b3)"

    def test_bullets_and_blanks(self, bw_domain):
        text = "- (pick-up b3)\n\n* (put-down b3)\n"
        assert len(extract_plan(text, bw_domain).steps) == 2

    def test_prose_and_bad_actions_skipped(self, bw_domain):
        text = "(pick-up b3)\nthen I think about it\n(teleport b3)\n(pick-up b3 b4)\n(put-down b3)"
        plan = extract_plan(text, bw_domain)
        assert print_plan(plan) == "(pick-up b3)\n(put-down b3)"

    def test_no_actions_gives_empty_plan(self, bw_domain):
        assert extract_plan("I give up.", bw_domain) == Plan(())

    def test_comments_stripped(self, bw_domain):
        text = "(pick-up b1) ; grab it\n(stack b1 b2)\n; (put-down b3)\n2. (pick-up b3);x"
        plan = extract_plan(text, bw_domain)
        assert print_plan(plan) == "(pick-up b1)\n(stack b1 b2)\n(pick-up b3)"

    @pytest.mark.parametrize(
        "text,expected",
        [
            (
                "1. (pick-up b3)\n2) (put-down b3)\n10.\t(pick-up b1)",
                "(pick-up b3)\n(put-down b3)\n(pick-up b1)",
            ),
            (
                "- (pick-up b3)\n* (stack b3 b1)\n-(pick-up b2)\n*  ( put-down  b2 )",
                "(pick-up b3)\n(stack b3 b1)\n(put-down b2)",
            ),
            (
                "(pick-up b1) ; grab\n; (put-down b3)\n  ;\n(stack b1 b2);x\n3. ;(pick-up b4)",
                "(pick-up b1)\n(stack b1 b2)",
            ),
            (
                "(pick-up ?x)\n(stack ?a b2)\n(stack a?b b2)\n(?x b1)\n(pick-up b?)",
                "(stack a?b b2)\n(pick-up b?)",
            ),
            ("(teleport b3)\n(fly)\n(Pick-up b3)\n(pick-up b3)", "(pick-up b3)"),
            ("(pick-up)\n(pick-up b1 b2)\n(stack b1)\n(stack b1 b2 b3)\n(handempty)", ""),
            (
                "((pick-up b1))\n(pick-up (b1))\n(pick-up b1) (put-down b1)\n(pick-up b1))\n"
                "(pick-up b1",
                "",
            ),
            (
                "\n\n   \n\t\n(pick-up b1)\n\r\n\u2028(put-down b1)\x0b(pick-up b2)\n",
                "(pick-up b1)\n(put-down b1)\n(pick-up b2)",
            ),
            ("Plan:\n1.(unstack b5 b2)\n2. pick-up b3\nThe plan is correct.\n()\n( )", "(unstack b5 b2)"),
        ],
    )
    def test_same_plan_as_per_line_parse(self, bw_domain, text, expected):
        plan = extract_plan(text, bw_domain)
        assert plan == reference_extract_plan(text, bw_domain)
        assert print_plan(plan) == expected


class TestPlanners:
    def test_mock_golden(self):
        planner = MockPlanner({"p": "(a)\n(b)\n(c)"})
        assert planner.generate("prompt", problem_id="p", iteration=0) == "(a)\n(b)\n(c)"

    def test_mock_always_degrades(self):
        planner = MockPlanner({"p": "(a)\n(b)\n(c)"}, golden_prob=0.0)
        for i in range(5):
            assert planner.generate("prompt", problem_id="p", iteration=i) == "(a)\n(b)"

    def test_mock_seeded(self):
        a = MockPlanner({"p": "(a)\n(b)"}, golden_prob=0.5, seed=3)
        b = MockPlanner({"p": "(a)\n(b)"}, golden_prob=0.5, seed=3)
        outs_a = [a.generate("x", problem_id="p", iteration=i) for i in range(20)]
        outs_b = [b.generate("x", problem_id="p", iteration=i) for i in range(20)]
        assert outs_a == outs_b
        assert len(set(outs_a)) == 2  # both outcomes occur

    def test_mock_missing_golden(self):
        with pytest.raises(KeyError):
            MockPlanner({}).generate("x", problem_id="p", iteration=0)

    def test_scripted_replays_then_repeats(self):
        planner = ScriptedPlanner({"p": ["first", "second"]})
        outs = [planner.generate("x", problem_id="p", iteration=i) for i in range(4)]
        assert outs == ["first", "second", "second", "second"]

    def test_make_planner_mock(self):
        planner = make_planner(PlannerConfig(golden_prob=0.25, seed=9), {"p": "(a)"})
        assert isinstance(planner, MockPlanner)
        assert planner.golden_prob == 0.25

    def test_backend_is_coerced(self):
        config = PlannerConfig(backend="llm", base_url="http://x", model="m")
        assert config.backend is PlannerBackend.LLM
        assert isinstance(make_planner(config), LlmPlanner)
        assert isinstance(make_planner(PlannerConfig(backend="mock")), MockPlanner)
        with pytest.raises(ValueError):
            PlannerConfig(backend="oracle")

    @pytest.mark.parametrize(
        "base_url", ["", "api.example.com/v1", "ftp://api.example.com/v1", "http://", "http://h:port"]
    )
    @pytest.mark.parametrize("config_class", [PlannerConfig, CriticConfig])
    def test_llm_backend_needs_an_http_endpoint(self, config_class, base_url):
        with pytest.raises(ValueError):
            config_class(backend="llm", base_url=base_url, model="m")
        config_class(backend="llm", base_url="https://api.example.com/v1", model="m")
        config_class(backend="mock", base_url=base_url)  # an unused endpoint is not checked


class TestRunProblem:
    def test_immediate_accept(self, bw_domain, bw5_problem, correct_plan):
        golden = print_plan(correct_plan)
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=10),
            MockPlanner({"p1": golden}),
            OracleCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.CRITIC_ACCEPTED
        assert record.final_plan == golden
        assert len(record.iterations) == 1
        assert record.llm_calls == 2
        assert record.ground_truth == {"verdict": "correct"}
        assert record.error is None

    def test_repair_after_rejection(self, bw_domain, bw5_problem, wrong_plan, correct_plan):
        scripts = {"p1": [print_plan(wrong_plan), print_plan(correct_plan)]}
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=10),
            ScriptedPlanner(scripts),
            OracleCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.CRITIC_ACCEPTED
        assert [e.critic_label for e in record.iterations] == ["wrong", "correct"]
        assert record.final_plan == print_plan(correct_plan)
        assert record.llm_calls == 4
        # the transcript grows, so the second plan prompt is strictly longer
        assert record.iterations[1].plan_prompt_chars > record.iterations[0].plan_prompt_chars

    @pytest.mark.parametrize("j", [1, 2, 4])
    def test_accept_at_round_j_costs_2j(self, bw_domain, bw5_problem, correct_plan, j):
        golden = print_plan(correct_plan)
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=10),
            MockPlanner({"p1": golden}),
            ScriptedCritic([W] * (j - 1) + [C]),
            problem_id="p1",
        )
        assert len(record.iterations) == j
        assert record.llm_calls == 2 * j

    def test_iterations_exhausted(self, bw_domain, bw5_problem, wrong_plan):
        wrong = print_plan(wrong_plan)
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=2),
            ScriptedPlanner({"p1": [wrong]}),
            OracleCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.ITERATIONS_EXHAUSTED
        assert len(record.iterations) == 3  # baseline plus k retries
        assert record.final_plan == wrong  # the last proposed plan stands
        assert record.llm_calls == 6
        assert record.ground_truth["verdict"] == "wrong_at_step"
        assert record.ground_truth["step"] == 9

    def test_budget_exceeded(self, bw_domain, bw5_problem, wrong_plan):
        wrong = print_plan(wrong_plan)
        planner = ScriptedPlanner({"p1": [wrong]})
        probe = run_problem(
            bw_domain, bw5_problem, LoopConfig(k=1), planner, OracleCritic(), problem_id="p1"
        )
        first_len = probe.iterations[0].plan_prompt_chars
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=5, transcript_budget=first_len),
            planner,
            OracleCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.BUDGET_EXCEEDED
        assert len(record.iterations) == 1  # the second prompt blew the cap
        assert record.final_plan == wrong
        assert "budget" in record.error

    def test_each_round_sees_the_full_plan_prompt(
        self, bw_domain, bw5_problem, wrong_plan, shot_problem, shot_plan, correct_plan
    ):
        shots = (Exemplar(shot_problem, shot_plan), Exemplar(bw5_problem, correct_plan))
        planner = RecordingPlanner(print_plan(wrong_plan))
        critic = RecordingCritic()
        record = run_problem(
            bw_domain, bw5_problem, LoopConfig(k=3), planner, critic, shots=shots, problem_id="p1"
        )
        assert len(record.iterations) == len(planner.prompts) == 4
        transcript = Transcript(char_budget=LoopConfig().transcript_budget)
        for entry, prompt, critique in zip(record.iterations, planner.prompts, critic.texts):
            assert prompt == build_plan_prompt(bw_domain, bw5_problem, shots, transcript)
            assert entry.plan_prompt_chars == len(prompt)
            transcript.append(entry.plan, critique)

    def _round_prompt_lengths(self, bw_domain, bw5_problem, wrong_plan):
        planner = RecordingPlanner(print_plan(wrong_plan))
        run_problem(bw_domain, bw5_problem, LoopConfig(k=1), planner, OracleCritic(), problem_id="p1")
        return [len(p) for p in planner.prompts]

    def test_budget_between_prefix_and_round_one(self, bw_domain, bw5_problem, wrong_plan):
        prefix_len, round_one_len = self._round_prompt_lengths(bw_domain, bw5_problem, wrong_plan)
        budget = (prefix_len + round_one_len) // 2
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=3, transcript_budget=budget),
            ScriptedPlanner({"p1": [print_plan(wrong_plan)]}),
            OracleCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.BUDGET_EXCEEDED
        assert len(record.iterations) == 1
        assert record.error == f"prompt length {round_one_len} exceeds budget {budget}"

    def test_budget_below_prefix_stops_at_round_zero(self, bw_domain, bw5_problem, wrong_plan):
        prefix_len, _ = self._round_prompt_lengths(bw_domain, bw5_problem, wrong_plan)
        planner = RecordingPlanner(print_plan(wrong_plan))
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=3, transcript_budget=prefix_len - 1),
            planner,
            OracleCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.BUDGET_EXCEEDED
        assert record.iterations == () and planner.prompts == []
        assert record.llm_calls == 0
        assert record.error == f"prompt length {prefix_len} exceeds budget {prefix_len - 1}"

    def test_planner_transport_failure(self, bw_domain, bw5_problem):
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(),
            FailingPlanner(),
            OracleCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.TRANSPORT_FAILURE
        assert record.final_plan == ""
        assert record.iterations == ()
        assert record.llm_calls == 0
        assert record.error.startswith("planner:")

    def test_critic_transport_failure(self, bw_domain, bw5_problem, wrong_plan):
        wrong = print_plan(wrong_plan)
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(),
            ScriptedPlanner({"p1": [wrong]}),
            FailingCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.TRANSPORT_FAILURE
        assert record.final_plan == wrong  # keeps the plan that was proposed
        assert record.error.startswith("critic:")

    def test_exception_keeps_the_rounds_that_ran(
        self, bw_domain, bw5_problem, wrong_plan, correct_plan, caplog
    ):
        third = Plan(correct_plan.steps[:-1])
        scripts = {"p1": [print_plan(wrong_plan), print_plan(wrong_plan), print_plan(third)]}
        c = 3
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=5, critic=CriticConfig(self_consistency=c)),
            ScriptedPlanner(scripts),
            CrashingCritic(["p1"], at=2, samples=c),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.INTERNAL_ERROR
        assert [e.step for e in record.iterations] == [0, 1]
        assert record.llm_calls == call_count(2, c) + 1  # and round 2's planner reply
        assert record.final_plan == print_plan(third)  # the round-2 plan stands
        truth = validate_plan(bw5_problem, third, bw_domain)
        assert record.ground_truth == verdict_to_dict(truth.verdict)
        assert record.ground_truth["verdict"] == "goal_not_reached"
        assert record.error == "RuntimeError: critic bug"
        assert "run failed for p1" in caplog.text

    def test_critic_failure_counts_the_planner_reply_of_its_round(
        self, bw_domain, bw5_problem, wrong_plan
    ):
        class CriticDownAtRoundTwo(ScriptedCritic):
            def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
                if iteration == 2:
                    raise TransportError("critic down")
                return super().critique(domain, problem, plan, problem_id=problem_id, iteration=iteration)

        c = 3
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=5, critic=CriticConfig(self_consistency=c)),
            ScriptedPlanner({"p1": [print_plan(wrong_plan)]}),
            CriticDownAtRoundTwo([W], samples=c),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.TRANSPORT_FAILURE
        assert len(record.iterations) == 2
        # two whole rounds, then round 2's planner reply; the failed critique counts nothing
        assert record.llm_calls == call_count(2, c) + 1 == 9

    def test_planner_failure_counts_nothing_for_its_round(self, bw_domain, bw5_problem, wrong_plan):
        class PlannerDownAtRoundTwo(ScriptedPlanner):
            def generate(self, prompt, *, problem_id, iteration):
                if iteration == 2:
                    raise TransportError("planner down")
                return super().generate(prompt, problem_id=problem_id, iteration=iteration)

        c = 3
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=5, critic=CriticConfig(self_consistency=c)),
            PlannerDownAtRoundTwo({"p1": [print_plan(wrong_plan)]}),
            ScriptedCritic([W], samples=c),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.TRANSPORT_FAILURE
        assert record.error.startswith("planner:")
        assert len(record.iterations) == 2
        assert record.llm_calls == call_count(2, c) == 8

    def test_keyboard_interrupt_propagates(self, bw_domain, bw5_problem):
        class Interrupted(Planner):
            def generate(self, prompt, *, problem_id, iteration):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_problem(
                bw_domain, bw5_problem, LoopConfig(), Interrupted(), OracleCritic(), problem_id="p1"
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(k=-1)
        with pytest.raises(ValueError):
            LoopConfig(shots=-2)
        for budget in (0, -5):
            with pytest.raises(ValueError, match="transcript_budget"):
                LoopConfig(transcript_budget=budget)
        assert LoopConfig(transcript_budget=None).transcript_budget is None
        assert LoopConfig().shots == 0  # the one value that runs without a pool


class TestRecordPersistence:
    @pytest.fixture()
    def record(self, bw_domain, bw5_problem, wrong_plan, correct_plan):
        scripts = {"p1": [print_plan(wrong_plan), print_plan(correct_plan)]}
        return run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(),
            ScriptedPlanner(scripts),
            OracleCritic(),
            problem_id="p1",
        )

    def test_dict_round_trip(self, record):
        data = record_to_dict(record)
        assert record_from_dict(json.loads(json.dumps(data))) == record

    def test_file_round_trip(self, record, tmp_path):
        path = tmp_path / "records.jsonl"
        failure = dataclasses.replace(  # the critic's call of the last round failed
            record,
            problem_id="p2",
            iterations=record.iterations[:-1],
            stop_reason=StopReason.TRANSPORT_FAILURE,
            llm_calls=record.llm_calls - 1,  # the planner reply counts, the failed vote does not
            error="boom",
        )
        write_records(path, [record, failure])
        assert read_records(path) == [record, failure]

    def test_stored_line_reads_and_writes_back_byte_identical(
        self, bw_domain, bw5_problem, wrong_plan, tmp_path
    ):
        stored = tmp_path / "stored.jsonl"
        stored.write_text(STORED_LINE + "\n")
        records = read_records(stored)
        rewritten = tmp_path / "rewritten.jsonl"
        write_records(rewritten, records)
        assert rewritten.read_bytes() == stored.read_bytes()
        wrong = print_plan(wrong_plan)
        scripts = {"p1": [wrong[:60], wrong]}
        assert records == [
            run_problem(
                bw_domain, bw5_problem, LoopConfig(k=1), ScriptedPlanner(scripts), OracleCritic(),
                problem_id="p1",
            )
        ]


class PlannerDownAt(ScriptedPlanner):
    """Replays ``plan_text`` and raises ``exc`` at round ``at``."""

    def __init__(self, plan_text, at, exc):
        super().__init__({"p1": [plan_text]})
        self.at, self.exc = at, exc

    def generate(self, prompt, *, problem_id, iteration):
        if iteration == self.at:
            raise self.exc
        return super().generate(prompt, problem_id=problem_id, iteration=iteration)


class CriticDownAt(ScriptedCritic):
    """Rejects every plan, ``samples`` votes each, and raises ``exc`` at round ``at``."""

    def __init__(self, at, exc, samples):
        super().__init__([W], samples)
        self.at, self.exc = at, exc

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        if iteration == self.at:
            raise self.exc
        return super().critique(domain, problem, plan, problem_id=problem_id, iteration=iteration)


class TestEveryStopReasonReadsBack:
    """Every record ``run_problem`` writes, whatever stopped the run, is one
    that ``record_from_dict`` accepts and whose ground truth ``score`` accepts."""

    @pytest.mark.parametrize(
        "case,stop",
        [
            ("accepted", StopReason.CRITIC_ACCEPTED),
            ("exhausted", StopReason.ITERATIONS_EXHAUSTED),
            ("budget-at-round-0", StopReason.BUDGET_EXCEEDED),
            ("budget-at-round-1", StopReason.BUDGET_EXCEEDED),
            ("planner-down", StopReason.TRANSPORT_FAILURE),
            ("critic-down", StopReason.TRANSPORT_FAILURE),
            ("planner-bug", StopReason.INTERNAL_ERROR),
            ("critic-bug", StopReason.INTERNAL_ERROR),
        ],
    )
    def test_record_reads_back(self, bw_domain, bw5_problem, wrong_plan, correct_plan, case, stop):
        wrong, good = print_plan(wrong_plan), print_plan(correct_plan)
        c = 3
        config = LoopConfig(k=2, critic=CriticConfig(self_consistency=c))
        round_zero = len(build_plan_prompt(bw_domain, bw5_problem, (), Transcript()))
        planner, critic = ScriptedPlanner({"p1": [wrong]}), ScriptedCritic([W], c)
        if case == "accepted":
            planner, critic = ScriptedPlanner({"p1": [wrong, good]}), OracleCritic(config.critic)
        elif case.startswith("budget"):
            budget = round_zero - 1 if case == "budget-at-round-0" else round_zero
            config = dataclasses.replace(config, transcript_budget=budget)
        elif case.startswith("planner"):
            exc = TransportError("down") if case == "planner-down" else RuntimeError("bug")
            planner = PlannerDownAt(wrong, 1, exc)
        elif case.startswith("critic"):
            exc = TransportError("down") if case == "critic-down" else RuntimeError("bug")
            planner, critic = ScriptedPlanner({"p1": [wrong, good]}), CriticDownAt(1, exc, c)
        record = run_problem(bw_domain, bw5_problem, config, planner, critic, problem_id="p1")
        assert record.stop_reason is stop
        assert record_from_dict(json.loads(_record_line(record))) == record
        assert score([record], bw_domain, {"p1": bw5_problem}).n == 1
        if case == "budget-at-round-0":  # nothing was proposed: the empty plan stands
            assert record.iterations == () and record.final_plan == ""
        if case.startswith("critic"):  # the plan the failed critique judged stands
            assert record.final_plan == good != record.iterations[-1].plan
            assert record.llm_calls == call_count(1, c) + 1


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Four solvable 3-block problems with golden plans, one without a plan."""
    out = tmp_path_factory.mktemp("dataset")
    spec = GenSpec(benchmark="blocksworld", seed=11, count=5, blocks=3)
    domain, problems = generate(spec)
    plans = [bfs_plan(domain, p, SearchLimits()).plan for p in problems]
    plans[2] = None  # no golden for this one: the mock planner cannot run it
    manifest = write_dataset(out, domain, problems, spec, plans)
    return load_dataset(manifest)


class TestRecordLine:
    def test_line_is_the_asdict_dump(self, dataset, tmp_path):
        """A line built field by field is the line ``dataclasses.asdict`` gave."""
        path = tmp_path / "records.jsonl"
        config = LoopConfig(
            k=1,
            planner=PlannerConfig(golden_prob=0.3, seed=2),
            critic=CriticConfig(backend=CriticBackend.ORACLE),
        )
        run_batch(dataset, config, records_path=path)
        records = read_records(path)
        accepted = next(r for r in records if r.stop_reason is StopReason.CRITIC_ACCEPTED)
        exhausted = next(r for r in records if r.stop_reason is StopReason.ITERATIONS_EXHAUSTED)
        no_truth = dataclasses.replace(  # the critic's call of the last round failed
            accepted, iterations=accepted.iterations[:-1], stop_reason=StopReason.TRANSPORT_FAILURE,
            llm_calls=accepted.llm_calls - 1, error="down",
        )
        write_records(path, [accepted, exhausted, no_truth])
        read_back = read_records(path)
        assert read_back == [accepted, exhausted, no_truth]
        lines = [json.dumps(dataclasses.asdict(r), sort_keys=True) + "\n" for r in read_back]
        assert [_record_line(r) for r in read_back] == lines
        assert path.read_text() == "".join(lines)


class TestRunBatch:
    def config(self, **kwargs):
        return LoopConfig(
            planner=PlannerConfig(golden_prob=1.0),
            critic=CriticConfig(backend=CriticBackend.ORACLE),
            **kwargs,
        )

    def test_manifest_order_and_isolation(self, dataset):
        records = run_batch(dataset, self.config())
        assert [r.problem_id for r in records] == [e.id for e in dataset.entries]
        ok = [r for i, r in enumerate(records) if i != 2]
        assert all(r.stop_reason is StopReason.CRITIC_ACCEPTED for r in ok)
        broken = records[2]  # golden plan missing -> isolated failure record
        assert broken.stop_reason is StopReason.INTERNAL_ERROR
        assert broken.error.startswith("KeyError: ") and "golden" in broken.error
        assert broken.llm_calls == 0

    def test_records_path_appends_and_resumes(self, dataset, tmp_path):
        path = tmp_path / "records.jsonl"
        first = run_batch(dataset, self.config(), records_path=path)
        assert read_records(path) == first
        # tamper with one stored record; a resumed batch must reuse it verbatim
        entry = dataclasses.replace(first[0].iterations[0], plan_prompt_chars=7)
        tampered = dataclasses.replace(first[0], iterations=(entry,) + first[0].iterations[1:])
        write_records(path, [tampered] + first[1:])
        second = run_batch(dataset, self.config(), records_path=path)
        assert second[0].iterations[0].plan_prompt_chars == 7
        assert second[1:] == first[1:]
        assert len(read_records(path)) == len(dataset.entries)  # nothing re-appended

    def test_records_file_opened_once_per_batch(self, dataset, tmp_path, monkeypatch):
        path = tmp_path / "records.jsonl"
        opened = []
        open_path = Path.open

        def counting_open(self, *args, **kwargs):
            if self == path:
                opened.append(args)
            return open_path(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        records = run_batch(dataset, self.config(), records_path=path, parallelism=2)
        assert opened == [("a",)]
        monkeypatch.undo()
        stored = read_records(path)  # in the order the runs finished
        assert sorted(stored, key=lambda r: r.problem_id) == records

    def test_parallelism_equivalent(self, dataset):
        serial = run_batch(dataset, self.config())
        parallel = run_batch(dataset, self.config(), parallelism=4)
        assert serial == parallel

    def test_resume_drops_torn_last_line(self, dataset, tmp_path, caplog):
        path = tmp_path / "records.jsonl"
        first = run_batch(dataset, self.config(), records_path=path)
        whole = path.read_bytes()
        last = whole.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(whole[: last + 40])  # the last record, cut mid-JSON
        assert run_batch(dataset, self.config(), records_path=path) == first
        assert path.read_bytes() == whole
        assert "torn" in caplog.text

    def test_resume_rejects_malformed_whole_line(self, dataset, tmp_path):
        path = tmp_path / "records.jsonl"
        run_batch(dataset, self.config(), records_path=path)
        with path.open("a") as fh:
            fh.write("{not json\n")
        with pytest.raises(MalformedRecord, match=rf"{re.escape(str(path))} line \d+: not JSON"):
            run_batch(dataset, self.config(), records_path=path)

    def test_exception_is_an_internal_error(self, dataset, tmp_path, monkeypatch):
        class Broken(Planner):
            def generate(self, prompt, *, problem_id, iteration):
                if problem_id == dataset.entries[1].id:
                    raise RuntimeError("planner bug")
                return print_plan(dataset.plans[problem_id])

        from plancritic import orchestrator

        monkeypatch.setattr(
            orchestrator, "make_backends", lambda config, goldens: (Broken(), OracleCritic())
        )
        path = tmp_path / "records.jsonl"
        records = run_batch(dataset, self.config(), records_path=path)
        stops = [r.stop_reason for r in records]
        assert stops == [
            StopReason.CRITIC_ACCEPTED, StopReason.INTERNAL_ERROR, StopReason.INTERNAL_ERROR,
            StopReason.CRITIC_ACCEPTED, StopReason.CRITIC_ACCEPTED,
        ]
        assert records[1].error == "RuntimeError: planner bug"
        assert records[2].error.startswith("KeyError: ")  # no golden plan for this entry
        assert read_records(path) == records  # the batch went on and stored every record

    def test_failed_round_is_stored_with_its_rounds(self, dataset, tmp_path, monkeypatch):
        target = dataset.entries[1].id
        config = self.config(k=5)
        goldens = {pid: print_plan(plan) for pid, plan in dataset.plans.items()}
        from plancritic import orchestrator

        monkeypatch.setattr(
            orchestrator,
            "make_backends",
            lambda config, goldens: (MockPlanner(goldens), CrashingCritic([target])),
        )
        path = tmp_path / "records.jsonl"
        records = run_batch(dataset, config, records_path=path)
        assert [r.stop_reason for r in records] == [
            StopReason.CRITIC_ACCEPTED, StopReason.INTERNAL_ERROR, StopReason.INTERNAL_ERROR,
            StopReason.CRITIC_ACCEPTED, StopReason.CRITIC_ACCEPTED,
        ]
        expected = run_problem(
            dataset.domain,
            dataset.problems[target],
            config,
            MockPlanner(goldens),
            CrashingCritic([target]),
            problem_id=target,
        )
        assert records[1] == expected
        assert len(expected.iterations) == 2
        assert expected.llm_calls == call_count(2) + 1  # and round 2's planner reply
        assert expected.final_plan == goldens[target]
        assert expected.ground_truth == {"verdict": "correct"}
        assert expected.error == "RuntimeError: critic bug"
        # a failure in round 0 stores the empty plan's verdict
        no_golden = records[2]
        assert no_golden.iterations == () and no_golden.final_plan == ""
        empty = validate_plan(dataset.problems[no_golden.problem_id], Plan(()), dataset.domain)
        assert no_golden.ground_truth == verdict_to_dict(empty.verdict)
        assert read_records(path) == records  # the batch went on and stored every record

    def test_shots_need_pool(self, dataset):
        with pytest.raises(ValueError):
            run_batch(dataset, self.config(shots=2))

    def test_pool_counted_without_the_target(self, dataset):
        # four entries of the run itself; 0001 and 0003 pose one task (their
        # objects are listed in another order), so each is also the other's twin
        ids = list(dataset.plans)
        assert problem_key(dataset.problems[ids[1]]) == problem_key(dataset.problems[ids[2]])
        problems = {pid: dataset.problems[pid] for pid in ids}
        pool = build_pool(dataset_of(dataset.domain, problems, dataset.plans), 0)
        with pytest.raises(PoolTooSmall):
            run_batch(dataset, self.config(shots=3), pool=pool)
        records = run_batch(dataset, self.config(shots=2), pool=pool)
        solved = [r for r in records if r.problem_id in dataset.plans]
        assert all(r.stop_reason is StopReason.CRITIC_ACCEPTED for r in solved)


class TestIterationEntry:
    def test_shape(self):
        entry = IterationEntry(
            step=0,
            plan="(pick-up b3)",
            critic_label="wrong",
            votes={"wrong": 1},
            plan_prompt_chars=100,
            critique_prompt_chars=0,
        )
        assert entry.step == 0
        assert RunRecord(
            problem_id="p",
            max_steps=1,
            self_consistency=1,
            iterations=(entry,),
            final_plan="",
            stop_reason=StopReason.ITERATIONS_EXHAUSTED,
            llm_calls=2,
            ground_truth=None,
        ).iterations == (entry,)


class TestMakeBackends:
    def config(self, **critic):
        endpoint = {"base_url": "http://127.0.0.1:9/v1", "model": "m", "requests_per_second": 5.0}
        return LoopConfig(
            planner=PlannerConfig(backend=PlannerBackend.LLM, **endpoint),
            critic=CriticConfig(backend=CriticBackend.LLM, **{**endpoint, **critic}),
        )

    def test_same_endpoint_shares_one_client(self):
        planner, critic = make_backends(self.config(self_consistency=3, max_output_tokens=64))
        assert planner.client is critic.client
        assert planner.client._limiter is critic.client._limiter

    @pytest.mark.parametrize(
        "change", [{"model": "other"}, {"requests_per_second": 1.0}, {"debug_log": "x.jsonl"}]
    )
    def test_different_endpoints_get_two_clients(self, change):
        planner, critic = make_backends(self.config(**change))
        assert planner.client is not critic.client
        assert planner.client._limiter is not critic.client._limiter
        field, value = next(iter(change.items()))
        assert getattr(critic.client.endpoint, field) == value
        assert getattr(planner.client.endpoint, field) != value


class TestSharedEndpoint:
    """An llm planner and critic on one endpoint, driven by a batch."""

    @pytest.fixture()
    def endpoint(self):
        ep = FakeEndpoint()
        ep.script = [(200, chat_body("the plan is wrong"))]  # empty plans, always rejected
        yield ep
        ep.close()

    def config(self, endpoint, **shared):
        settings = {"base_url": endpoint.url, "model": "fake", **shared}
        return LoopConfig(
            k=4,
            planner=PlannerConfig(backend=PlannerBackend.LLM, **settings),
            critic=CriticConfig(backend=CriticBackend.LLM, max_concurrency=1, **settings),
        )

    def test_one_rate_limit_covers_both_roles(self, dataset, endpoint):
        one = dataclasses.replace(dataset, entries=dataset.entries[:1])
        start = time.monotonic()
        records = run_batch(one, self.config(endpoint, requests_per_second=20.0))
        elapsed = time.monotonic() - start
        assert records[0].llm_calls == 10 == len(endpoint.requests)
        # ten request starts 50 ms apart; a limiter per role would allow 0.2 s
        assert elapsed >= 0.45

    def test_reply_content_not_text_is_a_transport_failure(self, dataset, endpoint):
        endpoint.script = [(200, json.dumps({"choices": [{"message": {"content": 5}}]}))]
        one = dataclasses.replace(dataset, entries=dataset.entries[:1])
        [record] = run_batch(one, self.config(endpoint))
        assert record.stop_reason is StopReason.TRANSPORT_FAILURE
        assert record.error == "planner: message content is not text"
        assert record.iterations == () and record.final_plan == "" and record.llm_calls == 0
        assert len(endpoint.requests) == 1  # a malformed reply is not retried
        assert record_from_dict(json.loads(_record_line(record))) == record

    def test_parallel_batch_shares_one_debug_log(self, dataset, endpoint, tmp_path):
        debug_log = tmp_path / "debug.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = run_batch(
                dataset, self.config(endpoint, debug_log=str(debug_log)), parallelism=8
            )
        finally:
            sys.setswitchinterval(interval)
        lines = debug_log.read_text().splitlines()
        assert len(lines) == sum(r.llm_calls for r in records) == len(endpoint.requests) == 50
        assert all(json.loads(line)["response"] == "the plan is wrong" for line in lines)

    def test_domain_is_rendered_once_for_plan_and_critique_prompts(
        self, dataset, endpoint, monkeypatch
    ):
        """One render of the domain serves every plan prompt and every
        critique prompt of a batch."""
        domain = dataclasses.replace(dataset.domain)  # a domain object not yet printed
        two = dataclasses.replace(dataset, domain=domain, entries=dataset.entries[:2])
        formatted = []
        real = pddl._format_conjunction
        monkeypatch.setattr(pddl, "_format_conjunction", lambda parts: formatted.append(parts) or real(parts))
        records = run_batch(two, self.config(endpoint))
        monkeypatch.undo()
        # a render formats each action's precondition and effect
        assert len(formatted) == 2 * len(domain.actions)
        prompts = [request["payload"]["messages"][0]["content"] for request in endpoint.requests]
        assert len(prompts) == sum(r.llm_calls for r in records) == 20
        assert all(pddl.print_domain(domain) in prompt for prompt in prompts)


class TestExemplarTwins:
    def test_twin_under_another_id_is_never_shown(self, monkeypatch):
        """Problem 96 of a blocksworld-5 dataset at seed 1 is problem 3 of a
        pool at seed 3, under another id; with 64 shots at pool seed 0 the id
        rule alone draws it into the target's own prompt."""
        domain, targets = generate(GenSpec.blocksworld(blocks=5, seed=1, count=97))
        target = targets[96]
        _, problems = generate(GenSpec.blocksworld(blocks=5, seed=3, count=100))
        ids = [f"blocksworld-3-{i:04d}" for i in range(100)]
        plans = [bfs_plan(domain, p, SearchLimits()).plan for p in problems]
        pool = build_pool(dataset_of(domain, dict(zip(ids, problems)), dict(zip(ids, plans))), 0)
        twin = pool.exemplars[3]
        assert problem_key(twin.problem) == problem_key(target)
        pid = "blocksworld-1-0096"
        assert twin in select_fewshots(pool, pid, 64, targets[0])  # the seeded order draws it
        assert twin not in select_fewshots(pool, pid, 64, target)
        assert len(select_fewshots(pool, pid, 99, target)) == 99  # the pool counts one short
        with pytest.raises(PoolTooSmall):
            select_fewshots(pool, pid, 100, target)

        entry = ManifestEntry(
            id=pid, domain_file=Path("d.pddl"), problem_file=Path("p.pddl"),
            benchmark="blocksworld", seed=1, index=96, params={"blocks": 5},
        )
        planner = RecordingPlanner("")
        monkeypatch.setattr(orchestrator, "make_backends", lambda config, goldens: (planner, OracleCritic()))
        run_batch(Dataset((entry,), domain, {pid: target}, {}), LoopConfig(k=0, shots=64), pool=pool)
        (prompt,) = planner.prompts
        assert prompt.count("Example of a problem and its solution") == 64
        assert twin.block not in prompt


@pytest.fixture(scope="module")
def refine_inputs(tmp_path_factory):
    """Manifests of 30 solved blocksworld-5 problems and of a 20-problem pool,
    at the seeds the refine-mock benchmark uses."""
    out = tmp_path_factory.mktemp("refine")

    def solved(name, seed, count):
        spec = GenSpec.blocksworld(blocks=5, seed=seed, count=count)
        domain, problems = generate(spec)
        plans = [bfs_plan(domain, p, SearchLimits()).plan for p in problems]
        return write_dataset(out / name, domain, problems, spec, plans)

    return solved("ds", 1, 30), solved("pool", 100_001, 20)


class TestFixedWorkDoneOnce:
    """Exact counts on a batch shaped like the refine-mock benchmark: mock
    planner p=0.3, oracle critic, k=10, 4 shots, a 20-problem pool."""

    def test_counts_and_prompts(self, refine_inputs, monkeypatch):
        ds_manifest, pool_manifest = refine_inputs
        dataset = load_dataset(ds_manifest)
        calls = {name: [] for name in ("validate", "trace", "problem", "conjunction")}

        def count(module, name, log):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: log.append(args) or real(*args))

        count(orchestrator, "validate_plan", calls["validate"])
        count(critics, "validate_plan", calls["validate"])
        count(semantics, "_format_step", calls["trace"])  # inside the trace renderer
        count(prompting, "print_problem", calls["problem"])
        count(pddl, "_format_conjunction", calls["conjunction"])  # inside the domain printer
        prompts = {}
        generate_reply = MockPlanner.generate

        def recording(self, prompt, *, problem_id, iteration):
            prompts[problem_id, iteration] = prompt
            return generate_reply(self, prompt, problem_id=problem_id, iteration=iteration)

        monkeypatch.setattr(MockPlanner, "generate", recording)
        pool = build_pool(load_dataset(pool_manifest), 0)
        config = LoopConfig(
            k=10, shots=4, planner=PlannerConfig(golden_prob=0.3, seed=1000),
            critic=CriticConfig(backend=CriticBackend.ORACLE),
        )
        records = run_batch(dataset, config, pool=pool)
        monkeypatch.undo()

        rounds = sum(len(r.iterations) for r in records)
        distinct = sum(len({entry.plan for entry in r.iterations}) for r in records)
        assert all(r.final_plan == r.iterations[-1].plan for r in records)
        assert rounds > distinct  # plans were proposed again
        # one validation and one write-up per distinct plan of each problem
        assert len(calls["validate"]) == distinct
        assert len({(id(problem), plan.steps) for problem, plan, _ in calls["validate"]}) == distinct
        # a write-up formats each step of the plan's trace
        assert len(calls["trace"]) == sum(len(validate_plan(*args).trace) for args in calls["validate"])
        # one shot block per pool exemplar, one instance text per target, and
        # one domain text: a render formats each action's precondition and effect
        assert len(calls["problem"]) == len(pool) + len(records)
        assert len(calls["conjunction"]) == 2 * len(dataset.domain.actions)

        for record in records:
            problem = dataset.problems[record.problem_id]
            selected = select_fewshots(pool, record.problem_id, 4, problem)
            shots = tuple(Exemplar(s.problem, s.plan) for s in selected)  # blocks not yet rendered
            transcript = Transcript(char_budget=config.transcript_budget)
            oracle = OracleCritic()
            for entry in record.iterations:
                expected = build_plan_prompt(dataset.domain, problem, shots, transcript)
                assert prompts[record.problem_id, entry.step] == expected
                plan = parse_plan(entry.plan, dataset.domain)
                verdict = oracle.critique(
                    dataset.domain, problem, plan, problem_id=record.problem_id, iteration=entry.step
                )
                transcript.append(entry.plan, verdict.text)
        assert len(prompts) == rounds

    def test_replies_of_one_plan_are_validated_once(self, bw_domain, bw5_problem, wrong_plan, monkeypatch):
        validated = []
        real = orchestrator.validate_plan
        monkeypatch.setattr(orchestrator, "validate_plan", lambda *args: validated.append(args) or real(*args))
        text = print_plan(wrong_plan)
        numbered = "\n".join(f"{i}. {line}" for i, line in enumerate(text.splitlines(), start=1))
        planner = ScriptedPlanner({"p1": [text, numbered, text + "\nDone."]})
        record = run_problem(bw_domain, bw5_problem, LoopConfig(k=3), planner, OracleCritic(), problem_id="p1")
        assert len(record.iterations) == 4 and len(validated) == 1

    def test_critic_behind_a_wrapper_is_handed_the_result(
        self, bw_domain, bw5_problem, wrong_plan, monkeypatch
    ):
        """The oracle, the oracle behind a ``functools.wraps`` wrapper (as a
        tracer installs one) and a subclass that overrides ``critique`` all
        judge from the loop's validation and validate nothing themselves."""
        validated = []
        real_validate = critics.validate_plan
        monkeypatch.setattr(
            critics, "validate_plan", lambda *args: validated.append(args) or real_validate(*args)
        )
        planner = ScriptedPlanner({"p1": [print_plan(wrong_plan)]})

        def run(critic):
            return run_problem(bw_domain, bw5_problem, LoopConfig(k=3), planner, critic, problem_id="p1")

        plain = run(OracleCritic())
        real = OracleCritic.critique

        @functools.wraps(real)
        def traced(self, *args, **kwargs):
            return real(self, *args, **kwargs)

        monkeypatch.setattr(OracleCritic, "critique", traced)
        recording = RecordingCritic()  # its override calls the wrapped oracle
        assert run(OracleCritic()) == plain == run(recording)
        assert len(plain.iterations) == 4 and len(recording.texts) == 4
        assert validated == []
        # called directly, without a result, the oracle validates the plan itself
        OracleCritic().critique(bw_domain, bw5_problem, wrong_plan, problem_id="p1", iteration=0)
        assert len(validated) == 1

    def test_threads_share_the_oracle_and_match_serial(self, refine_inputs):
        """The oracle critic's write-ups, and the text of a domain not yet
        printed, are shared by the batch's worker threads: more threads than
        cores, switching often, give the records of a serial run."""
        ds_manifest, pool_manifest = refine_inputs
        dataset = load_dataset(ds_manifest)
        pool = build_pool(load_dataset(pool_manifest), 0)
        config = LoopConfig(k=10, shots=4, planner=PlannerConfig(golden_prob=0.3, seed=7))
        serial = run_batch(dataset, config, pool=pool)
        unprinted = dataclasses.replace(dataset, domain=dataclasses.replace(dataset.domain))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_batch(unprinted, config, pool=pool, parallelism=6)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial

    @pytest.mark.parametrize("critic", [["--critic", "oracle"], ["--critic", "mock", "--fp", "0.2"]])
    def test_run_line_is_the_score_line(self, refine_inputs, tmp_path, capsys, critic):
        """``run`` prints the accuracy that ``score`` computes, for fresh and
        for resumed records, though it reads the records' ground truth."""
        ds_manifest, pool_manifest = refine_inputs
        dataset = load_dataset(ds_manifest)
        path = tmp_path / "records.jsonl"
        argv = ["run", "--manifest", str(ds_manifest), "--records", str(path), "--planner", "mock",
                "--golden-prob", "0.3", "--k", "3", "--shots", "4", "--pool", str(pool_manifest),
                "--seed", "5", *critic]

        def printed_and_scored():
            assert cli.main(argv) == 0
            metrics = score(read_records(path), dataset.domain, dataset.problems)
            line = f"n={metrics.n} accuracy={metrics.accuracy:.4f} ({summary_line(metrics)}) stops: "
            return capsys.readouterr().out, line

        out, line = printed_and_scored()
        assert out.startswith(line)
        assert 0 < score(read_records(path), dataset.domain, dataset.problems).accuracy < 1
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:12]))  # a batch stopped after 12 records
        out, line = printed_and_scored()
        assert out.startswith(line)
        out, line = printed_and_scored()  # every record stored
        assert out.startswith(line)
