import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

from plancritic.critics import CriticBackend, CriticConfig, CritiqueLabel, CritiqueVerdict, OracleCritic
from plancritic.generators import GenSpec, generate, load_dataset, write_dataset
from plancritic.llm import TransportError
from plancritic.orchestrator import (
    IterationEntry,
    LoopConfig,
    LlmPlanner,
    MockPlanner,
    Planner,
    PlannerBackend,
    PlannerConfig,
    RunRecord,
    ScriptedPlanner,
    StopReason,
    call_count,
    extract_plan,
    make_backends,
    make_planner,
    read_records,
    record_from_dict,
    record_to_dict,
    run_batch,
    run_problem,
    write_records,
)
from plancritic.pddl import Plan, print_plan
from plancritic.prompting import Exemplar, PoolTooSmall, build_pool
from plancritic.search import SearchLimits, bfs_plan
from plancritic.semantics import validate_plan, verdict_to_dict

from .test_critics import FakeEndpoint, chat_body

C = CritiqueLabel.CORRECT
W = CritiqueLabel.WRONG


class ScriptedCritic:
    """Returns a fixed label per iteration; the last label repeats."""

    def __init__(self, labels):
        self.labels = list(labels)

    def critique(self, domain, problem, plan, *, problem_id, iteration):
        label = self.labels[min(iteration, len(self.labels) - 1)]
        return CritiqueVerdict(
            label=label, text=f"the plan is {label.value}", sample_count=1, votes={label: 1}
        )


class FailingPlanner:
    def generate(self, prompt, *, problem_id, iteration):
        raise TransportError("planner down")


class FailingCritic:
    def critique(self, domain, problem, plan, *, problem_id, iteration):
        raise TransportError("critic down")


class CrashingCritic(ScriptedCritic):
    """Rejects every plan of the problems in ``crash_ids`` and raises a bug
    at round ``at``; accepts every plan of any other problem."""

    def __init__(self, crash_ids, at=2):
        super().__init__([W])
        self.crash_ids = set(crash_ids)
        self.at = at

    def critique(self, domain, problem, plan, *, problem_id, iteration):
        if problem_id not in self.crash_ids:
            return CritiqueVerdict(label=C, text="the plan is correct", sample_count=1, votes={C: 1})
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


def loop_config(**kwargs):
    kwargs.setdefault("shots", 0)
    return LoopConfig(**kwargs)


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
            loop_config(k=10),
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
            loop_config(k=10),
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
            loop_config(k=10),
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
            loop_config(k=2),
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
            bw_domain, bw5_problem, loop_config(k=1), planner, OracleCritic(), problem_id="p1"
        )
        first_len = probe.iterations[0].plan_prompt_chars
        record = run_problem(
            bw_domain,
            bw5_problem,
            loop_config(k=5, transcript_budget=first_len),
            planner,
            OracleCritic(),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.BUDGET_EXCEEDED
        assert len(record.iterations) == 1  # the second prompt blew the cap
        assert record.final_plan == wrong
        assert "budget" in record.error

    def test_planner_transport_failure(self, bw_domain, bw5_problem):
        record = run_problem(
            bw_domain,
            bw5_problem,
            loop_config(),
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
            loop_config(),
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
            loop_config(k=5, critic=CriticConfig(self_consistency=c)),
            ScriptedPlanner(scripts),
            CrashingCritic(["p1"], at=2),
            problem_id="p1",
        )
        assert record.stop_reason is StopReason.INTERNAL_ERROR
        assert [e.step for e in record.iterations] == [0, 1]
        assert record.llm_calls == call_count(2, c)
        assert record.final_plan == print_plan(third)  # the round-2 plan stands
        truth = validate_plan(bw5_problem, third, bw_domain)
        assert record.ground_truth == verdict_to_dict(truth.verdict)
        assert record.ground_truth["verdict"] == "goal_not_reached"
        assert record.error == "RuntimeError: critic bug"
        assert "run failed for p1" in caplog.text

    def test_keyboard_interrupt_propagates(self, bw_domain, bw5_problem):
        class Interrupted(Planner):
            def generate(self, prompt, *, problem_id, iteration):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_problem(
                bw_domain, bw5_problem, loop_config(), Interrupted(), OracleCritic(), problem_id="p1"
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(k=-1)
        with pytest.raises(ValueError):
            LoopConfig(shots=-2)


class TestRecordPersistence:
    @pytest.fixture()
    def record(self, bw_domain, bw5_problem, wrong_plan, correct_plan):
        scripts = {"p1": [print_plan(wrong_plan), print_plan(correct_plan)]}
        return run_problem(
            bw_domain,
            bw5_problem,
            loop_config(),
            ScriptedPlanner(scripts),
            OracleCritic(),
            problem_id="p1",
        )

    def test_dict_round_trip(self, record):
        data = record_to_dict(record)
        assert record_from_dict(json.loads(json.dumps(data))) == record

    def test_file_round_trip(self, record, tmp_path):
        path = tmp_path / "records.jsonl"
        failure = dataclasses.replace(
            record,
            problem_id="p2",
            stop_reason=StopReason.TRANSPORT_FAILURE,
            ground_truth=None,
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
                bw_domain, bw5_problem, loop_config(k=1), ScriptedPlanner(scripts), OracleCritic(),
                problem_id="p1",
            )
        ]


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


class TestRunBatch:
    def config(self, **kwargs):
        return loop_config(
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
        tampered = dataclasses.replace(first[0], error="cached-sentinel")
        write_records(path, [tampered] + first[1:])
        second = run_batch(dataset, self.config(), records_path=path)
        assert second[0].error == "cached-sentinel"
        assert second[1:] == first[1:]
        assert len(read_records(path)) == len(dataset.entries)  # nothing re-appended

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
        with pytest.raises(json.JSONDecodeError):
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
        assert expected.llm_calls == call_count(2)
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
        ids = list(dataset.plans)  # four entries of the run itself
        exemplars = [Exemplar(dataset.problems[pid], dataset.plans[pid]) for pid in ids]
        pool = build_pool(dataset.domain, exemplars, seed=0, ids=ids)
        with pytest.raises(PoolTooSmall):
            run_batch(dataset, self.config(shots=4), pool=pool)
        records = run_batch(dataset, self.config(shots=3), pool=pool)
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
        return loop_config(
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
        return loop_config(
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
