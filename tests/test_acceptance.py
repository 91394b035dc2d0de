"""End-to-end acceptance checks.

Each test is one release criterion.  A summary hook in ``conftest.py``
prints one PASS/FAIL line per criterion after the run.  Tolerances are
stated inline; everything else is exact.
"""

import itertools
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

from plancritic import cli
from plancritic.critics import (
    CriticBackend,
    CriticConfig,
    CritiqueVerdict,
    MockCritic,
    OracleCritic,
)
from plancritic.generators import GenSpec, deceptive_map, generate, obfuscate
from plancritic.orchestrator import (
    LoopConfig,
    MockPlanner,
    PlannerConfig,
    call_count,
    run_problem,
)
from plancritic.pddl import Atom, print_domain, print_plan
from plancritic.prompting import Exemplar, Transcript, build_critique_prompt, build_plan_prompt
from plancritic.prompting import CRITIQUE_TEMPLATES, TemplateId
from plancritic.report import StopReason, score, summary_line, wald_ci
from plancritic.report import Metrics
from plancritic.search import SearchLimits, SearchStatus, bfs_plan, run_plan
from plancritic.semantics import (
    Correct,
    CritiqueLabel,
    GoalNotReached,
    WrongAtStep,
    format_trace,
    format_verdict,
    self_consistency,
    validate_plan,
)

from .helpers import mutate_drop, mutate_replace, mutate_swap, mystery_domain, tree_digest

GOLDEN_DIR = Path(__file__).parent / "golden"

C = CritiqueLabel.CORRECT
W = CritiqueLabel.WRONG
G = CritiqueLabel.GOAL_NOT_REACHED


def test_criterion_01_validator_agrees_with_mutation_oracle():
    """200 seeded problems: every shortest plan validates correct, and five
    mutations per problem are all judged non-correct, with any failing step
    confirmed by re-simulating on the independent executor.  Budget: 30s."""
    started = time.monotonic()
    pairs = []
    for blocks, seed in ((3, 101), (4, 102)):
        domain, problems = generate(GenSpec.blocksworld(blocks, seed=seed, count=100))
        pairs.extend((domain, p) for p in problems)
    assert len(pairs) == 200

    for i, (domain, problem) in enumerate(pairs):
        result = bfs_plan(domain, problem, SearchLimits())
        assert result.status is SearchStatus.FOUND
        golden = result.plan
        assert isinstance(validate_plan(problem, golden, domain).verdict, Correct)

        rng = random.Random(f"mutate:{i}")
        for _ in range(5):
            kinds = ["drop", "replace"] + (["swap"] if len(golden.steps) >= 2 else [])
            kind = rng.choice(kinds)
            swapped_at = None
            if kind == "drop":
                mutant = mutate_drop(golden, rng)
            elif kind == "swap":
                mutant, swapped_at = mutate_swap(golden, rng)
            else:
                mutant = mutate_replace(domain, problem, golden, rng)

            verdict = validate_plan(problem, mutant, domain).verdict
            assert not isinstance(verdict, Correct), (i, kind)
            outcome = run_plan(domain, problem, mutant)  # independent route
            assert not outcome.accepted, (i, kind)
            if isinstance(verdict, WrongAtStep):
                assert outcome.failed_step == verdict.step, (i, kind)
                if swapped_at is not None:
                    assert verdict.step == swapped_at, (i, kind)
            else:
                assert outcome.failed_step is None
                assert not outcome.goal_satisfied

    assert time.monotonic() - started < 30.0


STEP_1_TRACE = (
    "**step 1: (unstack b5 b2)**\n"
    "preconditions:\n"
    "- (on b5 b2): true\n"
    "- (clear b5): true\n"
    "- (handempty): true\n"
    "all preconditions are met.\n"
    "resulting state:\n"
    "(clear b2)\n"
    "(clear b3)\n"
    "(holding b5)\n"
    "(on b1 b4)\n"
    "(on b2 b1)\n"
    "(ontable b3)\n"
    "(ontable b4)"
)

STEP_9_TRACE = (
    "**step 9: (pick-up b2)**\n"
    "preconditions:\n"
    "- (clear b2): false\n"
    "- (ontable b2): true\n"
    "- (handempty): true\n"
    "preconditions are not met."
)


def test_criterion_02_reference_trace_is_exact(
    bw_domain, bw5_problem, wrong_plan, correct_plan
):
    """The worked five-block example: the twelve-step plan fails at step 9
    with exactly (clear b2) unmet, the six-step repair is correct, and the
    step-level trace output is frozen byte for byte."""
    result = validate_plan(bw5_problem, wrong_plan, bw_domain)
    assert result.verdict == WrongAtStep(step=9, unmet=(Atom("clear", ("b2",)),))

    blocks = format_trace(result).split("\n\n")
    assert len(blocks) == 9  # steps 10-12 are never reached
    assert blocks[0] == STEP_1_TRACE
    assert blocks[8] == STEP_9_TRACE

    repaired = validate_plan(bw5_problem, correct_plan, bw_domain)
    assert isinstance(repaired.verdict, Correct)
    assert format_verdict(repaired.verdict).endswith("the plan is correct")


def test_criterion_03_obfuscation_preserves_verdicts():
    """The deceptive rename reproduces the mystery domain structurally, and
    over 100 seeded (problem, plan) pairs the validator's verdict is
    identical before and after renaming, including the failing step."""
    domain, problems = generate(GenSpec.blocksworld(4, seed=303, count=100))
    mapping = deceptive_map()

    renamed_domain, _, _ = obfuscate(domain, [], None, mapping)
    assert renamed_domain == mystery_domain()
    assert print_domain(renamed_domain) == print_domain(mystery_domain())

    def rename(atom):
        return Atom(
            mapping.predicates.get(atom.pred, atom.pred),
            tuple(mapping.objects.get(a, a) for a in atom.args),
        )

    for i, problem in enumerate(problems):
        golden = bfs_plan(domain, problem, SearchLimits()).plan
        rng = random.Random(f"obf:{i}")
        if i % 3 == 0:
            plan = golden
        elif i % 3 == 1 or len(golden.steps) < 2:
            plan = mutate_drop(golden, rng)
        else:
            plan, _ = mutate_swap(golden, rng)

        before = validate_plan(problem, plan, domain).verdict
        new_domain, new_problems, new_plans = obfuscate(domain, [problem], [plan], mapping)
        after = validate_plan(new_problems[0], new_plans[0], new_domain).verdict

        if isinstance(before, Correct):
            assert isinstance(after, Correct)
        elif isinstance(before, WrongAtStep):
            assert isinstance(after, WrongAtStep)
            assert after.step == before.step
            assert after.unmet == tuple(rename(a) for a in before.unmet)
        else:
            assert isinstance(after, GoalNotReached)
            assert after.unsatisfied == tuple(rename(a) for a in before.unsatisfied)


class _ScriptedCritic:
    """Accepts on a fixed round; rejects before it."""

    def __init__(self, accept_at_round):
        self.accept_at = accept_at_round  # 1-based

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        label = C if iteration + 1 >= self.accept_at else W
        return CritiqueVerdict(text=f"the plan is {label.value}", votes={label: 1})


def test_criterion_04_call_accounting_is_exact(bw_domain, bw5_problem, correct_plan):
    """Backend-call counts, zero tolerance: 10 full rounds cost 20 calls at
    one critique sample and 60 at five; stopping at round j costs 2j."""
    assert call_count(10, 1) == 20
    assert call_count(10, 5) == 60

    golden = print_plan(correct_plan)

    # a critic that never accepts drives the loop through all k+1 rounds
    for consistency, expected in ((1, 20), (5, 60)):
        critic_config = CriticConfig(
            backend=CriticBackend.MOCK, false_negative=1.0, self_consistency=consistency
        )
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=9, critic=critic_config),
            MockPlanner({"p": golden}),
            MockCritic(critic_config),
            problem_id="p",
        )
        assert record.stop_reason is StopReason.ITERATIONS_EXHAUSTED
        assert len(record.iterations) == 10
        assert record.llm_calls == expected

    for j in (1, 2, 3, 5):
        record = run_problem(
            bw_domain,
            bw5_problem,
            LoopConfig(k=9),
            MockPlanner({"p": golden}),
            _ScriptedCritic(j),
            problem_id="p",
        )
        assert record.stop_reason is StopReason.CRITIC_ACCEPTED
        assert record.llm_calls == 2 * j


def test_criterion_05_vote_aggregation_truth_table():
    """Vote aggregation over every possible sample sequence up to five
    samples matches an independently coded two-stage majority rule; in
    particular a correct/wrong split resolves to wrong."""

    def expected(labels):
        n_correct = sum(1 for label in labels if label is C)
        n_other = len(labels) - n_correct
        if n_correct > n_other:
            return C
        if n_correct == n_other:
            return W
        n_gnr = sum(1 for label in labels if label is G)
        return G if n_gnr > n_other - n_gnr else W

    checked = 0
    for n in range(1, 6):
        for labels in itertools.product((C, W, G), repeat=n):
            assert self_consistency(Counter(labels)) is expected(labels), labels
            checked += 1
    assert checked == 363  # all sequences, so order independence is covered

    assert self_consistency(Counter([C, W])) is W
    assert self_consistency(Counter([C, C, G, G])) is W
    assert self_consistency(Counter([W, G, G])) is G


def test_criterion_06_repair_loop_converges():
    """With an oracle critic and a planner that proposes the golden plan with
    probability 0.3 per round, accuracy over 500 problems at ten retries lands
    within 2 points of the closed form 1 - 0.7^11, and no accepted plan is
    invalid."""
    domain, problems = generate(GenSpec.blocksworld(4, seed=2024, count=500))
    goldens = {
        f"c6-{i}": print_plan(bfs_plan(domain, p, SearchLimits()).plan)
        for i, p in enumerate(problems)
    }
    config = LoopConfig(k=10, planner=PlannerConfig(golden_prob=0.3, seed=99))
    planner = MockPlanner(goldens, golden_prob=0.3, seed=99)
    critic = OracleCritic()

    records = [
        run_problem(domain, p, config, planner, critic, problem_id=f"c6-{i}")
        for i, p in enumerate(problems)
    ]
    accuracy = sum(1 for r in records if r.ground_truth == {"verdict": "correct"}) / len(records)
    assert abs(accuracy - (1 - 0.7**11)) <= 0.02

    for record in records:
        if record.stop_reason is StopReason.CRITIC_ACCEPTED:
            assert record.ground_truth == {"verdict": "correct"}


def test_criterion_07_noisy_critic_hits_configured_rates():
    """A critic flipping verdicts at 20% false-positive and 5% false-negative
    rates shows, over 2000+ critiques, per-step empirical rates within three
    standard errors of the configuration, and each step's confusion cells sum
    to the critiques issued at that step."""
    domain, problems = generate(GenSpec.blocksworld(3, seed=77, count=1500))
    ids = {f"c7-{i}": p for i, p in enumerate(problems)}
    goldens = {
        pid: print_plan(bfs_plan(domain, p, SearchLimits()).plan) for pid, p in ids.items()
    }
    critic_config = CriticConfig(
        backend=CriticBackend.MOCK, false_positive=0.2, false_negative=0.05, seed=31
    )
    config = LoopConfig(
        k=2, planner=PlannerConfig(golden_prob=0.5, seed=13), critic=critic_config
    )
    planner = MockPlanner(goldens, golden_prob=0.5, seed=13)
    critic = MockCritic(critic_config)

    records = [
        run_problem(domain, p, config, planner, critic, problem_id=pid)
        for pid, p in ids.items()
    ]
    total = sum(len(r.iterations) for r in records)
    assert total >= 2000

    metrics = score(records, domain, ids)
    for step in metrics.steps:
        issued = sum(1 for r in records for e in r.iterations if e.step == step.step)
        assert step.n_critiques == issued

        fp_n = step.fp + step.tn  # critiques of truly wrong plans
        if fp_n:
            rate = step.fp / fp_n
            assert abs(rate - 0.2) <= 3 * math.sqrt(0.2 * 0.8 / fp_n), step.step
        fn_n = step.tp + step.fn  # critiques of truly correct plans
        if fn_n:
            rate = step.fn / fn_n
            assert abs(rate - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / fn_n), step.step


def test_criterion_08_interval_half_widths():
    """The 95% interval half-widths for the two reference accuracy points
    round to exactly 2.5 and 2.8 percentage points at n=600."""
    assert round(wald_ci(0.893, 600) * 100, 1) == 2.5
    assert round(wald_ci(0.855, 600) * 100, 1) == 2.8

    def line(p):
        return summary_line(
            Metrics(n=600, accuracy=p, ci_half_width=wald_ci(p, 600), mean_llm_calls=0.0, steps=())
        )

    assert line(0.893) == "89.3±2.5"
    assert line(0.855) == "85.5±2.8"


def test_criterion_09_prompt_goldens_are_byte_exact(
    bw_domain, bw5_problem, wrong_plan, shot_problem, shot_plan
):
    """Prompts rendered for the fixed fixture (one exemplar, one transcript
    entry) match the checked-in golden files byte for byte."""

    def oracle_text(problem, plan):
        result = validate_plan(problem, plan, bw_domain)
        return format_trace(result) + "\n\n" + format_verdict(result.verdict)

    transcript = Transcript(400_000)
    transcript.append(print_plan(wrong_plan), oracle_text(bw5_problem, wrong_plan))
    plan_prompt = build_plan_prompt(
        bw_domain, bw5_problem, (Exemplar(shot_problem, shot_plan),), transcript
    )
    assert plan_prompt == (GOLDEN_DIR / "plan_prompt.txt").read_text()

    for template_id in CRITIQUE_TEMPLATES:
        exemplars = None
        if template_id is TemplateId.CRITIQUE_FEWSHOT:
            exemplars = (oracle_text(shot_problem, shot_plan),)
        prompt = build_critique_prompt(
            template_id, bw_domain, bw5_problem, wrong_plan, exemplars=exemplars
        )
        assert prompt == (GOLDEN_DIR / f"{template_id.value}.txt").read_text(), template_id


def test_criterion_10_artifacts_are_byte_stable(tmp_path, capsys):
    """Generating a dataset twice produces byte-identical trees, and scoring
    the same records twice produces byte-identical output."""
    generate_args = [
        "generate", "--benchmark", "blocksworld", "--blocks", "4",
        "--seed", "42", "--count", "5", "--solve",
    ]
    assert cli.main(generate_args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(generate_args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    manifest = str(tmp_path / "a" / "manifest.jsonl")
    records = str(tmp_path / "records.jsonl")
    assert cli.main(["run", "--manifest", manifest, "--records", records, "--k", "2"]) == 0
    capsys.readouterr()

    outputs = []
    for _ in range(2):
        assert cli.main(["score", "--records", records, "--manifest", manifest]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["accuracy"] == 1.0
