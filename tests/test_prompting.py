import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancritic.generators import GenSpec, generate
from plancritic.pddl import Plan, print_plan
from plancritic.prompting import (
    BudgetExceeded,
    CRITIQUE_TEMPLATES,
    Exemplar,
    MissingPlaceholderValue,
    PoolTooSmall,
    REPAIR_REQUEST,
    TemplateId,
    Transcript,
    build_critique_prompt,
    build_plan_prompt,
    build_pool,
    load_template,
    render_shot,
    render_template,
    select_fewshots,
)
from plancritic.search import SearchLimits, bfs_plan
from plancritic.semantics import format_trace, format_verdict, validate_plan

GOLDEN_DIR = Path(__file__).parent / "golden"


def oracle_critique_text(domain, problem, plan):
    result = validate_plan(problem, plan, domain)
    return format_trace(result) + "\n\n" + format_verdict(result.verdict)


class TestTemplates:
    @pytest.mark.parametrize("template_id", list(TemplateId))
    def test_all_templates_load(self, template_id):
        body = load_template(template_id)
        assert body
        assert "'the plan is correct'" in body or template_id is TemplateId.PLAN_FEWSHOT

    def test_render_is_single_pass(self):
        # values containing brace patterns are inserted verbatim, not re-expanded
        out = render_template("a {x} b", {"x": "{y}", "y": "BAD"})
        assert out == "a {y} b"

    def test_missing_value_raises(self):
        with pytest.raises(MissingPlaceholderValue):
            render_template("a {x}", {})


class TestGoldenPrompts:
    """The rendered prompts must match the checked-in files byte for byte."""

    @pytest.fixture()
    def fixture_parts(self, bw_domain, bw5_problem, wrong_plan, shot_problem, shot_plan):
        transcript = Transcript(400_000)
        transcript.append(
            print_plan(wrong_plan), oracle_critique_text(bw_domain, bw5_problem, wrong_plan)
        )
        return transcript

    def test_plan_prompt(self, bw_domain, bw5_problem, wrong_plan, shot_problem, shot_plan, fixture_parts):
        prompt = build_plan_prompt(
            bw_domain, bw5_problem, (Exemplar(shot_problem, shot_plan),), fixture_parts
        )
        assert prompt == (GOLDEN_DIR / "plan_prompt.txt").read_text()

    @pytest.mark.parametrize("template_id", CRITIQUE_TEMPLATES)
    def test_critique_prompts(
        self, template_id, bw_domain, bw5_problem, wrong_plan, shot_problem, shot_plan
    ):
        kwargs = {}
        if template_id is TemplateId.CRITIQUE_FEWSHOT:
            kwargs["exemplars"] = (
                oracle_critique_text(bw_domain, shot_problem, shot_plan),
            )
        prompt = build_critique_prompt(
            template_id, bw_domain, bw5_problem, wrong_plan, **kwargs
        )
        assert prompt == (GOLDEN_DIR / f"{template_id.value}.txt").read_text()


class TestPlanPromptStructure:
    def test_zero_shot_prompt(self, bw_domain, bw5_problem):
        prompt = build_plan_prompt(bw_domain, bw5_problem)
        assert prompt.startswith("The domain definition:\n(define (domain blocksworld-4ops)")
        assert "Example of a problem" not in prompt
        assert "And now the problem for you to solve. Please solve the following problem:" in prompt
        assert prompt.endswith("Your plan as plain text without formatting:\n")

    def test_shot_block_layout(self, shot_problem, shot_plan):
        block = render_shot(Exemplar(shot_problem, shot_plan))
        assert block.startswith("Example of a problem and its solution (plan):\n(define")
        assert "\n\nThe plan without formatting:\n(unstack b2 b1)" in block
        assert block.endswith("(stack b3 b5)\n\n\n")

    def test_transcript_rendering(self):
        transcript = Transcript()
        transcript.append("(pick-up a)", "critique text\nthe plan is wrong")
        rendered = transcript.render()
        assert rendered == (
            "The clean plan:\n(pick-up a)\ncritique text\nthe plan is wrong\n\n"
            + REPAIR_REQUEST
            + "\n"
        )
        assert len(transcript) == 1

    def test_budget_enforced(self, bw_domain, bw5_problem):
        transcript = Transcript(char_budget=100)
        transcript.append("(pick-up a)", "x" * 200)
        with pytest.raises(BudgetExceeded) as err:
            build_plan_prompt(bw_domain, bw5_problem, (), transcript)
        assert err.value.budget == 100
        assert err.value.length > 100

    def test_no_budget_means_no_limit(self, bw_domain, bw5_problem):
        transcript = Transcript(char_budget=None)
        transcript.append("(pick-up a)", "x" * 100_000)
        prompt = build_plan_prompt(bw_domain, bw5_problem, (), transcript)
        assert len(prompt) > 100_000


class TestCritiquePromptRules:
    def test_plan_template_rejected(self, bw_domain, bw5_problem, wrong_plan):
        with pytest.raises(ValueError):
            build_critique_prompt(TemplateId.PLAN_FEWSHOT, bw_domain, bw5_problem, wrong_plan)

    def test_fewshot_requires_exemplars(self, bw_domain, bw5_problem, wrong_plan):
        with pytest.raises(MissingPlaceholderValue):
            build_critique_prompt(
                TemplateId.CRITIQUE_FEWSHOT, bw_domain, bw5_problem, wrong_plan
            )

    def test_zero_shot_rejects_exemplars(self, bw_domain, bw5_problem, wrong_plan):
        with pytest.raises(ValueError):
            build_critique_prompt(
                TemplateId.CRITIQUE_0SHOT_DD,
                bw_domain,
                bw5_problem,
                wrong_plan,
                exemplars=("x",),
            )

    def test_no_dd_variant_omits_domain(self, bw_domain, bw5_problem, wrong_plan):
        with_dd = build_critique_prompt(
            TemplateId.CRITIQUE_0SHOT_DD, bw_domain, bw5_problem, wrong_plan
        )
        without_dd = build_critique_prompt(
            TemplateId.CRITIQUE_0SHOT_NO_DD, bw_domain, bw5_problem, wrong_plan
        )
        assert "(define (domain" in with_dd
        assert "(define (domain" not in without_dd


@pytest.fixture(scope="module")
def pool():
    domain, problems = generate(GenSpec.blocksworld(blocks=4, seed=77, count=6))
    exemplars = [
        Exemplar(p, bfs_plan(domain, p, SearchLimits(200_000, 60)).plan)
        for p in problems
    ]
    return build_pool(domain, exemplars, seed=13, ids=[f"p{i}" for i in range(len(exemplars))])


class TestFewShotSelection:

    def test_deterministic(self, pool):
        assert select_fewshots(pool, "target-1", 3) == select_fewshots(pool, "target-1", 3)

    def test_problem_keyed(self, pool):
        assert select_fewshots(pool, "target-1", 6) != select_fewshots(pool, "target-2", 6)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=0, max_value=6), m=st.integers(min_value=0, max_value=6))
    def test_prefix_property(self, pool, n, m):
        small, large = sorted((n, m))
        assert select_fewshots(pool, "t", large)[:small] == select_fewshots(pool, "t", small)

    def test_pool_too_small(self, pool):
        with pytest.raises(PoolTooSmall):
            select_fewshots(pool, "t", 7)

    def test_target_is_never_its_own_exemplar(self, pool):
        named = dataclasses.replace(pool, ids=tuple(f"p{i}" for i in range(len(pool))))

        def picked(target, n):
            return [pool.exemplars.index(e) for e in select_fewshots(named, target, n)]

        # a target outside the pool gets the selection an id-less pool gives it
        assert picked("target-1", 6) == [4, 0, 1, 5, 2, 3]
        # the same seeded order, with the target's own exemplar (first here) skipped
        assert picked("p1", 5) == [0, 3, 2, 5, 4]
        with pytest.raises(PoolTooSmall):
            select_fewshots(named, "p1", 6)

    def test_zero_shots(self, pool):
        assert select_fewshots(pool, "t", 0) == ()

    @pytest.mark.parametrize("ids", [(), ("only",), ("a", "b", "a"), ("a", "b", "c", "d")])
    def test_pool_needs_one_distinct_id_per_exemplar(self, bw_domain, pool, ids):
        with pytest.raises(ValueError, match="distinct id"):
            build_pool(bw_domain, pool.exemplars[:3], seed=0, ids=ids)

    def test_pool_rejects_invalid_exemplar(self, bw_domain, bw5_problem):
        with pytest.raises(ValueError):
            build_pool(bw_domain, [Exemplar(bw5_problem, Plan(()))], seed=0, ids=["p"])
