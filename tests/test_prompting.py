from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancritic.generators import DatasetError, GenSpec, generate
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
    plan_prompt_prefix,
    render_template,
    select_fewshots,
)
from plancritic.search import SearchLimits, bfs_plan
from plancritic.semantics import format_trace, format_verdict, validate_plan

from .helpers import dataset_of

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
        block = Exemplar(shot_problem, shot_plan).block
        assert block.startswith("Example of a problem and its solution (plan):\n(define")
        assert "\n\nThe plan without formatting:\n(unstack b2 b1)" in block
        assert block.endswith("(stack b3 b5)\n\n\n")

    def test_transcript_rendering(self):
        transcript = Transcript()
        assert transcript.render() == ""
        transcript.append("(pick-up a)", "critique text\nthe plan is wrong")
        rendered = transcript.render()
        assert rendered == (
            "The clean plan:\n(pick-up a)\ncritique text\nthe plan is wrong\n\n"
            + REPAIR_REQUEST
            + "\n"
        )
        transcript.append("(pick-up b)", "goal not reached")
        assert transcript.render() == (
            rendered + "The clean plan:\n(pick-up b)\ngoal not reached\n\n" + REPAIR_REQUEST + "\n"
        )

    def test_budget_enforced(self, bw_domain, bw5_problem):
        transcript = Transcript(char_budget=100)
        transcript.append("(pick-up a)", "x" * 200)
        with pytest.raises(BudgetExceeded) as err:
            build_plan_prompt(bw_domain, bw5_problem, (), transcript)
        assert err.value.budget == 100
        assert err.value.length > 100

    def test_prompt_is_prefix_then_transcript(self, bw_domain, bw5_problem, shot_problem, shot_plan):
        shots = (Exemplar(shot_problem, shot_plan),)
        prefix = plan_prompt_prefix(bw_domain, bw5_problem, shots)
        assert prefix == build_plan_prompt(bw_domain, bw5_problem, shots)
        transcript = Transcript(char_budget=len(prefix) + 200)
        assert transcript.prompt(prefix) == prefix
        transcript.append("(pick-up a)", "x" * 50)
        assert transcript.prompt(prefix) == prefix + transcript.render()
        assert transcript.prompt(prefix) == build_plan_prompt(bw_domain, bw5_problem, shots, transcript)
        transcript.append("(pick-up a)", "x" * 50)
        with pytest.raises(BudgetExceeded) as err:
            transcript.prompt(prefix)
        assert (err.value.length, err.value.budget) == (
            len(prefix) + len(transcript.render()),
            len(prefix) + 200,
        )

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
    plans = [bfs_plan(domain, p, SearchLimits(200_000, 60)).plan for p in problems]
    ids = [f"p{i}" for i in range(len(problems))]
    return build_pool(dataset_of(domain, dict(zip(ids, problems)), dict(zip(ids, plans))), seed=13)


class TestFewShotSelection:
    """Each target is ``bw5_problem``, a task that no exemplar of the pool
    poses, under various ids."""

    def test_deterministic(self, pool, bw5_problem):
        first = select_fewshots(pool, "target-1", 3, bw5_problem)
        assert first == select_fewshots(pool, "target-1", 3, bw5_problem)

    def test_problem_keyed(self, pool, bw5_problem):
        first = select_fewshots(pool, "target-1", 6, bw5_problem)
        assert first != select_fewshots(pool, "target-2", 6, bw5_problem)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=0, max_value=6), m=st.integers(min_value=0, max_value=6))
    def test_prefix_property(self, pool, bw5_problem, n, m):
        small, large = sorted((n, m))
        larger = select_fewshots(pool, "t", large, bw5_problem)
        assert larger[:small] == select_fewshots(pool, "t", small, bw5_problem)

    def test_pool_too_small(self, pool, bw5_problem):
        with pytest.raises(PoolTooSmall):
            select_fewshots(pool, "t", 7, bw5_problem)

    def test_target_is_never_its_own_exemplar(self, pool, bw5_problem):
        def picked(target, n):
            return [pool.exemplars.index(e) for e in select_fewshots(pool, target, n, bw5_problem)]

        # a target outside the pool may be shown every exemplar
        assert picked("target-1", 6) == [4, 0, 1, 5, 2, 3]
        # the same seeded order, with the target's own exemplar (first here) skipped
        assert picked("p1", 5) == [0, 3, 2, 5, 4]
        with pytest.raises(PoolTooSmall):
            select_fewshots(pool, "p1", 6, bw5_problem)

    def test_zero_shots(self, pool, bw5_problem):
        assert select_fewshots(pool, "t", 0, bw5_problem) == ()

    def test_negative_shots_refused(self, pool, bw5_problem):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            select_fewshots(pool, "t", -1, bw5_problem)

    def test_pool_rejects_invalid_exemplar(self, bw_domain, bw5_problem):
        with pytest.raises(ValueError, match="does not validate"):
            build_pool(dataset_of(bw_domain, {"p": bw5_problem}, {"p": Plan(())}), seed=0)

    def test_pool_entry_without_a_plan_refused(self, bw_domain, bw5_problem):
        with pytest.raises(DatasetError, match="pool entry p has no plan file"):
            build_pool(dataset_of(bw_domain, {"p": bw5_problem}, {}), seed=0)
