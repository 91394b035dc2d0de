import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancritic.generators import GenSpec, generate
from plancritic.pddl import (
    ArityMismatch,
    Atom,
    GroundAction,
    Plan,
    UnknownAction,
    parse_domain,
    parse_plan,
    intern_atom,
    parse_problem,
    print_problem,
)
from plancritic import semantics
from plancritic.search import SearchLimits, bfs_plan, ground_actions
from plancritic.semantics import (
    Correct,
    GoalNotReached,
    PHRASE_CORRECT,
    PHRASE_GOAL_NOT_REACHED,
    PHRASE_WRONG,
    WrongAtStep,
    format_trace,
    format_verdict,
    validate_plan,
)

from .helpers import (
    InapplicableAction,
    apply,
    is_applicable,
    mutate_drop,
    mutate_swap,
    precondition_checks,
    reference_validate,
    substitute,
)

# state reached after (unstack b5 b2) from the fixture problem: gains
# (holding b5) and (clear b2), loses (on b5 b2), (clear b5), (handempty)
STATE_AFTER_STEP_1 = frozenset(
    {
        Atom("on", ("b1", "b4")),
        Atom("ontable", ("b4",)),
        Atom("on", ("b2", "b1")),
        Atom("ontable", ("b3",)),
        Atom("clear", ("b3",)),
        Atom("holding", ("b5",)),
        Atom("clear", ("b2",)),
    }
)


class TestApplicability:
    def test_first_step_applicable(self, bw_domain, bw5_problem):
        state = bw5_problem.init
        checks = precondition_checks(state, GroundAction("unstack", ("b5", "b2")), bw_domain)
        assert checks == (
            (Atom("on", ("b5", "b2")), True),
            (Atom("clear", ("b5",)), True),
            (Atom("handempty", ()), True),
        )
        ok, unmet = is_applicable(state, GroundAction("unstack", ("b5", "b2")), bw_domain)
        assert ok and unmet == ()

    def test_pickup_covered_block_fails(self, bw_domain, bw5_problem):
        state = bw5_problem.init
        ok, unmet = is_applicable(state, GroundAction("pick-up", ("b2",)), bw_domain)
        assert not ok
        assert Atom("clear", ("b2",)) in unmet

    def test_apply_rejects_inapplicable(self, bw_domain, bw5_problem):
        state = bw5_problem.init
        with pytest.raises(InapplicableAction):
            apply(state, GroundAction("pick-up", ("b2",)), bw_domain)

    def test_apply_put_down(self, bw_domain):
        state = frozenset({Atom("holding", ("x",))})
        after = apply(state, GroundAction("put-down", ("x",)), bw_domain)
        assert after == frozenset(
            {Atom("clear", ("x",)), Atom("handempty", ()), Atom("ontable", ("x",))}
        )


class TestValidatePlan:
    def test_wrong_plan_fails_at_step_9(self, bw_domain, bw5_problem, wrong_plan):
        result = validate_plan(bw5_problem, wrong_plan, bw_domain)
        assert result.verdict == WrongAtStep(9, (Atom("clear", ("b2",)),))
        assert len(result.trace) == 9
        assert result.trace[-1].applied is False
        assert result.trace[-1].action == GroundAction("pick-up", ("b2",))
        # b2 is on the table at that point; only (clear b2) is missing
        assert Atom("ontable", ("b2",)) in result.trace[-2].state_after

    def test_step_1_resulting_state(self, bw_domain, bw5_problem, wrong_plan):
        result = validate_plan(bw5_problem, wrong_plan, bw_domain)
        assert result.trace[0].state_after == STATE_AFTER_STEP_1

    def test_correct_plan(self, bw_domain, bw5_problem, correct_plan):
        result = validate_plan(bw5_problem, correct_plan, bw_domain)
        assert result.verdict == Correct()
        assert result.is_correct
        assert len(result.trace) == 6
        assert all(step.applied for step in result.trace)

    def test_goal_not_reached(self, bw_domain, bw5_problem, correct_plan):
        truncated = Plan(correct_plan.steps[:-1])
        result = validate_plan(bw5_problem, truncated, bw_domain)
        assert result.verdict == GoalNotReached((Atom("on", ("b3", "b2")),))

    def test_empty_plan_goal_already_satisfied(self, bw_domain):
        from plancritic.pddl import parse_problem

        problem = parse_problem(
            "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
            "(:init (ontable a) (clear a) (handempty)) (:goal (and (clear a))))",
            bw_domain,
        )
        assert validate_plan(problem, Plan(()), bw_domain).is_correct

    def test_empty_plan_goal_unsatisfied(self, bw_domain, bw5_problem):
        result = validate_plan(bw5_problem, Plan(()), bw_domain)
        assert isinstance(result.verdict, GoalNotReached)
        # misses are reported in goal declaration order
        assert result.verdict.unsatisfied == (
            Atom("on", ("b2", "b5")),
            Atom("on", ("b3", "b2")),
        )


class TestFormatting:
    def test_trace_blocks(self, bw_domain, bw5_problem, wrong_plan):
        result = validate_plan(bw5_problem, wrong_plan, bw_domain)
        text = format_trace(result)
        assert text.startswith("**step 1: (unstack b5 b2)**")
        assert "**step 9: (pick-up b2)**" in text
        assert "- (clear b2): false" in text
        assert "preconditions are not met." in text

    def test_step_without_preconditions(self):
        domain = parse_domain(
            "(define (domain d) (:predicates (p ?x)) (:action a :parameters (?x) :effect (p ?x)))"
        )
        problem = parse_problem(
            "(define (problem t) (:domain d) (:objects o) (:goal (p o)))", domain
        )
        result = validate_plan(problem, parse_plan("(a o)", domain), domain)
        assert format_trace(result) == (
            "**step 1: (a o)**\npreconditions:\n- none\nall preconditions are met.\n"
            "resulting state:\n(p o)"
        )

    def test_verdict_text_ends_with_phrase(self, bw_domain, bw5_problem, wrong_plan, correct_plan):
        wrong = validate_plan(bw5_problem, wrong_plan, bw_domain)
        assert format_verdict(wrong.verdict).endswith(PHRASE_WRONG)
        assert "step 9" in format_verdict(wrong.verdict)
        right = validate_plan(bw5_problem, correct_plan, bw_domain)
        assert format_verdict(right.verdict).endswith(PHRASE_CORRECT)
        gnr = validate_plan(bw5_problem, Plan(()), bw_domain)
        assert format_verdict(gnr.verdict).endswith(PHRASE_GOAL_NOT_REACHED)


class TestFrameProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_apply_touches_only_effects(self, bw_domain, seed):
        """A random applicable action changes no atom outside its effects."""
        from plancritic.search import ground_actions

        domain, problems = generate(GenSpec.blocksworld(blocks=4, seed=seed, count=1))
        problem = problems[0]
        rng = random.Random(seed)
        state = problem.init
        actions = ground_actions(domain, problem)
        for _ in range(6):
            applicable = [a for a in actions if is_applicable(state, a, domain)[0]]
            if not applicable:
                break
            action = rng.choice(applicable)
            after = apply(state, action, domain)
            schema = domain.action(action.name)
            binding = dict(zip(schema.parameters, action.args))
            adds = {substitute(a, binding) for a in schema.add_effects}
            dels = {substitute(a, binding) for a in schema.del_effects}
            assert after - state <= adds
            assert state - after <= dels
            assert after == (state - dels) | adds
            state = after


class TestRenamingInvariance:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_object_renaming_preserves_verdict(self, seed):
        """Consistently renaming objects never changes the verdict."""
        from plancritic.generators import GenSpec, generate
        from plancritic.pddl import ProblemDef
        from plancritic.search import bfs_plan, SearchLimits

        domain, problems = generate(GenSpec.blocksworld(blocks=3, seed=seed, count=1))
        problem = problems[0]
        plan = bfs_plan(domain, problem, SearchLimits(100_000, 30)).plan
        # break the plan so the interesting verdicts show up too
        broken = Plan(plan.steps[:-1]) if len(plan) > 1 else plan
        rename = {obj: f"x{i}" for i, obj in enumerate(problem.objects)}
        renamed_problem = ProblemDef(
            name=problem.name,
            domain_name=problem.domain_name,
            objects=tuple(rename[o] for o in problem.objects),
            init=frozenset(substitute(a, rename) for a in problem.init),
            goal=tuple(substitute(a, rename) for a in problem.goal),
        )
        for candidate in (plan, broken):
            renamed_plan = Plan(
                tuple(
                    GroundAction(s.name, tuple(rename[a] for a in s.args))
                    for s in candidate.steps
                )
            )
            v1 = validate_plan(problem, candidate, domain).verdict
            v2 = validate_plan(renamed_problem, renamed_plan, domain).verdict
            assert type(v1) is type(v2)
            if isinstance(v1, WrongAtStep):
                assert v1.step == v2.step


# one seeded instance set per family the benchmark generates
FAMILIES = {
    "blocksworld-5": GenSpec.blocksworld(blocks=5, seed=17, count=4),
    "logistics-easy": GenSpec.logistics_easy(seed=17, count=2),
    "minigrid-3x3-2keys": GenSpec.minigrid(width=3, height=3, keys=2, seed=17, count=2),
}


def plan_variants(plan, rng):
    """The golden plan, truncated, with one step dropped, and with two
    adjacent steps swapped (when it is long enough for each)."""
    variants = [plan]
    if len(plan) >= 1:
        variants += [Plan(plan.steps[:-1]), mutate_drop(plan, rng)]
    if len(plan) >= 2:
        variants.append(mutate_swap(plan, rng)[0])
    return variants


class TestReferenceEquivalence:
    """The table-backed validator returns what binding every step afresh
    returns: verdict, checks and states, step by step."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_per_step_substitution(self, family):
        domain, problems = generate(FAMILIES[family])
        rng = random.Random(family)
        compared = 0
        for problem in problems:
            golden = bfs_plan(domain, problem, SearchLimits()).plan
            assert golden is not None
            for plan in plan_variants(golden, rng):
                expected = reference_validate(problem, plan, domain)
                assert validate_plan(problem, plan, domain) == expected
                state = problem.init
                for step in expected.trace:
                    action = step.action
                    assert precondition_checks(state, action, domain) == step.checks
                    assert is_applicable(state, action, domain) == (step.applied, step.unmet)
                    if step.applied:
                        assert apply(state, action, domain) == step.state_after
                    else:
                        with pytest.raises(InapplicableAction) as failed:
                            apply(state, action, domain)
                        assert failed.value.unmet == step.unmet
                    state = step.state_after
                compared += 1
        assert compared >= 2 * len(problems)


FLIP_DOMAIN = """\
(define (domain flip)
(:requirements :strips)
(:predicates (p ?x) (q ?x) (r ?x))
(:action flip
  :parameters (?x)
  :precondition (p ?x)
  :effect (and (not (p ?x)) ({added} ?x))))
"""

FLIP_PROBLEM = """\
(define (problem flip-a) (:domain flip) (:objects a)
(:init (p a)) (:goal (and (q a))))
"""


class TestDomainTable:
    """Ground actions are kept per domain object, and a failed bind is never
    kept."""

    @pytest.fixture()
    def domains(self):
        # two domains whose one action shares its name but not its add effect
        return parse_domain(FLIP_DOMAIN.format(added="q")), parse_domain(FLIP_DOMAIN.format(added="r"))

    def test_each_domain_validates_under_its_own_effects(self, domains):
        adds_q, adds_r = domains
        problem = parse_problem(FLIP_PROBLEM, adds_q)
        plan = Plan((GroundAction("flip", ("a",)),))
        expected = {
            id(adds_q): (Correct(), frozenset({Atom("q", ("a",))})),
            id(adds_r): (GoalNotReached((Atom("q", ("a",)),)), frozenset({Atom("r", ("a",))})),
        }
        for domain in (adds_q, adds_r, adds_q, adds_r):
            result = validate_plan(problem, plan, domain)
            assert (result.verdict, result.trace[0].state_after) == expected[id(domain)]
            assert result == reference_validate(problem, plan, domain)
            state = problem.init
            assert apply(state, plan.steps[0], domain) == expected[id(domain)][1]

    def test_threads_on_two_domains_each_see_their_own(self, domains):
        problem = parse_problem(FLIP_PROBLEM, domains[0])
        plan = Plan((GroundAction("flip", ("a",)),))
        expected = [reference_validate(problem, plan, domain) for domain in domains]
        wrong = []

        def validate(i):
            for _ in range(300):
                if validate_plan(problem, plan, domains[i]) != expected[i]:
                    wrong.append(i)

        # more threads than cores, switching often, so steps on the two domains interleave
        threads = [threading.Thread(target=validate, args=(i % 2,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_failed_bind_raises_on_every_call(self, bw_domain, bw5_problem, correct_plan):
        before = validate_plan(bw5_problem, correct_plan, bw_domain)
        unknown = Plan((correct_plan.steps[0], GroundAction("teleport", ("b5",))))
        short = GroundAction("unstack", ("b5",))
        state = bw5_problem.init
        for _ in range(3):
            with pytest.raises(UnknownAction):
                validate_plan(bw5_problem, unknown, bw_domain)
            with pytest.raises(ArityMismatch):
                validate_plan(bw5_problem, Plan((short,)), bw_domain)
            with pytest.raises(ArityMismatch):
                apply(state, short, bw_domain)
            with pytest.raises(UnknownAction):
                is_applicable(state, GroundAction("teleport", ("b5",)), bw_domain)
        after = validate_plan(bw5_problem, correct_plan, bw_domain)
        assert after == before == reference_validate(bw5_problem, correct_plan, bw_domain)


class TestInternedAtoms:
    """The reader and ``_ground`` share one intern table, so a validated step
    finds its atoms in the state by identity."""

    @pytest.fixture(scope="class")
    def parsed(self, bw_domain):
        _, problems = generate(GenSpec.blocksworld(5, seed=23, count=200))
        return [parse_problem(print_problem(p), bw_domain) for p in problems]

    def test_parsed_bound_and_built_atoms_agree(self, bw_domain, bw5_problem):
        parsed = next(a for a in bw5_problem.init if a.pred == "clear" and a.args == ("b3",))
        precondition, _, _ = semantics._ground(bw_domain, GroundAction("pick-up", ("b3",)))
        bound = next(a for a in precondition if a.pred == "clear")
        built = Atom("clear", ("b3",))
        assert parsed == bound == built
        assert hash(parsed) == hash(bound) == hash(built) == hash(("clear", ("b3",)))
        assert parsed is bound and built is not parsed

    def test_one_object_per_distinct_atom(self, bw_domain, parsed):
        seen: dict[Atom, Atom] = {}
        for problem in parsed:
            for atom in (*problem.init, *problem.goal):
                assert seen.setdefault(atom, atom) is atom
        bound = 0
        for action in ground_actions(bw_domain, parsed[0]):
            precondition, dels, adds = semantics._ground(bw_domain, action)
            for atom in (*precondition, *dels, *adds):
                assert seen.get(atom, intern_atom(atom.pred, atom.args)) is atom
                bound += atom in seen
        # clear, ontable and on over five blocks, and handempty
        assert len(seen) == 5 + 5 + 20 + 1
        assert bound > 0

    def test_validation_calls_no_atom_eq(self, bw_domain, parsed, monkeypatch):
        plans = [(p, bfs_plan(bw_domain, p).plan) for p in parsed[:40]]
        expected = [reference_validate(p, plan, bw_domain) for p, plan in plans]
        calls = []
        eq = Atom.__eq__
        monkeypatch.setattr(Atom, "__eq__", lambda self, other: calls.append(1) or eq(self, other))
        results = [validate_plan(p, plan, bw_domain) for p, plan in plans]
        assert calls == []
        monkeypatch.undo()
        assert results == expected
