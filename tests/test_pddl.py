import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancritic.domains import (
    blocksworld_domain,
    logistics_domain,
    minigrid_domain,
    mystery_domain,
)
from plancritic.generators import Benchmark, GenSpec, generate
from plancritic.pddl import (
    ArityMismatch,
    Atom,
    PddlSyntaxError,
    Plan,
    UnknownAction,
    UnknownObject,
    UnknownPredicate,
    UnsupportedFeature,
    parse_domain,
    parse_plan,
    parse_problem,
    print_domain,
    print_plan,
    print_problem,
)
from .conftest import BW5_PROBLEM_TEXT

TINY_DOMAIN = """\
(define (domain tiny)
  (:requirements :strips)
  (:predicates (p ?x) (q ?x ?y))
  (:action flip
    :parameters (?a ?b)
    :precondition (and (p ?a) (q ?a ?b))
    :effect (and (p ?b) (not (p ?a)))))
"""


class TestParseDomain:
    def test_blocksworld_shape(self, bw_domain):
        assert bw_domain.name == "blocksworld-4ops"
        assert {a.name for a in bw_domain.actions} == {
            "pick-up",
            "put-down",
            "stack",
            "unstack",
        }
        assert len(bw_domain.predicates) == 5

    def test_requirements_default_to_strips(self):
        domain = parse_domain(
            "(define (domain d) (:predicates (p)) "
            "(:action a :parameters () :precondition (p) :effect (not (p))))"
        )
        assert domain.requirements == (":strips",)

    def test_adl_rejected(self):
        with pytest.raises(UnsupportedFeature) as err:
            parse_domain("(define (domain d) (:requirements :adl))")
        assert ":adl" in str(err.value)
        assert err.value.line == 1

    def test_typing_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_domain("(define (domain d) (:requirements :strips :typing))")

    def test_typed_parameters_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_domain(
                "(define (domain d) (:predicates (p ?x)) "
                "(:action a :parameters (?x - block) :precondition (p ?x) "
                ":effect (not (p ?x))))"
            )

    def test_negated_precondition_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_domain(
                "(define (domain d) (:predicates (p ?x)) "
                "(:action a :parameters (?x) :precondition (not (p ?x)) "
                ":effect (p ?x)))"
            )

    def test_undeclared_predicate_in_effect(self):
        with pytest.raises(UnknownPredicate):
            parse_domain(
                "(define (domain d) (:predicates (p ?x)) "
                "(:action a :parameters (?x) :precondition (p ?x) :effect (q ?x)))"
            )

    def test_unbound_variable_rejected(self):
        with pytest.raises(PddlSyntaxError):
            parse_domain(
                "(define (domain d) (:predicates (p ?x)) "
                "(:action a :parameters (?x) :precondition (p ?y) :effect (not (p ?x))))"
            )

    def test_add_delete_conflict_rejected(self):
        with pytest.raises(PddlSyntaxError):
            parse_domain(
                "(define (domain d) (:predicates (p ?x)) "
                "(:action a :parameters (?x) :precondition (p ?x) "
                ":effect (and (p ?x) (not (p ?x)))))"
            )

    def test_duplicate_action_rejected(self):
        body = (
            "(:action a :parameters (?x) :precondition (p ?x) :effect (not (p ?x)))"
        )
        with pytest.raises(PddlSyntaxError):
            parse_domain(f"(define (domain d) (:predicates (p ?x)) {body} {body})")

    def test_keywords_case_insensitive_names_preserved(self):
        domain = parse_domain(
            "(DEFINE (DOMAIN CaseKeeper) (:PREDICATES (Has ?x)) "
            "(:ACTION Drop :PARAMETERS (?x) :PRECONDITION (Has ?x) "
            ":EFFECT (NOT (Has ?x))))"
        )
        assert domain.name == "CaseKeeper"
        assert domain.predicates[0].name == "Has"
        assert domain.actions[0].name == "Drop"

    def test_comments_ignored(self):
        domain = parse_domain(
            "; a comment\n(define (domain d) ; inline\n (:predicates (p)) "
            "(:action a :parameters () :precondition (p) :effect (not (p))))"
        )
        assert domain.name == "d"

    def test_arity_enforced_in_precondition(self):
        with pytest.raises(ArityMismatch):
            parse_domain(
                "(define (domain d) (:predicates (p ?x)) "
                "(:action a :parameters (?x) :precondition (p ?x ?x) "
                ":effect (not (p ?x))))"
            )


class TestParseProblem:
    def test_fixture_shape(self, bw_domain, bw5_problem):
        assert bw5_problem.name == "BW-rand-5"
        assert bw5_problem.domain_name == "blocksworld-4ops"
        assert len(bw5_problem.objects) == 5
        assert len(bw5_problem.init) == 8
        assert Atom("on", ("b5", "b2")) in bw5_problem.init
        assert len(bw5_problem.goal) == 3

    def test_domain_name_must_match(self, bw_domain):
        text = BW5_PROBLEM_TEXT.replace("blocksworld-4ops", "other")
        with pytest.raises(PddlSyntaxError):
            parse_problem(text, bw_domain)

    def test_goal_required(self, bw_domain):
        with pytest.raises(PddlSyntaxError):
            parse_problem(
                "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
                "(:init (clear a)))",
                bw_domain,
            )

    def test_single_atom_goal(self, bw_domain):
        problem = parse_problem(
            "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
            "(:init (ontable a)) (:goal (clear a)))",
            bw_domain,
        )
        assert problem.goal == (Atom("clear", ("a",)),)

    def test_unknown_object_rejected(self, bw_domain):
        with pytest.raises(UnknownObject):
            parse_problem(
                "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
                "(:init (clear b)) (:goal (clear a)))",
                bw_domain,
            )

    def test_unknown_predicate_rejected(self, bw_domain):
        with pytest.raises(UnknownPredicate):
            parse_problem(
                "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
                "(:init (shiny a)) (:goal (clear a)))",
                bw_domain,
            )

    def test_arity_mismatch_rejected(self, bw_domain):
        with pytest.raises(ArityMismatch):
            parse_problem(
                "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
                "(:init (on a)) (:goal (clear a)))",
                bw_domain,
            )

    def test_negated_goal_rejected(self, bw_domain):
        with pytest.raises(UnsupportedFeature):
            parse_problem(
                "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
                "(:init (ontable a)) (:goal (not (clear a))))",
                bw_domain,
            )

    def test_negated_init_rejected(self, bw_domain):
        with pytest.raises(UnsupportedFeature):
            parse_problem(
                "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
                "(:init (not (clear a))) (:goal (clear a)))",
                bw_domain,
            )

    def test_empty_goal_conjunction(self, bw_domain):
        problem = parse_problem(
            "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
            "(:init (ontable a)) (:goal (and)))",
            bw_domain,
        )
        assert problem.goal == ()


NEGATION_DOMAIN = (
    "(define (domain d) (:predicates (p ?x) (q ?x)) "
    "(:action a :parameters (?x) :precondition {pre} :effect (not (p ?x))))"
)
NEGATION_PROBLEM = "(define (problem t) (:domain d) (:objects o) (:init {init}) (:goal {goal}))"


class TestSubsetRules:
    """Each rule of the STRIPS subset holds wherever its construct can appear."""

    @pytest.mark.parametrize(
        "pre,init,goal",
        [
            ("(not (q ?x))", "(p o)", "(q o)"),
            ("(and (p ?x) (not (q ?x)))", "(p o)", "(q o)"),
            ("(p ?x)", "(p o)", "(not (q o))"),
            ("(p ?x)", "(p o)", "(and (q o) (not (p o)))"),
            ("(p ?x)", "(not (p o))", "(q o)"),
        ],
        ids=["bare-precondition", "precondition-in-and", "bare-goal", "goal-in-and", "init"],
    )
    def test_negation_outside_effects_unsupported(self, pre, init, goal):
        with pytest.raises(UnsupportedFeature):
            domain = parse_domain(NEGATION_DOMAIN.format(pre=pre))
            parse_problem(NEGATION_PROBLEM.format(init=init, goal=goal), domain)

    def test_only_actions_may_repeat(self):
        action = "(:action {} :parameters (?x) :precondition (p ?x) :effect (not (p ?x)))"
        domain = parse_domain(
            "(define (domain d) (:requirements :strips) (:predicates (p ?x)) "
            + action.format("a") + action.format("b") + ")"
        )
        assert [a.name for a in domain.actions] == ["a", "b"]
        with pytest.raises(PddlSyntaxError, match="duplicate :requirements"):
            parse_domain(
                "(define (domain d) (:requirements :strips) (:requirements :strips) "
                "(:predicates (p ?x)))"
            )

    def test_refusal_positions(self, bw_domain):
        # a tab counts as one column; a comment and a \r\n line end move no column
        domain_text = (
            "; header\r\n(define (domain d)\r\n\t(:predicates (p ?x)) ; decls\r\n"
            "\t(:action a\r\n\t\t:parameters (?x)\r\n"
            "\t\t:precondition (not (p ?x))\r\n\t\t:effect (p ?x)))\r\n"
        )
        with pytest.raises(UnsupportedFeature) as err:
            parse_domain(domain_text)
        assert (err.value.line, err.value.column) == (6, 17)
        problem_text = (
            "(define (problem t) ; comment (with parens)\r\n\t(:domain blocksworld-4ops)\r\n"
            "\t(:objects a)\r\n\t(:init (clear a))\t(:init (ontable a))\r\n\t(:goal (clear a)))"
        )
        with pytest.raises(PddlSyntaxError) as err:
            parse_problem(problem_text, bw_domain)
        assert (err.value.line, err.value.column) == (4, 20)


class TestParsePlan:
    def test_two_step_plan(self, bw_domain):
        plan = parse_plan("(unstack b3 b4)\n(stack b3 b2)", bw_domain)
        assert len(plan) == 2
        assert plan.steps[0].name == "unstack"
        assert plan.steps[0].args == ("b3", "b4")

    def test_blank_lines_and_comments_skipped(self, bw_domain):
        plan = parse_plan("\n; setup\n(pick-up a)\n\n(put-down a)  ; done\n", bw_domain)
        assert len(plan) == 2

    def test_empty_text_is_empty_plan(self, bw_domain):
        assert parse_plan("", bw_domain) == Plan(())

    def test_unknown_action(self, bw_domain):
        with pytest.raises(UnknownAction):
            parse_plan("(jump b1)", bw_domain)

    def test_wrong_arity(self, bw_domain):
        with pytest.raises(ArityMismatch):
            parse_plan("(stack b1)", bw_domain)

    def test_junk_rejected(self, bw_domain):
        with pytest.raises(PddlSyntaxError):
            parse_plan("pick-up b1", bw_domain)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory", [blocksworld_domain, mystery_domain, logistics_domain, minigrid_domain]
    )
    def test_builtin_domains(self, factory):
        domain = factory()
        assert parse_domain(print_domain(domain)) == domain

    def test_tiny_domain(self):
        domain = parse_domain(TINY_DOMAIN)
        assert parse_domain(print_domain(domain)) == domain

    def test_fixture_problem(self, bw_domain, bw5_problem):
        assert parse_problem(print_problem(bw5_problem), bw_domain) == bw5_problem

    def test_fixture_plan(self, bw_domain, wrong_plan):
        assert parse_plan(print_plan(wrong_plan), bw_domain) == wrong_plan

    def test_empty_plan_prints_empty(self):
        assert print_plan(Plan(())) == ""

    @settings(max_examples=25, deadline=None)
    @given(
        benchmark=st.sampled_from(list(Benchmark)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_generated_instances(self, benchmark, seed):
        if benchmark is Benchmark.BLOCKSWORLD:
            spec = GenSpec.blocksworld(blocks=4, seed=seed, count=2)
        elif benchmark is Benchmark.LOGISTICS:
            spec = GenSpec.logistics_easy(seed=seed, count=2)
        else:
            spec = GenSpec.minigrid(width=2, height=2, keys=1, seed=seed, count=2)
        domain, problems = generate(spec)
        assert parse_domain(print_domain(domain)) == domain
        for problem in problems:
            assert parse_problem(print_problem(problem), domain) == problem
