import dataclasses
import functools
import os
import pickle
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plancritic
from plancritic import pddl
from plancritic.domains import blocksworld_domain, logistics_domain, minigrid_domain
from plancritic.generators import (
    Benchmark,
    GenSpec,
    deceptive_map,
    generate,
    load_dataset,
    nonspecific_map,
    obfuscate_dataset,
    write_dataset,
)
from plancritic.orchestrator import extract_plan
from plancritic.pddl import (
    ArityMismatch,
    Atom,
    DomainDef,
    GroundAction,
    PddlError,
    PddlSyntaxError,
    Plan,
    Predicate,
    ProblemDef,
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
from plancritic.pddl import _read_all, _SList, intern_atom

from .conftest import BW5_PROBLEM_TEXT
from .helpers import (
    RefSym,
    mystery_domain,
    reference_extract_plan,
    reference_parse_plan,
    reference_parse_problem,
    reference_read,
)

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

    def test_repeated_predicate_parameter_rejected(self):
        with pytest.raises(PddlSyntaxError, match="duplicate"):
            parse_domain("(define (domain d) (:predicates (p ?x ?x)))")

    def test_declaration_check_positions(self, bw_domain):
        # the position of the offending name, not of the section around it
        domain_text = (
            "(define (domain d)\n"
            "  (:predicates (p ?x))\n"
            "  (:action a :parameters (?x)\n"
            "    :precondition (and (p ?x) (shiny ?x))\n"
            "    :effect (not (p ?x))))\n"
        )
        with pytest.raises(UnknownPredicate) as err:
            parse_domain(domain_text)
        assert (err.value.line, err.value.column) == (4, 32)
        problem_text = (
            "(define (problem t)\n"
            "  (:domain blocksworld-4ops)\n"
            "  (:objects a)\n"
            "  (:init (ontable a))\n"
            "  (:goal (and (clear a) (on a b))))\n"
        )
        with pytest.raises(UnknownObject) as err:
            parse_problem(problem_text, bw_domain)
        assert (err.value.line, err.value.column) == (5, 31)
        with pytest.raises(ArityMismatch) as err:
            parse_problem(problem_text.replace("(on a b)", "(on a)"), bw_domain)
        assert (err.value.line, err.value.column) == (5, 25)
        with pytest.raises(PddlSyntaxError) as err:
            parse_problem(problem_text.replace("blocksworld-4ops", "other"), bw_domain)
        assert (err.value.line, err.value.column) == (2, 12)



def _in_action(body: str) -> str:
    """A domain of one predicate whose one action reads ``body``."""
    return f"(define (domain d) (:predicates (p ?x)) (:action a {body}))"


def _problem(body: str) -> str:
    return f"(define (problem t) (:domain d) {body})"


# (text, what it is, error class, message, line, column): one case for each
# refusal of the domain and problem readers that no other test reaches
REFUSALS = [
    ("", "domain", PddlSyntaxError, "empty domain", None, None),
    ("(define (domain d)) x", "domain", PddlSyntaxError, "trailing content after domain", 1, 21),
    ("define", "domain", PddlSyntaxError, "domain must be a parenthesized expression", 1, 1),
    ("(define (domain :d))", "domain", PddlSyntaxError, "invalid domain name ':d'", 1, 17),
    (_problem("(:objects a - block) (:goal (p a))"), "problem", UnsupportedFeature,
     "types are not supported", 1, 45),
    ("(domain d)", "domain", PddlSyntaxError, "domain must start with (define ...)", 1, 1),
    ("(define)", "domain", PddlSyntaxError, "missing (domain NAME)", 1, 1),
    ("(define (domain))", "domain", PddlSyntaxError, "missing (domain NAME)", 1, 9),
    ("(define (domain d) x)", "domain", PddlSyntaxError, "expected a domain section", 1, 20),
    ("(define (domain d) (:types a))", "domain", UnsupportedFeature,
     "domain section ':types'", 1, 20),
    ("(define (domain d) (:predicates (p x)))", "domain", PddlSyntaxError,
     "parameter 'x' must start with '?'", 1, 36),
    ("(define (domain d) (:predicates p))", "domain", PddlSyntaxError,
     "expected atom in :predicates", 1, 33),
    ("(define (domain d) (:predicates ()))", "domain", PddlSyntaxError,
     "empty atom in :predicates", 1, 33),
    (_in_action(":parameters (?x) :precondition (or (p ?x) (p ?x))"), "domain",
     UnsupportedFeature, "'or' is not supported", 1, 84),
    (_in_action(":parameters (?x) :precondition (and (and (p ?x)))"), "domain",
     PddlSyntaxError, "misplaced 'and' in precondition of a", 1, 89),
    (_in_action(":parameters (?x) :precondition (p -)"), "domain", UnsupportedFeature,
     "types are not supported", 1, 86),
    (_problem("(:objects o) (:init (p ?x)) (:goal (p o))"), "problem", PddlSyntaxError,
     "variable '?x' in ground atom", 1, 56),
    (_in_action(":parameters (?x) :precondition (p o)"), "domain", UnsupportedFeature,
     "constant 'o' in action definition", 1, 86),
    (_in_action(":parameters (?x) :effect (not (p ?x) (p ?x))"), "domain", PddlSyntaxError,
     "'not' takes exactly one atom", 1, 77),
    (_in_action(":parameters (?x) :precondition p"), "domain", PddlSyntaxError,
     "expected precondition of a", 1, 83),
    ("(define (domain d) (:action))", "domain", PddlSyntaxError,
     "incomplete action definition", 1, 20),
    (_in_action(":parameters (?x) :parameters (?x)"), "domain", PddlSyntaxError,
     "duplicate :parameters in action a", 1, 69),
    (_in_action(":parameters (?x) :effect"), "domain", PddlSyntaxError,
     "missing value for :effect", 1, 69),
    (_in_action(":parameters ?x"), "domain", PddlSyntaxError,
     "expected parameter list for a", 1, 64),
    (_in_action(":cost 1"), "domain", UnsupportedFeature, "action section ':cost'", 1, 52),
    ("(define (domain d) (:predicates (p) (p)))", "domain", PddlSyntaxError,
     "duplicate predicate 'p'", 1, 37),
    ("(define (problem t) (:goal (p o)))", "problem", PddlSyntaxError,
     "problem is missing a (:domain ...) section", None, None),
    ("(define (problem t) (:domain d e))", "problem", PddlSyntaxError,
     "(:domain NAME) takes one name", 1, 21),
    (_problem("(:objects o) (:goal (p o) (p o))"), "problem", PddlSyntaxError,
     "(:goal ...) takes one formula", 1, 46),
]


class TestRefusals:
    @pytest.mark.parametrize(
        "text,what,error,message,line,column", REFUSALS, ids=[case[3] for case in REFUSALS]
    )
    def test_refused_at(self, text, what, error, message, line, column):
        domain = parse_domain(_in_action(":parameters (?x) :effect (p ?x)"))
        with pytest.raises(error) as err:
            parse_domain(text) if what == "domain" else parse_problem(text, domain)
        where = "" if line is None else f" (line {line}, column {column})"
        assert str(err.value) == message + where
        assert (err.value.line, err.value.column) == (line, column)

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

    @pytest.mark.parametrize(
        "text,error,line,column",
        [
            ("(pick-up a)\n\n(pick-up ?x)", PddlSyntaxError, 3, 10),
            ("(pick-up a)\n  (pick-up   ?x)", PddlSyntaxError, 2, 14),
            ("  (fly a)", UnknownAction, 1, 3),
            ("(pick-up a)\n\t(pick-up a b)", ArityMismatch, 2, 2),
            ("; head\n   (pick-up a", PddlSyntaxError, 2, 4),
            ("(pick-up a)\n  (pick-up  a\t(b))", PddlSyntaxError, 2, 15),
            ("\n\t ()", PddlSyntaxError, 2, 3),
            ("(pick-up a)\n  a b", PddlSyntaxError, 2, 3),
        ],
    )
    def test_error_carries_plan_line_and_raw_column(self, bw_domain, text, error, line, column):
        # the column counts in the raw line, a tab as one; a variable is
        # pointed at, an unknown action or a wrong arity at its "("
        with pytest.raises(error) as err:
            parse_plan(text, bw_domain)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).endswith(f"(line {line}, column {column})")


# plan lines as a model writes them: numbering and bullets, names the domain
# lacks or spells in another case, wrong arities, ?-variables, stray
# parentheses, ; comments and odd blanks; lines end in \n or \r\n
_STEP_TEXT = st.one_of(
    st.sampled_from(["(pick-up b1)", "( put-down\tb2 )", "(stack b1\xa0b2)", "(unstack b2 b1)"]),
    st.builds(
        "({}{})".format,
        st.sampled_from(["pick-up", "stack", "unstack", "fly", "Pick-up", "?x", ""]),
        st.lists(
            st.sampled_from([" b1", "\tb2", " ?x", " a?b", " (b1)", " (", " )"]), max_size=3
        ).map("".join),
    ),
)
_PLAN_LINE = st.one_of(
    st.builds(
        "{}{}{}".format,
        # repeated choices are drawn more often, so that many lines parse
        st.sampled_from(["", "", "", "  ", "\t", "1. ", "2) ", "10.\t", "- ", "* ", "-("]),
        _STEP_TEXT,
        st.sampled_from(["", "", "", " ", "\t", " ; done", ";(x", ")", " (b1)", " 2. (pick-up b1)"]),
    ),
    st.lists(
        st.sampled_from(["1. ", "- ", "(", ")", "stack", "b1", "?x", " ", "\t", "; c", "\x0b"]),
        max_size=12,
    ).map("".join),
)
_PLAN_TEXT = st.lists(
    st.tuples(_PLAN_LINE, st.sampled_from(["\n", "\r\n"])), max_size=6
).map(lambda lines: "".join(line + end for line, end in lines))


class TestPlanLineReader:
    """``parse_plan`` reads a line with one pattern match; these tables hold
    what the general s-expression reader gave for the same lines."""

    @pytest.mark.parametrize(
        "text,steps",
        [
            ("( pick-up   a )", [("pick-up", ("a",))]),
            ("(pick-up\ta)", [("pick-up", ("a",))]),
            ("\t(pick-up a)\t", [("pick-up", ("a",))]),
            ("(pick-up\u00a0a)", [("pick-up", ("a",))]),
            ("(stack\u2003a\u00a0b)", [("stack", ("a", "b"))]),
            ("(put-down a) ; done", [("put-down", ("a",))]),
            ("(pick-up a)\n(stack a b)\n", [("pick-up", ("a",)), ("stack", ("a", "b"))]),
            (
                "(unstack a b)\n\n; middle\n  (put-down a)  \n(pick-up b)",
                [("unstack", ("a", "b")), ("put-down", ("a",)), ("pick-up", ("b",))],
            ),
        ],
    )
    def test_accepted_lines(self, bw_domain, text, steps):
        expected = Plan(tuple(GroundAction(name, args) for name, args in steps))
        assert parse_plan(text, bw_domain) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            (
                "Plan:\n1. (unstack b5 b2)\n2.\t( put-down  b5 )\n3) (pick-up b3) ; grab\n"
                "- (stack b3 b5)\n4. (fly b3)\n5. (pick-up ?x)\n6. (stack b1)\nDone.",
                "(unstack b5 b2)\n(put-down b5)\n(pick-up b3)\n(stack b3 b5)",
            ),
            (
                "1. (pick-up a)\n   2. (stack a b)\n10. (pick-up c)",
                "(pick-up a)\n(stack a b)\n(pick-up c)",
            ),
        ],
    )
    def test_numbered_plans_extract_as_before(self, bw_domain, text, expected):
        assert print_plan(extract_plan(text, bw_domain)) == expected

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("()", PddlSyntaxError, "empty action (line 1, column 1)"),
            ("( )", PddlSyntaxError, "empty action (line 1, column 1)"),
            ("(a (b))", PddlSyntaxError, "expected action argument (line 1, column 4)"),
            ("((a) b)", PddlSyntaxError, "expected action name (line 1, column 2)"),
            ("a b", PddlSyntaxError, "expected one (action args...) per line (line 1, column 1)"),
            ("(a) (b)", PddlSyntaxError, "expected one (action args...) per line (line 1, column 1)"),
            ("(pick-up a", PddlSyntaxError, "unbalanced '(' (line 1, column 1)"),
            ("((pick-up a)", PddlSyntaxError, "unbalanced '(' (line 1, column 1)"),
            ("pick-up a)", PddlSyntaxError, "unbalanced ')' (line 1, column 10)"),
            ("(pick-up a))", PddlSyntaxError, "unbalanced ')' (line 1, column 12)"),
            ("(pick-up ?x)", PddlSyntaxError, "variable '?x' in ground action (line 1, column 10)"),
            (
                "(pick-up ?x (b))",
                PddlSyntaxError,
                "variable '?x' in ground action (line 1, column 10)",
            ),
            ("(pick-up a (b) ?c)", PddlSyntaxError, "expected action argument (line 1, column 12)"),
            ("(fly a)", UnknownAction, "unknown action 'fly' (line 1, column 1)"),
            ("(?x a)", UnknownAction, "unknown action '?x' (line 1, column 1)"),
            ("(pick-up a b)", ArityMismatch, "pick-up expects 1 argument(s), got 2 (line 1, column 1)"),
        ],
    )
    def test_refused_lines(self, bw_domain, text, error, message):
        with pytest.raises(PddlError) as err:
            parse_plan(text, bw_domain)
        assert type(err.value) is error
        assert str(err.value) == message

    @settings(max_examples=500, deadline=None)
    @given(_PLAN_TEXT)
    def test_same_outcome_as_reference(self, bw_domain, text):
        # the whole text, and each line alone, which is what extract_plan keeps
        for part in [text, *text.splitlines()]:
            expected = _outcome(reference_parse_plan, part, bw_domain)
            assert _outcome(parse_plan, part, bw_domain) == expected
        assert extract_plan(text, bw_domain) == reference_extract_plan(text, bw_domain)

    @pytest.mark.parametrize(
        "text",
        ["(pick-up " + "a " * 100_000, "(" * 200_000, "(pick-up a" + " ?b" * 66_666 + " (c"],
    )
    def test_long_malformed_line_is_refused_quickly(self, bw_domain, text):
        start = time.perf_counter()
        with pytest.raises(PddlSyntaxError):
            parse_plan(text, bw_domain)
        assert time.perf_counter() - start < 2.0


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

    def test_empty_forms(self):
        """No predicates, an action without a precondition or effects, no
        objects and an empty goal each print in their empty form and read back."""
        domain = parse_domain("(define (domain d) (:action a :parameters ()))")
        assert print_domain(domain) == (
            "(define (domain d)\n(:requirements :strips)\n(:predicates)\n\n(:action a\n"
            "  :parameters ()\n  :precondition (and)\n  :effect (and)))"
        )
        assert parse_domain(print_domain(domain)) == domain
        problem = parse_problem("(define (problem t) (:domain d) (:goal (and)))", domain)
        assert print_problem(problem) == (
            "(define (problem t)\n(:domain d)\n(:objects)\n(:init\n)\n(:goal (and))\n)"
        )
        assert parse_problem(print_problem(problem), domain) == problem

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


def _reference_tree(nodes: list) -> list:
    return [
        ("sym", node.text, node.line, node.col)
        if isinstance(node, RefSym)
        else ("list", _reference_tree(node.items), node.line, node.col)
        for node in nodes
    ]


def _tree(node: _SList) -> list:
    out = []
    for i, item in enumerate(node.items):
        line, col = node.item_position(i)
        if isinstance(item, str):
            out.append(("sym", item, line, col))
        else:
            assert item.position() == (line, col)
            out.append(("list", _tree(item), line, col))
    return out


def _outcome(read, text: str, arg):
    """``read(text, arg)``, or the type, message, line and column of the
    ``PddlError`` it raises."""
    try:
        return read(text, arg)
    except PddlError as exc:
        return type(exc), str(exc), exc.line, exc.column


# symbols, parentheses, comments, and the whitespace a reader can get wrong:
# \r\n is two characters, and \x0b, \x1c,   and \xa0 are whitespace to
# str.isspace without ending a line
_READER_PIECES = [
    "(", ")", "a", "?x", ":init", "-", "b1", "AND", "é", "; note", ";(", ";)",
    " ", "\t", "\n", "\r\n", "\x0b", "\x1c", " ", "\xa0",
]


class TestReader:
    """The regex-scan reader gives the tree, positions and errors of the
    character-by-character reader it replaced (``helpers.reference_read``)."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.lists(st.sampled_from(_READER_PIECES), max_size=40).map("".join),
            st.text(st.sampled_from("()ab?;- \t\n\r\x0b\x1c \xa0"), max_size=60),
        ),
        st.integers(min_value=1, max_value=9),
    )
    def test_same_tree_or_error_as_reference(self, text, first_line):
        expected = _outcome(lambda t, n: _reference_tree(reference_read(t, n)), text, first_line)
        assert _outcome(lambda t, n: _tree(_read_all(t, n)), text, first_line) == expected

    def test_columns_count_every_character_of_a_line(self):
        text = "(a\r\n\t(b\x1c c) d ; (x\n)"
        assert _tree(_read_all(text)) == [
            ("list", [("sym", "a", 1, 2), ("list", [("sym", "b", 2, 3), ("sym", "c", 2, 6)], 2, 2),
                      ("sym", "d", 2, 9)], 1, 1),
        ]

    def test_problem_errors_keep_their_positions(self, bw_domain):
        text = BW5_PROBLEM_TEXT.replace("(clear b3)", "(clear\tb9)")
        with pytest.raises(UnknownObject, match=r"'b9' in :init \(line 11, column 8\)$"):
            parse_problem(text, bw_domain)


@functools.cache
def _printed(benchmark: Benchmark, seed: int) -> tuple:
    """A generated domain and the printed text of one of its problems."""
    if benchmark is Benchmark.BLOCKSWORLD:
        spec = GenSpec.blocksworld(blocks=4, seed=seed, count=1)
    elif benchmark is Benchmark.LOGISTICS:
        spec = GenSpec.logistics_easy(seed=seed, count=1)
    else:
        spec = GenSpec.minigrid(width=2, height=2, keys=1, seed=seed, count=1)
    domain, (problem,) = generate(spec)
    return domain, print_problem(problem)


# an atom of a printed problem: not a section, the problem's head or (and ...)
_PRINTED_ATOM = re.compile(r"\((?!:|problem\s|and[\s)])([^\s()]+)([^()]*)\)")
_TOKEN = re.compile(r"[^\s();]+")
_SPACES = ["\t", "\x0b", "\xa0", "\u2028", "\x1c", "  ", "\r\n"]


def _sections(text: str) -> list[str]:
    """The head line, each section and the closing line of a printed problem."""
    lines = text.split("\n")
    parts = [lines[0]]
    for line in lines[1:-1]:
        if line.startswith("(:"):
            parts.append(line)
        else:
            parts[-1] += "\n" + line
    return [*parts, lines[-1]]


def _rearranged(text: str, rnd: random.Random, change) -> str:
    """``text`` with ``change(sections, rnd)`` made to its sections' list."""
    parts = _sections(text)
    if len(parts) < 3:
        return text
    body = parts[1:-1]
    change(body, rnd)
    return "\n".join([parts[0], *body, parts[-1]])


def _swap(body: list, rnd: random.Random) -> None:
    i, j = rnd.randrange(len(body)), rnd.randrange(len(body))
    body[i], body[j] = body[j], body[i]


def _set_section(key: str, value):
    """A mutation that writes ``value(section)`` over the section named ``key``."""

    def change(body: list, rnd: random.Random) -> None:
        for i, section in enumerate(body):
            if section.startswith(key):
                body[i] = value(section)

    return lambda text, rnd: _rearranged(text, rnd, change)


def _single_goal(section: str) -> str:
    """The goal's first atom, in place of its conjunction."""
    atoms = _PRINTED_ATOM.findall(section)
    return f"(:goal ({atoms[0][0]}{atoms[0][1]}))" if atoms else section


def _in_atom(edit):
    """A mutation that applies ``edit(pred, args, rnd)`` to one random atom."""

    def mutate(text: str, rnd: random.Random) -> str:
        atoms = list(_PRINTED_ATOM.finditer(text))
        if not atoms:
            return text
        atom = rnd.choice(atoms)
        pred, args = edit(atom.group(1), atom.group(2).split(), rnd)
        return text[: atom.start()] + "(" + " ".join([pred, *args]) + ")" + text[atom.end() :]

    return mutate


def _spaced(text: str, rnd: random.Random) -> str:
    """Another whitespace character in place of one, or inside a parenthesis."""
    where = [i for i, ch in enumerate(text) if ch in " \n()"]
    i, space = rnd.choice(where), rnd.choice(_SPACES)
    if text[i] == "(":
        return text[: i + 1] + space + text[i + 1 :]
    if text[i] == ")":
        return text[:i] + space + text[i:]
    return text[:i] + space + text[i + 1 :]


def _commented(text: str, rnd: random.Random) -> str:
    lines = text.split("\n")
    i = rnd.randrange(len(lines))
    if rnd.random() < 0.5:
        lines[i] = "; note (x\n" + lines[i]
    else:
        lines[i] += " ;) note"
    return "\n".join(lines)


def _uppercased(text: str, rnd: random.Random) -> str:
    word = rnd.choice(["(define", "(problem", "(:domain", "(:objects", "(:init", "(:goal", "(and"])
    return text.replace(word, word.upper(), 1)


def _renamed(text: str, rnd: random.Random) -> str:
    """One token, a name or a keyword, in place of another."""
    tokens = list(_TOKEN.finditer(text))
    token = rnd.choice(tokens)
    name = rnd.choice([":x", "?x", "-", "-x", "x-", rnd.choice(tokens).group()])
    return text[: token.start()] + name + text[token.end() :]


def _objects(edit):
    def mutate(text: str, rnd: random.Random) -> str:
        match = re.search(r"\(:objects([^()]*)\)", text)
        if match is None:
            return text
        names = edit(match.group(1).split(), rnd)
        section = "(:objects" + "".join(" " + name for name in names) + ")"
        return text[: match.start()] + section + text[match.end() :]

    return mutate


def _edited(text: str, rnd: random.Random) -> str:
    i = rnd.randrange(len(text) + 1)
    if rnd.random() < 0.5 and i < len(text):
        return text[:i] + text[i + 1 :]
    return text[:i] + rnd.choice("();x -?:") + text[i:]


# each a mutation of a printed problem, named for the test's report
_MUTATIONS = {
    "whitespace": _spaced,
    "comment": _commented,
    "uppercase": _uppercased,
    "swap-sections": lambda text, rnd: _rearranged(text, rnd, _swap),
    "drop-section": lambda text, rnd: _rearranged(
        text, rnd, lambda body, rnd: body.pop(rnd.randrange(len(body)))
    ),
    "repeat-section": lambda text, rnd: _rearranged(
        text, rnd, lambda body, rnd: body.append(rnd.choice(body))
    ),
    "duplicate-object": _objects(lambda names, rnd: [*names, rnd.choice(names or ["x"])]),
    "undeclared-object": _in_atom(lambda pred, args, rnd: (pred, [*args[1:], "zz9"])),
    "arity": _in_atom(lambda pred, args, rnd: (pred, args[1:] if args else ["x", "y"])),
    "undeclared-predicate": _in_atom(lambda pred, args, rnd: ("shiny", args)),
    "variable-argument": _in_atom(lambda pred, args, rnd: (pred, [*args[1:], "?x"])),
    "bad-name": _renamed,
    "object-name": _objects(lambda names, rnd: [*names, rnd.choice([":x", "?x", "-"])]),
    "domain-name": lambda text, rnd: re.sub(r"\(:domain [^)]*\)", "(:domain other)", text),
    "trailing": lambda text, rnd: text + rnd.choice([" x", "()", ")", "(", " (a)", "\n;end"]),
    "empty-objects": _set_section("(:objects", lambda section: "(:objects)"),
    "empty-init": _set_section("(:init", lambda section: "(:init)"),
    "empty-goal": _set_section("(:goal", lambda section: "(:goal (and))"),
    "single-goal": _set_section("(:goal", _single_goal),
    "character": _edited,
}


class TestProblemPaths:
    """A printed problem is read in one match, and any other text by the tree
    reader; either way the problem, or the error with its line and column, is
    the one the tree reader alone gave (``helpers.reference_parse_problem``)."""

    @settings(max_examples=800, deadline=None)
    @given(
        benchmark=st.sampled_from(list(Benchmark)),
        seed=st.integers(min_value=0, max_value=5),
        mutations=st.lists(st.sampled_from(sorted(_MUTATIONS)), max_size=3),
        rnd=st.randoms(use_true_random=False),
    )
    def test_same_problem_or_error_as_reference(self, benchmark, seed, mutations, rnd):
        domain, text = _printed(benchmark, seed)
        for mutation in mutations:
            text = _MUTATIONS[mutation](text, rnd)
        expected = _outcome(reference_parse_problem, text, domain)
        assert _outcome(parse_problem, text, domain) == expected

    def test_printed_problems_never_reach_the_tree_reader(self, tmp_path, monkeypatch):
        """Each problem that the generators and the obfuscations write, loaded
        as a dataset, is read in one match, and reads back as itself."""

        def tree_reader(text, domain):
            raise AssertionError(f"the tree reader read a printed problem:\n{text}")

        monkeypatch.setattr(pddl, "_read_problem", tree_reader)
        specs = [
            GenSpec.blocksworld(blocks=5, seed=1, count=10),
            GenSpec.logistics_easy(seed=1, count=5),
            GenSpec.logistics_hard(seed=1, count=3),
            GenSpec.minigrid(width=3, height=3, keys=2, seed=1, count=5),
        ]
        for n, spec in enumerate(specs):
            domain, problems = generate(spec)
            assert [parse_problem(print_problem(p), domain) for p in problems] == problems
            dataset = load_dataset(write_dataset(tmp_path / f"{n}", domain, problems, spec))
            assert list(dataset.problems.values()) == problems
            maps = [nonspecific_map(domain)]
            if spec.benchmark is Benchmark.BLOCKSWORLD:
                maps.append(deceptive_map())
            for mapping in maps:
                out = tmp_path / f"{n}-{mapping.mode.value}"
                renamed = load_dataset(obfuscate_dataset(dataset, mapping, out))
                assert len(renamed.problems) == len(problems)

    @pytest.mark.parametrize("word", ["not", "AND", "or", ":p", "?p", "-"])
    def test_a_predicate_that_no_atom_may_name(self, word):
        """A domain built in code may declare a predicate that no atom can
        name; a printed atom over it is refused as the tree reader refuses it."""
        domain = DomainDef("d", (":strips",), (Predicate(word, ("?x",)),), ())
        problem = ProblemDef("t", "d", ("o",), frozenset({Atom(word, ("o",))}), ())
        text = print_problem(problem)
        expected = _outcome(reference_parse_problem, text, domain)
        assert isinstance(expected, tuple)
        assert _outcome(parse_problem, text, domain) == expected

    def test_a_failed_match_takes_linear_time(self, bw_domain):
        """A long text that the match refuses only at its end is refused fast."""
        atoms = "".join(f"(on b{i} b{i + 1})\n" for i in range(20_000))
        text = f"(define (problem p)\n(:domain blocksworld-4ops)\n(:objects)\n(:init\n{atoms}(on"
        start = time.perf_counter()
        assert pddl._PROBLEM.fullmatch(text) is None
        assert time.perf_counter() - start < 2.0


class TestAtom:
    def test_value_semantics_are_the_dataclass_ones(self):
        atom = Atom("on", ("b1", "b2"))
        assert [(f.name, f.default) for f in dataclasses.fields(Atom)] == [
            ("pred", dataclasses.MISSING), ("args", ()),
        ]
        assert repr(atom) == "Atom(pred='on', args=('b1', 'b2'))"
        assert hash(atom) == hash(("on", ("b1", "b2")))
        assert atom == Atom("on", ("b1", "b2")) and atom != Atom("on", ("b2", "b1"))
        assert atom != GroundAction("on", ("b1", "b2")) and atom != ("on", ("b1", "b2"))
        assert str(atom) == "(on b1 b2)" and str(Atom("handempty")) == "(handempty)"
        assert dataclasses.replace(atom, args=("b3",)) == Atom("on", ("b3",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            atom.pred = "clear"

    def test_parsed_atoms_are_interned(self, bw_domain):
        first = parse_problem(BW5_PROBLEM_TEXT, bw_domain)
        second = parse_problem(BW5_PROBLEM_TEXT, bw_domain)
        on = intern_atom("on", ("b1", "b4"))
        assert on in first.init
        assert {id(a) for a in first.init} == {id(a) for a in second.init}
        assert first.goal[2] is on and Atom("on", ("b1", "b4")) is not on

    def test_pickle_carries_no_hash_to_another_process(self):
        atoms = [Atom("on", ("b1", "b2")), intern_atom("clear", ("b1",)), Atom("handempty")]
        data = pickle.dumps(atoms)
        assert pickle.loads(data) == atoms
        # the child hashes strings under another seed, so a carried hash would miss
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = (
            "import pickle, sys\n"
            "from plancritic.pddl import Atom, intern_atom\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "built = {Atom('on', ('b1', 'b2')), intern_atom('clear', ('b1',)), Atom('handempty')}\n"
            "assert all(atom in built for atom in loaded), loaded\n"
            "assert all(hash(atom) == hash((atom.pred, atom.args)) for atom in loaded)\n"
        )
        src = str(Path(plancritic.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", code], input=data, check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )


class TestDomainDef:
    def test_equal_domains_parsed_twice_hash_equal(self):
        text = print_domain(blocksworld_domain())
        first, second = parse_domain(text), parse_domain(text)
        assert first is not second and first == second and hash(first) == hash(second)
        assert hash(first) == hash((first.name, first.requirements, first.predicates, first.actions))
        assert first != dataclasses.replace(first, name="other")

    def test_hash_is_computed_once_per_domain(self):
        class CountedActions(tuple):
            hashes = 0

            def __hash__(self):
                CountedActions.hashes += 1
                return super().__hash__()

        bw = blocksworld_domain()
        domain = dataclasses.replace(bw, actions=CountedActions(bw.actions))
        assert {hash(domain) for _ in range(3)} == {hash(bw)}
        assert CountedActions.hashes == 1
        # a pickle carries the fields alone; the loaded domain hashes them anew
        data = pickle.dumps(bw)
        assert b"_hash" not in data and pickle.loads(data) == bw

    def test_text_is_printed_once_and_changes_nothing_else(self, monkeypatch):
        domain = parse_domain(print_domain(blocksworld_domain()))
        twin = dataclasses.replace(domain)
        before = hash(domain)
        formatted = []
        real = pddl._format_conjunction
        monkeypatch.setattr(pddl, "_format_conjunction", lambda parts: formatted.append(parts) or real(parts))
        text = print_domain(domain)
        assert print_domain(domain) is text
        assert len(formatted) == 2 * len(domain.actions)  # one render
        monkeypatch.undo()
        assert domain == twin and twin == domain and hash(domain) == before == hash(twin)
        # a pickle carries the fields alone; the loaded domain prints its own text
        data = pickle.dumps(domain)
        assert b"_text" not in data and data == pickle.dumps(twin)
        loaded = pickle.loads(data)
        assert loaded == domain and hash(loaded) == before and loaded._text is None
        assert print_domain(loaded) == text
