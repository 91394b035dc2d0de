"""Shared fixtures: the worked example used across the suite.

``bw5_problem`` is a five-block problem with a known-wrong twelve-step plan
(first failure at step 9, unmet precondition ``(clear b2)``) and a correct
six-step plan.  ``shot_problem``/``shot_plan`` are a solved five-block pair
used as a few-shot exemplar.

The ``pytest_terminal_summary`` hook prints one pass/fail line per
acceptance criterion after any run that touched ``test_acceptance.py``.
"""

import re

import pytest

from plancritic.domains import blocksworld_domain
from plancritic.pddl import parse_plan, parse_problem

# test_settings runs pytest on a test file of its own
pytest_plugins = ["pytester"]

BW5_PROBLEM_TEXT = """\
(define (problem BW-rand-5)
(:domain blocksworld-4ops)
(:objects b4 b1 b2 b5 b3)
(:init
(on b1 b4)
(handempty)
(ontable b4)
(on b2 b1)
(on b5 b2)
(ontable b3)
(clear b3)
(clear b5)
)
(:goal (and
(on b2 b5)
(on b3 b2)
(on b1 b4)
))
)
"""

WRONG_PLAN_TEXT = """\
(unstack b5 b2)
(put-down b5)
(unstack b2 b1)
(put-down b2)
(pick-up b3)
(stack b3 b2)
(pick-up b5)
(stack b5 b3)
(pick-up b2)
(stack b2 b5)
(pick-up b1)
(stack b1 b4)
"""

CORRECT_PLAN_TEXT = """\
(unstack b5 b2)
(put-down b5)
(unstack b2 b1)
(stack b2 b5)
(pick-up b3)
(stack b3 b2)
"""

SHOT_PROBLEM_TEXT = """\
(define (problem BW-rand-5)
(:domain blocksworld-4ops)
(:objects b4 b1 b2 b5 b3)
(:init
(handempty)
(on b2 b1)
(clear b2)
(ontable b4)
(clear b3)
(on b3 b5)
(on b1 b4)
(ontable b5)
)
(:goal (and
(on b2 b1)
(on b5 b4)
(on b3 b5)
))
)
"""

SHOT_PLAN_TEXT = """\
(unstack b2 b1)
(put-down b2)
(unstack b1 b4)
(put-down b1)
(pick-up b2)
(stack b2 b1)
(unstack b3 b5)
(put-down b3)
(pick-up b5)
(stack b5 b4)
(pick-up b3)
(stack b3 b5)
"""


@pytest.fixture(scope="session")
def bw_domain():
    return blocksworld_domain()


@pytest.fixture(scope="session")
def bw5_problem(bw_domain):
    return parse_problem(BW5_PROBLEM_TEXT, bw_domain)


@pytest.fixture(scope="session")
def wrong_plan(bw_domain):
    return parse_plan(WRONG_PLAN_TEXT, bw_domain)


@pytest.fixture(scope="session")
def correct_plan(bw_domain):
    return parse_plan(CORRECT_PLAN_TEXT, bw_domain)


@pytest.fixture(scope="session")
def shot_problem(bw_domain):
    return parse_problem(SHOT_PROBLEM_TEXT, bw_domain)


@pytest.fixture(scope="session")
def shot_plan(bw_domain):
    return parse_plan(SHOT_PLAN_TEXT, bw_domain)


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, tuple[str, str]] = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            match = _CRITERION.search(nodeid)
            if match is None:
                continue
            num = int(match.group(1))
            title = match.group(2).replace("_", " ")
            outcome = getattr(rep, "outcome", None)
            if outcome == "failed":
                outcomes[num] = ("FAIL", title)
            elif outcome == "passed" and getattr(rep, "when", None) == "call":
                outcomes.setdefault(num, ("PASS", title))
            elif outcome == "skipped":
                outcomes.setdefault(num, ("SKIP", title))
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(outcomes):
            status, title = outcomes[num]
            terminalreporter.write_line(f"criterion {num:2d}: {status}  ({title})")
