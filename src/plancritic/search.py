"""Brute-force breadth-first planner over the grounded state space.

This module keeps its own grounding and transition code on purpose: plans it
finds (and plans it re-executes with :func:`run_plan`) are judged by logic
that shares nothing with the ``semantics`` validator, so the two
implementations can cross-check each other.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .pddl import Atom, DomainDef, GroundAction, Plan, ProblemDef

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchLimits:
    max_expanded: int = 200_000
    max_plan_length: int = 100

    def __post_init__(self):
        if self.max_expanded <= 0 or self.max_plan_length <= 0:
            raise ValueError("search limits must be positive")


class SearchStatus(Enum):
    FOUND = "found"
    NO_PLAN = "no-plan"  # exhaustive over groundings with pairwise-distinct arguments
    LIMIT_EXCEEDED = "limit-exceeded"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    plan: Plan | None
    expanded: int


def ground_actions(domain: DomainDef, problem: ProblemDef) -> list[GroundAction]:
    """All substitutions of schema parameters by pairwise-distinct objects.

    Enumeration order is canonical: schemas in declaration order, arguments
    drawn from the sorted object list.
    """
    objs = sorted(problem.objects)
    out: list[GroundAction] = []
    for schema in domain.actions:
        combos = itertools.permutations(objs, len(schema.parameters))
        out.extend(GroundAction(schema.name, args) for args in combos)
    return out


@dataclass(frozen=True)
class _GroundOp:
    action: GroundAction
    pre: tuple[Atom, ...]
    adds: frozenset[Atom]
    dels: frozenset[Atom]


def _substitute(atom: Atom, binding: dict[str, str]) -> Atom:
    return Atom(atom.pred, tuple(binding[a] if a in binding else a for a in atom.args))


def _make_op(domain: DomainDef, action: GroundAction) -> _GroundOp:
    schema = domain.action(action.name)
    if schema is None:
        raise ValueError(f"unknown action {action.name!r}")
    if len(schema.parameters) != len(action.args):
        raise ValueError(f"wrong argument count for {action}")
    binding = dict(zip(schema.parameters, action.args))
    pre = tuple(_substitute(a, binding) for a in schema.precondition)
    adds = frozenset(_substitute(lit.atom, binding) for lit in schema.effects if lit.positive)
    dels = frozenset(_substitute(lit.atom, binding) for lit in schema.effects if not lit.positive)
    return _GroundOp(action, pre, adds, dels)


def _static_predicates(domain: DomainDef) -> set[str]:
    """Predicates no action effect ever touches."""
    touched = {
        lit.atom.pred for schema in domain.actions for lit in schema.effects
    }
    return {p.name for p in domain.predicates} - touched


def _reachable_ops(domain: DomainDef, problem: ProblemDef) -> list[_GroundOp]:
    """Grounded operators, minus ones whose static preconditions fail in init.

    A precondition over a predicate no effect can touch must already hold in
    the initial state, otherwise the operator can never fire; dropping those
    operators does not change the reachable state space.
    """
    static = _static_predicates(domain)
    init = problem.init
    ops = []
    for action in ground_actions(domain, problem):
        op = _make_op(domain, action)
        if all(atom in init for atom in op.pre if atom.pred in static):
            ops.append(op)
    return ops


def bfs_plan(
    domain: DomainDef, problem: ProblemDef, limits: SearchLimits = SearchLimits()
) -> SearchResult:
    """Shortest plan by breadth-first search; deterministic for fixed inputs.

    Among shortest plans, the one found first under the canonical ground
    action order is returned.  ``LIMIT_EXCEEDED`` means the search gave up;
    ``NO_PLAN`` means it was exhaustive over groundings with pairwise-distinct
    arguments (see ground_actions) and found no plan.
    """
    ops = _reachable_ops(domain, problem)
    init = frozenset(problem.init)
    goal = set(problem.goal)
    if goal <= init:
        return SearchResult(SearchStatus.FOUND, Plan(()), 0)

    visited = {init}
    parent: dict[frozenset, tuple[frozenset, GroundAction]] = {}
    queue: deque[tuple[frozenset, int]] = deque([(init, 0)])
    expanded = 0
    truncated = False
    while queue:
        state, depth = queue.popleft()
        expanded += 1
        if expanded > limits.max_expanded:
            log.debug("expansion limit hit after %d states", expanded - 1)
            return SearchResult(SearchStatus.LIMIT_EXCEEDED, None, expanded - 1)
        if depth >= limits.max_plan_length:
            truncated = True
            continue
        for op in ops:
            if all(atom in state for atom in op.pre):
                succ = (state - op.dels) | op.adds
                if succ in visited:
                    continue
                visited.add(succ)
                parent[succ] = (state, op.action)
                if goal <= succ:
                    steps: list[GroundAction] = []
                    node = succ
                    while node != init:
                        node, action = parent[node]
                        steps.append(action)
                    steps.reverse()
                    return SearchResult(SearchStatus.FOUND, Plan(tuple(steps)), expanded)
                queue.append((succ, depth + 1))
    if truncated:
        return SearchResult(SearchStatus.LIMIT_EXCEEDED, None, expanded)
    return SearchResult(SearchStatus.NO_PLAN, None, expanded)


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of the straight-line plan executor."""

    failed_step: int | None  # 1-based, None when every step fired
    unmet: tuple[Atom, ...]
    goal_satisfied: bool

    @property
    def accepted(self) -> bool:
        return self.failed_step is None and self.goal_satisfied


def run_plan(domain: DomainDef, problem: ProblemDef, plan: Plan) -> ExecutionOutcome:
    """Execute ``plan`` step by step, independently of the validator."""
    state = frozenset(problem.init)
    for index, action in enumerate(plan.steps, start=1):
        op = _make_op(domain, action)
        unmet = tuple(atom for atom in op.pre if atom not in state)
        if unmet:
            return ExecutionOutcome(index, unmet, False)
        state = (state - op.dels) | op.adds
    goal_ok = all(atom in state for atom in problem.goal)
    return ExecutionOutcome(None, (), goal_ok)
