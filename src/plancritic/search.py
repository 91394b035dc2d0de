"""Breadth-first planner over the grounded state space.

This module keeps its own grounding and transition code on purpose: plans it
finds (and plans it re-executes with :func:`run_plan`) are judged by logic
that shares nothing with the ``semantics`` validator, so the two
implementations can cross-check each other.

Grounding joins each schema's static preconditions against the static atoms
of ``:init`` while it binds the parameters.  Atoms are interned to bit
positions, so a state is an ``int`` and an operator is a precondition, keep
and add mask.  The operators are then indexed on their preconditions, as in
Fast Downward's successor generator (Helmert, "The Fast Downward Planning
System", JAIR 2006): for each byte of the atom bits that holds a precondition
bit, a 256-entry table maps the byte's value in a state to the bitset of
operators whose precondition bits in that byte it holds.  ANDing one entry
per table gives the operators applicable in a state, and their set bits, low
to high, are the canonical operator order.

The join, the interning and the tables depend only on the domain, the sorted
objects and the static atoms of ``:init``, so they are cached for the last
such key: the instances of one family, solved back to back, ground once.  Per
problem, only the masks of ``:init`` and the goal remain.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Annotated, NamedTuple

from .jsonform import AtLeast, check_bounds
from .pddl import Atom, DomainDef, GroundAction, Plan, ProblemDef


@dataclass(frozen=True)
class SearchLimits:
    max_expanded: Annotated[int, AtLeast(1)] = 200_000
    max_plan_length: Annotated[int, AtLeast(1)] = 100

    __post_init__ = check_bounds


class SearchStatus(Enum):
    FOUND = "found"
    NO_PLAN = "no-plan"  # exhaustive over every grounding, repeated arguments included
    LIMIT_EXCEEDED = "limit-exceeded"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    plan: Plan | None
    expanded: int
    # telemetry, outside equality: states first reached, and grounded steps
    generated: int = field(compare=False)
    operators: int = field(compare=False)


def ground_actions(domain: DomainDef, problem: ProblemDef) -> list[GroundAction]:
    """Every substitution of schema parameters by objects, repeats allowed.

    Enumeration order is canonical: schemas in declaration order, argument
    tuples in lexicographic order over the sorted object list.  This is the
    brute-force reference; :func:`bfs_plan` grounds by a join instead, once
    per domain, object set and static atoms, and yields its operators in the
    same order.
    """
    objs = sorted(problem.objects)
    out: list[GroundAction] = []
    for schema in domain.actions:
        combos = itertools.product(objs, repeat=len(schema.parameters))
        out.extend(GroundAction(schema.name, args) for args in combos)
    return out


@dataclass(frozen=True)
class _GroundOp:
    """One step of the straight-line executor, :func:`run_plan`."""

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


def _join(
    arity: int, static_pre: list[tuple[str, tuple[int, ...]]], objs: tuple[str, ...], init: frozenset
):
    """Argument tuples under which every static precondition holds in ``init``.

    Parameters are bound in order, each over ``objs``, so tuples come out in
    lexicographic order.  A precondition ``(pred, positions)`` is checked as
    soon as its last parameter is bound; ``init`` holds ``(pred, args)`` keys.
    """
    # preconditions over parameter k alone narrow its candidates once;
    # tests[k] holds the others whose last parameter is k
    candidates = [objs] * arity
    tests: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(arity)]
    for pred, pos in static_pre:
        if not pos:
            if (pred, ()) not in init:
                return
        elif min(pos) == max(pos):
            k = pos[0]
            candidates[k] = [o for o in candidates[k] if (pred, (o,) * len(pos)) in init]
        else:
            tests[max(pos)].append((pred, pos))
    args: list[str] = [""] * arity

    def bind(k: int):
        if k == arity:
            yield tuple(args)
            return
        for obj in candidates[k]:
            args[k] = obj
            if all((pred, tuple(args[i] for i in pos)) in init for pred, pos in tests[k]):
                yield from bind(k + 1)

    yield from bind(0)


# a search step: precondition, keep and add masks, then the action.  It is
# applicable in ``state`` when ``state & pre == pre``, and its successor is
# ``(state & keep) | adds``, ``keep`` being the complement of the deletes
_Step = tuple[int, int, int, GroundAction]

# one byte of the atom bits as ``(shift, table)``: ``table[state >> shift &
# 255]`` is the bitset of the steps whose precondition bits in that byte all
# hold in ``state``
_Table = tuple[int, tuple[int, ...]]


@functools.lru_cache(maxsize=1)
def _grounding(
    domain: DomainDef, objs: tuple[str, ...], static_init: frozenset[tuple]
) -> tuple[dict[tuple, int], tuple[_Step, ...], tuple[_Table, ...]]:
    """The atom-to-bit table, every operator whose static preconditions hold
    in ``static_init`` as steps in canonical order, and the byte tables that
    index those steps on their preconditions.

    This depends only on the domain, the sorted objects and the static atoms
    of ``:init``, so the instances of one family share it; the atom table
    holds every atom an operator mentions and is never written once built.
    """
    static = _static_predicates(domain)
    bits: dict[tuple, int] = {}

    def mask(atoms: tuple) -> int:
        m = 0
        for atom in atoms:
            m |= 1 << bits.setdefault(atom, len(bits))
        return m

    steps: list[_Step] = []
    for schema in domain.actions:
        index = {param: i for i, param in enumerate(schema.parameters)}

        def lifted(atoms) -> list[tuple[str, tuple[int, ...]]]:
            return [(a.pred, tuple([index[x] for x in a.args])) for a in atoms]

        pre = lifted(schema.precondition)
        adds = lifted(schema.add_effects)
        dels = lifted(schema.del_effects)
        static_pre = [(pred, pos) for pred, pos in pre if pred in static]
        for args in _join(len(index), static_pre, objs, static_init):
            steps.append((
                mask(_instantiate(pre, args)),
                ~mask(_instantiate(dels, args)),
                mask(_instantiate(adds, args)),
                GroundAction(schema.name, args),
            ))
    return bits, tuple(steps), _byte_tables(steps)


def _byte_tables(steps: list[_Step]) -> tuple[_Table, ...]:
    """One table for each byte of the atom bits that holds a precondition bit
    of some step (after Helmert's successor generator, JAIR 2006).

    One downward pass over ``v`` fills a table: with ``k`` the lowest clear
    bit of ``v``, the steps that apply at ``v`` are those that apply at
    ``v | 1 << k`` and do not need bit ``k``.
    """
    need: dict[int, int] = {}  # atom bit -> the steps it is a precondition of
    for i, (pre, _, _, _) in enumerate(steps):
        while pre:
            low = pre & -pre
            pre ^= low
            bit = low.bit_length() - 1
            need[bit] = need.get(bit, 0) | 1 << i
    every = (1 << len(steps)) - 1
    tables: list[_Table] = []
    for shift in sorted({bit & ~7 for bit in need}):
        allow = [every & ~need.get(shift + k, 0) for k in range(8)]
        table = [every] * 256
        for v in range(254, -1, -1):
            k = (~v & (v + 1)).bit_length() - 1
            table[v] = table[v | 1 << k] & allow[k]
        tables.append((shift, tuple(table)))
    return tuple(tables)


def _instantiate(atoms: list[tuple[str, tuple[int, ...]]], args: tuple[str, ...]) -> tuple:
    """``(pred, positions)`` atoms as ``(pred, args)`` keys under ``args``."""
    return tuple([(pred, tuple([args[i] for i in pos])) for pred, pos in atoms])


class _Task(NamedTuple):
    """One problem in bits: the shared grounding, then the masks of ``:init``
    and the goal."""

    bits: Mapping[tuple, int]  # atoms outside it hold the bits above its size
    steps: tuple[_Step, ...]
    tables: tuple[_Table, ...]
    init: int
    goal: int


def _reachable_ops(domain: DomainDef, problem: ProblemDef) -> _Task:
    """``problem`` in bits, over the operators whose static preconditions
    hold in its ``:init``.

    The steps are the operators :func:`ground_actions` yields, in the same
    order, less those whose static preconditions fail in ``:init`` (no effect
    can ever make them true).  The grounding comes from :func:`_grounding`;
    only the masks of ``:init`` and the goal are per problem.  The benchmark
    traces grounding under this function's name.
    """
    static = _static_predicates(domain)
    init_atoms = [(atom.pred, atom.args) for atom in problem.init]
    bits, steps, tables = _grounding(
        domain,
        tuple(sorted(problem.objects)),
        frozenset(atom for atom in init_atoms if atom[0] in static),
    )
    extra: dict[tuple, int] = {}  # init and goal atoms no operator mentions

    def mask(atoms) -> int:
        m = 0
        for atom in atoms:
            bit = bits.get(atom)
            if bit is None:
                bit = extra.setdefault(atom, len(bits) + len(extra))
            m |= 1 << bit
        return m

    init = mask(init_atoms)
    goal = mask((atom.pred, atom.args) for atom in problem.goal)
    return _Task(bits, steps, tables, init, goal)


def _applicable(tables: tuple[_Table, ...], every: int, state: int) -> int:
    """The bitset of the steps applicable in ``state``: bit ``i`` is set when
    step ``i`` is.  ``every`` is the bitset of all steps."""
    for shift, table in tables:
        every &= table[state >> shift & 255]
    return every


def bfs_plan(
    domain: DomainDef, problem: ProblemDef, limits: SearchLimits = SearchLimits()
) -> SearchResult:
    """Shortest plan by breadth-first search; deterministic for fixed inputs.

    Among shortest plans, the one found first under the canonical ground
    action order (see ground_actions) is returned.  ``LIMIT_EXCEEDED`` means
    the search gave up; ``NO_PLAN`` means it was exhaustive over every
    grounding of every action, repeated arguments included, and found no plan.

    The steps come from :func:`_reachable_ops`, whose grounding a call with
    the same domain, objects and static atoms as the previous one reuses.
    Each expanded state looks its applicable steps up in the byte tables and
    applies them from the lowest index up, which is the canonical order.
    """
    _, steps, tables, init, goal = _reachable_ops(domain, problem)
    operators = len(steps)
    if init & goal == goal:
        return SearchResult(SearchStatus.FOUND, Plan(()), 0, 0, operators)

    every = (1 << operators) - 1
    # the visited set, and each state's predecessor and the step between
    parent: dict[int, tuple[int, GroundAction] | None] = {init: None}
    queue: deque[tuple[int, int]] = deque([(init, 0)])
    expanded = 0
    truncated = False
    while queue:
        state, depth = queue.popleft()
        expanded += 1
        if expanded > limits.max_expanded:
            return SearchResult(
                SearchStatus.LIMIT_EXCEEDED, None, expanded - 1, len(parent) - 1, operators
            )
        if depth >= limits.max_plan_length:
            truncated = True
            continue
        ops = _applicable(tables, every, state)
        while ops:
            low = ops & -ops
            ops ^= low
            _, keep, adds, action = steps[low.bit_length() - 1]
            succ = (state & keep) | adds
            if succ in parent:
                continue
            parent[succ] = (state, action)
            if succ & goal == goal:
                plan: list[GroundAction] = []
                node = succ
                while node != init:
                    node, action = parent[node]
                    plan.append(action)
                plan.reverse()
                return SearchResult(
                    SearchStatus.FOUND, Plan(tuple(plan)), expanded, len(parent) - 1, operators
                )
            queue.append((succ, depth + 1))
    status = SearchStatus.LIMIT_EXCEEDED if truncated else SearchStatus.NO_PLAN
    return SearchResult(status, None, expanded, len(parent) - 1, operators)


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
