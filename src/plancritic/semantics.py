"""Ground-truth STRIPS execution semantics.

A state is a frozen set of ground atoms under the closed-world assumption.
Applying an action removes its delete effects and then unions its add
effects.  Plan validation simulates step by step, stops at the first
inapplicable action, and reports one of three verdicts: the plan is correct,
the plan is wrong at a specific step (with every unmet precondition listed),
or the plan executes but the goal is not reached.

Each ground action is bound to its schema once per domain, into a table
kept on the ``DomainDef`` itself, as ``print_domain`` keeps its text there.
A failed bind (unknown action, wrong arity) stores nothing.

The bound atoms come from the intern table of ``pddl``, the one the reader
takes a problem's ``:init`` and goal atoms from.  So a precondition and the
equal atom of a state read from text are one object: ``atom in state`` and
``state - dels`` match on identity and run no Python ``__eq__``, and the
atom's hash is the one it carries.  An atom built in code, as the generators
do, is a different object; it still matches, through ``Atom.__eq__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Mapping

from .pddl import (
    ATOM_ORDER,
    ArityMismatch,
    Atom,
    DomainDef,
    GroundAction,
    Plan,
    ProblemDef,
    UnknownAction,
    intern_atom,
)

State = frozenset[Atom]


# the assessment phrases critics are asked to conclude with
PHRASE_CORRECT = "the plan is correct"
PHRASE_WRONG = "the plan is wrong"
PHRASE_GOAL_NOT_REACHED = "goal not reached"


class CritiqueLabel(str, Enum):
    """A critic's judgement of a plan; its value is its name in records, and
    ``phrase`` the assessment phrase a critique concludes with."""

    CORRECT = "correct", PHRASE_CORRECT
    WRONG = "wrong", PHRASE_WRONG
    GOAL_NOT_REACHED = "goal_not_reached", PHRASE_GOAL_NOT_REACHED

    def __new__(cls, value: str, phrase: str):
        label = str.__new__(cls, value)
        label._value_, label.phrase = value, phrase
        return label


def self_consistency(votes: Mapping[CritiqueLabel, int]) -> CritiqueLabel:
    """The label that ``votes``, a count for each label, give: correct only
    when strictly more votes say correct than not, so that every tie is wrong;
    goal-not-reached when it strictly outnumbers wrong among the rest."""
    n_correct, n_wrong, n_gnr = [votes.get(label, 0) for label in CritiqueLabel]
    if not n_correct + n_wrong + n_gnr:
        raise ValueError("no votes to aggregate")
    if n_correct > n_wrong + n_gnr:
        return CritiqueLabel.CORRECT
    if n_correct < n_wrong + n_gnr and n_gnr > n_wrong:
        return CritiqueLabel.GOAL_NOT_REACHED
    return CritiqueLabel.WRONG


# each verdict names the label a critic that agrees with it gives
@dataclass(frozen=True)
class Correct:
    label: ClassVar[CritiqueLabel] = CritiqueLabel.CORRECT


@dataclass(frozen=True)
class WrongAtStep:
    label: ClassVar[CritiqueLabel] = CritiqueLabel.WRONG
    step: int  # 1-based index of the first failing action
    unmet: tuple[Atom, ...]


@dataclass(frozen=True)
class GoalNotReached:
    label: ClassVar[CritiqueLabel] = CritiqueLabel.GOAL_NOT_REACHED
    unsatisfied: tuple[Atom, ...]


PlanVerdict = Correct | WrongAtStep | GoalNotReached


@dataclass(frozen=True)
class StepTrace:
    """One simulated step: the checks made and the state transition."""

    index: int  # 1-based
    action: GroundAction
    checks: tuple[tuple[Atom, bool], ...]
    state_after: State | None  # None when the step failed

    @property
    def unmet(self) -> tuple[Atom, ...]:
        return tuple(atom for atom, ok in self.checks if not ok)

    @property
    def applied(self) -> bool:
        return self.state_after is not None


@dataclass(frozen=True)
class ValidationResult:
    verdict: PlanVerdict
    trace: tuple[StepTrace, ...]

    _text = None  # not a field: the text of format_trace, once rendered

    @property
    def is_correct(self) -> bool:
        return isinstance(self.verdict, Correct)


# a ground action's preconditions in schema order, its deletes and its adds
Grounded = tuple[tuple[Atom, ...], frozenset[Atom], frozenset[Atom]]


def _ground(domain: DomainDef, action: GroundAction) -> Grounded:
    """``action`` bound under ``domain``, from the domain's table when it was
    bound before; raises UnknownAction or ArityMismatch, storing nothing.
    The table is keyed by ``(name, args)``, and each atom comes from the
    reader's intern table."""
    table = domain._bound
    if table is None:  # setdefault is atomic, so the threads of a batch share one table
        table = domain.__dict__.setdefault("_bound", {})
    key = (action.name, action.args)
    grounded = table.get(key)
    if grounded is None:
        schema = domain.action(action.name)
        if schema is None:
            raise UnknownAction(f"unknown action {action.name!r}")
        if len(schema.parameters) != len(action.args):
            raise ArityMismatch(
                f"{action.name} expects {len(schema.parameters)} argument(s), got {len(action.args)}"
            )
        binding = dict(zip(schema.parameters, action.args))

        def bind(atom: Atom) -> Atom:
            return intern_atom(atom.pred, tuple([binding.get(a, a) for a in atom.args]))

        grounded = table[key] = (
            tuple(map(bind, schema.precondition)),
            frozenset(map(bind, schema.del_effects)),
            frozenset(map(bind, schema.add_effects)),
        )
    return grounded


def _step(
    state: State, action: GroundAction, domain: DomainDef
) -> tuple[tuple[tuple[Atom, bool], ...], State | None]:
    """The precondition checks of ``action`` against ``state``, and the
    successor state when every check holds (None otherwise).

    The ground preconditions, deletes and adds come from the table kept on
    ``domain``; a bind that fails is not stored, so it fails again on the
    next call."""
    precondition, dels, adds = _ground(domain, action)
    checks = tuple([(atom, atom in state) for atom in precondition])
    for _, ok in checks:
        if not ok:
            return checks, None
    return checks, (state - dels) | adds


def validate_plan(problem: ProblemDef, plan: Plan, domain: DomainDef) -> ValidationResult:
    """Simulate ``plan`` from the initial state and judge it.

    The trace covers exactly the executed prefix, including the failing step
    when there is one.
    """
    state = problem.init
    trace: list[StepTrace] = []
    for index, action in enumerate(plan.steps, start=1):
        checks, after = _step(state, action, domain)
        trace.append(StepTrace(index, action, checks, after))
        if after is None:
            return ValidationResult(WrongAtStep(index, trace[-1].unmet), tuple(trace))
        state = after
    unsatisfied = tuple(atom for atom in problem.goal if atom not in state)
    if unsatisfied:
        return ValidationResult(GoalNotReached(unsatisfied), tuple(trace))
    return ValidationResult(Correct(), tuple(trace))


# ---------------------------------------------------------------------------
# Text and record serialization


def verdict_phrase(verdict: PlanVerdict) -> str:
    return verdict.label.phrase


def format_state(state: State) -> str:
    return "\n".join(map(str, sorted(state, key=ATOM_ORDER)))


def _format_step(step: StepTrace) -> str:
    lines = [f"**step {step.index}: {step.action}**", "preconditions:"]
    for atom, ok in step.checks:
        lines.append(f"- {atom}: {'true' if ok else 'false'}")
    if not step.checks:
        lines.append("- none")
    if step.applied:
        lines += ["all preconditions are met.", "resulting state:", format_state(step.state_after)]
    else:
        lines.append("preconditions are not met.")
    return "\n".join(lines)


def format_trace(result: ValidationResult) -> str:
    """The step-by-step verification, one block per simulated step: rendered
    on the first call and kept on ``result``, as ``print_domain`` keeps its text."""
    if result._text is None:
        result.__dict__["_text"] = "\n\n".join(map(_format_step, result.trace))
    return result._text


def format_verdict(verdict: PlanVerdict) -> str:
    """Human-readable detail ending with the literal assessment phrase."""
    if isinstance(verdict, Correct):
        detail = "all goal atoms hold in the final state."
    elif isinstance(verdict, WrongAtStep):
        unmet = ", ".join(str(a) for a in verdict.unmet)
        detail = f"the preconditions {unmet} are not met at step {verdict.step}."
    else:
        detail = f"unsatisfied goal atoms: {', '.join(str(a) for a in verdict.unsatisfied)}."
    return detail + "\n" + verdict.label.phrase


def verdict_to_dict(verdict: PlanVerdict) -> dict:
    if isinstance(verdict, Correct):
        return {"verdict": "correct"}
    if isinstance(verdict, WrongAtStep):
        return {
            "verdict": "wrong_at_step",
            "step": verdict.step,
            "unmet": [str(a) for a in verdict.unmet],
        }
    return {
        "verdict": "goal_not_reached",
        "unsatisfied": [str(a) for a in verdict.unsatisfied],
    }


def validation_to_dict(result: ValidationResult) -> dict:
    """Structured form of a validation result for machine consumption."""
    return {
        **verdict_to_dict(result.verdict),
        "trace": [
            {
                "index": step.index,
                "action": str(step.action),
                "checks": [[str(atom), ok] for atom, ok in step.checks],
                "state_after": sorted(str(a) for a in step.state_after)
                if step.state_after is not None
                else None,
            }
            for step in result.trace
        ],
    }
