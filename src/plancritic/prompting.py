"""Byte-stable prompt assembly, few-shot selection, and transcripts.

Planning prompts show the domain, worked (problem, plan) example blocks, and
the target problem.  When earlier attempts were rejected, the transcript of
(plan, critique, repair request) turns is appended so the model revises its
own output.  Critique prompts come in five fixed variants that differ in how
much guidance they give the judge.

All rendering is deterministic: the same inputs always produce the same
bytes, so prompts can be frozen as golden files.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Mapping, Sequence

from .pddl import DomainDef, Plan, ProblemDef, print_domain, print_plan, print_problem
from .semantics import validate_plan


class TemplateId(str, Enum):
    PLAN_FEWSHOT = "plan_fewshot"
    CRITIQUE_FEWSHOT = "critique_fewshot"
    CRITIQUE_0SHOT_DD = "critique_0shot_dd"
    CRITIQUE_0SHOT_NO_DD = "critique_0shot_no_dd"
    CRITIQUE_NO_3STEP = "critique_no_3step"
    CRITIQUE_VERIFY_PLAN = "critique_verify_plan"


CRITIQUE_TEMPLATES = (
    TemplateId.CRITIQUE_FEWSHOT,
    TemplateId.CRITIQUE_0SHOT_DD,
    TemplateId.CRITIQUE_0SHOT_NO_DD,
    TemplateId.CRITIQUE_NO_3STEP,
    TemplateId.CRITIQUE_VERIFY_PLAN,
)


class BudgetExceeded(Exception):
    """The rendered prompt no longer fits the transcript's character budget."""

    def __init__(self, length: int, budget: int):
        super().__init__(f"prompt length {length} exceeds budget {budget}")
        self.length = length
        self.budget = budget


class PoolTooSmall(ValueError):
    pass


class MissingPlaceholderValue(KeyError):
    def __str__(self) -> str:
        return f"no value for the {{{self.args[0]}}} placeholder"


REPAIR_REQUEST = "Please can you explain the error and fix it."
_SHOT_BLOCK = (
    "Example of a problem and its solution (plan):\n"
    "{problem}\n\nThe plan without formatting:\n{plan}\n\n\n"
)

_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


@functools.cache
def load_template(template_id: TemplateId) -> str:
    """A packaged template's text, read once per process."""
    path = resources.files(__package__) / "templates" / f"{template_id.value}.txt"
    return path.read_text(encoding="utf-8")


def render_template(body: str, values: Mapping[str, str]) -> str:
    """Substitute ``{name}`` placeholders in one pass.

    Values are inserted verbatim and never re-scanned, so braces inside them
    are safe.  A placeholder without a value raises MissingPlaceholderValue.
    """

    def lookup(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise MissingPlaceholderValue(name)
        return values[name]

    return _PLACEHOLDER.sub(lookup, body)


# ---------------------------------------------------------------------------
# Few-shot pools


@dataclass(frozen=True)
class Exemplar:
    problem: ProblemDef
    plan: Plan


@dataclass(frozen=True)
class FewShotPool:
    exemplars: tuple[Exemplar, ...]
    seed: int
    ids: tuple[str, ...]  # one id per exemplar: a target is never shown its own

    def __len__(self) -> int:
        return len(self.exemplars)


def build_pool(
    domain: DomainDef, exemplars: Sequence[Exemplar], seed: int, ids: Sequence[str]
) -> FewShotPool:
    """Build a pool, checking every exemplar's plan actually solves its problem.

    ``ids`` names each exemplar, in order, with a distinct id; a target whose
    id is in the pool is never shown that exemplar.
    """
    if len(ids) != len(exemplars) or len(set(ids)) != len(ids):
        raise ValueError(
            f"{len(exemplars)} exemplars need one distinct id each, "
            f"got {len(ids)} ids, {len(set(ids))} distinct"
        )
    for ex in exemplars:
        if not validate_plan(ex.problem, ex.plan, domain).is_correct:
            raise ValueError(f"exemplar plan for {ex.problem.name!r} does not validate")
    return FewShotPool(tuple(exemplars), seed, tuple(ids))


def select_fewshots(pool: FewShotPool, problem_id: str, n: int) -> tuple[Exemplar, ...]:
    """Deterministic selection of ``n`` exemplars for one problem.

    The full pool is permuted by a stream keyed on (pool seed, problem id),
    the exemplar whose id is ``problem_id`` is skipped, and the first ``n``
    remaining entries are taken, so a smaller selection is always a prefix of
    a larger one.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = random.Random(f"{pool.seed}:{problem_id}")
    order = list(range(len(pool.exemplars)))
    rng.shuffle(order)
    order = [i for i in order if pool.ids[i] != problem_id]
    if n > len(order):
        raise PoolTooSmall(f"asked for {n} exemplars, pool has {len(order)} for {problem_id}")
    return tuple(pool.exemplars[i] for i in order[:n])


# ---------------------------------------------------------------------------
# Transcripts


@dataclass(frozen=True)
class TranscriptEntry:
    plan_text: str
    critique_text: str


@dataclass
class Transcript:
    """Ordered record of rejected attempts, with a character budget."""

    char_budget: int | None = None
    entries: list[TranscriptEntry] = field(default_factory=list)

    def append(self, plan_text: str, critique_text: str) -> None:
        self.entries.append(TranscriptEntry(plan_text, critique_text))

    def render(self) -> str:
        parts = []
        for entry in self.entries:
            parts.append(
                f"The clean plan:\n{entry.plan_text}\n{entry.critique_text}\n\n{REPAIR_REQUEST}\n"
            )
        return "".join(parts)

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# Prompt builders


def render_shot(exemplar: Exemplar) -> str:
    return _SHOT_BLOCK.format(
        problem=print_problem(exemplar.problem), plan=print_plan(exemplar.plan)
    )


def build_plan_prompt(
    domain: DomainDef,
    problem: ProblemDef,
    shots: Sequence[Exemplar] = (),
    transcript: Transcript | None = None,
) -> str:
    """Assemble the planning prompt; raises BudgetExceeded when too long."""
    body = load_template(TemplateId.PLAN_FEWSHOT)
    text = render_template(
        body,
        {
            "domain_pddl": print_domain(domain),
            "few_shots": "".join(render_shot(s) for s in shots),
            "instance": print_problem(problem),
        },
    )
    if transcript is not None:
        text += transcript.render()
        budget = transcript.char_budget
        if budget is not None and len(text) > budget:
            raise BudgetExceeded(len(text), budget)
    return text


def check_critique_template(template_id: TemplateId, exemplars: Sequence[str] | None) -> None:
    """Raise unless ``template_id`` is a critique template that renders with
    ``exemplars``: the few-shot variant needs them, the others take none."""
    if template_id not in CRITIQUE_TEMPLATES:
        raise ValueError(f"{TemplateId(template_id).value} is not a critique template")
    if template_id is TemplateId.CRITIQUE_FEWSHOT:
        if not exemplars:
            raise MissingPlaceholderValue("self_evaluations_exemplars")
    elif exemplars:
        raise ValueError(f"{template_id.value} does not take exemplars")


def build_critique_prompt(
    template_id: TemplateId,
    domain: DomainDef,
    problem: ProblemDef,
    plan: Plan,
    exemplars: Sequence[str] | None = None,
) -> str:
    """Assemble one of the five critique prompts.

    ``exemplars`` are pre-rendered verification walkthrough texts; see
    check_critique_template for which templates take them.
    """
    check_critique_template(template_id, exemplars)
    values = {
        "domain_pddl": print_domain(domain),
        "instance": print_problem(problem),
        "plan": print_plan(plan),
    }
    if exemplars:
        values["self_evaluations_exemplars"] = "\n\n".join(exemplars)
    return render_template(load_template(template_id), values)
