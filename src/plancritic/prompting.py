"""Byte-stable prompt assembly, few-shot selection, and transcripts.

Planning prompts show the domain, worked (problem, plan) example blocks, and
the target problem.  When earlier attempts were rejected, the transcript of
(plan, critique, repair request) turns is appended so the model revises its
own output.  Each fixed text is rendered once where it stays fixed: an
exemplar's shot block when ``build_pool`` builds the pool (it is kept on the
exemplar), the domain text once per domain object (``print_domain`` keeps it
on the domain), and the part before the transcript, with
``plan_prompt_prefix``, once per problem; each round then appends only the
transcript, through ``Transcript.prompt``.  Critique prompts come in five
fixed variants that differ in how much guidance they give the judge.

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

from .generators import Dataset, DatasetError
from .pddl import DomainDef, Plan, ProblemDef, print_domain, print_plan, print_problem, problem_key
from .semantics import validate_plan


class TemplateId(str, Enum):
    PLAN_FEWSHOT = "plan_fewshot"
    CRITIQUE_FEWSHOT = "critique_fewshot"
    CRITIQUE_0SHOT_DD = "critique_0shot_dd"
    CRITIQUE_0SHOT_NO_DD = "critique_0shot_no_dd"
    CRITIQUE_NO_3STEP = "critique_no_3step"
    CRITIQUE_VERIFY_PLAN = "critique_verify_plan"


CRITIQUE_TEMPLATES = tuple(t for t in TemplateId if t is not TemplateId.PLAN_FEWSHOT)


class BudgetExceeded(Exception):
    """The rendered prompt no longer fits the transcript's character budget."""

    def __init__(self, length: int, budget: int):
        super().__init__(f"prompt length {length} exceeds budget {budget}")
        self.length = length
        self.budget = budget


class PoolTooSmall(ValueError):
    pass


class MissingPlaceholderValue(ValueError):
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

    @functools.cached_property
    def block(self) -> str:
        """The exemplar's shot block, rendered on first use and kept."""
        return _SHOT_BLOCK.format(problem=print_problem(self.problem), plan=print_plan(self.plan))


@dataclass(frozen=True)
class FewShotPool:
    exemplars: tuple[Exemplar, ...]
    seed: int
    ids: tuple[str, ...]  # one id per exemplar: a target is never shown its own
    # exemplar indices by problem_key: nor is it shown a twin under another id
    by_key: dict[tuple, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_key: dict[tuple, list[int]] = {}
        for i, exemplar in enumerate(self.exemplars):
            by_key.setdefault(problem_key(exemplar.problem), []).append(i)
        object.__setattr__(self, "by_key", by_key)

    def __len__(self) -> int:
        return len(self.exemplars)


def build_pool(dataset: Dataset, seed: int) -> FewShotPool:
    """The few-shot pool of a loaded manifest: one exemplar per entry, in
    manifest order, named by the entry's id, so a target whose id is in the
    pool is never shown that exemplar.  Raises DatasetError for an entry with
    no plan file and ValueError for a plan that does not solve its problem;
    renders each shot block once, for every prompt that shows it."""
    exemplars = []
    for entry in dataset.entries:
        if entry.id not in dataset.plans:
            raise DatasetError(f"pool entry {entry.id} has no plan file")
        ex = Exemplar(dataset.problems[entry.id], dataset.plans[entry.id])
        if not validate_plan(ex.problem, ex.plan, dataset.domain).is_correct:
            raise ValueError(f"exemplar plan for {ex.problem.name!r} does not validate")
        ex.block  # rendered here, once, and kept on the exemplar
        exemplars.append(ex)
    return FewShotPool(tuple(exemplars), seed, tuple(entry.id for entry in dataset.entries))


def select_fewshots(
    pool: FewShotPool, problem_id: str, n: int, problem: ProblemDef
) -> tuple[Exemplar, ...]:
    """Deterministic selection of ``n`` exemplars for one problem.

    The full pool is permuted by a stream keyed on (pool seed, problem id),
    the exemplar whose id is ``problem_id`` is skipped, and so is every
    exemplar whose ``problem_key`` is that of ``problem`` (the same task under
    another id), and the first ``n`` remaining entries are taken, so a smaller
    selection is always a prefix of a larger one.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = random.Random(f"{pool.seed}:{problem_id}")
    order = list(range(len(pool.exemplars)))
    rng.shuffle(order)
    twins = pool.by_key.get(problem_key(problem), ())
    order = [i for i in order if pool.ids[i] != problem_id and i not in twins]
    if n > len(order):
        raise PoolTooSmall(f"asked for {n} exemplars, pool has {len(order)} for {problem_id}")
    return tuple(pool.exemplars[i] for i in order[:n])


# ---------------------------------------------------------------------------
# Transcripts


class Transcript:
    """Ordered record of rejected attempts, each rendered once, as it is
    appended, with a character budget."""

    def __init__(self, char_budget: int | None = None):
        self.char_budget = char_budget
        self._text = ""

    def append(self, plan_text: str, critique_text: str) -> None:
        self._text += f"The clean plan:\n{plan_text}\n{critique_text}\n\n{REPAIR_REQUEST}\n"

    def render(self) -> str:
        return self._text

    def prompt(self, prefix: str) -> str:
        """``prefix`` followed by the transcript; raises BudgetExceeded when
        the whole no longer fits ``char_budget``."""
        text = prefix + self.render()
        if self.char_budget is not None and len(text) > self.char_budget:
            raise BudgetExceeded(len(text), self.char_budget)
        return text


# ---------------------------------------------------------------------------
# Prompt builders


def plan_prompt_prefix(
    domain: DomainDef, problem: ProblemDef, shots: Sequence[Exemplar] = ()
) -> str:
    """The planning prompt before any transcript: template, domain, shots and
    target problem, which stay fixed across the rounds of one problem."""
    return render_template(
        load_template(TemplateId.PLAN_FEWSHOT),
        {
            "domain_pddl": print_domain(domain),
            "few_shots": "".join(s.block for s in shots),
            "instance": print_problem(problem),
        },
    )


def build_plan_prompt(
    domain: DomainDef,
    problem: ProblemDef,
    shots: Sequence[Exemplar] = (),
    transcript: Transcript | None = None,
) -> str:
    """Assemble the planning prompt; raises BudgetExceeded when too long.

    The refinement loop does not call this: it renders the prefix once per
    problem and calls ``transcript.prompt(prefix)`` each round, which yields
    the same text.
    """
    prefix = plan_prompt_prefix(domain, problem, shots)
    return prefix if transcript is None else transcript.prompt(prefix)


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
