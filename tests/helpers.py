"""Plan mutation helpers, reference versions of the reader, the validator
and the plan extractor, used by the equivalence tests, and the helpers that
only tests call (a map's inverse, one step's precondition checks, one step
applied, a records file written whole, a dataset held in memory, an atom's
substitution, and the mystery domain that the deceptive renaming must give).

The reference reader walks the text one character at a time, the way the
PDDL reader did before it scanned with one regex.  The reference problem
parser is ``parse_problem`` as it was before it read the printed layout in
one match: every text goes to the tree reader, whose per-atom shortcut it
keeps.  The reference validator binds the schema afresh on every step,
substituting each precondition and effect, the way the validator did before
it kept a table of ground actions; it shares no code with ``semantics._step``.  The reference plan parser is
``parse_plan`` as it was before it shared ``read_step`` with the extractor,
reading a refused line with the reference reader.  The reference extractor
runs it on every reply line, as ``extract_plan`` did before it read each line
with one match.

Each mutation of a *shortest* plan is guaranteed non-correct:

* drop: removing a step from a shortest plan cannot leave a valid plan (it
  would contradict minimality).
* swap: every blocksworld action either requires the hand empty or requires
  it holding something, and flips that state; swapping two adjacent steps
  therefore always fails exactly at the first swapped position.
* replace: a random replacement may coincidentally still work, so candidates
  are filtered through the independent executor until one breaks the plan.
"""

import functools
import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path

from plancritic.generators import Dataset, ManifestEntry, ObfuscationMap
from plancritic.orchestrator import _NUMBERING, _record_line
from plancritic.pddl import (
    _NOT_NAMES,
    ArityMismatch,
    Atom,
    DomainDef,
    GroundAction,
    PddlError,
    PddlSyntaxError,
    Plan,
    ProblemDef,
    UnknownAction,
    _parse_atom,
    _parse_conjunction,
    _parse_names,
    _read_define,
    _SList,
    _symbol,
    intern_atom,
    parse_domain,
)
from plancritic.search import ground_actions, run_plan
from plancritic.semantics import (
    Correct,
    GoalNotReached,
    StepTrace,
    ValidationResult,
    WrongAtStep,
    _step,
)


# the blocksworld domain under the deceptive renaming (criterion 3's reference)
MYSTERY_DOMAIN = """\
(define (domain mystery-4ops)
(:requirements :strips)
(:predicates (province ?x)
             (planet ?x)
             (harmony)
             (pain ?x)
             (craves ?x ?y))

(:action attack
  :parameters (?ob)
  :precondition (and (province ?ob) (planet ?ob) (harmony))
  :effect (and (pain ?ob) (not (province ?ob)) (not (planet ?ob))
               (not (harmony))))

(:action succumb
  :parameters (?ob)
  :precondition (pain ?ob)
  :effect (and (province ?ob) (harmony) (planet ?ob)
               (not (pain ?ob))))

(:action overcome
  :parameters (?ob ?underob)
  :precondition (and (province ?underob) (pain ?ob))
  :effect (and (harmony) (province ?ob) (craves ?ob ?underob)
               (not (province ?underob)) (not (pain ?ob))))

(:action feast
  :parameters (?ob ?underob)
  :precondition (and (craves ?ob ?underob) (province ?ob) (harmony))
  :effect (and (pain ?ob) (province ?underob)
               (not (craves ?ob ?underob))
               (not (province ?ob)) (not (harmony)))))
"""


@functools.cache
def mystery_domain() -> DomainDef:
    return parse_domain(MYSTERY_DOMAIN)


def substitute(atom: Atom, binding: dict[str, str]) -> Atom:
    """``atom`` with each argument bound in ``binding`` replaced."""
    return Atom(atom.pred, tuple(binding.get(a, a) for a in atom.args))


def tree_digest(root):
    """Hash of every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def inverse_map(mapping: ObfuscationMap) -> ObfuscationMap:
    return ObfuscationMap(
        mode=mapping.mode,
        predicates={v: k for k, v in mapping.predicates.items()},
        actions={v: k for k, v in mapping.actions.items()},
        objects={v: k for k, v in mapping.objects.items()},
        domain_names={v: k for k, v in mapping.domain_names.items()},
        problem_names={v: k for k, v in mapping.problem_names.items()},
    )


def precondition_checks(state, action: GroundAction, domain: DomainDef) -> tuple:
    """Each ground precondition of ``action`` and whether ``state`` holds it,
    as the validator checks them."""
    return _step(state, action, domain)[0]


def is_applicable(state, action: GroundAction, domain: DomainDef) -> tuple:
    """Return ``(ok, unmet)`` where ``unmet`` lists every failing precondition."""
    checks = precondition_checks(state, action, domain)
    unmet = tuple(atom for atom, ok in checks if not ok)
    return not unmet, unmet


class InapplicableAction(PddlError):
    """Raised by :func:`apply` when preconditions do not hold."""

    def __init__(self, action: GroundAction, unmet: tuple[Atom, ...]):
        super().__init__(
            f"preconditions not met for {action}: " + ", ".join(str(a) for a in unmet)
        )
        self.action = action
        self.unmet = unmet


def apply(state, action: GroundAction, domain: DomainDef) -> frozenset:
    """Apply ``action`` to ``state``; raises InapplicableAction if it cannot fire."""
    checks, after = _step(state, action, domain)
    if after is None:
        raise InapplicableAction(action, tuple(atom for atom, ok in checks if not ok))
    return after


def write_records(path, records) -> None:
    """Write ``records`` as a records file, one line each as the loop writes them."""
    with Path(path).open("w") as fh:
        fh.writelines(_record_line(record) for record in records)


def dataset_of(domain: DomainDef, problems: dict, plans: dict) -> Dataset:
    """A ``Dataset`` of ``problems`` and ``plans`` by id, in ``problems``'
    order, as ``load_dataset`` would return it; no file is written."""
    entries = tuple(
        ManifestEntry(
            id=pid, domain_file=Path("domain.pddl"), problem_file=Path(f"{pid}.pddl"), index=i
        )
        for i, pid in enumerate(problems)
    )
    return Dataset(entries, domain, dict(problems), dict(plans))


def mutate_drop(plan: Plan, rng: random.Random) -> Plan:
    i = rng.randrange(len(plan.steps))
    return Plan(plan.steps[:i] + plan.steps[i + 1 :])


def mutate_swap(plan: Plan, rng: random.Random) -> tuple[Plan, int]:
    """Swap two adjacent steps; returns (plan, 1-based index of first swapped)."""
    i = rng.randrange(len(plan.steps) - 1)
    steps = list(plan.steps)
    steps[i], steps[i + 1] = steps[i + 1], steps[i]
    return Plan(tuple(steps)), i + 1


def mutate_replace(
    domain: DomainDef, problem: ProblemDef, plan: Plan, rng: random.Random, attempts: int = 200
) -> Plan:
    """Replace one step with a random ground action so the plan breaks.

    Candidates that still reach the goal (checked with the independent
    executor, not the validator under test) are rejected and resampled.
    """
    actions = ground_actions(domain, problem)
    for _ in range(attempts):
        i = rng.randrange(len(plan.steps))
        replacement = actions[rng.randrange(len(actions))]
        if replacement == plan.steps[i]:
            continue
        steps = list(plan.steps)
        steps[i] = replacement
        candidate = Plan(tuple(steps))
        if not run_plan(domain, problem, candidate).accepted:
            return candidate
    raise AssertionError("could not find a breaking replacement")


def reference_step(state, action, domain: DomainDef):
    """``(checks, state after or None)`` for one step, substituting the
    bound schema's atoms on every call."""
    schema = domain.action(action.name)
    if schema is None:
        raise UnknownAction(f"unknown action {action.name!r}")
    if len(schema.parameters) != len(action.args):
        raise ArityMismatch(f"{action.name} expects {len(schema.parameters)} argument(s)")
    binding = dict(zip(schema.parameters, action.args))
    checks = tuple(
        (ground, ground in state)
        for ground in (substitute(atom, binding) for atom in schema.precondition)
    )
    if not all(ok for _, ok in checks):
        return checks, None
    dels = {substitute(atom, binding) for atom in schema.del_effects}
    adds = {substitute(atom, binding) for atom in schema.add_effects}
    return checks, (state - dels) | adds


def reference_validate(problem: ProblemDef, plan: Plan, domain: DomainDef) -> ValidationResult:
    """The validation result ``semantics.validate_plan`` must return."""
    state = frozenset(problem.init)
    trace = []
    for index, action in enumerate(plan.steps, start=1):
        checks, after = reference_step(state, action, domain)
        trace.append(StepTrace(index, action, checks, after))
        if after is None:
            return ValidationResult(WrongAtStep(index, trace[-1].unmet), tuple(trace))
        state = after
    unsatisfied = tuple(atom for atom in problem.goal if atom not in state)
    verdict = GoalNotReached(unsatisfied) if unsatisfied else Correct()
    return ValidationResult(verdict, tuple(trace))


@dataclass(frozen=True)
class RefSym:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class RefList:
    items: tuple
    line: int
    col: int


def _reference_lexemes(text: str, line: int):
    col = 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line, col
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and not text[i].isspace() and text[i] not in "();":
                i += 1
                col += 1
            yield text[start:i], line, start_col


def reference_read(text: str, first_line: int = 1) -> list:
    """Every top-level s-expression in ``text``, as ``RefSym`` and ``RefList``
    nodes; raises the reader's ``PddlSyntaxError`` for unbalanced input."""
    stack: list[list] = []
    top: list = []
    positions: list[tuple[int, int]] = []
    for tok, line, col in _reference_lexemes(text, first_line):
        if tok == "(":
            stack.append([])
            positions.append((line, col))
        elif tok == ")":
            if not stack:
                raise PddlSyntaxError("unbalanced ')'", line, col)
            items = stack.pop()
            pline, pcol = positions.pop()
            (stack[-1] if stack else top).append(RefList(tuple(items), pline, pcol))
        else:
            (stack[-1] if stack else top).append(RefSym(tok, line, col))
    if stack:
        line, col = positions[-1]
        raise PddlSyntaxError("unbalanced '('", line, col)
    return top


_REF_STEP = re.compile(r"\(\s*([^\s();]+)((?:\s+[^\s();]+)*)\s*\)")
_REF_TOKEN = re.compile(r"[^\s();]+")


def _reference_refuse_plan_line(code: str, lineno: int, column: int):
    """Raise the error for a line ``_REF_STEP`` refuses, read with
    ``reference_read``; ``column`` is that of its first non-blank character."""
    top = reference_read(code, lineno)
    if len(top) != 1 or not isinstance(top[0], RefList):
        raise PddlSyntaxError("expected one (action args...) per line", lineno, column)
    node = top[0]
    if not node.items:
        raise PddlSyntaxError("empty action", node.line, node.col)
    for i, item in enumerate(node.items):
        if isinstance(item, RefList):
            what = "action argument" if i else "action name"
            raise PddlSyntaxError(f"expected {what}", item.line, item.col)
        if i and item.text.startswith("?"):
            raise PddlSyntaxError(f"variable {item.text!r} in ground action", item.line, item.col)
    raise AssertionError(f"refused a well-formed plan line: {code!r}")


def reference_parse_plan(text: str, domain: DomainDef) -> Plan:
    """The plan, or the error, ``pddl.parse_plan`` must give."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split(";", 1)[0]
        line = code.strip()
        if not line:
            continue
        indent = len(code) - len(code.lstrip())
        match = _REF_STEP.fullmatch(line)
        if match is None:
            _reference_refuse_plan_line(code, lineno, indent + 1)
        name, arg_text = match.groups()
        for token in _REF_TOKEN.finditer(arg_text):
            if token.group().startswith("?"):
                column = indent + match.start(2) + token.start() + 1
                raise PddlSyntaxError(f"variable {token.group()!r} in ground action", lineno, column)
        args = tuple(arg_text.split())
        schema = domain.action(name)
        if schema is None:
            raise UnknownAction(f"unknown action {name!r}", lineno, indent + 1)
        if len(schema.parameters) != len(args):
            raise ArityMismatch(
                f"{name} expects {len(schema.parameters)} argument(s), got {len(args)}",
                lineno,
                indent + 1,
            )
        steps.append(GroundAction(name, args))
    return Plan(tuple(steps))


def reference_extract_plan(text: str, domain: DomainDef) -> Plan:
    """The plan ``orchestrator.extract_plan`` must return."""
    steps = []
    for raw_line in text.splitlines():
        line = _NUMBERING.sub("", raw_line.split(";", 1)[0].strip())
        if not (line.startswith("(") and line.endswith(")")):
            continue
        try:
            parsed = reference_parse_plan(line, domain)
        except PddlError:
            continue
        steps.extend(parsed.steps)
    return Plan(tuple(steps))


def reference_parse_problem(text: str, domain: DomainDef) -> ProblemDef:
    """The problem, or the error, ``pddl.parse_problem`` must give."""
    name, sections = _read_define(text, "problem", (":domain", ":objects", ":init", ":goal"))
    section = dict(sections)
    if ":domain" not in section:
        raise PddlSyntaxError("problem is missing a (:domain ...) section")
    node = section[":domain"]
    if len(node.items) != 2:
        raise PddlSyntaxError("(:domain NAME) takes one name", *node.position())
    domain_name = _symbol(node, 1, "domain name")
    if domain_name != domain.name:
        raise PddlSyntaxError(
            f"problem references domain {domain_name!r}, expected {domain.name!r}",
            *node.item_position(1),
        )
    if ":goal" not in section:
        raise PddlSyntaxError("problem is missing a (:goal ...) section")
    goal_node = section[":goal"]
    if len(goal_node.items) != 2:
        raise PddlSyntaxError("(:goal ...) takes one formula", *goal_node.position())

    objects: tuple[str, ...] = ()
    if ":objects" in section:
        objects = _parse_names(section[":objects"], 1, "object name", variables=False)
    object_set = set(objects)
    predicates = {p.name: p for p in domain.predicates}
    arities = {
        pred: p.arity
        for pred, p in predicates.items()
        if pred.lower() not in _NOT_NAMES and pred[:1] not in (":", "?") and pred != "-"
    }

    def parse(parent: _SList, i: int, what: str) -> Atom:
        node = parent.items[i]
        if node.__class__ is _SList and node.items:
            args = node.items[1:]
            if arities.get(node.items[0]) == len(args) and object_set.issuperset(args):
                return intern_atom(node.items[0], args)
        return _parse_atom(parent, i, what, predicates, object_set)

    init_node = section.get(":init")
    init = [parse(init_node, i, ":init") for i in range(1, len(init_node.items))] if init_node else []
    goal = _parse_conjunction(goal_node, 1, ":goal", parse)
    return ProblemDef(name, domain_name, objects, frozenset(init), goal)
