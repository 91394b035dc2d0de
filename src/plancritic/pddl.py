"""Parser, AST, and printer for the :strips subset of PDDL.

Input is s-expression text; ``;`` starts a comment that runs to end of line.
Keywords (``define``, ``:action``, ``and``, ``not``, ...) are matched
case-insensitively while identifiers keep their case.  The supported subset is
untyped STRIPS: predicate declarations, action schemas with conjunctive
positive preconditions and conjunctive literal effects, plain object lists,
ground positive init atoms, and a conjunctive positive goal.  Everything else
(typing, ADL connectives, quantifiers, conditional effects, numeric fluents,
negation outside effects) raises :class:`UnsupportedFeature`; a repeated
section other than ``:action`` raises :class:`PddlSyntaxError`.

Printing is canonical: lowercase keywords, one init/goal atom per line, init
atoms sorted, fields otherwise in declaration order.  For any value produced
by this package, ``parse(print(x)) == x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial


class PddlError(Exception):
    """Base class for parse and validation failures."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class PddlSyntaxError(PddlError):
    """Malformed s-expression or section structure."""


class UnsupportedFeature(PddlError):
    """Construct outside the untyped STRIPS subset."""


class ArityMismatch(PddlError):
    """Atom or ground action with the wrong number of arguments."""


class UnknownPredicate(PddlError):
    """Atom over a predicate the domain does not declare."""


class UnknownObject(PddlError):
    """Ground atom argument that is not a declared object."""


class UnknownAction(PddlError):
    """Plan step naming an action the domain does not define."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Atom:
    """A predicate applied to arguments (objects or ?-variables)."""

    pred: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return "(" + " ".join((self.pred,) + self.args) + ")"

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.pred, tuple(binding.get(a, a) for a in self.args))

    def sort_key(self) -> tuple:
        return (self.pred, self.args)


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"(not {self.atom})"


@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple[str, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    parameters: tuple[str, ...]
    precondition: tuple[Atom, ...]
    effects: tuple[Literal, ...]

    @property
    def add_effects(self) -> tuple[Atom, ...]:
        return tuple(lit.atom for lit in self.effects if lit.positive)

    @property
    def del_effects(self) -> tuple[Atom, ...]:
        return tuple(lit.atom for lit in self.effects if not lit.positive)


@dataclass(frozen=True)
class DomainDef:
    name: str
    requirements: tuple[str, ...]
    predicates: tuple[Predicate, ...]
    actions: tuple[ActionSchema, ...]

    def action(self, name: str) -> ActionSchema | None:
        for a in self.actions:
            if a.name == name:
                return a
        return None


@dataclass(frozen=True)
class ProblemDef:
    name: str
    domain_name: str
    objects: tuple[str, ...]
    init: frozenset[Atom]
    goal: tuple[Atom, ...]


@dataclass(frozen=True)
class GroundAction:
    name: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return "(" + " ".join((self.name,) + self.args) + ")"


@dataclass(frozen=True)
class Plan:
    steps: tuple[GroundAction, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# Tokenizer / reader


@dataclass(frozen=True)
class _Sym:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class _SList:
    items: tuple
    line: int
    col: int


def _tokenize(text: str):
    line, col = 1, 1
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


def _read_all(text: str) -> list:
    """Read every top-level s-expression in ``text``."""
    stack: list[list] = []
    top: list = []
    positions: list[tuple[int, int]] = []
    for tok, line, col in _tokenize(text):
        if tok == "(":
            stack.append([])
            positions.append((line, col))
        elif tok == ")":
            if not stack:
                raise PddlSyntaxError("unbalanced ')'", line, col)
            items = stack.pop()
            pline, pcol = positions.pop()
            node = _SList(tuple(items), pline, pcol)
            (stack[-1] if stack else top).append(node)
        else:
            node = _Sym(tok, line, col)
            (stack[-1] if stack else top).append(node)
    if stack:
        line, col = positions[-1]
        raise PddlSyntaxError("unbalanced '('", line, col)
    return top


def _read_one(text: str, what: str) -> _SList:
    nodes = _read_all(text)
    if not nodes:
        raise PddlSyntaxError(f"empty {what}")
    if len(nodes) > 1:
        extra = nodes[1]
        raise PddlSyntaxError(f"trailing content after {what}", extra.line, extra.col)
    node = nodes[0]
    if not isinstance(node, _SList):
        raise PddlSyntaxError(f"{what} must be a parenthesized expression", node.line, node.col)
    return node


def _is_kw(node, word: str) -> bool:
    return isinstance(node, _Sym) and node.text.lower() == word


def _sym_text(node, what: str) -> str:
    if not isinstance(node, _Sym):
        raise PddlSyntaxError(f"expected {what}", node.line, node.col)
    return node.text


def _check_name(name: str, node, what: str) -> str:
    if name.startswith(":") or name.startswith("?"):
        raise PddlSyntaxError(f"invalid {what} {name!r}", node.line, node.col)
    if name == "-":
        raise UnsupportedFeature("types are not supported", node.line, node.col)
    return name


def _read_define(text: str, kind: str, keys: tuple[str, ...]) -> tuple[str, list[tuple[str, _SList]]]:
    """Read ``(define (KIND NAME) (:KEY ...)...)``.

    Returns NAME and the ``(key, section)`` pairs in order, keys lowercased.
    A key outside ``keys`` is unsupported; only ``:action`` may repeat.
    """
    root = _read_one(text, kind)
    items = root.items
    if not items or not _is_kw(items[0], "define"):
        raise PddlSyntaxError(f"{kind} must start with (define ...)", root.line, root.col)
    if len(items) < 2 or not isinstance(items[1], _SList):
        raise PddlSyntaxError(f"missing ({kind} NAME)", root.line, root.col)
    head = items[1].items
    if len(head) != 2 or not _is_kw(head[0], kind):
        raise PddlSyntaxError(f"missing ({kind} NAME)", items[1].line, items[1].col)
    name = _check_name(_sym_text(head[1], f"{kind} name"), head[1], f"{kind} name")
    sections: list[tuple[str, _SList]] = []
    for section in items[2:]:
        if not isinstance(section, _SList) or not section.items:
            raise PddlSyntaxError(f"expected a {kind} section", section.line, section.col)
        key = _sym_text(section.items[0], "section keyword").lower()
        if key not in keys:
            raise UnsupportedFeature(f"{kind} section {key!r}", section.line, section.col)
        if key != ":action" and any(key == seen for seen, _ in sections):
            raise PddlSyntaxError(f"duplicate {key} section", section.line, section.col)
        sections.append((key, section))
    return name, sections


def _parse_names(items, what: str, *, variables: bool) -> tuple[str, ...]:
    """Read an untyped list of distinct names: ``?``-variables or object names."""
    names: list[str] = []
    for item in items:
        name = _sym_text(item, what)
        if not variables:
            _check_name(name, item, what)
        elif name == "-":
            raise UnsupportedFeature("typed parameters are not supported", item.line, item.col)
        elif not name.startswith("?"):
            raise PddlSyntaxError(f"{what} {name!r} must start with '?'", item.line, item.col)
        if name in names:
            raise PddlSyntaxError(f"duplicate {what} {name!r}", item.line, item.col)
        names.append(name)
    return tuple(names)


# ---------------------------------------------------------------------------
# Formulas


_ADL_WORDS = {"or", "imply", "exists", "forall", "when", "oneof", "either"}


def _parse_atom(node, what: str, *, allow_variables: bool = False) -> Atom:
    if not isinstance(node, _SList):
        raise PddlSyntaxError(f"expected atom in {what}", node.line, node.col)
    if not node.items:
        raise PddlSyntaxError(f"empty atom in {what}", node.line, node.col)
    head = node.items[0]
    name = _sym_text(head, f"predicate name in {what}")
    word = name.lower()
    if word == "not":
        # STRIPS negates only in effects, which _parse_literal reads first
        raise UnsupportedFeature(f"negation is not supported in {what}", node.line, node.col)
    if word in _ADL_WORDS:
        raise UnsupportedFeature(f"'{name}' is not supported", head.line, head.col)
    if word == "and":
        raise PddlSyntaxError(f"misplaced '{name}' in {what}", head.line, head.col)
    _check_name(name, head, "predicate name")
    args = []
    for item in node.items[1:]:
        arg = _sym_text(item, f"argument in {what}")
        if arg == "-":
            raise UnsupportedFeature("types are not supported", item.line, item.col)
        if arg.startswith("?"):
            if not allow_variables:
                raise PddlSyntaxError(f"variable {arg!r} in ground atom", item.line, item.col)
        elif allow_variables:
            # schema atoms must be fully lifted; bare constants would need a
            # :constants section, which the subset does not include
            raise UnsupportedFeature(f"constant {arg!r} in action definition", item.line, item.col)
        args.append(arg)
    return Atom(name, tuple(args))


def _parse_literal(node, what: str) -> Literal:
    if isinstance(node, _SList) and node.items and _is_kw(node.items[0], "not"):
        if len(node.items) != 2:
            raise PddlSyntaxError("'not' takes exactly one atom", node.line, node.col)
        return Literal(_parse_atom(node.items[1], what, allow_variables=True), positive=False)
    return Literal(_parse_atom(node, what, allow_variables=True), positive=True)


def _parse_conjunction(node, what: str, parse_item=_parse_atom) -> tuple:
    """Parse ``(and item...)``, a bare item, or ``(and)`` for none."""
    if not isinstance(node, _SList):
        raise PddlSyntaxError(f"expected {what}", node.line, node.col)
    items = node.items[1:] if node.items and _is_kw(node.items[0], "and") else (node,)
    return tuple(parse_item(item, what) for item in items)


def _check_atoms(atoms, predicates: dict[str, Predicate], where: str, objects=None) -> None:
    """Check each atom's predicate and arity and, given ``objects``, its arguments."""
    for atom in atoms:
        decl = predicates.get(atom.pred)
        if decl is None:
            raise UnknownPredicate(f"undeclared predicate {atom.pred!r} in {where}")
        if decl.arity != len(atom.args):
            raise ArityMismatch(
                f"{atom.pred} expects {decl.arity} argument(s), got {len(atom.args)} in {where}"
            )
        if objects is not None:
            for arg in atom.args:
                if arg not in objects:
                    raise UnknownObject(f"undeclared object {arg!r} in {where}")


# ---------------------------------------------------------------------------
# Domain parsing


def _parse_action(node) -> ActionSchema:
    items = node.items
    if len(items) < 2:
        raise PddlSyntaxError("incomplete action definition", node.line, node.col)
    name = _check_name(_sym_text(items[1], "action name"), items[1], "action name")
    params: tuple[str, ...] = ()
    precond: tuple[Atom, ...] = ()
    effects: tuple[Literal, ...] = ()
    seen: set[str] = set()
    i = 2
    while i < len(items):
        key_node = items[i]
        key = _sym_text(key_node, "action section keyword").lower()
        if key in seen:
            raise PddlSyntaxError(f"duplicate {key} in action {name}", key_node.line, key_node.col)
        seen.add(key)
        if i + 1 >= len(items):
            raise PddlSyntaxError(f"missing value for {key}", key_node.line, key_node.col)
        value = items[i + 1]
        if key == ":parameters":
            if not isinstance(value, _SList):
                raise PddlSyntaxError(f"expected parameter list for {name}", value.line, value.col)
            params = _parse_names(value.items, "parameter", variables=True)
        elif key == ":precondition":
            precond = _parse_conjunction(
                value, f"precondition of {name}", partial(_parse_atom, allow_variables=True)
            )
        elif key == ":effect":
            effects = _parse_conjunction(value, f"effect of {name}", _parse_literal)
        else:
            raise UnsupportedFeature(f"action section {key!r}", key_node.line, key_node.col)
        i += 2

    param_set = set(params)
    for atom in precond + tuple(lit.atom for lit in effects):
        for arg in atom.args:
            if arg not in param_set:
                raise PddlSyntaxError(f"unbound variable {arg!r} in action {name}", node.line, node.col)
    adds = {lit.atom for lit in effects if lit.positive}
    dels = {lit.atom for lit in effects if not lit.positive}
    conflict = adds & dels
    if conflict:
        raise PddlSyntaxError(
            f"effect of {name} both adds and deletes {next(iter(conflict))}", node.line, node.col
        )
    return ActionSchema(name, params, precond, effects)


def parse_domain(text: str) -> DomainDef:
    """Parse a PDDL domain, validating it against the :strips subset."""
    name, sections = _read_define(text, "domain", (":requirements", ":predicates", ":action"))
    predicates: dict[str, Predicate] = {}
    actions: list[ActionSchema] = []
    for key, section in sections:
        if key == ":requirements":
            for item in section.items[1:]:
                req = _sym_text(item, "requirement")
                if req.lower() != ":strips":
                    raise UnsupportedFeature(
                        f"requirement {req} is not supported", section.line, section.col
                    )
        elif key == ":predicates":
            for decl in section.items[1:]:
                atom = _parse_atom(decl, ":predicates", allow_variables=True)
                if atom.pred in predicates:
                    raise PddlSyntaxError(
                        f"duplicate predicate {atom.pred!r}", decl.line, decl.col
                    )
                predicates[atom.pred] = Predicate(atom.pred, atom.args)
        else:
            schema = _parse_action(section)
            if any(a.name == schema.name for a in actions):
                raise PddlSyntaxError(f"duplicate action {schema.name!r}", section.line, section.col)
            actions.append(schema)

    for schema in actions:
        atoms = schema.precondition + tuple(lit.atom for lit in schema.effects)
        _check_atoms(atoms, predicates, f"action {schema.name}")
    # :strips is the only requirement accepted, and the implicit one
    return DomainDef(name, (":strips",), tuple(predicates.values()), tuple(actions))


# ---------------------------------------------------------------------------
# Problem parsing


def parse_problem(text: str, domain: DomainDef) -> ProblemDef:
    """Parse a PDDL problem and check it is consistent with ``domain``."""
    name, sections = _read_define(text, "problem", (":domain", ":objects", ":init", ":goal"))
    domain_name: str | None = None
    objects: tuple[str, ...] = ()
    init: list[Atom] = []
    goal: tuple[Atom, ...] | None = None
    for key, section in sections:
        args = section.items[1:]
        if key == ":domain":
            if len(args) != 1:
                raise PddlSyntaxError("(:domain NAME) takes one name", section.line, section.col)
            domain_name = _sym_text(args[0], "domain name")
        elif key == ":objects":
            objects = _parse_names(args, "object name", variables=False)
        elif key == ":init":
            init = [_parse_atom(item, ":init") for item in args]
        else:
            if len(args) != 1:
                raise PddlSyntaxError("(:goal ...) takes one formula", section.line, section.col)
            goal = _parse_conjunction(args[0], ":goal")

    if domain_name is None:
        raise PddlSyntaxError("problem is missing a (:domain ...) section")
    if domain_name != domain.name:
        raise PddlSyntaxError(
            f"problem references domain {domain_name!r}, expected {domain.name!r}"
        )
    if goal is None:
        raise PddlSyntaxError("problem is missing a (:goal ...) section")

    predicates = {p.name: p for p in domain.predicates}
    object_set = set(objects)
    _check_atoms(init, predicates, "init", object_set)
    _check_atoms(goal, predicates, "goal", object_set)
    return ProblemDef(name, domain_name, objects, frozenset(init), goal)


# ---------------------------------------------------------------------------
# Plan parsing


def parse_plan(text: str, domain: DomainDef) -> Plan:
    """Parse a plan: one parenthesized ground action per line.

    Blank lines and ``;`` comments are skipped.  Action names must be defined
    by ``domain`` and argument counts must match the schema's parameters.
    """
    steps: list[GroundAction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        nodes = _read_all(line)
        if len(nodes) != 1 or not isinstance(nodes[0], _SList):
            raise PddlSyntaxError("expected one (action args...) per line", lineno, 1)
        node = nodes[0]
        if not node.items:
            raise PddlSyntaxError("empty action", lineno, 1)
        name = _sym_text(node.items[0], "action name")
        args = []
        for item in node.items[1:]:
            arg = _sym_text(item, "action argument")
            if arg.startswith("?"):
                raise PddlSyntaxError(f"variable {arg!r} in ground action", item.line, item.col)
            args.append(arg)
        schema = domain.action(name)
        if schema is None:
            raise UnknownAction(f"unknown action {name!r}", lineno, node.col)
        if len(schema.parameters) != len(args):
            raise ArityMismatch(
                f"{name} expects {len(schema.parameters)} argument(s), got {len(args)}",
                lineno,
                node.col,
            )
        steps.append(GroundAction(name, tuple(args)))
    return Plan(tuple(steps))


# ---------------------------------------------------------------------------
# Printing


def _format_conjunction(parts: tuple) -> str:
    if not parts:
        return "(and)"
    if len(parts) == 1:
        return str(parts[0])
    return "(and " + " ".join(str(p) for p in parts) + ")"


def print_domain(domain: DomainDef) -> str:
    lines = [f"(define (domain {domain.name})", "(:requirements " + " ".join(domain.requirements) + ")"]
    if domain.predicates:
        decls = [
            "(" + " ".join((p.name,) + p.params) + ")" for p in domain.predicates
        ]
        pred_lines = ["(:predicates " + decls[0]]
        pred_lines.extend(" " * len("(:predicates ") + d for d in decls[1:])
        pred_lines[-1] += ")"
        lines.extend(pred_lines)
    else:
        lines.append("(:predicates)")
    blocks = ["\n".join(lines)]
    for schema in domain.actions:
        blocks.append(
            "\n".join(
                [
                    f"(:action {schema.name}",
                    "  :parameters (" + " ".join(schema.parameters) + ")",
                    "  :precondition " + _format_conjunction(schema.precondition),
                    "  :effect " + _format_conjunction(schema.effects) + ")",
                ]
            )
        )
    return "\n\n".join(blocks) + ")"


def print_problem(problem: ProblemDef) -> str:
    lines = [
        f"(define (problem {problem.name})",
        f"(:domain {problem.domain_name})",
        "(:objects " + " ".join(problem.objects) + ")" if problem.objects else "(:objects)",
        "(:init",
    ]
    lines.extend(str(atom) for atom in sorted(problem.init, key=Atom.sort_key))
    lines.append(")")
    if problem.goal:
        lines.append("(:goal (and")
        lines.extend(str(atom) for atom in problem.goal)
        lines.append("))")
    else:
        lines.append("(:goal (and))")
    lines.append(")")
    return "\n".join(lines)


def print_plan(plan: Plan) -> str:
    return "\n".join(str(step) for step in plan.steps)
