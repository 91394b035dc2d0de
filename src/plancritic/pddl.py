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

The tree reader scans a text with one compiled regex, whose ``findall``
yields the lexemes (parentheses, symbols, and comments as empty strings).
Symbols stay plain strings in the tree, and a list records the lexeme numbers
of itself and of its items.  A line and column are worked out from match
offsets only when an error, or a test, asks for one: only ``\\n`` ends a line,
and every other character is one column.

A problem has two paths.  The accept path reads a text in the layout that
``print_problem`` writes, with any whitespace between lexemes, in one
``fullmatch`` of ``_PROBLEM``, and makes the tree reader's checks on what it
matched.  Any other text, or one those checks refuse, goes to the tree reader
(``_read_problem``), which reads any other layout and explains every error:
the problem, or the error with its line and column, is the same on both
paths.  Plan lines work the same way: ``read_step`` reads one, for
``parse_plan`` and ``orchestrator.extract_plan`` alike, and
``_refuse_plan_line`` explains a refused one.

``problem_key`` is what a problem asks, apart from its names, so two problems
posing one task share it.

An atom carries its hash, computed when it is built, and renders its text
once.  Every ground atom the reader returns, and every atom the validator
binds (``semantics._ground``), comes from one intern table here, so each
distinct ground atom is one object and a state lookup hits on identity.  The
table holds one entry per distinct ground atom read or bound in the process.
That stays small because generated instances reuse their object names: the
200 problems of a blocksworld-5 dataset and every plan validated on them
share 41 atoms.  Atoms built directly are not interned; they are equal to,
and hash like, the interned ones.

Printing is canonical: lowercase keywords, one init/goal atom per line, init
atoms sorted, fields otherwise in declaration order.  For any value produced
by this package, ``parse(print(x)) == x``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import NoReturn


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
    """A predicate applied to arguments (objects or ?-variables).

    The hash is ``hash((pred, args))``, computed when the atom is built; the
    text is rendered on first use and kept.  Neither is pickled.
    """

    pred: str
    args: tuple[str, ...] = ()

    _text = None  # not a field: the rendered text, once rendered

    def __init__(self, pred: str, args: tuple[str, ...] = ()):
        # a frozen dataclass sets its fields through object.__setattr__;
        # writing the instance dict is the same, at a fraction of the cost
        fields = self.__dict__
        fields["pred"] = pred
        fields["args"] = args
        fields["_hash"] = hash((pred, args))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.pred == other.pred and self.args == other.args

    def __reduce__(self):
        return Atom, (self.pred, self.args)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self.__dict__["_text"] = "(" + " ".join((self.pred,) + self.args) + ")"
        return text


# the order atoms print in: by predicate, then arguments; a C-level key
ATOM_ORDER = attrgetter("pred", "args")

# every ground atom read or bound, by (pred, args); see the module docstring
_atoms: dict[tuple[str, tuple[str, ...]], Atom] = {}


def intern_atom(pred: str, args: tuple[str, ...] = ()) -> Atom:
    """The one ``Atom(pred, args)`` of this process that the reader and the
    validator share; equal to, and hashed like, any other equal atom."""
    atom = _atoms.get((pred, args))
    if atom is None:
        # setdefault is atomic, so racing threads still get one object
        atom = _atoms.setdefault((pred, args), Atom(pred, args))
    return atom


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
    """A parsed domain.

    The hash is the dataclass one, ``hash((name, requirements, predicates,
    actions))``, computed once when the domain is built: the search caches
    its grounding by domain, and each lookup would otherwise hash every
    action schema again.  ``print_domain`` keeps the text on the domain the
    first time it prints it, so every prompt that shows the domain reuses
    it, and the validator keeps its table of bound actions here
    (``semantics._ground``).  The arity of each predicate that an atom may
    name is kept here when the domain is built, for ``parse_problem``.
    Equality stays field by field.  None of the hash, the text and the two
    tables is pickled.
    """

    name: str
    requirements: tuple[str, ...]
    predicates: tuple[Predicate, ...]
    actions: tuple[ActionSchema, ...]

    _text = None  # not a field: the printed text, once printed
    _bound = None  # not a field: the validator's bound actions, by (name, args)

    def __post_init__(self):
        fields = self.__dict__
        fields["_hash"] = hash((self.name, self.requirements, self.predicates, self.actions))
        # every declared name that _atom_name accepts: all of them, unless the
        # domain was built in code rather than read
        fields["_arities"] = {
            p.name: p.arity
            for p in self.predicates
            if p.name.lower() not in _NOT_NAMES and _is_name(p.name)
        }

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return DomainDef, (self.name, self.requirements, self.predicates, self.actions)

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


def problem_key(problem: ProblemDef) -> tuple:
    """What a problem asks, apart from its names: its sorted objects, its
    ``:init`` and its ``:goal``.  Two problems with equal keys are one task."""
    return tuple(sorted(problem.objects)), problem.init, frozenset(problem.goal)


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
# Reader


# One lexeme: a ``;`` comment, read as an empty group so that it is skipped,
# or a parenthesis or a symbol in the group.  ``\s`` is ``str.isspace``.
_LEXEME = re.compile(r";[^\n]*|([()]|[^\s();]+)")


class _Source:
    """A text being read, whose first line is numbered ``first_line``.

    Lexemes are numbered in order, comments included.  Where one starts is
    worked out only when asked for, from the offsets of a second scan.
    """

    __slots__ = ("text", "first_line", "_starts")

    def __init__(self, text: str, first_line: int):
        self.text = text
        self.first_line = first_line
        self._starts: list[int] | None = None

    def position(self, index: int) -> tuple[int, int]:
        """Line and column of lexeme ``index``.  Only ``\\n`` ends a line, and
        every other character, whitespace included, is one column."""
        if self._starts is None:
            self._starts = [m.start() for m in _LEXEME.finditer(self.text)]
        offset = self._starts[index]
        line_start = self.text.rfind("\n", 0, offset) + 1
        return self.first_line + self.text.count("\n", 0, line_start), offset - line_start + 1


class _SList:
    """A parenthesized expression: its items, each a symbol (``str``) or an
    ``_SList``, and the numbers of its own and its items' first lexemes."""

    __slots__ = ("items", "_source", "_index", "_item_indexes")

    def __init__(self, items: tuple, source: _Source, index: int, item_indexes: list[int]):
        self.items = items
        self._source = source
        self._index = index
        self._item_indexes = item_indexes

    def position(self) -> tuple[int, int]:
        """Line and column of the opening parenthesis."""
        return self._source.position(self._index)

    def item_position(self, i: int) -> tuple[int, int]:
        """Line and column where item ``i`` starts."""
        return self._source.position(self._item_indexes[i])


def _read_all(text: str, first_line: int = 1) -> _SList:
    """Read every top-level s-expression in ``text``, whose first line is
    numbered ``first_line``; they are the items of the list returned, which
    has no position of its own."""
    source = _Source(text, first_line)
    stack: list[tuple[list, list[int], int]] = []
    items: list = []
    indexes: list[int] = []
    start = -1
    for index, lexeme in enumerate(_LEXEME.findall(text)):
        if lexeme == "(":
            stack.append((items, indexes, start))
            items, indexes, start = [], [], index
        elif lexeme == ")":
            if not stack:
                raise PddlSyntaxError("unbalanced ')'", *source.position(index))
            node = _SList(tuple(items), source, start, indexes)
            items, indexes, start = stack.pop()
            items.append(node)
            indexes.append(node._index)
        elif lexeme:
            items.append(lexeme)
            indexes.append(index)
    if stack:
        raise PddlSyntaxError("unbalanced '('", *source.position(start))
    return _SList(tuple(items), source, -1, indexes)


def _read_one(text: str, what: str) -> _SList:
    top = _read_all(text)
    if not top.items:
        raise PddlSyntaxError(f"empty {what}")
    if len(top.items) > 1:
        raise PddlSyntaxError(f"trailing content after {what}", *top.item_position(1))
    node = top.items[0]
    if not isinstance(node, _SList):
        raise PddlSyntaxError(f"{what} must be a parenthesized expression", *top.item_position(0))
    return node


def _is_kw(node, word: str) -> bool:
    return isinstance(node, str) and node.lower() == word


def _symbol(node: _SList, i: int, what: str) -> str:
    """Item ``i`` of ``node``, which must be a symbol."""
    item = node.items[i]
    if not isinstance(item, str):
        raise PddlSyntaxError(f"expected {what}", *item.position())
    return item


def _is_name(name: str) -> bool:
    """Whether ``name`` can name a thing; ``_check_name`` explains why not."""
    return not name.startswith((":", "?")) and name != "-"


def _check_name(name: str, node: _SList, i: int, what: str) -> str:
    """``name``, item ``i`` of ``node``, if it can name a thing."""
    if name.startswith(":") or name.startswith("?"):
        raise PddlSyntaxError(f"invalid {what} {name!r}", *node.item_position(i))
    if name == "-":
        raise UnsupportedFeature("types are not supported", *node.item_position(i))
    return name


def _read_define(text: str, kind: str, keys: tuple[str, ...]) -> tuple[str, list[tuple[str, _SList]]]:
    """Read ``(define (KIND NAME) (:KEY ...)...)``.

    Returns NAME and the ``(key, section)`` pairs in order, keys lowercased.
    A key outside ``keys`` is unsupported; only ``:action`` may repeat.
    """
    root = _read_one(text, kind)
    items = root.items
    if not items or not _is_kw(items[0], "define"):
        raise PddlSyntaxError(f"{kind} must start with (define ...)", *root.position())
    if len(items) < 2 or not isinstance(items[1], _SList):
        raise PddlSyntaxError(f"missing ({kind} NAME)", *root.position())
    head = items[1]
    if len(head.items) != 2 or not _is_kw(head.items[0], kind):
        raise PddlSyntaxError(f"missing ({kind} NAME)", *head.position())
    name = _check_name(_symbol(head, 1, f"{kind} name"), head, 1, f"{kind} name")
    sections: list[tuple[str, _SList]] = []
    for i in range(2, len(items)):
        section = items[i]
        if not isinstance(section, _SList) or not section.items:
            raise PddlSyntaxError(f"expected a {kind} section", *root.item_position(i))
        key = _symbol(section, 0, "section keyword").lower()
        if key not in keys:
            raise UnsupportedFeature(f"{kind} section {key!r}", *section.position())
        if key != ":action" and any(key == seen for seen, _ in sections):
            raise PddlSyntaxError(f"duplicate {key} section", *section.position())
        sections.append((key, section))
    return name, sections


def _parse_names(node: _SList, first: int, what: str, *, variables: bool) -> tuple[str, ...]:
    """Read the items of ``node`` from ``first`` on as an untyped list of
    distinct names: ``?``-variables or object names."""
    names: list[str] = []
    for i in range(first, len(node.items)):
        name = _symbol(node, i, what)
        if not variables:
            _check_name(name, node, i, what)
        elif name == "-":
            raise UnsupportedFeature("typed parameters are not supported", *node.item_position(i))
        elif not name.startswith("?"):
            raise PddlSyntaxError(f"{what} {name!r} must start with '?'", *node.item_position(i))
        if name in names:
            raise PddlSyntaxError(f"duplicate {what} {name!r}", *node.item_position(i))
        names.append(name)
    return tuple(names)


# ---------------------------------------------------------------------------
# Formulas
#
# A formula reader takes the expression around the formula and the formula's
# index in it, so that an error can name where the formula starts.


_ADL_WORDS = {"or", "imply", "exists", "forall", "when", "oneof", "either"}
# words that _atom_name refuses as a predicate name, lowercased
_NOT_NAMES = _ADL_WORDS | {"not", "and"}


def _atom_name(parent: _SList, i: int, what: str) -> str:
    """The predicate name heading item ``i`` of ``parent``, an atom or a
    predicate declaration."""
    node = parent.items[i]
    if not isinstance(node, _SList):
        raise PddlSyntaxError(f"expected atom in {what}", *parent.item_position(i))
    if not node.items:
        raise PddlSyntaxError(f"empty atom in {what}", *node.position())
    name = _symbol(node, 0, f"predicate name in {what}")
    word = name.lower()
    if word == "not":
        # STRIPS negates only in effects, which _parse_literal reads first
        raise UnsupportedFeature(f"negation is not supported in {what}", *node.position())
    if word in _ADL_WORDS:
        raise UnsupportedFeature(f"'{name}' is not supported", *node.item_position(0))
    if word == "and":
        raise PddlSyntaxError(f"misplaced '{name}' in {what}", *node.item_position(0))
    return _check_name(name, node, 0, "predicate name")


def _parse_atom(parent: _SList, i: int, what: str, predicates: dict[str, Predicate], objects=None) -> Atom:
    """Read an atom over a declared predicate, with the declared arity.

    Given ``objects``, the atom is ground, each argument must be one of them,
    and the atom comes from the intern table; otherwise it is a schema atom
    and each argument a ``?``-variable.
    """
    name = _atom_name(parent, i, what)
    node = parent.items[i]
    decl = predicates.get(name)
    if decl is None:
        raise UnknownPredicate(f"undeclared predicate {name!r} in {what}", *node.item_position(0))
    for j in range(1, len(node.items)):
        arg = _symbol(node, j, f"argument in {what}")
        if arg == "-":
            raise UnsupportedFeature("types are not supported", *node.item_position(j))
        if arg.startswith("?"):
            if objects is not None:
                raise PddlSyntaxError(f"variable {arg!r} in ground atom", *node.item_position(j))
        elif objects is None:
            # schema atoms must be fully lifted; bare constants would need a
            # :constants section, which the subset does not include
            raise UnsupportedFeature(f"constant {arg!r} in action definition", *node.item_position(j))
        elif arg not in objects:
            raise UnknownObject(f"undeclared object {arg!r} in {what}", *node.item_position(j))
    args = node.items[1:]
    if decl.arity != len(args):
        raise ArityMismatch(
            f"{name} expects {decl.arity} argument(s), got {len(args)} in {what}",
            *node.position(),
        )
    return Atom(name, args) if objects is None else intern_atom(name, args)


def _parse_literal(parent: _SList, i: int, what: str, predicates: dict[str, Predicate]) -> Literal:
    node = parent.items[i]
    if isinstance(node, _SList) and node.items and _is_kw(node.items[0], "not"):
        if len(node.items) != 2:
            raise PddlSyntaxError("'not' takes exactly one atom", *node.position())
        return Literal(_parse_atom(node, 1, what, predicates), positive=False)
    return Literal(_parse_atom(parent, i, what, predicates), positive=True)


def _parse_conjunction(parent: _SList, i: int, what: str, parse_item) -> tuple:
    """Parse ``(and item...)``, a bare item, or ``(and)`` for none."""
    node = parent.items[i]
    if not isinstance(node, _SList):
        raise PddlSyntaxError(f"expected {what}", *parent.item_position(i))
    if node.items and _is_kw(node.items[0], "and"):
        return tuple(parse_item(node, j, what) for j in range(1, len(node.items)))
    return (parse_item(parent, i, what),)


# ---------------------------------------------------------------------------
# Domain parsing


def _parse_action(node: _SList, predicates: dict[str, Predicate]) -> ActionSchema:
    items = node.items
    if len(items) < 2:
        raise PddlSyntaxError("incomplete action definition", *node.position())
    name = _check_name(_symbol(node, 1, "action name"), node, 1, "action name")
    params: tuple[str, ...] = ()
    precond: tuple[Atom, ...] = ()
    effects: tuple[Literal, ...] = ()
    seen: set[str] = set()
    i = 2
    while i < len(items):
        key = _symbol(node, i, "action section keyword").lower()
        if key in seen:
            raise PddlSyntaxError(f"duplicate {key} in action {name}", *node.item_position(i))
        seen.add(key)
        if i + 1 >= len(items):
            raise PddlSyntaxError(f"missing value for {key}", *node.item_position(i))
        if key == ":parameters":
            value = items[i + 1]
            if not isinstance(value, _SList):
                raise PddlSyntaxError(f"expected parameter list for {name}", *node.item_position(i + 1))
            params = _parse_names(value, 0, "parameter", variables=True)
        elif key == ":precondition":
            precond = _parse_conjunction(
                node, i + 1, f"precondition of {name}", partial(_parse_atom, predicates=predicates)
            )
        elif key == ":effect":
            effects = _parse_conjunction(
                node, i + 1, f"effect of {name}", partial(_parse_literal, predicates=predicates)
            )
        else:
            raise UnsupportedFeature(f"action section {key!r}", *node.item_position(i))
        i += 2

    param_set = set(params)
    for atom in precond + tuple(lit.atom for lit in effects):
        for arg in atom.args:
            if arg not in param_set:
                raise PddlSyntaxError(f"unbound variable {arg!r} in action {name}", *node.position())
    adds = {lit.atom for lit in effects if lit.positive}
    dels = {lit.atom for lit in effects if not lit.positive}
    conflict = adds & dels
    if conflict:
        raise PddlSyntaxError(
            f"effect of {name} both adds and deletes {next(iter(conflict))}", *node.position()
        )
    return ActionSchema(name, params, precond, effects)


def parse_domain(text: str) -> DomainDef:
    """Parse a PDDL domain, validating it against the :strips subset."""
    name, sections = _read_define(text, "domain", (":requirements", ":predicates", ":action"))
    # declarations first, so every schema atom is checked where it is read
    predicates: dict[str, Predicate] = {}
    decls = next((s for key, s in sections if key == ":predicates"), None)
    for i in range(1, len(decls.items)) if decls is not None else ():
        pred = Predicate(
            _atom_name(decls, i, ":predicates"),
            _parse_names(decls.items[i], 1, "parameter", variables=True),
        )
        if pred.name in predicates:
            raise PddlSyntaxError(f"duplicate predicate {pred.name!r}", *decls.item_position(i))
        predicates[pred.name] = pred
    actions: list[ActionSchema] = []
    for key, section in sections:
        if key == ":requirements":
            for i in range(1, len(section.items)):
                req = _symbol(section, i, "requirement")
                if req.lower() != ":strips":
                    raise UnsupportedFeature(f"requirement {req} is not supported", *section.position())
        elif key == ":action":
            schema = _parse_action(section, predicates)
            if any(a.name == schema.name for a in actions):
                raise PddlSyntaxError(f"duplicate action {schema.name!r}", *section.position())
            actions.append(schema)
    # :strips is the only requirement accepted, and the implicit one
    return DomainDef(name, (":strips",), tuple(predicates.values()), tuple(actions))


# ---------------------------------------------------------------------------
# Problem parsing


# The layout print_problem writes, with any whitespace between lexemes: the
# problem's name, its domain's name, the text of its objects and the texts of
# the atoms of :init and of (:goal (and ...)).  No class of a lexeme overlaps
# whitespace, so a match runs in linear time.
_TOKEN = r"[^\s();]+"
_ATOMS = rf"((?:\s*\(\s*{_TOKEN}(?:\s+{_TOKEN})*\s*\))*)"
_PROBLEM = re.compile(
    rf"\s*\(\s*define\s*\(\s*problem\s+({_TOKEN})\s*\)"
    rf"\s*\(\s*:domain\s+({_TOKEN})\s*\)"
    rf"\s*\(\s*:objects((?:\s+{_TOKEN})*)\s*\)"
    rf"\s*\(\s*:init{_ATOMS}\s*\)"
    rf"\s*\(\s*:goal\s*\(\s*and{_ATOMS}\s*\)\s*\)\s*\)\s*"
)
# the predicate and the argument text of each atom in an atom text of _PROBLEM
_ATOM_PARTS = re.compile(r"\(\s*([^\s()]+)([^()]*)\)")


def parse_problem(text: str, domain: DomainDef) -> ProblemDef:
    """Parse a PDDL problem and check it is consistent with ``domain``.

    A text in ``print_problem``'s layout is read in one match; any other, and
    any that fails a check, is read by the tree reader, which gives the same
    problem or the same error (see the module docstring).
    """
    match = _PROBLEM.fullmatch(text)
    if match is not None:
        name, domain_name, object_text, init_text, goal_text = match.groups()
        objects = tuple(object_text.split())
        object_set = set(objects)
        if (
            domain_name == domain.name
            and _is_name(name)
            and len(object_set) == len(objects)
            and all(map(_is_name, objects))
        ):
            init = _accept_atoms(init_text, domain._arities, object_set)
            goal = _accept_atoms(goal_text, domain._arities, object_set)
            if init is not None and goal is not None:
                return ProblemDef(name, domain_name, objects, frozenset(init), tuple(goal))
    return _read_problem(text, domain)


def _accept_atoms(text: str, arities: dict[str, int], objects: set[str]) -> list[Atom] | None:
    """The atoms of ``text``, an atom text of ``_PROBLEM``, if each names a
    predicate of ``arities`` with its arity and only ``objects``; else None."""
    atoms = []
    for pred, arg_text in _ATOM_PARTS.findall(text):
        args = tuple(arg_text.split())
        if arities.get(pred) != len(args) or not objects.issuperset(args):
            return None
        atoms.append(intern_atom(pred, args))
    return atoms


def _read_problem(text: str, domain: DomainDef) -> ProblemDef:
    """``parse_problem`` by the tree reader, for a text of any layout."""
    name, sections = _read_define(text, "problem", (":domain", ":objects", ":init", ":goal"))
    # no problem section repeats; read them in dependency order, so every
    # atom is checked against the domain and the objects where it is read
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
    parse = partial(
        _parse_atom, predicates={p.name: p for p in domain.predicates}, objects=set(objects)
    )
    init_node = section.get(":init")
    init = [parse(init_node, i, ":init") for i in range(1, len(init_node.items))] if init_node else []
    goal = _parse_conjunction(goal_node, 1, ":goal", parse)
    return ProblemDef(name, domain_name, objects, frozenset(init), goal)


# ---------------------------------------------------------------------------
# Plan parsing


# One ground action: the name and the arguments, as one string.  The token
# and whitespace classes are disjoint, so a match runs in linear time.
_STEP = re.compile(r"\(\s*([^\s();]+)((?:\s+[^\s();]+)*)\s*\)")


def read_step(line: str, domain: DomainDef) -> GroundAction | None:
    """The ground action on ``line``, a plan line stripped of its comment and
    blanks, or ``None`` if ``parse_plan`` refuses the line."""
    match = _STEP.fullmatch(line)
    if match is None:
        return None
    name, arg_text = match.groups()
    args = arg_text.split()
    schema = domain.action(name)
    if schema is None or len(schema.parameters) != len(args):
        return None
    if "?" in arg_text and any(arg.startswith("?") for arg in args):
        return None
    return GroundAction(name, tuple(args))


def _refuse_plan_line(code: str, lineno: int, domain: DomainDef) -> NoReturn:
    """Raise the error for the plan line ``code``, cut at its comment, that ``read_step`` refuses."""
    top = _read_all(code, lineno)
    if len(top.items) != 1 or not isinstance(top.items[0], _SList):
        raise PddlSyntaxError("expected one (action args...) per line", *top.item_position(0))
    node = top.items[0]
    if not node.items:
        raise PddlSyntaxError("empty action", *node.position())
    name = _symbol(node, 0, "action name")
    for i in range(1, len(node.items)):
        arg = _symbol(node, i, "action argument")
        if arg.startswith("?"):
            raise PddlSyntaxError(f"variable {arg!r} in ground action", *node.item_position(i))
    schema = domain.action(name)
    if schema is None:
        raise UnknownAction(f"unknown action {name!r}", *node.position())
    expected, got = len(schema.parameters), len(node.items) - 1
    if expected != got:
        raise ArityMismatch(f"{name} expects {expected} argument(s), got {got}", *node.position())
    raise AssertionError(f"read_step refused a well-formed plan line: {code!r}")


def parse_plan(text: str, domain: DomainDef) -> Plan:
    """Parse a plan: one parenthesized ground action per line.

    Blank lines and ``;`` comments are skipped.  Action names must be defined
    by ``domain`` and argument counts must match the schema's parameters.  An
    error carries the plan line and the column in that raw line.
    """
    steps: list[GroundAction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split(";", 1)[0]
        line = code.strip()
        if not line:
            continue
        step = read_step(line, domain)
        if step is None:
            _refuse_plan_line(code, lineno, domain)
        steps.append(step)
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
    """The domain's text, printed on the first call and kept on ``domain``.
    Threads that print a new domain at once may each render it; they keep
    equal texts."""
    if domain._text is not None:
        return domain._text
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
    text = domain.__dict__["_text"] = "\n\n".join(blocks) + ")"
    return text


def print_problem(problem: ProblemDef) -> str:
    lines = [
        f"(define (problem {problem.name})",
        f"(:domain {problem.domain_name})",
        "(:objects " + " ".join(problem.objects) + ")" if problem.objects else "(:objects)",
        "(:init",
    ]
    lines.extend(map(str, sorted(problem.init, key=ATOM_ORDER)))
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
