"""Reading a dataclass from JSON by its own type hints, with one rule for
every object the program loads (a run configuration, a map file, a manifest
line, a record line): a field with no default must be present, a key that
names no field is refused, and a value must be of its field's JSON type (a
bool is no number; an enum or a ``Path`` is a string).  A value that its
dataclass refuses, such as a probability above 1, is reported with the path
of the object that refuses it.  A reader is built once per type; a path is
put into words only when shown.  ``read_lines`` is the one loop over the
lines of a JSON-lines file, a manifest or a records file.  ``check_bounds``,
run by a dataclass's ``__post_init__``, enforces the range each field's
annotation states (``k: Annotated[int, AtLeast(0)]``), however it is built."""

import dataclasses
import functools
import json
import types
import typing
from collections.abc import Mapping
from enum import Enum
from pathlib import Path

_WORDS = {int: "an integer", float: "a number", str: "a string", Path: "a string",
          bool: "true or false", tuple: "an array"}


class FormError(ValueError):
    """A JSON value not of its field's form; ``path`` leads to it by key and index."""

    path: tuple = ()

    @property
    def where(self) -> str:
        """``path`` in words, such as ``iterations[0].step``."""
        where = "".join(f"[{p}]" if type(p) is int else f".{p}" for p in self.path)
        return where.removeprefix(".")

    def __str__(self):
        return f"'{self.where}' {self.args[0]}" if self.where else f"the value {self.args[0]}"


class RefusedValue(FormError):
    """A value of its field's form that the dataclass refuses (a ValueError
    raised while building it); ``path`` leads to the refusing object."""

    def __str__(self):
        return f"{self.where}: {self.args[0]}" if self.where else self.args[0]


class OutOfRange(ValueError):
    """A value outside the range its field's annotation states: ``field``
    names it, and ``rule`` is the words that follow the name."""

    def __init__(self, field: str, rule: str):
        super().__init__(field, rule)
        self.field, self.rule = field, rule

    def __str__(self):
        return f"{self.field} {self.rule}"


@dataclasses.dataclass(frozen=True)
class Bound:
    """A field's range, stated in its annotation by a subclass; NaN is in no range."""

    low: float
    high: float = float("inf")

    def holds(self, value) -> bool:
        return self.low <= value <= self.high

    def check(self, name: str, value) -> None:
        if not self.holds(value):  # 2.0 is shown as 2, as a flag or a JSON value may give it
            raise OutOfRange(name, f"must be {self}, got {str(value).removesuffix('.0')}")

    def __str__(self):
        return self.words.format(self.low, self.high)


class AtLeast(Bound):
    words = "at least {}"


class Between(Bound):
    words = "between {} and {}"


class Above(Bound):
    words = "greater than {}"

    def holds(self, value) -> bool:
        return self.low < value <= self.high


@functools.cache
def bounds(cls) -> tuple[tuple[str, Bound, bool], ...]:
    """(field, bound, nullable) for each bound that the annotations of the
    dataclass ``cls`` state, in field order."""
    hints = typing.get_type_hints(cls, include_extras=True).items()
    return tuple((name, bound, type(None) in typing.get_args(hint.__origin__))
                 for name, hint in hints if typing.get_origin(hint) is typing.Annotated
                 for bound in hint.__metadata__ if isinstance(bound, Bound))


def check_bounds(obj) -> None:
    """Raise OutOfRange for the first field of the dataclass ``obj`` outside
    its stated range; a null passes the range of a field that may be null."""
    for name, bound, nullable in bounds(type(obj)):
        if getattr(obj, name) is not None or not nullable:
            bound.check(name, getattr(obj, name))


def from_json(cls, data, base: Path = Path()):
    """``data``, a value loaded from JSON, read as the dataclass ``cls``; a
    ``Path`` field is read relative to ``base``.  Raises FormError."""
    return _reader(cls)(data, base)


def read_lines(text: str, path: str | Path, read, error: type[ValueError]) -> list:
    """``read`` applied to the value of each non-blank line of the JSON-lines
    text ``text``, read from ``path``; lines end at ``\\n`` alone, so a raw
    U+2028 inside a string is no line end.  A line that is not JSON, or that
    ``read`` refuses with a FormError or ``error``, raises ``error`` naming
    the file and line."""
    values = []
    for number, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            try:
                values.append(read(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise error(
                    f"{path} line {number}: not JSON ({exc.msg} at column {exc.colno})"
                ) from None
            except (FormError, error) as exc:
                raise error(f"{path} line {number}: {exc}") from None
    return values


def _refused(words: str, value) -> FormError:
    shown = json.dumps(value, default=str)
    return FormError(f"must be {words}, got {shown if len(shown) <= 60 else shown[:57] + '...'}")


@functools.cache
def _reader(hint, nullable: bool = False):
    """A function ``(value, base)`` that returns ``value`` read as ``hint``,
    or None for null when ``nullable``.  The reader of an array, a mapping or
    a dataclass reads each item (and each key of a mapping, as its key type),
    and puts a refused item's index or key in front of the error's path."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None, the one union the program declares
        (some,) = [arg for arg in args if arg is not type(None)]
        return _reader(some, nullable=True)
    words = _WORDS.get(origin or hint, "an object")
    if isinstance(hint, type) and issubclass(hint, Enum):
        words = "one of " + ", ".join(json.dumps(member.value) for member in hint)
    words += " or null" * nullable
    if origin in (tuple, dict, Mapping) or dataclasses.is_dataclass(hint):
        if origin is None:  # a dataclass
            fields = [f for f in dataclasses.fields(hint) if f.init]
            hints = typing.get_type_hints(hint)
            by_key = {f.name: _reader(hints[f.name]) for f in fields}
            required = dict.fromkeys(  # in field order
                f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING
            )
        else:
            read_item = _reader(args[0] if origin is tuple else args[1])
            read_key = None if origin is tuple else _reader(args[0])

        def read(value, base):
            if type(value) is not (list if origin is tuple else dict):
                if value is None and nullable:
                    return None
                raise _refused(words, value)
            key, items = None, {}
            try:
                if origin is None:
                    if value.keys() != by_key.keys():  # a field is absent, or a key unknown
                        if not value.keys() >= required.keys():
                            key = next(name for name in required if name not in value)
                            raise FormError("is missing")
                        if not by_key.keys() >= value.keys():
                            key = next(key for key in value if key not in by_key)
                            raise FormError("is an unknown key")
                    for key, item in value.items():
                        items[key] = by_key[key](item, base)
                elif origin is tuple:
                    for key, item in enumerate(value):
                        items[key] = read_item(item, base)
                else:
                    for key, item in value.items():
                        items[read_key(key, base)] = read_item(item, base)
            except FormError as exc:
                exc.path = (key, *exc.path)
                raise
            if origin is not None:
                return tuple(items.values()) if origin is tuple else items
            try:
                return hint(**items)
            except ValueError as exc:
                raise RefusedValue(str(exc)) from exc
    else:
        convert = None  # a value of the hint's own JSON type is kept as it is
        if hint is Path:  # base / value; "" is null for a path that may be null
            convert = (lambda base, v: base / v if v else None) if nullable else Path.__truediv__
        elif issubclass(hint, Enum):
            convert = lambda base, value: hint(value)  # noqa: E731
        kinds = (str,) if convert else (int, float) if hint is float else (hint,)

        def read(value, base):
            if type(value) in kinds:
                try:
                    return value if convert is None else convert(base, value)
                except ValueError:  # no member of the enum
                    pass
            elif value is None and nullable:
                return None
            raise _refused(words, value)
    return read
