"""Reading null into a field declared as an array, a mapping or a dataclass
``| None``; no field of the package has such a type, so the fields here are
local."""

from dataclasses import dataclass

import pytest

from plancritic.jsonform import FormError, from_json


@dataclass(frozen=True)
class Inner:
    x: int


@dataclass(frozen=True)
class Nullable:
    items: tuple[int, ...] | None
    table: dict[str, int] | None
    inner: Inner | None


def test_null_reads_as_none():
    data = {"items": None, "table": None, "inner": None}
    assert from_json(Nullable, data) == Nullable(None, None, None)


def test_value_reads_as_its_type():
    data = {"items": [1, 2], "table": {"a": 1}, "inner": {"x": 3}}
    assert from_json(Nullable, data) == Nullable((1, 2), {"a": 1}, Inner(3))


@pytest.mark.parametrize(
    "key,words",
    [("items", "an array or null"), ("table", "an object or null"),
     ("inner", "an object or null")],
)
def test_other_value_refused(key, words):
    data = {"items": None, "table": None, "inner": None, key: 5}
    with pytest.raises(FormError) as exc:
        from_json(Nullable, data)
    assert str(exc.value) == f"'{key}' must be {words}, got 5"
