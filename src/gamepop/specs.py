"""Field declarations of the run-description dataclasses, and the one
reader that builds them from JSON and echoes them back.

Every field of a run description (engine specs, `oracles.DqnOracle`, the
meta-solver kinds, the game parameters of `gamepop.games.GAMES`) is
declared once, on the dataclass: its type annotation, its default, and in
`dataclasses.field` metadata, whatever else the JSON config and the
construction-time check need:

- ``json``: its key in the config, where that differs from the attribute;
- ``ge``, ``gt``, ``le``: bounds on a number, or on each item of a tuple;
- ``choices``: the allowed strings;
- ``none``: the config spelling of ``None`` besides ``null``;
- ``union``: the `TaggedUnion` its value belongs to.

A ``@spec(error)`` class enforces the bounds and choices (`check`) and its
own ``__post_init__`` on construction, raising `error`. `read` checks keys
and types, builds a spec and raises the error its caller passes, naming the
field by its JSON path; `echo` turns a spec back into JSON, defaults
materialized. `gamepop.config` and `gamepop.games.make_game` both read with
it, so they refuse the same values with the same text.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<=")}

# Annotation -> (accepted JSON value types, what the error says is expected).
_SCALARS = {bool: (bool, "a boolean"), int: (int, "an integer"),
            float: ((int, float), "a number"), str: (str, "a string")}


# A tagged union of specs: the JSON key holding the tag, what a tag names in
# errors, and each tag's spec class.
TaggedUnion = namedtuple("TaggedUnion", "tag noun members")


def setting(default=MISSING, **meta):
    """A spec field with `default` (none when omitted) and the declarations
    `meta` listed in the module docstring."""
    return field(default=default, metadata=meta)


def spec(error):
    """Class decorator: a frozen dataclass that runs `check(self, error)`,
    then the class's own `__post_init__`, when it is constructed."""
    def declare(cls):
        own = cls.__dict__.get("__post_init__")

        def __post_init__(self):
            check(self, error)
            if own is not None:
                own(self)
        cls.__post_init__ = __post_init__
        cls._spec_error = error
        return dataclass(frozen=True)(cls)
    return declare


def check(spec, error) -> None:
    """Raise `error` naming the first field of `spec` whose value breaks its
    declared bounds or choices."""
    for f in fields(spec):
        meta, value = f.metadata, getattr(spec, f.name)
        if value is None:
            continue
        name = meta.get("json", f.name)
        if "choices" in meta and value not in meta["choices"]:
            raise error(f"{name}: must be {' or '.join(meta['choices'])}")
        items = value if isinstance(value, tuple) else (value,)
        for key, (holds, sign) in _BOUNDS.items():
            if key in meta and not all(holds(v, meta[key]) for v in items):
                raise error(f"{name}: must be {sign} {meta[key]}")


# ---------------------------------------------------------------------------
# Reading JSON into specs


@cache
def _fields(cls) -> tuple:
    """(JSON key, field, resolved annotation) for each field of a spec."""
    hints = get_type_hints(cls)
    return tuple((f.metadata.get("json", f.name), f, hints[f.name])
                 for f in fields(cls))


def check_keys(obj, path, required, optional, error) -> None:
    """Raise `error` unless `obj` is an object holding every key of
    `required` and no key outside `required` and `optional`."""
    if not isinstance(obj, dict):
        raise error(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise error(f"{path}: unknown field {unknown[0]!r}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise error(f"{path}: missing field {missing[0]!r}")


def lookup(table, name, path, noun, error):
    """`table[name]`; an unknown name is refused with the valid ones."""
    if not isinstance(name, str) or name not in table:
        raise error(f"{path}: unknown {noun} {name!r}; valid names: "
                    f"{sorted(table)}")
    return table[name]


def read(cls, obj, path, error, **given):
    """A `cls` spec from its JSON object `obj` at `path` ("" at the top),
    but for the fields `given` already read. Absent fields keep the
    dataclass default; a field without one is required."""
    check_keys(obj, path,
               [key for key, f, _ in _fields(cls) if f.default is MISSING],
               [key for key, _, _ in _fields(cls)], error)
    prefix = f"{path}." if path else ""
    kwargs = {f.name: _value(kind, f.metadata, obj[key], prefix + key, error)
              for key, f, kind in _fields(cls)
              if key in obj and f.name not in given}
    try:
        return cls(**kwargs, **given)
    except cls._spec_error as exc:
        raise error(f"{prefix}{exc}") from exc


def _value(kind, meta, value, path, error):
    """One JSON value as a field of annotated type `kind`."""
    if type(None) in get_args(kind):  # `X | None`
        if value is None or value == meta.get("none"):
            return None
        kind = get_args(kind)[0]
    if "union" in meta:
        return read_union(meta["union"], value, path, error)
    if is_dataclass(kind):
        return read(kind, value, path, error)
    if get_origin(kind) is tuple:  # `tuple[X, ...]`
        if not isinstance(value, list) or not value:
            raise error(f"{path}: expected a non-empty list")
        return tuple(_value(get_args(kind)[0], {}, v, path, error)
                     for v in value)
    accepted, expected = _SCALARS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and kind is not bool):
        raise error(f"{path}: expected {expected}")
    return kind(value)


def read_union(union: TaggedUnion, obj, path, error):
    """The member spec of `union` that `obj`'s tag names, read from the
    rest of `obj`."""
    if not isinstance(obj, dict):
        raise error(f"{path}: expected an object")
    if union.tag not in obj:
        raise error(f"{path}: missing field {union.tag!r}")
    cls = lookup(union.members, obj[union.tag], f"{path}.{union.tag}",
                 union.noun, error)
    return read(cls, {k: v for k, v in obj.items() if k != union.tag}, path,
                error)


# ---------------------------------------------------------------------------
# Echo: specs back to JSON (defaults materialized)


def echo(spec) -> dict:
    return {key: _echo_value(getattr(spec, f.name), f.metadata)
            for key, f, _ in _fields(type(spec))}


def _echo_value(value, meta):
    if value is None:
        return meta.get("none")
    if "union" in meta:
        return echo_union(meta["union"], value)
    if is_dataclass(value):
        return echo(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def echo_union(union: TaggedUnion, spec) -> dict:
    tag = next(k for k, cls in union.members.items() if type(spec) is cls)
    return {union.tag: tag, **echo(spec)}
