"""Field declarations shared by the run-description dataclasses.

Every field of a run description (engine specs, `oracles.DqnOracle`, the
meta-solver kinds, the game parameters of `gamepop.games.GAMES`) is
declared once, on the dataclass: its type annotation, its default, and in
`dataclasses.field` metadata, whatever else the JSON config and the
construction-time check need:

- ``json``: its key in the config, where that differs from the attribute;
- ``ge``, ``gt``, ``le``: bounds on a number, or on each item of a tuple;
- ``choices``: the allowed strings;
- ``none``: the config spelling of ``None`` besides ``null``;
- ``union``: the name of the tagged union (in `gamepop.config`) its value
  belongs to.

`check` enforces the bounds and choices, and a class declared with
``@spec(error)`` runs it on construction; `gamepop.config` parses and echoes
configs from the rest.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, dataclass, field, fields

_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<=")}


def setting(default=MISSING, **meta):
    """A spec field with `default` (none when omitted) and the declarations
    `meta` listed in the module docstring."""
    return field(default=default, metadata=meta)


def spec(error):
    """Class decorator: a frozen dataclass that runs `check(self, error)`
    when it is constructed."""
    def declare(cls):
        def __post_init__(self):
            check(self, error)
        cls.__post_init__ = __post_init__
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
