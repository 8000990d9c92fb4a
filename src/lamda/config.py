"""JSON inputs: each record's dataclass fields are its JSON schema.

Every JSON document the package reads (run configs, rank budgets, score
files, the ranks of a plan and the bundled model presets) becomes a typed
record through `from_json`. An unknown key, a missing key without a
default, or a value whose JSON type does not match the field's annotation
is a ConfigError naming the file and the key path, raised before any
compute, so a typo never silently falls back to a default. So is a `NaN`,
`Infinity` or `-Infinity` in a float field: Python's `json` reads them,
but they are not JSON numbers. No value is converted: the record holds
exactly what the document holds.
"""

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin

from .errors import ConfigError

_SCALARS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def from_json(tp, value, where):
    """`value`, parsed JSON, as a `tp`; `where` names it in errors.

    `tp` is a dataclass, `bool`, `int`, `float`, `str`, or `tuple[T, ...]`,
    `list[T]` or `dict[str, T]` of these. A dataclass is built from an
    object key by key, recursing into its fields' annotations. A bool is
    never an int, a float field takes an int as it is, and a float must be
    finite.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        known = {f.name: f for f in fields(tp)}
        unknown = sorted(set(value) - set(known))
        if unknown:
            raise ConfigError(f"{where} has unknown keys {unknown}")
        for f in known.values():
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where} has no {f.name!r} key")
        return tp(**{k: from_json(known[k].type, v, f"{where}[{k!r}]") for k, v in value.items()})
    origin, args = get_origin(tp), get_args(tp)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return origin(from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        return {k: from_json(args[1], v, f"{where}[{k!r}]") for k, v in value.items()}
    ok = isinstance(value, (int, float) if tp is float else tp)
    if (not ok or (isinstance(value, bool) and tp is not bool)
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ConfigError(f"{where} must be {_SCALARS[tp]}, got {value!r}")
    return value


def run_config_from_dict(doc, where="run config"):
    # Imported here: train imports accounting, which imports this module.
    from .train import TrainRunConfig

    return from_json(TrainRunConfig, doc, where)


def read_json(path, required=()):
    """The JSON object in `path`; text that is not UTF-8, malformed JSON,
    another JSON value or a missing `required` key is a ConfigError naming
    the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{path} has no {missing[0]!r} key")
    return doc


def load_run_config(path):
    return run_config_from_dict(read_json(path), str(path))
