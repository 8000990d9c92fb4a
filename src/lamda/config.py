"""Run configuration files: strict JSON -> TrainRunConfig.

Unknown keys are rejected before any compute so a typo never silently
falls back to a default.
"""

import json
from dataclasses import fields

from .errors import ConfigError
from .model import ToyTransformerConfig
from .train import TrainRunConfig

_RUN_KEYS = {f.name for f in fields(TrainRunConfig)}
_MODEL_KEYS = {f.name for f in fields(ToyTransformerConfig)}


def run_config_from_dict(doc):
    unknown = set(doc) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
    doc = dict(doc)
    model_doc = doc.pop("model", {})
    if not isinstance(model_doc, dict):
        raise ConfigError("run config key 'model' must be an object")
    unknown = set(model_doc) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
    for key in ("budget_ranks", "adapted_kinds"):
        if key in doc:
            if not isinstance(doc[key], (list, tuple)):
                raise ConfigError(f"run config key {key!r} must be a list")
            doc[key] = tuple(doc[key])
    cfg = TrainRunConfig(model=ToyTransformerConfig(**model_doc), **doc)
    cfg.validate()
    return cfg


def read_json(path, required=()):
    """The JSON object in `path`; malformed JSON, another JSON value or a
    missing `required` key is a ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{path} has no {missing[0]!r} key")
    return doc


def load_run_config(path):
    return run_config_from_dict(read_json(path))
