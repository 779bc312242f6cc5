"""Strict JSON experiment configs: validation, canonical hashing, builders.

Configs are plain JSON documents, one per command invocation.  Validation is
total and happens before any computation: unknown keys anywhere in the tree
are rejected, as are wrong types and out-of-range values, so a typo can never
silently fall back to a default.  Every default is declared once, on its node
in the command's schema (one that depends on other keys as a function of
the enclosing object; a schedule parameter's is its kind's constructor's),
and it alone decides how its key may be left out: a key whose node has no
default is required, only a key whose default is null accepts null, and an
optional key that has no value to fill in writes nothing.  Validation
writes each default into the document, so an omitted key and the same
key spelled out at its default give one effective config; it also writes
every number as a float, so ``20`` and ``20.0`` hash alike.  Then
:func:`read_centers_csv` writes a centers file's rows in place of its path, and
a canonical hash of that effective config goes into every output file.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import warnings
from pathlib import Path

import numpy as np

from .oracle import GaussianMixtureOracle
from .schedule import COSINE, VE, VP_LINEAR, NoiseSchedule
from .samplers import FIXED_LEVEL_VARIANTS

__all__ = [
    "ConfigError",
    "validate_config",
    "config_hash",
    "read_centers_csv",
    "build_schedule",
    "build_oracle",
    "COMMAND_SCHEMAS",
    "COMPARE_VARIANTS",
]


class ConfigError(ValueError):
    """Invalid config document; message carries the offending key path."""


# Matrix rows understood by the compare command.
COMPARE_VARIANTS = ("baseline-o1", "baseline-o2", "annealed", "LML-o1", "LML-o2")


# ---------------------------------------------------------------------------
# schema machinery
#
# A schema node is a dict with a "type" and per-type refinements:
#   object: keys {name: node}
#   number/int: min/max (inclusive), exclusive_min
#   string: choices
#   array: items node, min_len
# Objects reject unknown keys.  A node's "default" is the one statement of how
# its key may be left out: a key whose node has no default is required, and
# only a node whose default is None accepts null.  When the key is omitted,
# validation writes a copy of the default into the document and validates it
# like a supplied value, which in turn fills the defaults nested inside it.  A
# callable default is called with the enclosing object, whose earlier keys are
# then validated, and its result is written instead; a default of _OMIT, or a
# callable's result _OMIT, writes nothing.

_OMIT = object()  # the default of an optional key that writes nothing
# A node type's Python types; a bool, though an int in Python, is never one of them.
_TYPES = {"object": dict, "array": list, "string": str, "int": int, "number": (int, float)}


def validate_config(value, schema: dict, path: str = "config"):
    """Recursively check value against schema, filling omitted defaults and writing numbers as floats in place.

    Returns value, a number as a float.  Raises ConfigError on any mismatch.
    """
    if value is None:
        if schema.get("default", _OMIT) is None:
            return None
        raise ConfigError(f"{path}: must not be null")
    kind = schema["type"]
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        raise ConfigError(f"{path}: expected {kind}, got {type(value).__name__}")
    if kind in ("number", "int"):
        try:
            val = float(value)
        except OverflowError:  # an integer beyond float range
            val = np.inf
        if not np.isfinite(val):
            raise ConfigError(f"{path}: must be finite")
        if "min" in schema and val < schema["min"]:
            raise ConfigError(f"{path}: must be >= {schema['min']}")
        if "exclusive_min" in schema and val <= schema["exclusive_min"]:
            raise ConfigError(f"{path}: must be > {schema['exclusive_min']}")
        if "max" in schema and val > schema["max"]:
            raise ConfigError(f"{path}: must be <= {schema['max']}")
        if kind == "number":
            value = val
    if kind == "string" and "choices" in schema and value not in schema["choices"]:
        raise ConfigError(f"{path}: must be one of {sorted(schema['choices'])}, got {value!r}")
    if kind == "array":
        if len(value) < schema.get("min_len", 0):
            raise ConfigError(f"{path}: needs at least {schema['min_len']} entries")
        for i, item in enumerate(value):
            value[i] = validate_config(item, schema["items"], f"{path}[{i}]")
    if kind == "object":
        keys = schema.get("keys", {})
        unknown = sorted(set(value) - set(keys))
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown}")
        for name, sub in keys.items():
            if name not in value and "default" not in sub:
                raise ConfigError(f"{path}: missing required key {name!r}")
        for name, sub in keys.items():
            if name not in value:
                default = sub["default"]
                default = default(value) if callable(default) else default
                if default is not _OMIT:
                    value[name] = copy.deepcopy(default)
            if name in value:
                value[name] = validate_config(value[name], sub, f"{path}.{name}")
    return value


def config_hash(cfg: dict) -> str:
    """First 16 hex chars of the sha256 of the canonical serialization: sorted keys, no whitespace."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()[:16]


def read_centers_csv(doc: dict, base: Path) -> dict:
    """Put the rows of a validated document's ``centers_csv`` in its place as inline ``centers``; return doc.

    A relative path resolves against ``base``, the config file's directory.  The rows are validated as inline
    centers are, so the CSV and inline spellings of one mixture hash alike and the document reruns anywhere.
    """
    block = doc.get("oracle")
    if block is not None and ("centers" in block) == ("centers_csv" in block):
        raise ConfigError("config.oracle: exactly one of 'centers' or 'centers_csv' is required")
    if block is not None and "centers_csv" in block:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no rows warns; validation reports it below
                rows = np.loadtxt(Path(base, block.pop("centers_csv")), delimiter=",", ndmin=2).tolist()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config.oracle: cannot read centers_csv: {exc}") from exc
        block["centers"] = validate_config(rows, _ORACLE_SCHEMA["keys"]["centers"], "config.oracle: centers_csv")
    return doc


# ---------------------------------------------------------------------------
# shared blocks


# Each kind's constructor: its signature names the keys the kind takes and their defaults, and it checks their range.
_SCHEDULE_BUILDERS = {VP_LINEAR: NoiseSchedule.vp_linear, VE: NoiseSchedule.ve, COSINE: NoiseSchedule.cosine}


def _schedule_param(name: str) -> dict:
    """Schedule key ``name``: its default is its kind's constructor's, and nothing for a kind that takes no such key."""

    def default(block):
        return getattr(inspect.signature(_SCHEDULE_BUILDERS[block["kind"]]).parameters.get(name), "default", _OMIT)

    return {"type": "number", "exclusive_min": 0.0, "default": default}


_SCHEDULE_SCHEMA = {
    "type": "object",
    "keys": {
        # kind first: it is validated before the parameters' defaults read it
        "kind": {"type": "string", "choices": list(_SCHEDULE_BUILDERS)},
        **{key: _schedule_param(key) for b in _SCHEDULE_BUILDERS.values() for key in inspect.signature(b).parameters},
    },
}

_ORACLE_SCHEMA = {
    "type": "object",
    "keys": {
        "centers": {
            "type": "array",
            "min_len": 1,
            "items": {"type": "array", "min_len": 1, "items": {"type": "number"}},
            "default": _OMIT,
        },
        "centers_csv": {"type": "string", "default": _OMIT},
        "weights": {"type": "array", "min_len": 1, "items": {"type": "number", "exclusive_min": 0.0}, "default": _OMIT},
    },
}

# One damped-geometry setting: a compare grid item, or sample's geometry block,
# which may also be null (the default) for the unguided baseline.
_GRID_ITEM = {
    "type": "object",
    "keys": {
        "lam": {"type": "number", "exclusive_min": 0.0},
        "kappa": {"type": "number", "min": 0.0, "max": 1.0 - 1e-12, "default": 1e-8},
    },
}
_GEOMETRY_SCHEMA = {**_GRID_ITEM, "default": None}

_SAMPLER_SCHEMA = {
    "type": "object",
    "keys": {
        "n_steps": {"type": "int", "min": 1},
        "order": {"type": "int", "min": 1, "max": 2, "default": 1},
        "geometry": _GEOMETRY_SCHEMA,
        "chains": {"type": "int", "min": 1, "default": 1},
        "seed": {"type": "int", "min": 0, "default": 0},
        "eps_clip": {"type": "number", "exclusive_min": 0.0, "default": 1e-3},
    },
}


def _init_schema(mean: float) -> dict:
    return {
        "type": "object",
        "default": {},
        "keys": {
            "mean": {"type": "number", "default": mean},
            "std": {"type": "number", "exclusive_min": 0.0, "default": 1.0},
        },
    }


_DIAG_SCHEMA = {
    "type": "object",
    "default": {},
    "keys": {"n_projections": {"type": "int", "min": 1, "default": 64}},
}

_SEED = {"type": "int", "min": 0, "default": 0}

# The keys stationarity and convergence share: the target, the chain, its step size and length, and its seed.
_FIXED_LEVEL_KEYS = {
    "schedule": _SCHEDULE_SCHEMA,
    "oracle": _ORACLE_SCHEMA,
    "t": {"type": "number", "exclusive_min": 0.0},
    "variant": {"type": "string", "choices": list(FIXED_LEVEL_VARIANTS)},
    "h": {"type": "number", "exclusive_min": 0.0},
    "n_steps": {"type": "int", "min": 1},
    "seed": _SEED,
}


# ---------------------------------------------------------------------------
# per-command schemas


COMMAND_SCHEMAS = {
    "sample": {
        "type": "object",
        "keys": {
            "schedule": _SCHEDULE_SCHEMA,
            "oracle": _ORACLE_SCHEMA,
            "sampler": _SAMPLER_SCHEMA,
            "diagnostics": _DIAG_SCHEMA,
        },
    },
    "compare": {
        "type": "object",
        "keys": {
            "schedule": _SCHEDULE_SCHEMA,
            "oracle": _ORACLE_SCHEMA,
            "nfe": {"type": "array", "min_len": 1, "items": {"type": "int", "min": 1}},
            "variants": {
                "type": "array",
                "min_len": 1,
                "items": {"type": "string", "choices": list(COMPARE_VARIANTS)},
                "default": list(COMPARE_VARIANTS),
            },
            "chains": {"type": "int", "min": 2},
            "seeds": {"type": "array", "min_len": 1, "items": {"type": "int", "min": 0}},
            # the damping/EMA tuning grid swept by the guided variants
            "geometry_grid": {
                "type": "array",
                "min_len": 1,
                "items": _GRID_ITEM,
                "default": [
                    {"lam": lam, "kappa": kappa} for lam in (1e-4, 1e-3, 1e-2) for kappa in (1e-8, 1e-4, 1e-2)
                ],
            },
            "annealed": {
                "type": "object",
                "default": {},
                "keys": {
                    "inner_steps": {"type": "int", "min": 1, "default": 1},
                    "step_scale": {"type": "number", "exclusive_min": 0.0, "default": 0.1},
                },
            },
            "eps_clip": {"type": "number", "exclusive_min": 0.0, "default": 1e-3},
            "diagnostics": _DIAG_SCHEMA,
        },
    },
    "stationarity": {
        "type": "object",
        "keys": {
            **_FIXED_LEVEL_KEYS,
            "lam": {"type": "number", "min": 0.0, "default": 0.0},
            "chains": {"type": "int", "min": 1},
            "init": _init_schema(0.0),
            "histogram_bins": {"type": "int", "min": 2, "default": 64},
            "assert": {
                "type": "object",
                "default": {},
                "keys": {"ks_max": {"type": "number", "exclusive_min": 0.0, "default": 0.02}},
            },
        },
    },
    "convergence": {
        "type": "object",
        "keys": {
            **_FIXED_LEVEL_KEYS,
            "lams": {"type": "array", "min_len": 1, "items": {"type": "number", "min": 0.0}},
            "chains": {"type": "int", "min": 2},
            # n_steps, a _FIXED_LEVEL_KEYS key, is validated before this default is taken
            "snapshot_every": {"type": "int", "min": 1, "default": lambda doc: max(1, doc["n_steps"] // 200)},
            "init": _init_schema(0.5),
            "fit_window": {
                "type": "array",
                "min_len": 2,
                "items": {"type": "number", "exclusive_min": 0.0},
                "default": [3e-3, 0.2],
            },
            "assert": {
                "type": "object",
                "default": {},
                "keys": {
                    "rate_rel_tol": {"type": "number", "exclusive_min": 0.0, "default": 0.15},
                    "r2_min": {"type": "number", "min": 0.0, "max": 1.0, "default": 0.95},
                },
            },
        },
    },
    "hessian-error": {
        "type": "object",
        "keys": {
            "schedule": _SCHEDULE_SCHEMA,
            "oracle": _ORACLE_SCHEMA,
            "ts": {"type": "array", "min_len": 1, "items": {"type": "number", "exclusive_min": 0.0}},
            "n_points": {"type": "int", "min": 1},
            "seed": _SEED,
            "assert": {
                "type": "object",
                "default": {},
                "keys": {"max_violations": {"type": "int", "min": 0, "default": 0}},
            },
        },
    },
    "bench": {
        "type": "object",
        "keys": {
            "d": {"type": "int", "min": 1},
            "reps": {"type": "int", "min": 1, "default": 200},
            "seed": _SEED,
            # bench gates only on a threshold the config sets
            "assert": {
                "type": "object",
                "default": _OMIT,
                "keys": {"ratio_max": {"type": "number", "exclusive_min": 0.0, "default": _OMIT}},
            },
        },
    },
}


# ---------------------------------------------------------------------------
# builders (run only after validation)


def build_schedule(block: dict) -> NoiseSchedule:
    kind = block["kind"]
    build = _SCHEDULE_BUILDERS[kind]
    params = {k: v for k, v in block.items() if k != "kind"}
    stray = set(params) - set(inspect.signature(build).parameters)
    if stray:
        raise ConfigError(f"config.schedule: keys {sorted(stray)} do not apply to kind {kind!r}")
    try:
        return build(**params)
    except ValueError as exc:
        raise ConfigError(f"config.schedule: {exc}") from exc


def build_oracle(block: dict, schedule: NoiseSchedule) -> GaussianMixtureOracle:
    try:
        if len({len(row) for row in block["centers"]}) != 1:
            raise ValueError("centers rows must all have the same length")
        return GaussianMixtureOracle(block["centers"], block.get("weights"), schedule)
    except ValueError as exc:
        raise ConfigError(f"config.oracle: {exc}") from exc
