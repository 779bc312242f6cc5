"""Strict JSON experiment configs: validation, canonical hashing, builders.

Configs are plain JSON documents, one per command invocation.  Validation is
total and happens before any computation: unknown keys anywhere in the tree
are rejected, as are wrong types and out-of-range values, so a typo can never
silently fall back to a default.  Every default is declared once, on its node
in the command's schema (one that depends on other keys as a function of
the enclosing object; a schedule parameter's is its kind's constructor's),
and validation writes it into the document, so an omitted key and the same
key spelled out at its default give one effective config.  A canonical hash
of that effective config is embedded in every output file, which makes rerun
comparisons trivial.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json

import numpy as np

from .oracle import GaussianMixtureOracle
from .schedule import COSINE, VE, VP_LINEAR, NoiseSchedule
from .samplers import FIXED_LEVEL_VARIANTS

__all__ = [
    "ConfigError",
    "validate_config",
    "config_hash",
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
#   object: keys {name: node}, required [names]
#   number/int: min/max (inclusive), exclusive_min
#   string: choices
#   array: items node, min_len
# Any node may set nullable: true.  Objects reject unknown keys.  A node under
# an object key may set "default": when the key is omitted, validation writes
# a copy of the default into the document and validates it like a supplied
# value, which in turn fills the defaults nested inside it.  A callable
# default is called with the enclosing object, whose earlier keys are then
# validated, and its result is written instead, unless it is _OMIT.

_OMIT = object()  # a callable default's "write nothing"


def _type_ok(value, kind: str) -> bool:
    if kind == "object":
        return isinstance(value, dict)
    if kind == "array":
        return isinstance(value, list)
    if kind == "string":
        return isinstance(value, str)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise AssertionError(f"unknown schema type {kind!r}")


def validate_config(value, schema: dict, path: str = "config") -> None:
    """Recursively check value against schema, filling omitted defaults in place.

    Raises ConfigError on any mismatch.
    """
    if value is None:
        if schema.get("nullable"):
            return
        raise ConfigError(f"{path}: must not be null")
    kind = schema["type"]
    if not _type_ok(value, kind):
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
    if kind == "string" and "choices" in schema and value not in schema["choices"]:
        raise ConfigError(f"{path}: must be one of {sorted(schema['choices'])}, got {value!r}")
    if kind == "array":
        if len(value) < schema.get("min_len", 0):
            raise ConfigError(f"{path}: needs at least {schema['min_len']} entries")
        for i, item in enumerate(value):
            validate_config(item, schema["items"], f"{path}[{i}]")
    if kind == "object":
        keys = schema.get("keys", {})
        unknown = sorted(set(value) - set(keys))
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown}")
        for name in schema.get("required", ()):
            if name not in value:
                raise ConfigError(f"{path}: missing required key {name!r}")
        for name, sub in keys.items():
            if name not in value and "default" in sub:
                default = sub["default"]
                default = default(value) if callable(default) else copy.deepcopy(default)
                if default is not _OMIT:
                    value[name] = default
            if name in value:
                validate_config(value[name], sub, f"{path}.{name}")


def config_hash(cfg: dict) -> str:
    """First 16 hex chars of the sha256 of the canonical serialization: sorted keys, no whitespace."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# shared blocks


# Each kind's constructor; its signature names the keys the kind takes and their defaults.
_SCHEDULE_BUILDERS = {VP_LINEAR: NoiseSchedule.vp_linear, VE: NoiseSchedule.ve, COSINE: NoiseSchedule.cosine}


def _schedule_param(name: str, **node) -> dict:
    """Schedule key ``name``: its default is its kind's constructor's, and nothing for a kind that takes no such key."""

    def default(block):
        param = inspect.signature(_SCHEDULE_BUILDERS[block["kind"]]).parameters.get(name)
        return _OMIT if param is None else param.default

    return {"type": "number", "exclusive_min": 0.0, **node, "default": default}


_SCHEDULE_SCHEMA = {
    "type": "object",
    "keys": {
        # kind first: it is validated before the parameters' defaults read it
        "kind": {"type": "string", "choices": [VP_LINEAR, VE, COSINE]},
        **{name: _schedule_param(name) for name in ("beta_min", "beta_max", "sigma_min", "sigma_max", "offset")},
        "t_max": _schedule_param("t_max", max=1.0),
    },
    "required": ["kind"],
}

_ORACLE_SCHEMA = {
    "type": "object",
    "keys": {
        "centers": {
            "type": "array",
            "min_len": 1,
            "items": {"type": "array", "min_len": 1, "items": {"type": "number"}},
        },
        "centers_csv": {"type": "string"},
        "weights": {"type": "array", "min_len": 1, "items": {"type": "number", "exclusive_min": 0.0}},
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
    "required": ["lam"],
}
_GEOMETRY_SCHEMA = {**_GRID_ITEM, "nullable": True, "default": None}

_SAMPLER_SCHEMA = {
    "type": "object",
    "keys": {
        "n_steps": {"type": "int", "min": 1},
        "order": {"type": "int", "min": 1, "max": 2, "default": 1},
        "geometry": _GEOMETRY_SCHEMA,
        "chains": {"type": "int", "min": 1, "default": 1},
        "seed": {"type": "int", "min": 0, "default": 0},
        "eps_clip": {"type": "number", "exclusive_min": 0.0, "default": 1e-3},
        "dtype": {"type": "string", "choices": ["float64", "float32"], "default": "float64"},
    },
    "required": ["n_steps"],
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
_FIXED_LEVEL_REQUIRED = [name for name, node in _FIXED_LEVEL_KEYS.items() if "default" not in node]


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
        "required": ["schedule", "oracle", "sampler"],
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
        "required": ["schedule", "oracle", "nfe", "chains", "seeds"],
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
        "required": [*_FIXED_LEVEL_REQUIRED, "chains"],
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
        "required": [*_FIXED_LEVEL_REQUIRED, "lams", "chains"],
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
        "required": ["schedule", "oracle", "ts", "n_points"],
    },
    "bench": {
        "type": "object",
        "keys": {
            "d": {"type": "int", "min": 1},
            "reps": {"type": "int", "min": 1, "default": 200},
            "seed": _SEED,
            # no default: bench gates only on a threshold the config sets
            "assert": {
                "type": "object",
                "keys": {"ratio_max": {"type": "number", "exclusive_min": 0.0}},
            },
        },
        "required": ["d"],
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
    if ("centers" in block) == ("centers_csv" in block):
        raise ConfigError("config.oracle: exactly one of 'centers' or 'centers_csv' is required")
    weights = block.get("weights")
    try:
        if "centers_csv" in block:
            return GaussianMixtureOracle.from_csv(block["centers_csv"], schedule, weights=weights)
        if len({len(row) for row in block["centers"]}) != 1:
            raise ValueError("centers rows must all have the same length")
        return GaussianMixtureOracle(block["centers"], weights, schedule)
    except OSError as exc:
        raise ConfigError(f"config.oracle: cannot read centers_csv: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config.oracle: {exc}") from exc

