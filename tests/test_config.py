from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from lmlangevin.config import COMMAND_SCHEMAS, ConfigError, config_hash, validate_config

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

_VP = {"kind": "vp-linear"}
_VP_SPELLED = {"kind": "vp-linear", "beta_min": 0.1, "beta_max": 20.0}
_VE = {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0}
_DEFAULT_GRID = [
    {"lam": lam, "kappa": kappa} for lam in (1e-4, 1e-3, 1e-2) for kappa in (1e-8, 1e-4, 1e-2)
]

# (command, minimal document, the same document with every default spelled out)
CASES = {
    "sample": (
        "sample",
        {"schedule": _VP, "oracle": {"centers": [[1.0, 0.0]]}, "sampler": {"n_steps": 4}},
        {
            "schedule": _VP_SPELLED,
            "oracle": {"centers": [[1.0, 0.0]]},
            "sampler": {
                "n_steps": 4,
                "order": 1,
                "geometry": None,
                "chains": 1,
                "seed": 0,
                "eps_clip": 1e-3,
            },
            "diagnostics": {"n_projections": 64},
        },
    ),
    "sample-guided": (
        "sample",
        {"schedule": _VP, "oracle": {"centers": [[1.0, 0.0]]}, "sampler": {"n_steps": 4, "geometry": {"lam": 0.5}}},
        {
            "schedule": _VP_SPELLED,
            "oracle": {"centers": [[1.0, 0.0]]},
            "sampler": {
                "n_steps": 4,
                "order": 1,
                "geometry": {"lam": 0.5, "kappa": 1e-8},
                "chains": 1,
                "seed": 0,
                "eps_clip": 1e-3,
            },
            "diagnostics": {"n_projections": 64},
        },
    ),
    # an integer at a number node is written back as the float it spells
    "sample-integers": (
        "sample",
        {
            "schedule": {"kind": "vp-linear", "beta_max": 20},
            "oracle": {"centers": [[1, 0], [-1, 2]]},
            "sampler": {"n_steps": 4, "geometry": {"lam": 1, "kappa": 0}},
        },
        {
            "schedule": _VP_SPELLED,
            "oracle": {"centers": [[1.0, 0.0], [-1.0, 2.0]]},
            "sampler": {
                "n_steps": 4,
                "order": 1,
                "geometry": {"lam": 1.0, "kappa": 0.0},
                "chains": 1,
                "seed": 0,
                "eps_clip": 1e-3,
            },
            "diagnostics": {"n_projections": 64},
        },
    ),
    "compare": (
        "compare",
        {"schedule": _VP, "oracle": {"centers": [[1.0, 0.0]]}, "nfe": [5], "chains": 4, "seeds": [0]},
        {
            "schedule": _VP_SPELLED,
            "oracle": {"centers": [[1.0, 0.0]]},
            "nfe": [5],
            "variants": ["baseline-o1", "baseline-o2", "annealed", "LML-o1", "LML-o2"],
            "chains": 4,
            "seeds": [0],
            "geometry_grid": _DEFAULT_GRID,
            "annealed": {"inner_steps": 1, "step_scale": 0.1},
            "eps_clip": 1e-3,
            "diagnostics": {"n_projections": 64},
        },
    ),
    "compare-grid": (
        "compare",
        {
            "schedule": _VP,
            "oracle": {"centers": [[1.0, 0.0]]},
            "nfe": [5],
            "chains": 4,
            "seeds": [0],
            "geometry_grid": [{"lam": 0.1}, {"lam": 0.2, "kappa": 0.5}],
            "annealed": {"inner_steps": 2},
        },
        {
            "schedule": _VP_SPELLED,
            "oracle": {"centers": [[1.0, 0.0]]},
            "nfe": [5],
            "variants": ["baseline-o1", "baseline-o2", "annealed", "LML-o1", "LML-o2"],
            "chains": 4,
            "seeds": [0],
            "geometry_grid": [{"lam": 0.1, "kappa": 1e-8}, {"lam": 0.2, "kappa": 0.5}],
            "annealed": {"inner_steps": 2, "step_scale": 0.1},
            "eps_clip": 1e-3,
            "diagnostics": {"n_projections": 64},
        },
    ),
    "stationarity": (
        "stationarity",
        {
            "schedule": _VE,
            "oracle": {"centers": [[0.0]]},
            "t": 0.5,
            "variant": "damped-exact",
            "h": 0.01,
            "n_steps": 10,
            "chains": 4,
        },
        {
            "schedule": _VE,
            "oracle": {"centers": [[0.0]]},
            "t": 0.5,
            "variant": "damped-exact",
            "lam": 0.0,
            "h": 0.01,
            "n_steps": 10,
            "chains": 4,
            "init": {"mean": 0.0, "std": 1.0},
            "seed": 0,
            "histogram_bins": 64,
            "assert": {"ks_max": 0.02},
        },
    ),
    "convergence": (
        "convergence",
        {
            "schedule": _VE,
            "oracle": {"centers": [[0.0]]},
            "t": 0.5,
            "variant": "damped-exact",
            "lams": [0.0, 1.0],
            "h": 0.01,
            "n_steps": 1000,
            "chains": 4,
            "init": {"std": 2.0},
        },
        {
            "schedule": _VE,
            "oracle": {"centers": [[0.0]]},
            "t": 0.5,
            "variant": "damped-exact",
            "lams": [0.0, 1.0],
            "h": 0.01,
            "n_steps": 1000,
            "chains": 4,
            "snapshot_every": 5,  # n_steps // 200, the one default derived from another key
            "init": {"mean": 0.5, "std": 2.0},
            "seed": 0,
            "fit_window": [3e-3, 0.2],
            "assert": {"rate_rel_tol": 0.15, "r2_min": 0.95},
        },
    ),
    "hessian-error": (
        "hessian-error",
        {"schedule": _VP, "oracle": {"centers": [[1.0, 0.0]]}, "ts": [0.5], "n_points": 3},
        {
            "schedule": _VP_SPELLED,
            "oracle": {"centers": [[1.0, 0.0]]},
            "ts": [0.5],
            "n_points": 3,
            "seed": 0,
            "assert": {"max_violations": 0},
        },
    ),
    "bench": ("bench", {"d": 8}, {"d": 8, "reps": 200, "seed": 0}),
}


def _effective(command: str, doc: dict) -> dict:
    """The document as the CLI hashes it: validated, with its defaults filled."""
    doc = copy.deepcopy(doc)
    validate_config(doc, COMMAND_SCHEMAS[command])
    return doc


@pytest.mark.parametrize("case", sorted(CASES))
def test_omitted_and_spelled_out_defaults_agree(case) -> None:
    command, minimal, spelled = CASES[case]
    filled = _effective(command, minimal)
    assert filled == _effective(command, spelled) == spelled
    assert config_hash(filled) == config_hash(spelled)


def test_each_fill_is_a_fresh_copy() -> None:
    _, minimal, _ = CASES["compare"]
    first, second = _effective("compare", minimal), _effective("compare", minimal)
    first["geometry_grid"][0]["lam"] = 9.0
    assert second["geometry_grid"][0]["lam"] == 1e-4


@pytest.mark.parametrize(
    "command, config, chash",
    [
        ("sample", "sample_mixture2d.json", "fcdc85e3e2e96bdc"),
        ("compare", "compare_low_nfe.json", "920f975eef62a24c"),
        ("stationarity", "stationarity_damped.json", "5b7faacf16ec172f"),
        ("convergence", "convergence_rates.json", "7ed877a30d94d4ff"),
        ("hessian-error", "hessian_error_bound.json", "47ff38a4aaca1d29"),
        ("bench", "bench_overhead.json", "ed9cf9bd89d1e03b"),
    ],
)
def test_demo_config_hashes_are_pinned(command, config, chash) -> None:
    doc = json.loads((DEMO_CONFIGS / config).read_text())
    assert config_hash(_effective(command, doc)) == chash


@pytest.mark.parametrize(
    "bare, spelled",
    [
        ({"kind": "vp-linear"}, _VP_SPELLED),
        ({"kind": "ve"}, {"kind": "ve", "sigma_min": 0.01, "sigma_max": 50.0}),
        ({"kind": "cosine"}, {"kind": "cosine", "offset": 0.008, "t_max": 0.999}),
    ],
    ids=["vp-linear", "ve", "cosine"],
)
def test_schedule_defaults_are_the_kinds_constructor_defaults(bare, spelled) -> None:
    # A kind's block takes its constructor's defaults, and only the keys that constructor names.
    _, minimal, _ = CASES["hessian-error"]
    docs = [_effective("hessian-error", dict(minimal, schedule=block)) for block in (bare, spelled)]
    assert docs[0]["schedule"] == docs[1]["schedule"] == spelled
    assert config_hash(docs[0]) == config_hash(docs[1])


def test_stationarity_has_no_burn_in() -> None:
    _, minimal, _ = CASES["stationarity"]
    doc = dict(minimal, burn_in=0)
    with pytest.raises(ConfigError, match="unknown keys \\['burn_in'\\]"):
        validate_config(doc, COMMAND_SCHEMAS["stationarity"])



# Every key of each demo document, at every nesting level, after its defaults are filled; plus
# the optional keys no demo spells: bench's threshold and the oracle's centers file.
_KEY_DOCS = {
    **{
        config: (command, json.loads((DEMO_CONFIGS / config).read_text()))
        for command, config in [
            ("sample", "sample_mixture2d.json"),
            ("compare", "compare_low_nfe.json"),
            ("stationarity", "stationarity_damped.json"),
            ("convergence", "convergence_rates.json"),
            ("hessian-error", "hessian_error_bound.json"),
            ("bench", "bench_overhead.json"),
        ]
    },
    "bench-assert": ("bench", {"d": 8, "assert": {"ratio_max": 2.0}}),
    "centers-csv": ("hessian-error", dict(CASES["hessian-error"][1], oracle={"centers_csv": "c.csv", "weights": [1.0]})),
}


def _entries(value, schema: dict, loc: tuple = ()):
    """(location, node) of every object key and array entry in a validated document, depth first."""
    if isinstance(value, dict):
        children = [(name, schema["keys"][name]) for name in value]
    elif isinstance(value, list):
        children = [(i, schema["items"]) for i in range(len(value))]
    else:
        children = []
    for key, node in children:
        yield (*loc, key), node
        yield from _entries(value[key], node, (*loc, key))


def _where(loc: tuple) -> str:
    """The path validate_config names for a location."""
    return "config" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in loc)


def _parent(doc, loc: tuple):
    for key in loc[:-1]:
        doc = doc[key]
    return doc


def _optional_nodes() -> list:
    """The nodes of the keys that may be omitted and have no value to fill in."""
    oracle = COMMAND_SCHEMAS["sample"]["keys"]["oracle"]["keys"]
    bench_assert = COMMAND_SCHEMAS["bench"]["keys"]["assert"]
    return [oracle["centers"], oracle["centers_csv"], oracle["weights"], bench_assert, bench_assert["keys"]["ratio_max"]]


@pytest.mark.parametrize("case", sorted(_KEY_DOCS))
def test_a_key_is_required_exactly_when_its_node_has_no_default(case) -> None:
    command, doc = _KEY_DOCS[case]
    schema = COMMAND_SCHEMAS[command]
    full = _effective(command, doc)
    optional = _optional_nodes()
    keys = [(loc, node) for loc, node in _entries(full, schema) if isinstance(loc[-1], str)]
    assert keys
    for loc, node in keys:
        dropped = copy.deepcopy(full)
        name = loc[-1]
        del _parent(dropped, loc)[name]
        if any(node is opt for opt in optional):
            validate_config(dropped, schema)
            assert name not in _parent(dropped, loc), loc  # nothing is written
            continue
        if "default" not in node:
            with pytest.raises(ConfigError, match=f"^{re.escape(_where(loc[:-1]))}: missing required key '{name}'$"):
                validate_config(dropped, schema)
            continue
        validate_config(dropped, schema)
        default = node["default"]
        want = copy.deepcopy(full)
        if callable(default):
            _parent(want, loc)[name] = default(_parent(dropped, loc))
        else:
            _parent(want, loc)[name] = validate_config(copy.deepcopy(default), node)
        assert dropped == want, loc


@pytest.mark.parametrize("case", sorted(_KEY_DOCS))
def test_only_a_null_default_accepts_null(case) -> None:
    command, doc = _KEY_DOCS[case]
    schema = COMMAND_SCHEMAS[command]
    full = _effective(command, doc)
    for loc, node in _entries(full, schema):
        nulled = copy.deepcopy(full)
        _parent(nulled, loc)[loc[-1]] = None
        if "default" in node and node["default"] is None:
            assert validate_config(nulled, schema) is nulled
            assert _parent(nulled, loc)[loc[-1]] is None
        else:
            with pytest.raises(ConfigError, match=f"^{re.escape(_where(loc))}: must not be null$"):
                validate_config(nulled, schema)
