from __future__ import annotations

import copy
import json
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
                "dtype": "float64",
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
                "dtype": "float64",
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
        ("sample", "sample_mixture2d.json", "7d811d48cadc8a6f"),
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

