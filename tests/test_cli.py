from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lmlangevin import GaussianMixtureOracle
from lmlangevin.cli import main


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _sample_doc(**sampler_extra):
    sampler = {"n_steps": 8, "order": 2, "chains": 64, "seed": 7}
    sampler.update(sampler_extra)
    return {
        "schedule": {"kind": "vp-linear"},
        "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
        "sampler": sampler,
    }


def _meta(out):
    return json.loads((out / "meta.json").read_text())


def _data_rows(path):
    return np.loadtxt(path, delimiter=",", skiprows=2)


# ---------------------------------------------------------------------------
# config handling and exit codes


def test_unknown_key_is_config_error(tmp_path) -> None:
    doc = _sample_doc()
    doc["bogus"] = 1
    out = tmp_path / "out"
    rc = main(["sample", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)])
    assert rc == 2
    assert not out.exists()  # nothing is written on config errors


def test_bad_json_is_config_error(tmp_path) -> None:
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_config_file(tmp_path) -> None:
    assert main(["sample", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]) == 2


def test_semantic_config_errors(tmp_path) -> None:
    stat = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 2.0,  # outside the schedule's range
        "variant": "damped-exact",
        "lam": 1.0,
        "h": 0.001,
        "n_steps": 50,
        "chains": 16,
    }
    assert main(["stationarity", "--config", _write(tmp_path, "a.json", stat), "--out", str(tmp_path / "o1")]) == 2
    stat["t"] = 0.5
    stat["variant"] = "damped-lm"
    stat["lam"] = 0.0  # damped-lm needs lam > 0
    assert main(["stationarity", "--config", _write(tmp_path, "b.json", stat), "--out", str(tmp_path / "o2")]) == 2
    bad_type = _sample_doc()
    bad_type["sampler"]["n_steps"] = "ten"
    assert main(["sample", "--config", _write(tmp_path, "c.json", bad_type), "--out", str(tmp_path / "o3")]) == 2


def test_malformed_fit_window_is_config_error(tmp_path) -> None:
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5,
        "variant": "damped-exact",
        "lams": [0.0],
        "h": 0.01,
        "n_steps": 100,
        "chains": 16,
        "fit_window": [0.001, 0.1, 0.2],
    }
    out = tmp_path / "out"
    assert main(["convergence", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 2
    assert not out.exists()


def test_huge_integer_is_config_error(tmp_path, capsys) -> None:
    p = tmp_path / "c.json"
    p.write_text('{"d": ' + "9" * 400 + "}")
    out = tmp_path / "out"
    assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
    assert "config.d: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_eps_clip_outside_schedule_is_config_error(tmp_path) -> None:
    sample = _sample_doc(eps_clip=2.0)
    compare = dict(_compare_doc(), eps_clip=2.0)
    for command, doc in (("sample", sample), ("compare", compare)):
        out = tmp_path / command
        assert main([command, "--config", _write(tmp_path, f"{command}.json", doc), "--out", str(out)]) == 2
        assert not out.exists()


def test_numeric_blowup_is_exit_3(tmp_path) -> None:
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5,
        "variant": "plain-langevin",
        "h": 1e6,
        "n_steps": 60,
        "chains": 8,
    }
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(["stationarity", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)])
    assert rc == 3
    assert not (out / "meta.json").exists()  # failed runs leave no summary


def test_sample_blow_up_is_exit_3(tmp_path, monkeypatch, capsys) -> None:
    calls = []
    real = GaussianMixtureOracle.eps

    def inf_at_step_3(self, x, t):
        # 64 chains at d = 2 run as one tile, so the third call is step 3.
        calls.append(t)
        out = real(self, x, t)
        return np.full_like(out, np.inf) if len(calls) == 3 else out

    monkeypatch.setattr(GaussianMixtureOracle, "eps", inf_at_step_3)
    out = tmp_path / "out"
    rc = main(["sample", "--config", _write(tmp_path, "c.json", _sample_doc()), "--out", str(out)])
    assert rc == 3
    assert "step 3 of 8" in capsys.readouterr().err
    assert not (out / "meta.json").exists()


def test_assert_threshold_failure_is_exit_4(tmp_path) -> None:
    # The guided update does strictly more arithmetic than the bare solver
    # step, so a tiny-d benchmark can never meet ratio <= 1.05.
    doc = {"d": 256, "reps": 10, "assert": {"ratio_max": 1.05}}
    out = tmp_path / "out"
    rc = main(["bench", "--config", _write(tmp_path, "c.json", doc), "--out", str(out), "--assert"])
    assert rc == 4
    assert (out / "meta.json").exists()  # results are still written for inspection


def test_bench_assert_without_threshold_passes(tmp_path) -> None:
    # bench has no default ratio_max, so --assert gates only on a configured one.
    doc = {"d": 256, "reps": 10}
    out = tmp_path / "out"
    rc = main(["bench", "--config", _write(tmp_path, "c.json", doc), "--out", str(out), "--assert"])
    assert rc == 0
    assert (out / "meta.json").exists()


# ---------------------------------------------------------------------------
# sample command


def test_sample_outputs(tmp_path) -> None:
    out = tmp_path / "out"
    rc = main(["sample", "--config", _write(tmp_path, "c.json", _sample_doc()), "--out", str(out)])
    assert rc == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "seed=7" in lines[0]
    assert lines[1] == "chain_id,x0,x1"
    rows = _data_rows(out / "samples.csv")
    assert rows.shape == (64, 3)
    meta = _meta(out)
    assert meta["command"] == "sample"
    assert meta["seed"] == 7
    assert meta["metrics"]["sw2_to_truth"] >= 0.0
    assert "timing" in meta and "total_s" in meta["timing"]
    assert meta["config_hash"] == lines[0].split()[1].split("=")[1]


def test_sample_rerun_is_byte_identical(tmp_path) -> None:
    cfg = _write(tmp_path, "c.json", _sample_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    m1, m2 = _meta(out1), _meta(out2)
    m1.pop("timing")
    m2.pop("timing")
    assert m1 == m2


def test_sample_threads_identical(tmp_path) -> None:
    doc = _sample_doc(chains=5000)  # spans two rng blocks
    cfg = _write(tmp_path, "c.json", doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


def test_sample_seed_override(tmp_path) -> None:
    cfg = _write(tmp_path, "c.json", _sample_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    assert _meta(out2)["seed"] == 99
    assert "seed=99" in (out2 / "samples.csv").read_text().splitlines()[0]
    r1, r2 = _data_rows(out1 / "samples.csv"), _data_rows(out2 / "samples.csv")
    assert not np.allclose(r1, r2)


_SMALL_DOCS = {
    "sample": _sample_doc(),
    "compare": {
        "schedule": {"kind": "vp-linear"},
        "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
        "nfe": [5],
        "variants": ["baseline-o1", "LML-o1"],
        "chains": 64,
        "seeds": [0, 1],
        "geometry_grid": [{"lam": 0.01, "kappa": 1e-4}],
    },
    "stationarity": {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5,
        "variant": "damped-exact",
        "lam": 1.0,
        "h": 0.01,
        "n_steps": 20,
        "chains": 64,
    },
    "convergence": {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5,
        "variant": "damped-exact",
        "lams": [0.0, 1.0],
        "h": 0.05,
        "n_steps": 60,
        "snapshot_every": 2,
        "chains": 2000,
    },
    "hessian-error": {
        "schedule": {"kind": "vp-linear"},
        "oracle": {"centers": [[1.0, 0.5], [-1.0, -0.5]]},
        "ts": [0.3],
        "n_points": 5,
    },
    "bench": {"d": 64, "reps": 5},
}


@pytest.mark.parametrize("command", list(_SMALL_DOCS))
def test_seed_override_stamps_every_file(tmp_path, command) -> None:
    # --seed 5 must run the command exactly as a config that holds seed 5
    # (compare: seeds 5, 6), and stamp that seed and the hash in every file.
    doc = _SMALL_DOCS[command]
    direct = json.loads(json.dumps(doc))
    if command == "sample":
        direct["sampler"]["seed"] = 5
    elif command == "compare":
        direct["seeds"] = [5, 6]
    else:
        direct["seed"] = 5
    out1, out2 = tmp_path / "override", tmp_path / "direct"
    assert main([command, "--config", _write(tmp_path, "a.json", doc), "--out", str(out1), "--seed", "5"]) == 0
    assert main([command, "--config", _write(tmp_path, "b.json", direct), "--out", str(out2)]) == 0
    meta = _meta(out1)
    assert meta["seed"] == 5
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs == sorted(meta.get("extra", {}).get("files", []))
    for name in csvs:
        first = (out1 / name).read_text().splitlines()[0]
        assert first.split()[:3] == ["#", f"config_hash={meta['config_hash']}", "seed=5"]
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    other = _meta(out2)
    for m in (meta, other):
        m.pop("timing")
    assert meta == other


def test_negative_seed_override_is_config_error(tmp_path, capsys) -> None:
    cfg = _write(tmp_path, "c.json", _sample_doc())
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sample_kappa_zero_matches_no_geometry(tmp_path) -> None:
    # Configs differ (so hashes differ) but the sampled states must agree to
    # float precision: kappa = 0 disables the geometry by construction.
    plain = _write(tmp_path, "plain.json", _sample_doc())
    guided = _write(tmp_path, "guided.json", _sample_doc(geometry={"lam": 0.001, "kappa": 0.0}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", plain, "--out", str(out1)]) == 0
    assert main(["sample", "--config", guided, "--out", str(out2)]) == 0
    r1, r2 = _data_rows(out1 / "samples.csv"), _data_rows(out2 / "samples.csv")
    # the only daylight is per-step renormalization roundoff amplified by the
    # solver's exponential-integrator coefficients
    np.testing.assert_allclose(r1, r2, rtol=0, atol=5e-12)


# ---------------------------------------------------------------------------
# compare command


def _compare_doc():
    return {
        "schedule": {"kind": "vp-linear"},
        "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
        "nfe": [5, 8],
        "variants": ["baseline-o2", "LML-o2"],
        "chains": 256,
        "seeds": [0, 1],
        "geometry_grid": [{"lam": 0.001, "kappa": 1e-8}, {"lam": 0.01, "kappa": 1e-4}],
    }


def test_compare_outputs(tmp_path) -> None:
    out = tmp_path / "out"
    rc = main(["compare", "--config", _write(tmp_path, "c.json", _compare_doc()), "--out", str(out)])
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[1] == "variant,lam,kappa,mean_nfe5,stderr_nfe5,mean_nfe8,stderr_nfe8"
    body = lines[2:]
    assert len(body) == 3  # one baseline row, two grid rows
    assert body[0].startswith("baseline-o2")
    assert sum(r.startswith("LML-o2") for r in body) == 2
    meta = _meta(out)
    assert set(meta["extra"]["dominating_combos"].keys()) == {"o2"}


def test_annealed_blow_up_is_exit_3(tmp_path, capsys) -> None:
    # step_scale 1e8 grows the annealed chains ~1e8-fold per step, so they
    # overflow before the last of their 40 steps: no row of inf, no summary.
    doc = {
        "schedule": {"kind": "vp-linear"},
        "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
        "nfe": [40],
        "variants": ["baseline-o1", "annealed"],
        "chains": 64,
        "seeds": [0],
        "annealed": {"inner_steps": 20, "step_scale": 1e8},
    }
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(["compare", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)])
    assert rc == 3
    assert "annealed Langevin run" in capsys.readouterr().err
    assert not (out / "compare.csv").exists()
    assert not (out / "meta.json").exists()


def test_compare_overflowing_cell_is_exit_3(tmp_path, capsys) -> None:
    # At step_scale 1e6 the annealed chains stay finite (|x| ~ 1e240), but
    # squaring their projections in sliced W2 overflows: the cell is named
    # and nothing is written, rather than a row of inf.
    doc = {
        "schedule": {"kind": "vp-linear"},
        "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
        "nfe": [40],
        "variants": ["baseline-o1", "annealed"],
        "chains": 64,
        "seeds": [0],
        "annealed": {"inner_steps": 20, "step_scale": 1e6},
    }
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(["compare", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)])
    assert rc == 3
    assert "sliced W2 of annealed at NFE 40, seed 0 overflowed" in capsys.readouterr().err
    assert not (out / "compare.csv").exists()
    assert not (out / "meta.json").exists()


def _compare_table(out):
    """compare.csv as {(variant, lam, kappa): (means, stderrs)}."""
    lines = (out / "compare.csv").read_text().splitlines()[2:]
    table = {}
    for line in lines:
        variant, lam, kappa, *cells = line.split(",")
        vals = np.array(cells, dtype=float)
        table[variant, lam, kappa] = (vals[0::2], vals[1::2])
    return table


def test_compare_table_over_seeds(tmp_path) -> None:
    # Each seed's cells do not depend on the other seeds, so a 2-seed table
    # is the mean and standard error of the two 1-seed tables.  On this grid
    # two of three points beat the first-order baseline and none the second.
    doc = dict(
        _compare_doc(),
        variants=["baseline-o1", "baseline-o2", "LML-o1", "LML-o2"],
        geometry_grid=[{"lam": 0.001, "kappa": 1e-8}, {"lam": 0.01, "kappa": 1e-4}, {"lam": 0.1, "kappa": 0.01}],
    )
    outs = {}
    for name, seeds in (("both", [0, 1]), ("s0", [0]), ("s1", [1])):
        outs[name] = tmp_path / name
        cfg = _write(tmp_path, f"{name}.json", dict(doc, seeds=seeds))
        assert main(["compare", "--config", cfg, "--out", str(outs[name])]) == 0
    both, a, b = (_compare_table(outs[n]) for n in ("both", "s0", "s1"))
    assert both.keys() == a.keys() == b.keys()
    for key, (means, stderr) in both.items():
        (ma, ea), (mb, eb) = a[key], b[key]
        assert np.all(ea == 0.0) and np.all(eb == 0.0)
        np.testing.assert_array_equal(means, (ma + mb) / 2)
        np.testing.assert_allclose(stderr, np.abs(ma - mb) / 2, rtol=1e-12)
    dominating = {}
    for order in ("o1", "o2"):
        base = both[f"baseline-{order}", "", ""][0]
        dominating[order] = [
            {"lam": float(lam), "kappa": float(kappa)}
            for (variant, lam, kappa), (means, _) in both.items()
            if variant == f"LML-{order}" and np.all(means <= base)
        ]
    assert len(dominating["o1"]) == 2 and not dominating["o2"]
    assert _meta(outs["both"])["extra"]["dominating_combos"] == dominating


def test_compare_rerun_identical(tmp_path) -> None:
    cfg = _write(tmp_path, "c.json", _compare_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["compare", "--config", cfg, "--out", str(out1), "--threads", "2"]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()


# ---------------------------------------------------------------------------
# stationarity command


def _stationarity_doc():
    return {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5,
        "variant": "damped-exact",
        "lam": 1.0,
        "h": 0.001,
        "n_steps": 1500,
        "chains": 20000,
        "seed": 3,
    }


def test_stationarity_outputs_and_assert(tmp_path) -> None:
    out = tmp_path / "out"
    cfg = _write(tmp_path, "c.json", _stationarity_doc())
    rc = main(["stationarity", "--config", cfg, "--out", str(out), "--assert"])
    assert rc == 0  # default threshold ks_max = 0.02
    meta = _meta(out)
    assert 0.0 <= meta["metrics"]["ks"] < 0.02
    rows = (out / "histogram.csv").read_text().splitlines()[2:]
    assert len(rows) == 64  # default histogram_bins
    observed = sum(float(r.split(",")[3]) for r in rows)
    assert observed == pytest.approx(1.0)  # observed column holds mass fractions
    assert all(float(r.split(",")[4]) == pytest.approx(1.0 / 64) for r in rows)
    first, last = rows[0].split(","), rows[-1].split(",")
    assert first[1] == "-inf" and last[2] == "inf"


def test_undamped_variant_with_lam_is_config_error(tmp_path, capsys) -> None:
    # newton and plain-langevin take no damping; a lam they would ignore
    # must not reach histogram.csv and meta.json as if it had been applied.
    doc = dict(_stationarity_doc(), variant="newton", lam=5.0)
    out = tmp_path / "out"
    assert main(["stationarity", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 2
    assert "newton takes no damping" in capsys.readouterr().err
    assert not out.exists()


def test_stationarity_assert_failure(tmp_path) -> None:
    doc = _stationarity_doc()
    doc["chains"] = 2000
    doc["n_steps"] = 200
    doc["assert"] = {"ks_max": 1e-6}  # unreachable on purpose
    out = tmp_path / "out"
    rc = main(["stationarity", "--config", _write(tmp_path, "c.json", doc), "--out", str(out), "--assert"])
    assert rc == 4


# ---------------------------------------------------------------------------
# convergence command


def test_convergence_outputs(tmp_path) -> None:
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5,
        "variant": "damped-exact",
        "lams": [0.0, 1.0],
        "h": 0.001,
        "n_steps": 2500,
        "chains": 20000,
        "snapshot_every": 25,
        "seed": 3,
    }
    out = tmp_path / "out"
    rc = main(["convergence", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)])
    assert rc == 0
    meta = _meta(out)
    per_lam = meta["extra"]["per_lam"]
    assert len(per_lam) == 2
    for entry, ref in zip(per_lam, (2.0, 1.0)):
        assert entry["reference_rate"] == pytest.approx(ref)
        assert entry["fitted_rate"] == pytest.approx(ref, rel=0.25)
        assert entry["r_squared"] > 0.9
    for i in range(2):
        rows = _data_rows(out / f"convergence_lam{i}.csv")
        assert rows.shape[1] == 3  # time, value, stderr
        assert np.all(rows[:, 1] > 0)


def test_convergence_gates_no_gaussian_rate_on_a_mixture(tmp_path) -> None:
    # The closed-form rates hold for a single Gaussian target.  On the
    # centers +-0.6 mixture plain Langevin decays at ~1.54, not 2/sigma^2 = 2,
    # with a clean fit: the run records no reference rate and passes its
    # assert on the r^2 gate alone.
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.6], [-0.6]]},
        "t": 0.5,
        "variant": "plain-langevin",
        "lams": [0.0],
        "h": 0.01,
        "n_steps": 300,
        "chains": 8000,
        "snapshot_every": 5,
        "init": {"mean": 2.0, "std": 0.5},
        "fit_window": [0.01, 0.5],
        "seed": 0,
    }
    out = tmp_path / "out"
    rc = main(["convergence", "--config", _write(tmp_path, "c.json", doc), "--out", str(out), "--assert"])
    assert rc == 0
    (entry,) = _meta(out)["extra"]["per_lam"]
    assert entry["reference_rate"] is None
    assert entry["r_squared"] > 0.95


def test_convergence_keeps_one_lam_alive(tmp_path) -> None:
    # Each lam's snapshot array is read and dropped before the next lam runs,
    # so three lams peak near one array rather than three.
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5,
        "variant": "damped-exact",
        "lams": [0.0, 1.0, 4.0],
        "h": 0.05,
        "n_steps": 300,
        "chains": 12000,
        "snapshot_every": 2,
        "seed": 5,
    }
    config = _write(tmp_path, "c.json", doc)
    tracemalloc.start()
    try:
        rc = main(["convergence", "--config", config, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    one_lam = (300 // 2 + 1) * 12000 * 8
    assert peak <= 1.5 * one_lam


# ---------------------------------------------------------------------------
# hessian-error command


def test_hessian_error_outputs(tmp_path) -> None:
    doc = {
        "schedule": {"kind": "vp-linear"},
        "oracle": {"centers": [[1.0, 0.5], [-1.0, -0.5]]},
        "ts": [0.2, 0.7],
        "n_points": 30,
        "seed": 2,
    }
    out = tmp_path / "out"
    rc = main(["hessian-error", "--config", _write(tmp_path, "c.json", doc), "--out", str(out), "--assert"])
    assert rc == 0  # zero bound violations expected on sampled points
    rows = _data_rows(out / "bound_check.csv")
    assert rows.shape == (60, 4)
    meta = _meta(out)
    assert meta["metrics"]["violations"] == 0


# ---------------------------------------------------------------------------
# bench command


def test_bench_outputs(tmp_path) -> None:
    doc = {"d": 512, "reps": 10}
    out = tmp_path / "out"
    rc = main(["bench", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)])
    assert rc == 0
    meta = _meta(out)
    timing = meta["timing"]
    assert timing["baseline_ns"] > 0
    assert timing["lml_ns"] > timing["baseline_ns"]
    assert timing["ratio"] == pytest.approx(timing["lml_ns"] / timing["baseline_ns"])


# ---------------------------------------------------------------------------
# console entry point


def test_module_help_lists_every_command() -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "lmlangevin.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    for command in ("sample", "compare", "stationarity", "convergence", "hessian-error", "bench"):
        assert command in proc.stdout


@pytest.mark.skipif(shutil.which("lmlangevin") is None, reason="console script not installed")
def test_console_script(tmp_path) -> None:
    cfg = _write(tmp_path, "c.json", _sample_doc())
    out = tmp_path / "out"
    proc = subprocess.run(
        ["lmlangevin", "sample", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "samples.csv").exists()
    proc2 = subprocess.run([sys.executable, "-m", "lmlangevin.cli", "--help"], capture_output=True, text=True)
    assert proc2.returncode == 0
