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

from lmlangevin import FixedLevelConfig, GaussianMixtureOracle, cli, config_hash, fixed_level_run, validate_config
from lmlangevin.cli import main
from lmlangevin.config import COMMAND_SCHEMAS, build_oracle, build_schedule
from lmlangevin.diagnostics import chi2_gaussians, chi2_histogram, equal_mass_edges
from lmlangevin.rng import BLOCK
from lmlangevin.samplers import SNAPSHOT_GROUP


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


def test_bad_json_is_config_error(tmp_path, capsys) -> None:
    # malformed JSON, and bytes that are not UTF-8
    for text in (b"{nope", b'{"d": "\xff"}'):
        p = tmp_path / "broken.json"
        p.write_bytes(text)
        out = tmp_path / "out"
        assert main(["sample", "--config", str(p), "--out", str(out)]) == 2
        assert "config error: not valid JSON: " in capsys.readouterr().err
        assert not out.exists()


def test_missing_config_file(tmp_path, capsys) -> None:
    assert main(["sample", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]) == 2
    assert "config error: [Errno 2] No such file or directory" in capsys.readouterr().err


def test_semantic_config_errors(tmp_path, capsys) -> None:
    # main's own check: --threads is checked after the schema, with the same exit and no file written
    out = tmp_path / "out"
    argv = ["sample", "--config", _write(tmp_path, "c.json", _sample_doc()), "--out", str(out), "--threads", "0"]
    assert main(argv) == 2
    assert "config error: --threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def _set(doc, path, value):
    """A copy of doc with the key at a dotted path set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[key] = value
    return doc


_STAT_1D = {
    "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
    "oracle": {"centers": [[0.0]]},
    "t": 0.5,
    "variant": "damped-exact",
    "h": 0.01,
    "n_steps": 20,
    "chains": 16,
}
_CONV_1D = dict(_STAT_1D, lams=[0.0])
_TWO_D = {"centers": [[1.0, 0.0], [-1.0, 0.0]]}
_HESSIAN = {"schedule": {"kind": "vp-linear"}, "oracle": _TWO_D, "ts": [0.5], "n_points": 2}
_COMPARE_ANNEALED = {
    "schedule": {"kind": "vp-linear"},
    "oracle": _TWO_D,
    "nfe": [5, 10],
    "variants": ["annealed"],
    "chains": 16,
    "seeds": [0],
}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        # the schema's own checks, each naming its key path
        ("sample", _set(_sample_doc(), "sampler.n_steps", None), "config.sampler.n_steps: must not be null"),
        ("sample", _set(_sample_doc(), "sampler.n_steps", "ten"), "config.sampler.n_steps: expected int, got str"),
        ("sample", _set(_sample_doc(), "sampler.seed", -1), "config.sampler.seed: must be >= 0"),
        ("sample", _set(_sample_doc(), "sampler.eps_clip", 0.0), "config.sampler.eps_clip: must be > 0.0"),
        ("sample", _set(_sample_doc(), "sampler.order", 3), "config.sampler.order: must be <= 2"),
        ("sample", _set(_sample_doc(), "schedule.kind", "linear"), "config.schedule.kind: must be one of"),
        ("sample", _set(_sample_doc(), "sampler.dtype", "float64"), "config.sampler: unknown keys ['dtype']"),
        ("sample", _set(_sample_doc(), "oracle.centers", []), "config.oracle.centers: needs at least 1 entries"),
        ("sample", _set(_sample_doc(), "sampler", {"chains": 2}), "config.sampler: missing required key 'n_steps'"),
        # the builders
        (
            "sample", _set(_sample_doc(), "schedule", {"kind": "vp-linear", "beta_min": 20.0, "beta_max": 0.1}),
            "config.schedule: need 0 < beta_min < beta_max",
        ),
        (
            "sample", _set(_sample_doc(), "schedule", {"kind": "cosine", "t_max": 1.5}),
            "config.schedule: cosine schedule requires t_max < 1",
        ),
        (
            "sample", _set(_sample_doc(), "oracle.centers_csv", "centers.csv"),
            "config.oracle: exactly one of 'centers' or 'centers_csv' is required",
        ),
        (
            "sample", _set(_sample_doc(), "oracle", {"weights": [1.0]}),
            "config.oracle: exactly one of 'centers' or 'centers_csv' is required",
        ),
        (
            "sample", _set(_sample_doc(), "oracle", {"centers_csv": "absent.csv"}),
            "config.oracle: cannot read centers_csv",
        ),
        (
            "sample", _set(_sample_doc(), "oracle.weights", [1.0, 2.0, 3.0]),
            "config.oracle: weights must be one per center",
        ),
        (
            "sample", _set(_sample_doc(), "oracle.centers", [[1.0, 0.0], [-1.0]]),
            "config.oracle: centers rows must all have the same length",
        ),
        # the commands' own rules
        ("stationarity", _set(_STAT_1D, "oracle", _TWO_D), "config.oracle: stationarity needs a 1-d oracle (got dim=2)"),
        ("convergence", _set(_CONV_1D, "oracle", _TWO_D), "config.oracle: convergence needs a 1-d oracle (got dim=2)"),
        (
            "compare", _set(_COMPARE_ANNEALED, "annealed", {"inner_steps": 6}),
            "config.nfe: each must be a multiple of annealed.inner_steps = 6; got [5, 10]",
        ),
        # NFE 5 would run two annealed levels of 2 inner steps, 4 eps calls, under a column that says 5
        (
            "compare", _set(_COMPARE_ANNEALED, "annealed", {"inner_steps": 2}),
            "config.nfe: each must be a multiple of annealed.inner_steps = 2; got [5]",
        ),
        ("sample", _set(_sample_doc(), "sampler.eps_clip", 2.0), "config: time out of schedule range: eps_clip"),
        ("compare", _set(_COMPARE_ANNEALED, "eps_clip", 2.0), "config: time out of schedule range: eps_clip"),
        ("stationarity", _set(_STAT_1D, "t", 2.0), "config: time out of schedule range: time out of range"),
        (
            "convergence", _set(_CONV_1D, "fit_window", [0.2, 3e-3]),
            "config.fit_window: must be [low, high] with low < high",
        ),
        (
            "convergence", _set(_CONV_1D, "fit_window", [0.001, 0.1, 0.2]),
            "config.fit_window: must be [low, high] with low < high",
        ),
        ("convergence", _set(_CONV_1D, "snapshot_every", 21), "config: snapshot_every must lie in [1, n_steps = 20]"),
        (
            "stationarity", _set(_set(_STAT_1D, "variant", "damped-lm"), "lam", 0.0),
            "config: damped-lm requires lam > 0",
        ),
        (
            "hessian-error", _set(_HESSIAN, "oracle.centers", [[1.0] * 65]),
            "config.oracle: hessian-error needs dim <= 64 (got dim=65)",
        ),
        ("hessian-error", _set(_HESSIAN, "ts", [0.5, 2.0]), "config: time out of schedule range: time out of range"),
        # finite, positive inputs whose derived constants overflow
        (
            "stationarity", _set(_STAT_1D, "oracle", {"centers": [[0.0], [1.0]], "weights": [1e308, 1e308]}),
            "config.oracle: weights must be positive and finite, and so must their sum",
        ),
        (
            "stationarity", _set(_STAT_1D, "oracle.centers", [[1e200], [-1e200]]),
            "config.oracle: centers must be finite, and so must their squared distances from their mean",
        ),
        # Newton is damped-exact at lam = 0, and compare gates under --assert alone
        ("stationarity", _set(_STAT_1D, "variant", "newton"), "config.variant: must be one of"),
        ("compare", _set(_COMPARE_ANNEALED, "assert", {}), "config: unknown keys ['assert']"),
    ],
    ids=[
        "null", "type", "min", "exclusive-min", "max", "choices", "unknown-key", "min-len", "required",
        "schedule-builder", "cosine-t-max", "both-centers", "no-centers", "unreadable-csv", "weight-count",
        "ragged-centers", "stationarity-1d", "convergence-1d", "compare-annealed-nfe", "compare-annealed-nfe-multiple",
        "sample-eps-clip", "compare-eps-clip", "stationarity-t", "fit-window-reversed", "fit-window-length",
        "snapshot-every",
        "damped-lm-lam0", "hessian-error-dim", "hessian-error-t", "weights-sum-overflow", "centers-spread-overflow",
        "newton-variant", "compare-assert",
    ],
)
def test_config_error_names_its_key(tmp_path, capsys, monkeypatch, command, doc, message) -> None:
    # A config fault stops the run before it computes anything.
    for name in ("lml_sample", "annealed_langevin_sample", "fixed_level_run", "bound_check", "overhead_benchmark"):

        def computes(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran on a faulty config")

        monkeypatch.setattr(cli, name, computes)
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_schedule_keys_follow_the_kind(tmp_path, capsys) -> None:
    # A kind takes the keys its constructor names: cosine takes offset and t_max ...
    doc = _sample_doc()
    doc["schedule"] = {"kind": "cosine", "offset": 0.01, "t_max": 0.99}
    out = tmp_path / "cosine"
    assert main(["sample", "--config", _write(tmp_path, "cosine.json", doc), "--out", str(out)]) == 0
    assert _data_rows(out / "samples.csv").shape == (64, 3)
    # ... and a key of another kind is a config error that writes nothing
    for stray, schedule in (
        ("t_max", {"kind": "vp-linear", "t_max": 0.5}),
        ("offset", {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0, "offset": 0.01}),
    ):
        doc["schedule"] = schedule
        out = tmp_path / stray
        assert main(["sample", "--config", _write(tmp_path, f"{stray}.json", doc), "--out", str(out)]) == 2
        assert f"config.schedule: keys ['{stray}'] do not apply to kind '{schedule['kind']}'" in capsys.readouterr().err
        assert not out.exists()


def test_centers_csv_is_the_inline_centers(tmp_path) -> None:
    inline = _sample_doc()
    (tmp_path / "centers.csv").write_text("1.0,0.0\n-1.0,0.0\n")
    from_csv = dict(inline, oracle={"centers_csv": str(tmp_path / "centers.csv")})
    outs = []
    for name, doc in (("inline", inline), ("csv", from_csv)):
        outs.append(tmp_path / name)
        assert main(["sample", "--config", _write(tmp_path, f"{name}.json", doc), "--out", str(outs[-1])]) == 0
    # the same data, under each document's own config hash
    a, b = ((out / "samples.csv").read_bytes().split(b"\n", 1) for out in outs)
    assert a[1] == b[1]
    metas = [_meta(out) for out in outs]
    configs = [meta.pop("config") for meta in metas]
    for config in configs:
        del config["oracle"]
    assert configs[0] == configs[1]
    for meta in metas:
        del meta["timing"], meta["config_hash"]
    assert metas[0] == metas[1]


def test_huge_integer_is_config_error(tmp_path, capsys) -> None:
    p = tmp_path / "c.json"
    p.write_text('{"d": ' + "9" * 400 + "}")
    out = tmp_path / "out"
    assert main(["bench", "--config", str(p), "--out", str(out)]) == 2
    assert "config.d: must be finite" in capsys.readouterr().err
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
    assert not out.exists()  # a failed run does not even make --out


def test_out_that_is_a_file_is_exit_3(tmp_path, capsys) -> None:
    # --out is made only once the run has finished; a file in its place is an i/o failure that keeps its bytes.
    out = tmp_path / "out"
    out.write_bytes(b"not a directory\n")
    assert main(["sample", "--config", _write(tmp_path, "c.json", _sample_doc()), "--out", str(out)]) == 3
    assert "i/o failure: " in capsys.readouterr().err
    assert out.read_bytes() == b"not a directory\n"


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


def test_non_finite_metric_is_exit_3(tmp_path, monkeypatch, capsys) -> None:
    # A finite run whose metric is not finite writes neither its CSV nor its summary.
    monkeypatch.setattr("lmlangevin.cli.sliced_wasserstein", lambda *args: float("nan"))
    out = tmp_path / "out"
    rc = main(["sample", "--config", _write(tmp_path, "c.json", _sample_doc()), "--out", str(out)])
    assert rc == 3
    assert "not finite" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()
    assert not (out / "meta.json").exists()


def test_failed_rerun_leaves_out_untouched(tmp_path) -> None:
    # lam 1000 slows the decay ~1000-fold, so its chi-square never enters the
    # fit window and the rerun exits 3 after lam 0 has finished: the files of
    # the first run must keep their bytes, not mix two config hashes.
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5,
        "variant": "damped-exact",
        "lams": [0.0, 1.0],
        "h": 0.01,
        "n_steps": 400,
        "chains": 4000,
    }
    out = tmp_path / "out"
    assert main(["convergence", "--config", _write(tmp_path, "a.json", doc), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["convergence_lam0.csv", "convergence_lam1.csv", "meta.json"]
    doc.update(lams=[0.0, 1000.0], seed=2)
    assert main(["convergence", "--config", _write(tmp_path, "b.json", doc), "--out", str(out)]) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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
    assert set(meta) == {"command", "config", "config_hash", "seed", "metrics", "extra", "timing"}
    assert meta["extra"]["files"] == ["samples.csv"]
    assert "total_s" in meta["timing"]
    assert meta["config_hash"] == lines[0].split()[1].split("=")[1]
    assert config_hash(meta["config"]) == meta["config_hash"]


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


@pytest.mark.parametrize("seed", [None, 11])
@pytest.mark.parametrize("command", list(_SMALL_DOCS))
def test_meta_config_reruns(tmp_path, command, seed) -> None:
    # meta.json records the validated document (defaults filled in, --seed applied) that the
    # stamp hashes, beside only what the command computed; running it again writes the same files.
    override = [] if seed is None else ["--seed", str(seed)]
    first, again = tmp_path / "first", tmp_path / "again"
    cfg = _write(tmp_path, "a.json", _SMALL_DOCS[command])
    assert main([command, "--config", cfg, "--out", str(first)] + override) == 0
    meta = _meta(first)
    assert config_hash(meta["config"]) == meta["config_hash"]
    assert set(meta["extra"]) <= {"files", "dominating_combos", "per_lam", "per_t"}
    assert main([command, "--config", _write(tmp_path, "b.json", meta["config"]), "--out", str(again)]) == 0
    assert sorted(p.name for p in again.iterdir()) == sorted(p.name for p in first.iterdir())
    for name in meta["extra"].get("files", []):  # bench writes meta.json alone
        assert (again / name).read_bytes() == (first / name).read_bytes()
    rerun = _meta(again)
    for m in (meta, rerun):
        m.pop("timing")
    assert rerun == meta


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
    # plain-langevin takes no damping; a lam it would ignore
    # must not reach histogram.csv and meta.json as if it had been applied.
    doc = dict(_stationarity_doc(), variant="plain-langevin", lam=5.0)
    out = tmp_path / "out"
    assert main(["stationarity", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 2
    assert "plain-langevin takes no damping" in capsys.readouterr().err
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


def test_convergence_narrow_start(tmp_path) -> None:
    # A start narrower than the stderr's 1e-6 difference step (init.std = 1e-7) is a valid
    # config: the step shrinks with the sample std, so every row's stderr is finite.
    doc = dict(_CONV_1D, n_steps=200, chains=2000, init={"std": 1e-7})
    out = tmp_path / "out"
    assert main(["convergence", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 0
    rows = _data_rows(out / "convergence_lam0.csv")
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 1:] > 0)


def test_convergence_wide_start_writes_no_nan(tmp_path) -> None:
    # A start wider than sqrt(2) sigma_t has an infinite closed-form chi-square until the chains
    # contract; those rows carry an infinite stderr, not inf - inf, and the fit window skips them.
    doc = dict(_CONV_1D, lams=[1.0], n_steps=400, snapshot_every=2, chains=4000, init={"mean": 0.5, "std": 2.0})
    out = tmp_path / "out"
    assert main(["convergence", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 0
    rows = _data_rows(out / "convergence_lam0.csv")
    wide = np.isinf(rows[:, 1])
    assert 0 < wide.sum() < len(rows)
    assert not np.isnan(rows).any()
    assert np.all(rows[wide, 2] == np.inf)


def test_package_fingerprint_is_the_cli_stamp(tmp_path) -> None:
    # snapshot_every's default, n_steps // 200, is the schema's, so the
    # package's validate_config + config_hash give the document the hash
    # that the CLI stamps on its files.
    cfg = _write(tmp_path, "c.json", dict(_CONV_1D, n_steps=400, chains=2000))
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(Path(cfg).read_text())
    validate_config(doc, COMMAND_SCHEMAS["convergence"])
    assert config_hash(doc) == _meta(out)["config_hash"]
    assert doc["snapshot_every"] == 2


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


_SIGMA_AT_06 = 0.01 * 1e4**0.6  # sigma(0.6) of the VE schedule from 0.01 to 100


def _gaussian_convergence_doc(variant, h, lams):
    # A Gaussian target at sigma(0.6), with the chains started off its mean.
    return {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100},
        "oracle": {"centers": [[0.0]]},
        "t": 0.6,
        "variant": variant,
        "lams": lams,
        "h": h,
        "n_steps": 600,
        "chains": 20000,
        "init": {"mean": 2.0, "std": 0.5},
    }


@pytest.mark.parametrize(
    "variant, h, reference", [("plain-langevin", 0.05, 2.0 / _SIGMA_AT_06**2), ("damped-exact", 0.01, 2.0)],
    ids=["plain-langevin", "newton"],
)
def test_convergence_reference_rates(tmp_path, variant, h, reference) -> None:
    # On a Gaussian target plain Langevin decays at 2/sigma^2 and Newton, the damped metric at lam = 0, at 2.
    doc = _gaussian_convergence_doc(variant, h, [0.0])
    out = tmp_path / "out"
    assert main(["convergence", "--config", _write(tmp_path, "c.json", doc), "--out", str(out), "--assert"]) == 0
    (entry,) = _meta(out)["extra"]["per_lam"]
    assert entry["reference_rate"] == pytest.approx(reference, rel=1e-12)


def test_convergence_damped_lm_has_no_reference_rate(tmp_path) -> None:
    # damped-lm's metric depends on the state, so even a Gaussian target gives no closed-form
    # rate: meta.json records null and --assert gates on the fit quality alone.
    doc = _gaussian_convergence_doc("damped-lm", 0.01, [1.0])
    out = tmp_path / "out"
    assert main(["convergence", "--config", _write(tmp_path, "c.json", doc), "--out", str(out), "--assert"]) == 0
    assert '"reference_rate": null' in (out / "meta.json").read_text()
    (entry,) = _meta(out)["extra"]["per_lam"]
    assert entry["r_squared"] >= 0.95 and entry["fitted_rate"] > 0.0


def test_convergence_rate_outside_tolerance_is_exit_4(tmp_path) -> None:
    # A clean fit whose rate misses the closed form by more than rate_rel_tol fails --assert, after
    # writing its files; without --assert the same run exits 0.
    doc = dict(_gaussian_convergence_doc("plain-langevin", 0.05, [0.0]), **{"assert": {"rate_rel_tol": 1e-6}})
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out), "--assert"]) == 4
    (entry,) = _meta(out)["extra"]["per_lam"]
    assert entry["r_squared"] >= 0.95
    assert abs(entry["fitted_rate"] - entry["reference_rate"]) > 1e-6 * entry["reference_rate"]
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0


@pytest.mark.parametrize(
    "oracle, variant, lams, extra",
    [
        ({"centers": [[0.0]]}, "damped-exact", [0.0, 1.0], {"h": 0.05, "n_steps": 60, "snapshot_every": 3}),
        (
            {"centers": [[0.6], [-0.6]]}, "plain-langevin", [0.0],
            {"h": 0.01, "n_steps": 300, "snapshot_every": 11, "init": {"mean": 2.0, "std": 0.5},
             "fit_window": [0.01, 0.5]},
        ),
    ],
    ids=["moments", "histogram"],
)
def test_convergence_rows_are_the_stored_snapshots(tmp_path, oracle, variant, lams, extra) -> None:
    # convergence reduces each snapshot as the walk hands it on, in groups
    # that do not divide the snapshot count, over a partial last block: its
    # rows do not depend on --threads and are, bit for bit, the chi-square of
    # a storing run's snapshots.
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": oracle, "t": 0.5, "variant": variant, "lams": lams, "chains": 2 * BLOCK + 5, "seed": 8, **extra,
    }
    config = _write(tmp_path, "c.json", doc)
    for threads in (1, 2):
        argv = ["convergence", "--config", config, "--out", str(tmp_path / f"t{threads}"), "--threads", str(threads)]
        assert main(argv) == 0
    schedule = build_schedule(doc["schedule"])
    orc = build_oracle(doc["oracle"], schedule)
    alpha, sigma = orc.level(0.5)
    edges = equal_mass_edges(lambda q: orc.marginal_quantile(q, 0.5), 64)
    init = extra.get("init", {"mean": 0.5, "std": 1.0})
    for i, lam in enumerate(lams):
        name = f"convergence_lam{i}.csv"
        text = (tmp_path / "t1" / name).read_text()
        assert (tmp_path / "t2" / name).read_text() == text
        cfg = FixedLevelConfig(
            t=0.5, h=extra["h"], n_steps=extra["n_steps"], variant=variant, lam=lam, chains=2 * BLOCK + 5,
            snapshot_every=extra["snapshot_every"], init_mean=init["mean"], init_std=init["std"], seed=8,
        )
        run = fixed_level_run(cfg, orc)
        assert run.states.shape[0] % SNAPSHOT_GROUP != 0
        rows = []
        for when, states in zip(run.times, run.states[:, :, 0]):
            if len(oracle["centers"]) == 1:
                m, s = float(states.mean()), float(states.std(ddof=1))
                mu = alpha * oracle["centers"][0][0]
                value, err = chi2_gaussians(m, s, mu, sigma), cli._gaussian_chi2_stderr(m, s, mu, sigma, states.size)
            else:
                value, err = chi2_histogram(states, edges)
            rows.append(",".join(cli._f(v) for v in (when, value, err)))
        assert text.splitlines()[2:] == rows


def test_convergence_bins_each_snapshot_once(tmp_path, monkeypatch) -> None:
    # The histogram branch reads a snapshot's chi-square and its stderr off one binning.
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.6], [-0.6]]},
        "t": 0.5,
        "variant": "damped-exact",
        "lams": [0.0, 1.0],
        "h": 0.01,
        "n_steps": 300,
        "chains": 2000,
        "snapshot_every": 10,
        "init": {"mean": 2.0, "std": 0.5},
        "fit_window": [0.01, 0.5],
        "seed": 0,
    }
    calls = []
    real = np.searchsorted

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    rc = main(["convergence", "--config", _write(tmp_path, "c.json", doc), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(calls) == 2 * 31


def test_convergence_keeps_one_lam_alive(tmp_path) -> None:
    # Each snapshot is reduced as the walk hands it on, so no lam's
    # (151, 12000) snapshot array is built, let alone three of them.
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
    assert peak <= 0.25 * one_lam


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


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for a subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_help_lists_every_command() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "lmlangevin.cli", "--help"], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    for command in ("sample", "compare", "stationarity", "convergence", "hessian-error", "bench"):
        assert command in proc.stdout


def test_module_entry_exit_codes(tmp_path) -> None:
    # `python -m lmlangevin.cli` exits with main's code: 0 on a valid config,
    # 2 on a config path that does not exist, which makes no --out.
    runs = {"ok": _write(tmp_path, "c.json", _sample_doc()), "missing": str(tmp_path / "absent.json")}
    codes = {}
    for name, cfg in runs.items():
        cmd = [sys.executable, "-m", "lmlangevin.cli", "sample", "--config", cfg, "--out", str(tmp_path / name)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_src_env())
        codes[name] = proc.returncode
    assert codes == {"ok": 0, "missing": 2}, proc.stderr
    assert "config error: [Errno 2] No such file or directory" in proc.stderr
    assert (tmp_path / "ok" / "samples.csv").exists()
    assert not (tmp_path / "missing").exists()


def test_package_namespace_is_the_modules_all() -> None:
    # The package re-exports each module's __all__ as the same objects, plus
    # config's three public names and the version, with no name twice.
    import lmlangevin
    from lmlangevin import diagnostics, geometry, oracle, samplers, schedule

    names = []
    for module in (schedule, oracle, geometry, samplers, diagnostics):
        for name in module.__all__:
            assert getattr(lmlangevin, name) is getattr(module, name), name
        names += module.__all__
    assert len(lmlangevin.__all__) == len(set(lmlangevin.__all__))
    assert set(lmlangevin.__all__) == {*names, "ConfigError", "config_hash", "validate_config", "__version__"}


_NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from lmlangevin.cli import main
stat_cfg, stat_out, conv_cfg, conv_out = sys.argv[1:]
codes = [main(["stationarity", "--config", stat_cfg, "--out", stat_out]),
         main(["convergence", "--config", conv_cfg, "--out", conv_out])]
sys.exit(max(codes))
"""


def test_mixture_commands_run_without_scipy(tmp_path) -> None:
    # numpy is the only run-time dependency: the 1-d KS and equal-mass
    # histogram references of both mixture commands need no scipy.
    schedule = {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0}
    stationarity = {
        "schedule": schedule,
        "oracle": {"centers": [[1.5], [-1.5]], "weights": [0.7, 0.3]},
        "t": 0.5,
        "variant": "damped-exact-corrected",
        "lam": 2.0,
        "h": 0.01,
        "n_steps": 40,
        "chains": 500,
        "seed": 1,
    }
    convergence = {
        "schedule": schedule,
        "oracle": {"centers": [[0.6], [-0.6]]},
        "t": 0.5,
        "variant": "plain-langevin",
        "lams": [0.0],
        "h": 0.01,
        "n_steps": 100,
        "chains": 500,
        "snapshot_every": 5,
        "init": {"mean": 2.0, "std": 0.5},
        "fit_window": [0.3, 30.0],
        "seed": 0,
    }
    stat_out, conv_out = tmp_path / "stationarity", tmp_path / "convergence"
    args = [_write(tmp_path, "s.json", stationarity), str(stat_out), _write(tmp_path, "c.json", convergence),
            str(conv_out)]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, *args], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert len((stat_out / "histogram.csv").read_text().splitlines()) == 2 + 64
    assert _data_rows(conv_out / "convergence_lam0.csv").shape == (21, 3)


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
