"""The four benchmark workloads: generated inputs, the timed call, and the reference check.

Every input is a pure function of (``--seed``, input index): the seeds written
into the CLI configs and the ``denoise-highd`` centers come from
``numpy.random.SeedSequence([seed, index])``.  A run cycles through
``inputs`` distinct inputs; ``ref_error`` is the median over them, so it is
fixed for a given seed however many operations fit into the timed window.

Importing this module imports no numpy, so the setup probe can start its
clock before the first heavy import.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# Mirrors demos/configs/compare_low_nfe.json; kept here so that edits to the
# demo do not silently change the benchmark.
COMPARE_DOC = {
    "schedule": {"kind": "vp-linear"},
    "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
    "nfe": [5, 8, 10],
    "variants": ["baseline-o1", "baseline-o2", "LML-o1", "LML-o2", "annealed"],
    "chains": 2048,
}

# The shape of demos/configs/convergence_rates.json (1-d single-center VE
# target at sigma_t = 1, damped-exact, lam in {0, 1, 4}) with a coarser step,
# so one command takes about a second instead of minutes.
CONVERGENCE_DOC = {
    "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
    "oracle": {"centers": [[0.0]]},
    "t": 0.5,
    "variant": "damped-exact",
    "lams": [0.0, 1.0, 4.0],
    "h": 0.05,
    "n_steps": 300,
    "snapshot_every": 2,
    "chains": 16384,
}

# Two centers with unequal weights at sigma_t = 1: the curvature is indefinite
# below lam = 1.25, so lam = 2 keeps every damped step defined.
STATIONARITY_DOC = {
    "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
    "oracle": {"centers": [[1.5], [-1.5]], "weights": [0.7, 0.3]},
    "t": 0.5,
    "variant": "damped-exact-corrected",
    "lam": 2.0,
    "h": 0.01,
    "n_steps": 300,
    "chains": 8192,
}

HIGHD = {"dim": 16384, "centers": 4, "radius": 1.0, "chains": 64, "n_steps": 10, "order": 2, "projections": 64}


def sub_seeds(seed: int, index: int, n: int) -> list[int]:
    import numpy as np

    return [int(v) for v in np.random.SeedSequence([seed, index]).generate_state(n) % (2**31)]


@dataclass
class Workload:
    name: str
    inputs: int
    build: Callable[[int, int, Path], Any]  # (seed, index, workdir) -> input
    run: Callable[[Any, Path], tuple[int, Any]]  # (input, outdir) -> (exit code, result)
    ref_error: Callable[[Any, Any], float]  # (input, result) -> distance from the reference
    digest: Callable[[Any], dict]  # result -> {part: (sha256, bytes)}
    size: str
    working_set: dict  # computed bytes of the arrays one call works on
    cli: bool = True  # the operation is a CLI command that writes files


# ---------------------------------------------------------------------------
# CLI workloads: one operation is one `lmlangevin <command>` through cli.main


@dataclass
class CliInput:
    command: str
    config: Path
    doc: dict
    schedule: Any
    oracle: Any


def _cli_build(command: str, base: dict, seed_key: str, n_seeds: int):
    def build(seed: int, index: int, workdir: Path) -> CliInput:
        from lmlangevin.config import build_oracle, build_schedule

        doc = json.loads(json.dumps(base))
        seeds = sub_seeds(seed, index, n_seeds)
        doc[seed_key] = seeds if seed_key == "seeds" else seeds[0]
        path = workdir / f"{command}-{index}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        schedule = build_schedule(doc["schedule"])
        return CliInput(command, path, doc, schedule, build_oracle(doc["oracle"], schedule))

    return build


def _cli_run(inp: CliInput, outdir: Path) -> tuple[int, Path]:
    import lmlangevin.cli

    # Looked up at call time, so a traced operation goes through the wrapped main.
    code = lmlangevin.cli.main([inp.command, "--config", str(inp.config), "--out", str(outdir), "--threads", "1"])
    return code, outdir


def _cli_digest(outdir: Path) -> dict:
    """sha256 and size of every output file; meta.json without its timing block."""
    parts = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "meta.json":
            doc = json.loads(data)
            doc.pop("timing", None)
            data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        parts[path.name] = (hashlib.sha256(data).hexdigest(), len(data))
    return parts


def _meta(outdir: Path) -> dict:
    return json.loads((outdir / "meta.json").read_text())


def _compare_ref(inp: CliInput, outdir: Path) -> float:
    """Mean of the compare.csv sliced-W2 means over every row and NFE."""
    with open(outdir / "compare.csv", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    cols = [j for j, name in enumerate(header) if name.startswith("mean_nfe")]
    vals = [float(r[j]) for r in body for j in cols]
    return sum(vals) / len(vals)


def _convergence_ref(inp: CliInput, outdir: Path) -> float:
    """Largest |fitted - 2/(1 + lam sigma^2)| / reference over the lams."""
    _, sigma = inp.schedule.alpha_sigma(inp.doc["t"])
    sigma = float(sigma)
    worst = 0.0
    for entry in _meta(outdir)["extra"]["per_lam"]:
        ref = 2.0 / (1.0 + entry["lam"] * sigma * sigma)
        worst = max(worst, abs(entry["fitted_rate"] - ref) / ref)
    return worst


def _stationarity_ref(inp: CliInput, outdir: Path) -> float:
    """KS distance of the retained chains from the exact marginal_cdf."""
    return float(_meta(outdir)["metrics"]["ks"])


def _cli_workload(name, command, base, seed_key, n_seeds, inputs, ref, size, working_set):
    return Workload(
        name=name,
        inputs=inputs,
        build=_cli_build(command, base, seed_key, n_seeds),
        run=_cli_run,
        ref_error=ref,
        digest=_cli_digest,
        size=size,
        working_set=working_set,
    )


# ---------------------------------------------------------------------------
# library workload: lml_sample through the ScoreProvider interface


@dataclass
class HighdInput:
    oracle: Any
    config: Any
    seed: int


def _highd_build(seed: int, index: int, workdir: Path) -> HighdInput:
    import numpy as np

    from lmlangevin.geometry import DampedGeometryConfig
    from lmlangevin.oracle import GaussianMixtureOracle
    from lmlangevin.samplers import SamplerConfig
    from lmlangevin.schedule import NoiseSchedule

    center_seed, sampler_seed = sub_seeds(seed, index, 2)
    centers = np.random.default_rng(center_seed).standard_normal((HIGHD["centers"], HIGHD["dim"]))
    # Radius 1 keeps the projected centers within the sampler's terminal noise,
    # so sliced-W2 measures the sampler and not which center each of the 64
    # exact draws happened to pick.
    centers *= HIGHD["radius"] / np.linalg.norm(centers, axis=1, keepdims=True)
    schedule = NoiseSchedule.vp_linear()
    oracle = GaussianMixtureOracle(centers, None, schedule)
    config = SamplerConfig(
        n_steps=HIGHD["n_steps"],
        solver_order=HIGHD["order"],
        geometry=DampedGeometryConfig(),
        schedule=schedule,
        seed=sampler_seed,
        chains=HIGHD["chains"],
    )
    return HighdInput(oracle, config, sampler_seed)


def _highd_run(inp: HighdInput, outdir: Path):
    import lmlangevin.samplers

    return 0, lmlangevin.samplers.lml_sample(inp.config, inp.oracle)


def _highd_ref(inp: HighdInput, run) -> float:
    """Sliced-W2 from the final states to exact draws of the clean mixture."""
    from lmlangevin import rng
    from lmlangevin.diagnostics import sliced_wasserstein

    truth = inp.oracle.sample_data(rng.stream(inp.seed, rng.GT_STREAM_OFFSET), HIGHD["chains"])
    return sliced_wasserstein(run.final_states, truth, HIGHD["projections"], rng.stream(inp.seed, rng.PROJ_STREAM_OFFSET))


def _highd_digest(run) -> dict:
    parts = {}
    for name in ("states", "eps_raw", "eps_used"):
        arr = getattr(run, name)
        parts[name] = (hashlib.sha256(memoryview(arr).cast("B")).hexdigest(), int(arr.nbytes))
    return parts




WORKLOADS = {
    w.name: w
    for w in (
        _cli_workload(
            "denoise-2d", "compare", COMPARE_DOC, "seeds", 5, 2, _compare_ref,
            "d=2, 2 centers, 2048 chains, 21 rows x 3 NFE x 5 seeds = 315 sampler calls per command",
            {"state_bytes": 2048 * 2 * 8, "pairwise_bytes": 2048 * 2 * 2 * 8},
        ),
        Workload(
            name="denoise-highd",
            inputs=4,
            build=_highd_build,
            run=_highd_run,
            ref_error=_highd_ref,
            digest=_highd_digest,
            size="d=16384, 4 centers, 64 chains, NFE 10, order 2, geometry on",
            working_set={
                "state_bytes": 64 * 16384 * 8,
                "pairwise_bytes": 64 * 4 * 16384 * 8,
                "recorded_bytes": (3 * 10 + 1) * 64 * 16384 * 8,
            },
            cli=False,
        ),
        _cli_workload(
            "fixed-level-ou", "convergence", CONVERGENCE_DOC, "seed", 1, 48, _convergence_ref,
            "d=1, 1 center, 16384 chains x 300 steps x 3 lams per command",
            {"block_bytes": 4096 * 8, "snapshot_bytes": 151 * 16384 * 8},
        ),
        _cli_workload(
            "fixed-level-mixture", "stationarity", STATIONARITY_DOC, "seed", 1, 8, _stationarity_ref,
            "d=1, 2 centers, 8192 chains x 300 steps per command",
            {"block_bytes": 4096 * 8, "pairwise_bytes": 4096 * 2 * 8},
        ),
    )
}
