"""Acceptance suite: ten numbered checks pinning the package's core claims.

Each test prints one PASS/FAIL line (bypassing capture) so a plain pytest run
shows the scoreboard.  Tolerances are fixed constants here, not knobs.  Check 8
encodes a quality target (some guided grid cell dominates the order-2 baseline
at every NFE) that the program currently misses; the README explains why.
Check 9 tests the overhead claim in the form it is made: a guided run costs no
extra score evaluations, and the guided update needs O(d) memory, not a dense
d x d curvature.  It also reports the arithmetic ratio of the guided update to
a bare solver update, which is not gated: next to an axpy, with no score
evaluation on either side, that ratio is a fixed multiple above 1 by design.
"""

from __future__ import annotations

import csv
import json
import sys
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from lmlangevin import (
    DampedGeometryConfig,
    FixedLevelConfig,
    GaussianMixtureOracle,
    NoiseSchedule,
    SamplerConfig,
    bound_check,
    finite_diff_jacobian,
    fixed_level_run,
    hs_norm,
    ks_statistic,
    lm_guided_eps,
    lml_sample,
    overhead_benchmark,
)
from lmlangevin.cli import main


@pytest.fixture
def report(capfd):
    """Scoreboard printer that bypasses capture so every line is visible.

    Each criterion prints its human-readable line, then the same result as
    one JSON object with keys criterion, name, ok and detail.
    """

    def _print(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        record = json.dumps({"criterion": num, "name": name, "ok": ok, "detail": detail})
        with capfd.disabled():
            # leading newline: pytest -v leaves its progress line unterminated
            print(f"\n{line}\n{record}", file=sys.stderr, flush=True)

    return _print


def _ve_unit_sigma():
    # sigma(0.5) = 1 within one ulp; alpha = 1 exactly.
    return NoiseSchedule.ve(0.01, 100.0)


# ---------------------------------------------------------------------------


def test_criterion_1_rank_one_inverse_identity(report) -> None:
    # 1000 random (d <= 64, eps, lam in [1e-4, 1e2]) cases:
    # ||(ee^T + lam I)(I - ee^T/(lam + ||e||^2)) - lam I||_HS / lam < 1e-10 d.
    tic = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 65))
        # eps is a whitened noise prediction: unit-variance entries.  Pushing
        # ||eps|| itself to 1e2 with lam at 1e-4 amplifies float64 rounding in
        # the product past any fixed tolerance (||eps||^2/lam ~ 1e8 >= 1/u
        # times the allowance), so the scale knob is lam alone.
        e = rng.normal(size=d)
        lam = 10.0 ** rng.uniform(-4, 2)
        lhs = (np.outer(e, e) + lam * np.eye(d)) @ (np.eye(d) - np.outer(e, e) / (lam + e @ e))
        err = hs_norm(lhs - lam * np.eye(d)) / lam / (1e-10 * d)
        worst = max(worst, err)
    elapsed = time.perf_counter() - tic
    ok = worst < 1.0 and elapsed < 1.0
    report(1, "rank-one inverse identity", ok, f"worst err/tol={worst:.3e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_guided_run_invariants(report) -> None:
    tic = time.perf_counter()
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.0, 0.0], [-1.0, 0.0]], None, sch)

    def run(order, geometry, seed=17):
        cfg = SamplerConfig(
            n_steps=20, solver_order=order, geometry=geometry, schedule=sch, seed=seed, chains=256
        )
        return lml_sample(cfg, orc)

    # (a) norm preservation at every step of a guided run
    guided = run(2, DampedGeometryConfig(lam=1e-3, kappa=1e-2))
    raw_n = np.linalg.norm(guided.eps_raw, axis=-1)
    used_n = np.linalg.norm(guided.eps_used, axis=-1)
    norm_rel = float((np.abs(used_n - raw_n) / raw_n).max())

    # (b) kappa = 0 reproduces the baseline trajectory, both orders
    state_rel = 0.0
    for order in (1, 2):
        a = run(order, None)
        b = run(order, DampedGeometryConfig(lam=1e-3, kappa=0.0))
        state_rel = max(state_rel, float(np.abs(a.states - b.states).max() / np.abs(a.states).max()))

    # (c) lam = 1e12 collapses onto the kappa = 0 run
    c_ref = run(2, DampedGeometryConfig(lam=1e-3, kappa=0.0))
    c_big = run(2, DampedGeometryConfig(lam=1e12, kappa=1e-2))
    big_rel = float(np.abs(c_ref.states - c_big.states).max() / np.abs(c_ref.states).max())

    elapsed = time.perf_counter() - tic
    ok = norm_rel < 1e-12 and state_rel < 1e-12 and big_rel < 1e-6 and elapsed < 10.0
    report(
        2,
        "guided-run invariants",
        ok,
        f"norm rel={norm_rel:.2e}, kappa0 rel={state_rel:.2e}, lam=1e12 rel={big_rel:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_3_oracle_derivatives(report) -> None:
    # score vs FD gradient (1e-6 rel) and Hessian vs FD Jacobian of the score
    # (1e-5 rel); 100 points each over 5 random mixtures, d in {1, 2, 8}.
    tic = time.perf_counter()
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(103)
    dims = (1, 2, 8, 2, 8)
    comps = (2, 3, 4, 3, 5)
    ts = (0.2, 0.5, 0.8, 0.35, 0.65)
    worst_score, worst_hess = 0.0, 0.0
    for d, n, t in zip(dims, comps, ts):
        orc = GaussianMixtureOracle(rng.normal(scale=1.5, size=(n, d)), None, sch)
        xs = rng.normal(scale=1.2, size=(100, d))
        score = orc.score(xs, t)
        hess = orc.hessian(xs, t)
        s_scale = np.abs(score).max()
        h_scale = np.abs(hess).max()
        for x, s_exact, h_exact in zip(xs, score, hess):
            fd_s = finite_diff_jacobian(lambda p: orc.logpdf(p, t), x)
            worst_score = max(worst_score, float(np.abs(fd_s - s_exact).max() / s_scale))
            fd_h = finite_diff_jacobian(lambda p: orc.score(p, t), x)
            worst_hess = max(worst_hess, float(np.abs(fd_h - h_exact).max() / h_scale))
    elapsed = time.perf_counter() - tic
    ok = worst_score < 1e-6 and worst_hess < 1e-5 and elapsed < 30.0
    report(
        3,
        "oracle derivative exactness",
        ok,
        f"score rel={worst_score:.2e}, hessian rel={worst_hess:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_curvature_product_bound(report) -> None:
    # zero violations of the a-priori bound over 200 sampled points x 5
    # mixtures x 3 noise levels.
    tic = time.perf_counter()
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(104)
    from lmlangevin.rng import stream

    dims = (1, 2, 8, 2, 8)
    comps = (2, 3, 4, 3, 2)
    total_violations = 0
    checked = 0
    worst_ratio = 0.0
    for gi, (d, n) in enumerate(zip(dims, comps)):
        orc = GaussianMixtureOracle(rng.normal(scale=1.5, size=(n, d)), None, sch)
        for ti, t in enumerate((0.15, 0.45, 0.8)):
            xs = orc.sample_diffused(stream(104, gi * 3 + ti), 200, t)
            res = bound_check(orc, t, xs)
            total_violations += res.violations
            checked += xs.shape[0]
            worst_ratio = max(worst_ratio, float(res.empirical.max() / res.bound))
    elapsed = time.perf_counter() - tic
    ok = total_violations == 0 and elapsed < 120.0
    report(
        4,
        "curvature-product error bound",
        ok,
        f"{total_violations} violations over {checked} points, max empirical/bound {worst_ratio:.3f}, {elapsed:.1f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_5_fixed_level_stationarity(report) -> None:
    # damped dynamics at sigma_t = 1, lam in {1, 4}, h = 1e-3, 1e4 burn-in
    # steps, 2e5 retained chains: KS vs the analytic N(0,1) CDF < 0.02.
    # The chain blocks run on two threads; the states do not depend on it.
    tic = time.perf_counter()
    orc = GaussianMixtureOracle([[0.0]], None, _ve_unit_sigma())
    worst = 0.0
    details = []
    for lam in (1.0, 4.0):
        cfg = FixedLevelConfig(
            t=0.5, h=1e-3, n_steps=10_000, variant="damped-exact", lam=lam,
            chains=200_000, init_mean=0.0, init_std=1.0, seed=105,
        )
        xs = fixed_level_run(cfg, orc, threads=2).final_states[:, 0]
        ks = ks_statistic(xs, norm.cdf)
        details.append(f"lam={lam:g} ks={ks:.4f}")
        worst = max(worst, ks)
    elapsed = time.perf_counter() - tic
    ok = worst < 0.02 and elapsed < 120.0
    report(5, "fixed-level stationarity", ok, f"{', '.join(details)}, {elapsed:.1f}s")
    assert ok


@pytest.mark.slow
def test_criterion_6_chi2_decay_rate(tmp_path, report) -> None:
    # ensemble of 1e5 chains from N(0.5, 1): fitted chi-square decay rate
    # within 15% of 2/(1 + lam sigma^2) for lam in {0, 1, 4}, R^2 > 0.95.
    # Driven through the convergence command, whose --assert encodes exactly
    # these thresholds; n_steps is sized so the slowest ensemble (lam = 4,
    # rate 0.4) still traverses the whole fit band.  --threads 2 splits the
    # chain blocks over two threads without changing a bit.
    tic = time.perf_counter()
    doc = {
        "schedule": {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0},
        "oracle": {"centers": [[0.0]]},
        "t": 0.5, "variant": "damped-exact", "lams": [0.0, 1.0, 4.0],
        "h": 1e-3, "n_steps": 15_000, "snapshot_every": 25,
        "chains": 100_000, "seed": 106,
        "init": {"mean": 0.5, "std": 1.0},
    }
    cfg = tmp_path / "convergence.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["convergence", "--config", str(cfg), "--out", str(out), "--threads", "2", "--assert"])
    details = []
    if (out / "meta.json").exists():
        for entry in json.loads((out / "meta.json").read_text())["extra"]["per_lam"]:
            details.append(
                f"lam={entry['lam']:g} rate={entry['fitted_rate']:.3f} "
                f"(ref {entry['reference_rate']:.3f}) R2={entry['r_squared']:.3f}"
            )
    elapsed = time.perf_counter() - tic
    ok = rc == 0 and elapsed < 300.0
    report(6, "chi-square decay rate", ok, f"exit={rc}, {'; '.join(details)}, {elapsed:.1f}s")
    assert ok


def test_criterion_7_solver_order(report) -> None:
    # multistep2 order >= 1.8 on the two-center mixture (N in {10,20,40,80}
    # vs N=4096), and single-center terminal exactness < 1e-10 for any N.
    tic = time.perf_counter()
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.0, 0.0], [-1.0, 0.0]], None, sch)

    def finals(n_steps, order):
        cfg = SamplerConfig(n_steps=n_steps, solver_order=order, schedule=sch, seed=107, chains=512)
        return lml_sample(cfg, orc).final_states

    ref = finals(4096, 2)
    ns = np.array([10, 20, 40, 80])
    errs = np.array([float(np.sqrt(np.mean((finals(n, 2) - ref) ** 2))) for n in ns])
    order2_slope = float(-np.polyfit(np.log(ns), np.log(errs), 1)[0])

    single = GaussianMixtureOracle([[0.7, -0.3]], None, sch)
    y = single.centers[0]
    worst_exact = 0.0
    for n in (1, 3, 7, 50, 213):
        cfg = SamplerConfig(n_steps=n, solver_order=1, schedule=sch, seed=108, chains=64)
        run = lml_sample(cfg, single)
        a_top, s_top = sch.alpha_sigma(run.grid.level_time(n))
        a_bot, s_bot = sch.alpha_sigma(run.grid.level_time(0))
        z = (run.states[0] - a_top * y) / s_top
        worst_exact = max(worst_exact, float(np.abs(run.final_states - (a_bot * y + s_bot * z)).max()))

    elapsed = time.perf_counter() - tic
    ok = order2_slope >= 1.8 and worst_exact < 1e-10 and elapsed < 60.0
    report(
        7,
        "solver convergence order",
        ok,
        f"multistep2 slope={order2_slope:.2f}, single-center err={worst_exact:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_guided_quality_dominance(tmp_path, report) -> None:
    # Two-center 2D benchmark via the compare command: some (lam, kappa) from
    # the default grid must match or beat the order-2 baseline's mean sliced
    # Wasserstein at every NFE in {5, 8, 10} over 10 seeds.
    tic = time.perf_counter()
    doc = {
        "schedule": {"kind": "vp-linear"},
        "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
        "nfe": [5, 8, 10],
        "variants": ["baseline-o2", "LML-o2"],
        "chains": 4096,
        "seeds": list(range(10)),
    }
    cfg = tmp_path / "compare.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(cfg), "--out", str(out), "--assert"])
    winners = []
    if (out / "meta.json").exists():
        winners = json.loads((out / "meta.json").read_text())["extra"]["dominating_combos"].get("o2", [])
    closest = _closest_grid_cell(out / "compare.csv", doc["nfe"])
    elapsed = time.perf_counter() - tic
    ok = rc == 0 and elapsed < 600.0
    report(
        8,
        "guided sampler quality (order 2)",
        ok,
        f"exit={rc}, dominating grid cells={winners or 'none'}, {closest}, {elapsed:.1f}s",
    )
    assert ok


def _closest_grid_cell(path, nfe_list) -> str:
    """The LML-o2 cell whose worst-NFE gap over baseline-o2 is smallest.

    A gap is the cell's mean sliced W2 minus the baseline's at one NFE, so a
    cell dominates exactly when its worst gap is <= 0.
    """
    if not path.exists():
        return "no compare.csv"
    rows = list(csv.DictReader(path.read_text().splitlines()[1:]))  # line 0: provenance comment
    base = next(r for r in rows if r["variant"] == "baseline-o2")
    gaps = {
        (r["lam"], r["kappa"]): [float(r[f"mean_nfe{n}"]) - float(base[f"mean_nfe{n}"]) for n in nfe_list]
        for r in rows
        if r["variant"] == "LML-o2"
    }
    (lam, kappa), best = min(gaps.items(), key=lambda kv: max(kv[1]))
    per_nfe = " ".join(f"nfe{n}={g:+.1e}" for n, g in zip(nfe_list, best))
    return f"closest cell lam={lam} kappa={kappa} gap {per_nfe}"


class _CountingProvider:
    """ScoreProvider that counts the eps evaluations a sampler asks for."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def dim(self) -> int:
        return self.inner.dim

    def eps(self, x, t):
        self.calls += 1
        return self.inner.eps(x, t)


def _guided_update_peak_vectors(d: int) -> float:
    """Peak traced allocation of one lm_guided_eps call, in length-d float64 vectors."""
    gen = np.random.default_rng(d)
    cur = gen.standard_normal(d)
    prev = gen.standard_normal(d)
    cfg = DampedGeometryConfig()
    lm_guided_eps(cur, prev, cfg)  # warm-up: first-call allocations are not the update's
    tracemalloc.start()
    try:
        lm_guided_eps(cur, prev, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * d)


def test_criterion_9_per_step_overhead(report) -> None:
    # The overhead claim is relative to the score evaluation, so it is checked
    # in that form, for any score model plugged in:
    # (a) a guided run at order 1 and 2 (package-default lam, kappa) makes
    #     exactly n_steps eps calls, as many as the unguided run;
    # (b) lm_guided_eps on one vector with a previous prediction peaks at
    #     <= 8 length-d float64 vectors at d in {16384, 65536}; a dense d x d
    #     curvature would need d of them.
    # The arithmetic ratio against a bare axpy is reported, not gated.
    tic = time.perf_counter()
    d, n_steps = 16384, 10
    centers = np.zeros((2, d))
    centers[:, 0] = (1.0, -1.0)  # the suite's two-center mixture, embedded
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle(centers, None, sch)

    calls = {}
    guided_moved = True
    for order in (1, 2):
        for geometry in (None, DampedGeometryConfig()):
            provider = _CountingProvider(orc)
            cfg = SamplerConfig(
                n_steps=n_steps, solver_order=order, geometry=geometry, schedule=sch, seed=109, chains=4
            )
            run = lml_sample(cfg, provider)
            calls[order, geometry is not None] = provider.calls
            if geometry is not None:
                # the guided path really ran: guided and raw predictions differ
                guided_moved &= bool(np.any(run.eps_used != run.eps_raw))
    nfe_ok = guided_moved and all(c == n_steps for c in calls.values())

    peaks = {dd: _guided_update_peak_vectors(dd) for dd in (16384, 65536)}
    mem_ok = all(p <= 8.0 for p in peaks.values())

    res = overhead_benchmark(d=d, reps=200, seed=0)
    extra_us = (res.lml_ns - res.baseline_ns) / 1000.0
    elapsed = time.perf_counter() - tic
    ok = nfe_ok and mem_ok and elapsed < 60.0
    call_str = ", ".join(f"o{o}={calls[o, True]}/{calls[o, False]}" for o in (1, 2))
    peak_str = ", ".join(f"d={dd}: {p:.1f}" for dd, p in peaks.items())
    report(
        9,
        "per-step arithmetic overhead",
        ok,
        f"eps calls guided/unguided {call_str} (n_steps={n_steps})"
        f"{'' if guided_moved else ' but guided eps equals raw eps'}, "
        f"guided-update peak in d-vectors {peak_str} (max 8); "
        f"arithmetic ratio={res.ratio:.3f} (baseline {res.baseline_ns:.0f}ns, +{extra_us:.1f}us, not gated), "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_rerun_determinism(tmp_path, report) -> None:
    # Any command rerun with the same config and seed writes byte-identical
    # data files and identical meta.json apart from the timing block,
    # including under --threads > 1.
    tic = time.perf_counter()

    def run_twice(command, doc, data_files, threads=1):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(doc))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            rc = main(
                [command, "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
            )
            assert rc == 0, f"{command} exited {rc}"
            outs.append(out)
        for name in data_files:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                return f"{command}/{name} differs"
        metas = []
        for out in outs:
            m = json.loads((out / "meta.json").read_text())
            m.pop("timing", None)
            metas.append(m)
        if metas[0] != metas[1]:
            return f"{command}/meta.json differs"
        return None

    sch_ve = {"kind": "ve", "sigma_min": 0.01, "sigma_max": 100.0}
    failures = []
    checks = [
        (
            "sample",
            {
                "schedule": {"kind": "vp-linear"},
                "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
                "sampler": {"n_steps": 10, "order": 2, "chains": 300, "seed": 5,
                            "geometry": {"lam": 0.001, "kappa": 1e-4}},
            },
            ["samples.csv"],
            2,
        ),
        (
            "compare",
            {
                "schedule": {"kind": "vp-linear"},
                "oracle": {"centers": [[1.0, 0.0], [-1.0, 0.0]]},
                "nfe": [5, 8],
                "variants": ["baseline-o1", "LML-o1", "annealed"],
                "chains": 256,
                "seeds": [0, 1],
                "geometry_grid": [{"lam": 0.001, "kappa": 1e-8}],
            },
            ["compare.csv"],
            2,
        ),
        (
            "stationarity",
            {
                "schedule": sch_ve, "oracle": {"centers": [[0.0]]},
                "t": 0.5, "variant": "damped-exact", "lam": 1.0, "h": 0.001,
                "n_steps": 300, "chains": 5000, "seed": 9,
            },
            ["histogram.csv"],
            2,
        ),
        (
            "convergence",
            {
                "schedule": sch_ve, "oracle": {"centers": [[0.0]]},
                "t": 0.5, "variant": "damped-exact", "lams": [0.0, 1.0], "h": 0.001,
                "n_steps": 2500, "chains": 5000, "snapshot_every": 25, "seed": 9,
            },
            ["convergence_lam0.csv", "convergence_lam1.csv"],
            1,
        ),
        (
            "hessian-error",
            {
                "schedule": {"kind": "vp-linear"},
                "oracle": {"centers": [[1.0, 0.5], [-1.0, -0.5]]},
                "ts": [0.2, 0.7], "n_points": 25, "seed": 4,
            },
            ["bound_check.csv"],
            1,
        ),
    ]
    for command, doc, files, threads in checks:
        msg = run_twice(command, doc, files, threads)
        if msg:
            failures.append(msg)
    elapsed = time.perf_counter() - tic
    ok = not failures
    report(
        10,
        "rerun determinism",
        ok,
        f"{len(checks)} commands byte-stable{' (' + '; '.join(failures) + ')' if failures else ''}, {elapsed:.1f}s",
    )
    assert ok
