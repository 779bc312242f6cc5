from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmlangevin import (
    FIXED_LEVEL_VARIANTS,
    DampedGeometryConfig,
    DampingTooSmallError,
    FixedLevelConfig,
    GaussianMixtureOracle,
    NoiseSchedule,
    NotLogConcaveError,
    SamplerConfig,
    annealed_langevin_sample,
    damped_step,
    ddim_step,
    fixed_level_run,
    ks_statistic,
    lml_sample,
    low_rank_hessian,
    make_grid,
    multistep2_step,
    newton_langevin_step,
)
from lmlangevin import oracle as oracle_module
from lmlangevin import samplers
from lmlangevin.rng import BLOCK, ensemble_normal, stream


def _mixture2d(schedule):
    return GaussianMixtureOracle([[1.0, 0.0], [-1.0, 0.0]], None, schedule)


def _unit_sigma_schedule():
    # VE with sigma(0.5) = 1; alpha is identically 1 for VE.
    return NoiseSchedule.ve(0.01, 100.0)


# ---------------------------------------------------------------------------
# deterministic solver steps


def test_ddim_step_matches_x0_prediction_form() -> None:
    # Exponential-integrator form vs the x0-prediction form
    # alpha_next * (x - sigma_cur eps)/alpha_cur + sigma_next * eps.
    sch = NoiseSchedule.vp_linear()
    grid = make_grid(sch, 12)
    rng = np.random.default_rng(41)
    x = rng.normal(size=(5, 3))
    eps = rng.normal(size=(5, 3))
    for i in (1, 6, 12):
        t_cur, t_next = grid.level_time(i), grid.level_time(i - 1)
        a_c, s_c = sch.alpha_sigma(t_cur)
        a_n, s_n = sch.alpha_sigma(t_next)
        expected = a_n * (x - s_c * eps) / a_c + s_n * eps
        np.testing.assert_allclose(ddim_step(x, eps, i, grid), expected, rtol=1e-12)


def test_multistep2_is_ddim_on_extrapolated_eps() -> None:
    sch = NoiseSchedule.vp_linear()
    grid = make_grid(sch, 9)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(4, 2))
    eps_c = rng.normal(size=(4, 2))
    eps_p = rng.normal(size=(4, 2))
    for i in (1, 4, 8):
        t_cur, t_next, t_prev = grid.level_time(i), grid.level_time(i - 1), grid.level_time(i + 1)
        r = (sch.log_snr(t_cur) - sch.log_snr(t_prev)) / (sch.log_snr(t_next) - sch.log_snr(t_cur))
        eps_bar = (1.0 + 1.0 / (2 * r)) * eps_c - (1.0 / (2 * r)) * eps_p
        expected = ddim_step(x, eps_bar, i, grid)
        np.testing.assert_allclose(multistep2_step(x, eps_c, eps_p, i, grid), expected, rtol=1e-13)


def test_multistep2_uniform_logsnr_coefficients() -> None:
    # VE has log-SNR linear in t, so a uniform grid gives r = 1 exactly and
    # eps_bar = 1.5 eps_cur - 0.5 eps_prev.
    sch = NoiseSchedule.ve()
    grid = make_grid(sch, 6)
    x = np.array([[0.4, -0.2]])
    eps_c = np.array([[1.0, 2.0]])
    eps_p = np.array([[-1.0, 0.5]])
    expected = ddim_step(x, 1.5 * eps_c - 0.5 * eps_p, 3, grid)
    np.testing.assert_allclose(multistep2_step(x, eps_c, eps_p, 3, grid), expected, rtol=1e-14)


def test_multistep2_needs_history() -> None:
    sch = NoiseSchedule.vp_linear()
    grid = make_grid(sch, 5)
    x = np.zeros((1, 2))
    with pytest.raises(ValueError, match="previous prediction"):
        multistep2_step(x, x, None, 3, grid)
    with pytest.raises(ValueError, match="no level above"):
        multistep2_step(x, x, x, 5, grid)


class _LinearProvider:
    """A ScoreProvider that is no oracle, so it calls no schedule method itself."""

    dim = 3

    def eps(self, x, t):
        return 0.5 * x + t


def test_denoiser_steps_call_no_schedule_method(monkeypatch) -> None:
    # Building the grid tabulates the schedule; the step loops only index it.
    calls = []
    for name in ("alpha_sigma", "log_snr"):
        real = getattr(NoiseSchedule, name)

        def counted(self, t, real=real, name=name):
            calls.append(name)
            return real(self, t)

        monkeypatch.setattr(NoiseSchedule, name, counted)
    sch = NoiseSchedule.vp_linear()
    make_grid(sch, 6)
    per_grid = len(calls)
    assert per_grid > 0
    geometry = DampedGeometryConfig(lam=0.1, kappa=0.2)
    for order in (1, 2):
        calls.clear()
        cfg = SamplerConfig(n_steps=6, solver_order=order, geometry=geometry, schedule=sch, chains=4)
        lml_sample(cfg, _LinearProvider())
        assert len(calls) == per_grid, (order, calls)
    calls.clear()
    annealed_langevin_sample(SamplerConfig(n_steps=6, schedule=sch, chains=4), _LinearProvider(), 2, 0.1)
    assert len(calls) == per_grid, calls
    # An oracle keeps alpha_t and sigma_t per time: four 3-row tiles that each
    # query the 6 level times make 6 schedule calls, not 24.
    monkeypatch.setattr(samplers, "TILE_BYTES", 3 * 8 * 2)
    calls.clear()
    lml_sample(SamplerConfig(n_steps=6, schedule=sch, chains=12), _mixture2d(sch))
    assert len(calls) == per_grid + 6, calls


def test_single_component_terminal_exactness() -> None:
    # On a one-center oracle the prediction is linear in x, so the order-1
    # solver reproduces the exact flow map for any step count.
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[0.7, -0.3]], None, sch)
    y = orc.centers[0]
    for n in (1, 3, 7, 50):
        cfg = SamplerConfig(n_steps=n, solver_order=1, schedule=sch, seed=5, chains=64)
        run = lml_sample(cfg, orc)
        t_top, t_bot = run.grid.level_time(n), run.grid.level_time(0)
        a_top, s_top = sch.alpha_sigma(t_top)
        a_bot, s_bot = sch.alpha_sigma(t_bot)
        z = (run.states[0] - a_top * y) / s_top
        expected = a_bot * y + s_bot * z
        assert np.abs(run.final_states - expected).max() < 1e-10


def test_solver_convergence_orders() -> None:
    # Self-convergence on the two-center mixture: order-1 slope near 1,
    # order-2 slope comfortably above 1.8.
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)

    def finals(n_steps, order):
        cfg = SamplerConfig(n_steps=n_steps, solver_order=order, schedule=sch, seed=3, chains=256)
        return lml_sample(cfg, orc).final_states

    ref = finals(2048, 2)
    ns = np.array([20, 40, 80])
    slopes = {}
    for order in (1, 2):
        errs = [float(np.sqrt(np.mean((finals(n, order) - ref) ** 2))) for n in ns]
        slopes[order] = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slopes[1] > 0.8
    assert slopes[2] > 1.8
    assert slopes[2] > slopes[1]


# ---------------------------------------------------------------------------
# guided runs


def test_guided_run_preserves_prediction_norms() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)
    cfg = SamplerConfig(
        n_steps=15,
        solver_order=2,
        geometry=DampedGeometryConfig(lam=1e-3, kappa=1e-2),
        schedule=sch,
        seed=0,
        chains=128,
    )
    run = lml_sample(cfg, orc)
    raw = np.linalg.norm(run.eps_raw, axis=-1)
    used = np.linalg.norm(run.eps_used, axis=-1)
    assert (np.abs(used - raw) / raw).max() < 1e-12


def test_guided_kappa_zero_equals_baseline() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)
    for order in (1, 2):
        base = SamplerConfig(n_steps=20, solver_order=order, schedule=sch, seed=7, chains=64)
        guided = SamplerConfig(
            n_steps=20,
            solver_order=order,
            geometry=DampedGeometryConfig(lam=1e-3, kappa=0.0),
            schedule=sch,
            seed=7,
            chains=64,
        )
        a = lml_sample(base, orc)
        b = lml_sample(guided, orc)
        scale = np.abs(a.states).max()
        assert np.abs(a.states - b.states).max() / scale < 1e-12


def test_guided_huge_lam_matches_kappa_zero() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)

    def run_with(geom):
        cfg = SamplerConfig(n_steps=20, solver_order=2, geometry=geom, schedule=sch, seed=9, chains=64)
        return lml_sample(cfg, orc)

    a = run_with(DampedGeometryConfig(lam=1e-3, kappa=0.0))
    b = run_with(DampedGeometryConfig(lam=1e12, kappa=1e-2))
    scale = np.abs(a.states).max()
    assert np.abs(a.states - b.states).max() / scale < 1e-6


@pytest.mark.parametrize("d", [2, 64, 16384])
def test_bits_do_not_depend_on_the_tiles(monkeypatch, d) -> None:
    # The oracle, the guided update and the solver treat rows alone, so the
    # default tiles and 3-row tiles give the bits of one whole-batch tile.
    # At d = 16384 the default tile is 4 rows, which leaves 65 chains a lone
    # last row.  At d = 2 the tiles are F-ordered, and row-contiguous tiles
    # give the same bits; BLOCK + 1 chains there end the tiles at a block
    # edge, leaving a lone last block.  Each run starts from the block-split
    # ensemble draw of rng.ensemble_normal.  A run with record=False keeps
    # only the final states, with those bits.
    gen = np.random.default_rng(d)
    orc = GaussianMixtureOracle(gen.standard_normal((4, d)) / np.sqrt(d), None, NoiseSchedule.vp_linear())
    default = samplers.TILE_BYTES
    sigma_top = float(make_grid(NoiseSchedule.vp_linear(), 2).sigma[0])
    for chains in (1, 5, 64, 65) + ((BLOCK + 1,) if d == 2 else ()):
        start = sigma_top * ensemble_normal(5, chains, d)
        for order in (1, 2):
            for geometry in (None, DampedGeometryConfig(lam=1e-3, kappa=0.3)):
                cfg = SamplerConfig(n_steps=2, solver_order=order, geometry=geometry, seed=5, chains=chains)
                runs = []
                # Past one block, tiles of a third of a block leave a lone row at the block edge.
                for tile_bytes in (8 * d * chains, default, 8 * d * (3 if chains < BLOCK else BLOCK // 3)):
                    monkeypatch.setattr(samplers, "TILE_BYTES", tile_bytes)
                    runs.append(lml_sample(cfg, orc))
                if samplers._tile_order(d) == "F":
                    with monkeypatch.context() as patch:
                        patch.setattr(samplers, "TILE_BYTES", default)
                        patch.setattr(samplers, "_tile_order", lambda d: "C")
                        runs.append(lml_sample(cfg, orc))
                whole = runs[0]
                assert np.array_equal(whole.states[0], start), chains
                for run in runs[1:]:
                    for name in ("states", "eps_raw", "eps_used"):
                        assert np.array_equal(getattr(run, name), getattr(whole, name)), (chains, name)
                final = lml_sample(cfg, orc, record=False)
                assert final.states.shape == (1, chains, d) and final.states.dtype == np.float64
                assert final.eps_raw is None and final.eps_used is None
                assert np.array_equal(final.final_states, whole.final_states), chains


def test_langevin_bits_do_not_depend_on_the_tile_layout(monkeypatch) -> None:
    # The chain walk holds d = 2 blocks F-ordered, with each step's noise
    # drawn row by row whatever the layout; row-contiguous blocks give the
    # same bits on every metric.
    sch = _unit_sigma_schedule()
    orc = GaussianMixtureOracle([[0.3, 0.1], [-0.3, 0.2]], [0.6, 0.4], sch)
    assert samplers._tile_order(2) == "F"
    runs = {}
    for layout in ("F", "C"):
        with monkeypatch.context() as patch:
            patch.setattr(samplers, "_tile_order", lambda d: layout)
            cfg = SamplerConfig(n_steps=4, schedule=sch, seed=3, chains=37)
            got = [annealed_langevin_sample(cfg, orc, inner_steps=2, step_scale=0.1).states]
            for variant in samplers.FIXED_LEVEL_VARIANTS:
                lam = 0.0 if variant == "plain-langevin" else 0.5
                fixed = FixedLevelConfig(
                    t=0.5, h=0.05, n_steps=6, variant=variant, lam=lam, chains=37, snapshot_every=3, seed=4
                )
                got.append(fixed_level_run(fixed, orc).states)
            runs[layout] = got
    for name, f_run, c_run in zip(("annealed",) + samplers.FIXED_LEVEL_VARIANTS, runs["F"], runs["C"]):
        assert np.array_equal(f_run, c_run) and f_run.flags.c_contiguous, name


class _BlowUpProvider:
    """Predicts 0.5 x, and ``bad`` at time ``t_bad``."""

    dim = 2

    def __init__(self, t_bad, bad):
        self.t_bad, self.bad = t_bad, bad

    def eps(self, x, t):
        return np.full_like(x, self.bad) if t == self.t_bad else 0.5 * x


def test_blow_up_names_the_step() -> None:
    sch = NoiseSchedule.vp_linear()
    t3 = make_grid(sch, 6).level_time(6 - 2)  # step 3 of 6 runs at level 4
    cfg = SamplerConfig(n_steps=6, solver_order=2, geometry=DampedGeometryConfig(), schedule=sch, chains=5)
    named = rf"step 3 of 6 \(t = {t3:.6g}\).*already non-finite"
    for record in (True, False):
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match=named):
            lml_sample(cfg, _BlowUpProvider(t3, np.inf), record=record)
        # A finite prediction whose state overflows is named as finite: step 3 scales it by about 1.7.
        plain = SamplerConfig(n_steps=6, schedule=sch, chains=5)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="step 3 of 6.*was finite"):
            lml_sample(plain, _BlowUpProvider(t3, np.finfo(np.float64).max), record=record)


def test_run_shapes_and_grid() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)
    cfg = SamplerConfig(n_steps=8, schedule=sch, chains=17, eps_clip=5e-3)
    run = lml_sample(cfg, orc)
    assert run.states.shape == (9, 17, 2)
    assert run.step_times.shape == (8,)
    assert run.grid.level_time(0) == pytest.approx(5e-3)
    assert np.shares_memory(run.final_states, run.states)


def test_sampler_config_validation() -> None:
    with pytest.raises(ValueError, match="n_steps"):
        SamplerConfig(n_steps=0)
    with pytest.raises(ValueError, match="solver_order"):
        SamplerConfig(n_steps=5, solver_order=3)
    with pytest.raises(ValueError, match="chains must be >= 1"):
        SamplerConfig(n_steps=5, chains=0)


def test_sampled_mixture_statistics() -> None:
    # End to end: a 40-step baseline run should land close to the data law.
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)
    cfg = SamplerConfig(n_steps=40, solver_order=2, schedule=sch, seed=11, chains=4096)
    xs = lml_sample(cfg, orc).final_states
    # both modes populated roughly evenly
    frac = float(np.mean(xs[:, 0] > 0))
    assert 0.45 < frac < 0.55
    # terminal noise level ~ eps_clip keeps points tight around the centers
    assert float(np.abs(np.abs(xs[:, 0]) - 1.0).mean()) < 0.05


# ---------------------------------------------------------------------------
# annealed baseline


def test_annealed_langevin_smoke() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)
    cfg = SamplerConfig(n_steps=30, schedule=sch, seed=4, chains=2048)
    out = annealed_langevin_sample(cfg, orc, inner_steps=4, step_scale=0.1)
    xs = out.final_states
    assert xs.shape == (2048, 2)
    assert np.all(np.isfinite(xs))
    frac = float(np.mean(xs[:, 0] > 0))
    assert 0.4 < frac < 0.6


def test_annealed_rejects_denoiser_settings_and_times_each_level() -> None:
    # The annealed run has no geometry or solver order, so asking for one is
    # an error rather than silently ignored.
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)
    for bad in ({"geometry": DampedGeometryConfig()}, {"solver_order": 2}):
        with pytest.raises(ValueError, match="annealed Langevin takes"):
            annealed_langevin_sample(SamplerConfig(n_steps=3, schedule=sch, **bad), orc, 2, 0.1)
    with pytest.raises(ValueError, match="inner_steps must be >= 1"):
        annealed_langevin_sample(SamplerConfig(n_steps=3, schedule=sch), orc, 0, 0.1)
    with pytest.raises(ValueError, match="step_scale must be > 0"):
        annealed_langevin_sample(SamplerConfig(n_steps=3, schedule=sch), orc, 2, 0.0)
    run = annealed_langevin_sample(SamplerConfig(n_steps=3, schedule=sch, chains=8), orc, 2, 0.1, threads=2)
    assert run.step_times.shape == (3,) and (run.step_times > 0).all()
    assert len(set(run.step_times.tolist())) == 3  # each level's own time, not one mean


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_annealed_blow_up_names_the_step() -> None:
    # A huge step scale multiplies the state by ~1e8 per Langevin step, so the
    # chains overflow on the second level; the walk stops there and names the
    # step instead of handing non-finite states on.
    sch = NoiseSchedule.vp_linear()
    cfg = SamplerConfig(n_steps=2, schedule=sch, seed=0, chains=64)
    with pytest.raises(FloatingPointError, match=r"annealed Langevin run \(20 steps per level\) .* at step 40$"):
        annealed_langevin_sample(cfg, _mixture2d(sch), inner_steps=20, step_scale=1e8)


def test_annealed_threads_invariance() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = _mixture2d(sch)
    cfg = SamplerConfig(n_steps=10, schedule=sch, seed=4, chains=5000)
    a = annealed_langevin_sample(cfg, orc, inner_steps=2, step_scale=0.1, threads=1)
    b = annealed_langevin_sample(cfg, orc, inner_steps=2, step_scale=0.1, threads=3)
    assert np.array_equal(a.final_states, b.final_states)


# ---------------------------------------------------------------------------
# fixed-level dynamics


def test_plain_langevin_gaussian_chain_moments() -> None:
    # For a linear score the Euler chain is an exact AR(1); its mean/variance
    # recursion is computable in closed form and the ensemble must match it
    # within pure sampling error.
    sch = _unit_sigma_schedule()
    orc = GaussianMixtureOracle([[0.3]], None, sch)
    h, n_steps, chains = 0.05, 400, 20000
    cfg = FixedLevelConfig(
        t=0.5, h=h, n_steps=n_steps, variant="plain-langevin",
        chains=chains, init_mean=0.0, init_std=1.0, seed=6,
    )
    xs = fixed_level_run(cfg, orc).final_states[:, 0]
    m, v = 0.0, 1.0
    for _ in range(n_steps):
        m = m + h * (0.3 - m)  # theta = 1/sigma^2 = 1
        v = (1.0 - h) ** 2 * v + 2.0 * h
    assert xs.mean() == pytest.approx(m, abs=4 * math.sqrt(v / chains))
    assert xs.var(ddof=1) == pytest.approx(v, rel=4 * math.sqrt(2.0 / (chains - 1)))


def test_damped_exact_gaussian_chain_moments() -> None:
    # Damped dynamics on a Gaussian: drift score/g and noise 2h/g with
    # g = 1/sigma^2 + lam; same AR(1) bookkeeping.
    sch = _unit_sigma_schedule()
    orc = GaussianMixtureOracle([[0.3]], None, sch)
    lam, h, n_steps, chains = 1.0, 0.05, 400, 20000
    g = 1.0 + lam
    cfg = FixedLevelConfig(
        t=0.5, h=h, n_steps=n_steps, variant="damped-exact", lam=lam,
        chains=chains, init_mean=0.5, init_std=0.5, seed=8,
    )
    xs = fixed_level_run(cfg, orc).final_states[:, 0]
    m, v = 0.5, 0.25
    c1 = h / g
    for _ in range(n_steps):
        m = m + c1 * (0.3 - m)
        v = (1.0 - c1) ** 2 * v + 2.0 * h / g
    assert xs.mean() == pytest.approx(m, abs=4 * math.sqrt(v / chains))
    assert xs.var(ddof=1) == pytest.approx(v, rel=4 * math.sqrt(2.0 / (chains - 1)))
    # the chain's fixed-point variance approaches sigma^2 as h -> 0
    v_fix = (2.0 * h / g) / (1.0 - (1.0 - c1) ** 2)
    assert v_fix == pytest.approx(1.0, rel=2 * h)


def test_damped_exact_corrected_gaussian_chain_moments_at_d2() -> None:
    # One center in d = 2 takes the generic eigen path, not the scalar one: H = -I/sigma^2 and
    # grad H = 0, so each coordinate is the AR(1) chain of the d = 1 test above, div P included.
    # The run stops one relaxation time (n_steps * h / g = 1) from a far start, where the mean
    # and the variance still depend on the metric's drift and noise scales.
    sch = _unit_sigma_schedule()
    mu = np.array([0.3, -0.2])
    orc = GaussianMixtureOracle(mu[None, :], None, sch)
    lam, h, n_steps, chains = 1.0, 0.05, 40, 20000
    g = 1.0 + lam
    cfg = FixedLevelConfig(
        t=0.5, h=h, n_steps=n_steps, variant="damped-exact-corrected", lam=lam,
        chains=chains, init_mean=3.3, init_std=0.5, seed=8,
    )
    xs = fixed_level_run(cfg, orc).final_states
    m, v = np.full(2, 3.3), 0.25
    c1 = h / g
    for _ in range(n_steps):
        m = m + c1 * (mu - m)
        v = (1.0 - c1) ** 2 * v + 2.0 * h / g
    np.testing.assert_allclose(xs.mean(axis=0), m, rtol=0.0, atol=4 * math.sqrt(v / chains))
    np.testing.assert_allclose(xs.var(axis=0, ddof=1), v, rtol=4 * math.sqrt(2.0 / (chains - 1)))


def test_damped_exact_corrected_mixture_law_at_d2() -> None:
    # Centers +-1.5 e1 with weights 0.7/0.3 at sigma_t = 1 and lam = 2, from N(0, I): after
    # burn-in, the first coordinate follows the 1-d mixture on the centers' first column.  The
    # corrected chain read KS 0.010-0.024 on seeds 0-2; without div P (damped-exact) the same
    # runs read 0.048-0.060, so the bound fails when the eigen path drops or flips div P.
    sch = _unit_sigma_schedule()
    centers = np.array([[1.5, 0.0], [-1.5, 0.0]])
    orc = GaussianMixtureOracle(centers, [0.7, 0.3], sch)
    line = GaussianMixtureOracle(centers[:, :1], [0.7, 0.3], sch)
    cfg = FixedLevelConfig(
        t=0.5, h=0.01, n_steps=1500, variant="damped-exact-corrected", lam=2.0, chains=BLOCK, seed=0
    )
    xs = fixed_level_run(cfg, orc).final_states[:, 0]
    assert ks_statistic(xs, lambda u: line.marginal_cdf(u, 0.5)) < 0.035


def test_fast_path_matches_generic_scalar_path() -> None:
    # A duplicated-center two-component oracle has the same marginal as the
    # single-component one but routes through the generic per-step machinery;
    # with a shared seed both runs must coincide.
    sch = _unit_sigma_schedule()
    fast_orc = GaussianMixtureOracle([[0.7]], None, sch)
    slow_orc = GaussianMixtureOracle([[0.7], [0.7]], None, sch)
    kw = dict(t=0.5, h=0.02, n_steps=150, variant="damped-exact", lam=0.5, chains=3000, seed=10)
    a = fixed_level_run(FixedLevelConfig(**kw), fast_orc)
    b = fixed_level_run(FixedLevelConfig(**kw), slow_orc)
    assert np.allclose(a.final_states, b.final_states, rtol=1e-11, atol=1e-11)


def test_newton_gaussian_stationary() -> None:
    # Newton preconditioning (damped-exact at lam = 0) on a Gaussian rescales
    # curvature to 1, so the chain has AR(1) coefficient (1-h) regardless of sigma.
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = GaussianMixtureOracle([[0.0], [0.0]], None, sch)  # dup centers: generic path
    h, chains = 0.02, 20000
    cfg = FixedLevelConfig(
        t=0.25, h=h, n_steps=600, variant="damped-exact",
        chains=chains, init_mean=0.0, init_std=0.1, seed=12,
    )
    xs = fixed_level_run(cfg, orc).final_states[:, 0]
    _, sigma = sch.alpha_sigma(0.25)
    v_fix = float(sigma**2) * 2.0 * h / (1.0 - (1.0 - h) ** 2)
    assert xs.var(ddof=1) == pytest.approx(v_fix, rel=5 * math.sqrt(2.0 / (chains - 1)))


def test_newton_rejects_nonconcave_region() -> None:
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = GaussianMixtureOracle([[1.0], [-1.0]], None, sch)
    # at t=0.25, sigma=0.1: between the modes -hessian is strongly negative
    cfg = FixedLevelConfig(t=0.25, h=1e-3, n_steps=5, variant="damped-exact", chains=8, init_std=0.0)
    with pytest.raises(NotLogConcaveError, match="need lam >") as caught:
        fixed_level_run(cfg, orc)
    # Newton is the damped metric at lam = 0, so its error is the damped one
    assert isinstance(caught.value, DampingTooSmallError)


def test_damping_too_small_reports_needed_lam() -> None:
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = GaussianMixtureOracle([[1.0], [-1.0]], None, sch)
    cfg = FixedLevelConfig(t=0.25, h=1e-3, n_steps=5, variant="damped-exact", lam=1.0, chains=8, init_std=0.0)
    with pytest.raises(DampingTooSmallError, match="need lam >"):
        fixed_level_run(cfg, orc)


def test_dense_exact_metric_takes_its_rows_in_batches(monkeypatch) -> None:
    # At d = 16 a batch holds 2^20 // 16^3 = 256 rows, so 1,000 chains take
    # four batches, the last one short.  Rows are independent: the states, and
    # the message naming the block's least curvature, are those of one batch.
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = GaussianMixtureOracle(np.random.default_rng(3).standard_normal((3, 16)) * 0.3, None, sch)
    wide = GaussianMixtureOracle(np.random.default_rng(3).standard_normal((3, 16)) * 3.0, None, sch)
    assert oracle_module._DENSE_BATCH_ELEMS // 16**3 == 256

    def outcomes():
        got = []
        for variant in ("damped-exact", "damped-exact-corrected"):
            cfg = FixedLevelConfig(t=0.5, h=0.01, n_steps=2, variant=variant, lam=2.0, chains=1000, seed=5)
            got.append(fixed_level_run(cfg, orc).states)
            with pytest.raises(DampingTooSmallError) as caught:
                fixed_level_run(dataclasses.replace(cfg, lam=0.5), wide)
            got.append(str(caught.value))
        return got

    batched = outcomes()
    monkeypatch.setattr(oracle_module, "_DENSE_BATCH_ELEMS", 1 << 40)
    for a, b in zip(batched, outcomes()):
        assert np.array_equal(a, b)


def test_dense_exact_metric_fits_at_d16() -> None:
    # Two corrected steps of one 4,096-chain block at d = 16: the block's
    # third derivative alone would be 4096 * 16^3 floats, 128 MB.
    orc = GaussianMixtureOracle(
        np.random.default_rng(4).standard_normal((3, 16)) * 0.3, None, NoiseSchedule.ve(0.01, 100.0)
    )
    cfg = FixedLevelConfig(t=0.5, h=0.01, n_steps=2, variant="damped-exact-corrected", lam=2.0, chains=BLOCK)
    tracemalloc.start()
    try:
        fixed_level_run(cfg, orc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_damped_lm_variant_runs() -> None:
    sch = _unit_sigma_schedule()
    orc = GaussianMixtureOracle([[1.0, 0.0], [-1.0, 0.0]], None, sch)
    cfg = FixedLevelConfig(t=0.5, h=0.01, n_steps=200, variant="damped-lm", lam=0.5, chains=1024, seed=13)
    xs = fixed_level_run(cfg, orc).final_states
    assert xs.shape == (1024, 2)
    assert np.all(np.isfinite(xs))
    # the rank-1 guided chain still mixes across both modes
    frac = float(np.mean(xs[:, 0] > 0))
    assert 0.3 < frac < 0.7


@pytest.mark.parametrize(
    "variant, lam",
    [
        ("plain-langevin", 0.0), ("damped-lm", 0.5), ("damped-exact", 0.5), ("damped-exact-corrected", 0.5),
        ("damped-exact", 0.0),
    ],
    ids=["plain-langevin", "damped-lm", "damped-exact", "damped-exact-corrected", "newton"],
)
def test_each_step_evaluates_the_posterior_once(monkeypatch, variant, lam) -> None:
    # The plain drift is one score call; the rank-1 drift takes the score as
    # -eps/sigma of the one prediction the step makes; the exact metrics take
    # the score, the Hessian and its gradient from one oracle call.  Centers
    # at +-0.3 e1 at sigma 1 keep the target log-concave, so Newton is defined
    # everywhere.  The oracle keeps alpha_t and sigma_t of the one level, so
    # only the first step asks the schedule.
    orc = GaussianMixtureOracle([[0.3, 0.0], [-0.3, 0.0]], None, _unit_sigma_schedule())
    posterior, schedule = [], []
    real_posterior, real_schedule = GaussianMixtureOracle._log_posterior, NoiseSchedule.alpha_sigma

    def counted_posterior(self, x2, t):
        posterior.append(t)
        return real_posterior(self, x2, t)

    def counted_schedule(self, t):
        schedule.append(t)
        return real_schedule(self, t)

    monkeypatch.setattr(GaussianMixtureOracle, "_log_posterior", counted_posterior)
    monkeypatch.setattr(NoiseSchedule, "alpha_sigma", counted_schedule)
    cfg = FixedLevelConfig(t=0.5, h=0.01, n_steps=7, variant=variant, lam=lam, chains=16, seed=13)
    fixed_level_run(cfg, orc)
    assert len(posterior) == 7
    assert len(schedule) == 1


def test_run_stops_at_its_last_snapshot(monkeypatch) -> None:
    # Snapshots at 0, 30, 60 and 90 of 100 steps: the ten steps after the
    # last snapshot would feed no output, so the run does not take them.
    orc = GaussianMixtureOracle([[1.5], [-1.5]], [0.7, 0.3], _unit_sigma_schedule())
    calls = []
    real_posterior = GaussianMixtureOracle._log_posterior

    def counted_posterior(self, x2, t):
        calls.append(t)
        return real_posterior(self, x2, t)

    monkeypatch.setattr(GaussianMixtureOracle, "_log_posterior", counted_posterior)
    cfg = FixedLevelConfig(t=0.5, h=0.01, n_steps=100, variant="plain-langevin", chains=16, snapshot_every=30)
    run = fixed_level_run(cfg, orc)
    np.testing.assert_array_equal(run.snapshot_steps, [0, 30, 60, 90])
    assert len(calls) == 90


def _damped_step_of(x, orc, cfg, gen):
    return damped_step(x, orc, cfg.t, cfg.lam, cfg.h, gen, cfg.variant)


# (variant, lam, public step) by case name: damped_step takes every variant by name, and the
# Newton chain, damped-exact at lam = 0, is also newton_langevin_step's under its own name.
_ONE_STEP_CALLS = {
    variant: (variant, 0.0 if variant == "plain-langevin" else 0.5, _damped_step_of) for variant in FIXED_LEVEL_VARIANTS
} | {
    "newton": ("damped-exact", 0.0, _damped_step_of),
    "newton_langevin_step": (
        "damped-exact", 0.0, lambda x, orc, cfg, gen: newton_langevin_step(x, orc, cfg.t, cfg.h, gen)
    ),
}


@pytest.mark.parametrize("case", sorted(_ONE_STEP_CALLS))
@pytest.mark.parametrize("centers", [[[0.7]], [[0.3], [-0.3]], [[0.3, 0.1], [-0.3, 0.0]]])
def test_public_steps_are_one_step_of_the_fixed_level_chain(case, centers) -> None:
    # One block of chains (<= BLOCK) draws its start and every step's noise
    # from stream(seed, 0); n public steps on that generator must land on the
    # run's final states bit for bit, on the single-component 1-d OU update
    # as on the generic metrics, and leave the caller's positions as they were.
    variant, lam, one_step = _ONE_STEP_CALLS[case]
    orc = GaussianMixtureOracle(centers, None, _unit_sigma_schedule())
    cfg = FixedLevelConfig(
        t=0.5, h=0.02, n_steps=6, variant=variant, lam=lam, chains=300, init_mean=0.2, init_std=0.5, seed=8
    )
    gen = stream(cfg.seed, 0)
    x = cfg.init_mean + cfg.init_std * gen.standard_normal((cfg.chains, orc.dim))
    for _ in range(cfg.n_steps):
        before = x.copy()
        y = one_step(x, orc, cfg, gen)
        np.testing.assert_array_equal(x, before)
        x = y
    np.testing.assert_array_equal(x, fixed_level_run(cfg, orc).final_states)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(h=0.0), "h must be > 0"),
        (dict(lam=-1.0), "lam must be >= 0"),
        (dict(variant="lbfgs"), "variant must be one of"),
        (dict(variant="damped-lm", lam=0.0), "damped-lm requires lam > 0"),
    ],
    ids=["h", "lam", "variant", "rank1-lam0"],
)
def test_damped_step_argument_checks(change, message) -> None:
    orc = GaussianMixtureOracle([[0.3], [-0.3]], None, _unit_sigma_schedule())
    args = dict(t=0.5, lam=0.5, h=0.01) | change
    with pytest.raises(ValueError, match=message):
        damped_step(np.zeros((4, 1)), orc, rng=stream(0), **args)


def _dense_inverse_and_root(g):
    """G^{-1} and the symmetric root G^{-1/2} of a symmetric positive definite G, through eigh."""
    w, v = np.linalg.eigh(g)
    return (v / w) @ v.T, (v / np.sqrt(w)) @ v.T


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(2, 3),
    margin=st.floats(0.05, 5.0),
    h=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_damped_step_matches_the_dense_reference(d, n, margin, h, seed) -> None:
    # One damped step is x + h P s + sqrt(2h) P^{1/2} xi with P = G^{-1}.  The
    # reference builds G densely, solves for the drift and takes the symmetric
    # root from eigh; xi comes from a twin of the step's seeded stream.
    gen = np.random.default_rng(seed)
    orc = GaussianMixtureOracle(gen.uniform(-1.5, 1.5, (n, d)), gen.uniform(0.2, 1.0, n), _unit_sigma_schedule())
    x = gen.normal(0.0, 1.5, d)
    t = 0.5
    sigma = float(orc.schedule.alpha_sigma(t)[1])
    xi = stream(seed).standard_normal(d)
    score, hess = orc.derivatives(x, t, 2)
    eps = orc.eps(x, t)
    assume(float(eps @ eps) > 1e-16)

    # damped-exact: G = -H + lam I, with lam past the damping -H needs
    lam = max(0.0, -float(np.linalg.eigvalsh(-hess).min())) + margin
    g = -hess + lam * np.eye(d)
    ref = x + h * np.linalg.solve(g, score) + np.sqrt(2.0 * h) * (_dense_inverse_and_root(g)[1] @ xi)
    out = damped_step(x, orc, t, lam, h, stream(seed), "damped-exact")
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    # damped-lm: G = low_rank_hessian(eps, sigma) + lam I, with s = -eps/sigma
    p, root = _dense_inverse_and_root(low_rank_hessian(eps, sigma) + margin * np.eye(d))
    ref = x + h * (p @ (-eps / sigma)) + np.sqrt(2.0 * h) * (root @ xi)
    out = damped_step(x, orc, t, margin, h, stream(seed), "damped-lm")
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


def test_damped_lm_requires_positive_lam() -> None:
    with pytest.raises(ValueError, match="damped-lm requires lam > 0"):
        FixedLevelConfig(t=0.5, h=0.01, n_steps=10, variant="damped-lm", lam=0.0)


def test_corrected_drift_matches_fd_divergence() -> None:
    # The corrected variant adds div(P) with P = (-H + lam I)^{-1}; check the
    # analytic term against finite differences of the dense inverse, at d = 2
    # and at d = 5 with three centers.
    sch = _unit_sigma_schedule()
    t, h = 0.5, 1.0
    cases = [
        (GaussianMixtureOracle([[1.0, 0.2], [-0.8, -0.5]], None, sch), 0.7, np.array([[0.35, -0.15], [1.1, 0.6]])),
        (
            GaussianMixtureOracle(
                [[1.0, 0.2, -0.4, 0.0, 0.6], [-0.8, -0.5, 0.3, 0.9, -0.2], [0.1, 0.7, 0.5, -0.6, -0.9]],
                [0.5, 0.3, 0.2],
                sch,
            ),
            1.5,
            np.array([[0.35, -0.15, 0.2, 0.4, -0.3], [1.1, 0.6, -0.5, 0.1, 0.8], [-0.4, 0.2, 0.9, -0.7, 0.05]]),
        ),
    ]
    for orc, lam, x in cases:
        d = x.shape[1]

        def run_once(variant, x=x):
            return damped_step(x, orc, t, lam, h, stream(99), variant)

        div_impl = (run_once("damped-exact-corrected") - run_once("damped-exact")) / h

        fd = np.zeros_like(x)
        step = 1e-6
        for j in range(d):
            e = np.zeros(d)
            e[j] = step
            pp = np.linalg.inv(-orc.hessian(x + e, t) + lam * np.eye(d))
            pm = np.linalg.inv(-orc.hessian(x - e, t) + lam * np.eye(d))
            fd += (pp[:, :, j] - pm[:, :, j]) / (2 * step)
        np.testing.assert_allclose(div_impl, fd, rtol=1e-5, atol=1e-8)
        # a single (d,) point takes the same corrected step as its row of a batch
        single = damped_step(x[0], orc, t, lam, h, stream(99), "damped-exact-corrected")
        np.testing.assert_array_equal(single, run_once("damped-exact-corrected")[0])


def test_fixed_level_snapshots() -> None:
    sch = _unit_sigma_schedule()
    orc = GaussianMixtureOracle([[0.0]], None, sch)
    cfg = FixedLevelConfig(
        t=0.5, h=0.01, n_steps=100, variant="damped-exact", lam=1.0,
        chains=16, snapshot_every=30, seed=1,
    )
    run = fixed_level_run(cfg, orc)
    np.testing.assert_array_equal(run.snapshot_steps, [0, 30, 60, 90])
    np.testing.assert_allclose(run.times, [0.0, 0.3, 0.6, 0.9])
    assert run.states.shape == (4, 16, 1)
    only_final = fixed_level_run(
        FixedLevelConfig(t=0.5, h=0.01, n_steps=100, variant="damped-exact", lam=1.0, chains=16), orc
    )
    np.testing.assert_array_equal(only_final.snapshot_steps, [100])


def test_fixed_level_threads_invariance() -> None:
    # Every block writes its own columns of one snapshot array; the final
    # states and every snapshot must not depend on the thread count, on the
    # OU shortcut and on the generic posterior path alike.
    sch = _unit_sigma_schedule()
    ou = GaussianMixtureOracle([[0.0]], None, sch)
    mixture = GaussianMixtureOracle([[1.5], [-1.5]], [0.7, 0.3], sch)
    for orc, variant, lam, n_steps in ((ou, "damped-exact", 1.0, 50), (mixture, "damped-exact-corrected", 2.0, 20)):
        for snapshot_every in (None, 5):
            cfg = FixedLevelConfig(
                t=0.5, h=0.01, n_steps=n_steps, variant=variant, lam=lam,
                chains=2 * BLOCK + 5, snapshot_every=snapshot_every, seed=2,
            )
            a = fixed_level_run(cfg, orc, threads=1)
            for threads in (2, 4):
                assert np.array_equal(a.states, fixed_level_run(cfg, orc, threads=threads).states)


def test_fixed_level_run_builds_its_kernel_once(monkeypatch) -> None:
    # One kernel serves every snapshot leg of a run.
    built = []
    real = samplers._fixed_level_kernel

    def counted(cfg, oracle):
        built.append(cfg.variant)
        return real(cfg, oracle)

    monkeypatch.setattr(samplers, "_fixed_level_kernel", counted)
    orc = GaussianMixtureOracle([[1.5], [-1.5]], [0.7, 0.3], _unit_sigma_schedule())
    for variant in ("damped-exact", "damped-lm"):
        built.clear()
        cfg = FixedLevelConfig(t=0.5, h=0.01, n_steps=12, variant=variant, lam=2.0, chains=8, snapshot_every=2)
        assert fixed_level_run(cfg, orc).states.shape == (7, 8, 1)
        assert built == [variant]


@pytest.mark.parametrize("threads", [1, 2])
def test_fixed_level_snapshots_are_filled_in_place(threads) -> None:
    # Blocks write their slices of the one (snapshots, chains, d) array, so a
    # multi-block run never holds per-block copies beside it.
    orc = GaussianMixtureOracle([[0.0]], None, _unit_sigma_schedule())
    cfg = FixedLevelConfig(
        t=0.5, h=0.01, n_steps=100, variant="damped-exact", lam=1.0,
        chains=2 * BLOCK + 5, snapshot_every=1, seed=4,
    )
    fixed_level_run(cfg, orc, threads=threads)  # warm-up: first-call allocations are not the run's
    tracemalloc.start()
    try:
        run = fixed_level_run(cfg, orc, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.states.shape == (101, 2 * BLOCK + 5, 1)
    assert peak <= 1.2 * run.states.nbytes


@pytest.mark.parametrize("group", [1, 3, 8])
def test_streamed_snapshots_are_the_stored_ones(monkeypatch, group) -> None:
    # Handed on in groups across a partial last block, on the OU shortcut and
    # the generic posterior path, the snapshots carry a storing run's bits
    # in snapshot order, and the run keeps the last of them.
    monkeypatch.setattr(samplers, "SNAPSHOT_GROUP", group)
    sch = _unit_sigma_schedule()
    ou = GaussianMixtureOracle([[0.0]], None, sch)
    mixture = GaussianMixtureOracle([[1.5], [-1.5]], [0.7, 0.3], sch)
    for orc, variant, lam in ((ou, "damped-exact", 1.0), (mixture, "damped-exact-corrected", 2.0)):
        cfg = FixedLevelConfig(
            t=0.5, h=0.01, n_steps=20, variant=variant, lam=lam, chains=2 * BLOCK + 5, snapshot_every=2, seed=6
        )
        stored = fixed_level_run(cfg, orc)
        for threads in (1, 2):
            seen = []
            run = fixed_level_run(cfg, orc, threads, lambda k, states: seen.append((k, states.copy())))
            assert [k for k, _ in seen] == list(range(11))
            assert np.array_equal(np.stack([states for _, states in seen]), stored.states)
            assert run.states.shape == (1, 2 * BLOCK + 5, 1)
            assert np.array_equal(run.final_states, stored.final_states)
            np.testing.assert_array_equal(run.snapshot_steps, stored.snapshot_steps)


def test_streamed_snapshots_hold_one_group() -> None:
    # 101 snapshots handed on: the run holds one group's buffer, the blocks'
    # states and one step's temporary, not the (101, chains, 1) array.  One
    # thread: every block stepping at once would add its own temporary.
    orc = GaussianMixtureOracle([[0.0]], None, _unit_sigma_schedule())
    cfg = FixedLevelConfig(
        t=0.5, h=0.01, n_steps=100, variant="damped-exact", lam=1.0,
        chains=2 * BLOCK + 5, snapshot_every=1, seed=4,
    )
    seen = []
    fixed_level_run(cfg, orc, on_snapshot=lambda k, states: None)  # warm-up: first-call allocations are not the run's
    tracemalloc.start()
    try:
        run = fixed_level_run(cfg, orc, on_snapshot=lambda k, states: seen.append(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == list(range(101)) and run.states.shape == (1, 2 * BLOCK + 5, 1)
    assert peak < (samplers.SNAPSHOT_GROUP + 2) * cfg.chains * 1 * 8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fixed_level_blowup_raises() -> None:
    sch = _unit_sigma_schedule()
    orc = GaussianMixtureOracle([[0.0]], None, sch)
    cfg = FixedLevelConfig(t=0.5, h=1e6, n_steps=60, variant="plain-langevin", chains=4, seed=3)
    with pytest.raises(FloatingPointError, match="plain-langevin run .* at step 60$"):
        fixed_level_run(cfg, orc)
    # The states overflow at step 52; the run stops at the first snapshot
    # that sees it rather than after all 1000 steps.
    cfg = FixedLevelConfig(
        t=0.5, h=1e6, n_steps=1000, variant="plain-langevin", chains=4, seed=3, snapshot_every=10
    )
    with pytest.raises(FloatingPointError, match="at step 60$"):
        fixed_level_run(cfg, orc)


def test_fixed_level_config_validation() -> None:
    with pytest.raises(ValueError, match="variant"):
        FixedLevelConfig(t=0.5, h=0.01, n_steps=10, variant="hamiltonian")
    with pytest.raises(ValueError, match="variant must be one of"):  # Newton is damped-exact at lam = 0
        FixedLevelConfig(t=0.5, h=0.01, n_steps=10, variant="newton")
    with pytest.raises(ValueError, match="plain-langevin takes no damping"):
        FixedLevelConfig(t=0.5, h=0.01, n_steps=10, variant="plain-langevin", lam=7.0)
    with pytest.raises(ValueError, match="h must be > 0"):
        FixedLevelConfig(t=0.5, h=0.0, n_steps=10, variant="plain-langevin")
    with pytest.raises(ValueError, match="snapshot_every"):
        FixedLevelConfig(t=0.5, h=0.01, n_steps=10, variant="plain-langevin", snapshot_every=0)
    # a first snapshot past n_steps would leave the run at its start
    with pytest.raises(ValueError, match="snapshot_every"):
        FixedLevelConfig(t=0.5, h=0.01, n_steps=10, variant="plain-langevin", snapshot_every=20)
    for bad in ({"n_steps": 0}, {"chains": 0}):
        with pytest.raises(ValueError, match="n_steps and chains must be >= 1"):
            FixedLevelConfig(**{"t": 0.5, "h": 0.01, "n_steps": 10, "variant": "plain-langevin", **bad})
    with pytest.raises(ValueError, match="init_std must be >= 0"):
        FixedLevelConfig(t=0.5, h=0.01, n_steps=10, variant="plain-langevin", init_std=-1.0)


def test_stationarity_ks_smoke() -> None:
    # Short version of the fixed-level stationarity study: start the ensemble
    # at the claimed invariant law and verify the dynamics keep it there.
    sch = _unit_sigma_schedule()
    orc = GaussianMixtureOracle([[0.0]], None, sch)
    cfg = FixedLevelConfig(
        t=0.5, h=1e-3, n_steps=2000, variant="damped-exact", lam=1.0,
        chains=20000, init_mean=0.0, init_std=1.0, seed=14,
    )
    xs = fixed_level_run(cfg, orc).final_states[:, 0]
    ks = ks_statistic(xs, lambda u: orc.marginal_cdf(u, 0.5))
    assert ks < 0.02


@pytest.mark.parametrize("d, lam", [(2, 1.0), (8, 1.0), (2, 4.0), (8, 4.0)])
def test_damped_lm_second_moment_has_the_closed_form_bias(d, lam) -> None:
    # One center at the origin, sigma_t = 1.  The rank-1 metric's drift is radial, while across
    # u = x/|x| its noise has variance 1/lam and nothing pulls it back, so the chain's radius has
    # the law r^a exp(-r^2 / (2 sigma^2)) with a = (d - 1)(1 + 1/(lam sigma^2)): E|x|^2 is
    # sigma^2 (a + 1), not the target's d sigma^2.  This pins damped-lm's bias at d >= 2.
    orc = GaussianMixtureOracle(np.zeros((1, d)), None, _unit_sigma_schedule())
    cfg = FixedLevelConfig(t=0.5, h=0.02, n_steps=750, variant="damped-lm", lam=lam, chains=4096, seed=3)
    sq = (fixed_level_run(cfg, orc).final_states ** 2).sum(axis=1)
    mean, stderr = sq.mean(), sq.std(ddof=1) / np.sqrt(sq.size)
    predicted = (d - 1) * (1.0 + 1.0 / lam) + 1.0
    assert abs(mean - predicted) < 4.0 * stderr, (mean, stderr, predicted)
    assert abs(mean - d) > 4.0 * stderr, (mean, stderr)
