from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lmlangevin import NoiseSchedule, TimestepGrid, make_grid


def test_vp_linear_log_alpha_closed_form() -> None:
    # log alpha(t) = -t^2 (bmax - bmin)/4 - t bmin/2; at t=1 with the default
    # (0.1, 20.0) pair that is -19.9/4 - 0.05 = -5.025.
    sch = NoiseSchedule.vp_linear()
    alpha, sigma = sch.alpha_sigma(1.0)
    assert alpha == pytest.approx(math.exp(-5.025), rel=1e-15)
    assert sigma == pytest.approx(math.sqrt(1.0 - math.exp(-2 * 5.025)), rel=1e-14)


def test_vp_linear_log_alpha_matches_quadrature() -> None:
    # Independent oracle: log alpha(t) = -0.5 * int_0^t beta(s) ds.
    sch = NoiseSchedule.vp_linear()
    beta = lambda s: 0.1 + s * (20.0 - 0.1)
    for t in (0.15, 0.5, 0.83, 1.0):
        val, err = quad(beta, 0.0, t)
        alpha, _ = sch.alpha_sigma(t)
        assert float(alpha) == pytest.approx(math.exp(-0.5 * val), rel=1e-10)


def test_vp_variance_preserving_identity() -> None:
    for sch in (NoiseSchedule.vp_linear(), NoiseSchedule.cosine()):
        ts = np.linspace(1e-3, sch.t_max, 31)
        alpha, sigma = sch.alpha_sigma(ts)
        np.testing.assert_allclose(alpha**2 + sigma**2, 1.0, rtol=0, atol=1e-14)


def test_ve_alpha_is_one_and_sigma_geometric() -> None:
    sch = NoiseSchedule.ve()
    ts = np.linspace(0.0, 1.0, 11)
    alpha, sigma = sch.alpha_sigma(ts)
    assert np.all(alpha == 1.0)
    # sigma(1/2) = sqrt(sigma_min * sigma_max) for any geometric interpolation
    assert sch.alpha_sigma(0.5)[1] == pytest.approx(math.sqrt(0.01 * 50.0), rel=1e-14)
    assert sigma[0] == pytest.approx(0.01, rel=1e-14)
    assert sigma[-1] == pytest.approx(50.0, rel=1e-14)


def test_ve_unit_sigma_midpoint() -> None:
    # sigma_min=0.01, sigma_max=100 puts sigma(0.5) = 1 up to rounding, which
    # is how the fixed-level studies pin sigma_t = 1.
    sch = NoiseSchedule.ve(0.01, 100.0)
    assert sch.alpha_sigma(0.5)[1] == pytest.approx(1.0, rel=1e-12)


def test_cosine_endpoints() -> None:
    sch = NoiseSchedule.cosine()
    alpha0, sigma0 = sch.alpha_sigma(0.0)
    assert alpha0 == pytest.approx(1.0, rel=1e-15)
    assert sigma0 == pytest.approx(0.0, abs=1e-7)
    assert math.copysign(1.0, float(sigma0)) == 1.0  # +0.0, not the signed zero
    alpha1, _ = sch.alpha_sigma(sch.t_max)
    assert 0.0 < alpha1 < 0.01


def test_cosine_rejects_t_max_one() -> None:
    with pytest.raises(ValueError, match="t_max < 1"):
        NoiseSchedule.cosine(t_max=1.0)


def test_monotonicity_all_kinds() -> None:
    for sch in (NoiseSchedule.vp_linear(), NoiseSchedule.ve(), NoiseSchedule.cosine()):
        ts = np.linspace(1e-4, sch.t_max, 200)
        alpha, sigma = sch.alpha_sigma(ts)
        assert np.all(np.diff(sigma) > 0.0)
        assert np.all(np.diff(alpha) <= 0.0)
        assert np.all(np.diff(sch.log_snr(ts)) < 0.0)


def test_drift_diffusion_matches_finite_differences() -> None:
    # f = d log alpha/dt, g^2 = d sigma^2/dt - 2 f sigma^2; the closed forms
    # must agree with central differences of the exposed primitives.
    dt = 1e-6
    for sch in (NoiseSchedule.vp_linear(), NoiseSchedule.ve(), NoiseSchedule.cosine()):
        for t in (0.1, 0.37, 0.64, 0.9):
            f, g2 = sch.drift_diffusion(t)
            ap, sp = sch.alpha_sigma(t + dt)
            am, sm = sch.alpha_sigma(t - dt)
            fd_f = (np.log(ap) - np.log(am)) / (2 * dt)
            fd_ds2 = (sp**2 - sm**2) / (2 * dt)
            _, sigma = sch.alpha_sigma(t)
            assert float(f) == pytest.approx(float(fd_f), rel=1e-6, abs=1e-9)
            assert float(g2) == pytest.approx(float(fd_ds2 - 2 * f * sigma**2), rel=1e-5)


def test_vp_g2_equals_beta() -> None:
    sch = NoiseSchedule.vp_linear()
    f, g2 = sch.drift_diffusion(0.4)
    assert float(g2) == pytest.approx(0.1 + 0.4 * 19.9, rel=1e-14)
    assert float(f) == pytest.approx(-0.5 * float(g2), rel=1e-14)


def test_time_range_is_enforced() -> None:
    sch = NoiseSchedule.vp_linear()
    with pytest.raises(ValueError, match="out of range"):
        sch.alpha_sigma(1.5)
    with pytest.raises(ValueError, match="out of range"):
        sch.log_snr(-0.2)
    with pytest.raises(ValueError, match="non-finite"):
        sch.alpha_sigma(float("nan"))


def test_bad_parameters_rejected() -> None:
    with pytest.raises(ValueError, match="unknown schedule kind 'poisson'"):
        NoiseSchedule("poisson", {})
    with pytest.raises(ValueError, match="beta_min < beta_max"):
        NoiseSchedule.vp_linear(beta_min=2.0, beta_max=1.0)
    with pytest.raises(ValueError, match="sigma_min < sigma_max"):
        NoiseSchedule.ve(sigma_min=1.0, sigma_max=0.5)
    with pytest.raises(ValueError, match="need t_max > 0"):
        NoiseSchedule.cosine(t_max=0.0)
    with pytest.raises(ValueError, match="cosine offset must be > 0"):
        NoiseSchedule.cosine(offset=0.0)


def test_make_grid_shape_and_endpoints() -> None:
    sch = NoiseSchedule.vp_linear()
    grid = make_grid(sch, 10, eps_clip=1e-3)
    assert grid.n_steps == 10
    assert grid.times.size == 11
    assert grid.level_time(10) == pytest.approx(1.0)
    assert grid.level_time(0) == pytest.approx(1e-3)
    assert np.all(np.diff(grid.times) < 0.0)
    steps = np.diff(grid.times)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


def test_grid_tables_equal_scalar_schedule_calls() -> None:
    # The tables come from one vectorized call each; a step must see exactly
    # the values a scalar call at its grid time gives, bit for bit.
    for sch in (NoiseSchedule.vp_linear(), NoiseSchedule.ve(), NoiseSchedule.cosine()):
        for n_steps in (1, 7, 50, 1000):
            for eps_clip in (1e-3, 1e-2, 0.2):
                grid = make_grid(sch, n_steps, eps_clip)
                scalar = np.array([[*sch.alpha_sigma(t), sch.log_snr(t)] for t in grid.times.tolist()])
                tables = np.stack([grid.alpha, grid.sigma, grid.log_snr], axis=1)
                np.testing.assert_array_equal(tables, scalar, err_msg=f"{sch.kind} n={n_steps} clip={eps_clip}")


def test_grid_validation() -> None:
    sch = NoiseSchedule.vp_linear()
    with pytest.raises(ValueError, match="strictly decreasing"):
        TimestepGrid(sch, np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        TimestepGrid(sch, np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="at least two"):
        TimestepGrid(sch, np.array([0.5]))
    with pytest.raises(ValueError, match="time out of range"):
        TimestepGrid(sch, np.array([1.5, 0.5]))
    with pytest.raises(ValueError, match="eps_clip"):
        make_grid(sch, 5, eps_clip=2.0)
    with pytest.raises(ValueError, match="n_steps"):
        make_grid(sch, 0)


def test_level_time_bounds() -> None:
    grid = make_grid(NoiseSchedule.vp_linear(), 4)
    with pytest.raises(ValueError, match="outside"):
        grid.level_time(5)
    with pytest.raises(ValueError, match="outside"):
        grid.level_time(-1)
