from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, norm

from lmlangevin import (
    BoundCheckResult,
    ErrorBoundInputs,
    GaussianMixtureOracle,
    NoiseSchedule,
    bound_check,
    chi2_gaussians,
    chi2_histogram,
    curvature_error_bound,
    decay_fit,
    equal_mass_edges,
    finite_diff_jacobian,
    hs_norm,
    ks_statistic,
    overhead_benchmark,
    rank1_approx_error,
    sliced_reference,
    sliced_wasserstein,
)
from lmlangevin.rng import stream


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_gradient_polynomial() -> None:
    # f(x) = x0^2 x1 + 3 x1^3, grad = (2 x0 x1, x0^2 + 9 x1^2): the Jacobian of a scalar f is its gradient
    f = lambda p: p[:, 0] ** 2 * p[:, 1] + 3.0 * p[:, 1] ** 3
    x = np.array([1.3, -0.7])
    expected = np.array([2 * 1.3 * -0.7, 1.3**2 + 9 * 0.7**2])
    np.testing.assert_allclose(finite_diff_jacobian(f, x), expected, rtol=1e-8)


def test_finite_diff_jacobian_linear_map() -> None:
    a = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
    f = lambda p: p @ a.T
    np.testing.assert_allclose(finite_diff_jacobian(f, np.array([0.2, -0.4, 1.0])), a, atol=1e-9)


def test_hs_norms() -> None:
    assert hs_norm([[3.0, 4.0], [0.0, 0.0]]) == pytest.approx(5.0)
    assert hs_norm(np.eye(2) - np.zeros((2, 2))) == pytest.approx(math.sqrt(2.0))


# ---------------------------------------------------------------------------
# curvature approximation bound


def test_rank1_error_closed_form_1d() -> None:
    # Unit-noise +-1 mixture: -H = tanh(x)^2 while the proxy along eps has
    # eigenvalue 1/sigma^2 = 1, so the error is 1 - tanh(x)^2. It shrinks
    # deep inside a mode where the target looks Gaussian.
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = GaussianMixtureOracle([[1.0], [-1.0]], None, sch)
    for x in (0.5, 1.5, 3.0):
        val = rank1_approx_error(orc, np.array([x]), 0.5)
        assert val == pytest.approx(1.0 - math.tanh(x) ** 2, abs=1e-12)
    deep = rank1_approx_error(orc, np.array([3.0]), 0.5)
    shallow = rank1_approx_error(orc, np.array([0.5]), 0.5)
    assert deep < shallow


def test_rank1_error_degenerate_direction() -> None:
    # At the posterior mean of a single-center target eps = 0; the exact
    # curvature norm is reported instead of a division blow-up.
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = GaussianMixtureOracle([[0.7]], None, sch)
    val = rank1_approx_error(orc, np.array([0.7]), 0.5)
    assert val == pytest.approx(1.0, rel=1e-12)  # hs_norm(-(-1/sigma^2)) at sigma=1


def test_curvature_error_bound_arithmetic() -> None:
    inp = ErrorBoundInputs(delta1=0.1, delta2=0.2, delta3=0.3, diameter=2.0, alpha_t=0.9, sigma_t=0.8)
    expected = (0.1 + 0.9 * 0.2 + 0.9 * 2.0) * (2.0 + 0.3 + 2.0 * (0.81 / 0.64) * 4.0)
    assert curvature_error_bound(inp) == pytest.approx(expected, rel=1e-15)


def test_bound_inputs_validation() -> None:
    with pytest.raises(ValueError, match="finite"):
        ErrorBoundInputs(-0.1, 0.0, 0.0, 1.0, 0.9, 1.0)
    with pytest.raises(ValueError, match="sigma_t"):
        ErrorBoundInputs(0.1, 0.0, 0.0, 1.0, 0.9, 0.0)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_bound_check_single_center_closed_form(d) -> None:
    # One center: v = x - alpha y and J = I, so r * d^2 r = I - u u^T with
    # u = v / r, whose HS norm is sqrt(d - 1) at every point.
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle(np.full((1, d), 0.4), None, sch)
    for t in (0.15, 0.45, 0.8):
        xs = orc.sample_diffused(stream(55, d), 40, t)
        res = bound_check(orc, t, xs)
        np.testing.assert_allclose(res.empirical, math.sqrt(d - 1), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 8])
def test_bound_check_matches_a_jacobian_of_the_exact_gradient(d) -> None:
    # Reference independent of bound_check's formula: a central-difference
    # Jacobian of r's exact gradient J v / r, with J = -sigma^2 H and v =
    # -sigma^2 s, times r = |x - alpha ybar| from the posterior mean.
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle(np.random.default_rng(56 + d).normal(scale=1.5, size=(3, d)), [0.5, 0.3, 0.2], sch)
    for t in (0.15, 0.45, 0.8):
        alpha, sigma = sch.alpha_sigma(t)
        s2 = sigma * sigma

        def grad_r(z):
            score, hess = orc.derivatives(z, t, 2)
            v = -s2 * score
            return np.einsum("mij,mj->mi", -s2 * hess, v) / np.linalg.norm(v, axis=-1)[:, None]

        xs = orc.sample_diffused(stream(57, d), 20, t)
        r = np.linalg.norm(xs - alpha * orc.posterior_mean(xs, t), axis=-1)
        expected = [ri * hs_norm(finite_diff_jacobian(grad_r, x)) for ri, x in zip(r, xs)]
        np.testing.assert_allclose(bound_check(orc, t, xs).empirical, expected, rtol=1e-6)


def test_bound_check_no_violations_on_sampled_points() -> None:
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(51)
    orc = GaussianMixtureOracle(rng.normal(size=(3, 2)), None, sch)
    for t in (0.2, 0.6):
        xs = orc.sample_diffused(stream(52), 50, t)
        res = bound_check(orc, t, xs)
        assert isinstance(res, BoundCheckResult)
        assert res.violations == 0
        assert res.empirical.max() <= res.bound
        assert res.inputs.delta1 == pytest.approx(np.linalg.norm(xs, axis=-1).max())


def test_bound_grows_with_delta2() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.0], [-1.0]], None, sch)
    xs = orc.sample_diffused(stream(53), 20, 0.5)
    loose = bound_check(orc, 0.5, xs, delta2=1.0)
    tight = bound_check(orc, 0.5, xs, delta2=0.0)
    assert loose.bound > tight.bound


def test_bound_check_asks_the_schedule_once_per_time(monkeypatch) -> None:
    # bound_check reads alpha_t and sigma_t, and its derivatives calls read
    # the level, from the oracle's per-time table, so one time costs one
    # schedule evaluation.
    orc = GaussianMixtureOracle([[1.0, 0.0], [-0.5, 0.8], [0.3, -1.2]], [0.5, 0.3, 0.2], NoiseSchedule.vp_linear())
    xs = stream(54).standard_normal((5, 2))
    schedule = []
    real_schedule = NoiseSchedule.alpha_sigma

    def counted_schedule(self, t):
        schedule.append(t)
        return real_schedule(self, t)

    monkeypatch.setattr(NoiseSchedule, "alpha_sigma", counted_schedule)
    for t in (0.15, 0.45, 0.8):
        bound_check(orc, t, xs)
        rank1_approx_error(orc, xs[0], t)
    assert schedule == [0.15, 0.45, 0.8]


# ---------------------------------------------------------------------------
# divergences


def test_chi2_gaussians_matches_quadrature() -> None:
    cases = [(0.3, 1.0, 0.0, 1.0), (0.0, 0.8, 0.0, 1.0), (-0.5, 1.1, 0.2, 1.3)]
    for m1, s1, m2, s2 in cases:
        p = lambda x: norm.pdf(x, m1, s1)
        q = lambda x: norm.pdf(x, m2, s2)
        target, _ = quad(lambda x: p(x) ** 2 / q(x), -20, 20)
        assert chi2_gaussians(m1, s1, m2, s2) == pytest.approx(target - 1.0, rel=1e-9)


def test_chi2_gaussians_mean_shift_closed_form() -> None:
    # Equal unit variances: chi2 = exp(delta^2) - 1.
    assert chi2_gaussians(0.1, 1.0, 0.0, 1.0) == pytest.approx(math.exp(0.01) - 1.0, rel=1e-12)
    assert chi2_gaussians(0.0, 1.0, 0.0, 1.0) == 0.0


def test_chi2_gaussians_divergent_case() -> None:
    # 2 std2^2 <= std1^2 makes the integral infinite.
    assert chi2_gaussians(0.0, 1.5, 0.0, 1.0) == float("inf")
    with pytest.raises(ValueError):
        chi2_gaussians(0.0, 0.0, 0.0, 1.0)


def test_equal_mass_edges_and_histogram_chi2() -> None:
    edges = equal_mass_edges(norm.ppf, bins=8)
    assert edges.shape == (7,)
    assert np.all(np.diff(edges) > 0)
    assert edges[3] == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(54)
    null = chi2_histogram(rng.standard_normal(200_000), edges)[0]
    # expected value of the plug-in statistic under H0 is (bins-1)/n
    assert null < 5 * 8 / 200_000
    shifted = chi2_histogram(rng.standard_normal(200_000) + 0.5, edges)[0]
    assert shifted > 100 * null


def test_chi2_histogram_stderr_matches_the_spread() -> None:
    # One binning gives the value and its delta-method stderr; the stderr
    # agrees with the spread of the value over independent samples.
    edges = equal_mass_edges(norm.ppf, bins=16)
    rng = np.random.default_rng(57)
    pairs = [chi2_histogram(rng.standard_normal(4000) + 0.3, edges) for _ in range(300)]
    vals, errs = np.array(pairs).T
    assert np.median(errs) == pytest.approx(vals.std(ddof=1), rel=0.15)


def test_ks_statistic_exact_and_scipy() -> None:
    assert ks_statistic(np.array([0.5]), lambda u: u) == pytest.approx(0.5)
    xs = np.random.default_rng(55).standard_normal(5000)
    mine = ks_statistic(xs, norm.cdf)
    ref = kstest(xs, "norm").statistic
    assert mine == pytest.approx(ref, rel=1e-10)


def test_sliced_wasserstein_basics() -> None:
    rng = np.random.default_rng(56)
    a = rng.normal(size=(512, 3))
    assert sliced_wasserstein(a, a) == 0.0
    b = rng.normal(size=(512, 3))
    assert sliced_wasserstein(a, b) == pytest.approx(sliced_wasserstein(b, a), rel=1e-14)
    with pytest.raises(ValueError, match="equally sized"):
        sliced_wasserstein(a, b[:100])


def test_sliced_wasserstein_1d_shift() -> None:
    # In 1-d every unit projection is +-1, so a pure shift has distance |shift|.
    a = np.random.default_rng(57).normal(size=(256, 1))
    assert sliced_wasserstein(a, a + 2.0) == pytest.approx(2.0, rel=1e-12)


def test_sliced_wasserstein_reads_a_flat_sample_as_1d_points() -> None:
    a = np.random.default_rng(57).normal(size=256)
    assert sliced_wasserstein(a, a[::-1]) == 0.0
    assert sliced_wasserstein(a, a + 2.0) == pytest.approx(2.0, rel=1e-12)


def test_sliced_reference_matches_the_direct_call() -> None:
    rng = np.random.default_rng(60)
    truth = rng.normal(size=(300, 2))
    ref = sliced_reference(truth, 16, stream(5, 7))
    for loc in (0.0, 0.5, 3.0):
        a = rng.normal(loc=loc, size=(300, 2))
        assert sliced_wasserstein(a, ref) == sliced_wasserstein(a, truth, 16, stream(5, 7))
    with pytest.raises(ValueError, match="equally sized"):
        sliced_wasserstein(a[:100], ref)


def test_sliced_wasserstein_triangle_inequality() -> None:
    rng = np.random.default_rng(58)
    a, b, c = (rng.normal(loc=m, size=(400, 2)) for m in (0.0, 1.0, 2.5))
    shared = lambda: np.random.default_rng(123)
    ab = sliced_wasserstein(a, b, rng=shared())
    bc = sliced_wasserstein(b, c, rng=shared())
    ac = sliced_wasserstein(a, c, rng=shared())
    assert ac <= ab + bc + 1e-12


def test_decay_fit_recovers_planted_rate() -> None:
    rng = np.random.default_rng(59)
    ts = np.linspace(0.05, 2.0, 25)
    values = 3.0 * np.exp(-1.7 * ts) * (1.0 + 0.005 * rng.normal(size=ts.size))
    fit = decay_fit(ts, values)
    assert fit.rate == pytest.approx(-1.7, rel=0.01)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=0.02)
    assert fit.r_squared > 0.999


def test_decay_fit_validation() -> None:
    with pytest.raises(ValueError, match="at least 3"):
        decay_fit([1.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="positive"):
        decay_fit([1.0, 2.0, 3.0], [1.0, -0.5, 0.2])


# ---------------------------------------------------------------------------
# overhead benchmark


def test_overhead_benchmark_sanity() -> None:
    res = overhead_benchmark(d=8192, reps=25, seed=0)
    assert res.d == 8192 and res.reps == 25
    assert res.baseline_ns > 0
    # the guided pipeline does strictly more arithmetic per step
    assert res.lml_ns > res.baseline_ns
    assert res.ratio == pytest.approx(res.lml_ns / res.baseline_ns)


def test_overhead_extra_cost_scales_linearly() -> None:
    # Absolute extra cost is O(d): doubling d should not much more than
    # double it. Generous slack absorbs scheduler noise, and the two sizes
    # are timed in alternation and compared by their medians, so host load
    # that lands on one call does not decide the verdict.
    extra = {8192: [], 16384: []}
    for _ in range(3):
        for d, costs in extra.items():
            res = overhead_benchmark(d=d, reps=30)
            costs.append(res.lml_ns - res.baseline_ns)
    assert np.median(extra[16384]) < 3.0 * np.median(extra[8192])


def test_overhead_validation() -> None:
    with pytest.raises(ValueError):
        overhead_benchmark(d=0)
