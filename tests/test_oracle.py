from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import multivariate_normal

import lmlangevin
from lmlangevin import (
    DENSE_DIM_CAP,
    GaussianMixtureOracle,
    NoiseSchedule,
    finite_diff_jacobian,
)
from lmlangevin.oracle import _shift_exp_sum
from lmlangevin.rng import stream


def _random_oracle(rng, d, n_components, schedule):
    centers = rng.normal(scale=1.5, size=(n_components, d))
    weights = rng.uniform(0.5, 2.0, size=n_components)
    return GaussianMixtureOracle(centers, weights, schedule)


def test_score_matches_fd_gradient() -> None:
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(11)
    for d in (1, 2, 8):
        orc = _random_oracle(rng, d, 4, sch)
        xs = rng.normal(size=(20, d))
        for t in (0.2, 0.7):
            exact = orc.score(xs, t)
            scale = np.abs(exact).max() + 1e-12
            for x, s in zip(xs, exact):
                fd = finite_diff_jacobian(lambda pts: orc.logpdf(pts, t), x)
                assert np.abs(fd - s).max() / scale < 1e-6


def test_hessian_matches_fd_jacobian_of_score() -> None:
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(12)
    for d in (1, 2, 8):
        orc = _random_oracle(rng, d, 3, sch)
        xs = rng.normal(size=(10, d))
        exact = orc.hessian(xs, 0.5)
        scale = np.abs(exact).max() + 1e-12
        for x, hm in zip(xs, exact):
            fd = finite_diff_jacobian(lambda pts: orc.score(pts, 0.5), x)
            assert np.abs(fd - hm).max() / scale < 1e-5
        # symmetry comes for free from the closed form
        np.testing.assert_allclose(exact, np.swapaxes(exact, -1, -2), atol=1e-12)


def test_hessian_grad_matches_fd_of_hessian() -> None:
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(13)
    orc = _random_oracle(rng, 2, 3, sch)
    xs = rng.normal(size=(6, 2))
    t = 0.45
    h = 1e-5
    exact = orc.hessian_grad(xs, t)  # (m, d, d, d), last axis is the derivative
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (orc.hessian(xs + e, t) - orc.hessian(xs - e, t)) / (2 * h)
        np.testing.assert_allclose(exact[..., k], fd, rtol=2e-4, atol=1e-7)


def test_symmetric_pair_closed_form() -> None:
    # Unit-noise +-1 mixture: p(x) prop exp(-x^2/2) cosh(x), so
    # score = -x + tanh(x), hessian = -tanh(x)^2, third = -2 tanh(x) (1 - tanh(x)^2).
    sch = NoiseSchedule.ve(0.01, 100.0)  # sigma(0.5) = 1, alpha = 1
    orc = GaussianMixtureOracle([[1.0], [-1.0]], None, sch)
    t = 0.5
    for x in (-2.3, -0.4, 0.0, 0.7, 1.9):
        th = math.tanh(x)
        assert float(orc.score(np.array([x]), t)[0]) == pytest.approx(-x + th, abs=1e-12)
        assert float(orc.hessian(np.array([x]), t)[0, 0]) == pytest.approx(-th * th, abs=1e-12)
        third = float(orc.hessian_grad(np.array([x]), t)[0, 0, 0])
        assert third == pytest.approx(-2 * th * (1 - th * th), abs=1e-12)


def test_logpdf_matches_scipy_mixture() -> None:
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(14)
    centers = rng.normal(size=(3, 2))
    weights = np.array([0.2, 0.3, 0.5])
    orc = GaussianMixtureOracle(centers, weights, sch)
    t = 0.6
    alpha, sigma = sch.alpha_sigma(t)
    xs = rng.normal(size=(25, 2))
    dens = np.zeros(25)
    for w, c in zip(weights, centers):
        dens += w * multivariate_normal.pdf(xs, mean=alpha * c, cov=sigma**2 * np.eye(2))
    np.testing.assert_allclose(orc.logpdf(xs, t), np.log(dens), rtol=1e-12)


def test_density_normalization_1d() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[0.5], [-1.5]], [0.7, 0.3], sch)
    t = 0.4
    total, err = quad(lambda x: math.exp(float(orc.logpdf(np.array([x]), t))), -12, 12)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_eps_is_minus_sigma_score() -> None:
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(15)
    orc = _random_oracle(rng, 3, 2, sch)
    xs = rng.normal(size=(7, 3))
    t = 0.3
    _, sigma = sch.alpha_sigma(t)
    np.testing.assert_allclose(orc.eps(xs, t), -sigma * orc.score(xs, t), rtol=1e-14)


def test_eps_evaluates_the_schedule_once(monkeypatch) -> None:
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(17)
    orc = _random_oracle(rng, 3, 2, sch)
    calls = []
    real = NoiseSchedule.alpha_sigma

    def counted(self, t):
        calls.append(t)
        return real(self, t)

    monkeypatch.setattr(NoiseSchedule, "alpha_sigma", counted)
    orc.eps(rng.normal(size=(5, 3)), 0.3)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "d, n",
    [(1, 2), (1, 3), (1, 5), (1, 9), (1, 33), (1, 256), (2, 2), (2, 4), (2, 64), (8, 4), (64, 8), (1000, 4)],
)
def test_rows_do_not_depend_on_batch_size(d, n) -> None:
    # A sampler that steps one point must take the same step as that point's
    # row of a batch, bit for bit.  At d = 1 and n >= 4 a contraction whose
    # summed axis is strided changes kernels when the batch has one row.
    rng = np.random.default_rng(100 + d + n)
    orc = _random_oracle(rng, d, n, NoiseSchedule.vp_linear())
    xs = rng.normal(size=(37, d))
    t = 0.4
    methods = ("eps", "score", "logpdf", "posterior_weights", "posterior_mean")
    methods += ("hessian", "hessian_grad") if d <= DENSE_DIM_CAP else ()
    # At d <= 2 the samplers hold their tiles F-ordered (chains innermost):
    # that batch must give the C batch's bits, in F order.  At d = 1 it is
    # the same memory as the C batch, and both orders at once.
    layouts = (xs, np.asfortranarray(xs)) if d <= 2 else (xs,)

    def in_order(out, x) -> bool:
        return out.flags.c_contiguous if x.flags.c_contiguous else out.flags.f_contiguous

    for name in methods:
        f = getattr(orc, name)
        batch = f(xs, t)
        assert batch.flags.c_contiguous, name
        for i in (0, 17, 36):
            assert np.array_equal(f(xs[i], t), batch[i]), (name, i)
        assert np.array_equal(f(xs[:3], t), batch[:3]), name
        for x in layouts[1:]:
            out = f(x, t)
            assert np.array_equal(out, batch) and in_order(out, x), name
    if d > DENSE_DIM_CAP:
        return
    # One posterior evaluation gives the same bits as the separate methods.
    separate = (orc.score(xs, t), orc.hessian(xs, t), orc.hessian_grad(xs, t))
    for order in (2, 3):
        batch = orc.derivatives(xs, t, order)
        assert len(batch) == order
        for part, want in zip(batch, separate):
            assert np.array_equal(part, want), order
        for i in (0, 17, 36):
            for part, row in zip(orc.derivatives(xs[i], t, order), batch):
                assert np.array_equal(part, row[i]), (order, i)
        for part, rows in zip(orc.derivatives(xs[:3], t, order), batch):
            assert np.array_equal(part, rows[:3]), order
        for x in layouts:
            for part, want in zip(orc.derivatives(x, t, order), batch):
                assert np.array_equal(part, want), order
                assert in_order(part, x), order


def test_two_center_1d_moments_are_the_einsum_forms() -> None:
    # At d = 1 the moments are summed component by component over the
    # components-major weights.  With two components that sum has one
    # addition, so the moments, and everything read off them, keep the bits
    # of the einsum contraction over point-major weights.
    sch = NoiseSchedule.ve(0.01, 100.0)
    rng = np.random.default_rng(21)
    oracles = [GaussianMixtureOracle([[1.5], [-1.5]], [0.7, 0.3], sch), _random_oracle(rng, 1, 2, sch)]
    for orc in oracles:
        y = orc._yc
        tables = [y, y * y, (y * y) * y]
        for m in (1, 7, 4096):
            x2 = rng.normal(scale=2.0, size=(m, 1))
            for t in (0.3, 0.5):
                w = orc._posterior(x2, t)[0]
                rows = orc.posterior_weights(x2, t)
                assert np.array_equal(rows, w.T)
                for table, moment in zip(tables, orc._moments(w, tables)):
                    assert np.array_equal(moment, np.einsum("mn,nk->mk", rows, table))
                want = orc._ybar0 + np.einsum("mn,nd->md", rows, y)
                assert np.array_equal(orc.posterior_mean(x2, t), want)


@pytest.mark.parametrize("n", [64, 256])
def test_1d_moments_are_within_the_summation_bound(n) -> None:
    # At d = 1 the mean, M2 and M3 tables are summed component by component.
    # Against the exact rational sum of the same float64 weights times table
    # entries, every row stays inside the recursive summation bound
    # gamma_n sum_i |w_i t_i|, gamma_n = n u / (1 - n u), u = 2^-53.  Centers
    # of scale 10 at t = 0.05 are where the moments differ most from einsum's.
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(23)
    orc = GaussianMixtureOracle(rng.normal(scale=10.0, size=(n, 1)), rng.uniform(0.5, 2.0, n), sch)
    t = 0.05
    alpha, sigma = orc.level(t)
    x2 = alpha * orc.centers[rng.integers(n, size=24)] + 3.0 * sigma * rng.standard_normal((24, 1))
    w = orc._posterior(x2, t)[0]
    y = orc._yc
    tables = [y, y * y, (y * y) * y]
    u = Fraction(1, 2**53)
    gamma = n * u / (1 - n * u)
    for table, moment in zip(tables, orc._moments(w, tables)):
        col = [Fraction(v) for v in table[:, 0]]
        for j in range(x2.shape[0]):
            terms = [Fraction(wi) * ci for wi, ci in zip(w[:, j], col)]
            assert abs(Fraction(moment[j, 0]) - sum(terms)) <= gamma * sum(abs(v) for v in terms)


def _ordered_sum(terms):
    """terms[0] + terms[1] + ..., added one at a time in order; ``terms`` may be a generator."""
    terms = iter(terms)
    acc = next(terms).copy()
    for term in terms:
        acc += term
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 256, 4096])
def test_component_sums_are_the_ordered_loop(n) -> None:
    # Every sum over components is one numpy reduction that must add the
    # components in order, as the loop here does, so that a lone point gets
    # its batch row's bits; a numpy release that reorders one fails here.
    # One point (m = 1) and one table at d = 1 take the paddings that keep a
    # lone column from being summed pairwise.  At d = 2 the moments of an
    # F-ordered batch, contracted chains innermost, are checked too.
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(24)
    orc1 = GaussianMixtureOracle(rng.normal(scale=3.0, size=(n, 1)), rng.uniform(0.5, 2.0, n), sch)
    orc2 = _random_oracle(rng, 2, n, sch)
    for m in (1, 2, 37, 4096):
        for orc in (orc1, orc2):
            x2 = rng.normal(scale=3.0, size=(m, orc.dim))
            ll = orc._log_posterior(x2, 0.2)[0]
            e = np.exp(ll - ll.max(axis=0))
            assert np.array_equal(_shift_exp_sum(ll)[1], _ordered_sum(e))
            del ll, e
            w = orc._posterior(x2, 0.2)[0]
            y = orc._yc
            outer2 = (y[:, :, None] * y[:, None, :]).reshape(n, -1)
            tables = [y, outer2, (outer2[:, :, None] * y[:, None, :]).reshape(n, -1)]
            wants = [_ordered_sum(wi[:, None] * ti for wi, ti in zip(w, table)) for table in tables]
            for k in (1, 2, 3):
                for layout in ("C", "F"):
                    for moment, want in zip(orc._moments(w, tables[:k], layout), wants[:k], strict=True):
                        assert np.array_equal(moment, want), (m, orc.dim, k, layout)
            if orc.dim > 1:
                # The same bits as einsum over point-major (m, n) weights.
                rows = np.ascontiguousarray(w.T)
                for moment, table in zip(orc._moments(w, tables), tables):
                    assert np.array_equal(moment, np.einsum("mn,nk->mk", rows, table)), m
                del rows
            del w


@pytest.mark.parametrize("d", [1, 2])
def test_posterior_weights_are_point_major_rows(d) -> None:
    rng = np.random.default_rng(22 + d)
    orc = _random_oracle(rng, d, 5, NoiseSchedule.vp_linear())
    xs = rng.normal(size=(11, d))
    w = orc.posterior_weights(xs, 0.4)
    assert w.shape == (11, 5)
    assert w.flags.c_contiguous
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-14)
    one = orc.posterior_weights(xs[4], 0.4)
    assert one.shape == (5,) and one.flags.c_contiguous
    assert np.array_equal(one, w[4])


def test_derivatives_order_and_dense_cap() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = _random_oracle(np.random.default_rng(18), 2, 3, sch)
    x = np.array([0.4, -0.2])
    (score,) = orc.derivatives(x, 0.3, 1)
    assert np.array_equal(score, orc.score(x, 0.3))
    for order in (0, 4):
        with pytest.raises(ValueError, match="order must be 1, 2 or 3"):
            orc.derivatives(x, 0.3, order)
    wide = _random_oracle(np.random.default_rng(19), DENSE_DIM_CAP + 1, 3, sch)
    for call in (wide.hessian, wide.hessian_grad, lambda x, t: wide.derivatives(x, t, 2)):
        with pytest.raises(ValueError, match="capped at d <= 64"):
            call(np.zeros(DENSE_DIM_CAP + 1), 0.3)


def test_dense_batches_cover_the_rows_once(monkeypatch) -> None:
    # At d = 16 an order-3 batch holds 2^20 // 16^3 = 256 rows, so 1,000 rows take four batches,
    # the last one short, each the derivatives of its rows.  A d = 1 block of 4,096 rows and a
    # lone point are one batch each, handed to derivatives as they are: no copy of x is made.
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = _random_oracle(np.random.default_rng(20), 16, 3, sch)
    xs = np.random.default_rng(21).standard_normal((1000, 16))
    batches = list(orc.dense_batches(xs, 0.5, 3))
    assert [(rows.start, rows.stop) for rows, _ in batches] == [(0, 256), (256, 512), (512, 768), (768, 1024)]
    for rows, parts in batches:
        for got, want in zip(parts, orc.derivatives(xs[rows], 0.5, 3)):
            assert np.array_equal(got, want)
    assert len(list(orc.dense_batches(xs, 0.5, 2))) == 1  # 2^20 // 16^2 = 4096 rows
    line = _random_oracle(np.random.default_rng(22), 1, 2, sch)
    real, seen = line.derivatives, []
    monkeypatch.setattr(line, "derivatives", lambda arg, t, order: seen.append(arg) or real(arg, t, order))
    for x in (np.random.default_rng(23).standard_normal((4096, 1)), np.array([0.3])):
        ((rows, parts),) = line.dense_batches(x, 0.5, 3)
        assert np.shares_memory(seen[-1], x) and seen[-1].shape == x.shape
        for got, want in zip(parts, real(x[rows], 0.5, 3)):
            assert np.array_equal(got, want)


def _sources_outside_the_oracle() -> dict[str, str]:
    """Name -> text of every module of the imported package but oracle.py."""
    paths = sorted(Path(lmlangevin.__file__).parent.glob("*.py"))
    assert {"oracle.py", "samplers.py", "cli.py"} <= {path.name for path in paths}
    return {path.name: path.read_text() for path in paths if path.name != "oracle.py"}


def test_only_the_oracle_reads_its_level_and_batch_budget() -> None:
    # Samplers, diagnostics and the CLI ask the oracle for its noise level and its dense batches
    # through level() and dense_batches(); its private level routine and batch budget stay inside.
    readers = [
        f"{name}: {token}"
        for name, text in _sources_outside_the_oracle().items()
        for token in ("._level(", "_DENSE_BATCH_ELEMS")
        if token in text
    ]
    assert readers == []


def test_only_the_oracle_reads_its_centers_and_weights() -> None:
    # The diffused target is stated once: other modules read a 1-d marginal through marginal(t),
    # and never the centers or weights it is built from.
    readers = [
        f"{name}:{line_no}"
        for name, text in _sources_outside_the_oracle().items()
        for line_no, line in enumerate(text.splitlines(), 1)
        if ".centers" in line or ".weights" in line
    ]
    assert readers == []


def _longdouble_reference(orc, x, t):
    """eps, score, logpdf and hessian in np.longdouble, from the pairwise differences x - alpha y_i."""
    L = np.longdouble
    alpha, sigma = (L(float(v)) for v in orc.schedule.alpha_sigma(t))
    y, x = orc.centers.astype(L), x.astype(L)
    s2 = sigma * sigma
    diff = x[:, None, :] - alpha * y[None, :, :]
    ll = np.log(orc.weights.astype(L)) - (diff * diff).sum(-1) / (2 * s2)
    top = ll.max(-1, keepdims=True)
    e = np.exp(ll - top)
    w = e / e.sum(-1, keepdims=True)
    logpdf = np.log(e.sum(-1)) + top[:, 0] - L(orc.dim) / 2 * np.log(2 * L(np.pi) * s2)
    ybar = (w[:, :, None] * y[None]).sum(1)
    score = -(x - alpha * ybar) / s2
    dev = y[None] - ybar[:, None, :]
    cov = (w[:, :, None, None] * dev[:, :, :, None] * dev[:, :, None, :]).sum(1)
    hess = alpha * alpha / (s2 * s2) * cov - np.eye(orc.dim, dtype=L) / s2
    return {"eps": -sigma * score, "score": score, "logpdf": logpdf, "hessian": hess}


@pytest.mark.parametrize("offset", [0.0, 10.0, 100.0])
def test_posterior_precision_on_offset_mixtures(offset) -> None:
    # Centers far from the origin must not cost digits: the logits differ by
    # O(alpha |x| |y| / sigma^2), which cancels badly unless taken about the
    # centers' mean.
    sch = NoiseSchedule.ve(0.01, 100.0)  # sigma(t) = 0.01 * 1e4^t, alpha = 1
    rng = np.random.default_rng(18)
    centers = rng.normal(scale=0.5, size=(4, 3)) + offset
    orc = GaussianMixtureOracle(centers, rng.uniform(0.5, 2.0, size=4), sch)
    gates = {"eps": 1e-10, "score": 1e-10, "logpdf": 1e-10, "hessian": 1e-9}
    for t in np.linspace(math.log(1.6) / math.log(1e4), 0.5, 6):  # sigma from 0.016 to 1
        xs = orc.sample_diffused(stream(19), 64, t)
        ref = _longdouble_reference(orc, xs, t)
        for name, gate in gates.items():
            err = np.abs(getattr(orc, name)(xs, t) - ref[name]).max() / np.abs(ref[name]).max()
            assert err < gate, (name, float(t), float(err))


@pytest.mark.parametrize("d", [1, 2, 8])
def test_centered_moments_match_the_raw_moment_einsums(d) -> None:
    sch = NoiseSchedule.vp_linear()
    rng = np.random.default_rng(20 + d)
    orc = _random_oracle(rng, d, 5, sch)
    xs = rng.normal(size=(11, d))
    t = 0.45
    alpha, sigma = (float(v) for v in sch.alpha_sigma(t))
    s2 = sigma * sigma
    y = orc.centers
    w = orc.posterior_weights(xs, t)
    ybar = w @ y
    m2 = np.einsum("mn,ni,nj->mij", w, y, y)
    m3 = np.einsum("mn,ni,nj,nk->mijk", w, y, y, y)
    cov = m2 - ybar[:, :, None] * ybar[:, None, :]
    hess = (alpha * alpha / (s2 * s2)) * cov - np.eye(d) / s2
    dcov = m3 - m2[:, :, :, None] * ybar[:, None, None, :]
    dcov -= cov[:, :, None, :] * ybar[:, None, :, None]
    dcov -= cov[:, None, :, :] * ybar[:, :, None, None]
    third = (alpha * alpha / (s2 * s2)) * (alpha / s2) * dcov
    for got, want in ((orc.hessian(xs, t), hess), (orc.hessian_grad(xs, t), third)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_import_leaves_scipy_unloaded() -> None:
    # numpy is the only run-time dependency; importing scipy would cost every
    # command about half a second and 38 MB.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, lmlangevin, lmlangevin.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_posterior_weights_limits() -> None:
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = GaussianMixtureOracle([[1.0], [-1.0]], None, sch)
    t = 0.5
    w0 = orc.posterior_weights(np.array([0.0]), t)
    np.testing.assert_allclose(w0, [0.5, 0.5], atol=1e-15)
    w_far = orc.posterior_weights(np.array([8.0]), t)
    assert w_far[0] > 0.999999
    batch = orc.posterior_weights(np.random.default_rng(0).normal(size=(9, 1)), t)
    np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-14)


def test_posterior_mean_interpolates_centers() -> None:
    sch = NoiseSchedule.ve(0.01, 100.0)
    orc = GaussianMixtureOracle([[1.0], [-1.0]], None, sch)
    t = 0.5
    assert float(orc.posterior_mean(np.array([0.0]), t)[0]) == pytest.approx(0.0, abs=1e-15)
    assert float(orc.posterior_mean(np.array([0.9]), t)[0]) == pytest.approx(math.tanh(0.9), abs=1e-12)
    assert abs(float(orc.posterior_mean(np.array([50.0]), t)[0])) <= 1.0


def test_translation_equivariance() -> None:
    sch = NoiseSchedule.ve(0.01, 100.0)  # alpha = 1 so shifting centers shifts x one-to-one
    rng = np.random.default_rng(16)
    centers = rng.normal(size=(3, 2))
    shift = np.array([0.8, -1.2])
    a = GaussianMixtureOracle(centers, None, sch)
    b = GaussianMixtureOracle(centers + shift, None, sch)
    xs = rng.normal(size=(11, 2))
    t = 0.5
    np.testing.assert_allclose(a.score(xs, t), b.score(xs + shift, t), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.hessian(xs, t), b.hessian(xs + shift, t), rtol=1e-12, atol=1e-12)


def test_high_noise_score_is_near_gaussian() -> None:
    # At t = t_max the VP marginal is close to N(0, I), so score(x) ~ -x.
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.0, 0.0], [-1.0, 0.0]], None, sch)
    xs = np.array([[0.5, -0.3], [1.5, 2.0], [-2.0, 0.1]])
    s = orc.score(xs, 1.0)
    assert np.abs(s + xs).max() < 1e-3


def test_sample_data_moments() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.0], [-1.0]], [0.75, 0.25], sch)
    ys = orc.sample_data(stream(123), 200_000)
    assert ys.shape == (200_000, 1)
    # data sits exactly on the centers
    assert set(np.unique(ys)) == {-1.0, 1.0}
    assert ys.mean() == pytest.approx(0.5, abs=0.01)


def test_sample_diffused_moments() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[2.0], [-2.0]], None, sch)
    t = 0.5
    alpha, sigma = sch.alpha_sigma(t)
    xs = orc.sample_diffused(stream(7), 400_000, t)
    var = float(alpha) ** 2 * 4.0 + float(sigma) ** 2
    assert xs.mean() == pytest.approx(0.0, abs=4 * math.sqrt(var / 400_000))
    assert xs.var() == pytest.approx(var, rel=0.01)


def test_marginal_cdf_matches_quadrature() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.2], [-0.5]], [0.6, 0.4], sch)
    t = 0.55
    for x in (-1.0, 0.1, 1.4):
        target, _ = quad(lambda u: math.exp(float(orc.logpdf(np.array([u]), t))), -14, x)
        assert float(orc.marginal_cdf(np.array([x]), t)[0]) == pytest.approx(target, abs=1e-9)


def test_marginal_quantile_roundtrip() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.2], [-0.5]], [0.6, 0.4], sch)
    t = 0.55
    qs = np.array([0.01, 0.2, 0.5, 0.8, 0.99])
    xs = orc.marginal_quantile(qs, t)
    np.testing.assert_allclose(orc.marginal_cdf(xs, t), qs, atol=1e-10)
    assert np.all(np.diff(xs) > 0)
    for bad in ([0.0], [0.3, 1.0], [0.3, np.nan]):
        with pytest.raises(ValueError, match="strictly in"):
            orc.marginal_quantile(np.array(bad), t)


def test_marginal_quantile_keeps_the_shape_of_q() -> None:
    # like marginal_cdf for x: a scalar q gives a 0-d result, an array q its own shape
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.2], [-0.5]], [0.6, 0.4], sch)
    t = 0.55
    assert orc.marginal_quantile(0.3, t).shape == ()
    assert float(orc.marginal_quantile(0.3, t)) == orc.marginal_quantile(np.array([0.3]), t)[0]
    grid = np.array([[0.1, 0.4], [0.6, 0.9]])
    xs = orc.marginal_quantile(grid, t)
    assert xs.shape == grid.shape
    np.testing.assert_allclose(orc.marginal_cdf(xs, t), grid, atol=1e-10)
    empty = orc.marginal_quantile(np.empty((0, 3)), t)
    assert empty.shape == (0, 3) and empty.dtype == np.float64


_CDF_SCHEDULES = {"vp": NoiseSchedule.vp_linear(), "ve": NoiseSchedule.ve(0.01, 100.0)}


@pytest.mark.parametrize("offset", [0.0, 10.0, 100.0])
@pytest.mark.parametrize("kind", sorted(_CDF_SCHEDULES))
def test_marginal_cdf_matches_ndtr(kind, offset) -> None:
    orc = GaussianMixtureOracle(np.array([[1.2], [-0.5], [3.0]]) + offset, [0.2, 0.5, 0.3], _CDF_SCHEDULES[kind])
    z = np.linspace(-37.0, 37.0, 1201)
    for t in (0.1, 0.5, 0.9):
        alpha, sigma = orc.level(t)
        locs = alpha * orc.centers[:, 0]
        x = (locs[:, None] + sigma * z).ravel()
        want = ndtr((x[:, None] - locs) / sigma) @ orc.weights
        err = np.abs(orc.marginal_cdf(x, t) - want)
        assert err.max() <= 1e-15
        resolved = want > 1e-300
        assert (err[resolved] / want[resolved]).max() <= 1e-13


def _brentq_quantile(orc, q, t):
    """Reference quantile: scalar brentq on the lower-tail mass, or on the upper-tail mass above 1/2."""
    alpha, sigma = orc.level(t)
    locs = alpha * orc.centers[:, 0]
    lo, hi = locs.min() - 40.0 * sigma, locs.max() + 40.0 * sigma
    roots = []
    for qq in q:
        if qq > 0.5:
            f = lambda x, p=1.0 - qq: p - float(ndtr((locs - x) / sigma) @ orc.weights)  # noqa: E731
        else:
            f = lambda x, p=qq: float(ndtr((x - locs) / sigma) @ orc.weights) - p  # noqa: E731
        roots.append(brentq(f, lo, hi, xtol=1e-13))
    return np.array(roots)


@pytest.mark.parametrize("offset", [0.0, 10.0, 100.0])
@pytest.mark.parametrize("kind", sorted(_CDF_SCHEDULES))
def test_marginal_quantile_matches_brentq(kind, offset) -> None:
    # t = 0.5 keeps sigma_t near the centers' spacing, so the density has no
    # near-empty gap where a quantile would be ill-conditioned.
    orc = GaussianMixtureOracle(np.array([[1.2], [-0.5], [3.0]]) + offset, [0.2, 0.5, 0.3], _CDF_SCHEDULES[kind])
    tail = np.geomspace(1e-12, 0.4, 24)
    qs = np.concatenate((tail, np.arange(1, 64) / 64, 1.0 - tail))
    xs = orc.marginal_quantile(qs, 0.5)
    np.testing.assert_allclose(xs, _brentq_quantile(orc, qs, 0.5), rtol=0, atol=1e-11)


def test_marginal_helpers_require_1d() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[1.0, 0.0], [-1.0, 0.0]], None, sch)
    with pytest.raises(ValueError, match="1-d"):
        orc.marginal_cdf(np.array([0.0]), 0.5)


def test_weights_default_and_normalization() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[0.0], [1.0], [2.0]], None, sch)
    np.testing.assert_allclose(orc.weights, 1.0 / 3.0)
    orc2 = GaussianMixtureOracle([[0.0], [1.0]], [2.0, 6.0], sch)
    np.testing.assert_allclose(orc2.weights, [0.25, 0.75])


def test_validation_errors() -> None:
    sch = NoiseSchedule.vp_linear()
    with pytest.raises(ValueError, match="one per center"):
        GaussianMixtureOracle([[0.0], [1.0]], [1.0], sch)
    with pytest.raises(ValueError, match="positive"):
        GaussianMixtureOracle([[0.0], [1.0]], [1.0, -1.0], sch)
    with pytest.raises(ValueError, match="finite"):
        GaussianMixtureOracle([[np.inf]], None, sch)
    with pytest.raises(ValueError, match=r"centers must be an \(n, d\) array"):
        GaussianMixtureOracle([0.0, 1.0], None, sch)  # flat centers are not read as d = 1
    # finite, positive inputs whose derived constants overflow, rejected before any warning escapes
    with pytest.raises(ValueError, match="weights must be positive and finite, and so must their sum"):
        GaussianMixtureOracle([[0.0], [1.0]], [1e308, 1e308], sch)
    with pytest.raises(ValueError, match="centers must be finite, and so must their squared distances"):
        GaussianMixtureOracle([[1e200], [-1e200]], None, sch)
    orc = GaussianMixtureOracle([[0.0, 1.0]], None, sch)
    with pytest.raises(ValueError, match="trailing dimension"):
        orc.score(np.zeros((3, 3)), 0.5)
    with pytest.raises(ValueError, match=r"sigma\(t\) = 0: the diffused mixture is degenerate"):
        orc.eps(np.zeros(2), 0.0)  # VP has sigma(0) = 0


def test_diameter() -> None:
    sch = NoiseSchedule.vp_linear()
    orc = GaussianMixtureOracle([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]], None, sch)
    assert orc.diameter == pytest.approx(5.0)


def test_many_centers_build_in_little_memory() -> None:
    # Only the error-bound diagnostics read the diameter, so building an
    # oracle forms no (n, n, d) array of pairwise differences (153 MB here).
    centers = np.random.default_rng(0).normal(size=(2000, 2))
    tracemalloc.start()
    try:
        orc = GaussianMixtureOracle(centers, None, NoiseSchedule.vp_linear())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    diff = centers[:, None, :] - centers[None, :, :]
    assert orc.diameter == float(np.sqrt((diff**2).sum(-1)).max())


def test_schedule_table_under_concurrent_callers() -> None:
    # Threads share one oracle's table of (alpha_t, sigma_t); two threads that
    # miss at once both evaluate the schedule, but every call must return the
    # bits a fresh oracle gives at its own t.
    sch = NoiseSchedule.vp_linear()
    centers = [[1.0, 0.0], [-1.0, 0.5]]
    ts = [float(t) for t in np.linspace(0.05, 0.95, 40)]
    x = stream(61).standard_normal((5, 2))
    want = {t: GaussianMixtureOracle(centers, None, sch).eps(x, t) for t in ts}
    shared = GaussianMixtureOracle(centers, None, sch)

    def worker(k):
        order = ts[k % len(ts):] + ts[: k % len(ts)]
        return all(np.array_equal(shared.eps(x, t), want[t]) for t in order * 5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, k) for k in range(16)]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(interval)
