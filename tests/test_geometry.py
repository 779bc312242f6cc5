from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from lmlangevin import (
    DampedGeometryConfig,
    DegenerateDirectionError,
    damped_inverse_apply,
    damped_inverse_sqrt_apply,
    hs_norm,
    lm_guided_eps,
    low_rank_hessian,
)


def test_sherman_morrison_identity_small() -> None:
    # (e e^T + lam I)(I - e e^T / (lam + ||e||^2)) must equal lam I exactly.
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = int(rng.integers(1, 65))
        e = rng.normal(scale=rng.uniform(0.1, 10.0), size=d)
        lam = 10.0 ** rng.uniform(-4, 2)
        lhs = (np.outer(e, e) + lam * np.eye(d)) @ (np.eye(d) - np.outer(e, e) / (lam + e @ e))
        assert hs_norm(lhs - lam * np.eye(d)) / lam < 1e-10 * d


def test_deflection_min_eigenvalue() -> None:
    # I - e e^T/(lam + ||e||^2) has eigenvalues {1 (d-1 times), lam/(lam + ||e||^2)}.
    rng = np.random.default_rng(24)
    for d in (2, 7, 16):
        e = rng.normal(size=d)
        lam = 0.01
        mat = np.eye(d) - np.outer(e, e) / (lam + e @ e)
        evals = np.linalg.eigvalsh(mat)
        assert evals[0] == pytest.approx(lam / (lam + e @ e), abs=1e-10)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(evals > 0.0)


def test_guided_eps_preserves_norm() -> None:
    rng = np.random.default_rng(26)
    cfg = DampedGeometryConfig(lam=1e-3, kappa=0.3)
    prev = rng.normal(size=(32, 12))
    cur = rng.normal(size=(32, 12))
    guided = lm_guided_eps(cur, prev, cfg)
    rel = np.abs(np.linalg.norm(guided, axis=1) - np.linalg.norm(cur, axis=1))
    rel /= np.linalg.norm(cur, axis=1)
    assert rel.max() < 1e-12


def test_guided_eps_kappa_zero_is_identity() -> None:
    rng = np.random.default_rng(27)
    cfg = DampedGeometryConfig(lam=1e-3, kappa=0.0)
    prev = rng.normal(size=(16, 6))
    cur = rng.normal(size=(16, 6))
    guided = lm_guided_eps(cur, prev, cfg)
    assert np.abs(guided - cur).max() / np.abs(cur).max() < 1e-12


def test_guided_eps_first_step_is_identity() -> None:
    rng = np.random.default_rng(28)
    cfg = DampedGeometryConfig(lam=0.5, kappa=0.9)
    cur = rng.normal(size=(4, 3))
    guided = lm_guided_eps(cur, None, cfg)
    assert np.abs(guided - cur).max() / np.abs(cur).max() < 1e-12


def test_guided_eps_deflection_shrinks_with_lam() -> None:
    # Larger damping means weaker geometry: the angle to the raw prediction
    # must fall monotonically and vanish as lam -> inf.
    rng = np.random.default_rng(29)
    prev = rng.normal(size=8)
    cur = rng.normal(size=8)
    angles = []
    for lam in (1e-4, 1e-2, 1.0, 1e2, 1e4):
        cfg = DampedGeometryConfig(lam=lam, kappa=0.5)
        guided = lm_guided_eps(cur, prev, cfg)
        cosang = float(guided @ cur / (np.linalg.norm(guided) * np.linalg.norm(cur)))
        angles.append(math.acos(min(1.0, cosang)))
    assert all(a > b for a, b in zip(angles, angles[1:]))
    cfg = DampedGeometryConfig(lam=1e12, kappa=0.5)
    guided = lm_guided_eps(cur, prev, cfg)
    assert np.abs(guided - cur).max() / np.abs(cur).max() < 1e-6


def test_guided_eps_worked_example() -> None:
    # prev = 2e - cur with kappa = 0.5 makes the mix e = (1,1)/sqrt(2).  With
    # lam = 1, <e,cur> = 1/sqrt(2) and ||e||^2 = 1, so the deflection is
    # cur - e/(sqrt(2)*2) = (0.75, -0.25), which the norm restore maps onto
    # (3, -1)/sqrt(10).
    cur = np.array([1.0, 0.0])
    e = np.array([1.0, 1.0]) / math.sqrt(2.0)
    cfg = DampedGeometryConfig(lam=1.0, kappa=0.5)
    guided = lm_guided_eps(cur, 2.0 * e - cur, cfg)
    np.testing.assert_allclose(guided, np.array([3.0, -1.0]) / math.sqrt(10.0), atol=1e-15)


def test_guided_eps_zero_mix_is_identity() -> None:
    # prev = -3 cur with kappa = 0.25 mixes to exactly zero: no direction to
    # deflect along, so the guided prediction is cur itself.
    cur = np.array([[1.0, -2.0, 3.0], [0.5, 0.25, -4.0]])
    cfg = DampedGeometryConfig(lam=0.5, kappa=0.25)
    guided = lm_guided_eps(cur, -3.0 * cur, cfg)
    np.testing.assert_allclose(guided, cur, rtol=1e-14)


def _three_pass_longdouble(cur, prev, lam, kappa):
    # the textbook pipeline in extended precision: EMA mix, Sherman-Morrison
    # deflection of cur, norm restore
    c = cur.astype(np.longdouble)
    kappa = np.longdouble(kappa)
    mixed = kappa * prev.astype(np.longdouble) + (1 - kappa) * c
    out = c - mixed * (np.sum(mixed * c) / (np.longdouble(lam) + np.sum(mixed * mixed)))
    return out * np.sqrt(np.sum(c * c) / np.sum(out * out))


def test_guided_eps_matches_longdouble_reference() -> None:
    # At the package-default kappa the mix is c to within 1e-8, so a
    # three-pass float64 pipeline subtracts nearly equal vectors and loses
    # digits as d grows (4e-8 relative at d = 262144); the closed form does not.
    for d in (64, 16384, 262144):
        gen = np.random.default_rng(d)
        cur, prev = gen.standard_normal(d), gen.standard_normal(d)
        cases = [(1e-3, 1e-8, 1e-10), (1e-2, 1e-8, 1e-10), (1e-3, 1e-2, 1e-13), (1e-3, 0.5, 1e-13)]
        for lam, kappa, tol in cases:
            guided = lm_guided_eps(cur, prev, DampedGeometryConfig(lam, kappa))
            ref = _three_pass_longdouble(cur, prev, lam, kappa)
            rel = float(np.linalg.norm(guided - ref) / np.linalg.norm(ref))
            assert rel <= tol, (d, lam, kappa, rel)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 512),
    rows=st.integers(1, 4),
    log_lam=st.floats(-8.0, 8.0),
    kappa=st.one_of(st.sampled_from([0.0, 1e-2]), st.floats(1e-12, 0.999)),
    seed=st.integers(0, 2**32 - 1),
)
def test_guided_eps_properties(d, rows, log_lam, kappa, seed) -> None:
    gen = np.random.default_rng(seed)
    cur, prev = gen.standard_normal((rows, d)), gen.standard_normal((rows, d))
    lam = 10.0**log_lam
    cfg = DampedGeometryConfig(lam=lam, kappa=kappa)
    guided = lm_guided_eps(cur, prev, cfg)
    assert np.all(np.isfinite(guided))
    cur_n = np.linalg.norm(cur, axis=1)
    assert np.abs(np.linalg.norm(guided, axis=1) - cur_n).max() <= 1e-12 * cur_n.max()
    # kappa = 0 is the identity
    plain = lm_guided_eps(cur, prev, DampedGeometryConfig(lam=lam, kappa=0.0))
    assert np.abs(plain - cur).max() <= 1e-12 * cur_n.max()
    # a batch is its rows, each guided on its own
    for i in range(rows):
        row = lm_guided_eps(cur[i], prev[i], cfg)
        np.testing.assert_allclose(row, guided[i], rtol=0, atol=1e-14 * cur_n[i])
    # a zero row has no direction to guide, with or without a previous prediction
    cur[gen.integers(rows)] = 0.0
    for zero_prev in (prev, None):
        with pytest.raises(DegenerateDirectionError):
            lm_guided_eps(cur, zero_prev, cfg)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 64),
    rows=st.integers(1, 4),
    log_lam=st.floats(-6.0, 6.0),
    log_sigma=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_damped_inverse_properties(d, rows, log_lam, log_sigma, seed) -> None:
    gen = np.random.default_rng(seed)
    eps, v = gen.standard_normal((rows, d)), gen.standard_normal((rows, d))
    lam, sigma = 10.0**log_lam, 10.0**log_sigma
    applied = damped_inverse_apply(eps, sigma, lam, v)
    root = damped_inverse_sqrt_apply(eps, sigma, lam, v)
    twice = damped_inverse_sqrt_apply(eps, sigma, lam, root)
    # P's condition number 1 + 1/(sigma^2 lam) scales the dense solve's error.
    tol = 1e-13 * (1.0 + 1.0 / (sigma * sigma * lam))
    for i in range(rows):
        # the square root applied twice is the inverse
        assert np.linalg.norm(twice[i] - applied[i]) <= tol * np.linalg.norm(applied[i])
        # the closed form inverts the dense rank-1 proxy plus lam I
        dense = _dense_damped_inverse(eps[i], sigma, lam, v[i])
        assert np.linalg.norm(applied[i] - dense) <= tol * np.linalg.norm(dense)
        # a batch is its rows, each applied on its own
        assert np.array_equal(damped_inverse_apply(eps[i], sigma, lam, v[i]), applied[i])
        assert np.array_equal(damped_inverse_sqrt_apply(eps[i], sigma, lam, v[i]), root[i])
    # one v broadcasts against a batch of eps: row i is eps[i] applied to v on its own
    for op in (damped_inverse_apply, damped_inverse_sqrt_apply):
        shared = op(eps, sigma, lam, v[0])
        assert shared.shape == (rows, d)
        for i in range(rows):
            assert np.array_equal(shared[i], op(eps[i], sigma, lam, v[0]))
    # a row with no curvature information falls back to P = I / lam
    eps[gen.integers(rows)] = 0.0
    zero = np.flatnonzero(~eps.any(axis=1))
    np.testing.assert_allclose(damped_inverse_apply(eps, sigma, lam, v)[zero], v[zero] / lam, rtol=1e-15, atol=0)
    np.testing.assert_allclose(
        damped_inverse_sqrt_apply(eps, sigma, lam, v)[zero], v[zero] / np.sqrt(lam), rtol=1e-15, atol=0
    )


def test_geometry_config_validation() -> None:
    with pytest.raises(ValueError, match="lam"):
        DampedGeometryConfig(lam=0.0)
    with pytest.raises(ValueError, match="kappa"):
        DampedGeometryConfig(lam=1.0, kappa=1.0)
    with pytest.raises(ValueError, match="kappa"):
        DampedGeometryConfig(lam=1.0, kappa=-0.1)


def test_low_rank_hessian_dense() -> None:
    eps = np.array([3.0, 4.0])
    h = low_rank_hessian(eps, sigma_t=2.0)
    # scale = 1 / (sigma^2 ||eps||^2) = 1 / (4 * 25)
    np.testing.assert_allclose(h, 0.01 * np.outer(eps, eps))
    # eigenvalue along eps is 1/sigma^2, the Gaussian reference curvature
    evals = np.linalg.eigvalsh(h)
    assert evals[-1] == pytest.approx(0.25)
    with pytest.raises(DegenerateDirectionError):
        low_rank_hessian(np.zeros(2), 1.0)


def _dense_damped_inverse(eps, sigma, lam, v):
    # independent reference: a dense solve against the rank-1 proxy plus lam I
    return np.linalg.solve(low_rank_hessian(eps, sigma) + lam * np.eye(eps.size), v)


def test_damped_inverse_dense_is_true_inverse() -> None:
    rng = np.random.default_rng(30)
    for d in (1, 2, 9):
        eps = rng.normal(size=d)
        sigma, lam = 0.8, 0.05
        # row i applies P to e_i, so the rows form P itself (P is symmetric)
        dense = damped_inverse_apply(eps, sigma, lam, np.eye(d))
        np.testing.assert_allclose(dense, _dense_damped_inverse(eps, sigma, lam, np.eye(d)), atol=1e-12)
        target = low_rank_hessian(eps, sigma) + lam * np.eye(d)
        np.testing.assert_allclose(dense @ target, np.eye(d), atol=1e-12)


def test_damped_inverse_apply_matches_dense() -> None:
    rng = np.random.default_rng(31)
    eps = rng.normal(size=6)
    v = rng.normal(size=6)
    sigma, lam = 1.3, 0.2
    np.testing.assert_allclose(
        damped_inverse_apply(eps, sigma, lam, v), _dense_damped_inverse(eps, sigma, lam, v), rtol=1e-12
    )


def test_damped_inverse_sqrt_squares_to_inverse() -> None:
    rng = np.random.default_rng(32)
    eps = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    sigma, lam = 0.6, 0.8
    once = damped_inverse_sqrt_apply(eps, sigma, lam, v)
    twice = damped_inverse_sqrt_apply(eps, sigma, lam, once)
    np.testing.assert_allclose(twice, damped_inverse_apply(eps, sigma, lam, v), rtol=1e-12)


def test_damped_inverse_apply_zero_rows_fall_back() -> None:
    eps = np.zeros((2, 3))
    eps[1] = [1.0, 0.0, 0.0]
    v = np.ones((2, 3))
    out = damped_inverse_apply(eps, 1.0, 2.0, v)
    np.testing.assert_allclose(out[0], v[0] / 2.0)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("sigma", [0.02, 0.5, 1.0, 30.0])
@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0, 1e4])
def test_rank1_operators_are_exact_along_eps(sigma, lam) -> None:
    # At d = 1 the damped rank-1 inverse is the scalar 1/(1/sigma^2 + lam).
    # Formed as (1 - beta)/lam it cancels when sigma^2 lam is small: 8.3e-8
    # relative at sigma = 0.02, lam = 1e-6.
    eps, v = np.array([[-0.7], [2.5]]), np.array([[1.3], [-0.4]])
    g = 1.0 / (np.longdouble(sigma) ** -2 + np.longdouble(lam))
    np.testing.assert_allclose(damped_inverse_apply(eps, sigma, lam, v), (g * v).astype(float), rtol=1e-15, atol=0)
    np.testing.assert_allclose(
        damped_inverse_sqrt_apply(eps, sigma, lam, v), (np.sqrt(g) * v).astype(float), rtol=1e-15, atol=0
    )


@pytest.mark.parametrize("d", [1, 2, 64, 4096, 16384])
def test_rows_do_not_depend_on_batch_size(d) -> None:
    # lml_sample advances its chains in row tiles, down to a lone row, so a
    # row must get the bits it gets in a batch.  Past 8192 elements einsum
    # would sum a lone row in buffer-sized chunks, in another order.  At
    # d <= 2 the tiles are F-ordered, which must give the C batch's bits in F
    # order.
    gen = np.random.default_rng(d)
    cur, prev, v = (gen.standard_normal((64, d)) for _ in range(3))
    cfg = DampedGeometryConfig(lam=1e-3, kappa=0.3)
    ops = {
        "lm_guided_eps": lambda a, b, w: lm_guided_eps(a, b, cfg),
        "damped_inverse_apply": lambda a, b, w: damped_inverse_apply(a, 0.4, 1e-2, w),
        "damped_inverse_sqrt_apply": lambda a, b, w: damped_inverse_sqrt_apply(a, 0.4, 1e-2, w),
    }
    for name, op in ops.items():
        batch = op(cur, prev, v)
        assert np.array_equal(op(cur[0], prev[0], v[0]), batch[0]), name
        for k in (1, 3):
            assert np.array_equal(op(cur[:k], prev[:k], v[:k]), batch[:k]), (name, k)
        if d <= 2:
            out = op(*(np.asfortranarray(a) for a in (cur, prev, v)))
            assert np.array_equal(out, batch) and out.flags.f_contiguous, name
