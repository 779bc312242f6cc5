from __future__ import annotations

import math

import numpy as np
import pytest

from lmlangevin import (
    DampedGeometryConfig,
    DegenerateDirectionError,
    GeometryState,
    damped_inverse_apply,
    damped_inverse_dense,
    damped_inverse_sqrt_apply,
    ema_mix,
    hs_norm,
    lm_guided_eps,
    low_rank_hessian,
    normalize_to,
    sm_apply,
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


def test_sm_apply_equals_dense_solve() -> None:
    rng = np.random.default_rng(22)
    for d in (1, 3, 17):
        e = rng.normal(size=d)
        v = rng.normal(size=d)
        lam = 0.37
        expected = lam * np.linalg.solve(np.outer(e, e) + lam * np.eye(d), v)
        np.testing.assert_allclose(sm_apply(e, v, lam), expected, rtol=1e-12)


def test_sm_apply_worked_example() -> None:
    # e = (1,1)/sqrt(2), v = (1,0), lam = 1: <e,v> = 1/sqrt(2), ||e||^2 = 1,
    # so v - e/(sqrt(2)*2) = (0.75, -0.25).
    e = np.array([1.0, 1.0]) / math.sqrt(2.0)
    out = sm_apply(e, np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(out, [0.75, -0.25], atol=1e-15)
    # restoring the norm of v rescales onto (3, -1)/sqrt(10)
    guided = normalize_to(np.array([1.0, 0.0]), out)
    np.testing.assert_allclose(guided, [3.0 / math.sqrt(10.0), -1.0 / math.sqrt(10.0)], atol=1e-15)


def test_sm_apply_batched_rows_match_loop() -> None:
    rng = np.random.default_rng(23)
    e = rng.normal(size=(8, 5))
    v = rng.normal(size=(8, 5))
    batched = sm_apply(e, v, 0.05)
    for i in range(8):
        np.testing.assert_allclose(batched[i], sm_apply(e[i], v[i], 0.05), rtol=1e-15)


def test_sm_apply_zero_direction_is_identity() -> None:
    v = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(sm_apply(np.zeros(3), v, 0.5), v, rtol=0)


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


def test_normalize_to_restores_norm() -> None:
    rng = np.random.default_rng(25)
    ref = rng.normal(size=(6, 4))
    v = rng.normal(size=(6, 4))
    out = normalize_to(ref, v)
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=1), np.linalg.norm(ref, axis=1), rtol=1e-14
    )
    with pytest.raises(DegenerateDirectionError):
        normalize_to(ref[0], np.zeros(4))


def test_ema_mix() -> None:
    cur = np.array([1.0, 2.0])
    prev = np.array([3.0, -2.0])
    np.testing.assert_allclose(ema_mix(None, cur, 0.9), cur)
    np.testing.assert_allclose(ema_mix(prev, cur, 0.0), cur)
    np.testing.assert_allclose(ema_mix(prev, cur, 0.25), 0.25 * prev + 0.75 * cur)


def test_guided_eps_preserves_norm() -> None:
    rng = np.random.default_rng(26)
    cfg = DampedGeometryConfig(lam=1e-3, kappa=0.3)
    state = GeometryState(prev_eps=rng.normal(size=(32, 12)))
    cur = rng.normal(size=(32, 12))
    guided, new_state = lm_guided_eps(cur, state, cfg)
    rel = np.abs(np.linalg.norm(guided, axis=1) - np.linalg.norm(cur, axis=1))
    rel /= np.linalg.norm(cur, axis=1)
    assert rel.max() < 1e-12
    np.testing.assert_array_equal(new_state.prev_eps, cur)


def test_guided_eps_kappa_zero_is_identity() -> None:
    rng = np.random.default_rng(27)
    cfg = DampedGeometryConfig(lam=1e-3, kappa=0.0)
    state = GeometryState(prev_eps=rng.normal(size=(16, 6)))
    cur = rng.normal(size=(16, 6))
    guided, _ = lm_guided_eps(cur, state, cfg)
    assert np.abs(guided - cur).max() / np.abs(cur).max() < 1e-12


def test_guided_eps_first_step_is_identity() -> None:
    rng = np.random.default_rng(28)
    cfg = DampedGeometryConfig(lam=0.5, kappa=0.9)
    cur = rng.normal(size=(4, 3))
    guided, _ = lm_guided_eps(cur, GeometryState(), cfg)
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
        guided, _ = lm_guided_eps(cur, GeometryState(prev_eps=prev), cfg)
        cosang = float(guided @ cur / (np.linalg.norm(guided) * np.linalg.norm(cur)))
        angles.append(math.acos(min(1.0, cosang)))
    assert all(a > b for a, b in zip(angles, angles[1:]))
    cfg = DampedGeometryConfig(lam=1e12, kappa=0.5)
    guided, _ = lm_guided_eps(cur, GeometryState(prev_eps=prev), cfg)
    assert np.abs(guided - cur).max() / np.abs(cur).max() < 1e-6


def test_geometry_config_validation() -> None:
    with pytest.raises(ValueError, match="lam"):
        DampedGeometryConfig(lam=0.0)
    with pytest.raises(ValueError, match="kappa"):
        DampedGeometryConfig(lam=1.0, kappa=1.0)
    with pytest.raises(ValueError, match="kappa"):
        DampedGeometryConfig(lam=1.0, kappa=-0.1)
    with pytest.raises(ValueError, match="lam"):
        sm_apply(np.ones(2), np.ones(2), 0.0)
    with pytest.raises(ValueError, match="matching"):
        sm_apply(np.ones(2), np.ones(3), 1.0)


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


def test_damped_inverse_dense_is_true_inverse() -> None:
    rng = np.random.default_rng(30)
    for d in (1, 2, 9):
        eps = rng.normal(size=d)
        sigma, lam = 0.8, 0.05
        dense = damped_inverse_dense(eps, sigma, lam)
        target = low_rank_hessian(eps, sigma) + lam * np.eye(d)
        np.testing.assert_allclose(dense @ target, np.eye(d), atol=1e-12)


def test_damped_inverse_apply_matches_dense() -> None:
    rng = np.random.default_rng(31)
    eps = rng.normal(size=6)
    v = rng.normal(size=6)
    sigma, lam = 1.3, 0.2
    dense = damped_inverse_dense(eps, sigma, lam)
    np.testing.assert_allclose(damped_inverse_apply(eps, sigma, lam, v), dense @ v, rtol=1e-12)


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
