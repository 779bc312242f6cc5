"""Damped rank-1 curvature geometry for noise predictions.

The negated log-density Hessian of a diffused distribution is approximated
from a single noise prediction by the Gauss-Newton style outer product

    -grad^2 log p_t(x)  ~=  eps eps^T / (sigma_t^2 ||eps||^2),

which is rank one, so Levenberg-Marquardt damping plus the Sherman-Morrison
identity give an O(d) application of the damped inverse:

    (eps~ eps~^T + lam I)^{-1} v  propto  v - eps~ <eps~, v> / (lam + ||eps~||^2).

``lm_guided_eps`` composes the full per-step pipeline used by the sampler:
EMA-mix the previous prediction into the current one, apply the damped
inverse to the current prediction, and rescale the result back to the
current prediction's norm (scalar prefactors only affect the norm, so they
are absorbed by the rescale).

All vector routines accept a single vector ``(d,)`` or a row batch ``(m, d)``
and treat rows independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import DENSE_DIM_CAP

__all__ = [
    "DegenerateDirectionError",
    "DampedGeometryConfig",
    "GeometryState",
    "ema_mix",
    "sm_apply",
    "normalize_to",
    "lm_guided_eps",
    "low_rank_hessian",
    "damped_inverse_dense",
    "damped_inverse_apply",
    "damped_inverse_sqrt_apply",
]


class DegenerateDirectionError(ValueError):
    """A direction vector required to be nonzero had zero norm."""


@dataclass(frozen=True)
class DampedGeometryConfig:
    """Damping strength lam > 0 and EMA mixing weight kappa in [0, 1).

    kappa is the weight on the *previous* prediction; kappa = 0 switches the
    whole pipeline off (the guided prediction equals the raw one).
    """

    lam: float = 0.001
    kappa: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("lam must be finite and > 0")
        if not (np.isfinite(self.kappa) and 0.0 <= self.kappa < 1.0):
            raise ValueError("kappa must lie in [0, 1)")


@dataclass(frozen=True)
class GeometryState:
    """Carried across sampler steps; holds the previous raw prediction."""

    prev_eps: Optional[np.ndarray] = None


def _rows(v):
    v = np.asarray(v, dtype=np.float64)
    return (v[None, :], True) if v.ndim == 1 else (v, False)


def _row_dot(a, b):
    # einsum fuses multiply and reduce into one pass with no temporary.
    return np.einsum("...i,...i->...", a, b)[..., None]


def ema_mix(prev, cur, kappa: float):
    """kappa * prev + (1 - kappa) * cur; with no previous value, cur itself."""
    if prev is None:
        return np.asarray(cur, dtype=np.float64)
    return kappa * np.asarray(prev, dtype=np.float64) + (1.0 - kappa) * np.asarray(cur, dtype=np.float64)


def sm_apply(eps_tilde, v, lam: float):
    """Sherman-Morrison application of the damped inverse direction.

    Returns v - eps~ <eps~, v> / (lam + ||eps~||^2) row-wise in O(d).
    A zero eps~ row degrades gracefully to the identity.
    """
    if not lam > 0.0:
        raise ValueError("lam must be > 0")
    e, single = _rows(eps_tilde)
    w, _ = _rows(v)
    if e.shape != w.shape:
        raise ValueError("eps_tilde and v must have matching shapes")
    out = w - e * (_row_dot(e, w) / (lam + _row_dot(e, e)))
    return out[0] if single else out


def normalize_to(ref, v):
    """Rescale v to carry the norm of ref: v * ||ref|| / ||v||, row-wise."""
    r, single = _rows(ref)
    w, _ = _rows(v)
    if r.shape != w.shape:
        raise ValueError("ref and v must have matching shapes")
    vn = np.sqrt(_row_dot(w, w))
    if np.any(vn == 0.0):
        raise DegenerateDirectionError("cannot normalize a zero vector")
    rn = np.sqrt(_row_dot(r, r))
    out = w * (rn / vn)
    return out[0] if single else out


def lm_guided_eps(cur, state: GeometryState, cfg: DampedGeometryConfig):
    """One geometry pass: EMA mix, damped-inverse deflection, norm restore.

    Returns the guided prediction and the successor state (which carries the
    raw ``cur`` forward).  With kappa = 0 the output equals ``cur`` up to
    float roundoff: the deflection collapses to a positive scalar shrink that
    the normalization undoes.
    """
    cur = np.asarray(cur, dtype=np.float64)
    mixed = ema_mix(state.prev_eps, cur, cfg.kappa)
    deflected = sm_apply(mixed, cur, cfg.lam)
    guided = normalize_to(cur, deflected)
    return guided, GeometryState(prev_eps=cur)


def low_rank_hessian(eps, sigma_t: float):
    """Dense rank-1 proxy eps eps^T / (sigma_t^2 ||eps||^2) for -grad^2 log p_t, d <= DENSE_DIM_CAP."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 1:
        raise ValueError("low_rank_hessian expects a single (d,) vector")
    if eps.size > DENSE_DIM_CAP:
        raise ValueError(f"dense materialization capped at d <= {DENSE_DIM_CAP}")
    n2 = float(eps @ eps)
    if n2 == 0.0 or sigma_t <= 0.0:
        raise DegenerateDirectionError("zero eps or non-positive sigma_t")
    return (1.0 / (sigma_t * sigma_t * n2)) * np.outer(eps, eps)


def damped_inverse_dense(eps, sigma_t: float, lam: float):
    """Dense damped inverse of the rank-1 proxy, for diagnostics only.

    With lam' = sigma_t^2 ||eps||^2 lam this is
    (1 / lam) * (I - eps eps^T / (lam' + ||eps||^2)),
    the exact inverse of rank1(eps, sigma_t) + lam I.
    """
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 1:
        raise ValueError("damped_inverse_dense expects a single (d,) vector")
    if eps.size > DENSE_DIM_CAP:
        raise ValueError(f"dense inverse capped at d <= {DENSE_DIM_CAP}")
    if not lam > 0.0:
        raise ValueError("lam must be > 0")
    n2 = float(eps @ eps)
    if n2 == 0.0 or sigma_t <= 0.0:
        raise DegenerateDirectionError("zero eps or non-positive sigma_t")
    lam_p = sigma_t * sigma_t * n2 * lam
    inner = np.eye(eps.size) - np.outer(eps, eps) / (lam_p + n2)
    return inner / lam


def _rank1_factors(eps, sigma_t: float, lam: float):
    """Shared scalars for the damped rank-1 inverse: (scale c, beta, unit dir)."""
    e, _ = _rows(eps)
    n2 = _row_dot(e, e)
    if sigma_t <= 0.0 or not lam > 0.0:
        raise ValueError("need sigma_t > 0 and lam > 0")
    lam_p = sigma_t * sigma_t * n2 * lam
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.where(n2 > 0.0, n2 / (lam_p + n2), 0.0)
        u = np.where(n2 > 0.0, e / np.sqrt(np.where(n2 > 0.0, n2, 1.0)), 0.0)
    return 1.0 / lam, beta, u


def damped_inverse_apply(eps, sigma_t: float, lam: float, v):
    """P v with P = [rank1(eps, sigma_t) + lam I]^{-1}, O(d) row-wise.

    Rows with eps = 0 fall back to P = I / lam (no curvature information).
    """
    c, beta, u = _rank1_factors(eps, sigma_t, lam)
    w, single = _rows(v)
    out = c * (w - beta * u * _row_dot(u, w))
    return out[0] if single else out


def damped_inverse_sqrt_apply(eps, sigma_t: float, lam: float, v):
    """P^{1/2} v in closed form: sqrt(c) (I - gamma u u^T) with gamma = 1 - sqrt(1-beta)."""
    c, beta, u = _rank1_factors(eps, sigma_t, lam)
    gamma = 1.0 - np.sqrt(1.0 - beta)
    w, single = _rows(v)
    out = np.sqrt(c) * (w - gamma * u * _row_dot(u, w))
    return out[0] if single else out
