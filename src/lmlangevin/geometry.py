"""Damped rank-1 curvature geometry for noise predictions.

The negated log-density Hessian of a diffused distribution is approximated
from a single noise prediction by the Gauss-Newton style outer product

    -grad^2 log p_t(x)  ~=  eps eps^T / (sigma_t^2 ||eps||^2),

which is rank one, so Levenberg-Marquardt damping plus the Sherman-Morrison
identity give an O(d) application of the damped inverse:

    (eps~ eps~^T + lam I)^{-1} v  propto  v - eps~ <eps~, v> / (lam + ||eps~||^2).

``lm_guided_eps`` deflects the current prediction c along the mix
m = kappa p + (1 - kappa) c with the previous raw prediction p, which the
caller keeps, and rescales the result to |c|.  Scalar prefactors drop out
under the rescale, so with delta = p - c the step is a c - b delta,
rescaled, where a = lam + kappa <c,delta> + kappa^2 |delta|^2 and
b = kappa (|c|^2 + kappa <c,delta>): four row dot products and no mixed
vector, so no difference of nearly equal vectors.

All vector routines accept a single vector ``(d,)`` or a row batch ``(m, d)``
and treat rows independently.  They return arrays in their input's memory
order; at d <= 2 each row dot is at most one addition, so an F-ordered batch
(chains innermost, the samplers' tile layout there) gets the C batch's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import DENSE_DIM_CAP

__all__ = [
    "DegenerateDirectionError",
    "DampedGeometryConfig",
    "lm_guided_eps",
    "low_rank_hessian",
    "damped_inverse_apply",
    "damped_inverse_sqrt_apply",
]


class DegenerateDirectionError(ValueError):
    """A direction vector required to be nonzero had zero norm."""


@dataclass(frozen=True)
class DampedGeometryConfig:
    """Damping strength lam > 0 and EMA mixing weight kappa in [0, 1).

    kappa is the weight on the *previous* prediction; kappa = 0 switches the
    guided update off (the guided prediction equals the raw one).
    """

    lam: float = 0.001
    kappa: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("lam must be finite and > 0")
        if not (np.isfinite(self.kappa) and 0.0 <= self.kappa < 1.0):
            raise ValueError("kappa must lie in [0, 1)")


def _rows(v):
    v = np.asarray(v, dtype=np.float64)
    return (v[None, :], True) if v.ndim == 1 else (v, False)


# einsum sums a lone row as one flat reduction, in chunks of its iterator's
# 8192-element buffer, but a row of a batch in one run; past that length the
# two orders give different bits.
_EINSUM_BUFFER = 8192


def _row_dot(a, b):
    # einsum fuses multiply and reduce into one pass with no temporary.
    d = a.shape[-1]
    if d > _EINSUM_BUFFER and a.size == d == b.size:
        # Reduced as the first of two stride-0 copies, a lone row takes a batch row's order.
        two = (2, d)
        dot = np.einsum("ki,ki->k", np.broadcast_to(a, two), np.broadcast_to(b, two))[:1]
        return dot.reshape(a.shape[:-1] + (1,))
    return np.einsum("...i,...i->...", a, b)[..., None]


def lm_guided_eps(cur, prev, cfg: DampedGeometryConfig):
    """The guided prediction in closed form, from the raw ``cur`` and the previous raw ``prev``.

    With c = cur, delta = prev - c and the mix m = c + kappa delta, the
    deflection c - m <m, c> / (lam + |m|^2) equals (a c - b delta) / (lam + |m|^2),
    where, from cc = <c,c>, cd = <c,delta> and dd = <delta,delta>,

        a = lam + kappa cd + kappa^2 dd,    b = kappa (cc + kappa cd).

    The positive factor drops out under the rescale to |c|, which is measured
    on the output rather than expanded from the scalars.  With ``prev=None``
    (the first step) ``cur`` is returned unchanged; a zero row of ``cur``
    raises DegenerateDirectionError.
    """
    cur = np.asarray(cur, dtype=np.float64)
    cc = _row_dot(cur, cur)
    if np.any(cc == 0.0):
        raise DegenerateDirectionError("cannot guide a zero prediction")
    if prev is None:
        return cur
    delta = np.asarray(prev, dtype=np.float64) - cur
    cd = _row_dot(cur, delta)
    dd = _row_dot(delta, delta)
    kappa = cfg.kappa
    out = (cfg.lam + kappa * cd + kappa * kappa * dd) * cur
    delta *= kappa * (cc + kappa * cd)
    out -= delta
    out *= np.sqrt(cc / _row_dot(out, out))
    return out


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


def _rank1_factors(eps, sigma_t: float, lam: float):
    """The damped rank-1 inverse's eigen-split: 1/lam across eps, c_par along it, and the unit direction u.

    c_par = 1/(1/sigma_t^2 + lam) = sigma_t^2 / (1 + sigma_t^2 lam) is formed
    directly rather than as (1 - beta)/lam with beta = 1/(1 + sigma_t^2 lam),
    which cancels when sigma_t^2 lam is small.  Rows with eps = 0 get u = 0.
    """
    e, _ = _rows(eps)
    n2 = _row_dot(e, e)
    if sigma_t <= 0.0 or not lam > 0.0:
        raise ValueError("need sigma_t > 0 and lam > 0")
    s2 = sigma_t * sigma_t
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(n2 > 0.0, e / np.sqrt(np.where(n2 > 0.0, n2, 1.0)), 0.0)
    return 1.0 / lam, s2 / (1.0 + s2 * lam), u


def _split_apply(u, v, across, along):
    """across * (w - u <u,w>) + along * u <u,w> row-wise, for v of shape (d,) or (m, d)."""
    w, single = _rows(v)
    par = u * _row_dot(u, w)
    out = w - par
    out *= across
    par *= along
    out += par
    return out[0] if single else out


def damped_inverse_apply(eps, sigma_t: float, lam: float, v):
    """P v with P = [rank1(eps, sigma_t) + lam I]^{-1}, O(d) row-wise.

    P is 1/lam across eps and 1/(1/sigma_t^2 + lam) along it.  Rows with
    eps = 0 fall back to P = I / lam (no curvature information).
    """
    across, along, u = _rank1_factors(eps, sigma_t, lam)
    return _split_apply(u, v, across, along)


def damped_inverse_sqrt_apply(eps, sigma_t: float, lam: float, v):
    """P^{1/2} v in closed form: the square roots of P's two eigenvalues on the same split."""
    across, along, u = _rank1_factors(eps, sigma_t, lam)
    return _split_apply(u, v, np.sqrt(across), np.sqrt(along))
