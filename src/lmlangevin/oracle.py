"""Analytic score oracles for point-mass Gaussian mixtures.

A data distribution p_0 = sum_i w_i * delta(y_i) diffused under a schedule
has the closed-form marginal

    p_t(x) = sum_i w_i N(x; alpha_t y_i, sigma_t^2 I),

whose log-density, score, and Hessian are all available exactly.  The oracle
stands in for a trained epsilon-predictor: ``eps(x, t) = -sigma_t * score``
is the idealization of a network output, so samplers built against the
:class:`ScoreProvider` protocol run unchanged on either.

Shapes: ``x`` may be a single point ``(d,)`` or a batch ``(m, d)``; outputs
match.  Dense Hessian routines are capped at d <= 64.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .schedule import NoiseSchedule

__all__ = ["ScoreProvider", "GaussianMixtureOracle", "DENSE_DIM_CAP"]

DENSE_DIM_CAP = 64


@runtime_checkable
class ScoreProvider(Protocol):
    """Anything a sampler can query for noise predictions."""

    @property
    def dim(self) -> int: ...

    def eps(self, x, t): ...


def _check_sigma(sigma) -> None:
    if np.any(sigma <= 0.0):
        raise ValueError("sigma(t) = 0: the diffused mixture is degenerate at this time")


def _logsumexp_last(a, keepdims: bool = False):
    """Stable log-sum-exp over the last axis; local to keep hot loops cheap."""
    m = np.max(a, axis=-1, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=-1, keepdims=True)) + m
    return out if keepdims else out[..., 0]


class GaussianMixtureOracle:
    """Exact score/Hessian provider for a diffused point-mass mixture."""

    def __init__(self, centers, weights, schedule: NoiseSchedule):
        centers = np.atleast_1d(np.asarray(centers, dtype=np.float64))
        if centers.ndim == 1:
            centers = centers[:, None]
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError("centers must be an (n, d) array with n >= 1")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        if weights is None:
            weights = np.full(centers.shape[0], 1.0 / centers.shape[0])
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (centers.shape[0],):
            raise ValueError("weights must be one per center")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be positive and finite")

        self.centers = centers
        self.weights = weights / weights.sum()
        self.schedule = schedule
        self._log_w = np.log(self.weights)
        # Pairwise support diameter, reused by error-bound diagnostics.
        diff = centers[:, None, :] - centers[None, :, :]
        self.diameter = float(np.sqrt((diff**2).sum(-1)).max())

    @classmethod
    def from_csv(cls, path, schedule: NoiseSchedule, weights=None) -> "GaussianMixtureOracle":
        """Load centers from a CSV file, one row per center; uniform weights by default."""
        centers = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(centers, weights, schedule)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def n_components(self) -> int:
        return self.centers.shape[0]

    # -- internals ------------------------------------------------------

    def _prep(self, x):
        """Promote x to (m, d); remember whether the caller passed one point."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.ndim != 2 or x2.shape[1] != self.dim:
            raise ValueError(f"x must have trailing dimension {self.dim}")
        return x2, single

    def _log_posterior(self, x2, t):
        """Component log-responsibilities log w_i + log N(x; alpha y_i, sigma^2 I), unnormalized."""
        alpha, sigma = self.schedule.alpha_sigma(t)
        _check_sigma(sigma)
        diff = x2[:, None, :] - alpha * self.centers[None, :, :]  # (m, n, d)
        sq = (diff * diff).sum(-1)
        ll = self._log_w[None, :] - 0.5 * sq / (sigma * sigma)
        ll -= 0.5 * self.dim * np.log(2.0 * np.pi * sigma * sigma)
        return ll, float(alpha), float(sigma)

    # -- densities and derivatives ---------------------------------------

    def posterior_weights(self, x, t):
        """Softmax responsibilities of each component at (x, t); rows sum to 1."""
        x2, single = self._prep(x)
        ll, _, _ = self._log_posterior(x2, t)
        w = np.exp(ll - _logsumexp_last(ll, keepdims=True))
        return w[0] if single else w

    def posterior_mean(self, x, t):
        """Posterior mean of the clean data, ybar(x, t) = sum_i wtilde_i y_i."""
        return self.posterior_weights(x, t) @ self.centers

    def logpdf(self, x, t):
        """log p_t(x) of the diffused mixture, via log-sum-exp."""
        x2, single = self._prep(x)
        ll, _, _ = self._log_posterior(x2, t)
        out = _logsumexp_last(ll)
        return float(out[0]) if single else out

    def score(self, x, t):
        """grad_x log p_t(x) = -(x - alpha_t ybar(x,t)) / sigma_t^2."""
        x2, single = self._prep(x)
        ll, alpha, sigma = self._log_posterior(x2, t)
        w = np.exp(ll - _logsumexp_last(ll, keepdims=True))
        ybar = w @ self.centers
        out = -(x2 - alpha * ybar) / (sigma * sigma)
        return out[0] if single else out

    def eps(self, x, t):
        """Idealized noise prediction -sigma_t * score(x, t)."""
        _, sigma = self.schedule.alpha_sigma(t)
        _check_sigma(sigma)
        return -sigma * self.score(x, t)

    def hessian(self, x, t):
        """Exact grad^2 log p_t(x); dense (d, d) per point, d <= 64.

        Equals -(1/sigma^2) I + (alpha^2/sigma^4) C(x, t) with C the
        posterior covariance of the centers.
        """
        if self.dim > DENSE_DIM_CAP:
            raise ValueError(f"dense Hessian capped at d <= {DENSE_DIM_CAP}")
        x2, single = self._prep(x)
        ll, alpha, sigma = self._log_posterior(x2, t)
        w = np.exp(ll - _logsumexp_last(ll, keepdims=True))
        ybar = w @ self.centers
        m2 = np.einsum("mn,ni,nj->mij", w, self.centers, self.centers)
        cov = m2 - ybar[:, :, None] * ybar[:, None, :]
        s2 = sigma * sigma
        out = (alpha * alpha / (s2 * s2)) * cov
        idx = np.arange(self.dim)
        out[:, idx, idx] -= 1.0 / s2
        return out[0] if single else out

    def hessian_grad(self, x, t):
        """Third-derivative tensor T[j,k,l] = d H[j,k] / d x_l, exact.

        Needed by divergence-corrected preconditioned dynamics.  Uses the
        posterior-moment identities d ybar/dx = (alpha/sigma^2) C and
        d wtilde_i/dx = wtilde_i (alpha/sigma^2)(y_i - ybar).
        """
        if self.dim > DENSE_DIM_CAP:
            raise ValueError(f"dense Hessian gradient capped at d <= {DENSE_DIM_CAP}")
        x2, single = self._prep(x)
        ll, alpha, sigma = self._log_posterior(x2, t)
        w = np.exp(ll - _logsumexp_last(ll, keepdims=True))
        y = self.centers
        ybar = w @ y
        m2 = np.einsum("mn,ni,nj->mij", w, y, y)
        m3 = np.einsum("mn,ni,nj,nk->mijk", w, y, y, y)
        cov = m2 - ybar[:, :, None] * ybar[:, None, :]
        s2 = sigma * sigma
        # dC[j,k]/dx_l = (alpha/s2) * (M3 - ybar_l M2 - C_{jl} ybar_k - ybar_j C_{kl})
        dcov = m3 - m2[:, :, :, None] * ybar[:, None, None, :]
        dcov -= cov[:, :, None, :] * ybar[:, None, :, None]
        dcov -= cov[:, None, :, :] * ybar[:, :, None, None]
        dcov *= alpha / s2
        out = (alpha * alpha / (s2 * s2)) * dcov
        return out[0] if single else out

    # -- sampling ---------------------------------------------------------

    def sample_data(self, rng: np.random.Generator, n: int):
        """Draw n points from the clean mixture p_0 (a center per draw)."""
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        return self.centers[idx].copy()

    def sample_diffused(self, rng: np.random.Generator, n: int, t):
        """Draw n points from the diffused marginal p_t."""
        alpha, sigma = self.schedule.alpha_sigma(t)
        _check_sigma(sigma)
        base = self.sample_data(rng, n)
        return alpha * base + sigma * rng.standard_normal(base.shape)

    # -- 1-d distribution functions ----------------------------------------

    def _require_1d(self, op: str) -> None:
        if self.dim != 1:
            raise ValueError(f"{op} is defined for 1-d oracles only (dim={self.dim})")

    def marginal_cdf(self, x, t):
        """Exact CDF of the 1-d diffused marginal at time t."""
        self._require_1d("marginal_cdf")
        alpha, sigma = self.schedule.alpha_sigma(t)
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        z = (x[..., None] - float(alpha) * self.centers[:, 0]) / float(sigma)
        return ndtr(z) @ self.weights

    def marginal_quantile(self, q, t):
        """Quantiles of the 1-d diffused marginal, by bracketed root finding."""
        self._require_1d("marginal_quantile")
        q = np.asarray(q, dtype=np.float64)
        if np.any((q <= 0.0) | (q >= 1.0)):
            raise ValueError("quantiles must lie strictly in (0, 1)")
        alpha, sigma = self.schedule.alpha_sigma(t)
        _check_sigma(sigma)
        alpha, sigma = float(alpha), float(sigma)
        locs = alpha * self.centers[:, 0]
        # Bracket: each mixture quantile lies between the extreme component quantiles.
        lo = float(locs.min() + sigma * ndtri(q.min())) - 1e-9
        hi = float(locs.max() + sigma * ndtri(q.max())) + 1e-9
        roots = [
            brentq(lambda x, qq=qq: float(self.marginal_cdf(x, t)) - qq, lo, hi, xtol=1e-12) for qq in q.flat
        ]
        return np.reshape(roots, q.shape)
