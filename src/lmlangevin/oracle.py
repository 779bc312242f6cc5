"""Analytic score oracles for point-mass Gaussian mixtures.

A data distribution p_0 = sum_i w_i * delta(y_i) diffused under a schedule
has the closed-form marginal

    p_t(x) = sum_i w_i N(x; alpha_t y_i, sigma_t^2 I),

whose log-density, score, and Hessian are all available exactly.  The oracle
stands in for a trained epsilon-predictor: ``eps(x, t) = -sigma_t * score``
is the idealization of a network output, so samplers built against the
:class:`ScoreProvider` protocol run unchanged on either.

Shapes: centers are ``(n, d)``, and ``x`` a single point ``(d,)`` or a batch
``(m, d)``; outputs match x, and a row's result does not depend on how many
rows share the call.  :meth:`derivatives` reads the score, the Hessian and its
gradient (order 1, 2 or 3) off one posterior evaluation, and caps the dense
orders 2 and 3 at d <= DENSE_DIM_CAP = 64, the package's one such cap;
:meth:`dense_batches` takes them over many rows in batches whose largest part
holds at most _DENSE_BATCH_ELEMS floats.  :meth:`level` gives the noise level
(alpha_t, sigma_t) that every prediction is made at, and :meth:`marginal`
the 1-d marginal's component locations alpha_t y_i and width sigma_t.

The posterior over components is computed against the centers taken relative
to their mean ybar0, as two-operand contractions: no (m, n, d) difference
tensor is formed, and offset mixtures keep their digits.  ``np.einsum`` is
used rather than ``@`` because BLAS sends a one-row product to a different
kernel, which would make a single point's result differ from its batch row.

The posterior weights stay components-major, (n, m), normalised in place, at
every d, and every sum over components is one numpy reduction that adds the
components in order, so a lone point's sums take its batch row's additions.
:meth:`GaussianMixtureOracle.posterior_weights` returns (m, n) rows.

Memory order: an F-ordered batch (chains innermost, as the samplers hold
their tiles at d <= 2) gets every output in F order too, and a C-ordered or
single-point input gets C order.  At d <= 2 every sum over coordinates has at
most one addition, so the two layouts give the same bits; the tests check
that at d <= 2 only, since at larger d a contiguous reduction over
coordinates may be reassociated.

The 1-d marginal CDF and quantiles use numpy and the standard library only,
so numpy is the package's one run-time dependency.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Protocol, runtime_checkable

import numpy as np

from .schedule import NoiseSchedule

__all__ = ["ScoreProvider", "GaussianMixtureOracle", "DENSE_DIM_CAP"]

DENSE_DIM_CAP = 64
_DENSE_BATCH_ELEMS = 1 << 20  # floats (8 MB) in the largest dense part, (rows,) + (d,) * order, of one batch

# 1/sqrt(2) as a product, like the standard CDF's reference implementations:
# dividing by sqrt(2) rounds the erfc argument differently, which is 3.6e-13
# relative in the far lower tail.
_SQRT_HALF = math.sqrt(0.5)
_FOUR_EPS = 4.0 * np.finfo(np.float64).eps


@runtime_checkable
class ScoreProvider(Protocol):
    """Anything a sampler can query for noise predictions."""

    @property
    def dim(self) -> int: ...

    def eps(self, x, t): ...


def _ndtr(z):
    """Standard normal CDF 1/2 erfc(-z / sqrt 2), by math.erfc over the elements of z."""
    args = (z * -_SQRT_HALF).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, args), np.float64, len(args)).reshape(z.shape)


def _layout(a) -> str:
    """"F" for an array whose first axis runs innermost (and that is not also C-contiguous), else "C"."""
    return "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"


def _shift_exp_sum(ll):
    """Replace (n, m) logits by exp(ll - column max) in place; return the column maxima and sums.

    Components run along axis 0.  numpy adds the rows of a C-contiguous
    (n, m) array in order when m >= 2, but sums a single column pairwise, so
    a lone point is reduced as the first of two stride-0 copies and keeps its
    row of a batch's bits.
    """
    top = ll.max(axis=0)
    ll -= top
    np.exp(ll, out=ll)
    if ll.shape[1] == 1:
        return top, np.broadcast_to(ll, (ll.shape[0], 2)).sum(axis=0)[:1]
    return top, ll.sum(axis=0)


class GaussianMixtureOracle:
    """Exact score/Hessian provider for a diffused point-mass mixture."""

    def __init__(self, centers, weights, schedule: NoiseSchedule):
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError("centers must be an (n, d) array with n >= 1")
        if weights is None:
            weights = np.full(centers.shape[0], 1.0 / centers.shape[0])
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (centers.shape[0],):
            raise ValueError("weights must be one per center")
        with np.errstate(over="ignore", invalid="ignore"):  # an input that overflows is rejected below
            # Centers relative to their mean: y_i = ybar0 + yc_i.
            self._ybar0 = centers.mean(axis=0)
            self._yc = centers - self._ybar0
            self._yc_sq = np.einsum("nd,nd->n", self._yc, self._yc)
            total = weights.sum()
        if not np.all(np.isfinite(self._yc_sq)):  # finite only if every center is
            raise ValueError("centers must be finite, and so must their squared distances from their mean")
        if not (np.all(weights > 0.0) and np.isfinite(total)):  # finite only if every weight is
            raise ValueError("weights must be positive and finite, and so must their sum")

        self.centers = centers
        self.weights = weights / total
        self.schedule = schedule
        self._log_w = np.log(self.weights)
        self._levels: dict[float, tuple[float, float]] = {}

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

    @cached_property
    def diameter(self) -> float:
        """Largest distance between two centers, for the error-bound diagnostics.

        Computed on first read, one center at a time, so no (n, n, d) array is formed.
        """
        c = self.centers
        return float(max(np.sqrt(((c - ci) ** 2).sum(-1)).max() for ci in c))

    def level(self, t) -> tuple[float, float]:
        """The noise level (alpha_t, sigma_t) of time t as floats; sigma_t = 0 raises.

        Up to 4096 scalar times keep their pair as one tuple, so the row tiles
        and steps that query one time evaluate the schedule once.
        """
        key = t if isinstance(t, (int, float)) else None
        pair = self._levels.get(key)
        if pair is None:
            alpha, sigma = self.schedule.alpha_sigma(t)
            if np.any(sigma <= 0.0):
                raise ValueError("sigma(t) = 0: the diffused mixture is degenerate at this time")
            pair = (float(alpha), float(sigma))
            if key is not None and len(self._levels) < 4096:
                self._levels[key] = pair
        return pair

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
        """Component logits (n, m), the residual r = x - alpha_t ybar0 (m, d, in x's layout), alpha_t and sigma_t.

        log w_i + log N(x; alpha y_i, sigma^2 I) equals the returned logit
        log w_i + (alpha <r, yc_i> - alpha^2 |yc_i|^2 / 2) / sigma^2 plus
        -|r|^2 / (2 sigma^2) - (d/2) log(2 pi sigma^2), which does not depend
        on i and so cancels in the softmax.  Components run along axis 0.
        """
        alpha, sigma = self.level(t)
        s2 = sigma * sigma
        r = x2 - alpha * self._ybar0
        ll = np.einsum("nd,md->nm", (alpha / s2) * self._yc, r)
        ll += (self._log_w - (0.5 * alpha * alpha / s2) * self._yc_sq)[:, None]
        return ll, r, alpha, sigma

    def _posterior(self, x2, t):
        """Responsibilities (n, m), the residual r, alpha_t and sigma_t; each point's weights sum to 1.

        The weights are the logits normalised in place, components-major.
        """
        ll, r, alpha, sigma = self._log_posterior(x2, t)
        ll /= _shift_exp_sum(ll)[1]
        return ll, r, alpha, sigma

    def _moments(self, w, tables, layout: str = "C"):
        """[sum_i w_i table_i as (m, k) for each (n, k) table], for :meth:`_posterior`'s weights.

        Each einsum keeps the component axis outside its inner loop, so the
        components are added in order.  At d = 1 every table is one column,
        and the columns are contracted together: einsum takes a lone column
        as a dot product and sums it pairwise, so a single table gets a zero
        column beside it.  Wider tables are contracted one at a time, which
        is faster than the stacked form on a few wide rows; with ``layout``
        "F" each is contracted to (k, m), chains innermost, and returned as
        its (m, k) transpose.
        """
        if self.dim > 1:
            if layout == "F":
                return [np.einsum("nm,nk->km", w, table).T for table in tables]
            return [np.einsum("nm,nk->mk", w, table) for table in tables]
        cols = tables if len(tables) > 1 else tables + [np.zeros_like(tables[0])]
        acc = np.einsum("nm,nt->tm", w, np.concatenate(cols, axis=1))
        return [row[:, None] for row in acc[: len(tables)]]

    # -- densities and derivatives ---------------------------------------

    def derivatives(self, x, t, order: int):
        """``(score,)``, ``(score, hessian)`` or ``(score, hessian, hessian_grad)`` at order 1, 2 or 3.

        One posterior evaluation gives them all; the dense orders 2 and 3 need
        d <= DENSE_DIM_CAP.  The Hessian is -(1/sigma^2) I + (alpha^2/sigma^4) C
        with C the posterior covariance of the centers.  Its gradient follows
        from the posterior-moment identities d ybar/dx = (alpha/sigma^2) C and
        d wtilde_i/dx = wtilde_i (alpha/sigma^2)(y_i - ybar).  The moments are
        taken about ybar0; C and the third central moment do not depend on the
        shift.  Every part comes back in x's memory order.
        """
        if order not in (1, 2, 3):
            raise ValueError("derivatives order must be 1, 2 or 3")
        if order > 1 and self.dim > DENSE_DIM_CAP:
            raise ValueError(f"dense Hessian capped at d <= {DENSE_DIM_CAP}")
        x2, single = self._prep(x)
        layout = _layout(x2)
        w, r, alpha, sigma = self._posterior(x2, t)
        yc = self._yc
        n, d = yc.shape
        s2 = sigma * sigma
        tables = [yc]
        if order > 1:
            outer2 = yc[:, :, None] * yc[:, None, :]
            tables.append(outer2.reshape(n, d * d))
        if order > 2:
            tables.append((outer2[:, :, :, None] * yc[:, None, None, :]).reshape(n, d * d * d))
        mean, *higher = self._moments(w, tables, layout)
        # The score -(r - alpha mean) / s2 is formed in r's buffer (x's layout): at large d it is memory-bound.
        r -= alpha * mean
        r /= -s2
        out = [r]
        if order > 1:
            m2 = higher[0].reshape(-1, d, d)
            cov = m2 - mean[:, :, None] * mean[:, None, :]
            hess = (alpha * alpha / (s2 * s2)) * cov
            diag = np.einsum("mii->mi", hess)  # a writeable view in either layout
            diag -= 1.0 / s2
            out.append(hess)
        if order > 2:
            m3 = higher[1].reshape(-1, d, d, d)
            # dC[j,k]/dx_l = (alpha/s2) * (M3 - mean_l M2 - C_{jl} mean_k - mean_j C_{kl})
            dcov = m3 - m2[:, :, :, None] * mean[:, None, None, :]
            dcov -= cov[:, :, None, :] * mean[:, None, :, None]
            dcov -= cov[:, None, :, :] * mean[:, :, None, None]
            dcov *= alpha / s2
            out.append((alpha * alpha / (s2 * s2)) * dcov)
        if layout == "F":
            # The score already is; the Hessian parts come out with the chains innermost but their
            # coordinate axes C-ordered, so they are copied.
            out = [np.asfortranarray(part) for part in out]
        return tuple([part[0] if single else part for part in out])

    def dense_batches(self, x, t, order: int):
        """Yield ``(rows, derivatives(x[rows], t, order))`` over batches of x's rows.

        A batch's largest part holds at most _DENSE_BATCH_ELEMS floats; rows are independent, so batching moves no
        bit.  A lone (d,) point is one batch, rows 0:d, and rows that fit are one view of x: neither is copied.
        """
        x = np.asarray(x, dtype=np.float64)
        step = len(x) if x.ndim == 1 else max(1, _DENSE_BATCH_ELEMS // self.dim**order)
        for lo in range(0, len(x), step):
            yield slice(lo, lo + step), self.derivatives(x[lo : lo + step], t, order)

    def posterior_weights(self, x, t):
        """Softmax responsibilities of each component at (x, t); (m, n) rows, in x's memory order, that sum to 1."""
        x2, single = self._prep(x)
        w = np.asarray(self._posterior(x2, t)[0].T, order=_layout(x2))
        return w[0] if single else w

    def posterior_mean(self, x, t):
        """Posterior mean of the clean data, ybar(x, t) = sum_i wtilde_i y_i."""
        x2, single = self._prep(x)
        w = self._posterior(x2, t)[0]
        ybar = self._ybar0 + self._moments(w, [self._yc], _layout(x2))[0]
        return ybar[0] if single else ybar

    def logpdf(self, x, t):
        """log p_t(x) of the diffused mixture, via log-sum-exp."""
        x2, single = self._prep(x)
        ll, r, _, sigma = self._log_posterior(x2, t)
        top, total = _shift_exp_sum(ll)
        s2 = sigma * sigma
        out = np.log(total) + top - 0.5 * (r * r).sum(axis=1) / s2 - 0.5 * self.dim * np.log(2.0 * np.pi * s2)
        return float(out[0]) if single else out

    def score(self, x, t):
        """grad_x log p_t(x) = -(x - alpha_t ybar(x,t)) / sigma_t^2."""
        return self.derivatives(x, t, 1)[0]

    def eps(self, x, t):
        """Idealized noise prediction -sigma_t * score(x, t)."""
        s = self.derivatives(x, t, 1)[0]
        s *= -self.level(t)[1]
        return s

    def hessian(self, x, t):
        """Exact grad^2 log p_t(x); dense (d, d) per point, d <= 64."""
        return self.derivatives(x, t, 2)[1]

    def hessian_grad(self, x, t):
        """Third-derivative tensor T[j,k,l] = d H[j,k] / d x_l, exact; d <= 64.

        Needed by divergence-corrected preconditioned dynamics.
        """
        return self.derivatives(x, t, 3)[2]

    # -- sampling ---------------------------------------------------------

    def sample_data(self, rng: np.random.Generator, n: int):
        """Draw n points from the clean mixture p_0 (a center per draw)."""
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        return self.centers[idx]

    def sample_diffused(self, rng: np.random.Generator, n: int, t):
        """Draw n points from the diffused marginal p_t."""
        alpha, sigma = self.level(t)
        base = self.sample_data(rng, n)
        return alpha * base + sigma * rng.standard_normal(base.shape)

    # -- 1-d distribution functions ----------------------------------------

    def marginal(self, t):
        """The 1-d diffused marginal's component locations alpha_t y_i, shape (n,), and their common width sigma_t."""
        if self.dim != 1:
            raise ValueError(f"the marginal is defined for 1-d oracles only (dim={self.dim})")
        alpha, sigma = self.level(t)
        return alpha * self.centers[:, 0], sigma

    def marginal_cdf(self, x, t):
        """Exact CDF of the 1-d diffused marginal at time t, from math.erfc."""
        locs, sigma = self.marginal(t)
        x = np.asarray(x, dtype=np.float64)
        return _ndtr((x[..., None] - locs) / sigma) @ self.weights

    def marginal_quantile(self, q, t):
        """Quantiles of the 1-d diffused marginal, all solved by one vectorized bisection.

        A quantile above 1/2 is solved on the upper-tail mass, so q near 1
        keeps its digits.  Each root is found to within 1e-12 + 4 eps |x|.
        NaN is rejected with the other q outside (0, 1); an empty q gives an
        empty result of its shape.
        """
        from statistics import NormalDist  # deferred: its fractions and decimal imports cost every command

        locs, sigma = self.marginal(t)
        q = np.asarray(q, dtype=np.float64)
        if not np.all((q > 0.0) & (q < 1.0)):
            raise ValueError("quantiles must lie strictly in (0, 1)")
        flat = q.ravel()
        upper = flat > 0.5
        mass = np.where(upper, 1.0 - flat, flat)
        # Each mixture quantile lies between the extreme component quantiles; the pad covers their rounding.
        inv_cdf = NormalDist().inv_cdf
        zq = sigma * np.array([inv_cdf(v) for v in flat.tolist()])
        pad = 1e-9 * (sigma + np.abs(locs).max())
        lo, hi = locs.min() + zq - pad, locs.max() + zq + pad
        sign = np.where(upper, -1.0, 1.0)[:, None]
        while True:
            mid = 0.5 * (lo + hi)
            if not np.any(hi - lo > 1e-12 + _FOUR_EPS * np.maximum(np.abs(lo), np.abs(hi))):
                return mid.reshape(q.shape)
            # The mass below mid, or above it for an upper quantile.
            tail = _ndtr(sign * (mid[:, None] - locs) / sigma) @ self.weights
            below = np.where(upper, tail > mass, tail < mass)
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
