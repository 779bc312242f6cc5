"""Numerical diagnostics: finite differences, divergences, bounds, benchmarks.

Everything here exists to check claims rather than to sample: agreement of
analytic derivatives with finite differences, the rank-1 curvature proxy's
error against the exact Hessian and its a-priori bound, closed-form and
histogram chi-square divergences, KS and sliced-Wasserstein sample metrics,
exponential decay-rate fits, and the per-step arithmetic overhead of the
guided sampler over the plain exponential-integrator update.

Finite-difference helpers require the callable to accept row batches
``(k, d)``; every function in :mod:`.oracle` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import DampedGeometryConfig, lm_guided_eps, low_rank_hessian
from .oracle import _DENSE_BATCH_ELEMS, GaussianMixtureOracle

__all__ = [
    "finite_diff_jacobian",
    "hs_norm",
    "rank1_approx_error",
    "ErrorBoundInputs",
    "curvature_error_bound",
    "BoundCheckResult",
    "bound_check",
    "chi2_gaussians",
    "chi2_histogram",
    "equal_mass_edges",
    "ks_statistic",
    "SlicedReference",
    "sliced_reference",
    "sliced_wasserstein",
    "DecayFit",
    "decay_fit",
    "OverheadResult",
    "overhead_benchmark",
]


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_jacobian(f: Callable, x, h: float = 1e-6):
    """Central-difference Jacobian J[a, i] = d f_a / d x_i, O(h^2) accurate; of a scalar f it is the gradient, (d,)."""
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    pts = np.repeat(x[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    pts[2 * idx, idx] += h
    pts[2 * idx + 1, idx] -= h
    vals = np.asarray(f(pts), dtype=np.float64)
    return ((vals[2 * idx] - vals[2 * idx + 1]) / (2.0 * h)).T


# ---------------------------------------------------------------------------
# curvature-approximation error


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def rank1_approx_error(oracle: GaussianMixtureOracle, x, t) -> float:
    """HS distance between -grad^2 log p_t and the rank-1 proxy at (x, t).

    At points where the noise prediction vanishes (symmetry centers) the
    proxy is undefined; the full HS norm of the exact negated Hessian is
    returned so the degenerate case is visible rather than masked.
    """
    score, hess = oracle.derivatives(x, t, 2)
    sigma = oracle._level(t)[1]
    eps = -sigma * score
    if float(eps @ eps) == 0.0:
        return hs_norm(-hess)
    return hs_norm(-hess - low_rank_hessian(eps, sigma))


@dataclass(frozen=True)
class ErrorBoundInputs:
    """Constants entering the a-priori curvature-error bound.

    delta1 bounds ||x|| over the evaluation set, delta2 the prediction error
    of the score provider (zero for an exact oracle), delta3 the HS norm of
    the second derivative of the posterior residual r(x), and diameter the
    support diameter of the clean data.
    """

    delta1: float
    delta2: float
    delta3: float
    diameter: float
    alpha_t: float
    sigma_t: float

    def __post_init__(self):
        vals = [self.delta1, self.delta2, self.delta3, self.diameter, self.alpha_t, self.sigma_t]
        if not all(np.isfinite(v) and v >= 0.0 for v in vals):
            raise ValueError("all bound inputs must be finite and >= 0")
        if self.sigma_t <= 0.0:
            raise ValueError("sigma_t must be > 0")


def curvature_error_bound(inp: ErrorBoundInputs) -> float:
    """(delta1 + a*delta2 + a*D) * (2 + delta3 + 2 (a^2/s^2) D^2)."""
    a, s, dia = inp.alpha_t, inp.sigma_t, inp.diameter
    return (inp.delta1 + a * inp.delta2 + a * dia) * (2.0 + inp.delta3 + 2.0 * (a * a) / (s * s) * dia * dia)


@dataclass
class BoundCheckResult:
    """Per-point empirical curvature products against the assembled bound."""

    empirical: np.ndarray
    bound: float
    inputs: ErrorBoundInputs
    violations: int


def bound_check(
    oracle: GaussianMixtureOracle,
    t: float,
    xs,
    delta2: float = 0.0,
) -> BoundCheckResult:
    """Check ||r(x) * d^2 r/dx^2||_HS <= bound at every supplied point.

    r(x) = |v| with v = x - alpha_t ybar(x, t) = -sigma^2 s, whose Jacobian
    is J = -sigma^2 H.  With g = J v / r the gradient of r, the exact second
    derivative is (J J - sigma^2 sum_k v_k T[k] - g g^T) / r, read off one
    ``derivatives(x, t, 3)`` call (s, H and T = grad H) per batch of points
    whose T holds at most _DENSE_BATCH_ELEMS floats; d <= DENSE_DIM_CAP.
    delta1 and delta3 are taken as maxima over the supplied set, so the bound
    is a single number per (oracle, t, set); the empirical left side uses the
    same second derivative that defines delta3.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    alpha, sigma = oracle._level(t)
    s2 = sigma * sigma
    rvals = np.empty(xs.shape[0])
    curv = np.empty(xs.shape[0])
    step = max(1, _DENSE_BATCH_ELEMS // xs.shape[1] ** 3)
    for lo in range(0, xs.shape[0], step):
        score, hess, third = oracle.derivatives(xs[lo : lo + step], t, 3)
        v = -s2 * score
        jac = -s2 * hess
        r = np.linalg.norm(v, axis=-1)
        g = np.einsum("mij,mj->mi", jac, v) / r[:, None]
        d2r = jac @ jac - s2 * np.einsum("mk,mkij->mij", v, third) - g[:, :, None] * g[:, None, :]
        d2r /= r[:, None, None]
        rvals[lo : lo + step] = r
        curv[lo : lo + step] = np.linalg.norm(d2r, axis=(1, 2))
    empirical = rvals * curv
    inputs = ErrorBoundInputs(
        delta1=float(np.linalg.norm(xs, axis=-1).max()),
        delta2=delta2,
        delta3=float(curv.max()),
        diameter=oracle.diameter,
        alpha_t=alpha,
        sigma_t=sigma,
    )
    bound = curvature_error_bound(inputs)
    return BoundCheckResult(
        empirical=empirical,
        bound=bound,
        inputs=inputs,
        violations=int(np.sum(empirical > bound)),
    )


# ---------------------------------------------------------------------------
# divergences and sample metrics


def chi2_gaussians(mean1: float, std1: float, mean2: float, std2: float) -> float:
    """Closed-form chi-square divergence of N(mean1, std1^2) from N(mean2, std2^2).

    Finite only when 2*std2^2 > std1^2; otherwise the integral diverges and
    inf is returned as the documented signal.
    """
    if std1 <= 0.0 or std2 <= 0.0:
        raise ValueError("standard deviations must be > 0")
    a = 1.0 / (std1 * std1) - 0.5 / (std2 * std2)
    if a <= 0.0:
        return float("inf")
    b = 2.0 * mean1 / (std1 * std1) - mean2 / (std2 * std2)
    c = -mean1 * mean1 / (std1 * std1) + 0.5 * mean2 * mean2 / (std2 * std2)
    val = std2 / (std1 * std1 * np.sqrt(2.0 * a)) * np.exp(b * b / (4.0 * a) + c)
    return float(val - 1.0)


def equal_mass_edges(quantile_fn: Callable, bins: int = 64) -> np.ndarray:
    """Interior bin edges at the 1/bins, 2/bins, ... quantiles of the reference."""
    if bins < 2:
        raise ValueError("need at least 2 bins")
    return np.asarray(quantile_fn(np.arange(1, bins) / bins), dtype=np.float64)


def chi2_histogram(samples, edges) -> tuple[float, float]:
    """Pearson chi-square of a 1-d sample against equal-mass reference bins, and its stderr.

    A biased plug-in estimate; used for decay *trends* on targets without a
    Gaussian closed form, never as an absolute divergence value.  Returns
    ``(value, stderr)`` from one binning, the stderr by the delta method
    under multinomial counts.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    edges = np.asarray(edges, dtype=np.float64)
    bins = edges.size + 1
    counts = np.bincount(np.searchsorted(edges, samples), minlength=bins)
    p_hat = counts / samples.size
    q = 1.0 / bins
    value = float(np.sum((p_hat - q) ** 2 / q))
    g = 2.0 * (p_hat - q) * bins
    quad = float(np.sum(g * g * p_hat) - (g @ p_hat) ** 2)
    return value, float(np.sqrt(max(quad, 0.0) / samples.size))


def ks_statistic(samples, cdf: Callable) -> float:
    """Kolmogorov-Smirnov sup-distance between a sample and an analytic CDF."""
    xs = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = xs.size
    f = np.asarray(cdf(xs), dtype=np.float64)
    grid = np.arange(n, dtype=np.float64)
    return float(max(np.max(f - grid / n), np.max((grid + 1.0) / n - f)))


def _points(x) -> np.ndarray:
    """A sample as (n, d) rows; a flat (n,) sample is n points in 1-d."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("a sample must be an (n,) or (n, d) array")
    return x


@dataclass(frozen=True)
class SlicedReference:
    """Unit directions (n_proj, d) and a sample's projections on them, each row sorted (n_proj, n)."""

    dirs: np.ndarray
    sorted_proj: np.ndarray


def sliced_reference(b, n_projections: int = 64, rng: Optional[np.random.Generator] = None) -> SlicedReference:
    """Draw the directions and sort the reference sample's projections once.

    Passing the result as ``b`` to :func:`sliced_wasserstein` measures any
    number of samples against ``b`` on the same directions.
    """
    b = _points(b)
    if rng is None:
        rng = np.random.default_rng(0)
    dirs = rng.standard_normal((n_projections, b.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return SlicedReference(dirs, np.sort(dirs @ b.T, axis=1))


def sliced_wasserstein(a, b, n_projections: int = 64, rng: Optional[np.random.Generator] = None) -> float:
    """Sliced 2-Wasserstein distance via exact 1-d transport on random directions.

    Requires equal sample counts so the sorted pairing is the exact coupling.
    With a shared ``rng`` (hence shared directions) this is a true metric, so
    triangle-inequality checks hold to float precision.  ``b`` may be a
    :class:`SlicedReference`, whose directions are then used and
    ``n_projections`` and ``rng`` ignored.
    """
    a = _points(a)
    ref = b if isinstance(b, SlicedReference) else sliced_reference(b, n_projections, rng)
    if a.shape != (ref.sorted_proj.shape[1], ref.dirs.shape[1]):
        raise ValueError("sliced_wasserstein needs equally sized samples of equal dimension")
    # In place: fresh temporaries of this size cost more than the arithmetic.
    pa = ref.dirs @ a.T
    pa.sort(axis=1)
    pa -= ref.sorted_proj
    pa *= pa
    return float(np.sqrt(pa.mean()))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(values) = intercept + rate * t."""

    rate: float
    intercept: float
    r_squared: float


def decay_fit(times, values) -> DecayFit:
    """Fit an exponential decay rate to positive series values."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.size < 3:
        raise ValueError("need matching series with at least 3 points")
    if np.any(values <= 0.0):
        raise ValueError("decay fit requires positive values")
    logv = np.log(values)
    rate, intercept = np.polyfit(times, logv, 1)
    resid = logv - (intercept + rate * times)
    total = logv - logv.mean()
    denom = float(total @ total)
    r2 = 1.0 if denom == 0.0 else 1.0 - float(resid @ resid) / denom
    return DecayFit(rate=float(rate), intercept=float(intercept), r_squared=r2)


# ---------------------------------------------------------------------------
# overhead benchmark


@dataclass(frozen=True)
class OverheadResult:
    baseline_ns: float
    lml_ns: float
    ratio: float
    d: int
    reps: int


def overhead_benchmark(d: int = 16384, reps: int = 200, seed: int = 0) -> OverheadResult:
    """Median per-step cost of the guided update over the bare solver update.

    Times only sampler arithmetic on preallocated vectors: the baseline is
    one exponential-integrator update x' = c1*x - c2*eps; the guided variant
    first passes eps through the production ``lm_guided_eps``.  Score-provider
    cost is excluded on both sides by construction.
    """
    if d < 1 or reps < 1:
        raise ValueError("d and reps must be >= 1")
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(d)
    eps = gen.standard_normal(d)
    prev = gen.standard_normal(d)
    cfg = DampedGeometryConfig(lam=1e-3, kappa=1e-8)
    c1, c2 = 0.97, 0.12  # representative step scalars; values do not affect timing

    def baseline_op():
        return c1 * x - c2 * eps

    def guided_op():
        used = lm_guided_eps(eps, prev, cfg)
        return c1 * x - c2 * used

    def median_ns(op) -> float:
        inner = 8
        for _ in range(5 * inner):
            op()
        out = np.empty(reps)
        for r in range(reps):
            tic = time.perf_counter_ns()
            for _ in range(inner):
                op()
            out[r] = (time.perf_counter_ns() - tic) / inner
        return float(np.median(out))

    base = median_ns(baseline_op)
    guided = median_ns(guided_op)
    return OverheadResult(baseline_ns=base, lml_ns=guided, ratio=guided / base, d=d, reps=reps)
