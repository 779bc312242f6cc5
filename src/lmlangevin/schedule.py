"""Forward-diffusion noise schedules and timestep grids.

A schedule fixes the marginal perturbation kernel of the forward process,

    x_t = alpha(t) * x_0 + sigma(t) * z,   z ~ N(0, I),

through the pair (alpha(t), sigma(t)) on t in [0, t_max].  Three kinds are
supported, each built by its constructor, which states its parameters:

* ``vp-linear``: variance preserving with beta(t) = beta_min + t*(beta_max-beta_min),
  so log alpha(t) = -t^2*(beta_max-beta_min)/4 - t*beta_min/2 and
  sigma = sqrt(1 - alpha^2).
* ``ve``: variance exploding, log alpha = 0 and sigma(t) = sigma_min*(sigma_max/sigma_min)^t.
* ``cosine``: variance preserving with alpha(t) = cos(theta(t))/cos(theta(0)),
  theta(t) = (t+s)/(1+s) * pi/2.  alpha(1) = 0, so it takes a t_max below 1;
  the other kinds run to t_max = 1.

All derived quantities (log-SNR, drift/diffusion coefficients) are exposed in
closed form; finite-difference agreement is enforced by the test suite.

A :class:`TimestepGrid` tabulates alpha, sigma and log-SNR at its times when
it is built, so a sampler step indexes those tables and calls no schedule
method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VP_LINEAR",
    "VE",
    "COSINE",
    "NoiseSchedule",
    "TimestepGrid",
    "make_grid",
]

VP_LINEAR = "vp-linear"
VE = "ve"
COSINE = "cosine"
_KINDS = (VP_LINEAR, VE, COSINE)


def _as_time(t, t_max: float):
    """Validate t against [0, t_max] and return it as a float64 array."""
    ts = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(ts)):
        raise ValueError("time contains non-finite entries")
    lo, hi = float(np.min(ts)), float(np.max(ts))
    if lo < -1e-12 or hi > t_max + 1e-12:
        raise ValueError(
            f"time out of range: got [{lo}, {hi}], schedule supports [0.0, {t_max}]"
        )
    return ts


@dataclass(frozen=True)
class NoiseSchedule:
    """One forward-noising schedule; build via :meth:`vp_linear`, :meth:`ve` or :meth:`cosine`."""

    kind: str
    params: dict = field(default_factory=dict)
    t_max: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 < self.t_max:
            raise ValueError("need t_max > 0")
        p = self.params
        if self.kind == VP_LINEAR:
            if not (0.0 < p["beta_min"] < p["beta_max"]):
                raise ValueError("need 0 < beta_min < beta_max")
        elif self.kind == VE:
            if not (0.0 < p["sigma_min"] < p["sigma_max"]):
                raise ValueError("need 0 < sigma_min < sigma_max")
        elif self.kind == COSINE:
            if not p["offset"] > 0.0:
                raise ValueError("cosine offset must be > 0")
            # alpha(1) = 0 exactly; the usable range must stop short of it.
            if not self.t_max < 1.0:
                raise ValueError("cosine schedule requires t_max < 1")

    # -- constructors ---------------------------------------------------

    @classmethod
    def vp_linear(cls, beta_min: float = 0.1, beta_max: float = 20.0) -> "NoiseSchedule":
        return cls(VP_LINEAR, {"beta_min": float(beta_min), "beta_max": float(beta_max)})

    @classmethod
    def ve(cls, sigma_min: float = 0.01, sigma_max: float = 50.0) -> "NoiseSchedule":
        return cls(VE, {"sigma_min": float(sigma_min), "sigma_max": float(sigma_max)})

    @classmethod
    def cosine(cls, offset: float = 0.008, t_max: float = 0.999) -> "NoiseSchedule":
        return cls(COSINE, {"offset": float(offset)}, t_max)

    # -- internals ------------------------------------------------------

    def _theta(self, ts):
        """Cosine's angle theta(t) = (t+s)/(1+s) * pi/2."""
        s = self.params["offset"]
        return (ts + s) / (1.0 + s) * (math.pi / 2.0)

    def _log_alpha(self, ts):
        if self.kind == VE:
            return np.zeros_like(ts)
        if self.kind == VP_LINEAR:
            bmin, bmax = self.params["beta_min"], self.params["beta_max"]
            return -0.25 * ts * ts * (bmax - bmin) - 0.5 * ts * bmin
        return np.log(np.cos(self._theta(ts))) - math.log(math.cos(self._theta(0.0)))

    def _log_sigma(self, ts):
        if self.kind == VE:
            smin, smax = self.params["sigma_min"], self.params["sigma_max"]
            return math.log(smin) + ts * math.log(smax / smin)
        # VP: sigma^2 = 1 - alpha^2 = -expm1(2 log alpha), exact near sigma = 0.
        sig2 = -np.expm1(2.0 * self._log_alpha(ts))
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(sig2)

    # -- public surface -------------------------------------------------

    def alpha_sigma(self, t):
        """Return (alpha(t), sigma(t)); vectorized over t."""
        ts = _as_time(t, self.t_max)
        log_alpha = self._log_alpha(ts)
        # VP: + 0.0 turns the signed zero of -expm1(+0.0) at t = 0 into +0.0.
        sigma = np.exp(self._log_sigma(ts)) if self.kind == VE else np.sqrt(-np.expm1(2.0 * log_alpha) + 0.0)
        return np.exp(log_alpha), sigma

    def log_snr(self, t):
        """log(alpha/sigma), strictly decreasing in t for every supported kind."""
        ts = _as_time(t, self.t_max)
        return self._log_alpha(ts) - self._log_sigma(ts)

    def drift_diffusion(self, t):
        """Drift factor f(t) and squared diffusion g(t)^2 of the forward SDE.

        f(t) = d log alpha / dt and g^2 = d sigma^2/dt - 2 f sigma^2, which for
        the VP kinds collapses to g^2 = -2 f (identity alpha^2 + sigma^2 = 1)
        and for VE to g^2 = d sigma^2 / dt.
        """
        ts = _as_time(t, self.t_max)
        if self.kind == VE:
            smin, smax = self.params["sigma_min"], self.params["sigma_max"]
            return np.zeros_like(ts), 2.0 * math.log(smax / smin) * np.exp(2.0 * self._log_sigma(ts))
        if self.kind == VP_LINEAR:
            bmin, bmax = self.params["beta_min"], self.params["beta_max"]
            f = -0.5 * (bmin + ts * (bmax - bmin))
        else:
            s = self.params["offset"]
            f = -(math.pi / (2.0 * (1.0 + s))) * np.tan(self._theta(ts))
        return f, -2.0 * f


@dataclass(frozen=True)
class TimestepGrid:
    """Strictly decreasing times t_N > ... > t_0 > 0 visited by a sampler.

    ``times[k]`` holds t_{N-k}; :meth:`level_time` converts a level subscript
    i (N = first, 0 = last) into its time.  ``alpha``, ``sigma`` and
    ``log_snr`` tabulate the schedule at ``times``, index for index; they are
    computed here, once, by the vectorized schedule calls, which also check
    that every time lies in the schedule's range.
    """

    schedule: NoiseSchedule
    times: np.ndarray
    alpha: np.ndarray = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)
    log_snr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=np.float64)
        if ts.ndim != 1 or ts.size < 2:
            raise ValueError("grid needs at least two times")
        if not np.all(np.diff(ts) < 0.0):
            raise ValueError("grid times must be strictly decreasing")
        if ts[-1] <= 0.0:
            raise ValueError("final grid time must stay positive")
        alpha, sigma = self.schedule.alpha_sigma(ts)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "log_snr", self.schedule.log_snr(ts))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def level_time(self, i: int) -> float:
        """Time of level i, with i = n_steps the largest time and i = 0 the smallest."""
        if not 0 <= i <= self.n_steps:
            raise ValueError(f"level {i} outside [0, {self.n_steps}]")
        return float(self.times[self.n_steps - i])


def make_grid(schedule: NoiseSchedule, n_steps: int, eps_clip: float = 1e-3) -> TimestepGrid:
    """Uniform grid of n_steps+1 times from schedule.t_max down to eps_clip.

    The terminal clamp eps_clip keeps the sampler away from the t -> 0
    degeneracy where sigma vanishes and scores blow up.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not (0.0 < eps_clip < schedule.t_max):
        raise ValueError(f"eps_clip must lie in (0.0, {schedule.t_max})")
    return TimestepGrid(schedule, np.linspace(schedule.t_max, eps_clip, n_steps + 1))
