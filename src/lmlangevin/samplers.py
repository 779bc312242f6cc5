"""Samplers: exponential-integrator denoisers and Langevin dynamics.

Two families live here.

* Denoising runs (:func:`lml_sample`): walk a timestep grid from t_max down to
  the terminal clamp with the order-1 exponential integrator (DDIM form) or
  its order-2 multistep refinement, optionally passing every noise prediction
  through the damped rank-1 geometry of :mod:`.geometry` first.  The solver
  steps read alpha, sigma and log-SNR from the grid's tables.
* Langevin runs (:func:`fixed_level_run`, :func:`annealed_langevin_sample`):
  fixed-level chains target the diffused marginal at one frozen noise level,
  probing the stationarity and convergence-rate claims directly.  Every
  chain takes one step, x' = x + h (P s + div P) + sqrt(2h) P^{1/2} xi, with
  s the score and xi standard normal, through a metric built once per run
  that maps (x, xi) to the drift and the noise.  There are three metrics:

  - identity, P = I over a score callable: ``plain-langevin``, and the
    annealed loop with s = -eps/sigma;
  - exact, P = (-H + lam I)^{-1} with s, H and grad H (for div P) from one
    oracle call: ``newton`` (lam = 0), ``damped-exact[-corrected]``;
  - rank-1, the damped rank-1 proxy without div P on any
    :class:`~.oracle.ScoreProvider` and sigma, with s = -eps/sigma:
    ``damped-lm``.

  On a single-component 1-d target the Newton and exact damped variants
  reduce to a closed-form OU update, the one fast path the kernel selects.
  :func:`newton_langevin_step` and :func:`damped_step` are one step of the
  fixed-level chain.

Every Langevin run is one chain walk over per-block :mod:`.rng` streams, so
results do not depend on the thread count.  A run stops at its last snapshot,
and every snapshot is checked finite as it is written.

Both families advance their chains in tiles, and :func:`_tile_order` picks a
tile's memory order.  At d <= 2 a tile is F-ordered, (rows, d) with the chain
index innermost, so every row dot, contraction over d and (rows, 1)
broadcast in the oracle, the geometry and the solver runs along the chains
rather than an inner loop of length d.  There every sum over coordinates has
at most one addition, so the layout moves no bit.  Larger d keeps
row-contiguous tiles: a contiguous reduction over coordinates may be
reassociated there, and a lone last row, which is both layouts at once,
would break tile invariance.  Every recorded array stays C-contiguous
(snapshots, chains, d).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng as _rng
from .geometry import (
    DampedGeometryConfig,
    damped_inverse_apply,
    damped_inverse_sqrt_apply,
    lm_guided_eps,
)
from .oracle import GaussianMixtureOracle, ScoreProvider
from .schedule import NoiseSchedule, TimestepGrid, make_grid

__all__ = [
    "NotLogConcaveError",
    "DampingTooSmallError",
    "SamplerConfig",
    "SamplerRun",
    "FixedLevelConfig",
    "FixedLevelRun",
    "newton_langevin_step",
    "damped_step",
    "ddim_step",
    "multistep2_step",
    "lml_sample",
    "annealed_langevin_sample",
    "fixed_level_run",
    "FIXED_LEVEL_VARIANTS",
]

FIXED_LEVEL_VARIANTS = (
    "plain-langevin",
    "newton",
    "damped-exact",
    "damped-exact-corrected",
    "damped-lm",
)


class NotLogConcaveError(ValueError):
    """The target is not log-concave at the current point; Newton preconditioning fails."""


class DampingTooSmallError(ValueError):
    """Damping cannot make the curvature positive definite; message names the needed lam."""


# ---------------------------------------------------------------------------
# single steps


def _eig_apply(w, v, vec, power: float):
    """(V diag(w^power) V^T) vec for stacked eigensystems."""
    coef = np.einsum("...ij,...i->...j", v, vec)
    return np.einsum("...ij,...j->...i", v, coef * np.power(w, power))


def _langevin_step(x, metric, h: float, gen):
    """x + h (P s + div P) + sqrt(2h) P^{1/2} xi, with ``metric(x, xi)`` giving the drift and the noise.

    xi is drawn row by row, then held in x's memory order, so the draws do not depend on the layout.
    """
    xi = np.asarray(gen.standard_normal(x.shape), order="F" if x.flags.f_contiguous else "C")
    drift, noise = metric(x, xi)
    return x + h * drift + np.sqrt(2.0 * h) * noise


def _identity_metric(score):
    """P = I over a score callable: the drift is ``score(x)`` and the noise is xi."""
    return lambda x, xi: (score(x), xi)


def _exact_metric(oracle: GaussianMixtureOracle, t: float, lam: float, newton: bool, corrected: bool = False):
    """The exact metric P = (-H + lam I)^{-1} at level t, with div P added to the drift when ``corrected``.

    Each call takes the score s, the Hessian H and, when ``corrected``, its
    gradient from one oracle call.  A d == 1 metric is a scalar and is applied
    by division; larger ones go through ``eigh``.  A metric that is not
    positive definite raises NotLogConcaveError (``newton``) or
    DampingTooSmallError naming the damping it would need.
    """
    order = 3 if corrected else 2

    def metric(x, xi):
        # Row-contiguous: eigh and the dense contractions gain nothing from a chains-innermost tile.
        x, xi = np.ascontiguousarray(x), np.ascontiguousarray(xi)
        parts = oracle.derivatives(x, t, order)
        score, neg = parts[0], -parts[1]
        d = neg.shape[-1]
        if d == 1:
            g = neg[..., 0, 0] + lam
        else:
            w, v = np.linalg.eigh(neg)
            g = w + lam
        gmin = float(g.min())
        if gmin <= 0.0:
            if newton:
                raise NotLogConcaveError(f"-hessian has min eigenvalue {gmin:.3e} <= 0; Newton step undefined")
            raise DampingTooSmallError(
                f"lam={lam:g} leaves the damped curvature indefinite; need lam > {lam - gmin:.6g}"
            )
        if d == 1:
            drift = score[..., 0] / g
            if corrected:
                drift = drift + parts[2][..., 0, 0, 0] / (g * g)
            return drift[..., None], (xi[..., 0] / np.sqrt(g))[..., None]
        drift = _eig_apply(g, v, score, -1.0)
        if corrected:
            # div(P)_i = sum_j [P (dH/dx_j) P]_{ij}; dP = P dH P for P = (-H + lam I)^{-1}.
            p = np.einsum("...ij,...j,...kj->...ik", v, 1.0 / g, v)
            drift = drift + np.einsum("...ia,...abj,...bj->...i", p, parts[2], p)
        return drift, _eig_apply(g, v, xi, -0.5)

    return metric


def _rank1_metric(provider: ScoreProvider, t: float, sigma: float, lam: float):
    """The damped rank-1 proxy metric at level t without div P; s = -eps/sigma from one prediction per call."""

    def metric(x, xi):
        eps = provider.eps(x, t)
        return damped_inverse_apply(eps, sigma, lam, -eps / sigma), damped_inverse_sqrt_apply(eps, sigma, lam, xi)

    return metric


def _step_scalars(grid: TimestepGrid, i: int):
    """Coefficients shared by the exponential-integrator updates at level i, from the grid's tables."""
    if i < 1 or i > grid.n_steps:
        raise ValueError(f"step level must lie in [1, {grid.n_steps}]")
    k = grid.n_steps - i  # table index of level i; level i - 1 sits at k + 1
    h = float(grid.log_snr[k + 1] - grid.log_snr[k])
    return float(grid.alpha[k + 1]) / float(grid.alpha[k]), float(grid.sigma[k + 1]), h


def ddim_step(x, eps_hat, i: int, grid: TimestepGrid):
    """Order-1 exponential-integrator update from level i to level i-1.

    x_{i-1} = (alpha_{i-1}/alpha_i) x_i - sigma_{i-1} (e^{h_i} - 1) eps_hat
    with h_i the log-SNR gap; algebraically identical to the DDIM update
    through x0-prediction.
    """
    ratio, s_next, h = _step_scalars(grid, i)
    x = np.asarray(x)
    dt = x.dtype.type
    return dt(ratio) * x - dt(s_next * np.expm1(h)) * np.asarray(eps_hat, dtype=x.dtype)


def multistep2_step(x, eps_hat, prev_eps_hat, i: int, grid: TimestepGrid):
    """Order-2 multistep update: order-1 form on an extrapolated prediction.

    With r = h_{i+1}/h_i (previous over current log-SNR gap),
    eps_bar = (1 + 1/(2r)) eps_i - 1/(2r) eps_{i+1}.
    """
    if prev_eps_hat is None:
        raise ValueError("multistep2_step needs the previous prediction; take an order-1 step first")
    if i + 1 > grid.n_steps:
        raise ValueError("no level above i: the first step has no history")
    h_cur = _step_scalars(grid, i)[2]
    k = grid.n_steps - i  # table index of level i; level i + 1 sits at k - 1
    h_prev = float(grid.log_snr[k] - grid.log_snr[k - 1])
    r = h_prev / h_cur
    x = np.asarray(x)
    dt = x.dtype.type
    c = dt(1.0 / (2.0 * r))
    eps_bar = (dt(1.0) + c) * np.asarray(eps_hat, dtype=x.dtype) - c * np.asarray(
        prev_eps_hat, dtype=x.dtype
    )
    return ddim_step(x, eps_bar, i, grid)


# ---------------------------------------------------------------------------
# chain-block driver


def _tile_order(d: int) -> str:
    """Memory order of a tile of chains at dimension d: "F" (chains innermost) at d <= 2, else "C"."""
    return "F" if d <= 2 else "C"


def _run_chain_blocks(seed: int, out: np.ndarray, threads: int, init, legs, name: str) -> np.ndarray:
    """Fill ``out`` (snapshots, chains, d) in place: the one walk of every Langevin chain block.

    A block starts at ``init(z)``, z standard normal from its own :mod:`.rng`
    stream, held in :func:`_tile_order`'s layout.  Each ``(kernel, steps)``
    leg makes ``steps`` calls ``x = kernel(x, gen)``, checks x finite
    (raising FloatingPointError naming ``name`` and the step) and writes it
    as the leg's snapshot.  Blocks write only their own columns, so ``out``
    does not depend on ``threads``.
    """
    order = _tile_order(out.shape[2])

    def one(block) -> None:
        b, (lo, hi) = block
        gen = _rng.stream(seed, b)
        x = init(np.asarray(gen.standard_normal((hi - lo,) + out.shape[2:]), order=order))
        step = 0
        for k, (kernel, steps) in enumerate(legs):
            for _ in range(steps):
                x = kernel(x, gen)
            step += steps
            if not np.isfinite(x).all():
                raise FloatingPointError(f"{name} produced non-finite states at step {step}")
            out[k, lo:hi] = x

    blocks = enumerate(_rng.block_bounds(out.shape[1]))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, blocks))  # list() re-raises a block's error here
    else:
        list(map(one, blocks))
    return out


# ---------------------------------------------------------------------------
# denoising runs

# Bytes of float64 per chain-row tile in lml_sample: one tile's predictions,
# guided update and solver step stay within a core's L2 cache.
TILE_BYTES = 512 * 1024


@dataclass(frozen=True)
class SamplerConfig:
    """Denoising-run configuration; ``geometry=None`` is the unguided baseline."""

    n_steps: int
    solver_order: int = 1
    geometry: Optional[DampedGeometryConfig] = None
    schedule: NoiseSchedule = field(default_factory=NoiseSchedule.vp_linear)
    seed: int = 0
    chains: int = 1
    eps_clip: float = 1e-3
    dtype: str = "float64"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.solver_order not in (1, 2):
            raise ValueError("solver_order must be 1 or 2")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")


@dataclass
class SamplerRun:
    """Everything a denoising run produced; states[k] sits at grid.times[k].

    From :func:`lml_sample`, ``step_times[k]`` is the wall time of step
    k + 1, summed over the row tiles it advances one after another.
    :func:`annealed_langevin_sample` writes the mean step time (the run's
    wall time over n_steps) into every entry.
    """

    grid: TimestepGrid
    states: np.ndarray
    step_times: np.ndarray
    eps_raw: Optional[np.ndarray] = None
    eps_used: Optional[np.ndarray] = None

    @property
    def final_states(self) -> np.ndarray:
        return self.states[-1]


def lml_sample(cfg: SamplerConfig, provider: ScoreProvider, record: bool = True) -> SamplerRun:
    """Run the guided (or baseline) denoiser over a fresh uniform grid.

    Starts from x ~ N(0, sigma(t_max)^2 I).  When cfg.geometry is set, every
    raw prediction is passed through lm_guided_eps together with the previous
    raw prediction, and the solver consumes the guided value, which also
    becomes the multistep history; the guided prediction keeps the raw
    prediction's norm at every step by construction.
    Stepping is deterministic given the initial draw, which is block-split by
    chain index.

    The chains are advanced in contiguous row tiles of TILE_BYTES // (8 d)
    rows, each through all n steps before the next, so one tile's working set
    stays in cache across the prediction, the guided update and the solver
    step.  A tile is held in :func:`_tile_order`'s layout.  All three treat
    rows independently, so the bits do not depend on the tiling.  Each chain
    still costs one prediction per step (the NFE), but ``provider.eps`` is
    called n_steps times per tile.  Each new state is checked finite; a
    blow-up raises FloatingPointError naming the step and its time.

    With ``record=False`` only the final states are kept: ``states`` is
    (1, m, d), and ``eps_raw`` and ``eps_used`` are None.  The final states
    have the bits of a recorded run.
    """
    grid = make_grid(cfg.schedule, cfg.n_steps, cfg.eps_clip)
    d = provider.dim
    n, m = cfg.n_steps, cfg.chains
    dt = np.dtype(cfg.dtype)
    order = _tile_order(d)

    start = (float(grid.sigma[0]) * _rng.ensemble_normal(cfg.seed, m, d)).astype(dt, copy=False)
    step_times = np.zeros(n, dtype=np.float64)
    if record:
        states = np.empty((n + 1, m, d), dtype=dt)
        states[0] = start
        eps_raw = np.empty((n, m, d), dtype=dt)
        eps_used = np.empty((n, m, d), dtype=dt)
    else:
        states = np.empty((1, m, d), dtype=dt)
        eps_raw = eps_used = None

    rows = max(1, TILE_BYTES // (8 * d))
    for lo in range(0, m, rows):
        tile = slice(lo, lo + rows)
        work = np.array(start[tile], dtype=np.float64, order=order)
        prev_raw = prev_used = None
        for k, level in enumerate(range(n, 0, -1)):
            t_level = grid.level_time(level)
            tic = time.perf_counter()
            raw = np.asarray(provider.eps(work, t_level), dtype=np.float64)
            used = raw if cfg.geometry is None else lm_guided_eps(raw, prev_raw, cfg.geometry)
            prev_raw = raw
            if cfg.solver_order == 2 and prev_used is not None:
                work = multistep2_step(work, used, prev_used, level, grid)
            else:
                work = ddim_step(work, used, level, grid)
            step_times[k] += time.perf_counter() - tic
            prev_used = used
            if dt != np.float64:
                # float32 mode: states round-trip through float32 between steps.
                work = work.astype(dt).astype(np.float64)
            if record:
                eps_raw[k, tile] = raw
                eps_used[k, tile] = used
                states[k + 1, tile] = work
            if not np.isfinite(work).all():
                cause = "finite" if np.isfinite(raw).all() else "already non-finite"
                raise FloatingPointError(
                    f"lml_sample produced non-finite states at step {k + 1} of {n} "
                    f"(t = {t_level:.6g}); the provider's prediction was {cause}"
                )
        if not record:
            states[0, tile] = work
    return SamplerRun(
        grid=grid,
        states=states,
        step_times=step_times,
        eps_raw=eps_raw,
        eps_used=eps_used,
    )


def annealed_langevin_sample(
    cfg: SamplerConfig,
    provider: ScoreProvider,
    inner_steps: int,
    step_scale: float,
    threads: int = 1,
) -> SamplerRun:
    """Annealed Langevin dynamics over the same grid as the denoisers.

    At each level t_i the chain takes ``inner_steps`` unadjusted Langevin steps
    with step size step_scale * sigma(t_i)^2 / sigma(t_max)^2, the classical
    geometric scaling that keeps the per-step contraction uniform across
    levels.  inner_steps >= 1 because a level visited zero times would leave
    the annealing path disconnected from its target.
    """
    if inner_steps < 1:
        raise ValueError("inner_steps must be >= 1: each level needs at least one Langevin step")
    if not step_scale > 0.0:
        raise ValueError("step_scale must be > 0")
    grid = make_grid(cfg.schedule, cfg.n_steps, cfg.eps_clip)
    n = cfg.n_steps
    sigma_top = float(grid.sigma[0])

    def level_kernel(k: int):
        # Langevin targets the *next* (less noisy) level, annealing downward.
        t_level, sig = float(grid.times[k + 1]), float(grid.sigma[k + 1])
        h = step_scale * sig * sig / (sigma_top * sigma_top)
        metric = _identity_metric(lambda x: -np.asarray(provider.eps(x, t_level), dtype=np.float64) / sig)
        return lambda x, gen: _langevin_step(x, metric, h, gen)

    legs = [(None, 0)] + [(level_kernel(k), inner_steps) for k in range(n)]
    tic = time.perf_counter()
    states = _run_chain_blocks(
        cfg.seed, np.empty((n + 1, cfg.chains, provider.dim)), threads,
        lambda z: sigma_top * z, legs, f"annealed Langevin run ({inner_steps} steps per level)",
    )
    step_times = np.full(n, (time.perf_counter() - tic) / n)
    return SamplerRun(grid=grid, states=states, step_times=step_times)


# ---------------------------------------------------------------------------
# fixed-level dynamics


@dataclass(frozen=True)
class FixedLevelConfig:
    """A Langevin study at one frozen noise level t.

    ``snapshot_every=None`` records only the state after n_steps; otherwise
    snapshots are taken at steps 0, snapshot_every, ... up to n_steps, and
    the run stops at the last of them, which is ``final_states``.  ``lam`` is
    the damping of the ``damped-*`` variants and must be 0 for ``newton`` and
    ``plain-langevin``, which take none.
    ``init_mean``/``init_std`` define the Gaussian initialization of every
    chain coordinate.
    """

    t: float
    h: float
    n_steps: int
    variant: str
    lam: float = 0.0
    chains: int = 1
    snapshot_every: Optional[int] = None
    init_mean: float = 0.0
    init_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.variant not in FIXED_LEVEL_VARIANTS:
            raise ValueError(f"variant must be one of {FIXED_LEVEL_VARIANTS}")
        if not self.h > 0.0:
            raise ValueError("h must be > 0")
        if self.n_steps < 1 or self.chains < 1:
            raise ValueError("n_steps and chains must be >= 1")
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.variant == "damped-lm" and not self.lam > 0.0:
            raise ValueError("damped-lm requires lam > 0")
        if self.variant in ("newton", "plain-langevin") and self.lam != 0.0:
            raise ValueError(f"{self.variant} takes no damping; use lam=0")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if not self.init_std >= 0.0:
            raise ValueError("init_std must be >= 0")


@dataclass
class FixedLevelRun:
    """Snapshots of a fixed-level study; states[k] was taken after snapshot_steps[k] steps; final_states is the last."""

    snapshot_steps: np.ndarray
    times: np.ndarray
    states: np.ndarray

    @property
    def final_states(self) -> np.ndarray:
        return self.states[-1]


def _fixed_level_kernel(cfg: FixedLevelConfig, oracle: GaussianMixtureOracle):
    """Build the per-step transition closure for the configured variant: its metric is built once, here."""
    t, lam, h = cfg.t, cfg.lam, cfg.h
    if cfg.variant == "plain-langevin":
        metric = _identity_metric(lambda x: oracle.score(x, t))
    elif cfg.variant == "damped-lm":
        metric = _rank1_metric(oracle, t, oracle._level(t)[1], lam)
    elif oracle.dim == 1 and oracle.n_components == 1:
        # Single-component marginal: curvature is the constant 1/sigma^2 and
        # the third derivative vanishes, so the whole step contracts to an
        # exact OU update.  Big ensembles would otherwise pay the generic
        # posterior machinery per step for no change in output distribution.
        alpha, sigma = oracle._level(t)
        mu = alpha * float(oracle.centers[0, 0])
        g = 1.0 / (sigma * sigma) + lam
        c1 = h / (sigma * sigma * g)
        sd = np.sqrt(2.0 * h) / np.sqrt(g)

        def kernel(x, gen):
            # x + c1 * (mu - x) + sd * z, bit for bit, with two fresh arrays per step.
            step = mu - x
            step *= c1
            step += x
            noise = gen.standard_normal(x.shape)
            noise *= sd
            step += noise
            return step

        return kernel
    else:
        metric = _exact_metric(oracle, t, lam, cfg.variant == "newton", cfg.variant == "damped-exact-corrected")
    return lambda x, gen: _langevin_step(x, metric, h, gen)


def fixed_level_run(cfg: FixedLevelConfig, oracle: GaussianMixtureOracle, threads: int = 1) -> FixedLevelRun:
    """Evolve a chain ensemble at a frozen level, recording snapshots.

    Chains are advanced block by block with per-block random streams, so the
    result is independent of ``threads``; the run stops at its last snapshot.
    Each snapshot is checked finite as it is taken, so a numeric blow-up
    raises FloatingPointError naming the variant and the step.
    """
    if cfg.snapshot_every is None:
        snap = np.array([cfg.n_steps], dtype=np.int64)
    else:
        snap = np.arange(0, cfg.n_steps + 1, cfg.snapshot_every, dtype=np.int64)
    kernel = _fixed_level_kernel(cfg, oracle)
    legs = [(kernel, int(steps)) for steps in np.diff(snap, prepend=0)]
    states = _run_chain_blocks(
        cfg.seed, np.empty((snap.size, cfg.chains, oracle.dim)), threads,
        lambda z: cfg.init_mean + cfg.init_std * z, legs, f"fixed-level {cfg.variant} run",
    )
    return FixedLevelRun(snapshot_steps=snap, times=snap * cfg.h, states=states)


def newton_langevin_step(x, oracle: GaussianMixtureOracle, t: float, h: float, rng: np.random.Generator):
    """Langevin at level t preconditioned by P = (-grad^2 log p_t)^{-1}: one step of the ``newton`` chain.

    Requires the target to be log-concave at x; noise enters through the
    symmetric square root P^{1/2}.  This is the exact step of
    :func:`damped_step` at lam = 0, except that an indefinite Hessian raises
    NotLogConcaveError.
    """
    cfg = FixedLevelConfig(t=t, h=h, n_steps=1, variant="newton")
    return _fixed_level_kernel(cfg, oracle)(np.asarray(x, dtype=np.float64), rng)


# damped_step's (mode, corrected) -> the fixed-level variant it takes one step of
_DAMPED_VARIANTS = {
    ("exact", False): "damped-exact", ("exact", True): "damped-exact-corrected", ("rank1", False): "damped-lm"
}


def damped_step(
    x,
    oracle: GaussianMixtureOracle,
    t: float,
    lam: float,
    h: float,
    rng: np.random.Generator,
    mode: str = "exact",
    corrected: bool = False,
):
    """One Langevin step under the damped curvature metric G = curvature + lam*I, P = G^{-1}.

    * mode ``"exact"`` (``damped-exact[-corrected]``) builds G from the
      oracle's exact Hessian, taken with the score (and, when corrected, the
      Hessian gradient) from one
      :meth:`~.oracle.GaussianMixtureOracle.derivatives` call.  lam = 0 is
      the Newton metric of :func:`newton_langevin_step`, which raises
      NotLogConcaveError where this raises DampingTooSmallError.
    * mode ``"rank1"`` (``damped-lm``) uses the O(d) damped rank-1 proxy
      built from the oracle's noise prediction, with its closed-form square
      root, and takes the score s = -eps/sigma from that same prediction.

    With ``corrected=True`` the drift gains the analytic divergence term
    div(P) that removes the bias a state-dependent preconditioner induces on
    the Euler chain (exact mode only); otherwise div P is dropped.
    """
    variant = _DAMPED_VARIANTS.get((mode, bool(corrected)))
    if variant is None:
        raise ValueError(
            f"no damped step for mode={mode!r}, corrected={corrected}; modes: exact, rank1 (div P in exact only)"
        )
    cfg = FixedLevelConfig(t=t, h=h, n_steps=1, variant=variant, lam=lam)
    return _fixed_level_kernel(cfg, oracle)(np.asarray(x, dtype=np.float64), rng)
