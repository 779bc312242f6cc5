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
    oracle call per dense batch: ``damped-exact[-corrected]``, whose lam = 0
    is the Newton (naive Hessian) metric;
  - rank-1, the damped rank-1 proxy without div P on any
    :class:`~.oracle.ScoreProvider` and sigma, with s = -eps/sigma:
    ``damped-lm``.

  On a single-component 1-d target the exact damped variants reduce to a
  closed-form OU update, the one fast path the kernel selects.
  :func:`newton_langevin_step` and :func:`damped_step` are one step of the
  fixed-level chain.

Every run is one chain walk over per-block :mod:`.rng` streams, so results
do not depend on the thread count: a denoising run takes one leg per solver
step, a Langevin run one leg per snapshot.  A run stops at its last snapshot,
and the chains are checked finite after every leg.  A fixed-level run can
hand each snapshot on instead of storing it: the walk then takes its legs in
groups of SNAPSHOT_GROUP snapshots, every block finishing a group before any
block starts the next, so it holds one group's snapshots at a time.

The walk advances each block in tiles: whole blocks for Langevin runs,
whose noise is drawn in sequence, and cache-sized row tiles for denoising
runs.  At d <= 2 :func:`_tile_order` holds a tile F-ordered, chains
innermost, so the work over d in the oracle, the geometry and the solver
runs along the chains; there a sum over coordinates has at most one
addition, so the layout moves no bit.  Larger d keeps row-contiguous tiles:
a contiguous reduction over coordinates may be reassociated there, and a
lone last row, both layouts at once, would break tile invariance.  Every
recorded array stays C-contiguous (snapshots, chains, d).
"""

from __future__ import annotations

import contextlib
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
    "reference_rate",
]

FIXED_LEVEL_VARIANTS = (
    "plain-langevin",
    "damped-exact",
    "damped-exact-corrected",
    "damped-lm",
)


def reference_rate(variant: str, lam: float, sigma: float):
    """Chi-square decay rate of chain ``variant`` on a 1-d Gaussian of std sigma; None without a closed form."""
    if variant in ("damped-exact", "damped-exact-corrected"):
        return 2.0 / (1.0 + lam * sigma * sigma)  # exactly 2.0 at lam = 0
    if variant == "plain-langevin":
        return 2.0 / (sigma * sigma)
    return None  # damped-lm: state-dependent preconditioner, no closed form


class DampingTooSmallError(ValueError):
    """Damping cannot make the curvature positive definite; message names the needed lam."""


class NotLogConcaveError(DampingTooSmallError):
    """The undamped (lam = 0, Newton) curvature is not positive definite: the target is not log-concave there."""


# ---------------------------------------------------------------------------
# single steps


def _eig_apply(w, v, vec, power: float, out=None):
    """(V diag(w^power) V^T) vec for stacked eigensystems, written into ``out`` when it is given."""
    coef = np.einsum("...ij,...i->...j", v, vec)
    return np.einsum("...ij,...j->...i", v, coef * np.power(w, power), out=out)


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


def _exact_metric(oracle: GaussianMixtureOracle, t: float, lam: float, corrected: bool = False):
    """The exact metric P = (-H + lam I)^{-1} at level t, with div P added to the drift when ``corrected``.

    Each call writes the drift and the noise batch by batch, from the score
    s, the Hessian H and, when ``corrected``, its gradient over the oracle's
    ``dense_batches``.  A d == 1 metric is a scalar applied by division;
    larger ones go through ``eigh``.  A metric that is not positive definite
    raises DampingTooSmallError naming the damping the block would need, as
    its subclass NotLogConcaveError at lam = 0.
    """
    order = 3 if corrected else 2

    def fill(parts, xi, drift, noise) -> float:
        # Write the batch's drift and noise; return its least curvature (if not positive, the batch is left unwritten).
        score, neg = parts[0], -parts[1]
        d = neg.shape[-1]
        w, v = (neg[..., 0, 0], None) if d == 1 else np.linalg.eigh(neg)
        g = w + lam
        gmin = float(g.min())
        if gmin <= 0.0:
            return gmin
        if d == 1:
            drift = np.divide(score[..., 0], g, out=drift[..., 0])
            if corrected:
                drift += parts[2][..., 0, 0, 0] / (g * g)
            np.divide(xi[..., 0], np.sqrt(g), out=noise[..., 0])
            return gmin
        if corrected:
            # dP = P dH P for P = (-H + lam I)^{-1}, so div(P)_i = sum_j [P (dH/dx_j) P]_{ij} = [P (T:P)]_i
            # with (T:P)_a = sum_{b,j} T_abj P_bj, and P s + div P = P (s + T:P).
            p = np.einsum("...ij,...j,...kj->...ik", v, 1.0 / g, v)
            score = score + np.einsum("...abj,...bj->...a", parts[2], p)
        _eig_apply(g, v, score, -1.0, out=drift)
        _eig_apply(g, v, xi, -0.5, out=noise)
        return gmin

    def metric(x, xi):
        # Row-contiguous: eigh and the dense contractions gain nothing from a chains-innermost tile.
        x, xi = np.ascontiguousarray(x), np.ascontiguousarray(xi)
        drift, noise, gmin = np.empty_like(x), np.empty_like(xi), np.inf
        for rows, parts in oracle.dense_batches(x, t, order):
            gmin = min(gmin, fill(parts, xi[rows], drift[rows], noise[rows]))
        if gmin <= 0.0:
            raise (NotLogConcaveError if lam == 0.0 else DampingTooSmallError)(
                f"lam={lam:g} leaves the damped curvature indefinite; need lam > {lam - gmin:.6g}"
            )
        return drift, noise

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
    return ratio * np.asarray(x) - s_next * np.expm1(h) * np.asarray(eps_hat)


def multistep2_step(x, eps_hat, prev_eps_hat, i: int, grid: TimestepGrid):
    """Order-2 multistep update: order-1 form on an extrapolated prediction.

    With r = h_{i+1}/h_i (previous over current log-SNR gap),
    eps_bar = (1 + 1/(2r)) eps_i - 1/(2r) eps_{i+1}.
    """
    if prev_eps_hat is None:
        raise ValueError("multistep2_step needs the previous prediction; take an order-1 step first")
    if i + 1 > grid.n_steps:
        raise ValueError("no level above i: the first step has no history")
    r = _step_scalars(grid, i + 1)[2] / _step_scalars(grid, i)[2]
    c = 1.0 / (2.0 * r)
    return ddim_step(x, (1.0 + c) * np.asarray(eps_hat) - c * np.asarray(prev_eps_hat), i, grid)


# ---------------------------------------------------------------------------
# chain-block driver


def _tile_order(d: int) -> str:
    """Memory order of a tile of chains at dimension d: "F" (chains innermost) at d <= 2, else "C"."""
    return "F" if d <= 2 else "C"


def _run_chain_blocks(
    seed: int, outs, threads: int, init, legs, message, rows: int = _rng.BLOCK, on_group=None
) -> np.ndarray:
    """Fill the arrays ``outs`` in place: the one walk over chains.

    Each block advances its chains in tiles of at most ``rows`` chains (a
    kernel that draws noise needs whole blocks).  As a tile starts, it draws
    z standard normal from its block's own :mod:`.rng` stream, in
    :func:`_tile_order`'s layout, and its state is ``init(z)``, a tuple led
    by the positions; the draws are sequential, so the tiling moves no bit.
    Each ``(kernel, steps, snap)`` leg makes ``steps`` calls ``state =
    kernel(state, gen)``, checks the positions finite (else
    FloatingPointError(``message(step, state)``)) and, unless snap is None,
    writes each state entry that is not None into ``outs[j][snap]``.  Blocks
    write only their own columns, so ``outs`` does not depend on ``threads``.
    Returns each leg's time summed over tiles and blocks.

    Without ``on_group`` the walk is one group: ``outs`` are (snapshots,
    chains, d), and each tile runs through every leg before the next tile
    starts.  With it, every block must be one tile, and the legs are cut into
    groups of SNAPSHOT_GROUP: every block finishes a group, whose leg
    first + i writes row snap - first of the (SNAPSHOT_GROUP, chains, d)
    ``outs``, before any block starts the next, and ``on_group(ks)`` then runs
    on the calling thread with the range ks of the group's legs.
    """
    order = _tile_order(outs[0].shape[2])
    group = len(legs) if on_group is None else SNAPSHOT_GROUP

    def walk(block):
        # A generator over one block: it yields the block's leg times at the end of each group.
        b, (lo, hi) = block
        gen = _rng.stream(seed, b)
        times = np.zeros(len(legs))
        for a in range(lo, hi, rows):
            cols = slice(a, min(a + rows, hi))
            z = np.asarray(gen.standard_normal((cols.stop - a,) + outs[0].shape[2:]), order=order)
            state, step = init(z), 0
            del z  # the state is made: the tile's legs do not hold its draws
            for k, (kernel, steps, snap) in enumerate(legs):
                if k and k % group == 0:
                    yield times  # wait here until every block has finished the group
                tic = time.perf_counter()
                for _ in range(steps):
                    state = kernel(state, gen)
                times[k] += time.perf_counter() - tic
                step += steps
                if not np.isfinite(state[0]).all():
                    raise FloatingPointError(message(step, state))
                if snap is not None:
                    for j, out in enumerate(outs):
                        if state[j] is not None:
                            out[snap - (k - k % group), cols] = state[j]
            del state  # the tile has ended: a finished block holds no chains while the others run
        yield times

    walkers = [walk(block) for block in enumerate(_rng.block_bounds(outs[0].shape[1]))]
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else contextlib.nullcontext() as pool:
        for first in range(0, len(legs), group):
            times = list((pool.map if pool else map)(next, walkers))  # list() re-raises a block's error here
            if on_group is not None:
                on_group(range(first, min(first + group, len(legs))))
    return np.sum(times, axis=0)


# ---------------------------------------------------------------------------
# denoising runs

# Bytes of float64 per chain-row tile in lml_sample: one tile's predictions,
# guided update and solver step stay within a core's L2 cache.
TILE_BYTES = 512 * 1024

# Snapshots per group of a walk that hands each snapshot on as the blocks reach
# it (fixed_level_run's on_snapshot): the (SNAPSHOT_GROUP, chains, d) buffer
# stays small while one barrier over the blocks serves SNAPSHOT_GROUP snapshots.
SNAPSHOT_GROUP = 8


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

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.solver_order not in (1, 2):
            raise ValueError("solver_order must be 1 or 2")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")


@dataclass
class SamplerRun:
    """Everything a denoising run produced; states[k] sits at grid.times[k].

    ``step_times[k]`` is the wall time of step k + 1 of :func:`lml_sample`,
    summed over the row tiles it advances one after another, or of level
    k + 1's inner steps in :func:`annealed_langevin_sample`, summed over the
    chain blocks (which can exceed the wall time when blocks run on threads).
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

    The run is the chain walk with one leg per step, a tile's state being
    (x, previous raw prediction, previous guided prediction).  A block is
    advanced in row tiles of min(BLOCK, TILE_BYTES // (8 d)) rows, each
    through all n steps before the next, so a tile's working set stays in
    cache across the prediction, the guided update and the solver step; all
    three treat rows independently, so the bits do not depend on the tiling.
    Each chain still costs one prediction per step (the NFE), but
    ``provider.eps`` is called n_steps times per tile.  Each new state is
    checked finite; a blow-up raises FloatingPointError naming the step and
    its time.

    With ``record=False`` only the last leg writes: ``states`` is (1, m, d),
    and ``eps_raw`` and ``eps_used`` are None.  The final states have the
    bits of a recorded run.
    """
    grid = make_grid(cfg.schedule, cfg.n_steps, cfg.eps_clip)
    d = provider.dim
    n, m = cfg.n_steps, cfg.chains
    sigma_top = float(grid.sigma[0])

    def step_kernel(level: int):
        t_level = grid.level_time(level)

        def kernel(state, gen):
            x, prev_raw, prev_used = state
            raw = np.asarray(provider.eps(x, t_level), dtype=np.float64)
            used = raw if cfg.geometry is None else lm_guided_eps(raw, prev_raw, cfg.geometry)
            if cfg.solver_order == 2 and prev_used is not None:
                x = multistep2_step(x, used, prev_used, level, grid)
            else:
                x = ddim_step(x, used, level, grid)
            return x, raw, used

        return kernel

    def message(step: int, state) -> str:
        cause = "finite" if np.isfinite(state[1]).all() else "already non-finite"
        where = f"step {step} of {n} (t = {grid.level_time(n + 1 - step):.6g})"
        return f"lml_sample produced non-finite states at {where}; the provider's prediction was {cause}"

    def init(z):
        return sigma_top * z, None, None

    # Snapshot indices count from the end, where states[k + 1], eps_raw[k] and eps_used[k] hold
    # step k + 1.  A recorded run writes the start and every step, any other only its last step.
    legs = [(None, 0, 0)] if record else []
    legs += [(step_kernel(n - k), 1, k - n if record or k == n - 1 else None) for k in range(n)]
    outs = [np.empty(shape) for shape in ([(n + 1, m, d), (n, m, d), (n, m, d)] if record else [(1, m, d)])]
    rows = min(_rng.BLOCK, max(1, TILE_BYTES // (8 * d)))
    times = _run_chain_blocks(cfg.seed, outs, 1, init, legs, message, rows)
    return SamplerRun(grid, outs[0], times[-n:], *outs[1:])


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
    the annealing path disconnected from its target.  The run takes no
    geometry and no solver order above 1.
    """
    if inner_steps < 1:
        raise ValueError("inner_steps must be >= 1: each level needs at least one Langevin step")
    if not step_scale > 0.0:
        raise ValueError("step_scale must be > 0")
    if cfg.geometry is not None or cfg.solver_order != 1:
        raise ValueError("annealed Langevin takes geometry=None and solver_order=1 only")
    grid = make_grid(cfg.schedule, cfg.n_steps, cfg.eps_clip)
    n = cfg.n_steps
    sigma_top = float(grid.sigma[0])

    def level_kernel(k: int):
        # Langevin targets the *next* (less noisy) level, annealing downward.
        t_level, sig = float(grid.times[k + 1]), float(grid.sigma[k + 1])
        h = step_scale * sig * sig / (sigma_top * sigma_top)
        metric = _identity_metric(lambda x: -np.asarray(provider.eps(x, t_level), dtype=np.float64) / sig)
        return lambda state, gen: (_langevin_step(state[0], metric, h, gen),)

    states = np.empty((n + 1, cfg.chains, provider.dim))
    legs = [(None, 0, 0)] + [(level_kernel(k), inner_steps, k + 1) for k in range(n)]
    name = f"annealed Langevin run ({inner_steps} steps per level)"
    times = _run_chain_blocks(
        cfg.seed, (states,), threads, lambda z: (sigma_top * z,), legs,
        lambda step, _: f"{name} produced non-finite states at step {step}",
    )
    return SamplerRun(grid=grid, states=states, step_times=times[1:])


# ---------------------------------------------------------------------------
# fixed-level dynamics


@dataclass(frozen=True)
class FixedLevelConfig:
    """A Langevin study at one frozen noise level t.

    ``snapshot_every=None`` records only the state after n_steps; otherwise
    snapshots are taken at steps 0, snapshot_every, ... up to n_steps, and
    the run stops at the last of them, which is ``final_states``.  ``lam`` is
    the damping of the ``damped-*`` variants and must be 0 for
    ``plain-langevin``, which takes none.
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
        if self.variant == "plain-langevin" and self.lam != 0.0:
            raise ValueError(f"{self.variant} takes no damping; use lam=0")
        if self.snapshot_every is not None and not 1 <= self.snapshot_every <= self.n_steps:
            raise ValueError(f"snapshot_every must lie in [1, n_steps = {self.n_steps}]")
        if not self.init_std >= 0.0:
            raise ValueError("init_std must be >= 0")

    @property
    def snapshot_steps(self) -> np.ndarray:
        """The steps after which the snapshots are taken."""
        if self.snapshot_every is None:
            return np.array([self.n_steps], dtype=np.int64)
        return np.arange(0, self.n_steps + 1, self.snapshot_every, dtype=np.int64)


@dataclass
class FixedLevelRun:
    """Snapshots of a fixed-level study; states[k] was taken after snapshot_steps[k] steps; final_states is the last.

    A run that handed its snapshots on keeps only the last: ``states`` is then (1, chains, d).
    """

    snapshot_steps: np.ndarray
    times: np.ndarray
    states: np.ndarray

    @property
    def final_states(self) -> np.ndarray:
        return self.states[-1]


def _fixed_level_kernel(cfg: FixedLevelConfig, oracle: GaussianMixtureOracle):
    """Build the per-step transition closure for the configured variant: its metric is built once, here.

    The closure may update the positions it is given in place, so the one-step functions pass it a copy.
    """
    t, lam, h = cfg.t, cfg.lam, cfg.h
    if cfg.variant == "plain-langevin":
        metric = _identity_metric(lambda x: oracle.score(x, t))
    elif cfg.variant == "damped-lm":
        metric = _rank1_metric(oracle, t, oracle.level(t)[1], lam)
    elif oracle.dim == 1 and oracle.n_components == 1:
        # Single-component marginal: curvature is the constant 1/sigma^2 and
        # the third derivative vanishes, so the whole step contracts to an
        # exact OU update.  Big ensembles would otherwise pay the generic
        # posterior machinery per step for no change in output distribution.
        alpha, sigma = oracle.level(t)
        mu = alpha * float(oracle.centers[0, 0])
        g = 1.0 / (sigma * sigma) + lam
        c1 = h / (sigma * sigma * g)
        sd = np.sqrt(2.0 * h) / np.sqrt(g)

        def kernel(x, gen):
            # x + c1 * (mu - x) + sd * z, bit for bit, in place with one fresh array at a time.
            step = mu - x
            step *= c1
            x += step
            del step
            noise = gen.standard_normal(x.shape)
            noise *= sd
            x += noise
            return x

        return kernel
    else:
        metric = _exact_metric(oracle, t, lam, cfg.variant == "damped-exact-corrected")
    return lambda x, gen: _langevin_step(x, metric, h, gen)


def fixed_level_run(
    cfg: FixedLevelConfig, oracle: GaussianMixtureOracle, threads: int = 1, on_snapshot=None
) -> FixedLevelRun:
    """Evolve a chain ensemble at a frozen level, recording snapshots.

    Chains are advanced block by block with per-block random streams, so the
    result is independent of ``threads``; the run stops at its last snapshot.
    Each snapshot is checked finite as it is taken, so a numeric blow-up
    raises FloatingPointError naming the variant and the step.

    With ``on_snapshot``, the walk hands on each snapshot as every block has
    reached it: ``on_snapshot(k, states)`` runs in snapshot order on the
    calling thread, ``states`` being a (chains, d) view into a reused buffer
    that is valid during the call only.  The run then holds only the final
    snapshot, so ``states`` is (1, chains, d); the bits are those of a run
    that stores every snapshot.
    """
    snap = cfg.snapshot_steps
    kernel = _fixed_level_kernel(cfg, oracle)

    def advance(state, gen):
        return (kernel(state[0], gen),)

    legs = [(advance, int(steps), k) for k, steps in enumerate(np.diff(snap, prepend=0))]
    held = snap.size if on_snapshot is None else min(SNAPSHOT_GROUP, snap.size)
    states = np.empty((held, cfg.chains, oracle.dim))

    def start(z):
        # init_mean + init_std * z, bit for bit, with one array beside z rather than two
        x = cfg.init_std * z
        x += cfg.init_mean
        return (x,)

    def on_group(ks):
        for i, k in enumerate(ks):
            on_snapshot(k, states[i])

    _run_chain_blocks(
        cfg.seed, (states,), threads, start, legs,
        lambda step, _: f"fixed-level {cfg.variant} run produced non-finite states at step {step}",
        on_group=None if on_snapshot is None else on_group,
    )
    if on_snapshot is not None:
        states = states[(snap.size - 1) % held, None].copy()
    return FixedLevelRun(snapshot_steps=snap, times=snap * cfg.h, states=states)


def newton_langevin_step(x, oracle: GaussianMixtureOracle, t: float, h: float, rng: np.random.Generator):
    """Langevin at level t preconditioned by P = (-grad^2 log p_t)^{-1}: one step of ``damped-exact`` at lam = 0.

    Where the target is not log-concave at x it raises NotLogConcaveError.
    """
    return damped_step(x, oracle, t, 0.0, h, rng)


def damped_step(
    x, oracle: GaussianMixtureOracle, t: float, lam: float, h: float, rng: np.random.Generator, variant="damped-exact"
):
    """One step of the fixed-level chain ``variant`` (one of FIXED_LEVEL_VARIANTS) at level t.

    It applies the chain's kernel once, so it is the step :func:`fixed_level_run`
    takes, bit for bit, and :class:`FixedLevelConfig`'s rules hold: an unknown
    variant, h <= 0, lam < 0, ``damped-lm`` at lam = 0 or damping on an
    undamped chain raises ValueError.  On the exact metrics a lam that leaves
    the curvature indefinite raises DampingTooSmallError naming the lam it
    needs, as NotLogConcaveError at lam = 0 (:func:`newton_langevin_step`).
    """
    cfg = FixedLevelConfig(t=t, h=h, n_steps=1, variant=variant, lam=lam)
    return _fixed_level_kernel(cfg, oracle)(np.array(x, dtype=np.float64), rng)
