"""Fixed-noise-level Langevin dynamics: stationarity and convergence rate.

At a frozen noise level the damped dynamics keep the diffused density
invariant, and an ensemble started away from it contracts at a rate set by
the damping.  Both effects are measured here on a 1D Gaussian where the
chi-square distance has a closed form.
"""
import numpy as np

from lmlangevin import (
    FixedLevelConfig,
    GaussianMixtureOracle,
    NoiseSchedule,
    chi2_gaussians,
    decay_fit,
    fixed_level_run,
    ks_statistic,
)

# VE schedule with sigma(1/2) = 1: target at t = 0.5 is exactly N(0, 1).
sch = NoiseSchedule.ve(0.01, 100.0)
orc = GaussianMixtureOracle([[0.0]], None, sch)

# 1. Stationarity: start at the invariant density and verify the chain
#    stays on it (KS distance stays at sampling-noise level).
for lam in (1.0, 4.0):
    cfg = FixedLevelConfig(
        t=0.5, h=1e-3, n_steps=2000, variant="damped-exact", lam=lam,
        chains=50_000, init_mean=0.0, init_std=1.0, seed=7,
    )
    xs = fixed_level_run(cfg, orc).final_states[:, 0]
    ks = ks_statistic(xs, lambda x: orc.marginal_cdf(x, 0.5))
    print(f"lam={lam:g}: KS vs N(0,1) after 2000 steps = {ks:.4f}")

# 2. Convergence: start the ensemble shifted to N(0.5, 1) and fit the
#    chi-square decay.  Damping slows the contraction: the predicted rate
#    is 2 / (1 + lam * sigma_t^2).  The fit uses snapshots whose chi-square
#    value sits in a log-linear band, below the initial transient and above
#    the finite-ensemble noise floor; n_steps is sized so even the slowest
#    ensemble traverses the band.
for lam, n_steps in ((0.0, 3000), (1.0, 6000), (4.0, 15_000)):
    cfg = FixedLevelConfig(
        t=0.5, h=1e-3, n_steps=n_steps, variant="damped-exact", lam=lam,
        chains=20_000, snapshot_every=25,
        init_mean=0.5, init_std=1.0, seed=8,
    )
    run = fixed_level_run(cfg, orc)
    times, values = [], []
    for step_t, snap in zip(run.times, run.states):
        col = snap[:, 0]
        val = chi2_gaussians(float(col.mean()), float(col.std(ddof=1)), 0.0, 1.0)
        if 3e-3 <= val <= 0.2 and step_t > 0:
            times.append(step_t)
            values.append(val)
    fit = decay_fit(np.array(times), np.array(values))
    print(f"lam={lam:g}: fitted rate {-fit.rate:.3f}, predicted {2.0 / (1.0 + lam):.3f}, R^2 {fit.r_squared:.4f}")

# 3. The plain (undamped) chain at a coarser step size shows the classic
#    discretization bias in its stationary variance: var -> sigma^2/(1 - h/2).
cfg = FixedLevelConfig(
    t=0.5, h=0.05, n_steps=2000, variant="plain-langevin",
    chains=50_000, init_mean=0.0, init_std=1.0, seed=9,
)
xs = fixed_level_run(cfg, orc).final_states[:, 0]
print(f"plain chain at h=0.05: var {xs.var(ddof=1):.4f}, biased fixed point {1.0 / (1.0 - 0.025):.4f}")
