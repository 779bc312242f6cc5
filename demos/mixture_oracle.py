"""Exercise the closed-form Gaussian-mixture score oracle.

The oracle stands in for a trained noise predictor: it serves the exact
diffused density, score, noise prediction, and Hessian for a point-mass
mixture pushed through a noise schedule.  Everything printed here can be
cross-checked by hand or by finite differences.
"""
import numpy as np

from lmlangevin import GaussianMixtureOracle, NoiseSchedule, finite_diff_jacobian
from lmlangevin.rng import stream

sch = NoiseSchedule.vp_linear()
orc = GaussianMixtureOracle([[1.0, 0.0], [-1.0, 0.0]], None, sch)
t = 0.4

x = np.array([0.3, -0.2])
print("log p_t(x)      :", orc.logpdf(x, t))
print("score           :", orc.score(x, t))
print("eps = -sigma * score:", orc.eps(x, t))
print("posterior weights (which center explains x):", orc.posterior_weights(x, t))

# The score really is the gradient of log p_t: the FD Jacobian of the scalar log p_t.
fd = finite_diff_jacobian(lambda p: orc.logpdf(p, t), x)
print("|score - FD gradient| =", np.abs(orc.score(x, t) - fd).max())

# Exact Hessian of log p_t: symmetric, and for well-separated centers close
# to -1/sigma^2 times the identity far from the boundary.
H = orc.hessian(x, t)
print("hessian:\n", H)
print("symmetry gap:", np.abs(H - H.T).max())

# Far from the decision boundary one component dominates and the posterior
# mean of the clean data, sum_i w_i y_i, collapses onto its center.
far = np.array([4.0, 0.0])
print("posterior mean at x=(4,0):", orc.posterior_mean(far, t), "center =", orc.centers[0])

# Draws from p_t itself: diffused samples match alpha-scaled centers plus
# sigma-scaled noise.
xs = orc.sample_diffused(stream(0, 0), 50_000, t)
print("diffused sample mean (expect ~0):", xs.mean(axis=0))
print("diffused sample var  (expect alpha^2 + sigma^2 in x0):", xs.var(axis=0))

# 1D marginals have a closed CDF and quantile, usable as test oracles.
g1 = GaussianMixtureOracle([[0.0]], None, sch)
print("marginal_cdf at median:", g1.marginal_cdf(np.array([0.0]), t)[0])
print("84th-percentile quantile at t=1 (expect ~1):", float(g1.marginal_quantile(0.8413, 1.0)))
