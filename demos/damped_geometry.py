"""Show the damped rank-one geometry acting on noise predictions.

The damped inverse of the rank-one curvature proxy is applied with two dot
products, and agrees with a dense solve.  The guided update deflects a raw
noise prediction away from the previous raw prediction in closed form,
a*c - b*(prev - c), then restores its norm; no matrix is ever formed.
"""
import numpy as np

from lmlangevin import (
    DampedGeometryConfig,
    damped_inverse_apply,
    hs_norm,
    lm_guided_eps,
    low_rank_hessian,
)

# damped_inverse_apply(e, sigma, lam, v) = (e e^T / (sigma^2 |e|^2) + lam I)^{-1} v,
# done with dot products.
e = np.array([1.0, 1.0]) / np.sqrt(2.0)
v = np.array([1.0, 0.0])
print("damped_inverse_apply:", damped_inverse_apply(e, 1.0, 1.0, v), "(component along e shrinks)")

# Check it against the dense solve.
d = 6
rng = np.random.default_rng(3)
e6, v6 = rng.normal(size=d), rng.normal(size=d)
sigma, lam = 0.8, 0.05
dense = np.linalg.solve(low_rank_hessian(e6, sigma) + lam * np.eye(d), v6)
print("dense-solve agreement:", np.abs(damped_inverse_apply(e6, sigma, lam, v6) - dense).max())

# The Sherman-Morrison identity behind it, in Hilbert-Schmidt norm.
lhs = (np.outer(e6, e6) + np.eye(d)) @ (np.eye(d) - np.outer(e6, e6) / (1.0 + e6 @ e6))
print("rank-one inverse identity residual:", hs_norm(lhs - np.eye(d)))

# The guided step: deflect along the mix of the previous and current predictions, renormalize.
cfg = DampedGeometryConfig(lam=0.1, kappa=0.1)
cur = np.array([[0.8, 0.6]])
out1 = lm_guided_eps(cur, None, cfg)
print("first step has no previous prediction:", out1)

nxt = np.array([[0.6, 0.8]])
out2 = lm_guided_eps(nxt, cur, cfg)
print("second step deflects away from the previous prediction:", out2)
print("norm preserved:", np.linalg.norm(out2), "=", np.linalg.norm(nxt))

# kappa = 0 disables the memory entirely.
b = lm_guided_eps(nxt, cur, DampedGeometryConfig(lam=0.1, kappa=0.0))
print("kappa=0 is the identity:", np.abs(b - nxt).max())

# Huge damping also collapses to the identity: the deflection scales as 1/lam.
big = lm_guided_eps(nxt, cur[0], DampedGeometryConfig(lam=1e12, kappa=0.1))
print("lam=1e12 deflection:", np.abs(big - nxt).max())
