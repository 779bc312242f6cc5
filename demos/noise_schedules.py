"""Walk through the three built-in noise schedules.

Prints alpha(t), sigma(t), log-SNR, and the drift/diffusion pair on a coarse
grid so the shapes are easy to eyeball, then checks the identities each
family promises.
"""
import numpy as np

from lmlangevin import NoiseSchedule

ts = np.linspace(0.0, 1.0, 6)

for sch in (NoiseSchedule.vp_linear(), NoiseSchedule.ve(0.01, 100.0), NoiseSchedule.cosine()):
    print(f"--- {sch.kind} ---")
    print(f"{'t':>6} {'alpha':>12} {'sigma':>12} {'logSNR':>10} {'drift':>10} {'diff^2':>10}")
    for t in ts:
        t_eff = min(t, 0.999) if sch.kind == "cosine" else t
        a, s = sch.alpha_sigma(t_eff)
        f, g2 = sch.drift_diffusion(max(t_eff, 1e-6))
        print(f"{t_eff:6.3f} {a:12.6f} {s:12.6f} {sch.log_snr(max(t_eff, 1e-6)):10.3f} {f:10.4f} {g2:10.4f}")

# VP keeps alpha^2 + sigma^2 = 1; VE keeps alpha = 1 with geometric sigma.
vp = NoiseSchedule.vp_linear()
a, s = vp.alpha_sigma(0.37)
print("VP identity alpha^2 + sigma^2 - 1 =", a * a + s * s - 1.0)

ve = NoiseSchedule.ve(0.01, 100.0)
print("VE sigma at t=1/2 (geometric mean of the range):", ve.alpha_sigma(0.5)[1])

# VE log-SNR is linear in t, which is what makes uniform grids behave nicely
# for the multistep solver.
snr = np.array([ve.log_snr(t) for t in (0.2, 0.4, 0.6, 0.8)])
print("VE log-SNR increments (constant):", np.diff(snr))
