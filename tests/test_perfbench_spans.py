"""The benchmark's traced mode patches package names from outside ``src/``.

``perfbench/spans.py`` replaces functions and methods by name for one traced
operation and must put every one back.  A rename in the package breaks its
``install``; these tests catch that before a benchmark run does.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import lmlangevin.cli as cli
import lmlangevin.rng as rng
import lmlangevin.samplers as samplers
from lmlangevin import FIXED_LEVEL_VARIANTS, FixedLevelConfig, GaussianMixtureOracle, NoiseSchedule

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (GaussianMixtureOracle, NoiseSchedule, samplers, cli, rng)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_uninstall_restores_every_attribute() -> None:
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        changed = {
            (owner.__name__, name)
            for owner, snap in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if snap.get(name) is not value
        }
        for name in ("damped_step", "newton_langevin_step", "_fixed_level_kernel", "fixed_level_run"):
            assert ("lmlangevin.samplers", name) in changed
        assert ("GaussianMixtureOracle", "hessian") in changed

        # Under the tracer every fixed-level step is one kernel step, and only
        # the rank-1 variant reaches the geometry functions (two per step).
        orc = GaussianMixtureOracle([[0.3], [-0.3]], None, NoiseSchedule.ve(0.01, 100.0))
        for variant in FIXED_LEVEL_VARIANTS:
            steps, geo = tracer.counts["samplers.steps"], tracer.counts["geometry.calls"]
            lam = 0.0 if variant in ("newton", "plain-langevin") else 0.5  # those take no damping
            cfg = FixedLevelConfig(t=0.5, h=0.01, n_steps=3, variant=variant, lam=lam, chains=4)
            samplers.fixed_level_run(cfg, orc)
            assert tracer.counts["samplers.steps"] - steps == 3, variant
            assert tracer.counts["geometry.calls"] - geo == (6 if variant == "damped-lm" else 0), variant
    finally:
        tracer.uninstall()
    for owner, snap in zip(OWNERS, before):
        restored = vars(owner)
        assert all(restored.get(name) is value for name, value in snap.items()), owner
