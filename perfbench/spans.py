"""In-memory span recorder and the wrappers that put it around lmlangevin's layers.

Nothing in ``src/`` is instrumented.  Instead :meth:`Tracer.install` replaces,
for the duration of one traced operation, the names through which each layer
is actually called:

* ``GaussianMixtureOracle`` methods and ``NoiseSchedule.alpha_sigma``/``log_snr``
  on their classes;
* the geometry, solver and kernel functions that ``lmlangevin.samplers`` bound
  by name at import, plus the kernel closure ``_fixed_level_kernel`` returns;
* the samplers and diagnostics functions that ``lmlangevin.cli`` bound by name;
* ``lmlangevin.rng.stream``/``ensemble_normal``, whose generators are replaced
  by a delegating generator that counts ``standard_normal`` draws;
* ``lmlangevin.cli.main``.

A span opens only at a layer boundary: a call made from inside the same layer
(``eps`` calling ``score``, ``block_streams`` calling ``stream``) runs inside its
caller's span.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import lmlangevin.cli as _cli
import lmlangevin.rng as _rng
import lmlangevin.samplers as _samplers
from lmlangevin.oracle import GaussianMixtureOracle
from lmlangevin.schedule import NoiseSchedule

# Oracle methods that evaluate the posterior over all centers; each one pays
# the (m, n, d) pairwise term counted in ``oracle.bytes_computed``.
POSTERIOR_METHODS = ("eps", "score", "hessian", "hessian_grad", "posterior_weights", "posterior_mean", "logpdf")
OTHER_ORACLE_METHODS = ("sample_data", "sample_diffused", "marginal_cdf", "marginal_quantile")

GEOMETRY_NAMES = ("lm_guided_eps", "damped_inverse_apply", "damped_inverse_sqrt_apply")
SOLVER_NAMES = ("ddim_step", "multistep2_step")
KERNEL_NAMES = ("damped_step", "newton_langevin_step")
SAMPLER_ENTRY_NAMES = ("lml_sample", "annealed_langevin_sample", "fixed_level_run")
DIAGNOSTIC_GROUPS = {
    "sliced_wasserstein": "sw",
    "ks_statistic": "ks",
    "chi2_gaussians": "chi2",
    "chi2_histogram": "chi2",
    "equal_mass_edges": "other",
    "decay_fit": "other",
    "bound_check": "other",
    "overhead_benchmark": "other",
}


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else int(x.shape[0])


class CountingGenerator:
    """Delegates to a numpy Generator; ``standard_normal`` opens an rng span and counts draws."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("rng.standard_normal", "rng", self._gen.standard_normal, args, kwargs)
        self._tracer.counts["rng.draws"] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory, plus exact counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id, self seconds]
        self.counts = defaultdict(int)
        self.run_id = 0
        self._stack = []  # [span index, layer, child seconds]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs):
        """Run fn(*args, **kwargs), inside a new span unless already inside ``layer``."""
        stack = self._stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        entry = [index, layer, 0.0]
        self.spans.append(None)
        stack.append(entry)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            self.spans[index] = [name, start, end, parent, self.run_id, duration - entry[2]]

    def at_boundary(self, layer) -> bool:
        return not (self._stack and self._stack[-1][1] == layer)

    def self_seconds(self, run_id) -> dict:
        """Self time summed by span name for one traced operation."""
        out = defaultdict(float)
        for name, _, _, _, rid, own in self.spans:
            if rid == run_id:
                out[name] += own
        return out

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name, layer, fn, on_boundary=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            boundary = tracer.at_boundary(layer)
            out = tracer.call(name, layer, fn, args, kwargs)
            if boundary and on_boundary is not None:
                on_boundary(args, out)
            return out

        return wrapper

    def install(self) -> None:
        counts = self.counts
        for meth in POSTERIOR_METHODS:

            def on_posterior(args, out, meth=meth):
                oracle, m = args[0], _rows(args[1])
                counts[f"oracle.{meth}.calls"] += 1
                counts["oracle.calls"] += 1
                counts["oracle.rows"] += m
                counts["oracle.bytes_computed"] += m * oracle.n_components * oracle.dim * 8

            fn = GaussianMixtureOracle.__dict__[meth]
            self._patch(GaussianMixtureOracle, meth, self._wrap(f"oracle.{meth}", "oracle", fn, on_posterior))
        for meth in OTHER_ORACLE_METHODS:

            def on_other(args, out):
                counts["oracle.calls"] += 1

            fn = GaussianMixtureOracle.__dict__[meth]
            self._patch(GaussianMixtureOracle, meth, self._wrap("oracle.other", "oracle", fn, on_other))

        for meth in ("alpha_sigma", "log_snr"):

            def on_schedule(args, out):
                counts["schedule.calls"] += 1

            fn = NoiseSchedule.__dict__[meth]
            self._patch(NoiseSchedule, meth, self._wrap(f"schedule.{meth}", "schedule", fn, on_schedule))

        def on_geometry(args, out):
            counts["geometry.calls"] += 1
            counts["geometry.elems"] += int(np.size(args[0]))

        for attr in GEOMETRY_NAMES:
            fn = _samplers.__dict__[attr]
            self._patch(_samplers, attr, self._wrap("geometry", "geometry", fn, on_geometry))

        def on_solver(args, out):
            counts["samplers.solver.calls"] += 1

        for attr in SOLVER_NAMES:
            fn = _samplers.__dict__[attr]
            self._patch(_samplers, attr, self._wrap("samplers.solver", "samplers.solver", fn, on_solver))

        def on_step(args, out):
            counts["samplers.steps"] += 1

        for attr in KERNEL_NAMES:
            fn = _samplers.__dict__[attr]
            self._patch(_samplers, attr, self._wrap("samplers.kernel", "samplers.kernel", fn, on_step))

        build_kernel = _samplers.__dict__["_fixed_level_kernel"]

        @functools.wraps(build_kernel)
        def traced_kernel_factory(*args, **kwargs):
            return self._wrap("samplers.kernel", "samplers.kernel", build_kernel(*args, **kwargs), on_step)

        self._patch(_samplers, "_fixed_level_kernel", traced_kernel_factory)

        def on_sampler(args, out):
            counts["samplers.calls"] += 1
            counts["samplers.recorded_bytes"] += sum(
                int(a.nbytes)
                for a in (getattr(out, "states", None), getattr(out, "eps_raw", None), getattr(out, "eps_used", None))
                if a is not None
            )

        for owner in (_cli, _samplers):
            for attr in SAMPLER_ENTRY_NAMES:
                fn = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap("samplers", "samplers", fn, on_sampler))

        for attr, group in DIAGNOSTIC_GROUPS.items():

            def on_diagnostic(args, out):
                counts["diagnostics.calls"] += 1

            fn = _cli.__dict__[attr]
            self._patch(_cli, attr, self._wrap(f"diagnostics.{group}", "diagnostics", fn, on_diagnostic))

        real_stream = _rng.__dict__["stream"]

        def stream(*args, **kwargs):
            counts["rng.streams"] += 1
            return CountingGenerator(real_stream(*args, **kwargs), self)

        self._patch(_rng, "stream", self._wrap("rng.stream", "rng", stream))
        self._patch(_rng, "ensemble_normal", self._wrap("rng.ensemble_normal", "rng", _rng.__dict__["ensemble_normal"]))

        self._patch(_cli, "main", self._wrap("cli", "cli", _cli.__dict__["main"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
