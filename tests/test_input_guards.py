from __future__ import annotations

import numpy as np
import pytest

from lmlangevin import NoiseSchedule, equal_mass_edges, make_grid, sliced_wasserstein
from lmlangevin.geometry import damped_inverse_apply, low_rank_hessian
from lmlangevin.rng import block_bounds
from lmlangevin.samplers import ddim_step

_GRID = make_grid(NoiseSchedule.vp_linear(), 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: equal_mass_edges(lambda q: q, bins=1), "need at least 2 bins"),
        (lambda: sliced_wasserstein(np.zeros((2, 2, 2)), np.zeros((2, 2))), r"a sample must be an \(n,\) or \(n, d\) array"),
        (lambda: low_rank_hessian(np.ones((2, 2)), 1.0), r"low_rank_hessian expects a single \(d,\) vector"),
        (lambda: damped_inverse_apply(np.ones(2), 0.0, 1.0, np.ones(2)), "need sigma_t > 0 and lam > 0"),
        (lambda: damped_inverse_apply(np.ones(2), 1.0, 0.0, np.ones(2)), "need sigma_t > 0 and lam > 0"),
        (lambda: block_bounds(0), "n_chains must be >= 1"),
        (lambda: ddim_step(np.zeros(2), np.zeros(2), 0, _GRID), r"step level must lie in \[1, 4\]"),
    ],
    ids=["edges-bins", "sample-ndim", "low-rank-eps-ndim", "rank1-sigma", "rank1-lam", "no-chains", "ddim-level-0"],
)
def test_input_guards(call, message) -> None:
    # Each public entry point rejects an input it cannot serve, with its own message.
    with pytest.raises(ValueError, match=message):
        call()
