from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Each of these runs in about 1-2 s.  Left out: cli_workflows (about 24 s) and
# fixed_level_dynamics (about 22 s), which together would add some 46 s to
# every run of the suite; the CLI commands and the fixed-level chains they
# drive are covered by test_cli.py and the acceptance criteria.
FAST_DEMOS = (
    "approximation_checks",
    "damped_geometry",
    "mixture_oracle",
    "noise_schedules",
    "sampler_quality",
    "step_overhead",
)


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path) -> None:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
