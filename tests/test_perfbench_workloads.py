"""The benchmark's inputs are built from outside ``src/``.

``perfbench/workloads.py`` writes each CLI workload's config document and
builds ``denoise-highd``'s sampler config from the package's dataclasses.  A
schema or dataclass change that breaks one of them fails here, before a
benchmark run does.
"""

from __future__ import annotations

import copy
import importlib.util
import sys
from pathlib import Path

from lmlangevin.config import COMMAND_SCHEMAS, validate_config

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_workload_builds_its_first_input(tmp_path, monkeypatch) -> None:
    workloads = _load_workloads(monkeypatch).WORKLOADS
    assert sorted(workloads) == ["denoise-2d", "denoise-highd", "fixed-level-mixture", "fixed-level-ou"]
    for name, workload in workloads.items():
        inp = workload.build(0, 0, tmp_path)
        if workload.cli:
            # the document the CLI reads passes its command's schema
            validate_config(copy.deepcopy(inp.doc), COMMAND_SCHEMAS[inp.command])
            assert inp.config.is_file(), name
