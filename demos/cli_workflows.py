"""Drive every CLI command from the shipped demo configs.

Outputs land under demo_output/ next to the current working directory.
Each command writes a meta.json (config, config hash, seed, metrics, timing) plus
command-specific CSVs; rerunning with the same config and seed reproduces
the data files byte for byte.  Beside each command's results it prints the
command's wall time, meta.json's timing.total_s.  Exits 1 if any command failed.
"""
import json
import pathlib
import sys

from lmlangevin.cli import main

HERE = pathlib.Path(__file__).parent
OUT = pathlib.Path("demo_output")

jobs = [
    ("sample", "sample_mixture2d.json"),
    ("compare", "compare_low_nfe.json"),
    ("stationarity", "stationarity_damped.json"),
    ("convergence", "convergence_rates.json"),
    ("hessian-error", "hessian_error_bound.json"),
    ("bench", "bench_overhead.json"),
]

failed = []
for command, config in jobs:
    out_dir = OUT / command
    print(f"=== {command} ({config}) -> {out_dir}")
    rc = main([command, "--config", str(HERE / "configs" / config), "--out", str(out_dir)])
    if rc != 0:
        print(f"{command} exited {rc}", file=sys.stderr)
        failed.append(command)
        continue
    meta = json.loads((out_dir / "meta.json").read_text())
    if command == "compare":
        print("  dominating (lam, kappa) per order:", json.dumps(meta["extra"]["dominating_combos"]))
    elif command == "bench":
        print("  timing:", json.dumps(meta["timing"]))
    else:
        print("  metrics:", json.dumps(meta["metrics"]))
    print(f"  total_s: {meta['timing']['total_s']:.3f}")
    print("  files  :", sorted(p.name for p in out_dir.iterdir()))

if failed:
    sys.exit(1)  # every command still ran, but the demo does not pass
