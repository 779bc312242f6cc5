"""lmlangevin benchmark: one workload, one process, one caller, ``--threads 1``.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see perfbench/README.md for what each should move).  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics; a
full record (environment, per-operation samples, checks) is written to
.perfbench_results/, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

# Cap BLAS threads at the core count before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5

# ref_error measured at the commit that added this benchmark (median over
# seeds 0-9); a run whose ref_error exceeds twice this value is incorrect.
RECORDED_REF_ERROR = {
    "denoise-2d": 19.09,
    "denoise-highd": 0.01024,
    "fixed-level-ou": 0.0862,
    "fixed-level-mixture": 0.1215,
}

E2E_UNITS = {"setup_s": "s", "chain_steps_per_s": "chain-steps/s", "peak_rss_mb": "MB", "ref_error": "1"}

COUNT_METRICS = (
    "oracle.calls",
    "oracle.eps.calls",
    "oracle.rows",
    "oracle.bytes_computed",
    "geometry.calls",
    "geometry.elems",
    "samplers.calls",
    "samplers.solver.calls",
    "samplers.steps",
    "samplers.recorded_bytes",
    "rng.draws",
    "rng.streams",
    "diagnostics.calls",
    "schedule.calls",
    "cli.bytes_written",
)
COUNT_UNITS = {"oracle.bytes_computed": "B", "samplers.recorded_bytes": "B", "cli.bytes_written": "B"}

# per-layer self time: metric name -> span names it sums
SELF_TIME_SPANS = {
    "oracle.self_s": ("oracle.eps", "oracle.score", "oracle.hessian", "oracle.hessian_grad", "oracle.posterior_weights",
                      "oracle.posterior_mean", "oracle.logpdf", "oracle.other"),
    "oracle.eps.self_s": ("oracle.eps",),
    "oracle.score.self_s": ("oracle.score",),
    "oracle.hessian.self_s": ("oracle.hessian",),
    "oracle.hessian_grad.self_s": ("oracle.hessian_grad",),
    "geometry.self_s": ("geometry",),
    "samplers.self_s": ("samplers",),
    "samplers.solver.self_s": ("samplers.solver",),
    "samplers.kernel.self_s": ("samplers.kernel",),
    "rng.self_s": ("rng.stream", "rng.ensemble_normal", "rng.standard_normal"),
    "diagnostics.self_s": ("diagnostics.sw", "diagnostics.ks", "diagnostics.chi2", "diagnostics.other"),
    "diagnostics.sw.self_s": ("diagnostics.sw",),
    "diagnostics.ks.self_s": ("diagnostics.ks",),
    "diagnostics.chi2.self_s": ("diagnostics.chi2",),
    "schedule.self_s": ("schedule.alpha_sigma", "schedule.log_snr"),
    "cli.self_s": ("cli",),
}


class Ledger:
    """Counts top-level sampler calls (the operations of fail_frac), failures and chain-steps."""

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.units = 0

    def wrap(self, fn, units):
        def wrapper(*args, **kwargs):
            self.calls += 1
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            if np.isfinite(out.states[-1]).all():
                self.units += units(*args, **kwargs)
            else:
                self.failed += 1
            return out

        return wrapper

    def install(self) -> None:
        import lmlangevin.cli as cli
        import lmlangevin.samplers as samplers

        per_call = {
            "lml_sample": lambda cfg, *a, **k: cfg.chains * cfg.n_steps,
            "annealed_langevin_sample": lambda cfg, provider, inner_steps, *a, **k: cfg.chains * cfg.n_steps * inner_steps,
            "fixed_level_run": lambda cfg, *a, **k: cfg.chains * cfg.n_steps,
        }
        for owner in (cli, samplers):
            for name, units in per_call.items():
                setattr(owner, name, self.wrap(getattr(owner, name), units))


@dataclass
class OpRecord:
    wall: float
    attempted: int
    failed: int
    units: int
    error: Optional[str]
    result: Any

    def as_dict(self) -> dict:
        return {"wall_s": self.wall, "attempted": self.attempted, "failed": self.failed, "units": self.units,
                "error": self.error}


def run_op(workload, inp, outdir: Path, ledger: Ledger) -> OpRecord:
    """One timed operation; a raise, a non-zero exit or non-finite states counts as failure."""
    calls0, failed0, units0 = ledger.calls, ledger.failed, ledger.units
    error = None
    result = None
    tic = time.perf_counter()
    try:
        code, result = workload.run(inp, outdir)
        if code != 0:
            error = f"exit code {code}"
    except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - tic
    calls, failed, units = ledger.calls - calls0, ledger.failed - failed0, ledger.units - units0
    if error is not None:
        calls = failed = max(calls, 1)
    return OpRecord(wall, calls, failed, units, error, result)


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(probe), name, str(seed), str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment(workload) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    llc = caches.get("L3-Unified") or caches.get("L2-Unified")
    llc_bytes = None
    if llc:
        scale = {"K": 1024, "M": 1024**2}.get(llc[-1], 1)
        llc_bytes = int(llc.rstrip("KM")) * scale
    working_set = workload.working_set
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"])},
        "cpu_model": cpu_model,
        "caches": caches,
        "working_set_bytes_computed": working_set,
        "working_set_over_llc": {k: v / llc_bytes for k, v in working_set.items()} if llc_bytes else None,
    }


def plain_run(workload, inputs, seconds, outdir, ledger):
    """Cycle through the inputs for ``seconds`` (every input at least once)."""
    records, refs = [], []
    start = time.perf_counter()
    i = 0
    while i < len(inputs) or time.perf_counter() - start < seconds:
        inp = inputs[i % len(inputs)]
        rec = run_op(workload, inp, outdir, ledger)
        if i < len(inputs) and rec.error is None:
            refs.append(workload.ref_error(inp, rec.result))
        rec.result = None
        records.append(rec)
        i += 1
    return records, refs


def traced_run(workload, inputs, seconds, workdir, ledger):
    """Untraced then traced call on the same input, repeated for ``seconds``."""
    from spans import Tracer

    tracer = Tracer()
    plain_dir, traced_dir = workdir / "plain", workdir / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    pairs = []
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < seconds:
        inp = inputs[i % len(inputs)]
        plain = run_op(workload, inp, plain_dir, ledger)
        plain_digest = workload.digest(plain.result) if plain.error is None else None
        plain.result = None
        tracer.run_id = i
        tracer.counts.clear()
        tracer.install()
        try:
            traced = run_op(workload, inp, traced_dir, ledger)
        finally:
            tracer.uninstall()
        traced_digest = workload.digest(traced.result) if traced.error is None else None
        traced.result = None
        counts = {name: int(tracer.counts.get(name, 0)) for name in COUNT_METRICS}
        if workload.cli and traced_digest is not None:
            counts["cli.bytes_written"] = sum(size for _, size in traced_digest.values())
        pairs.append({
            "input": i % len(inputs),
            "plain": plain,
            "traced": traced,
            "identical": plain_digest is not None and plain_digest == traced_digest,
            "counts": counts,
            "self_s": tracer.self_seconds(i),
        })
        i += 1
    return pairs, tracer


def per_layer_metrics(workload, pairs) -> tuple[dict, dict]:
    counts = pairs[0]["counts"]
    metrics = {}
    for name, spans in SELF_TIME_SPANS.items():
        metrics[name] = (statistics.median(sum(p["self_s"].get(s, 0.0) for s in spans) for p in pairs), "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts[name], COUNT_UNITS.get(name, "count"))
    elems = counts["geometry.elems"]
    metrics["geometry.ns_per_elem"] = (metrics["geometry.self_s"][0] * 1e9 / elems if elems else 0.0, "ns")
    plain_wall = statistics.median(p["plain"].wall for p in pairs)
    traced_wall = statistics.median(p["traced"].wall for p in pairs)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "1")

    fixed_level = workload.name.startswith("fixed-level")
    checks = {
        "identical_outputs": all(p["identical"] for p in pairs),
        "counts_repeat": all(p["counts"] == q["counts"] for p in pairs for q in pairs if p["input"] == q["input"]),
        "predicted_zeros": (
            counts["geometry.calls"] == 0 and counts["oracle.eps.calls"] == 0
            if fixed_level
            else counts["samplers.steps"] == 0
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "lmlangevin" / "__init__.py").is_file():
        print(f"no lmlangevin sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lmlangevin

    if Path(lmlangevin.__file__).resolve().parent != SRC / "lmlangevin":
        print(f"imported lmlangevin from {lmlangevin.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    results_dir = ROOT / ".perfbench_results"
    workdir.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(workload.name, args.seed, workdir)
        inputs_dir = workdir / "inputs"
        inputs_dir.mkdir()
        inputs = [workload.build(args.seed, i, inputs_dir) for i in range(workload.inputs)]
        ledger = Ledger()
        ledger.install()
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "size": workload.size, "inputs": workload.inputs, "environment": environment(workload)}

        if args.trace:
            pairs, tracer = traced_run(workload, inputs, args.seconds, workdir, ledger)
            ops = [p[k] for p in pairs for k in ("plain", "traced")]
            metrics, checks = per_layer_metrics(workload, pairs)
            with open(results_dir / f"{tag}-spans.csv", "w") as fh:
                fh.write("name,start_s,end_s,parent,run\n")
                t0 = tracer.spans[0][1] if tracer.spans else 0.0
                for name, start, end, parent, run, _ in tracer.spans:
                    fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{run}\n")
            record["pairs"] = [{"plain": p["plain"].as_dict(), "traced": p["traced"].as_dict(),
                                "identical": p["identical"]} for p in pairs]
        else:
            ops, refs = plain_run(workload, inputs, args.seconds, workdir / "out", ledger)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ok_ops = [r for r in ops if r.error is None and r.failed == 0]
            rate = statistics.median(r.units / r.wall for r in ok_ops) if ok_ops else 0.0
            ref_error = statistics.median(refs) if refs else 0.0
            checks = {
                "every_input_checked": len(refs) == workload.inputs,
                "ref_error_within_2x_recorded": ref_error <= 2.0 * RECORDED_REF_ERROR[workload.name],
            }
            metrics = {
                "setup_s": statistics.median(setup),
                "chain_steps_per_s": rate,
                "peak_rss_mb": peak_rss_mb,
                "ref_error": ref_error,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
            record.update({"setup_samples_s": setup, "ref_error_per_input": refs,
                           "ops": [r.as_dict() for r in ops]})

        attempted = sum(r.attempted for r in ops)
        failed = sum(r.failed for r in ops)
        checks["no_failed_operations"] = failed == 0
        correct = all(checks.values())
        record.update({"checks": checks, "correct": correct, "attempted": attempted, "failed": failed,
                       "fail_frac": failed / attempted, "metrics": metrics})
        (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, m in metrics.items():
        print(f"{workload.name}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name}: fail_frac = {failed / attempted:.6g} 1 ({failed}/{attempted} sampler calls)")
    print(f"{workload.name}: size: {workload.size}; ops: {len(ops)}; checks: {checks}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
