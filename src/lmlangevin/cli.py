"""Batch command-line front-end.

Subcommands: sample, compare, stationarity, convergence, hessian-error,
bench.  Every command reads one JSON config, writes CSV data plus a meta.json
summary into --out, and embeds the canonical config hash and seed in every
file.  :func:`main` validates the document against the command's schema and
checks --threads; the command then makes its own checks (times inside the
schedule's range, the oracle's dimension, its chain's rules) before it
computes anything, so a fault in a config exits 2 before any run.  Reruns
with the same config and seed are byte-identical except for the meta.json
"timing" object, regardless of --threads.

Each command writes nothing: it returns its tables (CSV name -> comment
notes, header, rows), metrics, the extra fields it computed, timing fields
and --assert failure (or None).  :func:`main` is the one place that reads the
seed and writes under --out.  Only after the command has returned and its
metrics are all finite does it make --out and write each table under the
stamp ``# config_hash=<hash> seed=<seed>`` and then meta.json, so a failed
run leaves --out untouched.  meta.json records the document as "config":
validated, with its defaults filled in and --seed applied, it is the object
the hash is taken over, and the same command runs it again to the same
files.  :func:`main` times the whole invocation and turns a failure under
--assert into exit 4.

Exit codes: 0 success, 2 invalid config, 3 numeric or I/O failure while
running, 4 threshold violated under --assert.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import rng as _rng
from .config import (
    COMMAND_SCHEMAS,
    ConfigError,
    build_oracle,
    build_schedule,
    config_hash,
    validate_config,
)
from .diagnostics import (
    bound_check,
    chi2_gaussians,
    chi2_histogram,
    decay_fit,
    equal_mass_edges,
    ks_statistic,
    overhead_benchmark,
    sliced_reference,
    sliced_wasserstein,
)
from .geometry import DampedGeometryConfig
from .oracle import DENSE_DIM_CAP
from .samplers import (
    FixedLevelConfig,
    SamplerConfig,
    annealed_langevin_sample,
    fixed_level_run,
    lml_sample,
    reference_rate,
)
from .schedule import make_grid

__all__ = ["main"]


# ---------------------------------------------------------------------------
# small output helpers


def _f(x) -> str:
    """Deterministic float formatting for CSV cells."""
    return format(float(x), ".17g")


def _write_csv(path: Path, stamp: str, notes: dict, header: list, rows: list) -> None:
    """One table: the stamp plus its notes that are not None as the comment line, then header and rows."""
    comment = " ".join([stamp] + [f"{k}={_f(v)}" for k, v in notes.items() if v is not None])
    lines = [comment, ",".join(header)]
    lines += [",".join(cells) for cells in rows]
    path.write_text("\n".join(lines) + "\n")


# Where each command keeps its seed, as a path into its config.  compare keeps a
# list: its first seed stamps the files, and --seed N makes it N, N + 1, ...
_SEED_PATHS = {"sample": ("sampler", "seed"), "compare": ("seeds",)}


def _seed(command: str, doc: dict, override=None) -> int:
    """The seed a command's files are stamped with, after ``override`` (--seed) replaces the config's."""
    *parents, key = _SEED_PATHS.get(command, ("seed",))
    for name in parents:
        doc = doc[name]
    if override is not None:
        if override < 0:
            raise ConfigError("--seed: must be >= 0")
        doc[key] = [override + i for i in range(len(doc[key]))] if isinstance(doc[key], list) else override
    return doc[key][0] if isinstance(doc[key], list) else doc[key]


# ---------------------------------------------------------------------------
# the checks a command makes on its document before it computes: config errors, exit 2


def _target(doc: dict):
    """The document's schedule and oracle; their builders report a bad block as a config error."""
    schedule = build_schedule(doc["schedule"])
    return schedule, build_oracle(doc["oracle"], schedule)


def _in_range(check, *args):
    """``check(*args)``, with the ValueError of a time outside the schedule's range as a config error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"config: time out of schedule range: {exc}") from exc


def _fixed_level(command: str, doc: dict, lams):
    """The oracle and one FixedLevelConfig per lam, whose rules reject the document before anything runs."""
    schedule, oracle = _target(doc)
    _in_range(schedule.alpha_sigma, doc["t"])
    if oracle.dim != 1:
        raise ConfigError(f"config.oracle: {command} needs a 1-d oracle (got dim={oracle.dim})")
    try:
        return oracle, [
            FixedLevelConfig(
                t=doc["t"], h=doc["h"], n_steps=doc["n_steps"], variant=doc["variant"], lam=lam, chains=doc["chains"],
                snapshot_every=doc.get("snapshot_every"),  # stationarity stores only its final states
                init_mean=doc["init"]["mean"], init_std=doc["init"]["std"], seed=doc["seed"],
            )
            for lam in lams
        ]
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _cmd_sample(doc, threads: int):
    schedule, oracle = _target(doc)
    block = doc["sampler"]
    _in_range(make_grid, schedule, 1, block["eps_clip"])
    scfg = SamplerConfig(
        n_steps=block["n_steps"],
        solver_order=block["order"],
        geometry=None if block["geometry"] is None else DampedGeometryConfig(**block["geometry"]),
        schedule=schedule,
        seed=block["seed"],
        chains=block["chains"],
        eps_clip=block["eps_clip"],
    )
    run = lml_sample(scfg, oracle, record=False)
    finals = run.final_states

    header = ["chain_id"] + [f"x{j}" for j in range(oracle.dim)]
    rows = [[str(i)] + [_f(v) for v in row] for i, row in enumerate(finals)]

    n_proj = doc["diagnostics"]["n_projections"]
    truth = oracle.sample_data(_rng.stream(scfg.seed, _rng.GT_STREAM_OFFSET), scfg.chains)
    sw2 = sliced_wasserstein(finals, truth, n_proj, _rng.stream(scfg.seed, _rng.PROJ_STREAM_OFFSET))
    geo = block["geometry"] or {}
    tables = {"samples.csv": ({"lam": geo.get("lam"), "kappa": geo.get("kappa")}, header, rows)}
    return tables, {"sw2_to_truth": sw2}, {}, {"per_step_s": list(run.step_times)}, None


def _compare_run(variant, geo, nfe, seed, doc, schedule, oracle, threads):
    """Final states of one (variant, geometry, nfe, seed) cell; an annealed level costs inner_steps NFE."""
    ann, annealed = doc["annealed"], variant == "annealed"
    scfg = SamplerConfig(
        n_steps=nfe // ann["inner_steps"] if annealed else nfe,
        solver_order=2 if variant.endswith("o2") else 1,
        geometry=geo, schedule=schedule, seed=seed, chains=doc["chains"], eps_clip=doc["eps_clip"],
    )
    if not annealed:
        return lml_sample(scfg, oracle, record=False).final_states
    return annealed_langevin_sample(scfg, oracle, ann["inner_steps"], ann["step_scale"], threads).final_states


def _cmd_compare(doc, threads: int):
    schedule, oracle = _target(doc)
    nfe_list, seeds, variants = doc["nfe"], doc["seeds"], doc["variants"]
    _in_range(make_grid, schedule, 1, doc["eps_clip"])
    if "annealed" in variants:
        # An annealed level costs inner_steps NFE, so only a multiple of it is a run of that NFE.
        inner = doc["annealed"]["inner_steps"]
        uneven = [nfe for nfe in nfe_list if nfe % inner]
        if uneven:
            raise ConfigError(f"config.nfe: each must be a multiple of annealed.inner_steps = {inner}; got {uneven}")
    n_proj = doc["diagnostics"]["n_projections"]

    plan = []
    for variant in variants:
        if variant.startswith("LML"):
            plan += [(variant, dict(g)) for g in doc["geometry_grid"]]
        else:
            plan.append((variant, None))

    # Seeds outermost, so that one truth reference is held at a time and its
    # directions are drawn and projections sorted once for all its runs.
    vals = np.empty((len(plan), len(nfe_list), len(seeds)))
    for k, s in enumerate(seeds):
        truth = oracle.sample_data(_rng.stream(s, _rng.GT_STREAM_OFFSET), doc["chains"])
        ref = sliced_reference(truth, n_proj, _rng.stream(s, _rng.PROJ_STREAM_OFFSET))
        for r, (variant, gdict) in enumerate(plan):
            geo = None if gdict is None else DampedGeometryConfig(**gdict)
            for j, nfe in enumerate(nfe_list):
                w2 = sliced_wasserstein(_compare_run(variant, geo, nfe, s, doc, schedule, oracle, threads), ref)
                if not np.isfinite(w2):
                    raise FloatingPointError(
                        f"compare: sliced W2 of {variant} at NFE {nfe}, seed {s} overflowed"
                    )
                vals[r, j, k] = w2

    # One table of (plan row, NFE) means feeds both the CSV and the verdict.
    means = vals.mean(axis=2)
    stderr = vals.std(axis=2, ddof=1) / np.sqrt(len(seeds)) if len(seeds) > 1 else np.zeros_like(means)

    header = ["variant", "lam", "kappa"] + [f"{col}_nfe{nfe}" for nfe in nfe_list for col in ("mean", "stderr")]
    rows = []
    for (variant, gdict), m, e in zip(plan, means, stderr):
        geo_cells = ["", ""] if gdict is None else [_f(gdict["lam"]), _f(gdict["kappa"])]
        rows.append([variant] + geo_cells + [_f(v) for pair in zip(m, e) for v in pair])

    # For each solver order present as both guided and baseline rows: does
    # some grid point match-or-beat the baseline at every NFE?
    dominating = {}
    failed_orders = []
    for order in (1, 2):
        base_name, lml_name = f"baseline-o{order}", f"LML-o{order}"
        if base_name not in variants or lml_name not in variants:
            continue
        base = means[[v for v, _ in plan].index(base_name)]
        winners = [g for (v, g), m in zip(plan, means) if v == lml_name and np.all(m <= base)]
        dominating[f"o{order}"] = winners
        if not winners:
            failed_orders.append(order)

    msg = f"no (lam, kappa) matches or beats baseline at every NFE for order(s) {failed_orders}"
    extra = {"dominating_combos": dominating}
    return {"compare.csv": ({}, header, rows)}, {}, extra, {}, msg if failed_orders else None


def _cmd_stationarity(doc, threads: int):
    oracle, (fixed,) = _fixed_level("stationarity", doc, [doc["lam"]])
    t = doc["t"]
    run = fixed_level_run(fixed, oracle, threads=threads)
    retained = run.final_states[:, 0]

    ks = ks_statistic(retained, lambda x: oracle.marginal_cdf(x, t))

    bins = doc["histogram_bins"]
    edges = equal_mass_edges(lambda q: oracle.marginal_quantile(q, t), bins)
    counts = np.bincount(np.searchsorted(edges, retained), minlength=bins)
    left = np.concatenate(([-np.inf], edges))
    right = np.concatenate((edges, [np.inf]))
    rows = [
        [str(b), _f(left[b]), _f(right[b]), _f(counts[b] / retained.size), _f(1.0 / bins)]
        for b in range(bins)
    ]
    tables = {"histogram.csv": ({"lam": doc["lam"], "t": t}, ["bin", "left", "right", "observed", "expected"], rows)}

    ks_max = doc["assert"]["ks_max"]
    return tables, {"ks": ks}, {}, {}, f"ks={ks:.5f} > {ks_max}" if ks > ks_max else None


def _gaussian_chi2_stderr(m: float, s: float, m2: float, s2: float, n: int) -> float:
    """Delta-method stderr of the fitted-moment chi-square estimate; inf where the estimate is inf."""
    dm = (chi2_gaussians(m + 1e-6, s, m2, s2) - chi2_gaussians(m - 1e-6, s, m2, s2)) / 2e-6
    step = min(1e-6, 0.5 * s)  # s - step stays a valid std however narrow the sample
    ds = (chi2_gaussians(m, s + step, m2, s2) - chi2_gaussians(m, s - step, m2, s2)) / (2.0 * step)
    var = dm * dm * s * s / n + ds * ds * s * s / (2.0 * n)
    # While s >= sqrt(2) s2 the closed form is inf on both sides of a difference, which is then inf - inf.
    return float("inf") if np.isnan(var) else float(np.sqrt(var))


def _cmd_convergence(doc, threads: int):
    oracle, runs = _fixed_level("convergence", doc, doc["lams"])
    window = doc["fit_window"]
    if len(window) != 2 or not window[0] < window[1]:
        raise ConfigError("config.fit_window: must be [low, high] with low < high")
    lo, hi = window
    t = doc["t"]
    locs, sigma = oracle.marginal(t)
    single = locs.size == 1

    if not single:
        edges = equal_mass_edges(lambda q: oracle.marginal_quantile(q, t), 64)

    tables = {}
    metrics = {}
    details = []
    ok = True
    for li, fixed in enumerate(runs):
        lam = fixed.lam
        vals, errs = np.empty((2, fixed.snapshot_steps.size))

        def reduce(k, states):
            # Each snapshot is reduced as the walk reaches it, so no lam's snapshots are ever held.
            samples = states[:, 0]
            if single:
                m_hat, s_hat = float(samples.mean()), float(samples.std(ddof=1))
                vals[k] = chi2_gaussians(m_hat, s_hat, locs[0], sigma)
                errs[k] = _gaussian_chi2_stderr(m_hat, s_hat, locs[0], sigma, samples.size)
            else:
                # Histogram estimate: biased, trend-only; fine inside the fit window.
                vals[k], errs[k] = chi2_histogram(samples, edges)

        times = fixed_level_run(fixed, oracle, threads=threads, on_snapshot=reduce).times

        name = f"convergence_lam{li}.csv"
        rows = [[_f(times[k]), _f(vals[k]), _f(errs[k])] for k in range(times.size)]
        tables[name] = ({"lam": lam, "t": t}, ["time", "value", "stderr"], rows)

        sel = (vals >= lo) & (vals <= hi) & (times > 0.0)
        if int(sel.sum()) < 3:
            raise ValueError(
                f"lam={lam:g}: only {int(sel.sum())} snapshots fall in the chi-square fit window "
                f"[{lo:g}, {hi:g}]; adjust n_steps/snapshot_every/init"
            )
        fit = decay_fit(times[sel], vals[sel])
        fitted = -fit.rate
        ref = reference_rate(doc["variant"], lam, sigma) if single else None  # Gaussian-target rates only
        metrics[f"rate_lam{li}"] = fitted
        detail = {
            "lam": lam,
            "fitted_rate": fitted,
            "reference_rate": ref,
            "r_squared": fit.r_squared,
            "n_fit_points": int(sel.sum()),
            "file": name,
        }
        details.append(detail)
        if ref is not None and abs(fitted - ref) / ref > doc["assert"]["rate_rel_tol"]:
            ok = False
        if fit.r_squared < doc["assert"]["r2_min"]:
            ok = False

    failure = None if ok else "fitted rate or fit quality outside tolerance; see meta.json"
    return tables, metrics, {"per_lam": details}, {}, failure


def _cmd_hessian_error(doc, threads: int):
    schedule, oracle = _target(doc)
    for t in doc["ts"]:
        _in_range(schedule.alpha_sigma, t)
    if oracle.dim > DENSE_DIM_CAP:
        raise ConfigError(f"config.oracle: hessian-error needs dim <= {DENSE_DIM_CAP} (got dim={oracle.dim})")
    rows = []
    per_t = []
    violations = 0
    for ti, t in enumerate(doc["ts"]):
        xs = oracle.sample_diffused(_rng.stream(doc["seed"], ti), doc["n_points"], t)
        res = bound_check(oracle, t, xs)
        violations += res.violations
        for j, emp in enumerate(res.empirical):
            rows.append([_f(t), str(j), _f(emp), _f(res.bound)])
        per_t.append(
            {
                "t": t,
                "bound": res.bound,
                "max_empirical": float(res.empirical.max()),
                "delta1": res.inputs.delta1,
                "delta3": res.inputs.delta3,
                "violations": res.violations,
            }
        )
    tables = {"bound_check.csv": ({}, ["t", "point", "empirical", "bound"], rows)}
    failure = f"{violations} bound violations" if violations > doc["assert"]["max_violations"] else None
    return tables, {"violations": float(violations)}, {"per_t": per_t}, {}, failure


def _cmd_bench(doc, threads: int):
    res = overhead_benchmark(d=doc["d"], reps=doc["reps"], seed=doc["seed"])
    timing = {"baseline_ns": res.baseline_ns, "lml_ns": res.lml_ns, "ratio": res.ratio}
    # bench gates only on a threshold the config sets: no default is reachable
    # on every machine, and the guided update always costs more than the axpy.
    ratio_max = doc.get("assert", {}).get("ratio_max")
    failed = ratio_max is not None and res.ratio > ratio_max
    failure = f"overhead ratio {res.ratio:.4f} > {ratio_max}" if failed else None
    return {}, {}, {}, timing, failure


_DISPATCH = {
    "sample": _cmd_sample,
    "compare": _cmd_compare,
    "stationarity": _cmd_stationarity,
    "convergence": _cmd_convergence,
    "hessian-error": _cmd_hessian_error,
    "bench": _cmd_bench,
}


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="path to the JSON config document")
    shared.add_argument("--out", required=True, help="output directory (created if missing)")
    shared.add_argument("--seed", type=int, default=None, help="override the config seed(s)")
    shared.add_argument("--threads", type=int, default=1, help="worker threads; never changes results")
    shared.add_argument(
        "--assert",
        dest="do_assert",
        action="store_true",
        help="exit 4 when the command's acceptance threshold is violated",
    )
    parser = argparse.ArgumentParser(prog="lmlangevin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        sub.add_parser(name, parents=[shared])
    return parser


def main(argv=None) -> int:
    tic = time.perf_counter()
    args = _parser().parse_args(argv)
    try:
        try:
            doc = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"not valid JSON: {exc}") from exc
        validate_config(doc, COMMAND_SCHEMAS[args.command])
        seed = _seed(args.command, doc, args.seed)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        chash = config_hash(doc)
        stamp = f"# config_hash={chash} seed={seed}"
        out = Path(args.out)
        tables, metrics, extra, timing, failure = _DISPATCH[args.command](doc, args.threads)
        for key, val in metrics.items():
            if not np.isfinite(val):
                raise ValueError(f"metric {key!r} is not finite: {val!r}")
        # Nothing is written, and --out is not made, until the command has returned and its metrics are finite.
        out.mkdir(parents=True, exist_ok=True)
        for name, (notes, header, rows) in tables.items():
            _write_csv(out / name, stamp, notes, header, rows)
        meta = {"command": args.command, "config": doc, "config_hash": chash, "seed": seed, "metrics": metrics}
        meta["extra"] = extra | ({"files": list(tables)} if tables else {})
        meta["timing"] = {"total_s": time.perf_counter() - tic, **timing}  # the one rerun-variable section
        (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    except ConfigError as exc:  # a ValueError, so before the numeric failures
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    if args.do_assert and failure is not None:
        print(f"assert failed: {failure}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
