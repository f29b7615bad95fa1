"""nbesov benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {suite,apply,assemble} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``nbesov`` from
``src/``.  With ``--trace 0`` it prints every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it runs the workload untraced and then
traced, and prints every per-layer metric (including the tracing
overhead).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
machine facts and (traced) the spans are also written under
``perfbench/out/``.  See perfbench/NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

EXPERIMENT_IDS = (
    "multiplier_scaling", "low_freq_decay", "heat_gaussian", "gradient", "reconstruction",
    "embeddings", "duality", "leibniz", "partition_independence", "amalgam", "moment_decay",
    "neg_broken_partition", "neg_fake_eigenvalue", "neg_reversed_inequality",
)

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "op_p50_ms": "ms", "op_p95_ms": "ms", "ok_frac": "ratio",
}

# Per-layer metric -> unit.  Times are span seconds; ``.calls`` count spans.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in
       ("verify", "spectral", "norms", "domains", "littlewood_paley", "reports")},
    **{f"verify.exp.{e}.s": "s" for e in EXPERIMENT_IDS},
    "verify.pool.busy_s": "s", "verify.pool.efficiency": "ratio",
    "spectral.endpoint_norms.s": "s", "spectral.endpoint_norms.vector_s": "s",
    "spectral.gradient_kernels.s": "s",
    "spectral.analyze.s": "s", "spectral.analyze.calls": "count",
    "spectral.synthesize.s": "s", "spectral.synthesize.calls": "count",
    "spectral.apply_multiplier.s": "s", "spectral.resolvent_gamma.s": "s",
    "norms.block_lp_table.s": "s", "norms.block_lp_table.calls": "count",
    "norms.besov.s": "s", "norms.seminorm.s": "s", "norms.amalgam.s": "s",
    "spectral.multiplier_kernel.s": "s", "spectral.multiplier_kernel.calls": "count",
    "spectral.kernel.bytes": "bytes", "spectral.symbol_tail_bound.s": "s",
    "spectral.save_kernel.s": "s", "spectral.load_kernel.s": "s",
    "norms.triple_norm.s": "s",
    "domains.build.s": "s", "domains.build_fd.s": "s", "domains.save.s": "s",
    "domains.save.bytes": "bytes", "domains.load.s": "s",
    "domains.gradients.s": "s", "domains.fd_gradient.s": "s",
    "littlewood_paley.phi.calls": "count",
    "reports.save.s": "s", "reports.bytes": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}

# Span-time metrics: metric -> span names summed (outermost spans only).
SPAN_TIMES = {
    "spectral.endpoint_norms.s": ["spectral.endpoint_norms"],
    "spectral.gradient_kernels.s": ["spectral.gradient_kernels"],
    "spectral.analyze.s": ["spectral.analyze"],
    "spectral.synthesize.s": ["spectral.synthesize"],
    "spectral.apply_multiplier.s": ["spectral.apply_multiplier"],
    "spectral.resolvent_gamma.s": ["spectral.resolvent_gamma"],
    "norms.block_lp_table.s": ["norms.block_lp_table"],
    "norms.besov.s": ["norms.besov_inhom", "norms.besov_hom"],
    "norms.seminorm.s": ["norms.seminorm_pM", "norms.seminorm_qM"],
    "norms.amalgam.s": ["norms.amalgam_norm"],
    "spectral.multiplier_kernel.s": ["spectral.multiplier_kernel"],
    "spectral.symbol_tail_bound.s": ["spectral.symbol_tail_bound"],
    "spectral.save_kernel.s": ["spectral.save_kernel"],
    "spectral.load_kernel.s": ["spectral.load_kernel"],
    "norms.triple_norm.s": ["norms.triple_norm"],
    "domains.build.s": ["domains.build_interval_basis", "domains.build_rectangle_basis"],
    "domains.build_fd.s": ["domains.build_fd_basis"],
    "domains.save.s": ["domains.save_basis"],
    "domains.load.s": ["domains.load_basis"],
    "domains.gradients.s": ["domains.EigenBasis.gradients"],
    "domains.fd_gradient.s": ["domains.fd_gradient"],
    "reports.save.s": ["reports.EstimateReport.save"],
}
SPAN_CALLS = {
    "spectral.analyze.calls": "spectral.analyze",
    "spectral.synthesize.calls": "spectral.synthesize",
    "norms.block_lp_table.calls": "norms.block_lp_table",
    "spectral.multiplier_kernel.calls": "spectral.multiplier_kernel",
    "littlewood_paley.phi.calls": "littlewood_paley.PartitionOfUnity.phi",
}
# Set-up metrics of apply/assemble come from the one traced set-up.
SETUP_METRICS = ("domains.build.s", "domains.build_fd.s", "domains.save.s",
                 "domains.save.bytes", "domains.load.s")


def layer_metrics(spans, scale: float = 1.0) -> dict:
    """Per-layer metrics of a span set, each divided by ``scale``."""
    from tracer import LAYERS, outermost_total, self_times

    own = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        if s.layer in LAYERS:
            m[f"{s.layer}.self_s"] += own[s.sid]
    for name, group in SPAN_TIMES.items():
        m[name] = outermost_total(spans, group)
    for name, span_name in SPAN_CALLS.items():
        m[name] = float(sum(s.name == span_name for s in spans))
    m["spectral.endpoint_norms.vector_s"] = outermost_total(
        [s for s in spans if s.name != "spectral.endpoint_norms" or s.attrs.get("vector")],
        ["spectral.endpoint_norms"])
    m["spectral.kernel.bytes"] = float(sum(s.attrs.get("bytes", 0) for s in spans
                                           if s.name.startswith("spectral.")))
    m["domains.save.bytes"] = float(sum(s.attrs.get("bytes", 0) for s in spans
                                        if s.name == "domains.save_basis"))
    m["reports.bytes"] = float(sum(s.attrs.get("bytes", 0) for s in spans
                                   if s.name == "reports.EstimateReport.save"))
    # Experiments are the direct children of run_suite.
    suite_spans = [s for s in spans if s.name == "verify.run_suite"]
    suite_ids = {s.sid for s in suite_spans}
    exps = [s for s in spans if s.parent in suite_ids and s.name.startswith("verify.exp.")]
    for e in EXPERIMENT_IDS:
        m[f"verify.exp.{e}.s"] = sum(s.dur for s in exps if s.name == f"verify.exp.{e}")
    busy = sum(s.dur for s in exps)
    threads = len({s.thread for s in exps})
    suite_wall = sum(s.dur for s in suite_spans)
    m["verify.pool.busy_s"] = busy
    m["verify.pool.efficiency"] = busy / (threads * suite_wall) if suite_wall else 0.0
    return {k: v / scale if k != "verify.pool.efficiency" else v for k, v in m.items()}


# ---------------------------------------------------------------------------
# Machine facts


def machine_facts(bases) -> dict:
    import numpy
    import scipy
    from workloads import computed_sizes

    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        try:
            with open(os.path.join(cache_dir, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, entry, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(cache_dir, entry, "type")) as fh:
                kind = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
        elif kind == "Data":
            caches["L1d"] = size
    blas = {}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": caches,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bases": computed_sizes(bases),
    }


# ---------------------------------------------------------------------------
# Workload runners


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentiles(latencies_s):
    import numpy as np

    lat = np.asarray(latencies_s) * 1e3
    p50, p95 = np.percentile(lat, [50, 95])
    return float(p50), float(p95), int(np.sum(lat > p95))


def _import_seconds(repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter that imports nbesov."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nbesov"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_suite_workload(seed: int, trace: bool, tmp: str, tracer):
    from nbesov.verify import common
    from workloads import check_suite, run_suite_timed

    setup_s = None if trace else _import_seconds()
    reports, times, wall, cpu = run_suite_timed(seed, os.path.join(tmp, "reports"))
    problems = check_suite(reports, os.path.join(tmp, "reports"))
    details = {"experiment_s": times, "problems": problems, "op_samples": len(times)}
    if not trace:
        p50, p95, above = _percentiles(list(times.values()))
        details["op_above_p95"] = above
        metrics = {"wall_s": wall, "setup_s": setup_s, "cpu_s": cpu,
                   "peak_rss_mb": _peak_rss_mb(), "op_p50_ms": p50, "op_p95_ms": p95,
                   "ok_frac": 1.0 - len(problems) / len(reports)}
        return metrics, len(reports), len(problems), not problems, details
    # Traced: the untraced run above was the reference; rerun cold and traced.
    common.interval_basis.cache_clear()
    common.rectangle_basis.cache_clear()
    del reports
    gc.collect()
    tracer.install()
    try:
        t_reports, _, t_wall, _ = run_suite_timed(seed, os.path.join(tmp, "reports_traced"))
    finally:
        tracer.uninstall()
    t_problems = check_suite(t_reports, os.path.join(tmp, "reports_traced"))
    metrics = layer_metrics(tracer.spans)
    metrics.update({"trace.wall_s": t_wall, "trace.overhead_s": t_wall - wall,
                    "trace.spans": float(len(tracer.spans))})
    details["problems_traced"] = t_problems
    return metrics, len(t_reports), len(t_problems), not t_problems, details


def _stream_summary(outcomes, n_passes):
    import numpy as np

    per_pass_wall = np.zeros(n_passes)
    per_pass_cpu = np.zeros(n_passes)
    for o in outcomes:
        per_pass_wall[o.pass_index] += o.latency_s
        per_pass_cpu[o.pass_index] += o.cpu_s
    failed = [o for o in outcomes if o.error is not None]
    unexpected = [o for o in failed if not o.known_defect]
    return per_pass_wall, per_pass_cpu, failed, unexpected


def run_stream_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: str,
                        tracer):
    from nbesov.littlewood_paley import make_partition
    from workloads import SETUP_REPEATS, WORKLOAD_BASES, run_stream, setup_bases

    names = WORKLOAD_BASES[workload]
    pou = make_partition("standard")
    setup_times = []
    if trace:
        tracer.install()
        with tracer.span("bench.setup", rid="setup"):
            bases = setup_bases(names, tmp)
        tracer.uninstall()
    else:
        for _ in range(SETUP_REPEATS):
            bases = None
            gc.collect()
            t0 = time.perf_counter()
            bases = setup_bases(names, tmp)
            setup_times.append(time.perf_counter() - t0)
    budget = seconds / 2 if trace else seconds
    outcomes, n_passes = run_stream(workload, bases, seed, pou, tmp, tracer, seconds=budget)
    wall, cpu, failed, unexpected = _stream_summary(outcomes, n_passes)
    lat = [o.latency_s for o in outcomes if o.error is None]
    p50, p95, above = _percentiles(lat)
    details = {
        "passes": n_passes, "requests_per_pass": len(outcomes) // n_passes,
        "op_samples": len(lat), "op_above_p95": above,
        "failed_by_kind": _count_failures(failed),
        "unexpected_failures": [f"{o.op}@{o.basis}: {o.error}" for o in unexpected][:10],
        "setup_runs_s": setup_times,
    }
    correct = not unexpected
    if not trace:
        metrics = {"wall_s": float(statistics.median(wall)),
                   "setup_s": statistics.median(setup_times),
                   "cpu_s": float(statistics.median(cpu)),
                   "peak_rss_mb": _peak_rss_mb(), "op_p50_ms": p50, "op_p95_ms": p95,
                   "ok_frac": 1.0 - len(failed) / len(outcomes)}
        return metrics, len(outcomes), len(failed), correct, details
    # Traced: the same passes again, recorded.
    tracer.install()
    t_outcomes, _ = run_stream(workload, bases, seed, pou, tmp, tracer, n_passes=n_passes)
    tracer.uninstall()
    t_wall, _, t_failed, t_unexpected = _stream_summary(t_outcomes, n_passes)
    setup = [s for s in tracer.spans if s.rid == "setup"]
    requests = [s for s in tracer.spans if s.rid != "setup"]
    metrics = layer_metrics(requests, scale=n_passes)
    metrics.update({k: v for k, v in layer_metrics(setup).items() if k in SETUP_METRICS})
    metrics.update({"trace.wall_s": float(t_wall.mean()),
                    "trace.overhead_s": float(t_wall.mean() - wall.mean()),
                    "trace.spans": float(len(requests)) / n_passes})
    details["traced_failed_by_kind"] = _count_failures(t_failed)
    return (metrics, len(t_outcomes), len(t_failed), correct and not t_unexpected, details)


def _count_failures(failed) -> dict:
    out = {}
    for o in failed:
        key = f"{o.op}@{o.basis}" + (" (known defect)" if o.known_defect else "")
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("suite", "apply", "assemble"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nbesov", "__init__.py")):
        print(f"perfbench: no nbesov sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import nbesov
    from tracer import Tracer
    from workloads import BASES, WORKLOAD_BASES

    if not os.path.abspath(nbesov.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported nbesov from {nbesov.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    tracer = Tracer()
    trace = bool(args.trace)
    try:
        if args.workload == "suite":
            result = run_suite_workload(args.seed, trace, tmp, tracer)
        else:
            result = run_stream_workload(args.workload, args.seed, args.seconds, trace, tmp,
                                         tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    metrics, attempted, failed, correct, details = result

    units = PER_LAYER if trace else END_TO_END
    names = list(units)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    facts = machine_facts(WORKLOAD_BASES.get(args.workload, tuple(BASES)))
    printed = {n: {"value": metrics[n], "unit": units[n]} for n in names}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": facts, "details": details, "metrics": printed}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if trace:
        tracer.dump(os.path.join(OUT, f"spans-{tag}.json"))

    for n in names:
        print(f"{n} = {metrics[n]!r} {units[n]}")
    print("facts " + json.dumps(facts, default=str))
    print("details " + json.dumps(details, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
