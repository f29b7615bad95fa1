"""Self-tests of the benchmark: stream, coverage, tracing, output contract.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The last two tests run the benchmark end to end (about a minute).
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH, ROOT
from tracer import Span, Tracer, outermost_total, self_times
import workloads as wl

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["apply", "assemble"])
def test_a_seed_always_generates_the_same_stream(workload):
    for index in range(3):
        assert wl.make_pass(workload, 7, index) == wl.make_pass(workload, 7, index)
    assert wl.make_pass(workload, 7, 0) != wl.make_pass(workload, 8, 0)
    assert wl.make_pass(workload, 7, 0) != wl.make_pass(workload, 7, 1)


@pytest.mark.parametrize("workload", ["apply", "assemble"])
def test_each_pass_reaches_every_op_on_every_basis(workload):
    pairs = {(r.op, r.basis) for r in wl.make_pass(workload, 0, 0)}
    assert pairs == {(op, b) for op in wl.WORKLOAD_OPS[workload]
                     for b in wl.WORKLOAD_BASES[workload]}
    assert len(wl.make_pass(workload, 0, 0)) == len(pairs)


def test_stream_names_the_ops_and_bases_of_the_workloads():
    assert set(wl.WORKLOAD_OPS["apply"]) == {
        "transform", "apply_multiplier", "resolvent_gamma", "besov_inhom", "besov_hom",
        "seminorm_pM", "seminorm_qM", "block_lp_table", "amalgam_norm", "gradient"}
    assert set(wl.WORKLOAD_OPS["assemble"]) == {
        "block", "power_block", "cap", "resolvent", "heat", "triple_norm", "kernel_roundtrip"}
    assert wl.WORKLOAD_BASES["apply"] == ("i512", "i2048", "rect", "L05", "L025")
    assert wl.WORKLOAD_BASES["assemble"] == ("i512", "i2048", "rect", "L05")
    symbols = {r.param("symbol") for i in range(20) for r in wl.make_pass("apply", 0, i)
               if r.op == "apply_multiplier"}
    assert symbols == {"heat", "block"}


def test_experiment_ids_match_the_registry():
    from nbesov.verify import REGISTRY
    import run

    assert list(run.EXPERIMENT_IDS) == list(REGISTRY)


def test_benchmark_json_lists_the_printed_metric_names():
    import run

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["suite", "apply", "assemble"]


def test_self_time_subtracts_covered_child_time():
    spans = [Span(1, "verify.a", "r", None, 0, 0.0, 10.0),
             Span(2, "spectral.b", "r", 1, 0, 1.0, 4.0),
             Span(3, "spectral.b", "r", 2, 0, 2.0, 3.0),
             Span(4, "norms.c", "r", 1, 1, 3.0, 6.0)]  # another thread, overlapping
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0}
    assert outermost_total(spans, ["spectral.b"]) == 3.0


def test_tracer_wraps_module_attributes_and_from_imports():
    import nbesov.norms
    import nbesov.spectral
    import nbesov.verify.heat
    from nbesov.verify import runner

    originals = (nbesov.spectral.analyze, nbesov.norms.analyze,
                 nbesov.verify.heat.heat_kernel, runner.REGISTRY["gradient"])
    tracer = Tracer()
    tracer.install()
    try:
        assert nbesov.spectral.analyze is nbesov.norms.analyze
        assert nbesov.spectral.analyze is not originals[0]
        assert nbesov.verify.heat.heat_kernel is not originals[2]
        assert runner.REGISTRY["gradient"] is not originals[3]
        basis = wl.build_basis("i512")
        f = nbesov.spectral.GridFunction(np.ones(512), basis.grid)
        nbesov.norms.seminorm_pM(f, 1.0, nbesov.make_partition(), basis)
    finally:
        tracer.uninstall()
    assert (nbesov.spectral.analyze, nbesov.norms.analyze, nbesov.verify.heat.heat_kernel,
            runner.REGISTRY["gradient"]) == originals
    names = {s.name for s in tracer.spans}
    assert {"domains.build_interval_basis", "norms.seminorm_pM", "spectral.analyze",
            "norms.block_lp_table", "littlewood_paley.PartitionOfUnity.phi"} <= names
    top = [s for s in tracer.spans if s.name == "norms.seminorm_pM"][0]
    inner = [s for s in tracer.spans if s.name == "spectral.analyze"][0]
    assert inner.parent == top.sid and inner.rid == top.rid


def test_rectangle_gradient_is_the_known_defect():
    from nbesov.littlewood_paley import make_partition

    basis = wl.build_basis("rect")
    req = [r for r in wl.make_pass("apply", 0, 0) if r.op == "gradient" and r.basis == "rect"][0]
    with pytest.raises(ValueError) as info:
        wl.run_op(req, basis, wl.make_input(req, basis), make_partition(), "")
    assert wl.is_known_defect(req.op, req.basis, info.value)
    assert not wl.is_known_defect("gradient", "i512", info.value)


@pytest.mark.parametrize("op", ["transform", "block", "triple_norm"])
def test_checks_accept_outputs_and_reject_corrupted_ones(op):
    from nbesov.littlewood_paley import make_partition

    pou = make_partition()
    basis = wl.build_basis("i512")
    workload = "apply" if op == "transform" else "assemble"
    req = [r for r in wl.make_pass(workload, 0, 0) if r.op == op and r.basis == "i512"][0]
    inp = wl.make_input(req, basis)
    out = wl.run_op(req, basis, inp, pou, "")
    assert wl.check_op(req, basis, inp, pou, out) is None
    if op == "transform":
        bad = (out[0] * (1 + 1e-6), out[1])
    elif op == "block":
        out[0].matrix[0, 0] += 1e-3 * np.abs(out[0].matrix).max()
        bad = out
    else:
        bad = (out[0], out[1] * (1 + 1e-6))
    assert wl.check_op(req, basis, inp, pou, bad) is not None


def test_traced_self_times_sum_to_traced_wall():
    res = _run("--workload", "apply", "--seed", "3", "--seconds", "2", "--trace", "1")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    assert all(res["metrics"][x["name"]]["unit"] == x["unit"] for x in SPEC["per_layer"])
    total = sum(m[f"{layer}.self_s"] for layer in
                ("verify", "spectral", "norms", "domains", "littlewood_paley", "reports"))
    wall = m["trace.wall_s"]
    # Benchmark glue between requests and library calls is outside every
    # layer, so the sum falls short of the wall time by at most about the
    # tracing overhead.
    assert 0.0 <= wall - total <= max(m["trace.overhead_s"], 0.0) + 0.05 * wall
    assert m["domains.fd_gradient.s"] > 0 and m["domains.build_fd.s"] > 0
    assert res["correct"] and res["failed"] * 50 == res["attempted"]


def test_printed_end_to_end_metrics_match_benchmark_json():
    expect = {x["name"]: x["unit"] for x in SPEC["end_to_end"]}
    for workload in ("assemble", "suite"):
        res = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expect
        assert all(math.isfinite(v["value"]) and v["value"] > 0
                   for v in res["metrics"].values())
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
