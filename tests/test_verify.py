import csv
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from nbesov.reports import FAIL, INCONCLUSIVE, PASS, EstimateReport
from nbesov.verify import (
    DEFAULT_IDS,
    REGISTRY,
    ExperimentSpec,
    resolve_ids,
    run_suite,
    suite_exit_code,
)
from nbesov.domains import (
    EigenBasis,
    build_interval_basis,
    build_rectangle_basis,
    weyl_eigenvalue_estimate,
)
from nbesov.norms import AmalgamParams, amalgam_cells, amalgam_columns, triple_norm
from nbesov.spectral import (
    OperatorKernel,
    bump_symbol,
    heat_kernel,
    magnitude_norms,
    multiplier_kernel,
    resolvent_symbol,
)
from nbesov.verify import amalgam
from nbesov.verify.amalgam import _block_operator_bounds, _column_tail_bound, exp_amalgam
from nbesov.littlewood_paley import make_partition
from nbesov.verify.common import coeff_batch, conclude, resynthesis_residual
from nbesov.verify.multipliers import _LOWFREQ_BUILDERS, exp_gradient, exp_low_freq_decay

NEG_IDS = [k for k in REGISTRY if k.startswith("neg_")]


@pytest.fixture(scope="module")
def control_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("control_reports")
    reports = run_suite(ids=NEG_IDS, out_dir=str(out))
    return {"reports": {r.id: r for r in reports}, "out_dir": out}


def test_default_suite_passes(suite_reports):
    reports = suite_reports["reports"]
    assert set(reports) == set(DEFAULT_IDS)
    bad = {rid: r.verdict for rid, r in reports.items() if r.verdict != PASS}
    assert not bad, f"non-pass verdicts: {bad}"
    assert suite_exit_code(reports.values()) == 0


def test_every_experiment_gets_its_own_seed(suite_reports):
    reports = suite_reports["reports"]
    seeds = [reports[rid].seed for rid in DEFAULT_IDS]
    assert len(set(seeds)) == len(seeds)
    # Seeds derive from the registry position, not the request order.
    assert reports["duality"].seed == 101 * list(REGISTRY).index("duality")


def test_subset_rerun_reproduces_suite_reports(suite_reports):
    """A partial run must produce byte-identical canonical reports: seeding
    depends on registry position, never on which experiments ride along."""
    fresh = run_suite(ids=["duality", "reconstruction"])
    want = suite_reports["reports"]
    for rep in fresh:
        assert rep.to_json() == want[rep.id].to_json()


def test_run_suite_refuses_more_than_one_job():
    with pytest.raises(ValueError, match="jobs=2"):
        run_suite(ids=["duality"], jobs=2)


def test_saved_report_files(suite_reports):
    out = suite_reports["out_dir"]
    reports = suite_reports["reports"]
    for rid, rep in reports.items():
        with open(os.path.join(out, f"{rid}.json")) as fh:
            payload = json.load(fh)
        assert payload["id"] == rid
        assert payload["verdict"] == rep.verdict
        # Canonical payloads exclude wall-clock noise and figure arrays.
        assert "runtime" not in payload
        assert "figures" not in payload
        if rep.points:
            with open(os.path.join(out, f"{rid}.points.csv")) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == len(rep.points) + 1
        for name in rep.figures:
            fpath = os.path.join(out, f"{rid}.{name}.dat")
            assert os.path.getsize(fpath) > 0
    # At least these two are expected to ship plot-ready data.
    assert reports["amalgam"].figures
    assert reports["moment_decay"].figures


def test_negative_controls_fail_loudly():
    reports = run_suite(ids=NEG_IDS)
    for rep in reports:
        assert rep.verdict == FAIL, rep.id
        assert any("expected outcome" in n for n in rep.notes), rep.id
    assert suite_exit_code(reports) == 3


def test_resolve_ids_accepts_exp_prefix():
    assert resolve_ids(["exp_reconstruction", "duality"]) == ["reconstruction", "duality"]


def test_resolve_ids_rejects_unknown():
    with pytest.raises(ValueError, match="unknown experiment"):
        resolve_ids(["reconstructoin"])


def test_override_with_unknown_parameter_rejected():
    with pytest.raises(ValueError, match="unknown parameters"):
        run_suite(ids=["reconstruction"], overrides={"reconstruction": {"bogus": 1}})


def test_reduced_override_run():
    reports = run_suite(
        ids=["reconstruction"], overrides={"reconstruction": {"n_samples": 5}}
    )
    assert reports[0].verdict == PASS
    assert reports[0].params["n_samples"] == 5


def test_perturbed_variant_run():
    reports = run_suite(ids=["reconstruction"], pou_variant="perturbed")
    assert reports[0].verdict == PASS


def test_suite_exit_code_precedence():
    def rep(verdict):
        return EstimateReport(id="x", params={}, verdict=verdict)

    assert suite_exit_code([]) == 0
    assert suite_exit_code([rep(PASS), rep(PASS)]) == 0
    assert suite_exit_code([rep(PASS), rep(INCONCLUSIVE)]) == 2
    assert suite_exit_code([rep(FAIL), rep(INCONCLUSIVE), rep(PASS)]) == 3


def _assert_reloads(raw, loaded, where):
    """The reloaded JSON value keeps the in-memory value and its type class."""
    if isinstance(raw, dict):
        assert sorted(loaded) == sorted(str(k) for k in raw), where
        for k, v in raw.items():
            _assert_reloads(v, loaded[str(k)], f"{where}.{k}")
    elif isinstance(raw, (list, tuple, np.ndarray)):
        assert len(loaded) == len(raw), where
        for i, v in enumerate(raw):
            _assert_reloads(v, loaded[i], f"{where}[{i}]")
    elif isinstance(raw, (bool, np.bool_)):
        assert type(loaded) is bool and loaded == bool(raw), where
    elif isinstance(raw, (int, np.integer)):
        assert type(loaded) is int and loaded == int(raw), where
    elif isinstance(raw, (float, np.floating)) and not np.isfinite(raw):
        assert loaded == str(float(raw)), where
    elif isinstance(raw, (float, np.floating)):
        assert type(loaded) is float and loaded == float(raw), where
    else:
        assert loaded == raw, where


def _csv_agrees(cell: str, value) -> bool:
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == str(value)
    if isinstance(value, (int, float)):
        return float(cell) == value
    return cell == value


@pytest.mark.parametrize("which", ["suite_reports", "control_reports"])
def test_canonical_reports_reload_with_their_types(which, request):
    run = request.getfixturevalue(which)
    for rid, rep in run["reports"].items():
        with open(os.path.join(run["out_dir"], f"{rid}.json")) as fh:
            payload = json.load(fh)
        for key in ("params", "points", "fit"):
            _assert_reloads(getattr(rep, key), payload[key], f"{rid}.{key}")
        if not rep.points:
            continue
        with open(os.path.join(run["out_dir"], f"{rid}.points.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(payload["points"])
        for row, point in zip(rows, payload["points"]):
            for col, cell in row.items():
                assert _csv_agrees(cell, point.get(col)), (rid, col, cell, point.get(col))


def test_fail_verdict_iff_one_failed_note(suite_reports, control_reports):
    reports = {**suite_reports["reports"], **control_reports["reports"]}
    assert len(reports) == len(REGISTRY)
    for rid, rep in reports.items():
        failed = [n for n in rep.notes if n.startswith("failed: ")]
        names_check = len(failed) == 1 and failed[0][len("failed: "):].strip() != ""
        assert (rep.verdict == FAIL) == names_check, (rid, rep.verdict, rep.notes)


def test_too_few_scales_is_inconclusive_without_failures():
    rep = run_suite(ids=["multiplier_scaling"],
                    overrides={"multiplier_scaling": {"j_hi": 4}})[0]
    assert rep.verdict == INCONCLUSIVE
    assert not [n for n in rep.notes if n.startswith("failed:")]
    assert rep.notes[-1] == "only 3 scales j in [2, 4]; a slope fit needs 4"


def test_amalgam_failure_outranks_an_unresolved_gap():
    overrides = {"amalgam": {"slope_tol": 0.0, "gap_cap": 1.0,
                             "n_theta_1d": 3, "n_theta_2d": 2}}
    rep = run_suite(ids=["amalgam"], overrides=overrides)[0]
    assert rep.fit["bump_gap"] > 1.0  # the gap alone would be inconclusive
    assert rep.verdict == FAIL
    assert rep.notes[-1].startswith("failed: 1d beta=1 slope")
    assert not any("bump bound gap" in n for n in rep.notes)


@pytest.mark.parametrize("checks, reason, verdict, last", [
    ({}, None, PASS, None),
    ({}, "too few points", INCONCLUSIVE, "too few points"),
    ({"a": True, "b": True}, None, PASS, None),
    ({"a": True, "b": True}, "too few points", INCONCLUSIVE, "too few points"),
    ({"a": False, "b": True, "c": np.False_}, None, FAIL, "failed: a; c"),
    ({"a": False, "b": True}, "too few points", FAIL, "failed: a"),
])
def test_conclude_verdict_table(checks, reason, verdict, last):
    spec = ExperimentSpec(id="x", seed=7)
    rep = conclude(spec, checks, reason, ["own note"], params={"k": 1})
    assert (rep.id, rep.seed, rep.verdict, rep.params) == ("x", 7, verdict, {"k": 1})
    assert rep.notes == ["own note"] + ([last] if last else [])


@pytest.mark.parametrize("basis", [build_interval_basis(math.pi, 65, N=128),
                                   build_rectangle_basis(math.pi, math.pi, 40, Nx=16, Ny=16)],
                         ids=["interval", "rectangle"])
def test_column_tail_bound_is_the_squared_symbol_tail(basis):
    """sqrt(n_cells * symbol_tail_bound(phi^2)) against the Weyl sum written out."""
    for beta, theta in [(1.0, 1e-3), (2.0, 0.1)]:
        sym = resolvent_symbol(beta, 1.0, theta)
        ks = np.arange(basis.K + 1, basis.K + 1 + 200_000)
        lam = np.maximum(weyl_eigenvalue_estimate(basis.domain, ks), basis.eigenvalues[-1])
        sup2 = float(np.max(np.abs(basis.functions)) ** 2)
        want = math.sqrt(7 * sup2 * float(np.sum(sym(lam) ** 2)))
        assert _column_tail_bound(sym, basis, 7) == pytest.approx(want, rel=1e-14)


def _svd_block_bounds(kernel, theta, rng, n_probes):
    """Oracle for _block_operator_bounds: one batched SVD of the weighted
    blocks B_rc per cube-size pair, summed over row cubes, for the upper
    bound; triple_norm(kernel, 0, theta) and the same random probes for the
    lower bound."""
    cells = amalgam_cells(kernel.grid, theta)
    w = kernel.grid.weights
    sw = np.sqrt(w)
    Kw = sw[:, None] * kernel.matrix * sw[None, :]
    by_size: dict[int, list[int]] = {}
    for i, (_, idx) in enumerate(cells):
        by_size.setdefault(len(idx), []).append(i)
    groups = [(np.asarray(ids), np.stack([cells[i][1] for i in ids])) for ids in by_size.values()]
    S = np.zeros((len(cells), len(cells)))
    for ids1, A in groups:
        for ids2, B in groups:
            blocks = Kw[A[:, None, :, None], B[None, :, None, :]]
            S[np.ix_(ids1, ids2)] = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    G = rng.standard_normal((kernel.grid.n_nodes, n_probes))
    params = AmalgamParams(p=1.0, q=2.0, theta=theta)
    ratios = (amalgam_columns(kernel.matrix @ (w[:, None] * G), kernel.grid, params)
              / amalgam_columns(G, kernel.grid, params))
    single = triple_norm(kernel, 0.0, theta)
    assert single >= np.max(ratios)  # the comparison below reaches the single-cube value
    return float(S.sum(axis=0).max()), single


@pytest.mark.parametrize("build, thetas", [
    (lambda: build_interval_basis(math.pi, 257, N=512),
     np.geomspace(4.0 * (math.pi / 512) ** 2, 1.0, 9)),
    (lambda: build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32), (0.1, 0.3)),
], ids=["i512", "rect32"])
def test_gram_bounds_match_the_svd_and_triple_norm_oracles(build, thetas):
    """The experiment's 9 theta on i512; on the rectangle the cubes come in
    9 and 10 sizes."""
    basis, pou = build(), make_partition("standard")
    for theta in thetas:
        ker = multiplier_kernel(bump_symbol(pou, theta), basis)
        got = _block_operator_bounds(ker, theta, np.random.default_rng(1), 64)
        want = _svd_block_bounds(ker, theta, np.random.default_rng(1), 64)
        assert got == pytest.approx(want, rel=1e-14, abs=0), theta


def test_amalgam_calls_triple_norm_only_at_positive_alpha(monkeypatch):
    """The bump bounds read every alpha = 0 value from the per-cube Gram
    matrices, with no SVD."""
    seen = []

    def positive_only(kernel, alpha, theta):
        assert alpha > 0, "triple_norm called at alpha = 0"
        seen.append(alpha)
        return triple_norm(kernel, alpha, theta)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(amalgam, "triple_norm", positive_only)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    rep = exp_amalgam(ExperimentSpec(id="amalgam", params={"n_theta_1d": 3, "n_theta_2d": 2}))
    assert len(rep.points) and sorted(set(seen)) == [0.5, 1.0]


def _resynthesis_loop(F, C, basis, pou, js, cap):
    """The cap-plus-blocks loop the reconstruction experiments wrote by hand."""
    E, lam, w = basis.functions, basis.eigenvalues, basis.grid.weights
    sq = np.sqrt(np.maximum(lam, 0.0))
    rec = E.T @ (pou.psi(lam)[:, None] * C) if cap else np.zeros_like(F)
    for j in js:
        rec += E.T @ (pou.phi(j, sq)[:, None] * C)
    return np.sqrt(w @ (F - rec) ** 2) / np.sqrt(w @ F**2)


@pytest.mark.parametrize("build", [
    lambda: build_interval_basis(math.pi, 64, N=512),
    lambda: build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32),
])
@pytest.mark.parametrize("cap, j_lo", [(True, 1), (False, 0)])
def test_resynthesis_residual_is_the_hand_loop(build, cap, j_lo):
    basis, pou = build(), make_partition("standard")
    C = coeff_batch(np.random.default_rng(0), basis.K, 7, decay=0.05)
    F = basis.functions.T @ C
    js = range(j_lo, 7)
    got = resynthesis_residual(F, C, basis, pou, js, cap=cap)
    assert got.tobytes() == _resynthesis_loop(F, C, basis, pou, js, cap).tobytes()
    if cap:
        assert got.max() < 1e-8


def test_duality_pairs_its_mean_zero_function_with_the_constant(suite_reports):
    """mean_zero_pairing is the midpoint-rule integral of f = e_1 + ... + e_4
    on the coarse (K=64, N=512) interval basis, recomputed here from the
    closed-form cosines."""
    L, N = math.pi, 512
    x = (np.arange(N) + 0.5) * (L / N)
    f = sum(math.sqrt(2.0 / L) * np.cos(k * x) for k in range(1, 5))
    pairing = abs(float(np.sum(f)) * (L / N))
    reported = suite_reports["reports"]["duality"].fit["mean_zero_pairing"]
    assert reported <= 1e-12 and abs(reported - pairing) <= 1e-14


def test_gradient_experiment_forms_no_kernel(monkeypatch):
    """exp_gradient and magnitude_norms read interval kernels in row blocks;
    forming a dense (N, N) kernel or the (K, N) mode-gradient table would
    call one of these."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense array formed")

    monkeypatch.setattr(OperatorKernel, "matrix", property(refuse))
    monkeypatch.setattr(EigenBasis, "gradients", refuse)
    rep = exp_gradient(ExperimentSpec(id="gradient", params={"K": 129, "N": 256, "j_hi": 1}))
    assert [p["j"] for p in rep.points if p["kind"] == "block"] == [-3, -2, -1, 0, 1]
    assert rep.fit["constant_gradient"] < 1e-10
    N = 2048
    ker = heat_kernel(0.05, build_interval_basis(32 * math.pi, N // 2 + 1, N=N))
    tracemalloc.start()
    try:
        magnitude_norms(ker)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8 / 8


@pytest.mark.parametrize("fake", [None, 2.0**-12])
def test_low_freq_1inf_is_the_dense_kernel_max(fake):
    """The PSD diagonal value of exp_low_freq_decay against max |K_ij| of
    the kernel E^T diag(s) E formed densely, on its three bases, with and
    without the faked second eigenvalue of the negative control."""
    rep = exp_low_freq_decay(ExperimentSpec(id="low_freq_decay", params={"fake_lambda2": fake}))
    pou = make_partition("standard")
    for name, build in _LOWFREQ_BUILDERS.items():
        basis = build()
        lam = basis.eigenvalues.copy()
        if fake is not None:
            lam[1] = fake
        sq, E = np.sqrt(np.maximum(lam, 0.0)), basis.functions
        points = [p for p in rep.points if p["domain"] == name]
        assert len(points) == 9 and any(p["norm1inf"] > 0 for p in points)
        for p in points:
            want = float(np.max(np.abs((E.T * pou.phi(p["j"], sq)) @ E)))
            assert p["norm1inf"] == pytest.approx(want, rel=1e-15, abs=0), (name, p["j"])
