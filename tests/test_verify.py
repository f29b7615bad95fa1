import csv
import json
import math
import os
import tracemalloc
import warnings

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
    build_fd_basis,
    build_interval_basis,
    build_rectangle_basis,
    lshape_domain,
)
from nbesov import norms, spectral
from nbesov.norms import amalgam_cells, cube_block_norms, triple_norm
from nbesov.spectral import (
    OperatorKernel,
    block_symbol,
    bump_symbol,
    endpoint_norms,
    gradient_kernels,
    heat_kernel,
    heat_symbol,
    multiplier_kernel,
    resolvent_symbol,
)
from nbesov.verify import amalgam, moments, multipliers
from nbesov.verify.amalgam import AMALGAM_DEFAULTS, _column_tail_bound, exp_amalgam
from nbesov.littlewood_paley import make_partition
from nbesov.verify.besov import (
    DUALITY_DEFAULTS,
    EMBED_DEFAULTS,
    LEIBNIZ_DEFAULTS,
    PARTITION_DEFAULTS,
    RECON_DEFAULTS,
)
from nbesov.verify.common import (
    TAIL_FRAC,
    coeff_batch,
    conclude,
    geometric_spread,
    interval_basis,
    record_claim,
    resynthesis_residual,
    screened_fit,
)
from nbesov.verify.heat import HEAT_DEFAULTS
from nbesov.verify.moments import MOMENT_DEFAULTS, exp_moment_decay
from nbesov.verify.multipliers import (
    _LOWFREQ_BUILDERS,
    GRADIENT_DEFAULTS,
    LOWFREQ_DEFAULTS,
    MULTIPLIER_DEFAULTS,
    exp_gradient,
    exp_low_freq_decay,
)

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


def test_no_report_writes_an_empty_figure_file(tmp_path):
    # The fake-eigenvalue control runs exp_low_freq_decay without
    # interval_long, and an alphas_1d without 0 leaves multiplier_scaling's
    # alpha = 0 slope figure without rows: neither figure file is written.
    reports = run_suite(ids=["neg_fake_eigenvalue", "multiplier_scaling"], out_dir=str(tmp_path),
                        overrides={"multiplier_scaling": {"alphas_1d": [0.5]}})
    names = sorted(os.listdir(tmp_path))
    assert [n for n in names if os.path.getsize(tmp_path / n) == 0] == []
    assert "neg_fake_eigenvalue.decay_interval_long.dat" not in names
    assert "multiplier_scaling.slope_1d_a0_1toinf.dat" not in names
    assert [r.verdict for r in reports] == [FAIL, PASS]


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


@pytest.mark.parametrize("rid, key, value", [
    ("moment_decay", "N", 8192.9), ("heat_gaussian", "interval_K", 200.5),
    ("reconstruction", "n_samples", "5"), ("amalgam", "interval_K", 257.0),
    ("gradient", "K", True),
], ids=["float_for_int", "half_for_int", "string_for_int", "whole_float_for_int", "bool_for_int"])
def test_override_of_another_type_rejected(rid, key, value):
    with pytest.raises(ValueError, match=f"parameter {key}="):
        run_suite(ids=[rid], overrides={rid: {key: value}})


def test_override_takes_its_default_type():
    """int for int (numpy's too), int or float for float, a number for
    None, a list for a tuple."""
    defaults = {"n": 1, "x": 1.0, "opt": None, "seq": (1, 2)}
    given = {"n": np.int64(3), "x": 2, "opt": 0.5, "seq": [3]}
    assert ExperimentSpec("e", params=given).merged(defaults) == defaults | given


def test_reduced_override_run():
    reports = run_suite(
        ids=["reconstruction"], overrides={"reconstruction": {"n_samples": 5}}
    )
    assert reports[0].verdict == PASS
    assert reports[0].params["n_samples"] == 5


def test_perturbed_variant_run(no_dense_kernels):
    # The amalgam readers take the kernel through row_blocks() and mode factors.
    reports = run_suite(ids=["reconstruction", "amalgam"], pou_variant="perturbed")
    assert [r.verdict for r in reports] == [PASS, PASS]


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
    assert not any("kept; a fit needs" in n for n in rep.notes)


def test_vanishing_dyadic_blocks_are_named_and_leave_their_claims_unresolved():
    """Blocks j = -2, -1 sit below the first nonzero eigenvalue: each sweep
    drops and names them, and the 3 norms left are fewer than min_points."""
    rep = run_suite(ids=["multiplier_scaling"], overrides={"multiplier_scaling": {
        "j_lo": -2, "j_hi": 2, "alphas_1d": [0.0], "alphas_2d": [0.0]}})[0]
    assert rep.verdict == INCONCLUSIVE
    assert "dropped 1d alpha=0 1->inf 2^j = 0.25, 0.5: the value there is not positive" \
        in rep.notes
    assert rep.notes[-1].startswith("1d alpha=0 1->inf 2^j: 3 of 5 kept; a fit needs 4; ")
    assert rep.notes[-1].count("a fit needs 4") == 6


def test_gradient_blocks_below_the_spectral_gap_fail_with_a_report(tmp_path):
    """Blocks below the first nonzero eigenvalue vanish, so their 2->2 norm
    is 0: the run fails on the block spread and still writes its report."""
    rep = run_suite(ids=["gradient"], overrides={"gradient": {"j_lo": -10}},
                    out_dir=str(tmp_path))[0]
    assert rep.verdict == FAIL
    assert rep.notes[-1].startswith("failed: block spread22")
    assert (tmp_path / "gradient.json").exists()


def test_gradient_with_too_few_kept_t_leaves_the_heat_claim_unresolved():
    """n_t = 2 keeps only t = t_max: the heat claim needs six kept t, and
    it is unresolved rather than failed."""
    rep = run_suite(ids=["gradient"], overrides={"gradient": {"n_t": 2}})[0]
    assert rep.verdict == INCONCLUSIVE
    assert not [n for n in rep.notes if n.startswith("failed:")]
    assert rep.notes[-1] == "heat t: 1 of 2 kept; a fit needs 6"


def test_gradient_on_one_block_scale_leaves_the_block_claims_unresolved():
    """A single block scale gives spreads of exactly 1.0; they are recorded
    in fit but decide nothing."""
    rep = run_suite(ids=["gradient"], overrides={"gradient": {"j_lo": 4, "j_hi": 4}})[0]
    assert rep.verdict == INCONCLUSIVE
    assert not [n for n in rep.notes if n.startswith("failed:")]
    assert rep.notes[-1] == "only 1 block scale j = 4; a spread needs 2"
    assert rep.fit["block"]["spread22"] == 1.0


@pytest.mark.parametrize("rid", ["gradient", "multiplier_scaling"])
def test_an_empty_block_range_is_rejected(rid):
    with pytest.raises(ValueError, match=r"^j_lo=5 > j_hi=4 leaves no block scale$"):
        run_suite(ids=[rid], overrides={rid: {"j_lo": 5, "j_hi": 4}})


def test_amalgam_failure_outranks_an_unresolved_gap():
    overrides = {"amalgam": {"slope_tol": 0.0, "gap_cap": 1.0,
                             "n_theta_1d": 3, "n_theta_2d": 2}}
    rep = run_suite(ids=["amalgam"], overrides=overrides)[0]
    assert rep.fit["bump_gap"] > 1.0  # the gap alone would be inconclusive
    assert rep.verdict == FAIL
    assert rep.notes[-1].startswith("failed: 1d beta=1 slope")
    assert not any("bump bound gap" in n for n in rep.notes)


@pytest.mark.parametrize("seed", range(6))
def test_screened_fit_range_is_the_extreme_over_box_corners(seed):
    """On up to 6 points, [lo, hi] and spread_hi against every corner of
    the kept points' boxes [v - tail, v + tail], and the slope against
    np.polyfit of log v on log x."""
    rng = np.random.default_rng(seed)
    n = 3 + seed % 4
    x = np.sort(rng.uniform(0.01, 10.0, n))
    v = x ** rng.uniform(-1.0, 1.0) * rng.uniform(0.5, 2.0, n)
    t = v * rng.uniform(0.0, TAIL_FRAC, n)
    t[seed % n] = 2 * TAIL_FRAC * v[seed % n] if seed % 2 else TAIL_FRAC * v[seed % n]
    fit = screened_fit("x", x, v, t)
    kept = np.arange(n) != (seed % n if seed % 2 else -1)
    assert np.array_equal(fit.kept, kept) and fit.unresolved is None
    assert (fit.note is None) == bool(kept.all())
    xk, vk, tk = x[kept], v[kept], t[kept]
    corners = [vk + (2 * np.array(c) - 1) * tk for c in np.ndindex(*[2] * len(vk))]
    slopes = [np.polyfit(np.log(xk), np.log(c), 1)[0] for c in corners]
    assert fit.lo == pytest.approx(min(slopes), abs=1e-12)
    assert fit.hi == pytest.approx(max(slopes), abs=1e-12)
    assert fit.slope == pytest.approx(np.polyfit(np.log(xk), np.log(vk), 1)[0], abs=1e-12)
    assert fit.lo <= fit.slope <= fit.hi
    assert fit.spread == geometric_spread(vk)
    assert fit.spread_hi == pytest.approx(max(geometric_spread(c) for c in corners), rel=1e-14)


def test_screened_fit_names_the_dropped_points_and_leaves_one_point_unresolved():
    fit = screened_fit("heat t", [1.0, 2.0, 4.0], [1.0, 1.0, 1.0], [0.5, 0.0, 0.06])
    assert fit.kept.tolist() == [False, True, False]
    assert fit.unresolved == "heat t: 1 of 3 kept; a fit needs 2"
    assert math.isnan(fit.slope) and math.isnan(fit.lo) and math.isnan(fit.spread_hi)
    assert fit.note == ("dropped heat t = 1, 4: the truncation tail exceeds 5% "
                        "of the value there")
    assert screened_fit("t", [1.0, 2.0], [1.0, 2.0], [0.0, 0.1]).note is None


def test_screened_fit_with_zero_tails_is_the_plain_fit_and_spread():
    """The dyadic multiplier sweeps carry zero tails: the range collapses
    to the slope and spread_hi to the spread."""
    js = np.arange(2.0, 7.0)
    v = 2.0 ** (0.9 * js) * np.array([1.0, 1.3, 0.8, 1.1, 1.2])
    fit = screened_fit("2^j", 2.0 ** js, v, np.zeros(5))
    assert fit.kept.all() and fit.note is None and fit.unresolved is None
    assert fit.lo == fit.hi == fit.slope
    assert fit.slope == pytest.approx(np.polyfit(np.log(2.0 ** js), np.log(v), 1)[0], abs=1e-12)
    assert fit.spread == fit.spread_hi == geometric_spread(v)


def test_screened_fit_drops_a_value_that_is_not_positive_without_a_log_of_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = screened_fit("x", [1, 2, 4], [0, 1, 2], [0, 0, 0])
    assert fit.kept.tolist() == [False, True, True] and fit.unresolved is None
    assert fit.note == "dropped x = 1: the value there is not positive"
    assert fit.slope == pytest.approx(1.0, abs=1e-12) and fit.lo == fit.hi == fit.slope
    assert fit.spread == fit.spread_hi == 2.0
    # A zero value with a positive tail is named for its tail, as before.
    both = screened_fit("x", [1, 2, 4, 8, 16], [0.0, 0.0, 1.0, 2.0, 4.0], [0.5, 0, 0, 0, 0])
    assert both.note == ("dropped x = 1: the truncation tail exceeds 5% of the value there; "
                         "dropped x = 2: the value there is not positive")


def test_screened_fit_below_min_points_is_unresolved_and_still_fitted():
    fit = screened_fit("heat t", [1.0, 2.0, 4.0], [1.0, 2.0, 4.0], [0.0, 0.0, 0.0], min_points=4)
    assert fit.kept.all() and fit.note is None
    assert fit.unresolved == "heat t: 3 of 3 kept; a fit needs 4"
    assert math.isfinite(fit.slope) and fit.slope == pytest.approx(1.0, abs=1e-12)


def test_record_claim_keeps_the_note_then_the_check_or_the_reason():
    checks, notes, unresolved = {}, [], []
    kept = screened_fit("x", [1.0, 2.0, 4.0], [0.0, 2.0, 4.0], [0.0, 0.0, 0.0])
    short = screened_fit("y", [1.0, 2.0], [1.0, 1.0], [0.0, 1.0])
    assert kept.within(1.0, 1e-12) and not kept.within(0.9, 0.05)
    record_claim(kept, "x slope", kept.within(1.0, 0.1), checks, notes, unresolved)
    record_claim(short, "y slope", short.within(0.0, 0.1), checks, notes, unresolved)
    assert checks == {"x slope": True}
    assert notes == [kept.note, short.note] and unresolved == ["y: 1 of 2 kept; a fit needs 2"]


@pytest.mark.parametrize("override", [{"slope_tol": 0.0}, {"spread_cap": 1.0}],
                         ids=["closed_window", "spread_cap_1"])
def test_multiplier_scaling_fails_on_a_closed_window_or_spread_cap(override):
    """Both halves of the dyadic claims decide: a window of width 0 and a
    spread cap of 1 each fail the run, naming the sweeps."""
    one_alpha = {"alphas_1d": [0.5], "alphas_2d": [0.5]}
    rep = run_suite(ids=["multiplier_scaling"],
                    overrides={"multiplier_scaling": one_alpha | override})[0]
    assert rep.verdict == FAIL
    assert rep.notes[-1].startswith("failed: 1d alpha=0.5 1->inf")


def test_multiplier_theta_sweep_drops_truncated_theta():
    """With K = 65 the bumps at theta = 1e-4 and 3.16e-4 reach modes the
    basis does not hold: they are dropped and named, and the theta slope is
    the fit over the kept theta alone."""
    rep = run_suite(ids=["multiplier_scaling"],
                    overrides={"multiplier_scaling": {"K": 65, "j_hi": 5}})[0]
    assert "dropped theta = 0.0001, 0.000316: the truncation tail exceeds 5% of the value there" \
        in rep.notes
    th, v = np.array([(p["theta"], p["norm"]) for p in rep.points if "theta" in p]).T
    kept = th > 5e-4
    fit = rep.fit["theta_sweep_1to_inf"]
    assert fit["slope"] == pytest.approx(
        np.polyfit(np.log(th[kept]), np.log(v[kept]), 1)[0], abs=1e-12)
    assert fit["range"][0] <= fit["slope"] <= fit["range"][1]
    assert rep.verdict == PASS


def test_multiplier_scaling_refuses_a_2d_mode_set_that_cuts_the_top_block():
    """60 modes per axis leave out mode (60, 0) at sqrt(lambda) = 94.2, inside
    the support of phi_6, although the corner of the set sits at 131.1."""
    with pytest.raises(ValueError, match="the 2-D mode set"):
        run_suite(ids=["multiplier_scaling"], overrides={"multiplier_scaling": {"rect_modes": 60}})


def test_a_raw_slope_inside_its_window_with_a_range_outside_it_does_not_pass(monkeypatch):
    """A synthetic sweep: norms theta^(-1/4) exactly, each with a tail of
    4% of its value, so every theta is kept and the raw slope is -1/4; the
    certified range reaches past a window of -1/4 -/+ 0.005."""
    norms = []

    def power_law(kernel, theta):
        norms.append(theta ** -0.25)
        return norms[-1]

    monkeypatch.setattr(amalgam, "_column_norm", power_law)
    monkeypatch.setattr(amalgam, "_column_tail_bound", lambda *args: 0.04 * norms[-1])
    rep = exp_amalgam(ExperimentSpec(id="amalgam", params={
        "n_theta_1d": 3, "n_theta_2d": 3, "slope_tol": 0.005}))
    lo, hi = rep.fit["slope_1d_beta1_range"]
    assert abs(rep.fit["slope_1d_beta1"] + 0.25) <= 1e-12
    assert lo < -0.255 and hi > -0.245
    assert not any(p.get("dropped") for p in rep.points)
    assert rep.verdict == FAIL
    assert rep.notes[-1].startswith("failed: 1d beta=1 slope; 1d beta=2 slope")


def test_amalgam_drops_the_smallest_theta_at_beta_1(suite_reports):
    """Its column tail is 96% of the norm: it is marked in points.csv and
    named in the notes, and the slope check rests on the kept theta."""
    with open(suite_reports["out_dir"] / "amalgam.points.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh)
                if r["part"] == "resolvent_1d" and float(r["beta"]) == 1.0]
    thetas = [float(r["theta"]) for r in rows]
    smallest = rows[thetas.index(min(thetas))]
    assert smallest["dropped"] == "True" and float(smallest["tail_frac"]) > TAIL_FRAC
    assert all((r["dropped"] == "True") == (float(r["tail_frac"]) > TAIL_FRAC) for r in rows)
    rep = suite_reports["reports"]["amalgam"]
    assert any(n.startswith(f"dropped 1d beta=1 theta = {min(thetas):.3g}, ") for n in rep.notes)
    assert rep.params["tail_frac"] == TAIL_FRAC == 0.05


def test_amalgam_triple_sweeps_drop_a_truncated_bump():
    """At interval_K = 65 the bump at theta = 1.5e-4 reaches modes the basis
    does not hold: the bump bound sweep and both triple sweeps drop it, and
    the alpha = 1/2 slope reads near its claim of 1/4 (0.423 when that theta
    was fitted).  The bound spread rests on the kept theta (26.5 when the
    truncated bound, 0.066, was counted), so the run passes."""
    rep = run_suite(ids=["amalgam"], overrides={"amalgam": {"interval_K": 65}})[0]
    for sweep in ("bump bound", "triple alpha=0.5", "triple alpha=1"):
        assert (f"dropped {sweep} theta = 0.000151: the truncation tail exceeds "
                "5% of the value there") in rep.notes
    assert abs(rep.fit["triple_slope_alpha0.5"] - 0.25) < 0.01
    assert rep.fit["bump_upper_spread"] < 2.0
    assert rep.verdict == PASS


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_amalgam_drops_a_bump_with_no_mode_in_its_band():
    """At interval_K = 50 the bump at theta = 1.5e-4 lives on lambda in
    (0.5/theta, 2/theta), about (3320, 13280), above every mode held
    (lambda <= 49^2), so its kernel is 0: both bounds read 0, the gap nan,
    and the bump bound sweep drops that theta and names it."""
    rep = run_suite(ids=["amalgam"], overrides={"amalgam": {"interval_K": 50}})[0]
    assert any(n.startswith("dropped bump bound theta = 0.000151") for n in rep.notes)
    first = next(p for p in rep.points if p["part"] == "bump_bound")
    assert first["upper"] == first["lower"] == 0.0 and math.isnan(first["gap"])
    assert rep.verdict == PASS


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("u_shape", [(0,), (0, 128)], ids=["symmetric", "general"])
def test_an_empty_band_is_the_zero_kernel(u_shape):
    """A factor with no mode: both bounds and every triple norm read 0, the
    tails are tail_bound's as for any kernel on the grid, and triple_norm
    of a kernel of that factor reads 0."""
    basis = build_interval_basis(math.pi, 65, N=128)
    U, V = np.zeros(u_shape), np.zeros((0, 128))
    alphas = (0.0, 0.5, 1.0)
    full = cube_block_norms(np.ones(65), basis.functions, basis.grid, 0.1, alphas, 1e-3)
    got = cube_block_norms(U, V, basis.grid, 0.1, alphas, 1e-3)
    assert (got.upper, got.lower, got.triple) == (0.0, 0.0, (0.0,) * 3)
    assert all(math.copysign(1.0, x) == 1.0 for x in (got.upper, got.lower, *got.triple))
    assert (got.tail, got.triple_tail) == (full.tail, full.triple_tail) and got.tail > 0
    ker = OperatorKernel(basis.grid, "empty", factor=(U, V), symbol_values=np.zeros(65),
                         tail_bound=0.0)
    assert triple_norm(ker, 0.5, 0.1) == 0.0


def _mode_factor(svals, basis):
    """(phi, E) over the band of the symbol values svals (spectral._band):
    the factor of E^T diag(svals) E that exp_amalgam passes to
    cube_block_norms."""
    band = spectral._band(svals)
    return svals[band], basis.functions[band]


def _bump_blocks(basis, theta, alphas=(), variant="standard"):
    """cube_block_norms of the bump kernel on basis, as exp_amalgam calls it."""
    ker = multiplier_kernel(bump_symbol(make_partition(variant), theta), basis)
    return cube_block_norms(*_mode_factor(ker.symbol_values, basis), basis.grid, theta, alphas,
                            ker.tail_bound)


def _truncated_sweep():
    """The K = 65 and K = 257 bases on the pi-interval with N = 512, and the
    amalgam experiment's theta on them."""
    short, full = (interval_basis(math.pi, K, 512) for K in (65, 257))
    h = full.grid.h
    return short, full, np.geomspace(4.0 * h * h, 1.0, AMALGAM_DEFAULTS["n_theta_1d"])


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_triple_tail_bound_covers_the_truncated_triple_norm(alpha):
    """On the pi-interval with N = 512 the K = 257 bump kernels hold every
    mode of their symbol (tail_bound 0); the K = 65 ones at the two smallest
    amalgam theta do not, and their triple norms stay within the triple
    tail bound of the exact ones.  triple_norm reads the same values."""
    short, full, thetas = _truncated_sweep()
    for theta in thetas[:2]:
        cut, exact = (_bump_blocks(b, theta, (alpha,)) for b in (short, full))
        gap = abs(cut.triple[0] - exact.triple[0])
        assert 0.0 < gap <= cut.triple_tail[0]
        assert exact.triple_tail == (0.0,)
        ker = multiplier_kernel(bump_symbol(make_partition("standard"), theta), short)
        assert triple_norm(ker, alpha, theta) == pytest.approx(cut.triple[0], rel=1e-13, abs=0)


def _bump_gaps(scale):
    """Whether scale times the block tail of every K = 65 bump bound covers
    its distance to the K = 257 one, over the experiment's theta."""
    short, full, thetas = _truncated_sweep()
    covered = []
    for theta in thetas:
        cut, exact = (_bump_blocks(b, theta) for b in (short, full))
        assert exact.tail == 0.0
        covered.append(abs(cut.upper - exact.upper) <= scale * cut.tail
                       and abs(cut.lower - exact.lower) <= scale * cut.tail)
    return covered


def test_block_tail_covers_the_truncated_bump_bounds():
    """The K = 65 bump kernels leave out modes of their symbol at the two
    smallest theta (tail_bound 18.5 and 2.3e-5) and hold them all from the
    third on, where both bounds equal the K = 257 ones exactly.  The block
    tail covers the distance at every theta; a hundredth of it does not."""
    assert all(_bump_gaps(1.0))
    assert not all(_bump_gaps(0.01))


def test_bump_spread_reads_its_certified_upper_end_over_the_kept_theta(monkeypatch):
    """A synthetic bump sweep: the smallest theta has a tail of 20 % of its
    bound and a gap of 20, and is dropped, so no gap reason follows; the
    kept bounds 1.0 and 1.9 have tails of 4 %, so their spread 1.9 is under
    a cap of 2 while its certified upper end 1.9 * 1.04 / 0.96 is not."""
    bounds = iter([(5.0, 0.25, 1.0), (1.0, 1.0, 0.04), (1.9, 1.9, 0.076)])

    def synthetic(U, V, grid, theta, alphas, tail_bound):
        upper, lower, tail = next(bounds)
        return norms.CubeBlockNorms(upper, lower, tail, (1.0,) * len(alphas),
                                    (0.0,) * len(alphas))

    monkeypatch.setattr(amalgam, "cube_block_norms", synthetic)
    rep = exp_amalgam(ExperimentSpec(id="amalgam", params={
        "n_theta_1d": 3, "n_theta_2d": 3, "uniform_spread_cap": 2.0}))
    theta0 = min(p["theta"] for p in rep.points if p["part"] == "bump_bound")
    assert (f"dropped bump bound theta = {theta0:.3g}: the truncation tail exceeds 5% of the "
            "value there") in rep.notes
    assert rep.fit["bump_upper_spread"] == pytest.approx(1.9, rel=1e-15)
    assert rep.fit["bump_gap"] == 1.0
    assert "bump bound spread" in rep.notes[-1] and "gap" not in rep.notes[-1]
    assert rep.verdict == FAIL


def test_amalgam_2d_claim_with_one_kept_theta_is_unresolved():
    """At n_theta_2d = 2 the 2-D sweep keeps only theta = 1: no 2d slope
    check, and the reason decides an otherwise passing run."""
    rep = exp_amalgam(ExperimentSpec(id="amalgam", params={"n_theta_1d": 3, "n_theta_2d": 2}))
    assert rep.verdict == INCONCLUSIVE
    assert rep.notes[-1] == "2d theta: 1 of 2 kept; a fit needs 2"
    assert math.isnan(rep.fit["slope_2d"])
    assert [p["dropped"] for p in rep.points if p["part"] == "resolvent_2d"] == [True, False]


def test_gradient_screens_heat_t_at_the_shared_fraction(suite_reports):
    """gradient has no tail_frac of its own: it records TAIL_FRAC, drops
    exactly the t whose tail exceeds it, and its heat spread check reads
    the certified upper end."""
    assert "tail_frac" not in GRADIENT_DEFAULTS
    with pytest.raises(ValueError, match="unknown parameters"):
        run_suite(ids=["gradient"], overrides={"gradient": {"tail_frac": 0.5}})
    rep = suite_reports["reports"]["gradient"]
    heat = [p for p in rep.points if p["kind"] == "heat"]
    assert [p["dropped"] for p in heat] == [p["tail"] > TAIL_FRAC * p["norminf"] for p in heat]
    assert rep.fit["heat"]["n_dropped"] == sum(p["dropped"] for p in heat) > 0
    heat_fit = rep.fit["heat"]
    assert heat_fit["spread"] <= heat_fit["spread_hi"] < GRADIENT_DEFAULTS["spread_cap_22"]
    assert rep.params["tail_frac"] == TAIL_FRAC


@pytest.mark.parametrize("checks, reason, verdict, last", [
    ({}, None, PASS, None),
    ({}, "too few points", INCONCLUSIVE, "too few points"),
    ({"a": True, "b": True}, None, PASS, None),
    ({"a": True, "b": True}, "too few points", INCONCLUSIVE, "too few points"),
    ({"a": False, "b": True, "c": np.False_}, None, FAIL, "failed: a; c"),
    ({"a": False, "b": True}, "too few points", FAIL, "failed: a"),
])
def test_conclude_verdict_table(checks, reason, verdict, last):
    spec = ExperimentSpec(id="x", seed=7, pou_variant="perturbed")
    rep = conclude(spec, {"k": 1}, checks, reason, ["own note"])
    assert (rep.id, rep.seed, rep.verdict) == ("x", 7, verdict)
    assert rep.params == {"pou": "perturbed", "k": 1}
    assert rep.notes == ["own note"] + ([last] if last else [])


# What each experiment runs with at the suite's defaults, and the partition
# it records when that is not the spec's.
_MERGED = {
    "multiplier_scaling": MULTIPLIER_DEFAULTS,
    "low_freq_decay": LOWFREQ_DEFAULTS,
    "heat_gaussian": HEAT_DEFAULTS,
    "gradient": GRADIENT_DEFAULTS,
    "reconstruction": RECON_DEFAULTS,
    "embeddings": EMBED_DEFAULTS,
    "duality": DUALITY_DEFAULTS,
    "leibniz": LEIBNIZ_DEFAULTS,
    "partition_independence": PARTITION_DEFAULTS,
    "amalgam": AMALGAM_DEFAULTS,
    "moment_decay": MOMENT_DEFAULTS,
    "neg_broken_partition": {},
    "neg_fake_eigenvalue": LOWFREQ_DEFAULTS | {"fake_lambda2": 2.0**-12,
                                               "domains": ("interval_pi",)},
    "neg_reversed_inequality": {},
}
_POU = {"partition_independence": ("standard", "perturbed"), "neg_broken_partition": "broken"}


@pytest.mark.parametrize("which", ["suite_reports", "control_reports"])
def test_params_hold_every_parameter_the_experiment_ran_with(which, request):
    for rid, rep in request.getfixturevalue(which)["reports"].items():
        missing = {k: v for k, v in _MERGED[rid].items()
                   if k not in rep.params or rep.params[k] != v}
        assert not missing, (rid, missing)
        assert rep.params["pou"] == _POU.get(rid, "standard"), rid


def test_a_gate_override_is_recorded_in_params():
    """Only exact_tol tells this run's params from a default run's."""
    rep = run_suite(ids=["reconstruction"],
                    overrides={"reconstruction": {"exact_tol": 1e-30}})[0]
    assert rep.verdict == FAIL
    assert rep.params["exact_tol"] == 1e-30


def _all_cube_triple_tops(S, groups, U, V, dist, alphas):
    """norms._triple_tops with every cube solved and no trace test: each
    run's Grams in one batched product, as the triple step read them
    before."""
    best = [0.0] * len(alphas)
    Ufull = U[:, None] * V if U.ndim == 1 else U
    band, N = Ufull.shape
    for s, ids in zip(S, groups):
        k, n = s.shape[:2]
        step = max(1, norms._TRIPLE_CHUNK // (k * N))
        for a in range(0, n, step):
            run = s[:, a:a + step]
            T = (run.reshape(-1, band) @ Ufull).reshape(*run.shape[:2], N).swapaxes(0, 1)
            for i, alpha in enumerate(alphas):
                d2 = dist[ids[a:a + step]]
                d2 **= 2 * alpha
                G = (T * d2[:, None, :]) @ T.swapaxes(1, 2)
                best[i] = max(best[i], float(norms._top_eigenvalue(G).max()))
    return best


def test_factor_triple_norms_have_the_bits_of_solving_every_cube(lshape10, monkeypatch):
    """The factor route's trace test skips only cubes that cannot change
    the result: on L-shape heat (band 40) and block (band 8) kernels and
    their gradients, triple_norm is the all-cube triple step bit for bit,
    and over these 36 cases it solves fewer cubes than they hold."""
    grid, pou = lshape10.grid, make_partition("standard")
    kernels = []
    for sym in (heat_symbol(0.01), block_symbol(pou, 1)):
        kernels += [multiplier_kernel(sym, lshape10), *gradient_kernels(sym, lshape10)]
    solved, real_top = [], norms._top_eigenvalue

    def top(G):
        solved.append(math.prod(G.shape[:-2]))
        return real_top(G)

    monkeypatch.setattr(norms, "_top_eigenvalue", top)
    counts = np.zeros(2, dtype=int)  # cubes solved, cubes held
    for ker in kernels:
        for theta in (0.05, 0.25, 1.0):
            cubes = norms._cubes(grid, theta)
            groups, S, U, V = norms._weighted_cubes(*ker.factor, grid, cubes)
            dist, _ = norms._cube_geometry(grid, cubes, theta)
            for alpha in (0.0, 0.5, 1.0):
                (want,) = _all_cube_triple_tops(S, groups, U, V, dist, (alpha,))
                solved.clear()
                got = triple_norm(ker, alpha, theta)
                assert got == math.sqrt(max(want, 0.0)), (ker.tag, theta, alpha)
                counts += (sum(solved), len(cubes.cells))
    assert counts[0] < counts[1] / 2, counts


@pytest.mark.parametrize("N", [64, 96])
def test_factor_triple_norms_keep_mirrored_cubes_and_rank_one_blocks(N):
    """At theta = (pi / (2n + 1))^2 the cubes of the pi-interval mirror each
    other about pi/2, so the traces of these mirror-symmetric kernels, held
    as the factor (phi, E) of the interval's modes, tie in pairs; with one
    mode every Gram is 1 x 1, its top its trace.  The top-trace cube's
    mirror is then solved beside it, and in some of these cases it holds
    the larger of the two, so each survivor must be solved."""
    b = build_interval_basis(math.pi, N // 2, N=N)
    E, lam = b.functions, b.eigenvalues
    factors = [(np.ones(1), E[k:k + 1]) for k in (1, 3)]
    factors.append((resolvent_symbol(0.6, 1.0)(lam), E))
    for phi, V in factors:
        ker = OperatorKernel(b.grid, "factor", factor=(phi, V), symbol_values=phi, tail_bound=0.0)
        for n in range(1, 6):
            theta = (math.pi / (2 * n + 1)) ** 2
            cubes = norms._cubes(b.grid, theta)
            groups, S, U, Vw = norms._weighted_cubes(phi, V, b.grid, cubes)
            dist, _ = norms._cube_geometry(b.grid, cubes, theta)
            for alpha in (0.0, 0.5, 1.0):
                (want,) = _all_cube_triple_tops(S, groups, U, Vw, dist, (alpha,))
                got = triple_norm(ker, alpha, theta)
                assert got == math.sqrt(max(want, 0.0)), (len(V), n, alpha)


@pytest.mark.parametrize("build, thetas", [
    (lambda: build_interval_basis(math.pi, 257, N=512),
     np.geomspace(4.0 * (math.pi / 512) ** 2, 1.0, 9)),
    (lambda: build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32), (0.1, 0.3)),
], ids=["i512", "rect32"])
def test_cube_block_triple_norms_have_the_bits_of_solving_every_cube(build, thetas):
    """cube_block_norms' triple norms, as exp_amalgam asks for them, are
    the all-cube triple step's bit for bit."""
    basis, pou = build(), make_partition("perturbed")
    for theta in thetas:
        U, V = _mode_factor(bump_symbol(pou, theta)(basis.eigenvalues), basis)
        got = cube_block_norms(U, V, basis.grid, theta, (0.5, 1.0)).triple
        cubes = norms._cubes(basis.grid, theta)
        groups, S, Uw, Vw = norms._weighted_cubes(U, V, basis.grid, cubes)
        dist, _ = norms._cube_geometry(basis.grid, cubes, theta)
        want = _all_cube_triple_tops(S, groups, Uw, Vw, dist, (0.5, 1.0))
        assert got == tuple(math.sqrt(max(top, 0.0)) for top in want), theta


@pytest.mark.parametrize("basis", [build_interval_basis(math.pi, 65, N=128),
                                   build_rectangle_basis(math.pi, math.pi, 40, Nx=16, Ny=16)],
                         ids=["interval", "rectangle"])
def test_column_tail_bound_is_the_squared_symbol_tail(basis):
    """sqrt(n_cells * symbol_tail_bound(phi^2)) against the exact unresolved
    modes summed directly: 10^6 of them on [0, pi], the lattice a, b < 1000
    on the pi x pi square, with the exact sup |e_k|^2 = 2^n / |Omega|.  The
    bound is at least that partial sum and exceeds it by the truncation of
    the partial sum and the slack of the closed-form remainder only."""
    for beta, theta in [(1.0, 1e-3), (2.0, 0.1)]:
        sym = resolvent_symbol(beta, 1.0, theta)
        if basis.domain.n == 1:
            lam = np.arange(basis.K, basis.K + 10**6, dtype=float) ** 2
        else:
            a = np.arange(1000, dtype=float)
            grid = a[:, None] ** 2 + a[None, :] ** 2
            unresolved = np.ones(grid.shape, dtype=bool)
            unresolved[tuple(np.asarray(basis.mode_index).T)] = False
            lam = grid[unresolved]
        sup2 = 2.0 ** basis.domain.n / basis.domain.volume
        want = math.sqrt(7 * sup2 * float(np.sum(sym(lam) ** 2)))
        got = _column_tail_bound(sym, basis, 7)
        assert want <= got == pytest.approx(want, rel=0.02)


def _svd_block_bounds(kernel, theta):
    """Oracles for cube_block_norms: one batched SVD of the weighted
    blocks B_rc per cube-size pair, summed over row cubes, for the upper
    bound; triple_norm(kernel, 0, theta), the largest norm on functions
    supported in one cube, for the ascent's start."""
    cells = amalgam_cells(kernel.grid, theta)
    sw = np.sqrt(kernel.grid.weights)
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
    return float(S.sum(axis=0).max()), triple_norm(kernel, 0.0, theta)


def _column_block_bounds(kernel, theta):
    """Oracle for cube_block_norms: the same upper bound and ascent on
    the uncompressed blocks B_rc = W^(1/2) K W^(1/2), read from the kernel's
    columns, each column cube's iterate x of length m."""
    cells = amalgam_cells(kernel.grid, theta)
    sw = np.sqrt(kernel.grid.weights)
    sizes = [len(idx) for _, idx in cells]
    groups = [np.stack([idx for _, idx in cells if len(idx) == m]) for m in dict.fromkeys(sizes)]
    starts = np.cumsum([0] + sizes[:-1])
    order = np.concatenate([idx for _, idx in cells])
    upper = lower = 0.0
    for cols in groups:
        KwT = (sw * kernel.matrix[:, cols.ravel()].T).reshape(*cols.shape, -1)
        KwT *= sw[cols][..., None]
        c = np.arange(len(cols))[:, None, None]
        blocks = [KwT[c, np.arange(cols.shape[1]), rows[:, None, :, None]] for rows in groups]
        gram = np.concatenate([B.swapaxes(-1, -2) @ B for B in blocks])
        upper = max(upper, float(np.sqrt(np.linalg.eigvalsh(gram)[..., -1]).sum(axis=0).max()))
        Bt = KwT.take(order, axis=2)
        x = np.linalg.eigh(gram.sum(axis=0))[1][..., -1]
        f = np.zeros(len(cols))
        for _ in range(norms.ASCENT_STEPS):
            y = (x[:, None, :] @ Bt)[:, 0]
            r = np.sqrt(np.add.reduceat(y * y, starts, axis=1))
            f, prev = np.maximum(f, r.sum(axis=1)), f
            if np.all(f <= prev * (1 + 1e-12)):
                break
            g = (Bt @ (y / np.maximum(np.repeat(r, sizes, axis=1), 1e-300))[..., None])[..., 0]
            x = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        lower = max(lower, float(f.max()))
    return upper, min(lower, upper)


def _bump_bounds(ker, basis, theta):
    """cube_block_norms' bounds on the mode factor, as exp_amalgam calls it."""
    return cube_block_norms(*_mode_factor(ker.symbol_values, basis), basis.grid, theta)[:2]


@pytest.mark.parametrize("build, thetas", [
    (lambda: build_interval_basis(math.pi, 257, N=512),
     np.geomspace(4.0 * (math.pi / 512) ** 2, 1.0, 9)),
    (lambda: build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32), (0.1, 0.3)),
], ids=["i512", "rect32"])
@pytest.mark.parametrize("variant", ["standard", "perturbed"])
def test_gram_bounds_match_the_svd_and_triple_norm_oracles(build, thetas, variant):
    """The experiment's 9 theta on i512; on the rectangle the cubes come in
    9 and 10 sizes.  The upper bound is the SVD oracle's; the lower bound
    starts at least at the single-cube norm and ends within 10 % of the
    upper one.  Both equal the column-reading oracle's to roundoff: the
    compressed blocks C_rc have the singular values of B_rc."""
    basis, pou = build(), make_partition(variant)
    for theta in thetas:
        ker = multiplier_kernel(bump_symbol(pou, theta), basis)
        upper, lower = _bump_bounds(ker, basis, theta)
        svd_upper, single = _svd_block_bounds(ker, theta)
        assert upper == pytest.approx(svd_upper, rel=1e-14, abs=0), theta
        assert single < lower <= upper <= 1.1 * lower, theta
        assert (upper, lower) == pytest.approx(_column_block_bounds(ker, theta), rel=1e-14, abs=0)


@pytest.mark.parametrize("build, thetas", [
    (lambda: build_interval_basis(math.pi, 257, N=512),
     np.geomspace(4.0 * (math.pi / 512) ** 2, 1.0, 9)),
    (lambda: build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32), (0.1, 0.3)),
], ids=["i512", "rect32"])
def test_cube_block_triple_norms_match_triple_norm(build, thetas):
    """The triple norms the core reads off the mode factors, from the
    weighted columns where band >= m and compressed rows where band < m,
    equal triple_norm's from the kernel's columns to roundoff."""
    basis, pou = build(), make_partition("perturbed")
    for theta in thetas:
        ker = multiplier_kernel(bump_symbol(pou, theta), basis)
        got = cube_block_norms(*_mode_factor(ker.symbol_values, basis), basis.grid, theta,
                               (0.5, 1.0)).triple
        want = [triple_norm(ker, alpha, theta) for alpha in (0.5, 1.0)]
        assert got == pytest.approx(want, rel=1e-13, abs=0), theta


@pytest.mark.parametrize("basis", [build_interval_basis(math.pi, 65, N=128),
                                   build_rectangle_basis(math.pi, math.pi, 40, Nx=16, Ny=16)],
                         ids=["interval", "rectangle"])
def test_block_bounds_are_exact_on_one_node_cubes(basis, monkeypatch):
    """At theta = h^2 every cube holds one node, so the norm is the largest
    column l^1 norm of the weighted kernel, and both bounds reach it.  The
    nodes all lie on cube faces, and each goes to the upper cube.  The
    bounds read the mode factors, not the kernel's folds."""
    theta = basis.grid.h ** 2
    assert {len(idx) for _, idx in amalgam_cells(basis.grid, theta)} == {1}
    ker = multiplier_kernel(bump_symbol(make_partition("standard"), theta), basis)
    sw = np.sqrt(basis.grid.weights)
    exact = np.abs(sw[:, None] * ker.matrix * sw[None, :]).sum(axis=0).max()

    def refuse(*args, **kwargs):
        raise AssertionError("kernel folds read")

    monkeypatch.setattr(OperatorKernel, "_folds", refuse)
    upper, lower = _bump_bounds(ker, basis, theta)
    assert upper == pytest.approx(exact, rel=1e-14, abs=0)
    assert lower == pytest.approx(exact, rel=1e-14, abs=0)


def _dense_kernel(grid, tag, M):
    """A kernel of matrix M, held as the factor (M^T, I), with the singular
    values of the weighted matrix as its 2->2 values and no truncation
    tail."""
    sw = np.sqrt(grid.weights)
    return OperatorKernel(grid, tag, factor=(M.T, np.eye(len(M))), tail_bound=0.0,
                          symbol_values=np.linalg.svd(sw[:, None] * M * sw[None, :],
                                                      compute_uv=False))


def _dense_bounds(M, grid, theta):
    """cube_block_norms' bounds on the factor (M^T, I) of the matrix M."""
    return cube_block_norms(M.T, np.eye(len(M)), grid, theta)[:2]


@pytest.fixture(scope="module")
def lshape10():
    return build_fd_basis(lshape_domain(), 0.1, 40)


@pytest.mark.parametrize("theta", [0.05, 0.1, 1.0])
def test_cube_block_norms_take_a_kernel_factor_as_it_is_held(lshape10, theta):
    """cube_block_norms reads OperatorKernel.factor as it is: on L-shape
    heat (band 40) and bump (band 9, 5 and 1 here) kernels its bounds are
    those of the kernel's matrix as the factor (M^T, I), and its triple
    norms triple_norm's.  The cubes hold 1 to 75 nodes, so some are
    compressed by QR and some are not."""
    pou = make_partition("standard")
    for ker in (heat_kernel(0.01, lshape10), multiplier_kernel(bump_symbol(pou, theta), lshape10)):
        got = cube_block_norms(*ker.factor, ker.grid, theta, (0.5, 1.0), ker.tail_bound)
        want = _dense_bounds(ker.matrix, ker.grid, theta)
        assert (got.upper, got.lower) == pytest.approx(want, rel=1e-12, abs=0), (ker.tag, theta)
        assert got.triple == pytest.approx([triple_norm(ker, a, theta) for a in (0.5, 1.0)],
                                           rel=1e-12, abs=0), (ker.tag, theta)


@pytest.mark.parametrize("theta", [0.01, 0.1, 1.0])
def test_block_bounds_are_exact_on_a_kernel_that_maps_each_cube_into_itself(theta):
    """A block-diagonal control: each column cube reaches one row cube, so
    the norm is max_c sigma_max(B_cc), the ascent's starting value."""
    basis = build_interval_basis(math.pi, 65, N=128)
    rng = np.random.default_rng(3)
    M = np.zeros((128, 128))
    sw = np.sqrt(basis.grid.weights)
    exact = 0.0
    for _, idx in amalgam_cells(basis.grid, theta):
        M[np.ix_(idx, idx)] = rng.standard_normal((len(idx), len(idx)))
        B = sw[idx, None] * M[np.ix_(idx, idx)] * sw[None, idx]
        exact = max(exact, np.linalg.svd(B, compute_uv=False)[0])
    upper, lower = _dense_bounds(M, basis.grid, theta)
    assert upper == pytest.approx(exact, rel=1e-12, abs=0)
    assert lower == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("seed", range(3))
def test_block_bounds_bracket_random_dense_kernels(seed):
    basis = build_rectangle_basis(math.pi, math.pi, 40, Nx=12, Ny=12)
    rng = np.random.default_rng(seed)
    ker = _dense_kernel(basis.grid, "random", rng.standard_normal((144, 144)))
    for theta in (4 * basis.grid.h ** 2, 0.1, 0.5, 3.0):
        upper, lower = _dense_bounds(ker.matrix, basis.grid, theta)
        assert triple_norm(ker, 0.0, theta) < lower < upper, theta


def test_more_ascent_steps_never_lower_the_bound(monkeypatch):
    """The ascent is monotone: a larger cap gives a lower bound at least as
    large, from the single-cube value at one iterate."""
    basis = build_interval_basis(math.pi, 257, N=512)
    theta = float(np.geomspace(4.0 * basis.grid.h ** 2, 1.0, 9)[4])
    ker = multiplier_kernel(bump_symbol(make_partition("perturbed"), theta), basis)
    lowers = []
    for cap in (1, 2, 4, 8, 16, 32):
        monkeypatch.setattr(norms, "ASCENT_STEPS", cap)
        lowers.append(_bump_bounds(ker, basis, theta)[1])
    assert triple_norm(ker, 0.0, theta) <= lowers[0] < lowers[-1]
    assert lowers == sorted(lowers)


def test_bump_bounds_do_not_depend_on_the_seed():
    small = {"amalgam": {"n_theta_1d": 3, "n_theta_2d": 2}}
    bumps = [[p for p in run_suite(ids=["amalgam"], base_seed=seed, overrides=small)[0].points
              if p["part"] == "bump_bound"] for seed in (0, 5)]
    assert len(bumps[0]) == 3 and bumps[0] == bumps[1]


def test_no_block_with_at_most_two_rows_or_columns_reaches_eigvalsh(monkeypatch):
    """On the default 1-D bump sweep every eigvalsh call gets Grams of 3 x 3
    or larger: blocks with min(k_r, k_c) <= 2 and one- and two-node cubes
    take the closed forms.  Some theta still need eigvalsh."""
    sizes = []
    real = np.linalg.eigvalsh

    def count(G):
        sizes.append(G.shape[-1])
        return real(G)

    monkeypatch.setattr(np.linalg, "eigvalsh", count)
    basis = interval_basis(math.pi, AMALGAM_DEFAULTS["interval_K"], AMALGAM_DEFAULTS["interval_N"])
    h = basis.grid.h
    for theta in np.geomspace(4.0 * h * h, 1.0, AMALGAM_DEFAULTS["n_theta_1d"]):
        _bump_blocks(basis, theta, AMALGAM_DEFAULTS["alphas"])
    assert sizes and min(sizes) >= 3


def test_the_bump_sweep_compresses_by_qr_only_cubes_larger_than_the_band(monkeypatch):
    """QR runs only on cube sizes m above the band, where it compresses the
    m x band factor blocks to band rows: at the four smallest theta only
    on the 11-node cubes of theta = 4.1e-3 (band 10)."""
    shapes = []
    real = np.linalg.qr

    def record(A, mode):
        shapes.append(A.shape[-2:])
        return real(A, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", record)
    basis = interval_basis(math.pi, AMALGAM_DEFAULTS["interval_K"], AMALGAM_DEFAULTS["interval_N"])
    h = basis.grid.h
    for i, theta in enumerate(np.geomspace(4.0 * h * h, 1.0, AMALGAM_DEFAULTS["n_theta_1d"])):
        shapes.clear()
        _bump_blocks(basis, theta)
        assert all(m > band for m, band in shapes), theta
        if i == 3:
            assert shapes == [(11, 10)]


def test_amalgam_reads_its_triple_norms_from_the_cube_block_core(monkeypatch):
    """The bump bounds and both triple sweeps come from one cube_block_norms
    call per theta, at the positive alphas only, with no SVD and no
    triple_norm call."""
    seen = []

    def record(U, V, grid, theta, alphas, tail_bound):
        seen.append(tuple(alphas))
        return cube_block_norms(U, V, grid, theta, alphas, tail_bound)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd or triple_norm called")

    monkeypatch.setattr(amalgam, "cube_block_norms", record)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(norms, "triple_norm", refuse)
    rep = exp_amalgam(ExperimentSpec(id="amalgam", params={"n_theta_1d": 3, "n_theta_2d": 2}))
    assert seen == [(0.5, 1.0)] * 3
    assert len([p for p in rep.points if p["part"] == "triple"]) == 6


def test_an_alpha_of_zero_is_read_off_the_ascent_start(monkeypatch):
    """alpha = 0 costs no sigma_max call beyond those of the positive
    alphas: it is the top eigenvalue the ascent starts from, the largest
    norm on functions supported in one cube, which triple_norm reads from
    the kernel's columns."""
    basis = interval_basis(math.pi, 257, 512)
    theta = float(np.geomspace(4.0 * basis.grid.h ** 2, 1.0, 9)[3])
    calls = []
    real = norms._sigma_max
    monkeypatch.setattr(norms, "_sigma_max", lambda B: calls.append(B.shape) or real(B))
    with_zero = _bump_blocks(basis, theta, (0.0, 0.5, 1.0))
    n_with_zero, calls[:] = len(calls), []
    without = _bump_blocks(basis, theta, (0.5, 1.0))
    assert n_with_zero == len(calls) > 0
    assert with_zero.triple[1:] == without.triple
    ker = multiplier_kernel(bump_symbol(make_partition("standard"), theta), basis)
    assert with_zero.triple[0] == pytest.approx(triple_norm(ker, 0.0, theta), rel=1e-13, abs=0)
    assert with_zero.triple[0] <= with_zero.lower


@pytest.mark.parametrize("module, run, settings", [
    (amalgam, exp_amalgam, [{"n_theta_1d": 3, "n_theta_2d": 3},
                            {"n_theta_1d": 4, "n_theta_2d": 3, "interval_K": 129,
                             "interval_N": 256, "rect_N": 16, "rect_K": 60}]),
    (moments, exp_moment_decay, [{}, {"R": 256.0, "N": 4096, "fit_lo": -6}]),
], ids=["amalgam", "moment_decay"])
def test_check_names_carry_no_measured_numbers(monkeypatch, module, run, settings):
    """Two settings move the measured values in fit (all but those at an
    exact 0 or at roundoff) and leave the check names as they were."""
    real, names = module.conclude, []

    def record(spec, P, checks, *args, **kwargs):
        names.append(list(checks))
        return real(spec, P, checks, *args, **kwargs)

    monkeypatch.setattr(module, "conclude", record)
    fits = [run(ExperimentSpec(id=run.__name__[4:], params=p)).fit for p in settings]
    assert sum(fits[0][k] != fits[1][k] for k in fits[0]) >= 5, fits
    assert len(names[0]) == (7 if module is amalgam else 11)
    assert names[0] == names[1]


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
    """exp_gradient and endpoint_norms read interval kernels in row blocks;
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
        endpoint_norms(ker)
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


def test_no_fit_or_point_follows_the_clip_literal(monkeypatch, suite_reports):
    """multipliers.CLIP keeps the log-scale figures finite and sets no fit
    or point: at 1e-100 and 1e-200 the fits and points of the experiments
    that read it are those of the default run.  Tier-1 cost: about 0.4 s."""
    ids = ["multiplier_scaling", "low_freq_decay", "gradient"]
    default = suite_reports["reports"]
    for clip in (1e-100, 1e-200):
        monkeypatch.setattr(multipliers, "CLIP", clip)
        for rep in run_suite(ids=ids):
            want = default[rep.id].payload()
            assert rep.payload()["fit"] == want["fit"], (clip, rep.id)
            assert rep.payload()["points"] == want["points"], (clip, rep.id)


_LOWFREQ_ALL = tuple(_LOWFREQ_BUILDERS)


@pytest.mark.parametrize("override, verdict, first, last_note", [
    ({"j_lo": -3}, INCONCLUSIVE, (0, -1, -3),
     "interval_long: the gap block j_gap = -5 lies below the window [-3, 0]"),
    ({"j_hi": -6}, PASS, (None, None, None),
     "interval_pi: vacuous range j <= -1 (gap sqrt(lambda_2)=1 kills every negative block)"),
    ({"fake_lambda2": 2.0**-12}, FAIL, (-6, -6, -6),
     "failed: " + "; ".join(f"{d} gap block" for d in _LOWFREQ_ALL)),
], ids=["window_above_a_gap", "window_below_every_gap", "fake_on_every_domain"])
def test_low_freq_gap_block_against_its_window(override, verdict, first, last_note):
    """j_gap is read off each basis' own spectrum, whatever the window or a
    faked lambda_2: a window starting above interval_long's gap leaves that
    claim unresolved, by name, and does not fail; a window below every gap
    holds only zero blocks; the fake moves each first nonzero block to -6.
    Tier-1 cost: about 0.05 s."""
    rep = run_suite(ids=["low_freq_decay"], overrides={"low_freq_decay": override})[0]
    assert rep.verdict == verdict
    assert [rep.fit[d]["j_gap"] for d in _LOWFREQ_ALL] == [0, -1, -5]
    assert tuple(rep.fit[d]["first_nonzero_j"] for d in _LOWFREQ_ALL) == first
    assert all(rep.fit[d]["gap_consistent"] for d in _LOWFREQ_ALL)
    assert rep.notes[-1] == last_note


def test_fake_eigenvalue_control_fails_on_the_gap_block(control_reports):
    rep = control_reports["reports"]["neg_fake_eigenvalue"]
    assert [n for n in rep.notes if n.startswith("failed:")] == ["failed: interval_pi gap block"]
    assert rep.fit["interval_pi"]["j_gap"] == 0
    assert rep.fit["interval_pi"]["first_nonzero_j"] == -6


def test_heat_mu_is_the_slope_of_log_pk_max_over_late_t(suite_reports):
    """heat_gaussian's mu against np.polyfit of log pk_max on t over the
    points with t >= 1; with t_max = 0.5 no t is late and mu is unresolved
    on both domains, where the run raised before.  Tier-1 cost: about 0.1 s."""
    rep = suite_reports["reports"]["heat_gaussian"]
    for name in ("interval", "rectangle"):
        late = [p for p in rep.points if p["domain"] == name and p["t"] >= 1.0]
        t, pk = (np.array([p[k] for p in late]) for k in ("t", "pk_max"))
        assert rep.fit[name]["mu"] == pytest.approx(-np.polyfit(t, np.log(pk), 1)[0], rel=1e-12)
    short = run_suite(ids=["heat_gaussian"], overrides={"heat_gaussian": {"t_max": 0.5}})[0]
    assert short.verdict == INCONCLUSIVE
    assert short.notes[-1] == ("interval e^t: 0 of 0 kept; a fit needs 2; "
                               "rectangle e^t: 0 of 0 kept; a fit needs 2")


def test_moment_slopes_are_the_log_slopes_over_the_fit_window(suite_reports):
    rep = suite_reports["reports"]["moment_decay"]
    js = list(range(MOMENT_DEFAULTS["fit_lo"], MOMENT_DEFAULTS["fit_hi"] + 1))
    u = np.log(2.0 ** np.array(js))
    for M in MOMENT_DEFAULTS["orders"]:
        v = [p["block_l1"] for p in rep.points if p["M"] == M and p.get("j") in js]
        assert rep.fit[f"slope_M{M}"] == pytest.approx(np.polyfit(u, np.log(v), 1)[0], abs=1e-12)
