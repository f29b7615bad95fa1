"""Acceptance gate: one test per headline guarantee, at its stated
tolerance and time budget.

Sweep-style guarantees are asserted on the shared verification-suite run
(one full pass per session, see conftest); pointwise identities are cheap
enough to recompute here from scratch.
"""

import math
import re
import time

import numpy as np
import pytest

from nbesov.domains import build_interval_basis
from nbesov.littlewood_paley import make_partition, partition_sum
from nbesov.spectral import (
    GridFunction,
    apply_kernel,
    heat_kernel,
    multiplier_kernel,
    resolvent_gamma,
    resolvent_symbol,
)
from nbesov.verify import run_suite, suite_exit_code


def _report(suite_reports, rid):
    rep = suite_reports["reports"][rid]
    assert rep.verdict == "pass", f"{rid}: verdict {rep.verdict}; notes {rep.notes}"
    return rep


def test_c01_partition_identities_sub_1e10():
    lam = np.geomspace(1e-6, (math.pi / (2 * (math.pi / 512))) ** 2, 10_000)
    start = time.perf_counter()
    worst = 0.0
    for variant in ("standard", "perturbed"):
        pou = make_partition(variant)
        worst = max(worst, float(np.max(np.abs(partition_sum(pou, lam) - 1.0))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0


def test_c02_reconstruction_residual_below_1e8(suite_reports):
    rep = _report(suite_reports, "reconstruction")
    assert rep.params["n_samples"] == 100
    assert rep.fit["max_inhom_residual"] < 1e-8
    assert rep.fit["max_hom_residual"] < 1e-8
    assert rep.runtime < 30.0


def test_c03_projected_semigroup_decay_exact():
    basis = build_interval_basis(math.pi, 64, N=256)
    w = basis.grid.weights
    sw = np.sqrt(w)
    vol = basis.domain.volume
    ts = np.geomspace(0.05, 5.0, 20)
    start = time.perf_counter()
    worst = 0.0
    for t in ts:
        P_heat = heat_kernel(t, basis).matrix - 1.0 / vol
        sigma = np.linalg.svd(sw[:, None] * P_heat * sw[None, :], compute_uv=False)[0]
        worst = max(worst, abs(sigma - math.exp(-t * basis.eigenvalues[1])))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0


def test_c04_multiplier_scaling_slopes(suite_reports):
    rep = _report(suite_reports, "multiplier_scaling")
    assert rep.params["j_lo"] == 2 and rep.params["j_hi"] == 6
    checked = 0
    for key, entry in rep.fit.items():
        m = re.fullmatch(r"([12])d_a(-?[\d.]+)_1toinf", key)
        if not m:
            continue
        n, alpha = int(m.group(1)), float(m.group(2))
        assert entry["target"] == n + 2 * alpha
        assert abs(entry["slope"] - (n + 2 * alpha)) <= 0.15, key
        checked += 1
    assert checked >= 4  # both dimensions, several alphas
    assert rep.runtime < 120.0


def test_c05_heat_gaussian_bound(suite_reports):
    rep = _report(suite_reports, "heat_gaussian")
    iv = rep.fit["interval"]
    assert iv["positivity_ok"] and iv["stable"]
    assert abs(iv["C_refined"] / iv["C"] - 1.0) <= 0.20
    assert abs(iv["c_refined"] / iv["c"] - 1.0) <= 0.20
    assert rep.fit["rectangle"]["positivity_ok"]
    assert rep.runtime < 120.0


def test_c06_gradient_bounds_finite_and_tight(suite_reports):
    rep = _report(suite_reports, "gradient")
    block, heat = rep.fit["block"], rep.fit["heat"]
    assert math.isfinite(block["sup22"]) and block["sup22"] > 0
    assert math.isfinite(heat["sup"]) and heat["sup"] > 0
    assert block["spread22"] < 3.0
    assert heat["spread"] < 3.0
    assert rep.runtime < 120.0


def test_c07_partition_independence(suite_reports):
    rep = _report(suite_reports, "partition_independence")
    assert rep.fit["ratio_min"] >= 1.0 / 3.0
    assert rep.fit["ratio_max"] <= 3.0
    assert rep.fit["max_drift"] < 0.10
    assert rep.runtime < 120.0


def test_c08_leibniz_constant_stable(suite_reports):
    rep = _report(suite_reports, "leibniz")
    assert rep.fit["discarded"] == 0
    for name, c in rep.fit["C_emp"].items():
        assert math.isfinite(c) and c > 0, name
    for table in ("drift_refine", "drift_swap"):
        for name, drift in rep.fit[table].items():
            assert drift <= 0.25, (table, name)
    assert rep.runtime < 300.0


def test_c09_amalgam_and_triple_slopes(suite_reports):
    rep = _report(suite_reports, "amalgam")
    assert abs(rep.fit["slope_1d_beta1"] - (-0.25)) <= 0.2
    assert abs(rep.fit["slope_1d_beta2"] - (-0.25)) <= 0.2
    assert abs(rep.fit["slope_2d"] - (-0.50)) <= 0.2
    assert abs(rep.fit["triple_slope_alpha0.5"] - 0.25) <= 0.2
    assert abs(rep.fit["triple_slope_alpha1"] - 0.50) <= 0.2
    assert rep.fit["bump_gap"] <= 1.1
    assert rep.runtime < 180.0


def test_c10_moment_order_slopes(suite_reports):
    rep = _report(suite_reports, "moment_decay")
    for order in range(4):
        assert abs(rep.fit[f"slope_M{order}"] - order) <= 0.5, order
    assert rep.runtime < 60.0


def test_c11_resolvent_gamma_formula():
    basis = build_interval_basis(math.pi, 64, N=256)
    rng = np.random.default_rng(17)
    c = rng.standard_normal(basis.K) * np.exp(-0.05 * np.arange(basis.K))
    f = GridFunction(basis.functions.T @ c, basis.grid)
    w = basis.grid.weights
    start = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 0.75, 1.0, 2.0):
        for M in (0.5, 1.0, 2.0):
            got = resolvent_gamma(beta, M, f, basis)
            ref = apply_kernel(multiplier_kernel(resolvent_symbol(beta, M), basis), f)
            err = math.sqrt(float(w @ (got.values - ref.values) ** 2))
            den = math.sqrt(float(w @ ref.values**2))
            worst = max(worst, err / den)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0


def test_c12_negative_controls_fail():
    ids = ["neg_broken_partition", "neg_fake_eigenvalue", "neg_reversed_inequality"]
    reports = run_suite(ids=ids)
    for rep in reports:
        assert rep.verdict == "fail", rep.id
    assert suite_exit_code(reports) == 3
