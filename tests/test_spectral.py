import dataclasses
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from nbesov import norms, spectral
from nbesov.domains import (
    Domain,
    build_fd_basis,
    build_interval_basis,
    build_rectangle_basis,
    interval_grid,
    load_basis,
    lp_norm,
    lshape_domain,
    polygon_grid,
    rectangle_grid,
    save_basis,
)
from nbesov.littlewood_paley import make_partition
from nbesov.norms import AmalgamParams, amalgam_cells, amalgam_columns, triple_norm
from nbesov.spectral import (
    GridFunction,
    OperatorKernel,
    QuadratureWarning,
    SymbolFn,
    analyze,
    apply_kernel,
    apply_multiplier,
    block_symbol,
    bump_symbol,
    cap_symbol,
    endpoint_norms,
    gradient_kernels,
    heat_kernel,
    heat_symbol,
    kernel_profile,
    load_kernel,
    multiplier_kernel,
    power_block_symbol,
    resolvent_gamma,
    resolvent_symbol,
    save_kernel,
    synthesize,
    to_coeffs,
    to_grid,
)
from nbesov.verify.amalgam import _column_norm, _column_tail_bound


@pytest.fixture(scope="module")
def basis():
    return build_interval_basis(math.pi, 64, N=256)


def _image_sum_heat(x, y, t, L, n_images=3):
    """Reference Neumann heat kernel on [0, L] by reflected free kernels.

    Independent of the eigenbasis route: K_t(x, y) =
    sum_m G_t(x - y - 2Lm) + G_t(x + y - 2Lm), truncated where the
    Gaussian underflows.
    """
    X, Y = np.meshgrid(x, y, indexing="ij")
    out = np.zeros_like(X)
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    for m in range(-n_images, n_images + 1):
        out += np.exp(-((X - Y - 2 * L * m) ** 2) / (4 * t))
        out += np.exp(-((X + Y - 2 * L * m) ** 2) / (4 * t))
    return pref * out


def test_heat_kernel_matches_image_sum(basis):
    t = 0.05
    ker = heat_kernel(t, basis)
    x = basis.grid.points[:, 0]
    ref = _image_sum_heat(x, x, t, math.pi)
    np.testing.assert_allclose(ker.matrix, ref, atol=1e-10, rtol=0)


def test_interval_heat_kernel_is_within_its_tail_of_the_image_sum():
    # The image sum is the exact Neumann heat kernel at the nodes, cut where
    # its terms fall below e^-40 of the largest.  The truncated kernel
    # differs from it by at most tail_bound, plus a rounding floor of
    # 1e-14 max|K| (the largest excess over the tail is 3.8e-15 max|K|, where
    # the tail falls below rounding).  At t = 2.7e-4 the error is 0.98 of the
    # tail, so a tail_bound half as large fails here.
    b = build_interval_basis(math.pi, 200, N=512)
    x = b.grid.points[:, 0]
    for t in np.geomspace(b.grid.h ** 2, 2.0, 12):
        n_images = 2 + math.ceil(math.sqrt(160 * t) / (2 * math.pi))
        exact = _image_sum_heat(x, x, t, math.pi, n_images)
        ker = heat_kernel(t, b)
        floor = 1e-14 * np.max(np.abs(exact))
        assert np.all(np.abs(ker.matrix - exact) <= ker.tail_bound + floor), t


def test_interval_heat_gradient_kernel_is_within_its_tail_of_the_image_sum():
    # d/dx of the image sum, sum_n g'(x - y - 2nL) + g'(x + y - 2nL) with
    # g'(z) = -z / (2t) g_t(z), on every 7th column (0 through 511).  Where
    # truncation dominates the error is 0.54-0.95 of tail_bound, so a
    # tail_bound half as large fails here; elsewhere it stays under
    # 5e-15 max|dK| (rounding floor 1e-14).
    b = build_interval_basis(math.pi, 200, N=512)
    x = b.grid.points[:, 0]
    cols = np.arange(0, 512, 7)
    X, Y = np.meshgrid(x, x[cols], indexing="ij")
    for t in np.geomspace(b.grid.h ** 2, 2.0, 12):
        n_images = 2 + math.ceil(math.sqrt(160 * t) / (2 * math.pi))
        exact = np.zeros_like(X)
        for n in range(-n_images, n_images + 1):
            for z in (X - Y - 2 * math.pi * n, X + Y - 2 * math.pi * n):
                exact -= z / (2 * t) * np.exp(-z * z / (4 * t))
        exact /= math.sqrt(4 * math.pi * t)
        (ker,) = gradient_kernels(heat_symbol(t), b)
        floor = 1e-14 * np.max(np.abs(exact))
        assert np.all(np.abs(ker.columns(cols).T - exact) <= ker.tail_bound + floor), t


def test_interval_resolvent_kernel_and_column_norm_are_within_their_tails():
    # On the amalgam experiment's interval, (theta H + M)^-1 is G / theta
    # with the Neumann Green's function of -d^2/dx^2 + m^2, m^2 = M / theta:
    # G = cosh(m x<) cosh(m (L - x>)) / (m sinh(m L)).  The kernel is within
    # tail_bound of it, plus a rounding floor of 1e-14 max|G / theta| (the
    # error is about 0.59 of the tail at every theta, so a tail_bound half
    # as large fails here), and the column norm is within its column tail
    # of the amalgam norm of the exact columns (at most 0.08 of that bound).
    b, M = build_interval_basis(math.pi, 257, N=512), 1.0
    x = b.grid.points[:, 0]
    lo, hi = np.minimum.outer(x, x), np.maximum.outer(x, x)
    for theta in np.geomspace(4.0 * b.grid.h ** 2, 1.0, 9):
        m = math.sqrt(M / theta)
        exact = np.cosh(m * lo) * np.cosh(m * (math.pi - hi)) / (m * math.sinh(m * math.pi) * theta)
        sym = resolvent_symbol(1.0, M, theta)
        ker = multiplier_kernel(sym, b)
        params = AmalgamParams(p=1.0, q=2.0, theta=theta)
        want = float(np.max(amalgam_columns(exact, b.grid, params)))
        tail = _column_tail_bound(sym, b, len(amalgam_cells(b.grid, theta)))
        assert abs(_column_norm(ker, theta) - want) <= tail, theta
        floor = 1e-14 * np.max(np.abs(exact))
        assert np.all(np.abs(ker.matrix - exact) <= ker.tail_bound + floor), theta


def test_heat_kernel_conserves_mass(basis):
    ker = heat_kernel(0.3, basis)
    row_integrals = ker.matrix @ basis.grid.weights
    np.testing.assert_allclose(row_integrals, 1.0, atol=1e-12)


def test_heat_semigroup_property(basis):
    w = basis.grid.weights
    k1 = heat_kernel(0.2, basis).matrix
    k2 = heat_kernel(0.5, basis).matrix
    k3 = heat_kernel(0.7, basis).matrix
    np.testing.assert_allclose(k1 @ (w[:, None] * k2), k3, atol=1e-12)


def test_endpoint_norms_against_direct_sums(basis):
    ker = heat_kernel(0.3, basis)
    norms = endpoint_norms(ker)
    K, w = ker.matrix, basis.grid.weights
    assert norms["1->inf"] == pytest.approx(np.max(np.abs(K)), rel=1e-12)
    assert norms["1->1"] == pytest.approx(np.max(w @ np.abs(K)), rel=1e-12)
    assert norms["inf->inf"] == pytest.approx(np.max(np.abs(K) @ w), rel=1e-12)
    sw = np.sqrt(w)
    sig = np.linalg.svd(sw[:, None] * K * sw[None, :], compute_uv=False)[0]
    assert norms["2->2"] == pytest.approx(sig, rel=1e-10)
    # The 2->2 value is available exactly from the symbol.
    assert norms["2->2"] == pytest.approx(1.0, rel=1e-12)


def test_resolvent_gamma_matches_direct_multiplier(basis):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(basis.K) * np.exp(-0.05 * np.arange(basis.K))
    f = GridFunction(basis.functions.T @ c, basis.grid)
    w = basis.grid.weights
    for beta, M in [(0.5, 1.0), (1.0, 0.5), (2.0, 2.0)]:
        via_gamma = resolvent_gamma(beta, M, f, basis)
        direct = apply_kernel(multiplier_kernel(resolvent_symbol(beta, M), basis), f)
        err = math.sqrt(w @ (via_gamma.values - direct.values) ** 2)
        ref = math.sqrt(w @ direct.values**2)
        assert err / ref < 1e-9


def test_resolvent_gamma_reports_unmet_tolerance(basis, monkeypatch):
    monkeypatch.setattr(spectral, "_QUAD_RTOL", 1e-16)
    f = GridFunction.constant(basis.grid, 1.0)
    with pytest.warns(QuadratureWarning, match="exceeds rtol=1e-16"):
        resolvent_gamma(1.0, 1.0, f, basis)


@pytest.mark.parametrize("beta", [150.0, 172.0, 1000.0])
def test_resolvent_gamma_at_a_large_beta_is_finite(beta):
    """t^beta overflowed at beta = 150 (NaN values) and Gamma(beta) at
    beta = 172 (OverflowError).  Now each result is finite, raises no
    RuntimeWarning, and agrees with the direct multiplier to _QUAD_RTOL
    unless a QuadratureWarning said it might not."""
    b = build_interval_basis(math.pi, 16, N=64)
    f = GridFunction(np.cos(b.grid.points[:, 0]), b.grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        got = resolvent_gamma(beta, 1.0, f, b).values
    want = apply_multiplier(resolvent_symbol(beta, 1.0), f, b).values
    assert np.all(np.isfinite(got))
    warned = any(issubclass(w.category, QuadratureWarning) for w in caught)
    assert warned or np.max(np.abs(got - want)) <= spectral._QUAD_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("beta, M", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                     (1.0, math.nan), (1.0, math.inf), (1.0, 0.0)])
def test_resolvent_gamma_rejects_parameters_not_positive_and_finite(basis, beta, M):
    """Each parameter is named in the error, before any quadrature runs."""
    f = GridFunction.constant(basis.grid, 1.0)
    name, value = ("beta", beta) if not 0 < beta < math.inf else ("M", M)
    with pytest.raises(ValueError, match=f"{name}={value} must be positive and finite"):
        resolvent_gamma(beta, M, f, basis)


def test_gradient_kernel_on_single_mode(basis):
    sym = heat_symbol(0.1)
    (grad,) = gradient_kernels(sym, basis)
    e2 = basis.functions[1]
    w = basis.grid.weights
    out = grad.matrix @ (w * e2)
    x = basis.grid.points[:, 0]
    expect = -math.exp(-0.1) * math.sqrt(2.0 / math.pi) * np.sin(x)
    np.testing.assert_allclose(out, expect, atol=2e-4)


def test_gradient_annihilates_constants(basis):
    (grad,) = gradient_kernels(heat_symbol(0.5), basis)
    ones = np.ones(basis.grid.n_nodes)
    out = grad.matrix @ (basis.grid.weights * ones)
    assert np.max(np.abs(out)) < 1e-12


def test_block_symbol_tail_is_zero_in_band(basis):
    pou = make_partition("standard")
    ker = multiplier_kernel(block_symbol(pou, 3), basis)
    assert ker.tail_bound == 0.0


def test_symbol_tail_bound_is_inf_when_a_tail_term_overflows(basis):
    """lambda^80 overflows on part of the j = 6 block past the band: the
    finite terms alone bound nothing, so the tail is inf."""
    pou = make_partition("standard")
    assert spectral.symbol_tail_bound(power_block_symbol(pou, 6, 80.0), basis) == math.inf
    assert 0.0 < spectral.symbol_tail_bound(power_block_symbol(pou, 6, 1.0), basis) < math.inf


@pytest.mark.parametrize("variant", ["standard", "perturbed"])
def test_bump_symbol_support_values_and_tail(variant, basis):
    """phi_0(theta lambda) vanishes outside (plateau/(2 theta), 2/theta),
    equals pou.phi0(theta lambda) bit for bit, and its kernel's tail bound
    is the one the amalgam experiment's private bump gave, in band (0) and
    with the support past the band."""
    pou = make_partition(variant)
    for theta in (1e-4, 0.05, 1.0):
        bump = bump_symbol(pou, theta)
        lo, hi = bump.support
        assert lo == pytest.approx(pou.plateau / (2.0 * theta), rel=1e-15) and hi == 2.0 / theta
        lam = np.concatenate((np.linspace(0.0, 3.0 / theta, 3001), [lo, hi]))
        vals = bump(lam)
        assert np.array_equal(vals, pou.phi0(theta * lam))
        assert np.all(vals[(lam <= lo) | (lam >= hi)] == 0.0) and vals.max() > 0.0
        old = SymbolFn(fn=lambda lam: pou.phi0(theta * lam), tag="bump",
                       support=(pou.plateau / (2.0 * theta), 2.0 / theta))
        tail = multiplier_kernel(bump, basis).tail_bound
        assert tail == multiplier_kernel(old, basis).tail_bound
        assert (tail > 0.0) == (hi > basis.eigenvalues[-1])


def _unresolved_lattice(basis, n):
    """Eigenvalues of the lattice modes k_c < n per axis that basis leaves
    out, and the exact sup |e_k|^2 = 2^dim / |Omega| of those modes."""
    axes = [(np.arange(n) * np.pi / L) ** 2 for L in basis.domain.lengths]
    lam = sum(np.ix_(*axes))
    unresolved = np.ones(lam.shape, dtype=bool)
    unresolved[tuple(np.asarray(basis.mode_index).reshape(basis.K, -1).T)] = False
    return lam[unresolved], 2.0 ** basis.domain.n / basis.domain.volume


def _suite_rectangle():
    return build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32)


@pytest.mark.parametrize("t", [(math.pi / 32) ** 2, 0.031, 0.055, 0.098, 0.17])
def test_rectangle_heat_tail_is_the_exact_lattice_sum(t):
    """On the heat scan's pi x pi rectangle the tail is the direct sum of
    e^{-t lambda} over the unresolved modes a, b < 600, times 4 / pi^2 (the
    leading-order Weyl estimate read 1.25-33.9x low at these t)."""
    rect = _suite_rectangle()
    lam, sup2 = _unresolved_lattice(rect, 600)
    exact = sup2 * float(np.sum(np.exp(-t * lam)))
    assert spectral.symbol_tail_bound(heat_symbol(t), rect) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("domain, symbol", [
    ("interval", heat_symbol(1e-4)), ("interval", heat_symbol(1e-2)),
    ("interval", resolvent_symbol(0.75, 1.0)), ("interval", resolvent_symbol(2.0, 0.5, 0.05)),
    ("rectangle", resolvent_symbol(1.5, 1.0)), ("rectangle", resolvent_symbol(2.0, 0.5, 0.05)),
], ids=lambda v: v if isinstance(v, str) else v.tag)
def test_tail_bound_sits_just_above_a_long_partial_sum(domain, symbol):
    """The bound is at least the direct sum over 10^6 unresolved modes (up
    to rounding) and at most 1.2 times it, on [0, 2.5] and on [0, pi] x [0, 2]."""
    if domain == "interval":
        basis = build_interval_basis(2.5, 100, N=256)
        lam, sup2 = _unresolved_lattice(basis, basis.K + 10**6)
    else:
        basis = build_rectangle_basis(math.pi, 2.0, 200, Nx=32, Ny=32)
        lam, sup2 = _unresolved_lattice(basis, 1000)
    partial = sup2 * float(np.sum(symbol(lam)))
    got = spectral.symbol_tail_bound(symbol, basis)
    assert partial * (1 - 1e-13) <= got <= 1.2 * partial


@pytest.mark.parametrize("build", [lambda: build_interval_basis(math.pi, 64, N=256),
                                   lambda: build_rectangle_basis(math.pi, 2.0, 200, Nx=32, Ny=32)],
                         ids=["interval", "rectangle"])
@pytest.mark.parametrize("t", [1e-3, 0.03])
def test_derived_heat_tails_match_their_direct_sums(build, t):
    """The gradient kernels' sqrt(lambda) e^{-t lambda} tail and the amalgam
    column tail of e^{-2 t lambda} against the direct sums over 600 modes
    per axis: equal where the modes past the cutoff underflow (t = 0.03),
    above by at most 1e-3 where the closed-form remainder counts (t = 1e-3)."""
    basis = build()
    lam, sup2 = _unresolved_lattice(basis, 600 if basis.domain.n == 2 else 10**5)
    heat = heat_symbol(t)
    pairs = [(gradient_kernels(heat, basis)[0].tail_bound,
              sup2 * float(np.sum(np.sqrt(lam) * np.exp(-t * lam)))),
             (_column_tail_bound(heat, basis, 3) ** 2 / 3,
              sup2 * float(np.sum(np.exp(-2 * t * lam))))]
    for got, direct in pairs:
        if t == 0.03:
            assert got == pytest.approx(direct, rel=1e-12)
        else:
            assert direct * (1 - 1e-13) <= got <= direct * (1 + 1e-3)


def _counting(symbol, seen):
    """symbol with every evaluated point counted in seen[0]."""
    def fn(lam):
        seen[0] += np.size(lam)
        return symbol.fn(lam)
    return SymbolFn(fn=fn, tag=symbol.tag, support=symbol.support, majorant=symbol.majorant)


@pytest.mark.parametrize("symbol", [heat_symbol((math.pi / 32) ** 2), heat_symbol(1.0),
                                    resolvent_symbol(2.0, 1.0, 1e-3), resolvent_symbol(1.5, 1.0)],
                         ids=lambda s: s.tag)
@pytest.mark.parametrize("build", [_suite_rectangle,
                                   lambda: build_interval_basis(math.pi, 257, N=512)],
                         ids=["rectangle", "interval"])
def test_a_convergent_analytic_tail_evaluates_few_points(build, symbol):
    """At most 10^4 symbol evaluations, where the Weyl partial sum took 200,000."""
    seen = [0]
    tail = spectral.symbol_tail_bound(_counting(symbol, seen), build())
    assert 0 < seen[0] <= 10**4 and math.isfinite(tail)


def test_divergent_and_finite_difference_tails_keep_the_weyl_partial_sum():
    """A remainder that diverges (resolvent beta <= 1 in 2-D, <= 1/2 in 1-D)
    and every finite-difference basis keep the leading-order Weyl sum over
    200,000 modes with the observed node sup-norm, bit for bit."""
    cases = [(_suite_rectangle(), resolvent_symbol(1.0, 1.0)),
             (build_interval_basis(math.pi, 64, N=256), resolvent_symbol(0.5, 2.0, 0.1)),
             (build_fd_basis(lshape_domain(), 0.25, 12), heat_symbol(0.01)),
             (build_fd_basis(lshape_domain(), 0.25, 12), resolvent_symbol(2.0, 1.0))]
    for basis, symbol in cases:
        k1 = np.arange(basis.K, basis.K + 200_000, dtype=float)
        dom = basis.domain
        weyl = (k1 * np.pi / dom.lengths[0]) ** 2 if dom.n == 1 else 4 * np.pi * k1 / dom.volume
        lam = np.maximum(weyl, float(basis.eigenvalues[-1]))
        sup2 = float(max(basis.functions.max(), -basis.functions.min()) ** 2)
        want = float(np.sum(np.abs(symbol(lam))) * sup2)
        assert spectral.symbol_tail_bound(symbol, basis) == want


@pytest.mark.xfail(strict=True, reason="a divergent tail keeps the 200,000-term partial sum: "
                   "perfbench/workloads.py fails any kernel whose tail_bound is not finite, "
                   "and its resolvent requests draw beta in (0.5, 2)")
def test_a_divergent_rectangle_resolvent_tail_reads_inf():
    assert spectral.symbol_tail_bound(resolvent_symbol(1.0, 1.0), _suite_rectangle()) == math.inf


def _scipy_upper_gamma(s, x):
    from scipy.special import gamma, gammaincc

    return float(gamma(s) * gammaincc(s, x))


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_upper_gamma_closed_form_matches_scipy(s):
    """Gamma(s, x) for half-integer s against scipy.special on 400 points
    log-spaced in [1e-3, 700].  The tolerance is 2e-13, not 1e-13: against
    40-digit mpmath the closed form is off by at most 6.3e-16 there, but
    scipy's gamma * gammaincc by up to 1.03e-13 (s = 1/2, x near 700)."""
    for x in np.logspace(-3, math.log10(700.0), 400):
        assert spectral._upper_gamma(s, x) == pytest.approx(_scipy_upper_gamma(s, x), rel=2e-13)


def test_upper_gamma_half_reads_the_unrounded_root():
    """Gamma(1/2, x) against its asymptotic series e^{-x} x^{-1/2}
    sum_k (-1)^k (1/2)_k / x^k, 14 terms, exact to roundoff for x >= 200.
    erfc(fl(sqrt x)) alone is off by up to 2 x eps = 1.6e-13 at x = 700."""
    for x in np.linspace(200.0, 700.0, 101):
        terms, term = [], 1.0
        for k in range(14):
            terms.append(term)
            term *= -(k + 0.5) / x
        series = math.exp(-x) / math.sqrt(x) * math.fsum(terms)
        assert spectral._upper_gamma(0.5, x) == pytest.approx(series, rel=5e-15)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_upper_gamma_far_out_reads_zero_without_a_warning(s):
    """Past x = 745 the closed form reads 0.0.  At 1e86, 1e96 and 1e136,
    y^2 - x for y = fl(sqrt x) is of the order of ulp(x), and e^{y^2 - x}
    used to raise OverflowError for s = 1/2 and 3/2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (745.5, 1e6, 1e86, 1e96, 1e136, 1e300, math.inf):
            assert spectral._upper_gamma(s, x) == 0.0


def test_heat_kernel_at_a_huge_time_has_a_zero_tail():
    """The tail bound at t = 1e300 reads Gamma(s, t a) far out (it used to
    raise OverflowError); the kernel is the constant mode alone."""
    b = build_interval_basis(math.pi, 16, N=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ker = heat_kernel(1e300, b)
    assert ker.tail_bound == 0.0
    assert np.all(ker.symbol_values[1:] == 0.0) and ker.symbol_values[0] == 1.0


@pytest.mark.parametrize("s", [0.3, 6.5, 7.0])
def test_other_exponents_take_scipy(s):
    for x in (1e-3, 0.7, 30.0):
        assert spectral._upper_gamma(s, x) == _scipy_upper_gamma(s, x)


@pytest.mark.parametrize("build", [lambda: build_interval_basis(math.pi, 257, N=512),
                                   _suite_rectangle], ids=["i512", "rectangle"])
@pytest.mark.parametrize("t", [1e-7, 1e-5, 1e-3, 0.03])
def test_tail_bounds_agree_with_the_scipy_gamma_route(build, t, monkeypatch):
    """Heat, heat-gradient (q = 1/2) and squared-heat (the amalgam column
    tail) bounds with the closed form against the same bounds through
    scipy.special, to 1e-14.  At t = 1e-7 the closed-form remainder moves
    each bound by more than 1e-6, so the comparison reaches it."""
    basis, heat = build(), heat_symbol(t)

    def bounds():
        return (spectral.symbol_tail_bound(heat, basis),
                gradient_kernels(heat, basis)[0].tail_bound,
                _column_tail_bound(heat, basis, 3))

    got = bounds()
    monkeypatch.setattr(spectral, "_upper_gamma", _scipy_upper_gamma)
    assert bounds() == pytest.approx(got, rel=1e-14)
    if t == 1e-7:
        monkeypatch.setattr(spectral, "_upper_gamma", lambda s, x: 0.0)
        assert all(b < g * (1 - 1e-6) for b, g in zip(bounds(), got))


@pytest.mark.parametrize("variant", ["standard", "perturbed"])
@pytest.mark.parametrize("j", [None, -3, 0, 5])
def test_cap_symbol_declares_its_support(variant, j, basis, monkeypatch):
    """psi vanishes from mu = 4 on, so the cap's support ends at 4 4^j: it is
    0 there and positive just below (at 0.9 of it: psi's C-infinity approach
    to 0 rounds to 0 within 1 % of the end).  A cap whose support ends
    inside the band has tail 0.0 and is never evaluated for it."""
    pou = make_partition(variant)
    cap = cap_symbol(pou, j)
    lo, hi = cap.support
    assert (lo, hi) == (0.0, 4.0 * 4.0 ** (0 if j is None else j))
    assert cap(np.array([hi]))[0] == 0.0 and cap(np.array([0.9 * hi]))[0] > 0.0
    seen = [0]
    cls = type(pou)
    psi = cls.psi

    def counted(self, mu):
        seen[0] += np.size(mu)
        return psi(self, mu)

    monkeypatch.setattr(cls, "psi", counted)
    # At j = 5 the support ends at the first unresolved mode, 64^2 = 4096.
    assert spectral.symbol_tail_bound(cap, basis) == 0.0
    assert (seen[0] == 0) == (hi < float(basis.eigenvalues[-1]))


# Every float parameter of a symbol constructor: a valid value and the
# domain it must lie in.  A new parameter name fails collection until it is
# listed here.
_SYMBOL_PARAMS = {"t": (0.5, "positive"), "beta": (1.0, "positive"), "theta": (1.0, "positive"),
                  "M": (1.0, "non-negative"), "alpha": (0.5, "finite")}
_OUTSIDE = {"positive": (0.0, -1.0, math.nan, math.inf),
            "non-negative": (-1.0, math.nan, math.inf),
            "finite": (math.nan, math.inf, -math.inf)}


def _symbol_float_params():
    for ctor in (name for name in spectral.__all__ if name.endswith("_symbol")):
        for p in inspect.signature(getattr(spectral, ctor)).parameters.values():
            if p.annotation in ("float", float):
                for bad in _OUTSIDE[_SYMBOL_PARAMS[p.name][1]]:
                    yield pytest.param(ctor, p.name, bad, id=f"{ctor}-{p.name}={bad}")


@pytest.mark.parametrize("ctor, name, bad", list(_symbol_float_params()))
def test_symbol_constructors_reject_parameters_outside_their_domain(ctor, name, bad):
    """Each constructor builds from valid values and names the one float
    parameter set outside its domain."""
    fn = getattr(spectral, ctor)
    valid = {"pou": make_partition("standard"), "j": 2} | {
        k: v for k, (v, _) in _SYMBOL_PARAMS.items()}
    args = {p: valid[p] for p in inspect.signature(fn).parameters}
    fn(**args)
    with pytest.raises(ValueError, match="^" + re.escape(f"{name}={bad} must be")):
        fn(**(args | {name: bad}))


def test_non_finite_symbol_rejected(basis):
    # (lambda + 0)^-1 blows up on the zero mode.
    bad = resolvent_symbol(1.0, 0.0)
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite"):
        multiplier_kernel(bad, basis)


@pytest.mark.parametrize("rect", [False, True], ids=["interval", "rectangle"])
def test_apply_kernel_is_weighted_contraction(basis, rect, request):
    # Row blocks of the profile give the dense product bit for bit; the
    # dense product is taken from a second kernel before .matrix is refused.
    if rect:
        basis = build_rectangle_basis(math.pi, 2.0, 80, Nx=32, Ny=16)
    rng = np.random.default_rng(11)
    f = GridFunction(rng.standard_normal(basis.grid.n_nodes), basis.grid)
    expect = heat_kernel(0.2, basis).matrix @ (basis.grid.weights * f.values)
    ker = heat_kernel(0.2, basis)
    request.getfixturevalue("no_dense_kernels")
    out = apply_kernel(ker, f)
    np.testing.assert_array_equal(out.values, expect)
    with pytest.raises(AssertionError, match="matrix read"):
        ker.matrix


def test_analyze_synthesize_round_trip(basis):
    rng = np.random.default_rng(5)
    c = np.zeros(basis.K)
    c[:40] = rng.standard_normal(40)
    f = GridFunction(basis.functions.T @ c, basis.grid)
    coeffs = analyze(f, basis)
    np.testing.assert_allclose(coeffs.values, c, atol=1e-13)
    back = synthesize(coeffs)
    np.testing.assert_allclose(back.values, f.values, atol=1e-13)
    defect = lp_norm(f, 2.0) ** 2 - float(np.sum(coeffs.values**2))
    assert defect == pytest.approx(0.0, abs=1e-12)


def test_kernel_save_load_round_trip(tmp_path, basis):
    ker = heat_kernel(0.4, basis)
    p1 = tmp_path / "k.npz"
    save_kernel(ker, str(p1))
    loaded = load_kernel(str(p1), basis.grid)
    np.testing.assert_array_equal(loaded.matrix, ker.matrix)
    assert loaded.tag == ker.tag

    other = build_rectangle_basis(1.0, 1.0, 9, Nx=8, Ny=8)
    with pytest.raises(ValueError):
        load_kernel(str(p1), other.grid)


def _interval_kernels(N):
    b = build_interval_basis(math.pi, N // 2 + 1, N=N)
    return b, (heat_kernel(0.05, b), gradient_kernels(heat_symbol(0.05), b)[0])


@pytest.mark.parametrize("N", [64, 2048])
def test_interval_kernel_files_hold_the_profile(tmp_path, N):
    # The file holds the kernel's own source, 3N - 1 numbers (48 KB at
    # N = 2048, against 32 MB for the matrix), and the loaded kernel's
    # matrix is the original's bit for bit, for the odd gradient mirror too.
    b, kernels = _interval_kernels(N)
    for ker in kernels:
        p = tmp_path / "k.npz"
        save_kernel(ker, str(p))
        with np.load(p) as z:
            assert "profile" in z.files and "matrix" not in z.files
            assert z["profile"].shape == (3 * N - 1,)
        assert p.stat().st_size < 100_000
        loaded = load_kernel(str(p), b.grid)
        assert np.array_equal(loaded.profile, ker.profile)
        assert loaded.matrix.tobytes() == ker.matrix.tobytes()
        assert (loaded.tag, loaded.tail_bound) == (ker.tag, ker.tail_bound)
        assert np.array_equal(loaded.symbol_values, ker.symbol_values)


def _rectangle_kernels(Nx=12, Ny=8):
    b = build_rectangle_basis(math.pi, 2.0, (Nx // 2 + 1) * (Ny // 2 + 1), Nx=Nx, Ny=Ny)
    return b, (heat_kernel(0.05, b), *gradient_kernels(heat_symbol(0.05), b))


def test_rectangle_kernel_files_hold_the_profile(tmp_path):
    # (3Nx - 1) x (3Ny - 1) numbers, 72 KB at 32 x 32 against 8 MB for the
    # matrix, and the loaded kernel's matrix is the original's bit for bit,
    # for both odd gradient mirrors too.
    b, kernels = _rectangle_kernels(32, 32)
    for ker in kernels:
        p = tmp_path / "k.npz"
        save_kernel(ker, str(p))
        with np.load(p) as z:
            assert "profile" in z.files and "matrix" not in z.files
            assert z["profile"].shape == (95, 95)
        assert p.stat().st_size < 100_000
        loaded = load_kernel(str(p), b.grid)
        assert np.array_equal(loaded.profile, ker.profile) and loaded.profile.shape == (33, 33)
        assert loaded.matrix.tobytes() == ker.matrix.tobytes(), ker.tag
        assert (loaded.tag, loaded.tail_bound) == (ker.tag, ker.tail_bound)


def _saved_fields(ker, tmp_path):
    """The fields save_kernel writes for ker, for a test to edit and write
    back with np.savez."""
    p = tmp_path / "good.npz"
    save_kernel(ker, str(p))
    with np.load(p) as z:
        return {k: z[k] for k in z.files}


def _refused(tmp_path, fields, grid, match=None):
    """The ValueError load_kernel raises on a file of these fields; it names the file."""
    p = tmp_path / "bad.npz"
    np.savez(p, **fields)
    with pytest.raises(ValueError, match=match) as exc:
        load_kernel(str(p), grid)
    assert str(p) in str(exc.value)
    return str(exc.value)


@pytest.mark.parametrize("kernels", [_interval_kernels, _rectangle_kernels],
                         ids=["interval", "rectangle"])
def test_a_matrix_kernel_file_holds_the_callers_matrix(tmp_path, kernels):
    # A kernel file holds the kernel's one source: a caller's own matrix
    # kernel on an interval or rectangle grid is written as its matrix and
    # read back bit for bit, and a file with a profile and a matrix beside
    # it is refused by the extra field.
    b, kernels = kernels(64) if kernels is _interval_kernels else kernels()
    for ker in kernels:
        bare = OperatorKernel(b.grid, ker.tag, matrix=ker.matrix, symbol_values=ker.symbol_values,
                              tail_bound=ker.tail_bound)
        save_kernel(bare, str(tmp_path / "bare.npz"))
        with np.load(tmp_path / "bare.npz") as z:
            assert "matrix" in z.files and "profile" not in z.files
        loaded = load_kernel(str(tmp_path / "bare.npz"), b.grid)
        assert loaded.source == "matrix" and loaded.matrix.tobytes() == ker.matrix.tobytes()
        fields = _saved_fields(ker, tmp_path)
        fields["matrix"] = ker.matrix
        _refused(tmp_path, fields, b.grid,
                 match=r"missing fields \[\], unexpected fields \['matrix'\]")


_BAD_PROFILES = [
    ("short", "shape"), ("nan", "not finite"), ("inf", "not finite"),
    ("both", r"missing fields \[\], unexpected fields \['matrix'\]"), ("rectangle", "shape"),
    ("rect_short", "shape"), ("rect_nan", "not finite"),
    ("polygon", "a profile kernel needs an interval or rectangle grid"),
    ("complex", "float64"), ("string", "float64"),
]


@pytest.mark.parametrize("case, message", _BAD_PROFILES, ids=[c for c, _ in _BAD_PROFILES])
def test_load_kernel_rejects_a_bad_profile(tmp_path, case, message):
    # A 1-D profile on a rectangle grid ("rectangle") fails the shape check:
    # a rectangle profile is (3Nx - 1, 3Ny - 1).  A polygon grid has no
    # profile at all.
    b, (ker, *_) = _rectangle_kernels() if case.startswith("rect_") else _interval_kernels(64)
    grid = b.grid
    fields = _saved_fields(ker, tmp_path)
    prof = fields["profile"]
    if case in ("short", "rect_short"):
        fields["profile"] = prof[:-1]
    elif case in ("nan", "inf", "rect_nan"):
        prof[5] = np.inf if case == "inf" else np.nan
    elif case == "both":
        fields["matrix"] = ker.matrix
    elif case == "rectangle":
        grid = build_rectangle_basis(math.pi, 2.0, 4, Nx=8, Ny=8).grid
    elif case == "polygon":
        grid = polygon_grid(lshape_domain(), 0.25)
    elif case == "complex":
        fields["profile"] = prof + 0j
    elif case == "string":
        fields["profile"] = prof.astype(str)
    fields["grid_id"] = np.array(grid.grid_id())
    _refused(tmp_path, fields, grid, match=message)


def test_columns_are_the_transposed_matrix_columns():
    # Bit for bit, before and after the matrix is formed, and for the
    # gradient kernel, whose odd mirror makes it far from symmetric.
    b, kernels = _interval_kernels(64)
    rect = build_rectangle_basis(math.pi, 2.0, 30, Nx=12, Ny=8)
    idx = np.array([0, 1, 2, 17, 40, 63])
    for ker in (*kernels, heat_kernel(0.05, rect)):
        got = ker.columns(idx)
        want = ker.matrix[:, idx].T
        assert got.shape == (idx.size, ker.grid.n_nodes), ker.tag
        assert np.array_equal(got, want) and np.array_equal(ker.columns(idx), want), ker.tag
    grad = kernels[1].matrix
    assert float(np.max(np.abs(grad - grad.T))) > 1.0


def test_gradient_kernel_22_norm_is_max_sqrt_lambda_phi():
    # Negative control for the 2->2 route: d/dx phi(H) maps the cosines to
    # the orthonormal sines with factors sqrt(lambda_k) phi(lambda_k), so a
    # gradient kernel that carried phi(lambda_k) as its values would report
    # 1.0 here instead of 1.91 and 9.35.
    b = build_interval_basis(math.pi, 33, N=64)
    sq = np.sqrt(b.eigenvalues)
    for sym in (heat_symbol(0.05), block_symbol(make_partition("standard"), 3)):
        (ker,) = gradient_kernels(sym, b)
        s = sym(b.eigenvalues)
        assert np.array_equal(ker.symbol_values, -(np.arange(33) * np.pi / math.pi) * s)
        want = float(np.max(sq * np.abs(s)))
        assert want > 1.5
        assert endpoint_norms(ker)["2->2"] == want, sym.tag


def _weighted_svd(ker):
    sw = np.sqrt(ker.grid.weights)
    return np.linalg.svd(sw[:, None] * ker.matrix * sw[None, :], compute_uv=False)


@pytest.mark.parametrize("case", ["interval", "rectangle", "lshape"])
def test_assembled_kernels_take_no_svd(case, monkeypatch):
    # Every kernel multiplier_kernel and gradient_kernels build carries the
    # values its 2->2 norm is read from, on analytic and finite-difference
    # bases alike: the dense SVD is the oracle, taken before it is refused.
    b = {"interval": lambda: build_interval_basis(math.pi, 33, N=64),
         "rectangle": lambda: build_rectangle_basis(math.pi, 2.0, 35, Nx=12, Ny=8),
         "lshape": lambda: build_fd_basis(lshape_domain(), 0.1, 40)}[case]()
    pou = make_partition("standard")
    kernels = [k for sym in (heat_symbol(0.05), block_symbol(pou, 1), resolvent_symbol(0.75, 1.0))
               for k in (multiplier_kernel(sym, b), *gradient_kernels(sym, b))]
    want = [_weighted_svd(k)[0] for k in kernels]

    def refuse(*args, **kwargs):
        raise AssertionError("dense SVD taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for ker, w in zip(kernels, want):
        assert endpoint_norms(ker)["2->2"] == pytest.approx(w, rel=1e-12, abs=0), ker.tag


@pytest.mark.parametrize("case, tol", [("interval", 1e-14), ("rectangle", 1e-14),
                                       ("lshape", 1e-7)], ids=["interval", "rectangle", "lshape"])
def test_gradient_kernel_values_are_its_singular_values(case, tol):
    # The whole spectrum, not only its top: |-kappa phi| on analytic bases
    # (0 for a mode constant along the axis), and on a finite-difference
    # basis the square roots of the K x K Gram's eigenvalues, whose small
    # ones keep only about half the digits of the largest.
    b = {"interval": lambda: build_interval_basis(math.pi, 33, N=64),
         "rectangle": lambda: build_rectangle_basis(math.pi, 2.0, 35, Nx=12, Ny=8),
         "lshape": lambda: build_fd_basis(lshape_domain(), 0.1, 40)}[case]()
    for ker in gradient_kernels(heat_symbol(0.05), b):
        sv = _weighted_svd(ker)[:b.K]
        got = np.sort(np.abs(ker.symbol_values))[::-1]
        assert np.allclose(got, sv, rtol=0, atol=tol * sv[0]), ker.tag


def test_gradient_kernel_save_load_keeps_vector_data(tmp_path, basis):
    rect = build_rectangle_basis(math.pi, 2.0, 30, Nx=12, Ny=8)
    for b in (basis, rect):
        kers = gradient_kernels(heat_symbol(0.05), b)
        assert len(kers) == b.domain.n
        for c, ker in enumerate(kers):
            p = tmp_path / f"g{c}.npz"
            save_kernel(ker, str(p))
            loaded = load_kernel(str(p), b.grid)
            a, m = loaded.matrix, ker.matrix
            assert a.dtype == m.dtype and a.shape == m.shape and a.tobytes() == m.tobytes()
            assert np.array_equal(loaded.symbol_values, ker.symbol_values)
            assert (loaded.tag, loaded.tail_bound) == (ker.tag, ker.tail_bound)
            assert endpoint_norms(loaded) == endpoint_norms(ker)


def test_load_kernel_refuses_files_of_earlier_layouts(tmp_path, basis):
    # A file with no format tag (every file before nbesov-kernel/2, such as
    # the vector layout with components beside the matrix) is refused by its
    # format, and a tagged file that adds components by the extra field.
    (ker,) = gradient_kernels(heat_symbol(0.05), basis)
    old = dict(matrix=ker.matrix, tag=np.array(ker.tag),
               grid_id=np.array(basis.grid.grid_id()), tail_bound=np.array(0.0),
               symbol_values=np.array([]), components=ker.matrix[None])
    message = _refused(tmp_path, old, basis.grid, match="not a nbesov-kernel/3 file")
    assert "'format' is None" in message and "nbesov heat --out" in message
    fields = _saved_fields(ker, tmp_path)
    _refused(tmp_path, dict(fields, format=np.array("nbesov-kernel/1")), basis.grid,
             match="'nbesov-kernel/1'")
    _refused(tmp_path, dict(fields, components=ker.matrix[None]), basis.grid,
             match=r"missing fields \[\], unexpected fields \['components'\]")


@pytest.mark.parametrize("field", ["format", "profile", "tag", "grid_id", "tail_bound",
                                   "symbol_values"])
def test_load_kernel_names_a_missing_field(tmp_path, basis, field):
    # A file without its format tag is refused by the format; any other
    # missing field is named as the one missing field.
    fields = _saved_fields(heat_kernel(0.05, basis), tmp_path)
    del fields[field]
    message = (r"field 'format' is None" if field == "format"
               else rf"missing fields \[{field!r}\], unexpected fields \[\]")
    _refused(tmp_path, fields, basis.grid, match=message)


def _oracle_symbols(basis):
    pou = make_partition("standard")
    top = math.sqrt(float(basis.eigenvalues[-1]))
    j = max(0, math.floor(math.log2(top)) - 1) if top > 0 else 0
    return (heat_symbol(1e-3), block_symbol(pou, j), power_block_symbol(pou, j, -0.5),
            resolvent_symbol(0.75, 1.0))


@pytest.mark.parametrize("N", [1, 7, 512, 2048])
@pytest.mark.parametrize("top", [False, True])
def test_interval_kernels_match_dense_oracle(N, top):
    # The interval route (Toeplitz + Hankel from one DCT-I / DST-I) against
    # the dense sums it replaces, at K = 1 and at the top resolved mode.
    basis = build_interval_basis(math.pi, N // 2 + 1 if top else 1, N=N)
    E, G = basis.functions, basis.gradients()[0]
    for sym in _oracle_symbols(basis):
        s = sym(basis.eigenvalues)
        ker = multiplier_kernel(sym, basis).matrix
        assert np.array_equal(ker, ker.T), sym.tag
        (grad,) = gradient_kernels(sym, basis)
        assert grad.matrix.shape == (N, N)
        for got, ref in ((ker, (E.T * s) @ E), (grad.matrix, (G.T * s) @ E)):
            err = float(np.max(np.abs(got - ref)))
            assert err <= 1e-12 * float(np.max(np.abs(ref))), (sym.tag, err)


@pytest.mark.parametrize("Lx, Ly, Nx, Ny", [(math.pi, 2.0, 12, 8), (7.0, 4.0, 7, 4)])
@pytest.mark.parametrize("top", [False, True])
def test_rectangle_kernels_match_dense_oracle(Lx, Ly, Nx, Ny, top):
    # The four-term profile route against E^T diag(phi) E and
    # G_c^T diag(phi) E on both axes, at K = 1 and with every resolvable mode.
    K = (Nx // 2 + 1) * (Ny // 2 + 1) if top else 1
    basis = build_rectangle_basis(Lx, Ly, K, Nx=Nx, Ny=Ny)
    E, G = basis.functions, basis.gradients()
    for sym in _oracle_symbols(basis):
        s = sym(basis.eigenvalues)
        ker = multiplier_kernel(sym, basis)
        assert ker.profile.shape == (Nx + 1, Ny + 1)
        pairs = [(ker.matrix, (E.T * s) @ E)]
        pairs += [(g.matrix, (Gc.T * s) @ E) for g, Gc in zip(gradient_kernels(sym, basis), G)]
        for c, (got, ref) in enumerate(pairs):
            err = float(np.max(np.abs(got - ref)))
            assert err <= 1e-14 * float(np.max(np.abs(ref))), (sym.tag, c, err)
        assert np.array_equal(ker.matrix, ker.matrix.T), sym.tag


def test_rectangle_readers_agree_bit_for_bit():
    # row_blocks(), columns() and matrix all read the one profile in the one
    # summation order: equal before and after the matrix is formed, for the
    # scalar kernel and both gradient axes, and no block is a partial row
    # of nodes.
    b, kernels = _rectangle_kernels(7, 4)
    idx = np.array([0, 1, 5, 13, 27])
    for ker in kernels:
        blocks = [(r0, B.copy()) for r0, B in ker.row_blocks()]
        cols = ker.columns(idx)
        assert ker._matrix is None, ker.tag
        M = ker.matrix
        assert [r0 for r0, _ in blocks] == [0] and np.array_equal(blocks[0][1], M), ker.tag
        assert np.array_equal(cols, M[:, idx].T) and np.array_equal(ker.columns(idx), cols)
        assert np.array_equal(np.vstack([B.copy() for _, B in ker.row_blocks()]), M)
    b, (ker, *_) = _rectangle_kernels(32, 10)
    starts = [r0 for r0, _ in ker.row_blocks()]
    assert starts == list(range(0, 320, 60))
    assert np.array_equal(np.vstack([B.copy() for _, B in heat_kernel(0.05, b).row_blocks()]),
                          ker.matrix)


def _ld_rectangle_kernel(basis, svals):
    """The kernel sum_k phi_k e_k(x) e_k(y) in long double: modes from a
    long-double pi, summed as a tensor contraction over the mode grid."""
    pi = np.longdouble("3.14159265358979323846264338327950288")
    ks = np.asarray(basis.mode_index)
    ld = np.longdouble

    def modes(L, N, top):
        a, i = np.arange(top + 1, dtype=ld)[:, None], np.arange(N, dtype=ld)[None, :]
        e = np.cos(pi * a * (2 * i + 1) / (2 * N)) * np.sqrt(ld(2) / ld(L))
        e[0] = 1 / np.sqrt(ld(L))
        return e[:, :, None] * e[:, None, :]  # e_a(x_i) e_a(x_i')

    (Lx, Ly), (Nx, Ny) = basis.domain.lengths, basis.grid.shape
    X, Y = modes(Lx, Nx, ks[:, 0].max()), modes(Ly, Ny, ks[:, 1].max())
    Phi = np.zeros((len(X), len(Y)), dtype=ld)
    Phi[ks[:, 0], ks[:, 1]] = svals
    K = np.tensordot(np.tensordot(Phi, X, axes=(0, 0)), Y, axes=(0, 0))
    return K.transpose(0, 2, 1, 3).reshape(Nx * Ny, Nx * Ny)


def test_rectangle_kernel_roundoff_leaves_the_scan_floor_headroom():
    # The heat scan treats kernel values below 1e-14 max diag K_t as noise.
    # On the suite's 32 x 32 rectangle the four-term kernel is within
    # 1.7e-16 max diag of the long-double sum at these t (61x headroom;
    # the dense E^T diag(phi) E is off by up to 2.3e-15).
    b = build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32)
    for t in (b.grid.h ** 2, 1e-3, 0.1):
        ker = heat_kernel(t, b)
        ref = _ld_rectangle_kernel(b, ker.symbol_values)
        diag_max = float(np.max(np.diag(ref)))
        err = float(np.max(np.abs(ker.matrix - ref)))
        assert 6 * err <= 1e-14 * diag_max, (t, err / diag_max)


@pytest.mark.parametrize("N", [1, 7, 512])
@pytest.mark.parametrize("top", [False, True])
def test_interval_kernels_are_sums_of_the_profile(N, top):
    # Both interval kernels are v(i-j) + v(i+j+1) bit for bit, with v(0..N)
    # from kernel_profile and v(-q) = v(2N-q) = v(q), or -v(q) for the
    # gradient's DST-I profile.  The kernel's read-only profile is that v.
    basis = build_interval_basis(math.pi, N // 2 + 1 if top else 1, N=N)
    i, j = np.indices((N, N))
    for sym in _oracle_symbols(basis):
        s = sym(basis.eigenvalues)
        for grad, kernel in ((False, multiplier_kernel(sym, basis)),
                             (True, gradient_kernels(sym, basis)[0])):
            v = kernel_profile(s, basis, 0 if grad else None)
            assert v.shape == (N + 1,)
            assert np.array_equal(kernel.profile, v) and not kernel.profile.flags.writeable
            ker = kernel.matrix
            sign = -1.0 if grad else 1.0
            full = np.concatenate((v, sign * v[N - 1:0:-1]))  # v(q), q = 0..2N-1
            T = np.where(i >= j, full[np.abs(i - j)], sign * full[np.abs(i - j)])
            assert np.array_equal(ker, T + full[i + j + 1]), (sym.tag, grad)


@pytest.mark.parametrize("shape", [(2,), (3,), (9,), (513,), (2049,), (8, 6), (33, 31), (33, 33)])
def test_type1_transforms_match_scipy(shape):
    """The rfft-of-extension DCT-I and DST-I against scipy.fft along every
    axis, each entry within 1e-15 of the sum of |x| over its line.  On the
    interval of shape (2,) (N = 1) the DST-I interior is empty: all zeros.
    The DST-I reads only the interior: other end values leave it bit for bit."""
    from scipy.fft import dct, dst

    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    for ax, n in enumerate(d - 1 for d in shape):
        scale = 1e-15 * np.sum(np.abs(x), axis=ax, keepdims=True)
        inner = (slice(None),) * ax + (slice(1, n),)
        sine = np.zeros(shape)
        if n > 1:
            sine[inner] = dst(x[inner], type=1, axis=ax)
        for got, ref in ((spectral._type1(x, ax), dct(x, type=1, axis=ax)),
                         (spectral._type1(x, ax, sine=True), sine)):
            assert got.shape == shape and np.all(np.abs(got - ref) <= scale), (ax, got - ref)
        ends = x.copy()
        ends[(slice(None),) * ax + ([0, n],)] *= 1e8
        assert np.array_equal(spectral._type1(ends, ax, sine=True), spectral._type1(x, ax, sine=True))


def _exact_max(sums, terms):
    """max over i of math.fsum(terms(i)), over the candidate i whose BLAS sum
    is within 1e-12 of the largest."""
    cand = np.flatnonzero(sums >= sums.max() * (1 - 1e-12))
    return max(math.fsum(terms(i).tolist()) for i in cand)


def _dense_magnitude_norms(ker):
    """The three norms read off one dense |K|.  1->1 and inf->inf sum each
    candidate column and row exactly (math.fsum): the BLAS sums w @ |K| and
    |K| @ w are themselves off by up to 1.3e-15 relative at N = 2048."""
    w, mag = ker.grid.weights, np.abs(ker.matrix)
    return {"1->1": _exact_max(w @ mag, lambda j: w * mag[:, j]),
            "1->inf": float(np.max(mag)),
            "inf->inf": _exact_max(mag @ w, lambda i: mag[i] * w)}


@pytest.mark.parametrize("N", [255, 512, 2048])
def test_streamed_norms_match_the_dense_oracle(N):
    # 1->inf reads every distinct entry, so it equals the dense oracle bit
    # for bit; 1->1 and inf->inf add the column sums block by block and the
    # row sums of one row per mirror orbit, so they agree with the exact
    # sums to roundoff.
    basis = build_interval_basis(32 * math.pi, N // 2 + 1, N=N)
    rect = build_rectangle_basis(math.pi, 2.0, 30, Nx=12, Ny=8)
    kernels = [k for sym in _oracle_symbols(basis)
               for k in (multiplier_kernel(sym, basis), gradient_kernels(sym, basis)[0])]
    for ker in kernels + [heat_kernel(0.05, rect)]:
        got = endpoint_norms(ker)
        want = _dense_magnitude_norms(ker)
        assert got["1->inf"] == want["1->inf"], ker.tag
        for name in ("1->1", "inf->inf"):
            assert got[name] == pytest.approx(want[name], rel=1e-15, abs=0), (ker.tag, name)


def _full_row_norms(ker):
    """The full-row read: 1->1, 1->inf and inf->inf over every row of
    ker.row_blocks(), as BLAS sums, and again with 1->1 and inf->inf summed
    exactly (math.fsum) over the candidate columns and rows within 1e-12 of
    the largest."""
    w = ker.grid.weights
    cols, rows, peaks = np.zeros(w.size), np.empty(w.size), np.empty(w.size)
    for r0, B in ker.row_blocks():
        mag = np.abs(B, out=B)
        r1 = r0 + len(mag)
        cols += w[r0:r1] @ mag
        rows[r0:r1] = mag @ w
        peaks[r0:r1] = mag.max(axis=1)
    blas = {"1->1": float(np.max(cols)), "1->inf": float(np.max(peaks)),
            "inf->inf": float(np.max(rows))}
    cand_r = np.flatnonzero(rows >= rows.max() * (1 - 1e-12))
    cand_c = np.flatnonzero(cols >= cols.max() * (1 - 1e-12))
    exact_rows = [math.fsum((np.abs(B[i - r0]) * w).tolist())
                  for r0, B in ker.row_blocks() for i in cand_r if r0 <= i < r0 + len(B)]
    exact_cols = [math.fsum((w * np.abs(col)).tolist()) for col in ker.columns(cand_c)]
    return blas, dict(blas, **{"1->1": max(exact_cols), "inf->inf": max(exact_rows)})


def _mirror_case_kernels(case):
    """Scalar kernels and every gradient axis on one grid: heat and a
    dyadic block, or at N = 2048 (the gradient experiment's 32 pi interval)
    two blocks, whose few near-top rows and columns keep the exact sums
    cheap (heat has 2048 there); test_streamed_norms_match_the_dense_oracle
    covers heat at N = 2048."""
    pou = make_partition("standard")
    syms = (heat_symbol(0.05), block_symbol(pou, 1))
    if case == ("interval", 2048):
        b, syms = build_interval_basis(32 * math.pi, 1025, N=2048), (block_symbol(pou, j)
                                                                    for j in (1, 3))
    elif case[0] == "interval":
        b = build_interval_basis(math.pi, case[1] // 2 + 1, N=case[1])
    else:
        b = build_rectangle_basis(math.pi, 2.0, min(200, (case[1] // 2 + 1) * (case[2] // 2 + 1)),
                                  Nx=case[1], Ny=case[2])
    return b, [k for sym in syms for k in (multiplier_kernel(sym, b), *gradient_kernels(sym, b))]


_MIRROR_CASES = [("interval", 7), ("interval", 8), ("interval", 2048),
                 ("rectangle", 7, 9), ("rectangle", 8, 6), ("rectangle", 32, 32)]


@pytest.mark.parametrize("case", _MIRROR_CASES, ids=["i7", "i8", "i2048", "r7x9", "r8x6", "r32"])
def test_orbit_read_norms_match_the_full_row_read(case, monkeypatch):
    # endpoint_norms reads one row per mirror orbit of a profile kernel,
    # ceil(N/2) rows on an interval and ceil(Nx/2) ceil(Ny/2) on a
    # rectangle, odd N putting a row on a mirror line.  1->inf is the full
    # read's bit for bit; 1->1 and inf->inf are the exact sums to the
    # rounding of one BLAS sum of N terms: at N = 2048 the orbit row of
    # grad0 block j=3 reads its row sum 1.02e-15 below the exact one (its
    # mirror row, which the full read also takes, 3.9e-16).
    b, kernels = _mirror_case_kernels(case)
    read, real = [], OperatorKernel.row_blocks

    def counted(self, *args, **kwargs):
        for r0, B in real(self, *args, **kwargs):
            read.append(len(B))
            yield r0, B

    for ker in kernels:
        _, want = _full_row_norms(ker)
        read.clear()
        with monkeypatch.context() as m:
            m.setattr(OperatorKernel, "row_blocks", counted)
            got = endpoint_norms(ker)
        assert sum(read) == math.prod(-(-n // 2) for n in b.grid.shape), ker.tag
        assert got["1->inf"] == want["1->inf"], ker.tag
        for name in ("1->1", "inf->inf"):
            assert got[name] == pytest.approx(want[name], rel=2e-15, abs=0), (ker.tag, name)


def test_matrix_kernels_keep_the_full_row_read():
    # A caller's matrix has no mirror symmetry and no factor, so
    # endpoint_norms reads every row, as the full-row read does, bit for bit.
    b = build_fd_basis(lshape_domain(), 0.1, 40)
    for sym in (heat_symbol(0.05), block_symbol(make_partition("standard"), 1)):
        for fd in (multiplier_kernel(sym, b), *gradient_kernels(sym, b)):
            ker = OperatorKernel(b.grid, fd.tag, matrix=fd.matrix, symbol_values=fd.symbol_values,
                                 tail_bound=fd.tail_bound)
            blas, _ = _full_row_norms(ker)
            assert {k: v for k, v in endpoint_norms(ker).items() if k != "2->2"} == blas, ker.tag


@pytest.mark.parametrize("case", ["h0.1", "h0.05"])
def test_factor_kernel_norms_match_the_full_row_read(case, request):
    # A symmetric factor kernel is read by its upper block triangle and a
    # gradient factor kernel row block by row block from its factor: 1->inf
    # is the full-row read of .matrix bit for bit, and 1->1 and inf->inf
    # agree with it to the rounding of the sums (the standard of the
    # mirror-orbit read), and are one number on a symmetric kernel.
    # The caller's factor grows along the nodes, so its heaviest row is the
    # last, whose sum lies almost wholly in blocks below the diagonal.
    b = request.getfixturevalue("lshape10" if case == "h0.1" else "lshape05")
    pou = make_partition("standard")
    N = b.grid.n_nodes
    ramp = OperatorKernel(b.grid, "ramp", symbol_values=np.ones(5), tail_bound=0.0, factor=(
        np.arange(1.0, 6.0), np.random.default_rng(4).standard_normal((5, N)) * np.arange(N)))
    for sym in (heat_symbol(0.01), block_symbol(pou, 1), resolvent_symbol(0.75, 1.0), None):
        for ker in (multiplier_kernel(sym, b), *gradient_kernels(sym, b)) if sym else (ramp,):
            M = np.abs(ker.matrix)
            w = b.grid.weights
            want = {"1->1": float(np.max(w @ M)), "1->inf": float(np.max(M)),
                    "inf->inf": float(np.max(M @ w))}
            got = endpoint_norms(ker)
            assert got["1->inf"] == want["1->inf"], ker.tag
            for name in ("1->1", "inf->inf"):
                assert got[name] == pytest.approx(want[name], rel=2e-15, abs=0), (ker.tag, name)
            if ker.factor[0].ndim == 1:
                assert got["1->1"] == got["inf->inf"], ker.tag


def test_a_profile_that_is_not_mirrored_is_refused(tmp_path):
    # endpoint_norms relies on every profile being mirrored value for value,
    # so a kernel file with one outer profile entry moved by one ulp is
    # refused and named, as is a kernel built on such a profile; the
    # gradient kernels, odd on the differentiated axis, still load.
    for b, kernels in (_interval_kernels(64), _rectangle_kernels()):
        for ker in kernels:
            p = tmp_path / "k.npz"
            save_kernel(ker, str(p))
            assert load_kernel(str(p), b.grid).profile.tobytes() == ker.profile.tobytes()
        fields = _saved_fields(kernels[0], tmp_path)
        prof = fields["profile"]
        prof.flat[0] = np.nextafter(prof.flat[0], np.inf)
        _refused(tmp_path, fields, b.grid, match="not a mirrored profile")
        with pytest.raises(ValueError, match="not a mirrored profile"):
            OperatorKernel(b.grid, "broken", profile=prof, symbol_values=np.ones(1), tail_bound=0.0)
        with pytest.raises(ValueError, match="not a mirrored profile"):
            OperatorKernel(b.grid, "short", profile=prof[:-1], symbol_values=np.ones(1),
                           tail_bound=0.0)


@pytest.mark.parametrize("N", [1, 255, 256])
def test_interval_matrix_is_formed_once(N, monkeypatch):
    # The lazy matrix is the Toeplitz + Hankel sum the kernel builders used
    # to return, and row_blocks() reads the same rows from the profile
    # before it is formed and from the matrix after.
    basis = build_interval_basis(math.pi, N // 2 + 1, N=N)
    calls = []
    real = OperatorKernel._folds
    monkeypatch.setattr(OperatorKernel, "_folds", lambda self: calls.append(1) or real(self))
    sym = heat_symbol(0.05)
    for grad, ker in ((False, multiplier_kernel(sym, basis)),
                      (True, gradient_kernels(sym, basis)[0])):
        v = kernel_profile(sym(basis.eigenvalues), basis, 0 if grad else None)
        mirror = (-v if grad else v)[N - 1:0:-1]
        prof = np.concatenate((mirror, v, mirror))
        Kmat = sliding_window_view(prof[:2 * N - 1], N)[:, ::-1] + sliding_window_view(prof[N:], N)
        calls.clear()
        streamed = np.vstack([B.copy() for _, B in ker.row_blocks()])
        first = ker.matrix
        assert np.array_equal(streamed, Kmat) and np.array_equal(first, Kmat)
        assert ker.matrix is first and len(calls) == 2
        again = np.vstack([B.copy() for _, B in ker.row_blocks()])
        assert np.array_equal(again, Kmat) and len(calls) == 2


def test_kernel_takes_one_source_and_its_values(basis):
    with pytest.raises(ValueError, match="exactly one"):
        OperatorKernel(basis.grid, "none", symbol_values=np.ones(1), tail_bound=0.0)
    with pytest.raises(ValueError, match="exactly one"):
        OperatorKernel(basis.grid, "both", matrix=np.eye(256), profile=np.zeros(767),
                       symbol_values=np.ones(1), tail_bound=0.0)
    with pytest.raises(TypeError, match="symbol_values"):
        OperatorKernel(basis.grid, "bare", matrix=np.eye(256), tail_bound=0.0)
    # No kernel claims a tail bound it was not given.
    with pytest.raises(TypeError, match="tail_bound"):
        OperatorKernel(basis.grid, "untailed", matrix=np.eye(256), symbol_values=np.ones(1))


def test_kernel_profile_rejects_other_bases():
    basis = build_fd_basis(lshape_domain(), 0.25, 6)
    with pytest.raises(ValueError, match="analytic interval or rectangle"):
        kernel_profile(np.ones(6), basis)
    assert heat_kernel(0.1, basis).profile is None
    rect = build_rectangle_basis(math.pi, 2.0, 4, Nx=4, Ny=6)
    assert heat_kernel(0.1, rect).profile.shape == (5, 7)


def test_interval_kernels_from_loaded_basis_are_bitwise_equal(tmp_path):
    built = build_interval_basis(math.pi, 257, N=512)
    p = tmp_path / "b.json"
    save_basis(built, str(p))
    loaded = load_basis(str(p))
    for sym in _oracle_symbols(built):
        assert np.array_equal(multiplier_kernel(sym, loaded).matrix,
                              multiplier_kernel(sym, built).matrix)
        (got,), (want,) = gradient_kernels(sym, loaded), gradient_kernels(sym, built)
        assert np.array_equal(got.matrix, want.matrix)


def test_product_rejects_equal_size_grid_of_other_length():
    a = build_interval_basis(1.0, 4, N=16).grid
    b = build_interval_basis(2.0, 4, N=16).grid
    f = GridFunction.constant(a, 2.0)
    assert np.all(f.product(GridFunction.constant(build_interval_basis(1.0, 4, N=16).grid,
                                                  3.0)).values == 6.0)
    with pytest.raises(ValueError, match="shared grid"):
        f.product(GridFunction.constant(b, 3.0))


@pytest.mark.parametrize("op", ["__add__", "__sub__"])
def test_arithmetic_rejects_functions_on_other_grids(op):
    from nbesov.domains import interval_grid

    f = GridFunction.constant(interval_grid(1.0, 8))
    same = GridFunction.constant(interval_grid(1.0, 8), 2.0)
    assert np.all(getattr(f, op)(same).values == (3.0 if op == "__add__" else -1.0))
    with pytest.raises(ValueError, match="shared grid"):
        getattr(f, op)(GridFunction.constant(interval_grid(2.0, 8)))


@pytest.mark.parametrize("bad", ["small", "nan", "inf", "float32"])
def test_load_kernel_rejects_a_bad_matrix(tmp_path, bad):
    # A caller's matrix kernel, whose file holds the matrix.
    b = build_fd_basis(lshape_domain(), 0.25, 6)
    fd = multiplier_kernel(heat_symbol(0.05), b)
    fields = _saved_fields(OperatorKernel(b.grid, fd.tag, matrix=fd.matrix,
                                          symbol_values=fd.symbol_values, tail_bound=0.0), tmp_path)
    M = fields["matrix"]
    if bad == "small":
        fields["matrix"] = M[:3, :3]
    elif bad == "float32":
        fields["matrix"] = M.astype(np.float32)
    else:
        M[1, 2] = np.nan if bad == "nan" else np.inf
    _refused(tmp_path, fields, b.grid, match="matrix")


@pytest.mark.parametrize("field, value, message", [
    ("symbol_values", np.full(64, np.nan), "not finite"), ("tail_bound", np.nan, ">= 0"),
    ("tail_bound", -1.0, ">= 0"), ("tail_bound", np.zeros(2), "shape"),
    ("symbol_values", "text", "float64"), ("symbol_values", np.zeros((2, 3)), "shape"),
    ("symbol_values", np.array([]), "shape"), ("tail_bound", np.array(1), "float64"),
], ids=["values_nan", "tail_nan", "tail_negative", "tail_vector", "values_string",
        "values_matrix", "values_empty", "tail_int"])
def test_load_kernel_rejects_bad_values_or_tail(tmp_path, basis, field, value, message):
    # Each malformed field is one ValueError that names the file, not a
    # TypeError from float() or isfinite, nor a kernel that loads and
    # reports a 2->2 norm of 0.
    fields = _saved_fields(multiplier_kernel(heat_symbol(0.05), basis), tmp_path)
    fields[field] = np.asarray(value)
    _refused(tmp_path, fields, basis.grid, match=message)


@pytest.mark.parametrize("damage", ["truncated", "flipped_byte"])
def test_load_kernel_names_a_truncated_or_corrupt_file(tmp_path, basis, damage):
    p = tmp_path / "k.npz"
    save_kernel(heat_kernel(0.05, basis), str(p))
    raw = bytearray(p.read_bytes())
    if damage == "truncated":
        raw = raw[:len(raw) // 2]
    else:
        raw[len(raw) // 3] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as exc:
        load_kernel(str(p), basis.grid)
    assert str(p) in str(exc.value)


def test_load_kernel_keeps_an_infinite_tail_bound(tmp_path, basis):
    fields = _saved_fields(multiplier_kernel(heat_symbol(0.05), basis), tmp_path)
    p = tmp_path / "divergent.npz"
    np.savez(p, **dict(fields, tail_bound=np.array(np.inf)))
    assert load_kernel(str(p), basis.grid).tail_bound == np.inf


def test_grid_id_keeps_full_precision(tmp_path, basis):
    assert interval_grid(math.pi, 512).grid_id() != interval_grid(3.14159, 512).grid_id()
    assert basis.grid.grid_id() == f"interval[{math.pi!r}]/h={math.pi / 256!r}/N=256"
    # A kernel file stamped with the old six-digit id no longer loads.
    fields = _saved_fields(multiplier_kernel(heat_symbol(0.05), basis), tmp_path)
    fields["grid_id"] = np.array("interval[3.14159]/h=0.0122718/N=256")
    _refused(tmp_path, fields, basis.grid, match="dumped for grid")


def test_polygon_grid_ids_name_the_cells():
    # The L-shape and its mirror image have the same bounding box, spacing
    # and node count but different nodes.
    lshape = lshape_domain()
    mirror = Domain(kind="polygon", n=2, lengths=(2.0, 2.0), volume=3.0,
                    cells=((0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 2.0)))
    grid, other = polygon_grid(lshape, 0.1), polygon_grid(mirror, 0.1)
    assert grid.n_nodes == other.n_nodes == 300
    assert grid.grid_id() == ("polygon[2.0x2.0]{0.0,1.0,0.0,2.0;1.0,2.0,0.0,1.0}"
                              "/h=0.1x0.1/N=300")
    assert other.grid_id() != grid.grid_id()
    basis = build_fd_basis(lshape, 0.1, 6)
    with pytest.raises(ValueError, match="cannot be analyzed"):
        analyze(GridFunction(np.ones(300), other), basis)
    with pytest.raises(ValueError):
        GridFunction(np.ones(300), grid) + GridFunction(np.ones(300), other)
    # Interval and rectangle ids carry no cell list.
    rect = rectangle_grid(math.pi, 2.0, 12, 8)
    assert rect.grid_id() == f"rectangle[{math.pi!r}x2.0]/h={math.pi / 12!r}x0.25/N=96"


def test_apply_kernel_rejects_a_function_on_another_grid():
    # A pi-interval kernel weighted ones on the unit interval's grid to 1/pi.
    ker = heat_kernel(0.1, build_interval_basis(math.pi, 32, N=64))
    with pytest.raises(ValueError, match="cannot be acted on by a kernel"):
        apply_kernel(ker, GridFunction(np.ones(64), interval_grid(1.0, 64)))
    same = GridFunction(np.ones(64), interval_grid(math.pi, 64))  # equal grid, new object
    np.testing.assert_allclose(apply_kernel(ker, same).values, 1.0, rtol=1e-12)


def test_analyze_rejects_a_function_on_another_grid():
    basis = build_interval_basis(math.pi, 8, N=64)
    grid = interval_grid(2.0, 64)
    f = GridFunction(np.cos(np.pi * grid.points[:, 0] / 2.0), grid)
    with pytest.raises(ValueError, match="cannot be analyzed"):
        analyze(f, basis)
    same = GridFunction(np.ones(64), interval_grid(math.pi, 64))  # equal grid, new object
    np.testing.assert_allclose(analyze(same, basis).values[0], math.sqrt(math.pi), rtol=1e-14)


@pytest.mark.parametrize("build", [
    lambda: build_interval_basis(math.pi, 64, N=256),
    lambda: build_rectangle_basis(math.pi, 2 * math.pi, 80, Nx=32, Ny=64),
])
def test_transform_pair_is_the_dense_products(build):
    # to_grid is E^T C and to_coeffs is E (w F), bit for bit, on one
    # vector and on a stack.
    basis = build()
    E, w = basis.functions, basis.grid.weights
    rng = np.random.default_rng(3)
    c, C = rng.standard_normal(basis.K), rng.standard_normal((basis.K, 5))
    f, F = rng.standard_normal(basis.grid.n_nodes), rng.standard_normal((basis.grid.n_nodes, 5))
    assert to_grid(c, basis).tobytes() == (E.T @ c).tobytes()
    assert to_grid(C, basis).tobytes() == (E.T @ C).tobytes()
    assert to_coeffs(f, basis).tobytes() == (E @ (w * f)).tobytes()
    assert to_coeffs(F, basis).tobytes() == (E @ (w[:, None] * F)).tobytes()
    g = GridFunction(f, basis.grid)
    assert analyze(g, basis).values.tobytes() == (E @ (w * f)).tobytes()
    assert synthesize(analyze(g, basis)).values.tobytes() == (E.T @ (E @ (w * f))).tobytes()


def _band_bases():
    return {"interval": build_interval_basis(math.pi, 64, N=256),
            "rectangle": build_rectangle_basis(math.pi, 2.0, 80, Nx=32, Ny=16),
            "lshape": build_fd_basis(lshape_domain(), 0.1, 40)}


@pytest.mark.parametrize("case", ["interval", "rectangle", "lshape"])
def test_to_grid_reads_only_the_band(case):
    # Rows of E outside the band of nonzero coefficients are NaN on a copy:
    # synthesis stays finite and is the banded product, bit for bit.
    basis = _band_bases()[case]
    E, (lo, hi) = basis.functions, (5, 23)
    poisoned = dataclasses.replace(basis, functions=E.copy())
    poisoned.functions[:lo] = poisoned.functions[hi:] = np.nan
    rng = np.random.default_rng(7)
    for shape in ((basis.K,), (basis.K, 4)):
        C = np.zeros(shape)
        C[lo:hi] = rng.standard_normal((hi - lo, *shape[1:]))
        F = to_grid(C, poisoned)
        assert np.all(np.isfinite(F))
        assert F.tobytes() == (E[lo:hi].T @ C[lo:hi]).tobytes()


def test_to_grid_of_zeros_reads_no_mode_and_keeps_zeros_inside_the_band(basis):
    nan = dataclasses.replace(basis, functions=np.full_like(basis.functions, np.nan))
    for shape in ((basis.K,), (basis.K, 3)):
        F = to_grid(np.zeros(shape), nan)
        assert F.shape == (basis.grid.n_nodes, *shape[1:]) and np.all(F == 0.0)
    # A zero row between nonzero ones is inside the band and is read.
    C = np.zeros(basis.K)
    C[[3, 9]] = 1.0
    assert spectral._band(C) == slice(3, 10)
    poisoned = dataclasses.replace(basis, functions=basis.functions.copy())
    poisoned.functions[6] = np.nan
    assert np.all(np.isnan(to_grid(C, poisoned)))


@pytest.mark.parametrize("case", ["interval", "rectangle", "lshape"])
@pytest.mark.parametrize("variant", ["standard", "perturbed"])
def test_block_synthesis_matches_the_full_product(case, variant):
    basis, pou = _band_bases()[case], make_partition(variant)
    E, lam = basis.functions, basis.eigenvalues
    R = np.random.default_rng(2).standard_normal((basis.K, 5))
    symbols = [cap_symbol(pou)] + [block_symbol(pou, j) for j in range(-1, 8)]
    for sym in symbols:
        C = sym(lam)[:, None] * R
        full = E.T @ C
        np.testing.assert_allclose(to_grid(C, basis), full, rtol=0,
                                   atol=1e-14 * max(np.max(np.abs(full)), 1e-300))


@pytest.fixture(scope="module")
def lshape05():
    return build_fd_basis(lshape_domain(), 0.05, 200)


def _weighted_singular_values(A, E, w):
    """Singular values of W^(1/2) A E W^(1/2), largest first, from the thin
    QR of (E W^(1/2))^T: exact without assuming E W E^T = I, at O(N K^2)
    in place of an N x N SVD per kernel."""
    sw = np.sqrt(w)
    R = np.linalg.qr((E * sw).T, mode="r")
    return np.linalg.svd((sw[:, None] * A) @ R.T, compute_uv=False)


def test_finite_difference_block_kernels_are_the_dense_products(lshape05):
    # Block kernels and their gradients read only the band where the symbol
    # is nonzero: equal to the full products to rounding, with the gradient
    # values the weighted singular values (the small ones to about 1e-8 of
    # the largest, as on a full band).
    E, lam, pou = lshape05.functions, lshape05.eigenvalues, make_partition("standard")
    G, w = lshape05.gradients(), lshape05.grid.weights
    js = [j for j in range(-2, 8) if np.any(block_symbol(pou, j)(lam))]
    assert len(js) >= 4
    for j in js:
        sym = block_symbol(pou, j)
        ker = multiplier_kernel(sym, lshape05)
        dense = (E.T * sym(lam)) @ E
        assert ker.symbol_values.shape == (lshape05.K,)
        np.testing.assert_allclose(ker.matrix, dense, rtol=0, atol=1e-14 * np.max(np.abs(dense)))
        for Gc, gker in zip(G, gradient_kernels(sym, lshape05)):
            A = Gc.T * sym(lam)
            dense = A @ E
            assert np.max(np.abs(gker.matrix - dense)) <= 1e-14 * np.max(np.abs(dense))
            sv = _weighted_singular_values(A, E, w)
            assert gker.symbol_values.shape == (lshape05.K,)
            np.testing.assert_allclose(gker.symbol_values[::-1], sv, rtol=0, atol=1e-7 * sv[0])
    # Full support: the same products and values as the dense ones, bit for bit.
    heat = heat_symbol(0.01)
    assert np.all(heat(lam) > 0)
    dense = (E.T * heat(lam)) @ E
    assert multiplier_kernel(heat, lshape05).matrix.tobytes() == dense.tobytes()
    for Gc, gker in zip(G, gradient_kernels(heat, lshape05)):
        A = Gc.T * heat(lam)
        assert gker.matrix.tobytes() == (A @ E).tobytes()
        values = np.sqrt(np.maximum(np.linalg.eigvalsh((A.T * w) @ A), 0.0))
        assert gker.symbol_values.tobytes() == values.tobytes()


@pytest.fixture(scope="module")
def lshape10():
    return build_fd_basis(lshape_domain(), 0.1, 40)


def _fd_kernels(basis):
    """A full-band and a block scalar kernel on a finite-difference basis,
    each with its gradient kernels, beside the dense products they stand
    for: (E^T diag(phi)) E and (G_c^T diag(phi)) E over every mode."""
    E, G, lam = basis.functions, basis.gradients(), basis.eigenvalues
    out = []
    for sym in (heat_symbol(0.01), block_symbol(make_partition("standard"), 1)):
        s = sym(lam)
        out.append((multiplier_kernel(sym, basis), (E.T * s) @ E))
        out += [(g, (Gc.T * s) @ E) for g, Gc in zip(gradient_kernels(sym, basis), G)]
    return out


def _close(got, want, rel=1e-14):
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) <= rel * scale


@pytest.mark.parametrize("case", ["h0.1", "h0.05"])
def test_factor_kernel_readers_match_the_dense_products(case, request):
    # Finite-difference kernels hold their factor: row_blocks(), columns(),
    # apply_kernel and endpoint_norms read it without forming the matrix,
    # and agree with the dense products to rounding.
    b = request.getfixturevalue("lshape10" if case == "h0.1" else "lshape05")
    w, N = b.grid.weights, b.grid.n_nodes
    f = np.random.default_rng(3).standard_normal(N)
    idx = np.array([0, 1, 17, N // 2, N - 1])
    for ker, dense in _fd_kernels(b):
        assert ker.source == "factor" and ker._matrix is None
        rows = np.vstack([B.copy() for _, B in ker.row_blocks()])
        assert [r0 for r0, _ in ker.row_blocks()] == list(range(0, N, 64)), ker.tag
        assert _close(rows, dense) and _close(ker.columns(idx), dense[:, idx].T), ker.tag
        assert _close(apply_kernel(ker, GridFunction(f, b.grid)).values, dense @ (w * f)), ker.tag
        mag = np.abs(dense)
        got = endpoint_norms(ker)
        for name, want in (("1->1", np.max(w @ mag)), ("1->inf", np.max(mag)),
                           ("inf->inf", np.max(mag @ w))):
            assert got[name] == pytest.approx(float(want), rel=1e-14, abs=0), (ker.tag, name)
        assert ker._matrix is None, ker.tag


def _dense_triple_norm(dense, grid, alpha, theta):
    """max over cubes of sqrt(lambda_max(M^T M)), M = D W^(1/2) K[:, cube]
    W^(1/2) read off the dense kernel, by eigvalsh one cube at a time."""
    sw = np.sqrt(grid.weights)
    best = 0.0
    for m, idx in amalgam_cells(grid, theta):
        d = np.linalg.norm(grid.points - math.sqrt(theta) * np.asarray(m, dtype=float), axis=1)
        M = (sw * d ** alpha)[:, None] * dense[:, idx] * sw[idx]
        best = max(best, float(np.linalg.eigvalsh(M.T @ M)[-1]))
    return math.sqrt(best)


@pytest.mark.parametrize("case", ["h0.1", "h0.05"])
def test_factor_triple_norms_match_per_cube_eigvalsh(case, request):
    # The factor route (cube sizes batched, QR only where the band is
    # smaller than the cube) against a dense eigvalsh per cube, for a
    # scalar kernel and a gradient kernel, which is not symmetric.
    b = request.getfixturevalue("lshape10" if case == "h0.1" else "lshape05")
    for ker, dense in _fd_kernels(b)[:2]:
        for theta in (0.05, 0.25, 1.0):
            for alpha in (0.0, 0.5, 1.0):
                want = _dense_triple_norm(dense, b.grid, alpha, theta)
                got = triple_norm(ker, alpha, theta)
                assert got == pytest.approx(want, rel=1e-12, abs=0), (ker.tag, theta, alpha)
        assert ker._matrix is None, ker.tag


def test_factor_triple_norm_compresses_by_qr_only_cubes_larger_than_the_band(lshape10,
                                                                             monkeypatch):
    # On h = 0.1 (band 40) the 25-node cubes of theta = 0.25 are read as
    # they are and the 50- to 100-node cubes of theta = 1 are compressed to
    # 40 rows, so no Gram is larger than the band; skipping that QR would
    # give the same norm from 100 x 100 Grams.
    qr_shapes, gram_sides = [], []
    real_qr, real_top = np.linalg.qr, norms._top_eigenvalue

    def qr(A, mode):
        qr_shapes.append(A.shape[-2:])
        return real_qr(A, mode=mode)

    def top(G):
        gram_sides.append(G.shape[-1])
        return real_top(G)

    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(norms, "_top_eigenvalue", top)
    ker = heat_kernel(0.01, lshape10)
    band = len(ker.factor[1])
    assert band == 40
    for theta, compressed in ((0.25, False), (1.0, True)):
        qr_shapes.clear()
        gram_sides.clear()
        triple_norm(ker, 0.5, theta)
        assert bool(qr_shapes) == compressed, theta
        assert all(m > band for m, _ in qr_shapes), theta
        assert max(gram_sides) <= band, theta
    assert max(gram_sides) == band


def test_finite_difference_kernels_form_no_dense_matrix(lshape10, tmp_path, no_dense_kernels):
    # With OperatorKernel.matrix raising, every library reader of a scalar
    # and a gradient L-shape kernel runs, a kernel file included.
    f = GridFunction(np.cos(lshape10.grid.points[:, 0]), lshape10.grid)
    for ker in (heat_kernel(0.01, lshape10), *gradient_kernels(heat_symbol(0.01), lshape10)):
        norms_ = endpoint_norms(ker)
        apply_kernel(ker, f)
        triple_norm(ker, 0.5, 0.25)
        save_kernel(ker, str(tmp_path / "k.npz"))
        back = load_kernel(str(tmp_path / "k.npz"), lshape10.grid)
        assert endpoint_norms(back) == norms_ and triple_norm(back, 0.5, 0.25) > 0, ker.tag
        with pytest.raises(AssertionError, match="matrix read"):
            ker.matrix


def test_finite_difference_endpoint_norms_hold_no_dense_kernel(lshape05):
    # endpoint_norms(heat_kernel(0.01, L05)) with N = 1200, K = 200: measured
    # at 6.4 MB of traced peak, set by the 200,000-term Weyl tail sum of
    # heat_kernel (endpoint_norms alone peaks at 1.6 MB, 1.2 MB of it the
    # 128-row strip).  The bound, 8 MB, is below the 11.5 MB of one dense
    # N x N kernel, which the dense route held (17.9 MB peak).
    endpoint_norms(heat_kernel(0.01, lshape05))  # the first call fills lshape05.sup2()
    tracemalloc.start()
    try:
        endpoint_norms(heat_kernel(0.01, lshape05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    assert lshape05.grid.n_nodes ** 2 * 8 > 11e6


def _kernel_cases():
    """A profile kernel, a scalar and a gradient factor kernel, and a
    caller's matrix kernel, each with its grid."""
    b, (heat, *_) = _interval_kernels(64)
    fd = build_fd_basis(lshape_domain(), 0.25, 12)
    scalar = multiplier_kernel(block_symbol(make_partition("standard"), 1), fd)
    grad = gradient_kernels(heat_symbol(0.05), fd)[1]
    bare = OperatorKernel(fd.grid, "caller", matrix=np.random.default_rng(2).standard_normal(
        (fd.grid.n_nodes,) * 2), symbol_values=np.ones(3), tail_bound=0.5)
    return [(b.grid, heat), (fd.grid, scalar), (fd.grid, grad), (fd.grid, bare)]


@pytest.mark.parametrize("case", range(4), ids=["profile", "factor", "gradient", "matrix"])
def test_kernel_files_round_trip_bit_for_bit(tmp_path, case):
    # A nbesov-kernel/3 file holds the kernel's one source: the profile,
    # factor_u and factor_v, or the matrix; everything comes back bit for
    # bit.  The scalar factor's U is the 1-D phi over the band (a block
    # symbol: fewer rows than modes).
    grid, ker = _kernel_cases()[case]
    names = {"profile": ["profile"], "factor": ["factor_u", "factor_v"],
             "matrix": ["matrix"]}[ker.source]
    p = tmp_path / "k.npz"
    save_kernel(ker, str(p))
    with np.load(p) as z:
        assert str(z["format"]) == "nbesov-kernel/3"
        assert sorted(z.files) == sorted(names + ["format", "tag", "grid_id", "tail_bound",
                                                  "symbol_values"])
    back = load_kernel(str(p), grid)
    assert back.source == ker.source
    sources = {"profile": lambda k: [k._profile], "factor": lambda k: list(k.factor),
               "matrix": lambda k: [k._matrix]}[ker.source]
    for a, b in zip(sources(back), sources(ker)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if case == 1:
        assert ker.factor[0].ndim == 1 and 0 < len(ker.factor[0]) < 12
    assert (back.tag, back.tail_bound) == (ker.tag, ker.tail_bound)
    assert back.symbol_values.tobytes() == ker.symbol_values.tobytes()
    assert endpoint_norms(back) == endpoint_norms(ker)
    assert back.matrix.tobytes() == ker.matrix.tobytes()


def test_finite_difference_kernel_files_hold_the_factor(tmp_path, lshape05):
    # (band + 1) N numbers for a heat kernel on L05, 1.9 MB, where the
    # dense matrix file was 11.5 MB.
    p = tmp_path / "k.npz"
    save_kernel(heat_kernel(0.01, lshape05), str(p))
    with np.load(p) as z:
        assert z["factor_u"].shape == (200,) and z["factor_v"].shape == (200, 1200)
    assert p.stat().st_size < 2.0e6


_BAD_FACTORS = [("narrow", "shape"), ("mismatched", "factor U of shape"),
                ("nan", "not finite"), ("inf", "not finite"), ("float32", "float64")]


@pytest.mark.parametrize("grad", [False, True], ids=["scalar", "gradient"])
@pytest.mark.parametrize("bad, message", _BAD_FACTORS, ids=[b for b, _ in _BAD_FACTORS])
def test_load_kernel_rejects_a_bad_factor(tmp_path, bad, message, grad):
    # A V narrower than the grid, a U that does not match V, a NaN, an inf
    # and float32 data are each refused, naming the file.
    b = build_fd_basis(lshape_domain(), 0.25, 6)
    sym = heat_symbol(0.05)
    ker = gradient_kernels(sym, b)[0] if grad else multiplier_kernel(sym, b)
    fields = _saved_fields(ker, tmp_path)
    U, V = fields["factor_u"], fields["factor_v"]
    if bad == "narrow":
        fields["factor_v"] = V[:, :-1]
    elif bad == "mismatched":
        fields["factor_u"] = U[:-1]
    elif bad == "float32":
        fields["factor_v"] = V.astype(np.float32)
    else:
        (U if grad else V)[1, 2] = np.nan if bad == "nan" else np.inf
    _refused(tmp_path, fields, b.grid, match=message)


def test_a_kernel_file_of_format_2_is_refused(tmp_path):
    # Files in the nbesov-kernel/2 layout, written here as that format
    # wrote them (the matrix on a finite-difference grid, the profile on an
    # interval), are refused by their format with the rebuild hint.
    fd = build_fd_basis(lshape_domain(), 0.25, 6)
    b, (heat, *_) = _interval_kernels(64)
    fd_heat = heat_kernel(0.05, fd)
    for grid, ker, source in ((fd.grid, fd_heat, {"matrix": fd_heat.matrix}),
                              (b.grid, heat, {"profile": heat._profile})):
        v2 = {"format": np.array("nbesov-kernel/2"), **source,
              "tag": np.array(ker.tag), "grid_id": np.array(grid.grid_id()),
              "tail_bound": np.array(ker.tail_bound), "symbol_values": ker.symbol_values}
        message = _refused(tmp_path, v2, grid, match="'nbesov-kernel/2'")
        assert "not a nbesov-kernel/3 file" in message
        assert "nbesov multiplier --out or nbesov heat --out" in message


def test_a_factor_kernel_takes_a_factor_that_fits_the_grid(lshape10):
    U, V = heat_kernel(0.01, lshape10).factor
    N = lshape10.grid.n_nodes
    for bad in ((U, V[:, :-1]), (U[:-1], V), (U[:, None] * V[:, :-1], V), (U, V[0])):
        with pytest.raises(ValueError, match="factor U of shape"):
            OperatorKernel(lshape10.grid, "bad", factor=bad, symbol_values=U, tail_bound=0.0)
    ker = OperatorKernel(lshape10.grid, "ok", factor=(U[:, None] * V, V), symbol_values=U,
                         tail_bound=0.0)
    assert ker.matrix.shape == (N, N)


def test_tail_lattice_is_kept_per_cutoff():
    # A repeated cutoff reuses one read-only array; the tail keeps its bits.
    basis = build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32)
    sym = heat_symbol(0.05)
    first = spectral.symbol_tail_bound(sym, basis)
    (lam_c, (lam, n_c)), = basis._modes_below.items()
    assert not lam.flags.writeable
    assert spectral._modes_up_to(basis, lam_c)[0] is lam
    assert spectral.symbol_tail_bound(sym, basis) == first
    fresh = build_rectangle_basis(math.pi, math.pi, 200, Nx=32, Ny=32)
    assert spectral.symbol_tail_bound(sym, fresh) == first
