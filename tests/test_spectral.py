import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from nbesov import spectral
from nbesov.domains import (
    Domain,
    build_fd_basis,
    build_interval_basis,
    build_rectangle_basis,
    interval_grid,
    load_basis,
    lshape_domain,
    polygon_grid,
    rectangle_grid,
    save_basis,
)
from nbesov.littlewood_paley import make_partition
from nbesov.spectral import (
    GridFunction,
    OperatorKernel,
    QuadratureWarning,
    SymbolFn,
    analyze,
    apply_kernel,
    block_symbol,
    bump_symbol,
    endpoint_norms,
    gradient_kernels,
    heat_kernel,
    heat_symbol,
    interval_profile,
    load_kernel,
    magnitude_norms,
    multiplier_kernel,
    power_block_symbol,
    resolvent_gamma,
    resolvent_symbol,
    save_kernel,
    synthesize,
    to_coeffs,
    to_grid,
)


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


def test_non_finite_symbol_rejected(basis):
    # (lambda + 0)^-1 blows up on the zero mode.
    bad = resolvent_symbol(1.0, 0.0)
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite"):
        multiplier_kernel(bad, basis)


def test_apply_kernel_is_weighted_contraction(basis):
    ker = heat_kernel(0.2, basis)
    rng = np.random.default_rng(11)
    f = GridFunction(rng.standard_normal(basis.grid.n_nodes), basis.grid)
    out = apply_kernel(ker, f)
    expect = ker.matrix @ (basis.grid.weights * f.values)
    np.testing.assert_array_equal(out.values, expect)


def test_analyze_synthesize_round_trip(basis):
    rng = np.random.default_rng(5)
    c = np.zeros(basis.K)
    c[:40] = rng.standard_normal(40)
    f = GridFunction(basis.functions.T @ c, basis.grid)
    coeffs = analyze(f, basis)
    np.testing.assert_allclose(coeffs.values, c, atol=1e-13)
    back = synthesize(coeffs)
    np.testing.assert_allclose(back.values, f.values, atol=1e-13)
    assert coeffs.parseval_defect(f) == pytest.approx(0.0, abs=1e-12)


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


def test_magnitude_norms_are_endpoint_norms_without_22(basis):
    rect = build_rectangle_basis(math.pi, 2.0, 30, Nx=12, Ny=8)
    for ker in (heat_kernel(0.05, basis), heat_kernel(0.05, rect)):
        ends = endpoint_norms(ker)
        assert ends.pop("2->2") > 0
        assert magnitude_norms(ker) == ends


def test_gradient_kernel_22_norm_is_max_sqrt_lambda_phi():
    # Negative control for the 2->2 route: d/dx phi(H) maps the cosines to
    # the orthonormal sines with factors sqrt(lambda_k) phi(lambda_k), so a
    # gradient kernel that read max|phi| off symbol_values would report
    # 1.0 here instead of 1.91 and 9.35.
    b = build_interval_basis(math.pi, 33, N=64)
    sq = np.sqrt(b.eigenvalues)
    for sym in (heat_symbol(0.05), block_symbol(make_partition("standard"), 3)):
        (ker,) = gradient_kernels(sym, b)
        assert ker.symbol_values is None
        want = float(np.max(sq * np.abs(sym(b.eigenvalues))))
        assert want > 1.5
        assert endpoint_norms(ker)["2->2"] == pytest.approx(want, rel=1e-10, abs=0), sym.tag


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
            assert loaded.symbol_values is None
            assert (loaded.tag, loaded.tail_bound) == (ker.tag, ker.tail_bound)
            assert endpoint_norms(loaded) == endpoint_norms(ker)


def test_load_kernel_rejects_mismatched_components(tmp_path, basis):
    # A vector kernel file of the former layout (components beside matrix)
    # is refused, even with a well-formed components array.
    (ker,) = gradient_kernels(heat_symbol(0.05), basis)
    p = tmp_path / "vector.npz"
    np.savez(p, matrix=ker.matrix, tag=np.array(ker.tag),
             grid_id=np.array(basis.grid.grid_id()), tail_bound=np.array(0.0),
             symbol_values=np.array([]), components=ker.matrix[None])
    with pytest.raises(ValueError, match="components") as exc:
        load_kernel(str(p), basis.grid)
    assert str(p) in str(exc.value)


@pytest.mark.parametrize("field", ["matrix", "tag", "grid_id", "tail_bound", "symbol_values"])
def test_load_kernel_names_a_missing_field(tmp_path, basis, field):
    ker = heat_kernel(0.05, basis)
    fields = dict(matrix=ker.matrix, tag=np.array(ker.tag),
                  grid_id=np.array(basis.grid.grid_id()), tail_bound=np.array(0.0),
                  symbol_values=ker.symbol_values)
    del fields[field]
    p = tmp_path / "bad.npz"
    np.savez(p, **fields)
    with pytest.raises(ValueError) as exc:
        load_kernel(str(p), basis.grid)
    assert str(p) in str(exc.value) and repr(field) in str(exc.value)


def _oracle_symbols(basis):
    pou = make_partition("standard")
    top = math.sqrt(float(basis.eigenvalues[-1]))
    j = max(0, math.floor(math.log2(top)) - 1) if top > 0 else 0
    return (heat_symbol(1e-3), block_symbol(pou, j), power_block_symbol(pou, j, -0.5),
            resolvent_symbol(0.75, 1.0))


@pytest.mark.parametrize("N", [7, 512, 2048])
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


@pytest.mark.parametrize("N", [1, 7, 512])
@pytest.mark.parametrize("top", [False, True])
def test_interval_kernels_are_sums_of_the_profile(N, top):
    # Both interval kernels are v(i-j) + v(i+j+1) bit for bit, with v(0..N)
    # from interval_profile and v(-q) = v(2N-q) = v(q), or -v(q) for the
    # gradient's DST-I profile.  The kernel's read-only profile is that v.
    basis = build_interval_basis(math.pi, N // 2 + 1 if top else 1, N=N)
    i, j = np.indices((N, N))
    for sym in _oracle_symbols(basis):
        s = sym(basis.eigenvalues)
        for grad, kernel in ((False, multiplier_kernel(sym, basis)),
                             (True, gradient_kernels(sym, basis)[0])):
            v = interval_profile(s, basis, grad)
            assert v.shape == (N + 1,)
            assert np.array_equal(kernel.profile, v) and not kernel.profile.flags.writeable
            ker = kernel.matrix
            sign = -1.0 if grad else 1.0
            full = np.concatenate((v, sign * v[N - 1:0:-1]))  # v(q), q = 0..2N-1
            T = np.where(i >= j, full[np.abs(i - j)], sign * full[np.abs(i - j)])
            assert np.array_equal(ker, T + full[i + j + 1]), (sym.tag, grad)


def _dense_magnitude_norms(ker):
    """The three norms read off one dense |K|.  1->1 sums each candidate
    column exactly (math.fsum): the BLAS column sums w @ |K| are themselves
    off by up to 1.3e-15 relative at N = 2048."""
    w, mag = ker.grid.weights, np.abs(ker.matrix)
    sums = w @ mag
    cand = np.flatnonzero(sums >= sums.max() * (1 - 1e-12))
    return {"1->1": max(math.fsum((w * mag[:, j]).tolist()) for j in cand),
            "1->inf": float(np.max(mag)), "inf->inf": float(np.max(mag @ w))}


@pytest.mark.parametrize("N", [255, 512, 2048])
def test_streamed_norms_match_the_dense_oracle(N):
    # 1->inf and inf->inf read every entry and every whole row, so they
    # equal the dense oracle bit for bit; 1->1 adds the column sums block
    # by block, so it agrees with the exact column sums to roundoff.
    basis = build_interval_basis(32 * math.pi, N // 2 + 1, N=N)
    rect = build_rectangle_basis(math.pi, 2.0, 30, Nx=12, Ny=8)
    kernels = [k for sym in _oracle_symbols(basis)
               for k in (multiplier_kernel(sym, basis), gradient_kernels(sym, basis)[0])]
    for ker in kernels + [heat_kernel(0.05, rect)]:
        got = magnitude_norms(ker)
        want = _dense_magnitude_norms(ker)
        assert got["1->inf"] == want["1->inf"] and got["inf->inf"] == want["inf->inf"], ker.tag
        assert got["1->1"] == pytest.approx(want["1->1"], rel=1e-15, abs=0), ker.tag


@pytest.mark.parametrize("N", [1, 255, 256])
def test_interval_matrix_is_formed_once(N, monkeypatch):
    # The lazy matrix is the Toeplitz + Hankel sum the kernel builders used
    # to return, and row_blocks() reads the same rows from the profile
    # before it is formed and from the matrix after.
    basis = build_interval_basis(math.pi, N // 2 + 1, N=N)
    calls = []
    real = OperatorKernel._toeplitz_hankel
    monkeypatch.setattr(OperatorKernel, "_toeplitz_hankel",
                        lambda self: calls.append(1) or real(self))
    sym = heat_symbol(0.05)
    for grad, ker in ((False, multiplier_kernel(sym, basis)),
                      (True, gradient_kernels(sym, basis)[0])):
        v = interval_profile(sym(basis.eigenvalues), basis, grad)
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


def test_kernel_takes_one_source(basis):
    with pytest.raises(ValueError, match="exactly one"):
        OperatorKernel(basis.grid, "none")
    with pytest.raises(ValueError, match="exactly one"):
        OperatorKernel(basis.grid, "both", matrix=np.eye(256), profile=np.zeros(767))


def test_interval_profile_rejects_other_bases():
    basis = build_rectangle_basis(math.pi, math.pi, 4, Nx=4, Ny=4)
    with pytest.raises(ValueError, match="analytic interval"):
        interval_profile(np.ones(4), basis)
    assert heat_kernel(0.1, basis).profile is None


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


def test_load_kernel_rejects_a_matrix_of_another_size(tmp_path, basis):
    ker = multiplier_kernel(heat_symbol(0.05), basis)
    p = tmp_path / "small.npz"
    np.savez(p, matrix=ker.matrix[:3, :3], tag=np.array(ker.tag),
             grid_id=np.array(basis.grid.grid_id()), tail_bound=np.array(0.0),
             symbol_values=ker.symbol_values)
    with pytest.raises(ValueError, match="matrix"):
        load_kernel(str(p), basis.grid)


@pytest.mark.parametrize("field, value", [
    ("matrix", np.nan), ("matrix", np.inf), ("symbol_values", np.nan),
    ("tail_bound", np.nan), ("tail_bound", -1.0),
])
def test_load_kernel_rejects_non_finite_or_negative_numbers(tmp_path, basis, field, value):
    ker = multiplier_kernel(heat_symbol(0.05), basis)
    fields = dict(matrix=ker.matrix.copy(), tag=np.array(ker.tag),
                  grid_id=np.array(basis.grid.grid_id()), tail_bound=np.array(0.0),
                  symbol_values=ker.symbol_values.copy())
    if field == "tail_bound":
        fields[field] = np.array(value)
    else:
        fields[field][1] = value
    p = tmp_path / "bad.npz"
    np.savez(p, **fields)
    with pytest.raises(ValueError) as exc:
        load_kernel(str(p), basis.grid)
    assert str(p) in str(exc.value)


def test_load_kernel_keeps_an_infinite_tail_bound(tmp_path, basis):
    ker = multiplier_kernel(heat_symbol(0.05), basis)
    p = tmp_path / "divergent.npz"
    np.savez(p, matrix=ker.matrix, tag=np.array(ker.tag),
             grid_id=np.array(basis.grid.grid_id()), tail_bound=np.array(np.inf),
             symbol_values=ker.symbol_values)
    assert load_kernel(str(p), basis.grid).tail_bound == np.inf


def test_grid_id_keeps_full_precision(tmp_path, basis):
    assert interval_grid(math.pi, 512).grid_id() != interval_grid(3.14159, 512).grid_id()
    assert basis.grid.grid_id() == f"interval[{math.pi!r}]/h={math.pi / 256!r}/N=256"
    # A kernel file stamped with the old six-digit id no longer loads.
    ker = multiplier_kernel(heat_symbol(0.05), basis)
    p = tmp_path / "old.npz"
    np.savez(p, matrix=ker.matrix, tag=np.array(ker.tag),
             grid_id=np.array("interval[3.14159]/h=0.0122718/N=256"),
             tail_bound=np.array(0.0), symbol_values=ker.symbol_values)
    with pytest.raises(ValueError, match="dumped for grid"):
        load_kernel(str(p), basis.grid)


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
