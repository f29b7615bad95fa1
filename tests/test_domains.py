import json
import math
from dataclasses import replace

import numpy as np
import pytest

from nbesov import domains
from nbesov.domains import (
    Domain,
    EigenBasis,
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
    weyl_count_estimate,
)
from nbesov.spectral import GridFunction, gradient, gradient_kernels, heat_symbol, multiplier_kernel


def test_interval_grid_layout():
    basis = build_interval_basis(math.pi, 8, N=16)
    g = basis.grid
    h = math.pi / 16
    np.testing.assert_allclose(g.points[:, 0], h * (np.arange(16) + 0.5))
    np.testing.assert_allclose(g.weights, h)
    assert g.domain.volume == pytest.approx(math.pi)


def test_interval_eigenvalues_closed_form():
    L = 2.5
    basis = build_interval_basis(L, 12, N=128)
    k = np.arange(12)
    np.testing.assert_allclose(basis.eigenvalues, (k * math.pi / L) ** 2,
                               rtol=1e-14, atol=1e-14)


def test_interval_gram_identity():
    basis = build_interval_basis(math.pi, 64, N=512)
    E, w = basis.functions, basis.grid.weights
    gram = E @ (w[:, None] * E.T)
    np.testing.assert_allclose(gram, np.eye(64), atol=2e-14)


def test_interval_mode_sup_norm():
    """Second mode on [0, pi] peaks at sqrt(2/pi); the midpoint grid sits
    h/2 away from the boundary max, costing (h/2)^2/2 in relative terms."""
    basis = build_interval_basis(math.pi, 4, N=1024)
    assert np.max(np.abs(basis.functions[1])) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=3e-6)


def test_interval_resolution_limit():
    # The top mode must stay below the per-axis sampling cutoff.
    with pytest.raises(ValueError):
        build_interval_basis(1.0, 130, N=256)
    build_interval_basis(1.0, 129, N=256)


def test_rectangle_sorted_with_lex_tie_break():
    basis = build_rectangle_basis(math.pi, math.pi, 10, Nx=32, Ny=32)
    lam = basis.eigenvalues
    assert np.all(np.diff(lam) >= -1e-12)
    # Degenerate level lambda = 1: (0,1) is listed before (1,0), so the
    # first of the pair is constant along x.
    np.testing.assert_allclose(lam[1:3], 1.0, atol=1e-12)
    e2 = basis.functions[1].reshape(32, 32)
    assert np.ptp(e2, axis=0).max() < 1e-12   # no x-variation
    e3 = basis.functions[2].reshape(32, 32)
    assert np.ptp(e3, axis=1).max() < 1e-12   # no y-variation


def test_rectangle_gram_identity():
    basis = build_rectangle_basis(1.0, 2.0, 60, Nx=24, Ny=48)
    E, w = basis.functions, basis.grid.weights
    gram = E @ (w[:, None] * E.T)
    np.testing.assert_allclose(gram, np.eye(60), atol=5e-14)


def test_lshape_basis():
    basis = build_fd_basis(lshape_domain(), 0.1, 12)
    assert basis.eigenvalues[0] < 1e-8
    # Ground mode is the constant 1/sqrt(area), area 3.
    np.testing.assert_allclose(np.abs(basis.functions[0]),
                               1.0 / math.sqrt(3.0), rtol=1e-8)
    assert basis.eigenvalues[1] > 0.1


def test_lshape_eigenvalue_convergence():
    coarse = build_fd_basis(lshape_domain(), 0.1, 6)
    fine = build_fd_basis(lshape_domain(), 0.05, 6)
    np.testing.assert_allclose(coarse.eigenvalues[1:],
                               fine.eigenvalues[1:], rtol=0.02)


def test_weyl_count_two_dimensional():
    """Leading-order count at the 200th rectangle eigenvalue is within a
    modest factor; boundary corrections die off slowly in 2-D."""
    basis = build_rectangle_basis(1.0, 2.0, 200, Nx=48, Ny=96)
    lam = float(basis.eigenvalues[-1])
    ratio = 200.0 / weyl_count_estimate(basis.domain, lam)
    assert 1.0 < ratio < 1.2


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_save_load_round_trip(tmp_path):
    for basis in (build_interval_basis(math.pi, 32, N=128),
                  build_rectangle_basis(1.0, 2.0, 30, Nx=12, Ny=16),
                  build_fd_basis(lshape_domain(), 0.1, 20)):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_basis(basis, str(p1))
        loaded = load_basis(str(p1))
        for name in ("eigenvalues", "functions"):
            assert _same_bits(getattr(loaded, name), getattr(basis, name)), name
        for name in ("points", "weights", "index"):
            assert _same_bits(getattr(loaded.grid, name), getattr(basis.grid, name)), name
        for name in ("domain", "spacing", "shape"):
            assert getattr(loaded.grid, name) == getattr(basis.grid, name), name
        assert (loaded.kind, loaded.mode_index) == (basis.kind, basis.mode_index)
        save_basis(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_analytic_file_holds_only_builder_arguments(tmp_path):
    p = tmp_path / "i2048.json"
    save_basis(build_interval_basis(math.pi, 1025, N=2048), str(p))
    assert p.stat().st_size < 1024
    assert set(json.loads(p.read_text())) == {"format", "kind", "domain", "shape", "K"}


def test_load_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_basis(str(p))


def test_load_rejects_v1_file(tmp_path):
    p = tmp_path / "v1.json"
    p.write_text('{"format": "nbesov-eigenbasis/1", "kind": "analytic"}')
    with pytest.raises(ValueError, match="nbesov-eigenbasis/1.*nbesov basis"):
        load_basis(str(p))


def test_load_rejects_analytic_file_its_builder_refuses(tmp_path):
    p = tmp_path / "b.json"
    save_basis(build_interval_basis(math.pi, 17, N=64), str(p))
    payload = json.loads(p.read_text())
    payload["K"] = 34  # k - 1 = 33 > N/2
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="resolution cutoff"):
        load_basis(str(p))


def test_load_rejects_numeric_file_with_a_changed_function(tmp_path):
    p = tmp_path / "l.json"
    save_basis(build_fd_basis(lshape_domain(), 0.1, 12), str(p))
    payload = json.loads(p.read_text())
    E = domains._decode_array(payload["functions"])
    E[5, np.argmax(np.abs(E[5]))] += 1e-3
    payload["functions"] = domains._encode_array(E)
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="Gram"):
        load_basis(str(p))


@pytest.mark.parametrize("text", [
    "[1]",
    '{"format": "nbesov-eigenbasis/2", "kind": "analytic", "K": 4, "shape": [16]}',
    None,
], ids=["not_an_object", "missing_domain", "truncated"])
def test_load_rejects_malformed_file(tmp_path, text):
    p = tmp_path / "m.json"
    if text is None:
        save_basis(build_interval_basis(math.pi, 4, N=16), str(p))
        text = p.read_text()[:-20]
    p.write_text(text)
    with pytest.raises(ValueError, match="m.json"):
        load_basis(str(p))


def _eigenvalue_ulp(b):
    b["eigenvalues"] = b["eigenvalues"].copy()
    b["eigenvalues"][4] = np.nextafter(b["eigenvalues"][4], np.inf)


def _swap_modes(b):
    # On a square (0, 1) and (1, 0) share an eigenvalue, so only the labels move.
    m = b["mode_index"] = list(b["mode_index"])
    m[1], m[2] = m[2], m[1]


def _vertex_nodes(b):
    b["grid"] = replace(b["grid"], points=b["grid"].points - 0.5 * b["grid"].spacing[0])


def _uneven_weights(b):
    # Same total (the volume check passes), different quadrature.
    w = b["grid"].weights.copy()
    w[0], w[1] = 1.5 * w[0], 0.5 * w[1]
    b["grid"] = replace(b["grid"], weights=w)


def _reshaped_grid(b):
    # Same nodes and weights, read as a 32x2 grid by the gradient fill.
    b["grid"] = replace(b["grid"], shape=(32, 2))


def _function_entry(b):
    b["functions"] = b["functions"].copy()
    b["functions"][3, 7] = np.nextafter(b["functions"][3, 7], np.inf)


@pytest.mark.parametrize("build", [
    lambda: build_interval_basis(math.pi, 17, N=64),
    lambda: build_rectangle_basis(1.0, 1.0, 12, Nx=8, Ny=8),
], ids=["interval", "rectangle"])
@pytest.mark.parametrize("tamper", [_eigenvalue_ulp, _swap_modes, _vertex_nodes,
                                    _uneven_weights, _reshaped_grid, _function_entry])
def test_save_rejects_basis_its_builder_does_not_make(tmp_path, build, tamper):
    # A file stores only the builder's arguments, so saving such a basis
    # would silently load as a different one.
    b = build()
    fields = {"grid": b.grid, "eigenvalues": b.eigenvalues, "functions": b.functions,
              "kind": b.kind, "mode_index": b.mode_index}
    tamper(fields)
    p = tmp_path / "b.json"
    with pytest.raises(ValueError):
        save_basis(EigenBasis(**fields), str(p))
    assert not p.exists()


def test_loaded_rectangle_kernels_and_gradients_match_built(tmp_path):
    built = build_rectangle_basis(1.0, 1.0, 12, Nx=8, Ny=8)
    p = tmp_path / "r.json"
    save_basis(built, str(p))
    loaded = load_basis(str(p))
    assert loaded.mode_index == built.mode_index
    assert np.array_equal(loaded.gradients(), built.gradients())
    sym = heat_symbol(0.05)
    assert np.array_equal(multiplier_kernel(sym, loaded).matrix,
                          multiplier_kernel(sym, built).matrix)
    got, want = gradient_kernels(sym, loaded), gradient_kernels(sym, built)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert np.array_equal(g.matrix, w.matrix)


def test_lp_norm_of_constant():
    basis = build_interval_basis(2.0, 4, N=64)
    f = GridFunction.constant(basis.grid, 3.0)
    assert lp_norm(f, 1.0) == pytest.approx(6.0, rel=1e-14)
    assert lp_norm(f, 2.0) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-14)
    assert lp_norm(f, np.inf) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def _cosine_factor(k, L, x):
    """Normalised Neumann cosine on [0, L] and its derivative, closed form."""
    if k == 0:
        return np.full_like(x, L**-0.5), np.zeros_like(x)
    kap = k * math.pi / L
    return (math.sqrt(2.0 / L) * np.cos(kap * x),
            -math.sqrt(2.0 / L) * kap * np.sin(kap * x))


def test_rectangle_mode_gradients_closed_form():
    Lx, Ly, Nx, Ny = 2.0, 1.5, 8, 6
    basis = build_rectangle_basis(Lx, Ly, 12, Nx=Nx, Ny=Ny)
    x, y = basis.grid.points[:, 0], basis.grid.points[:, 1]
    G = basis.gradients()
    assert G.shape == (2, 12, Nx * Ny)
    for r, (a, b) in enumerate(basis.mode_index):
        fx, dfx = _cosine_factor(a, Lx, x)
        fy, dfy = _cosine_factor(b, Ly, y)
        np.testing.assert_allclose(G[0, r], dfx * fy, rtol=0, atol=1e-12)
        np.testing.assert_allclose(G[1, r], fx * dfy, rtol=0, atol=1e-12)
        grad = gradient(GridFunction(basis.functions[r], basis.grid), basis)
        np.testing.assert_allclose(grad, G[:, r], rtol=0, atol=1e-12)


def test_gradient_cache_fills_once(monkeypatch):
    calls = []
    real = domains._mode_gradients

    def counting(basis):
        calls.append(basis)
        return real(basis)

    monkeypatch.setattr(domains, "_mode_gradients", counting)
    basis = build_interval_basis(math.pi, 32, N=64)
    first, second = basis.gradients(), basis.gradients()
    assert len(calls) == 1
    assert second is first


# ---------------------------------------------------------------------------
# Finite-difference stencil against the per-node reference implementation


def _lookup(grid):
    return {tuple(k): i for i, k in enumerate(map(tuple, grid.index))}


def _fd_laplacian_per_node(grid):
    h = grid.spacing[0]
    N = grid.n_nodes
    lookup = _lookup(grid)
    rows, cols, vals = [], [], []
    diag = np.zeros(N)
    for i, (ix, iy) in enumerate(map(tuple, grid.index)):
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jn = lookup.get((ix + dx, iy + dy))
            if jn is not None:
                rows.append(i)
                cols.append(jn)
                vals.append(-1.0 / h**2)
                diag[i] += 1.0 / h**2
    rows.extend(range(N))
    cols.extend(range(N))
    vals.extend(diag)
    return domains.sp.csr_matrix((vals, (rows, cols)), shape=(N, N))


def _fd_gradient_per_node(values, grid):
    n = grid.domain.n
    out = np.zeros((n, grid.n_nodes))
    lookup = _lookup(grid)
    for axis in range(n):
        h = grid.spacing[axis]
        for i, key in enumerate(map(tuple, grid.index)):
            def nb(offset):
                k = list(key)
                k[axis] += offset
                return lookup.get(tuple(k))
            ip, im = nb(+1), nb(-1)
            if ip is not None and im is not None:
                out[axis, i] = (values[ip] - values[im]) / (2 * h)
            elif ip is not None:
                ipp = nb(+2)
                if ipp is not None:
                    out[axis, i] = (-3 * values[i] + 4 * values[ip] - values[ipp]) / (2 * h)
                else:
                    out[axis, i] = (values[ip] - values[i]) / h
            elif im is not None:
                imm = nb(-2)
                if imm is not None:
                    out[axis, i] = (3 * values[i] - 4 * values[im] + values[imm]) / (2 * h)
                else:
                    out[axis, i] = (values[i] - values[im]) / h
    return out


def _thin_arms():
    """A one-cell-thick strip joined to a two-cell-wide column (h = 0.1):
    the strip has no y-neighbours (zero fallback), the column no second
    x-neighbour (first-order fallback)."""
    return Domain(kind="polygon", n=2, lengths=(1.0, 1.0), volume=0.28,
                  diameter=math.sqrt(2.0),
                  cells=((0.0, 1.0, 0.0, 0.1), (0.0, 0.2, 0.1, 1.0)))


@pytest.mark.parametrize("grid", [
    polygon_grid(lshape_domain(), 0.1),
    polygon_grid(_thin_arms(), 0.1),
    rectangle_grid(2.0, 1.0, 12, 7),
    interval_grid(2.0, 50),
], ids=["lshape", "thin_arms", "rectangle", "interval"])
def test_fd_stencils_bitwise_equal_per_node_reference(grid):
    rng = np.random.default_rng(11)
    V = rng.standard_normal((grid.n_nodes, 3))
    stacked = domains.fd_gradient(V, grid)
    for k in range(V.shape[1]):
        ref = _fd_gradient_per_node(V[:, k], grid)
        assert np.array_equal(domains.fd_gradient(V[:, k], grid), ref)
        assert np.array_equal(stacked[:, :, k], ref)
    if grid.domain.kind == "polygon":
        A, R = domains._fd_laplacian(grid), _fd_laplacian_per_node(grid)
        for attr in ("data", "indices", "indptr"):
            got, ref = getattr(A, attr), getattr(R, attr)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_thin_arms_take_every_fallback():
    grid = polygon_grid(_thin_arms(), 0.1)
    x, y = grid.points[:, 0], grid.points[:, 1]
    G = domains.fd_gradient(x + 2 * y, grid)
    strip = (y < 0.1) & (x > 0.2)
    assert np.all(G[1, strip] == 0.0)  # no y-neighbour at all
    np.testing.assert_allclose(G[0, ~strip], 1.0, rtol=1e-12)  # exact on linear data
    np.testing.assert_allclose(G[1, ~strip], 2.0, rtol=1e-12)


def test_polygon_grid_rejects_overlap_and_untiled_spacing():
    overlap = Domain(kind="polygon", n=2, lengths=(1.5, 1.0), volume=1.5, diameter=2.0,
                     cells=((0.0, 1.0, 0.0, 1.0), (0.5, 1.5, 0.0, 1.0)))
    with pytest.raises(ValueError, match="overlap"):
        polygon_grid(overlap, 0.5)
    with pytest.raises(ValueError, match="does not tile"):
        polygon_grid(lshape_domain(), 0.3)


def test_fd_basis_gradients_are_the_per_mode_stencil():
    basis = build_fd_basis(lshape_domain(), 0.1, 12)
    G = basis.gradients()
    assert G.shape == (2, 12, basis.grid.n_nodes) and G.flags.c_contiguous
    for r in range(basis.K):
        assert np.array_equal(G[:, r], _fd_gradient_per_node(basis.functions[r], basis.grid))


# Per-mode loops that built the analytic bases and their gradients before
# domains.cosine_modes; kept as oracles for the vectorized family.


def _interval_modes_per_mode(L, N, ks):
    x = (np.arange(N) + 0.5) * (L / N)
    rows = np.empty((len(ks), N))
    for r, k in enumerate(ks):
        if k == 0:
            rows[r] = L ** -0.5
        else:
            rows[r] = np.sqrt(2.0 / L) * np.cos(k * np.pi * x / L)
    return rows


def _functions_per_mode(basis):
    dom, shape = basis.domain, basis.grid.shape
    if dom.kind == "interval":
        return _interval_modes_per_mode(dom.lengths[0], shape[0], basis.mode_index)
    (Lx, Ly), (Nx, Ny) = dom.lengths, shape
    a_needed = sorted({a for a, _ in basis.mode_index})
    b_needed = sorted({b for _, b in basis.mode_index})
    ex = dict(zip(a_needed, _interval_modes_per_mode(Lx, Nx, a_needed)))
    ey = dict(zip(b_needed, _interval_modes_per_mode(Ly, Ny, b_needed)))
    E = np.empty((basis.K, Nx * Ny))
    for r, (a, b) in enumerate(basis.mode_index):
        E[r] = np.outer(ex[a], ey[b]).ravel()
    return E


def _gradients_per_mode(basis):
    grid = basis.grid
    out = np.zeros((grid.domain.n, basis.K, grid.n_nodes))
    if grid.domain.kind == "interval":
        L = grid.domain.lengths[0]
        x = grid.points[:, 0]
        for r, k in enumerate(basis.mode_index):
            if k == 0:
                continue
            kappa = k * np.pi / L
            out[0, r] = -np.sqrt(2.0 / L) * kappa * np.sin(kappa * x)
        return out
    (Lx, Ly), (Nx, Ny) = grid.domain.lengths, grid.shape
    xs = (np.arange(Nx) + 0.5) * (Lx / Nx)
    ys = (np.arange(Ny) + 0.5) * (Ly / Ny)
    for r, (a, b) in enumerate(basis.mode_index):
        fx = (np.full(Nx, Lx**-0.5) if a == 0
              else np.sqrt(2.0 / Lx) * np.cos(a * np.pi * xs / Lx))
        fy = (np.full(Ny, Ly**-0.5) if b == 0
              else np.sqrt(2.0 / Ly) * np.cos(b * np.pi * ys / Ly))
        if a > 0:
            ka = a * np.pi / Lx
            out[0, r] = np.outer(-np.sqrt(2.0 / Lx) * ka * np.sin(ka * xs), fy).ravel()
        if b > 0:
            kb = b * np.pi / Ly
            out[1, r] = np.outer(fx, -np.sqrt(2.0 / Ly) * kb * np.sin(kb * ys)).ravel()
    return out


@pytest.mark.parametrize("build", [
    lambda: build_interval_basis(math.pi, 1, N=8),  # K = 1
    lambda: build_interval_basis(math.pi, 33, N=64),  # K - 1 = N/2
    lambda: build_interval_basis(2.5, 4, N=7),  # odd N
    lambda: build_interval_basis(32 * math.pi, 1025, N=2048),
    lambda: build_rectangle_basis(1.0, 1.0, 30, Nx=9, Ny=12),  # degenerate levels
    lambda: build_rectangle_basis(2.0, 1.0, 20, Nx=8, Ny=6),  # (2, 0) ~ (0, 1)
    lambda: build_rectangle_basis(math.pi, 2 * math.pi, 80, Nx=32, Ny=64),
])
def test_cosine_family_is_the_per_mode_loops_bit_for_bit(build):
    basis = build()
    assert basis.functions.tobytes() == _functions_per_mode(basis).tobytes()
    G = basis.gradients()
    assert G.flags.c_contiguous and G.tobytes() == _gradients_per_mode(basis).tobytes()


def test_cosine_family_squares_are_the_separable_axis_table():
    # The squared per-axis table of the 2-D multiplier-scaling check, as
    # it was written before (cos(kappa x), then the normalization).
    L, A, n = 2.0, 85, 256
    x = (np.arange(n) + 0.5) * (L / n)
    E = np.cos(np.outer(np.arange(A) * math.pi / L, x))
    E[0] *= math.sqrt(1.0 / L)
    E[1:] *= math.sqrt(2.0 / L)
    assert (domains.cosine_modes((L,), (n,), range(A)) ** 2).tobytes() == (E**2).tobytes()
