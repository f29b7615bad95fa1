import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbesov.domains import (
    build_interval_basis,
    build_rectangle_basis,
    interval_grid,
    lp_norm,
    lshape_domain,
    polygon_grid,
    rectangle_grid,
)
from nbesov import norms, spectral
from nbesov.littlewood_paley import make_partition
from nbesov.norms import (
    AmalgamParams,
    BesovParams,
    ResolutionError,
    amalgam_cells,
    amalgam_columns,
    amalgam_norm,
    besov_hom,
    besov_inhom,
    besov_table,
    block_lp_table,
    cube_block_norms,
    default_besov_params,
    lp_columns,
    norm_csv_header,
    norm_csv_row,
    scale_window,
    seminorm_pM,
    seminorm_qM,
    triple_norm,
)
from nbesov.spectral import (
    GridFunction,
    OperatorKernel,
    endpoint_norms,
    gradient_kernels,
    heat_kernel,
    heat_symbol,
    load_kernel,
    bump_symbol,
    multiplier_kernel,
    save_kernel,
    to_grid,
)
from nbesov.verify.besov import PARTITION_DEFAULTS


@pytest.fixture(scope="module")
def basis():
    return build_interval_basis(math.pi, 64, N=256)


@pytest.fixture(scope="module")
def pou():
    return make_partition("standard")


def _from_coeffs(basis, c):
    return GridFunction(basis.functions.T @ np.asarray(c, dtype=float), basis.grid)


# ---------------------------------------------------------------------------
# Amalgam


def test_amalgam_constant_on_unit_interval():
    """f = 1 on [0, 1] with quarter-width cubes, outer l^1 of inner L^2.

    The lattice splits [0, 1] into half-cubes of measure 1/8 at both ends
    and three full cubes of measure 1/4, so the norm is
    2 sqrt(1/8) + 3 sqrt(1/4) = 3/2 + 1/sqrt(2).
    """
    b = build_interval_basis(1.0, 8, N=64)
    f = GridFunction.constant(b.grid, 1.0)
    got = amalgam_norm(f, AmalgamParams(p=1.0, q=2.0, theta=1.0 / 16.0))
    assert got == pytest.approx(2.2071067811865475, rel=1e-14)

    # Recompute from the cell layout directly.
    w = b.grid.weights
    brute = 0.0
    for _, idx in amalgam_cells(b.grid, 1.0 / 16.0):
        brute += math.sqrt(float(np.sum(w[idx])))
    assert got == pytest.approx(brute, rel=1e-15)


def test_amalgam_p_equals_q_collapses_to_lp(basis):
    rng = np.random.default_rng(0)
    f = _from_coeffs(basis, rng.standard_normal(basis.K) * np.exp(-0.2 * np.arange(basis.K)))
    for p in (1.0, 2.0):
        got = amalgam_norm(f, AmalgamParams(p=p, q=p, theta=0.25))
        assert got == pytest.approx(lp_norm(f, p), rel=1e-12)


def test_amalgam_homogeneity(basis):
    rng = np.random.default_rng(1)
    f = _from_coeffs(basis, rng.standard_normal(basis.K))
    params = AmalgamParams(p=1.0, q=2.0, theta=0.1)
    twice = GridFunction(2.0 * f.values, f.grid)
    assert amalgam_norm(twice, params) == pytest.approx(2.0 * amalgam_norm(f, params), rel=1e-13)


def test_amalgam_rejects_cubes_below_grid_scale(basis):
    f = GridFunction.constant(basis.grid, 1.0)
    params = AmalgamParams(p=1.0, q=2.0, theta=(basis.grid.h / 2) ** 2)
    with pytest.raises(ValueError, match="grid spacing"):
        amalgam_norm(f, params)
    with pytest.raises(ValueError, match="grid spacing"):
        amalgam_columns(np.ones((basis.grid.n_nodes, 3)), basis.grid, params)


def _amalgam_by_cells(F, grid, params):
    """The per-cell loop amalgam_norm ran before amalgam_columns, column by
    column: the L^q norm of each cube, then l^p across cubes."""
    w, p, q = grid.weights, params.p, params.q
    out = []
    for col in np.abs(F.T):
        per_cell = np.array([
            col[idx].max() if np.isinf(q) else np.sum(w[idx] * col[idx] ** q) ** (1.0 / q)
            for _, idx in amalgam_cells(grid, params.theta)
        ])
        out.append(per_cell.max() if np.isinf(p) else np.sum(per_cell**p) ** (1.0 / p))
    return np.array(out)


@pytest.mark.parametrize("make_grid", [
    lambda: interval_grid(math.pi, 256),
    lambda: rectangle_grid(math.pi, 2.0, 24, 16),
    lambda: polygon_grid(lshape_domain(), 0.1),
], ids=["interval", "rectangle", "lshape"])
def test_amalgam_columns_matches_a_per_cell_loop(make_grid):
    grid = make_grid()
    F = np.random.default_rng(3).standard_normal((grid.n_nodes, 4))
    for theta in ((3.0 * grid.h) ** 2, 0.5):
        for p, q in itertools.product((1.0, 2.0, 3.0, math.inf), repeat=2):
            params = AmalgamParams(p=p, q=q, theta=theta)
            got = amalgam_columns(F, grid, params)
            # Summation order depends on the stack's shape: a few ulp apart.
            np.testing.assert_allclose(got, _amalgam_by_cells(F, grid, params), rtol=1e-13)
            one = amalgam_norm(GridFunction(F[:, 0], grid), params)
            assert got[0] == pytest.approx(one, rel=1e-14)


def test_amalgam_params_validation():
    with pytest.raises(ValueError):
        AmalgamParams(p=0.5, q=2.0, theta=0.1)
    with pytest.raises(ValueError):
        AmalgamParams(p=1.0, q=2.0, theta=0.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -1.0, 0.0])
def test_amalgam_cells_rejects_theta_that_is_not_positive_and_finite(basis, theta):
    with pytest.raises(ValueError, match="positive and finite"):
        amalgam_cells(basis.grid, theta)
    with pytest.raises(ValueError, match="positive and finite"):
        triple_norm(heat_kernel(0.1, basis), 0.5, theta)


def test_amalgam_cells_are_kept_read_only_and_still_validate_theta(basis):
    """A repeated (grid id, theta) returns equal cells whose node indices
    cannot be written, also for a rebuilt grid of the same id, and the
    theta checks run before the lookup."""
    theta = 0.1
    first = amalgam_cells(basis.grid, theta)
    again = amalgam_cells(build_interval_basis(basis.domain.lengths[0], basis.K,
                                               N=basis.grid.n_nodes).grid, theta)
    assert [m for m, _ in again] == [m for m, _ in first]
    for (_, a), (_, b) in zip(first, again):
        assert np.array_equal(a, b) and not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            b[0] = 0
    for bad in (math.nan, -theta, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            amalgam_cells(basis.grid, bad)
    with pytest.raises(ValueError, match="below the grid spacing"):
        amalgam_cells(basis.grid, 0.25 * basis.grid.h ** 2)


@pytest.mark.parametrize("grid", [interval_grid(math.pi, 128), interval_grid(math.pi, 512),
                                  rectangle_grid(math.pi, math.pi, 16, 16)],
                         ids=["interval128", "interval512", "rectangle16x16"])
def test_amalgam_cells_put_face_nodes_in_the_upper_cube(grid):
    """At theta = h^2 every node (i + 1/2) h lies on the face between cubes i
    and i + 1 of each axis; half-up puts it in cube i + 1, one node per
    cube, however x / sqrt(theta) rounds."""
    cells = amalgam_cells(grid, grid.h ** 2)
    assert len(cells) == grid.n_nodes
    for m, idx in cells:
        assert len(idx) == 1 and np.array_equal(np.asarray(m), grid.index[idx[0]] + 1)


# ---------------------------------------------------------------------------
# Triple norm


def identity_kernel(grid):
    """Kernel representing the identity on the quadrature grid (1/w diagonal,
    the factor (1/w, I)), whose 2->2 values are all 1, with no truncation
    tail."""
    return OperatorKernel(factor=(1.0 / grid.weights, np.eye(grid.n_nodes)), grid=grid,
                          tag="identity", symbol_values=np.ones(grid.n_nodes), tail_bound=0.0)


def test_triple_norm_of_identity_is_max_offset(basis):
    """The identity localizes perfectly, so the sup is just the largest
    distance from a node to its own cube center, raised to alpha."""
    theta, alpha = 0.25, 0.7
    got = triple_norm(identity_kernel(basis.grid), alpha, theta)
    root = math.sqrt(theta)
    brute = 0.0
    for m_idx, idx in amalgam_cells(basis.grid, theta):
        center = root * np.asarray(m_idx, dtype=float)
        dist = np.linalg.norm(basis.grid.points[idx] - center, axis=1)
        brute = max(brute, float(np.max(dist**alpha)))
    assert got == pytest.approx(brute, rel=1e-10)


def _column_block_svd(kernel, alpha, theta):
    """Oracle for triple_norm(kernel, alpha, theta): the largest singular
    value over the weighted column blocks Kw[:, cell], with rows scaled by
    the distance to the cell centre to the power alpha, one batched SVD per
    cell size."""
    grid = kernel.grid
    sw = np.sqrt(grid.weights)
    Kw = sw[:, None] * kernel.matrix * sw[None, :]
    by_size: dict[int, list] = {}
    for m_idx, idx in amalgam_cells(grid, theta):
        center = math.sqrt(theta) * np.asarray(m_idx, dtype=float)
        rows = np.linalg.norm(grid.points - center, axis=1) ** alpha
        by_size.setdefault(len(idx), []).append(rows[:, None] * Kw[:, idx])
    return max(
        float(np.linalg.svd(np.stack(blocks), compute_uv=False)[:, 0].max())
        for blocks in by_size.values()
    )


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("grad", [False, True], ids=["heat", "gradient"])
def test_triple_norm_is_the_weighted_column_block_svd(basis, alpha, grad):
    # The gradient kernel is not symmetric, so a block read from rows
    # instead of columns fails here.
    sym = heat_symbol(0.05)
    for theta in ((4.0 * basis.grid.h) ** 2, 0.1, 1.0):
        ker = gradient_kernels(sym, basis)[0] if grad else multiplier_kernel(sym, basis)
        got = triple_norm(ker, alpha, theta)
        assert got == pytest.approx(_column_block_svd(ker, alpha, theta), rel=1e-12)


def test_triple_norm_and_kernel_files_keep_a_profile_kernel_unformed(basis, tmp_path):
    rect = build_rectangle_basis(math.pi, 2.0, 30, Nx=12, Ny=8)
    for b in (basis, rect):
        for ker in (heat_kernel(0.05, b), gradient_kernels(heat_symbol(0.05), b)[-1]):
            triple_norm(ker, 0.5, 0.1)
            endpoint_norms(ker)
            save_kernel(ker, str(tmp_path / "k.npz"))
            loaded = load_kernel(str(tmp_path / "k.npz"), b.grid)
            triple_norm(loaded, 0.5, 0.1)
            assert ker._matrix is None and loaded._matrix is None, ker.tag


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
def test_triple_norm_rejects_alpha_that_is_not_finite_and_nonnegative(basis, alpha):
    with pytest.raises(ValueError, match="finite and >= 0"):
        triple_norm(heat_kernel(0.1, basis), alpha, 0.25)
    with pytest.raises(ValueError, match="finite and >= 0"):
        cube_block_norms(np.ones(basis.K), basis.functions, basis.grid, 0.25, (0.5, alpha))


# ---------------------------------------------------------------------------
# Cube blocks


def _degenerate_blocks():
    """Blocks whose largest singular value the closed forms must get right:
    2 x 2 ones with b = 0, with d = 0, of rank 1 and all zero, and 1 x k,
    k x 1, 2 x k and k x 2 ones, each also scaled to entries near 1e-300 and
    near 1e300."""
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal(2), rng.standard_normal(5)
    shapes = {
        "2x2 b=0": np.array([[1.5, 0.0], [-0.7, 2.0]]),
        "2x2 d=0": np.array([[1.5, -0.3], [0.7, 0.0]]),
        "2x2 rank 1": np.outer(u, u[::-1]),
        "2x2 equal rows": np.array([[1.0, 2.0], [1.0, 2.0]]),
        "2x2 zero": np.zeros((2, 2)),
        "1x5": v[None, :],
        "5x1": v[:, None],
        "1x5 zero": np.zeros((1, 5)),
        "2x5": rng.standard_normal((2, 5)),
        "2x5 rank 1": np.outer(u, v),
        "5x2 zero column": np.stack([v, np.zeros(5)], axis=1),
        "5x2 zero": np.zeros((5, 2)),
    }
    for name, B in shapes.items():
        for scale in (1.0, 1e-300, 1e300):
            yield f"{name} * {scale:g}", scale * B


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, B", list(_degenerate_blocks()))
def test_sigma_max_closed_forms_match_the_svd(name, B):
    """The closed forms against np.linalg.svd, one block at a time and
    stacked, with warnings raised as errors: no square over- or underflows
    near 1e300 and 1e-300, and an all-zero block reads 0 exactly."""
    want = np.linalg.svd(B, compute_uv=False)[0]
    got = norms._sigma_max(B)
    assert got == pytest.approx(want, rel=4e-16 * max(B.shape), abs=0), name
    assert np.all(norms._sigma_max(np.stack([B, -B, B])) == got)


def test_cube_block_norms_read_a_symmetric_kernel_once_per_cube_pair(monkeypatch):
    """A 1-D U = phi and the 2-D U = diag(phi) V give the same bounds and
    triple norms, while the first reads n (n + 1) / 2 of the n^2 blocks
    C_rc, n cubes."""
    basis = build_interval_basis(math.pi, 65, N=128)
    pou = make_partition("standard")
    blocks = []
    real = norms._sigma_max
    monkeypatch.setattr(norms, "_sigma_max",
                        lambda B: blocks.append(math.prod(B.shape[:-2])) or real(B))
    for theta in (4.0 * basis.grid.h ** 2, 0.01, 0.1, 1.0):
        phi = bump_symbol(pou, theta)(basis.eigenvalues)
        band = spectral._band(phi)
        phi, X = phi[band], basis.functions[band]
        n = len(amalgam_cells(basis.grid, theta))
        blocks.clear()
        once = cube_block_norms(phi, X, basis.grid, theta, (0.5,))
        n_once = sum(blocks)
        blocks.clear()
        both = cube_block_norms(phi[:, None] * X, X, basis.grid, theta, (0.5,))
        assert sum(blocks) - n_once == n * (n - 1) // 2, theta
        for a, b in zip(once, both):
            assert a == pytest.approx(b, rel=1e-13, abs=0), theta


# ---------------------------------------------------------------------------
# Besov norms


def test_besov_inhom_of_constant(basis, pou):
    """Constants live entirely under the low-pass cap: the norm reduces to
    |c| |Omega|^{1/p} and every dyadic block vanishes."""
    f = GridFunction.constant(basis.grid, 3.0)
    for p in (1.0, 2.0):
        params = BesovParams(s=1.0, p=p, q=2.0, j_min=0, j_max=6)
        got = besov_inhom(f, params, pou, basis)
        assert got == pytest.approx(3.0 * math.pi ** (1.0 / p), rel=1e-12)


def test_besov_hom_kills_constants(basis, pou):
    """Every dyadic block annihilates the flat mode; what remains is
    analysis roundoff (~1e-16 per coefficient) amplified by the block
    weights, so the value is tiny but not an exact zero."""
    f = GridFunction.constant(basis.grid, 3.0)
    params = BesovParams(s=0.5, p=2.0, q=2.0, j_min=-2, j_max=6)
    res = besov_hom(f, params, pou, basis)
    assert res.value <= 1e-12
    assert res.tail_bound == 0.0


def test_besov_hom_shift_invariance(basis, pou):
    rng = np.random.default_rng(2)
    c = rng.standard_normal(basis.K) * np.exp(-0.1 * np.arange(basis.K))
    f = _from_coeffs(basis, c)
    shifted = GridFunction(f.values + 17.0, f.grid)
    params = BesovParams(s=0.5, p=2.0, q=2.0, j_min=-1, j_max=7)
    a = besov_hom(f, params, pou, basis)
    b = besov_hom(shifted, params, pou, basis)
    assert b.value == pytest.approx(a.value, rel=1e-12)
    assert b.tail_bound == pytest.approx(a.tail_bound, abs=1e-15)


def test_besov_single_mode_values(basis, pou):
    """e_2 sits at sqrt(lambda) = 1, inside exactly one block at unit
    weight, so every norm reads off directly."""
    c = np.zeros(basis.K)
    c[1] = 1.0
    f = _from_coeffs(basis, c)
    l2 = lp_norm(f, 2.0)
    for s in (0.0, 1.0):
        params = BesovParams(s=s, p=2.0, q=2.0, j_min=0, j_max=6)
        # psi(1) = 1 and phi_0(1) = 1 share the mode; blocks j >= 1 are empty.
        assert besov_inhom(f, params, pou, basis) == pytest.approx(l2, rel=1e-12)
        res = besov_hom(f, params, pou, basis)
        assert res.value == pytest.approx(l2, rel=1e-12)
        assert res.tail_bound == 0.0


def test_besov_s_monotone(basis, pou):
    rng = np.random.default_rng(3)
    f = _from_coeffs(basis, rng.standard_normal(basis.K) * np.exp(-0.1 * np.arange(basis.K)))
    vals = [
        besov_inhom(f, BesovParams(s=s, p=2.0, q=2.0, j_min=0, j_max=7), pou, basis)
        for s in (-1.0, 0.0, 1.0, 2.0)
    ]
    assert vals == sorted(vals)


def test_besov_q_monotone(basis, pou):
    rng = np.random.default_rng(4)
    f = _from_coeffs(basis, rng.standard_normal(basis.K) * np.exp(-0.1 * np.arange(basis.K)))
    vals = [
        besov_inhom(f, BesovParams(s=0.5, p=2.0, q=q, j_min=0, j_max=7), pou, basis)
        for q in (1.0, 2.0, math.inf)
    ]
    assert vals[0] >= vals[1] >= vals[2]


def test_besov_homogeneity(basis, pou):
    rng = np.random.default_rng(5)
    f = _from_coeffs(basis, rng.standard_normal(basis.K) * np.exp(-0.1 * np.arange(basis.K)))
    params = BesovParams(s=1.0, p=2.0, q=1.0, j_min=0, j_max=7)
    twice = GridFunction(2.0 * f.values, f.grid)
    assert besov_inhom(twice, params, pou, basis) == pytest.approx(
        2.0 * besov_inhom(f, params, pou, basis), rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.floats(-5, 5, allow_nan=False), min_size=16, max_size=16),
    b=st.lists(st.floats(-5, 5, allow_nan=False), min_size=16, max_size=16),
)
def test_besov_triangle_inequality(a, b):
    basis = build_interval_basis(math.pi, 16, N=64)
    pou = make_partition("standard")
    params = BesovParams(s=0.5, p=2.0, q=2.0, j_min=0, j_max=5)
    fa = _from_coeffs(basis, a)
    fb = _from_coeffs(basis, b)
    fab = GridFunction(fa.values + fb.values, basis.grid)
    na = besov_inhom(fa, params, pou, basis)
    nb = besov_inhom(fb, params, pou, basis)
    nab = besov_inhom(fab, params, pou, basis)
    assert nab <= na + nb + 1e-9 * (1.0 + na + nb)


def _besov_table_scalar(C, s, p, q, pou, basis, j_max, j_min=1, include_cap=True):
    """besov_table as it was before it took a list of (s, p, q) triples:
    one triple per call, every block synthesised again.  Kept as the
    oracle for the batched rows."""
    js = list(range(1 if include_cap else j_min, j_max + 1))
    blocks = block_lp_table(C, js, [p], pou, basis)[:, 0, :]  # (J, S)
    weights = 2.0 ** (s * np.asarray(js, dtype=float))[:, None]
    weighted = weights * blocks
    if np.isinf(q):
        body = weighted.max(axis=0)
    else:
        body = np.sum(weighted**q, axis=0) ** (1.0 / q)
    if not include_cap:
        return body
    cap_fields = to_grid(pou.psi(basis.eigenvalues)[:, None] * C, basis)
    return lp_columns(cap_fields, basis.grid.weights, p) + body


def _wide_basis(shape):
    # sqrt(lambda_2) = 1/4 on both, so scales below j = 0 carry a nonzero tail.
    if shape == "interval":
        return build_interval_basis(4 * math.pi, 64, N=256)
    return build_rectangle_basis(4 * math.pi, 4 * math.pi, 60, Nx=32, Ny=32)


@pytest.mark.parametrize("shape", ["interval", "rectangle"])
def test_besov_table_rows_are_the_scalar_calls_bit_for_bit(shape, pou):
    b = _wide_basis(shape)
    rng = np.random.default_rng(5)
    C = rng.standard_normal((b.K, 6)) * np.exp(-0.05 * np.arange(b.K))[:, None]
    j_gap, j_cover = scale_window(b)
    assert j_gap == -2
    P = PARTITION_DEFAULTS
    tables = [
        list(itertools.product(P["s_table"], P["pq_table"], P["pq_table"])),
        [(0.5, 2.0, 1.0), (-1.0, 2.0, 2.0), (0.5, 2.0, 1.0), (2.0, np.inf, 2.0),
         (1.0, 4.0, np.inf)],
        [(1.0, 4.0, 2.0)],
    ]
    # Inhomogeneous, two homogeneous windows, and the besov_hom tail below j_min = 0.
    windows = [
        {"j_max": j_cover},
        {"j_max": j_cover, "j_min": j_gap, "include_cap": False},
        {"j_max": j_cover, "j_min": 0, "include_cap": False},
        {"j_max": -1, "j_min": j_gap, "include_cap": False},
    ]
    for spq in tables:
        for win in windows:
            got = besov_table(C, spq, pou, b, **win)
            assert got.shape == (len(spq), C.shape[1])
            for row, (s, p, q) in enumerate(spq):
                want = _besov_table_scalar(C, s, p, q, pou, b, **win)
                assert np.array_equal(got[row], want), (spq[row], win)


@pytest.mark.parametrize("shape", ["interval", "rectangle"])
def test_besov_table_columns_are_the_single_function_norms(shape, pou):
    # The batched core is the one Besov computation: each column must be
    # the norm the single-function wrappers report for that function.
    b = _wide_basis(shape)
    rng = np.random.default_rng(3)
    C = rng.standard_normal((b.K, 4)) * np.exp(-0.05 * np.arange(b.K))[:, None]
    fs = [_from_coeffs(b, C[:, i]) for i in range(C.shape[1])]
    j_support = math.floor(math.log2(math.sqrt(b.eigenvalues[1]))) - 1
    spq = list(itertools.product((-0.5, 1.0), (1.0, 2.0, 4.0, np.inf), (1.0, 2.0, np.inf)))
    j_max = default_besov_params(b, 0.0, 1.0, 1.0).j_max
    inhom = besov_table(C, spq, pou, b, j_max)
    hom = besov_table(C, spq, pou, b, j_max, 0, include_cap=False)
    tail = besov_table(C, spq, pou, b, -1, j_support, include_cap=False)
    for row, (s, p, q) in enumerate(spq):
        prm = BesovParams(s=s, p=p, q=q, j_min=0, j_max=j_max)
        assert default_besov_params(b, s, p, q).j_max == j_max
        for i, f in enumerate(fs):
            h = besov_hom(f, prm, pou, b)
            assert besov_inhom(f, prm, pou, b) == pytest.approx(inhom[row, i], rel=1e-14)
            assert h.value == pytest.approx(hom[row, i], rel=1e-14)
            assert h.tail_bound == pytest.approx(tail[row, i], rel=1e-14)
            assert h.tail_bound > 0.0
    j_hi = math.ceil(math.log2(math.sqrt(b.eigenvalues[-1]))) + 1
    for M in (0.5, 2.0):
        sup = besov_table(C, [(M, 1.0, np.inf)], pou, b, j_hi, include_cap=False)[0]
        for i, f in enumerate(fs):
            assert seminorm_pM(f, M, pou, b) == pytest.approx(
                lp_norm(f, 1.0) + sup[i], rel=1e-14)


def test_lp_columns_match_an_fsum_oracle(basis):
    F = np.random.default_rng(4).standard_normal((basis.grid.n_nodes, 3))
    w = basis.grid.weights
    for p in (1.0, 2.0, 3.5, np.inf):
        got = lp_columns(F, w, p)
        for i in range(F.shape[1]):
            col = [abs(float(v)) for v in F[:, i]]
            want = (max(col) if math.isinf(p)
                    else math.fsum(float(wk) * v**p for wk, v in zip(w, col)) ** (1.0 / p))
            assert got[i] == pytest.approx(want, rel=1e-14)


def test_lp_columns_builds_one_temporary():
    """|F|^p is raised in place: the peak holds one (N, S) temporary."""
    F = np.random.default_rng(5).standard_normal((4096, 100))
    w = np.full(4096, 1.0 / 4096)
    tracemalloc.start()
    try:
        lp_columns(F, w, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * F.nbytes


def test_besov_rejects_underresolved_window(basis, pou):
    """A mode at sqrt(lambda) = 59 needs blocks up to j = 6; capping the
    window at 5 leaves unreproduced energy and must refuse loudly."""
    c = np.zeros(basis.K)
    c[59] = 1.0
    f = _from_coeffs(basis, c)
    with pytest.raises(ResolutionError):
        besov_inhom(f, BesovParams(s=0.0, p=2.0, q=2.0, j_min=0, j_max=5), pou, basis)
    ok = besov_inhom(f, BesovParams(s=0.0, p=2.0, q=2.0, j_min=0, j_max=6), pou, basis)
    assert math.isfinite(ok) and ok > 0


def test_besov_window_beyond_grid_band(basis, pou):
    f = GridFunction.constant(basis.grid, 1.0)
    with pytest.raises(ValueError, match="resolved band"):
        besov_inhom(f, BesovParams(s=0.0, p=2.0, q=2.0, j_min=0, j_max=9), pou, basis)


def test_besov_params_validation():
    with pytest.raises(ValueError):
        BesovParams(s=0.0, p=0.5, q=2.0, j_min=0, j_max=5)
    with pytest.raises(ValueError):
        BesovParams(s=0.0, p=2.0, q=2.0, j_min=1, j_max=5)


def test_default_besov_params(basis):
    params = default_besov_params(basis, s=0.5, p=2.0, q=2.0)
    assert params.j_max == 6
    assert params.j_min <= 0


# ---------------------------------------------------------------------------
# Moment seminorms


def test_seminorms_on_single_cosine(basis, pou):
    """e_2 = sqrt(2/pi) cos(x) has ||.||_1 = 2 sqrt(2/pi); only the j = 0
    block survives, so the two seminorms come out as one and two copies of
    that on top of the base norm.  Midpoint quadrature of |cos| carries an
    O(h^2) error, hence the loose tolerance against the closed form."""
    c = np.zeros(basis.K)
    c[1] = 1.0
    f = _from_coeffs(basis, c)
    one_norm = 2.0 * math.sqrt(2.0 / math.pi)
    p_val = seminorm_pM(f, 2.0, pou, basis)
    q_val = seminorm_qM(f, 2.0, pou, basis)
    assert p_val == pytest.approx(one_norm, rel=2e-5)
    assert q_val == pytest.approx(2.0 * one_norm, rel=2e-5)
    # The sup scans deep blocks whose 2^{Mj} weights amplify analysis
    # roundoff to ~1e-11, so the factor-two relation is not exact.
    assert q_val == pytest.approx(2.0 * p_val, rel=1e-9)


def test_seminorm_qM_infinite_off_mean_zero(basis, pou):
    c = np.zeros(basis.K)
    c[0] = 0.5
    c[1] = 1.0
    f = _from_coeffs(basis, c)
    assert seminorm_qM(f, 2.0, pou, basis) == math.inf


# ---------------------------------------------------------------------------
# Small pieces


def test_norm_csv_row_shape():
    header = norm_csv_header()
    row = norm_csv_row("besov_inhom", {"s": 0.5, "p": 2.0}, 1.25, None)
    assert len(row) == len(header)
    assert float(row[2]) == 1.25
    assert row[3] == ""
    row2 = norm_csv_row("besov_hom", {}, 1.0, 0.125)
    assert float(row2[3]) == 0.125


# The three scale-window rules that scale_window replaced, kept as oracles.


def _pM_wide(f, M, pou, basis):
    lam_top = float(basis.eigenvalues[-1])
    j_hi = max(1, math.ceil(math.log2(math.sqrt(lam_top))) + 1 if lam_top > 0 else 1)
    c = basis.functions @ (basis.grid.weights * f.values)
    sup = _besov_table_scalar(c[:, None], M, 1.0, np.inf, pou, basis, j_hi, include_cap=False)
    return lp_norm(f, 1.0) + float(sup[0])


def _qM_wide(f, M, pou, basis):
    lam = basis.eigenvalues
    nz = lam[lam > 0]
    j_lo = int(math.floor(math.log2(math.sqrt(nz.min())))) - 1
    j_hi = int(math.ceil(math.log2(math.sqrt(float(lam[-1]))))) + 1
    js = list(range(j_lo, j_hi + 1))
    c = basis.functions @ (basis.grid.weights * f.values)
    blocks = block_lp_table(c[:, None], js, [1.0], pou, basis)[:, 0, 0]
    return lp_norm(f, 1.0) + float(np.max(2.0 ** (M * np.abs(np.asarray(js, dtype=float))) * blocks))


def _hom_tail_wide(f, params, pou, basis):
    lam = basis.eigenvalues
    j_support = int(math.floor(math.log2(math.sqrt(lam[lam > 0].min())))) - 1
    if j_support >= params.j_min:
        return 0.0
    c = basis.functions @ (basis.grid.weights * f.values)
    return float(_besov_table_scalar(c[:, None], params.s, params.p, params.q, pou, basis,
                                     params.j_min - 1, j_support, include_cap=False)[0])


@pytest.mark.parametrize("L, K, N, window", [
    (math.pi, 65, 256, (0, 6)),        # sqrt(lambda_top) = 64 exactly
    (3.0, 50, 256, (0, 6)),            # generic top, sqrt = 49 pi / 3
    (32 * math.pi, 129, 512, (-5, 2)),  # gap below 1, sqrt(lambda_top) = 4
])
def test_scale_window_keeps_seminorm_and_tail_values(L, K, N, window, pou):
    """Blocks outside [j_gap, j_cover] vanish on the spectrum, so the tight
    window gives bit-identical values to the wider windows it replaced."""
    basis = build_interval_basis(L, K, N=N)
    assert scale_window(basis) == window
    j_gap, j_cover = window
    rng = np.random.default_rng(7)
    c = rng.standard_normal(K) * np.exp(-0.05 * np.arange(K))
    c[0] = 0.0
    f = _from_coeffs(basis, c)
    for M in (0.5, 2.0):
        assert seminorm_pM(f, M, pou, basis) == _pM_wide(f, M, pou, basis)
        assert seminorm_qM(f, M, pou, basis) == _qM_wide(f, M, pou, basis)
    j_mins = sorted({default_besov_params(basis, 0, 1, 1).j_min, min(j_gap, 0),
                     min(j_gap + 1, 0), 0})
    for j_min in j_mins:
        for s, p, q in [(-0.5, 1.0, 1.0), (1.0, 2.0, 2.0), (0.5, np.inf, 2.0),
                        (0.0, 2.0, np.inf)]:
            params = BesovParams(s=s, p=p, q=q, j_min=j_min, j_max=j_cover)
            got = besov_hom(f, params, pou, basis)
            assert got.tail_bound == _hom_tail_wide(f, params, pou, basis)
            if j_min > j_gap:
                assert got.tail_bound > 0
