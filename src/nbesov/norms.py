"""Besov, amalgam, and localized operator norms built on the dyadic calculus.

Besov norms combine the low-frequency cap with weighted dyadic block norms:

    inhomogeneous: ||psi(H) f||_p + || { 2^{s j} ||phi_j(sqrt H) f||_p }_{j >= 1} ||_{l^q}
    homogeneous:   || { 2^{s j} ||phi_j(sqrt H) f||_p }_{j in Z} ||_{l^q}

Every norm here reduces node values through the one quadrature L^p
routine, domains.lp_columns (re-exported here), and every dyadic block
through littlewood_paley, whose cutoff chi has the fixed support [0, 2]: a
constant of the library, not a parameter, so supp phi_0 lies in
[plateau / 2, 2] for every variant.

The homogeneous family never sees the flat mode (every block annihilates
constants), so it measures f modulo constants.  On a bounded domain the
spectral gap makes all blocks below a cutoff scale vanish identically;
the truncation tail reported alongside the homogeneous norm is therefore
exact, not an envelope estimate.

Amalgam norms l^p(L^q)_theta tile space by the lattice of cubes with side
theta^(1/2) centered at theta^(1/2) m, m integer, intersected with the
domain: an L^q norm on each cube, then l^p across cubes.
amalgam_columns is the one amalgam computation: it reduces a whole (N, S)
stack of functions over the cube-sorted nodes at once, and amalgam_norm is
its one-column case.  The triple norm of an operator A
localizes it to cubes and weights the output by the distance to the cube
center:

    |||A|||_{alpha,theta} = sup_m || |x - theta^(1/2) m|^alpha A chi_{C(m)} ||_{2->2}.

Decay of the triple norm in theta is what makes kernel off-diagonal decay
quantitative without ever forming pointwise kernel bounds.
cube_block_norms is the one cube-block routine for a kernel given by its
mode factor (OperatorKernel.factor): it bounds the norm on l^1(L^2)_theta
from both sides and gives the triple norms from the same blocks, each with
its truncation tail.  triple_norm reads a factor kernel (finite-difference
basis) through the same triple step, and a profile kernel's columns cube
by cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .domains import EigenBasis, Grid, lp_columns, lp_norm
from .littlewood_paley import PartitionOfUnity
from .spectral import GridFunction, OperatorKernel, analyze, to_grid

__all__ = [
    "BesovParams",
    "AmalgamParams",
    "HomNorm",
    "ResolutionError",
    "default_besov_params",
    "scale_window",
    "besov_inhom",
    "besov_hom",
    "besov_table",
    "block_lp_table",
    "lp_columns",
    "seminorm_pM",
    "seminorm_qM",
    "amalgam_cells",
    "amalgam_columns",
    "amalgam_norm",
    "triple_norm",
    "CubeBlockNorms",
    "cube_block_norms",
    "norm_csv_header",
    "norm_csv_row",
]


class ResolutionError(ValueError):
    """The requested scale window cannot represent the function's band."""


@dataclass(frozen=True)
class BesovParams:
    """Smoothness s, integrability p, summation q, and the scale window.

    j_max bounds the finest dyadic block (2^{j_max} must stay within the
    grid's resolved band); j_min (homogeneous only) bounds the coarsest.
    """

    s: float
    p: float
    q: float
    j_min: int
    j_max: int

    def __post_init__(self):
        if not (self.p >= 1 and self.q >= 1):  # written so that NaN fails
            raise ValueError(f"p={self.p} and q={self.q} must be >= 1")
        if not math.isfinite(self.s):
            raise ValueError(f"smoothness s={self.s} must be finite")
        if not (self.j_min <= 0 < self.j_max):
            raise ValueError("scale window must satisfy j_min <= 0 < j_max")


@dataclass(frozen=True)
class AmalgamParams:
    """l^p over lattice cubes of an L^q norm per cube; theta sets the side."""

    p: float
    q: float
    theta: float

    def __post_init__(self):
        if not (self.p >= 1 and self.q >= 1):  # written so that NaN fails
            raise ValueError(f"p={self.p} and q={self.q} must be >= 1")
        if not 0 < self.theta < math.inf:
            raise ValueError(f"theta={self.theta} must be positive and finite")


class HomNorm(NamedTuple):
    """Homogeneous norm value plus the exact l^q mass of scales below j_min."""

    value: float
    tail_bound: float


def default_besov_params(
    basis: EigenBasis, s: float, p: float, q: float
) -> BesovParams:
    """Scale window adapted to the basis: j_max just covers the resolved
    band, j_min reaches two octaves below the grid scale."""
    _, j_max = scale_window(basis)
    h = basis.grid.h
    j_min = min(0, -math.ceil(math.log2(1.0 / h)) - 2 if h < 1 else 0)
    return BesovParams(s=s, p=p, q=q, j_min=j_min, j_max=j_max)


def _check_window(params: BesovParams, basis: EigenBasis) -> None:
    top = math.sqrt(basis.grid.resolution_cutoff)
    if 2.0**params.j_max > top * (1 + 1e-12):
        raise ValueError(
            f"j_max={params.j_max} exceeds the grid's resolved band "
            f"(2^j_max must stay below {top:.4g})"
        )


def scale_window(basis: EigenBasis) -> tuple[int, int]:
    """(j_gap, j_cover): the coarsest block that reaches the smallest
    nonzero eigenvalue, floor(log2 sqrt(lambda)), and the smallest J >= 1
    with psi + sum_{1 <= j <= J} phi_j identically 1 on the band,
    ceil(log2 sqrt(lambda_top)).

    supp phi_0 lies in (1/2, 2), so every block outside [j_gap, j_cover]
    vanishes on the whole spectrum.  j_gap is j_cover when no eigenvalue
    is nonzero.
    """
    lam = basis.eigenvalues
    lam_top = float(lam[-1])
    j_cover = math.ceil(math.log2(math.sqrt(lam_top))) if lam_top > 1 else 1
    nz = lam[lam > 0]
    if nz.size == 0:
        return j_cover, j_cover
    return math.floor(math.log2(math.sqrt(float(nz.min())))), j_cover


def _coverage_defect(
    coeffs: NDArray, lam: NDArray, pou: PartitionOfUnity, j_hi: int, inhom: bool, j_lo: int = 0
) -> float:
    """Relative energy of f that the truncated partition fails to reproduce."""
    sq = np.sqrt(np.maximum(lam, 0.0))
    total = pou.psi(lam) if inhom else np.zeros_like(lam)
    lo = 1 if inhom else j_lo
    for j in range(lo, j_hi + 1):
        total = total + pou.phi(j, sq)
    defect = 1.0 - total
    if not inhom:
        defect = defect.copy()
        defect[lam == 0.0] = 0.0  # constants are invisible by design
    num = float(np.sum((defect * coeffs) ** 2))
    den = float(np.sum(coeffs**2)) or 1.0
    return math.sqrt(num / den)


def block_lp_table(
    C: NDArray,
    js: Sequence[int],
    ps: Sequence[float],
    pou: PartitionOfUnity,
    basis: EigenBasis,
) -> NDArray:
    """Block L^p norms for a stack of coefficient vectors.

    C is (K, S) coefficients for S functions; returns (len(js), len(ps), S).
    One synthesis per block serves every sample and exponent, which is what
    keeps the sweep experiments fast.
    """
    sq = np.sqrt(np.maximum(basis.eigenvalues, 0.0))
    w = basis.grid.weights
    out = np.empty((len(js), len(ps), C.shape[1]))
    for a, j in enumerate(js):
        fields = to_grid(pou.phi(j, sq)[:, None] * C, basis)  # (N, S) from phi_j's band
        for b, p in enumerate(ps):
            out[a, b] = lp_columns(fields, w, p)
    return out


def besov_table(
    C: NDArray,
    spq: Sequence[tuple[float, float, float]],
    pou: PartitionOfUnity,
    basis: EigenBasis,
    j_max: int,
    j_min: int = 1,
    include_cap: bool = True,
) -> NDArray:
    """Besov norms of a (K, S) coefficient stack for every (s, p, q) in spq.

    Returns (len(spq), S).  include_cap=True gives the inhomogeneous norm
    (psi term plus blocks j = 1..j_max); include_cap=False gives the
    homogeneous window j_min..j_max with no cap.  A block depends on j and
    the function only, so one block synthesis and one cap synthesis serve
    every triple.  This is the one Besov computation; the single-function
    norms below wrap it.
    """
    ps = list(dict.fromkeys(p for _, p, _ in spq))
    js = list(range(1 if include_cap else j_min, j_max + 1))
    jw = np.asarray(js, dtype=float)
    blocks = block_lp_table(C, js, ps, pou, basis)  # (J, len(ps), S)
    if include_cap:
        cap_fields = to_grid(pou.psi(basis.eigenvalues)[:, None] * C, basis)
        caps = [lp_columns(cap_fields, basis.grid.weights, p) for p in ps]
    out = np.empty((len(spq), C.shape[1]))
    for row, (s, p, q) in enumerate(spq):
        b = ps.index(p)
        weighted = 2.0 ** (s * jw)[:, None] * blocks[:, b]
        if np.isinf(q):
            body = weighted.max(axis=0)
        else:
            body = np.sum(weighted**q, axis=0) ** (1.0 / q)
        out[row] = caps[b] + body if include_cap else body
    return out


def besov_inhom(
    f: GridFunction,
    params: BesovParams,
    pou: PartitionOfUnity,
    basis: EigenBasis,
) -> float:
    """Inhomogeneous Besov norm; rejects scale windows that cannot resolve f."""
    _check_window(params, basis)
    c = analyze(f, basis)
    defect = _coverage_defect(c.values, basis.eigenvalues, pou, params.j_max, inhom=True)
    if defect > 1e-10:
        raise ResolutionError(
            f"scale window j <= {params.j_max} misses a relative energy {defect:.3e} of f"
        )
    spq = [(params.s, params.p, params.q)]
    return float(besov_table(c.values[:, None], spq, pou, basis, params.j_max)[0, 0])


def besov_hom(
    f: GridFunction,
    params: BesovParams,
    pou: PartitionOfUnity,
    basis: EigenBasis,
) -> HomNorm:
    """Homogeneous Besov norm over j in [j_min, j_max], plus the exact tail.

    Blocks below the spectral-gap cutoff vanish identically, so the scales
    left out below j_min contribute a finite, exactly computable l^q mass;
    it is returned as the tail bound (zero whenever j_min already clears
    the gap).
    """
    _check_window(params, basis)
    c = analyze(f, basis)
    lam = basis.eigenvalues
    j_support, _ = scale_window(basis)
    defect = _coverage_defect(
        c.values, lam, pou, params.j_max, inhom=False, j_lo=min(params.j_min, j_support)
    )
    if defect > 1e-10:
        raise ResolutionError(
            f"scale window [{params.j_min}, {params.j_max}] misses a relative "
            f"energy {defect:.3e} of f (modulo constants)"
        )
    C, spq = c.values[:, None], [(params.s, params.p, params.q)]
    value = besov_table(C, spq, pou, basis, params.j_max, params.j_min, include_cap=False)
    tail = 0.0
    if j_support < params.j_min:
        tail = besov_table(C, spq, pou, basis, params.j_min - 1, j_support,
                           include_cap=False)[0, 0]
    return HomNorm(value=float(value[0, 0]), tail_bound=float(tail))


def _check_order(M: float) -> None:
    if not math.isfinite(M):
        raise ValueError(f"order M={M} must be finite")


def seminorm_pM(
    f: GridFunction, M: float, pou: PartitionOfUnity, basis: EigenBasis
) -> float:
    """||f||_1 + sup_{j >= 1} 2^{M j} ||phi_j(sqrt H) f||_1.

    The sup is exact for band-limited data: blocks above the resolved band
    vanish identically, so the scan stops there.  Rejects a non-finite M.
    """
    _check_order(M)
    c = analyze(f, basis)
    _, j_hi = scale_window(basis)
    sup = besov_table(c.values[:, None], [(M, 1.0, np.inf)], pou, basis, j_hi, include_cap=False)
    return lp_norm(f, 1.0) + float(sup[0, 0])


def seminorm_qM(
    f: GridFunction, M: float, pou: PartitionOfUnity, basis: EigenBasis
) -> float:
    """||f||_1 + sup_{j in Z} 2^{M|j|} (|f_0| + ||phi_j(sqrt H) f||_1).

    f_0 is the flat component; any nonzero f_0 makes the sup infinite
    (the function is not in the mean-zero test class), reported as +inf.
    The weight 2^{M|j|} is not a Besov weight, so this reads block_lp_table
    directly.  Rejects a non-finite M.
    """
    _check_order(M)
    one_norm = lp_norm(f, 1.0)
    f0 = f.mean()
    if abs(f0) * basis.domain.volume > 1e-12 * max(one_norm, 1e-300):
        return float("inf")
    c = analyze(f, basis)
    j_lo, j_hi = scale_window(basis)
    js = list(range(j_lo, j_hi + 1))
    blocks = block_lp_table(c.values[:, None], js, [1.0], pou, basis)[:, 0, 0]
    sup = float(np.max(2.0 ** (M * np.abs(np.asarray(js, dtype=float))) * blocks))
    return one_norm + sup


# ---------------------------------------------------------------------------
# Amalgam norms


class _Cubes(NamedTuple):
    """One lattice partition of a grid: its cells (amalgam_cells), the node
    order that lists them cube by cube (None where that is node order, as
    on an interval), and each cube's start in it."""

    cells: tuple[tuple[tuple[int, ...], NDArray], ...]
    order: NDArray | None
    starts: NDArray


# _cubes keeps the partitions it made, per (grid id, theta): one amalgam run
# asks for 16 of them over 300 times.  The store is emptied when it holds
# _CELLS_KEPT; every step is one dict operation, so threads at worst build a
# partition twice.
_CELLS_KEPT = 64
_cells_made: dict[tuple[str, float], _Cubes] = {}


def _cubes(grid: Grid, theta: float) -> _Cubes:
    """The partition amalgam_cells describes, with its node order and starts."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta={theta} must be positive and finite")
    root = math.sqrt(theta)
    if root < grid.h * (1 - 1e-12):
        raise ValueError(
            f"cube side sqrt(theta)={root:.4g} is below the grid spacing {grid.h:.4g}"
        )
    key = (grid.grid_id(), float(theta))
    cubes = _cells_made.get(key)
    if cubes is None:
        u = grid.points / root + 0.5
        r = np.rint(u)
        m = np.floor(np.where(np.abs(u - r) <= 4 * np.spacing(r), r, u)).astype(int)
        order = np.lexsort(tuple(m[:, ax] for ax in reversed(range(m.shape[1]))))
        order.flags.writeable = False
        m_sorted = m[order]
        change = np.any(np.diff(m_sorted, axis=0) != 0, axis=1)
        starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
        cells = tuple(zip(map(tuple, m_sorted[starts].tolist()), np.split(order, starts[1:])))
        if np.array_equal(order, np.arange(len(order))):
            order = None
        if len(_cells_made) >= _CELLS_KEPT:
            _cells_made.clear()
        cubes = _cells_made[key] = _Cubes(cells, order, starts)
    return cubes


def amalgam_cells(grid: Grid, theta: float) -> tuple[tuple[tuple[int, ...], NDArray], ...]:
    """Partition the grid nodes by the lattice cube containing them.

    Cube m covers [theta^(1/2) (m_i - 1/2), theta^(1/2) (m_i + 1/2)] per
    axis, a node on a face going to the upper cube: m_i = floor(u), with
    u = x_i / theta^(1/2) + 1/2 snapped to an integer within 4 ulps of it
    (at theta = h^2 every node lies on a face).  Cells
    are returned sorted by their integer index, their node indices
    read-only: a repeated (grid id, theta) returns the same cells.  Rejects
    theta that is not positive and finite, or below the grid spacing
    squared.
    """
    return _cubes(grid, theta).cells


def amalgam_columns(F: NDArray, grid: Grid, params: AmalgamParams) -> NDArray:
    """l^p over lattice cubes of the per-cube quadrature L^q norm of every
    column of F (N, S); returns (S,).

    The columns are copied once, as the rows of an (S, N) array with the
    nodes in cube order (a plain copy on an interval, where that is node
    order), so that each cube is one contiguous run of every row.  The copy
    is raised to |F|^q w in place (squared, with no abs, at q = 2), and one
    reduceat pass sums each run (np.maximum when q = inf).  This is the one
    amalgam computation; amalgam_norm wraps it.
    """
    cubes = _cubes(grid, params.theta)
    q, w = params.q, grid.weights
    if cubes.order is None:
        A = np.array(F.T, dtype=float, order="C")
    else:
        A, w = F.T[:, cubes.order].astype(float, copy=False), w[cubes.order]
    if np.isinf(q):
        per_cube = np.maximum.reduceat(np.abs(A, out=A), cubes.starts, axis=1)
    else:
        if q == 2:
            A *= A
        else:
            A = np.abs(A, out=A)
            A **= q
        A *= w
        per_cube = np.add.reduceat(A, cubes.starts, axis=1) ** (1.0 / q)
    # (cubes, S) in C order: the l^p sum below runs down the cubes in order.
    per_cube = np.ascontiguousarray(per_cube.T)
    if np.isinf(params.p):
        return per_cube.max(axis=0)
    return np.sum(per_cube**params.p, axis=0) ** (1.0 / params.p)


def amalgam_norm(f: GridFunction, params: AmalgamParams) -> float:
    """l^p over lattice cubes of the per-cube quadrature L^q norm."""
    return float(amalgam_columns(np.asarray(f.values)[:, None], f.grid, params)[0])


def _cube_geometry(grid: Grid, cubes: _Cubes, theta: float) -> tuple[NDArray, NDArray]:
    """(dist, mass): the (cubes, N) distances |x_i - theta^(1/2) m| from every
    node to every cube center, and each cube's quadrature mass."""
    centers = math.sqrt(theta) * np.array([m for m, _ in cubes.cells], dtype=float)
    pts = grid.points
    dist = np.sqrt(sum((pts[:, a] - centers[:, a, None]) ** 2 for a in range(pts.shape[1])))
    w = grid.weights if cubes.order is None else grid.weights[cubes.order]
    return dist, np.add.reduceat(w, cubes.starts)


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha={alpha} must be finite and >= 0")


def _top_eigenvalue(G: NDArray) -> NDArray:
    """Largest eigenvalue of every symmetric (k, k) block of G (..., k, k):
    exact in closed form for k <= 2, (x + z) / 2 + hypot((x - z) / 2, y) for
    [[x, y], [y, z]]; else by one batched eigvalsh."""
    if G.shape[-1] == 1:
        return G[..., 0, 0]
    if G.shape[-1] == 2:
        x, y, z = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
        return (x + z) / 2 + np.hypot((x - z) / 2, y)
    return np.linalg.eigvalsh(G)[..., -1]


def _sigma_max(B: NDArray) -> NDArray:
    """Largest singular value of every (a, b) block of B (..., a, b).

    Exact in closed form where min(a, b) <= 2 (Golub & Van Loan, 4th ed.,
    §8.6): a 2 x 2 block [[p, q], [r, s]] has sigma_1 + sigma_2 =
    hypot(p + s, q - r) and sigma_1 - sigma_2 = hypot(p - s, q + r), so
    sigma_1 is half their sum; a 1 x k or 2 x k block is divided by its
    largest |entry| first, so that no square over- or underflows, and
    sigma^2 is the top eigenvalue of its 1 x 1 or 2 x 2 Gram
    (_top_eigenvalue).  Elsewhere sqrt(lambda_max) of the Gram on the
    shorter side, by one batched eigvalsh.
    """
    if B.shape[-2] > B.shape[-1]:
        B = B.swapaxes(-1, -2)
    a, b = B.shape[-2:]
    if a == b == 2:
        p, q, r, s = B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1]
        return (np.hypot(p + s, q - r) + np.hypot(p - s, q + r)) / 2
    if a <= 2:
        scale = np.maximum(B.max(axis=(-2, -1)), -B.min(axis=(-2, -1)))
        Y = B / np.where(scale > 0, scale, 1.0)[..., None, None]
        return scale * np.sqrt(_top_eigenvalue(Y @ Y.swapaxes(-1, -2)))
    return np.sqrt(np.maximum(_top_eigenvalue(B @ B.swapaxes(-1, -2)), 0.0))


def triple_norm(kernel: OperatorKernel, alpha: float, theta: float) -> float:
    """sup over cubes of || |x - c_m|^alpha A chi_{C(m)} ||_{2->2}.

    The per-cube norm is the largest singular value of the weighted
    localized block M.  A factor kernel (finite-difference basis) is read
    from its factor through cube_block_norms' weighted factors
    (_weighted_cubes) and triple step (_triple_tops), batched by cube size
    and compressed by QR only where the band is smaller than the cube.  A
    profile kernel builds M^T from the cube's columns (kernel.columns), one
    cube at a time (_sigma_max: closed form on one- and two-node cubes, else
    sqrt(lambda_max(M^T M)) from the symmetric eigensolver).  No kernel
    forms its matrix.  Rejects alpha that is not finite and >= 0, and theta
    as amalgam_cells does.
    """
    _check_alpha(alpha)
    grid = kernel.grid
    cubes = _cubes(grid, theta)
    dist, _ = _cube_geometry(grid, cubes, theta)
    if kernel.source == "factor":
        groups, S, U, V = _weighted_cubes(*kernel.factor, grid, cubes)
        (top,) = _triple_tops(S, groups, U, V, dist, (alpha,))
        return math.sqrt(max(top, 0.0))
    sw = np.sqrt(grid.weights)
    best = 0.0
    for (_, idx), d in zip(cubes.cells, dist):
        Mt = kernel.columns(idx)  # a new array, scaled in place: (rowscale_r K_rc) sw_c
        Mt *= sw * d**alpha
        Mt *= sw[idx][:, None]
        best = max(best, float(_sigma_max(Mt)))
    return best


# ---------------------------------------------------------------------------
# Cube blocks of a factored kernel


class CubeBlockNorms(NamedTuple):
    """What cube_block_norms returns.  tail bounds how far upper and lower
    move, and triple_tail[i] how far triple[i] moves, when every kernel
    entry moves by at most the tail_bound it was given."""

    upper: float
    lower: float
    tail: float
    triple: tuple[float, ...]
    triple_tail: tuple[float, ...]


# Cap on the lower bound's ascent iterates; the amalgam sweep's bump kernels stall within 15.
ASCENT_STEPS = 50


def _size_groups(cubes: _Cubes) -> list[NDArray]:
    """The positions of the cubes of each size, sizes in order of first appearance."""
    sizes = [len(idx) for _, idx in cubes.cells]
    return [np.flatnonzero(np.equal(sizes, m)) for m in dict.fromkeys(sizes)]


def _cube_factor(A: NDArray, cubes: _Cubes, ids: NDArray) -> NDArray:
    """(k, cubes, band) for the cubes ids of one size m: A_c^T for each cube
    c of a (band, N) factor A, or its R factor from one batched QR where
    band < m, k = min(m, band).  The rows run coordinate by coordinate, each
    over all cubes, so that _block_bounds works on contiguous runs of cubes."""
    At = A[:, np.stack([cubes.cells[i][1] for i in ids])].transpose(1, 2, 0)
    return (np.linalg.qr(At, mode="r") if At.shape[1] > len(A) else At).swapaxes(0, 1)


def _weighted_cubes(U: NDArray, V: NDArray, grid: Grid, cubes: _Cubes) -> tuple:
    """(groups, S, U W^(1/2), V W^(1/2)): the factors of W^(1/2) K W^(1/2)
    for K = U^T V (OperatorKernel.factor; a 1-D U, the phi of diag(phi) V,
    stays as it is), groups the cube positions per size (_size_groups) and S
    the per-size _cube_factor of V W^(1/2).  An empty band is read as one
    zero mode, so that both bounds and every triple norm read 0."""
    if len(V) == 0:
        U, V = np.zeros((1, *U.shape[1:])), np.zeros((1, V.shape[1]))
    sw = np.sqrt(grid.weights)
    V = V * sw
    groups = _size_groups(cubes)
    return groups, [_cube_factor(V, cubes, ids) for ids in groups], U if U.ndim == 1 else U * sw, V


# _triple_tops forms the weighted rows S_c U of at most this many numbers at
# once (16 MB), so that no cube size holds an N x N array on a large grid.
_TRIPLE_CHUNK = 1 << 21


def _triple_tops(S: list, groups: list, U: NDArray, V: NDArray, dist: NDArray,
                 alphas: Sequence[float]) -> list[float]:
    """max_c lambda_max(S_c U D_c^2 U^T S_c^T), D_c = diag(|x - c|^alpha), for
    each alpha: the squared triple norms of cube_block_norms, from the
    per-size factors S and the weighted U and V of _weighted_cubes, read as
    the (band, N) left factor Ufull (diag(phi) V for a 1-D U).
    The weighted rows S_c U take one GEMM per cube size (per run of cubes
    holding at most _TRIPLE_CHUNK numbers), which every alpha reuses, and
    k_c <= 2 takes the closed forms of _top_eigenvalue."""
    best = [0.0] * len(alphas)
    Ufull = U[:, None] * V if U.ndim == 1 else U
    band, N = Ufull.shape
    for s, ids in zip(S, groups):
        k, n = s.shape[:2]
        step = max(1, _TRIPLE_CHUNK // (k * N))
        for a in range(0, n, step):
            run = s[:, a:a + step]
            T = (run.reshape(-1, band) @ Ufull).reshape(*run.shape[:2], N).swapaxes(0, 1)
            for i, alpha in enumerate(alphas):
                d2 = dist[ids[a:a + step]]
                d2 **= 2 * alpha
                best[i] = max(best[i], float(_top_eigenvalue((T * d2[:, None, :])
                                                             @ T.swapaxes(1, 2)).max()))
    return best


def _block_bounds(S: list, R: list, symmetric: bool) -> tuple[float, float, float]:
    """(upper, lower, top) from the per-size factors S_c and R_r of
    cube_block_norms, each (k, cubes, band): the bounds, and the largest
    eigenvalue of sum_r C_rc^T C_rc over all cubes c."""
    R_all = np.concatenate([r.reshape(-1, r.shape[-1]) for r in R])
    cut = np.cumsum([0] + [s.shape[0] * s.shape[1] for s in S])  # R_all's rows per size
    at = np.cumsum([0] + [s.shape[1] for s in S])  # cube positions per size
    sig = np.empty((at[-1], at[-1]))  # sigma_max(C_rc)
    lower = top = 0.0
    for g, s in enumerate(S):
        k, n = s.shape[:2]
        Ct = s.swapaxes(0, 1) @ R_all.T  # C_c^T = S_c R^T for each cube c of this size
        for a, (ka, na) in enumerate(s_.shape[:2] for s_ in S):
            if symmetric and a > g:
                continue  # read as the transpose of (g, a)
            ra, rg = slice(at[a], at[a + 1]), slice(at[g], at[g + 1])
            blocks = Ct[:, :, cut[a]:cut[a + 1]].reshape(n, k, ka, na).transpose(3, 0, 2, 1)
            if symmetric and a == g:
                i, j = np.triu_indices(n)
                sig[at[g] + i, at[g] + j] = sig[at[g] + j, at[g] + i] = _sigma_max(blocks[i, j])
                continue
            sig[ra, rg] = _sigma_max(blocks)
            if symmetric:
                sig[rg, ra] = sig[ra, rg].T

        lam, vec = np.linalg.eigh(Ct @ Ct.swapaxes(1, 2))  # sum_r C_rc^T C_rc
        top = max(top, float(lam[:, -1].max()))
        x = vec[..., -1]
        f = np.zeros(n)
        for _ in range(ASCENT_STEPS):
            y = (x[:, None, :] @ Ct)[:, 0]  # C_c z, size by size
            ys = [y[:, cut[h]:cut[h + 1]].reshape(n, *S[h].shape[:2]) for h in range(len(S))]
            rs = [np.sqrt(np.einsum("cir,cir->cr", v, v)) for v in ys]  # |C_rc z|
            f, prev = np.maximum(f, sum(r.sum(axis=1) for r in rs)), f
            if np.all(f <= prev * (1 + 1e-12)):
                break
            # r and |g| are 0 only where y and g are; the floor keeps 0/0 out.
            u = np.concatenate([(v / np.maximum(r, 1e-300)[:, None, :]).reshape(n, -1)
                                for v, r in zip(ys, rs)], axis=1)
            g_ = (Ct @ u[..., None])[..., 0]
            x = g_ / np.maximum(np.linalg.norm(g_, axis=1, keepdims=True), 1e-300)
        lower = max(lower, float(f.max()))
    upper = float(sig.sum(axis=0).max())
    return upper, min(lower, upper), top


def cube_block_norms(U: NDArray, V: NDArray, grid: Grid, theta: float,
                     alphas: Sequence[float] = (), tail_bound: float = 0.0) -> CubeBlockNorms:
    """Two-sided bounds on the norm of the operator A of kernel K = U^T V
    on the cube-summed L^2 space l^1(L^2)_theta of grid, and A's triple
    norms |||A|||_{alpha,theta} (triple_norm) for each alpha in alphas.

    U and V are a factor as OperatorKernel.factor holds it: V is (band, N),
    and a 1-D U holds the phi of U = diag(phi) V, so K is symmetric and
    each unordered cube pair is read once; else U is (band, N).  One
    private step, which triple_norm shares (_weighted_cubes), applies the
    weights: below, U and V stand for U W^(1/2) and V W^(1/2), the factors
    of the weighted kernel B = W^(1/2) K W^(1/2) = U^T V.  With B_rc its
    block on row cube r and column cube c, the norm is max_c max_{|x|=1}
    f_c(x), f_c(x) = sum_r |B_rc x|, as each extreme point of the unit ball
    lies in one cube.

    Each cube of m nodes is read in k = min(m, band) coordinates, by its
    size: where band < m one batched QR per size gives U_r^T = Q_r R_r and
    V_c^T = P_c S_c (R_r = S_r diag(phi) when B is symmetric), and where
    band >= m, R_r = U_r^T and S_c = V_c^T as they are (a QR would compress
    nothing).  Then B_rc = Q_r C_rc P_c^T with C_rc = R_r S_c^T, read per
    column-cube size as the blocks of S_c R^T, one GEMM against the stacked
    R of all row cubes, and as Q_r and P_c have orthonormal columns, C_rc
    has the singular values of B_rc and |B_rc x| = |C_rc z| with
    z = P_c^T x, |z| <= |x|: f_c peaks on |z| = 1, on k_c coordinates.
    Upper: max_c sum_r sigma_max(C_rc), in closed form where
    min(k_r, k_c) <= 2 (_sigma_max), else by batched eigvalsh.  Lower:
    max_c f_c along the ascent z <- g/|g|, g = sum_r C_rc^T C_rc z /
    |C_rc z|, batched per column-cube size from the top eigenvectors of
    sum_r C_rc^T C_rc.  f_c is convex and 1-homogeneous, so every iterate
    is a lower bound and none falls.  It stops when no cube gains 1e-12
    relative, or at ASCENT_STEPS iterates, and is capped at the upper
    bound, which rounding can cross where the two meet.

    The triple norm's block on cube c is D_c B_c, D_c = diag(|x - c|^alpha),
    and D_c B_c P_c = D_c U^T S_c^T, so its sigma_max^2 is the top
    eigenvalue of the k_c x k_c Gram S_c (U D_c^2 U^T) S_c^T: formed from
    the weighted columns S_c U = V_c^T U themselves where band >= m, from
    their k = band compressed rows where band < m, and read in closed form
    for k_c <= 2 (_top_eigenvalue).  alpha = 0 is read off the ascent's
    start (the top eigenvalues of sum_r C_rc^T C_rc), not computed again.

    Each entry of an error kernel of at most tail_bound = tau moves block
    (r, c) by at most its Frobenius norm tau sqrt(w(r) w(c)), w the cube's
    quadrature mass (Golub & Van Loan, 4th ed., §2.3): tail is
    tau max_c sqrt(w(c)) sum_r sqrt(w(r)), and triple_tail
    tau sqrt(max_c w(c) sum_i w_i |x_i - c|^(2 alpha)).  An empty band (no
    mode where phi is nonzero) is the zero kernel: both bounds and every
    triple norm read 0, and the tails are these.  No kernel column is read,
    no array is larger than N x N, and the triple step (_triple_tops) forms
    its weighted rows in runs of at most _TRIPLE_CHUNK numbers.
    """
    for alpha in alphas:
        _check_alpha(alpha)
    cubes = _cubes(grid, theta)
    groups, S, U, V = _weighted_cubes(U, V, grid, cubes)
    symmetric = U.ndim == 1
    R = [s * U for s in S] if symmetric else [_cube_factor(U, cubes, ids) for ids in groups]
    upper, lower, top = _block_bounds(S, R, symmetric)

    dist, mass = _cube_geometry(grid, cubes, theta)
    positive = list(dict.fromkeys(a for a in alphas if a != 0))
    tops = {0: top}  # alpha = 0 is read off the ascent's start
    if positive:
        tops.update(zip(positive, _triple_tops(S, groups, U, V, dist, positive)))
    root_mass = np.sqrt(mass)
    return CubeBlockNorms(
        upper, lower, tail_bound * float(root_mass.max() * root_mass.sum()),
        tuple(math.sqrt(max(tops[alpha], 0.0)) for alpha in alphas),
        tuple(tail_bound * math.sqrt(float(np.max(dist ** (2 * alpha) @ grid.weights * mass)))
              for alpha in alphas))


# ---------------------------------------------------------------------------
# CSV rows for norm tables


def norm_csv_header() -> list[str]:
    return ["norm", "params", "value", "tail_bound"]


def norm_csv_row(norm_id: str, params: dict, value: float, tail_bound: float | None) -> list[str]:
    ptxt = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [norm_id, ptxt, repr(float(value)), "" if tail_bound is None else repr(float(tail_bound))]
