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
stack of functions over the cube-sorted nodes at once, and amalgam_norm
is its one-column case.  The triple norm of an operator A localizes it to
cubes and weights the output by the distance to the cube center:

    |||A|||_{alpha,theta} = sup_m || |x - theta^(1/2) m|^alpha A chi_{C(m)} ||_{2->2}.

Decay of the triple norm in theta is what makes kernel off-diagonal decay
quantitative without ever forming pointwise kernel bounds.
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


# amalgam_cells keeps the partitions it made, per (grid id, theta): one
# amalgam run asks for 16 of them 104 times.  The store is emptied when it
# holds _CELLS_KEPT; every step is one dict operation, so threads at worst
# build a partition twice.
_CELLS_KEPT = 64
_cells_made: dict[tuple[str, float], tuple] = {}


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
    if not 0 < theta < math.inf:
        raise ValueError(f"theta={theta} must be positive and finite")
    root = math.sqrt(theta)
    if root < grid.h * (1 - 1e-12):
        raise ValueError(
            f"cube side sqrt(theta)={root:.4g} is below the grid spacing {grid.h:.4g}"
        )
    key = (grid.grid_id(), float(theta))
    cells = _cells_made.get(key)
    if cells is None:
        u = grid.points / root + 0.5
        r = np.rint(u)
        m = np.floor(np.where(np.abs(u - r) <= 4 * np.spacing(r), r, u)).astype(int)
        order = np.lexsort(tuple(m[:, ax] for ax in reversed(range(m.shape[1]))))
        order.flags.writeable = False
        m_sorted = m[order]
        change = np.any(np.diff(m_sorted, axis=0) != 0, axis=1)
        starts = np.concatenate([[0], np.nonzero(change)[0] + 1, [len(order)]])
        cells = tuple((tuple(int(v) for v in m_sorted[a]), order[a:b])
                      for a, b in zip(starts[:-1], starts[1:]))
        if len(_cells_made) >= _CELLS_KEPT:
            _cells_made.clear()
        _cells_made[key] = cells
    return cells


def amalgam_columns(F: NDArray, grid: Grid, params: AmalgamParams) -> NDArray:
    """l^p over lattice cubes of the per-cube quadrature L^q norm of every
    column of F (N, S); returns (S,).

    One reduceat pass over the cube-sorted rows (np.maximum when q = inf).
    This is the one amalgam computation; amalgam_norm wraps it.
    """
    cells = amalgam_cells(grid, params.theta)
    order = np.concatenate([idx for _, idx in cells])
    starts = np.cumsum([0] + [len(idx) for _, idx in cells[:-1]])
    # np.abs returns a new array; the steps below reuse it in place, so a
    # kernel-sized stack costs one (N, S) temporary.
    A = np.abs(F[order]).astype(float, copy=False)
    if np.isinf(params.q):
        per_cube = np.maximum.reduceat(A, starts, axis=0)
    else:
        A **= params.q
        A *= grid.weights[order, None]
        per_cube = np.add.reduceat(A, starts, axis=0) ** (1.0 / params.q)
    if np.isinf(params.p):
        return per_cube.max(axis=0)
    return np.sum(per_cube**params.p, axis=0) ** (1.0 / params.p)


def amalgam_norm(f: GridFunction, params: AmalgamParams) -> float:
    """l^p over lattice cubes of the per-cube quadrature L^q norm."""
    return float(amalgam_columns(np.asarray(f.values)[:, None], f.grid, params)[0])


def triple_norm(kernel: OperatorKernel, alpha: float, theta: float) -> float:
    """sup over cubes of || |x - c_m|^alpha A chi_{C(m)} ||_{2->2}.

    The per-cube norm is the largest singular value of the weighted
    localized block M, read as sqrt(lambda_max(M^T M)) from the symmetric
    eigensolver.  M^T is built from the cube's columns of the kernel
    (kernel.columns), so a profile kernel never forms its matrix.  Rejects
    alpha that is not finite and >= 0, and theta as amalgam_cells does.
    """
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha={alpha} must be finite and >= 0")
    grid = kernel.grid
    cells = amalgam_cells(grid, theta)
    root = math.sqrt(theta)
    sw = np.sqrt(grid.weights)
    best = 0.0
    for m_idx, idx in cells:
        center = root * np.asarray(m_idx, dtype=float)
        dist = np.linalg.norm(grid.points - center, axis=1)
        rowscale = sw * dist**alpha
        Mt = kernel.columns(idx)  # a new array, scaled in place: (rowscale_r K_rc) sw_c
        Mt *= rowscale
        Mt *= sw[idx][:, None]
        best = max(best, np.linalg.eigvalsh(Mt @ Mt.T)[-1])
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# CSV rows for norm tables


def norm_csv_header() -> list[str]:
    return ["norm", "params", "value", "tail_bound"]


def norm_csv_row(norm_id: str, params: dict, value: float, tail_bound: float | None) -> list[str]:
    ptxt = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [norm_id, ptxt, repr(float(value)), "" if tail_bound is None else repr(float(tail_bound))]
