"""Besov, amalgam, and localized operator norms built on the dyadic calculus.

Besov norms combine the low-frequency cap with weighted dyadic block norms:

    inhomogeneous: ||psi(H) f||_p + || { 2^{s j} ||phi_j(sqrt H) f||_p }_{j >= 1} ||_{l^q}
    homogeneous:   || { 2^{s j} ||phi_j(sqrt H) f||_p }_{j in Z} ||_{l^q}

The homogeneous family never sees the flat mode (every block annihilates
constants), so it measures f modulo constants.  On a bounded domain the
spectral gap makes all blocks below a cutoff scale vanish identically;
the truncation tail reported alongside the homogeneous norm is therefore
exact, not an envelope estimate.

Amalgam norms l^p(L^q)_theta tile space by the lattice of cubes with side
theta^(1/2) centered at theta^(1/2) m, m integer, intersected with the
domain: an L^q norm on each cube, then l^p across cubes.  The triple norm
of an operator A localizes it to cubes and weights the output by the
distance to the cube center:

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

from .domains import EigenBasis, Grid, lp_norm
from .littlewood_paley import PartitionOfUnity
from .spectral import GridFunction, OperatorKernel, analyze, to_grid

__all__ = [
    "BesovParams",
    "AmalgamParams",
    "HomNorm",
    "ResolutionError",
    "PowerIterationError",
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
    "amalgam_norm",
    "triple_norm",
    "ell_q",
    "norm_csv_header",
    "norm_csv_row",
]


class ResolutionError(ValueError):
    """The requested scale window cannot represent the function's band."""


class PowerIterationError(RuntimeError):
    """Localized norm iteration failed to converge within the step cap."""


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
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be >= 1")
        if not (self.j_min <= 0 < self.j_max):
            raise ValueError("scale window must satisfy j_min <= 0 < j_max")


@dataclass(frozen=True)
class AmalgamParams:
    """l^p over lattice cubes of an L^q norm per cube; theta sets the side."""

    p: float
    q: float
    theta: float

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be >= 1")
        if self.theta <= 0:
            raise ValueError("theta must be positive")


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


def ell_q(values: NDArray, q: float) -> float:
    """l^q norm of a finite sequence; q = inf gives the max."""
    values = np.abs(np.asarray(values, dtype=float))
    if values.size == 0:
        return 0.0
    if np.isinf(q):
        return float(values.max())
    return float(np.sum(values**q) ** (1.0 / q))


def _check_window(params: BesovParams, basis: EigenBasis) -> None:
    if 2.0**params.j_max > math.sqrt(basis.lambda_cutoff) * (1 + 1e-12):
        raise ValueError(
            f"j_max={params.j_max} exceeds the grid's resolved band "
            f"(2^j_max must stay below {math.sqrt(basis.lambda_cutoff):.4g})"
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


def lp_columns(F: NDArray, w: NDArray, p: float) -> NDArray:
    """Quadrature L^p norm of every column of F (N, S); p = inf gives the max."""
    if np.isinf(p):
        return np.max(np.abs(F), axis=0)
    return (w @ np.abs(F) ** p) ** (1.0 / p)


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
        svals = pou.phi(j, sq)
        if not np.any(svals):
            out[a] = 0.0
            continue
        fields = to_grid(svals[:, None] * C, basis)  # (N, S)
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
    band_tol: float = 1e-10,
) -> float:
    """Inhomogeneous Besov norm; rejects scale windows that cannot resolve f."""
    _check_window(params, basis)
    c = analyze(f, basis)
    defect = _coverage_defect(c.values, basis.eigenvalues, pou, params.j_max, inhom=True)
    if defect > band_tol:
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
    band_tol: float = 1e-10,
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
    if defect > band_tol:
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


def seminorm_pM(
    f: GridFunction, M: float, pou: PartitionOfUnity, basis: EigenBasis
) -> float:
    """||f||_1 + sup_{j >= 1} 2^{M j} ||phi_j(sqrt H) f||_1.

    The sup is exact for band-limited data: blocks above the resolved band
    vanish identically, so the scan stops there.
    """
    c = analyze(f, basis)
    _, j_hi = scale_window(basis)
    sup = besov_table(c.values[:, None], [(M, 1.0, np.inf)], pou, basis, j_hi, include_cap=False)
    return lp_norm(f, 1.0) + float(sup[0, 0])


def seminorm_qM(
    f: GridFunction,
    M: float,
    pou: PartitionOfUnity,
    basis: EigenBasis,
    mean_rtol: float = 1e-12,
) -> float:
    """||f||_1 + sup_{j in Z} 2^{M|j|} (|f_0| + ||phi_j(sqrt H) f||_1).

    f_0 is the flat component; any nonzero f_0 makes the sup infinite
    (the function is not in the mean-zero test class), reported as +inf.
    The weight 2^{M|j|} is not a Besov weight, so this reads block_lp_table
    directly.
    """
    one_norm = lp_norm(f, 1.0)
    f0 = f.mean()
    if abs(f0) * basis.domain.volume > mean_rtol * max(one_norm, 1e-300):
        return float("inf")
    c = analyze(f, basis)
    j_lo, j_hi = scale_window(basis)
    js = list(range(j_lo, j_hi + 1))
    blocks = block_lp_table(c.values[:, None], js, [1.0], pou, basis)[:, 0, 0]
    sup = float(np.max(2.0 ** (M * np.abs(np.asarray(js, dtype=float))) * blocks))
    return one_norm + sup


# ---------------------------------------------------------------------------
# Amalgam norms


def amalgam_cells(grid: Grid, theta: float) -> list[tuple[tuple[int, ...], NDArray]]:
    """Partition the grid nodes by the lattice cube containing them.

    Cube m covers [theta^(1/2) (m_i - 1/2), theta^(1/2) (m_i + 1/2)] per
    axis; nodes on a face boundary round half-up deterministically.  Cells
    are returned sorted by their integer index.
    """
    root = math.sqrt(theta)
    if root < grid.h * (1 - 1e-12):
        raise ValueError(
            f"cube side sqrt(theta)={root:.4g} is below the grid spacing {grid.h:.4g}"
        )
    m = np.floor(grid.points / root + 0.5).astype(int)
    order = np.lexsort(tuple(m[:, ax] for ax in reversed(range(m.shape[1]))))
    m_sorted = m[order]
    change = np.any(np.diff(m_sorted, axis=0) != 0, axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1, [len(order)]])
    cells = []
    for a, b in zip(starts[:-1], starts[1:]):
        cells.append((tuple(int(v) for v in m_sorted[a]), order[a:b]))
    return cells


def amalgam_norm(f: GridFunction, params: AmalgamParams) -> float:
    """l^p over lattice cubes of the per-cube quadrature L^q norm."""
    cells = amalgam_cells(f.grid, params.theta)
    w = f.grid.weights
    vals = np.abs(np.asarray(f.values))
    per_cell = np.empty(len(cells))
    for i, (_, idx) in enumerate(cells):
        if np.isinf(params.q):
            per_cell[i] = vals[idx].max()
        else:
            per_cell[i] = float(np.sum(w[idx] * vals[idx] ** params.q) ** (1.0 / params.q))
    return ell_q(per_cell, params.p)


def _power_iteration_sigma(M: NDArray, max_iters: int, tol: float) -> float:
    """Largest singular value of M via power iteration on M^T M."""
    m = M.shape[1]
    if m == 0:
        return 0.0
    G = M.T @ M
    v = np.full(m, 1.0 / math.sqrt(m))
    # A deterministic nudge avoids starting orthogonal to the top space.
    v += np.linspace(0.0, 1e-3, m)
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(max_iters):
        y = G @ v
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        v = y / ny
        if abs(ny - prev) <= tol * max(ny, 1e-300):
            return math.sqrt(ny)
        prev = ny
    raise PowerIterationError(
        f"power iteration did not converge within {max_iters} steps (last value {ny:.6e})"
    )


def triple_norm(
    kernel: OperatorKernel,
    alpha: float,
    theta: float,
    max_iters: int = 10_000,
    tol: float = 1e-12,
) -> float:
    """sup over cubes of || |x - c_m|^alpha A chi_{C(m)} ||_{2->2}.

    The per-cube norm is the largest singular value of the weighted
    localized block, found by power iteration (step cap reported through
    PowerIterationError rather than silently accepted).
    """
    grid = kernel.grid
    cells = amalgam_cells(grid, theta)
    root = math.sqrt(theta)
    sw = np.sqrt(grid.weights)
    K = kernel.matrix
    best = 0.0
    for m_idx, idx in cells:
        center = root * np.asarray(m_idx, dtype=float)
        dist = np.linalg.norm(grid.points - center, axis=1)
        rowscale = sw * dist**alpha
        M = rowscale[:, None] * K[:, idx] * sw[idx][None, :]
        best = max(best, _power_iteration_sigma(M, max_iters, tol))
    return best


# ---------------------------------------------------------------------------
# CSV rows for norm tables


def norm_csv_header() -> list[str]:
    return ["norm", "params", "value", "tail_bound"]


def norm_csv_row(norm_id: str, params: dict, value: float, tail_bound: float | None) -> list[str]:
    ptxt = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [norm_id, ptxt, repr(float(value)), "" if tail_bound is None else repr(float(tail_bound))]
