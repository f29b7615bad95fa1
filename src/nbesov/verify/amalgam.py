"""Amalgam-space behaviour of resolvent and bump kernels.

Checks the theta-scaling of resolvent norms from L^1 into the cube-summed
L^2 space, uniform boundedness of the dyadic bump on that space via exact
per-block singular values, and the theta^(alpha/2) growth of the weighted
localization norm of the bump kernel.  verify.common.screened_fit decides
the three resolvent and two triple-norm theta sweeps; a triple norm's tail
is tail_bound times the Frobenius bound on each cube's weighted error block,
0 at every default theta.

Exact block norms read sigma_max(B) = sqrt(lambda_max(B^T B)) off per-cube
Gram matrices: the upper bump bound sums them over row cubes, and the lower
bound is a monotone ascent on each column cube started at the top
eigenvector of its summed Gram.  Both read the weighted bump kernel
W^(1/2) K W^(1/2) = U^T V through its mode factors (V the band's modes
times W^(1/2), U the same scaled by the symbol), not through its columns:
a QR per cube compresses each block B_rc = U_r^T V_c to a
min(m_r, band) x min(m_c, band) block C_rc with the same singular values,
so on the suite's sweep each Gram is at most 6 x 6 from theta = 0.012 on
(band <= 6), where it was m x m.  The resolvent column norms read the
kernel through OperatorKernel.columns().
"""

from __future__ import annotations

import math

import numpy as np

from ..domains import lp_norm
from ..norms import AmalgamParams, amalgam_cells, amalgam_columns, amalgam_norm, triple_norm
from ..reports import EstimateReport
from ..spectral import (
    GridFunction,
    SymbolFn,
    bump_symbol,
    multiplier_kernel,
    resolvent_symbol,
    symbol_tail_bound,
    to_grid,
)
from .common import (
    TAIL_FRAC,
    ExperimentSpec,
    coeff_batch,
    conclude,
    interval_basis,
    partition_for,
    record_claim,
    rectangle_basis,
    screened_fit,
)

__all__ = ["exp_amalgam"]


AMALGAM_DEFAULTS = {
    "interval_K": 257,
    "interval_N": 512,
    "rect_K": 200,
    "rect_N": 32,
    "n_theta_1d": 9,
    "n_theta_2d": 7,
    "betas_1d": (1.0, 2.0),
    "beta_2d": 2.0,
    "slope_tol": 0.2,
    "gap_cap": 10.0,
    "uniform_spread_cap": 4.0,
    "alphas": (0.5, 1.0),
    "exact_tol": 1e-12,
}


def _column_norm(kernel, theta):
    """Operator norm from L^1 into the cube-summed L^2 space.

    For an integral kernel this is the essential sup over source points of
    the amalgam norm of the corresponding kernel column, exact on the grid;
    the columns are read 64 at a time.
    """
    params = AmalgamParams(p=1.0, q=2.0, theta=theta)
    N = kernel.grid.n_nodes
    blocks = (kernel.columns(np.arange(c0, min(c0 + 64, N))).T for c0 in range(0, N, 64))
    return max(float(np.max(amalgam_columns(F, kernel.grid, params))) for F in blocks)


def _column_tail_bound(symbol, basis, n_cells):
    """Bound on the truncation error of a per-column amalgam norm.

    By orthonormality the truncated column satisfies
    ||dK(., y)||_2^2 = sum_{k>K} phi(lam_k)^2 e_k(y)^2, which is the
    symbol tail of phi^2, and the cube sum of per-cube L^2 norms is at most
    sqrt(n_cells) times the global L^2 norm.
    """
    maj = symbol.majorant
    squared = SymbolFn(fn=lambda lam: symbol(lam) ** 2, tag=f"({symbol.tag})^2",
                       support=symbol.support,
                       majorant=maj and (maj[0] ** 2, 2 * maj[1], 2 * maj[2]))
    return math.sqrt(n_cells * symbol_tail_bound(squared, basis))


def _triple_tail_bound(kernel, alpha, theta):
    """Bound on the truncation error of triple_norm(kernel, alpha, theta): each
    entry of the error is at most tail_bound, so cube c moves its sigma_max by
    at most tail_bound sqrt(sum_i w_i |x_i - c|^(2 alpha) sum_{j in c} w_j)."""
    grid, cells = kernel.grid, amalgam_cells(kernel.grid, theta)
    centers = math.sqrt(theta) * np.array([m for m, _ in cells], dtype=float)
    dist = np.linalg.norm(grid.points[None] - centers[:, None], axis=2)
    mass = np.array([grid.weights[idx].sum() for _, idx in cells])
    return kernel.tail_bound * math.sqrt(float(np.max(dist ** (2 * alpha) @ grid.weights * mass)))


# Cap on the lower bound's ascent iterates; the suite's bump kernels stall within 15.
ASCENT_STEPS = 50


def _mode_factors(svals, basis):
    """Factors U, V of W^(1/2) K W^(1/2) = U^T V for the kernel
    K = E^T diag(svals) E (a profile kernel's, up to rounding): V = X, the
    modes where svals is nonzero times W^(1/2), and U = svals X, both (band, N)."""
    band = np.flatnonzero(svals)
    X = basis.functions[band] * np.sqrt(basis.grid.weights)
    return svals[band, None] * X, X


def _block_operator_bounds(U, V, grid, theta):
    """Two-sided bounds on the norm of W^(-1/2) U^T V W^(-1/2) on the
    cube-summed L^2 space of grid.

    With B = U^T V and B_rc = U_r^T V_c its block on row cube r and column
    cube c, the norm is max_c max_{|x|=1} f_c(x), f_c(x) = sum_r |B_rc x|,
    as each extreme point of the unit ball lies in one cube.  One batched
    QR per cube size gives U_r^T = Q_r R_r and V_c^T = P_c S_c, with R_r and
    S_c of k = min(m, band) rows for a cube of m nodes, so
    B_rc = Q_r C_rc P_c^T with C_rc = R_r S_c^T.  Q_r and P_c have
    orthonormal columns, so B_rc and C_rc have the same singular values,
    and |B_rc x| = |C_rc z| with z = P_c^T x, |z| <= |x|: f_c peaks on
    |z| = 1 and is read on those k_c coordinates.
    Upper: max_c sum_r sqrt(lambda_max(G_rc)), one batched eigvalsh of the
    Grams G_rc = C_rc^T C_rc per column-cube size.  Lower: max_c f_c along
    the ascent z <- g/|g|, g = sum_r G_rc z / |C_rc z| = C_c^T u, batched per
    column-cube size from the top eigenvectors of sum_r G_rc.  f_c is
    convex and 1-homogeneous, so every iterate is a lower bound and none
    falls.  It stops when no cube gains 1e-12 relative, or at ASCENT_STEPS
    iterates, and is capped at the upper bound, which rounding can cross
    where the two meet.  No kernel column is read.
    """
    cells = amalgam_cells(grid, theta)
    sizes = [len(idx) for _, idx in cells]
    groups = [np.stack([idx for _, idx in cells if len(idx) == m]) for m in dict.fromkeys(sizes)]
    UV = np.stack((U, V))
    # (R_r, S_c) per cube, (2, cubes, k, band); the row cubes taken in group order.
    RS = [np.linalg.qr(UV[:, :, cols].transpose(0, 2, 3, 1), mode="r") for cols in groups]
    ks = np.concatenate([np.full(len(R), R.shape[1]) for R, _ in RS])
    starts = np.cumsum(np.concatenate(([0], ks[:-1])))
    R_all = np.concatenate([R.reshape(-1, R.shape[-1]) for R, _ in RS])  # (sum k, band)
    upper = lower = 0.0
    for _, S in RS:
        # C_rc = R_r S_c^T, stacked (row cubes, cubes, k_r, k_c) per row-cube size.
        blocks = [R[:, None] @ S.swapaxes(-1, -2)[None] for R, _ in RS]
        gram = np.concatenate([B.swapaxes(-1, -2) @ B for B in blocks])
        upper = max(upper, float(np.sqrt(np.linalg.eigvalsh(gram)[..., -1]).sum(axis=0).max()))
        Ct = S @ R_all.T  # C_c^T with rows in cube order, (cubes, k_c, sum k)
        x = np.linalg.eigh(gram.sum(axis=0))[1][..., -1]
        f = np.zeros(len(S))
        for _ in range(ASCENT_STEPS):
            y = (x[:, None, :] @ Ct)[:, 0]
            r = np.sqrt(np.add.reduceat(y * y, starts, axis=1))
            f, prev = np.maximum(f, r.sum(axis=1)), f
            if np.all(f <= prev * (1 + 1e-12)):
                break
            # r and |g| are 0 only where y and g are; the floor keeps 0/0 out.
            g = (Ct @ (y / np.maximum(np.repeat(r, ks, axis=1), 1e-300))[..., None])[..., 0]
            x = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        lower = max(lower, float(f.max()))
    return upper, min(lower, upper)


def exp_amalgam(spec: ExperimentSpec) -> EstimateReport:
    P = spec.merged(AMALGAM_DEFAULTS)
    pou = partition_for(spec)
    points, notes, checks, fits, unresolved = [], [], {}, {}, []

    basis1 = interval_basis(math.pi, P["interval_K"], P["interval_N"])
    h1 = basis1.grid.h
    thetas1 = np.geomspace(4.0 * h1 * h1, 1.0, P["n_theta_1d"])
    basis2 = rectangle_basis(math.pi, math.pi, P["rect_K"], P["rect_N"], P["rect_N"])
    h2 = basis2.grid.h
    thetas2 = np.geomspace(4.0 * h2 * h2, 1.0, P["n_theta_2d"])

    # Resolvent column norms against theta, slope -n/4 in n dimensions, each
    # sweep screened at TAIL_FRAC.  In two dimensions the larger beta keeps
    # far cubes summable.
    sweeps = [(basis1, thetas1, beta, f"1d beta={beta:g}", f"slope_1d_beta{beta:g}")
              for beta in P["betas_1d"]]
    sweeps.append((basis2, thetas2, P["beta_2d"], "2d", "slope_2d"))
    for basis, thetas, beta, name, key in sweeps:
        norms, tails = [], []
        for th in thetas:
            sym = resolvent_symbol(beta, 1.0, th)
            norms.append(_column_norm(multiplier_kernel(sym, basis), th))
            tails.append(_column_tail_bound(sym, basis, len(amalgam_cells(basis.grid, th))))
        fit = screened_fit(f"{name} theta", thetas, norms, tails)
        for th, val, tail, keep in zip(thetas, norms, tails, fit.kept):
            points.append({"part": f"resolvent_{basis.domain.n}d", "beta": beta,
                           "theta": float(th), "norm": val, "tail_frac": tail / val,
                           "dropped": not keep})
        fits[key], fits[f"{key}_range"] = fit.slope, [fit.lo, fit.hi]
        record_claim(fit, f"{name} slope", fit.within(-basis.domain.n / 4, P["slope_tol"]),
                     checks, notes, unresolved)

    # Uniform boundedness of the bump on the cube-summed L^2 space, and
    # growth like theta^(alpha/2) of its localization norm.
    uppers, gaps = [], []
    triples = {alpha: ([], []) for alpha in P["alphas"]}
    for th in thetas1:
        ker = multiplier_kernel(bump_symbol(pou, th), basis1)
        up, lo = _block_operator_bounds(*_mode_factors(ker.symbol_values, basis1), basis1.grid, th)
        uppers.append(up)
        gaps.append(up / lo)
        points.append({"part": "bump_bound", "theta": float(th), "upper": up, "lower": lo,
                       "gap": up / lo, "tail_bound": ker.tail_bound})
        for alpha, (vals, tails) in triples.items():
            vals.append(triple_norm(ker, alpha, th))
            tails.append(_triple_tail_bound(ker, alpha, th))
    fits["bump_upper_spread"] = spread = max(uppers) / min(uppers)
    fits["bump_gap"] = worst_gap = max(gaps)
    checks["bump bound spread"] = spread <= P["uniform_spread_cap"]
    if worst_gap > P["gap_cap"]:
        unresolved.append(f"bump bound gap {worst_gap:.1f} exceeds {P['gap_cap']:g}")

    for alpha, (vals, tails) in triples.items():
        fit = screened_fit(f"triple alpha={alpha:g} theta", thetas1, vals, tails)
        fits[f"triple_slope_alpha{alpha:g}"] = fit.slope
        record_claim(fit, f"triple alpha={alpha:g} slope", fit.within(alpha / 2.0, P["slope_tol"]),
                     checks, notes, unresolved)
        points += [{"part": "triple", "alpha": alpha, "theta": float(th), "norm": v}
                   for th, v in zip(thetas1, vals)]

    # Matching inner and outer exponents must reduce to the plain L^2 norm.
    C = coeff_batch(np.random.default_rng(spec.seed), basis1.K, 1, decay=0.05)
    f = GridFunction(to_grid(C[:, 0], basis1), basis1.grid)
    l2 = lp_norm(f, 2.0)
    defect = max(abs(amalgam_norm(f, AmalgamParams(p=2.0, q=2.0, theta=float(th))) - l2)
                 for th in thetas1)
    fits["pq_collapse_defect"] = defect
    checks["p=q collapse defect"] = defect <= P["exact_tol"] * max(l2, 1.0)

    return conclude(
        spec, P | {"tail_frac": TAIL_FRAC}, checks, "; ".join(unresolved) or None, notes,
        points=points, fit=fits, figures={"resolvent_1d_beta2": (thetas1, np.array(
            [p["norm"] for p in points if p["part"] == "resolvent_1d" and p["beta"] == 2.0]))},
    )
