"""Amalgam-space behaviour of resolvent and bump kernels.

Checks the theta-scaling of resolvent norms from L^1 into the cube-summed
L^2 space, uniform boundedness of the dyadic bump on that space via exact
per-block singular values, and the theta^(alpha/2) growth of the weighted
localization norm of the bump kernel.  verify.common.screened_fit decides
all six theta sweeps: the three resolvent ones, the bump bounds and the two
triple norms.  The bump bounds' and triple norms' tails are tail_bound
times Frobenius bounds on the weighted error blocks, 0 at every default
theta.

The bump bounds and triple norms come from norms.cube_block_norms on the
bump's mode factor, its values and the basis' modes over their band (a
view, as spectral._band cuts it), not on kernel columns: each cube size's
blocks in k = min(m, band) coordinates, compressed by a QR only where the
band is smaller than the cube, with sigma_max in closed form for blocks
with at most two rows or columns.  A bump with no mode in its band reads
bounds 0 and gap nan, and the sweep drops its theta.  The resolvent column
norms read the (symmetric) kernels in blocks of 64 rows
(OperatorKernel.row_blocks).
"""

from __future__ import annotations

import math

import numpy as np

from ..domains import lp_norm
from ..norms import (
    AmalgamParams,
    amalgam_cells,
    amalgam_columns,
    amalgam_norm,
    cube_block_norms,
)
from ..reports import EstimateReport
from ..spectral import (
    GridFunction,
    SymbolFn,
    _band,
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
    the amalgam norm of the corresponding kernel column, exact on the grid.
    The resolvent kernels are symmetric, so their columns are read as rows,
    64 at a time (OperatorKernel.row_blocks).
    """
    params = AmalgamParams(p=1.0, q=2.0, theta=theta)
    return max(float(np.max(amalgam_columns(rows.T, kernel.grid, params)))
               for _, rows in kernel.row_blocks())


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
    bumps = []
    for th in thetas1:
        sym = bump_symbol(pou, th)
        phi, tail = sym(basis1.eigenvalues), symbol_tail_bound(sym, basis1)
        band = _band(phi)
        bumps.append(cube_block_norms(phi[band], basis1.functions[band], basis1.grid, th,
                                      P["alphas"], tail))
        up, lo = bumps[-1].upper, bumps[-1].lower
        points.append({"part": "bump_bound", "theta": float(th), "upper": up, "lower": lo,
                       "gap": up / lo if lo else math.nan, "tail_bound": tail})
    fit = screened_fit("bump bound theta", thetas1, [b.upper for b in bumps],
                       [b.tail for b in bumps])
    fits["bump_upper_spread"] = fit.spread
    fits["bump_gap"] = worst_gap = max(
        (b.upper / b.lower for b, keep in zip(bumps, fit.kept) if keep), default=math.nan)
    record_claim(fit, "bump bound spread", fit.spread_hi <= P["uniform_spread_cap"],
                 checks, notes, unresolved)
    if worst_gap > P["gap_cap"]:
        unresolved.append(f"bump bound gap {worst_gap:.1f} exceeds {P['gap_cap']:g}")

    for i, alpha in enumerate(P["alphas"]):
        vals = [b.triple[i] for b in bumps]
        fit = screened_fit(f"triple alpha={alpha:g} theta", thetas1, vals,
                           [b.triple_tail[i] for b in bumps])
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
