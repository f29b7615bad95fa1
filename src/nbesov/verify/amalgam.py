"""Amalgam-space behaviour of resolvent and bump kernels.

Checks the theta-scaling of resolvent norms from L^1 into the cube-summed
L^2 space, uniform boundedness of the dyadic bump on that space via exact
per-block singular values, and the theta^(alpha/2) growth of the weighted
localization norm of the bump kernel.

Exact block norms read sigma_max(B) = sqrt(lambda_max(B^T B)) off per-cube
Gram matrices: the upper bump bound sums them over row cubes, the
single-cube lower bound reads the summed Gram of one column cube.
"""

from __future__ import annotations

import math

import numpy as np

from ..domains import lp_norm
from ..norms import AmalgamParams, amalgam_cells, amalgam_columns, amalgam_norm, triple_norm
from ..reports import EstimateReport, least_squares_fit
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
    ExperimentSpec,
    coeff_batch,
    conclude,
    interval_basis,
    partition_for,
    rectangle_basis,
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
    "n_probes": 64,
    "gap_cap": 10.0,
    "uniform_spread_cap": 4.0,
    "alphas": (0.5, 1.0),
    "exact_tol": 1e-12,
}


def _column_norm(kernel, theta):
    """Operator norm from L^1 into the cube-summed L^2 space.

    For an integral kernel this is the essential sup over source points of
    the amalgam norm of the corresponding kernel column, exact on the grid.
    """
    params = AmalgamParams(p=1.0, q=2.0, theta=theta)
    return float(np.max(amalgam_columns(kernel.matrix, kernel.grid, params)))


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


def _block_operator_bounds(kernel, theta, rng, n_probes):
    """Two-sided bounds on the kernel's norm on the cube-summed L^2 space.

    B_rc is the weighted kernel W^(1/2) K W^(1/2) on row cube r and column
    cube c; sigma_max(B) = sqrt(lambda_max(B^T B)) is read from one batched
    eigvalsh of the Grams G_rc = B_rc^T B_rc per column-cube size.  Upper:
    max_c sum_r sqrt(lambda_max(G_rc)).  Lower: the best random-probe ratio,
    and max_c sqrt(lambda_max(sum_r G_rc)), the largest norm of the kernel
    on functions supported in a single cube.
    """
    w = kernel.grid.weights
    sw = np.sqrt(w)
    Kw = sw[:, None] * kernel.matrix * sw[None, :]
    by_size: dict[int, list] = {}
    for _, idx in amalgam_cells(kernel.grid, theta):
        by_size.setdefault(len(idx), []).append(idx)
    groups = [np.stack(ids) for ids in by_size.values()]
    upper = single = 0.0
    for cols in groups:
        blocks = [Kw[rows[:, None, :, None], cols[None, :, None, :]] for rows in groups]
        gram = np.concatenate([B.swapaxes(-1, -2) @ B for B in blocks])
        gram = np.concatenate([gram, gram.sum(axis=0)[None]])
        sig = np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
        upper = max(upper, float(sig[:-1].sum(axis=0).max()))
        single = max(single, float(sig[-1].max()))

    G = rng.standard_normal((kernel.grid.n_nodes, n_probes))
    KG = kernel.matrix @ (w[:, None] * G)
    params = AmalgamParams(p=1.0, q=2.0, theta=theta)
    ratios = amalgam_columns(KG, kernel.grid, params) / amalgam_columns(G, kernel.grid, params)
    return upper, max(single, float(np.max(ratios)))


def exp_amalgam(spec: ExperimentSpec) -> EstimateReport:
    P = spec.merged(AMALGAM_DEFAULTS)
    pou = partition_for(spec)
    rng = np.random.default_rng(spec.seed)
    points, notes, checks = [], [], {}
    fits = {}

    basis1 = interval_basis(math.pi, P["interval_K"], P["interval_N"])
    h1 = basis1.grid.h
    thetas1 = np.geomspace(4.0 * h1 * h1, 1.0, P["n_theta_1d"])

    # Resolvent column norms against theta, one-dimensional.
    lam_top1 = float(basis1.eigenvalues[-1])
    for beta in P["betas_1d"]:
        norms, tails, edges = [], [], []
        for th in thetas1:
            sym = resolvent_symbol(beta, 1.0, th)
            ker = multiplier_kernel(sym, basis1)
            val = _column_norm(ker, th)
            tail = _column_tail_bound(sym, basis1, len(amalgam_cells(basis1.grid, th)))
            norms.append(val)
            tails.append(tail / val)
            edges.append(float(sym(np.array([lam_top1]))[0]))
            points.append({"part": "resolvent_1d", "beta": beta, "theta": float(th),
                           "norm": val, "tail_frac": tail / val,
                           "band_edge_level": edges[-1]})
        fit = least_squares_fit(np.log(thetas1), np.log(norms))
        fits[f"slope_1d_beta{beta:g}"] = fit.slope
        checks[f"1d beta={beta:g} slope {fit.slope:.3f}"] = (
            abs(fit.slope - (-0.25)) <= P["slope_tol"])
        if max(tails) > 0.2:
            notes.append(
                f"1d beta={beta:g}: truncation error bound reaches "
                f"{max(tails):.0%} of the measured norm at the smallest theta "
                f"(symbol still at {100 * edges[0]:.1f}% "
                "of its peak at the band edge); the fitted slope is quoted "
                "over the full sweep and stays inside tolerance")

    # Two dimensions: steeper target, larger beta keeps far cubes summable.
    basis2 = rectangle_basis(math.pi, math.pi, P["rect_K"], P["rect_N"], P["rect_N"])
    h2 = basis2.grid.h
    thetas2 = np.geomspace(4.0 * h2 * h2, 1.0, P["n_theta_2d"])
    norms2 = []
    for th in thetas2:
        sym = resolvent_symbol(P["beta_2d"], 1.0, th)
        ker = multiplier_kernel(sym, basis2)
        val = _column_norm(ker, th)
        tail = _column_tail_bound(sym, basis2, len(amalgam_cells(basis2.grid, th)))
        norms2.append(val)
        points.append({"part": "resolvent_2d", "beta": P["beta_2d"],
                       "theta": float(th), "norm": val, "tail_frac": tail / val})
    fit2 = least_squares_fit(np.log(thetas2), np.log(norms2))
    fits["slope_2d"] = fit2.slope
    checks[f"2d slope {fit2.slope:.3f}"] = abs(fit2.slope - (-0.5)) <= P["slope_tol"]

    # Uniform boundedness of the bump on the cube-summed L^2 space, and
    # growth like theta^(alpha/2) of its localization norm.
    uppers, gaps = [], []
    triples = {alpha: [] for alpha in P["alphas"]}
    for th in thetas1:
        ker = multiplier_kernel(bump_symbol(pou, th), basis1)
        up, lo = _block_operator_bounds(ker, th, rng, P["n_probes"])
        uppers.append(up)
        gaps.append(up / lo)
        points.append({"part": "bump_bound", "theta": float(th), "upper": up,
                       "lower": lo, "gap": up / lo,
                       "tail_bound": ker.tail_bound})
        for alpha, vals in triples.items():
            vals.append(triple_norm(ker, alpha, th))
    spread = max(uppers) / min(uppers)
    worst_gap = max(gaps)
    fits["bump_upper_spread"] = spread
    fits["bump_gap"] = worst_gap
    checks[f"bump bound spread {spread:.2f}"] = spread <= P["uniform_spread_cap"]
    unresolved = None
    if worst_gap > P["gap_cap"]:
        unresolved = f"bump bound gap {worst_gap:.1f} exceeds {P['gap_cap']:g}"

    for alpha, vals in triples.items():
        fit = least_squares_fit(np.log(thetas1), np.log(vals))
        fits[f"triple_slope_alpha{alpha:g}"] = fit.slope
        checks[f"triple alpha={alpha:g} slope {fit.slope:.3f}"] = (
            abs(fit.slope - alpha / 2.0) <= P["slope_tol"])
        for th, v in zip(thetas1, vals):
            points.append({"part": "triple", "alpha": alpha, "theta": float(th),
                           "norm": v})

    # Matching inner and outer exponents must reduce to the plain L^2 norm.
    C = coeff_batch(rng, basis1.K, 1, decay=0.05)
    f = GridFunction(to_grid(C[:, 0], basis1), basis1.grid)
    l2 = lp_norm(f, 2.0)
    defect = max(
        abs(amalgam_norm(f, AmalgamParams(p=2.0, q=2.0, theta=float(th))) - l2)
        for th in thetas1
    )
    fits["pq_collapse_defect"] = defect
    checks[f"p=q collapse defect {defect:.2e}"] = defect <= P["exact_tol"] * max(l2, 1.0)

    return conclude(
        spec, P, checks, unresolved, notes,
        points=points,
        fit=fits,
        figures={
            "resolvent_1d_beta2": (
                thetas1,
                np.array([p["norm"] for p in points
                          if p["part"] == "resolvent_1d" and p["beta"] == 2.0]),
            )
        },
    )
