"""Gaussian envelope verification for the heat kernel and its mean-removed
projection.

For each time t the truncated spectral kernel K_t is compared against
C * max(t^{-n/2}, 1) * exp(-|x-y|^2 / (c t)) over grid pairs, in log space
(the envelope underflows doubles long before the comparison becomes
meaningless).  Truncation is handled explicitly: every kernel carries a
bound on its truncated tail (spectral.symbol_tail_bound), pairs whose
envelope falls below a multiple of that tail are excluded as undecidable
at this resolution, and a time where that leaves fewer than half the
pairs (or where the tail rivals the kernel scale itself) is dropped and
reported.

Every K_t and its tail bound come from spectral.heat_kernel, read off the
kernel's profile on the analytic interval and rectangle bases, and
K_t - 1/|Omega| off the profile of the same symbol values with the
lambda = 0 mode left out (spectral.kernel_profile): no N x N matrix is
formed and no pair distance is sorted.
"""

from __future__ import annotations

import math

import numpy as np

from ..domains import build_interval_basis, build_rectangle_basis
from ..reports import EstimateReport
from ..spectral import heat_kernel, kernel_profile
from .common import (TAIL_FRAC, ExperimentSpec, conclude, geometric_spread, record_claim,
                     screened_fit)

__all__ = ["exp_heat_gaussian"]

HEAT_DEFAULTS = {
    "n_t": 25,
    "t_max": 10.0,
    "c_lo": 0.5,
    "c_hi": 64.0,
    "c_step": 1.1,
    "tail_margin": 20.0,
    "tail_abs_frac": 0.05,
    "min_pair_frac": 0.5,
    "c_slack": 1.5,
    "uniformity_cap": 5.0,
    "refine_tol": 0.20,
    "interval_K": 200,
    "interval_N": 512,
    "rect_K": 200,
    "rect_N": 32,
}


def _parity_suffix(ufunc, v):
    """out[u] = ufunc over v[u], v[u+2], v[u+4], ... along the first axis."""
    out = np.empty_like(v)
    for p in (0, 1):
        out[p::2] = ufunc.accumulate(v[p::2][::-1])[::-1]
    return out


def _offset_groups(grid):
    """Pairs grouped by offset d = |i - i'| per axis, read off the kernel's
    profile V (spectral.kernel_profile).  Returns the groups' squared
    distances sum (d h)^2 (ascending), their pair counts, prod N at d = 0
    and 2(N - d) otherwise per axis, and the reader of a kernel's profile
    V(0..N): its max per group, in that order, and its min.

    On one axis the sums s = i + i' + 1 at a fixed d run over
    {d+1, d+3, ..., 2N-1-d}; as V(2N - s) = V(s), the values met are V(u)
    for u in [d+1, N] with the parity of d+1, and on a rectangle the two
    axes' u range over the product of their sets.  So an interval group's
    max is V(d) plus the max of those V(u); a rectangle group's max is,
    over u2, A(d1)[d2, u2] plus the max over u1 of A(u1)[d2, u2], with
    A(q)[d2, u2] = V(q, d2) + V(q, u2), in the summation order of the
    kernel.  Both are the dense kernel's extrema exactly, because rounded
    addition is monotone.
    """
    shape = grid.shape
    d = [np.arange(n) for n in shape]
    d2 = sum(np.ix_(*[(di * h) ** 2 for di, h in zip(d, grid.spacing)]))
    counts = math.prod(np.ix_(*[np.where(di == 0, n, 2 * (n - di)) for di, n in zip(d, shape)]))
    order = np.argsort(d2, axis=None, kind="stable")

    def extreme(ufunc, V):
        if V.ndim == 1:
            return V[:shape[0]] + _parity_suffix(ufunc, V)[1:]
        Nx, Ny = shape
        A = V[:, :Ny, None] + V[:, None, :]  # A(q1)[d2, u2]
        G = A[:Nx] + _parity_suffix(ufunc, A)[1:]  # (Nx, Ny, Ny + 1)
        G = _parity_suffix(ufunc, np.moveaxis(G, 2, 0))  # [u2, d1, d2], suffix over u2
        return G[d[1] + 1, :, d[1]].T

    def stats(v):
        return extreme(np.maximum, v).ravel()[order], float(np.min(extreme(np.minimum, v)))

    return d2.ravel()[order], counts.ravel()[order], stats


def _domain_scan(basis, ts, cs, P, dim):
    """Per-time Gaussian-envelope scan on an analytic interval or rectangle
    basis; a finite-difference basis is rejected.

    Returns rows (one per t) with admissibility, positivity margin, the
    needed constant log C(t, c) for every c, and the projected-kernel
    maximum max |K_t - 1/|Omega|| used for the decay fit, read off the
    profile of the symbol values without the lambda = 0 mode, so that it
    keeps its digits where K_t is close to 1/|Omega|.

    log C(t, c) is the max over decidable pairs with K_t > 0 of
    log K_t - log m_t + |x-y|^2 / (c t).  Pairs are grouped by offset
    (_offset_groups), so each t takes one max of K_t and one log per group
    and the c loop runs over groups only: for a fixed group the shifts
    -log m_t and +|x-y|^2 / (c t) are the same for every pair, and log and
    rounded addition are monotone, so the group max commutes with them.
    Decidability (|x-y|^2 <= c t L) keeps a prefix of the sorted groups,
    found by searchsorted.  No K_t matrix is formed.  An offset's pairwise
    distances differ from sum (d h)^2 by ulps, so log C can move by ulps
    against a per-pair scan, while the kernel extrema (pk_max, pos_margin,
    the floor) are exact.
    """
    if basis.kind != "analytic":
        raise ValueError(f"the heat-envelope scan reads kernel profiles, which a "
                         f"{basis.kind} basis on {basis.domain.kind} does not have")
    d2, counts, stats = _offset_groups(basis.grid)
    cum = np.r_[0, np.cumsum(counts)]
    n_pairs = int(cum[-1])
    c_max = cs[-1]
    rows = []
    for t in ts:
        ker = heat_kernel(float(t), basis)
        tail = ker.tail_bound
        gmax, k_min = stats(ker.profile)
        m_t = max(t ** (-dim / 2.0), 1.0)
        k_diag_max = float(gmax[0])  # the d = 0 group is the diagonal
        # Kernel values are indeterminate below the spectral truncation tail
        # OR the roundoff floor of the mode sum, whichever is larger.  A pair
        # is decidable at scale c only where the envelope clears that floor
        # by the declared margin; the decidable region therefore shrinks
        # with c, which keeps floor-dominated far pairs from being amplified
        # by exp(|x-y|^2/(c t)).
        floor = max(tail, 1e-14 * k_diag_max)
        L = math.log(max(m_t / (P["tail_margin"] * floor), 1e-300)) if floor > 0 else math.inf
        frac = int(cum[np.searchsorted(d2, c_max * t * L, side="right")]) / n_pairs
        admissible = (tail <= P["tail_abs_frac"] * m_t) and (frac >= P["min_pair_frac"])
        pos_margin = k_min + tail  # positivity: min K_t >= -tail
        logC = np.full(len(cs), -np.inf)
        with np.errstate(divide="ignore"):  # groups with no K_t > 0 give -inf
            base = np.log(np.maximum(gmax, 0.0)) - math.log(m_t)
        for i, c in enumerate(cs):
            n_sel = int(np.searchsorted(d2, c * t * L, side="right"))
            if n_sel:
                logC[i] = float(np.max(base[:n_sel] + d2[:n_sel] / (c * t)))
        pmax, p_min = stats(kernel_profile(
            np.where(basis.eigenvalues > 0, ker.symbol_values, 0.0), basis))
        pk_max = max(float(np.max(pmax)), -p_min)
        rows.append({
            "t": float(t), "tail": float(tail), "admissible": bool(admissible),
            "pair_frac": frac, "pos_margin": pos_margin, "logC": logC,
            "pk_max": pk_max, "k_diag_max": k_diag_max,
        })
    return rows


def _fit_envelope(rows, cs, P):
    """Choose (C*, c*): smallest c whose global constant is within the
    declared slack of the best achievable, then the constant itself."""
    adm = [r for r in rows if r["admissible"]]
    logC_c = np.max(np.stack([r["logC"] for r in adm]), axis=0)
    best = logC_c[-1]
    target = best + math.log(P["c_slack"])
    idx = int(np.argmax(logC_c <= target))
    c_star = float(cs[idx])
    C_star = float(math.exp(logC_c[idx]))
    per_t = [math.exp(r["logC"][idx]) for r in adm if np.isfinite(r["logC"][idx])]
    uniformity = geometric_spread(per_t)
    return C_star, c_star, uniformity


def _summarize(name, basis, rows, fit_rows, cs, P, notes, unresolved):
    """One domain's fit entry, checks, dropped-t note (None when no t is
    dropped) and report points: the envelope (C, c) fitted over fit_rows,
    positivity over every row, and the decay rate mu of max |K_t - 1/|Omega||
    over the rows with t >= 1.  Rejects fit_rows with fewer than 6
    admissible times.  mu is minus screened_fit's slope of pk_max against
    x = e^t, each row's kernel tail_bound its tail, and its check reads the
    slow end -hi; record_claim adds to notes and unresolved."""
    if sum(r["admissible"] for r in fit_rows) < 6:
        raise ValueError(f"too few admissible times to fit the {name} envelope")
    C, c, unif = _fit_envelope(fit_rows, cs, P)
    late = [(r["t"], r["pk_max"], r["tail"]) for r in rows if r["t"] >= 1.0]
    t, pk, tail = np.reshape(late, (-1, 3)).T
    decay = screened_fit(f"{name} e^t", np.exp(t), pk, tail)
    lam2 = float(basis.eigenvalues[1])
    pos_ok = all(r["pos_margin"] >= -1e-12 * r["k_diag_max"] for r in rows)
    floor = 1.0 / basis.domain.volume
    fit = {"C": C, "c": c, "uniformity": unif, "mu": -decay.slope,
           "lambda2": lam2, "positivity_ok": pos_ok, "C_floor_volume": floor}
    checks = {f"{name} positivity": pos_ok}
    record_claim(decay, f"{name} mu", -decay.hi >= 0.5 * lam2, checks, notes, unresolved)
    checks |= {f"{name} uniformity": unif <= P["uniformity_cap"], f"{name} C floor": C >= floor}
    ndropped = sum(1 for r in rows if not r["admissible"])
    note = f"{name}: dropped {ndropped} undecidable small t" if ndropped else None
    keys = ("t", "tail", "admissible", "pair_frac", "pos_margin", "pk_max")
    points = [{"domain": name} | {k: r[k] for k in keys} for r in rows]
    return fit, checks, note, points


def exp_heat_gaussian(spec: ExperimentSpec) -> EstimateReport:
    P = spec.merged(HEAT_DEFAULTS)
    n_c = int(math.ceil(math.log(P["c_hi"] / P["c_lo"]) / math.log(P["c_step"]))) + 1
    cs = P["c_lo"] * P["c_step"] ** np.arange(n_c)
    notes, unresolved = [], []

    # Interval, base and refined.
    base = build_interval_basis(math.pi, P["interval_K"], N=P["interval_N"])
    ts = np.logspace(math.log10(base.grid.h**2), math.log10(P["t_max"]), P["n_t"])
    rows_b = _domain_scan(base, ts, cs, P, dim=1)
    fine = build_interval_basis(math.pi, int(P["interval_K"] * math.sqrt(2)),
                                N=2 * P["interval_N"])
    rows_f = _domain_scan(fine, ts, cs, P, dim=1)
    shared = [i for i in range(len(ts))
              if rows_b[i]["admissible"] and rows_f[i]["admissible"]]
    fit_b, checks_b, note, points = _summarize(
        "interval", base, rows_b, [rows_b[i] for i in shared], cs, P, notes, unresolved)
    Cf, cf, unif_f = _fit_envelope([rows_f[i] for i in shared], cs, P)
    Cb, cb = fit_b["C"], fit_b["c"]
    stable = (abs(Cf - Cb) <= P["refine_tol"] * Cb
              and abs(cf - cb) <= P["refine_tol"] * cb)
    fits = {"interval": fit_b | {"C_refined": Cf, "c_refined": cf,
                                 "uniformity_refined": unif_f, "stable": stable}}
    checks = {"interval stable": stable} | checks_b
    if note:
        notes.append(note + " (truncation tail dominates the envelope there): " + ", ".join(
            f"{r['t']:.3g}" for r in rows_b if not r["admissible"]))

    rect = build_rectangle_basis(math.pi, math.pi, P["rect_K"], Nx=P["rect_N"], Ny=P["rect_N"])
    ts2 = np.logspace(math.log10(rect.grid.h**2), math.log10(P["t_max"]), 15)
    rows_r = _domain_scan(rect, ts2, cs, P, dim=2)
    fits["rectangle"], checks_r, note, points_r = _summarize(
        "rectangle", rect, rows_r, rows_r, cs, P, notes, unresolved)
    checks |= checks_r
    points += points_r
    if note:
        notes.append(note)

    adm = [r for r in rows_b if r["admissible"]]
    return conclude(spec, P | {"tail_frac": TAIL_FRAC}, checks, "; ".join(unresolved) or None,
                    notes, points=points, fit=fits, figures={
        "pk_decay_interval": ([r["t"] for r in adm],
                              [math.log(max(r["pk_max"], 1e-300)) for r in adm])})
