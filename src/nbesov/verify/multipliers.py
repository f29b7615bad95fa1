"""Experiments on dyadic spectral multipliers: operator-norm scaling in the
block index, low-frequency decay against the spectral gap, and gradient
composition bounds.  verify.common.screened_fit decides multiplier_scaling's
20 dyadic j sweeps and theta sweep and gradient's heat t sweep, one
record_claim each; low_freq_decay checks the gap block exactly.  CLIP
only keeps the log-scale figures finite."""

from __future__ import annotations

import math

import numpy as np

from ..domains import build_interval_basis, build_rectangle_basis, cosine_modes
from ..norms import scale_window
from ..reports import EstimateReport
from ..spectral import (
    GridFunction,
    apply_kernel,
    block_symbol,
    bump_symbol,
    endpoint_norms,
    gradient_kernels,
    heat_symbol,
    multiplier_kernel,
    power_block_symbol,
)
from .common import (TAIL_FRAC, ExperimentSpec, conclude, geometric_spread, partition_for,
                     record_claim, screened_fit)

__all__ = ["exp_multiplier_scaling", "exp_low_freq_decay", "exp_gradient"]

CLIP = 1e-300


# ---------------------------------------------------------------------------
# Block-norm scaling in j


def _check_band(P, lam_top, what):
    """Reject an empty j_lo..j_hi, or one whose top block phi_j(sqrt(lambda)) ends above lam_top."""
    if P["j_lo"] > P["j_hi"]:
        raise ValueError(f"j_lo={P['j_lo']} > j_hi={P['j_hi']} leaves no block scale")
    if 2.0 ** (P["j_hi"] + 1) > math.sqrt(float(lam_top)) + 1e-9:
        raise ValueError(f"j range leaves the resolved band of {what}")


MULTIPLIER_DEFAULTS = {
    "L": math.pi,
    "K": 257,
    "N": 512,
    "j_lo": 2,
    "j_hi": 6,
    "alphas_1d": (0.0, -0.5, 0.5, 1.0),
    "alphas_2d": (0.0, 0.5),
    "rect_side": 2.0,
    "rect_modes": 85,
    "slope_tol": 0.15,
    "spread_cap": 4.0,
    "min_points": 4,
}


def exp_multiplier_scaling(spec: ExperimentSpec) -> EstimateReport:
    """Fitted log2-slope of ||H^alpha phi_j(sqrt H)||_{p->q} vs j.

    Targets: n(1/p - 1/q) + 2 alpha.  One and two dimensions; the 2-D
    norms use the separable diagonal shortcut for 1->inf (symbols here are
    non-negative, hence PSD kernels) and the exact symbol maximum for
    2->2.  A continuous theta sweep of ||phi0(theta H)||_{1->inf} checks
    the theta^{-n/2(1/p-1/q)} form of the same bound off the dyadic grid.

    screened_fit decides every slope claim: the slope range inside target
    -/+ slope_tol and, for the dyadic sweeps, the spread of norm / 2^{target j}
    under spread_cap.  The dyadic tails are zero, exactly, as _check_band
    keeps every phi_j inside the modes held; a vanishing block is dropped
    and named, and fewer than min_points kept norms leave a claim
    unresolved.  The theta sweep drops and names theta whose bump kernel's
    tail_bound exceeds TAIL_FRAC of its norm.
    """
    P = spec.merged(MULTIPLIER_DEFAULTS)
    pou = partition_for(spec)
    js = list(range(P["j_lo"], P["j_hi"] + 1))
    points, fits, checks, unresolved = [], {}, {}, []
    notes = ["theta sweep covers the continuous form of the dyadic bound"]
    # Too few scales leave every dyadic claim unresolved, for this one reason.
    if len(js) < P["min_points"]:
        unresolved.append(f"only {len(js)} scales j in [{P['j_lo']}, {P['j_hi']}]; "
                          f"a slope fit needs {P['min_points']}")
    dyadic_unresolved = [] if unresolved else unresolved

    basis = build_interval_basis(P["L"], P["K"], N=P["N"])
    _check_band(P, basis.eigenvalues[-1], "the 1-D basis")
    side, A = P["rect_side"], P["rect_modes"]
    # The smallest eigenvalue the 2-D set leaves out is that of mode (A, 0).
    _check_band(P, (A * math.pi / side) ** 2, "the 2-D mode set")

    rows = {}  # (n, alpha, p, q) -> the norms over js
    pairs_1d = {(1.0, np.inf): "1->inf", (1.0, 1.0): "1->1",
                (2.0, 2.0): "2->2", (np.inf, np.inf): "inf->inf"}
    for alpha in P["alphas_1d"]:
        rows |= {(1, alpha, *pq): [] for pq in pairs_1d}
        for j in js:
            ends = endpoint_norms(multiplier_kernel(power_block_symbol(pou, j, alpha), basis))
            for (p, q), tag in pairs_1d.items():
                rows[1, alpha, p, q].append(ends[tag])
                points.append({"dim": 1, "alpha": alpha, "p": str(p), "q": str(q),
                               "j": j, "norm": ends[tag]})

    # 2-D rectangle: 1->inf is the diagonal max_x sum_{a,b} S[a,b] ex_a(x1)^2 ey_b(x2)^2.
    # Per-axis squared modes and eigenvalues; the square's two axes agree.
    U2 = V2 = cosine_modes((side,), (256,), range(A))
    U2 *= U2
    kx2 = ky2 = (np.arange(A) * math.pi / side) ** 2
    lam2d = kx2[:, None] + ky2[None, :]
    for alpha in P["alphas_2d"]:
        rows |= {(2, alpha, 1.0, np.inf): [], (2, alpha, 2.0, 2.0): []}
        for j in js:
            S = power_block_symbol(pou, j, alpha)(lam2d)
            for (p, q), v in [((1.0, np.inf), float((U2.T @ S @ V2).max())),
                              ((2.0, 2.0), float(S.max()))]:
                rows[2, alpha, p, q].append(v)
                points.append({"dim": 2, "alpha": alpha, "p": f"{p:g}", "q": f"{q:g}",
                               "j": j, "norm": v})

    tol, x = P["slope_tol"], np.asarray(js, dtype=float)
    for (n, alpha, p, q), vals in rows.items():
        target, name = n * (1.0 / p - 1.0 / q) + 2.0 * alpha, f"{n}d alpha={alpha:g} {p:g}->{q:g}"
        # Detrended by 2^{target j}: the spread is that of norm / 2^{target j}
        # and the slope is target plus the detrended one.
        fit = screened_fit(f"{name} 2^j", 2.0 ** x, np.asarray(vals) / 2.0 ** (target * x),
                           np.zeros(len(js)), P["min_points"])
        fits[f"{n}d_a{alpha:g}_{p:g}to{q:g}"] = {
            "slope": target + fit.slope, "target": target, "spread": fit.spread}
        record_claim(fit, name, fit.within(0.0, tol) and fit.spread_hi <= P["spread_cap"],
                     checks, notes, dyadic_unresolved)

    thetas = np.logspace(-4, 0, 9)
    vals, tails = [], []
    for th in thetas:
        ker = multiplier_kernel(bump_symbol(pou, th), basis)
        vals.append(endpoint_norms(ker)["1->inf"])
        tails.append(ker.tail_bound)
        points.append({"dim": 1, "alpha": 0.0, "p": "1", "q": "inf",
                       "theta": float(th), "norm": vals[-1]})
    theta = screened_fit("theta", thetas, vals, tails)
    fits["theta_sweep_1to_inf"] = {"slope": theta.slope, "target": -0.5,
                                   "range": [theta.lo, theta.hi]}
    record_claim(theta, "theta sweep 1->inf", theta.within(-0.5, tol), checks, notes, unresolved)

    slope_a0 = [math.log2(max(v, CLIP)) for v in rows.get((1, 0.0, 1.0, np.inf), [])]
    return conclude(spec, P | {"tail_frac": TAIL_FRAC}, checks, "; ".join(unresolved) or None,
                    notes, points=points, fit=fits, figures={"slope_1d_a0_1toinf": (js, slope_a0)})


# ---------------------------------------------------------------------------
# Low-frequency block decay against the spectral gap


LOWFREQ_DEFAULTS = {
    "j_lo": -8,
    "j_hi": 0,
    "domains": ("interval_pi", "rectangle_gap", "interval_long"),
    "fake_lambda2": None,  # negative-control hook: overrides lambda_2
}

_LOWFREQ_BUILDERS = {
    "interval_pi": lambda: build_interval_basis(math.pi, 64, N=512),
    "rectangle_gap": lambda: build_rectangle_basis(math.pi, 2 * math.pi, 80, Nx=32, Ny=64),
    "interval_long": lambda: build_interval_basis(32 * math.pi, 129, N=1024),
}


def exp_low_freq_decay(spec: ExperimentSpec) -> EstimateReport:
    """Block operator norms for j <= 0 vanish exactly below the spectral gap.

    The gap block j_gap = floor(log2 sqrt(lambda_2)), norms.scale_window of
    the basis' own spectrum, is nonzero, as phi_0 is positive inside its
    support, and every coarser block vanishes.  So the first nonzero block
    in [j_lo, j_hi] must be j_gap, or none when j_gap > j_hi; a window with
    j_lo > j_gap cannot see the gap and leaves that claim unresolved.
    fake_lambda2 fakes lam, which the norms read, and not j_gap.
    gap_consistent compares each block with the zero the support of phi_j
    predicts, both read off lam, so it holds on a faked spectrum as well.
    """
    P = spec.merged(LOWFREQ_DEFAULTS)
    pou = partition_for(spec)
    js = list(range(P["j_lo"], P["j_hi"] + 1))
    points, fits, notes, checks, unresolved = [], {}, [], {}, []
    figures = {}

    for name in P["domains"]:
        basis = _LOWFREQ_BUILDERS[name]()
        j_gap = scale_window(basis)[0]
        lam = np.asarray(basis.eigenvalues, dtype=float)
        if P["fake_lambda2"] is not None:
            lam = lam.copy()
            lam[1] = float(P["fake_lambda2"])
        sq = np.sqrt(np.maximum(lam, 0.0))
        lam2 = float(lam[1])
        E = basis.functions  # read directly: lam may carry a faked eigenvalue

        norms22, consistent = [], True
        for j in js:
            svals = pou.phi(j, sq)
            if np.any(svals < 0.0):
                raise ValueError(f"block j={j} has a negative symbol value")
            n22 = float(np.max(svals))
            nz = svals != 0.0
            # svals >= 0 makes the kernel E^T diag(svals) E positive
            # semidefinite, so max |K_ij| is its largest diagonal entry.
            n1inf = float(np.max(svals[nz] @ (E[nz] * E[nz])))
            lo, hi = pou.phi0_support
            predicted_zero = not np.any((sq > lo * 2.0**j) & (sq < hi * 2.0**j))
            if predicted_zero != (n22 == 0.0):
                consistent = False
            norms22.append(n22)
            points.append({"domain": name, "j": j, "norm22": n22,
                           "norm1inf": n1inf, "predicted_zero": predicted_zero})
        nonzero = [j for j, v in zip(js, norms22) if v > 0]
        first = nonzero[0] if nonzero else None
        if lam2 >= 1.0:  # phi_{-1} vanishes from sqrt(lambda) = 1 on
            notes.append(f"{name}: vacuous range j <= -1 (gap sqrt(lambda_2)="
                         f"{math.sqrt(lam2):.3g} kills every negative block)")
        fits[name] = {"j_gap": j_gap, "first_nonzero_j": first,
                      "lambda2": lam2, "n_nonzero": len(nonzero),
                      "gap_consistent": consistent}
        if j_gap < P["j_lo"]:
            unresolved.append(f"{name}: the gap block j_gap = {j_gap} lies below the "
                              f"window [{P['j_lo']}, {P['j_hi']}]")
        else:
            checks[f"{name} gap block"] = first == (j_gap if j_gap <= P["j_hi"] else None)
        checks[f"{name} gap_consistent"] = consistent
        if name == "interval_long":
            figures["decay_interval_long"] = (js, [math.log(max(v, CLIP)) for v in norms22])

    return conclude(spec, P, checks, "; ".join(unresolved) or None, notes, points=points,
                    fit=fits, figures=figures)


# ---------------------------------------------------------------------------
# Gradient bounds


GRADIENT_DEFAULTS = {
    "L": 32 * math.pi,
    "K": 1025,
    "N": 2048,
    "j_lo": -3,
    "j_hi": 4,
    "n_t": 16,
    "t_max": 10.0,
    "spread_cap_22": 3.0,
    "spread_cap_other": 4.0,
}


def exp_gradient(spec: ExperimentSpec) -> EstimateReport:
    """2^{-j}-normalized gradients of blocks, and t^{1/2}-normalized
    gradient of the heat semigroup, each flat across their range.

    The domain is a long interval so that the spectrum is dense enough for
    negative-j blocks to be populated and so that the largest t stays in
    the local (line-like) regime.  Small t whose truncation tail exceeds
    TAIL_FRAC of the measured norm are dropped and reported (screened_fit),
    and fewer than six kept t leave the heat claim unresolved.
    The constant check applies the t_max heat-gradient kernel to 1.
    """
    P = spec.merged(GRADIENT_DEFAULTS)
    pou = partition_for(spec)
    basis = build_interval_basis(P["L"], P["K"], N=P["N"])
    js = list(range(P["j_lo"], P["j_hi"] + 1))
    _check_band(P, basis.eigenvalues[-1], "the gradient basis")

    # Dyadic blocks, read off the gradient kernels (spectral.endpoint_norms).
    ends = [endpoint_norms(gradient_kernels(block_symbol(pou, j), basis)[0]) for j in js]
    points = [{"kind": "block", "j": j, "norm22": e["2->2"], "norm11": e["1->1"],
               "norminf": e["inf->inf"]} for j, e in zip(js, ends)]
    sc, vals22 = 2.0 ** (-np.asarray(js, dtype=float)), [e["2->2"] for e in ends]
    spread22, spread11, spreadinf = (geometric_spread(sc * [e[tag] for e in ends])
                                     for tag in ("2->2", "1->1", "inf->inf"))
    fits = {"block": {"spread22": spread22, "spread11": spread11, "spreadinf": spreadinf,
                      "sup22": float(np.max(sc * vals22))}}

    # Heat-gradient in t, t^(1/2)-normalized, screened at TAIL_FRAC.
    ts = np.logspace(math.log10(basis.grid.h**2), math.log10(P["t_max"]), P["n_t"])
    vals, tails = [], []
    for t in ts:
        (ker,) = gradient_kernels(heat_symbol(t), basis)
        vals.append(endpoint_norms(ker)["inf->inf"])
        tails.append(ker.tail_bound)
    heat = screened_fit("heat t", ts, np.sqrt(ts) * vals, np.sqrt(ts) * tails, min_points=6)
    for t, v, tail, keep in zip(ts, vals, tails, heat.kept):
        points.append({"kind": "heat", "t": float(t), "norminf": v,
                       "tail": tail, "dropped": not keep})
    kept_t, scaled = ts[heat.kept], (np.sqrt(ts) * vals)[heat.kept]
    fits["heat"] = {"spread": heat.spread, "spread_hi": heat.spread_hi,
                    "sup": float(np.max(scaled, initial=0.0)),
                    "n_kept": len(kept_t), "n_dropped": len(ts) - len(kept_t)}

    # Constants are annihilated by the gradient at every t; ker is the t_max one.
    const_grad = float(np.max(np.abs(apply_kernel(ker, GridFunction.constant(basis.grid)).values)))
    fits["constant_gradient"] = const_grad

    checks = {"block spread22": spread22 <= P["spread_cap_22"],
              "block spread11": spread11 <= P["spread_cap_other"],
              "block spreadinf": spreadinf <= P["spread_cap_other"],
              "constant_gradient": const_grad < 1e-10}
    # One value's spread is 1: one block scale leaves the block claims unresolved.
    notes, unresolved = [], []
    if len(js) < 2:
        unresolved.append(f"only 1 block scale j = {P['j_lo']}; a spread needs 2")
        checks = {k: ok for k, ok in checks.items() if not k.startswith("block")}
    record_claim(heat, "heat spread", heat.spread_hi <= P["spread_cap_22"], checks, notes,
                 unresolved)
    return conclude(spec, P | {"tail_frac": TAIL_FRAC}, checks, "; ".join(unresolved) or None,
                    notes, points=points, fit=fits, figures={
        "heat_grad_scaled": (list(np.log10(kept_t)), list(np.log10(scaled))),
        "block_grad_22": (js, [math.log2(max(v, CLIP)) for v in vals22])})
