"""Experiments on the Besov machinery itself: reconstruction from blocks,
embeddings between the spaces, duality pairings, the fractional Leibniz
rule, and independence of the norms from the partition choice."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..littlewood_paley import make_partition
from ..norms import besov_table, lp_columns, scale_window
from ..reports import EstimateReport
from ..spectral import to_coeffs, to_grid
from .common import (
    ExperimentSpec,
    coeff_batch,
    conclude,
    interval_basis,
    partition_for,
    rectangle_basis,
    refinement_pair,
    relative_drift,
    resynthesis_residual,
)

__all__ = [
    "exp_reconstruction",
    "exp_embeddings",
    "exp_duality",
    "exp_leibniz",
    "exp_partition_independence",
]


# ---------------------------------------------------------------------------
# Reconstruction


RECON_DEFAULTS = {"n_samples": 100, "tol": 1e-8, "exact_tol": 1e-12}


def exp_reconstruction(spec: ExperimentSpec) -> EstimateReport:
    """f equals its cap + dyadic-block resynthesis; mean-zero f equals the
    homogeneous block sum; f with a mean reconstructs exactly to its
    mean-removed part, with residual |mean component| / ||f||."""
    P = spec.merged(RECON_DEFAULTS)
    pou = partition_for(spec)
    rng = np.random.default_rng(spec.seed)
    points, fits = [], {}
    worst_inhom = worst_hom = worst_mean_gap = 0.0

    cases = [
        ("interval", interval_basis(math.pi, 64, 512)),
        ("rectangle", rectangle_basis(math.pi, math.pi, 200, 32, 32)),
    ]
    for name, basis in cases:
        a, J = scale_window(basis)
        C = coeff_batch(rng, basis.K, P["n_samples"], decay=0.05)
        F = to_grid(C, basis)
        coeffs = to_coeffs(F, basis)
        resid = resynthesis_residual(F, coeffs, basis, pou, range(1, J + 1))
        worst_inhom = max(worst_inhom, float(resid.max()))

        Cz = C.copy()
        Cz[0] = 0.0
        Fz = to_grid(Cz, basis)
        resid_h = resynthesis_residual(Fz, to_coeffs(Fz, basis), basis, pou, range(a, J + 1),
                                       cap=False)
        worst_hom = max(worst_hom, float(resid_h.max()))

        # With the flat mode present, the homogeneous sum returns the
        # mean-removed part, so the residual is exactly |c_0| / ||f||_2.
        resid_m = resynthesis_residual(F, coeffs, basis, pou, range(a, J + 1), cap=False)
        expect = np.abs(coeffs[0]) / np.sqrt(np.sum(coeffs**2, axis=0))
        gap = float(np.max(np.abs(resid_m - expect)))
        worst_mean_gap = max(worst_mean_gap, gap)

        points.append({"domain": name, "max_inhom_residual": float(resid.max()),
                       "max_hom_residual": float(resid_h.max()),
                       "mean_case_gap": gap, "j_cover": J, "j_gap": a})

    fits["max_inhom_residual"] = worst_inhom
    fits["max_hom_residual"] = worst_hom
    fits["mean_case_gap"] = worst_mean_gap
    checks = {"inhom_residual": worst_inhom < P["tol"],
              "hom_residual": worst_hom < P["tol"],
              "mean_case_gap": worst_mean_gap < P["exact_tol"]}
    return conclude(spec, P, checks, points=points, fit=fits)


# ---------------------------------------------------------------------------
# Embeddings


EMBED_DEFAULTS = {
    "n_samples": 100,
    "k_max": 48,
    "cap_l2": 3.0,
    "cap_generic": 20.0,
    "drift_tol": 0.30,
}


def exp_embeddings(spec: ExperimentSpec) -> EstimateReport:
    """Norm-comparison inequalities between the dyadic spaces.

    Each inequality is checked as a max ratio over seeded samples, and the
    ratio must not blow up when the basis is refined by a factor 2.  The
    epsilon-loss embedding is checked against its explicit geometric-series
    constant rather than an empirical cap.
    """
    P = spec.merged(EMBED_DEFAULTS)
    pou = partition_for(spec)
    rng = np.random.default_rng(spec.seed)
    coarse, refined = refinement_pair()
    C0 = coeff_batch(rng, refined.K, P["n_samples"], k_max=P["k_max"], decay=0.05)
    eps = 0.5

    def ratios(basis):
        C = C0[: basis.K]
        F = to_grid(C, basis)
        w = basis.grid.weights
        _, J = scale_window(basis)
        b02, b1, b01, bsup, b_half_12, b_half_22, b0_inf2, b04, b0inf = besov_table(
            C, [(0.0, 2.0, 2.0), (1.0, 2.0, 2.0), (0.0, 2.0, 1.0), (eps, 2.0, np.inf),
                (0.5, 1.0, 2.0), (0.5, 2.0, 2.0), (0.0, np.inf, 2.0), (0.0, 4.0, 2.0),
                (0.0, 2.0, np.inf)], pou, basis, J)
        out = {}
        l2 = lp_columns(F, w, 2.0)
        out["b022_vs_l2_hi"] = float(np.max(b02 / l2))
        out["b022_vs_l2_lo"] = float(np.max(l2 / b02))
        # Lifting by (I + H)^{s0/2}, s0 = +1 and -1, at s = 1.
        lam = basis.eigenvalues
        for s0 in (1.0, -1.0):
            CL = (1.0 + lam[:, None]) ** (s0 / 2.0) * C
            target = besov_table(CL, [(1.0 - s0, 2.0, 2.0)], pou, basis, J)[0]
            out[f"lift_{s0:+g}"] = float(np.max(target / b1))
        # Epsilon-loss against the explicit geometric constant.
        out["eps_loss"] = float(np.max(b01 / bsup))
        out["eps_loss_bound"] = 1.0 + sum(2.0 ** (-eps * j) for j in range(1, J + 1))
        # One-dimensional Sobolev-type gains.
        out["sobolev_1to2"] = float(np.max(b02 / b_half_12))
        out["sobolev_2toinf"] = float(np.max(b0_inf2 / b_half_22))
        # L^p into B^0_{p,2} for p >= 2.
        for p, bp in ((2.0, b02), (4.0, b04)):
            out[f"lp_embed_p{p:g}"] = float(np.max(bp / lp_columns(F, w, p)))
        # l^q monotonicity is exact.
        out["q_monotone_defect"] = float(np.max(
            np.maximum(b02 - b01, b0inf - b02) / b01))
        return out

    base, fine = ratios(coarse), ratios(refined)
    checks = {
        "b022_vs_l2_hi": base["b022_vs_l2_hi"] <= P["cap_l2"],
        "b022_vs_l2_lo": base["b022_vs_l2_lo"] <= P["cap_l2"],
        "eps_loss": base["eps_loss"] <= base["eps_loss_bound"] + 1e-9,
        "q_monotone": base["q_monotone_defect"] <= 1e-12,
    }
    for key in ("lift_+1", "lift_-1", "sobolev_1to2", "sobolev_2toinf",
                "lp_embed_p2", "lp_embed_p4"):
        checks[key] = base[key] <= P["cap_generic"]
    drift = relative_drift(base, fine, ("b022_vs_l2_hi", "lift_+1", "lift_-1", "sobolev_1to2",
                                        "sobolev_2toinf", "lp_embed_p2", "lp_embed_p4", "eps_loss"))
    checks["refinement_drift"] = max(drift.values()) <= P["drift_tol"]

    points = [{"check": k, "ratio": v, "refined": fine.get(k)}
              for k, v in base.items()]
    return conclude(
        spec, P, checks,
        points=points,
        fit={"ratios": base, "refined": fine, "drift": drift},
    )


# ---------------------------------------------------------------------------
# Duality


DUALITY_DEFAULTS = {"n_pairs": 50, "cap": 10.0, "drift_tol": 0.25}

_DUAL_TABLE = [(0.0, 2.0, 2.0), (0.5, 2.0, 1.0), (1.0, 4.0, 2.0)]


def _conj(p: float) -> float:
    if p == 1.0:
        return np.inf
    if np.isinf(p):
        return 1.0
    return p / (p - 1.0)


def exp_duality(spec: ExperimentSpec) -> EstimateReport:
    """|<f, g>| <= C ||f||_{B^s_{p,q}} ||g||_{B^{-s}_{p',q'}} over sample pairs."""
    P = spec.merged(DUALITY_DEFAULTS) | {"table": _DUAL_TABLE}
    pou = partition_for(spec)
    rng = np.random.default_rng(spec.seed)
    coarse, refined = refinement_pair()
    Cf0 = coeff_batch(rng, refined.K, P["n_pairs"], k_max=48, decay=0.05)
    Cg0 = coeff_batch(rng, refined.K, P["n_pairs"], k_max=48, decay=0.05)
    dual = [(-s, _conj(p), _conj(q)) for s, p, q in _DUAL_TABLE]

    def run(basis):
        Cf, Cg = Cf0[: basis.K], Cg0[: basis.K]
        _, J = scale_window(basis)
        pair = np.abs(np.sum(Cf * Cg, axis=0))  # quadrature-exact pairing
        nf = besov_table(Cf, _DUAL_TABLE, pou, basis, J)
        ng = besov_table(Cg, dual, pou, basis, J)
        return {f"s{s:g}_p{p:g}_q{q:g}": float(np.max(pair / (nf[i] * ng[i])))
                for i, (s, p, q) in enumerate(_DUAL_TABLE)}

    base, fine = run(coarse), run(refined)
    drift = relative_drift(base, fine)

    # Structural checks: the quadrature pairing of a mean-zero f with the
    # constant 1 vanishes, and the ratio is invariant under rescaling f.
    cz = np.zeros(coarse.K)
    cz[1:5] = 1.0
    pair_const = abs(float(np.sum(coarse.grid.weights * to_grid(cz, coarse))))
    _, J = scale_window(coarse)
    n1 = besov_table(cz[:, None], _DUAL_TABLE[:1], pou, coarse, J)[0, 0]
    n2 = besov_table(2.0 * cz[:, None], _DUAL_TABLE[:1], pou, coarse, J)[0, 0]
    scale_gap = abs(n2 / n1 - 2.0)

    checks = {k: v <= P["cap"] for k, v in base.items()}
    checks["refinement_drift"] = max(drift.values()) <= P["drift_tol"]
    checks["structural"] = pair_const <= 1e-12 and scale_gap <= 1e-12
    return conclude(
        spec, P, checks,
        points=[{"case": k, "C": v, "C_refined": fine[k], "drift": drift[k]}
                for k, v in base.items()],
        fit={"C_emp": base, "drift": drift, "mean_zero_pairing": pair_const,
             "scale_invariance_gap": scale_gap},
    )


# ---------------------------------------------------------------------------
# Fractional Leibniz


LEIBNIZ_DEFAULTS = {
    "n_pairs": 100,
    "band_cap": 31,
    "stability_tol": 0.25,
    "band_leak_tol": 0.01,
}

# (s, p, q, p1, p2, p3, p4) with 1/p = 1/p1 + 1/p2 = 1/p3 + 1/p4.
_LEIBNIZ_TUPLES = [
    (0.5, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0),
    (1.0, 2.0, 2.0, 2.0, np.inf, np.inf, 2.0),
    (0.5, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0),
]


def exp_leibniz(spec: ExperimentSpec) -> EstimateReport:
    """Product rule ||fg||_{B^s_{p,q}} <= C(||f||_{B^s_{p1,q}} ||g||_{p2}
    + ||f||_{p3} ||g||_{B^s_{p4,q}}).

    Inputs are band-limited to half the resolved band so products stay
    exactly representable; the empirical constant must be stable under
    grid refinement and partition-variant swap.
    """
    P = spec.merged(LEIBNIZ_DEFAULTS) | {"tuples": _LEIBNIZ_TUPLES}
    rng = np.random.default_rng(spec.seed)
    coarse, refined = refinement_pair()
    kcap = P["band_cap"] + 1
    Cf0 = coeff_batch(rng, refined.K, P["n_pairs"], k_max=kcap, decay=0.08)
    Cg0 = coeff_batch(rng, refined.K, P["n_pairs"], k_max=kcap, decay=0.08)
    lhs_spq = [(s, p, q) for s, p, q, *_ in _LEIBNIZ_TUPLES]
    f_spq = [(s, p1, q) for s, _, q, p1, *_ in _LEIBNIZ_TUPLES]
    g_spq = [(s, p4, q) for s, _, q, *_, p4 in _LEIBNIZ_TUPLES]

    def run(basis, pou):
        w = basis.grid.weights
        Cf, Cg = Cf0[: basis.K], Cg0[: basis.K]
        F, G = to_grid(Cf, basis), to_grid(Cg, basis)
        H = F * G
        Ch = to_coeffs(H, basis)
        # Band check: the product must re-analyze losslessly.
        Hback = to_grid(Ch, basis)
        leak = lp_columns(H - Hback, w, 2.0) / lp_columns(H, w, 2.0)
        discarded = int(np.sum(leak > P["band_leak_tol"]))
        keep = leak <= P["band_leak_tol"]
        a, J = scale_window(basis)
        lhs = besov_table(Ch[:, keep], lhs_spq, pou, basis, J)
        bf = besov_table(Cf[:, keep], f_spq, pou, basis, J)
        bg = besov_table(Cg[:, keep], g_spq, pou, basis, J)
        out = {}
        for i, (s, p, q, p1, p2, p3, p4) in enumerate(_LEIBNIZ_TUPLES):
            rhs = (bf[i] * lp_columns(G[:, keep], w, p2)
                   + lp_columns(F[:, keep], w, p3) * bg[i])
            out[f"s{s:g}_p{p:g}"] = float(np.max(lhs[i] / rhs))
        # Homogeneous variant on mean-removed inputs.
        Cfz, Cgz = Cf.copy(), Cg.copy()
        Cfz[0] = Cgz[0] = 0.0
        Fz, Gz = to_grid(Cfz, basis), to_grid(Cgz, basis)
        Hz = Fz * Gz
        Chz = to_coeffs(Hz, basis)
        p2, p3 = _LEIBNIZ_TUPLES[0][4:6]
        lhs = besov_table(Chz, lhs_spq[:1], pou, basis, J, j_min=a, include_cap=False)[0]
        rhs = (besov_table(Cfz, f_spq[:1], pou, basis, J, j_min=a, include_cap=False)[0]
               * lp_columns(Gz, w, p2)
               + lp_columns(Fz, w, p3)
               * besov_table(Cgz, g_spq[:1], pou, basis, J, j_min=a, include_cap=False)[0])
        out["hom"] = float(np.max(lhs / rhs))
        return out, discarded

    pou = partition_for(spec)
    (base, disc), (fine, _) = run(coarse, pou), run(refined, pou)
    other = "perturbed" if spec.pou_variant == "standard" else "standard"
    swap, _ = run(coarse, make_partition(other))
    drift_refine, drift_swap = relative_drift(base, fine), relative_drift(base, swap)

    checks = {"refinement_drift": max(drift_refine.values()) <= P["stability_tol"],
              "variant_drift": max(drift_swap.values()) <= P["stability_tol"],
              "band_leak": disc == 0}
    return conclude(
        spec, P, checks,
        points=[{"case": k, "C": v, "C_refined": fine[k], "C_variant": swap[k]}
                for k, v in base.items()],
        fit={"C_emp": base, "drift_refine": drift_refine,
             "drift_swap": drift_swap, "discarded": disc},
    )


# ---------------------------------------------------------------------------
# Partition independence


PARTITION_DEFAULTS = {
    "n_samples": 100,
    "ratio_lo": 1.0 / 3.0,
    "ratio_hi": 3.0,
    "drift_tol": 0.10,
    "s_table": (-1.0, 0.0, 1.0, 2.0),
    "pq_table": (1.0, 2.0, np.inf),
}


def exp_partition_independence(spec: ExperimentSpec) -> EstimateReport:
    """Besov norms computed with the two partition variants agree up to a
    bounded ratio, uniformly over a grid of (s, p, q)."""
    P = spec.merged(PARTITION_DEFAULTS) | {"pou": ("standard", "perturbed")}
    pou_a, pou_b = map(make_partition, P["pou"])
    rng = np.random.default_rng(spec.seed)
    coarse, refined = refinement_pair()
    C0 = coeff_batch(rng, refined.K, P["n_samples"], k_max=48, decay=0.05)
    spq = list(itertools.product(P["s_table"], P["pq_table"], P["pq_table"]))

    def table(basis):
        C = C0[: basis.K]
        _, J = scale_window(basis)
        r = besov_table(C, spq, pou_a, basis, J) / besov_table(C, spq, pou_b, basis, J)
        return dict(zip(spq, r.min(axis=1).tolist())), dict(zip(spq, r.max(axis=1).tolist()))

    (lo, hi), (_, hi_fine) = table(coarse), table(refined)
    drift = relative_drift(hi, hi_fine)
    worst_lo, worst_hi, worst_drift = min(lo.values()), max(hi.values()), max(drift.values())
    points = [{"s": s, "p": p, "q": q, "ratio_min": lo[s, p, q], "ratio_max": hi[s, p, q],
               "ratio_max_refined": hi_fine[s, p, q], "drift": drift[s, p, q]}
              for s, p, q in spq]
    checks = {"ratio_min": worst_lo >= P["ratio_lo"],
              "ratio_max": worst_hi <= P["ratio_hi"],
              "refinement_drift": worst_drift <= P["drift_tol"]}
    return conclude(
        spec, P, checks,
        points=points,
        fit={"ratio_min": worst_lo, "ratio_max": worst_hi,
             "max_drift": worst_drift},
    )
