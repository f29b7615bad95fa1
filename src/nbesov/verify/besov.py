"""Experiments on the Besov machinery itself: reconstruction from blocks,
embeddings between the spaces, duality pairings, the fractional Leibniz
rule, and independence of the norms from the partition choice."""

from __future__ import annotations

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
    return conclude(
        spec, checks,
        params={"n_samples": P["n_samples"], "tol": P["tol"],
                "pou": spec.pou_variant},
        points=points, fit=fits,
    )


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
    C0 = coeff_batch(rng, P["k_max"], P["n_samples"], decay=0.05)

    def ratios(basis):
        K = basis.K
        C = np.zeros((K, C0.shape[1]))
        C[: P["k_max"]] = C0
        F = to_grid(C, basis)
        w = basis.grid.weights
        _, J = scale_window(basis)
        out = {}
        b02 = besov_table(C, 0.0, 2.0, 2.0, pou, basis, J)
        l2 = lp_columns(F, w, 2.0)
        out["b022_vs_l2_hi"] = float(np.max(b02 / l2))
        out["b022_vs_l2_lo"] = float(np.max(l2 / b02))
        # Lifting by (I + H)^{s0/2}, s0 = +1 and -1, at s = 1.
        lam = basis.eigenvalues
        b1 = besov_table(C, 1.0, 2.0, 2.0, pou, basis, J)
        for s0 in (1.0, -1.0):
            CL = (1.0 + lam[:, None]) ** (s0 / 2.0) * C
            target = besov_table(CL, 1.0 - s0, 2.0, 2.0, pou, basis, J)
            out[f"lift_{s0:+g}"] = float(np.max(target / b1))
        # Epsilon-loss against the explicit geometric constant.
        eps = 0.5
        bsum = besov_table(C, 0.0, 2.0, 1.0, pou, basis, J)
        bsup = besov_table(C, eps, 2.0, np.inf, pou, basis, J)
        out["eps_loss"] = float(np.max(bsum / bsup))
        out["eps_loss_bound"] = 1.0 + sum(2.0 ** (-eps * j) for j in range(1, J + 1))
        # One-dimensional Sobolev-type gains.
        b_half_12 = besov_table(C, 0.5, 1.0, 2.0, pou, basis, J)
        out["sobolev_1to2"] = float(np.max(b02 / b_half_12))
        b_half_22 = besov_table(C, 0.5, 2.0, 2.0, pou, basis, J)
        b0_inf2 = besov_table(C, 0.0, np.inf, 2.0, pou, basis, J)
        out["sobolev_2toinf"] = float(np.max(b0_inf2 / b_half_22))
        # L^p into B^0_{p,2} for p >= 2.
        for p in (2.0, 4.0):
            bp = besov_table(C, 0.0, p, 2.0, pou, basis, J)
            out[f"lp_embed_p{p:g}"] = float(np.max(bp / lp_columns(F, w, p)))
        # l^q monotonicity is exact.
        b01 = besov_table(C, 0.0, 2.0, 1.0, pou, basis, J)
        b0inf = besov_table(C, 0.0, 2.0, np.inf, pou, basis, J)
        out["q_monotone_defect"] = float(np.max(
            np.maximum(b02 - b01, b0inf - b02) / b01))
        return out

    base = ratios(interval_basis(math.pi, 64, 512))
    fine = ratios(interval_basis(math.pi, 128, 1024))

    checks = {
        "b022_vs_l2_hi": base["b022_vs_l2_hi"] <= P["cap_l2"],
        "b022_vs_l2_lo": base["b022_vs_l2_lo"] <= P["cap_l2"],
        "eps_loss": base["eps_loss"] <= base["eps_loss_bound"] + 1e-9,
        "q_monotone": base["q_monotone_defect"] <= 1e-12,
    }
    for key in ("lift_+1", "lift_-1", "sobolev_1to2", "sobolev_2toinf",
                "lp_embed_p2", "lp_embed_p4"):
        checks[key] = base[key] <= P["cap_generic"]
    drift_keys = ("b022_vs_l2_hi", "lift_+1", "lift_-1", "sobolev_1to2",
                  "sobolev_2toinf", "lp_embed_p2", "lp_embed_p4", "eps_loss")
    drift = {k: abs(fine[k] - base[k]) / base[k] for k in drift_keys}
    checks["refinement_drift"] = max(drift.values()) <= P["drift_tol"]

    points = [{"check": k, "ratio": v, "refined": fine.get(k)}
              for k, v in base.items()]
    return conclude(
        spec, checks,
        params={"n_samples": P["n_samples"], "k_max": P["k_max"],
                "pou": spec.pou_variant},
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
    P = spec.merged(DUALITY_DEFAULTS)
    pou = partition_for(spec)
    rng = np.random.default_rng(spec.seed)
    Cf0 = coeff_batch(rng, 48, P["n_pairs"], decay=0.05)
    Cg0 = coeff_batch(rng, 48, P["n_pairs"], decay=0.05)

    def run(basis):
        K = basis.K
        Cf = np.zeros((K, Cf0.shape[1]))
        Cg = np.zeros((K, Cg0.shape[1]))
        Cf[:48], Cg[:48] = Cf0, Cg0
        _, J = scale_window(basis)
        pair = np.abs(np.sum(Cf * Cg, axis=0))  # quadrature-exact pairing
        out = {}
        for s, p, q in _DUAL_TABLE:
            nf = besov_table(Cf, s, p, q, pou, basis, J)
            ng = besov_table(Cg, -s, _conj(p), _conj(q), pou, basis, J)
            out[f"s{s:g}_p{p:g}_q{q:g}"] = float(np.max(pair / (nf * ng)))
        return out

    base = run(interval_basis(math.pi, 64, 512))
    fine = run(interval_basis(math.pi, 128, 1024))
    drift = {k: abs(fine[k] - base[k]) / base[k] for k in base}

    # Structural checks: pairing against constants vanishes for mean-zero f,
    # and the ratio is invariant under rescaling f.
    basis = interval_basis(math.pi, 64, 512)
    cz = np.zeros(basis.K)
    cz[1:5] = 1.0
    pair_const = abs(cz[0]) * math.sqrt(basis.domain.volume)
    _, J = scale_window(basis)
    scale_gap = 0.0
    for s, p, q in _DUAL_TABLE[:1]:
        n1 = besov_table(cz[:, None], s, p, q, pou, basis, J)[0]
        n2 = besov_table(2.0 * cz[:, None], s, p, q, pou, basis, J)[0]
        scale_gap = abs(n2 / n1 - 2.0)

    checks = {k: v <= P["cap"] for k, v in base.items()}
    checks["refinement_drift"] = max(drift.values()) <= P["drift_tol"]
    checks["structural"] = pair_const <= 1e-12 and scale_gap <= 1e-12
    return conclude(
        spec, checks,
        params={"n_pairs": P["n_pairs"], "table": [list(t) for t in _DUAL_TABLE],
                "pou": spec.pou_variant},
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
    P = spec.merged(LEIBNIZ_DEFAULTS)
    rng = np.random.default_rng(spec.seed)
    kcap = P["band_cap"] + 1
    Cf0 = coeff_batch(rng, kcap, P["n_pairs"], decay=0.08)
    Cg0 = coeff_batch(rng, kcap, P["n_pairs"], decay=0.08)

    def run(basis, pou):
        w = basis.grid.weights
        K = basis.K
        Cf = np.zeros((K, Cf0.shape[1]))
        Cg = np.zeros((K, Cg0.shape[1]))
        Cf[:kcap], Cg[:kcap] = Cf0, Cg0
        F, G = to_grid(Cf, basis), to_grid(Cg, basis)
        H = F * G
        Ch = to_coeffs(H, basis)
        # Band check: the product must re-analyze losslessly.
        Hback = to_grid(Ch, basis)
        leak = np.sqrt(w @ (H - Hback) ** 2) / np.sqrt(w @ H**2)
        discarded = int(np.sum(leak > P["band_leak_tol"]))
        keep = leak <= P["band_leak_tol"]
        a, J = scale_window(basis)
        out = {}
        for s, p, q, p1, p2, p3, p4 in _LEIBNIZ_TUPLES:
            lhs = besov_table(Ch[:, keep], s, p, q, pou, basis, J)
            rhs = (besov_table(Cf[:, keep], s, p1, q, pou, basis, J)
                   * lp_columns(G[:, keep], w, p2)
                   + lp_columns(F[:, keep], w, p3)
                   * besov_table(Cg[:, keep], s, p4, q, pou, basis, J))
            out[f"s{s:g}_p{p:g}"] = float(np.max(lhs / rhs))
        # Homogeneous variant on mean-removed inputs.
        Cfz, Cgz = Cf.copy(), Cg.copy()
        Cfz[0] = Cgz[0] = 0.0
        Fz, Gz = to_grid(Cfz, basis), to_grid(Cgz, basis)
        Hz = Fz * Gz
        Chz = to_coeffs(Hz, basis)
        s, p, q, p1, p2, p3, p4 = _LEIBNIZ_TUPLES[0]
        lhs = besov_table(Chz, s, p, q, pou, basis, J, j_min=a, include_cap=False)
        rhs = (besov_table(Cfz, s, p1, q, pou, basis, J, j_min=a, include_cap=False)
               * lp_columns(Gz, w, p2)
               + lp_columns(Fz, w, p3)
               * besov_table(Cgz, s, p4, q, pou, basis, J, j_min=a, include_cap=False))
        out["hom"] = float(np.max(lhs / rhs))
        return out, discarded

    pou = partition_for(spec)
    base, disc = run(interval_basis(math.pi, 64, 512), pou)
    fine, _ = run(interval_basis(math.pi, 128, 1024), pou)
    other = "perturbed" if spec.pou_variant == "standard" else "standard"
    swap, _ = run(interval_basis(math.pi, 64, 512), make_partition(other))
    drift_refine = {k: abs(fine[k] - base[k]) / base[k] for k in base}
    drift_swap = {k: abs(swap[k] - base[k]) / base[k] for k in base}

    checks = {"refinement_drift": max(drift_refine.values()) <= P["stability_tol"],
              "variant_drift": max(drift_swap.values()) <= P["stability_tol"],
              "band_leak": disc == 0}
    return conclude(
        spec, checks,
        params={"n_pairs": P["n_pairs"], "band_cap": P["band_cap"],
                "tuples": _LEIBNIZ_TUPLES,
                "pou": spec.pou_variant},
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
    P = spec.merged(PARTITION_DEFAULTS)
    pou_a = make_partition("standard")
    pou_b = make_partition("perturbed")
    rng = np.random.default_rng(spec.seed)
    C0 = coeff_batch(rng, 48, P["n_samples"], decay=0.05)

    def table(basis):
        K = basis.K
        C = np.zeros((K, C0.shape[1]))
        C[:48] = C0
        _, J = scale_window(basis)
        out = {}
        for s in P["s_table"]:
            for p in P["pq_table"]:
                for q in P["pq_table"]:
                    na = besov_table(C, s, p, q, pou_a, basis, J)
                    nb = besov_table(C, s, p, q, pou_b, basis, J)
                    r = na / nb
                    out[(s, p, q)] = (float(r.min()), float(r.max()))
        return out

    base = table(interval_basis(math.pi, 64, 512))
    fine = table(interval_basis(math.pi, 128, 1024))

    points, worst_lo, worst_hi, worst_drift = [], math.inf, 0.0, 0.0
    for key, (lo, hi) in base.items():
        flo, fhi = fine[key]
        drift = abs(fhi - hi) / hi
        worst_lo, worst_hi = min(worst_lo, lo), max(worst_hi, hi)
        worst_drift = max(worst_drift, drift)
        s, p, q = key
        points.append({"s": s, "p": p, "q": q, "ratio_min": lo,
                       "ratio_max": hi, "ratio_max_refined": fhi,
                       "drift": drift})
    checks = {"ratio_min": worst_lo >= P["ratio_lo"],
              "ratio_max": worst_hi <= P["ratio_hi"],
              "refinement_drift": worst_drift <= P["drift_tol"]}
    return conclude(
        spec, checks,
        params={"n_samples": P["n_samples"],
                "s_table": list(P["s_table"]),
                "pq_table": P["pq_table"]},
        points=points,
        fit={"ratio_min": worst_lo, "ratio_max": worst_hi,
             "max_drift": worst_drift},
    )
