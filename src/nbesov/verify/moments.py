"""Vanishing moments against low-frequency block decay on the line.

A function whose first M moments vanish has dyadic block L^1 norms that
shrink like 2^(jM) as j goes to minus infinity.  The Hermite-Gaussian
family H_M(x) exp(-x^2) has exactly M vanishing moments, so the measured
decay slope of each member should match its index.

verify.common.screened_fit takes each slope of the block norms against
x = 2^j over the fit window, with zero tails: each block applies phi_j to
the whole FFT of f, so no frequency is truncated; the boundary leakage
check and the fit window cover what the grid leaves out.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import hermite

from ..reports import EstimateReport
from .common import TAIL_FRAC, ExperimentSpec, conclude, partition_for, record_claim, screened_fit

__all__ = ["exp_moment_decay"]


MOMENT_DEFAULTS = {
    "R": 512.0,
    "N": 8192,
    "orders": (0, 1, 2, 3, 4),
    "j_lo": -8,
    "j_hi": 0,
    "fit_lo": -5,
    "fit_hi": -1,
    "slope_tol": 0.5,
    "top_order_floor": 3.5,
    "moment_tol": 1e-10,
    "boundary_tol": 1e-10,
}


def _hermite_gaussian(M: int, x: np.ndarray) -> np.ndarray:
    coeffs = np.zeros(M + 1)
    coeffs[M] = 1.0
    return hermite.hermval(x, coeffs) * np.exp(-(x**2))


def exp_moment_decay(spec: ExperimentSpec) -> EstimateReport:
    P = spec.merged(MOMENT_DEFAULTS)
    pou = partition_for(spec)
    R, N = P["R"], P["N"]
    h = 2.0 * R / N
    x = -R + h * (np.arange(N) + 0.5)
    xi = 2.0 * np.pi * np.fft.rfftfreq(N, d=h)
    js = list(range(P["j_lo"], P["j_hi"] + 1))
    fit_js = [j for j in js if P["fit_lo"] <= j <= P["fit_hi"]]

    points, figures, notes, checks, unresolved = [], {}, [], {}, []
    slopes, sup_consts = {}, {}
    boundary_leak = 0.0
    for M in P["orders"]:
        f = _hermite_gaussian(M, x)
        leak = float(np.max(np.abs(f[[0, -1]])))
        boundary_leak = max(boundary_leak, leak)
        moments = np.array([h * np.sum(x**m * f) for m in range(6)])
        n_vanish = 0
        while n_vanish < 6 and abs(moments[n_vanish]) < P["moment_tol"]:
            n_vanish += 1
        fhat = np.fft.rfft(f)
        norms = []
        for j in js:
            block = np.fft.irfft(fhat * pou.phi(j, np.abs(xi)), n=N)
            norms.append(float(h * np.sum(np.abs(block))))
        norms = np.asarray(norms)
        fit = screened_fit(f"M={M} 2^j", 2.0 ** np.array(fit_js, dtype=float),
                           [norms[js.index(j)] for j in fit_js], np.zeros(len(fit_js)))
        slopes[M] = fit.slope
        sup_consts[M] = float(np.max(norms * 2.0 ** (-M * np.asarray(js, dtype=float))))
        for j, v in zip(js, norms):
            points.append({"M": M, "j": j, "block_l1": v})
        points.append({"M": M, "slope": fit.slope, "vanishing_moments": n_vanish,
                       "first_nonzero_moment": float(moments[min(n_vanish, 5)]),
                       "sup_scaled": sup_consts[M]})
        figures[f"block_l1_M{M}"] = (np.asarray(js, dtype=float), norms)
        checks[f"M={M} vanishing moments"] = n_vanish == M
        if M < max(P["orders"]):
            record_claim(fit, f"M={M} slope", fit.within(M, P["slope_tol"]), checks, notes,
                         unresolved)
        else:
            record_claim(fit, f"M={M} slope floor", fit.lo >= P["top_order_floor"], checks,
                         notes, unresolved)

    checks["boundary leakage"] = boundary_leak <= P["boundary_tol"]
    notes.append(
        "slopes fitted on j in "
        f"[{P['fit_lo']}, {P['fit_hi']}]; coarser recorded blocks feel the "
        "periodization of the transform and are reported but not fitted")

    return conclude(
        spec, P | {"tail_frac": TAIL_FRAC}, checks, "; ".join(unresolved) or None, notes,
        points=points,
        fit={**{f"slope_M{M}": s for M, s in slopes.items()},
             "boundary_leak": boundary_leak},
        figures=figures,
    )
