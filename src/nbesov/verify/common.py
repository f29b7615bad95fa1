"""Shared plumbing for the verification experiments.

Experiments are pure functions from an ExperimentSpec to an EstimateReport.
Everything here is deterministic given the spec's seed: random draws come
from a generator seeded per experiment, and reductions over parameter grids
preserve a fixed order.  interval_basis and rectangle_basis are lru_cached:
one deterministic build per argument tuple, shared by the experiments that
call them (not heat or multipliers), which must not mutate what they get.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from ..domains import EigenBasis, build_interval_basis, build_rectangle_basis, lp_columns
from ..littlewood_paley import PartitionOfUnity, make_partition
from ..reports import FAIL, INCONCLUSIVE, PASS, EstimateReport
from ..spectral import block_symbol, cap_symbol, to_grid

__all__ = [
    "ExperimentSpec",
    "interval_basis",
    "rectangle_basis",
    "coeff_batch",
    "geometric_spread",
    "partition_for",
    "resynthesis_residual",
    "refinement_pair",
    "relative_drift",
    "TAIL_FRAC",
    "screened_fit",
    "record_claim",
    "conclude",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Experiment id, RNG seed, and keyword overrides for its defaults."""

    id: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    pou_variant: str = "standard"
    _TYPES = {int: Integral, float: Real, type(None): Real | None, tuple: list | tuple}

    def merged(self, defaults: dict) -> dict:
        """defaults | params, each override of a type _TYPES allows for its default, no bool."""
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(f"unknown parameters for {self.id}: {sorted(unknown)}")
        for key, value in self.params.items():
            want = self._TYPES.get(type(defaults[key]), type(defaults[key]))
            if isinstance(value, bool) or not isinstance(value, want):
                raise ValueError(f"parameter {key}={value!r} for {self.id} does not have "
                                 f"the type of its default {defaults[key]!r}")
        return defaults | self.params


@lru_cache(maxsize=32)
def interval_basis(L: float, K: int, N: int) -> EigenBasis:
    return build_interval_basis(L, K, N=N)


@lru_cache(maxsize=32)
def rectangle_basis(Lx: float, Ly: float, K: int, Nx: int, Ny: int) -> EigenBasis:
    return build_rectangle_basis(Lx, Ly, K, Nx=Nx, Ny=Ny)


def coeff_batch(
    rng: np.random.Generator,
    K: int,
    n_samples: int,
    k_max: int | None = None,
    decay: float = 0.1,
) -> NDArray:
    """(K, n_samples) spectral coefficients with geometric damping in k."""
    k_max = K if k_max is None else min(k_max, K)
    C = np.zeros((K, n_samples))
    amp = np.exp(-decay * np.arange(k_max))
    C[:k_max] = rng.standard_normal((k_max, n_samples)) * amp[:, None]
    return C


def geometric_spread(values) -> float:
    """max/min of a positive sequence (inf when it touches zero)."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size == 0 or v.min() <= 0:
        return float("inf")
    return float(v.max() / v.min())


def partition_for(spec: ExperimentSpec) -> PartitionOfUnity:
    return make_partition(spec.pou_variant)


def resynthesis_residual(F: NDArray, C: NDArray, basis: EigenBasis, pou: PartitionOfUnity,
                         js, cap: bool = True) -> NDArray:
    """Relative L^2 gap ||F - R|| / ||F|| of every column of the (N, S)
    fields F, where R resynthesizes the (K, S) coefficients C as the cap
    psi(H) C (when cap) plus the blocks phi_j(sqrt H) C, j in js, added in
    that order."""
    lam = basis.eigenvalues
    rec = to_grid(cap_symbol(pou)(lam)[:, None] * C, basis) if cap else np.zeros_like(F)
    for j in js:
        rec += to_grid(block_symbol(pou, j)(lam)[:, None] * C, basis)
    w = basis.grid.weights
    return lp_columns(F - rec, w, 2.0) / lp_columns(F, w, 2.0)


def refinement_pair() -> tuple[EigenBasis, EigenBasis]:
    """The interval basis refinement checks start from, and its refinement by 2."""
    return interval_basis(np.pi, 64, 512), interval_basis(np.pi, 128, 1024)


def relative_drift(base: dict, other: dict, keys=None) -> dict:
    """{k: |other[k] - base[k]| / base[k]} over keys (default: all of base's)."""
    return {k: abs(other[k] - base[k]) / base[k] for k in keys or base}


# A sweep point enters a fit only when its truncation tail bound is at most
# this share of its measured value.
TAIL_FRAC = 0.05


class ScreenedFit(NamedTuple):
    """What screened_fit returns; below two kept points every number is nan."""

    kept: NDArray
    note: str | None
    unresolved: str | None
    slope: float
    lo: float
    hi: float
    spread: float
    spread_hi: float

    def within(self, target: float, tol: float) -> bool:
        """Whether the slope range [lo, hi] lies inside target -/+ tol."""
        return target - tol <= self.lo and self.hi <= target + tol


def screened_fit(label: str, x, values, tails, min_points: int = 2) -> ScreenedFit:
    """Screen a sweep of (x, value, tail) points and fit the kept ones: the
    one rule for every fitted slope or rate (verify.amalgam, verify.heat,
    verify.moments, verify.multipliers).

    A point is kept when its tail is at most TAIL_FRAC of its value and that
    value is positive.  note names the dropped x, one clause per cause, and
    unresolved gives the reason when fewer than min_points are kept (each
    None otherwise); label names x in both.  From two kept points on, slope
    is the least-squares slope w . log v of log value against u = log x,
    w = (u - mean u) / |u - mean u|^2, and [lo, hi] its exact range over
    the boxes [v - tail, v + tail]: each end takes every log v_i at the end
    of its box that the sign of w_i picks.  spread is max/min of the kept
    values and spread_hi its upper end, max(v + tail) / min(v - tail).
    """
    x, v, t = (np.asarray(a, dtype=float) for a in (x, values, tails))
    small = t <= TAIL_FRAC * v
    kept = small & (v > 0)
    causes = {f"the truncation tail exceeds {TAIL_FRAC:.0%} of the value there": ~small,
              "the value there is not positive": small & ~kept}
    note = "; ".join(f"dropped {label} = {', '.join(f'{d:.3g}' for d in x[out])}: {cause}"
                     for cause, out in causes.items() if out.any()) or None
    n = int(kept.sum())
    reason = (f"{label}: {n} of {kept.size} kept; a fit needs {min_points}"
              if n < min_points else None)
    if n < 2:
        return ScreenedFit(kept, note, reason, *[np.nan] * 5)
    v, t, u = v[kept], t[kept], np.log(x[kept])
    w = (u - u.mean()) / np.sum((u - u.mean()) ** 2)
    down, up = np.log(v - t), np.log(v + t)
    return ScreenedFit(kept, note, reason, float(w @ np.log(v)),
                       float(w @ np.where(w > 0, down, up)), float(w @ np.where(w > 0, up, down)),
                       geometric_spread(v), float(np.max(v + t) / np.min(v - t)))


def record_claim(fit: ScreenedFit, name: str, ok, checks: dict, notes: list, unresolved: list):
    """Record one sweep claim: fit's note in notes, then its unresolved
    reason in unresolved or, when it has none, checks[name] = ok."""
    notes.extend([fit.note] if fit.note else [])
    if fit.unresolved:
        unresolved.append(fit.unresolved)
    else:
        checks[name] = ok


def conclude(
    spec: ExperimentSpec,
    P: dict,
    checks: dict,
    unresolved: str | None = None,
    notes=(),
    **fields,
) -> EstimateReport:
    """The experiment's report, with id and seed from the spec.

    params records the spec's partition variant under "pou", then P, the
    parameters the experiment ran with (spec.merged(defaults) plus any
    module constant that defines its claim); a "pou" in P names the
    partition the experiment used instead.  checks maps each named check
    to whether it passed, in report order.  Any failed check gives fail;
    otherwise an unresolved reason gives inconclusive; otherwise pass.
    After the caller's notes comes one "failed: a; b" note naming the
    failed checks, or the reason when it decided the verdict.  fields go
    to EstimateReport unchanged.
    """
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        verdict, last = FAIL, ["failed: " + "; ".join(failed)]
    elif unresolved:
        verdict, last = INCONCLUSIVE, [unresolved]
    else:
        verdict, last = PASS, []
    return EstimateReport(id=spec.id, seed=spec.seed, params={"pou": spec.pou_variant} | P,
                          verdict=verdict, notes=list(notes) + last, **fields)
