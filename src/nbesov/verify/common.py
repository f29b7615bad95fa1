"""Shared plumbing for the verification experiments.

Experiments are pure functions from an ExperimentSpec to an EstimateReport.
Everything here is deterministic given the spec's seed: random draws come
from a generator seeded per experiment, and reductions over parameter grids
preserve a fixed order.  interval_basis and rectangle_basis are lru_cached:
one deterministic build per argument tuple, shared by every experiment of
the suite, so experiments must not mutate the bases they return.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from ..domains import EigenBasis, build_interval_basis, build_rectangle_basis
from ..littlewood_paley import PartitionOfUnity, make_partition
from ..reports import FAIL, INCONCLUSIVE, PASS, EstimateReport
from ..spectral import to_grid

__all__ = [
    "ExperimentSpec",
    "interval_basis",
    "rectangle_basis",
    "coeff_batch",
    "geometric_spread",
    "partition_for",
    "resynthesis_residual",
    "conclude",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Experiment id, RNG seed, and keyword overrides for its defaults."""

    id: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    pou_variant: str = "standard"

    def merged(self, defaults: dict) -> dict:
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(f"unknown parameters for {self.id}: {sorted(unknown)}")
        out = dict(defaults)
        out.update(self.params)
        return out

    def with_params(self, **kw) -> "ExperimentSpec":
        merged = dict(self.params)
        merged.update(kw)
        return replace(self, params=merged)


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
    mean_zero: bool = False,
) -> NDArray:
    """(K, n_samples) spectral coefficients with geometric damping in k."""
    k_max = K if k_max is None else min(k_max, K)
    C = np.zeros((K, n_samples))
    amp = np.exp(-decay * np.arange(k_max))
    C[:k_max] = rng.standard_normal((k_max, n_samples)) * amp[:, None]
    if mean_zero:
        C[0] = 0.0
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
    sq = np.sqrt(np.maximum(lam, 0.0))
    rec = to_grid(pou.psi(lam)[:, None] * C, basis) if cap else np.zeros_like(F)
    for j in js:
        rec += to_grid(pou.phi(j, sq)[:, None] * C, basis)
    w = basis.grid.weights
    return np.sqrt(w @ (F - rec) ** 2) / np.sqrt(w @ F**2)


def conclude(
    spec: ExperimentSpec,
    checks: dict,
    unresolved: str | None = None,
    notes=(),
    **fields,
) -> EstimateReport:
    """The experiment's report, with id and seed from the spec.

    checks maps each named check to whether it passed, in report order.
    Any failed check gives fail; otherwise an unresolved reason gives
    inconclusive; otherwise pass.  After the caller's notes comes one
    "failed: a; b" note naming the failed checks, or the reason when it
    decided the verdict.  fields go to EstimateReport unchanged.
    """
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        verdict, last = FAIL, ["failed: " + "; ".join(failed)]
    elif unresolved:
        verdict, last = INCONCLUSIVE, [unresolved]
    else:
        verdict, last = PASS, []
    return EstimateReport(id=spec.id, seed=spec.seed, verdict=verdict,
                          notes=list(notes) + last, **fields)
