"""Dyadic partition of unity on the frequency axis.

Builds the bump family ``phi_j(lam) = phi_0(2**-j * lam)`` together with a
low-frequency cap ``psi`` such that, exactly by construction,

    sum_{j in Z} phi_j(lam) = 1            for lam > 0,
    psi(lam**2) + sum_{j >= 1} phi_j(lam) = 1   for lam >= 0.

Everything is derived from a single smooth cutoff ``chi`` with chi = 1 on
[0, a] and supp chi in [0, 2], the support end 2 being a fixed constant of
the library for every variant, assembled from the C-infinity transition
exp(-1/t).  Setting phi_0(lam) = chi(lam) - chi(2 lam) makes partial sums
telescope, so the identities above hold to machine precision rather than
being numerically tuned.  ``psi(mu) = chi(sqrt(mu))`` caps the low end when
the calculus is driven by the operator variable mu = lam**2.

Two admissible variants are provided: ``standard`` (plateau edge a = 1, so
supp phi_0 = [1/2, 2]) and ``perturbed`` (a = 1.2, supp phi_0 = [0.6, 2]).
Norm equivalences between the two are what the verification experiments
probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "PartitionOfUnity",
    "make_partition",
    "partition_sum",
    "VARIANTS",
]

VARIANTS = ("standard", "perturbed")

# Plateau edge of chi per variant; the support end is fixed.
_PLATEAU = {"standard": 1.0, "perturbed": 1.2}
_SUPPORT_END = 2.0


def _smooth_step(t: NDArray) -> NDArray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing between.

    Built from g(t) = exp(-1/t) as g(t) / (g(t) + g(1-t)).  Evaluated in a
    way that never divides by zero and underflows gracefully at the ends.
    """
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.empty_like(t)
    out[lo] = 0.0
    out[hi] = 1.0
    if np.any(mid):
        tm = t[mid]
        with np.errstate(divide="ignore", over="ignore"):
            g = np.exp(-1.0 / tm)
            gc = np.exp(-1.0 / (1.0 - tm))
        out[mid] = g / (g + gc)
    return out


def _make_chi(plateau: float) -> Callable[[NDArray], NDArray]:
    """Smooth cutoff chi: 1 on [0, plateau], 0 beyond 2, monotone."""
    width = _SUPPORT_END - plateau

    def chi(lam: NDArray) -> NDArray:
        lam = np.asarray(lam, dtype=float)
        return 1.0 - _smooth_step((lam - plateau) / width)

    return chi


@dataclass(frozen=True)
class PartitionOfUnity:
    """Smooth dyadic partition, carrying its base bump and low-frequency cap.

    Attributes
    ----------
    variant : str
        Construction tag ("standard" or "perturbed"; tests may build ad-hoc
        broken instances directly).
    chi : callable
        The underlying cutoff, 1 near zero, supported in [0, 2].
    plateau : float
        chi's plateau edge; supp phi_0 = [plateau/2, 2] up to the
        telescoping difference.
    """

    variant: str
    chi: Callable[[NDArray], NDArray]
    plateau: float

    def phi0(self, lam: NDArray) -> NDArray:
        lam = np.asarray(lam, dtype=float)
        return self.chi(lam) - self.chi(2.0 * lam)

    def phi(self, j: int, lam: NDArray) -> NDArray:
        """phi_j(lam) = phi_0(2**-j lam).

        The exponent is clamped to +-2048, where it fits a C long: past that
        bound 2**-j lam lies outside supp phi_0 for every finite lam,
        clamped or not, so the values are the same.  A scaled lam that
        overflows is inf, also outside the support, and not warned about.
        """
        e = max(-2048, min(-int(j), 2048))
        with np.errstate(over="ignore"):
            scaled = np.ldexp(np.asarray(lam, dtype=float), e)
        return self.phi0(scaled)

    def psi(self, mu: NDArray) -> NDArray:
        """Low-frequency cap in the operator variable: psi(mu) = chi(sqrt(mu))."""
        mu = np.asarray(mu, dtype=float)
        return self.chi(np.sqrt(np.maximum(mu, 0.0)))

    @property
    def phi0_support(self) -> tuple[float, float]:
        return (self.plateau / 2.0, _SUPPORT_END)


def make_partition(variant: str = "standard") -> PartitionOfUnity:
    """Build a partition of unity of the given variant.

    Raises
    ------
    ValueError
        If the variant is not one of VARIANTS.
    """
    if variant not in _PLATEAU:
        raise ValueError(f"unknown partition variant {variant!r}; expected one of {VARIANTS}")
    plateau = _PLATEAU[variant]
    return PartitionOfUnity(variant=variant, chi=_make_chi(plateau), plateau=plateau)


def partition_sum(pou: PartitionOfUnity, lam: NDArray) -> NDArray:
    """sum_j phi_j(lam) over every j whose support can touch lam (lam > 0).

    Only j with 2**(j-1) < lam < 2**(j+1) can contribute; the sum covers a
    padded version of that window, so the result equals the full two-sided
    sum exactly.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("partition_sum is defined for lam > 0")
    j_lo = int(np.floor(np.log2(lam.min()))) - 2
    j_hi = int(np.ceil(np.log2(lam.max()))) + 2
    total = np.zeros_like(lam)
    for j in range(j_lo, j_hi + 1):
        total += pou.phi(j, lam)
    return total
