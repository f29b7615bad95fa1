"""Negative controls: deliberately broken inputs that the harness must
reject.  Each experiment here is expected to end with a fail verdict; a
pass from any of them means the checks upstream have gone soft."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..littlewood_paley import PartitionOfUnity, make_partition, partition_sum
from ..norms import besov_table
from ..reports import EstimateReport
from ..spectral import to_grid
from .common import ExperimentSpec, coeff_batch, conclude, interval_basis, resynthesis_residual
from .multipliers import exp_low_freq_decay

__all__ = [
    "neg_broken_partition",
    "neg_fake_eigenvalue",
    "neg_reversed_inequality",
]

_EXPECTED = "control: a fail verdict here is the expected outcome"
_CHI_SCALE = 0.9  # the broken partition's cutoff is chi times this


def _broken_pou() -> PartitionOfUnity:
    base = make_partition("standard")
    return PartitionOfUnity(variant="broken", chi=lambda lam: _CHI_SCALE * base.chi(lam),
                            plateau=base.plateau)


def neg_broken_partition(spec: ExperimentSpec) -> EstimateReport:
    """Cutoff rescaled by 0.9: the dyadic sum telescopes to 0.9, so both
    the partition identity and block resynthesis must come out broken."""
    pou = _broken_pou()
    P = spec.merged({}) | {"pou": pou.variant, "chi_scale": _CHI_SCALE}
    lam = np.geomspace(1e-4, 1e4, 4001)
    defect = float(np.max(np.abs(partition_sum(pou, lam) - 1.0)))

    basis = interval_basis(math.pi, 64, 512)
    rng = np.random.default_rng(spec.seed)
    C = coeff_batch(rng, basis.K, 20, decay=0.05)
    resid = float(np.max(resynthesis_residual(to_grid(C, basis), C, basis, pou, range(1, 7))))

    checks = {"partition_identity": defect < 1e-12, "resynthesis": resid < 1e-8}
    return conclude(
        spec, P, checks, notes=[_EXPECTED],
        points=[{"partition_defect": defect, "max_residual": resid}],
        fit={"partition_defect": defect, "max_residual": resid},
    )


def neg_fake_eigenvalue(spec: ExperimentSpec) -> EstimateReport:
    """Second eigenvalue faked down to 2^-12: the low-frequency decay fit
    must refuse the sub-dyadic blocks it suddenly fills."""
    rep = exp_low_freq_decay(replace(spec, params=spec.params | {
        "fake_lambda2": 2.0**-12, "domains": ("interval_pi",)}))
    rep.notes.append(_EXPECTED)
    return rep


def neg_reversed_inequality(spec: ExperimentSpec) -> EstimateReport:
    """Asserts the smoothness comparison the wrong way round, on samples
    pushed to the top of the band where the gap is widest."""
    claim = "B(s=1/2) <= 3 B(s=0)"
    P = spec.merged({}) | {"claim": claim, "modes": "32..63"}
    pou = make_partition(spec.pou_variant)
    basis = interval_basis(math.pi, 64, 512)
    rng = np.random.default_rng(spec.seed)
    C = np.zeros((basis.K, 50))
    C[32:] = rng.standard_normal((basis.K - 32, 50))
    rough, smooth = besov_table(C, [(0.0, 2.0, 2.0), (0.5, 2.0, 2.0)], pou, basis, 6)
    ratio = float(np.max(smooth / rough))
    return conclude(
        spec, P, {claim: ratio <= 3.0}, notes=[_EXPECTED],
        points=[{"max_ratio": ratio}],
        fit={"max_ratio": ratio},
    )
