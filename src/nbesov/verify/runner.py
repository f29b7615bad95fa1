"""Experiment registry and suite driver."""

from __future__ import annotations

import time

from ..reports import FAIL, INCONCLUSIVE, EstimateReport
from .amalgam import exp_amalgam
from .besov import (
    exp_duality,
    exp_embeddings,
    exp_leibniz,
    exp_partition_independence,
    exp_reconstruction,
)
from .common import ExperimentSpec
from .heat import exp_heat_gaussian
from .moments import exp_moment_decay
from .multipliers import exp_gradient, exp_low_freq_decay, exp_multiplier_scaling
from .negative import (
    neg_broken_partition,
    neg_fake_eigenvalue,
    neg_reversed_inequality,
)

__all__ = ["REGISTRY", "DEFAULT_IDS", "resolve_ids", "run_suite", "suite_exit_code"]


REGISTRY = {
    "multiplier_scaling": exp_multiplier_scaling,
    "low_freq_decay": exp_low_freq_decay,
    "heat_gaussian": exp_heat_gaussian,
    "gradient": exp_gradient,
    "reconstruction": exp_reconstruction,
    "embeddings": exp_embeddings,
    "duality": exp_duality,
    "leibniz": exp_leibniz,
    "partition_independence": exp_partition_independence,
    "amalgam": exp_amalgam,
    "moment_decay": exp_moment_decay,
    # Controls below must end in a fail verdict; they are excluded from the
    # default run and exist to prove the harness can reject bad claims.
    "neg_broken_partition": neg_broken_partition,
    "neg_fake_eigenvalue": neg_fake_eigenvalue,
    "neg_reversed_inequality": neg_reversed_inequality,
}

DEFAULT_IDS = tuple(k for k in REGISTRY if not k.startswith("neg_"))

_SEED_STRIDE = 101


def resolve_ids(requested) -> list[str]:
    """Normalize requested experiment names, accepting an exp_ prefix.

    Order and duplicates follow the request; unknown names raise ValueError.
    """
    out = []
    for raw in requested:
        name = raw[4:] if raw.startswith("exp_") and raw[4:] in REGISTRY else raw
        if name not in REGISTRY:
            known = ", ".join(REGISTRY)
            raise ValueError(f"unknown experiment {raw!r}; known: {known}")
        out.append(name)
    return out


def _spec_for(name: str, base_seed: int, pou_variant: str, overrides) -> ExperimentSpec:
    index = list(REGISTRY).index(name)
    params = dict(overrides.get(name, {})) if overrides else {}
    return ExperimentSpec(
        id=name,
        seed=base_seed + _SEED_STRIDE * index,
        params=params,
        pou_variant=pou_variant,
    )


def _run_timed(spec: ExperimentSpec) -> EstimateReport:
    """Run one experiment and record its wall time on the report."""
    t0 = time.perf_counter()
    rep = REGISTRY[spec.id](spec)
    rep.runtime = time.perf_counter() - t0
    return rep


def run_suite(
    ids=None,
    base_seed: int = 0,
    out_dir: str | None = None,
    jobs: int = 1,
    pou_variant: str = "standard",
    overrides=None,
) -> list[EstimateReport]:
    """Run the requested experiments one after another and return their
    reports in request order; reports are written under out_dir when one is
    given.

    jobs is accepted for callers that pass jobs=1; any other value raises
    ValueError, because the suite runs on one thread.
    """
    if jobs != 1:
        raise ValueError(f"run_suite runs serially; jobs={jobs!r} is not 1")
    names = resolve_ids(ids if ids is not None else DEFAULT_IDS)
    reports = [_run_timed(_spec_for(n, base_seed, pou_variant, overrides)) for n in names]
    if out_dir is not None:
        for rep in reports:
            rep.save(out_dir)
    return reports


def suite_exit_code(reports) -> int:
    """3 when anything failed, else 2 when anything was inconclusive, else 0."""
    verdicts = [r.verdict for r in reports]
    if FAIL in verdicts:
        return 3
    if INCONCLUSIVE in verdicts:
        return 2
    return 0
