"""Spectral functional calculus and norm verification for the Neumann
Laplacian on model domains."""

from .domains import (
    Domain,
    EigenBasis,
    Grid,
    build_fd_basis,
    build_interval_basis,
    build_rectangle_basis,
    interval_domain,
    load_basis,
    lp_norm,
    lshape_domain,
    rectangle_domain,
    save_basis,
)
from .littlewood_paley import (
    PartitionOfUnity,
    make_partition,
    partition_sum,
)
from .spectral import (
    GridFunction,
    OperatorKernel,
    SpectralCoeffs,
    SymbolFn,
    analyze,
    apply_kernel,
    apply_multiplier,
    endpoint_norms,
    gradient,
    heat_kernel,
    multiplier_kernel,
    resolvent_gamma,
    synthesize,
)

__version__ = "0.1.0"
