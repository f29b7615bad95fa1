import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbesov.littlewood_paley import (
    VARIANTS,
    PartitionOfUnity,
    make_partition,
    partition_sum,
)


@pytest.fixture(params=VARIANTS)
def pou(request):
    return make_partition(request.param)


def test_chi_endpoint_values(pou):
    """The cutoff saturates exactly: 1 on the plateau, 0 past the support."""
    lam = np.array([0.0, 0.5 * pou.plateau, pou.plateau])
    np.testing.assert_array_equal(pou.chi(lam), 1.0)
    np.testing.assert_array_equal(pou.chi(np.array([2.0, 3.0, 1e9])), 0.0)


def test_chi_monotone(pou):
    lam = np.linspace(0.0, 2.5, 2001)
    vals = pou.chi(lam)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_phi0_support(pou):
    """Zero outside the declared support; positive on the trimmed interior
    (within ~1% of an edge the step function underflows to an exact 0)."""
    lo, hi = pou.phi0_support
    inside = np.linspace(lo * 1.1, hi * 0.9, 500)
    assert np.all(pou.phi0(inside) > 0.0)
    outside = np.array([0.0, lo * 0.99, lo, hi, hi * 1.01, 50.0])
    np.testing.assert_array_equal(pou.phi0(outside), 0.0)


def test_partition_sum_is_one(pou):
    lam = np.geomspace(1e-6, 1e6, 10_000)
    defect = np.max(np.abs(partition_sum(pou, lam) - 1.0))
    assert defect < 1e-12


def test_cap_plus_blocks_is_one(pou):
    """psi(mu) + sum_{j>=1} phi_j(sqrt(mu)) = 1 for mu in the covered band."""
    mu = np.geomspace(1e-8, 2.0**40, 5000)
    mu = np.concatenate([[0.0], mu])
    total = pou.psi(mu)
    for j in range(1, 22):
        total = total + pou.phi(j, np.sqrt(mu))
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)


def test_smoothness_witness(pou):
    """Sampled second differences of the cutoff stay bounded."""
    lam = np.linspace(0.3, 2.2, 4001)
    h = lam[1] - lam[0]
    vals = pou.chi(lam)
    d2 = np.abs(np.diff(vals, 2)) / h**2
    assert np.max(d2) < 1e3


def test_variants_differ():
    a, b = make_partition("standard"), make_partition("perturbed")
    assert a.plateau != b.plateau
    x = np.linspace(0.4, 1.3, 100)
    assert np.max(np.abs(a.phi0(x) - b.phi0(x))) > 0.05


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        make_partition("bogus")


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_partition_sum_pointwise(lam):
    pou = make_partition("standard")
    total = partition_sum(pou, np.array([lam]))[0]
    assert abs(total - 1.0) < 1e-12


def test_broken_scaling_is_detected():
    base = make_partition("standard")
    broken = PartitionOfUnity(
        variant="broken",
        chi=lambda lam: 0.9 * base.chi(lam),
        plateau=base.plateau,
    )
    lam = np.geomspace(1e-3, 1e3, 500)
    defect = np.max(np.abs(partition_sum(broken, lam) - 1.0))
    np.testing.assert_allclose(defect, 0.1, rtol=1e-12)
