import math

import numpy as np
import pytest

from nbesov.domains import (build_fd_basis, build_interval_basis, build_rectangle_basis,
                            lshape_domain)
from nbesov.spectral import OperatorKernel, SymbolFn, heat_kernel, multiplier_kernel
from nbesov.verify.heat import HEAT_DEFAULTS, _domain_scan


def _per_pair_scan(basis, ts, cs, P, dim):
    """Reference: the envelope scan that masks every pair for every c."""
    x = basis.grid.points
    D2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    c_max = cs[-1]
    rows = []
    for t in ts:
        ker = heat_kernel(float(t), basis)
        tail = ker.tail_bound
        m_t = max(t ** (-dim / 2.0), 1.0)
        Kt = ker.matrix
        floor = max(tail, 1e-14 * float(np.max(np.diag(Kt))))
        L = math.log(max(m_t / (P["tail_margin"] * floor), 1e-300)) if floor > 0 else math.inf
        decidable = D2 <= c_max * t * L
        frac = float(decidable.mean())
        admissible = (tail <= P["tail_abs_frac"] * m_t) and (frac >= P["min_pair_frac"])
        pos_margin = float(Kt.min()) + tail
        logC = np.full(len(cs), -np.inf)
        pos = Kt > 0
        if np.any(pos):
            base_all = np.log(Kt[pos]) - math.log(m_t)
            d2_all = D2[pos]
            for i, c in enumerate(cs):
                sel = d2_all <= c * t * L
                if np.any(sel):
                    logC[i] = float(np.max(base_all[sel] + d2_all[sel] / (c * t)))
        # K_t - 1/|Omega| as the kernel of the heat symbol without the
        # lambda = 0 mode, not as a difference of nearly equal numbers.
        projected = SymbolFn(fn=lambda lam, t=t: np.where(lam > 0, np.exp(-t * lam), 0.0),
                             tag="projected heat")
        pk_max = float(np.max(np.abs(multiplier_kernel(projected, basis).matrix)))
        rows.append({
            "t": float(t), "tail": float(tail), "admissible": bool(admissible),
            "pair_frac": frac, "pos_margin": pos_margin, "logC": logC,
            "pk_max": pk_max, "k_diag_max": float(np.max(np.diag(Kt))),
        })
    return rows


def _cs():
    P = HEAT_DEFAULTS
    n_c = int(math.ceil(math.log(P["c_hi"] / P["c_lo"]) / math.log(P["c_step"]))) + 1
    return P["c_lo"] * P["c_step"] ** np.arange(n_c)


def _ts(basis, n_t=14):
    # Start below the experiment's h^2 so that the smallest t leave every
    # pair undecidable and log C at -inf.
    return np.logspace(math.log10(basis.grid.h**2) - 2, math.log10(HEAT_DEFAULTS["t_max"]), n_t)


def _scan_pairs(basis, dim, n_t):
    """(grouped row, per-pair row) for every t, after checking that the
    window covers decided, partly decided and undecided scans and that every
    field but log C is exactly equal."""
    got = _domain_scan(basis, _ts(basis, n_t), _cs(), HEAT_DEFAULTS, dim)
    ref = _per_pair_scan(basis, _ts(basis, n_t), _cs(), HEAT_DEFAULTS, dim)
    assert len(got) == len(ref)
    logC = np.stack([r["logC"] for r in ref])
    assert np.isfinite(logC).any() and np.isinf(logC).any()
    assert any(0 < r["pair_frac"] < 1 for r in ref)
    for g, r in zip(got, ref):
        assert g.keys() == r.keys()
        for key in r.keys() - {"logC"}:
            assert type(g[key]) is type(r[key]) and g[key] == r[key], key
    return zip(got, ref)


def _rectangle():
    return build_rectangle_basis(math.pi, 2.0, 20, Nx=8, Ny=6)


# On the square the partly decided times lie in 0.1 < t < 0.17, which the
# 14-point window steps over; 15 points put t = 0.124 there.
@pytest.mark.parametrize("basis, n_t", [
    pytest.param(lambda: build_interval_basis(math.pi, 24, N=48), 14, id="48"),
    pytest.param(lambda: build_interval_basis(math.pi, 24, N=49), 14, id="49"),
    pytest.param(_rectangle, 14, id="rectangle"),
    pytest.param(lambda: build_rectangle_basis(math.pi, math.pi, 20, Nx=8, Ny=8), 15,
                 id="square"),
])
def test_interval_profile_scan_matches_per_pair_scan(basis, n_t):
    """Offset groups agree with the per-pair scan to roundoff in log C (the
    sum (d h)^2 of an offset differs from the pairwise squared distances by
    ulps) and exactly in everything else, on both analytic grids."""
    basis = basis()
    for g, r in _scan_pairs(basis, basis.domain.n, n_t):
        np.testing.assert_allclose(g["logC"], r["logC"], rtol=1e-12, atol=0.0)
        assert np.array_equal(np.isinf(g["logC"]), np.isinf(r["logC"]))


@pytest.mark.parametrize("basis", [
    pytest.param(lambda: build_interval_basis(math.pi, 24, N=48), id="interval"),
    pytest.param(_rectangle, id="rectangle"),
])
def test_interval_scan_forms_no_kernel(monkeypatch, basis):
    """The scan reads each heat kernel's profile; forming the dense (N, N)
    matrix would read OperatorKernel.matrix."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense kernel formed")

    monkeypatch.setattr(OperatorKernel, "matrix", property(refuse))
    basis = basis()
    rows = _domain_scan(basis, _ts(basis), _cs(), HEAT_DEFAULTS, basis.domain.n)
    assert len(rows) == 14 and any(r["admissible"] for r in rows)


def test_scan_rejects_a_finite_difference_basis():
    basis = build_fd_basis(lshape_domain(), 0.25, 12)
    with pytest.raises(ValueError, match="numeric basis on polygon"):
        _domain_scan(basis, _ts(basis), _cs(), HEAT_DEFAULTS, 2)
