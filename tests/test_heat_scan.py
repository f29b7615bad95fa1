import math

import numpy as np
import pytest

from nbesov.domains import build_interval_basis, build_rectangle_basis
from nbesov.spectral import heat_kernel
from nbesov.verify.heat import HEAT_DEFAULTS, _domain_scan, _pair_dist2


def _per_pair_scan(basis, ts, cs, P, dim):
    """Reference: the envelope scan that masks every pair for every c."""
    D2 = _pair_dist2(basis.grid.points)
    vol = basis.domain.volume
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
        pk_max = float(np.max(np.abs(Kt - 1.0 / vol)))
        rows.append({
            "t": float(t), "tail": float(tail), "admissible": bool(admissible),
            "pair_frac": frac, "pos_margin": pos_margin, "logC": logC,
            "pk_max": pk_max, "k_diag_max": float(np.max(np.diag(Kt))),
        })
    return rows


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
def test_grouped_scan_is_bit_identical_to_per_pair_scan(domain):
    P = HEAT_DEFAULTS
    n_c = int(math.ceil(math.log(P["c_hi"] / P["c_lo"]) / math.log(P["c_step"]))) + 1
    cs = P["c_lo"] * P["c_step"] ** np.arange(n_c)
    if domain == "interval":
        basis, dim = build_interval_basis(math.pi, 24, N=48), 1
    else:
        basis, dim = build_rectangle_basis(math.pi, math.pi, 20, Nx=8, Ny=8), 2
    # Start below the experiment's h^2 so that the smallest t leave every
    # pair undecidable and log C at -inf.
    ts = np.logspace(math.log10(basis.grid.h**2) - 2, math.log10(P["t_max"]), 14)
    got = _domain_scan(basis, ts, cs, P, dim)
    ref = _per_pair_scan(basis, ts, cs, P, dim)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.keys() == r.keys()
        assert np.array_equal(g["logC"], r["logC"])
        for key in r.keys() - {"logC"}:
            assert type(g[key]) is type(r[key]) and g[key] == r[key], key
    # The comparison covers decided, partly decided and undecided scans.
    logC = np.stack([r["logC"] for r in ref])
    assert np.isfinite(logC).any() and np.isinf(logC).any()
    assert any(0 < r["pair_frac"] < 1 for r in ref)
