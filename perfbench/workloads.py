"""The three benchmark workloads: ``suite``, ``apply`` and ``assemble``.

``suite`` runs ``nbesov.verify.run_suite`` over all 14 registry entries, as
``nbesov verify`` and the tier-1 suite fixture do.  ``apply`` and
``assemble`` are closed loops with one client: a seeded stream of library
requests on bases built, written with ``save_basis`` and read back with
``load_basis`` during set-up, as the CLI does.  The stream comes in passes;
each pass holds every (operation, basis) pair once, in a seeded order with
seeded parameters and inputs, so every pass does the same kind of work.

Every request's output is checked against an independent route (numpy on
the eigenbasis arrays, Parseval, an exact identity or a dense solver).  A
request that raises or fails its check counts as failed and the run goes
on.  One failure is a known defect of the library, kept visible on
purpose: ``spectral.gradient`` raises ``ValueError`` on every rectangle
basis because ``domains._mode_gradients`` stores ``np.outer(scalar, row)``
(a 1-D row) into a row of length Nx*Ny for modes with a == 0 or b == 0.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

# name -> (shape, constructor arguments, dyadic block indices j used on it).
# The j range keeps each block inside the basis's resolved band
# (2^(j+1) <= sqrt(lambda_K)).
BASES = {
    "i512": ("interval", {"L": math.pi, "K": 257, "N": 512}, (0, 6)),
    "i2048": ("interval", {"L": math.pi, "K": 1025, "N": 2048}, (0, 8)),
    "rect": ("rectangle", {"Lx": math.pi, "Ly": math.pi, "K": 200, "Nx": 32, "Ny": 32}, (0, 2)),
    "L05": ("lshape", {"h": 0.05, "K": 200}, (0, 3)),
    "L025": ("lshape", {"h": 0.025, "K": 200}, (0, 3)),
}

# One dense kernel on L025 (N = 4800) is 184 MB, so assemble leaves it out.
WORKLOAD_BASES = {
    "apply": ("i512", "i2048", "rect", "L05", "L025"),
    "assemble": ("i512", "i2048", "rect", "L05"),
}

WORKLOAD_OPS = {
    "apply": ("transform", "apply_multiplier", "resolvent_gamma", "besov_inhom",
              "besov_hom", "seminorm_pM", "seminorm_qM", "block_lp_table",
              "amalgam_norm", "gradient"),
    "assemble": ("block", "power_block", "cap", "resolvent", "heat", "triple_norm",
                 "kernel_roundtrip"),
}

SETUP_REPEATS = 3


def basis_nodes(name: str) -> int:
    shape, args, _ = BASES[name]
    if shape == "interval":
        return args["N"]
    if shape == "rectangle":
        return args["Nx"] * args["Ny"]
    # L-shape: three unit squares of (1/h)^2 cells.
    return 3 * round(1 / args["h"]) ** 2


def computed_sizes(names) -> dict:
    """Computed (not measured) float64 bytes of E and of one dense kernel."""
    out = {}
    for name in names:
        K = BASES[name][1]["K"]
        N = basis_nodes(name)
        out[name] = {"K": K, "N": N, "E_bytes": K * N * 8, "kernel_bytes": N * N * 8,
                     "label": "computed"}
    return out


def is_known_defect(op: str, basis: str, exc: BaseException) -> bool:
    """The rectangle gradient ValueError described in the module docstring."""
    return op == "gradient" and BASES[basis][0] == "rectangle" and isinstance(exc, ValueError)


# ---------------------------------------------------------------------------
# Set-up


def build_basis(name: str):
    from nbesov import domains

    shape, a, _ = BASES[name]
    if shape == "interval":
        return domains.build_interval_basis(a["L"], a["K"], N=a["N"])
    if shape == "rectangle":
        return domains.build_rectangle_basis(a["Lx"], a["Ly"], a["K"], Nx=a["Nx"], Ny=a["Ny"])
    return domains.build_fd_basis(domains.lshape_domain(), a["h"], a["K"])


def setup_bases(names, tmp_dir: str) -> dict:
    """Build each basis, write it with save_basis and read it back."""
    from nbesov import domains

    out = {}
    for name in names:
        path = os.path.join(tmp_dir, f"{name}.basis.json")
        domains.save_basis(build_basis(name), path)
        out[name] = domains.load_basis(path)
        os.remove(path)
    return out


# ---------------------------------------------------------------------------
# Request stream


@dataclass(frozen=True)
class Request:
    op: str
    basis: str
    params: tuple  # sorted (key, value) pairs
    input_seed: int

    def param(self, key):
        return dict(self.params)[key]


_WORKLOAD_CODE = {"apply": 1, "assemble": 2}


def _draw_params(op: str, basis: str, rng: np.random.Generator) -> dict:
    j_lo, j_hi = BASES[basis][2]
    j = int(rng.integers(j_lo, j_hi + 1))
    if op == "apply_multiplier":
        if rng.random() < 0.5:
            return {"symbol": "heat", "t": float(10 ** rng.uniform(-3, 0))}
        return {"symbol": "block", "j": j}
    if op in ("resolvent_gamma", "resolvent"):
        return {"beta": float(rng.uniform(0.5, 2.0)), "M": float(rng.uniform(0.5, 4.0))}
    if op in ("besov_inhom", "besov_hom"):
        return {"s": float(rng.choice([-0.5, 0.5, 1.0])),
                "p": float(rng.choice([1.0, 2.0, 4.0, np.inf])),
                "q": float(rng.choice([1.0, 2.0, np.inf]))}
    if op in ("seminorm_pM", "seminorm_qM"):
        return {"M": float(rng.uniform(0.0, 2.0))}
    if op == "block_lp_table":
        js = sorted(int(v) for v in rng.choice(np.arange(j_lo, j_hi + 1), size=3, replace=False))
        return {"js": tuple(js), "samples": 4}
    if op == "amalgam_norm":
        return {"p": float(rng.choice([1.0, 2.0, 3.0, np.inf])),
                "theta": float(rng.choice([0.05, 0.25, 1.0]))}
    if op == "block":
        return {"j": j}
    if op == "power_block":
        return {"j": j, "alpha": float(rng.uniform(-1.0, 1.0))}
    if op == "cap":
        return {"j": j if rng.random() < 0.75 else None}
    if op in ("heat", "kernel_roundtrip"):
        return {"t": float(10 ** rng.uniform(-3, 0))}
    if op == "triple_norm":
        return {"beta": float(rng.uniform(0.5, 2.0)), "M": float(rng.uniform(0.5, 4.0)),
                "alpha": float(rng.choice([0.0, 0.5, 1.0])),
                "theta": float(rng.choice([0.05, 0.25, 1.0]))}
    return {}


def make_pass(workload: str, seed: int, index: int) -> list[Request]:
    """Pass ``index`` of the workload's stream; a function of its arguments only."""
    rng = np.random.default_rng([_WORKLOAD_CODE[workload], seed, index])
    reqs = []
    for basis in WORKLOAD_BASES[workload]:
        for op in WORKLOAD_OPS[workload]:
            params = _draw_params(op, basis, rng)
            reqs.append(Request(op, basis, tuple(sorted(params.items())),
                                int(rng.integers(2**32))))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def make_input(req: Request, basis) -> dict:
    """Seeded coefficients and the grid function they synthesize (numpy only)."""
    from nbesov.spectral import GridFunction

    rng = np.random.default_rng(req.input_seed)
    lam = basis.eigenvalues
    n_samples = req.param("samples") if req.op == "block_lp_table" else 1
    C = rng.standard_normal((basis.K, n_samples)) / np.sqrt(1.0 + lam)[:, None]
    if req.op == "seminorm_qM":
        C[0] = 0.0  # the q_M class is mean-zero
    c = C[:, 0]
    return {"C": C, "c": c, "f": GridFunction(basis.functions.T @ c, basis.grid)}


# ---------------------------------------------------------------------------
# Operations (the timed part of a request)


def _symbol(req: Request, pou):
    from nbesov import spectral

    kind = req.op if req.op != "apply_multiplier" else req.param("symbol")
    if kind == "block":
        return spectral.block_symbol(pou, req.param("j"))
    if kind == "power_block":
        return spectral.power_block_symbol(pou, req.param("j"), req.param("alpha"))
    if kind == "cap":
        return spectral.cap_symbol(pou, req.param("j"))
    if kind in ("resolvent", "triple_norm"):
        return spectral.resolvent_symbol(req.param("beta"), req.param("M"))
    return spectral.heat_symbol(req.param("t"))


def run_op(req: Request, basis, inp: dict, pou, tmp_dir: str):
    from nbesov import norms, spectral

    op, f = req.op, inp["f"]
    if op == "transform":
        coeffs = spectral.analyze(f, basis)
        return coeffs.values, spectral.synthesize(coeffs).values
    if op == "apply_multiplier":
        return spectral.apply_multiplier(_symbol(req, pou), f, basis).values
    if op == "resolvent_gamma":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = spectral.resolvent_gamma(req.param("beta"), req.param("M"), f, basis)
        return out.values, [str(w.message) for w in caught]
    if op in ("besov_inhom", "besov_hom"):
        params = norms.default_besov_params(basis, req.param("s"), req.param("p"), req.param("q"))
        return params, getattr(norms, op)(f, params, pou, basis)
    if op in ("seminorm_pM", "seminorm_qM"):
        return getattr(norms, op)(f, req.param("M"), pou, basis)
    if op == "block_lp_table":
        return norms.block_lp_table(inp["C"], list(req.param("js")), [1.0, 2.0, np.inf],
                                    pou, basis)
    if op == "amalgam_norm":
        p = req.param("p")
        return norms.amalgam_norm(f, norms.AmalgamParams(p=p, q=p, theta=req.param("theta")))
    if op == "gradient":
        return spectral.gradient(f, basis)
    # assemble
    if op == "heat":
        kernel = spectral.heat_kernel(req.param("t"), basis)
        return kernel, spectral.endpoint_norms(kernel)
    if op in ("block", "power_block", "cap", "resolvent"):
        kernel = spectral.multiplier_kernel(_symbol(req, pou), basis)
        return kernel, spectral.endpoint_norms(kernel)
    if op == "triple_norm":
        kernel = spectral.multiplier_kernel(_symbol(req, pou), basis)
        return kernel, norms.triple_norm(kernel, req.param("alpha"), req.param("theta"))
    if op == "kernel_roundtrip":
        kernel = spectral.heat_kernel(req.param("t"), basis)
        path = os.path.join(tmp_dir, "kernel.npz")
        spectral.save_kernel(kernel, path)
        return kernel, spectral.load_kernel(path, basis.grid)
    raise ValueError(f"unknown op {op}")


# ---------------------------------------------------------------------------
# Checks: each returns None when the output is right, else a reason


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _lp(values, w, p) -> float:
    values = np.abs(values)
    return float(values.max()) if np.isinf(p) else float((w @ values**p) ** (1.0 / p))


def _ellq(v, q) -> float:
    v = np.abs(np.asarray(v, dtype=float))
    return float(v.max()) if np.isinf(q) else float(np.sum(v**q) ** (1.0 / q))


def _direct_symbol(req: Request, lam, pou):
    """phi(lambda_k) evaluated straight from its formula."""
    kind = req.op if req.op != "apply_multiplier" else req.param("symbol")
    sq = np.sqrt(np.maximum(lam, 0.0))
    if kind in ("heat", "kernel_roundtrip"):
        return np.exp(-req.param("t") * lam)
    if kind in ("resolvent", "triple_norm"):
        return (lam + req.param("M")) ** (-req.param("beta"))
    if kind == "block":
        return pou.phi0(sq / 2.0 ** req.param("j"))
    if kind == "power_block":
        b = pou.phi0(sq / 2.0 ** req.param("j"))
        out = np.zeros_like(b)
        out[b != 0] = lam[b != 0] ** req.param("alpha") * b[b != 0]
        return out
    j = req.param("j")
    return pou.chi(sq if j is None else sq / 2.0**j)


TOL = 1e-9


def check_op(req: Request, basis, inp: dict, pou, out) -> str | None:
    op = req.op
    E, lam, w = basis.functions, basis.eigenvalues, basis.grid.weights
    c, f = inp["c"], inp["f"].values

    def blocks(js, C):
        fields = []
        for j in js:
            phi = pou.phi0(np.sqrt(lam) / 2.0**j)
            fields.append(E.T @ (phi[:, None] * C) if phi.any() else np.zeros((len(w), C.shape[1])))
        return fields

    if op == "transform":
        coeffs, back = out
        err = max(_rel(coeffs, c), _rel(back, f))
        return None if err <= TOL else f"round trip off by {err:.2e}"
    if op == "apply_multiplier":
        err = _rel(out, E.T @ (_direct_symbol(req, lam, pou) * c))
        return None if err <= TOL else f"multiplier off by {err:.2e}"
    if op == "resolvent_gamma":
        values, caught = out
        if caught:
            return "quadrature warning: " + caught[0]
        ref = E.T @ ((lam + req.param("M")) ** (-req.param("beta")) * c)
        err = _rel(np.sqrt(w) * values, np.sqrt(w) * ref)
        return None if err <= 1e-8 else f"resolvent off by {err:.2e} > rtol 1e-8"
    if op in ("besov_inhom", "besov_hom"):
        prm, got = out
        p, q, s = prm.p, prm.q, prm.s
        if op == "besov_inhom":
            js = range(1, prm.j_max + 1)
            cap = _lp(E.T @ (pou.psi(lam) * c), w, p)
        else:
            js = range(prm.j_min, prm.j_max + 1)
            cap = 0.0
            if not (np.isfinite(got.tail_bound) and got.tail_bound >= 0):
                return f"homogeneous tail {got.tail_bound!r}"
            got = got.value
        F = blocks(js, c[:, None])
        ref = cap + _ellq([2.0 ** (s * j) * _lp(Fj[:, 0], w, p) for j, Fj in zip(js, F)], q)
        err = abs(got - ref) / max(ref, 1e-300)
        return None if err <= TOL else f"besov off by {err:.2e}"
    if op in ("seminorm_pM", "seminorm_qM"):
        top = math.ceil(math.log2(math.sqrt(float(lam[-1])))) + 3
        js = range(1, top) if op == "seminorm_pM" else range(-8, top)
        F = blocks(js, c[:, None])
        M = req.param("M")
        sup = max(2.0 ** (M * abs(j)) * _lp(Fj[:, 0], w, 1.0) for j, Fj in zip(js, F))
        ref = _lp(f, w, 1.0) + sup
        err = abs(out - ref) / ref
        return None if err <= TOL else f"seminorm off by {err:.2e}"
    if op == "block_lp_table":
        js, C = req.param("js"), inp["C"]
        F = blocks(js, C)
        for a, j in enumerate(js):
            parseval = np.linalg.norm(pou.phi0(np.sqrt(lam) / 2.0**j)[:, None] * C, axis=0)
            err = max(_rel(out[a, 1], parseval), _rel(out[a, 2], np.abs(F[a]).max(axis=0)),
                      _rel(out[a, 0], w @ np.abs(F[a])))
            if err > TOL:
                return f"block table off by {err:.2e} at j={j}"
        return None
    if op == "amalgam_norm":
        ref = _lp(f, w, req.param("p"))
        err = abs(out - ref) / ref
        return None if err <= TOL else f"l^p(L^p) amalgam differs from L^p by {err:.2e}"
    if op == "gradient":
        return _check_gradient(basis, c, f, out)
    kernel = out[0]
    if op == "triple_norm":
        return _check_triple(kernel, req.param("alpha"), req.param("theta"), out[1])
    if op == "kernel_roundtrip":
        back = out[1]
        same = (np.array_equal(back.matrix, kernel.matrix) and back.tag == kernel.tag
                and back.tail_bound == kernel.tail_bound
                and np.array_equal(back.symbol_values, kernel.symbol_values))
        return None if same else "kernel changed in a save/load round trip"
    norms_, phi = out[1], _direct_symbol(req, lam, pou)
    err = _rel(kernel.matrix @ (w * f), E.T @ (phi * c))
    if err > TOL:
        return f"kernel action off by {err:.2e}"
    n11, ninf, n22 = norms_["1->1"], norms_["inf->inf"], norms_["2->2"]
    if abs(n22 - np.max(np.abs(phi))) > TOL * max(n22, 1e-300):
        return f"2->2 norm {n22!r} != max|phi| {np.max(np.abs(phi))!r}"
    if abs(n11 - ninf) > TOL * max(n11, 1e-300):
        return "1->1 and inf->inf differ on a symmetric kernel"
    if n22 > n11 * (1 + TOL) + 1e-300:
        return "2->2 norm exceeds the Schur bound 1->1"
    if not (np.isfinite(kernel.tail_bound) and kernel.tail_bound >= 0):
        return f"tail bound {kernel.tail_bound!r}"
    return None


def _check_gradient(basis, c, f, grad) -> str | None:
    grid = basis.grid
    n = grid.domain.n
    if basis.kind == "analytic":
        # Modes are products of normalised cosines cos(k pi x / L) per axis;
        # differentiate the factor of the chosen axis in closed form.
        modes = np.asarray(basis.mode_index, dtype=float).reshape(basis.K, n)
        ref = []
        for axis in range(n):
            term = np.ones((grid.n_nodes, basis.K))
            for ax in range(n):
                L = grid.domain.lengths[ax]
                kap = modes[:, ax] * math.pi / L
                scale = np.where(modes[:, ax] == 0, L**-0.5, math.sqrt(2.0 / L))
                arg = np.outer(grid.points[:, ax], kap)
                term *= -scale * kap * np.sin(arg) if ax == axis else scale * np.cos(arg)
            ref.append(term @ c)
        err = _rel(grad, np.array(ref))
        return None if err <= TOL else f"gradient off by {err:.2e}"
    # Finite differences: centred quotients wherever both neighbours exist.
    idx = grid.index
    table = -np.ones(tuple(idx.max(axis=0) + 3), dtype=int)
    table[tuple((idx + 1).T)] = np.arange(len(idx))
    if not np.all(np.isfinite(grad)):
        return "non-finite gradient"
    for axis in range(grid.domain.n):
        e = np.zeros(idx.shape[1], dtype=int)
        e[axis] = 1
        ip, im = table[tuple((idx + 1 + e).T)], table[tuple((idx + 1 - e).T)]
        both = (ip >= 0) & (im >= 0)
        ref = (f[ip[both]] - f[im[both]]) / (2 * grid.spacing[axis])
        err = _rel(grad[axis][both], ref)
        if err > TOL:
            return f"fd gradient off by {err:.2e} on axis {axis}"
    return None


def _check_triple(kernel, alpha, theta, got) -> str | None:
    """Dense symmetric eigensolver per cube, against the power iteration."""
    grid = kernel.grid
    root = math.sqrt(theta)
    sw = np.sqrt(grid.weights)
    cube = np.floor(grid.points / root + 0.5).astype(int)
    best = 0.0
    for m in np.unique(cube, axis=0):
        idx = np.nonzero(np.all(cube == m, axis=1))[0]
        dist = np.linalg.norm(grid.points - root * m, axis=1)
        A = (sw * dist**alpha)[:, None] * kernel.matrix[:, idx] * sw[idx][None, :]
        best = max(best, math.sqrt(max(np.linalg.eigvalsh(A.T @ A)[-1], 0.0)))
    err = abs(got - best) / max(best, 1e-300)
    return None if err <= 1e-8 else f"triple norm off by {err:.2e}"


# ---------------------------------------------------------------------------
# Loops


@dataclass
class Outcome:
    op: str
    basis: str
    pass_index: int
    latency_s: float
    cpu_s: float
    error: str | None
    known_defect: bool = False


def run_stream(workload, bases, seed, pou, tmp_dir, tracer, seconds=None, n_passes=None):
    """Closed loop over whole passes, until ``seconds`` have elapsed or
    ``n_passes`` are done.  Only the library call is timed."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    index = 0
    while True:
        for k, req in enumerate(make_pass(workload, seed, index)):
            basis = bases[req.basis]
            inp = make_input(req, basis)
            error, known = None, False
            c0, t0 = time.process_time(), time.perf_counter()
            with tracer.span("bench.request", rid=f"p{index}.r{k}"):
                try:
                    out = run_op(req, basis, inp, pou, tmp_dir)
                except Exception as exc:  # a failed request is counted, not fatal
                    out, error = None, f"{type(exc).__name__}: {exc}"
                    known = is_known_defect(req.op, req.basis, exc)
            t1, c1 = time.perf_counter(), time.process_time()
            if error is None:
                with tracer.paused():
                    try:
                        error = check_op(req, basis, inp, pou, out)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
            outcomes.append(Outcome(req.op, req.basis, index, t1 - t0, c1 - c0, error, known))
        index += 1
        if n_passes is not None and index >= n_passes:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return outcomes, index


# run_suite's default pool on a 2-core box runs two experiments beside
# OpenBLAS's own two threads; the oversubscribed cores made wall and CPU time
# vary by 14 % (quartile spread over 5 seeds) against 3 % serially, and the
# pool gains nothing there (jobs=1 was the faster).  So the suite runs serially.
SUITE_JOBS = 1


def run_suite_timed(base_seed: int, out_dir: str):
    """run_suite over every registry entry; returns (reports, per-experiment
    wall seconds, run_suite wall, run_suite CPU)."""
    from nbesov.verify import runner

    times = {}
    originals = dict(runner.REGISTRY)

    def timed(exp_id, fn):
        def call(spec):
            t0 = time.perf_counter()
            try:
                return fn(spec)
            finally:
                times[exp_id] = time.perf_counter() - t0
        return call

    for exp_id, fn in originals.items():
        runner.REGISTRY[exp_id] = timed(exp_id, fn)
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        reports = runner.run_suite(ids=list(originals), base_seed=base_seed, out_dir=out_dir,
                                   jobs=SUITE_JOBS)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        runner.REGISTRY.update(originals)
    return reports, times, wall, cpu


def check_suite(reports, out_dir: str) -> list[str]:
    """Reasons an experiment counts as failed: an unexpected verdict, or a
    report file that does not carry the returned verdict."""
    import json

    problems = []
    for rep in reports:
        expected = "fail" if rep.id.startswith("neg_") else "pass"
        path = os.path.join(out_dir, f"{rep.id}.json")
        if rep.verdict != expected:
            problems.append(f"{rep.id}: verdict {rep.verdict}, expected {expected}")
        elif not os.path.exists(path):
            problems.append(f"{rep.id}: no report file")
        else:
            with open(path) as fh:
                if json.load(fh).get("verdict") != rep.verdict:
                    problems.append(f"{rep.id}: report file verdict differs")
    return problems
