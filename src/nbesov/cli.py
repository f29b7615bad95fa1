"""Command-line front end: build bases, evaluate norms, apply spectral
multipliers, and drive the verification suite.

Exit codes: 0 success, 1 usage or configuration problem, 2 at least one
inconclusive verdict, 3 at least one failed verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .domains import (
    build_fd_basis,
    build_interval_basis,
    build_rectangle_basis,
    load_basis,
    lp_norm,
    lshape_domain,
    save_basis,
)
from .littlewood_paley import VARIANTS, make_partition
from .norms import (
    AmalgamParams,
    BesovParams,
    amalgam_norm,
    besov_hom,
    besov_inhom,
    default_besov_params,
    norm_csv_header,
    norm_csv_row,
    seminorm_pM,
    seminorm_qM,
)
from .reports import FAIL, INCONCLUSIVE, PASS, EstimateReport, summary_table
from .spectral import (
    GridFunction,
    SymbolFn,
    block_symbol,
    cap_symbol,
    endpoint_norms,
    heat_kernel,
    heat_symbol,
    multiplier_kernel,
    power_block_symbol,
    resolvent_symbol,
    save_kernel,
    to_grid,
)
from .verify import REGISTRY, resolve_ids, run_suite, suite_exit_code


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; here 2 means inconclusive, so
    usage problems are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# basis


def _cmd_basis(args) -> int:
    try:
        if args.shape == "interval":
            basis = build_interval_basis(args.L, args.K, N=args.N)
        elif args.shape == "rectangle":
            basis = build_rectangle_basis(args.Lx, args.Ly, args.K,
                                          Nx=args.Nx, Ny=args.Ny)
        else:
            basis = build_fd_basis(lshape_domain(), args.h, args.K)
    except ValueError as exc:
        return _fail(f"basis: {exc}")
    for k in range(min(10, basis.K)):
        print(f"lambda_{k + 1} = {float(basis.eigenvalues[k])!r}")
    if args.out:
        save_basis(basis, args.out)
        print(f"saved: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# norm


def _load_function(path: str, basis) -> GridFunction:
    """The function a JSON file gives as grid 'values' or as 'coeffs'; a
    malformed file raises a ValueError that names it."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        field = "values" if "values" in payload else "coeffs"
        if field not in payload:
            raise ValueError("carries neither 'values' nor 'coeffs'")
        given = np.asarray(payload[field], dtype=float)
        if given.ndim != 1:
            raise ValueError(f"'{field}' has shape {given.shape}, not a flat list")
        if not np.all(np.isfinite(given)):
            raise ValueError(f"'{field}' holds a non-finite number")
        if field == "values":
            return GridFunction(given, basis.grid)
        if given.size > basis.K:
            raise ValueError(f"{given.size} coefficients exceed the {basis.K}-mode basis")
        c = np.zeros(basis.K)
        c[: given.size] = given
        return GridFunction(to_grid(c, basis), basis.grid)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_norm(args) -> int:
    try:
        basis = load_basis(args.basis)
        f = _load_function(args.function, basis)
        pou = make_partition(args.pou)
        rows = []
        if args.norm == "besov":
            params = default_besov_params(basis, args.s, args.p, args.q)
            if args.jmax is not None:
                params = BesovParams(s=args.s, p=args.p, q=args.q,
                                     j_min=params.j_min, j_max=args.jmax)
            meta = {"s": args.s, "p": args.p, "q": args.q, "pou": args.pou}
            if args.hom:
                res = besov_hom(f, params, pou, basis)
                rows.append(norm_csv_row("besov_hom", meta, res.value, res.tail_bound))
            else:
                val = besov_inhom(f, params, pou, basis)
                rows.append(norm_csv_row("besov_inhom", meta, val, None))
        elif args.norm == "pM":
            rows.append(norm_csv_row(
                "seminorm_pM", {"M": args.M, "pou": args.pou},
                seminorm_pM(f, args.M, pou, basis), None))
        elif args.norm == "qM":
            rows.append(norm_csv_row(
                "seminorm_qM", {"M": args.M, "pou": args.pou},
                seminorm_qM(f, args.M, pou, basis), None))
        elif args.norm == "amalgam":
            val = amalgam_norm(f, AmalgamParams(p=args.p, q=args.q, theta=args.theta))
            rows.append(norm_csv_row(
                "amalgam", {"p": args.p, "q": args.q, "theta": args.theta}, val, None))
        else:
            rows.append(norm_csv_row("lp", {"p": args.p}, lp_norm(f, args.p), None))
    except (OSError, ValueError) as exc:  # ResolutionError and JSONDecodeError included
        return _fail(f"norm: {exc}")
    print(",".join(norm_csv_header()))
    for row in rows:
        print(",".join(row))
    return 0


# ---------------------------------------------------------------------------
# multiplier / heat


def _print_kernel(kernel) -> None:
    for name, val in endpoint_norms(kernel).items():
        print(f"norm[{name}] = {float(val)!r}")
    print(f"tail_bound = {float(kernel.tail_bound)!r}")


def _cmd_multiplier(args) -> int:
    try:
        basis = load_basis(args.basis)
        pou = make_partition(args.pou)
        if args.symbol == "block":
            sym = block_symbol(pou, args.j)
        elif args.symbol == "power-block":
            sym = power_block_symbol(pou, args.j, args.alpha)
        elif args.symbol == "cap":
            sym = cap_symbol(pou, args.j)
        else:
            sym = resolvent_symbol(args.beta, args.M, args.theta)
        kernel = multiplier_kernel(sym, basis)
    except (OSError, ValueError) as exc:
        return _fail(f"multiplier: {exc}")
    _print_kernel(kernel)
    if args.out:
        save_kernel(kernel, args.out)
        print(f"saved: {args.out}")
    return 0


def _cmd_heat(args) -> int:
    try:
        basis = load_basis(args.basis)
        kernel = heat_kernel(args.t, basis)
    except (OSError, ValueError) as exc:
        return _fail(f"heat: {exc}")
    _print_kernel(kernel)
    # K_t - 1/|Omega| as the kernel of e^{-t lambda} without lambda = 0: the
    # difference itself cancels once K_t is close to 1/|Omega|.
    heat = heat_symbol(args.t)
    mean_removed = SymbolFn(fn=lambda lam: np.where(lam > 0, heat(lam), 0.0),
                            tag=f"{heat.tag},mean-removed", majorant=heat.majorant)
    sup_p = endpoint_norms(multiplier_kernel(mean_removed, basis))["1->inf"]
    print(f"mean_removed_sup = {sup_p!r}")
    if args.out:
        save_kernel(kernel, args.out)
        print(f"saved: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify / report


_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer"},
        "pou": {"enum": list(VARIANTS)},
        "out": {"type": "string"},
        "only": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "experiments": {
            "type": "object",
            "additionalProperties": {"type": "object"},
        },
    },
}


def _load_config(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    import jsonschema

    try:
        jsonschema.validate(cfg, _CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "top level"
        raise ValueError(f"{path}: invalid config at {where}: {exc.message}") from exc
    return cfg


def _cmd_verify(args) -> int:
    cfg = {}
    if args.config:
        try:
            cfg = _load_config(args.config)
        except (OSError, ValueError) as exc:
            return _fail(f"verify: {exc}")
    only = args.only if args.only else cfg.get("only")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    pou = args.pou if args.pou is not None else cfg.get("pou", "standard")
    out = (args.out or cfg.get("out") or os.environ.get("NB_OUT")
           or "nbesov_reports")
    try:
        ids = resolve_ids(only) if only else None
        overrides = {}
        for key, params in cfg.get("experiments", {}).items():
            overrides[resolve_ids([key])[0]] = params
        reports = run_suite(ids=ids, base_seed=seed, out_dir=out, pou_variant=pou,
                            overrides=overrides)
    except (ValueError, KeyError) as exc:
        return _fail(f"verify: {exc}")
    print(summary_table(reports))
    print(f"reports: {out}")
    return suite_exit_code(reports)


def _cmd_report(args) -> int:
    try:
        names = sorted(n for n in os.listdir(args.dir) if n.endswith(".json"))
    except OSError as exc:
        return _fail(f"report: {exc}")
    if not names:
        return _fail(f"report: no report files under {args.dir}")
    order = {name: i for i, name in enumerate(REGISTRY)}
    rows = []
    for name in names:
        try:
            with open(os.path.join(args.dir, name)) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError(f"a JSON {type(payload).__name__}, not an object")
            if not isinstance(payload["id"], str):
                raise ValueError(f"id {payload['id']!r} is not a string")
            rows.append(EstimateReport(id=payload["id"], params={},
                                       verdict=payload["verdict"]))
        except (ValueError, KeyError) as exc:
            return _fail(f"report: {name} is not a report file ({exc})")
        if rows[-1].verdict not in (PASS, FAIL, INCONCLUSIVE):
            return _fail(f"report: {name} is not a report file "
                         f"(unknown verdict {rows[-1].verdict!r})")
    rows.sort(key=lambda r: (order.get(r.id, len(order)), r.id))
    print(f"{'experiment':<28s} {'verdict':<13s}")
    for rep in rows:
        print(f"{rep.id:<28s} {rep.verdict:<13s}")
    return suite_exit_code(rows)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nbesov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", parents=[], help="build an eigenbasis",
                       description="Build a Neumann eigenbasis and print its "
                                   "first eigenvalues.")
    b.add_argument("--shape", choices=["interval", "rectangle", "lshape"],
                   default="interval")
    b.add_argument("--L", type=float, default=math.pi)
    b.add_argument("--Lx", type=float, default=1.0)
    b.add_argument("--Ly", type=float, default=1.0)
    b.add_argument("--h", type=float, default=0.05, help="lshape mesh step")
    b.add_argument("--K", type=int, default=64, help="number of modes")
    b.add_argument("--N", type=int, default=512, help="interval grid nodes")
    b.add_argument("--Nx", type=int, default=64)
    b.add_argument("--Ny", type=int, default=64)
    b.add_argument("--out", help="write the basis to this JSON file")
    b.set_defaults(fn=_cmd_basis)

    n = sub.add_parser("norm", help="evaluate a norm of a stored function")
    n.add_argument("--basis", required=True)
    n.add_argument("--function", required=True,
                   help="JSON file with 'values' (grid samples) or 'coeffs'")
    n.add_argument("--norm", choices=["besov", "pM", "qM", "amalgam", "lp"],
                   default="besov")
    n.add_argument("--s", type=float, default=0.0)
    n.add_argument("--p", type=float, default=2.0)
    n.add_argument("--q", type=float, default=2.0, help="inf is accepted")
    n.add_argument("--M", type=float, default=1.0)
    n.add_argument("--theta", type=float, default=0.25)
    n.add_argument("--jmax", type=int, default=None,
                   help="top dyadic scale; too small for the data exits 1")
    n.add_argument("--hom", action="store_true")
    n.add_argument("--pou", choices=list(VARIANTS), default="standard")
    n.set_defaults(fn=_cmd_norm)

    m = sub.add_parser("multiplier", help="apply a spectral multiplier")
    m.add_argument("--basis", required=True)
    m.add_argument("--symbol",
                   choices=["block", "power-block", "cap", "resolvent"],
                   default="block")
    m.add_argument("--j", type=int, default=None)
    m.add_argument("--alpha", type=float, default=0.0)
    m.add_argument("--beta", type=float, default=1.0)
    m.add_argument("--M", type=float, default=1.0)
    m.add_argument("--theta", type=float, default=1.0)
    m.add_argument("--pou", choices=list(VARIANTS), default="standard")
    m.add_argument("--out", help="write the kernel to this npz file")
    m.set_defaults(fn=_cmd_multiplier)

    h = sub.add_parser("heat", help="build a heat kernel")
    h.add_argument("--basis", required=True)
    h.add_argument("--t", type=float, required=True)
    h.add_argument("--out", help="write the kernel to this npz file")
    h.set_defaults(fn=_cmd_heat)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--config", help="JSON config file")
    v.add_argument("--only", nargs="+", metavar="ID",
                   help="experiment ids (an exp_ prefix is accepted)")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--pou", choices=list(VARIANTS), default=None)
    v.add_argument("--out", default=None,
                   help="report directory (default: $NB_OUT or nbesov_reports)")
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser("report", help="re-render a summary from saved reports")
    r.add_argument("--dir", required=True)
    r.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "multiplier":
        if args.symbol in ("block", "power-block") and args.j is None:
            return _fail("multiplier: --j is required for block symbols")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
