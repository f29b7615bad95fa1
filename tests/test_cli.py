import json
import math
import os

import numpy as np
import pytest

from nbesov.cli import main
from nbesov.domains import (
    build_fd_basis,
    build_interval_basis,
    build_rectangle_basis,
    load_basis,
    lshape_domain,
    save_basis,
)
from nbesov.spectral import (
    SymbolFn,
    endpoint_norms,
    heat_kernel,
    load_kernel,
    multiplier_kernel,
    resolvent_symbol,
)


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_basis") / "interval.json"
    save_basis(build_interval_basis(math.pi, 64, N=512), str(path))
    return str(path)


@pytest.fixture(scope="module")
def unit_basis_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_basis_unit") / "unit.json"
    save_basis(build_interval_basis(1.0, 8, N=64), str(path))
    return str(path)


def _write_function(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _norm_value(out):
    lines = out.strip().splitlines()
    assert lines[0] == "norm,params,value,tail_bound"
    cells = lines[1].split(",")
    return cells, float(cells[2])


# ---------------------------------------------------------------------------
# basis


def test_basis_prints_interval_eigenvalues(capsys):
    assert main(["basis", "--K", "16", "--N", "128"]) == 0
    out = capsys.readouterr().out
    assert "lambda_1 = 0.0" in out
    assert "lambda_2 = 1.0" in out
    assert "lambda_10 = 81.0" in out


def test_basis_save_is_reproducible(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["basis", "--K", "16", "--N", "128", "--out", str(p1)]) == 0
    assert main(["basis", "--K", "16", "--N", "128", "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_basis_lshape(capsys):
    assert main(["basis", "--shape", "lshape", "--h", "0.2", "--K", "12"]) == 0
    out = capsys.readouterr().out
    values = [float(line.split(" = ")[1]) for line in out.strip().splitlines()]
    assert abs(values[0]) < 1e-8
    assert values[1] > 0.1
    assert values == sorted(values)


def test_basis_rejects_overcrowded_band(capsys):
    assert main(["basis", "--K", "200", "--N", "128"]) == 1
    assert "basis:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, reason", [
    (["--L", "inf"], "L=inf must be positive and finite"),
    (["--L", "nan"], "L=nan must be positive and finite"),
    (["--L", "1e308"], "non-finite mode samples"),
    (["--shape", "rectangle", "--Lx", "inf"], "Lx=inf, Ly=1.0 must be positive and finite"),
    (["--L", "1e300"], "L=1e+300 gives lambda_2 = 0.0; the zero eigenvalue is not simple"),
    (["--shape", "rectangle", "--Lx", "1e300"], "Lx=1e+300, Ly=1.0 gives lambda_2 = 0.0"),
], ids=["inf", "nan", "overflow", "rectangle", "underflow", "rectangle_underflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_basis_rejects_non_finite_lengths(tmp_path, capsys, flags, reason):
    """Exit 1 with the reason, and no basis file is written; a huge but
    finite length fails the same way, as its lambda_2 underflows to 0."""
    out = tmp_path / "b.json"
    assert main(["basis", *flags, "--K", "4", "--N", "8", "--out", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_bad_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--shape", "triangle"])
    assert exc.value.code == 1


def test_missing_required_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--norm", "lp"])
    assert exc.value.code == 1


def test_verify_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--jobs", "2"])
    assert exc.value.code == 1
    assert "--jobs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# norm


def test_norm_besov_of_single_mode(basis_file, tmp_path, capsys):
    fn = _write_function(tmp_path, "f.json", {"coeffs": [0.0, 1.0]})
    assert main(["norm", "--basis", basis_file, "--function", fn]) == 0
    cells, value = _norm_value(capsys.readouterr().out)
    assert cells[0] == "besov_inhom"
    assert value == pytest.approx(1.0, abs=1e-12)


def test_norm_accepts_inf_exponent(basis_file, tmp_path, capsys):
    fn = _write_function(tmp_path, "f.json", {"coeffs": [0.0, 1.0]})
    assert main(
        ["norm", "--basis", basis_file, "--function", fn, "--q", "inf"]
    ) == 0
    _, value = _norm_value(capsys.readouterr().out)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_norm_hom_reports_tail(basis_file, tmp_path, capsys):
    fn = _write_function(tmp_path, "f.json", {"coeffs": [0.0, 1.0]})
    assert main(
        ["norm", "--basis", basis_file, "--function", fn, "--hom"]
    ) == 0
    cells, value = _norm_value(capsys.readouterr().out)
    assert cells[0] == "besov_hom"
    assert value == pytest.approx(1.0, abs=1e-12)
    assert float(cells[3]) == 0.0


def test_norm_jmax_too_small_exits_one(basis_file, tmp_path, capsys):
    fn = _write_function(tmp_path, "f.json", {"coeffs": [0.0] * 59 + [1.0]})
    assert main(
        ["norm", "--basis", basis_file, "--function", fn, "--jmax", "5"]
    ) == 1
    assert "norm:" in capsys.readouterr().err


def test_norm_amalgam_golden(unit_basis_file, tmp_path, capsys):
    fn = _write_function(tmp_path, "one.json", {"values": [1.0] * 64})
    assert main(
        ["norm", "--basis", unit_basis_file, "--function", fn,
         "--norm", "amalgam", "--p", "1", "--theta", "0.0625"]
    ) == 0
    cells, value = _norm_value(capsys.readouterr().out)
    assert cells[0] == "amalgam"
    assert value == pytest.approx(1.5 + 0.5 * math.sqrt(2.0), rel=1e-14)


def test_norm_lp(unit_basis_file, tmp_path, capsys):
    fn = _write_function(tmp_path, "one.json", {"values": [1.0] * 64})
    assert main(
        ["norm", "--basis", unit_basis_file, "--function", fn,
         "--norm", "lp", "--p", "inf"]
    ) == 0
    _, value = _norm_value(capsys.readouterr().out)
    assert value == 1.0


def test_norm_rejects_malformed_function(basis_file, tmp_path, capsys):
    fn = _write_function(tmp_path, "nope.json", {"foo": [1.0]})
    assert main(["norm", "--basis", basis_file, "--function", fn]) == 1
    assert "neither" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"values": [1.0] * 511 + [math.nan]},
    {"coeffs": [1.0, math.inf]},
], ids=["nan_value", "inf_coeff"])
def test_norm_rejects_a_non_finite_function(basis_file, tmp_path, capsys, payload):
    fn = _write_function(tmp_path, "bad.json", payload)
    assert main(["norm", "--basis", basis_file, "--function", fn]) == 1
    err = capsys.readouterr().err
    assert fn in err and "non-finite" in err


@pytest.mark.parametrize("payload, message", [
    ({"values": {"a": 1}}, "float()"),
    ({"values": [1, 2, 3]}, "values shape (3,) does not match grid (64,)"),
    ({"coeffs": [[1, 2], [3, 4]]}, "'coeffs' has shape (2, 2)"),
], ids=["values_object", "values_too_short", "coeffs_matrix"])
def test_norm_names_the_file_of_a_malformed_function(unit_basis_file, tmp_path, capsys,
                                                     payload, message):
    fn = _write_function(tmp_path, "bad.json", payload)
    assert main(["norm", "--basis", unit_basis_file, "--function", fn]) == 1
    err = capsys.readouterr().err
    assert f"norm: {fn}: " in err and message in err


@pytest.mark.parametrize("flags", [
    ["--norm", "lp", "--p", "nan"],
    ["--norm", "lp", "--p=-inf"],
    ["--norm", "amalgam", "--p", "nan"],
    ["--norm", "amalgam", "--theta", "nan"],
    ["--norm", "besov", "--s", "nan"],
    ["--norm", "besov", "--q", "nan"],
    ["--norm", "pM", "--M", "nan"],
    ["--norm", "qM", "--M", "nan"],
], ids=["lp_p_nan", "lp_p_minus_inf", "amalgam_p_nan", "amalgam_theta_nan", "besov_s_nan",
        "besov_q_nan", "pM_M_nan", "qM_M_nan"])
def test_norm_rejects_nan_and_out_of_range_parameters(unit_basis_file, tmp_path, capsys, flags):
    fn = _write_function(tmp_path, "f.json", {"coeffs": [0.0, 1.0, 0.5]})
    assert main(["norm", "--basis", unit_basis_file, "--function", fn] + flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("norm: ")


# ---------------------------------------------------------------------------
# multiplier / heat


@pytest.mark.parametrize("argv, reason", [
    (["multiplier", "--symbol", "resolvent", "--theta", "0"], "theta=0.0 must be"),
    (["multiplier", "--symbol", "resolvent", "--beta", "0"], "beta=0.0 must be"),
    (["multiplier", "--symbol", "resolvent", "--beta=-1"], "beta=-1.0 must be"),
    (["multiplier", "--symbol", "resolvent", "--M", "inf"], "M=inf must be"),
    (["heat", "--t", "0"], "t=0.0 must be"),
    (["heat", "--t", "nan"], "t=nan must be"),
    (["multiplier", "--symbol", "block", "--j", "600"], "j=600 must be"),
    (["multiplier", "--symbol", "power-block", "--j", "600"], "j=600 must be"),
], ids=["resolvent_theta_0", "resolvent_beta_0", "resolvent_beta_minus_1", "resolvent_M_inf",
        "heat_t_0", "heat_t_nan", "block_j_600", "power_block_j_600"])
def test_symbol_commands_reject_parameters_outside_the_symbol(basis_file, capsys, argv, reason):
    """No kernel and no tail_bound for a symbol outside its definition."""
    assert main(argv + ["--basis", basis_file]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{argv[0]}: ") and reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("j", ["-100000000000000000000", "100000000000000000000"])
def test_multiplier_block_at_a_scale_beyond_a_c_long_exits_cleanly(basis_file, capsys, j):
    # A scale far below the spectrum gives the zero operator (support
    # (0, 0)); one far above it has an infinite support and is rejected.
    below = j.startswith("-")
    assert main(["multiplier", "--basis", basis_file, "--symbol", "block",
                 f"--j={j}"]) == (0 if below else 1)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if below:
        vals = dict(line.split(" = ") for line in out.strip().splitlines())
        assert set(vals) == {"norm[1->1]", "norm[1->inf]", "norm[inf->inf]", "norm[2->2]",
                             "tail_bound"}
        assert all(float(v) == 0.0 for v in vals.values()) and err == ""
    else:
        assert f"j={j} must be" in err


@pytest.mark.parametrize("j", ["-600", "600"])
def test_multiplier_cap_at_an_extreme_scale_exits_cleanly(basis_file, capsys, j):
    # 4^-j overflows (j = -600) or underflows (j = 600) a double.  The cap
    # then keeps only the constant mode, the mean projector with
    # 1->inf = 1/pi on [0, pi], or every resolved mode, with 2->2 = 1.
    assert main(["multiplier", "--basis", basis_file, "--symbol", "cap", f"--j={j}"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    vals = {k: float(v) for k, v in (line.split(" = ") for line in out.strip().splitlines())}
    assert vals["norm[2->2]"] == 1.0 and math.isfinite(vals["tail_bound"])
    if j == "-600":
        assert vals["norm[1->inf]"] == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert vals["tail_bound"] == 0.0


def test_multiplier_block_requires_j(basis_file, capsys):
    assert main(["multiplier", "--basis", basis_file]) == 1
    assert "--j is required" in capsys.readouterr().err


def test_multiplier_block_endpoints(basis_file, tmp_path, capsys):
    out_file = tmp_path / "k.npz"
    assert main(
        ["multiplier", "--basis", basis_file, "--symbol", "block",
         "--j", "3", "--out", str(out_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "tail_bound = 0.0" in out
    vals = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert float(vals["norm[2->2]"]) <= 1.0 + 1e-10
    assert out_file.exists()


def test_heat_prints_mean_removed_sup(basis_file, capsys):
    assert main(["heat", "--basis", basis_file, "--t", "2.0"]) == 0
    out = capsys.readouterr().out
    vals = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert float(vals["norm[2->2]"]) == pytest.approx(1.0, rel=1e-12)
    # Deviation from the mean projector peaks at the corner, where every
    # surviving mode contributes (2/pi) e^{-2 k^2}; the grid's half-cell
    # offset from the corner costs a few parts in 1e5.
    expect = (2.0 / math.pi) * sum(math.exp(-2.0 * k * k) for k in range(1, 4))
    assert float(vals["mean_removed_sup"]) == pytest.approx(expect, rel=1e-4)


def _long_double_mean_removed_sup(basis, t):
    """max |K_t - 1/|Omega|| over node pairs, summed in long double over the
    closed-form modes of an analytic basis other than the constant (pi is
    the double the basis was built with)."""
    ld, pi = np.longdouble, np.longdouble(math.pi)
    k = np.asarray(basis.mode_index).reshape(basis.K, -1)[1:]
    E, lam = np.ones((len(k), basis.grid.n_nodes), dtype=ld), np.zeros(len(k), dtype=ld)
    for ax, (L, N) in enumerate(zip(basis.domain.lengths, basis.grid.shape)):
        L = ld(L)
        x = (np.arange(N, dtype=ld) + ld(0.5)) * (L / N)
        modes = np.where(k[:, ax, None] == 0, 1 / np.sqrt(L),
                         np.sqrt(2 / L) * np.cos(k[:, ax, None] * pi * x / L))
        if ax == 0 and len(basis.grid.shape) == 2:  # nodes x-major
            modes = np.repeat(modes, basis.grid.shape[1], axis=1)
        elif ax == 1:
            modes = np.tile(modes, (1, basis.grid.shape[0]))
        E *= modes
        lam += (k[:, ax] * pi / L) ** 2
    return float(np.max(np.abs((E.T * np.exp(-t * lam)) @ E)))


@pytest.mark.parametrize("flags", [
    ["--shape", "interval", "--K", "33", "--N", "64"],
    ["--shape", "rectangle", "--Lx", repr(math.pi), "--Ly", repr(math.pi), "--Nx", "8",
     "--Ny", "8", "--K", "25"],
], ids=["interval", "rectangle"])
def test_heat_mean_removed_sup_keeps_its_digits_at_late_t(tmp_path, capsys, flags):
    # At t = 30, K_t - 1/|Omega| is about 1e-13 against K_t near 1/|Omega|,
    # so a difference of the two keeps only 3 or 4 digits.
    path = str(tmp_path / "b.json")
    assert main(["basis", *flags, "--out", path]) == 0
    capsys.readouterr()
    assert main(["heat", "--basis", path, "--t", "30"]) == 0
    vals = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    want = _long_double_mean_removed_sup(load_basis(path), 30.0)
    assert 0 < want < 1e-12
    assert float(vals["mean_removed_sup"]) == pytest.approx(want, rel=1e-14, abs=0)


_SAVED_BASES = pytest.mark.parametrize("flags, build", [
    (["--shape", "interval", "--L", "2.0", "--K", "33", "--N", "64"],
     lambda: build_interval_basis(2.0, 33, N=64)),
    (["--shape", "rectangle", "--Lx", "1.0", "--Ly", "2.0", "--Nx", "8", "--Ny", "12",
      "--K", "20"], lambda: build_rectangle_basis(1.0, 2.0, 20, Nx=8, Ny=12)),
    (["--shape", "lshape", "--h", "0.2", "--K", "12"],
     lambda: build_fd_basis(lshape_domain(), 0.2, 12)),
], ids=["interval", "rectangle", "lshape"])


@_SAVED_BASES
def test_kernel_out_writes_the_named_file(tmp_path, capsys, flags, build):
    # multiplier --out and heat --out write exactly the named path (no .npz
    # appended), and load_kernel returns the kernel the command built bit
    # for bit: source, values, tag and tail.
    path = str(tmp_path / "b.json")
    assert main(["basis", *flags, "--out", path]) == 0
    basis = load_basis(path)
    for argv, ker in [
        (["heat", "--t", "0.1"], heat_kernel(0.1, basis)),
        (["multiplier", "--symbol", "resolvent", "--beta", "0.75"],
         multiplier_kernel(resolvent_symbol(0.75, 1.0), basis)),
    ]:
        capsys.readouterr()
        out = tmp_path / argv[0]
        assert main([argv[0], "--basis", path, *argv[1:], "--out", str(out)]) == 0
        assert f"saved: {out}" in capsys.readouterr().out
        assert out.exists() and not (tmp_path / f"{argv[0]}.npz").exists()
        loaded = load_kernel(str(out), basis.grid)
        assert loaded.source == ker.source
        for a, b in [(loaded._profile, ker._profile), (loaded._matrix, ker._matrix),
                     *zip(loaded.factor or (None, None), ker.factor or (None, None)),
                     (loaded.symbol_values, ker.symbol_values)]:
            assert (a is None and b is None) or (a.dtype == b.dtype and a.shape == b.shape
                                                 and a.tobytes() == b.tobytes()), ker.tag
        assert (loaded.tag, loaded.tail_bound) == (ker.tag, ker.tail_bound)
        assert loaded.matrix.tobytes() == ker.matrix.tobytes()


@_SAVED_BASES
def test_heat_on_saved_basis_matches_in_process_build(tmp_path, capsys, flags, build):
    path = str(tmp_path / "b.json")
    assert main(["basis", *flags, "--out", path]) == 0
    capsys.readouterr()
    assert main(["heat", "--basis", path, "--t", "0.1"]) == 0
    basis = build()
    kernel = heat_kernel(0.1, basis)
    expect = [f"norm[{name}] = {float(val)!r}" for name, val in endpoint_norms(kernel).items()]
    # sup |K_t - 1/|Omega|| as the kernel of e^{-t lambda} without lambda = 0.
    projected = SymbolFn(fn=lambda lam: np.where(lam > 0, np.exp(-0.1 * lam), 0.0),
                         tag="projected heat")
    sup = endpoint_norms(multiplier_kernel(projected, basis))["1->inf"]
    expect += [f"tail_bound = {float(kernel.tail_bound)!r}", f"mean_removed_sup = {sup!r}"]
    assert capsys.readouterr().out.splitlines() == expect


@pytest.mark.parametrize("command", ["norm", "multiplier", "heat"])
@pytest.mark.parametrize("payload, message", [
    ({"format": "nbesov-eigenbasis/1", "kind": "analytic"}, "nbesov-eigenbasis/1"),
    ({"format": "nbesov-eigenbasis/2", "kind": "analytic"}, "lacks the field"),
], ids=["v1", "no_domain"])
def test_malformed_basis_file_exits_one(tmp_path, capsys, command, payload, message):
    basis = _write_function(tmp_path, "bad.json", payload)
    extra = {"norm": ["--function", _write_function(tmp_path, "f.json", {"coeffs": [1.0]})],
             "multiplier": ["--j", "2"], "heat": ["--t", "0.1"]}[command]
    assert main([command, "--basis", basis, *extra]) == 1
    err = capsys.readouterr().err
    assert "bad.json" in err and message in err


# ---------------------------------------------------------------------------
# verify / report


def test_verify_single_experiment(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "--only", "exp_reconstruction", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "reconstruction" in text and "pass" in text
    assert (out / "reconstruction.json").exists()


def test_verify_unknown_experiment(tmp_path, capsys):
    assert main(["verify", "--only", "nope", "--out", str(tmp_path / "r")]) == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_verify_config_parse_error_cites_location(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "seed": 1,\n  BAD\n}\n')
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_verify_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key, value in (("sedd", 7), ("jobs", 2)):
        cfg.write_text(json.dumps({key: value}) + "\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "invalid config" in err and repr(key) in err, key


def test_verify_flag_overrides_config_and_seed_strides(tmp_path, capsys):
    cfg_out = tmp_path / "from_config"
    flag_out = tmp_path / "from_flag"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "only": ["duality"], "out": str(cfg_out)}))
    assert main(["verify", "--config", str(cfg), "--out", str(flag_out)]) == 0
    capsys.readouterr()
    assert not cfg_out.exists()
    payload = json.loads((flag_out / "duality.json").read_text())
    # Base seed 7 plus the registry stride for the seventh slot.
    assert payload["seed"] == 7 + 101 * 6


def test_verify_inconclusive_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "only": ["multiplier_scaling"],
        "experiments": {"multiplier_scaling": {"j_lo": 3, "j_hi": 4}},
    }))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "inconclusive" in capsys.readouterr().out


def test_verify_gradient_on_one_block_scale_is_inconclusive(tmp_path, capsys):
    """One block scale gives spreads of 1.0: they decide nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"only": ["gradient"],
                               "experiments": {"gradient": {"j_lo": 4, "j_hi": 4}}}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "inconclusive" in capsys.readouterr().out
    payload = json.loads((tmp_path / "r" / "gradient.json").read_text())
    assert payload["notes"][-1] == "only 1 block scale j = 4; a spread needs 2"


@pytest.mark.parametrize("rid", ["gradient", "multiplier_scaling"])
def test_verify_rejects_an_empty_block_range(tmp_path, capsys, rid):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"only": [rid], "experiments": {rid: {"j_lo": 5, "j_hi": 4}}}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == "verify: j_lo=5 > j_hi=4 leaves no block scale\n"


def test_verify_config_override_is_recorded_in_the_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"only": ["embeddings"],
                               "experiments": {"embeddings": {"cap_l2": 0.5}}}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
    capsys.readouterr()
    payload = json.loads((tmp_path / "r" / "embeddings.json").read_text())
    assert payload["params"]["cap_l2"] == 0.5


@pytest.mark.parametrize("rid, key, value", [
    ("moment_decay", "N", 8192.9), ("heat_gaussian", "interval_K", 200.5),
    ("reconstruction", "n_samples", "5"), ("amalgam", "interval_K", 257.0),
    ("gradient", "K", True),
], ids=["float_for_int", "half_for_int", "string_for_int", "whole_float_for_int", "bool_for_int"])
def test_verify_config_rejects_an_override_of_another_type(tmp_path, capsys, rid, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"only": [rid], "experiments": {rid: {key: value}}}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify: ") and f"{key}=" in err


def test_verify_negative_control_exit_code(tmp_path, capsys):
    rc = main(
        ["verify", "--only", "neg_reversed_inequality", "--out", str(tmp_path / "r")]
    )
    assert rc == 3
    assert "fail" in capsys.readouterr().out


def test_verify_out_dir_from_environment(tmp_path, capsys, monkeypatch):
    env_out = tmp_path / "env_reports"
    monkeypatch.setenv("NB_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--only", "duality"]) == 0
    capsys.readouterr()
    assert (env_out / "duality.json").exists()


def test_report_rerenders_saved_directory(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["verify", "--only", "duality", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "duality" in text and "pass" in text


def test_report_exit_code_tracks_verdicts(tmp_path, capsys):
    (tmp_path / "x.json").write_text(json.dumps({"id": "x", "verdict": "fail"}))
    (tmp_path / "y.json").write_text(json.dumps({"id": "y", "verdict": "pass"}))
    assert main(["report", "--dir", str(tmp_path)]) == 3
    (tmp_path / "x.json").write_text(json.dumps({"id": "x", "verdict": "inconclusive"}))
    assert main(["report", "--dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_report_rejects_an_unknown_verdict(tmp_path, capsys):
    (tmp_path / "x.json").write_text(json.dumps({"id": "x", "verdict": "Fail"}))
    assert main(["report", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "x.json" in err and "'Fail'" in err


def test_report_rejects_a_non_object_file(tmp_path, capsys):
    (tmp_path / "x.json").write_text("[1]")
    assert main(["report", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "x.json" in err and "not an object" in err


@pytest.mark.parametrize("ids, message", [
    ((["a"],), "id ['a'] is not a string"),
    ((3, "y"), "id 3 is not a string"),
], ids=["unhashable", "unorderable"])
def test_report_rejects_an_id_that_is_not_a_string(tmp_path, capsys, ids, message):
    """An id that cannot be hashed, or ordered beside a string id, names the
    file and exits 1."""
    for name, rid in zip("xy", ids):
        (tmp_path / f"{name}.json").write_text(json.dumps({"id": rid, "verdict": "pass"}))
    assert main(["report", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"x.json is not a report file ({message})" in err


def test_report_empty_directory(tmp_path, capsys):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    assert main(["report", "--dir", str(tmp_path / "empty")]) == 1
    assert "no report files" in capsys.readouterr().err


def test_heat_out_on_an_lshape_basis_reloads_with_equal_norms(tmp_path, capsys):
    # heat --out on a saved L-shape basis writes the kernel's factor, and
    # the file reads back with the endpoint norms the command printed.
    path, out = str(tmp_path / "L.json"), str(tmp_path / "heat.npz")
    assert main(["basis", "--shape", "lshape", "--h", "0.1", "--K", "40", "--out", path]) == 0
    capsys.readouterr()
    assert main(["heat", "--basis", path, "--t", "0.01", "--out", out]) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                   if line.startswith("norm["))
    with np.load(out) as z:
        assert "factor_u" in z.files and "factor_v" in z.files and "matrix" not in z.files
    loaded = load_kernel(out, load_basis(path).grid)
    norms = endpoint_norms(loaded)
    assert {f"norm[{k}]": repr(v) for k, v in norms.items()} == printed
    assert norms == endpoint_norms(heat_kernel(0.01, load_basis(path)))
