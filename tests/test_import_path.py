"""scipy stays off the import path of nbesov and of the default suite.

The analytic calculus needs numpy alone; scipy.sparse loads inside the
finite-difference basis builder, and scipy.special only for a tail majorant
whose exponent is not a half-integer.  Each check runs in a fresh
interpreter, because this test session has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nbesov
from nbesov.domains import build_fd_basis, lshape_domain

SRC = str(Path(nbesov.__file__).resolve().parents[1])


def _fresh(code: str, *flags: str) -> str:
    """stdout of a new interpreter with src on its path that runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_nbesov_loads_no_scipy():
    out = _fresh("import sys, json, nbesov, nbesov.cli; "
                 "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert json.loads(out) == []


def test_the_default_suite_runs_with_scipy_blocked(tmp_path):
    """With sys.modules['scipy'] = None any scipy import raises ImportError;
    nbesov, nbesov.cli and the default run_suite() still complete, every
    experiment passes, and no RuntimeWarning is raised."""
    out = _fresh(
        "import sys, json; sys.modules['scipy'] = None\n"
        "import nbesov, nbesov.cli\n"
        "from nbesov.verify import run_suite\n"
        f"reports = run_suite(out_dir={str(tmp_path)!r})\n"
        "print(json.dumps({r.id: r.verdict for r in reports}))",
        "-W", "error::RuntimeWarning")
    verdicts = json.loads(out.splitlines()[-1])
    assert len(verdicts) == 11 and set(verdicts.values()) == {"pass"}, verdicts
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(verdicts)


def test_a_finite_difference_basis_loads_scipy_where_it_is_built():
    basis = build_fd_basis(lshape_domain(), 0.25, 5)
    assert basis.K == 5 and basis.eigenvalues[0] == 0.0
    assert np.all(np.diff(basis.eigenvalues) >= 0)
