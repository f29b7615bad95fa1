"""run_suite computes on one BLAS thread and hands the caller's count back.

A threaded product sums in an order set by the thread count, so without the
pin the last bits of some reports depended on OPENBLAS_NUM_THREADS.  The
checks that need numpy's OpenBLAS skip, naming the reason, where numpy runs
on another BLAS.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbesov
from nbesov.verify import DEFAULT_IDS, runner, run_suite

SRC = str(Path(nbesov.__file__).resolve().parents[1])

BLAS = runner._openblas_threads()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy is not linked to an OpenBLAS "
                                    "whose get/set_num_threads calls runner finds")


@pytest.fixture
def two_threads():
    """The process runs on 2 OpenBLAS threads for the test, then on the
    count it had before."""
    get, set_ = BLAS
    before = get()
    set_(2)
    yield get
    set_(before)


def _verify_bytes(tmp_path, threads: str) -> dict:
    """Report file bytes of reconstruction and leibniz (seed 0, the seed at
    which 1 and 2 threads used to differ) in a fresh interpreter that starts
    on the given OPENBLAS_NUM_THREADS."""
    out = tmp_path / f"threads{threads}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-m", "nbesov.cli", "verify", "--only",
                           "reconstruction", "leibniz", "--seed", "0", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@needs_openblas
def test_reports_do_not_depend_on_the_thread_count(tmp_path):
    one, two = _verify_bytes(tmp_path, "1"), _verify_bytes(tmp_path, "2")
    assert sorted(one) == ["leibniz.json", "leibniz.points.csv",
                           "reconstruction.json", "reconstruction.points.csv"]
    assert [name for name in one if one[name] != two[name]] == []


def _probe(calls, get, fail=False):
    """A registry entry that records the thread count it runs on."""
    def exp(spec):
        calls.append(get())
        if fail:
            raise RuntimeError("experiment failed")
        return runner.exp_duality(spec)
    return exp


@needs_openblas
def test_the_callers_count_comes_back_after_a_run(two_threads, monkeypatch):
    calls = []
    monkeypatch.setitem(runner.REGISTRY, "duality", _probe(calls, two_threads))
    [rep] = run_suite(ids=["duality"])
    assert rep.verdict == "pass"
    assert calls == [1] and two_threads() == 2


@needs_openblas
def test_the_callers_count_comes_back_after_an_experiment_raises(two_threads, monkeypatch):
    calls = []
    monkeypatch.setitem(runner.REGISTRY, "duality", _probe(calls, two_threads, fail=True))
    with pytest.raises(RuntimeError, match="experiment failed"):
        run_suite(ids=["duality"])
    assert calls == [1] and two_threads() == 2


@needs_openblas
def test_only_the_outermost_run_restores_the_count(two_threads, monkeypatch):
    """A run that starts inside another leaves the count at 1 until the
    outer run ends."""
    calls = []

    def outer(spec):
        run_suite(ids=["duality"])
        calls.append(two_threads())
        return runner.exp_duality(spec)

    monkeypatch.setitem(runner.REGISTRY, "reconstruction", outer)
    run_suite(ids=["reconstruction"])
    assert calls == [1] and two_threads() == 2


def test_without_openblas_the_suite_runs_as_before(suite_reports, monkeypatch, request,
                                                   tmp_path):
    """With the lookup finding no OpenBLAS, the default suite writes the same
    verdicts, and run_suite leaves the caller's thread count alone."""
    monkeypatch.setattr(runner, "_openblas_threads", lambda: None)
    run_suite(out_dir=str(tmp_path))
    written = {rid: json.loads((tmp_path / f"{rid}.json").read_text())["verdict"]
               for rid in DEFAULT_IDS}
    assert written == {rid: rep.verdict for rid, rep in suite_reports["reports"].items()}
    if BLAS is not None:
        calls = []
        get = request.getfixturevalue("two_threads")
        monkeypatch.setitem(runner.REGISTRY, "duality", _probe(calls, get))
        run_suite(ids=["duality"])
        assert calls == [2] and get() == 2
