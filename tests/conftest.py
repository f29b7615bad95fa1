import pytest

from nbesov.spectral import OperatorKernel
from nbesov.verify import run_suite


def _dense_read(kernel):
    raise AssertionError(f"OperatorKernel.matrix read on {kernel.tag}")


@pytest.fixture
def no_dense_kernels(monkeypatch):
    """OperatorKernel.matrix raises for the rest of the test: the library
    reads every kernel through row_blocks() and columns()."""
    monkeypatch.setattr(OperatorKernel, "matrix", property(_dense_read))


@pytest.fixture(scope="session")
def suite_reports(tmp_path_factory):
    """Run the default verification suite once and share the reports.

    Several test modules assert on the same experiments; running the suite
    a single time keeps the wall clock sane without weakening any check.
    It runs with OperatorKernel.matrix raising, so no experiment forms a
    dense kernel.
    """
    out = tmp_path_factory.mktemp("suite_reports")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OperatorKernel, "matrix", property(_dense_read))
        reports = run_suite(out_dir=str(out))
    return {"reports": {r.id: r for r in reports}, "out_dir": out}
