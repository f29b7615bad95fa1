"""Report objects produced by the verification experiments.

Each experiment emits one EstimateReport: the parameter grid it ran on,
the per-point measurements, a least-squares fit where a slope or rate is
the claim under test, and a verdict.  Reports serialize to a canonical
JSON layout (sorted keys, fixed separators) so a rerun with the same seed
produces a byte-identical file; wall-clock time is kept out of the payload
for that reason and only shown in the summary line.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "FitResult",
    "EstimateReport",
    "least_squares_fit",
    "summary_table",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FitResult:
    """Least-squares line y = slope*x + intercept with RMS residual."""

    slope: float
    intercept: float
    residual: float


def least_squares_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    A = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(slope=float(coef[0]), intercept=float(coef[1]), residual=rms)


def _jsonable(value):
    """Coerce numpy scalars/arrays and plain containers into JSON types."""
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class EstimateReport:
    """One experiment's measurements, fits, and verdict.

    points is a list of flat dicts (one row per parameter-grid point);
    fit holds the headline fitted quantities; figures maps a name to an
    (x-array, y-array) pair written as a plot-ready two-column file.
    """

    id: str
    params: dict
    points: list = field(default_factory=list)
    fit: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    seed: int = 0
    notes: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    runtime: float = 0.0

    def payload(self) -> dict:
        return {
            "id": self.id,
            "params": _jsonable(self.params),
            "points": _jsonable(self.points),
            "fit": _jsonable(self.fit),
            "verdict": self.verdict,
            "seed": int(self.seed),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def save(self, out_dir: str) -> list[str]:
        """Write the JSON report, the CSV point table, and the figure files
        that have rows."""
        os.makedirs(out_dir, exist_ok=True)
        written = []
        jpath = os.path.join(out_dir, f"{self.id}.json")
        with open(jpath, "w") as fh:
            fh.write(self.to_json())
        written.append(jpath)
        if self.points:
            cpath = os.path.join(out_dir, f"{self.id}.points.csv")
            cols = sorted({k for row in self.points for k in row})
            with open(cpath, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(cols)
                for row in self.points:
                    writer.writerow([_csv_cell(row.get(c)) for c in cols])
            written.append(cpath)
        for name, (xs, ys) in sorted(self.figures.items()):
            rows = [f"{_dat_cell(xv)} {_dat_cell(yv)}\n" for xv, yv in zip(xs, ys)]
            if not rows:
                continue
            fpath = os.path.join(out_dir, f"{self.id}.{name}.dat")
            with open(fpath, "w") as fh:
                fh.writelines(rows)
            written.append(fpath)
        return written

    def summary_line(self) -> str:
        return f"{self.id:<28s} {self.verdict:<13s} {self.runtime:7.2f}s"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _dat_cell(v) -> str:
    return repr(float(v))


def summary_table(reports: Iterable[EstimateReport]) -> str:
    lines = [f"{'experiment':<28s} {'verdict':<13s} {'runtime':>8s}"]
    for rep in reports:
        lines.append(rep.summary_line())
    return "\n".join(lines)
