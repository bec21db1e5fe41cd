"""Compare ``scan``'s classification from nabla R with the finite-difference stencil's.

``geonull scan`` classifies the splitting tensor that
``splitting.splitting_tensor_from_curvature`` solves from nabla R; before,
it classified the Richardson stencil of ``splitting.splitting_tensor``.  For
random points of each warped catalog family (uniform in the chart box,
points outside the chart skipped) this prints how often each pair of kinds
(stencil, nabla R) occurs, then one line per disagreement: the point, the
warp p there, the nabla R solve's relative residual and the catalog's
closed-form kind (``nilpotent`` wherever the curvature is nonzero).  An
empty kind means the point got no classification.  Exits 1 if nabla R ever
names a kind other than the closed-form one.

Run:  python3 tools/scan_kind_agreement.py [--points 1000] [--seed 2027]

Conullity3 with benchmark-style warps draws a fresh warp every 50 points.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from geonull import cli  # noqa: E402
from geonull.curvature import curvature_data  # noqa: E402
from geonull.exprcalc import DomainError  # noqa: E402
from geonull.metricspace import (  # noqa: E402
    DEFAULT_BOX,
    ChartDomainError,
    catalog_conullity3,
    catalog_sekigawa,
)
from geonull.numcore import SingularMatrixError  # noqa: E402
from geonull.splitting import (  # noqa: E402
    AlignmentError,
    KernelDimensionError,
    NonUnitFieldError,
    classify,
    splitting_tensor,
    splitting_tensor_from_curvature,
)

FAULTS = (ChartDomainError, DomainError, SingularMatrixError, FloatingPointError)
WARPS_EVERY = 50


def _compare(metric, point, h):
    """``(stencil kind, nabla R kind, residual, closed-form kind)``, or None off a line kernel."""
    try:
        data = curvature_data(metric, point)
    except FAULTS:
        return None
    if not cli._splitting_defined(data.nullity):
        return None
    try:  # what the stencil-based scan printed
        old_kind = classify(splitting_tensor(metric, point, h=h).matrix, tol=cli.CLASSIFY_TOL).kind
    except FAULTS + (KernelDimensionError, AlignmentError, NonUnitFieldError):
        old_kind = ""
    try:
        residual = splitting_tensor_from_curvature(metric, data, h)[1]
    except FAULTS:
        residual = None
    new_kind = cli._scan_worker(metric, point, None, h)[3]
    return old_kind, new_kind, residual, "nilpotent" if abs(data.scalar_trace) > 1e-8 else "zero"


def _families(rng: random.Random, points: int):
    """(label, metric, indices of p's variables, n) per batch of points."""

    def warp(x, y):
        a, b, c = rng.uniform(2.5, 4.0), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        return f"{a:.6f}+cos({b:.6f}*{x})+cos({c:.6f}*{y})"

    for _ in range(points // WARPS_EVERY):
        yield "conullity3 warps", catalog_conullity3(warp("u", "w")), (0, 1, 3), WARPS_EVERY
    yield "conullity3 3+cos(u)+cos(w)", catalog_conullity3("3+cos(u)+cos(w)"), (0, 1, 3), points
    yield "conullity3 4-u*u-w*w", catalog_conullity3("4-u*u-w*w"), (0, 1, 3), points
    yield "sekigawa exp(u)", catalog_sekigawa("exp(u)"), (0, 1), points
    for _ in range(points // WARPS_EVERY):
        yield "sekigawa warps", catalog_sekigawa(warp("u", "x")), (0, 1), WARPS_EVERY


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=1000, help="points per family")
    ap.add_argument("--seed", type=int, default=2027)
    ap.add_argument("--fd-step", type=float, default=cli.DEFAULT_FD_STEP)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    tallies: dict = {}
    lines = []
    wrong = 0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for label, metric, p_vars, count in _families(rng, args.points):
            tally = tallies.setdefault(label, Counter())
            for _ in range(count):
                point = np.array([rng.uniform(-DEFAULT_BOX, DEFAULT_BOX) for _ in range(metric.dim)])
                record = _compare(metric, point, args.fd_step)
                if record is None:
                    tally["skipped"] += 1
                    continue
                old_kind, new_kind, residual, closed = record
                tally[(old_kind, new_kind)] += 1
                if new_kind not in ("", closed):
                    wrong += 1
                if old_kind != new_kind:
                    p = metric.annotations["p_expression"].value(point[list(p_vars)])
                    lines.append(
                        f"{label}: point {','.join('%.17g' % c for c in point)} p={p:.3g} "
                        f"stencil={old_kind or '-'} nablaR={new_kind or '-'} closed_form={closed} "
                        f"residual={residual if residual is None else '%.2e' % residual}"
                    )
    for label, tally in tallies.items():
        pairs = ", ".join(
            f"{k[0] or '-'}/{k[1] or '-'}: {v}" for k, v in sorted(tally.items(), key=str) if k != "skipped"
        )
        print(f"{label}: {pairs}; skipped {tally['skipped']} (off the chart or no line kernel)")
    print(f"{len(lines)} disagreements (stencil/nablaR, '-' = no kind):")
    for line in lines:
        print("  " + line)
    print(f"nabla R kinds other than the closed form: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
