"""Compare ``scan``'s classification with two finite-difference ones.

``geonull scan`` classifies the splitting tensor that
``splitting.splitting_tensor_from_curvature`` solves from nabla R, taken in
closed form from the point's metric 3-jet.  This compares three kinds per
point:

* ``richardson``: the kernel-field stencil of ``splitting.splitting_tensor``
  (what ``analyze`` prints);
* ``stencil``: the same solve with nabla R from central differences of R
  (``curvature._covariant_dr``, step ``--fd-step``), under scan's residual
  gate;
* ``analytic``: scan's own kind.

For random points of each warped catalog family (uniform in the chart box,
points outside the chart skipped) it prints how often each triple of kinds
occurs, how many points each method leaves unclassified, then one line per
disagreement: the point, the warp p there, the relative residuals of both
solves and the catalog's closed-form kind (``nilpotent`` wherever the
curvature is nonzero).  An empty kind (``-``) means the point got no
classification.  Exits 1 if the analytic kind is ever other than the closed
form, or if it leaves more points of a family unclassified than the stencil
does.

Run:  python3 tools/scan_kind_agreement.py [--points 1000] [--seed 2027]

Conullity3 with benchmark-style warps draws a fresh warp every 50 points.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import Counter
from dataclasses import replace

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
    SMOOTH_KERNEL_RESIDUAL,
    AlignmentError,
    KernelDimensionError,
    NonUnitFieldError,
    classify,
    splitting_tensor,
    splitting_tensor_from_curvature,
)

FAULTS = (ChartDomainError, DomainError, SingularMatrixError, FloatingPointError)
WARPS_EVERY = 50


def _solve(metric, data, h):
    """``(kind, residual)`` of the nabla R solve on ``data``, as scan gates it."""
    try:
        matrix, residual = splitting_tensor_from_curvature(metric, data, h)
    except FAULTS:
        return "", None
    kind = classify(matrix, tol=cli.CLASSIFY_TOL).kind if residual <= SMOOTH_KERNEL_RESIDUAL else ""
    return kind, residual


def _compare(metric, point, h):
    """``((richardson, stencil, analytic) kinds, residuals, closed-form kind)``, or None off a line kernel."""
    try:
        data = curvature_data(metric, point, nabla_r=True)
    except FAULTS:
        return None
    if not cli._splitting_defined(data.nullity):
        return None
    try:
        richardson = classify(splitting_tensor(metric, point, h=h).matrix, tol=cli.CLASSIFY_TOL).kind
    except FAULTS + (KernelDimensionError, AlignmentError, NonUnitFieldError):
        richardson = ""
    stencil, stencil_residual = _solve(metric, replace(data, nabla_r=None), h)
    analytic_residual = _solve(metric, data, h)[1]
    analytic = cli._scan_worker(metric, point, None)[3]
    closed = "nilpotent" if abs(data.scalar_trace) > 1e-8 else "zero"
    return (richardson, stencil, analytic), (stencil_residual, analytic_residual), closed


def _residual(value) -> str:
    return "-" if value is None else "%.2e" % value


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
                kinds, residuals, closed = record
                tally[kinds] += 1
                if kinds[2] not in ("", closed):
                    wrong += 1
                if len(set(kinds)) > 1:
                    p = metric.annotations["p_expression"].value(point[list(p_vars)])
                    lines.append(
                        f"{label}: point {','.join('%.17g' % c for c in point)} p={p:.3g} "
                        f"richardson/stencil/analytic={'/'.join(k or '-' for k in kinds)} closed_form={closed} "
                        f"residuals stencil={_residual(residuals[0])} analytic={_residual(residuals[1])}"
                    )
    worse = []
    for label, tally in tallies.items():
        triples = {k: v for k, v in tally.items() if k != "skipped"}
        pairs = ", ".join(f"{'/'.join(c or '-' for c in k)}: {v}" for k, v in sorted(triples.items()))
        unclassified = [sum(v for k, v in triples.items() if not k[i]) for i in range(3)]
        print(f"{label}: {pairs}; skipped {tally['skipped']} (off the chart or no line kernel); "
              f"unclassified richardson {unclassified[0]}, stencil {unclassified[1]}, analytic {unclassified[2]}")
        if unclassified[2] > unclassified[1]:
            worse.append(label)
    print(f"{len(lines)} disagreements (richardson/stencil/analytic, '-' = no kind):")
    for line in lines:
        print("  " + line)
    print(f"analytic kinds other than the closed form: {wrong}")
    print(f"families the analytic kind leaves more unclassified than the stencil: {len(worse)}")
    return 1 if wrong or worse else 0


if __name__ == "__main__":
    sys.exit(main())
