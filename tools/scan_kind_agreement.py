"""Compare ``scan``'s classification with two finite-difference ones and the full nabla R's.

``geonull scan``, ``analyze`` and ``flow`` take the splitting tensor from
one pipeline, ``splitting._pipeline``, which solves it from -(nabla R)(T,
...) in closed form from the point's metric 3-jet, T contracted in before
any n^5 product.  This compares four kinds per point:

* ``richardson``: the kernel-field stencil of ``splitting.splitting_tensor``
  (the reference the tests compare the solve with);
* ``stencil``: the same solve with nabla R from central differences of R
  at x +/- 1e-4 e_m (``stencil_splitting_tensor`` of ``tests/oracles.py``),
  under scan's residual gate;
* ``analytic``: scan's own kind, from ``cli._scan_rows`` on all the points
  of a warp (or of a fixed family) at once, as ``scan`` stacks a grid;
* ``full``: the solve from all n^5 entries of nabla R by the product rule
  on R^l_ijk (``raised_nabla_riemann`` of ``tests/oracles.py``, the
  formulas the solve took before T was contracted in) contracted with T
  point by point, against R built lowered (the one R of every command),
  over the pipeline's solve rows, under the same gate.

Each point's R, kernel, solve rows and residual come from the pipeline on
that point alone (``stack_of_one`` of ``tests/oracles.py``).

For random points of each warped catalog family (uniform in the chart box,
points outside the chart skipped) it prints how often each triple of kinds
occurs, how many points each method leaves unclassified, then one line per
disagreement: the point, the warp p there, the relative residuals of both
solves and the catalog's closed-form kind (``nilpotent`` wherever the
curvature is nonzero).  An empty kind (``-``) means the point got no
classification.  Exits 1 if the analytic kind is ever other than the closed
form, or other than the full nabla R's where the full solve names a kind,
or if it leaves more points of a family unclassified than the stencil
does.  A point the analytic solve classifies and the full one leaves
unclassified (its residual, from R and nabla R of different formulas, above
the gate) is listed and counted apart: its kind is checked against the
closed form.

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
sys.path.insert(1, os.path.join(ROOT, "tests"))

from geonull import cli  # noqa: E402
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
    _least_squares,
    classify,
    splitting_tensor,
)
from oracles import raised_nabla_riemann, stack_of_one, stencil_splitting_tensor  # noqa: E402

FAULTS = (ChartDomainError, DomainError, SingularMatrixError, FloatingPointError)
WARPS_EVERY = 50


def _kind(matrix, residual) -> str:
    return classify(matrix, tol=cli.CLASSIFY_TOL).kind if residual <= SMOOTH_KERNEL_RESIDUAL else ""


def _solve(solve, metric, data):
    """``(kind, residual)`` of ``solve(metric, data)``, a nabla R solve, as scan gates it."""
    try:
        matrix, residual = solve(metric, data)
    except FAULTS:
        return "", None
    return _kind(matrix, residual), residual


def _full_kind(metric, data, basis) -> str:
    """The kind from all of the oracle's nabla R contracted with T, as the solve took it before contracting T in.

    The solve runs over the rows ``basis`` of the pipeline's solve, "" where it has none.
    """
    if basis is None:
        return ""
    t_vec = data.nullity.basis[0]
    try:
        rhs = -np.einsum("mijkl,i->mjkl", raised_nabla_riemann(*metric.jet(data.point, order=3)), t_vec)
        (coef, residual), = _least_squares(data.rdown, rhs, basis)
    except FAULTS:
        return ""
    return _kind(-coef @ basis.T, residual)


def _compare(metric, point, analytic):
    """``((richardson, stencil, analytic) kinds, residuals, closed-form kind, full kind)``, or None off a line kernel.

    ``analytic`` is scan's kind at the point.
    """
    try:
        stack = stack_of_one(metric, point)
    except FAULTS:
        return None
    error, solve = stack.errors[0], stack.tensors[0]
    for exc in (error, solve):
        if isinstance(exc, Exception) and not isinstance(exc, FAULTS):
            raise exc
    if error is not None or solve is None:  # no curvature, or no line kernel with a complement
        return None
    data, solved = stack.data(0), isinstance(solve, tuple)
    try:
        richardson = classify(splitting_tensor(metric, point).matrix, tol=cli.CLASSIFY_TOL).kind
    except FAULTS + (KernelDimensionError, AlignmentError, NonUnitFieldError):
        richardson = ""
    stencil, stencil_residual = _solve(stencil_splitting_tensor, metric, data)
    analytic_residual = solve[1] if solved else None
    closed = "nilpotent" if abs(data.scalar_trace) > 1e-8 else "zero"
    full = _full_kind(metric, data, solve[2] if solved else None)
    return (richardson, stencil, analytic), (stencil_residual, analytic_residual), closed, full


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
    args = ap.parse_args()
    rng = random.Random(args.seed)
    tallies: dict = {}
    lines = []
    wrong = 0
    differ, gated = [], []
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for label, metric, p_vars, count in _families(rng, args.points):
            tally = tallies.setdefault(label, Counter())
            points = [np.array([rng.uniform(-DEFAULT_BOX, DEFAULT_BOX) for _ in range(metric.dim)])
                      for _ in range(count)]
            # scan's rows for the whole batch, through its stacked pipeline
            rows = cli._scan_rows(metric, points, None)
            for point, row in zip(points, rows):
                record = _compare(metric, point, "" if row is None else row[3])
                if record is None:
                    tally["skipped"] += 1
                    continue
                kinds, residuals, closed, full = record
                tally[kinds] += 1
                if kinds[2] not in ("", closed):
                    wrong += 1
                if kinds[2] != full:
                    (differ if full else gated).append(
                        f"{label}: point {','.join('%.17g' % c for c in point)} "
                        f"analytic={kinds[2] or '-'} full={full or '-'}"
                    )
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
    print(f"analytic kinds other than the full nabla R's: {len(differ)}")
    for line in differ:
        print("  " + line)
    print(f"points only the analytic solve classifies (the full one's residual above the gate): {len(gated)}")
    for line in gated:
        print("  " + line)
    print(f"families the analytic kind leaves more unclassified than the stencil: {len(worse)}")
    return 1 if wrong or differ or worse else 0


if __name__ == "__main__":
    sys.exit(main())
