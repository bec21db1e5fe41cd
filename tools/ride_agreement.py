"""Compare ``flows.geodesic``'s stacked ride with the point-by-point RK4 loop.

``flows.geodesic`` rides steps of exactly zero acceleration in stacked
blocks and hands the first step it cannot vouch for to the point-by-point
loop.  This draws seeded rides on warped conullity3 and sekigawa charts
(warp ``a+cos(b*s)+cos(c*t)``, a in [2.5, 4], b and c in [0.5, 1.5]; points
uniform in the chart box, those off the chart skipped), launched along the
curvature kernel as ``flow`` launches them, or one time in four along a
random direction, with a transported frame, a random step count and ``tmax``
of either sign.  Half the conullity3 kernel rides run on a chart whose
kernel grows to dimension 2 part-way along the ride, or whose higher jets
raise further on, so that samples abort, or raise, or both, the error past
the abort.  One ride in ten runs along x from a point with u = v = w = 0
on a conullity3 chart whose jet raises past a drawn x, where the ride is
straight: a stacked block meets the raising jet mid-block.  Each ride runs twice: through ``geodesic``, and through the
point-by-point loop alone from node 0.  Both must give the same bytes for
every field of the path.

Points jetted are counted on the chart's coframe jet: one a call of its
per-point form, and each point of a call of its stacked form that it does
not leave to the per-point form.  A ride whose stacked pass met no jet that
raised or failed the Christoffel-bracket screen, and that was stacked to
the end or truncated, must jet what the loop jets; any other may jet more,
up to one block's stage points (a block jets its stage points in one call,
past a bend or a raising jet it does not know of yet), and never fewer.

Each ride launched along the kernel also runs ``flow``'s Riccati check,
``splitting.evolve_along_nullity_geodesic``, which measures its samples
together, and the same check with each sample measured alone (the
splitting pipeline on each sample alone, ``tensor_alone`` of
``tests/oracles.py``, in order, up to the first error).  Both must give
the same bytes for the start tensor and every sample's time, tensor,
prediction and deviation, and the same ``aborted`` message, or raise the
same error.

It prints one line per ride, with the points it jetted stacked and point
by point, marking those that differ, and for a kernel ride how its samples
ended, then how many rides the stacked pass took to the end, how many it
handed over part-way or at the start, and how many were truncated, then
the points jetted by the stacked rides and by the loop, in all and on the
rides that jetted more, and how many kernel rides' samples differ.  A ride
whose stacked pass or loop raises an error that the stages do not catch
differs too: its line names the error, and the run goes on (tallied as
``raised``).  Exits 1 if any ride differs.

Run:  python3 tools/ride_agreement.py [--rides 100] [--seed 2031]
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.join(ROOT, "tests"))

from geonull import flows, metricspace, splitting  # noqa: E402
from geonull.curvature import curvature_data  # noqa: E402
from geonull.metricspace import (  # noqa: E402
    DEFAULT_BOX,
    MetricField,
    catalog_conullity3,
    catalog_euclidean,
    catalog_product,
    catalog_sekigawa,
    catalog_sphere,
)
from geonull.splitting import evolve_along_nullity_geodesic, kernel_section  # noqa: E402
from oracles import tensor_alone  # noqa: E402

FIELDS = ("times", "points", "velocities", "frame")


class _Spies:
    """Counts of the points the coframe jets, and whether a stacked pass met a bend or a failing jet."""

    def __init__(self):
        self.jetted = 0
        self.bent = False
        coframe = metricspace._CoframeJet
        call, stacked, straight = coframe.__call__, coframe.jets, flows._straight
        spies = self

        def counted_call(self, x, order):
            spies.jetted += 1
            return call(self, x, order)

        def counted_jets(self, pts, order, check):
            arrays, outside, alone = stacked(self, pts, order, check)
            spies.jetted += len(pts) - int(np.count_nonzero(alone))
            spies.bent |= bool(alone.any())
            return arrays, outside, alone

        def screened(dg, bracket):
            result, s = straight(dg, bracket)
            spies.bent |= not result.all()
            return result, s

        coframe.__call__, coframe.jets = counted_call, counted_jets
        flows._straight = screened

    def reset(self) -> None:
        self.jetted, self.bent = 0, False


def _ride(rng: random.Random):
    """(label, metric, x0, v0, frame, tmax, steps) of one drawn ride, or None off the chart."""
    a, b, c = rng.uniform(2.5, 4.0), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    if rng.random() < 0.1:
        return _raising_ride(rng, f"{a:.6f}+cos({b:.6f}*u)+cos({c:.6f}*w)")
    if rng.random() < 0.5:
        label, metric = "conullity3", catalog_conullity3(f"{a:.6f}+cos({b:.6f}*u)+cos({c:.6f}*w)")
    else:
        label, metric = "sekigawa", catalog_sekigawa(f"{a:.6f}+cos({b:.6f}*u)+cos({c:.6f}*x)")
    n = metric.dim
    x0 = np.array([rng.uniform(-DEFAULT_BOX, DEFAULT_BOX) for _ in range(n)])
    if not metric.contains(x0):
        return None
    if rng.random() < 0.25:
        label += " off-kernel"
        v0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
    else:
        v0 = kernel_section(metric, x0)[0]
    frame = np.eye(n)[rng.sample(range(n), rng.randint(1, n))]
    tmax = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 4.0)
    steps = rng.randint(1, 300)
    if label == "conullity3" and rng.random() < 0.5:
        label += " kernel grows"
        metric = _kernel_grows(metric, x0[2], tmax * v0[2], rng)
    return label, metric, x0, v0, frame, tmax, steps


def _raising_ride(rng: random.Random, warp: str):
    """A ride along x from (x0, 0, 0, 0) on a conullity3 chart whose jet raises past a drawn x.

    The warp gains ``0*sqrt(s*(limit-x))``, flat in x, so the ride is
    straight (p's derivatives and the affine terms vanish along it) up to
    ``limit``, past which the jet raises a DomainError: a stacked block
    jets that point in one call with points before it, keeps its error,
    and the point-by-point loop truncates there.
    """
    tmax = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 4.0)
    x0 = rng.uniform(-DEFAULT_BOX, DEFAULT_BOX)
    limit = x0 + rng.uniform(0.05, 1.0) * tmax
    metric = catalog_conullity3(f"{warp}+0*sqrt({math.copysign(1.0, tmax):g}*({limit:.6f}-x))")
    frame = np.eye(4)[rng.sample(range(4), rng.randint(1, 4))]
    x0 = np.array([x0, 0.0, 0.0, 0.0])
    return "conullity3 raising off-kernel", metric, x0, np.array([1.0, 0.0, 0.0, 0.0]), frame, tmax, rng.randint(1, 300)


def _kernel_grows(base, v_start: float, travel: float, rng: random.Random):
    """``base`` with a kernel of dimension 2 past a drawn share of a kernel ride along v, and no jet further on.

    The ride moves v from ``v_start`` by ``travel``.  Past one drawn share
    of it (three times in four) the order-2+ jets are those of S^2 x R^2,
    whose kernel is the (v, w) plane, so a sample there aborts; past another
    (two times in three), before or after the first, they raise.  The
    order-1 jets, and so the path, are the base's.
    """
    grow = rng.uniform(0.15, 0.85) if rng.random() < 0.75 else math.inf
    fail = rng.uniform(0.15, 1.0) if rng.random() < 2 / 3 else math.inf
    plane_kernel = catalog_product(catalog_sphere(1.0), catalog_euclidean(2))

    def jet(q, order):
        share = (q[2] - v_start) / travel
        if order >= 2 and share > fail:
            raise ValueError(f"no jet at v = {q[2]!r}")
        if order >= 2 and share > grow:
            return plane_kernel.jet([1.0, 0.5, q[2], q[3]], order=order, check=False)
        return base.jet(q, order=order, check=False)

    return MetricField(base.dim, base.coordinates, jet, domain=base.contains,
                       preferred_frame=base.preferred_frame, max_order=3)


_ABORTS = (splitting.KernelDimensionError, splitting.AlignmentError, splitting.KernelFieldError,
           splitting.RiccatiBlowupError)


def _outcome(run) -> tuple:
    """``("report", fields)`` of the sample fields ``run()`` returns, or ``("raised", type, message)``."""
    try:
        return ("report",) + run()
    except Exception as exc:  # both sides must raise the same error
        return ("raised", type(exc).__name__, str(exc))


def _loop(metric, x0, v0, frame, tmax: float, steps: int):
    """The path of the point-by-point RK4 loop alone from node 0."""
    ride = flows._Ride(metric, tmax / steps, x0.copy(), v0.copy(), frame.copy())
    ride.integrate(steps)
    return ride.path()


def _report_fields(report) -> tuple:
    return (report.start_matrix.tobytes(), report.sample_times.tobytes(),
            [c.tobytes() for c in report.measured], [p.tobytes() for p in report.predicted],
            list(report.deviations), report.aborted)


def _each_sample(metric, x0, tmax: float, steps: int, samples: int = 9) -> tuple:
    """:func:`_report_fields` of ``evolve_along_nullity_geodesic`` with each sample measured alone."""
    data = curvature_data(metric, x0, nabla_r=True)
    section = splitting._section(data.nullity, data.g, None, x0)
    k0 = data.nullity.nullity
    rows, kept = splitting._frames(metric, x0, data.g, section)  # the start frame, as the check takes it
    frame = rows[kept]
    start = tensor_alone(metric, x0, section, frame, k0, jet=data._jet)
    path = flows.geodesic(metric, x0, section, tmax, steps=steps, frame=frame)
    times, measured, predicted, deviations, aborted = [], [], [], [], None
    for i in flows._sample_indices(path.times.size, samples):
        try:
            c = tensor_alone(metric, path.points[i], path.velocities[i], path.frame[i], k0)
            pred = splitting.riccati_closed_form(start, float(path.times[i]))
        except _ABORTS as exc:
            aborted = str(exc)
            break
        times.append(path.times[i])
        measured.append(c.tobytes())
        predicted.append(pred.tobytes())
        deviations.append(float(np.max(np.abs(c - pred))))
    return start.tobytes(), np.array(times).tobytes(), measured, predicted, deviations, aborted


def _fields(path) -> tuple:
    return tuple(getattr(path, f).tobytes() for f in FIELDS) + (
        repr(path.gram_drift), path.truncated, repr(path.exit_parameter))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rides", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2031)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    stacks = []
    real_invert = flows.invert

    def invert(m):
        stacks.append(np.ndim(m) == 3)
        return real_invert(m)

    flows.invert = invert
    spies = _Spies()
    tally = Counter()
    jetted = Counter()
    differ = 0
    samples_differ = 0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        while sum(tally.values()) < args.rides:
            drawn = _ride(rng)
            if drawn is None:
                continue
            label, metric, x0, v0, frame, tmax, steps = drawn
            stacks.clear()
            spies.reset()
            path = _outcome(lambda: (flows.geodesic(metric, x0, v0, tmax, steps=steps, frame=frame),))
            jets, bent = spies.jetted, spies.bent
            stacked, per_point = stacks.count(True), stacks.count(False)
            spies.reset()
            reference = _outcome(lambda: (_loop(metric, x0, v0, frame, tmax, steps),))
            head = (f"{label}: x0 {','.join('%.17g' % c for c in x0)} "
                    f"v0 {','.join('%.17g' % c for c in v0)} tmax {tmax!r} steps {steps}")
            if path[0] == "raised" or reference[0] == "raised":
                # an error outside the stages' faults: the ride differs, and the run goes on
                tally["raised"] += 1
                differ += 1
                print(f"DIFFERS {head}: " + "; ".join(
                    f"{side} raised {out[1]}: {out[2]}" for side, out in (("stacked", path), ("loop", reference))
                    if out[0] == "raised"
                ))
                continue
            path, reference = path[1], reference[1]
            kind = ("stacked to the end" if not per_point else
                    "handed over part-way" if stacked else "handed over at the start")
            tally[kind + (", truncated" if path.truncated else "")] += 1
            jetted["stacked"] += jets
            jetted["loop"] += spies.jetted
            if jets > spies.jetted:
                jetted["stacked, rides jetting more"] += jets
                jetted["loop, rides jetting more"] += spies.jetted
            moved = [f for f, x, y in zip(FIELDS + ("gram_drift", "truncated", "exit_parameter"),
                                          _fields(path), _fields(reference)) if x != y]
            # a block of steps jets at most 4 stage points a step
            block = 4 * flows._block_steps(metric.dim)
            exact = not bent and (not per_point or path.truncated)
            differs = moved or jets < spies.jetted or jets > spies.jetted + (0 if exact else block)
            looped = spies.jetted  # before the sample checks jet more
            sampled = ""
            if not label.endswith("off-kernel"):
                together = _outcome(lambda: _report_fields(evolve_along_nullity_geodesic(metric, x0, tmax, steps)))
                alone = _outcome(lambda: _each_sample(metric, x0, tmax, steps))
                samples_differ += together != alone
                differs = differs or together != alone
                ended = (f"raised {together[1]}" if together[0] == "raised" else
                         f"{len(together[3])} reached" + (", aborted" if together[6] else ""))
                sampled = f", samples {ended}{'' if together == alone else ' DIFFER'}"
            differ += bool(differs)
            print(f"{'DIFFERS ' if differs else ''}{head}: {kind}, "
                  f"moved {moved or '-'}, jetted {jets} vs {looped}{sampled}")
    for kind, count in sorted(tally.items()):
        print(f"{kind}: {count}")
    for kind in ("stacked", "loop", "stacked, rides jetting more", "loop, rides jetting more"):
        print(f"points jetted, {kind}: {jetted[kind]}")
    print(f"kernel rides whose samples differ from each sample measured alone: {samples_differ}")
    print(f"rides differing from the point-by-point loop: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
