"""Geodesics, parallel transport, and geometric probes along flows.

All integration is classical fixed-step RK4.  Geodesics integrate the
first-order system (x, v) with v'^k = -Gamma^k_ij v^i v^j; rows W to be
parallel transported ride in the same system, W'^k = -Gamma^k_ij v^i W^j,
so each RK4 stage takes Gamma once, from one order-1 jet, for both.  The
transport is linear, so one RK4 step moves W by one matrix, W -> W P^T,
with P built from B = -Gamma(v, .) at the step's four stages
(:func:`_frame_propagators`): the stacked blocks build their steps' P in
one call, the point-by-point loop one step at a time (:func:`_frame_step`),
to the same bits.  A stage at the bit-identical point of the stage before
it reuses that jet's g and Gamma: on a kernel geodesic the acceleration is
exactly zero, stage 3 lands on stage 2's point and the next step's stage 1
on stage 4's, so an m-step path costs 2m+1 jets where it costs 4m+1 in
general (with a frame).

Where the acceleration is exactly zero every stage point is known before
the ride: RK4's own float operations with Gamma = 0 give the velocity and
the stage offsets, and the nodes are their sequential sum, bitwise the step
loop's.  :func:`geodesic` rides such steps in stacked blocks, each holding
at most :data:`RIDE_BLOCK_BYTES` of Gamma at its jet entries, 2 a step (128
steps at n = 4, :func:`_block_steps`).  A block tests its nodes against
the chart in one stacked call (:meth:`MetricField.contains_each`), jets the
new stage points of its steps up to the first node outside the chart in one
:meth:`MetricField.jets` call, and screens them stacked: a step is ridden
only if each of its jets is made without raising and has a Christoffel
bracket d_j g_km + d_k g_jm - d_m g_jk exactly zero on the velocity's
nonzero entries (the only ones Gamma(v, v) is built from).  A ride's first
step is jetted point by point, each jet screened before the next is made,
and so is every step on a chart without a stacked jet form.  The block then
inverts g in one stacked call and builds Gamma on the brackets the screen
built, and builds -Gamma(v, v) and the frame's B = -Gamma(v, .) once per
distinct pair of jet entry and stage velocity (2 a step, not 4): only
those (n,) and (n, n) arrays are gathered to the stages, and Gamma only
where some entry carries two pairs.  It checks that the acceleration at
every stage is bitwise the one assumed, builds the frame's step matrices
from the stages' B in one stacked call and moves the frame by one small
matmul a step, written into the block's frames array.
The first step it cannot vouch for (one that fails the screen or leaves
the chart, a g that fails the inverse's condition test, a failed check, or
a stacked call, step matrix or frame product that raises) is handed over:
the point-by-point loop resumes at that step's node and takes the points
the block jetted before jetting anew.  So every path keeps its bytes.  A path that stays straight, that leaves the
chart, or that is curved from its first stage makes the jets of the
point-by-point loop.  One that bends mid-block, or whose g or check fails
there, may have jetted the rest of that block: at most one block of stage
points that the path never reaches.

Paths truncate cleanly at the chart boundary instead of raising: the
returned :class:`GeodesicPath` carries a ``truncated`` flag and the last
parameter value that stayed inside; so does an RK4 stage whose numbers
overflow while float errors raise (as the command line sets them).  Each
geodesic is integrated once, at the requested step count; no error estimate
is stored with the path.  Evenly spaced sample nodes of a path are picked by
one rule, shared by :func:`sampled_path` and the splitting tensor's Riccati
evolution.

One metric jet serves all that a routine needs at a point: the gram-drift
check of a transported frame takes g at a node from the jet of that node's
first RK4 stage (at the last node, the last stage's jet when it is there),
and the nullity check takes the kernel and g at a sample from one order-2
jet.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore
from .curvature import _bracket, _christoffel_from_jet, _nullity_at, _riemann
from .exprcalc import DomainError
from .metricspace import ChartDomainError, MetricField
from .numcore import SingularMatrixError, _g_gram_schmidt, _invert_each, invert

__all__ = [
    "LaunchError",
    "GeodesicPath",
    "NullityGeodesicReport",
    "FlatnessReport",
    "IncompletenessReport",
    "geodesic",
    "sampled_path",
    "nullity_geodesic_check",
    "flatness_probe",
    "incompleteness_probe",
]

# a stacked block of a ride takes as many RK4 steps as keep its largest
# arrays, Gamma at each jet entry (2 entries a step on a straight path, n^3
# floats each), within this many bytes (128 steps at n = 4, see
# _block_steps): each block has a fixed cost, and a flow request's peak
# memory grows with the block, by about 1 MB from 1 << 16 to 1 << 18
RIDE_BLOCK_BYTES = 1 << 17
# an RK4 stage meeting one of these ends the path, truncated, instead of raising
_STAGE_FAULTS = (ChartDomainError, DomainError, SingularMatrixError, FloatingPointError)


class LaunchError(ValueError):
    """No launch velocity: a trivial curvature kernel or a zero direction."""


@dataclass(frozen=True)
class GeodesicPath:
    """RK4 geodesic record: times (m+1,), points and velocities (m+1, n).

    ``frame`` (m+1, k, n) holds the k rows transported along the path (k = 0
    without a frame); ``gram_drift`` is the max-abs deviation of their metric
    Gram matrix from its value at the start, a quality measure since parallel
    transport is an isometry (0.0 without a frame).  ``exit_parameter`` is
    the last in-domain time when ``truncated``.
    """

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    frame: np.ndarray
    gram_drift: float
    truncated: bool
    exit_parameter: Optional[float]

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def geodesic(
    metric: MetricField,
    x0,
    v0,
    tmax: float,
    steps: int = 256,
    frame=None,
) -> GeodesicPath:
    """Integrate the geodesic equation from (x0, v0) for parameter tmax.

    The rows of ``frame`` (k, n) are transported along the path in the same
    RK4 steps, W' = -Gamma(x)(v, W), each stage taking Gamma from the jet
    that gives the acceleration there.  Steps of exactly zero acceleration
    are ridden in stacked blocks, the rest point by point, to the same bits
    (see the module docstring).
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if tmax == 0:
        raise ValueError("tmax must be nonzero")
    n = metric.dim
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if x.shape != (n,) or v.shape != (n,):
        raise ValueError("x0 and v0 must match the chart dimension")
    W = np.empty((0, n)) if frame is None else np.array(frame, dtype=float)
    if W.ndim != 2 or W.shape[1] != n:
        raise ValueError("frame must be rows of chart-dimension vectors")
    if not metric.contains(x):
        raise ChartDomainError(f"geodesic start outside domain of {metric.name}", x)
    ride = _Ride(metric, tmax / steps, x, v, W)
    ride.coast(steps)
    ride.integrate(steps)
    return ride.path()


def _coasting(v, h: float, steps: int):
    """RK4's stage figures under zero Gamma: ``(velocities, accelerations, offsets)``, one row a step.

    Row r, each (4, n), is step r's: the velocity and the acceleration
    -Gamma(w, w) at its four stages, and the offsets of stages 2-4 and of
    the next node from the step's node, each computed with the float
    operations :meth:`_Ride.integrate` makes.  Zero plus a zero of either
    sign can flip a velocity's zeros, so the rows stop at the first step
    that leaves the velocity unchanged to the bit: every later step repeats
    the last row, and node i has velocity ``velocities[min(i, rows - 1),
    0]``.
    """
    zero = np.zeros((v.size,) * 3)

    def accel(w):
        return -np.einsum("kij,i,j->k", zero, w, w)

    rows = []
    while len(rows) <= steps:
        ax1 = accel(v)
        v2 = v + 0.5 * h * ax1
        ax2 = accel(v2)
        v3 = v + 0.5 * h * ax2
        ax3 = accel(v3)
        v4 = v + h * ax3
        ax4 = accel(v4)
        vn = v + (h / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        offsets = (0.5 * h * v, 0.5 * h * v2, h * v3, (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4))
        rows.append(((v, v2, v3, v4), (ax1, ax2, ax3, ax4), offsets))
        if vn.tobytes() == v.tobytes():
            break
        v = vn
    return tuple(np.array(part) for part in zip(*rows))


def _block_steps(n: int) -> int:
    """The RK4 steps of one stacked block at chart dimension n: its 2 jet entries a step keep Gamma within :data:`RIDE_BLOCK_BYTES`."""
    return max(1, RIDE_BLOCK_BYTES // (16 * n**3))


def _speeds(velocities):
    """``(speed, speeds)``: the coasting table's stage velocities (rows, 4, n) as indices (rows, 4) into its distinct velocities, told apart by their bits."""
    flat = velocities.reshape(-1, velocities.shape[-1])
    seen = {}
    speed = np.array([seen.setdefault(w.tobytes(), len(seen)) for w in flat])
    return speed.reshape(velocities.shape[:2]), flat[np.unique(speed, return_index=True)[1]]


def _straight(dg, bracket):
    """``(straight, s)``: whether the Christoffel bracket is exactly zero at every entry ``bracket`` marks, at each point of a stack.

    ``dg`` is (m, n, n, n); the bracket is s[j, k, m] = d_j g_km + d_k
    g_jm - d_m g_jk (:func:`~geonull.curvature._bracket`), returned (m, n,
    n, n) so that Gamma is built on it.  A float fault counts as not
    straight, at its own point, whose s is NaN.
    """
    faults = (FloatingPointError, RuntimeWarning)
    s = numcore._each_alone(_bracket, dg, faults, lambda exc: None)
    raised = np.zeros(len(dg), dtype=bool)
    if not isinstance(s, np.ndarray):
        raised[:] = [b is None for b in s]
        s = np.array([np.full(dg.shape[1:], np.nan) if b is None else b for b in s])
    return (np.count_nonzero(s[:, bracket], axis=1) == 0) & ~raised, s


def _in_chart(metric: MetricField, xs) -> np.ndarray:
    """``metric.contains`` at each row of ``xs`` up to the first False, False from the first row where it raises.

    Only the first False counts (:meth:`_Ride.integrate` meets the error
    again there), so where the stacked test raises it is bisected to the
    first raising row, and the rows after a False read False untested: at
    most 1 + 2 ceil(log2 m) calls for m rows.
    """
    try:
        return metric.contains_each(xs)
    except Exception:
        if len(xs) == 1:
            return np.zeros(1, dtype=bool)
    half = len(xs) // 2
    head = _in_chart(metric, xs[:half])
    tail = _in_chart(metric, xs[half:]) if head.all() else np.zeros(len(xs) - half, dtype=bool)
    return np.concatenate([head, tail])


def _frame_rates(gammas, velocities) -> np.ndarray:
    """B = -Gamma(v, .) (..., n, n), B[k, j] = -Gamma[k, i, j] v[i], from Gamma (..., n, n, n) and v (..., n).

    One einsum over the stack, so each B is bitwise the one built alone.
    """
    return -np.einsum("...kij,...i->...kj", gammas, velocities)


def _frame_propagators(b, h: float) -> np.ndarray:
    """The RK4 step matrices P (m, n, n) of W' = -Gamma(v, W), from B (m, 4, n, n) at each step's four stages.

    The transport is linear, W' = W B^T with B from :func:`_frame_rates`,
    so one RK4 step is W -> W P^T with P = I + h/6 (S1 + 2 S2 + 2 S3 + S4),
    S1 = B1, S2 = B2 (I + h/2 S1), S3 = B3 (I + h/2 S2) and S4 = B4 (I + h
    S3).  One matmul makes each S of the stack, so each step's P is bitwise
    the one built for that step alone.
    """
    eye = np.eye(b.shape[-1])
    s1 = b[:, 0]
    s2 = b[:, 1] @ (eye + (0.5 * h) * s1)
    s3 = b[:, 2] @ (eye + (0.5 * h) * s2)
    s4 = b[:, 3] @ (eye + h * s3)
    return eye + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)


def _frame_step(W, gammas, velocities, h: float) -> np.ndarray:
    """The rows W after one RK4 step of W' = -Gamma(v, W), from Gamma and v at the step's four stages.

    W P^T, with P the step's matrix from :func:`_frame_propagators` on a
    stack of one and its four B from :func:`_frame_rates`: bitwise what a
    stacked block's transport makes of the same step.
    """
    b = _frame_rates(np.array(gammas), np.array(velocities))
    return W @ _frame_propagators(b[None], h)[0].T


class _Ride:
    """One RK4 path being ridden: the nodes reached so far and the jets held for the stages ahead.

    The nodes, their velocities and frames, and g at each node a step left
    are kept as arrays, one a stacked block and one row a point-by-point
    step, which :meth:`path` joins once; a node's time is its number times h.
    """

    def __init__(self, metric: MetricField, h: float, x, v, W):
        self.metric = metric
        self.h = h
        self.reached = 0  # the steps ridden
        self.xs, self.vs, self.ws = [x[None]], [v[None]], [W[None]]
        self.gs = []  # g at each node, from the stage-1 jet of the step leaving it
        self.truncated = False
        self.held = (None, None, None)  # bytes, (g, dg) and Gamma of the last point jetted
        # (bytes, (g, dg) or the error raised) of the points a stacked block
        # jetted past the node it handed over at, in stage order
        self.ahead = deque()

    def rates(self, y, w):
        """(g, acceleration, Gamma) at y from one order-1 jet, reused while y repeats."""
        key = y.tobytes()
        if key != self.held[0]:
            if self.ahead and self.ahead[0][0] == key:
                jet = self.ahead.popleft()[1]
                if isinstance(jet, Exception):
                    raise jet
            else:
                self.ahead.clear()
                jet = self.metric.jet(y, order=1, check=False)
            self.held = (key, jet, _christoffel_from_jet(invert(jet[0]), jet[1]))
        _, (g, _), gamma = self.held
        return g, -np.einsum("kij,i,j->k", gamma, w, w), gamma

    def coast(self, steps: int) -> None:
        """Ride stacked blocks of zero-acceleration steps, up to the first step it cannot vouch for."""
        v = self.vs[0][0]
        if not np.all(np.isfinite(v)):  # a NaN raises no float error in _coasting
            return
        try:
            with np.errstate(all="raise"):
                table = _coasting(v, self.h, steps)
        except FloatingPointError:
            return
        n = v.size
        moving = v != 0.0  # the same entries at every stage of the ride
        # the bracket entries that Gamma(v, v) is built from
        bracket = moving[:, None, None] & moving[None, :, None] & np.ones(n, dtype=bool)
        table += _speeds(table[0])
        size = _block_steps(n)
        start = 0
        while start < steps and self._block(start, min(steps, start + size), table, bracket):
            start += size

    def _block(self, b: int, e: int, table, bracket) -> bool:
        """Ride steps b..e-1 stacked; False when it handed over at one it could not vouch for."""
        velocities, accelerations, offsets, speed, speeds = table
        rows = np.minimum(np.arange(b, e), len(velocities) - 1)
        n = velocities.shape[-1]
        try:
            with np.errstate(all="raise"):
                # a sequential sum, so node i+1 is bitwise node i plus its offset
                nodes = np.add.accumulate(np.concatenate([self.xs[-1][-1:], offsets[rows, 3]]))
                points = np.concatenate([nodes[:-1, None], nodes[:-1, None] + offsets[rows, :3]], axis=1)
        except FloatingPointError:
            return False
        points = points.reshape(-1, n)  # in stage order
        # a stage point is jetted unless it repeats the one before it
        bits = points.view(np.uint64)
        new = np.empty(len(points), dtype=bool)
        new[0] = points[0].tobytes() != self.held[0]
        new[1:] = np.any(bits[1:] != bits[:-1], axis=1)
        # a ride's first step is jetted point by point, so a ride curved from
        # its first stage jets what the point-by-point loop jets
        alone = int(b == 0) if self.metric.stacked else e - b
        ridden, g, dg, s, faults = self._jet_steps(points, new, nodes, bracket, alone)
        head = len(dg[0])  # the entries jetted before the stacked call
        carried = int(not new[0])
        index = np.cumsum(new[: 4 * ridden]) - 1 + carried  # stage -> entry
        framed = self.ws[-1].shape[1] > 0
        if ridden:
            used = index[-1] + 1
            try:
                try:
                    gi = invert(g[:used])
                except SingularMatrixError:  # ride the steps before the first stage whose g fails
                    gi, passed, _ = _invert_each(g[:used])
                    ridden = int(np.argmin(passed[index])) // 4
                # _christoffel_from_jet's bits, on the screen's bracket: each of
                # its two parts writes into its own rows of Gamma, uncopied
                gamma = np.empty((used, n, n, n))
                for at, part in ((slice(0, head), s[0]), (slice(head, used), s[1])):
                    np.einsum("...lm,...jkm->...ljk", gi[at], part[: len(gamma[at])], out=gamma[at])
                gamma *= 0.5
                # the acceleration and B once per run of stages that share
                # an entry and a velocity (2 a step on a straight block)
                entry, at_speed = index[: 4 * ridden], speed[rows[:ridden]].reshape(-1)
                first = np.ones(len(entry), dtype=bool)
                first[1:] = (entry[1:] != entry[:-1]) | (at_speed[1:] != at_speed[:-1])
                pairs = np.flatnonzero(first)
                # Gamma itself where its entries are the pairs, one each, in order
                pair_gamma = gamma if len(pairs) == used == entry[-1] + 1 else gamma[entry[pairs]]
                pair_v = speeds[at_speed[pairs]]
                pair_accel = -np.einsum("...kij,...i,...j->...k", pair_gamma, pair_v, pair_v)
                pair_b = _frame_rates(pair_gamma, pair_v) if framed else None
            except _STAGE_FAULTS:
                ridden = 0
            else:
                stage_pair = np.cumsum(first) - 1
                assumed = accelerations[rows[:ridden]].reshape(-1, n)
                vouched = np.all(pair_accel[stage_pair].view(np.uint64) == assumed.view(np.uint64), axis=1)
                vouched = vouched.reshape(ridden, 4).all(axis=1)
                if not vouched.all():
                    ridden = int(np.argmin(vouched))
        if ridden and framed:
            frames = self._transport(pair_b[stage_pair[: 4 * ridden]].reshape(ridden, 4, n, n))
            ridden = len(frames)
        else:
            frames = np.repeat(self.ws[-1][-1:], ridden, axis=0)
        stages = np.flatnonzero(new)

        def key(k):  # the bytes of entry k's point
            return points[stages[k - carried]].tobytes() if k >= carried else self.held[0]

        def jet(k):  # entry k's (g, dg)
            return g[k], dg[0][k] if k < head else dg[1][k - head]

        last = carried - 1
        if ridden:
            self.reached += ridden
            self.xs.append(nodes[1: ridden + 1])
            self.vs.append(velocities[np.minimum(np.arange(b + 1, b + ridden + 1), len(velocities) - 1), 0])
            self.ws.append(frames)
            self.gs.append(g[index[: 4 * ridden: 4]])
            last = int(index[4 * ridden - 1])
            self.held = (key(last), jet(last), gamma[last])
        self.ahead.extend((key(k), faults[k] if k in faults else jet(k)) for k in range(last + 1, len(g)))
        return ridden == e - b

    def _jet_steps(self, points, new, nodes, bracket, alone: int):
        """Jet the new stage points: ``(ridden, g, dg, s, faults)``.

        ``ridden`` is the number of steps that stay straight and inside.
        The entries are the held point's jet where stage 1 repeats it, then
        each point jetted, in stage order.  ``g`` stacks them; ``dg`` and
        the Christoffel brackets ``s`` of the screen are each a pair of
        stacks, the entries jetted before the stacked call and those of the
        call, which are not copied.  ``faults`` maps the entry of a jet that
        raised to its error (its rows are NaN).  Stops at the first jet that
        raises or whose bracket is not zero where ``bracket`` marks, and at
        the first step whose next node leaves the chart, returning that
        step's number.  The first ``alone`` steps are jetted point by point,
        each jet screened before the next is made.  The rest are jetted in
        one :meth:`MetricField.jets` call, up to the first step whose next
        node leaves the chart (one stacked domain test for their nodes), and
        screened stacked; every point of that call is an entry.
        """
        steps, n = len(nodes) - 1, points.shape[1]
        # the entries before the stacked call: (g, dg, s)
        head = [] if new[0] else [(*self.held[1], _bracket(self.held[1][1]))]
        faults = {}

        def entries(ridden, g=np.empty((0, n, n)), dg=np.empty((0, n, n, n)), s=np.empty((0, n, n, n))):
            first = [np.array([entry[k] for entry in head]).reshape(-1, *a.shape[1:])
                     for k, a in enumerate((g, dg, s))]
            return ridden, np.concatenate([first[0], g]), (first[1], dg), (first[2], s), faults

        for i in range(alone):
            for st in range(4 * i, 4 * i + 4):
                if not new[st]:
                    continue
                try:
                    jet = self.metric.jet(points[st], order=1, check=False)
                except Exception as exc:  # raised again when integrate reaches this stage
                    faults[len(head)] = exc
                    head.append((np.full((n, n), np.nan), np.full((n, n, n), np.nan), np.full((n, n, n), np.nan)))
                    return entries(i)
                straight, s = _straight(jet[1][None], bracket)
                head.append((*jet, s[0]))
                if not straight[0]:
                    return entries(i)
            if not _in_chart(self.metric, nodes[i + 1: i + 2])[0]:
                return entries(i)
        if alone == steps:
            return entries(steps)
        inside = _in_chart(self.metric, nodes[alone + 1:])
        # jet up to the step whose next node leaves the chart, which is not ridden
        end = steps if inside.all() else alone + int(np.argmin(inside)) + 1
        stages = 4 * alone + np.flatnonzero(new[4 * alone: 4 * end])
        (g, dg), more = self.metric.jets(points[stages], order=1, check=False)
        straight, s = _straight(dg, bracket)
        bent = ~straight
        bent[list(more)] = True
        faults.update((len(head) + k, exc) for k, exc in more.items())
        if bent.any():
            return entries(int(stages[np.argmax(bent)]) // 4, g, dg, s)
        return entries(steps if inside.all() else end - 1, g, dg, s)

    def _transport(self, b) -> np.ndarray:
        """The frames W after each step of a block, fewer at a float fault, from B (steps, 4, n, n) at each step's stages.

        The steps' matrices are built in one stacked call, redone step by
        step if it raises, and the frame moves by one product a step, each
        written into the block's frames array; the first step whose matrix
        or product raises ends the block, and :meth:`integrate` meets the
        fault again there.
        """
        propagators = numcore._each_alone(
            lambda bs: _frame_propagators(bs, self.h), b, FloatingPointError, lambda exc: None,
        )
        W = self.ws[-1][-1]
        frames = np.empty((len(b),) + W.shape)
        for i, P in enumerate(propagators):
            if P is None:
                return frames[:i]
            try:
                W = np.matmul(W, P.T, out=frames[i])
            except FloatingPointError:
                return frames[:i]
        return frames

    def integrate(self, steps: int) -> None:
        """RK4 point by point from the last node reached, each stage taking Gamma from its own jet."""
        h = self.h
        x, v, W = self.xs[-1][-1], self.vs[-1][-1], self.ws[-1][-1]
        for i in range(self.reached, steps):
            try:
                g1, ax1, gamma1 = self.rates(x, v)
                self.gs.append(g1[None])
                x2 = x + 0.5 * h * v
                v2 = v + 0.5 * h * ax1
                _, ax2, gamma2 = self.rates(x2, v2)
                x3 = x + 0.5 * h * v2
                v3 = v + 0.5 * h * ax2
                _, ax3, gamma3 = self.rates(x3, v3)
                x4 = x + h * v3
                v4 = v + h * ax3
                _, ax4, gamma4 = self.rates(x4, v4)
                xn = x + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
                vn = v + (h / 6.0) * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
                Wn = _frame_step(W, (gamma1, gamma2, gamma3, gamma4), (v, v2, v3, v4), h) if len(W) else W
            except _STAGE_FAULTS:
                self.truncated = True
                break
            if not (np.all(np.isfinite(xn)) and np.all(np.isfinite(vn)) and self.metric.contains(xn)):
                self.truncated = True
                break
            x, v, W = xn, vn, Wn
            self.reached += 1
            self.xs.append(x[None])
            self.vs.append(v[None])
            self.ws.append(W[None])

    def path(self) -> GeodesicPath:
        frames = np.concatenate(self.ws)
        drift = 0.0
        if frames.shape[1]:
            if sum(map(len, self.gs)) == self.reached:  # no step left the last node
                x = self.xs[-1][-1]
                key, jet, _ = self.held
                self.gs.append((jet[0] if x.tobytes() == key else self.metric.jet(x, order=1, check=False)[0])[None])
            grams = frames @ np.concatenate(self.gs) @ frames.transpose(0, 2, 1)
            drift = float(np.max(np.abs(grams - grams[0])))
        times = np.arange(self.reached + 1) * self.h
        times[0] = 0.0  # not -0.0 when h < 0
        return GeodesicPath(
            times=times,
            points=np.concatenate(self.xs),
            velocities=np.concatenate(self.vs),
            frame=frames,
            gram_drift=drift,
            truncated=self.truncated,
            exit_parameter=float(times[-1]) if self.truncated else None,
        )


def _sample_indices(nodes: int, samples: int) -> np.ndarray:
    """Indices of up to ``samples`` evenly spaced nodes, first and last included."""
    if samples < 2 or nodes < 2:
        return np.array([0, nodes - 1] if nodes > 1 else [0])
    return np.unique(np.linspace(0, nodes - 1, samples).round().astype(int))


def sampled_path(path: GeodesicPath, samples: int):
    """Evenly spaced (times, points, velocities) along a stored path."""
    idx = _sample_indices(path.times.size, samples)
    return path.times[idx], path.points[idx], path.velocities[idx]


@dataclass(frozen=True)
class NullityGeodesicReport:
    """Check that a geodesic launched into the curvature kernel stays there."""

    path: GeodesicPath
    sample_times: np.ndarray
    nullity_values: tuple
    max_velocity_misalignment: float
    constant_nullity: bool


def nullity_geodesic_check(
    metric: MetricField,
    x0,
    direction=None,
    tmax: float = 1.0,
    steps: int = 256,
    samples: int = 9,
    rel_tol: Optional[float] = None,
) -> NullityGeodesicReport:
    """Launch a geodesic tangent to the curvature kernel and track alignment.

    By default the initial velocity is the first kernel basis vector; a
    custom ``direction`` is g-normalized and used as given, so a direction
    outside the kernel yields a failing (not erroring) report.  At evenly
    spaced samples the report records the kernel dimension and the sine of
    the angle between the velocity and the kernel subspace.  Raises
    :class:`LaunchError` for a trivial kernel at x0 or a zero direction.
    """
    pt = np.asarray(x0, dtype=float)
    res0, g0, _ = _nullity_at(metric, pt, rel_tol)
    if res0.nullity == 0:
        raise LaunchError(f"curvature kernel is trivial at the start point for {metric.name}")
    if direction is None:
        v0 = res0.basis[0]
    else:
        v0 = np.asarray(direction, dtype=float)
        # scale by max|v| first, so sqrt(v g v) neither overflows nor underflows
        scale = float(np.max(np.abs(v0)))
        if scale > 0.0:
            v0 = v0 / scale
        nrm = float(np.sqrt(v0 @ g0 @ v0))
        if nrm < 1e-10:
            raise LaunchError("direction must be a nonzero tangent vector")
        v0 = v0 / nrm
    path = geodesic(metric, pt, v0, tmax, steps=steps)
    times, points, vels = sampled_path(path, samples)
    dims = []
    worst = 0.0
    for q, w in zip(points, vels):
        res, gq, _ = _nullity_at(metric, q, rel_tol)
        dims.append(res.nullity)
        wn = float(np.sqrt(w @ gq @ w))
        if res.nullity > 0 and wn > 0:
            proj = sum(float(b @ gq @ w) * b for b in res.basis)
            ortho = w - proj
            worst = max(worst, float(np.sqrt(max(ortho @ gq @ ortho, 0.0))) / wn)
        else:
            worst = max(worst, 1.0)
    return NullityGeodesicReport(
        path=path,
        sample_times=times,
        nullity_values=tuple(dims),
        max_velocity_misalignment=worst,
        constant_nullity=len(set(dims)) == 1 and dims[0] == res0.nullity,
    )


@dataclass(frozen=True)
class FlatnessReport:
    """Flat + totally geodesic check for a coordinate slice distribution.

    ``max_leaf_curvature`` is the largest lowered curvature entry of the
    induced metric on the slice across the sampled grid;
    ``max_second_fundamental_form`` is the largest metric norm of the normal
    part of nabla_{d_i} d_j for slice coordinates i, j.
    """

    coordinates: tuple
    points_checked: int
    max_leaf_curvature: float
    max_second_fundamental_form: float

    def is_flat(self, tol: float = 1e-8) -> bool:
        return self.max_leaf_curvature < tol

    def is_totally_geodesic(self, tol: float = 1e-8) -> bool:
        return self.max_second_fundamental_form < tol


def flatness_probe(
    metric: MetricField,
    x0,
    directions,
    samples: int = 3,
    extent: float = 0.5,
) -> FlatnessReport:
    """Probe the coordinate slice through x0 spanned by the named coordinates."""
    pt = np.asarray(x0, dtype=float)
    idx = []
    for d in directions:
        if isinstance(d, str):
            if d not in metric.coordinates:
                raise ValueError(f"unknown coordinate {d!r} for {metric.name}")
            idx.append(metric.coordinates.index(d))
        else:
            idx.append(int(d))
    idx = sorted(set(idx))
    if not 1 <= len(idx) < metric.dim:
        raise ValueError("slice must use at least one and fewer than all coordinates")
    sel = np.ix_(idx, idx)

    axes = [np.linspace(-extent, extent, samples)] * len(idx)
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(idx))
    max_curv = 0.0
    max_ii = 0.0
    checked = 0
    for off in offsets:
        q = pt.copy()
        q[idx] += off
        if not metric.contains(q):
            continue
        checked += 1
        g, dg, d2g = metric.jet(q, check=False)
        gamma = _christoffel_from_jet(invert(g), dg)
        # induced metric jets are plain restrictions for a coordinate slice
        gs = g[sel]
        dgs = dg[np.ix_(idx, idx, idx)]
        d2gs = d2g[np.ix_(idx, idx, idx, idx)]
        rleaf = _riemann(gs, dgs, d2gs)[4]
        max_curv = max(max_curv, float(np.max(np.abs(rleaf))))
        tangent = _g_gram_schmidt(np.eye(metric.dim)[idx], g)[0]  # drop_tol 0 keeps every row
        for a in idx:
            for b in idx:
                vec = gamma[:, a, b]
                for t in tangent:
                    vec = vec - float(t @ g @ vec) * t
                max_ii = max(max_ii, float(np.sqrt(max(vec @ g @ vec, 0.0))))
    coords = tuple(metric.coordinates[i] for i in idx)
    return FlatnessReport(coords, checked, max_curv, max_ii)


@dataclass(frozen=True)
class IncompletenessReport:
    """Where a coordinate ray leaves the chart and how the metric looks there.

    ``exit_parameter`` is the boundary crossing t* of x0 + t * direction
    located by bisection; ``arc_length`` is the metric length of the ray up
    to t*; ``smallest_metric_eigenvalue`` is taken just inside the boundary,
    making metric degeneration visible; ``p_at_exit`` evaluates the chart's
    warp function there when the chart has one (None otherwise).
    """

    exit_parameter: float
    exit_point: np.ndarray
    arc_length: float
    smallest_metric_eigenvalue: float
    p_at_exit: Optional[float]


def incompleteness_probe(
    metric: MetricField,
    x0,
    direction,
    tmax: float = 16.0,
    tol: float = 1e-9,
) -> IncompletenessReport:
    """Bisect for the domain exit of the coordinate ray x0 + t * direction."""
    pt = np.asarray(x0, dtype=float)
    d = np.asarray(direction, dtype=float)
    if not metric.contains(pt):
        raise ChartDomainError(f"probe start outside domain of {metric.name}", pt)
    lo, hi = 0.0, None
    t = 1.0
    while t <= tmax:
        if metric.contains(pt + t * d):
            lo = t
        else:
            hi = t
            break
        t *= 2.0
    if hi is None:
        raise ValueError(f"ray stayed inside the domain of {metric.name} up to t={tmax}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if metric.contains(pt + mid * d):
            lo = mid
        else:
            hi = mid
    t_exit = 0.5 * (lo + hi)
    inside = pt + lo * d

    # composite Simpson for the g-length of the ray up to the boundary
    m = 64
    ts = np.linspace(0.0, lo, 2 * m + 1)
    speeds = np.empty(ts.size)
    for i, ti in enumerate(ts):
        gq = metric.jet(pt + ti * d, order=1, check=False)[0]
        speeds[i] = math.sqrt(max(float(d @ gq @ d), 0.0))
    hstep = lo / (2 * m)
    arc = (hstep / 3.0) * (
        speeds[0]
        + speeds[-1]
        + 4.0 * speeds[1:-1:2].sum()
        + 2.0 * speeds[2:-1:2].sum()
    )
    p_val = None
    expr = metric.annotations.get("p_expression")
    if expr is not None:
        sub = np.asarray(metric.annotations["p_chart_indices"], dtype=int)
        p_val = float(expr.value((pt + t_exit * d)[sub]))
    return IncompletenessReport(
        exit_parameter=float(t_exit),
        exit_point=pt + t_exit * d,
        arc_length=float(arc),
        smallest_metric_eigenvalue=metric.smallest_metric_eigenvalue(inside, check=False),
        p_at_exit=p_val,
    )
