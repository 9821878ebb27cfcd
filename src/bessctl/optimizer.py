"""Optimal feasible set-point computation.

Each control step projects the droop target onto the converter's feasible
region in the weighted least-squares sense:

    minimize  lambda_p * (p - p0)^2 + lambda_q * (q - q0)^2

subject to the selected capability envelopes and the battery-side AC power
interval.  Because the envelopes depend on the DC-bus and AC terminal
voltages, which in turn depend on the chosen set-point, the solve runs
inside an assumption loop: assume a DC range and an AC range, select the
matching curves, project, then verify the resulting DC-bus voltage and
predicted AC voltage against the assumption, advancing ranges until a
self-consistent pair is found (or the conservative fallback fires).  Each
assumption is one ``Probe``, solved at most once per step; the fallback
takes the lowest DC envelope with the AC envelope that the last probe's
predicted voltage selects.

Before it projects anything, a step bounds the voltages any probe can
predict.  A projection lies in the region with its p in the narrowed P box
and its |S| within the disk radius, so every probe's p lies in the step's
battery interval and in the P extent of the controller's regions, and its
|S| is at most their largest disk radius, up to a relative 1e-12 for the
ulp by which the polish's disk scaling can overshoot it.  The DC-bus
voltage falls with p and the AC voltage rises with |S| through correctly
rounded, hence monotone, float operations; so the ends of those intervals
bound the voltages.  A range test that the bounds decide, the
range missing or holding them, needs no projection and gives the probe's
answer; so the records equal those of the loop that probes every range,
including k in ``converged-after-k-switches(k)``.  Each AC range is decided
once per step, as the vac bounds do not depend on the DC range; only a range
whose edge the bounds straddle asks a probe.  On the shipped curves a
step solves one projection instead of three to nine.

Each region cell (Q >= 0 or Q <= 0) is a convex set bounded by an active
power interval, one origin-centred disk, the concave parabola caps that can
bind on its P box (one or none on the shipped curves) and a flat Q
ceiling.  ``build_region`` scales and normalizes the cells once; a
projection only narrows a cell's P interval to the step's battery bounds.
A target inside the cell is its own projection.

With both weights positive the objective f is strictly convex, and so is
every constraint g_j <= 0 of a cell: the lines and the disk plainly, a cap's
q - (c0 + c1 p + c2 p^2) because c2 <= 0.  So a feasible point where
grad f + sum_j mu_j grad g_j = 0, with mu_j >= 0 over the constraints that
bind there, is the unique optimum (Boyd and Vandenberghe, *Convex
Optimization*, 5.5.3).  A cell solve takes the first candidate that meets
these conditions, in one active-set pass that compares no objectives.  A
candidate projects the target onto one or two constraints alone and must
meet every other constraint exactly: one that misses by less than the
screen costs more than the crossing with the missed constraint.

- First the projection onto each violated constraint k; its multiplier is
  >= 0 by construction.  In order: the clamps onto a violated P line and
  Q line, the circle point, and for each violated cap its stationary point
  of least q.  On the cap grad f + mu grad g_k = 0 gives
  mu = 2 lambda_q (q0 - q), so the optimum is the root with q <= q0, the
  others lying above q0.  A cap's cubic is solved only when reached.
- Otherwise two constraints bind at the optimum; in the plane two of them
  always carry the multipliers, even where three meet.  Each crossing is
  tagged with its pair, and the first whose two multipliers, solved by
  Cramer's rule from the pair's gradients, are >= 0 (up to rounding,
  _MU_TOL) is the optimum.
- The conditions are sufficient but not necessary.  Where the binding
  constraints have parallel gradients, as where the cell narrows to a point
  or two boundaries touch, no multipliers exist, and the screened crossing
  of least objective, the first on a tie, is taken.

The screen is ``Cell.within`` with _SCREEN_TOL; the point taken is polished
into the cell.  Weights above 1 are scaled below 1 by a power of two, which
rounds nothing.  The crossings that do not involve the P box, among them
the disk-parabola quartic, are the cell's corners, found once by
``build_region``; per call, only a violated cap's stationary-point cubic
goes through numpy, in ``capability.cubic_real_roots``, which stores its
scalar coefficients straight into a 3x3 companion matrix for LAPACK.  The
cell across Q = 0 from the target is solved only when it could still win.

A controller builds the region of every selection-table pair once, when
it is constructed, and holds immutable configuration only; the evolving
battery state is passed in and returned, so distinct instances can run
scenario sweeps concurrently.  The values a step builds, the battery state
it returns, its ``ProjectionProblem`` and its ``ControlRecord``, are
immutable NamedTuples; the state and the problem validate their fields in
``__new__``.  A step still calls ``project``, ``dc_power_bounds``,
``solve_vdc``, ``predict_vac``, ``ttc_step`` and the other layer functions
through this module's globals, where a tracer can wrap them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from bessctl.battery import (
    BatteryConfig,
    TtcParams,
    TtcState,
    ac_from_dc,
    dc_from_ac,
    dc_power_bounds,
    open_circuit_voltage,
    params_for_soc,
    solve_vdc,
    ttc_step,
)
from bessctl.capability import (
    AC_SELECTION,
    DC_SELECTION,
    Anchor,
    CapabilityCurve,
    Cell,
    Corner,
    FeasibleRegion,
    build_region,
    cubic_real_roots,
    poly_real_roots,  # noqa: F401 -- re-exported for the tests' root references
    quad_roots,
    select_ac,
)
from bessctl.grid import (
    DroopConfig,
    GridSample,
    TransformerParams,
    droop_targets,
    optimal_droops,
    predict_vac,
)

#: Feasibility slack used when screening projection candidates [kW/kvar].
_SCREEN_TOL = 1e-7

#: Two set-points closer than this per coordinate count as identical [kW/kvar].
_POINT_TOL = 1e-9

#: Relative rounding allowed on a KKT multiplier that is 0 at the optimum.
_MU_TOL = 1e-12

STATUS_UNCHANGED = "feasible-unchanged"
STATUS_CLIPPED = "clipped-to-boundary"
STATUS_CLAMP = "conservative-clamp"
STATUS_FALLBACK = "fallback"
STATUS_P_EXCEEDS = "p-exceeds-target"


def _status_switches(k: int) -> str:
    return f"converged-after-k-switches({k})"


class _ProblemFields(NamedTuple):
    p_target: float
    q_target: float
    lambda_p: float
    lambda_q: float
    region: FeasibleRegion
    p_min: float
    p_max: float


class ProjectionProblem(_ProblemFields):
    """Weighted projection of a droop target onto one feasible region.

    The region contains the origin by construction (``FeasibleRegion``
    checks it once), so with p_min <= 0 <= p_max the problem is never
    infeasible.  It is a validated NamedTuple: construction, ``_replace``
    and unpickling all check finite targets and weights, weights
    nonnegative and not both zero, and bounds that straddle 0.
    """

    __slots__ = ()

    def __new__(
        cls,
        p_target: float,
        q_target: float,
        lambda_p: float,
        lambda_q: float,
        region: FeasibleRegion,
        p_min: float,
        p_max: float,
    ) -> "ProjectionProblem":
        if not (
            math.isfinite(p_target)
            and math.isfinite(q_target)
            and math.isfinite(lambda_p)
            and math.isfinite(lambda_q)
        ):
            raise ValueError("targets and weights must be finite")
        if lambda_p < 0 or lambda_q < 0 or lambda_p + lambda_q == 0:
            raise ValueError("weights must be nonnegative and not both zero")
        if not p_min <= 0.0 <= p_max:
            raise ValueError("AC power bounds must straddle 0 (idle is always allowed)")
        return tuple.__new__(cls, (p_target, q_target, lambda_p, lambda_q, region, p_min, p_max))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "ProjectionProblem":
        return cls(*iterable)


class Probe(NamedTuple):
    """One assumption of the loop: the set-point projected onto the region
    of (dc_anchor, ac_anchor), its DC power, and the DC-bus and AC voltages
    it predicts."""

    p: float
    q: float
    p_dc: float
    vdc: float
    vac: float
    dc_anchor: Anchor
    ac_anchor: Anchor | None


class ControlRecord(NamedTuple):
    """Per-step audit trail of the controller.

    An immutable NamedTuple, which solve_step builds positionally; unlike
    the state and the problem, it makes no checks of its own.
    """

    sample: GridSample
    dfreq: float
    dvac: float
    p_target: float
    q_target: float
    p_opt: float
    q_opt: float
    vdc_pred: float
    vac_pred: float
    curve_dc: Anchor
    curve_ac: Anchor | None
    alpha_star: float | None
    beta_star: float | None
    status: tuple[str, ...]

    @property
    def target_feasible(self) -> bool:
        return STATUS_UNCHANGED in self.status


def _bisect(holds: Callable[[float], bool], inside: float, outside: float) -> tuple[float, float]:
    """(inside, outside), halved at their midpoint until no float lies
    strictly between them, however wide the first span.

    holds(inside) must be True and holds(outside) False; each midpoint
    replaces the end whose holds value it shares.
    """
    while True:
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            return inside, outside
        if holds(mid):
            inside = mid
        else:
            outside = mid


def _circle_candidates(
    p0: float, q0: float, r: float, wp: float, wq: float
) -> list[tuple[float, float]]:
    """Weighted projection of an exterior target onto the circle p^2 + q^2 = r^2."""
    norm = math.hypot(p0, q0)
    if norm <= r:
        return []
    if wp == wq:
        s = r / norm
        return [(p0 * s, q0 * s)]

    def inside(mu: float) -> bool:
        return math.hypot(wp * p0 / (wp + mu), wq * q0 / (wq + mu)) <= r

    hi = max(wp, wq)
    while not inside(hi):
        hi = math.ldexp(hi, 1)  # raises OverflowError where inside(inf) fails
    hi, lo = _bisect(inside, hi, 0.0)
    mu = 0.5 * (lo + hi)
    return [(wp * p0 / (wp + mu), wq * q0 / (wq + mu))]


def _parabola_stationary(
    p0: float, q0: float, para: tuple[float, float, float], wp: float, wq: float
) -> list[tuple[float, float]]:
    """Stationary points of the weighted objective on q = c0 + c1 p + c2 p^2."""
    c0, c1, c2 = para
    shift = c0 - q0
    roots = cubic_real_roots(
        2.0 * wq * c2 * c2,
        3.0 * wq * c2 * c1,
        wq * (c1 * c1 + 2.0 * c2 * shift) + wp,
        wq * c1 * shift - wp * p0,
    )
    return [(p, c0 + c1 * p + c2 * p * p) for p in roots]


#: Outward normals of the P and Q lines, by tag.
_LINE_NORMALS = {"p_lo": (-1.0, 0.0), "p_hi": (1.0, 0.0), "q_lo": (0.0, -1.0), "q_hi": (0.0, 1.0)}


def _crossings(cell: Cell) -> Iterator[Corner]:
    """Every pairwise crossing of the cell's constraints as (p, q, a, b), in
    a fixed order: those of each finite P line with the finite Q lines, the
    disk and the caps, which move with the narrowed P box, then the stored
    corners."""
    for a, line in ((cell.p_lo, "p_lo"), (cell.p_hi, "p_hi")):
        if not math.isfinite(a):
            continue
        for b, other in ((cell.q_lo, "q_lo"), (cell.q_hi, "q_hi")):
            if math.isfinite(b):
                yield a, b, line, other
        if math.isfinite(cell.r) and cell.r * cell.r >= a * a:
            s = math.sqrt(cell.r * cell.r - a * a)
            yield a, s, line, "disk"
            yield a, -s, line, "disk"
        for i, (c0, c1, c2) in enumerate(cell.paras):
            yield a, c0 + c1 * a + c2 * a * a, line, i
    yield from cell.corners


def _normal(cell: Cell, k: str | int, p: float, q: float) -> tuple[float, float]:
    """The gradient at (p, q) of constraint k's g, up to a positive factor."""
    if k == "disk":
        return p, q
    if isinstance(k, int):
        c0, c1, c2 = cell.paras[k]
        return -(c1 + 2.0 * c2 * p), 1.0
    return _LINE_NORMALS[k]


def _certified(
    cell: Cell, p: float, q: float, a: str | int, b: str | int, gp: float, gq: float
) -> bool:
    """True when the crossing (p, q) of constraints a and b has both KKT
    multipliers >= 0 for an objective whose gradient there is (gp, gq) up to
    a positive factor, by Cramer's rule on grad f + mu_a grad g_a + mu_b
    grad g_b = 0.  Each mu_j |grad g_j| may round to -_MU_TOL |grad f|;
    normals within _MU_TOL of parallel leave the signs to rounding."""
    ap, aq = _normal(cell, a, p, q)
    bp, bq = _normal(cell, b, p, q)
    na, nb = ap * ap + aq * aq, bp * bp + bq * bq
    det = ap * bq - aq * bp
    if det * det <= _MU_TOL * _MU_TOL * na * nb:
        return False
    mu_a, mu_b = (bp * gq - bq * gp) / det, (aq * gp - ap * gq) / det
    tol = -_MU_TOL * math.hypot(gp, gq)
    return mu_a * math.sqrt(na) >= tol and mu_b * math.sqrt(nb) >= tol


def _polish(cell: Cell, p: float, q: float) -> tuple[float, float]:
    """Clamp float dust off a near-feasible point without leaving the cell."""
    p = min(max(p, cell.p_lo), cell.p_hi)
    q = min(max(q, cell.q_lo), cell.q_hi)
    for c0, c1, c2 in cell.paras:
        q = min(q, c0 + c1 * p + c2 * p * p)
    norm = math.hypot(p, q)
    if norm > cell.r:
        s = cell.r / norm
        p *= s
        q *= s
    return p, q


def _q_interval_at(cell: Cell, p: float) -> tuple[float, float]:
    """Feasible q interval of the cell at fixed p (may be empty: lo > hi)."""
    lo, hi = cell.q_lo, cell.q_hi
    for c0, c1, c2 in cell.paras:
        hi = min(hi, c0 + c1 * p + c2 * p * p)
    span = cell.r * cell.r - p * p
    if span < 0.0:
        return 1.0, -1.0
    s = math.sqrt(span)
    return max(lo, -s), min(hi, s)


def _clip_to_nonempty(interval_at, cell: Cell, x: float) -> tuple[float, float, float]:
    """(x, lo, hi), x pulled toward 0 until interval_at(cell, x) = (lo, hi) is nonempty.

    interval_at is _q_interval_at or _p_interval_at; the cell holds the
    origin, so its interval at 0 is nonempty.  An empty interval at x is
    bisected (see _bisect) between 0 and x: the x returned has a nonempty
    interval and the next float away from 0 an empty one.
    """
    lo, hi = interval_at(cell, x)
    if lo <= hi:
        return x, lo, hi

    def nonempty(y: float) -> bool:
        lo, hi = interval_at(cell, y)
        return lo <= hi

    x = _bisect(nonempty, 0.0, x)[0]
    return (x, *interval_at(cell, x))


def _p_interval_at(cell: Cell, q: float) -> tuple[float, float]:
    """Feasible p interval of the cell at fixed q (may be empty: lo > hi)."""
    span = cell.r * cell.r - q * q
    if span < 0.0:
        return 1.0, -1.0
    s = math.sqrt(span)
    lo, hi = max(cell.p_lo, -s), min(cell.p_hi, s)
    for c0, c1, c2 in cell.paras:
        # q <= c0 + c1 p + c2 p^2 with c2 <= 0: feasible p is between the roots.
        if c2 == 0.0:
            if c1 == 0.0:
                if q > c0:
                    return 1.0, -1.0
                continue
            bound = (q - c0) / c1
            if c1 > 0.0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
            continue
        roots = quad_roots(c2, c1, c0 - q)
        if not roots:
            return 1.0, -1.0
        lo = max(lo, min(roots))
        hi = min(hi, max(roots))
    return lo, hi


def _single_projections(
    cell: Cell, p0: float, q0: float, wp: float, wq: float
) -> Iterator[tuple[float, float, str | int]]:
    """The projection of the target onto each constraint it violates, alone,
    as (p, q, tag): a clamp onto a P line, then onto a Q line, the circle
    point, and for each violated cap, whose cubic is solved only when it is
    reached, its stationary point of least q, the one below the target."""
    if p0 < cell.p_lo:
        yield cell.p_lo, q0, "p_lo"
    elif p0 > cell.p_hi:
        yield cell.p_hi, q0, "p_hi"
    if q0 < cell.q_lo:
        yield p0, cell.q_lo, "q_lo"
    elif q0 > cell.q_hi:
        yield p0, cell.q_hi, "q_hi"
    for p, q in _circle_candidates(p0, q0, cell.r, wp, wq):
        yield p, q, "disk"
    for i, (c0, c1, c2) in enumerate(cell.paras):
        if q0 - (c0 + c1 * p0 + c2 * p0 * p0) > 0.0:
            if roots := _parabola_stationary(p0, q0, (c0, c1, c2), wp, wq):
                yield (*min(roots, key=itemgetter(1)), i)


def _meets(cell: Cell, p: float, q: float, pair: tuple[str | int, ...]) -> bool:
    """True when (p, q), the projection onto the constraints of pair alone,
    passes the screen and meets every other constraint exactly."""
    if not cell.within(p, q, _SCREEN_TOL):
        return False
    return cell.within(p, q, 0.0) or (
        ("p_lo" in pair or p >= cell.p_lo)
        and ("p_hi" in pair or p <= cell.p_hi)
        and ("q_lo" in pair or q >= cell.q_lo)
        and ("q_hi" in pair or q <= cell.q_hi)
        and ("disk" in pair or math.hypot(p, q) <= cell.r)
        and all(
            i in pair or q <= c0 + c1 * p + c2 * p * p for i, (c0, c1, c2) in enumerate(cell.paras)
        )
    )


def _least_objective(
    points: list[tuple[float, float]], p0: float, q0: float, wp: float, wq: float
) -> tuple[float, float]:
    """The first of least objective among points, which must not be empty."""
    return min(points, key=lambda x: wp * (x[0] - p0) ** 2 + wq * (x[1] - q0) ** 2)


def _project_cell(
    cell: Cell, p0: float, q0: float, wp: float, wq: float
) -> tuple[float, float, float]:
    """Exact weighted projection onto one cell; returns (p, q, objective).

    A single weight takes the lexicographic branch.  With both weights
    positive, a target inside the cell is returned as it is.  Otherwise one
    active-set pass takes, polished, the first of these that meets every
    constraint but its own exactly (see _meets), comparing no objectives: a
    projection of _single_projections, then a crossing of _crossings whose
    two multipliers are >= 0 (see _certified).  The module docstring shows
    that such a point is the optimum.  Only when none qualifies, as where
    the cell has no interior at its optimum, the crossing of least
    objective that passes the screen is taken.  The cell holds the origin,
    so some crossing passes the screen; if none does, RuntimeError names
    the target.
    """

    def objective(p: float, q: float) -> float:
        return wp * (p - p0) ** 2 + wq * (q - q0) ** 2

    if wq == 0.0:
        # Lexicographic: best p first, then closest feasible q at that p.
        p, lo, hi = _clip_to_nonempty(_q_interval_at, cell, min(max(p0, cell.p_lo), cell.p_hi))
        q = min(max(q0, lo), hi)
        return p, q, objective(p, q)
    if wp == 0.0:
        q, lo, hi = _clip_to_nonempty(_p_interval_at, cell, min(max(q0, cell.q_lo), cell.q_hi))
        p = min(max(p0, lo), hi)
        return p, q, objective(p, q)

    if cell.within(p0, q0, 0.0):
        return p0, q0, 0.0
    sp, sq = wp, wq
    if wp > 1.0 or wq > 1.0:  # scaled into [0.5, 1), they round nothing while normal
        scale = math.ldexp(1.0, -math.frexp(max(wp, wq))[1])
        if min(wp, wq) * scale >= sys.float_info.min:
            sp, sq = wp * scale, wq * scale
    for p, q, k in _single_projections(cell, p0, q0, sp, sq):
        # Only the circle point can miss its own constraint, by rounding.
        if _meets(cell, p, q, (k,)) if k == "disk" else cell.within(p, q, 0.0):
            break
    else:
        screened: list[tuple[float, float]] = []
        for p, q, a, b in _crossings(cell):
            if cell.within(p, q, _SCREEN_TOL):
                gp, gq = sp * (p - p0), sq * (q - q0)
                if _certified(cell, p, q, a, b, gp, gq) and _meets(cell, p, q, (a, b)):
                    break
                screened.append((p, q))
        else:
            if not screened:
                raise RuntimeError(
                    f"no candidate passes the cell's screen for target ({p0!r}, {q0!r})"
                )
            p, q = _least_objective(screened, p0, q0, sp, sq)
    p, q = _polish(cell, p, q)
    return p, q, objective(p, q)


def _narrowed(cell: Cell, p_min: float, p_max: float) -> Cell:
    """The cell with its P box cut to [p_min, p_max]; the cell itself when
    both bounds lie strictly outside its box, where max and min would return
    its own p_lo and p_hi."""
    if p_min < cell.p_lo and cell.p_hi < p_max:
        return cell
    return Cell(
        max(p_min, cell.p_lo),
        min(p_max, cell.p_hi),
        cell.q_lo,
        cell.q_hi,
        cell.r,
        cell.paras,
        cell.corners,
        cell.caps_nonneg,
    )


def project(problem: ProjectionProblem) -> tuple[float, float]:
    """Feasible set-point with least weighted distance to the target.

    The better of the two Q-sign cells wins, with ties broken toward the
    upper (Q >= 0) cell for determinism.  The cell across Q = 0 from the
    target costs at least lambda_p * d^2 + lambda_q * q0^2, d the distance
    from p0 to its narrowed P box, while its projection keeps p in that box
    and the other sign of q.  The float objective is monotone in |p - p0|
    and |q - q0|, so the bound holds after rounding too; when the
    target-side cell, solved first, does better than it (by a relative
    1e-12) the other cell is not solved.  With lambda_q = 0 the bound is
    lambda_p * d^2 alone, which the other cell's objective, lambda_p *
    (p - p0)^2 plus an exact zero, cannot fall below in floats.  So when
    q0 >= 0, where the other cell is the lower one and loses ties, a first
    cell that costs at most the bound wins and the lower cell is not
    solved; with q0 < 0 the upper cell can still tie and is solved.
    _polish keeps lower-cell points at q <= 0, but upper-cell ones at
    q >= 0 only under caps_nonneg: a cap that crosses Q = 0 inside the P box
    can pull them just below.  A target whose p0^2 + q0^2 overflows (about
    1.3e154 from the origin) is too far to project: it raises ValueError
    before any cell is solved, as does a solve that overflows.
    """
    region = problem.region
    p0, q0 = problem.p_target, problem.q_target
    wp, wq = problem.lambda_p, problem.lambda_q
    near, far = region.upper_cell, region.lower_cell
    if q0 < 0.0:
        near, far = far, near
    try:
        if math.isinf(p0 * p0 + q0 * q0):
            raise OverflowError("the squared target norm overflows")
        first = _project_cell(_narrowed(near, problem.p_min, problem.p_max), p0, q0, wp, wq)
        if wq > 0.0 and (q0 > 0.0 or region.upper_cell.caps_nonneg):
            edge = min(max(p0, problem.p_min, far.p_lo), problem.p_max, far.p_hi)
            if first[2] < (wq * q0**2 + wp * (edge - p0) ** 2) * (1.0 - 1e-12):
                return first[0], first[1]
        elif wq == 0.0 and q0 >= 0.0:
            edge = min(max(p0, problem.p_min, far.p_lo), problem.p_max, far.p_hi)
            if first[2] <= wp * (edge - p0) ** 2:
                return first[0], first[1]
        second = _project_cell(_narrowed(far, problem.p_min, problem.p_max), p0, q0, wp, wq)
    except OverflowError as exc:
        raise ValueError(f"target ({p0!r}, {q0!r}) is too far from the region to project") from exc
    upper, lower = (second, first) if q0 < 0.0 else (first, second)
    best = lower if lower[2] < upper[2] else upper
    return best[0], best[1]


@dataclass(frozen=True)
class ControllerConfig:
    """Everything the per-step solve needs besides the battery state."""

    droop: DroopConfig
    battery: BatteryConfig
    transformer: TransformerParams
    shrink: float

    def __post_init__(self) -> None:
        if not 0 < self.shrink <= 1:
            raise ValueError("shrink must lie in (0, 1]")


class SetpointController:
    """Sequential per-step solver; holds immutable configuration only.

    The region of every (DC anchor, AC anchor) pair of the selection tables
    whose curves were supplied is built here, with the regions' power extent
    (P_min, P_max, S_max): the P range and the largest |S| of their cells'
    boxes and disks, S_max being inf when a cell has no disk.  A step that
    probes a pair whose curve is missing raises ValueError naming its anchor.
    """

    def __init__(
        self,
        cfg: ControllerConfig,
        curves: dict[Anchor, CapabilityCurve],
        bands: Sequence[TtcParams],
    ) -> None:
        self.cfg = cfg
        self.curves = dict(curves)
        self.bands = tuple(bands)
        self._regions: dict[tuple[Anchor, Anchor | None], FeasibleRegion] = {
            (dc, ac): build_region([self.curves[a] for a in (dc, ac) if a is not None], cfg.shrink)
            for _, _, dc in DC_SELECTION
            for _, _, ac, _ in AC_SELECTION
            if dc in self.curves and (ac is None or ac in self.curves)
        }
        p_min = p_max = s_max = 0.0
        for region in self._regions.values():
            for cell in (region.upper_cell, region.lower_cell):
                p_min = min(p_min, max(cell.p_lo, -cell.r))
                p_max = max(p_max, min(cell.p_hi, cell.r))
                s_max = max(s_max, cell.r)
        self._extent = (p_min, p_max, s_max)
        # Widened by a relative 1e-12; see _voltage_bounds.
        self._widened = (p_min + 1e-12 * p_min, p_max + 1e-12 * p_max, s_max + 1e-12 * s_max)

    def _voltage_bounds(
        self,
        sample: GridSample,
        drive: float,
        rs: float,
        pac_lo: float,
        pac_hi: float,
    ) -> tuple[tuple[float, float], tuple[float, float]]:
        """Closed (vdc, vac) intervals that hold every probe's predictions.

        A probe's point lies in its region with its p in the narrowed P box,
        so in [pac_lo, pac_hi] and in the regions' P extent, and its |S| is
        at most S_max.  __init__ widens the extent by a relative 1e-12, which
        absorbs the ulp by which _polish's disk scaling can overshoot the
        radius; [pac_lo, pac_hi] is not widened, as no probe leaves it, and
        dc_power_bounds maps all of it to DC powers that solve_vdc accepts.
        vdc falls and vac rises monotonically with these, also in floating
        point.
        """
        p_min, p_max, s_hi = self._widened
        p_lo = max(pac_lo, p_min)
        p_hi = min(pac_hi, p_max)
        eta = self.cfg.battery.eta
        vdc_lo = solve_vdc(dc_from_ac(p_hi, eta), drive, rs)
        vdc_hi = solve_vdc(dc_from_ac(p_lo, eta), drive, rs)
        xf = self.cfg.transformer
        vac_hi = predict_vac(sample, s_hi, 0.0, xf) if s_hi < math.inf else math.inf
        return (vdc_lo, vdc_hi), (predict_vac(sample, 0.0, 0.0, xf), vac_hi)

    def solve_step(self, sample: GridSample, state: TtcState) -> tuple[ControlRecord, TtcState]:
        """One full control iteration: droop target, assumption loop, state advance."""
        cfg = self.cfg
        eta = cfg.battery.eta
        wp, wq = cfg.droop.lambda_p, cfg.droop.lambda_q
        p0, q0 = droop_targets(sample, cfg.droop)
        dfreq = cfg.droop.f_ref - sample.freq
        dvac = (cfg.droop.v_ref - sample.v_mv) * 1000.0
        params = params_for_soc(state.soc, self.bands)
        pdc_lo, pdc_hi = dc_power_bounds(state, params, cfg.battery)
        drive = open_circuit_voltage(state.soc, params) - state.vc_sum
        pac_lo = ac_from_dc(pdc_lo, eta)
        pac_hi = ac_from_dc(pdc_hi, eta)

        # Memoize per-step so the fallback never re-runs a probed projection:
        # at most one solve per distinct (DC anchor, AC anchor) pair.
        memo: dict[tuple[Anchor, Anchor | None], Probe] = {}

        def probe(dc_anchor: Anchor, ac_anchor: Anchor | None) -> Probe:
            key = (dc_anchor, ac_anchor)
            found = memo.get(key)
            if found is None:
                region = self._regions.get(key)
                if region is None:
                    v_dc, v_ac = dc_anchor if dc_anchor not in self.curves else ac_anchor
                    raise ValueError(f"no capability curve anchored at {v_dc:g}/{v_ac:g} V")
                p, q = project(ProjectionProblem(p0, q0, wp, wq, region, pac_lo, pac_hi))
                p_dc = dc_from_ac(p, eta)
                vdc = solve_vdc(p_dc, drive, params.rs)
                vac = predict_vac(sample, p, q, cfg.transformer)
                found = memo[key] = Probe(p, q, p_dc, vdc, vac, dc_anchor, ac_anchor)
            return found

        # Accept the first range pair, in table order, whose probe predicts
        # voltages inside both ranges.  Within a DC range the first AC range
        # that agrees with its probe settles it; when its DC voltage disagrees,
        # or no AC range agrees, the next DC range is tried.  A range that the
        # voltage bounds miss or hold answers for every probe; only a range
        # that they straddle asks the probe.
        (vdc_lo, vdc_hi), (vac_lo, vac_hi) = self._voltage_bounds(
            sample, drive, params.rs, pac_lo, pac_hi
        )
        ac_known = [
            False
            if vac_hi <= lo or hi < vac_lo
            else (True if lo < vac_lo and vac_hi <= hi else None)
            for lo, hi, _, _ in AC_SELECTION
        ]
        probes = 0
        fallback = False
        for dc_lo, dc_hi, dc_anchor in DC_SELECTION:
            for (ac_lo, ac_hi, ac_anchor, clamped), agrees in zip(AC_SELECTION, ac_known):
                probes += 1
                if agrees is None:
                    agrees = ac_lo < probe(dc_anchor, ac_anchor).vac <= ac_hi
                if agrees:
                    break
            else:
                continue
            if vdc_hi <= dc_lo or dc_hi < vdc_lo:
                continue
            # Accepted or not, the probe is needed now: its vdc lies within
            # the bounds, so a DC range that holds them holds it too.
            probed = probe(dc_anchor, ac_anchor)
            if dc_lo < probed.vdc <= dc_hi:
                break
        else:
            # No self-consistent range pair: fall back to the most conservative
            # DC envelope, with the AC envelope chosen by the last prediction,
            # which the bounds settle when they lie in one AC range.
            choice = select_ac(vac_lo)
            if select_ac(vac_hi) != choice:
                choice = select_ac(probe(dc_anchor, ac_anchor).vac)
            ac_anchor, clamped = choice
            probed = probe(DC_SELECTION[0][2], ac_anchor)
            fallback = True
        p_opt, q_opt = probed.p, probed.q

        flags: list[str] = []
        unchanged = abs(p_opt - p0) <= _POINT_TOL and abs(q_opt - q0) <= _POINT_TOL
        flags.append(STATUS_UNCHANGED if unchanged else STATUS_CLIPPED)
        if clamped:
            flags.append(STATUS_CLAMP)
        if fallback:
            flags.append(STATUS_FALLBACK)
        elif probes > 1:
            flags.append(_status_switches(probes - 1))
        if abs(p_opt) > abs(p0) + _POINT_TOL:
            flags.append(STATUS_P_EXCEEDS)

        alpha_star, beta_star = optimal_droops(p_opt, q_opt, dfreq, dvac)
        record = ControlRecord(
            sample,
            dfreq,
            dvac,
            p0,
            q0,
            p_opt,
            q_opt,
            probed.vdc,
            probed.vac,
            probed.dc_anchor,
            probed.ac_anchor,
            alpha_star,
            beta_star,
            tuple(flags),
        )
        new_state = ttc_step(state, probed.p_dc, probed.vdc, params, cfg.battery)
        return record, new_state
