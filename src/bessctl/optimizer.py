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
including k in ``converged-after-k-switches(k)``.  On the shipped curves a
step solves one projection instead of three to nine.

Each region cell (Q >= 0 or Q <= 0) is a convex set bounded by an active
power interval, one origin-centred disk, the concave parabola caps that can
bind on its P box (one or none on the shipped curves) and a flat Q
ceiling.  ``build_region`` scales and normalizes the cells once; a
projection only narrows a cell's P interval to the step's battery bounds.
A target inside the cell is its own projection.  Otherwise, unless the
single-constraint exit below applies, the stationary point on every
boundary curve and all pairwise boundary intersections are
ranked by objective (the first enumerated on a tie), and the first that
passes the feasibility screen, polished into the cell, is the exact
projection.  The intersections that do not involve the P box,
among them the disk-parabola quartic, are the cell's corners, found once
by ``build_region``; per call, only the parabola stationary-point cubic
goes through numpy, in ``poly_real_roots``.  The screen and the interior
test use ``Cell.within``, which stops at the first violated constraint.
The cell across Q = 0 from the target is solved only when it could still
win.

With both weights positive, a cell solve first tries a single-constraint
exit.  For each constraint k the target violates, it projects the target
onto k alone: a clamp onto a P or Q line, the circle point for the disk,
and last, after the cubic, the least-objective stationary point of a cap.
That point x* is returned, polished, when it passes the screen and is
isolated: every other constraint g_j satisfies
g_j(x*) + L_j rho + _SCREEN_TOL < 0.  Here
rho = 2 sqrt(mu _SCREEN_TOL / min(wp, wq)) + _RHO_FLOOR, and
mu = |grad f(x*)| / |grad g_k(x*)| is k's KKT multiplier.  L_j bounds
|grad g_j| over the ball of radius rho around x*: 1 for the lines and the
disk, and 1 + |c1 + 2 c2 p| + 2 |c2| rho for a cap.  The exit returns what
the ranked screen would, bit for bit:

- g_k is convex and the objective f is strongly convex with modulus
  min(wp, wq).  So a point y with g_k(y) <= _SCREEN_TOL, as every screened
  candidate has, satisfies f(y) >= f(x*) - mu _SCREEN_TOL +
  min(wp, wq) |y - x*|^2.  A candidate can rank at or before x* only
  within rho / 2 of it.
- Every candidate except k's own stationary points lies on another
  constraint's boundary.  The margin keeps each such boundary more than rho
  away from x*, and its _SCREEN_TOL term covers candidates that rounding
  puts just off their boundary.
- The other stationary points of a cap lie on the cap, where f exceeds
  f(x*).  (They lie above the target: a target above a cap can have three.)
  x* is the first of least objective among them, so it ranks first.
- The bound above holds for the exact x*.  The factor 2 in rho and the
  float floor _RHO_FLOOR absorb the rounding of the computed x* (the
  disk's bisection, the cubic's Newton polish), which matters when mu is
  tiny.

On a miss, the circle point and the cap roots already solved go to the
enumeration, so nothing is solved twice.  The cubic of a cap the target
does not violate is solved only when the enumeration runs.

A controller builds the region of every selection-table pair once, when
it is constructed, and holds immutable configuration only; the evolving
battery state is passed in and returned, so distinct instances can run
scenario sweeps concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
    FeasibleRegion,
    build_region,
    in_half_open,
    poly_real_roots,
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

#: Least radius of the ball a single-constraint projection keeps clear of the
#: cell's other boundaries [kW/kvar]; far above the rounding of the point.
_RHO_FLOOR = 1e-9

#: Two set-points closer than this per coordinate count as identical [kW/kvar].
_POINT_TOL = 1e-9

STATUS_UNCHANGED = "feasible-unchanged"
STATUS_CLIPPED = "clipped-to-boundary"
STATUS_CLAMP = "conservative-clamp"
STATUS_FALLBACK = "fallback"
STATUS_P_EXCEEDS = "p-exceeds-target"


def _status_switches(k: int) -> str:
    return f"converged-after-k-switches({k})"


@dataclass(frozen=True)
class ProjectionProblem:
    """Weighted projection of a droop target onto one feasible region.

    The region contains the origin by construction (``FeasibleRegion``
    checks it once), so with p_min <= 0 <= p_max the problem is never
    infeasible.
    """

    p_target: float
    q_target: float
    lambda_p: float
    lambda_q: float
    region: FeasibleRegion
    p_min: float
    p_max: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.p_target)
            and math.isfinite(self.q_target)
            and math.isfinite(self.lambda_p)
            and math.isfinite(self.lambda_q)
        ):
            raise ValueError("targets and weights must be finite")
        if self.lambda_p < 0 or self.lambda_q < 0 or self.lambda_p + self.lambda_q == 0:
            raise ValueError("weights must be nonnegative and not both zero")
        if not self.p_min <= 0.0 <= self.p_max:
            raise ValueError("AC power bounds must straddle 0 (idle is always allowed)")


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


@dataclass(frozen=True)
class ControlRecord:
    """Per-step audit trail of the controller."""

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
    coeffs = [
        2.0 * wq * c2 * c2,
        3.0 * wq * c2 * c1,
        wq * (c1 * c1 + 2.0 * c2 * shift) + wp,
        wq * c1 * shift - wp * p0,
    ]
    return [(p, c0 + c1 * p + c2 * p * p) for p in poly_real_roots(coeffs)]


def _cell_candidates(
    cell: Cell,
    p0: float,
    q0: float,
    wp: float,
    wq: float,
    solved: dict[object, list[tuple[float, float]]],
):
    """Superset of points that can be the cell optimum: single-boundary
    stationary points plus all pairwise boundary intersections.  Those of
    the crossings that involve no P line are the cell's stored corners.
    solved maps "disk" and cap indices to the stationary points already
    found for this target, which are taken instead of being solved again."""
    cands: list[tuple[float, float]] = []
    p_lines = [cell.p_lo, cell.p_hi]
    q_lines = [b for b in (cell.q_lo, cell.q_hi) if math.isfinite(b)]

    for a in p_lines:
        cands.append((a, q0))
    for b in q_lines:
        cands.append((p0, b))
    circle = solved.get("disk")
    cands.extend(_circle_candidates(p0, q0, cell.r, wp, wq) if circle is None else circle)
    for i, para in enumerate(cell.paras):
        points = solved.get(i)
        cands.extend(_parabola_stationary(p0, q0, para, wp, wq) if points is None else points)

    for a in p_lines:
        for b in q_lines:
            cands.append((a, b))
        if math.isfinite(cell.r) and cell.r * cell.r >= a * a:
            s = math.sqrt(cell.r * cell.r - a * a)
            cands.extend([(a, s), (a, -s)])
        for c0, c1, c2 in cell.paras:
            cands.append((a, c0 + c1 * a + c2 * a * a))
    cands.extend(cell.corners)
    return cands


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


def _isolated(
    cell: Cell,
    k: object,
    p: float,
    q: float,
    grad: float,
    p0: float,
    q0: float,
    wp: float,
    wq: float,
) -> bool:
    """True when every constraint of the cell but k holds at (p, q), the
    projection of the target onto k alone, with the margin that makes it
    the ranked screen's winner (see the module docstring).

    k is "p_lo", "p_hi", "q_lo", "q_hi", "disk" or a cap's index in paras,
    and grad is |grad g_k| at (p, q).  Each other g_j must satisfy
    g_j + L_j rho + _SCREEN_TOL < 0, with L_j a bound on |grad g_j| over
    the ball of radius rho around (p, q).
    """
    mu = 2.0 * math.hypot(wp * (p - p0), wq * (q - q0)) / grad
    rho = 2.0 * math.sqrt(mu * _SCREEN_TOL / min(wp, wq)) + _RHO_FLOOR
    gap = rho + _SCREEN_TOL  # L_j = 1 for the lines and the disk
    if (
        (k != "p_lo" and cell.p_lo - p + gap >= 0.0)
        or (k != "p_hi" and p - cell.p_hi + gap >= 0.0)
        or (k != "q_lo" and cell.q_lo - q + gap >= 0.0)
        or (k != "q_hi" and q - cell.q_hi + gap >= 0.0)
        or (k != "disk" and math.hypot(p, q) - cell.r + gap >= 0.0)
    ):
        return False
    for i, (c0, c1, c2) in enumerate(cell.paras):
        if i == k:
            continue
        slope = 1.0 + abs(c1 + 2.0 * c2 * p) + 2.0 * abs(c2) * rho
        if q - (c0 + c1 * p + c2 * p * p) + slope * rho + _SCREEN_TOL >= 0.0:
            return False
    return True


def _project_cell(
    cell: Cell, p0: float, q0: float, wp: float, wq: float
) -> tuple[float, float, float]:
    """Exact weighted projection onto one cell; returns (p, q, objective).

    A single weight takes the lexicographic branch.  With both weights
    positive, a target inside the cell is returned as it is.  Otherwise the
    target is projected onto each constraint k it violates, alone: the P and
    Q lines, then the disk, then each violated cap, whose cubic is solved
    last.  The first such point that passes the screen and is isolated
    (see _isolated) is returned, polished; the module docstring shows that
    it is what the ranked screen returns, bit for bit.  On a miss, the
    candidates are ranked by objective, the first enumerated on a tie, and
    the first that passes the screen, polished, is returned.  The circle
    point and the cap roots solved for the exit are reused there.  The cell
    holds the origin, so some candidate passes; if none does, RuntimeError
    names the target.
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

    # The projection onto each violated constraint alone, lines first and
    # cap cubics last; the first that is in the cell and isolated wins.
    shots: list[tuple[object, float, float]] = []
    if p0 < cell.p_lo:
        shots.append(("p_lo", cell.p_lo, q0))
    elif p0 > cell.p_hi:
        shots.append(("p_hi", cell.p_hi, q0))
    if q0 < cell.q_lo:
        shots.append(("q_lo", p0, cell.q_lo))
    elif q0 > cell.q_hi:
        shots.append(("q_hi", p0, cell.q_hi))
    circle = _circle_candidates(p0, q0, cell.r, wp, wq)
    solved: dict[object, list[tuple[float, float]]] = {"disk": circle}
    shots += [("disk", p, q) for p, q in circle]
    # The lines and the disk have |grad g_k| = 1.
    for k, p, q in shots:
        if cell.within(p, q, _SCREEN_TOL) and _isolated(cell, k, p, q, 1.0, p0, q0, wp, wq):
            p, q = _polish(cell, p, q)
            return p, q, objective(p, q)
    for i, para in enumerate(cell.paras):
        c0, c1, c2 = para
        if q0 - (c0 + c1 * p0 + c2 * p0 * p0) <= 0.0:
            continue
        points = solved[i] = _parabola_stationary(p0, q0, para, wp, wq)
        if not points:
            continue
        p, q = min(points, key=lambda x: objective(*x))
        grad = math.hypot(1.0, c1 + 2.0 * c2 * p)
        if cell.within(p, q, _SCREEN_TOL) and _isolated(cell, i, p, q, grad, p0, q0, wp, wq):
            p, q = _polish(cell, p, q)
            return p, q, objective(p, q)

    # Candidates outside the P box fail the screen; unranked, they cannot
    # overflow.  The objective is inlined, as it is evaluated per candidate.
    ranked = sorted(
        (wp * (p - p0) ** 2 + wq * (q - q0) ** 2, i, p, q)
        for i, (p, q) in enumerate(_cell_candidates(cell, p0, q0, wp, wq, solved))
        if cell.p_lo - p <= _SCREEN_TOL and p - cell.p_hi <= _SCREEN_TOL
    )
    for _, _, p, q in ranked:
        if cell.within(p, q, _SCREEN_TOL):
            p, q = _polish(cell, p, q)
            return p, q, objective(p, q)
    raise RuntimeError(f"no candidate passes the cell's screen for target ({p0!r}, {q0!r})")


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
    1e-12) the other cell is not solved.  With lambda_q = 0 the bound is not
    computed: the first cell, whose P box is the other's, cannot beat it.
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
        second = _project_cell(_narrowed(far, problem.p_min, problem.p_max), p0, q0, wp, wq)
    except OverflowError as exc:
        raise ValueError(f"target ({p0!r}, {q0!r}) is too far from the region to project") from exc
    upper, lower = (second, first) if q0 < 0.0 else (first, second)
    best = lower if lower[2] < upper[2] else upper
    return best[0], best[1]


def _in_range(
    lo: float, hi: float, bounds: tuple[float, float], predict: Callable[[], float]
) -> bool:
    """in_half_open(predict(), lo, hi), answered without calling predict when
    bounds, a closed interval holding its value, lies outside or inside."""
    v_lo, v_hi = bounds
    if v_hi <= lo or hi < v_lo:
        return False
    if lo < v_lo and v_hi <= hi:
        return True
    return in_half_open(predict(), lo, hi)


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
        at most S_max.  The extent is widened by a relative 1e-12, which
        absorbs the ulp by which _polish's disk scaling can overshoot the
        radius; [pac_lo, pac_hi] is not, as no probe leaves it, and
        dc_power_bounds maps all of it to DC powers that solve_vdc accepts.
        vdc falls and vac rises monotonically with these, also in floating
        point.
        """
        p_min, p_max, s_max = self._extent
        p_lo = max(pac_lo, p_min + 1e-12 * p_min)
        p_hi = min(pac_hi, p_max + 1e-12 * p_max)
        s_hi = s_max + 1e-12 * s_max
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
        # or no AC range agrees, the next DC range is tried.
        vdc_bounds, vac_bounds = self._voltage_bounds(sample, drive, params.rs, pac_lo, pac_hi)
        probes = 0
        fallback = False
        for dc_lo, dc_hi, dc_anchor in DC_SELECTION:
            for ac_lo, ac_hi, ac_anchor, clamped in AC_SELECTION:
                probes += 1
                if _in_range(ac_lo, ac_hi, vac_bounds, lambda: probe(dc_anchor, ac_anchor).vac):
                    break
            else:
                continue
            if _in_range(dc_lo, dc_hi, vdc_bounds, lambda: probe(dc_anchor, ac_anchor).vdc):
                probed = probe(dc_anchor, ac_anchor)
                break
        else:
            # No self-consistent range pair: fall back to the most conservative
            # DC envelope, with the AC envelope chosen by the last prediction,
            # which the bounds settle when they lie in one AC range.
            choice = select_ac(vac_bounds[0])
            if select_ac(vac_bounds[1]) != choice:
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
            sample=sample,
            dfreq=dfreq,
            dvac=dvac,
            p_target=p0,
            q_target=q0,
            p_opt=p_opt,
            q_opt=q_opt,
            vdc_pred=probed.vdc,
            vac_pred=probed.vac,
            curve_dc=probed.dc_anchor,
            curve_ac=probed.ac_anchor,
            alpha_star=alpha_star,
            beta_star=beta_star,
            status=tuple(flags),
        )
        new_state = ttc_step(state, probed.p_dc, probed.vdc, params, cfg.battery)
        return record, new_state
