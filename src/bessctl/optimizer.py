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
including k in ``converged-after-k-switches(k)``.  The vac bounds do not
depend on the DC range, so every DC range decides an AC range alike; only a
range whose edge the bounds straddle asks a probe.  On the shipped curves a
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
  With unequal weights the circle point lies in the disk: Newton's method
  on 1/|x(mu)| - 1/r finds its multiplier from below (Moré and Sorensen,
  "Computing a Trust Region Step", SIAM J. Sci. Stat. Comput. 4(3), 1983).
- Otherwise two constraints bind at the optimum; in the plane two of them
  always carry the multipliers, even where three meet.  Each crossing is
  tagged with its pair, and the first whose two multipliers, solved by
  Cramer's rule from the pair's gradients, are >= 0 (up to rounding,
  MU_TOL) is the optimum.
- The conditions are sufficient but not necessary.  Where the binding
  constraints have parallel gradients, as where the cell narrows to a point
  or two boundaries touch, no multipliers exist, and the screened crossing
  of least objective, the first on a tie, is taken.

The screen is ``Cell.within`` with SCREEN_TOL; the point taken is polished
into the cell.  Weights above 1 are scaled below 1 by a power of two, which
rounds nothing.  The crossings that do not involve the P box, among them
the disk-parabola quartic, are the cell's corners, found by
``build_region``.  A crossing is taken when it passes the screen, its
normals are not parallel, its multipliers are >= 0 and it meets the other
constraints: a conjunction of pure float expressions, of which only the
multipliers read the target.  ``capability.screened_crossings`` evaluates
the rest, and ``build_region`` keeps its result on each cell,
``Cell.crossings``.  So a solve that scans the table takes the same
crossing, or falls back on the same screened ones, bit for bit.  A cell
that the battery bounds narrow has P-line crossings of its own and no
table, so a solve that reaches the crossing stage screens them all
first, with no early exit.  So does a copy whose box equals the cell's:
a bound may carry the other sign of zero, which the point taken keeps.
Per call, only a violated cap's stationary-point cubic goes through numpy,
in ``capability.cubic_real_roots``, which stores its scalar coefficients
straight into a 3x3 companion matrix for LAPACK and alone decides how it
is solved, rescaling a cubic whose companion row overflows.

The better of the two cells is the projection.  With one weight zero the
projection is lexicographic: lambda_q = 0 takes the best p, then the q
nearest q0 at that p.  Each cell's lexicographic branch does this within
the cell; across the cells, a tie on the weighted coordinate goes to the
cell whose point is nearer the target in the unweighted one, so a
feasible q target below Q = 0 is kept rather than clipped to 0.  The
cell across Q = 0 from the target is solved only when it could still win;
with lambda_q = 0, only when the target-side cell stops short of the P
bound that the other reaches: otherwise the other can at best tie on p,
and then loses on q.

A controller builds the region of every selection-table pair once, when
it is constructed, and holds immutable configuration only; the evolving
battery state is passed in and returned, so distinct instances can run
scenario sweeps concurrently.  The values a step builds, the battery state
it returns, its ``ProjectionProblem``, ``Cell`` and ``ControlRecord``, are
immutable NamedTuples; the state and the problem validate their fields in
``__new__``.  A step builds each ``Probe`` and its ``ControlRecord`` with
``tuple.__new__``, as neither checks its fields, which skips the Python
frame of the generated constructor.  It calls ``project``,
``params_for_soc``, ``dc_power_bounds``, ``solve_vdc``, ``predict_vac`` and
``ttc_step`` through this module's globals, where a tracer can wrap them.
The one-line layers ``droop_targets``, ``ac_from_dc``, ``dc_from_ac`` and
``optimal_droops`` it writes out with their float expressions; ``eta`` needs
no check, as ``BatteryConfig`` checked it.  It evaluates
the circuit once, in ``dc_power_bounds``: the drive E - sum(vc) that the
voltage bounds and every probe share is written out with the same float
operations, and needs no band check, as ``params_for_soc`` chose the band.
The assumption loop decides each AC range inline from the vac bounds: a
range they miss is passed, one they hold is taken, and one they straddle
calls the step's one nested ``probe``.  That probe memoises its projections
by range pair, so the fallback reuses the loop's, and reads the step's
inputs from one captured tuple rather than a closure cell per name.  A
step's switch flag comes from a table built at import.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

# perfbench/tracer.py wraps ac_from_dc, dc_from_ac, droop_targets and optimal_droops here.
from bessctl.battery import (
    BatteryConfig,
    TtcParams,
    TtcState,
    ac_from_dc,
    dc_from_ac,
    dc_power_bounds,
    params_for_soc,
    solve_vdc,
    ttc_step,
)
from bessctl.capability import (
    AC_SELECTION,
    DC_SELECTION,
    MU_TOL,
    Anchor,
    CapabilityCurve,
    Cell,
    FeasibleRegion,
    build_region,
    cubic_real_roots,
    meets,
    quad_roots,
    screened_crossings,
    select_ac,
)
from bessctl.grid import (
    FREQ_DEADBAND_HZ,
    VOLT_DEADBAND_V,
    DroopConfig,
    GridSample,
    TransformerParams,
    droop_targets,
    optimal_droops,
    predict_vac,
)

#: Two set-points closer than this per coordinate count as identical [kW/kvar].
_POINT_TOL = 1e-9

STATUS_UNCHANGED = "feasible-unchanged"
STATUS_CLIPPED = "clipped-to-boundary"
STATUS_CLAMP = "conservative-clamp"
STATUS_FALLBACK = "fallback"
STATUS_P_EXCEEDS = "p-exceeds-target"


def _status_switches(k: int) -> str:
    return f"converged-after-k-switches({k})"


#: The switch flag of a step that accepted its (k+1)-th range pair, none for
#: the first, and the flag of a step that fell back.
_SWITCHED: tuple[tuple[str, ...], ...] = ((),) + tuple(
    (_status_switches(k),) for k in range(1, len(DC_SELECTION) * len(AC_SELECTION))
)
_FALLBACK = (STATUS_FALLBACK,)


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

    An immutable NamedTuple; unlike the state and the problem, it makes no
    checks of its own, so solve_step builds it with tuple.__new__, without
    the generated constructor.
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


def _circle_candidates(
    p0: float, q0: float, r: float, wp: float, wq: float
) -> list[tuple[float, float]]:
    """Weighted projection of an exterior target onto the circle p^2 + q^2 = r^2.

    With unequal weights, Newton's method on the concave, increasing
    1/|x(mu)| - 1/r, x(mu) = (p0/(1+mu/wp), q0/(1+mu/wq)), climbs to the
    root from below, with mu in units of the weight of the coordinate that
    moves most: the lighter one, unless the heavier target coordinate is
    outside the disk alone, and then from where it reaches the circle.  A
    stalled step scales x onto the circle.  x counts if r(1 - 4 eps) <= |x|
    <= r; each coordinate then moves a float toward its target in the disk.
    """
    norm = math.hypot(p0, q0)
    if norm <= r:
        return []
    if wp == wq:
        s = r / norm
        return [(p0 * s, q0 * s)]
    (th, wh), (tl, wl) = ((p0, wp), (q0, wq)) if wp > wq else ((q0, wq), (p0, wp))
    # The weights in those units, one of them 1; ch may be inf and cl 0.
    ch, cl, nu = (1.0, wl / wh, (abs(th) - r) / r) if abs(th) > r else (wh / wl, 1.0, 0.0)
    while True:
        xh, xl = th / (1.0 + nu / ch), tl * cl / (cl + nu)
        if not (n := math.hypot(xh, xl)) > r:  # a NaN ends the loop too
            break
        # The Newton step, written over (cl + nu) so that no term overflows.
        uh, ul = xh / n, xl / n
        step = (n / r - 1.0) * (cl + nu) / (ul * ul + uh * uh * ((cl + nu) / (ch + nu)))
        if nu + step == nu:
            xh, xl = xh * (s := r / n), xl * s
            n = math.hypot(xh, xl)
            break
        nu += step
    if not r * (1.0 - 4.0 * sys.float_info.epsilon) <= n <= r:
        return []
    if math.hypot(nudged := math.nextafter(xh, th), xl) <= r:
        xh = nudged
    if math.hypot(xh, nudged := math.nextafter(xl, tl)) <= r:
        xl = nudged
    return [(xh, xl) if wp > wq else (xl, xh)]


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
    bisected between 0 and x down to adjacent floats: the x returned has a
    nonempty interval and the next float away from 0 an empty one.
    """
    lo, hi = interval_at(cell, x)
    if lo <= hi:
        return x, lo, hi
    inside, outside = 0.0, x
    while (mid := 0.5 * (inside + outside)) != inside and mid != outside:
        lo, hi = interval_at(cell, mid)
        inside, outside = (mid, outside) if lo <= hi else (inside, mid)
    return (inside, *interval_at(cell, inside))


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


def _least_objective(
    points: Sequence[tuple[float, ...]], p0: float, q0: float, wp: float, wq: float
) -> tuple[float, float]:
    """(p, q) of the first of least objective among points, which must not
    be empty; a point may carry more fields after its p and q."""
    return min(points, key=lambda x: wp * (x[0] - p0) ** 2 + wq * (x[1] - q0) ** 2)[:2]


def _project_cell(
    cell: Cell, p0: float, q0: float, wp: float, wq: float
) -> tuple[float, float, float]:
    """Exact weighted projection onto one cell; returns (p, q, objective).

    A single weight takes the lexicographic branch.  With both weights
    positive, a target inside the cell is returned as it is.  Otherwise one
    active-set pass takes, polished, the first of these that meets every
    constraint but its own exactly (see capability.meets), comparing no
    objectives: a projection of _single_projections, then a screened
    crossing whose two multipliers are >= 0.  The crossings are one tuple
    of the cell's ``capability.screened_crossings``: its table,
    ``cell.crossings``, when it has one, and otherwise all of them, screened
    when the solve reaches this stage.  Each carries its pair's normals, or None
    where it cannot certify, so only the multipliers, by Cramer's rule, are
    left per call.  The module docstring shows that such a point is the
    optimum.  Only when none qualifies, as where the cell has no interior
    at its optimum, the crossing of least objective in that tuple is taken.
    The cell holds the origin, so some crossing passes the screen; if none
    does, RuntimeError names the target.
    """

    if wq == 0.0:
        # Lexicographic: best p first, then closest feasible q at that p.
        p, lo, hi = _clip_to_nonempty(_q_interval_at, cell, min(max(p0, cell.p_lo), cell.p_hi))
        q = min(max(q0, lo), hi)
    elif wp == 0.0:
        q, lo, hi = _clip_to_nonempty(_p_interval_at, cell, min(max(q0, cell.q_lo), cell.q_hi))
        p = min(max(p0, lo), hi)
    elif cell.within(p0, q0, 0.0):
        return p0, q0, 0.0
    else:
        sp, sq = wp, wq
        if wp > 1.0 or wq > 1.0:  # scaled into [0.5, 1), they round nothing while normal
            scale = math.ldexp(1.0, -math.frexp(max(wp, wq))[1])
            if min(wp, wq) * scale >= sys.float_info.min:
                sp, sq = wp * scale, wq * scale
        for p, q, k in _single_projections(cell, p0, q0, sp, sq):
            # Only the equal-weight circle point can miss its own constraint.
            if meets(cell, p, q, (k,)) if k == "disk" else cell.within(p, q, 0.0):
                break
        else:
            crossings = cell.crossings
            if crossings is None:
                crossings = tuple(screened_crossings(cell))
            for p, q, kkt in crossings:
                if kkt is not None:
                    # Both multipliers by Cramer's rule; each mu_j |grad g_j|
                    # may round to -MU_TOL |grad f|.
                    ap, aq, bp, bq, det, norm_a, norm_b = kkt
                    gp, gq = sp * (p - p0), sq * (q - q0)
                    mu_a, mu_b = (bp * gq - bq * gp) / det, (aq * gp - ap * gq) / det
                    tol = -MU_TOL * math.hypot(gp, gq)
                    if mu_a * norm_a >= tol and mu_b * norm_b >= tol:
                        break
            else:
                if not crossings:
                    raise RuntimeError(
                        f"no candidate passes the cell's screen for target ({p0!r}, {q0!r})"
                    )
                p, q = _least_objective(crossings, p0, q0, sp, sq)
        p, q = _polish(cell, p, q)
    return p, q, wp * (p - p0) ** 2 + wq * (q - q0) ** 2


def _narrowed(cell: Cell, p_min: float, p_max: float) -> Cell:
    """The cell with its P box cut to [p_min, p_max]; the cell itself, with
    its crossing table, when both bounds lie strictly outside its box, where
    max and min would return its own p_lo and p_hi.  A cut copy has other
    P-line crossings, so it has no table (crossings None), even where its
    box is the cell's: a bound on a box edge may be a zero of the other
    sign."""
    if p_min < cell.p_lo and cell.p_hi < p_max:
        return cell
    return tuple.__new__(Cell, (max(p_min, cell.p_lo), min(p_max, cell.p_hi), *cell[2:-1], None))


def project(problem: ProjectionProblem) -> tuple[float, float]:
    """Feasible set-point with least weighted distance to the target.

    The better of the two Q-sign cells wins.  When the two cells'
    objectives round to the same float, as for targets about 1e19 away, or
    within about 1e-162 of both points, where the squares underflow, the
    exact objectives of the two points, in integers, decide instead.  When
    those are equal too and one weight is zero, the projection is
    lexicographic and the unweighted coordinate decides, again exactly: with
    lambda_q = 0 the cell whose q is nearer q0 wins, and with lambda_p = 0
    the cell whose p is nearer p0.  A tie left after that goes to the upper
    (Q >= 0) cell, for determinism.

    The near cell, on the target's side of Q = 0, is solved first.  The far
    cell costs at least lambda_p * d^2 + lambda_q * q0^2, d the distance
    from p0 to edge, the clip of p0 into its narrowed P box, while its
    projection keeps p in that box and the other sign of q.  The float
    objective is monotone in |p - p0| and |q - q0|, so the bound holds
    after rounding too; when lambda_q > 0 and the near cell does better
    than it (by a relative 1e-12) the far cell is not solved.

    With lambda_q = 0 both objectives are lambda_p * (p - p0)^2 plus an
    exact zero.  The far cell's p is edge, or was pulled from edge toward
    0 (see _clip_to_nonempty) and so lies strictly farther from p0.  So a
    near cell that costs less than lambda_p * (edge - p0)^2 wins.  One
    whose p is edge ties or beats the far cell on p: a far p elsewhere
    loses on the exact objective, and a far p at edge ties it exactly, so
    q decides.  At p = edge the far cell's q interval is not empty, so no
    cap is below 0 there: a cap of the atoms that were would bound both
    cells there, or lie above one that does (see capability._binding_caps).
    So the near cell's q interval at edge reaches 0 on its side, and its q
    lies between q0 and 0, nearer q0 than the far cell's, of the other
    sign, or tied with it at q = 0.  So the far cell is not solved, for
    either sign of q0 and whatever the caps, unless the near cell is the
    lower one at q = 0, as where edge lies on its disk: a tie there goes to
    the upper cell.
    _polish keeps lower-cell points at q <= 0, but upper-cell ones at
    q >= 0 only under caps_nonneg: a cap that crosses Q = 0 inside the P box
    can pull them just below.  A target whose p0^2 + q0^2 overflows (about
    1.3e154 from the origin) is too far to project: it raises ValueError
    before any cell is solved, as does a solve that overflows.
    """
    p0, q0, wp, wq, region, p_min, p_max = problem
    near, far = region.upper_cell, region.lower_cell
    if q0 < 0.0:
        near, far = far, near
    try:
        if math.isinf(p0 * p0 + q0 * q0):
            raise OverflowError("the squared target norm overflows")
        # A cell that the bounds leave as it is scans its own table.
        first = _project_cell(_narrowed(near, p_min, p_max), p0, q0, wp, wq)
        edge = min(max(p0, p_min, far.p_lo), p_max, far.p_hi)
        if wq > 0.0 and (q0 > 0.0 or region.upper_cell.caps_nonneg):
            if first[2] < (wq * q0**2 + wp * (edge - p0) ** 2) * (1.0 - 1e-12):
                return first[0], first[1]
        elif wq == 0.0:
            if first[2] < wp * (edge - p0) ** 2 or (
                first[0] == edge and (q0 >= 0.0 or first[1] != 0.0)
            ):
                return first[0], first[1]
        second = _project_cell(_narrowed(far, p_min, p_max), p0, q0, wp, wq)
    except OverflowError as exc:
        raise ValueError(f"target ({p0!r}, {q0!r}) is too far from the region to project") from exc
    (pu, qu, fu), (pl, ql, fl) = (second, first) if q0 < 0.0 else (first, second)
    if fl == fu and (pl, ql) != (pu, qu):
        # Distinct points, objectives rounded to one float: compare exactly.
        # Each float is n / 2**e: times the largest 2**e, the coordinates and
        # the weights are integers, and so are both keys, times its cube.
        ratios = [x.as_integer_ratio() for x in (p0, q0, pl, ql, pu, qu, wp, wq)]
        scale = max(d for _, d in ratios)
        x0, y0, xl, yl, xu, yu, ip, iq = [n * (scale // d) for n, d in ratios]
        keys = []
        for x, y in ((xl, yl), (xu, yu)):
            dp, dq = (x - x0) ** 2, (y - y0) ** 2
            # Lexicographic with one weight zero: the other coordinate next.
            unweighted = dq if wq == 0.0 else dp if wp == 0.0 else 0
            keys.append((ip * dp + iq * dq, unweighted))
        fl, fu = keys
    return (pl, ql) if fl < fu else (pu, qu)


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
    whose curves were supplied is built here, each cell with its crossing
    table, and so is the regions' power extent (P_min, P_max, S_max): the P
    range and the largest |S| of their cells' boxes and disks, S_max being
    inf when a cell has no disk.  A step that probes a pair whose curve is
    missing raises ValueError naming its anchor.
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
        # dc_from_ac written out; BatteryConfig checked eta.
        vdc_lo = solve_vdc(eta * p_hi if p_hi < 0 else p_hi / eta, drive, rs)
        vdc_hi = solve_vdc(eta * p_lo if p_lo < 0 else p_lo / eta, drive, rs)
        xf = self.cfg.transformer
        vac_hi = predict_vac(sample, s_hi, 0.0, xf) if s_hi < math.inf else math.inf
        return (vdc_lo, vdc_hi), (predict_vac(sample, 0.0, 0.0, xf), vac_hi)

    def solve_step(self, sample: GridSample, state: TtcState) -> tuple[ControlRecord, TtcState]:
        """One full control iteration: droop target, assumption loop, state advance.

        The loop walks the selection tables in order and decides each AC
        range inline from the step's vac bounds: a range that they miss is
        passed, one that holds them settles the AC choice, and only one whose
        edge they straddle asks the nested ``probe``.  ``probe`` solves each
        (DC anchor, AC anchor) pair at most once per step, for the loop and
        the fallback alike, and reads the step's inputs from one tuple.
        """
        droop = self.cfg.droop
        battery = self.cfg.battery
        eta = battery.eta
        freq, v_mv = sample.freq, sample.v_mv
        # droop_targets written out.
        p0 = -droop.alpha0 * (freq - droop.f_ref)
        q0 = -droop.beta0 * (v_mv - droop.v_ref) * 1000.0
        dfreq = droop.f_ref - freq
        dvac = (droop.v_ref - v_mv) * 1000.0
        params = params_for_soc(state.soc, self.bands)
        pdc_lo, pdc_hi = dc_power_bounds(state, params, battery)
        # open_circuit_voltage(soc, params) - state.vc_sum, bit for bit.
        vc1, vc2, vc3, soc = state
        drive = params.a + params.b * soc - (vc1 + vc2 + vc3)
        rs = params.rs
        # ac_from_dc written out; BatteryConfig checked eta.
        pac_lo = pdc_lo / eta if pdc_lo < 0 else eta * pdc_lo
        pac_hi = pdc_hi / eta if pdc_hi < 0 else eta * pdc_hi

        # Memoize per-step so the fallback never re-runs a probed projection:
        # at most one solve per distinct (DC anchor, AC anchor) pair.  The
        # probe unpacks its inputs from one captured tuple, so the step's own
        # names stay plain locals rather than closure cells.
        memo: dict[tuple[Anchor, Anchor | None], Probe] = {}
        wp, wq = droop.lambda_p, droop.lambda_q
        inputs = (self, sample, p0, q0, wp, wq, pac_lo, pac_hi, eta, drive, rs)

        def probe(dc_anchor: Anchor, ac_anchor: Anchor | None) -> Probe:
            key = (dc_anchor, ac_anchor)
            found = memo.get(key)
            if found is None:
                ctl, sample, p0, q0, wp, wq, pac_lo, pac_hi, eta, drive, rs = inputs
                region = ctl._regions.get(key)
                if region is None:
                    v_dc, v_ac = dc_anchor if dc_anchor not in ctl.curves else ac_anchor
                    raise ValueError(f"no capability curve anchored at {v_dc:g}/{v_ac:g} V")
                p, q = project(ProjectionProblem(p0, q0, wp, wq, region, pac_lo, pac_hi))
                p_dc = eta * p if p < 0 else p / eta  # dc_from_ac written out
                vdc = solve_vdc(p_dc, drive, rs)
                vac = predict_vac(sample, p, q, ctl.cfg.transformer)
                found = memo[key] = tuple.__new__(
                    Probe, (p, q, p_dc, vdc, vac, dc_anchor, ac_anchor)
                )
            return found

        # Accept the first range pair, in table order, whose probe predicts
        # voltages inside both ranges.  Within a DC range the first AC range
        # that agrees with its probe settles it; when its DC voltage disagrees,
        # or no AC range agrees, the next DC range is tried.  A range that the
        # voltage bounds miss or hold answers for every probe; only a range
        # that they straddle asks the probe.
        (vdc_lo, vdc_hi), (vac_lo, vac_hi) = self._voltage_bounds(
            sample, drive, rs, pac_lo, pac_hi
        )
        probes = 0
        for dc_lo, dc_hi, dc_anchor in DC_SELECTION:
            for ac_lo, ac_hi, ac_anchor, clamped in AC_SELECTION:
                probes += 1
                if vac_hi <= ac_lo or ac_hi < vac_lo:
                    continue
                if ac_lo < vac_lo and vac_hi <= ac_hi:
                    break
                if ac_lo < probe(dc_anchor, ac_anchor).vac <= ac_hi:
                    break
            else:
                continue
            if vdc_hi <= dc_lo or dc_hi < vdc_lo:
                continue
            # Accepted or not, the probe is needed now: its vdc lies within
            # the bounds, so a DC range that holds them holds it too.
            probed = probe(dc_anchor, ac_anchor)
            if dc_lo < probed.vdc <= dc_hi:
                switched = _SWITCHED[probes - 1]
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
            switched = _FALLBACK
        p_opt, q_opt = probed.p, probed.q

        unchanged = abs(p_opt - p0) <= _POINT_TOL and abs(q_opt - q0) <= _POINT_TOL
        flags = (
            (STATUS_UNCHANGED if unchanged else STATUS_CLIPPED,)
            + ((STATUS_CLAMP,) + switched if clamped else switched)
            + ((STATUS_P_EXCEEDS,) if abs(p_opt) > abs(p0) + _POINT_TOL else ())
        )
        # optimal_droops written out.
        alpha_star = p_opt / dfreq if abs(dfreq) > FREQ_DEADBAND_HZ else None
        beta_star = q_opt / dvac if abs(dvac) > VOLT_DEADBAND_V else None
        record = tuple.__new__(
            ControlRecord,
            (
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
                flags,
            ),
        )
        new_state = ttc_step(state, probed.p_dc, probed.vdc, params, battery)
        return record, new_state
