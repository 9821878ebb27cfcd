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
self-consistent pair is found (or the conservative fallback fires).

Each region cell (Q >= 0 or Q <= 0) is a convex set bounded by an active
power interval, one origin-centred disk, up to two concave parabola caps
and a flat Q ceiling.  ``build_region`` scales and normalizes the cells
once; a projection only narrows a cell's P interval to the step's battery
bounds.  The projection is solved exactly by enumerating the unconstrained
optimum, the stationary point on every boundary curve and all pairwise
boundary intersections, then keeping the feasible candidate with the least
objective.  Cubic and quartic intersections go through numpy's polynomial
roots with a Newton polish.

A controller instance holds immutable configuration only; the evolving
battery state is passed in and returned, so distinct instances can run
scenario sweeps concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    Anchor,
    CapabilityCurve,
    Cell,
    FeasibleRegion,
    build_region,
    in_half_open,
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

STATUS_UNCHANGED = "feasible-unchanged"
STATUS_CLIPPED = "clipped-to-boundary"
STATUS_CLAMP = "conservative-clamp"
STATUS_FALLBACK = "fallback"
STATUS_P_EXCEEDS = "p-exceeds-target"


def _status_switches(k: int) -> str:
    return f"converged-after-k-switches({k})"


@dataclass(frozen=True)
class ProjectionProblem:
    """Weighted projection of a droop target onto one feasible region."""

    p_target: float
    q_target: float
    lambda_p: float
    lambda_q: float
    region: FeasibleRegion
    p_min: float
    p_max: float

    def __post_init__(self) -> None:
        if self.lambda_p < 0 or self.lambda_q < 0 or self.lambda_p + self.lambda_q == 0:
            raise ValueError("weights must be nonnegative and not both zero")
        if not self.p_min <= 0.0 <= self.p_max:
            raise ValueError("AC power bounds must straddle 0 (idle is always allowed)")
        if not self.region.contains(0.0, 0.0):
            raise ValueError("region must contain the origin")


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


def _quad_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c, numerically stable, degenerate-safe."""
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else 0.5 * s
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    else:
        roots.append(-roots[0])
    return roots


def _poly_real_roots(coeffs: Sequence[float]) -> list[float]:
    """Real roots of a polynomial given by descending coefficients.

    Roots from the companion matrix are polished with two Newton steps.
    """
    trimmed = list(coeffs)
    while trimmed and trimmed[0] == 0.0:
        trimmed.pop(0)
    if len(trimmed) <= 1:
        return []
    if len(trimmed) == 3:
        return _quad_roots(trimmed[0], trimmed[1], trimmed[2])
    if len(trimmed) == 2:
        return [-trimmed[1] / trimmed[0]]
    arr = np.array(trimmed, dtype=float)
    deriv = np.polyder(arr)
    out: list[float] = []
    for root in np.roots(arr):
        if abs(root.imag) > 1e-8 * (1.0 + abs(root.real)):
            continue
        x = float(root.real)
        for _ in range(2):
            d = float(np.polyval(deriv, x))
            if d == 0.0:
                break
            x -= float(np.polyval(arr, x)) / d
        out.append(x)
    return out


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

    def radius_gap(mu: float) -> float:
        return math.hypot(wp * p0 / (wp + mu), wq * q0 / (wq + mu)) - r

    hi = max(wp, wq)
    for _ in range(200):
        if radius_gap(hi) <= 0.0:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if radius_gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
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
    return [(p, c0 + c1 * p + c2 * p * p) for p in _poly_real_roots(coeffs)]


def _cell_candidates(cell: Cell, p0: float, q0: float, wp: float, wq: float):
    """Superset of points that can be the cell optimum: single-boundary
    stationary points plus all pairwise boundary intersections."""
    cands: list[tuple[float, float]] = []
    p_lines = [cell.p_lo, cell.p_hi]
    q_lines = [b for b in (cell.q_lo, cell.q_hi) if math.isfinite(b)]

    for a in p_lines:
        cands.append((a, q0))
    for b in q_lines:
        cands.append((p0, b))
    if cell.r is not None:
        cands.extend(_circle_candidates(p0, q0, cell.r, wp, wq))
    for para in cell.paras:
        cands.extend(_parabola_stationary(p0, q0, para, wp, wq))

    for a in p_lines:
        for b in q_lines:
            cands.append((a, b))
        if cell.r is not None and cell.r * cell.r >= a * a:
            s = math.sqrt(cell.r * cell.r - a * a)
            cands.extend([(a, s), (a, -s)])
        for c0, c1, c2 in cell.paras:
            cands.append((a, c0 + c1 * a + c2 * a * a))
    for b in q_lines:
        if cell.r is not None and cell.r * cell.r >= b * b:
            s = math.sqrt(cell.r * cell.r - b * b)
            cands.extend([(s, b), (-s, b)])
        for c0, c1, c2 in cell.paras:
            for p in _quad_roots(c2, c1, c0 - b):
                cands.append((p, b))
    if cell.r is not None:
        for c0, c1, c2 in cell.paras:
            coeffs = [
                c2 * c2,
                2.0 * c2 * c1,
                c1 * c1 + 2.0 * c2 * c0 + 1.0,
                2.0 * c1 * c0,
                c0 * c0 - cell.r * cell.r,
            ]
            for p in _poly_real_roots(coeffs):
                cands.append((p, c0 + c1 * p + c2 * p * p))
    for i in range(len(cell.paras)):
        for j in range(i + 1, len(cell.paras)):
            a0, a1, a2 = cell.paras[i]
            b0, b1, b2 = cell.paras[j]
            for p in _quad_roots(a2 - b2, a1 - b1, a0 - b0):
                cands.append((p, a0 + a1 * p + a2 * p * p))
    return cands


def _polish(cell: Cell, p: float, q: float) -> tuple[float, float]:
    """Clamp float dust off a near-feasible point without leaving the cell."""
    p = min(max(p, cell.p_lo), cell.p_hi)
    q = min(max(q, cell.q_lo), cell.q_hi)
    for c0, c1, c2 in cell.paras:
        q = min(q, c0 + c1 * p + c2 * p * p)
    if cell.r is not None:
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
    if cell.r is not None:
        span = cell.r * cell.r - p * p
        if span < 0.0:
            return 1.0, -1.0
        s = math.sqrt(span)
        lo = max(lo, -s)
        hi = min(hi, s)
    return lo, hi


def _clip_to_nonempty(interval_at, cell: Cell, inside: float, x: float) -> float:
    """Pull x toward inside until interval_at(cell, x) is nonempty.

    interval_at is _q_interval_at or _p_interval_at; inside must give a
    nonempty interval.
    """
    lo, hi = interval_at(cell, x)
    if lo <= hi:
        return x
    outside = x
    for _ in range(80):
        mid = 0.5 * (inside + outside)
        lo, hi = interval_at(cell, mid)
        if lo <= hi:
            inside = mid
        else:
            outside = mid
    return inside


def _p_interval_at(cell: Cell, q: float) -> tuple[float, float]:
    """Feasible p interval of the cell at fixed q (may be empty: lo > hi)."""
    lo, hi = cell.p_lo, cell.p_hi
    if cell.r is not None:
        span = cell.r * cell.r - q * q
        if span < 0.0:
            return 1.0, -1.0
        s = math.sqrt(span)
        lo = max(lo, -s)
        hi = min(hi, s)
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
        roots = _quad_roots(c2, c1, c0 - q)
        if not roots:
            return 1.0, -1.0
        lo = max(lo, min(roots))
        hi = min(hi, max(roots))
    return lo, hi


def _project_cell(
    cell: Cell, p0: float, q0: float, wp: float, wq: float
) -> tuple[float, float, float] | None:
    """Exact weighted projection onto one cell; returns (p, q, objective)."""
    if cell.p_lo > cell.p_hi or cell.q_lo > cell.q_hi:
        return None

    def objective(p: float, q: float) -> float:
        return wp * (p - p0) ** 2 + wq * (q - q0) ** 2

    if wq == 0.0:
        # Lexicographic: best p first, then closest feasible q at that p.
        p = _clip_to_nonempty(_q_interval_at, cell, 0.0, min(max(p0, cell.p_lo), cell.p_hi))
        lo, hi = _q_interval_at(cell, p)
        q = min(max(q0, lo), hi)
        return p, q, objective(p, q)
    if wp == 0.0:
        anchor = min(max(0.0, cell.q_lo), cell.q_hi)
        q = _clip_to_nonempty(_p_interval_at, cell, anchor, min(max(q0, cell.q_lo), cell.q_hi))
        lo, hi = _p_interval_at(cell, q)
        p = min(max(p0, lo), hi)
        return p, q, objective(p, q)

    if cell.violation(p0, q0) <= _POINT_TOL:
        return p0, q0, 0.0

    best: tuple[float, float, float] | None = None
    for p, q in _cell_candidates(cell, p0, q0, wp, wq):
        if cell.violation(p, q) > _SCREEN_TOL:
            continue
        obj = objective(p, q)
        if best is None or obj < best[2]:
            best = (p, q, obj)
    if best is None:
        return None
    p, q = _polish(cell, best[0], best[1])
    return p, q, objective(p, q)


def project(problem: ProjectionProblem) -> tuple[float, float]:
    """Feasible set-point with least weighted distance to the target.

    Both Q-sign cells are solved; the better objective wins, with ties
    broken toward the upper (Q >= 0) cell for determinism.
    """
    region = problem.region
    best: tuple[float, float, float] | None = None
    for cell in (region.upper_cell, region.lower_cell):
        cell = Cell(
            max(problem.p_min, cell.p_lo),
            min(problem.p_max, cell.p_hi),
            cell.q_lo,
            cell.q_hi,
            cell.r,
            cell.paras,
        )
        result = _project_cell(
            cell, problem.p_target, problem.q_target, problem.lambda_p, problem.lambda_q
        )
        if result is not None and (best is None or result[2] < best[2]):
            best = result
    if best is None:
        raise RuntimeError("feasible region unexpectedly empty")
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
    """Sequential per-step solver; holds immutable configuration only."""

    def __init__(
        self,
        cfg: ControllerConfig,
        curves: dict[Anchor, CapabilityCurve],
        bands: Sequence[TtcParams],
    ) -> None:
        self.cfg = cfg
        self.curves = dict(curves)
        self.bands = tuple(bands)
        self._regions: dict[tuple[Anchor, Anchor | None], FeasibleRegion] = {}

    def _region(self, dc_anchor: Anchor, ac_anchor: Anchor | None) -> FeasibleRegion:
        key = (dc_anchor, ac_anchor)
        region = self._regions.get(key)
        if region is None:
            selected = [self.curves[dc_anchor]]
            if ac_anchor is not None:
                selected.append(self.curves[ac_anchor])
            region = build_region(selected, self.cfg.shrink)
            self._regions[key] = region
        return region

    def solve_step(self, sample: GridSample, state: TtcState) -> tuple[ControlRecord, TtcState]:
        """One full control iteration: droop target, assumption loop, state advance."""
        cfg = self.cfg
        eta = cfg.battery.eta
        p0, q0 = droop_targets(sample, cfg.droop)
        dfreq = cfg.droop.f_ref - sample.freq
        dvac = (cfg.droop.v_ref - sample.v_mv) * 1000.0
        params = params_for_soc(state.soc, self.bands)
        pdc_lo, pdc_hi = dc_power_bounds(state, params, cfg.battery)
        pac_lo = ac_from_dc(pdc_lo, eta)
        pac_hi = ac_from_dc(pdc_hi, eta)

        # Memoize per-step so the fallback never re-runs a probed projection:
        # at most one solve per distinct (DC anchor, AC anchor) pair.
        memo: dict[tuple[Anchor, Anchor | None], tuple] = {}

        def probe(dc_anchor: Anchor, ac_anchor: Anchor | None) -> tuple:
            key = (dc_anchor, ac_anchor)
            if key not in memo:
                memo[key] = self._solve_assumption(
                    sample, state, params, p0, q0, pac_lo, pac_hi, dc_anchor, ac_anchor
                )
            return memo[key]

        probes = 0
        accepted = None
        last_vac = predict_vac(sample, p0, q0, cfg.transformer)
        for dc_lo, dc_hi, dc_anchor in DC_SELECTION:
            vdc_consistent = False
            for ac_lo, ac_hi, ac_anchor, clamped in AC_SELECTION:
                candidate = probe(dc_anchor, ac_anchor)
                probes += 1
                last_vac = candidate[4]
                if not in_half_open(candidate[4], ac_lo, ac_hi):
                    continue
                if in_half_open(candidate[3], dc_lo, dc_hi):
                    accepted = candidate + (clamped, False)
                    vdc_consistent = True
                break
            if vdc_consistent:
                break

        if accepted is None:
            # No self-consistent range pair: fall back to the most conservative
            # DC envelope, with the AC envelope chosen by the last prediction.
            for ac_lo, ac_hi, ac_anchor, clamped in AC_SELECTION:
                if in_half_open(last_vac, ac_lo, ac_hi):
                    break
            else:
                ac_anchor, clamped = None, False
            dc_anchor = DC_SELECTION[0][2]
            accepted = probe(dc_anchor, ac_anchor) + (clamped, True)

        p_opt, q_opt, pdc_opt, vdc_opt, vac_opt, dc_anchor, ac_anchor = accepted[:7]
        clamped, fallback = accepted[7], accepted[8]

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
            vdc_pred=vdc_opt,
            vac_pred=vac_opt,
            curve_dc=dc_anchor,
            curve_ac=ac_anchor,
            alpha_star=alpha_star,
            beta_star=beta_star,
            status=tuple(flags),
        )
        new_state = ttc_step(state, pdc_opt, vdc_opt, params, cfg.battery)
        return record, new_state

    def _solve_assumption(
        self,
        sample: GridSample,
        state: TtcState,
        params: TtcParams,
        p0: float,
        q0: float,
        pac_lo: float,
        pac_hi: float,
        dc_anchor: Anchor,
        ac_anchor: Anchor | None,
    ):
        region = self._region(dc_anchor, ac_anchor)
        problem = ProjectionProblem(
            p_target=p0,
            q_target=q0,
            lambda_p=self.cfg.droop.lambda_p,
            lambda_q=self.cfg.droop.lambda_q,
            region=region,
            p_min=pac_lo,
            p_max=pac_hi,
        )
        p_opt, q_opt = project(problem)
        pdc_opt = dc_from_ac(p_opt, self.cfg.battery.eta)
        vdc_opt = solve_vdc(pdc_opt, state, params)
        vac_opt = predict_vac(sample, p_opt, q_opt, self.cfg.transformer)
        return (p_opt, q_opt, pdc_opt, vdc_opt, vac_opt, dc_anchor, ac_anchor)
