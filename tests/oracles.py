"""Independent feasibility oracles for the five converter envelopes, a
reference cell selection and a reference polynomial root finder.

The inequalities are written out literally (vectorized over numpy arrays)
so tests can cross-check the library's membership and projection code
against a path that shares nothing with it.  ``violation`` measures how
far a point lies outside a cell.  ``certify`` measures how far a point is
from satisfying a cell's KKT conditions (Boyd and Vandenberghe, *Convex
Optimization*, 5.5.3), which with both weights positive make it the
unique optimum.  ``reference_project_cell`` is ``optimizer._project_cell``
with its crossing stage as it was before the cells' crossing tables:
each call screens every crossing and tests its multipliers (``certified``)
and its exactness, the reference for the bits of the table scan.
``running_best_cell`` picks a cell optimum by a
running-best scan over every screened stationary point and crossing, and
``least_in_cell`` bounds the cell optimum by those of them that lie in the
cell, which the scan's point, up to the screen's tolerance outside, does not.
``np_roots_real_roots`` finds roots through ``np.roots``, the reference for the companion-matrix
eigenvalues of ``capability.poly_real_roots``.  ``csv_write_records`` and
``csv_write_trace`` write the two CSV files through ``csv.writer``, as
``simctl`` once did: the reference for the bytes of its own writers.
``list_params_for_soc``, ``list_dc_power_bounds`` and ``list_ttc_step``
are the battery layer as it was written before its scalar rewrite, with
``TtcParams.covers``, lists of caps under ``min``/``max``, ``vc_sum`` and
``c_max_as``: the reference for the bits of the scalar functions.
``two_path_quad_roots`` is ``capability.quad_roots`` as it was before its
single scaled path: the unscaled formula, a rescaled one when a term of
the discriminant leaves the normal range, and halved terms when their sum
overflows.  The reference for the bits of the one path.
"""

import csv
import itertools
import math
import operator
import sys
from typing import NamedTuple

import numpy as np

from bessctl import capability, optimizer, simctl
from bessctl.battery import (
    SOC_EPS,
    InfeasiblePowerError,
    SocBandError,
    SocLimitError,
    TtcState,
    _into_window,
    open_circuit_voltage,
)
from bessctl.capability import MU_TOL, SCREEN_TOL, quad_roots


def _env_600_300(p, q):
    return (
        (p >= -681.89)
        & (p <= 678.71)
        & np.where(q >= 0, p * p + q * q <= 723.03**2, p * p + q * q <= 719.19**2)
        & (q <= 659.67 - 8.29e-18 * p - 2.16e-4 * p * p)
        & (q <= 657.1)
    )


def _env_550_300(p, q):
    return (
        (p >= -681.89)
        & (p <= 678.71)
        & np.where(q >= 0, p * p + q * q <= 723.03**2, p * p + q * q <= 717.93**2)
        & (q <= 459.43 - 1.5e-3 * p - 2.12e-4 * p * p)
        & (q <= 439.98)
    )


def _env_500_300(p, q):
    return (
        (p >= -680.62)
        & (p <= 682.45)
        & (p * p + q * q <= 721.4**2)
        & (q <= 286.64 + 1.4e-3 * p - 2.33e-4 * p * p)
        & (q <= 225.22)
    )


def _env_500_330(p, q):
    return (p >= -679.21) & (p <= 681.06) & (p * p + q * q <= 794.34**2) & (q <= 38.47)


def _env_500_270(p, q):
    return (p * p + q * q <= 649.5**2) & (q <= 382.95 + 1.6e-3 * p - 2.21e-4 * p * p)


DIRECT_ENVELOPES = {
    (600.0, 300.0): _env_600_300,
    (550.0, 300.0): _env_550_300,
    (500.0, 300.0): _env_500_300,
    (500.0, 330.0): _env_500_330,
    (500.0, 270.0): _env_500_270,
}


def direct_feasible(anchor, p, q, shrink=1.0):
    """Membership by direct evaluation of the printed inequalities."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return DIRECT_ENVELOPES[anchor](p / shrink, q / shrink)


def violation(cell, p, q):
    """Largest signed constraint violation of cell at (p, q) (<= 0 is
    inside): the terms of ``Cell.within``, evaluated the same way, under
    one max, which skips a NaN term after the P terms."""
    worst = max(
        cell.p_lo - p, p - cell.p_hi, cell.q_lo - q, q - cell.q_hi, math.hypot(p, q) - cell.r
    )
    for c0, c1, c2 in cell.paras:
        worst = max(worst, q - (c0 + c1 * p + c2 * p * p))
    return worst


def constraint_terms(cell, p, q):
    """(tag, g, unit outward normal) of each constraint g <= 0 of the cell
    at (p, q), tagged as in ``Cell.corners``; a missing bound has none."""
    terms = [
        ("p_lo", cell.p_lo - p, (-1.0, 0.0)),
        ("p_hi", p - cell.p_hi, (1.0, 0.0)),
        ("q_lo", cell.q_lo - q, (0.0, -1.0)),
        ("q_hi", q - cell.q_hi, (0.0, 1.0)),
    ]
    norm = math.hypot(p, q)
    if math.isfinite(cell.r) and norm > 0.0:
        terms.append(("disk", norm - cell.r, (p / norm, q / norm)))
    for i, (c0, c1, c2) in enumerate(cell.paras):
        slope = c1 + 2.0 * c2 * p
        length = math.hypot(slope, 1.0)
        terms.append((i, q - (c0 + c1 * p + c2 * p * p), (-slope / length, 1.0 / length)))
    return [t for t in terms if math.isfinite(t[1])]


class Certificate(NamedTuple):
    """The KKT multipliers of the active constraints, by tag, and the
    residual |grad f / 2 + sum_j mu_j n_j| / max(wp, wq) in kW/kvar, n_j
    being the unit outward normals; 0 at an exact optimum, and up to about
    the rounding of the point's coordinates at a computed one."""

    multipliers: dict
    residual: float


def certify(cell, p, q, p0, q0, wp, wq, active_tol=1e-6):
    """The certificate of (p, q) as the projection of (p0, q0) onto the cell
    under weights (wp, wq), both positive: of all nonnegative multipliers on
    at most two of the constraints within active_tol of binding at (p, q),
    those that leave the least residual.  In the plane two constraints carry
    any point of a cone of normals (Caratheodory).  Feasibility is
    ``violation``'s to check."""
    gp, gq = wp * (p - p0), wq * (q - q0)
    scale = max(wp, wq)
    active = [(tag, n) for tag, g, n in constraint_terms(cell, p, q) if g >= -active_tol]
    best = Certificate({}, math.hypot(gp, gq) / scale)
    for a, (ap, aq) in active:
        mu = -(gp * ap + gq * aq)
        if mu >= 0.0:
            residual = math.hypot(gp + mu * ap, gq + mu * aq) / scale
            if residual < best.residual:
                best = Certificate({a: mu}, residual)
    for (a, (ap, aq)), (b, (bp, bq)) in itertools.combinations(active, 2):
        det = ap * bq - aq * bp
        if det == 0.0:
            continue
        mu_a = (bp * gq - bq * gp) / det
        mu_b = (aq * gp - ap * gq) / det
        if mu_a >= 0.0 and mu_b >= 0.0:
            residual = math.hypot(gp + mu_a * ap + mu_b * bp, gq + mu_a * aq + mu_b * bq) / scale
            if residual < best.residual:
                best = Certificate({a: mu_a, b: mu_b}, residual)
    return best


_PROJECT_CELL = optimizer._project_cell


def certified(cell, p, q, a, b, gp, gq):
    """True when the crossing (p, q) of constraints a and b has both KKT
    multipliers >= 0 for an objective whose gradient there is (gp, gq) up to
    a positive factor, by Cramer's rule on grad f + mu_a grad g_a + mu_b
    grad g_b = 0.  Each mu_j |grad g_j| may round to -MU_TOL |grad f|;
    normals within MU_TOL of parallel leave the signs to rounding."""
    ap, aq = capability._normal(cell, a, p, q)
    bp, bq = capability._normal(cell, b, p, q)
    na, nb = ap * ap + aq * aq, bp * bp + bq * bq
    det = ap * bq - aq * bp
    if det * det <= MU_TOL * MU_TOL * na * nb:
        return False
    mu_a, mu_b = (bp * gq - bq * gp) / det, (aq * gp - ap * gq) / det
    tol = -MU_TOL * math.hypot(gp, gq)
    return mu_a * math.sqrt(na) >= tol and mu_b * math.sqrt(nb) >= tol


def reference_project_cell(cell, p0, q0, wp, wq):
    """``optimizer._project_cell`` with the crossing stage it had before the
    cells' crossing tables: it walks ``capability._crossings`` and, for each
    crossing that passes the screen, tests ``certified`` and then
    ``capability.meets``.  The lexicographic branches and a target inside
    the cell are left to ``optimizer._project_cell`` as this module
    imported it, so a test may patch the module's name with this function;
    it reads no crossing there."""
    if wp == 0.0 or wq == 0.0 or cell.within(p0, q0, 0.0):
        return _PROJECT_CELL(cell, p0, q0, wp, wq)
    sp, sq = wp, wq
    if wp > 1.0 or wq > 1.0:
        scale = math.ldexp(1.0, -math.frexp(max(wp, wq))[1])
        if min(wp, wq) * scale >= sys.float_info.min:
            sp, sq = wp * scale, wq * scale
    for p, q, k in optimizer._single_projections(cell, p0, q0, sp, sq):
        if capability.meets(cell, p, q, (k,)) if k == "disk" else cell.within(p, q, 0.0):
            break
    else:
        screened = []
        for p, q, a, b in capability._crossings(cell):
            if cell.within(p, q, SCREEN_TOL):
                gp, gq = sp * (p - p0), sq * (q - q0)
                if certified(cell, p, q, a, b, gp, gq) and capability.meets(cell, p, q, (a, b)):
                    break
                screened.append((p, q))
        else:
            if not screened:
                raise RuntimeError(
                    f"no candidate passes the cell's screen for target ({p0!r}, {q0!r})"
                )
            p, q = optimizer._least_objective(screened, p0, q0, sp, sq)
    p, q = optimizer._polish(cell, p, q)
    return p, q, wp * (p - p0) ** 2 + wq * (q - q0) ** 2


def all_candidates(cell, p0, q0, wp, wq):
    """Every point that can be a cell optimum, in a fixed order: the clamp of
    the target onto each P and Q line, every stationary point on the disk and
    on each cap, then every pairwise crossing."""
    cands = []
    p_lines = [cell.p_lo, cell.p_hi]
    q_lines = [b for b in (cell.q_lo, cell.q_hi) if math.isfinite(b)]
    cands += [(a, q0) for a in p_lines]
    cands += [(p0, b) for b in q_lines]
    cands += optimizer._circle_candidates(p0, q0, cell.r, wp, wq)
    for para in cell.paras:
        cands += optimizer._parabola_stationary(p0, q0, para, wp, wq)
    for a in p_lines:
        cands += [(a, b) for b in q_lines]
        if math.isfinite(cell.r) and cell.r * cell.r >= a * a:
            s = math.sqrt(cell.r * cell.r - a * a)
            cands += [(a, s), (a, -s)]
        cands += [(a, c0 + c1 * a + c2 * a * a) for c0, c1, c2 in cell.paras]
    cands += [(p, q) for p, q, _, _ in cell.corners]
    return cands


def running_best_cell(cell, p0, q0, wp, wq):
    """Weighted projection onto a cell with both weights positive: the
    target itself when it is inside, otherwise the screened candidate of
    least objective, the first one on a tie, after the polish."""
    if cell.p_lo > cell.p_hi or cell.q_lo > cell.q_hi:
        return None

    def objective(p, q):
        return wp * (p - p0) ** 2 + wq * (q - q0) ** 2

    if violation(cell, p0, q0) <= 0.0:
        return p0, q0, 0.0
    best = None
    for p, q in all_candidates(cell, p0, q0, wp, wq):
        if violation(cell, p, q) > SCREEN_TOL:
            continue
        obj = objective(p, q)
        if best is None or obj < best[2]:
            best = (p, q, obj)
    if best is None:
        return None
    p, q = optimizer._polish(cell, best[0], best[1])
    return p, q, objective(p, q)


def least_in_cell(cell, p0, q0, wp, wq):
    """The least objective over the candidates of ``all_candidates`` that
    lie in the cell after the polish, inf if none does.  Each is a point of
    the cell, so the cell optimum costs no more; ``running_best_cell``'s
    point can lie up to the screen's tolerance outside and cost less."""

    def objective(p, q):
        return wp * (p - p0) ** 2 + wq * (q - q0) ** 2

    least = math.inf
    for p, q in all_candidates(cell, p0, q0, wp, wq):
        if violation(cell, p, q) <= SCREEN_TOL:
            p, q = optimizer._polish(cell, p, q)
            if violation(cell, p, q) <= 0.0:
                least = min(least, objective(p, q))
    return least


def two_path_quad_roots(a, b, c):
    """Real roots of a*x^2 + b*x + c, as ``capability.quad_roots`` found
    them with a separate scaled path for out-of-range terms."""
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    bb, ac4, e = b * b, 4.0 * (a * c), 0
    if (b and not sys.float_info.min <= bb < math.inf) or (
        c and not sys.float_info.min <= abs(ac4) < math.inf
    ):
        e = math.frexp(max(abs(b), math.sqrt(abs(a)) * math.sqrt(abs(c))))[1]
        ea = math.frexp(a)[1]
        b_scaled = math.ldexp(b, -e)
        bb = b_scaled * b_scaled
        ac4 = 4.0 * math.ldexp(a, -ea) * math.ldexp(c, ea - 2 * e)
    disc = bb - ac4
    if disc < 0.0:
        return []
    s = math.ldexp(math.sqrt(disc), e)
    if b == 0.0:
        q = 0.5 * s
    else:
        q = -0.5 * (b + math.copysign(s, b))
        if math.isinf(q):  # |b| + s overflowed; their halves add in range
            q = -(0.5 * b + math.copysign(0.5 * s, b))
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    else:
        roots.append(-roots[0])
    return roots


def np_roots_real_roots(coeffs):
    """Real roots of a polynomial given by descending coefficients: closed
    forms up to degree 2, above that ``np.roots`` with two Newton steps of
    Horner's rule, as ``capability.poly_real_roots`` once solved them."""
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError(f"polynomial coefficients must be finite, got {list(coeffs)}")
    trimmed = list(coeffs)
    while trimmed and trimmed[0] == 0.0:
        trimmed.pop(0)
    if len(trimmed) <= 1:
        return []
    if len(trimmed) == 3:
        return quad_roots(trimmed[0], trimmed[1], trimmed[2])
    if len(trimmed) == 2:
        return [-trimmed[1] / trimmed[0]]
    degree = len(trimmed) - 1
    deriv = [c * (degree - i) for i, c in enumerate(trimmed[:-1])]
    out = []
    with np.errstate(over="ignore"):  # an overflowing companion raises below
        roots = np.roots(trimmed)
    for root in roots:
        if abs(root.imag) > 1e-8 * (1.0 + abs(root.real)):
            continue
        x = float(root.real)
        for _ in range(2):
            d = deriv[0]
            for c in deriv[1:]:
                d = d * x + c
            if d == 0.0:
                break
            y = trimmed[0]
            for c in trimmed[1:]:
                y = y * x + c
            x -= y / d
        out.append(x)
    return out


def csv_write_records(records, path):
    """records.csv through ``csv.writer`` with its default dialect, cells
    made by ``simctl._RECORD_COLUMNS``; it quotes a cell that needs it."""
    columns = simctl._RECORD_COLUMNS
    cells = operator.attrgetter(*(attr for _, attr, _, _ in columns))
    writers = [to_text for _, _, to_text, _ in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header for header, _, _, _ in columns])
        writer.writerows([f(v) for f, v in zip(writers, cells(r))] for r in records)


def csv_write_trace(samples, path):
    """A trace CSV through ``csv.writer`` with its default dialect."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp_s", "freq_hz", "v_mv_kv"])
        for s in samples:
            writer.writerow([repr(s.timestamp), repr(s.freq), repr(s.v_mv)])


def list_params_for_soc(soc, bands):
    """The parameter set whose band covers soc, by ``TtcParams.covers``."""
    for params in bands:
        if params.covers(soc):
            return params
    raise SocBandError(f"no parameter band covers soc={soc}")


def list_dc_power_bounds(state, params, cfg):
    """``battery.dc_power_bounds`` with each side's caps in a list."""
    drive = open_circuit_voltage(state.soc, params) - state.vc_sum
    if drive <= 0:
        raise InfeasiblePowerError("branch voltages exceed the open-circuit voltage")
    rs = params.rs
    caps = [drive * drive / (4.0 * rs) / 1000.0]
    if cfg.vdc_min > 0.5 * drive:
        caps.append(cfg.vdc_min * (drive - cfg.vdc_min) / (rs * 1000.0))
    i_soc = (state.soc - cfg.soc_min) * cfg.c_max_as / cfg.delta_t
    if i_soc < drive / (2.0 * rs):
        caps.append(i_soc * (drive - i_soc * rs) / 1000.0)
    p_dc_max = _into_window(max(0.0, min(caps)), drive, rs, cfg.eta, cfg.vdc_min, math.inf)

    i_soc = (state.soc - cfg.soc_max) * cfg.c_max_as / cfg.delta_t
    caps = [cfg.vdc_max * (drive - cfg.vdc_max) / (rs * 1000.0), i_soc * (drive - i_soc * rs) / 1000.0]
    p_dc_min = _into_window(min(0.0, max(caps)), drive, rs, cfg.eta, -math.inf, cfg.vdc_max)
    return p_dc_min, p_dc_max


def list_ttc_step(state, p_dc_kw, vdc, params, cfg):
    """``battery.ttc_step`` reading every field through its object."""
    if vdc <= 0:
        raise ValueError(f"vdc must be positive, got {vdc}")
    dt = cfg.delta_t
    i_dc = p_dc_kw * 1000.0 / vdc
    decay = math.exp(-dt / (params.r1 * params.c1))
    vc1 = state.vc1 * decay + params.r1 * i_dc * (1.0 - decay)
    decay = math.exp(-dt / (params.r2 * params.c2))
    vc2 = state.vc2 * decay + params.r2 * i_dc * (1.0 - decay)
    decay = math.exp(-dt / (params.r3 * params.c3))
    vc3 = state.vc3 * decay + params.r3 * i_dc * (1.0 - decay)
    new_soc = state.soc - (p_dc_kw * 1000.0 / (vdc * cfg.c_max_as)) * dt
    if new_soc < cfg.soc_min - SOC_EPS or new_soc > cfg.soc_max + SOC_EPS:
        raise SocLimitError(f"soc {new_soc:.6f} outside [{cfg.soc_min}, {cfg.soc_max}]")
    new_soc = min(max(new_soc, cfg.soc_min), cfg.soc_max)
    return TtcState(vc1, vc2, vc3, new_soc)
