"""Independent feasibility oracles for the five converter envelopes, a
reference cell selection and a reference polynomial root finder.

The inequalities are written out literally (vectorized over numpy arrays)
so tests can cross-check the library's membership and projection code
against a path that shares nothing with it.  ``violation`` measures how
far a point lies outside a cell.  ``certify`` measures how far a point is
from satisfying a cell's KKT conditions (Boyd and Vandenberghe, *Convex
Optimization*, 5.5.3), which with both weights positive make it the
unique optimum.  ``running_best_cell`` picks a cell optimum by a
running-best scan over every screened stationary point and crossing, and
``least_in_cell`` bounds the cell optimum by those of them that lie in the
cell, which the scan's point, up to the screen's tolerance outside, does not.
``np_roots_real_roots`` finds roots through ``np.roots``, the reference for the companion-matrix
eigenvalues of ``capability.poly_real_roots``.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from bessctl import optimizer
from bessctl.capability import quad_roots


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
        if violation(cell, p, q) > optimizer._SCREEN_TOL:
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
        if violation(cell, p, q) <= optimizer._SCREEN_TOL:
            p, q = optimizer._polish(cell, p, q)
            if violation(cell, p, q) <= 0.0:
                least = min(least, objective(p, q))
    return least


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
