"""Independent feasibility oracles for the five converter envelopes, a
reference cell selection and a reference polynomial root finder.

The inequalities are written out literally (vectorized over numpy arrays)
so tests can cross-check the library's membership and projection code
against a path that shares nothing with it.  ``running_best_cell`` picks
a cell optimum by a running-best scan of the screened candidates, the
reference for the projection's ranked selection.  ``np_roots_real_roots``
finds roots through ``np.roots``, the reference for the companion-matrix
eigenvalues of ``capability.poly_real_roots``.
"""

import math

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


def running_best_cell(cell, p0, q0, wp, wq):
    """Weighted projection onto a cell with both weights positive: the
    target itself when it is inside, otherwise the screened candidate of
    least objective, the first one on a tie, after the polish."""
    if cell.p_lo > cell.p_hi or cell.q_lo > cell.q_hi:
        return None

    def objective(p, q):
        return wp * (p - p0) ** 2 + wq * (q - q0) ** 2

    if cell.violation(p0, q0) <= 0.0:
        return p0, q0, 0.0
    best = None
    for p, q in optimizer._cell_candidates(cell, p0, q0, wp, wq, {}):
        if cell.violation(p, q) > optimizer._SCREEN_TOL:
            continue
        obj = objective(p, q)
        if best is None or obj < best[2]:
            best = (p, q, obj)
    if best is None:
        return None
    p, q = optimizer._polish(cell, best[0], best[1])
    return p, q, objective(p, q)


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
