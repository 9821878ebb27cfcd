"""Converter PQ capability envelopes.

The feasible (P, Q) set of the grid converter depends on the DC-bus voltage
and on the AC terminal voltage.  It is described by five fitted envelopes,
each a small set of constraint atoms (active-power limits, current-limit
disks with different radii per Q sign, a concave parabolic reactive cap and
a flat Q ceiling) anchored at one (vDC, vAC) operating pair.

A feasible region is the intersection of one or two envelopes, scaled by a
shrink factor when fewer battery strings are in service.  Because the disk
radii differ between Q >= 0 and Q < 0, the full region is not convex; it is
the union of two convex cells split at Q = 0.  ``build_region`` normalizes
each cell once into a shrink-scaled ``Cell`` (a P/Q box, at most one disk
and the parabola caps that can bind on a finite P box), on which all
downstream optimization works.  The cell also carries the crossings of
those boundaries that do not involve its P lines, which are the same for
every projection onto it, and the table of its screened crossings with
their constraint normals (``Cell.crossings``), which no target changes.
``FeasibleRegion.contains`` deliberately stays on the unscaled atoms, so it
remains an independent membership check of what the optimizer returns.

Curves and regions are immutable after construction and therefore safe for
unrestricted concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar
from numpy._core.umath import _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

from bessctl.linefmt import LineFormatError, parse_number, read_blocks

Anchor = tuple[float, float]

#: A crossing of two cell constraints, (p, q, a, b): a and b tag them as
#: "p_lo", "p_hi", "q_lo", "q_hi", "disk" or a cap's index in the cell's paras.
Corner = tuple[float, float, Union[str, int], Union[str, int]]

#: DC-range selection table: (lo, hi] maps to the envelope at the range's
#: lower anchor, the conservative choice because the reactive ceiling grows
#: with vDC.
DC_SELECTION: tuple[tuple[float, float, Anchor], ...] = (
    (500.0, 550.0, (500.0, 300.0)),
    (550.0, 600.0, (550.0, 300.0)),
    (600.0, 800.0, (600.0, 300.0)),
)

#: AC-range selection table: (lo, hi], extra envelope intersected with the
#: DC-selected one, and whether the choice is a conservative low-voltage
#: clamp outside the nominal selection sets.
AC_SELECTION: tuple[tuple[float, float, Anchor | None, bool], ...] = (
    (270.0, 330.0, None, False),
    (330.0, math.inf, (500.0, 330.0), False),
    (0.0, 270.0, (500.0, 270.0), True),
)

#: Anchors of the five supported envelopes, (vDC, vAC) in volts: those the
#: selection tables name.
KNOWN_ANCHORS: frozenset[Anchor] = frozenset(
    [dc for _, _, dc in DC_SELECTION] + [ac for _, _, ac, _ in AC_SELECTION if ac is not None]
)

SECTOR_ALL = "all"
SECTOR_UPPER = "upperQ"
SECTOR_LOWER = "lowerQ"
_SECTORS = (SECTOR_ALL, SECTOR_UPPER, SECTOR_LOWER)

#: Slack, in kW/kvar, granted to membership tests so that points
#: constructed on a boundary are not rejected for float round-off.
MEMBERSHIP_TOL = 1e-9


class CurveFormatError(LineFormatError):
    """Malformed curve-definition document."""


class CurveValidationError(ValueError):
    """A parsed curve violates a structural invariant."""


@dataclass(frozen=True)
class PMin:
    """Active-power floor: p >= p [kW]."""

    p: float


@dataclass(frozen=True)
class PMax:
    """Active-power ceiling: p <= p [kW]."""

    p: float


@dataclass(frozen=True)
class Disk:
    """Apparent-power limit p^2 + q^2 <= r^2 [kVA], optionally on one Q sign."""

    r: float
    sector: str = SECTOR_ALL


@dataclass(frozen=True)
class ParabolaCap:
    """Reactive ceiling q <= c0 + c1*p + c2*p^2, concave (c2 <= 0)."""

    c0: float
    c1: float
    c2: float


@dataclass(frozen=True)
class QMax:
    """Flat reactive ceiling: q <= q [kvar]."""

    q: float


ConstraintAtom = Union[PMin, PMax, Disk, ParabolaCap, QMax]


def atom_violation(atom: ConstraintAtom, p: float, q: float) -> float:
    """Signed violation of one atom at (p, q), in kW/kvar units (<= 0 is ok)."""
    if isinstance(atom, PMin):
        return atom.p - p
    if isinstance(atom, PMax):
        return p - atom.p
    if isinstance(atom, Disk):
        return math.hypot(p, q) - atom.r
    if isinstance(atom, ParabolaCap):
        return q - (atom.c0 + atom.c1 * p + atom.c2 * p * p)
    if isinstance(atom, QMax):
        return q - atom.q
    raise TypeError(f"unknown atom {atom!r}")


@dataclass(frozen=True)
class CapabilityCurve:
    """One fitted PQ envelope anchored at a (vDC, vAC) pair."""

    id: str
    vdc_anchor: float
    vac_anchor: float
    atoms: tuple[ConstraintAtom, ...]

    def __post_init__(self) -> None:
        anchor = (float(self.vdc_anchor), float(self.vac_anchor))
        if anchor not in KNOWN_ANCHORS:
            raise CurveValidationError(
                f"curve {self.id!r}: anchor {anchor} is not one of the supported pairs"
            )
        for atom in self.atoms:
            if not all(math.isfinite(v) for k, v in vars(atom).items() if k != "sector"):
                raise CurveValidationError(f"curve {self.id!r}: {atom!r} is not finite")
            if isinstance(atom, Disk):
                if atom.r <= 0:
                    raise CurveValidationError(f"curve {self.id!r}: disk radius must be > 0")
                if atom.sector not in _SECTORS:
                    raise CurveValidationError(
                        f"curve {self.id!r}: unknown disk sector {atom.sector!r}"
                    )
            if isinstance(atom, ParabolaCap) and atom.c2 > 0:
                raise CurveValidationError(f"curve {self.id!r}: parabola cap must be concave")
            if atom_violation(atom, 0.0, 0.0) > 0:
                raise CurveValidationError(
                    f"curve {self.id!r}: origin violates {atom!r}; idle must be feasible"
                )
        pmins = [a.p for a in self.atoms if isinstance(a, PMin)]
        pmaxs = [a.p for a in self.atoms if isinstance(a, PMax)]
        if pmins and pmaxs and max(pmins) >= min(pmaxs):
            raise CurveValidationError(f"curve {self.id!r}: PMin >= PMax")

    @property
    def anchor(self) -> Anchor:
        return (float(self.vdc_anchor), float(self.vac_anchor))


def select_ac(vac: float) -> tuple[Anchor | None, bool]:
    """AC envelope and clamp flag of the AC_SELECTION range holding vac.

    The ranges cover (0, inf); any other vac raises ValueError.
    """
    for lo, hi, ac_anchor, clamped in AC_SELECTION:
        if lo < vac <= hi:
            return ac_anchor, clamped
    raise ValueError(f"vac {vac} V matches no selection range")


def quad_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c, numerically stable, degenerate-safe.

    One path: the coefficients are scaled by powers of two so that the
    larger of |b| and sqrt|a*c| lies in [0.5, 1), a by its own exponent and
    c by the rest, so neither term of the discriminant underflows or
    overflows.  q = -(b + sign(b)*sqrt(disc))/2 is formed at that scale and
    scaled back; the roots are q/a and c/q.  Scaling a normal float by a
    power of two rounds nothing, so where b*b, a*c, the discriminant and
    its root are normal or zero, the roots have the unscaled formula's
    bits.  Only a q beyond the float range raises OverflowError.  a == 0
    leaves the linear root -c/b, or none.
    """
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    e = math.frexp(max(abs(b), math.sqrt(abs(a)) * math.sqrt(abs(c))))[1]
    ea = math.frexp(a)[1]
    b_scaled = math.ldexp(b, -e)
    disc = b_scaled * b_scaled - 4.0 * math.ldexp(a, -ea) * math.ldexp(c, ea - 2 * e)
    if disc < 0.0:
        return []
    if b == 0.0:
        q = 0.5 * math.sqrt(disc)
    else:
        q = -0.5 * (b_scaled + math.copysign(math.sqrt(disc), b_scaled))
    q = math.ldexp(q, e)
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    else:
        roots.append(-roots[0])
    return roots


class CompanionOverflowError(ValueError):
    """A polynomial's leading coefficient is so small beside the others that
    an entry of its companion matrix overflows."""


def _raise_nonconvergence(err: str, flag: int) -> None:
    raise LinAlgError("Eigenvalues did not converge")


#: numpy's error state while ``_eigvals`` runs, built once: invalid calls
#: ``_raise_nonconvergence``, and over, divide and under are ignored.
_EIGVALS_EXTOBJ = _make_extobj(
    call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
)


def _eigvals(companion: np.ndarray) -> np.ndarray:
    """Complex eigenvalues of a finite, square float64 matrix.

    The LAPACK ``dgeev`` gufunc behind ``np.linalg.eigvals``, called under
    the same error state, so non-convergence raises the same LinAlgError;
    the caller makes the wrapper's input checks.  The error state is
    ``_EIGVALS_EXTOBJ``, which ``np.errstate`` would rebuild on every call;
    it takes the buffer size in force at import, which changes no result.
    numpy >= 2 keeps the state in a context variable, so concurrent calls
    do not share it, and the reset restores the caller's state on return
    and on raise.
    """
    token = _extobj_contextvar.set(_EIGVALS_EXTOBJ)
    try:
        return _umath_linalg.eigvals(companion, signature="d->D")
    finally:
        _extobj_contextvar.reset(token)


def cubic_real_roots(a0: float, a1: float, a2: float, a3: float) -> list[float]:
    """Real roots of a0*x^3 + a1*x^2 + a2*x + a3: ``poly_real_roots([a0, a1,
    a2, a3])``, the same list or the same error, bar an overflowing row.

    The projection's scalar copy of that path.  With a0 finite and nonzero,
    a3 nonzero and the companion row (-a1/a0, -a2/a0, -a3/a0) finite, the
    companion matrix is filled by scalar stores and the two Newton steps of
    the polish are unrolled Horner in ``poly_real_roots``' operation order.
    Any other input falls back to ``poly_real_roots``, which never calls
    this function.  Where that raises CompanionOverflowError, as under a
    negligible weight or curvature, the roots are those y of the cubic in
    x = 2**k * y, k the least integer with e_i - e_0 <= i*k for every
    nonzero a_i (e_i its exponent), so that the scaled row is below 2 in
    magnitude, scaled back and polished by two Newton steps on this cubic,
    which recover what scaled coefficients below the float range lost;
    powers of two round nothing else.  A step whose Horner terms overflow
    is not taken.  Where the scaled cubic's s2 and s3 are below 1e-8 and
    1e-16 of s1, two roots lie below 1e-8 of the largest and are lost in its
    rounding, as in 1e-310 x^3 - 0.01 x^2 - 10 x + 1e-12: the largest
    comes from Newton's method in y, and the other two from the quadratic
    left by dividing it out.  Only a root beyond the float range raises
    OverflowError; no root is nan.
    """
    if a0 != 0.0 and a3 != 0.0 and math.isfinite(a0):
        r0 = -a1 / a0
        r1 = -a2 / a0
        r2 = -a3 / a0
        if math.isfinite(r0) and math.isfinite(r1) and math.isfinite(r2):
            companion = np.zeros((3, 3))
            companion[0, 0] = r0
            companion[0, 1] = r1
            companion[0, 2] = r2
            companion[1, 0] = 1.0
            companion[2, 1] = 1.0
            d0 = a0 * 3
            d1 = a1 * 2
            out: list[float] = []
            for root in _eigvals(companion).tolist():
                x = root.real
                if abs(root.imag) > 1e-8 * (1.0 + abs(x)):
                    continue
                d = (d0 * x + d1) * x + a2
                if d != 0.0:
                    x -= (((a0 * x + a1) * x + a2) * x + a3) / d
                    d = (d0 * x + d1) * x + a2
                    if d != 0.0:
                        x -= (((a0 * x + a1) * x + a2) * x + a3) / d
                out.append(x)
            return out
    try:
        return poly_real_roots([a0, a1, a2, a3])
    except CompanionOverflowError:
        pass
    e0 = math.frexp(a0)[1]
    k = max(-((e0 - math.frexp(c)[1]) // i) for i, c in ((1, a1), (2, a2), (3, a3)) if c != 0.0)
    scaled = [math.ldexp(c, -i * k - e0) for i, c in enumerate((a0, a1, a2, a3))]

    def polish(x: float) -> float:
        # Two Newton steps on the cubic, but none that overflows, as Horner's
        # terms can for a root near the end of the float range.
        for _ in range(2):
            if d := (3.0 * a0 * x + 2.0 * a1) * x + a2:
                step = x - (((a0 * x + a1) * x + a2) * x + a3) / d
                if not math.isfinite(step):
                    break
                x = step
        return x

    s0, s1, s2, s3 = scaled
    if abs(s2) < 1e-8 * abs(s1) and abs(s3) < 1e-16 * abs(s1):
        # Two roots below 1e-8 of the largest are lost in its rounding.  That
        # one is near -s1/s0 in y, where Newton's method on the scaled cubic
        # cannot overflow.  Backward deflation by it leaves the other two as
        # the roots of big times the quotient, whose coefficients stay in range.
        y = -s1 / s0
        for _ in range(2):
            y -= (((s0 * y + s1) * y + s2) * y + s3) / ((3.0 * s0 * y + 2.0 * s1) * y + s2)
        big = polish(math.ldexp(y, k))
        c2 = -a3 / big
        c1 = (c2 - a2) / big
        return [big] + [polish(x) for x in quad_roots(c1 - a1, c2 - a2, -a3)]
    return [polish(math.ldexp(y, k)) for y in cubic_real_roots(*scaled)]


def poly_real_roots(coeffs: Sequence[float]) -> list[float]:
    """Real roots of a polynomial given by descending coefficients.

    Degrees 1 and 2 go to ``quad_roots``, padded with leading zeros.
    Above that, each trailing zero coefficient is a root at 0, listed last,
    and the other roots are the eigenvalues of the companion matrix of the
    remaining coefficients (first row -c/lead, ones on the subdiagonal),
    the matrix ``np.roots`` would build.  They come from ``_eigvals``, the
    LAPACK gufunc that ``np.linalg.eigvals`` calls, without that wrapper's
    checks: this function has already made the matrix 2-D, square, float64
    and finite, and keeps complex roots as ``.imag``.  ``_eigvals`` sets
    the wrapper's error state from an object built at import.  Cubics
    take this path too: ``cubic_real_roots`` is its scalar copy and falls
    back to it, never the other way round, and alone rescales a cubic whose
    companion row overflows: a disk-cap quartic's overflow is reported.
    ``tests/test_capability.py::TestPolyRealRoots`` keeps the roots
    bit-equal to the public ``np.roots`` path on the numpy installed.  Real
    roots are polished with two Newton steps, evaluated by Horner's rule in
    the same operation order as ``np.polyval``/``np.polyder``.  Non-finite
    coefficients raise ValueError, a companion entry that overflows raises
    CompanionOverflowError, naming the leading coefficient, and LAPACK
    non-convergence raises LinAlgError.
    """
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError(f"polynomial coefficients must be finite, got {list(coeffs)}")
    trimmed = list(coeffs)
    while trimmed and trimmed[0] == 0.0:
        trimmed.pop(0)
    if len(trimmed) <= 3:
        return quad_roots(*[0.0] * (3 - len(trimmed)), *trimmed)
    degree = len(trimmed) - 1
    n = degree
    while trimmed[n] == 0.0:
        n -= 1
    lead = trimmed[0]
    row = [-c / lead for c in trimmed[1 : n + 1]]
    if not all(math.isfinite(c) for c in row):
        raise CompanionOverflowError(
            f"leading coefficient {lead!r} is too small beside {trimmed[1:]}: "
            "the companion matrix overflows"
        )
    roots = [0.0] * (degree - n)
    if n:
        companion = np.zeros((n, n))
        companion[0] = row
        companion.flat[n :: n + 1] = 1.0  # the subdiagonal
        roots = _eigvals(companion).tolist() + roots
    deriv = [c * (degree - i) for i, c in enumerate(trimmed[:-1])]
    out: list[float] = []
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


class _CellFields(NamedTuple):
    p_lo: float
    p_hi: float
    q_lo: float
    q_hi: float
    r: float
    paras: tuple[tuple[float, float, float], ...]
    corners: tuple[Corner, ...]
    caps_nonneg: bool
    crossings: tuple[Crossing, ...] | None = None


class Cell(_CellFields):
    """Convex Q >= 0 or Q <= 0 half of a scaled region, in normal form.

    Feasible points satisfy p_lo <= p <= p_hi, q_lo <= q <= q_hi,
    p^2 + q^2 <= r^2 and q <= c0 + c1*p + c2*p^2 for every (c0, c1, c2) in
    paras.  A missing bound is infinite: r is inf when no disk bounds the
    cell, as a missing P line or Q ceiling is -inf or inf.  When the P box
    is finite, paras holds only the caps that can bind on it (see
    ``_binding_caps``); the others lie above the Q ceiling or another cap
    there, and so on any narrower box.

    corners lists, in a fixed order, the pairwise crossings of the Q lines,
    the disk and the caps in paras (see ``_cell_corners``), each tagged
    with its two constraints so that the optimizer can read their normals;
    they depend on neither the P box nor the target, so narrowing the P box
    keeps them.
    caps_nonneg is True when the atoms hold no parabola cap, whatever the
    P box, or when the P box is finite and every parabola cap of the atoms,
    in paras or not, is at least _CAP_MARGIN at both of its ends, so that,
    being concave, it stays >= 0 over the whole box; the optimizer may skip
    an upper cell only then.
    crossings is the tuple of the cell's ``screened_crossings``, which
    ``build_region`` fills in, or None on a cell built without it, as a
    narrowed copy, whose P-line crossings differ, or a ``_replace`` copy
    that is not passed crossings, as the old table may not match it.
    """

    __slots__ = ()

    def _replace(self, /, **fields: object) -> "Cell":
        fields.setdefault("crossings", None)
        return super()._replace(**fields)

    def within(self, p: float, q: float, tol: float) -> bool:
        """Every constraint term at (p, q) is at most tol, for finite p; False
        at the first term above tol.  The terms are p_lo - p, p - p_hi,
        q_lo - q, q - q_hi, hypot(p, q) - r and q - (c0 + c1*p + c2*p^2) per
        cap in paras; their max is the cell's signed violation (<= 0 is
        inside).  A NaN term fails no test."""
        if self.p_lo - p > tol or p - self.p_hi > tol or self.q_lo - q > tol or q - self.q_hi > tol:
            return False
        if math.hypot(p, q) - self.r > tol:
            return False
        for c0, c1, c2 in self.paras:
            if q - (c0 + c1 * p + c2 * p * p) > tol:
                return False
        return True


#: Feasibility slack used when screening projection candidates [kW/kvar].
SCREEN_TOL = 1e-7

#: Relative rounding allowed on a KKT multiplier that is 0 at the optimum.
MU_TOL = 1e-12

#: Outward normals of the P and Q lines, by tag.
_LINE_NORMALS = {"p_lo": (-1.0, 0.0), "p_hi": (1.0, 0.0), "q_lo": (0.0, -1.0), "q_hi": (0.0, 1.0)}

#: The target-independent half of a crossing's KKT test: the outward normals
#: (ap, aq) and (bp, bq) of its two constraints, their determinant and
#: their lengths.
Kkt = tuple[float, float, float, float, float, float, float]

#: A crossing that passes the screen, (p, q, kkt); kkt is None when the
#: crossing cannot certify: its normals are parallel, or it misses a third
#: constraint (see ``meets``).
Crossing = tuple[float, float, Optional[Kkt]]


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


def meets(cell: Cell, p: float, q: float, pair: tuple[str | int, ...]) -> bool:
    """True when (p, q), the projection onto the constraints of pair alone,
    passes the screen and meets every other constraint exactly."""
    if not cell.within(p, q, SCREEN_TOL):
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


def screened_crossings(cell: Cell) -> Iterator[Crossing]:
    """Each crossing of ``_crossings`` that passes the screen, in that
    order, as (p, q, kkt).

    kkt is None where the crossing cannot be the certified optimum of any
    target: its normals are within MU_TOL of parallel, so no multipliers
    exist, or it misses a constraint other than its two (see ``meets``).
    Otherwise it is (ap, aq, bp, bq, det, |a|, |b|), the normals of the
    pair, ap*bq - aq*bp and the square roots of ap*ap + aq*aq and
    bp*bp + bq*bq.  None of this depends on the target, so a region's cell
    keeps their tuple (``Cell.crossings``); this function does not read it.
    """
    for p, q, a, b in _crossings(cell):
        if not cell.within(p, q, SCREEN_TOL):
            continue
        ap, aq = _normal(cell, a, p, q)
        bp, bq = _normal(cell, b, p, q)
        na, nb = ap * ap + aq * aq, bp * bp + bq * bq
        det = ap * bq - aq * bp
        if det * det <= MU_TOL * MU_TOL * na * nb or not meets(cell, p, q, (a, b)):
            yield p, q, None
        else:
            yield p, q, (ap, aq, bp, bq, det, math.sqrt(na), math.sqrt(nb))


#: Least value, in kvar, a parabola cap must keep at the ends of the P box
#: for caps_nonneg; far above the rounding of evaluating it in between.
_CAP_MARGIN = 1e-6


def _cell_corners(
    q_lo: float, q_hi: float, r: float, paras: Sequence[tuple[float, float, float]]
) -> tuple[Corner, ...]:
    """Crossings of a cell's finite Q lines with its disk and parabola caps,
    then of the disk with each cap (a quartic in p), then of pairs of caps,
    each as (p, q, a, b) with a and b the tags of the two constraints.

    Only crossings with finite p and q are kept.  Two nearly equal caps can
    cross so far out that q overflows, as at (-1e219, -inf); such a point
    is no candidate, and as a target it would feed non-finite terms to the
    projection's cubic."""
    corners: list[Corner] = []
    for b, line in ((q_lo, "q_lo"), (q_hi, "q_hi")):
        if not math.isfinite(b):
            continue
        if math.isfinite(r) and r * r >= b * b:
            s = math.sqrt(r * r - b * b)
            corners.extend([(s, b, line, "disk"), (-s, b, line, "disk")])
        for i, (c0, c1, c2) in enumerate(paras):
            for p in quad_roots(c2, c1, c0 - b):
                corners.append((p, b, line, i))
    if math.isfinite(r):
        for i, (c0, c1, c2) in enumerate(paras):
            coeffs = [
                c2 * c2,
                2.0 * c2 * c1,
                c1 * c1 + 2.0 * c2 * c0 + 1.0,
                2.0 * c1 * c0,
                c0 * c0 - r * r,
            ]
            for p in poly_real_roots(coeffs):
                corners.append((p, c0 + c1 * p + c2 * p * p, "disk", i))
    for i in range(len(paras)):
        for j in range(i + 1, len(paras)):
            a0, a1, a2 = paras[i]
            b0, b1, b2 = paras[j]
            for p in quad_roots(a2 - b2, a1 - b1, a0 - b0):
                corners.append((p, a0 + a1 * p + a2 * p * p, i, j))
    return tuple(c for c in corners if math.isfinite(c[0]) and math.isfinite(c[1]))


def _clears(d0: float, d1: float, d2: float, lo: float, hi: float) -> bool:
    """d0 + d1 p + d2 p^2 >= _CAP_MARGIN on [lo, hi]: a concave or linear
    difference is least at an end, a convex one possibly at its vertex."""
    points = [lo, hi]
    if d2 > 0.0 and lo < -d1 / (2.0 * d2) < hi:
        points.append(-d1 / (2.0 * d2))
    return all(d0 + d1 * p + d2 * p * p >= _CAP_MARGIN for p in points)


def _binding_caps(
    paras: list[tuple[float, float, float]], p_lo: float, p_hi: float, q_hi: float
) -> list[tuple[float, float, float]]:
    """The caps that can bind on the finite P box [p_lo, p_hi], in order.

    Over the box widened by _CAP_MARGIN on each side, a cap is dropped when
    it lies at least _CAP_MARGIN above the Q ceiling or above another cap;
    following such caps down ends at the ceiling or a kept cap, so each
    dropped cap lies above one of those.  The widening covers the
    optimizer's screen, which admits candidates up to its smaller tolerance
    outside the box; so a dropped cap decides no screen, polish or interval
    there, and narrowing the box keeps it so.
    """
    lo, hi = p_lo - _CAP_MARGIN, p_hi + _CAP_MARGIN
    # The ceiling is a flat cap, and a cap never lies _CAP_MARGIN above itself.
    levels = [(q_hi, 0.0, 0.0), *paras]
    return [
        a
        for a in paras
        if not any(_clears(a[0] - b[0], a[1] - b[1], a[2] - b[2], lo, hi) for b in levels)
    ]


def _scaled_cell(atoms: Sequence[ConstraintAtom], shrink: float, upper: bool) -> Cell:
    """Normal form of the cell bounded by atoms, scaled by shrink: (p, q) is
    inside iff (p/shrink, q/shrink) satisfies every atom.  A shrink so small
    that a scaled cap or the disk-cap quartic overflows raises ValueError
    naming the shrink.  A cap so flat beside the disk that the quartic's
    companion matrix overflows raises ValueError naming the caps and disks;
    a smaller shrink only shrinks those companion entries."""
    p_lo, p_hi = -math.inf, math.inf
    q_lo, q_hi = (0.0, math.inf) if upper else (-math.inf, 0.0)
    r = math.inf
    paras: list[tuple[float, float, float]] = []
    for atom in atoms:
        if isinstance(atom, PMin):
            p_lo = max(p_lo, atom.p * shrink)
        elif isinstance(atom, PMax):
            p_hi = min(p_hi, atom.p * shrink)
        elif isinstance(atom, QMax):
            q_hi = min(q_hi, atom.q * shrink)
        elif isinstance(atom, Disk):
            r = min(r, atom.r * shrink)
        elif isinstance(atom, ParabolaCap):
            paras.append((atom.c0 * shrink, atom.c1, atom.c2 / shrink))
        else:
            raise TypeError(f"unknown atom {atom!r}")
    box_finite = math.isfinite(p_lo) and math.isfinite(p_hi)
    caps_nonneg = all(box_finite and _clears(*para, p_lo, p_hi) for para in paras)
    if not all(math.isfinite(c2) for _, _, c2 in paras):
        raise ValueError(f"shrink {shrink} scales the curves out of range: a cap overflows")
    if box_finite:
        paras = _binding_caps(paras, p_lo, p_hi, q_hi)
    try:
        corners = _cell_corners(q_lo, q_hi, r, paras)
    except CompanionOverflowError as exc:
        curved = [a for a in atoms if isinstance(a, (ParabolaCap, Disk))]
        raise ValueError(f"the disk-cap quartic of {curved} is out of range: {exc}") from exc
    except ValueError as exc:  # the disk-cap quartic overflowed
        raise ValueError(f"shrink {shrink} scales the curves out of range: {exc}") from exc
    cell = Cell(p_lo, p_hi, q_lo, q_hi, r, tuple(paras), corners, caps_nonneg)
    return cell._replace(crossings=tuple(screened_crossings(cell)))


@dataclass(frozen=True)
class FeasibleRegion:
    """Intersection of selected envelopes, split at Q = 0 into convex cells.

    upper_atoms and lower_atoms are the unscaled envelope atoms of each
    cell; upper_cell and lower_cell are the same cells scaled by shrink, in
    the normal form the optimizer works on.  Membership of the scaled
    region at (p, q) equals membership of the unscaled atoms at
    (p/shrink, q/shrink).

    A region always contains the origin (idle is always allowed); it is
    checked once here, so projections onto the region need not repeat it.
    """

    upper_atoms: tuple[ConstraintAtom, ...]
    lower_atoms: tuple[ConstraintAtom, ...]
    shrink: float
    upper_cell: Cell
    lower_cell: Cell

    def __post_init__(self) -> None:
        if not self.contains(0.0, 0.0):
            raise ValueError("region must contain the origin")

    def contains(self, p: float, q: float) -> bool:
        ps = p / self.shrink
        qs = q / self.shrink
        if qs >= 0 and all(atom_violation(a, ps, qs) <= MEMBERSHIP_TOL for a in self.upper_atoms):
            return True
        if qs <= 0 and all(atom_violation(a, ps, qs) <= MEMBERSHIP_TOL for a in self.lower_atoms):
            return True
        return False


def _cell_atoms(curves: Iterable[CapabilityCurve], upper: bool) -> tuple[ConstraintAtom, ...]:
    """The curves' atoms that bound their Q >= 0 (upper) or Q <= 0 cell: all
    but the disks of the other sector."""
    other = SECTOR_LOWER if upper else SECTOR_UPPER
    atoms = (a for curve in curves for a in curve.atoms)
    return tuple(a for a in atoms if not (isinstance(a, Disk) and a.sector == other))


def build_region(curves: Sequence[CapabilityCurve], shrink: float) -> FeasibleRegion:
    """Intersect one or two envelopes into a shrink-scaled feasible region."""
    if not 1 <= len(curves) <= 2:
        raise ValueError(f"expected 1 or 2 curves, got {len(curves)}")
    if not 0 < shrink <= 1:
        raise ValueError(f"shrink must lie in (0, 1], got {shrink}")
    upper, lower = _cell_atoms(curves, True), _cell_atoms(curves, False)
    return FeasibleRegion(
        upper, lower, shrink, _scaled_cell(upper, shrink, True), _scaled_cell(lower, shrink, False)
    )


#: Curve-file atom keyword -> (atom constructor, number of coefficients).
#: A disk line may name its sector after the radius.
_ATOM_KINDS = {
    "pmin": (PMin, 1),
    "pmax": (PMax, 1),
    "disk": (Disk, 1),
    "parabola": (ParabolaCap, 3),
    "qmax": (QMax, 1),
}


def parse_curves(lines: Iterable[str], origin: str = "<input>") -> list[CapabilityCurve]:
    """Parse a curve-definition document; the grammar is in the header of ``data/curves.txt``."""
    curves: list[CapabilityCurve] = []
    for lineno, (name, *anchor), body in read_blocks(
        lines, origin, "curve <id> <vdc> <vac>", CurveFormatError
    ):
        vdc, vac = (parse_number(t, origin, lineno, CurveFormatError) for t in anchor)
        atoms: list[ConstraintAtom] = []
        for n, (kind, *args) in body:
            if kind not in _ATOM_KINDS:
                raise CurveFormatError(origin, n, f"unknown atom kind {kind!r}")
            make, arity = _ATOM_KINDS[kind]
            sector = args[arity:] if kind == "disk" else []
            if len(args) - len(sector) != arity or len(sector) > 1:
                raise CurveFormatError(origin, n, f"{kind} takes {arity} coefficient(s)")
            if sector and sector[0] not in _SECTORS:
                raise CurveFormatError(origin, n, f"unknown disk sector {sector[0]!r}")
            values = (parse_number(t, origin, n, CurveFormatError) for t in args[:arity])
            atoms.append(make(*values, *sector))
        try:
            curves.append(CapabilityCurve(name, vdc, vac, tuple(atoms)))
        except CurveValidationError as exc:
            raise CurveFormatError(origin, lineno, str(exc)) from exc
    return curves


def load_curves(path: str | Path) -> list[CapabilityCurve]:
    """Load capability curves from a curve-definition file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_curves(fh, str(path))


def index_curves(curves: Iterable[CapabilityCurve]) -> dict[Anchor, CapabilityCurve]:
    """Index curves by anchor, rejecting duplicates."""
    indexed: dict[Anchor, CapabilityCurve] = {}
    for curve in curves:
        if curve.anchor in indexed:
            raise CurveValidationError(f"duplicate curve anchor {curve.anchor}")
        indexed[curve.anchor] = curve
    return indexed


def builtin_curve_text() -> str:
    """Text of the curve-definition file shipped with the package."""
    return resources.files(__package__).joinpath("data/curves.txt").read_text("utf-8")


def builtin_curves() -> list[CapabilityCurve]:
    """The five envelopes shipped with the package."""
    return parse_curves(builtin_curve_text().splitlines(), "builtin:curves.txt")
