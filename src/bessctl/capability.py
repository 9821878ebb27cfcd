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
and the parabola caps), on which all downstream optimization works.
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
from typing import Iterable, Sequence, Union

from bessctl.linefmt import LineFormatError, parse_number, tokenize

Anchor = tuple[float, float]

#: Anchors of the five supported envelopes, (vDC, vAC) in volts.
KNOWN_ANCHORS: frozenset[Anchor] = frozenset(
    {(600.0, 300.0), (550.0, 300.0), (500.0, 300.0), (500.0, 330.0), (500.0, 270.0)}
)

SECTOR_ALL = "all"
SECTOR_UPPER = "upperQ"
SECTOR_LOWER = "lowerQ"

#: Default slack, in kW/kvar, granted to membership tests so that points
#: constructed on a boundary are not rejected for float round-off.
MEMBERSHIP_TOL = 1e-9


class CurveFormatError(LineFormatError):
    """Malformed curve-definition document."""


class CurveValidationError(ValueError):
    """A parsed curve violates a structural invariant."""


class DcVoltageRangeError(ValueError):
    """DC-bus voltage outside the (500, 800] V selection window."""


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
        pmins = [a.p for a in self.atoms if isinstance(a, PMin)]
        pmaxs = [a.p for a in self.atoms if isinstance(a, PMax)]
        if pmins and pmaxs and max(pmins) >= min(pmaxs):
            raise CurveValidationError(f"curve {self.id!r}: PMin >= PMax")
        for atom in self.atoms:
            if isinstance(atom, Disk):
                if atom.r <= 0:
                    raise CurveValidationError(f"curve {self.id!r}: disk radius must be > 0")
                if atom.sector not in (SECTOR_ALL, SECTOR_UPPER, SECTOR_LOWER):
                    raise CurveValidationError(
                        f"curve {self.id!r}: unknown disk sector {atom.sector!r}"
                    )
            if isinstance(atom, ParabolaCap) and atom.c2 > 0:
                raise CurveValidationError(f"curve {self.id!r}: parabola cap must be concave")
            if atom_violation(atom, 0.0, 0.0) > 0:
                raise CurveValidationError(
                    f"curve {self.id!r}: origin violates {atom!r}; idle must be feasible"
                )

    @property
    def anchor(self) -> Anchor:
        return (float(self.vdc_anchor), float(self.vac_anchor))


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


def in_half_open(value: float, lo: float, hi: float) -> bool:
    """True iff value lies in the half-open interval (lo, hi]."""
    return lo < value <= hi


@dataclass(frozen=True)
class CurveSelection:
    """Envelopes chosen for a (vDC, vAC) operating point."""

    dc_anchor: Anchor
    ac_anchor: Anchor | None
    clamped: bool

    @property
    def anchors(self) -> tuple[Anchor, ...]:
        if self.ac_anchor is None:
            return (self.dc_anchor,)
        return (self.dc_anchor, self.ac_anchor)


def select_curves(vdc: float, vac: float) -> CurveSelection:
    """Map a DC-bus voltage and an LV-side AC voltage to the applicable curves.

    vdc must lie in the (500, 800] V window; vac <= 270 V selects the
    low-voltage envelope as a conservative clamp and flags the selection.
    """
    if vac <= 0:
        raise ValueError(f"vac must be positive, got {vac}")
    for lo, hi, dc_anchor in DC_SELECTION:
        if in_half_open(vdc, lo, hi):
            break
    else:
        raise DcVoltageRangeError(f"vdc {vdc} V outside the (500, 800] selection window")
    for lo, hi, ac_anchor, clamped in AC_SELECTION:
        if in_half_open(vac, lo, hi):
            return CurveSelection(dc_anchor, ac_anchor, clamped)
    raise ValueError(f"vac {vac} V matches no selection range")


@dataclass(frozen=True, slots=True)
class Cell:
    """Convex Q >= 0 or Q <= 0 half of a scaled region, in normal form.

    Feasible points satisfy p_lo <= p <= p_hi, q_lo <= q <= q_hi,
    p^2 + q^2 <= r^2 when r is set, and q <= c0 + c1*p + c2*p^2 for every
    (c0, c1, c2) in paras.
    """

    p_lo: float
    p_hi: float
    q_lo: float
    q_hi: float
    r: float | None
    paras: tuple[tuple[float, float, float], ...]

    def violation(self, p: float, q: float) -> float:
        """Largest signed constraint violation at (p, q) (<= 0 is inside)."""
        worst = max(self.p_lo - p, p - self.p_hi, self.q_lo - q, q - self.q_hi)
        if self.r is not None:
            worst = max(worst, math.hypot(p, q) - self.r)
        for c0, c1, c2 in self.paras:
            worst = max(worst, q - (c0 + c1 * p + c2 * p * p))
        return worst


def _scaled_cell(atoms: Iterable[ConstraintAtom], shrink: float, upper: bool) -> Cell:
    """Normal form of the cell bounded by atoms, scaled by shrink: (p, q) is
    inside iff (p/shrink, q/shrink) satisfies every atom."""
    p_lo, p_hi = -math.inf, math.inf
    q_lo, q_hi = (0.0, math.inf) if upper else (-math.inf, 0.0)
    r: float | None = None
    paras: list[tuple[float, float, float]] = []
    for atom in atoms:
        if isinstance(atom, PMin):
            p_lo = max(p_lo, atom.p * shrink)
        elif isinstance(atom, PMax):
            p_hi = min(p_hi, atom.p * shrink)
        elif isinstance(atom, QMax):
            q_hi = min(q_hi, atom.q * shrink)
        elif isinstance(atom, Disk):
            r = atom.r * shrink if r is None else min(r, atom.r * shrink)
        elif isinstance(atom, ParabolaCap):
            paras.append((atom.c0 * shrink, atom.c1, atom.c2 / shrink))
        else:
            raise TypeError(f"unknown atom {atom!r}")
    return Cell(p_lo, p_hi, q_lo, q_hi, r, tuple(paras))


@dataclass(frozen=True)
class FeasibleRegion:
    """Intersection of selected envelopes, split at Q = 0 into convex cells.

    upper_atoms and lower_atoms are the unscaled envelope atoms of each
    cell; upper_cell and lower_cell are the same cells scaled by shrink, in
    the normal form the optimizer works on.  Membership of the scaled
    region at (p, q) equals membership of the unscaled atoms at
    (p/shrink, q/shrink).
    """

    upper_atoms: tuple[ConstraintAtom, ...]
    lower_atoms: tuple[ConstraintAtom, ...]
    shrink: float
    upper_cell: Cell
    lower_cell: Cell

    def contains(self, p: float, q: float, tol: float = MEMBERSHIP_TOL) -> bool:
        ps = p / self.shrink
        qs = q / self.shrink
        if qs >= 0 and all(atom_violation(a, ps, qs) <= tol for a in self.upper_atoms):
            return True
        if qs <= 0 and all(atom_violation(a, ps, qs) <= tol for a in self.lower_atoms):
            return True
        return False


def build_region(curves: Sequence[CapabilityCurve], shrink: float) -> FeasibleRegion:
    """Intersect one or two envelopes into a shrink-scaled feasible region."""
    if not 1 <= len(curves) <= 2:
        raise ValueError(f"expected 1 or 2 curves, got {len(curves)}")
    if not 0 < shrink <= 1:
        raise ValueError(f"shrink must lie in (0, 1], got {shrink}")
    upper = tuple(
        a
        for curve in curves
        for a in curve.atoms
        if not (isinstance(a, Disk) and a.sector == SECTOR_LOWER)
    )
    lower = tuple(
        a
        for curve in curves
        for a in curve.atoms
        if not (isinstance(a, Disk) and a.sector == SECTOR_UPPER)
    )
    return FeasibleRegion(
        upper, lower, shrink, _scaled_cell(upper, shrink, True), _scaled_cell(lower, shrink, False)
    )


_ATOM_ARITY = {"pmin": 1, "pmax": 1, "qmax": 1, "parabola": 3}


def parse_curves(lines: Iterable[str], origin: str = "<input>") -> list[CapabilityCurve]:
    """Parse a curve-definition document (see the repository README for the grammar)."""
    curves: list[CapabilityCurve] = []
    header: tuple[int, str, float, float] | None = None
    atoms: list[ConstraintAtom] = []
    for lineno, tokens in tokenize(lines, origin):
        keyword = tokens[0]
        if header is None:
            if keyword != "curve":
                raise CurveFormatError(origin, lineno, f"expected `curve`, got {keyword!r}")
            if len(tokens) != 4:
                raise CurveFormatError(origin, lineno, "expected `curve <id> <vdc> <vac>`")
            header = (
                lineno,
                tokens[1],
                parse_number(tokens[2], origin, lineno),
                parse_number(tokens[3], origin, lineno),
            )
            atoms = []
        elif keyword == "end":
            curves.append(CapabilityCurve(header[1], header[2], header[3], tuple(atoms)))
            header = None
        elif keyword in _ATOM_ARITY:
            if len(tokens) != 1 + _ATOM_ARITY[keyword]:
                raise CurveFormatError(
                    origin, lineno, f"{keyword} takes {_ATOM_ARITY[keyword]} coefficient(s)"
                )
            values = [parse_number(t, origin, lineno) for t in tokens[1:]]
            if keyword == "pmin":
                atoms.append(PMin(values[0]))
            elif keyword == "pmax":
                atoms.append(PMax(values[0]))
            elif keyword == "qmax":
                atoms.append(QMax(values[0]))
            else:
                atoms.append(ParabolaCap(values[0], values[1], values[2]))
        elif keyword == "disk":
            if len(tokens) not in (2, 3):
                raise CurveFormatError(origin, lineno, "expected `disk <r> [all|upperQ|lowerQ]`")
            sector = tokens[2] if len(tokens) == 3 else SECTOR_ALL
            if sector not in (SECTOR_ALL, SECTOR_UPPER, SECTOR_LOWER):
                raise CurveFormatError(origin, lineno, f"unknown disk sector {sector!r}")
            atoms.append(Disk(parse_number(tokens[1], origin, lineno), sector))
        else:
            raise CurveFormatError(origin, lineno, f"unknown atom kind {keyword!r}")
    if header is not None:
        raise CurveFormatError(origin, header[0], f"curve {header[1]!r} is missing `end`")
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
