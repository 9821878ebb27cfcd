import dataclasses
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.linalg import LinAlgError

import bessctl.capability as capability
from bessctl.capability import (
    AC_SELECTION,
    DC_SELECTION,
    KNOWN_ANCHORS,
    CapabilityCurve,
    CompanionOverflowError,
    CurveFormatError,
    CurveValidationError,
    Disk,
    FeasibleRegion,
    PMax,
    PMin,
    ParabolaCap,
    QMax,
    atom_violation,
    build_region,
    cubic_real_roots,
    in_half_open,
    index_curves,
    parse_curves,
    poly_real_roots,
    select_ac,
)

from oracles import np_roots_real_roots, violation

SHRINK = 7.0 / 9.0

#: Each envelope alone, and every envelope pair the selection tables produce.
REGION_ANCHORS = [(a,) for a in sorted(KNOWN_ANCHORS)] + [
    (dc, ac) for _, _, dc in DC_SELECTION for _, _, ac, _ in AC_SELECTION if ac is not None
]


def region_for(curve_map, anchors, shrink=1.0):
    return build_region([curve_map[a] for a in anchors], shrink)


class TestLoadCurves:
    def test_builtin_has_all_five_anchors(self, curve_map):
        assert set(curve_map) == {
            (600.0, 300.0),
            (550.0, 300.0),
            (500.0, 300.0),
            (500.0, 330.0),
            (500.0, 270.0),
        }

    def test_600_300_atoms(self, curve_map):
        atoms = curve_map[(600.0, 300.0)].atoms
        assert set(atoms) == {
            PMin(-681.89),
            PMax(678.71),
            Disk(723.03, "upperQ"),
            Disk(719.19, "lowerQ"),
            ParabolaCap(659.67, -8.29e-18, -2.16e-4),
            QMax(657.1),
        }

    def test_500_330_has_four_atoms_with_qmax(self, curve_map):
        atoms = curve_map[(500.0, 330.0)].atoms
        assert len(atoms) == 4
        assert QMax(38.47) in atoms

    def test_empty_document_is_empty_list(self):
        assert parse_curves([], "empty") == []
        assert parse_curves(["# only a comment", ""], "empty") == []

    def test_parse_error_names_line(self):
        with pytest.raises(CurveFormatError, match=r"^<input>:2: not a number: 'x'"):
            parse_curves(["curve c 600 300", "pmin x", "end"])
        with pytest.raises(CurveFormatError, match=r"^doc:1: not a number: 'y'"):
            parse_curves(["curve c 600 y", "end"], "doc")

    def test_unknown_atom_kind_rejected(self):
        with pytest.raises(CurveFormatError):
            parse_curves(["curve c 600 300", "  blob 1", "end"], "doc")

    def test_missing_end_rejected(self):
        with pytest.raises(CurveFormatError):
            parse_curves(["curve c 600 300", "  qmax 1"], "doc")

    def test_unknown_disk_sector_rejected(self):
        with pytest.raises(CurveFormatError, match=r"^doc:2: unknown disk sector 'leftQ'"):
            parse_curves(["curve c 600 300", "  disk 700 leftQ", "end"], "doc")

    def test_unsupported_anchor_rejected(self):
        with pytest.raises(CurveFormatError, match=r"^doc:1: curve 'c': anchor") as err:
            parse_curves(["curve c 700 300", "  qmax 1", "end"], "doc")
        assert isinstance(err.value.__cause__, CurveValidationError)

    @pytest.mark.parametrize(
        "atom, message",
        [
            ("disk inf", "Disk(r=inf"),
            ("parabola 1 nan -1", "ParabolaCap(c0=1.0, c1=nan"),
            ("pmin 5", "origin violates"),
        ],
        ids=["disk-inf", "parabola-nan", "origin"],
    )
    def test_invalid_curve_names_its_header_line(self, atom, message):
        lines = ["# c", "curve a 600 300", "  qmax 1", "end", ""]
        lines += ["curve b 500 270", f"  {atom}", "end"]
        with pytest.raises(CurveFormatError) as err:
            parse_curves(lines, "doc")
        assert str(err.value).startswith(f"doc:6: curve 'b': {message}")
        assert isinstance(err.value.__cause__, CurveValidationError)


FINITE_ATOMS = (
    PMin(-500.0),
    PMax(500.0),
    Disk(600.0),
    ParabolaCap(300.0, 1e-3, -2e-4),
    QMax(400.0),
)


class TestCurveInvariants:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "atom, field",
        [(a, f.name) for a in FINITE_ATOMS for f in dataclasses.fields(a) if f.name != "sector"],
        ids=lambda x: type(x).__name__ if not isinstance(x, str) else x,
    )
    def test_non_finite_atom_value_rejected(self, atom, field, value):
        bad = dataclasses.replace(atom, **{field: value})
        with pytest.raises(CurveValidationError, match=rf"^curve 'c': {re.escape(repr(bad))}"):
            CapabilityCurve("c", 600, 300, (Disk(700.0), bad))

    def test_disk_radius_must_be_positive(self):
        with pytest.raises(CurveValidationError):
            CapabilityCurve("c", 600, 300, (Disk(-1.0),))

    def test_parabola_must_be_concave(self):
        with pytest.raises(CurveValidationError):
            CapabilityCurve("c", 600, 300, (ParabolaCap(10.0, 0.0, 1e-3),))

    def test_pmin_below_pmax(self):
        with pytest.raises(CurveValidationError):
            CapabilityCurve("c", 600, 300, (PMin(10.0), PMax(5.0)))

    def test_origin_must_be_feasible(self):
        with pytest.raises(CurveValidationError):
            CapabilityCurve("c", 600, 300, (QMax(-1.0),))

    def test_pmin_equal_to_pmax_rejected(self):
        # Both hold the origin, so only the ordering check can reject them.
        with pytest.raises(CurveValidationError, match="PMin >= PMax"):
            CapabilityCurve("c", 600, 300, (PMin(0.0), PMax(0.0)))

    def test_unknown_disk_sector_rejected(self):
        with pytest.raises(CurveValidationError, match="unknown disk sector 'leftQ'"):
            CapabilityCurve("c", 600, 300, (Disk(700.0, "leftQ"),))

    def test_unknown_atom_has_no_violation(self):
        with pytest.raises(TypeError, match="unknown atom"):
            atom_violation(object(), 0.0, 0.0)

    def test_unknown_atom_has_no_cell(self):
        with pytest.raises(TypeError, match="unknown atom"):
            capability._scaled_cell([QMax(1.0), object()], 1.0, True)

    def test_qmax_nesting_along_dc_anchors(self, curve_map):
        def qmax_of(anchor):
            return next(a.q for a in curve_map[anchor].atoms if isinstance(a, QMax))

        assert qmax_of((600.0, 300.0)) > qmax_of((550.0, 300.0)) > qmax_of((500.0, 300.0))
        assert (qmax_of((600.0, 300.0)), qmax_of((550.0, 300.0)), qmax_of((500.0, 300.0))) == (
            657.1,
            439.98,
            225.22,
        )


def dc_ranges(vdc):
    """Anchors of the DC_SELECTION ranges holding vdc, scanned as the assumption loop does."""
    return [anchor for lo, hi, anchor in DC_SELECTION if in_half_open(vdc, lo, hi)]


class TestSelectionTables:
    @pytest.mark.parametrize(
        "vdc, anchors",
        [
            pytest.param(575.0, [(550.0, 300.0)], id="575-mid-range"),
            pytest.param(610.0, [(600.0, 300.0)], id="610-high-range"),
            pytest.param(550.0, [(500.0, 300.0)], id="550-closed-top"),
            pytest.param(550.0001, [(550.0, 300.0)], id="550.0001-open-bottom"),
            pytest.param(800.0, [(600.0, 300.0)], id="800-window-top"),
            pytest.param(500.0, [], id="500-below-window"),
            pytest.param(800.1, [], id="800.1-above-window"),
        ],
    )
    def test_dc_ranges_are_half_open(self, vdc, anchors):
        assert dc_ranges(vdc) == anchors

    @pytest.mark.parametrize(
        "vac, selected",
        [
            pytest.param(300.0, (None, False), id="300-nominal"),
            pytest.param(330.0, (None, False), id="330-closed-top"),
            pytest.param(330.0001, ((500.0, 330.0), False), id="330.0001-high"),
            pytest.param(340.0, ((500.0, 330.0), False), id="340-high"),
            pytest.param(265.0, ((500.0, 270.0), True), id="265-clamp"),
        ],
    )
    def test_select_ac_ranges_are_half_open(self, vac, selected):
        assert select_ac(vac) == selected

    def test_known_anchors_are_the_anchors_the_tables_name(self):
        assert KNOWN_ANCHORS == {
            (600.0, 300.0),
            (550.0, 300.0),
            (500.0, 300.0),
            (500.0, 330.0),
            (500.0, 270.0),
        }

    def test_select_ac_covers_positive_voltages(self):
        assert select_ac(1e-300) == ((500.0, 270.0), True)
        assert select_ac(270.0) == ((500.0, 270.0), True)
        assert select_ac(math.nextafter(270.0, 300.0)) == (None, False)
        assert select_ac(330.0) == (None, False)
        assert select_ac(math.inf) == ((500.0, 330.0), False)
        for vac in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                select_ac(vac)


class TestRegion:
    def test_origin_always_member(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0)])
        assert region.contains(0.0, 0.0)

    def test_region_without_origin_rejected(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0)])
        atoms = (PMin(10.0),)
        with pytest.raises(ValueError, match="origin"):
            FeasibleRegion(atoms, atoms, 1.0, region.upper_cell, region.lower_cell)

    def test_shrink_scales_membership(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0)], SHRINK)
        assert not region.contains(678.71, 0.0)
        assert region.contains(678.71 * SHRINK, 0.0)

    def test_intersection_uses_tightest_qmax(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0), (500.0, 330.0)])
        assert not region.contains(0.0, 100.0)
        assert region.contains(0.0, 38.47)

    def test_qmax_boundary_membership(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0)])
        assert region.contains(0.0, 657.1)
        assert not region.contains(0.0, 657.2)

    def test_build_region_validates_inputs(self, curve_map):
        with pytest.raises(ValueError):
            build_region([], 1.0)
        with pytest.raises(ValueError):
            build_region([curve_map[(600.0, 300.0)]], 0.0)
        with pytest.raises(ValueError):
            build_region([curve_map[(600.0, 300.0)]], 1.5)

    @pytest.mark.parametrize("shrink", [1e-160, 5e-324])
    def test_tiny_shrink_rejected_naming_it(self, curve_map, shrink):
        # The scaled cap's curvature overflows the disk-cap quartic.
        with pytest.raises(ValueError, match=f"^shrink {re.escape(repr(shrink))} "):
            region_for(curve_map, [(600.0, 300.0)], shrink)

    def test_flat_cap_rejected_naming_it_not_the_shrink(self):
        # c2 * c2 is subnormal: the disk-cap quartic's companion overflows.
        cap, disk = ParabolaCap(100.0, 0.0, -1e-160), Disk(650.0)
        curve = CapabilityCurve("flat", 600.0, 300.0, (cap, disk))
        with pytest.raises(ValueError) as info:
            build_region([curve], 1.0)
        message = str(info.value)
        assert repr(cap) in message and repr(disk) in message
        assert "shrink" not in message

    def test_small_shrink_still_builds(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0)], 1e-3)
        for cell in (region.upper_cell, region.lower_cell):
            assert cell.corners
            assert all(math.isfinite(v) for point in cell.corners for v in point[:2])

    def test_lower_disk_only_binds_below_axis(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0)])
        # 719.19 < hypot < 723.03: inside the upper disk, outside the lower one.
        p = 500.0
        q = math.sqrt(721.0**2 - p * p)
        assert region.contains(p, q)
        assert not region.contains(p, -q)


class TestRegionCells:
    def test_cells_scale_the_atoms(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0)], SHRINK)
        upper, lower = region.upper_cell, region.lower_cell
        assert (upper.p_lo, upper.p_hi) == (lower.p_lo, lower.p_hi) == (
            -681.89 * SHRINK,
            678.71 * SHRINK,
        )
        assert (upper.q_lo, upper.q_hi) == (0.0, 657.1 * SHRINK)
        assert (lower.q_lo, lower.q_hi) == (-math.inf, 0.0)
        assert (upper.r, lower.r) == (723.03 * SHRINK, 719.19 * SHRINK)
        assert upper.paras == ((659.67 * SHRINK, -8.29e-18, -2.16e-4 / SHRINK),)
        # The cap stays far above Q = 0 across the P box, so it never binds below.
        assert lower.paras == ()

    def test_cells_without_a_disk_have_infinite_radius(self):
        curve = CapabilityCurve("c", 600, 300, (PMin(-500.0), PMax(500.0), QMax(400.0)))
        region = build_region([curve], SHRINK)
        assert region.upper_cell.r == region.lower_cell.r == math.inf
        assert region.upper_cell.corners == region.lower_cell.corners == ()

    @settings(max_examples=400, deadline=None)
    @given(
        anchors=st.sampled_from(REGION_ANCHORS),
        shrink=st.sampled_from([1.0, SHRINK]),
        p=st.floats(-1000.0, 1000.0),
        q=st.floats(-1000.0, 1000.0),
    )
    def test_cell_violation_agrees_with_contains(self, curve_map, anchors, shrink, p, q):
        region = region_for(curve_map, anchors, shrink)
        sides = ((region.upper_cell, q >= 0), (region.lower_cell, q <= 0))
        worst = min(violation(cell, p, q) for cell, side in sides if side)
        assume(abs(worst) > 1e-6)
        assert (worst <= 0) == region.contains(p, q)


class TestRegionProperties:
    def test_cells_are_convex(self, curve_map):
        rng = np.random.default_rng(42)
        for anchors in [[(600.0, 300.0)], [(550.0, 300.0), (500.0, 330.0)], [(500.0, 270.0)]]:
            region = region_for(curve_map, anchors, SHRINK)
            for sign in (1.0, -1.0):
                members = []
                while len(members) < 40:
                    p = rng.uniform(-800, 800)
                    q = sign * rng.uniform(0, 800)
                    if region.contains(p, q):
                        members.append((p, q))
                for _ in range(200):
                    (p1, q1), (p2, q2) = members[rng.integers(40)], members[rng.integers(40)]
                    t = rng.uniform()
                    assert region.contains(p1 + t * (p2 - p1), q1 + t * (q2 - q1))

    def test_monotone_shrink(self, curve_map):
        rng = np.random.default_rng(3)
        curve = curve_map[(600.0, 300.0)]
        for _ in range(200):
            s = rng.uniform(0.2, 1.0)
            s2 = rng.uniform(0.1, 1.0)
            p, q = rng.uniform(-800, 800), rng.uniform(-800, 800)
            if build_region([curve], s).contains(p, q):
                assert build_region([curve], s2).contains(p * s2 / s, q * s2 / s)

    def test_duplicate_anchor_rejected(self, curves):
        with pytest.raises(CurveValidationError):
            index_curves(curves + [curves[0]])


def root_outcome(f, coeffs):
    """The hex of each root f finds, or "ValueError" when it raises one
    (numpy's LinAlgError is a ValueError)."""
    try:
        return [x.hex() for x in f(coeffs)]
    except ValueError:
        return "ValueError"


#: Coefficients from 1e-12 to 1e8 in magnitude, or zero.
COEFFICIENT = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-12.0, 8.0)).map(
        lambda t: t[0] * 10.0**t[1]
    ),
)


def stationary_cubic(cap, target, weights):
    """Coefficients of optimizer._parabola_stationary's cubic."""
    (c0, c1, c2), (p0, q0), (wp, wq) = cap, target, weights
    shift = c0 - q0
    return (
        2.0 * wq * c2 * c2,
        3.0 * wq * c2 * c1,
        wq * (c1 * c1 + 2.0 * c2 * shift) + wp,
        wq * c1 * shift - wp * p0,
    )


STATIONARY_CUBIC = st.builds(
    stationary_cubic,
    st.tuples(
        st.floats(0.0, 800.0),
        st.floats(-1.0, 1.0),
        st.one_of(st.just(0.0), st.floats(-1e-2, -1e-8), st.just(-1e-160)),
    ),
    st.tuples(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0)),
    st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
)


class TestPolyRealRoots:
    """poly_real_roots builds np.roots' companion matrix itself; its roots
    must equal those of the np.roots reference bit for bit."""

    @settings(max_examples=1500, deadline=None)
    @given(
        lead=st.one_of(COEFFICIENT, st.sampled_from([1e-160, -1e-300, 1e-320, 5e-324])),
        rest=st.lists(COEFFICIENT, min_size=3, max_size=4),
    )
    def test_equals_np_roots(self, lead, rest):
        coeffs = [lead, *rest]
        assert root_outcome(poly_real_roots, coeffs) == root_outcome(np_roots_real_roots, coeffs)

    @settings(max_examples=1500, deadline=None)
    @given(coeffs=STATIONARY_CUBIC.map(list))
    def test_stationary_cubic_equals_np_roots(self, coeffs):
        assert root_outcome(poly_real_roots, coeffs) == root_outcome(np_roots_real_roots, coeffs)

    def test_trailing_zeros_are_roots_at_zero(self):
        assert poly_real_roots([1.0, -3.0, 2.0, 0.0, 0.0]) == [2.0, 1.0, 0.0, 0.0]
        assert poly_real_roots([2.0, 0.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]

    def test_lapack_nonconvergence_raises_linalgerror(self, monkeypatch):
        # dgeev's gufunc reports non-convergence by raising the invalid flag
        # and returning NaNs; the error state that np.linalg.eigvals set
        # around it turned the flag into this error, and _eigvals must too.
        class NonConverging:
            @staticmethod
            def eigvals(companion, signature):
                assert signature == "d->D"
                np.sqrt(np.full(1, -1.0))
                return np.full(len(companion), complex(math.nan, math.nan))

        monkeypatch.setattr(capability, "_umath_linalg", NonConverging)
        with pytest.raises(LinAlgError, match="^Eigenvalues did not converge$"):
            poly_real_roots([1.0, -6.0, 11.0, -6.0])

    def test_companion_overflow_names_the_leading_coefficient(self):
        with pytest.raises(CompanionOverflowError, match="leading coefficient 1e-320 "):
            poly_real_roots([1e-320, 0.0, 1.0, 0.0, -412500.0])


def exact_outcome(f, *args):
    """The hex of each root f finds, or the type and message of its error."""
    try:
        return [x.hex() for x in f(*args)]
    except Exception as exc:
        return type(exc).__name__, str(exc)


#: Coefficients at the edges of the scalar path: zeros of either sign, tiny
#: leads (the subnormal ones overflow the companion row) and non-finite ones.
ODD_COEFFICIENT = st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-320, 1e-310, 1e-160, math.inf, -math.inf, math.nan]
)


class TestCubicRealRoots:
    """cubic_real_roots is poly_real_roots on four coefficients: the same
    roots bit for bit, or the same error with the same message."""

    @settings(max_examples=1500, deadline=None)
    @given(
        coeffs=st.one_of(
            STATIONARY_CUBIC,
            st.tuples(*[st.one_of(COEFFICIENT, ODD_COEFFICIENT)] * 4),
            st.tuples(ODD_COEFFICIENT, COEFFICIENT, COEFFICIENT, COEFFICIENT),
            st.tuples(COEFFICIENT, COEFFICIENT, COEFFICIENT, ODD_COEFFICIENT),
        )
    )
    def test_equals_poly_real_roots_and_np_roots(self, coeffs):
        outcome = exact_outcome(cubic_real_roots, *coeffs)
        assert outcome == exact_outcome(poly_real_roots, list(coeffs))
        assert root_outcome(lambda c: cubic_real_roots(*c), coeffs) == root_outcome(
            np_roots_real_roots, list(coeffs)
        )

    def test_subnormal_lead_overflows_the_companion(self):
        with pytest.raises(CompanionOverflowError, match="leading coefficient 5e-324 "):
            cubic_real_roots(5e-324, 1.0, 0.0, -1.0)

    def test_non_finite_coefficient_is_named(self):
        with pytest.raises(ValueError, match=re.escape("got [1.0, nan, 0.0, -1.0]")):
            cubic_real_roots(1.0, math.nan, 0.0, -1.0)

    def test_poly_real_roots_hands_its_cubics_over(self, monkeypatch):
        calls = []
        original = capability.cubic_real_roots

        def counting(*coeffs):
            calls.append(coeffs)
            return original(*coeffs)

        monkeypatch.setattr(capability, "cubic_real_roots", counting)
        assert poly_real_roots([0.0, 1.0, -6.0, 11.0, -6.0]) == original(1.0, -6.0, 11.0, -6.0)
        poly_real_roots([1.0, -3.0, 2.0, 0.0])  # a root at 0: the general path
        assert calls == [(1.0, -6.0, 11.0, -6.0)]


class TestEigvalsErrorState:
    """_eigvals sets numpy's error state per call through its decorator and
    leaves the caller's state as it found it, also across threads."""

    @staticmethod
    def marker(err, flag):
        raise AssertionError("the caller's error callback must not run")

    def test_caller_state_survives_a_solve(self):
        with np.errstate(over="raise", invalid="warn", call=self.marker):
            before = np.geterr(), np.geterrcall()
            assert poly_real_roots([1.0, -6.0, 11.0, -6.0])
            assert (np.geterr(), np.geterrcall()) == before

    def test_caller_state_survives_nonconvergence(self, monkeypatch):
        class NonConverging:
            @staticmethod
            def eigvals(companion, signature):
                np.sqrt(np.full(1, -1.0))
                return np.full(len(companion), complex(math.nan, math.nan))

        monkeypatch.setattr(capability, "_umath_linalg", NonConverging)
        with np.errstate(over="raise", invalid="warn", call=self.marker):
            before = np.geterr(), np.geterrcall()
            with pytest.raises(LinAlgError, match="^Eigenvalues did not converge$"):
                poly_real_roots([1.0, -6.0, 11.0, -6.0])
            assert (np.geterr(), np.geterrcall()) == before

    def test_two_threads_find_the_serial_roots(self):
        rng = np.random.default_rng(23)
        cubics = [
            stationary_cubic(
                (float(rng.uniform(0.0, 800.0)), float(rng.uniform(-1.0, 1.0)), -1e-3),
                (float(rng.uniform(-2000.0, 2000.0)), float(rng.uniform(-2000.0, 2000.0))),
                (1.0, 1.0),
            )
            for _ in range(200)
        ]
        serial = [cubic_real_roots(*c) for c in cubics]

        def solve_all(_):
            return [[cubic_real_roots(*c) for c in cubics] for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the solves
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(solve_all, range(2), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 2
        for rounds in results:
            assert all(roots == serial for roots in rounds)
