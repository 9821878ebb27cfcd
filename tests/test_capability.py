import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bessctl.linefmt import LineFormatError
from bessctl.capability import (
    AC_SELECTION,
    DC_SELECTION,
    KNOWN_ANCHORS,
    CapabilityCurve,
    CurveFormatError,
    CurveValidationError,
    DcVoltageRangeError,
    Disk,
    PMax,
    PMin,
    ParabolaCap,
    QMax,
    build_region,
    index_curves,
    parse_curves,
    select_curves,
)

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
        lines = ["curve c 600 300", "  pmin notanum", "end"]
        with pytest.raises(LineFormatError) as err:
            parse_curves(lines, "doc")
        assert "doc:2" in str(err.value)

    def test_unknown_atom_kind_rejected(self):
        with pytest.raises(CurveFormatError):
            parse_curves(["curve c 600 300", "  blob 1", "end"], "doc")

    def test_missing_end_rejected(self):
        with pytest.raises(CurveFormatError):
            parse_curves(["curve c 600 300", "  qmax 1"], "doc")

    def test_unsupported_anchor_rejected(self):
        with pytest.raises(CurveValidationError):
            parse_curves(["curve c 700 300", "  qmax 1", "end"], "doc")


class TestCurveInvariants:
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

    def test_qmax_nesting_along_dc_anchors(self, curve_map):
        def qmax_of(anchor):
            return next(a.q for a in curve_map[anchor].atoms if isinstance(a, QMax))

        assert qmax_of((600.0, 300.0)) > qmax_of((550.0, 300.0)) > qmax_of((500.0, 300.0))
        assert (qmax_of((600.0, 300.0)), qmax_of((550.0, 300.0)), qmax_of((500.0, 300.0))) == (
            657.1,
            439.98,
            225.22,
        )


class TestSelectCurves:
    def test_mid_dc_range_no_extra_ac(self):
        sel = select_curves(575.0, 300.0)
        assert sel.dc_anchor == (550.0, 300.0)
        assert sel.ac_anchor is None
        assert not sel.clamped

    def test_high_dc_and_high_ac(self):
        sel = select_curves(610.0, 340.0)
        assert sel.dc_anchor == (600.0, 300.0)
        assert sel.ac_anchor == (500.0, 330.0)

    def test_boundary_500_is_excluded(self):
        with pytest.raises(DcVoltageRangeError):
            select_curves(500.0, 300.0)

    def test_above_800_is_out_of_range(self):
        with pytest.raises(DcVoltageRangeError):
            select_curves(800.1, 300.0)

    def test_low_vac_selects_conservative_clamp(self):
        sel = select_curves(620.0, 265.0)
        assert sel.ac_anchor == (500.0, 270.0)
        assert sel.clamped

    def test_range_edges_are_half_open(self):
        assert select_curves(550.0, 300.0).dc_anchor == (500.0, 300.0)
        assert select_curves(550.0001, 300.0).dc_anchor == (550.0, 300.0)
        assert select_curves(600.0, 330.0).ac_anchor is None
        assert select_curves(600.0, 330.0001).ac_anchor == (500.0, 330.0)

    def test_nonpositive_vac_rejected(self):
        with pytest.raises(ValueError):
            select_curves(600.0, 0.0)


class TestRegion:
    def test_origin_always_member(self, curve_map):
        region = region_for(curve_map, [(600.0, 300.0)])
        assert region.contains(0.0, 0.0)

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
        assert upper.paras == lower.paras == ((659.67 * SHRINK, -8.29e-18, -2.16e-4 / SHRINK),)

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
        violation = min(cell.violation(p, q) for cell, side in sides if side)
        assume(abs(violation) > 1e-6)
        assert (violation <= 0) == region.contains(p, q)


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
