"""Characteristic function sampling, rasters, fractal operators, staircase."""

import random
from fractions import Fraction

import pytest

from pfractal import (
    Box,
    CellNotStabilized,
    DigitPoint,
    GridFunction,
    IdealFamily,
    IdealGens,
    ResolutionMismatchError,
    Ring,
    TauConfig,
    buchberger,
    chi,
    fractal_operator,
    fractal_span_census,
    ideal_key,
    parse_polynomial,
    rasterize,
    region_membership,
    reduces_to_zero,
    sample_chi,
    staircase_boundary,
    tau_mixed,
    verify_fractal_identity,
)


def _ideal(ring, *texts):
    return IdealGens(ring, [parse_polynomial(t, ring) for t in texts])


def test_box_validation():
    with pytest.raises(ValueError):
        Box(())
    with pytest.raises(ValueError):
        Box((Fraction(0), Fraction(1)))
    b = Box((1, Fraction(3, 2)))
    assert b.sides == (Fraction(1), Fraction(3, 2))
    assert b.shape(2, 1) == (3, 4)
    with pytest.raises(ValueError):
        Box((Fraction(1, 2),)).shape(3, 0)


def test_grid_function_layout():
    box = Box((1, 1))
    vals = tuple(range(9))
    phi = GridFunction(2, box, 1, vals)
    assert phi.shape == (3, 3)
    assert phi.value_at((0, 0)) == 0
    assert phi.value_at((0, 2)) == 2
    assert phi.value_at((2, 0)) == 6
    assert phi.point_at((1, 2)) == (Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        GridFunction(2, box, 1, vals[:-1])


def test_chi_matches_tau_containment(staircase, maximal):
    for c in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3)),
              (Fraction(1), Fraction(1)), (Fraction(0), Fraction(0))):
        expected = 0 if all(
            reduces_to_zero(g, maximal) for g in tau_mixed(staircase, c).gens
        ) else 1
        assert chi(staircase, maximal, c) == expected


def test_chi_oracle_agrees_with_generic_path(staircase, maximal):
    """The principal p-adic shortcut and the full tau route must agree."""
    from pfractal.region import _ChiOracle
    rng = random.Random(77)
    oracle = _ChiOracle(staircase)
    for _ in range(40):
        e = rng.randint(0, 3)
        q = 3 ** e
        c = (Fraction(rng.randint(0, 2 * q), q), Fraction(rng.randint(0, 2 * q), q))
        fast = oracle.chi(maximal, c)
        tau = tau_mixed(staircase, c)
        slow = 0 if all(reduces_to_zero(g, maximal) for g in tau.gens) else 1
        assert fast == slow, c


def test_chi_downset_on_diagonal(staircase, maximal):
    """chi = 1 is a down-set: shrinking the exponent keeps chi = 1."""
    vals = [chi(staircase, maximal, (Fraction(i, 9), Fraction(i, 9)))
            for i in range(10)]
    assert vals == sorted(vals, reverse=True)
    assert vals[0] == 1 and vals[-1] == 0


def test_raster_k0(staircase):
    r = rasterize(staircase, Box((1, 1)), 0)
    assert r.shape == (2, 2)
    assert r.key_at((0, 0)) == "1"
    assert r.key_at((0, 1)) == "x*y"
    assert r.key_at((1, 0)) == "x+y"
    assert r.key_at((1, 1)) == "x^2*y+x*y^2"
    assert len(r.palette) == 4


def test_raster_k2_palette(staircase):
    r = rasterize(staircase, Box((1, 1)), 2)
    assert r.shape == (10, 10)
    assert set(r.palette) == {"1", "x*y", "x;y", "x+y", "x^2*y+x*y^2"}
    # palette indices are first-encounter, scan order fixes them
    assert r.palette[0] == "1"
    # bottom-left cell block is the unit region
    assert r.value_at((0, 0)) == 0
    assert r.key_at((3, 9)) == "x*y"
    assert r.key_at((9, 3)) == "x+y"
    assert r.key_at((6, 6)) == "x;y"


def test_raster_matches_pointwise_tau(staircase):
    r = rasterize(staircase, Box((1, 1)), 1)
    for i in range(4):
        for j in range(4):
            t = tau_mixed(staircase, (Fraction(i, 3), Fraction(j, 3)))
            assert ideal_key(buchberger(t)) == r.key_at((i, j))


def test_raster_non_principal_matches_pointwise_tau(F3xy):
    # the windowed path: interned taus must still key every cell correctly
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x", "y")])
    r = rasterize(fam, Box((2,)), 1)
    assert r.shape == (7,)
    for i in range(7):
        assert r.key_at((i,)) == ideal_key(tau_mixed(fam, (Fraction(i, 3),)))
    assert r.palette == ("1", "x;y") and r.key_at((6,)) == "x;y"


def test_raster_cell_not_stabilized(F3xy):
    # a 1-level budget can never confirm a window of 2, so the first cell trips
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x", "y")])
    cfg = TauConfig(e_max=1, confirm_window=2)
    with pytest.raises(CellNotStabilized) as info:
        rasterize(fam, Box((1,)), 0, cfg)
    assert info.value.cell == (0,)
    assert info.value.point == (Fraction(0),)
    assert info.value.e_max == 1


def test_region_membership(staircase, maximal):
    zero = IdealGens.zero(staircase.ring)
    c = (Fraction(1, 3), Fraction(2, 3))
    # tau = (x,y): escapes the zero ideal, stays inside (x,y)
    assert region_membership(staircase, c, [zero], maximal)
    # tau = R at the origin does not stay inside (x,y)
    assert not region_membership(staircase, (Fraction(0), Fraction(0)),
                                 [zero], maximal)
    # tau = (x,y) does not escape itself
    assert not region_membership(staircase, c, [maximal], maximal)


def test_region_membership_matches_chi_off_the_p_adic_grid(staircase, maximal):
    # c has a denominator prime to 3, so tau = (x, y) comes from the stabilization loop
    ring = staircase.ring
    c = (Fraction(1, 2), Fraction(3, 4))
    ideals = [IdealGens.zero(ring), maximal, _ideal(ring, "x^2", "y"),
              _ideal(ring, "x*y"), IdealGens.unit(ring)]
    seen = set()
    for others in ([ideals[0], ideals[2]], [ideals[3], ideals[0]], [ideals[0], maximal]):
        for J in ideals:
            want = all(chi(staircase, I, c) == 1 for I in others) and chi(staircase, J, c) == 0
            assert region_membership(staircase, c, others, J) == want, (others, J)
            seen.add(want)
    assert seen == {True, False}


def test_fractal_operator_identity_shift():
    box = Box((1, 1))
    vals = tuple(range(16))
    phi = GridFunction(3, box, 1, vals)
    same = fractal_operator(phi, 1, (0, 0))
    assert same.values == phi.values
    with pytest.raises(ValueError):
        fractal_operator(phi, 2, (0, 0))
    with pytest.raises(ValueError):
        fractal_operator(phi, 3, (3, 0))
    with pytest.raises(ResolutionMismatchError):
        fractal_operator(GridFunction(3, box, 0, tuple(range(4))), 3, (0, 0))


def test_fractal_operator_zoom():
    """T_(q|b) samples phi((t+b)/q) and is zero outside the source box."""
    box = Box((1, 1))
    q = 3
    src = GridFunction(3, box, 2, tuple(range(100)))
    moved = fractal_operator(src, 3, (1, 2))
    assert moved.k == 1
    for i in range(4):
        for j in range(4):
            # source index (i + 1*3, j + 2*3) on the level-2 grid
            si, sj = i + 3, j + 6
            expect = src.value_at((si, sj)) if si < 10 and sj < 10 else 0
            assert moved.value_at((i, j)) == expect


def test_fractal_operator_on_chi_matches_direct_sampling(staircase, maximal):
    """T_(3|(0,2)) applied to sampled chi equals chi at the rescaled points."""
    box = Box((1, 1))
    phi = sample_chi(staircase, maximal, box, 3)
    moved = fractal_operator(phi, 3, (0, 2))
    for i in range(10):
        for j in range(10):
            pt = (Fraction(i, 27), Fraction(j + 18, 27))
            assert moved.value_at((i, j)) == chi(staircase, maximal, pt)


def test_verify_fractal_identity_examples(staircase, maximal):
    box = Box((1, 1))
    assert verify_fractal_identity(staircase, maximal, 1, (0, 2), box, 2)
    assert verify_fractal_identity(staircase, maximal, 1, (2, 0), box, 2)
    assert verify_fractal_identity(staircase, maximal, 0, (0, 0), box, 2)


def test_verify_fractal_identity_validates_shift(staircase, maximal):
    box = Box((1, 1))
    with pytest.raises(ValueError):
        verify_fractal_identity(staircase, maximal, 1, (0,), box, 1)
    fam2 = IdealFamily(staircase.ring, [
        _ideal(staircase.ring, "x", "y"),
        _ideal(staircase.ring, "x*y"),
    ])
    # first member has two generators: b_1 >= 1 required
    with pytest.raises(ValueError):
        verify_fractal_identity(fam2, maximal, 1, (0, 0), box, 1)
    assert verify_fractal_identity(fam2, maximal, 1, (1, 0), box, 1) in (True, False)


def test_census_unit_reference(staircase):
    unit = IdealGens.unit(staircase.ring)
    out = fractal_span_census(staircase, unit, Box((1, 1)), 1)
    # tau never escapes the unit ideal, chi is constant 0, one class
    assert len(out) == 1


def test_census_stabilizes(staircase, maximal):
    two = fractal_span_census(staircase, maximal, Box((1, 1)), 2)
    assert len(two) == len(set(two))
    assert 1 < len(two) < 92


def test_digit_point():
    pt = DigitPoint(3, ("01", "22"))
    assert pt.value() == (Fraction(1, 9), Fraction(8, 9))
    assert pt.labels() == ("0.01", "0.22")
    with pytest.raises(ValueError):
        DigitPoint(3, ("3",))
    with pytest.raises(ValueError):
        DigitPoint(3, ("",))


def test_digit_point_bases_above_ten():
    assert DigitPoint(11, ("5",)).value() == (Fraction(5, 11),)
    assert DigitPoint(11, ("a",)).value() == (Fraction(10, 11),)
    with pytest.raises(ValueError):
        DigitPoint(11, ("b",))
    with pytest.raises(ValueError):
        DigitPoint(37, ("1",))


def test_staircase_boundary_depths():
    assert [p.labels() for p in staircase_boundary(0)] == [("0.1", "0.2")]
    d1 = [p.labels() for p in staircase_boundary(1)]
    assert d1 == [("0.01", "0.22"), ("0.21", "0.12")]
    d2 = staircase_boundary(2)
    assert len(d2) == 4
    assert all(len(ds) == 3 for p in d2 for ds in p.digits)
    with pytest.raises(ValueError):
        staircase_boundary(-1)


def test_staircase_points_on_boundary(staircase, maximal):
    """chi flips from 1 to 0 across each listed point along the diagonal."""
    for pt in staircase_boundary(2):
        cx, cy = pt.value()
        ulp = Fraction(1, 3 ** (len(pt.digits[0]) + 2))
        assert chi(staircase, maximal, (cx, cy)) == 0
        assert chi(staircase, maximal, (cx - ulp, cy - ulp)) == 1
