"""Characteristic function sampling, rasters, fractal operators, staircase."""

import math
import random
from fractions import Fraction
from itertools import product

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
    ideal_contains,
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


# (p, variables, principal members, generators of I)
PRINCIPAL_CASES = [
    (3, "x,y", ["x+y", "x*y"], ["x", "y"]),
    (2, "x,y", ["x^2+y^3"], ["x", "y"]),
    (5, "x,y", ["x", "y", "x+y"], ["x^2", "x*y", "y^3"]),
]


def test_chi_oracle_agrees_with_generic_path():
    """The integer grid route of the oracle, public chi and tau containment agree.

    Numerators are drawn as zero, as multiples of p (so the integer route
    lowers the level first) and at random.
    """
    from pfractal.region import _ChiOracle
    rng = random.Random(77)
    for p, names, members, inner in PRINCIPAL_CASES:
        ring = Ring(p, names.split(","))
        fam = IdealFamily(ring, [_ideal(ring, g) for g in members])
        I = _ideal(ring, *inner)
        oracle = _ChiOracle(fam)
        for _ in range(40):
            e = rng.randint(0, 3 if p < 5 else 2)
            q = p ** e
            m = [rng.choice((0, p * rng.randint(0, q), rng.randint(0, 2 * q))) for _ in members]
            c = tuple(Fraction(m_i, q) for m_i in m)
            slow = 0 if ideal_contains(I, tau_mixed(fam, c)) else 1
            assert chi(fam, I, c) == slow, (p, c)
            assert oracle.chi_at(I, m, e) == slow, (p, m, e)


def test_sampled_chi_matches_tau_containment(staircase, maximal):
    phi = sample_chi(staircase, maximal, Box((1, 1)), 2)
    for idx in product(range(10), repeat=2):
        tau = tau_mixed(staircase, phi.point_at(idx))
        assert phi.value_at(idx) == (0 if ideal_contains(maximal, tau) else 1), idx


@pytest.mark.parametrize("members,b", [
    ((("x+y",), ("x*y",)), (1, 2)),  # all principal: l - 1 = 0
    ((("x", "y"), ("x*y",)), (2, 2)),  # l = (2, 1)
])
def test_identity_samples_match_tau_containment(F3xy, maximal, monkeypatch, members, b):
    """Every sample of one identity grid equals tau_mixed plus containment.

    The right side sits at idx + (l - 1) 3^k on level k, the left side at
    idx + b 3^k on level k + 1, and both grids are complete.
    """
    from pfractal.region import _ChiOracle
    fam = IdealFamily(F3xy, [_ideal(F3xy, *gens) for gens in members])
    seen = []
    chi_at = _ChiOracle.chi_at

    def recorded(self, I, m, s):
        value = chi_at(self, I, m, s)
        seen.append((I, tuple(m), s, value))
        return value

    monkeypatch.setattr(_ChiOracle, "chi_at", recorded)
    k, q = 1, 3
    assert verify_fractal_identity(fam, maximal, 1, b, Box((1, 1)), k)
    grid = list(product(range(q + 1), repeat=2))
    l = fam.gen_counts
    assert {m for _, m, s, _ in seen if s == k} == {
        tuple(i + (l_i - 1) * q for i, l_i in zip(idx, l)) for idx in grid}
    assert {m for _, m, s, _ in seen if s == k + 1} == {
        tuple(i + b_i * q for i, b_i in zip(idx, b)) for idx in grid}
    for I, m, s, value in seen:
        tau = tau_mixed(fam, tuple(Fraction(m_i, 3 ** s) for m_i in m))
        assert value == (0 if ideal_contains(I, tau) else 1), (m, s)


def test_chi_validates_each_sample_once(F3xy, maximal, monkeypatch):
    """A non-principal family skips the shortcut, so only tau_mixed validates."""
    calls = []
    point = IdealFamily.point

    def counted(self, coords):
        calls.append(coords)
        return point(self, coords)

    monkeypatch.setattr(IdealFamily, "point", counted)
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x", "y")])
    phi = sample_chi(fam, maximal, Box((2,)), 2)
    assert len(phi.values) == 19
    assert len(calls) == 19


def test_principal_chi_validates_once_on_both_branches(staircase, maximal, monkeypatch):
    """(1/2, 1/2) is not 3-adic and is windowed; (1/3, 1/3) takes tau_mixed's shortcut."""
    calls = []
    point = IdealFamily.point

    def counted(self, coords):
        calls.append(coords)
        return point(self, coords)

    monkeypatch.setattr(IdealFamily, "point", counted)
    for c in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3))):
        calls.clear()
        chi(staircase, maximal, c)
        assert len(calls) == 1, c


def test_negative_grid_level_rejected(staircase, maximal):
    box = Box((1, 1))
    with pytest.raises(ValueError, match="non-negative"):
        box.shape(3, -1)
    with pytest.raises(ValueError, match="non-negative"):
        GridFunction(3, box, -1, ())
    with pytest.raises(ValueError, match="non-negative"):
        sample_chi(staircase, maximal, box, -1)
    with pytest.raises(ValueError, match="non-negative"):
        verify_fractal_identity(staircase, maximal, 1, (0, 2), box, -1)


def test_chi_grids_need_one_axis_per_member(staircase, maximal):
    with pytest.raises(ValueError, match="axes"):
        sample_chi(staircase, maximal, Box((1,)), 1)
    with pytest.raises(ValueError, match="axes"):
        verify_fractal_identity(staircase, maximal, 1, (0, 2), Box((1, 1, 1)), 1)


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


def test_principal_raster_takes_one_root_per_cell(staircase, monkeypatch):
    """Each cell of an all-principal p-adic raster is one tau_mixed call and one bracket root."""
    import pfractal.region as region
    import pfractal.testideal as ti

    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(region, "tau_mixed")
    for name in ("poly_bracket_root", "skoda_reduce", "_skoda_split", "ideal_product"):
        count(ti, name)
    r = rasterize(staircase, Box((1, 1)), 2)
    assert r.shape == (10, 10)
    assert calls == {"tau_mixed": 100, "poly_bracket_root": 100}


@pytest.mark.parametrize("p,names,gens,box", [
    (3, ["x", "y"], ("x+y", "x*y"), (1, 1)),
    (2, ["x", "y", "z"], ("x+y", "x*y+z", "y*z"), (1, 1, 1)),
], ids=["staircase", "F2-three-members"])
def test_raster_keys_every_presentation_by_its_reduced_basis(p, names, gens, box):
    """Palette and cells equal keying each cell by its reduced basis, first encounter first."""
    ring = Ring(p, names)
    fam = IdealFamily(ring, [_ideal(ring, g) for g in gens])
    r = rasterize(fam, Box(box), 2)
    palette, cells, presentations = [], [], set()
    for idx in product(*map(range, r.shape)):
        tau = tau_mixed(fam, r.point_at(idx))
        presentations.add(tau)
        key = ideal_key(buchberger(tau))
        if key not in palette:
            palette.append(key)
        cells.append(palette.index(key))
    assert (r.palette, r.values) == (tuple(palette), tuple(cells))
    # several presentations share a palette entry, so merging them is exercised
    assert len(presentations) > len(r.palette)


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


def _pointwise_operator(phi, q, b):
    """phi((t + b) / q) at each level k - e grid point t, from rational points; 0 off the box."""
    p, k = phi.p, phi.k
    k_out = k
    while p ** (k - k_out) < q:
        k_out -= 1
    out = []
    for idx in product(*map(range, phi.box.shape(p, k_out))):
        src = [(Fraction(i, p ** k_out) + b_i) / q for i, b_i in zip(idx, b)]
        if all(c <= side for c, side in zip(src, phi.box.sides)):
            out.append(phi.value_at([int(c * p ** k) for c in src]))
        else:
            out.append(0)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fractal_operator_matches_pointwise_reference(p):
    """Random grids, q in {1, p, p^2} and random shifts; points past a side read zero.

    The samples are nonzero, so a zero in the result is a point off the box.
    """
    rng = random.Random(240 + p)
    # only a side below 1 can be run off; at q = p^2 a side of 1/p needs k >= 3
    k = 3
    sides = (Fraction(1, p), 1, 2) if p < 5 else (Fraction(1, p), 1)
    off_box = 0
    for _ in range(6):
        n = rng.randint(1, 2)
        box = Box([rng.choice(sides) for _ in range(n)])
        size = math.prod(box.shape(p, k))
        phi = GridFunction(p, box, k, tuple(rng.randint(1, 9) for _ in range(size)))
        for q in (1, p, p * p):
            shifts = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)]
            for b in set(shifts + [(q - 1,) * n]):
                moved = fractal_operator(phi, q, b)
                assert list(moved.values) == _pointwise_operator(phi, q, b), (box, k, q, b)
                off_box += moved.values.count(0)
    assert off_box


def _downsampled(phi, k_out):
    """phi restricted to the level-k_out grid of its box."""
    factor = phi.p ** (phi.k - k_out)
    values = tuple(phi.value_at([i * factor for i in idx])
                   for idx in product(*map(range, phi.box.shape(phi.p, k_out))))
    return GridFunction(phi.p, phi.box, k_out, values)


def _census_reference(fam, I, box, e_max, ref_level):
    """The census as operator-then-downsample: each rescaling built at its full level first."""
    base = sample_chi(fam, I, box, ref_level + e_max)
    out = []
    for e in range(e_max + 1):
        q = fam.ring.p ** e
        for b in product(range(q), repeat=fam.n):
            fp = _downsampled(fractal_operator(base, q, b), ref_level).fingerprint()
            if fp not in out:
                out.append(fp)
    return out


def test_census_matches_operator_then_downsample(F3xy, staircase, maximal):
    box = Box((1, 1))
    assert fractal_span_census(staircase, maximal, box, 2) == _census_reference(
        staircase, maximal, box, 2, 2)
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x", "y^2"), _ideal(F3xy, "x*y")])
    assert fractal_span_census(fam, maximal, box, 1, ref_level=1) == _census_reference(
        fam, maximal, box, 1, 1)


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
