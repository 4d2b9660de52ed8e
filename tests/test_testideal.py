"""Mixed test ideals, Skoda peeling, F-thresholds and jumping data."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from pfractal import (
    FThresholdResult,
    IdealFamily,
    IdealGens,
    NotStabilizedError,
    Polynomial,
    Ring,
    TauConfig,
    UnboundedError,
    ZeroRegionError,
    bracket_power,
    f_threshold,
    FrobLevel,
    ideal_bracket_root,
    ideal_contains,
    ideal_equal,
    ideal_key,
    ideal_power,
    ideal_product,
    jumping_scan,
    p_adic_level,
    parse_polynomial,
    poly_bracket_root,
    poly_pow,
    reduce_to_single,
    skoda_reduce,
    tau_mixed,
    v_number,
)
from pfractal.testideal import _principal_padic


def _ideal(ring, *texts):
    return IdealGens(ring, [parse_polynomial(t, ring) for t in texts])


def _tau_key(fam, c):
    from pfractal import buchberger
    return ideal_key(buchberger(tau_mixed(fam, c)))


# ------------------------------------------------------------- p-adic plumbing

def test_p_adic_level():
    assert p_adic_level((Fraction(1, 3), Fraction(5, 9)), 3) == 2
    assert p_adic_level((Fraction(2), Fraction(0)), 3) == 0
    assert p_adic_level((Fraction(1, 3), Fraction(1, 2)), 3) is None
    # a level past a machine word is found without dividing it out factor by factor
    assert p_adic_level((Fraction(1, 3 ** 10 ** 6),), 3) == 10 ** 6
    assert p_adic_level((Fraction(1, 2 * 3 ** 100),), 3) is None
    assert p_adic_level((Fraction(2, 3 ** 100 + 1),), 3) is None
    assert all(p_adic_level((Fraction(1, p ** e),), p) == e for p in (2, 3, 5, 7) for e in range(64))


def test_family_validation(F3xy):
    with pytest.raises(ValueError):
        IdealFamily(F3xy, [])
    with pytest.raises(ValueError):
        IdealFamily(F3xy, [IdealGens.zero(F3xy)])
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x+y"), _ideal(F3xy, "x", "y")])
    assert fam.gen_counts == (1, 2)
    assert not fam.all_principal
    with pytest.raises(ValueError):
        fam.point((Fraction(1), Fraction(-1)))
    with pytest.raises(ValueError):
        fam.point((Fraction(1),))


@pytest.mark.parametrize("bad", [Fraction(-1, 3), -1])
def test_family_point_rejects_negative_coordinates(F3xy, bad):
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x+y"), _ideal(F3xy, "x*y")])
    with pytest.raises(ValueError, match="^exponent coordinates must be non-negative$"):
        fam.point((Fraction(1, 3), bad))


# ------------------------------------------------------------------ tau values

def test_tau_principal_pure_power(F3xy):
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x^3*y^2 + x^2*y^3")])
    assert ideal_equal(tau_mixed(fam, (Fraction(1, 3),)), _ideal(F3xy, "x", "y"))
    assert ideal_equal(tau_mixed(fam, (Fraction(0),)), _ideal(F3xy, "1"))
    assert ideal_equal(tau_mixed(fam, (1,)), fam.ideals[0])
    # the exact shortcut applies only at p-adic points
    assert _principal_padic(fam, (Fraction(1, 2),)) is None
    with pytest.raises(ValueError):
        tau_mixed(fam, (Fraction(-1, 3),))


@pytest.mark.parametrize("c,key", [
    ((Fraction(1, 3), Fraction(2, 3)), "x;y"),
    ((Fraction(2, 3), Fraction(1, 3)), "1"),
    ((Fraction(0), Fraction(2, 3)), "1"),
    ((Fraction(1, 3), Fraction(1)), "x*y"),
    ((Fraction(1), Fraction(2, 3)), "x+y"),
    ((Fraction(1), Fraction(1)), "x^2*y+x*y^2"),
    ((Fraction(0), Fraction(0)), "1"),
])
def test_tau_staircase_points(staircase, c, key):
    assert _tau_key(staircase, c) == key


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tau_near_diagonal_corner(staircase, k):
    c = Fraction(3 ** k - 1, 3 ** k)
    assert _tau_key(staircase, (c, c)) == "x;y"


def test_tau_non_p_adic_point(staircase):
    # denominators coprime to 3 go through chain stabilization
    assert _tau_key(staircase, (Fraction(1, 2), Fraction(1, 2))) == "1"


def test_confirm_window_tradeoff(staircase):
    """At (9/10, 9/10) levels 1 and 2 agree on a value that level 3 enlarges.

    The default window of 2 accepts the early value; that is the documented
    meaning of the heuristic, not a silent wrong answer, and a wider window
    finds the true ideal.
    """
    from pfractal import buchberger
    c = (Fraction(9, 10), Fraction(9, 10))
    early = tau_mixed(staircase, c, TauConfig(confirm_window=2))
    assert ideal_key(buchberger(early)) == "x^2*y+x*y^2"
    true = tau_mixed(staircase, c, TauConfig(confirm_window=3, e_max=12))
    assert ideal_key(buchberger(true)) == "x;y"
    assert ideal_contains(true, early)


def test_degree_guard_catches_premature_acceptance(F3xy):
    """Same situation as a single principal ideal: the guard can tell.

    For ((x+y)xy) at 9/10 the bound is floor(3 * 9/10) = 2, and the
    window-2 value is the generator itself of degree 3.
    """
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x^2*y + x*y^2")])
    c = (Fraction(9, 10),)
    with pytest.raises(AssertionError):
        tau_mixed(fam, c, TauConfig(confirm_window=2, degree_check=True))
    guarded = tau_mixed(fam, c,
                        TauConfig(confirm_window=3, e_max=12, degree_check=True))
    assert ideal_equal(guarded, _ideal(F3xy, "x", "y"))


def test_tau_not_stabilized_reports_level(staircase):
    cfg = TauConfig(e_max=1, confirm_window=2)
    with pytest.raises(NotStabilizedError) as info:
        tau_mixed(staircase, (Fraction(1, 2), Fraction(1, 2)), cfg)
    assert info.value.e_max == 1


def test_tau_rejects_bad_point(staircase):
    with pytest.raises(ValueError):
        tau_mixed(staircase, (Fraction(-1, 3), Fraction(0)))
    with pytest.raises(TypeError):
        tau_mixed(staircase, (0.5, 0.5))


# ----------------------------------------------------------------------- skoda

def test_skoda_reduce_basic(staircase):
    factor, residual = skoda_reduce(staircase, (Fraction(7, 3), Fraction(1, 2)))
    assert ideal_equal(factor, _ideal(staircase.ring, "(x+y)^2"))
    assert residual == (Fraction(1, 3), Fraction(1, 2))


def test_skoda_reduce_noop_below_gen_count(staircase):
    factor, residual = skoda_reduce(staircase, (Fraction(2, 3), Fraction(1, 2)))
    assert factor.has_unit_generator()
    assert residual == (Fraction(2, 3), Fraction(1, 2))


def test_skoda_identity_on_tau(staircase):
    """tau(a^(c+1)) = a * tau(a^c) for principal members, c >= 0."""
    from pfractal import buchberger
    f1 = staircase.ring.polynomial("x+y")
    for c in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 9)):
        lhs = tau_mixed(staircase, (c + 1, Fraction(1, 3)))
        inner = tau_mixed(staircase, (c, Fraction(1, 3)))
        rhs = IdealGens(staircase.ring, [f1 * g for g in inner.gens])
        assert ideal_equal(lhs, rhs)


def test_skoda_two_generator_member(F3xy):
    """For a = (x,y) with 2 generators the peel starts at c = 2."""
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x", "y")])
    m = _ideal(F3xy, "x", "y")
    lhs = tau_mixed(fam, (Fraction(2),))
    rhs = IdealGens(F3xy, ideal_product(m, tau_mixed(fam, (Fraction(1),))).gens)
    assert ideal_equal(lhs, rhs)
    factor, residual = skoda_reduce(fam, (Fraction(5, 2),))
    assert residual == (Fraction(3, 2),)
    assert ideal_equal(factor, m)
    # Howald: tau((x,y)^c) = (x,y)^(floor(c) - 1), peeled once and then windowed
    m2 = ideal_product(m, m)
    for c, expect in ((Fraction(7, 3), m), (Fraction(5, 2), m), (Fraction(8, 3), m),
                      (Fraction(7, 2), m2)):
        for cfg in (TauConfig(), TauConfig(degree_check=True)):
            assert ideal_equal(tau_mixed(fam, (c,), cfg), expect), (c, cfg)


def test_windowed_tau_keys_do_not_depend_on_the_power_route(monkeypatch):
    """ideal_power and a chain of repeated products give the window the same keys.

    This checks that the route to I^m changes no tau value, not that the
    values are true: at 17/9 the window accepts (x, y) for (x, y)^(17/9),
    whose test ideal is R (Howald).
    """
    import pfractal.testideal as ti

    F3xyz = Ring(3, ["x", "y", "z"])
    F3xy = Ring(3, ["x", "y"])
    members = [_ideal(F3xy, "x", "y"), _ideal(F3xy, "x^2", "y^3"),
               _ideal(F3xyz, "x", "y", "z"), _ideal(F3xy, "x^2", "x*y+y^2")]
    families = [IdealFamily(I.ring, [I]) for I in members]

    def grid(top):
        return sorted({Fraction(n, d) for d in (9, 4) for n in range(d * top + 1)})

    cases = [(fam, (c,)) for fam in families for c in grid(fam.gen_counts[0])]
    keys = [ideal_key(tau_mixed(fam, c)) for fam, c in cases]
    chains = {}

    def repeated_products(I, m):
        chain = chains.setdefault(I, [IdealGens.unit(I.ring)])
        while len(chain) <= m:
            chain.append(ideal_product(chain[-1], I))
        return chain[m]

    monkeypatch.setattr(ti, "ideal_power", repeated_products)
    assert [ideal_key(tau_mixed(fam, c)) for fam, c in cases] == keys
    assert keys[cases.index((families[0], (Fraction(17, 9),)))] == "x;y"


def test_reduce_to_single(staircase):
    J = reduce_to_single(staircase, (2, 3))
    f1 = staircase.ring.polynomial("x+y")
    f2 = staircase.ring.polynomial("x*y")
    expect = IdealGens(staircase.ring, [f1 * f1 * f2 * f2 * f2])
    assert ideal_equal(J, expect)
    with pytest.raises(ValueError):
        reduce_to_single(staircase, (0, 0))
    with pytest.raises(ValueError):
        reduce_to_single(staircase, (-1, 1))


def _peeled_principal_gens(fam, c):
    """tau(a^c) as Skoda factor times the root of the residual product, at a p-adic point."""
    factor, residual = skoda_reduce(fam, c)
    m, s = _principal_padic(fam, residual)
    g = fam.ring.one()
    for a_i, m_i in zip(fam.ideals, m):
        g = g * poly_pow(a_i.gens[0], m_i)
    core = poly_bracket_root(g, FrobLevel(fam.ring.p, s))
    return core.gens if factor.has_unit_generator() else ideal_product(factor, core).gens


def _principal_family(ring, *texts):
    return IdealFamily(ring, [_ideal(ring, t) for t in texts])


@pytest.mark.parametrize("case", ["staircase", "cusp", "three"])
def test_principal_padic_tau_needs_no_skoda(case, monkeypatch):
    """One root of the whole product gives the peeled generators, element by element."""
    import pfractal.testideal as ti

    if case == "staircase":
        ring = Ring(3, ["x", "y"])
        fam, q, top = _principal_family(ring, "x+y", "x*y"), 9, (2, 2)
    elif case == "cusp":
        ring = Ring(5, ["x", "y"])
        fam, q, top = _principal_family(ring, "x^2+y^3"), 25, (3,)
    else:
        ring = Ring(2, ["x", "y", "z"])
        fam, q, top = _principal_family(ring, "x+y", "y+z*x", "x*z+1"), 4, (2, 1, 2)
    points = [tuple(Fraction(i, q) for i in idx)
              for idx in itertools.product(*(range(t * q + 1) for t in top))]
    want = [_peeled_principal_gens(fam, c) for c in points]
    splits = []
    monkeypatch.setattr(ti, "_skoda_split", lambda *a: splits.append(a))
    assert [tau_mixed(fam, c).gens for c in points] == want
    assert not splits
    assert sum(any(x >= 1 for x in c) for c in points) > len(points) // 2


def test_principal_point_off_the_p_adic_grid_is_peeled(staircase, monkeypatch):
    """(1/2, 1/2) is not 3-adic: it is split once and its residual goes through the window."""
    import pfractal.testideal as ti

    splits, windows = [], []
    split, window = ti._skoda_split, ti._windowed_tau

    def counted_split(fam, point):
        splits.append(point)
        return split(fam, point)

    def counted_window(fam, point, cfg):
        windows.append(point)
        return window(fam, point, cfg)

    monkeypatch.setattr(ti, "_skoda_split", counted_split)
    monkeypatch.setattr(ti, "_windowed_tau", counted_window)
    half = Fraction(1, 2)
    for c, residual in (((half, half), (half, half)), ((1 + half, half), (half, half))):
        splits.clear()
        windows.clear()
        tau_mixed(staircase, c)
        assert splits == [c] and windows == [residual]


# ------------------------------------------------------------------- v numbers

def test_v_number_staircase(staircase, maximal):
    assert v_number(staircase, (1, 1), maximal, 1) == 1
    assert v_number(staircase, (1, 1), maximal, 2) == 5
    assert v_number(staircase, (1, 1), maximal, 3) == 17


def test_v_number_zero_region(staircase):
    unit = IdealGens.unit(staircase.ring)
    with pytest.raises(ZeroRegionError):
        v_number(staircase, (1, 1), unit, 1)


def test_v_number_unbounded(F3xy):
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x")])
    I = _ideal(F3xy, "y")
    with pytest.raises(UnboundedError):
        v_number(fam, (1,), I, 1)


def test_no_power_enters_a_monomial_target_fails_fast(F3xy, maximal, monkeypatch):
    """A constant term keeps every power of x*y+y^2+2 outside (x, y): no doubling."""
    import pfractal.testideal as ti

    fam = IdealFamily(F3xy, [_ideal(F3xy, "x*y+y^2+2")])
    probes = []
    product_of_powers = ti._product_of_powers

    def counted(fam, exponents):
        probes.append(tuple(exponents))
        return product_of_powers(fam, exponents)

    monkeypatch.setattr(ti, "_product_of_powers", counted)
    with pytest.raises(UnboundedError, match="radical"):
        v_number(fam, (1,), maximal, 1)
    assert max(probes) == (1,)
    # (x+y^2, y) is (x, y) presented with a binomial: the reduced basis decides
    for I in (_ideal(F3xy, "x^2", "y"), _ideal(F3xy, "x+y^2", "y")):
        probes.clear()
        with pytest.raises(UnboundedError, match="radical"):
            f_threshold(fam, (1,), I, 2)
        assert max(probes) == (1,)
    # inside the radical of a monomial target, and any non-monomial target, search as before
    I = _ideal(F3xy, "x", "y^2+2")
    v = v_number(fam, (1,), I, 1)
    target, J = bracket_power(I, FrobLevel(3, 1)), fam.ideals[0]
    assert not ideal_contains(target, ideal_power(J, v))
    assert ideal_contains(target, ideal_power(J, v + 1))
    # (x+y)^6 = x^6 + 2x^3y^3 + y^6 lies in (x^6, y^3); (x+y)^5 has the term x^3y^2
    assert v_number(IdealFamily(F3xy, [_ideal(F3xy, "x+y")]), (1,), _ideal(F3xy, "x^2", "y"), 1) == 5


def test_v_number_level_shift(staircase, maximal):
    """V(e+1) against I equals V(e) against I^[p] divided in the same grid."""
    lvl = FrobLevel(3, 1)
    for e in (1, 2):
        direct = v_number(staircase, (1, 1), maximal, e + 1)
        shifted = v_number(staircase, (1, 1), bracket_power(maximal, lvl), e)
        # a^(m r) not in I^[p^(e+1)] iff a^(m r) not in (I^[p])^[p^e]
        assert direct == shifted


@pytest.mark.parametrize("p", [2, 3, 5])
def test_threshold_search_on_a_non_principal_product(p):
    """(x, y)^m lies in (x^q, y^q) exactly when m >= 2q - 1, so v(q) = 2q - 2."""
    ring = Ring(p, ["x", "y"])
    maximal = _ideal(ring, "x", "y")
    fam = IdealFamily(ring, [maximal])
    for e in (1, 2, 3):
        assert v_number(fam, (1,), maximal, e) == 2 * p ** e - 2
    res = f_threshold(fam, (1,), maximal, 3)
    assert res.values == tuple(Fraction(2 * p ** e - 2, p ** e) for e in (1, 2, 3))


@pytest.mark.parametrize("p,names,e_max", [(3, "xy", 7), (5, "xy", 4), (2, "xyz", 5)])
def test_maximal_ideal_v_numbers_against_itself(p, names, e_max):
    """m = (x_1, ..., x_n): m^k lies in m^[q] exactly when k > n(q - 1), so v_e = n(p^e - 1).

    Each probe raises m to a power near n p^e, one generator per monomial.
    """
    ring = Ring(p, list(names))
    maximal = _ideal(ring, *names)
    res = f_threshold(IdealFamily(ring, [maximal]), (1,), maximal, e_max)
    n = len(names)
    assert res.values == tuple(Fraction(n * (p ** e - 1), p ** e) for e in range(1, e_max + 1))
    assert res.upper == n


def test_f_threshold_staircase(staircase, maximal):
    res = f_threshold(staircase, (1, 1), maximal, 3)
    assert isinstance(res, FThresholdResult)
    assert [str(v) for v in res.values] == ["1/3", "5/9", "17/27"]
    assert res.values[-1] == Fraction(17, 27)
    assert res.values[0] < res.values[1] < res.values[2]
    assert res.values[-1] <= res.upper


def test_f_threshold_monotone_values(staircase, maximal):
    """The normalized sequence V_e / p^e never decreases."""
    res = f_threshold(staircase, (1, 1), maximal, 4)
    for a, b in zip(res.values, res.values[1:]):
        assert a <= b


# ------------------------------------------------ principal v numbers by digits

def _ceil_minus_one(fpt, q):
    return -(-fpt.numerator * q // fpt.denominator) - 1


@pytest.mark.parametrize("p,fpt,e_max", [
    (2, Fraction(1, 2), 30),
    (3, Fraction(2, 3), 20),
    (5, Fraction(4, 5), 12),
    (7, Fraction(5, 6), 10),
    (11, Fraction(9, 11), 8),
])
def test_cusp_v_numbers_at_deep_levels(p, fpt, e_max):
    """x^2+y^3 against (x, y): v_e = ceil(fpt p^e) - 1 (Mustata-Takagi-Watanabe).

    fpt(x^2+y^3) is 1/2, 2/3 and 4/5 for p = 2, 3, 5, 5/6 for p = 1 mod 6
    and 5/6 - 1/(6p) for p = 5 mod 6 (p > 5).
    """
    fam, maximal = _cusp(p)
    res = f_threshold(fam, (1,), maximal, e_max)
    assert res.values == tuple(Fraction(_ceil_minus_one(fpt, p ** e), p ** e)
                               for e in range(1, e_max + 1))
    assert res.upper == 1


@pytest.mark.parametrize("p,e_max", [(2, 70), (3, 45), (5, 30), (7, 25)])
def test_linear_form_v_numbers_past_a_machine_word(p, e_max):
    """x+y against (x, y): v_e = p^e - 1, at levels where p^e exceeds 2^63."""
    ring = Ring(p, ["x", "y"])
    fam = IdealFamily(ring, [_ideal(ring, "x+y")])
    res = f_threshold(fam, (1,), _ideal(ring, "x", "y"), e_max)
    assert res.values == tuple(Fraction(p ** e - 1, p ** e) for e in range(1, e_max + 1))
    assert v_number(fam, (1,), _ideal(ring, "x", "y"), 0) == 0


def test_staircase_v_numbers_at_deep_levels(staircase, maximal):
    """x^2 y + x y^2 over F_3 against (x, y): v_e = 2 3^(e-1) - 1."""
    res = f_threshold(staircase, (1, 1), maximal, 15)
    assert res.values == tuple(Fraction(2 * 3 ** (e - 1) - 1, 3 ** e) for e in range(1, 16))
    assert res.upper == 1


def test_staircase_v_numbers_past_a_machine_word(staircase, maximal):
    """The closed form v_e = 2 3^(e-1) - 1 holds up to e = 40, where 3^e exceeds 2^63."""
    res = f_threshold(staircase, (1, 1), maximal, 40)
    assert res.values == tuple(Fraction(2 * 3 ** (e - 1) - 1, 3 ** e) for e in range(1, 41))
    assert res.upper == 1


def _digit_chain(g, m, p, e):
    """S_e g^floor(m/p^e) with S_0 = R and S_(j+1) = (S_j g^(d_j))^[1/p]."""
    import pfractal.testideal as ti

    single = IdealFamily(g.ring, [IdealGens(g.ring, [g])])
    S = IdealGens.unit(g.ring)
    for _ in range(e):
        m, d = divmod(m, p)
        S = ti._digit_step(single, S, (d,))
    return ideal_product(S, IdealGens(g.ring, [poly_pow(g, m)]))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_chain_is_the_bracket_root(p):
    """Adjunction, root composition and projection: the chain equals (g^m)^[1/p^e]."""
    rng = random.Random(900 + p)
    for n_vars in (1, 2, 3):
        ring = Ring(p, ["x", "y", "z"][:n_vars])
        for _ in range(8):
            g = _random_poly(ring, rng, deg=2 if n_vars == 3 else 3)
            e = rng.randint(0, 3)
            m = rng.randint(0, 2 * p ** e + p)
            assert ideal_equal(_digit_chain(g, m, p, e),
                               poly_bracket_root(poly_pow(g, m), FrobLevel(p, e)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_table_reads_the_bracket_root(p):
    """One table per g, read at many m: S_e g^t equals (g^m)^[1/p^e] on hits and misses."""
    import pfractal.testideal as ti

    rng = random.Random(950 + p)
    for n_vars in (1, 2, 3):
        ring = Ring(p, ["x", "y", "z"][:n_vars])
        for _ in range(3):
            g = _random_poly(ring, rng, deg=2 if n_vars == 3 else 3)
            table = ti._DigitTable(IdealFamily(ring, [IdealGens(ring, [g])]), None)
            e = rng.randint(1, 3)
            reads = 0
            for m in range(min(2 * p ** e + p, 30)):
                S, t = table.read(m, e)
                reads += e
                assert t == m // p ** e
                assert ideal_equal(ideal_product(S, IdealGens(ring, [poly_pow(g, t)])),
                                   poly_bracket_root(poly_pow(g, m), FrobLevel(p, e)))
            assert len(table.steps) < reads  # some transitions were read from the table


def test_principal_searches_take_each_digit_transition_once(staircase, maximal, monkeypatch):
    """No (state, digit vector) pair reaches _digit_step twice within one search."""
    import pfractal.testideal as ti

    steps = []
    digit_step = ti._digit_step

    def recorded(fam, S, d):
        steps.append((S, d))
        return digit_step(fam, S, d)

    monkeypatch.setattr(ti, "_digit_step", recorded)
    f_threshold(staircase, (1, 1), maximal, 8)
    assert steps and len(steps) == len(set(steps))
    steps.clear()
    jumping_scan(staircase, (1, 1), 5, 1)
    assert steps and len(steps) == len(set(steps))


def _redundant(fam):
    """Each principal (g) presented as (g, -g): two generators take the product route."""
    return IdealFamily(fam.ring, [IdealGens(fam.ring, [a.gens[0], -a.gens[0]])
                                  for a in fam.ideals])


@pytest.mark.parametrize("texts,targets", [
    (("x+y", "x*y"), (("x", "y"), ("x^2", "y"), ("x+y^2", "x*y"))),
    (("x^2+y^3",), (("x", "y"), ("x^3", "x*y", "y^2"), ("x^2+y", "y^3"))),
    (("x*y+y^2",), (("x", "y"), ("x^2", "y^2"), ("x+y", "y^3"))),
], ids=["staircase", "cusp", "binomial"])
def test_principal_route_matches_the_product_route(F3xy, texts, targets):
    """v_number of a principal J equals that of J presented with a redundant generator."""
    fam = IdealFamily(F3xy, [_ideal(F3xy, t) for t in texts])
    r = (1,) * fam.n
    for gens in targets:
        I = _ideal(F3xy, *gens)
        for e in (1, 2, 3):
            assert v_number(fam, r, I, e) == v_number(_redundant(fam), r, I, e)


def test_digit_chain_drops_a_unit_holding_root(monkeypatch):
    """A root with a unit generator comes back as (1); the chain keeps its meaning.

    Over F_7 this g sends most digit steps of its v-number searches against
    (x, y, z) to the unit ideal.  Each v_e is checked at both ends: the digit
    chain at m = v_e and v_e + 1 equals the root of the whole product
    (g^m)^[1/7^e] (g^244 has 2.9 million terms, so e = 3 is checked at its
    upper end only), and a chain of plain roots decides both ends alike.
    """
    import pfractal.testideal as ti

    ring, p = Ring(7, ["x", "y", "z"]), 7
    g = parse_polynomial("2*x^3*y^2*z^2+3*x^3*z^2+2*x*y^2*z+2*x^2*z^2+3*x^3", ring)
    fam, I = IdealFamily(ring, [IdealGens(ring, [g])]), _ideal(ring, "x", "y", "z")
    outputs = []
    digit_step = ti._digit_step

    def recorded(*args):
        outputs.append(digit_step(*args))
        return outputs[-1]

    monkeypatch.setattr(ti, "_digit_step", recorded)
    v = [v_number(fam, (1,), I, e) for e in (1, 2, 3)]
    monkeypatch.undo()
    assert v == [4, 34, 244]
    units = [S for S in outputs if S.has_unit_generator()]
    assert units and all(S.gens == (ring.one(),) for S in units)

    def plain_chain(m, e):
        S = IdealGens.unit(ring)
        for _ in range(e):
            m, d = divmod(m, p)
            S = ideal_bracket_root(ideal_product(S, IdealGens(ring, [poly_pow(g, d)])),
                                   FrobLevel(p, 1))
        return ideal_product(S, IdealGens(ring, [poly_pow(g, m)]))

    for e, v_e in zip((1, 2, 3), v):
        for m, inside in ((v_e, False), (v_e + 1, True)):
            chain = _digit_chain(g, m, p, e)
            assert ideal_contains(I, chain) is inside
            assert ideal_contains(I, plain_chain(m, e)) is inside
            if m != 244:
                assert ideal_equal(chain, poly_bracket_root(poly_pow(g, m), FrobLevel(p, e)))
    assert v_number(_redundant(fam), (1,), I, 1) == v[0]


def test_non_principal_searches_take_no_digit_step(F3xy, staircase, maximal, monkeypatch):
    import pfractal.testideal as ti

    steps = []
    digit_step = ti._digit_step

    def counted(*args):
        steps.append(args[2])
        return digit_step(*args)

    monkeypatch.setattr(ti, "_digit_step", counted)
    planes, xyz = _two_planes()
    for fam, r, I in ((planes, (1, 1), xyz), (IdealFamily(F3xy, [maximal]), (1,), maximal),
                      (_redundant(staircase), (1, 1), maximal)):
        f_threshold(fam, r, I, 3)
        v_number(fam, r, I, 2)
    assert steps == []
    f_threshold(staircase, (1, 1), maximal, 3)
    assert steps and all(len(d) == 1 and 0 <= d[0] < 3 for d in steps)


# ---------------------------------------------------------------- jumping scan

def test_jumping_scan_principal_line(staircase):
    ring = staircase.ring
    jumps = jumping_scan(staircase, (1, 1), 2, Fraction(1))
    keys = [(str(j.lo), str(j.hi), j.key_before, j.key_after) for j in jumps]
    assert keys == [
        ("5/9", "2/3", "1", "x;y"),
        ("8/9", "1", "x;y", "x^2*y+x*y^2"),
    ]


def test_jumping_scan_single_axis(F3xy):
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x^2")])
    jumps = jumping_scan(fam, (1,), 2, Fraction(1))
    # tau((x^2)^c) jumps at multiples of 1/2 in the 1/9 grid: first at 4/9->5/9
    assert jumps[0].key_before == "1"
    assert jumps[0].key_after == "x"
    assert jumps[0].hi == Fraction(5, 9)
    assert jumps[-1].key_after == "x^2"
    assert jumps[-1].hi == Fraction(1)


def test_jumping_scan_requires_positive_direction(staircase):
    with pytest.raises(ValueError):
        jumping_scan(staircase, (0, 0), 1, Fraction(1))


def _full_scan(fam, r, k, bound):
    """The jump records of a scan that evaluates tau at every grid point."""
    single = IdealFamily(fam.ring, [reduce_to_single(fam, r)])
    q = fam.ring.p ** k
    top = math.ceil(Fraction(bound) * q)
    keys = [ideal_key(tau_mixed(single, (Fraction(m, q),))) for m in range(top + 1)]
    return [(Fraction(m - 1, q), Fraction(m, q), keys[m - 1], keys[m])
            for m in range(1, top + 1) if keys[m] != keys[m - 1]]


def _records(jumps):
    return [(j.lo, j.hi, j.key_before, j.key_after) for j in jumps]


@pytest.mark.parametrize("p,texts,k_max", [
    (2, ("x^2+y^3",), 4),
    (2, ("x+y", "x*y"), 4),
    (3, ("x+y", "x*y"), 4),
    (3, ("x^2",), 4),
    (5, ("x^2+y^3",), 3),
    (5, ("x^2*y+x*y^3",), 2),
    (7, ("x^3+y^4",), 2),
    (7, ("x*y*(x+y)",), 2),
])
def test_jumping_scan_matches_a_full_scan(p, texts, k_max):
    """Bisection on a principal weighted product finds every jump of the full scan.

    Two independent routes: the scan reads each key off its digit table, and
    the full scan takes tau_mixed, one root of g^m, at every grid point.
    """
    ring = Ring(p, ["x", "y"])
    fam = IdealFamily(ring, [_ideal(ring, t) for t in texts])
    r = (1,) * len(texts)
    for k in range(k_max + 1):
        for bound in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            assert _records(jumping_scan(fam, r, k, bound)) == _full_scan(fam, r, k, bound)


def test_jumping_scan_non_principal_matches_a_full_scan(F3xy):
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x", "y")])
    assert _records(jumping_scan(fam, (1,), 2, 2)) == _full_scan(fam, (1,), 2, 2)


def _count_tau_calls(monkeypatch):
    import pfractal.testideal as testideal
    calls = []
    original = testideal.tau_mixed

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(testideal, "tau_mixed", counted)
    return calls


def test_jumping_scan_bisects_a_principal_line(staircase, monkeypatch):
    calls = _count_tau_calls(monkeypatch)
    jumps = jumping_scan(staircase, (1, 1), 5, 1)
    assert [(str(j.lo), str(j.hi)) for j in jumps] == [("161/243", "2/3"), ("242/243", "1")]
    assert len(calls) <= 40
    assert len(calls) == len(set(calls))


def test_jumping_scan_takes_no_tau_on_a_principal_line(staircase, monkeypatch):
    calls = _count_tau_calls(monkeypatch)
    jumps = jumping_scan(staircase, (1, 1), 5, 1)
    assert [(str(j.lo), str(j.hi)) for j in jumps] == [("161/243", "2/3"), ("242/243", "1")]
    assert calls == []


def test_jumping_scan_walks_every_windowed_point(F3xy, monkeypatch):
    """Window values need not be antitone: every grid point is evaluated, in order."""
    calls = _count_tau_calls(monkeypatch)
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x", "y")])
    jumping_scan(fam, (1,), 2, 2)
    assert calls == [(Fraction(m, 9),) for m in range(19)]


def _staircase_and_maximal():
    ring = Ring(3, ["x", "y"])
    return IdealFamily(ring, [_ideal(ring, "x+y"), _ideal(ring, "x*y")]), _ideal(ring, "x", "y")


def _cusp(p):
    ring = Ring(p, ["x", "y"])
    return IdealFamily(ring, [_ideal(ring, "x^2+y^3")]), _ideal(ring, "x", "y")


def _monomial():
    ring = Ring(3, ["x", "y"])
    return IdealFamily(ring, [_ideal(ring, "x^2", "y^3")]), _ideal(ring, "x", "y")


def _two_planes():
    ring = Ring(3, ["x", "y", "z"])
    fam = IdealFamily(ring, [_ideal(ring, "x", "y"), _ideal(ring, "x", "z")])
    return fam, _ideal(ring, "x", "y", "z")


def _linear_form():
    ring = Ring(3, ["x", "y"])
    return IdealFamily(ring, [_ideal(ring, "x+y")]), _ideal(ring, "x", "y")


def _maximal_against_itself():
    ring = Ring(3, ["x", "y"])
    maximal = _ideal(ring, "x", "y")
    return IdealFamily(ring, [maximal]), maximal


def _non_monomial_target():
    ring = Ring(3, ["x", "y"])
    return IdealFamily(ring, [_ideal(ring, "x*y+y^2+2")]), _ideal(ring, "x", "y^2+2")


def _seven_poly():
    """The F_7 polynomial whose digit steps mostly reach the unit ideal."""
    ring = Ring(7, ["x", "y", "z"])
    g = "2*x^3*y^2*z^2+3*x^3*z^2+2*x*y^2*z+2*x^2*z^2+3*x^3"
    return IdealFamily(ring, [_ideal(ring, g)]), _ideal(ring, "x", "y", "z")


def _inside(fam, r, I, e, m):
    """J^m in I^[p^e] straight from the definition: no digit chain and no private helper."""
    return ideal_contains(bracket_power(I, FrobLevel(fam.ring.p, e)),
                          ideal_power(reduce_to_single(fam, r), m))


def _bisect(inside, lo, hi):
    """The least m in (lo, hi] with inside(m), for a monotone inside that holds at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _brute_v(fam, r, I, e):
    """v_e by doubling from m = 1 at level e, then bisecting, on the in-test predicate."""
    hi = 1
    while not _inside(fam, r, I, e, hi):
        hi *= 2
    return _bisect(lambda m: _inside(fam, r, I, e, m), hi // 2, hi) - 1


@pytest.mark.parametrize("make,r,e_max", [
    (_staircase_and_maximal, (1, 1), 6),
    (lambda: _cusp(2), (1,), 6),
    (lambda: _cusp(5), (1,), 4),
    (_monomial, (1,), 4),
    (_two_planes, (1, 1), 3),
    (_non_monomial_target, (1,), 3),
    (_seven_poly, (1,), 2),
], ids=["staircase", "cusp-p2", "cusp-p5", "monomial", "two-planes", "non-monomial-target",
        "seven-poly"])
def test_f_threshold_matches_v_number_at_every_level(make, r, e_max):
    """Both read one chain; each is checked against a brute-force v_e at every level."""
    fam, I = make()
    p = fam.ring.p
    brute = [_brute_v(fam, r, I, e) for e in range(e_max + 1)]
    assert [v_number(fam, r, I, e) for e in range(e_max + 1)] == brute
    res = f_threshold(fam, r, I, e_max)
    assert res.values == tuple(Fraction(brute[e], p ** e) for e in range(1, e_max + 1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_v_number_bracket_from_the_level_before(p):
    """p v_e <= v_(e+1) <= p (v_e + 1) + (s - 1)(p - 1) - 1 with s generators of J."""
    ring = Ring(p, ["x", "y"])
    rng = random.Random(800 + p)
    maximal = _ideal(ring, "x", "y")
    checked = 0
    while checked < 6:
        members = [IdealGens(ring, [_random_poly(ring, rng, deg=2, nterms=2)
                                    for _ in range(rng.randint(1, 2))])
                   for _ in range(rng.randint(1, 2))]
        if any((0, 0) in g.terms or not g.terms for a in members for g in a.gens):
            continue  # every member must lie in (x, y), or no power of J does
        fam = IdealFamily(ring, members)
        r = tuple(rng.randint(1, 2) for _ in members)
        s = len(reduce_to_single(fam, r).gens)
        v = [v_number(fam, r, maximal, e) for e in range(1, 4 if p < 5 else 3)]
        for lower, upper in zip(v, v[1:]):
            assert p * lower <= upper <= p * (lower + 1) + (s - 1) * (p - 1) - 1
        checked += 1


def _two_search_f_threshold(fam, r, I, e_max):
    """f_threshold as two searches: v_1 by doubling, and l by a second doubling at level 0."""
    p = fam.ring.p
    s = len(reduce_to_single(fam, r).gens)
    v = _brute_v(fam, r, I, 1)
    values = [Fraction(v, p)]
    for e in range(2, e_max + 1):
        v = _bisect(lambda m: _inside(fam, r, I, e, m),
                    p * v, p * (v + 1) + (s - 1) * (p - 1)) - 1
        values.append(Fraction(v, p ** e))
    return FThresholdResult(tuple(values), Fraction((_brute_v(fam, r, I, 0) + 1) * s))


@pytest.mark.parametrize("make,r,e_max", [
    (_staircase_and_maximal, (1, 1), 8),
    (lambda: _cusp(2), (1,), 6),
    (lambda: _cusp(3), (1,), 6),
    (lambda: _cusp(5), (1,), 4),
    (_linear_form, (1,), 6),
    (_maximal_against_itself, (1,), 5),
    (_monomial, (1,), 4),
    (_non_monomial_target, (1,), 3),
], ids=["staircase", "cusp-p2", "cusp-p3", "cusp-p5", "linear-form", "maximal", "monomial",
        "non-monomial-target"])
def test_one_search_f_threshold_matches_two_searches(make, r, e_max):
    """v_0 = l - 1 from one doubling at level 0 gives the values and upper l s of two searches."""
    fam, I = make()
    assert f_threshold(fam, r, I, e_max) == _two_search_f_threshold(fam, r, I, e_max)


@pytest.mark.parametrize("make,r", [(_maximal_against_itself, (1,)), (_two_planes, (1, 1))],
                         ids=["maximal", "two-planes"])
def test_v_number_bisects_each_level_inside_its_bracket(make, r, monkeypatch):
    """v_number(e=3) climbs the chain: every level-3 probe lies in the bracket from v_2.

    The exponents reaching _product_of_powers are the weighted product r
    and then the probes m r; bracket_power marks where each level starts,
    and each level's I^[p^e] is built once.
    """
    import pfractal.testideal as ti

    fam, I = make()
    p = fam.ring.p
    s = len(reduce_to_single(fam, r).gens)
    v_2 = _brute_v(fam, r, I, 2)
    log = []
    product_of_powers, bracket = ti._product_of_powers, ti.bracket_power

    def probed(fam, exponents):
        log.append(tuple(exponents))
        return product_of_powers(fam, exponents)

    def levelled(I, level):
        log.append(("level", level.e))
        return bracket(I, level)

    monkeypatch.setattr(ti, "_product_of_powers", probed)
    monkeypatch.setattr(ti, "bracket_power", levelled)
    v_number(fam, r, I, 3)
    level_3 = log[log.index(("level", 3)) + 1:]
    assert level_3 and all(exps == tuple(exps[0] // r[0] * r_i for r_i in r) for exps in level_3)
    assert all(p * v_2 < exps[0] // r[0] <= p * (v_2 + 1) + (s - 1) * (p - 1) for exps in level_3)
    assert [x for x in log if x[0] == "level"] == [("level", e) for e in (1, 2, 3)]


def test_non_principal_level_past_a_machine_word_fails_before_any_search(monkeypatch):
    """3^40 exceeds a machine word: (x, y) against itself probes no power but J itself."""
    import pfractal.testideal as ti

    fam, I = _maximal_against_itself()
    product_of_powers = ti._product_of_powers

    def only_r(fam, exponents):
        if tuple(exponents) != (1,):
            raise AssertionError(f"probe {tuple(exponents)} before the level check")
        return product_of_powers(fam, exponents)

    monkeypatch.setattr(ti, "_product_of_powers", only_r)
    for search in (lambda: f_threshold(fam, (1,), I, 40), lambda: v_number(fam, (1,), I, 40)):
        with pytest.raises(OverflowError, match=r"^p\^e = 3\^40 exceeds machine word$"):
            search()


def test_one_search_f_threshold_errors(F3xy, staircase, maximal):
    with pytest.raises(ZeroRegionError):
        f_threshold(staircase, (1, 1), IdealGens.unit(F3xy), 3)
    fam = IdealFamily(F3xy, [_ideal(F3xy, "x*y+y^2+2")])
    with pytest.raises(UnboundedError, match=r"^v-number search: .* radical"):
        f_threshold(fam, (1,), maximal, 1)


def test_all_zero_weights_rejected_before_any_search(staircase, maximal):
    for search in (lambda: v_number(staircase, (0, 0), maximal, 1),
                   lambda: f_threshold(staircase, (0, 0), maximal, 3)):
        with pytest.raises(ValueError, match="at least one weight must be positive"):
            search()


# -------------------------------------------------------------- random suites

def _random_poly(ring, rng, deg=3, nterms=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, deg) for _ in range(ring.arity))
        terms[e] = rng.randint(1, ring.p - 1)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tau_antitone_random(p):
    """c <= c' pointwise implies tau(a^c') contained in tau(a^c)."""
    ring = Ring(p, ["x", "y"])
    rng = random.Random(600 + p)
    for _ in range(25):
        f = _random_poly(ring, rng)
        if f.is_constant:
            continue
        fam = IdealFamily(ring, [IdealGens(ring, [f])])
        e1 = rng.randint(0, 2)
        a = Fraction(rng.randint(0, p ** e1), p ** e1)
        b = a + Fraction(rng.randint(0, 4), p ** rng.randint(0, 2))
        small = tau_mixed(fam, (a,))
        big = tau_mixed(fam, (b,))
        assert ideal_contains(small, big)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tau_principal_representation_free(p):
    """tau(f^(m/q)) at the reduced fraction equals the root of f^m at the unreduced level."""
    ring = Ring(p, ["x", "y"])
    rng = random.Random(700 + p)
    for _ in range(25):
        f = _random_poly(ring, rng)
        if f.is_constant:
            continue
        m = rng.randint(0, p ** 2)
        fam = IdealFamily(ring, [IdealGens(ring, [f])])
        via_fraction = tau_mixed(fam, (Fraction(m, p ** 2),))
        via_parts = poly_bracket_root(poly_pow(f, m), FrobLevel(p, 2))
        assert ideal_equal(via_fraction, via_parts)


def test_tau_config_validation():
    with pytest.raises(ValueError):
        TauConfig(e_max=0)
    with pytest.raises(ValueError):
        TauConfig(confirm_window=0)
