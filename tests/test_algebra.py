"""Rings, sparse polynomials, the parser and ideal generator lists."""

import random
from fractions import Fraction

import pytest

from pfractal import (
    ExponentOverflowError,
    IdealGens,
    PolyParseError,
    Polynomial,
    Ring,
    UnknownVariableError,
    as_fraction,
    grevlex_key,
    ideal_power,
    ideal_product,
    lucas_binomial,
    parse_polynomial,
    poly_pow,
)
from pfractal.algebra import MAX_EXPONENT, _pow_small


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(4, ["x"])
    with pytest.raises(ValueError):
        Ring(3, [])
    with pytest.raises(ValueError):
        Ring(3, ["x", "x"])
    with pytest.raises(ValueError):
        Ring(3, ["2bad"])
    r = Ring(7, ["a", "b", "c"])
    assert r.arity == 3 and r.p == 7


def test_ring_equality_and_repr():
    assert Ring(3, ["x", "y"]) == Ring(3, ["x", "y"])
    assert Ring(3, ["x", "y"]) != Ring(5, ["x", "y"])
    assert repr(Ring(3, ["x", "y"])) == "F_3[x,y]"


@pytest.mark.parametrize("text,expected_terms", [
    ("0", {}),
    ("1", {(0, 0): 1}),
    ("5", {(0, 0): 2}),
    ("x", {(1, 0): 1}),
    ("x*y", {(1, 1): 1}),
    ("x^2*y + 2*x", {(2, 1): 1, (1, 0): 2}),
    ("x - y", {(1, 0): 1, (0, 1): 2}),
    ("(x + y)^3", {(3, 0): 1, (0, 3): 1}),
    ("2*(x + y)*(x + 2*y)", {(2, 0): 2, (0, 2): 1}),
    ("x^3*y^2 + x^2*y^3", {(3, 2): 1, (2, 3): 1}),
    ("3*x + y", {(0, 1): 1}),
])
def test_parse(F3xy, text, expected_terms):
    assert parse_polynomial(text, F3xy).terms == expected_terms


@pytest.mark.parametrize("bad", [
    "", "x +", "* x", "x ^", "x^-1", "x^1^2", "(x", "x)", "z", "x**2",
    "x^", "1 2", "-x", "x^2.5",
])
def test_parse_rejects(F3xy, bad):
    with pytest.raises(PolyParseError):
        parse_polynomial(bad, F3xy)


def test_parse_error_position(F3xy):
    try:
        parse_polynomial("x + z*y", F3xy)
    except UnknownVariableError as err:
        assert err.position == 4
    else:
        pytest.fail("expected UnknownVariableError")


def test_parse_roundtrip_random(F3xy):
    rng = random.Random(20260818)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            terms[(rng.randint(0, 5), rng.randint(0, 5))] = rng.randint(1, 2)
        f = Polynomial(F3xy, terms)
        assert parse_polynomial(f.to_str(), F3xy) == f
        assert parse_polynomial(f.to_str(compact=True), F3xy) == f


def test_str_formats(F3xy):
    f = parse_polynomial("x^2*y + 2*x*y^2 + 1", F3xy)
    assert f.to_str() == "x^2*y + 2*x*y^2 + 1"
    assert f.to_str(compact=True) == "x^2*y+2*x*y^2+1"
    assert parse_polynomial("0", F3xy).to_str() == "0"


def test_arithmetic_basics(F3xy):
    x = F3xy.variable("x")
    y = F3xy.variable("y")
    assert x + y == parse_polynomial("x + y", F3xy)
    assert (x + y) - y == x
    assert x * 3 == F3xy.zero()
    assert -(x + y) == 2 * (x + y)
    assert (x + y) * (x + 2 * y) == parse_polynomial("x^2 + 2*y^2", F3xy)
    assert x ** 0 == F3xy.one()


def test_degree_and_leading(F3xy):
    f = parse_polynomial("x^2*y + x*y^2 + x^3", F3xy)
    assert f.degree() == 3
    assert F3xy.zero().degree() == -1
    # grevlex: among degree-3 monomials x^3 > x^2 y > x y^2
    assert f.leading_monomial() == (3, 0)


def test_grevlex_key_order():
    # total degree first, then reversed-negated exponents
    assert grevlex_key((3, 0)) > grevlex_key((2, 1)) > grevlex_key((1, 2))
    assert grevlex_key((0, 2)) > grevlex_key((1, 0))


def test_freshmans_dream(F3xy):
    """In characteristic p the p-th power map is exponent scaling."""
    rng = random.Random(7)
    for _ in range(50):
        terms = {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(1, 2)
                 for _ in range(rng.randint(1, 5))}
        f = Polynomial(F3xy, terms)
        assert f ** 3 == f.scale_exponents(3)
        assert f ** 9 == f.scale_exponents(9)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_pow_matches_repeated_multiply(p):
    ring = Ring(p, ["x", "y"])
    rng = random.Random(100 + p)
    for _ in range(40):
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, p - 1)
                 for _ in range(rng.randint(1, 4))}
        f = Polynomial(ring, terms)
        n = rng.randint(0, 12)
        slow = ring.one()
        for _ in range(n):
            slow = slow * f
        assert poly_pow(f, n) == slow


def test_pow_overflow_guard(F3xy):
    x = F3xy.variable("x")
    huge = x.scale_exponents(MAX_EXPONENT // 2)
    with pytest.raises(ExponentOverflowError):
        huge.scale_exponents(3)
    with pytest.raises(ExponentOverflowError):
        poly_pow(huge, 3)


def test_scale_exponents_zero_sums_coefficients(F3xy):
    f = parse_polynomial("x^2 + y^2 + 1", F3xy)
    assert f.scale_exponents(0) == F3xy.constant(3) == F3xy.zero()
    g = parse_polynomial("x^2 + 1", F3xy)
    assert g.scale_exponents(0) == F3xy.constant(2)


def test_ideal_gens_normalization(F3xy):
    x = F3xy.variable("x")
    y = F3xy.variable("y")
    I = IdealGens(F3xy, [x, F3xy.zero(), y, x])
    assert I.gens == (x, y)
    assert IdealGens.zero(F3xy).is_zero
    assert IdealGens.unit(F3xy).has_unit_generator()
    assert not I.has_unit_generator()


def test_ideal_product_and_power(F3xy):
    x = F3xy.variable("x")
    y = F3xy.variable("y")
    I = F3xy.ideal(x, y)
    sq = ideal_power(I, 2)
    assert set(sq.gens) == {x * x, x * y, y * y}
    assert ideal_power(I, 0) == IdealGens.unit(F3xy)
    assert ideal_product(I, IdealGens.unit(F3xy)) == I
    assert ideal_product(I, IdealGens.zero(F3xy)).is_zero
    # a principal ideal is raised by base-p splitting; its generator is the plain power
    for p in (2, 3, 5):
        ring = Ring(p, ["x", "y"])
        g = ring.polynomial("x*y + y^2 + x + 1")
        for m in (0, 1, p - 1, p, p * p + 1):
            assert ideal_power(IdealGens(ring, (g,)), m).gens == (_pow_small(g, m),)


def _pascal_row(n, p):
    row = [1]
    for _ in range(n):
        row = [(a + b) % p for a, b in zip([0] + row, row + [0])]
    return row


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_small_exhaustive(p):
    for m in range(40):
        row = _pascal_row(m, p)
        for n in range(m + 1):
            assert lucas_binomial(m, n, p) == row[n]
        assert lucas_binomial(m, m + 1, p) == 0


def test_as_fraction():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_fraction(0.5)
