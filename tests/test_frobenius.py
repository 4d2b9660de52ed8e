"""Bracket powers, bracket roots and their adjunction."""

import random

import pytest

from pfractal import (
    FrobLevel,
    IdealGens,
    Polynomial,
    Ring,
    bracket_power,
    ideal_bracket_root,
    ideal_contains,
    ideal_equal,
    parse_polynomial,
    poly_bracket_root,
    poly_pow,
)
from pfractal.algebra import _pow_small


def _ideal(ring, *texts):
    return IdealGens(ring, [parse_polynomial(t, ring) for t in texts])


def test_frob_level():
    lvl = FrobLevel(3, 2)
    assert lvl.q == 9
    assert FrobLevel(5, 0).q == 1
    with pytest.raises(ValueError):
        FrobLevel(6, 1)
    with pytest.raises(ValueError):
        FrobLevel(3, -1)


def test_bracket_power(F3xy):
    I = _ideal(F3xy, "x + y", "x*y")
    Iq = bracket_power(I, FrobLevel(3, 1))
    assert ideal_equal(Iq, _ideal(F3xy, "x^3 + y^3", "x^3*y^3"))
    assert bracket_power(I, FrobLevel(3, 0)) == I


@pytest.mark.parametrize("text,e,root", [
    ("x^3*y^2 + x^2*y^3", 1, ("x", "y")),
    ("x^3*y - x^2*y^2 + x*y^3", 1, ("1",)),
    ("x^3", 1, ("x",)),
    ("x^4*y^3 + x^3*y^4", 1, ("x*y",)),
    ("x^9*y^9", 2, ("x*y",)),
    ("x^2", 1, ("1",)),
    ("x^3 + x^2", 1, ("x", "1")),
    ("x + y", 0, ("x + y",)),
])
def test_poly_root_examples(F3xy, text, e, root):
    got = poly_bracket_root(parse_polynomial(text, F3xy), FrobLevel(3, e))
    assert ideal_equal(got, _ideal(F3xy, *root))


def test_root_of_zero_rejected(F3xy):
    with pytest.raises(ValueError):
        poly_bracket_root(F3xy.zero(), FrobLevel(3, 1))


def _random_poly(ring, rng, deg=4, nterms=5):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, deg) for _ in range(ring.arity))
        terms[e] = rng.randint(1, ring.p - 1)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_adjunction(p, e):
    """h in J^[q] iff (h)^[1/q] is contained in J, on random smalls."""
    ring = Ring(p, ["x", "y"])
    lvl = FrobLevel(p, e)
    rng = random.Random(p * 100 + e)
    for _ in range(60):
        h = _random_poly(ring, rng)
        J = IdealGens(ring, [_random_poly(ring, rng, deg=2, nterms=2)
                             for _ in range(rng.randint(1, 2))])
        lhs = ideal_contains(bracket_power(J, lvl), IdealGens(ring, [h]))
        rhs = ideal_contains(J, poly_bracket_root(h, lvl))
        assert lhs == rhs


def test_root_inverse_of_power(F3xy):
    """(f^[q])^[1/q] = (f): the root exactly undoes a bracket power."""
    rng = random.Random(42)
    lvl = FrobLevel(3, 1)
    for _ in range(40):
        f = _random_poly(F3xy, rng)
        back = poly_bracket_root(f.scale_exponents(3), lvl)
        assert ideal_equal(back, IdealGens(F3xy, [f]))


def test_root_composition(F3xy):
    """Root at p then at p equals root at p^2."""
    rng = random.Random(43)
    one = FrobLevel(3, 1)
    two = FrobLevel(3, 2)
    for _ in range(30):
        h = _random_poly(F3xy, rng, deg=8)
        twice = ideal_bracket_root(poly_bracket_root(h, one), one)
        assert ideal_equal(twice, poly_bracket_root(h, two))


def test_root_monotone(F3xy):
    """h in (g) implies root(h) contained in root of the ideal (g)."""
    rng = random.Random(44)
    lvl = FrobLevel(3, 1)
    for _ in range(30):
        g = _random_poly(F3xy, rng, deg=3, nterms=3)
        mult = _random_poly(F3xy, rng, deg=2, nterms=2)
        h = g * mult
        if h.is_zero:
            continue
        assert ideal_contains(ideal_bracket_root(IdealGens(F3xy, [g]), lvl),
                              poly_bracket_root(h, lvl))


def test_ideal_root_is_union(F3xy):
    I = _ideal(F3xy, "x^3*y^2 + x^2*y^3", "y^6")
    got = ideal_bracket_root(I, FrobLevel(3, 1))
    assert ideal_equal(got, _ideal(F3xy, "x", "y"))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 10])
def test_root_of_power_naive_agrees(F3xy, m):
    rng = random.Random(m)
    lvl = FrobLevel(3, 2)
    for _ in range(10):
        f = _random_poly(F3xy, rng, deg=2, nterms=3)
        assert poly_bracket_root(poly_pow(f, m), lvl) == poly_bracket_root(_pow_small(f, m), lvl)


def test_ring_mismatch_rejected(F3xy):
    with pytest.raises(ValueError):
        poly_bracket_root(F3xy.polynomial("x"), FrobLevel(5, 1))
