"""Groebner bases, normal forms, membership, colon ideals."""

import random
from itertools import product

import pytest

from pfractal import (
    IdealGens,
    ResourceLimitError,
    Ring,
    buchberger,
    ideal_colon,
    ideal_contains,
    ideal_equal,
    ideal_key,
    ideal_power,
    ideal_product,
    normal_form,
    pair_budget,
    parse_polynomial,
    reduces_to_zero,
)


def _ideal(ring, *texts):
    return IdealGens(ring, [parse_polynomial(t, ring) for t in texts])


@pytest.mark.parametrize("gens,basis", [
    (("x", "y"), ["x", "y"]),
    (("x+y", "y^2"), ["x+y", "y^2"]),
    (("x", "x+1"), ["1"]),
    (("x^2*y + x*y^2",), ["x^2*y+x*y^2"]),
    (("y", "x+y", "x^2"), ["x", "y"]),
    ((), []),
    (("0",), []),
])
def test_reduced_basis(F3xy, gens, basis):
    gb = buchberger(_ideal(F3xy, *gens))
    assert [g.to_str(compact=True) for g in gb.basis] == basis


def test_key_format(F3xy):
    assert ideal_key(_ideal(F3xy, "y", "x")) == "x;y"
    assert ideal_key(_ideal(F3xy, "x+y", "y^2")) == "x+y;y^2"
    assert ideal_key(_ideal(F3xy, "5")) == "1"
    assert ideal_key(IdealGens.zero(F3xy)) == ""


def test_gb_idempotent(F3xy):
    I = _ideal(F3xy, "x^2 + y", "x*y + x")
    gb = buchberger(I)
    again = buchberger(IdealGens(F3xy, list(gb.basis)))
    assert gb.basis == again.basis
    assert buchberger(gb) is gb


def test_basis_is_computed_once_and_kept(F3xy, monkeypatch):
    import pfractal.groebner as groebner

    runs = []
    core = groebner._buchberger_core

    def counting_core(*args):
        runs.append(args)
        return core(*args)

    monkeypatch.setattr(groebner, "_buchberger_core", counting_core)
    I = _ideal(F3xy, "x^2 + y", "x*y + x")
    first = buchberger(I)
    assert buchberger(I) is first
    assert I.basis == first.gens
    assert ideal_key(I) == ideal_key(first)
    assert len(runs) == 1


def test_gb_invariant_under_generator_shuffle(F3xy):
    rng = random.Random(11)
    gens = ["x^2 + y", "x*y + x", "y^3 + 2*y"]
    expect = buchberger(_ideal(F3xy, *gens)).basis
    for _ in range(10):
        rng.shuffle(gens)
        assert buchberger(_ideal(F3xy, *gens)).basis == expect


def test_normal_form(F3xy):
    x = F3xy.polynomial("x")
    y = F3xy.polynomial("y")
    assert normal_form(F3xy.polynomial("x + 1"), IdealGens(F3xy, [x, y])) == F3xy.one()
    f = F3xy.polynomial("x^2*y + x + y + 1")
    assert normal_form(f, IdealGens(F3xy, [x])) == F3xy.polynomial("y + 1")
    assert normal_form(f, IdealGens.zero(F3xy)) == f


def test_membership_and_containment(F3xy):
    I = _ideal(F3xy, "x", "y")
    assert reduces_to_zero(F3xy.polynomial("x^2*y + x*y^2"), I)
    assert not reduces_to_zero(F3xy.polynomial("x + 1"), I)
    # a monomial basis: every term needs some divisor, not only the first
    J = _ideal(F3xy, "x^3", "x*y^2")
    assert reduces_to_zero(F3xy.polynomial("x^4 + 2*x^2*y^3"), J)
    assert not reduces_to_zero(F3xy.polynomial("x^4 + x^2*y"), J)
    assert ideal_contains(I, _ideal(F3xy, "x+y"))
    assert not ideal_contains(_ideal(F3xy, "x+y"), I)
    assert ideal_equal(_ideal(F3xy, "x", "y"), _ideal(F3xy, "x+y", "x"))
    assert not ideal_equal(_ideal(F3xy, "x"), _ideal(F3xy, "y"))


def test_unit_and_zero_edges(F3xy):
    assert buchberger(_ideal(F3xy, "2")).gens == (F3xy.one(),)
    assert buchberger(IdealGens.zero(F3xy)).is_zero
    assert ideal_contains(_ideal(F3xy, "1"), _ideal(F3xy, "x"))
    assert ideal_contains(_ideal(F3xy, "x"), IdealGens.zero(F3xy))


def _gauss_member(f, gens, ring, max_deg):
    """Membership oracle: linear algebra over F_p on monomials up to max_deg.

    Builds the row space spanned by m*g for every generator g and monomial m
    with deg(m*g) <= max_deg, then checks f against it.  Only valid when a
    representation within that degree exists, so callers pick max_deg with
    slack; used to cross-check GB membership on small random instances.
    """
    p = ring.p
    n = ring.arity
    monos = [e for e in product(range(max_deg + 1), repeat=n) if sum(e) <= max_deg]
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        gdeg = g.degree()
        for m in monos:
            if sum(m) + gdeg > max_deg:
                continue
            vec = [0] * len(monos)
            ok = True
            for e, c in g.terms.items():
                tgt = tuple(a + b for a, b in zip(e, m))
                if tgt not in index:
                    ok = False
                    break
                vec[index[tgt]] = c
            if ok:
                rows.append(vec)
    # row reduce
    pivots = {}
    for vec in rows:
        vec = vec[:]
        for col, prow in pivots.items():
            if vec[col]:
                fac = vec[col]
                vec = [(a - fac * b) % p for a, b in zip(vec, prow)]
        lead = next((i for i, a in enumerate(vec) if a), None)
        if lead is not None:
            inv = pow(vec[lead], p - 2, p)
            pivots[lead] = [(a * inv) % p for a in vec]
    target = [0] * len(monos)
    for e, c in f.terms.items():
        if e not in index:
            return None
        target[index[e]] = c
    for col, prow in pivots.items():
        if target[col]:
            fac = target[col]
            target = [(a - fac * b) % p for a, b in zip(target, prow)]
    return all(a == 0 for a in target)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_membership_vs_linear_algebra(p):
    ring = Ring(p, ["x", "y"])
    rng = random.Random(400 + p)
    for _ in range(60):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, p - 1)
                     for _ in range(rng.randint(1, 3))}
            gens.append(_poly(ring, terms))
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        I = IdealGens(ring, gens)
        # candidate: random combination of gens plus optional noise
        comb = ring.zero()
        for g in gens:
            comb = comb + _poly(ring, {(rng.randint(0, 1), rng.randint(0, 1)):
                                       rng.randint(1, p - 1)}) * g
        noise = rng.random() < 0.5
        cand = comb + ring.one() if noise else comb
        got = reduces_to_zero(cand, I)
        oracle = _gauss_member(cand, gens, ring, max_deg=cand.degree() + 4)
        if oracle is not None:
            # GB membership is exact; the linear oracle may miss high-degree
            # representations, so it can only be trusted when it says yes.
            if oracle:
                assert got
        if not noise:
            assert got


def _poly(ring, terms):
    from pfractal.algebra import Polynomial
    return Polynomial(ring, terms)


def test_descending_keys_reverse_their_orders():
    """Each descending key sorts monomials exactly opposite to its order key."""
    from pfractal.algebra import grevlex_key
    from pfractal.groebner import _DESCENDING, _elim_key
    rng = random.Random(11)
    assert set(_DESCENDING) == {grevlex_key, _elim_key}
    for key, desc in _DESCENDING.items():
        for n in (1, 2, 3, 4):
            if key is _elim_key and n < 2:
                continue
            # few distinct degrees, so ties on the leading parts are common
            exps = list({tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(60)})
            assert sorted(exps, key=desc) == sorted(exps, key=key, reverse=True), (key, n)


@pytest.mark.parametrize("order", ["grevlex", "elim"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_division_identity_and_reduced_remainder(p, order):
    """f = sum q_i d_i + r, and no term of r is divisible by any LM(d_i)."""
    from pfractal.algebra import grevlex_key
    from pfractal.groebner import _divide, _elim_key
    key = grevlex_key if order == "grevlex" else _elim_key
    rng = random.Random(f"{p}-{order}")
    for _ in range(60):
        ring = Ring(p, ["t", "x", "y"][:rng.randint(2 if order == "elim" else 1, 3)])

        def draw(n_terms, deg):
            return _poly(ring, {tuple(rng.randint(0, deg) for _ in ring.vars):
                                rng.randint(1, p - 1) for _ in range(n_terms)})

        f = draw(rng.randint(1, 10), 5)
        divisors = [d for d in (draw(rng.randint(1, 3), 3) for _ in range(rng.randint(1, 3)))
                    if not d.is_zero]
        if not divisors:
            continue
        quotients, r = _divide(f, divisors, key, want_quotients=True)
        total = r
        for q, d in zip(quotients, divisors):
            total = total + q * d
        assert total == f
        leads = [max(d.terms, key=key) for d in divisors]
        assert not any(all(a >= b for a, b in zip(exps, lm))
                       for exps in r.terms for lm in leads)
        assert _divide(f, divisors, key, want_quotients=False) == r


@pytest.mark.parametrize("I_gens,J_gens,expect", [
    (("x^3", "y^3"), ("x",), ("x^2", "y^3")),
    (("x^2*y", "x*y^2"), ("x*y",), ("x", "y")),
    (("x^2",), ("y",), ("x^2",)),
    (("x*y",), ("x", "y"), ("x*y",)),
    (("x",), ("x",), ("1",)),
])
def test_colon_examples(F3xy, I_gens, J_gens, expect):
    got = ideal_colon(_ideal(F3xy, *I_gens), _ideal(F3xy, *J_gens))
    assert ideal_equal(got, _ideal(F3xy, *expect))


def test_colon_monomial_oracle(F3xy):
    """(x^a y^b) : (x^c y^d) = (x^max(a-c,0) y^max(b-d,0)) for monomials."""
    rng = random.Random(9)
    for _ in range(40):
        a, b, c, d = (rng.randint(0, 4) for _ in range(4))
        I = _ideal(F3xy, f"x^{a}*y^{b}")
        J = _ideal(F3xy, f"x^{c}*y^{d}")
        expect = _ideal(F3xy, f"x^{max(a - c, 0)}*y^{max(b - d, 0)}")
        assert ideal_equal(ideal_colon(I, J), expect)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_colon_product_containment(p):
    ring = Ring(p, ["x", "y"])
    rng = random.Random(500 + p)
    for _ in range(30):
        I = IdealGens(ring, [_poly(ring, {(rng.randint(0, 3), rng.randint(0, 3)):
                                          rng.randint(1, p - 1)
                                          for _ in range(rng.randint(1, 2))})
                             for _ in range(rng.randint(1, 2))])
        J = IdealGens(ring, [_poly(ring, {(rng.randint(0, 2), rng.randint(0, 2)):
                                          rng.randint(1, p - 1)
                                          for _ in range(rng.randint(1, 2))})])
        if I.is_zero or J.is_zero:
            continue
        Q = ideal_colon(I, J)
        assert ideal_contains(I, ideal_product(Q, J))
        assert ideal_contains(Q, I)


def test_colon_rejects_zero_divisor_ideal(F3xy):
    with pytest.raises(ValueError):
        ideal_colon(_ideal(F3xy, "x"), IdealGens.zero(F3xy))


def test_resource_limit(F3xy):
    I = _ideal(F3xy, "x^2 + x*y", "y^2 + x*y")
    with pair_budget(0), pytest.raises(ResourceLimitError):
        buchberger(I)
    full = buchberger(I)
    with pair_budget(100):
        assert full.basis == buchberger(I).basis


def test_negative_pair_budget_rejected(F3xy):
    with pytest.raises(ValueError, match="max_pairs"):
        with pair_budget(-1):
            pass
    with pair_budget(0):  # a run that processes no pair fits the zero budget
        assert buchberger(_ideal(F3xy, "x")).basis == (F3xy.polynomial("x"),)


def _needs_pairs(ring):
    """A fresh ideal whose basis takes Buchberger at least one S-pair."""
    return _ideal(ring, "x^2 + x*y", "y^2 + x*y")


def test_nested_pair_budget_restores_the_outer_one(F3xy):
    with pair_budget(0):
        with pair_budget(100):
            buchberger(_needs_pairs(F3xy))
        with pytest.raises(ResourceLimitError):
            buchberger(_needs_pairs(F3xy))
    buchberger(_needs_pairs(F3xy))


def test_pair_budget_restored_when_the_body_raises(F3xy):
    with pytest.raises(ResourceLimitError):
        with pair_budget(0):
            buchberger(_needs_pairs(F3xy))
    buchberger(_needs_pairs(F3xy))  # the default budget is back
    with pytest.raises(KeyError):
        with pair_budget(0):
            raise KeyError("unrelated")
    buchberger(_needs_pairs(F3xy))


def test_cached_basis_returned_under_any_budget(F3xy):
    I = _needs_pairs(F3xy)
    full = buchberger(I)
    with pair_budget(0):
        assert buchberger(I) is full
        assert ideal_key(I) == ideal_key(full)
        assert reduces_to_zero(F3xy.polynomial("x^2 + x*y"), I)


def test_three_variables_elimination_shape():
    ring = Ring(3, ["x", "y", "z"])
    I = IdealGens(ring, [parse_polynomial(t, ring) for t in ("x + y + z", "x*y + z^2")])
    assert reduces_to_zero(parse_polynomial("x + y + z", ring), I)
    colon = ideal_colon(IdealGens(ring, [parse_polynomial("x*z", ring)]),
                        IdealGens(ring, [parse_polynomial("z", ring)]))
    assert ideal_equal(colon, IdealGens(ring, [parse_polynomial("x", ring)]))
