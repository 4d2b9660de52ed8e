"""Generalized test ideals of ideal families, F-thresholds and jumping data.

The mixed test ideal tau(a_1^c_1 ... a_n^c_n) is the stable member of the
increasing chain of bracket roots of a_1^ceil(c_1 q) ... a_n^ceil(c_n q) as
q = p^e grows.  Principal ideals with p-power-denominator exponents admit an
exact shortcut: a single bracket root of the whole product, with no
stabilization loop and no Skoda peeling.  At every other point Skoda's
theorem peels off integer units of any coordinate that reaches the generator
count of its ideal before the loop runs.  The loop reads each chain member
(a^m)^[1/p^e] one base-p digit of m at a time, one state ideal per carry,
with level-1 roots only and no power a^m formed.  One search chain, level
by level, finds the v-numbers behind F-thresholds, deciding each
containment in I^[p^e] as a containment of that root in I.  Along a
principal J = (g), the threshold and jump searches read g^m at level e as
(g^m)^[1/p^e] = S_e g^floor(m/p^e), one level-1 root per base-p digit of
m, from a digit table that lives for one call and takes each transition
once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .algebra import (
    IdealGens,
    Polynomial,
    Ring,
    as_fraction,
    ideal_power,
    ideal_product,
    poly_pow,
)
from .frobenius import FrobLevel, ideal_bracket_root, poly_bracket_root
from .groebner import buchberger, ideal_contains, ideal_key


class NotStabilizedError(RuntimeError):
    """The bracket-root chain did not confirm stabilization within e_max levels."""

    def __init__(self, e_max: int, last_key: str | None = None):
        detail = f"; last basis key {last_key!r}" if last_key is not None else ""
        super().__init__(f"test ideal chain not stabilized by level e_max={e_max}{detail}")
        self.e_max = e_max
        self.last_key = last_key


class UnboundedError(RuntimeError):
    """A containment search hit its cap; the target ideal misses the radical condition."""


class ZeroRegionError(ValueError):
    """The target ideal is the unit ideal, so no power of the family escapes it."""


class IdealFamily:
    """A finite ordered family of nonzero ideals in one ring.

    gen_counts records the number of stored generators of each member; the
    Skoda reduction threshold for coordinate i is gen_counts[i].
    all_principal says whether every member has one generator.
    """

    __slots__ = ("ring", "ideals", "gen_counts", "all_principal")

    def __init__(self, ring: Ring, ideals: Sequence[IdealGens]):
        members = tuple(ideals)
        if not members:
            raise ValueError("family needs at least one ideal")
        for I in members:
            if I.ring != ring:
                raise ValueError("family member from a different ring")
            if I.is_zero:
                raise ValueError("family members must be nonzero ideals")
        self.ring = ring
        self.ideals = members
        self.gen_counts = tuple(len(I.gens) for I in members)
        self.all_principal = all(c == 1 for c in self.gen_counts)

    @property
    def n(self) -> int:
        return len(self.ideals)

    def point(self, coords) -> tuple[Fraction, ...]:
        """Validate and coerce an exponent point for this family."""
        pt = tuple(as_fraction(c) for c in coords)
        if len(pt) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(pt)}")
        if any(c.numerator < 0 for c in pt):
            raise ValueError("exponent coordinates must be non-negative")
        return pt

    def __repr__(self) -> str:
        return f"IdealFamily({self.ring!r}, n={self.n})"


@dataclass(frozen=True)
class TauConfig:
    e_max: int = 10
    confirm_window: int = 2
    degree_check: bool = False

    def __post_init__(self):
        if self.e_max < 1:
            raise ValueError("e_max must be at least 1")
        if self.confirm_window < 1:
            raise ValueError("confirm_window must be at least 1")


DEFAULT_TAU_CONFIG = TauConfig()


# Kept: tau_mixed and the chi oracle take their principal powers here, through
# _principal_product; without it the k=4 staircase raster took 1.88 s instead
# of 0.81 s and the fractal workload 8.4 s instead of 2.6 s (bench/run.py,
# seed 0, 20 s per run, 2 cores, Python 3.11).
@lru_cache(maxsize=4096)
def _cached_pow(f: Polynomial, n: int) -> Polynomial:
    return poly_pow(f, n)


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _levels(point: Sequence[Fraction], p: int) -> list[int] | None:
    """The e with denominator p^e of each coordinate, or None if one has no such e."""
    levels = []
    for c in point:
        den = c.denominator
        e = round(math.log(den, p))  # the only candidate for den = p^e
        if den != p ** e:
            return None
        levels.append(e)
    return levels


def p_adic_level(point: Sequence[Fraction], p: int) -> int | None:
    """Smallest s with all coordinates of the form m / p^s, or None."""
    levels = _levels(point, p)
    return None if levels is None else max(levels, default=0)


def _product_of_powers(fam: IdealFamily, exponents: Sequence[int]) -> IdealGens:
    """a_1^m_1 ... a_n^m_n, multiplied onto the unit ideal in family order."""
    prod = IdealGens.unit(fam.ring)
    for a_i, m_i in zip(fam.ideals, exponents):
        if m_i:
            prod = ideal_product(prod, ideal_power(a_i, m_i))
    return prod


def _skoda_split(fam: IdealFamily, point: Sequence[Fraction]) -> tuple[IdealGens, tuple[Fraction, ...]]:
    """skoda_reduce on a point that fam.point has already validated."""
    peeled = [_floor(c - m_i) + 1 if c >= m_i else 0 for c, m_i in zip(point, fam.gen_counts)]
    residual = tuple(c - k for c, k in zip(point, peeled))
    return _product_of_powers(fam, peeled), residual


def skoda_reduce(fam: IdealFamily, s) -> tuple[IdealGens, tuple[Fraction, ...]]:
    """Split tau(a^s) = factor * tau(a^residual) by peeling integer units.

    One unit of a_i comes off while s_i >= gen_counts[i], so the residual
    satisfies residual_i < gen_counts[i].  The factor is the product of the
    peeled ideal powers (the unit ideal when nothing peels).  tau_mixed
    peels only points that go through the stabilization window; a principal
    point with p-power denominators needs no peeling (see tau_mixed).
    """
    return _skoda_split(fam, fam.point(s))


def _check_weights(fam: IdealFamily, r: Sequence[int]) -> None:
    if len(r) != fam.n:
        raise ValueError(f"expected {fam.n} weights, got {len(r)}")
    if any((not isinstance(x, int)) or x < 0 for x in r):
        raise ValueError("weights must be non-negative integers")
    if not any(r):
        raise ValueError("at least one weight must be positive")


def reduce_to_single(fam: IdealFamily, r: Sequence[int]) -> IdealGens:
    """The weighted product J with tau(a_1^(t r_1) ... a_n^(t r_n)) = tau(J^t)."""
    _check_weights(fam, r)
    return _product_of_powers(fam, r)


def _principal_product(fam: IdealFamily, m: Sequence[int]) -> Polynomial:
    """gens_1^m_1 ... gens_n^m_n for an all-principal family, in family order."""
    g = None
    for a_i, m_i in zip(fam.ideals, m):
        if m_i:
            power = _cached_pow(a_i.gens[0], m_i)
            g = power if g is None else g * power
    return fam.ring.one() if g is None else g


def _principal_padic(fam: IdealFamily, point: Sequence[Fraction]) -> tuple[list[int], int] | None:
    """The exact principal case: (m, s) with point = m / p^s.

    Applies when every member is principal and every coordinate has a
    p-power denominator; s is the least common level, and tau(a^point) is
    the [1/p^s] root of _principal_product(fam, m).  None otherwise.
    """
    if not fam.all_principal:
        return None
    p = fam.ring.p
    levels = _levels(point, p)
    if levels is None:
        return None
    s = max(levels)
    return [c_i.numerator * p ** (s - e_i) for c_i, e_i in zip(point, levels)], s


def _degree_bound_check(fam: IdealFamily, point, result: IdealGens):
    total = sum(point, Fraction(0))
    d = max(max(g.degree() for g in a.gens) for a in fam.ideals)
    bound = _floor(Fraction(d) * total)
    for g in result.gens:
        if g.degree() > bound:
            raise AssertionError(
                f"generator degree {g.degree()} exceeds bound {bound} for exponent {point}"
            )


def _truncated_powers(a: IdealGens, p: int) -> list[IdealGens]:
    """A_0, ..., A_(s(p-1)) with A_n = (f^d : |d| = n, every d_l < p), f the s generators of a."""
    one = a.ring.one()
    sums: list[list[Polynomial]] = [[one]]  # products over the generators so far, by digit sum
    for f in a.gens:
        powers = [one]
        for _ in range(p - 1):
            powers.append(powers[-1] * f)
        grown: list[list[Polynomial]] = [[] for _ in range(len(sums) + p - 1)]
        for n, polys in enumerate(sums):
            for k, fk in enumerate(powers):
                grown[n + k].extend(g * fk for g in polys)
        sums = grown
    return [IdealGens(a.ring, polys) for polys in sums]


def _carry_root(fam: IdealFamily, m: Sequence[int], e: int) -> IdealGens:
    """(a_1^m_1 ... a_n^m_n)^[1/p^e], one base-p digit of m at a time, forming no a^m.

    Let f be the s_i generators of a_i and q = p^e.  Write each generator
    f^k of a_i^m_i (|k| = m_i) digit by digit, k = d_0 + d_1 p + ... +
    d_(e-1) p^(e-1) + q K with every entry of each d_j below p.  As
    _v_numbers proves for one generator, (f^k)^[1/q] = S_e f^K with S_0 = R
    and S_(j+1) = (S_j f^(d_j))^[1/p].  The digit sums carry into the
    digits m_(i,j) of m_i: |d_j| = p c_(j+1) + m_(i,j) - c_j with c_0 = 0,
    so every carry lies in [0, s_i - 1] (a principal member carries 0) and
    |K| = floor(m_i / q) - c_e.  Bracket roots commute with sums, so one
    ideal T_c per carry vector c holds every S_j reached with carries c:
      T'_c' = sum over c of (T_c A_(1,n_1) ... A_(n,n_n))^[1/p],
      n_i = p c'_i + m_(i,j) - c_i,
    with the truncated powers A_(i,n) of _truncated_powers, formed once per
    call.  The root is the sum of T_c a_1^(M_1 - c_1) ... a_n^(M_n - c_n)
    over the carries at the end, M = floor(m / q): a carry above
    floor(m_i / p^(j+1)) is never kept, since K could not absorb it.  Every
    root is a level-1 root, so q need not fit a machine word.

    A state is reduced by one Buchberger run before it feeds the next level
    or multiplies a power of a, which keeps those products short: raw lists
    took the tau benchmark's 444 operations of seeds 0-3 1.32 s against
    0.97-1.13 s (2-core VM, Python 3.11).  A state that is a term of the
    root as it stands goes out unreduced, since callers reduce the whole
    root or reduce only modulo I: reducing it as well took v_number of
    (g, -g) at e = 1, g the F_7 polynomial of _DigitTable, 0.23 s against
    0.02 s.
    """
    ring, p = fam.ring, fam.ring.p
    level = FrobLevel(p, 1)
    # made monic, the scalar multiples in a presentation such as (g, -g) fall
    # away: they would add carries and truncated products, not generators
    members = [IdealGens(ring, (f * pow(f.leading_term()[1], -1, p) for f in a_i.gens))
               for a_i in fam.ideals]
    truncated = [_truncated_powers(a_i, p) for a_i in members] if e else []
    states = {(0,) * fam.n: IdealGens.unit(ring)}
    rest = list(m)
    for _ in range(e):
        digits = [m_i % p for m_i in rest]
        rest = [m_i // p for m_i in rest]
        carries = list(itertools.product(*(range(min(len(a_i.gens), m_i + 1))
                                           for a_i, m_i in zip(members, rest))))
        roots: dict[tuple[int, ...], list[Polynomial]] = {}
        for c, T in states.items():
            T = buchberger(T)
            for c_next in carries:
                prod = T
                for A, c_i, c_next_i, d_i in zip(truncated, c, c_next, digits):
                    n_i = p * c_next_i + d_i - c_i
                    if not 0 <= n_i < len(A):
                        break
                    prod = ideal_product(prod, A[n_i])
                else:
                    roots.setdefault(c_next, []).extend(ideal_bracket_root(prod, level).gens)
        states = {c: IdealGens(ring, gens) for c, gens in roots.items()}
    gens: list[Polynomial] = []
    for c, T in states.items():
        left = [M_i - c_i for M_i, c_i in zip(rest, c)]
        if any(left):
            T = ideal_product(buchberger(T), _product_of_powers(fam, left))
        gens.extend(T.gens)
    return IdealGens(ring, gens)


def _windowed_tau(fam: IdealFamily, point: Sequence[Fraction], cfg: TauConfig) -> IdealGens:
    """The stabilization loop: the first root accepted by the confirmation window.

    Each level's chain member is read off _carry_root, so no level forms
    a^ceil(c p^e) or needs p^e to fit a machine word.
    """
    p = fam.ring.p
    prev_key: str | None = None
    streak = 0
    for e in range(1, cfg.e_max + 1):
        q = p ** e
        J = _carry_root(fam, [_ceil(ci * q) for ci in point], e)
        key = ideal_key(J)
        if key == prev_key:
            streak += 1
        else:
            prev_key = key
            streak = 1
        if streak >= cfg.confirm_window:
            if cfg.degree_check:
                # checked on the reduced basis: a violation means the window
                # accepted a value below the true (larger) stabilized ideal
                _degree_bound_check(fam, point, buchberger(J))
            return J
    raise NotStabilizedError(cfg.e_max, prev_key)


def tau_mixed(fam: IdealFamily, c, cfg: TauConfig = DEFAULT_TAU_CONFIG) -> IdealGens:
    """The mixed test ideal tau(a_1^c_1 ... a_n^c_n).

    Order of attack: when every member is principal and every exponent has
    a p-power denominator, the exact shortcut takes one bracket root of the
    whole product and nothing else.  Skoda needs no peeling there, because
    (g k^q)^[1/q] = g^[1/q] k for principal members.  Any other point is
    validated once, Skoda-peeled, and its residual goes through the
    stabilization loop over Frobenius levels with a confirmation window.
    Raises NotStabilizedError when the window is not confirmed by level
    e_max.  The degree audit skips the principal shortcut: a generator of
    the [1/p^s] root of g has degree at most deg(g) / p^s <= d * |c|.
    """
    point = fam.point(c)
    principal = _principal_padic(fam, point)
    if principal is not None:
        m, s = principal
        return poly_bracket_root(_principal_product(fam, m), FrobLevel(fam.ring.p, s))
    factor, residual = _skoda_split(fam, point)
    core = _windowed_tau(fam, residual, cfg)
    if factor.has_unit_generator():
        return core
    result = ideal_product(factor, core)
    if cfg.degree_check and p_adic_level(point, fam.ring.p) is not None:
        # a peeled product at a p-adic point can expose a window that
        # accepted below the point's p-adic level
        _degree_bound_check(fam, point, result)
    return result


_SEARCH_CAP = 1_000_000  # a containment search past this power raises UnboundedError


def _support(exps: Sequence[int]) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(exps) if e)


def _outside_monomial_radical(J: IdealGens, target: IdealGens) -> bool:
    """Whether target is a monomial ideal and J is not inside its radical.

    target is monomial exactly when its reduced basis is.  The radical of a
    monomial ideal is generated by the supports of its basis monomials, and
    a polynomial lies in it when each of its terms does, so then no power
    of J ever enters target.  False for any other target.
    """
    basis = buchberger(target).gens
    if any(len(g.terms) != 1 for g in basis):
        return False
    supports = [_support(exps) for g in basis for exps in g.terms]
    return any(not any(S <= _support(exps) for S in supports)
               for g in J.gens for exps in g.terms)


def _digit_step(fam: IdealFamily, S: IdealGens, d: Sequence[int]) -> IdealGens:
    """(S * gens_1^d_1 ... gens_n^d_n)^[1/p] for an all-principal family.

    One base-p digit vector d of an exponent, read least significant first;
    _DigitTable takes these steps, once per (state, digit) within a call,
    and _v_numbers says why the chain is exact.  A root with a unit
    generator is the unit ideal and comes back as (1), so later steps of the
    chain do not carry its other generators, and every unit state has one
    generator tuple.
    """
    prod = S
    for a_i, d_i in zip(fam.ideals, d):
        if d_i:
            prod = ideal_product(prod, IdealGens(fam.ring, (poly_pow(a_i.gens[0], d_i),)))
    root = ideal_bracket_root(prod, FrobLevel(fam.ring.p, 1))
    return IdealGens.unit(fam.ring) if root.has_unit_generator() else root


class _DigitTable:
    """The digit chain of one principal J = (g), each transition taken once.

    read(m, e) returns (S_e, t) with t = floor(m / p^e), S_0 = R and
    S_(j+1) = _digit_step(S_j, d_j) over the base-p digits d_j of m, least
    significant first, so that (g^m)^[1/p^e] = S_e g^t (_v_numbers proves
    it).  A transition (S, d) not met before runs _digit_step once.  States
    are compared by their generator tuples, not by reduced basis: a
    Buchberger run per state made v_number of the F_7 polynomial
    2x^3y^2z^2+3x^3z^2+2xy^2z+2x^2z^2+3x^3 against (x, y, z) over ten times
    slower at e = 1 and five times slower at e = 2.  value(m, e) is judge(S_e g^t),
    decided once per (S_e, t).  A table lives for one search.
    """

    __slots__ = ("single", "judge", "unit", "steps", "values")

    def __init__(self, single: IdealFamily, judge: Callable[[IdealGens], object]):
        self.single = single
        self.judge = judge
        self.unit = IdealGens.unit(single.ring)
        self.steps: dict[tuple[IdealGens, int], IdealGens] = {}
        self.values: dict[tuple[IdealGens, int], object] = {}

    def read(self, m: int, e: int) -> tuple[IdealGens, int]:
        p, S = self.single.ring.p, self.unit
        for _ in range(e):
            m, d = divmod(m, p)
            step = self.steps.get((S, d))
            if step is None:
                step = self.steps[S, d] = _digit_step(self.single, S, (d,))
            S = step
        return S, m

    def value(self, m: int, e: int):
        state = self.read(m, e)
        if state not in self.values:
            S, t = state
            J = self.single.ideals[0]
            self.values[state] = self.judge(ideal_product(S, ideal_power(J, t)))
        return self.values[state]


def _v_numbers(fam: IdealFamily, r: Sequence[int], I: IdealGens,
               e_max: int) -> tuple[list[int], int]:
    """v_0, ..., v_e_max and s = len(J.gens), J = a_1^r_1 ... a_n^r_n.

    v_e is the largest m with J^m not inside I^[p^e].  Containment is
    monotone in m, and one chain finds every v_e.  Level 0 doubles from 1 to
    the least power l of J inside I, after a check that a monomial I can be
    entered at all, and bisects below it: v_0 = l - 1.  Each level e >= 1 is
    bisected, without probing its ends, inside a bracket from the level
    below: with q = p^(e-1) and v = v_(e-1), the least power of J inside
    I^[pq] lies in (p v, p (v + 1) + (s - 1)(p - 1)], also at q = 1.
      - Lower end: Frobenius is flat, so J^v not inside I^[q] gives
        (J^v)^[p] not inside I^[pq], and (J^v)^[p] lies in J^(pv).
      - Upper end: a product of N = p a + (s - 1)(p - 1) generators of J has
        exponents n_i = p b_i + c_i with c_i <= p - 1, so sum b_i >= a and
        J^N lies in (J^a)^[p]; with a = v + 1 and J^(v+1) inside I^[q] this
        puts J^N inside I^[pq].

    A principal J = (g) is tested against I itself, one base-p digit of m at
    a time, and no bracket power of I is built.  With q = p^e:
      - Adjunction: g^m lies in I^[q] exactly when (g^m)^[1/q] lies in I,
        the root being the least ideal whose q-th bracket power holds g^m.
      - Root composition: b^[1/pq'] = (b^[1/p])^[1/q'].
      - Projection (Blickle-Mustata-Smith 2008, Lemma 2.4):
        (b c^p)^[1/p] = b^[1/p] c.
    Write m = d_0 + d_1 p + ... + d_(e-1) p^(e-1) + t q with digits d_j < p,
    and let S_0 = R and S_(j+1) = (S_j g^(d_j))^[1/p] (_digit_step).  Then
    (g^m)^[1/q] = (S_j g^floor(m/p^j))^[1/p^(e-j)] for every j <= e: split
    g^floor(m/p^j) = g^(d_j) (g^floor(m/p^(j+1)))^p, take one root by
    composition and project.  At j = e the test is S_e g^t inside I.  So
    Buchberger runs on I alone, every root is a level-1 root (the generators
    of S_j keep degree at most deg(g)), and q need not fit a machine word.
    One _DigitTable serves the whole chain: each transition is taken once,
    and each (S_e, t) has its containment in I decided once.

    A non-principal J is tested against I the same way, through
    J^m = a_1^(m r_1) ... a_n^(m r_n): by adjunction J^m lies in I^[q]
    exactly when _carry_root(fam, m r, e) lies in I.  Its powers are not
    products of bracket powers (J^(pa+c) != (J^a)^[p] J^c in general:
    (x, y)^2 holds xy, which (x, y)^[2] = (x^2, y^2) does not), so the
    carry root splits each generator product of J^m instead and carries
    the digit sums.  Again Buchberger runs on I and the roots' states
    alone, and q need not fit a machine word.  At level 0 the carry root is
    the product of the members' powers itself.  The fail-fast reads I
    itself: rad(I^[q]) = rad(I), and I^[q] is monomial exactly when I is.
    """
    J = reduce_to_single(fam, r)
    if not isinstance(e_max, int) or e_max < 0:
        raise ValueError(f"level must be a non-negative integer, got {e_max!r}")
    # I^[p^e] lies in I and holds 1 when I does: it is the unit ideal exactly when I is
    if ideal_contains(I, IdealGens.unit(fam.ring)):
        raise ZeroRegionError("target ideal is the unit ideal; every power is contained")
    p, s = fam.ring.p, len(J.gens)
    if s == 1:
        table = _DigitTable(IdealFamily(fam.ring, (J,)), lambda Sg: ideal_contains(I, Sg))

    def contained(m: int, e: int) -> bool:
        if s > 1:
            return ideal_contains(I, _carry_root(fam, [m * r_i for r_i in r], e))
        return table.value(m, e)

    v: list[int] = []
    for e in range(e_max + 1):
        if e:
            lo, hi = p * v[-1], p * (v[-1] + 1) + (s - 1) * (p - 1)
        else:
            hi = 1
            while not contained(hi, 0):
                if hi == 1 and _outside_monomial_radical(J, I):
                    raise UnboundedError(
                        "v-number search: a term of the weighted product lies outside the "
                        "radical of the monomial target; radical condition violated"
                    )
                if hi > _SEARCH_CAP:
                    raise UnboundedError(
                        f"v-number search: containment still fails at m={hi}; "
                        "radical condition violated?"
                    )
                hi *= 2
            lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if contained(mid, e):
                hi = mid
            else:
                lo = mid
        v.append(hi - 1)
    return v, s


def v_number(fam: IdealFamily, r: Sequence[int], I: IdealGens, e: int) -> int:
    """Largest m with a_1^(m r_1) ... a_n^(m r_n) not inside the e-th bracket power of I.

    The last entry of the chain of _v_numbers, which climbs from level 0 and
    says how each level is searched.  Raises ValueError unless some weight
    is positive (then no power ever leaves the unit ideal) or unless e is a
    non-negative integer, ZeroRegionError when I is the unit ideal (even
    m = 0 is contained), and UnboundedError when no containment shows up
    below _SEARCH_CAP, or at once when I is monomial and the weighted
    product has a term outside its radical.  e need not keep p^e inside a
    machine word.
    """
    return _v_numbers(fam, r, I, e)[0][-1]


@dataclass(frozen=True)
class FThresholdResult:
    values: tuple[Fraction, ...]
    upper: Fraction


def f_threshold(fam: IdealFamily, r: Sequence[int], I: IdealGens, e_max: int) -> FThresholdResult:
    """The non-decreasing sequence v_e / p^e for e = 1..e_max, with limit bracket.

    Reads the chain v_0, ..., v_e_max of _v_numbers: one doubling search at
    level 0, then one bisection per level.  With l = v_0 + 1 the least power
    of the weighted product J inside I and s = len(J.gens), the limit lies
    in [values[-1], l*s].  Every level is searched through level-1 roots,
    so e_max has no machine-word cap, whether J is principal or not.
    """
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    p = fam.ring.p
    v, s = _v_numbers(fam, r, I, e_max)
    return FThresholdResult(tuple(Fraction(v[e], p ** e) for e in range(1, e_max + 1)),
                            Fraction((v[0] + 1) * s))


@dataclass(frozen=True)
class JumpRecord:
    lo: Fraction
    hi: Fraction
    key_before: str
    key_after: str


def jumping_scan(fam: IdealFamily, r: Sequence[int], k: int, bound,
                 cfg: TauConfig = DEFAULT_TAU_CONFIG) -> list[JumpRecord]:
    """Locate jumps of t -> tau(J^t), J the weighted product, on the level-k grid.

    Reports, in ascending order, each cell ((m-1)/p^k, m/p^k] with
    0 < m <= ceil(bound * p^k) where the canonical key changes.  When J =
    (g) is principal, tau(J^(m/p^k)) = (g^m)^[1/p^k] is read off one
    _DigitTable as S_k g^floor(m/p^k): no power g^m is expanded, each digit
    transition is taken once, and each (S_k, t) is keyed once, so k need
    not fit a machine word.  tau is antitone in t: equal keys at lo < hi
    mean tau(J^(lo/p^k)) and tau(J^(hi/p^k)) are one ideal that squeezes tau
    at every point between, so the walk bisects only intervals whose end
    keys differ.  Otherwise the values come from tau_mixed's confirmation
    window, which need not be antitone, so the walk steps through every m in
    ascending order and meets the first NotStabilizedError of a full scan;
    p^k must then fit a machine word, which is checked before any tau_mixed
    call (OverflowError).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    bound = as_fraction(bound)
    if bound < 0:
        raise ValueError("bound must be non-negative")
    J = reduce_to_single(fam, r)
    single = IdealFamily(fam.ring, (J,))
    q = fam.ring.p ** k
    top = _ceil(bound * q)

    if single.all_principal:
        table = _DigitTable(single, ideal_key)

        def key_at(m: int) -> str:
            return table.value(m, k)
    else:
        FrobLevel(fam.ring.p, k)  # OverflowError past a machine word, before any tau_mixed

        def key_at(m: int) -> str:
            return ideal_key(tau_mixed(single, (Fraction(m, q),), cfg))

    # a principal J is walked as one interval, a windowed one in unit steps
    step = top if single.all_principal else 1
    ends: list[tuple[int, str]] = []  # (m, key) of right ends left to walk, the nearest last
    jumps: list[JumpRecord] = []
    lo, key_lo = 0, key_at(0)
    while lo < top:
        if not ends:
            ends.append((lo + step, key_at(lo + step)))
        hi, key_hi = ends[-1]
        if key_hi != key_lo and hi - lo > 1:
            mid = (lo + hi) // 2
            ends.append((mid, key_at(mid)))
            continue
        if key_hi != key_lo:
            jumps.append(JumpRecord(Fraction(lo, q), Fraction(hi, q), key_lo, key_hi))
        ends.pop()
        lo, key_lo = hi, key_hi
    return jumps
