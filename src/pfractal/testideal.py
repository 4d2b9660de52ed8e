"""Generalized test ideals of ideal families, F-thresholds and jumping data.

The mixed test ideal tau(a_1^c_1 ... a_n^c_n) is the stable member of the
increasing chain of bracket roots of a_1^ceil(c_1 q) ... a_n^ceil(c_n q) as
q = p^e grows.  Principal ideals with p-power-denominator exponents admit an
exact shortcut: a single bracket root of the whole product, with no
stabilization loop and no Skoda peeling.  At every other point Skoda's
theorem peels off integer units of any coordinate that reaches the generator
count of its ideal before the loop runs.  One search chain, level by
level, finds the v-numbers behind F-thresholds; it decides a principal
power g^m in I^[p^e] as (g^m)^[1/p^e] in I, one level-1 root per base-p
digit of m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .algebra import (
    IdealGens,
    Polynomial,
    Ring,
    as_fraction,
    ideal_power,
    ideal_product,
    poly_pow,
)
from .frobenius import FrobLevel, bracket_power, ideal_bracket_root, poly_bracket_root
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
    """

    __slots__ = ("ring", "ideals", "gen_counts")

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

    @property
    def n(self) -> int:
        return len(self.ideals)

    @property
    def all_principal(self) -> bool:
        return all(c == 1 for c in self.gen_counts)

    def point(self, coords) -> tuple[Fraction, ...]:
        """Validate and coerce an exponent point for this family."""
        pt = tuple(as_fraction(c) for c in coords)
        if len(pt) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(pt)}")
        if any(c < 0 for c in pt):
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


# Kept: without it the k=4 staircase raster took 1.88 s instead of 0.81 s
# and the fractal workload 8.4 s instead of 2.6 s (bench/run.py, seed 0,
# 20 s per run, 2 cores, Python 3.11).
@lru_cache(maxsize=4096)
def _cached_pow(f: Polynomial, n: int) -> Polynomial:
    return poly_pow(f, n)


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def p_adic_level(point: Sequence[Fraction], p: int) -> int | None:
    """Smallest s with all coordinates of the form m / p^s, or None."""
    s = 0
    for c in point:
        den = c.denominator
        e = round(math.log(den, p))  # the only candidate for den = p^e
        if den != p ** e:
            return None
        s = max(s, e)
    return s


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
    s = p_adic_level(point, p)
    if s is None:
        return None
    scale = p ** s
    return [c_i.numerator * (scale // c_i.denominator) for c_i in point], s


def _degree_bound_check(fam: IdealFamily, point, result: IdealGens):
    total = sum(point, Fraction(0))
    d = max(max(g.degree() for g in a.gens) for a in fam.ideals)
    bound = _floor(Fraction(d) * total)
    for g in result.gens:
        if g.degree() > bound:
            raise AssertionError(
                f"generator degree {g.degree()} exceeds bound {bound} for exponent {point}"
            )


def _windowed_tau(fam: IdealFamily, point: Sequence[Fraction], cfg: TauConfig) -> IdealGens:
    """The stabilization loop: the first root accepted by the confirmation window."""
    p = fam.ring.p
    prev_key: str | None = None
    streak = 0
    for e in range(1, cfg.e_max + 1):
        q = p ** e
        exponents = [_ceil(ci * q) for ci in point]
        prod = _product_of_powers(fam, exponents)
        J = ideal_bracket_root(prod, FrobLevel(p, e))
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
    _v_numbers builds the chain of these steps and says why it is exact.  A
    root with a unit generator is the unit ideal and comes back as (1), so
    later steps of the chain do not carry its other generators.
    """
    prod = S
    for a_i, d_i in zip(fam.ideals, d):
        if d_i:
            prod = ideal_product(prod, IdealGens(fam.ring, (poly_pow(a_i.gens[0], d_i),)))
    root = ideal_bracket_root(prod, FrobLevel(fam.ring.p, 1))
    return IdealGens.unit(fam.ring) if root.has_unit_generator() else root


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

    A non-principal J raises its powers into I^[q], built once per level, so
    p^e_max must fit a machine word; that is checked before any search.
    Those powers are not products of bracket powers: J^(pa+c) != (J^a)^[p] J^c
    in general ((x, y)^2 holds xy, which (x, y)^[2] = (x^2, y^2) does not),
    so the projection formula has nothing to peel.  Each probe raises the
    members one by one (a principal member by base-p splitting), so a
    non-principal weighted product's generator list is never squared.  The
    fail-fast reads I itself: rad(I^[q]) = rad(I), and I^[q] is monomial
    exactly when I is.
    """
    J = reduce_to_single(fam, r)
    if not isinstance(e_max, int) or e_max < 0:
        raise ValueError(f"level must be a non-negative integer, got {e_max!r}")
    # I^[p^e] lies in I and holds 1 when I does: it is the unit ideal exactly when I is
    if ideal_contains(I, IdealGens.unit(fam.ring)):
        raise ZeroRegionError("target ideal is the unit ideal; every power is contained")
    p, s = fam.ring.p, len(J.gens)
    if s == 1:
        single = IdealFamily(fam.ring, (J,))
    else:
        FrobLevel(p, e_max)  # OverflowError past a machine word, before any search

    def contained(m: int, e: int, target: IdealGens) -> bool:
        if s > 1:
            return ideal_contains(target, _product_of_powers(fam, [m * r_i for r_i in r]))
        S = IdealGens.unit(fam.ring)
        for _ in range(e):
            m, d = divmod(m, p)
            S = _digit_step(single, S, (d,))
        return ideal_contains(I, ideal_product(S, ideal_power(J, m)))

    v: list[int] = []
    for e in range(e_max + 1):
        target = bracket_power(I, FrobLevel(p, e)) if s > 1 and e else I
        if e:
            lo, hi = p * v[-1], p * (v[-1] + 1) + (s - 1) * (p - 1)
        else:
            hi = 1
            while not contained(hi, 0, I):
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
            if contained(mid, e, target):
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
    m = 0 is contained), OverflowError when the weighted product is
    non-principal and p^e exceeds a machine word, and UnboundedError when
    no containment shows up below _SEARCH_CAP, or at once when I is monomial
    and the weighted product has a term outside its radical.
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
    in [values[-1], l*s].  A principal J has no machine-word cap on e_max; a
    non-principal J raises OverflowError before any search when p^e_max
    exceeds a machine word.
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
    0 < m <= ceil(bound * p^k) where the canonical key changes.  When J is
    principal every grid point takes the exact principal route, and tau is
    antitone in t: equal keys at lo < hi mean tau(J^(lo/p^k)) and
    tau(J^(hi/p^k)) are one ideal that squeezes tau at every point between,
    so the walk bisects only intervals whose end keys differ.  Otherwise the
    values come from the confirmation window, which need not be antitone,
    so the walk steps through every m in ascending order and meets the
    first NotStabilizedError of a full scan.
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
