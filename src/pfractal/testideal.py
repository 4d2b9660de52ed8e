"""Generalized test ideals of ideal families, F-thresholds and jumping data.

The mixed test ideal tau(a_1^c_1 ... a_n^c_n) is the stable member of the
increasing chain of bracket roots of a_1^ceil(c_1 q) ... a_n^ceil(c_n q) as
q = p^e grows.  Principal ideals with p-power-denominator exponents admit an
exact shortcut (a single bracket root, no stabilization loop), and Skoda's
theorem peels off integer units of any coordinate that reaches the generator
count of its ideal.
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


# Kept: without it the k=4 staircase raster took 1.24-1.53 s instead of
# 0.89-1.02 s and the fractal workload 8.0-8.7 s instead of 3.1-3.5 s
# (2 cores, Python 3.11).
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


def skoda_reduce(fam: IdealFamily, s) -> tuple[IdealGens, tuple[Fraction, ...]]:
    """Split tau(a^s) = factor * tau(a^residual) by peeling integer units.

    One unit of a_i comes off while s_i >= gen_counts[i], so the residual
    satisfies residual_i < gen_counts[i].  The factor is the product of the
    peeled ideal powers (the unit ideal when nothing peels).
    """
    point = fam.point(s)
    peeled = [_floor(c - m_i) + 1 if c >= m_i else 0 for c, m_i in zip(point, fam.gen_counts)]
    residual = tuple(c - k for c, k in zip(point, peeled))
    return _product_of_powers(fam, peeled), residual


def _check_weights(fam: IdealFamily, r: Sequence[int]) -> None:
    if len(r) != fam.n:
        raise ValueError(f"expected {fam.n} weights, got {len(r)}")
    if any((not isinstance(x, int)) or x < 0 for x in r):
        raise ValueError("weights must be non-negative integers")


def reduce_to_single(fam: IdealFamily, r: Sequence[int]) -> IdealGens:
    """The weighted product J with tau(a_1^(t r_1) ... a_n^(t r_n)) = tau(J^t)."""
    _check_weights(fam, r)
    if not any(r):
        raise ValueError("at least one weight must be positive")
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
    return [int(c_i * scale) for c_i in point], s


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

    Order of attack: Skoda peeling first, then, on the residual point, the
    exact principal shortcut when every member is principal and every
    exponent has a p-power denominator, finally the stabilization loop over
    Frobenius levels with a confirmation window.  Raises NotStabilizedError
    when the window is not confirmed by level e_max.  The degree audit
    skips the principal shortcut: a generator of the [1/p^s] root of g has
    degree at most deg(g) / p^s <= d * |c|.
    """
    factor, residual = skoda_reduce(fam, c)
    principal = _principal_padic(fam, residual)
    if principal is not None:
        m, s = principal
        core = poly_bracket_root(_principal_product(fam, m), FrobLevel(fam.ring.p, s))
    else:
        core = _windowed_tau(fam, residual, cfg)
    if factor.has_unit_generator():
        return core
    result = ideal_product(factor, core)
    if cfg.degree_check:
        # a peeled product at a p-adic point can expose a window that
        # accepted below the point's p-adic level
        point = fam.point(c)
        if p_adic_level(point, fam.ring.p) is not None:
            _degree_bound_check(fam, point, result)
    return result


_SEARCH_CAP = 1_000_000  # a containment search past this power raises UnboundedError


def _least_power_inside(fam: IdealFamily, r: Sequence[int], target: IdealGens, what: str) -> int:
    """Least positive m with a_1^(m r_1) ... a_n^(m r_n) inside target; cap guarded.

    Containment is monotone in m.  Each probe raises the members one by one
    (a principal member by base-p splitting), so a non-principal weighted
    product's generator list is never squared.
    """
    def contained(m: int) -> bool:
        return ideal_contains(target, _product_of_powers(fam, [m * r_i for r_i in r]))

    hi = 1
    while not contained(hi):
        if hi > _SEARCH_CAP:
            raise UnboundedError(
                f"{what}: containment still fails at m={hi}; radical condition violated?"
            )
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if contained(mid):
            hi = mid
        else:
            lo = mid
    return hi


def v_number(fam: IdealFamily, r: Sequence[int], I: IdealGens, e: int) -> int:
    """Largest m with a_1^(m r_1) ... a_n^(m r_n) not inside the e-th bracket power of I.

    Containment is monotone in m, so an exponential probe followed by binary
    search finds the boundary.  Raises ZeroRegionError when I is the unit
    ideal (even m = 0 is contained) and UnboundedError when no containment
    shows up below _SEARCH_CAP.
    """
    _check_weights(fam, r)
    target = bracket_power(I, FrobLevel(fam.ring.p, e))
    if ideal_contains(target, IdealGens.unit(fam.ring)):
        raise ZeroRegionError("target ideal is the unit ideal; every power is contained")
    return _least_power_inside(fam, r, target, "v-number search") - 1


@dataclass(frozen=True)
class FThresholdResult:
    values: tuple[Fraction, ...]
    upper: Fraction


def f_threshold(fam: IdealFamily, r: Sequence[int], I: IdealGens, e_max: int) -> FThresholdResult:
    """The non-decreasing sequence v_e / p^e for e = 1..e_max, with limit bracket.

    The limit lies in [values[-1], l*s] where s counts the generators of the
    weighted product ideal and l is the least power with a^(l r) inside I.
    """
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    p = fam.ring.p
    values = tuple(Fraction(v_number(fam, r, I, e), p ** e) for e in range(1, e_max + 1))
    J = reduce_to_single(fam, r)
    l_min = _least_power_inside(fam, r, I, "threshold bound search")
    return FThresholdResult(values, Fraction(l_min * len(J.gens)))


@dataclass(frozen=True)
class JumpRecord:
    lo: Fraction
    hi: Fraction
    key_before: str
    key_after: str


def jumping_scan(fam: IdealFamily, r: Sequence[int], k: int, bound,
                 cfg: TauConfig = DEFAULT_TAU_CONFIG) -> list[JumpRecord]:
    """Locate jumps of t -> tau(J^t), J the weighted product, on the level-k grid.

    Scans t = m / p^k for m = 0..ceil(bound * p^k) and reports each cell
    ((m-1)/p^k, m/p^k] where the canonical key changes.
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
    jumps: list[JumpRecord] = []
    prev_key: str | None = None
    for m in range(top + 1):
        key = ideal_key(tau_mixed(single, (Fraction(m, q),), cfg))
        if m > 0 and key != prev_key:
            jumps.append(JumpRecord(Fraction(m - 1, q), Fraction(m, q), prev_key, key))
        prev_key = key
    return jumps
