"""Frobenius bracket powers and bracket roots of polynomials and ideals over F_p.

The q-th bracket power of an ideal raises each generator to the q-th power
(q = p^e), which in characteristic p just rescales exponent vectors.  The
bracket root is its left adjoint: the smallest ideal J with b contained in
the q-th bracket power of J.  Both directions are exact and cheap; no linear
algebra over F_p is needed because F_p is perfect with trivial q-th roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import MAX_EXPONENT, IdealGens, Polynomial, _is_prime


@dataclass(frozen=True)
class FrobLevel:
    """A Frobenius level: the pair (p, e) with q = p^e cached.

    q must fit in a machine word; construction fails otherwise.
    """

    p: int
    e: int
    q: int = field(init=False, compare=False)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p!r}")
        if not isinstance(self.e, int) or self.e < 0:
            raise ValueError(f"level must be a non-negative integer, got {self.e!r}")
        q = 1
        for _ in range(self.e):
            if q > MAX_EXPONENT // self.p:
                raise OverflowError(f"p^e = {self.p}^{self.e} exceeds machine word")
            q *= self.p
        object.__setattr__(self, "q", q)


def _check_ring(ring_p: int, level: FrobLevel):
    if ring_p != level.p:
        raise ValueError(f"level characteristic {level.p} does not match ring characteristic {ring_p}")


def bracket_power(I: IdealGens, level: FrobLevel) -> IdealGens:
    """The q-th bracket power: generators raised to the q-th power."""
    _check_ring(I.ring.p, level)
    return IdealGens(I.ring, (g.scale_exponents(level.q) for g in I.gens))


def poly_bracket_root(h: Polynomial, level: FrobLevel) -> IdealGens:
    """Smallest ideal J with h in the q-th bracket power of J.

    Split the terms of h by the residue class of their exponent vectors mod
    q.  For the class with representative a (componentwise in [0, q)), the
    terms x^v with v = q*w + a contribute coeff * x^w to one generator;
    coefficients carry over unchanged because c^q = c on F_p.  The generators
    over all classes present in h give J, in the order of the sorted
    representatives.  Classes with equal term sets (most often constants)
    give one generator, kept at its first class, before any Polynomial is
    built.
    """
    if h.is_zero:
        raise ValueError("bracket root of the zero polynomial")
    _check_ring(h.ring.p, level)
    q = level.q
    if q == 1:
        return IdealGens(h.ring, (h,))
    rmod, rfloordiv = q.__rmod__, q.__rfloordiv__
    buckets: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for exps, c in h.terms.items():
        buckets.setdefault(tuple(map(rmod, exps)), {})[tuple(map(rfloordiv, exps))] = c
    distinct: dict[frozenset, dict[tuple[int, ...], int]] = {}
    for rep in sorted(buckets):
        terms = buckets[rep]
        distinct.setdefault(frozenset(terms.items()), terms)
    return IdealGens(h.ring, [Polynomial._make(h.ring, terms) for terms in distinct.values()])


def ideal_bracket_root(b: IdealGens, level: FrobLevel) -> IdealGens:
    """Bracket root of an ideal: union of the roots of its generators."""
    if b.is_zero:
        raise ValueError("bracket root of the zero ideal")
    _check_ring(b.ring.p, level)
    out = []
    for g in b.gens:
        out.extend(poly_bracket_root(g, level).gens)
    return IdealGens(b.ring, out)
