"""Groebner bases over F_p under grevlex, and the ideal predicates built on them.

The reduced basis is the canonical identity of an ideal here: membership,
equality and the printable ideal key all go through it, and each IdealGens
keeps its own once computed.
Buchberger's algorithm with the normal pair-selection strategy is used
throughout; everything is deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .algebra import IdealGens, Polynomial, Ring, grevlex_key


class ResourceLimitError(RuntimeError):
    """A Groebner computation exceeded its configured pair cap."""


@dataclass(frozen=True)
class GroebnerLimits:
    max_pairs: int = 1_000_000

    def __post_init__(self):
        if self.max_pairs < 0:
            raise ValueError("max_pairs must be non-negative")


DEFAULT_LIMITS = GroebnerLimits()


def _lcm_exps(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lead(f: Polynomial, key) -> tuple[tuple[int, ...], int]:
    # Leading term under an arbitrary monomial order, not just grevlex.
    lm = max(f.terms, key=key)
    return lm, f.terms[lm]


def _monic_under(f: Polynomial, key) -> Polynomial:
    lc = _lead(f, key)[1]
    return f if lc == 1 else f * pow(lc, f.ring.p - 2, f.ring.p)


def _divide(f: Polynomial, divisors: Sequence[Polynomial], key, want_quotients: bool):
    """Multivariate division: f = sum q_i d_i + r, no term of r divisible by any LM(d_i).

    Reduces the current lead term each step, trying divisors in list order.
    Leading terms on both sides are taken under key.
    """
    ring = f.ring
    p = ring.p
    table = []
    for d in divisors:
        lm, lc = _lead(d, key)
        table.append((lm, pow(lc, p - 2, p), d.terms))
    quotients = [dict() for _ in divisors] if want_quotients else None
    work = dict(f.terms)
    remainder: dict[tuple[int, ...], int] = {}
    while work:
        lead = max(work, key=key)
        coeff = work.pop(lead)
        for idx, (lm, lc_inv, dterms) in enumerate(table):
            if _divides(lm, lead):
                shift = tuple(x - y for x, y in zip(lead, lm))
                q = coeff * lc_inv % p
                if want_quotients:
                    quotients[idx][shift] = (quotients[idx].get(shift, 0) + q) % p
                for exps, c in dterms.items():
                    tgt = tuple(x + y for x, y in zip(exps, shift))
                    if tgt == lead:
                        continue
                    s = (work.get(tgt, 0) - q * c) % p
                    if s:
                        work[tgt] = s
                    else:
                        work.pop(tgt, None)
                break
        else:
            remainder[lead] = coeff
    rem = Polynomial._make(ring, remainder)
    if want_quotients:
        return [Polynomial._make(ring, q) for q in quotients], rem
    return rem


def normal_form(f: Polynomial, I: IdealGens,
                limits: GroebnerLimits = DEFAULT_LIMITS) -> Polynomial:
    """Remainder of f under division by the reduced basis of I."""
    basis = buchberger(I, limits).gens
    if not basis or f.is_zero:
        return f
    return _divide(f, basis, grevlex_key, want_quotients=False)


def reduces_to_zero(f: Polynomial, I: IdealGens,
                    limits: GroebnerLimits = DEFAULT_LIMITS) -> bool:
    """Whether f lies in I: its normal form against the reduced basis vanishes."""
    if f.is_zero:
        return True
    basis = buchberger(I, limits).gens
    if not basis:
        return False
    if all(len(g.terms) == 1 for g in basis):
        # Remainder just filters terms; only existence of a survivor matters.
        lms = [g.leading_monomial() for g in basis]
        return not any(
            all(not _divides(lm, exps) for lm in lms) for exps in f.terms
        )
    return normal_form(f, I, limits).is_zero


def _buchberger_core(polys: list[Polynomial], key, limits: GroebnerLimits) -> list[Polynomial]:
    """Raw Buchberger loop under an arbitrary monomial order key.

    Pair selection is by minimal lcm degree with the order key of the lcm and
    the pair indices as tie-breaks.  The product (coprime-lead) criterion is
    applied.  Returns an unreduced basis of monic polynomials.
    """
    ring = polys[0].ring
    basis = [_monic_under(g, key) for g in polys]
    heap: list = []

    def push_pairs(j: int):
        lm_j = _lead(basis[j], key)[0]
        for i in range(j):
            lm_i = _lead(basis[i], key)[0]
            lcm = _lcm_exps(lm_i, lm_j)
            if lcm == tuple(x + y for x, y in zip(lm_i, lm_j)):
                continue  # coprime leads: S-pair reduces to zero
            heapq.heappush(heap, (sum(lcm), key(lcm), i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)

    processed = 0
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        processed += 1
        if processed > limits.max_pairs:
            raise ResourceLimitError(f"pair limit {limits.max_pairs} exceeded")
        f, g = basis[i], basis[j]
        lf, lg = _lead(f, key)[0], _lead(g, key)[0]
        sf = ring.monomial(tuple(x - y for x, y in zip(lcm, lf)))
        sg = ring.monomial(tuple(x - y for x, y in zip(lcm, lg)))
        s_poly = sf * f - sg * g
        if s_poly.is_zero:
            continue
        rem = _divide(s_poly, basis, key, want_quotients=False)
        if rem.is_zero:
            continue
        basis.append(_monic_under(rem, key))
        push_pairs(len(basis) - 1)
    return basis


def _reduce_basis(basis: list[Polynomial], key) -> list[Polynomial]:
    """Minimalize and tail-reduce a Groebner basis; output monic and sorted."""
    basis = [g for g in basis if not g.is_zero]
    if not basis:
        return []
    if any(g.is_constant for g in basis):
        return [basis[0].ring.one()]
    # minimal: drop any generator whose lead is divisible by another lead
    basis = sorted(basis, key=lambda g: key(_lead(g, key)[0]))
    minimal: list[Polynomial] = []
    for g in basis:
        lm = _lead(g, key)[0]
        if not any(_divides(_lead(h, key)[0], lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        rem = _divide(g, others, key, want_quotients=False) if others else g
        reduced.append(_monic_under(rem, key))
    reduced.sort(key=lambda g: g.to_str(compact=True))
    return reduced


def buchberger(I: IdealGens, limits: GroebnerLimits = DEFAULT_LIMITS) -> IdealGens:
    """The reduced grevlex Groebner basis of I, as the ideal it generates.

    Computed on the first call and kept on I; later calls return it without
    work, whatever their limits.  The result is its own reduced basis, so
    buchberger(buchberger(I)) is buchberger(I).  Its gens (= basis) are monic,
    auto-reduced and in the byte order of their compact printed form, which
    is also the order of the ideal key.  The unit ideal has basis (1,) and
    the zero ideal an empty basis.
    """
    if I._reduced is None:
        ring = I.ring
        if not I.gens:
            basis = ()
        elif I.has_unit_generator():
            basis = (ring.one(),)
        else:
            raw = _buchberger_core(list(I.gens), grevlex_key, limits)
            basis = tuple(_reduce_basis(raw, grevlex_key))
        reduced = I if basis == I.gens else IdealGens(ring, basis)
        reduced._reduced = reduced
        I._reduced = reduced
    return I._reduced


def ideal_key(I: IdealGens, limits: GroebnerLimits = DEFAULT_LIMITS) -> str:
    """Canonical string identity of an ideal: printed reduced basis joined by ';'.

    Equal ideals always produce byte-identical keys; the zero ideal gives ''.
    """
    return ";".join(g.to_str(compact=True) for g in buchberger(I, limits).gens)


def ideal_contains(I: IdealGens, J: IdealGens, limits: GroebnerLimits = DEFAULT_LIMITS) -> bool:
    """Whether I contains J, i.e. every generator of J lies in I."""
    return all(reduces_to_zero(g, I, limits) for g in J.gens)


def ideal_equal(I: IdealGens, J: IdealGens, limits: GroebnerLimits = DEFAULT_LIMITS) -> bool:
    return buchberger(I, limits).gens == buchberger(J, limits).gens


# ------------------------------------------------------- colon via elimination

def _aux_name(ring: Ring) -> str:
    name = "t"
    k = 0
    while name in ring.vars:
        name = f"t{k}"
        k += 1
    return name


def _elim_key(exps: tuple[int, ...]) -> tuple:
    # Block order: compare the auxiliary (first) variable, then grevlex rest.
    return (exps[0], grevlex_key(exps[1:]))


def _lift(f: Polynomial, ext: Ring, t_deg: int = 0) -> Polynomial:
    return Polynomial._make(ext, {(t_deg,) + exps: c for exps, c in f.terms.items()})


def _eliminate(A: Sequence[Polynomial], B: Sequence[Polynomial], ring: Ring,
               limits: GroebnerLimits) -> list[Polynomial]:
    """Generators of (A) intersect (B) via t*A + (1-t)*B and elimination of t."""
    ext = Ring(ring.p, (_aux_name(ring),) + ring.vars)
    gens = [_lift(g, ext, 1) for g in A]
    for g in B:
        gens.append(_lift(g, ext) - _lift(g, ext, 1))
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    raw = _buchberger_core(gens, _elim_key, limits)
    reduced = _reduce_basis(raw, _elim_key)
    out = []
    for g in reduced:
        if all(e[0] == 0 for e in g.terms):
            out.append(Polynomial._make(ring, {e[1:]: c for e, c in g.terms.items()}))
    return out


def _intersect(I: IdealGens, J: IdealGens, limits: GroebnerLimits) -> IdealGens:
    if I.is_zero or J.is_zero:
        return IdealGens.zero(I.ring)
    if I.has_unit_generator():
        return J
    if J.has_unit_generator():
        return I
    return IdealGens(I.ring, _eliminate(I.gens, J.gens, I.ring, limits))


def ideal_colon(I: IdealGens, J: IdealGens, limits: GroebnerLimits = DEFAULT_LIMITS) -> IdealGens:
    """The colon ideal (I : J) = {f : f*J is contained in I}.

    Computed per generator f of J as (I : f), intersecting the results.  Each
    (I : f) comes from the elimination identity: the t-free part of a basis
    of t*I + (1-t)*(f) generates the intersection I and (f), whose members
    divide exactly by f.
    """
    if J.is_zero:
        raise ValueError("colon by the zero ideal")
    ring = I.ring
    if J.ring != ring:
        raise ValueError("mixed rings")
    if I.is_zero:
        return IdealGens.zero(ring)
    if J.has_unit_generator():
        return I
    result: IdealGens | None = None
    for f in J.gens:
        meet = _eliminate(I.gens, [f], ring, limits)
        quotients = []
        for g in meet:
            q, rem = _divide(g, [f], grevlex_key, want_quotients=True)
            if not rem.is_zero:
                raise RuntimeError("exact division failed in colon computation")
            quotients.append(q[0])
        part = IdealGens(ring, quotients)
        result = part if result is None else _intersect(result, part, limits)
        if result.is_zero:
            break
    return result
