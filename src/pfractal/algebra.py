"""Sparse multivariate polynomial arithmetic over prime fields F_p.

Coefficients are plain integers reduced into [0, p).  Monomials are tuples of
non-negative integer exponents, one slot per ring variable.  Everything is
exact; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

# Exponents must stay inside a machine word.
MAX_EXPONENT = (1 << 63) - 1

_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_REST = _IDENT_FIRST | set("0123456789")


class ExponentOverflowError(OverflowError):
    """An exponent left the machine-word range."""


class PolyParseError(ValueError):
    """Syntax error in a polynomial expression; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolyParseError):
    """Identifier in the input that is not a ring variable."""


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin, valid for all n < 2^64.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def grevlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key for graded reverse lexicographic order (bigger key = bigger monomial)."""
    total = 0
    for e in exps:
        total += e
    return (total, tuple(-e for e in reversed(exps)))


class Ring:
    """A polynomial ring F_p[x_1, ..., x_r] with a fixed variable order.

    The variable order determines the grevlex monomial order used for
    printing, Groebner bases and canonical ideal keys.
    """

    __slots__ = ("p", "vars", "_index")

    def __init__(self, p: int, variables: Sequence[str]):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        names = tuple(variables)
        if not names:
            raise ValueError("ring needs at least one variable")
        for name in names:
            if not name or name[0] not in _IDENT_FIRST or not all(ch in _IDENT_REST for ch in name):
                raise ValueError(f"bad variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.p = p
        self.vars = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.vars)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"{name!r} is not a variable of {self}") from None

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        if c == 0:
            return Polynomial._make(self, {})
        return Polynomial._make(self, {(0,) * self.arity: c})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.arity
        exps[self.var_index(name)] = 1
        return Polynomial._make(self, {tuple(exps): 1})

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): coeff})

    def polynomial(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def ideal(self, *gens) -> "IdealGens":
        polys = [self.polynomial(g) if isinstance(g, str) else g for g in gens]
        return IdealGens(self, polys)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.p == other.p and self.vars == other.vars

    def __hash__(self) -> int:
        return hash((self.p, self.vars))

    def __repr__(self) -> str:
        return f"F_{self.p}[{','.join(self.vars)}]"


class Polynomial:
    """Immutable sparse polynomial: a dict from exponent tuples to coefficients.

    Instances are only built through :meth:`_make` (trusted, already reduced)
    or the public constructor, which normalizes coefficients mod p and drops
    zeros.  Do not mutate ``terms``.
    """

    __slots__ = ("ring", "terms", "_hash", "_maxexp")

    def __init__(self, ring: Ring, terms: dict):
        clean: dict[tuple[int, ...], int] = {}
        arity = ring.arity
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise ValueError(f"exponent tuple {exps} does not match arity {arity}")
            for e in exps:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"exponents must be non-negative integers, got {exps}")
                if e > MAX_EXPONENT:
                    raise ExponentOverflowError(f"exponent {e} exceeds machine word")
            c = coeff % ring.p
            if c:
                clean[exps] = c
        self.ring = ring
        self.terms = clean
        self._hash = None
        self._maxexp = None

    @classmethod
    def _make(cls, ring: Ring, terms: dict) -> "Polynomial":
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._maxexp = None
        return self

    # ------------------------------------------------------------------ basics

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _max_exponent(self) -> int:
        if self._maxexp is None:
            self._maxexp = max((max(e) for e in self.terms), default=0)
        return self._maxexp

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lm = max(self.terms, key=grevlex_key)
        return lm, self.terms[lm]

    def leading_monomial(self) -> tuple[int, ...]:
        return self.leading_term()[0]

    def _scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return Polynomial._make(self.ring, {})
        if c == 1:
            return self
        p = self.ring.p
        return Polynomial._make(self.ring, {e: k * c % p for e, k in self.terms.items()})

    def scale_exponents(self, factor: int) -> "Polynomial":
        """Map each x^v to x^(factor*v); over F_p with factor = p^k this is f^(p^k)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        if factor == 1 or not self.terms:
            return self
        if factor == 0:
            total = sum(self.terms.values()) % self.ring.p
            return self.ring.constant(total)
        if self._max_exponent() * factor > MAX_EXPONENT:
            raise ExponentOverflowError("exponent scaling exceeds machine word")
        return Polynomial._make(
            self.ring, {tuple(e * factor for e in exps): c for exps, c in self.terms.items()}
        )

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        p = self.ring.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = (out.get(exps, 0) + c) % p
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial._make(self.ring, out)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return self._scale(self.ring.p - 1)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self._scale(other)
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Polynomial._make(self.ring, {})
        if self._max_exponent() + other._max_exponent() > MAX_EXPONENT:
            raise ExponentOverflowError("product exponent exceeds machine word")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        p = self.ring.p
        if len(a) == 1:
            # shift by a monomial
            (se, sc), = a.items()
            if not any(se) and sc == 1:
                return other if a is self.terms else self
            out = {}
            for exps, c in b.items():
                out[tuple(x + y for x, y in zip(exps, se))] = c * sc % p
            return Polynomial._make(self.ring, out)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                s = (out.get(key, 0) + c1 * c2) % p
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Polynomial._make(self.ring, out)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        return poly_pow(self, n)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    # ------------------------------------------------------------ conversions

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self == self.ring.constant(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def to_str(self, compact: bool = False) -> str:
        if not self.terms:
            return "0"
        names = self.ring.vars
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = []
            if coeff != 1 or not any(exps):
                factors.append(str(coeff))
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            chunks.append("*".join(factors))
        sep = "+" if compact else " + "
        return sep.join(chunks)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({self.ring!r}, {self.to_str(compact=True)})"


def poly_pow(f: Polynomial, n: int) -> Polynomial:
    """f^n, splitting n along base-p digits so Frobenius powers are exponent scalings.

    With n = sum c_j p^j the result is the product of (f^(c_j))^(p^j); each
    inner power uses square-and-multiply (c_j < p) and each outer one is a
    plain rescaling of exponent vectors, which is exact in characteristic p.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"exponent must be a non-negative integer, got {n!r}")
    ring = f.ring
    if n == 0:
        return ring.one()
    if n == 1 or f.is_zero:
        return f
    p = ring.p
    result = None
    scale = 1
    while n:
        digit = n % p
        if digit:
            part = _pow_small(f, digit).scale_exponents(scale)
            result = part if result is None else result * part
        n //= p
        if n:
            if scale > MAX_EXPONENT // p:
                raise ExponentOverflowError("power exceeds machine word exponents")
            scale *= p
    return result


def _pow_small(f: Polynomial, n: int) -> Polynomial:
    """Square-and-multiply; no characteristic shortcuts (also the naive reference)."""
    result = f.ring.one()
    base = f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class IdealGens:
    """An ideal presented by a finite generator list (order preserved, dedup'd).

    The empty list is the zero ideal.  Generators are kept as given except
    that zeros are dropped and duplicates removed.  The reduced Groebner
    basis is computed by groebner.buchberger the first time it is needed and
    kept on the instance; :attr:`basis` reads it.
    """

    __slots__ = ("ring", "gens", "_hash", "_reduced")

    def __init__(self, ring: Ring, gens: Iterable[Polynomial]):
        seen = set()
        kept = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError(f"generators must be Polynomial, got {type(g).__name__}")
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero or g in seen:
                continue
            seen.add(g)
            kept.append(g)
        self.ring = ring
        self.gens = tuple(kept)
        self._hash = None
        self._reduced = None

    @classmethod
    def zero(cls, ring: Ring) -> "IdealGens":
        return cls(ring, ())

    @classmethod
    def unit(cls, ring: Ring) -> "IdealGens":
        return cls(ring, (ring.one(),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def has_unit_generator(self) -> bool:
        return any(g.is_constant and not g.is_zero for g in self.gens)

    @property
    def basis(self) -> tuple[Polynomial, ...]:
        """The reduced grevlex Groebner basis, once groebner.buchberger has computed it."""
        if self._reduced is None:
            raise ValueError("reduced basis not computed yet; call groebner.buchberger")
        return self._reduced.gens

    def __eq__(self, other) -> bool:
        # Syntactic equality of generator lists; use groebner.ideal_equal for
        # equality of the ideals themselves.  Kept syntactic because keying by
        # the reduced basis ran Buchberger once per raster cell: +0.58 s on
        # the 0.87 s of the k=4 staircase raster's tau values (2 cores, 3.11).
        if not isinstance(other, IdealGens):
            return NotImplemented
        return self.ring == other.ring and self.gens == other.gens

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.gens))
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(g.to_str(compact=True) for g in self.gens) or "0"
        return f"Ideal({inside})"


def ideal_product(I: IdealGens, J: IdealGens) -> IdealGens:
    """Generators of I*J: all pairwise products, deduplicated."""
    if I.ring != J.ring:
        raise ValueError("mixed rings")
    return IdealGens(I.ring, (a * b for a in I.gens for b in J.gens))


def ideal_power(I: IdealGens, m: int) -> IdealGens:
    """I^m; I^0 is the unit ideal and the zero ideal's positive powers are zero.

    A principal ideal is raised through poly_pow's base-p splitting.  For
    I = (g_1, ..., g_n) with n >= 2, every product of m generators is some
    g_1^k_1 ... g_n^k_n with |k| = m, so these C(m+n-1, n-1) products
    generate I^m, and each is formed once:
      - one power row [1, g_j, g_j^2, ...] per generator, by repeated
        multiplication: at most n (m - 1) multiplies;
      - the vectors k in lexicographic order with k_1 descending, the prefix
        g_1^k_1 ... g_j^k_j formed once and shared by every vector that
        extends it: at most n - 1 multiplies per generator.
    Binary exponentiation over generator lists formed the same polynomials
    with sum |A| |B| multiplies over its products A * B, most of them
    duplicates: about 230k for the 1,711 generators of (x, y, z)^57, against
    3,416 here.  Its deduplicated lists keep each product at its
    lexicographically first vector, so both routes give the same generators
    in the same order whenever distinct vectors give distinct polynomials.
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"ideal power must be a non-negative integer, got {m!r}")
    if len(I.gens) == 1:
        return IdealGens(I.ring, (poly_pow(I.gens[0], m),))
    ring, gens = I.ring, I.gens
    if m == 0:
        return IdealGens.unit(ring)
    if not gens:
        return IdealGens.zero(ring)
    # rows[j] = [1, g_j, g_j^2, ...]: g_j^k is first needed once k_1 <= m - k,
    # so the rows of g_2 .. g_n grow on demand while that of g_1, read from
    # g_1^m down, is dropped entry by entry.
    rows = [[ring.one(), g] for g in gens]
    final = len(gens) - 1

    def times(prefix: Polynomial | None, j: int, k: int) -> Polynomial | None:
        # prefix * g_j^k, with None for the empty product
        if not k:
            return prefix
        row = rows[j]
        while len(row) <= k:
            row.append(row[-1] * gens[j])
        return row[k] if prefix is None else prefix * row[k]

    def products(j: int, prefix: Polynomial | None, left: int) -> Iterator[Polynomial]:
        # prefix * g_j^k_j ... g_n^k_n over k_j + ... + k_n = left, k_j descending
        if j == final:
            yield times(prefix, j, left)
            return
        for k in range(left, -1, -1):
            yield from products(j + 1, times(prefix, j, k), left - k)
            if not j:
                del rows[0][k:]

    return IdealGens(ring, products(0, None, m))


def lucas_binomial(m: int, n: int, p: int) -> int:
    """binomial(m, n) mod p via base-p digits: the product of digit binomials.

    Zero as soon as some digit of n exceeds the matching digit of m.
    """
    if not _is_prime(p):
        raise ValueError(f"modulus must be prime, got {p!r}")
    if m < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    if n > m:
        return 0
    result = 1
    while n:
        a, b = m % p, n % p
        if b > a:
            return 0
        result = result * _digit_binomial(a, b, p) % p
        m //= p
        n //= p
    return result


def _digit_binomial(a: int, b: int, p: int) -> int:
    # a, b < p; multiplicative formula mod p keeps this cheap for large p.
    if b > a - b:
        b = a - b
    num = den = 1
    for i in range(b):
        num = num * ((a - i) % p) % p
        den = den * (i + 1) % p
    return num * pow(den, p - 2, p) % p


# ------------------------------------------------------------------ parsing

_T_NUM = "num"
_T_IDENT = "ident"
_T_OP = "op"
_T_END = "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_T_NUM, text[i:j], i))
            i = j
            continue
        if ch in _IDENT_FIRST:
            j = i
            while j < n and text[j] in _IDENT_REST:
                j += 1
            tokens.append((_T_IDENT, text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((_T_OP, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append((_T_END, "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: Ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == _T_OP and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == _T_OP and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == _T_OP and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != _T_NUM:
                raise PolyParseError("expected integer exponent after '^'", pos)
            n = int(value)
            if n > MAX_EXPONENT:
                raise ExponentOverflowError(f"exponent {value} exceeds machine word")
            return poly_pow(base, n)
        return base

    def base(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == _T_NUM:
            return self.ring.constant(int(value))
        if kind == _T_IDENT:
            if value not in self.ring._index:
                raise UnknownVariableError(f"unknown variable {value!r}", pos)
            return self.ring.variable(value)
        if kind == _T_OP and value == "(":
            inner = self.expr()
            kind, value, pos = self.advance()
            if not (kind == _T_OP and value == ")"):
                raise PolyParseError("expected ')'", pos)
            return inner
        raise PolyParseError(f"expected a variable, integer or '(', got {value!r}", pos)


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse ``text`` into a polynomial of ``ring``.

    Grammar: sums/differences of products of powers, with '^' taking an
    unsigned integer exponent and parentheses allowed.  There is no unary
    minus.  Whitespace is insignificant.
    """
    parser = _Parser(_tokenize(text), ring)
    result = parser.expr()
    kind, value, pos = parser.peek()
    if kind != _T_END:
        raise PolyParseError(f"unexpected trailing input {value!r}", pos)
    return result


def as_fraction(value) -> Fraction:
    """Exact coercion of int/Fraction input; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")
