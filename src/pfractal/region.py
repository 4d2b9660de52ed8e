"""Constancy regions of mixed test ideals: sampling, rasters and fractal structure.

chi(fam, I, c) is 1 exactly when tau(a^c) is not contained in I; the sets
where chi = 1 are down-sets in the exponent orthant, and the constancy
region of a test ideal value is a finite boolean combination of them.  The
scaling operators phi -> phi((t + b) / q) act on sampled grids here, and the
self-similarity of chi under them is checked point by point.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Sequence

from .algebra import IdealGens, as_fraction
from .frobenius import FrobLevel, bracket_power
from .groebner import (
    buchberger,
    ideal_colon,
    ideal_contains,
    ideal_key,
    reduces_to_zero,
)
from .testideal import (
    DEFAULT_TAU_CONFIG,
    IdealFamily,
    NotStabilizedError,
    TauConfig,
    _principal_padic,
    _principal_product,
    _product_of_powers,
    tau_mixed,
)


class ResolutionMismatchError(ValueError):
    """A grid operation asked for a finer level than the samples provide."""


class CellNotStabilized(NotStabilizedError):
    """Raster evaluation hit a cell whose test ideal chain did not stabilize."""

    def __init__(self, e_max: int, cell: tuple[int, ...], point: tuple[Fraction, ...]):
        super().__init__(e_max)
        self.cell = cell
        self.point = point
        self.args = (f"cell {cell} at point {tuple(str(c) for c in point)}: {self.args[0]}",)


@dataclass(frozen=True)
class Box:
    """An axis box [0, l_1] x ... x [0, l_n] with positive rational sides."""

    sides: tuple[Fraction, ...]

    def __init__(self, sides):
        coerced = tuple(as_fraction(s) for s in sides)
        if not coerced or any(s <= 0 for s in coerced):
            raise ValueError("box sides must be positive rationals")
        object.__setattr__(self, "sides", coerced)

    @property
    def n(self) -> int:
        return len(self.sides)

    def shape(self, p: int, k: int) -> tuple[int, ...]:
        """Grid points per axis at step 1 / p^k; corners must land on the grid."""
        if k < 0:
            raise ValueError("k must be non-negative")
        q = p ** k
        counts = []
        for s in self.sides:
            top = s * q
            if top.denominator != 1:
                raise ValueError(f"box side {s} not representable at level {k}")
            counts.append(int(top) + 1)
        return tuple(counts)


def _family_shape(fam: IdealFamily, box: Box, k: int) -> tuple[int, ...]:
    """The level-k grid shape of a box with one axis per member of the family."""
    if box.n != fam.n:
        raise ValueError(f"box has {box.n} axes but the family has {fam.n} ideals")
    return box.shape(fam.ring.p, k)


def _flat_index(idx: tuple[int, ...], shape: tuple[int, ...]) -> int:
    flat = 0
    for i, n in zip(idx, shape):
        flat = flat * n + i
    return flat


@dataclass(frozen=True)
class GridFunction:
    """Row-major exact samples of a function on the level-k grid of a box."""

    p: int
    box: Box
    k: int
    values: tuple

    def __post_init__(self):
        expected = 1
        for n in self.shape:
            expected *= n
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} samples, got {len(self.values)}")

    @cached_property  # value_at reads it once per cell in the raster writers
    def shape(self) -> tuple[int, ...]:
        return self.box.shape(self.p, self.k)

    def value_at(self, idx: Sequence[int]):
        return self.values[_flat_index(tuple(idx), self.shape)]

    def point_at(self, idx: Sequence[int]) -> tuple[Fraction, ...]:
        q = self.p ** self.k
        return tuple(Fraction(i, q) for i in idx)

    def fingerprint(self) -> str:
        blob = ";".join(str(v) for v in self.values)
        header = f"k={self.k};shape={self.shape};"
        return hashlib.sha256((header + blob).encode()).hexdigest()


class _ChiOracle:
    """Call-scoped evaluator for chi with memoized bracket powers.

    For an all-principal family at a point m / p^s with integer m,
    tau(a^c) equals the bracket root of g = prod gens_i^m_i at level s, and
    containment in I is equivalent to membership of g in the s-th bracket
    power of I.  That turns one chi sample into a single normal form against
    the bracket power's cached basis.  Other inputs fall back to a full tau
    and a containment test.
    """

    def __init__(self, fam: IdealFamily, cfg: TauConfig = DEFAULT_TAU_CONFIG):
        self.fam = fam
        self.cfg = cfg
        # Kept over tau_mixed plus containment, which took the fractal workload
        # from 2.6 s to 6.6 s (bench/run.py, seed 0, 2 cores, Python 3.11):
        # bracket roots and dedup dominate.
        self._brackets: dict[tuple[IdealGens, int], IdealGens] = {}

    def chi_at(self, I: IdealGens, m: Sequence[int], s: int) -> int:
        """chi at the point m / p^s, m a vector of non-negative integers."""
        fam = self.fam
        p = fam.ring.p
        if not fam.all_principal:
            q = p ** s
            tau = tau_mixed(fam, tuple(Fraction(m_i, q) for m_i in m), self.cfg)
            return 0 if ideal_contains(I, tau) else 1
        # the same point at its least level keeps g and the bracket power small
        while s and not any(m_i % p for m_i in m):
            m = [m_i // p for m_i in m]
            s -= 1
        g = _principal_product(fam, m)
        bracket = self._brackets.get((I, s))
        if bracket is None:
            bracket = bracket_power(I, FrobLevel(p, s))
            self._brackets[(I, s)] = bracket
        return 0 if reduces_to_zero(g, bracket) else 1

    def chi(self, I: IdealGens, c) -> int:
        # the shortcut needs only the coerced coordinates; fam.point then
        # validates the shortcut's point, and tau_mixed any other
        point = tuple(map(as_fraction, c))
        principal = _principal_padic(self.fam, point)
        if principal is None:
            return 0 if ideal_contains(I, tau_mixed(self.fam, c, self.cfg)) else 1
        self.fam.point(point)
        return self.chi_at(I, *principal)


def chi(fam: IdealFamily, I: IdealGens, c, cfg: TauConfig = DEFAULT_TAU_CONFIG) -> int:
    """Indicator of tau(a^c) not contained in I (1 outside, 0 inside)."""
    return _ChiOracle(fam, cfg).chi(I, c)


@dataclass(frozen=True)
class RegionRaster(GridFunction):
    """Test ideal identity per cell of a level-k grid over a box.

    values holds palette indices in row-major order; the palette lists the
    canonical keys in order of first appearance.
    """

    palette: tuple[str, ...]

    def key_at(self, idx: Sequence[int]) -> str:
        return self.palette[self.value_at(idx)]


def rasterize(fam: IdealFamily, box: Box, k: int,
              cfg: TauConfig = DEFAULT_TAU_CONFIG) -> RegionRaster:
    """Evaluate tau on every grid point of the box at level k.

    Cells are scanned row-major with the last index fastest; the palette is
    assigned in first-encounter order, so the output is deterministic.  Each
    tau is interned on its generator tuple, so the reduced basis of each
    distinct presentation is computed once, on the interned object.
    """
    shape = _family_shape(fam, box, k)
    interned: dict[IdealGens, IdealGens] = {}
    # keyed by reduced basis, which determines the printed key and back
    index_of: dict[IdealGens, int] = {}
    cells = []
    q = fam.ring.p ** k
    for idx in product(*map(range, shape)):
        point = tuple(Fraction(i, q) for i in idx)
        try:
            tau = tau_mixed(fam, point, cfg)
        except NotStabilizedError as err:
            raise CellNotStabilized(err.e_max, idx, point) from err
        gb = buchberger(interned.setdefault(tau, tau))
        cells.append(index_of.setdefault(gb, len(index_of)))
    palette = tuple(ideal_key(gb) for gb in index_of)
    return RegionRaster(fam.ring.p, box, k, tuple(cells), palette)


def region_membership(fam: IdealFamily, c, others: Sequence[IdealGens], J: IdealGens,
                      cfg: TauConfig = DEFAULT_TAU_CONFIG) -> bool:
    """Whether c lies in the region cut out by escaping every ideal in others while staying inside J."""
    tau = tau_mixed(fam, c, cfg)
    return not any(ideal_contains(I, tau) for I in others) and ideal_contains(J, tau)


def fractal_operator(phi: GridFunction, q: int, b: Sequence[int]) -> GridFunction:
    """The grid action of phi -> phi((t + b) / q), extending phi by zero off its box.

    q must be a power of phi.p and b an integer vector with 0 <= b_i < q.
    The result is sampled at level k - e on the same box, which is exact:
    every requested source point is a grid point of phi.
    """
    p = phi.p
    e = 0
    qq = 1
    while qq < q:
        qq *= p
        e += 1
    if qq != q:
        raise ValueError(f"{q} is not a power of {p}")
    b = tuple(b)
    if len(b) != phi.box.n:
        raise ValueError(f"shift has {len(b)} coordinates, expected {phi.box.n}")
    if any((not isinstance(x, int)) or x < 0 or x >= q for x in b):
        raise ValueError(f"shift must have integer coordinates in [0, {q})")
    if phi.k < e:
        raise ResolutionMismatchError(f"need sample level >= {e}, have {phi.k}")
    k_out = phi.k - e
    out_shape = phi.box.shape(p, k_out)
    src_shape = phi.shape
    step = p ** k_out
    zero = phi.values[0] * 0 if phi.values else 0
    values = []
    for idx in product(*map(range, out_shape)):
        src = tuple(i + b_i * step for i, b_i in zip(idx, b))
        if all(s < n for s, n in zip(src, src_shape)):
            values.append(phi.values[_flat_index(src, src_shape)])
        else:
            values.append(zero)
    return GridFunction(p, phi.box, k_out, tuple(values))


def sample_chi(fam: IdealFamily, I: IdealGens, box: Box, k: int,
               cfg: TauConfig = DEFAULT_TAU_CONFIG) -> GridFunction:
    """chi(fam, I, -) sampled on the level-k grid of the box."""
    shape = _family_shape(fam, box, k)
    oracle = _ChiOracle(fam, cfg)
    values = tuple(oracle.chi_at(I, idx, k) for idx in product(*map(range, shape)))
    return GridFunction(fam.ring.p, box, k, values)


def verify_fractal_identity(fam: IdealFamily, I: IdealGens, e: int, b: Sequence[int],
                            box: Box, k: int, cfg: TauConfig = DEFAULT_TAU_CONFIG) -> bool:
    """Sample both sides of the rescaling identity for chi and compare.

    Left side: chi of I at (t + b) / p^e.  Right side: chi of the colon of
    the e-th bracket power of I by the product of a_i^(b_i - l_i + 1),
    evaluated at t + l - 1, where l_i counts the stored generators of a_i.
    Requires b_i >= l_i - 1.  Both sides run over the level-k grid of the
    box; True means every sample agreed.
    """
    if e < 0:
        raise ValueError("e must be non-negative")
    b = tuple(b)
    l = fam.gen_counts
    if len(b) != fam.n:
        raise ValueError(f"shift has {len(b)} coordinates, expected {fam.n}")
    if any((not isinstance(x, int)) or x < l_i - 1 or x < 0 for x, l_i in zip(b, l)):
        raise ValueError("need integer shifts with b_i >= gen_counts[i] - 1 and b_i >= 0")
    shape = _family_shape(fam, box, k)
    p = fam.ring.p
    shifted = _product_of_powers(fam, [b_i - l_i + 1 for b_i, l_i in zip(b, l)])
    colon = ideal_colon(bracket_power(I, FrobLevel(p, e)), shifted)
    oracle = _ChiOracle(fam, cfg)
    # t = idx / p^k, so (t + b) / p^e = (idx + b p^k) / p^(k+e)
    # and t + l - 1 = (idx + (l - 1) p^k) / p^k
    step = p ** k
    lhs_shift = [b_i * step for b_i in b]
    rhs_shift = [(l_i - 1) * step for l_i in l]
    for idx in product(*map(range, shape)):
        lhs = oracle.chi_at(I, [i + d for i, d in zip(idx, lhs_shift)], k + e)
        if lhs != oracle.chi_at(colon, [i + d for i, d in zip(idx, rhs_shift)], k):
            return False
    return True


def fractal_span_census(fam: IdealFamily, I: IdealGens, box: Box, e_max: int, *,
                        ref_level: int = 2,
                        cfg: TauConfig = DEFAULT_TAU_CONFIG) -> list[str]:
    """Fingerprints of all distinct rescalings of chi up to level e_max.

    Every operator with q = p^0 .. p^e_max and shift b in [0, q)^n is applied
    to one high-resolution sample of chi, then compared on the common
    reference grid.  A finite, eventually constant census witnesses the
    finite-dimensional span of the rescalings.
    """
    if e_max < 0 or ref_level < 0:
        raise ValueError("levels must be non-negative")
    p = fam.ring.p
    base = sample_chi(fam, I, box, ref_level + e_max, cfg)
    seen: dict[tuple, str] = {}
    out: list[str] = []
    for e in range(e_max + 1):
        q = p ** e
        for b in product(range(q), repeat=fam.n):
            moved = fractal_operator(base, q, b)
            reduced = _downsample(moved, ref_level)
            vals = reduced.values
            if vals not in seen:
                fp = reduced.fingerprint()
                seen[vals] = fp
                out.append(fp)
    return out


def _downsample(phi: GridFunction, k_out: int) -> GridFunction:
    if k_out > phi.k:
        raise ResolutionMismatchError(f"cannot refine level {phi.k} to {k_out}")
    factor = phi.p ** (phi.k - k_out)
    if factor == 1:
        return phi
    out_shape = phi.box.shape(phi.p, k_out)
    src_shape = phi.shape
    values = tuple(
        phi.values[_flat_index(tuple(i * factor for i in idx), src_shape)]
        for idx in product(*map(range, out_shape))
    )
    return GridFunction(phi.p, phi.box, k_out, values)


def _is_digit(ch: str, p: int) -> bool:
    """Whether int(ch, p) reads ch as one base-p digit (value below p)."""
    try:
        int(ch, p)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class DigitPoint:
    """A point with coordinates given by base-p digit strings after the radix point."""

    p: int
    digits: tuple[str, ...]

    def __post_init__(self):
        if not 2 <= self.p <= 36:
            raise ValueError(f"digit base must lie in [2, 36], got {self.p}")
        for ds in self.digits:
            if not ds or not all(_is_digit(ch, self.p) for ch in ds):
                raise ValueError(f"bad base-{self.p} digit string {ds!r}")

    def value(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(ds, self.p), self.p ** len(ds)) for ds in self.digits)

    def labels(self) -> tuple[str, ...]:
        return tuple("0." + ds for ds in self.digits)

    def __str__(self) -> str:
        return "(" + ", ".join(self.labels()) + ")"


def staircase_boundary(depth: int) -> list[DigitPoint]:
    """Corner points of the base-3 staircase, generated by the two digit maps.

    Seed (0.1, 0.2); one map rewrites the pair of digit tails (1, 2) to
    (01, 22), the other to (21, 12).  Depth d yields 2^d points whose digit
    strings have d + 1 digits.
    """
    if not isinstance(depth, int) or depth < 0:
        raise ValueError("depth must be a non-negative integer")
    points = [DigitPoint(3, ("1", "2"))]
    for _ in range(depth):
        nxt = []
        for pt in points:
            xd, yd = pt.digits
            nxt.append(DigitPoint(3, (xd[:-1] + "01", yd + "2")))
            nxt.append(DigitPoint(3, (xd[:-1] + "21", yd[:-1] + "12")))
        points = nxt
    return points
