"""Reference answers the benchmark checks pfractal's outputs against.

Nothing here imports pfractal.  The tau reference is Howald's formula for
monomial ideals; the other workloads are pinned to the outputs of the seed
code (artifact hashes, exact rationals, jump records) or to a theorem (the
rescaling identity holds for every shift).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def howald_generators(a: tuple[int, ...], c: Fraction) -> set[tuple[int, ...]]:
    """Minimal monomial generators of tau((x_1^a_1, ..., x_n^a_n)^c).

    For monomial ideals the test ideal equals the multiplier ideal (Hara and
    Yoshida 2003), which Howald's formula (2001) gives through the Newton
    polyhedron.  For this diagonal family the formula reads: x^v lies in
    tau exactly when sum_i (v_i + 1) / a_i > c.
    """
    c = Fraction(c)

    def inside(v):
        return sum(Fraction(v_i + 1, a_i) for v_i, a_i in zip(v, a)) > c

    # any v with v_i + 1 > a_i * c is inside, so minimal generators lie in this box
    box = [range(int(a_i * c) + 2) for a_i in a]
    minimal = set()
    for v in product(*box):
        if inside(v) and not any(
            v[i] and inside(v[:i] + (v[i] - 1,) + v[i + 1:]) for i in range(len(v))
        ):
            minimal.add(v)
    return minimal


def minimal_exponents(exps) -> set[tuple[int, ...]]:
    """Minimal elements, under componentwise order, of a set of exponent vectors."""
    exps = set(exps)
    return {
        v for v in exps
        if not any(w != v and all(x <= y for x, y in zip(w, v)) for w in exps)
    }


# Criterion 1's palette for the staircase family ((x+y), (xy)) over F_3.
STAIRCASE_PALETTE = frozenset({"1", "x;y", "x+y", "x*y", "x^2*y+x*y^2"})

# sha256 of the raster artifacts of
# `pfractal raster -p 3 -vars x,y -ideal x+y -ideal x*y -box 1,1 -k 4`
# as the seed code writes them.
RASTER_SHA256 = {
    "ppm": "0999314dd164a627e0073841134d1b6bc00bc00718622622b7b2640133e3c756",
    "csv": "37f1ac460565d30f0088b067ac3ba8f2ff0513354f8531549659ba4ec05c6b16",
    "legend": "cb6d64114d3ea08d4293b0f9fb42d96140b1fd68b5109b5f34f052296a75a68e",
}

# f_threshold(staircase, (1,1), (x,y), e_max=8) and
# jumping_scan(staircase, (1,1), k=5, bound=1) at the seed code.
THRESHOLD_VALUES = (
    "1/3", "5/9", "17/27", "53/81", "161/243", "485/729", "1457/2187", "4373/6561",
)
THRESHOLD_UPPER = "1"
JUMP_RECORDS = (
    ("161/243", "2/3", "1", "x;y"),
    ("242/243", "1", "x;y", "x^2*y+x*y^2"),
)

# Points of the tau pool where the seed code's windowed chain accepts a wrong
# value (it disagrees with Howald's formula).  They are counted as failed
# operations like any other wrong answer; this list only separates these
# known defects from new ones when deciding the run's `correct` flag.
KNOWN_WRONG_TAU = {
    "(x,y)": {"9/5", "49/27", "50/27", "17/9", "52/27", "53/27"},
    "(x^2,y^3)": {"4/5", "22/27", "35/27", "8/5", "44/27", "53/27"},
    "(x,y,z)": {"73/27", "74/27", "11/4", "25/9", "14/5", "76/27", "77/27", "26/9",
                "79/27", "80/27"},
}
