"""Acceptance gate: one test per acceptance criterion, exact tolerances.

Each test prints a single pass/fail line (visible with -s) and then asserts.
Criterion 3's general-p claim (tau = R at the next-step point) needs p odd:
over F_2, (x+y)^2 = x^2 + y^2 kills the cross term the claim relies on.  The
p = 2 instances are checked against hand-derived values, (x+y) for k=1 and
(x, y) for k=2, with the derivation beside the expectation.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from pfractal import (
    Box,
    FrobLevel,
    IdealFamily,
    IdealGens,
    Polynomial,
    Ring,
    bracket_power,
    buchberger,
    chi,
    f_threshold,
    fractal_span_census,
    ideal_bracket_root,
    ideal_contains,
    ideal_equal,
    ideal_key,
    ideal_power,
    ideal_product,
    lucas_binomial,
    parse_polynomial,
    poly_bracket_root,
    rasterize,
    skoda_reduce,
    staircase_boundary,
    tau_mixed,
    v_number,
    verify_fractal_identity,
)
from pfractal.cli import main as cli_main


def _ideal(ring, *texts):
    return IdealGens(ring, [parse_polynomial(t, ring) for t in texts])


def _report(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"{name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed {tail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_staircase_palette(staircase):
    start = time.perf_counter()
    raster = rasterize(staircase, Box((1, 1)), 4)
    elapsed = time.perf_counter() - start
    expect = {"1", "x;y", "x+y", "x*y", "x^2*y+x*y^2"}
    ok = (raster.shape == (82, 82)
          and set(raster.palette) == expect
          and len(raster.palette) == 5
          and elapsed < 30.0)
    _report("criterion 1 (staircase palette, 82x82)", ok,
            f"{len(raster.palette)} ideals, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

@pytest.mark.parametrize("c,key", [
    ((Fraction(1, 3), Fraction(2, 3)), "x;y"),
    ((Fraction(2, 3), Fraction(1, 3)), "1"),
    ((Fraction(0), Fraction(2, 3)), "1"),
    ((Fraction(1, 3), Fraction(1)), "x*y"),
    ((Fraction(1), Fraction(2, 3)), "x+y"),
    ((Fraction(1), Fraction(1)), "x^2*y+x*y^2"),
    ((Fraction(2, 3), Fraction(2, 3)), "x;y"),
    ((Fraction(8, 9), Fraction(8, 9)), "x;y"),
    ((Fraction(26, 27), Fraction(26, 27)), "x;y"),
])
def test_criterion_2_point_oracles(staircase, c, key):
    got = ideal_key(buchberger(tau_mixed(staircase, c)))
    _report(f"criterion 2 (tau at {tuple(str(x) for x in c)})", got == key,
            f"got {got!r}, want {key!r}")


# ---------------------------------------------------------------- criterion 3

@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("which", ["near-axis", "next-step"])
def test_criterion_3_general_p(p, k, which):
    ring = Ring(p, ["x", "y"])
    fam = IdealFamily(ring, [_ideal(ring, "x+y"), _ideal(ring, "x*y")])
    q = p ** k
    if which == "near-axis":
        c = (Fraction(1, q), Fraction(q - 1, q))
        want = _ideal(ring, "x", "y")
        wantname = "(x,y)"
    else:
        c = (Fraction(2, q), Fraction(q - 2, q))
        if p != 2:
            want, wantname = IdealGens.unit(ring), "R"
        else:
            # Over F_2 the next-step point is not in the tau = R region.  Let
            # Q = 2^e be the bracket level, where tau(c) = (f^{cQ})^{[1/Q]}.
            # k=1: c = (1, 0), and tau((x+y)^1) = (x+y) since tau(f^n) = (f^n)
            #   for a principal ideal at an integer exponent (Blickle-Mustata-
            #   Smith); at each level (x+y)^Q = x^Q + y^Q has [1/Q] root (x+y).
            # k=2: c = (1/2, 1/2).  Frobenius is additive, so
            #   (x+y)^{Q/2} (xy)^{Q/2} = x^Q y^{Q/2} + x^{Q/2} y^Q; the two terms
            #   lie in different residue classes mod Q, so the [1/Q] root is
            #   (x, y) at every e >= 1.
            want, wantname = {1: (_ideal(ring, "x+y"), "(x+y)"),
                              2: (_ideal(ring, "x", "y"), "(x,y)")}[k]
    got = tau_mixed(fam, c)
    ok = ideal_equal(got, want)
    _report(f"criterion 3 (p={p}, k={k}, {which} -> {wantname})", ok,
            f"got key {ideal_key(buchberger(got))!r}")


# ---------------------------------------------------------------- criterion 4

@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_criterion_4_boundary_recursion(staircase, maximal, depth):
    pts = staircase_boundary(depth)
    ulp = Fraction(1, 3 ** (depth + 2))
    bad = []
    for pt in pts:
        cx, cy = pt.value()
        if chi(staircase, maximal, (cx, cy)) != 0:
            bad.append((pt.labels(), "at"))
        if chi(staircase, maximal, (cx - ulp, cy - ulp)) != 1:
            bad.append((pt.labels(), "below"))
    _report(f"criterion 4 (boundary recursion depth {depth})", not bad,
            f"{len(pts)} points" + (f", failures {bad}" if bad else ""))


# ---------------------------------------------------------------- criterion 5

@pytest.mark.parametrize("e", [1, pytest.param(2, marks=pytest.mark.slow)])
def test_criterion_5_fractal_identity(staircase, maximal, e):
    box = Box((1, 1))
    q = 3 ** e
    failures = []
    for b in product(range(q), repeat=2):
        if not verify_fractal_identity(staircase, maximal, e, b, box, e + 2):
            failures.append(b)
    _report(f"criterion 5 (rescaling identity e={e}, all {q * q} shifts)",
            not failures, f"failures {failures}" if failures else "100% agreement")


# ---------------------------------------------------------------- criterion 6

def _random_poly(ring, rng, deg=3, nterms=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, deg) for _ in range(ring.arity))
        terms[e] = rng.randint(1, ring.p - 1)
    return Polynomial(ring, terms)


def _random_ring(rng, p):
    names = ["x", "y", "z"][: rng.randint(1, 3)]
    return Ring(p, names)


def test_criterion_6a_root_inverse_and_adjunction():
    rng = random.Random(6001)
    count = 0
    for p in (2, 3, 5):
        for _ in range(50):
            ring = _random_ring(rng, p)
            e = rng.randint(1, 2)
            lvl = FrobLevel(p, e)
            f = _random_poly(ring, rng)
            # exact inverse
            assert ideal_equal(poly_bracket_root(f.scale_exponents(lvl.q), lvl),
                               IdealGens(ring, [f]))
            # adjunction against a random ideal
            h = _random_poly(ring, rng, deg=4, nterms=4)
            J = IdealGens(ring, [_random_poly(ring, rng, deg=2, nterms=2)
                                 for _ in range(rng.randint(1, 2))])
            lhs = ideal_contains(bracket_power(J, lvl), IdealGens(ring, [h]))
            rhs = ideal_contains(J, poly_bracket_root(h, lvl))
            assert lhs == rhs
            count += 2
    _report("criterion 6a (root inverse + adjunction)", True, f"{count} instances")


def test_criterion_6b_tau_antitone():
    rng = random.Random(6002)
    count = 0
    for p in (2, 3, 5):
        for _ in range(50):
            ring = _random_ring(rng, p)
            f = _random_poly(ring, rng)
            if f.is_constant:
                continue
            fam = IdealFamily(ring, [IdealGens(ring, [f])])
            e = rng.randint(0, 2)
            a = Fraction(rng.randint(0, 2 * p ** e), p ** e)
            b = a + Fraction(rng.randint(0, 3), p ** rng.randint(0, 2))
            assert ideal_contains(tau_mixed(fam, (a,)), tau_mixed(fam, (b,)))
            count += 1
    _report("criterion 6b (tau antitone)", True, f"{count} instances")


def test_criterion_6c_skoda():
    rng = random.Random(6003)
    count = 0
    for p in (2, 3, 5):
        for _ in range(40):
            ring = Ring(p, ["x", "y"])
            ngens = rng.randint(1, 2)
            # multi-term pairs at p=5 blow up the power-ideal generator count;
            # monomial pairs keep every intermediate ideal monomial and cheap
            nt = 1 if (p == 5 and ngens == 2) else 2
            gens = [_random_poly(ring, rng, deg=2, nterms=nt)
                    for _ in range(ngens)]
            a = IdealGens(ring, gens)
            if a.is_zero or a.has_unit_generator():
                continue
            fam = IdealFamily(ring, [a])
            m = len(a.gens)
            # exponent at or above the generator count peels one full copy
            extra = Fraction(rng.randint(0, p), p)
            s = (Fraction(m) + extra,)
            lhs = tau_mixed(fam, s)
            rhs = ideal_product(a, tau_mixed(fam, (s[0] - 1,)))
            assert ideal_equal(lhs, rhs), (p, [str(g) for g in gens], s)
            factor, residual = skoda_reduce(fam, s)
            assert residual[0] < m
            count += 1
    _report("criterion 6c (Skoda peeling)", True, f"{count} instances")


def test_criterion_6d_scaling_identity():
    rng = random.Random(6004)
    count = 0
    for p in (2, 3, 5):
        for _ in range(40):
            ring = _random_ring(rng, p)
            n = rng.randint(1, 2)
            ideals = []
            for _ in range(n):
                f = _random_poly(ring, rng, deg=2, nterms=2)
                while f.is_constant:
                    f = _random_poly(ring, rng, deg=2, nterms=2)
                ideals.append(IdealGens(ring, [f]))
            fam = IdealFamily(ring, ideals)
            e = rng.randint(1, 2)
            q = p ** e
            c = tuple(Fraction(rng.randint(0, 2 * q), q) for _ in range(n))
            lhs = ideal_bracket_root(tau_mixed(fam, c), FrobLevel(p, e))
            rhs = tau_mixed(fam, tuple(ci / q for ci in c))
            assert ideal_equal(lhs, rhs), (p, e, c)
            count += 1
    _report("criterion 6d (tau root scaling identity)", True, f"{count} instances")


def test_criterion_6e_degree_bound():
    rng = random.Random(6005)
    count = 0
    for p in (2, 3, 5):
        for _ in range(40):
            ring = Ring(p, ["x", "y"])
            n = rng.randint(1, 2)
            ideals = []
            for _ in range(n):
                f = _random_poly(ring, rng, deg=3, nterms=3)
                while f.is_constant:
                    f = _random_poly(ring, rng, deg=3, nterms=3)
                ideals.append(IdealGens(ring, [f]))
            fam = IdealFamily(ring, ideals)
            s = rng.randint(0, 2)
            q = p ** s
            c = tuple(Fraction(rng.randint(0, 2 * q), q) for _ in range(n))
            d = max(g.degree() for a in ideals for g in a.gens)
            bound = int(Fraction(d) * sum(c, Fraction(0)))
            tau = buchberger(tau_mixed(fam, c))
            worst = max((g.degree() for g in tau.basis), default=0)
            assert worst <= bound or tau.has_unit_generator(), (p, c, worst, bound)
            count += 1
    _report("criterion 6e (generator degree bound)", True, f"{count} instances")


def test_criterion_6f_v_number_identities():
    rng = random.Random(6006)
    count = 0
    for p in (2, 3, 5):
        ring = Ring(p, ["x", "y"])
        origin = (0, 0)
        for _ in range(25):
            # keep f inside (x, y) so every power eventually lands in I^[q]
            f = _random_poly(ring, rng, deg=2, nterms=2)
            while f.is_zero or origin in f.terms:
                f = _random_poly(ring, rng, deg=2, nterms=2)
            fam = IdealFamily(ring, [IdealGens(ring, [f]),
                                     _ideal(ring, "x*y")][: rng.randint(1, 2)])
            r = tuple(rng.randint(1, 2) for _ in range(fam.n))
            I = _ideal(ring, "x", "y")
            e = rng.randint(1, 2)
            direct = v_number(fam, r, I, e + 1)
            shifted = v_number(fam, r, bracket_power(I, FrobLevel(p, 1)), e)
            assert direct == shifted, (p, r, e)
            doubled = v_number(fam, tuple(2 * x for x in r), I, e)
            assert doubled == v_number(fam, r, I, e) // 2
            count += 2
    _report("criterion 6f (v-number level shift + doubling)", True,
            f"{count} instances")


def test_criterion_6g_lucas_vs_pascal():
    checked = 0
    for p in (2, 3, 5, 7):
        row = [1]
        for m in range(501):
            for n, expect in enumerate(row):
                assert lucas_binomial(m, n, p) == expect, (m, n, p)
                checked += 1
            row = [(a + b) % p for a, b in zip([0] + row, row + [0])]
    _report("criterion 6g (Lucas vs Pascal, m,n <= 500)", True,
            f"{checked} binomials")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_f_threshold(staircase, maximal):
    res = f_threshold(staircase, (1, 1), maximal, 3)
    seq_ok = [str(v) for v in res.values] == ["1/3", "5/9", "17/27"]
    raster = rasterize(staircase, Box((1, 1)), 3)
    below = raster.key_at((17, 17))
    above = raster.key_at((18, 18))
    cross_ok = below == "1" and above == "x;y"
    _report("criterion 7 (F-threshold sequence + diagonal crossing)",
            seq_ok and cross_ok,
            f"values {[str(v) for v in res.values]}, "
            f"diagonal 17/27 -> {below!r}, 18/27 -> {above!r}")


# ---------------------------------------------------------------- criterion 8

def _run_cli(argv, tmp_path, tag):
    paths = {
        "ppm": tmp_path / f"{tag}.ppm",
        "csv": tmp_path / f"{tag}.csv",
        "legend": tmp_path / f"{tag}.json",
    }
    full = argv + ["-out-ppm", str(paths["ppm"]), "-out-csv", str(paths["csv"]),
                   "-out-legend", str(paths["legend"])]
    assert cli_main(full) == 0
    return {k: v.read_bytes() for k, v in paths.items()}


def test_criterion_8_determinism(tmp_path, capsys):
    raster_cmd = ["raster", "-p", "3", "-vars", "x,y",
                  "-ideal", "x+y", "-ideal", "x*y", "-box", "1,1", "-k", "4"]
    first = _run_cli(raster_cmd, tmp_path, "a")
    out1 = capsys.readouterr().out
    second = _run_cli(raster_cmd, tmp_path, "b")
    out2 = capsys.readouterr().out
    raster_ok = first == second and out1 == out2

    thr_cmd = ["threshold", "-p", "3", "-vars", "x,y", "-ideal", "x+y",
               "-ideal", "x*y", "-r", "1,1", "-Igen", "x", "-Igen", "y",
               "-e-max", "3"]
    assert cli_main(thr_cmd) == 0
    t1 = capsys.readouterr().out
    assert cli_main(thr_cmd) == 0
    t2 = capsys.readouterr().out
    thr_ok = t1 == t2 and json.loads(t1) == ["1/3", "5/9", "17/27"]

    with capsys.disabled():
        _report("criterion 8 (byte-identical CLI reruns)",
                raster_ok and thr_ok,
                f"raster artifacts {len(first['ppm'])}B ppm, threshold {t1.strip()}")


# ------------------------------------------------------- census stabilization

def test_census_stabilization(staircase, maximal):
    # finitely many rescaling classes: deepening the operator sweep finds none
    box = Box((1, 1))
    two = fractal_span_census(staircase, maximal, box, 2)
    three = fractal_span_census(staircase, maximal, box, 3)
    _report("census stabilization (e_max 2 vs 3)", two == three,
            f"{len(two)} vs {len(three)} classes")
