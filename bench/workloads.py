"""The four benchmark workloads: seeded inputs, timed operations, reference checks.

A workload is built from its seed with the standard library alone, so its
inputs and operation names are known without importing pfractal.  `setup`
turns the inputs into pfractal objects (timed as set-up) and returns the
operations (the timed work).  Each operation calls pfractal through a module
attribute at call time, so wrappers the tracer installs after set-up see it.
`check` compares one operation's result with bench/reference.py after
timing stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from reference import (
    JUMP_RECORDS,
    KNOWN_WRONG_TAU,
    RASTER_SHA256,
    STAIRCASE_PALETTE,
    THRESHOLD_UPPER,
    THRESHOLD_VALUES,
    howald_generators,
    minimal_exponents,
)


def _staircase(pf):
    """The F_3[x,y] family ((x+y), (xy)) and the maximal ideal (x, y)."""
    ring = pf.Ring(3, ["x", "y"])
    fam = pf.IdealFamily(ring, [ring.ideal(ring.polynomial("x+y")),
                                ring.ideal(ring.polynomial("x*y"))])
    return fam, ring.ideal(ring.polynomial("x"), ring.polynomial("y"))


class Failure:
    """A failed operation: why, and whether it is a defect known at the seed code."""

    def __init__(self, reason: str, known: bool = False):
        self.reason = reason
        self.known = known


class Raster:
    """The CLI raster of the staircase family at k=4: the all-principal p-adic path."""

    K = 4

    def __init__(self, seed: int):
        self.seed = seed  # fixed input; the seed changes nothing

    def op_names(self) -> list[str]:
        return [f"raster k={self.K}"]

    def setup(self, pf, tmp: str):
        import pfractal.cli  # noqa: F401  (a CLI user pays this import)

        self.paths = {kind: os.path.join(tmp, f"staircase.{kind}")
                      for kind in ("ppm", "csv", "legend")}
        argv = ["raster", "-p", "3", "-vars", "x,y", "-ideal", "x+y", "-ideal", "x*y",
                "-box", "1,1", "-k", str(self.K),
                "-out-ppm", self.paths["ppm"], "-out-csv", self.paths["csv"],
                "-out-legend", self.paths["legend"]]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = pf.cli.main(argv)
            return code, out.getvalue()

        return [run]

    def check(self, pf, index: int, result) -> Failure | None:
        code, stdout = result
        if code != 0:
            return Failure(f"exit code {code}")
        keys = {entry["key"] for entry in json.loads(stdout)["palette"]}
        if keys != STAIRCASE_PALETTE:
            return Failure(f"palette {sorted(keys)}")
        for kind, path in self.paths.items():
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if digest != RASTER_SHA256[kind]:
                return Failure(f"{kind} sha256 {digest}")
        return None

    def bytes_out(self, results) -> int:
        """Bytes the CLI wrote: stdout and the three artifacts."""
        _, stdout = results[0]
        return len(stdout.encode()) + sum(os.path.getsize(p) for p in self.paths.values())


class Fractal:
    """The rescaling identity for 27 shifts: criterion 5 in miniature."""

    E, K = 2, 3

    def __init__(self, seed: int):
        # Shift cost grows with b_1 and varies with b_2, so the draw takes
        # three shifts from every column b_1, one from each third of the
        # b_2 range; that keeps the work of a run steady across seeds.
        rng = random.Random(f"fractal:{seed}")
        q = 3 ** self.E
        third = q // 3
        self.shifts = [(b1, band * third + rng.randrange(third))
                       for b1 in range(q) for band in range(3)]

    def op_names(self) -> list[str]:
        return [f"shift {b}" for b in self.shifts]

    def setup(self, pf, tmp: str):
        fam, maximal = _staircase(pf)
        box = pf.Box((1, 1))
        return [lambda b=b: pf.verify_fractal_identity(fam, maximal, self.E, b, box, self.K)
                for b in self.shifts]

    def check(self, pf, index: int, holds) -> Failure | None:
        return None if holds is True else Failure(f"identity returned {holds!r}")


# name, variables, exponents a: the family member (x_1^a_1, ..., x_n^a_n)
TAU_FAMILIES = (
    ("(x,y)", ("x", "y"), (1, 1)),
    ("(x^2,y^3)", ("x", "y"), (2, 3)),
    ("(x,y,z)", ("x", "y", "z"), (1, 1, 1)),
)
TAU_EXPONENTS = {name: a for name, _, a in TAU_FAMILIES}
# Points in every run: the 17/9 and 53/27 regressions of the windowed chain,
# and 19/9 on (x,y,z), which stands for the range (2, 8/3] of that family.
# A point there costs 1 to 2.5 s, rising with c, against milliseconds
# elsewhere, so a seeded draw among them would make the work of a run depend
# on the seed.  For the same reason (x^2,y^3) runs its whole pool: a few of
# its points cost ten times their neighbours.
TAU_PINNED = (
    ("(x,y)", Fraction(17, 9)),
    ("(x,y)", Fraction(53, 27)),
    ("(x,y,z)", Fraction(19, 9)),
)
TAU_UNDRAWN = {"(x,y,z)": (Fraction(2), Fraction(8, 3))}
TAU_WHOLE_POOL = ("(x^2,y^3)",)


def tau_pool(dim: int) -> list[Fraction]:
    """Candidate exponents n/27 (hence n/9), n/4 and n/5 in [0, dim]."""
    return sorted({Fraction(n, d) for d in (27, 4, 5) for n in range(d * dim + 1)})


class Tau:
    """tau_mixed on monomial families: the non-principal windowed path."""

    def __init__(self, seed: int):
        # Elsewhere the seed draws one point from every stratum (k/9, (k+1)/9]
        # of [0, dim]: a stratified draw covers the range while the work of a
        # run stays steady across seeds.
        rng = random.Random(f"tau:{seed}")
        self.points = list(TAU_PINNED)
        for name, _, a in TAU_FAMILIES:
            pool = tau_pool(len(a))
            if name in TAU_WHOLE_POOL:
                self.points.extend((name, c) for c in pool)
                continue
            lo, hi = TAU_UNDRAWN.get(name, (0, 0))
            for k in range(9 * len(a)):
                if lo <= Fraction(k, 9) < hi:
                    continue
                stratum = [c for c in pool if Fraction(k, 9) < c <= Fraction(k + 1, 9)]
                self.points.append((name, rng.choice(stratum)))

    def op_names(self) -> list[str]:
        return [f"tau {name} at {c}" for name, c in self.points]

    def setup(self, pf, tmp: str):
        fams = {}
        for name, names, a in TAU_FAMILIES:
            ring = pf.Ring(3, list(names))
            gens = [ring.monomial(tuple(a_i if j == i else 0 for j in range(len(a))))
                    for i, a_i in enumerate(a)]
            fams[name] = pf.IdealFamily(ring, [ring.ideal(*gens)])
        return [lambda fam=fams[name], c=c: pf.tau_mixed(fam, (c,)) for name, c in self.points]

    def check(self, pf, index: int, tau) -> Failure | None:
        name, c = self.points[index]
        gens = pf.buchberger(tau).basis
        if any(len(g.terms) != 1 for g in gens):
            return Failure("not a monomial ideal")
        got = minimal_exponents(e for g in gens for e in g.terms)
        want = howald_generators(TAU_EXPONENTS[name], c)
        if got == want:
            return None
        return Failure(f"minimal exponents {sorted(got)}, Howald {sorted(want)}",
                       known=str(c) in KNOWN_WRONG_TAU[name])


class Threshold:
    """f_threshold and jumping_scan of the staircase family: few dense products."""

    def __init__(self, seed: int):
        self.seed = seed  # fixed input; the seed changes nothing

    def op_names(self) -> list[str]:
        return ["f_threshold e_max=8", "jumping_scan k=5"]

    def setup(self, pf, tmp: str):
        fam, maximal = _staircase(pf)
        return [lambda: pf.f_threshold(fam, (1, 1), maximal, 8),
                lambda: pf.jumping_scan(fam, (1, 1), 5, 1)]

    def check(self, pf, index: int, result) -> Failure | None:
        if index == 1:
            records = tuple((str(j.lo), str(j.hi), j.key_before, j.key_after) for j in result)
            return None if records == JUMP_RECORDS else Failure(f"jumps {records}")
        values = result.values
        if any(a > b for a, b in zip(values, values[1:])):
            return Failure("values decrease")
        if values[-1] > result.upper:
            return Failure("last value above the upper bound")
        if tuple(map(str, values)) != THRESHOLD_VALUES or str(result.upper) != THRESHOLD_UPPER:
            return Failure(f"values {list(map(str, values))}, upper {result.upper}")
        return None


WORKLOADS = {"raster": Raster, "fractal": Fractal, "tau": Tau, "threshold": Threshold}
