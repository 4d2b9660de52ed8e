"""Command-line front end.

Subcommands wrap the library: root, tau, raster, threshold, jump,
fractal-check, staircase.  Outputs are JSON on stdout plus optional PPM,
CSV and legend files for rasters.  Exit codes: 0 success, 1 usage,
2 parse error, 3 test ideal chain not stabilized, 4 resource limit (Groebner
budget, an exponent or Frobenius level beyond a machine word, or a capped
containment search), 5 fractal identity check failed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import ExitStack, nullcontext
from fractions import Fraction
from itertools import product

from .algebra import IdealGens, PolyParseError, Ring, parse_polynomial
from .frobenius import FrobLevel, poly_bracket_root
from .groebner import ResourceLimitError, buchberger, pair_budget
from .region import (
    Box,
    RegionRaster,
    _staircase_points,
    rasterize,
    verify_fractal_identity,
)
from .testideal import (
    IdealFamily,
    NotStabilizedError,
    TauConfig,
    UnboundedError,
    f_threshold,
    jumping_scan,
    tau_mixed,
)


class UsageError(Exception):
    pass


class RationalParseError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_RATIONAL = re.compile(r"^(\d+)(?:/(\d+)(?:\^(\d+))?)?$")


def parse_rational(text: str) -> Fraction:
    """Exact nonnegative rational: "5", "5/27" or "5/3^3"."""
    m = _RATIONAL.match(text.strip())
    if not m:
        raise RationalParseError(f"bad rational {text!r}, expected n, n/d or n/b^e")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if m.group(3) is not None:
        den **= int(m.group(3))
    if den == 0:
        raise RationalParseError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def _split_vector(text: str, parse, what: str):
    parts = [s.strip() for s in text.split(",")]
    if not parts or any(not s for s in parts):
        raise RationalParseError(f"bad {what} {text!r}")
    return tuple(parse(s) for s in parts)


def _parse_int(text: str) -> int:
    if not re.fullmatch(r"\d+", text.strip()):
        raise RationalParseError(f"bad integer {text!r}")
    return int(text)


def _ring(args) -> Ring:
    names = [s.strip() for s in args.vars.split(",")]
    return Ring(args.p, names)


def _family(args, ring: Ring) -> IdealFamily:
    if not args.ideal:
        raise UsageError("at least one -ideal is required")
    ideals = []
    for spec in args.ideal:
        gens = [parse_polynomial(g, ring) for g in spec.split(";")]
        ideals.append(IdealGens(ring, gens))
    return IdealFamily(ring, ideals)


def _inner_ideal(args, ring: Ring) -> IdealGens:
    if not args.Igen:
        raise UsageError("at least one -Igen is required")
    return IdealGens(ring, [parse_polynomial(g, ring) for g in args.Igen])


def _tau_config(args) -> TauConfig:
    kw = {"e_max": args.e_max, "confirm_window": args.window}
    return TauConfig(**{name: v for name, v in kw.items() if v is not None})


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _ideal_json(ring: Ring, I: IdealGens) -> dict:
    return {
        "ring": {"p": ring.p, "vars": list(ring.vars)},
        "gens": [g.to_str() for g in buchberger(I).gens],
    }


_BASE_COLORS = (
    (255, 255, 255),
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
    (227, 119, 194),
    (127, 127, 127),
    (188, 189, 34),
    (23, 190, 207),
    (174, 199, 232),
    (255, 187, 120),
    (152, 223, 138),
    (255, 152, 150),
    (197, 176, 213),
)


def palette_color(index: int) -> tuple[int, int, int]:
    """Fixed 16-color cycle; repeats darken by 48 per wrap."""
    base = _BASE_COLORS[index % 16]
    drop = 48 * (index // 16)
    return tuple(max(0, ch - drop) for ch in base)


def _write_ppm(fh, raster: RegionRaster) -> None:
    w, h = raster.shape
    colors = [" ".join(map(str, palette_color(i))) for i in range(len(raster.palette))]
    values = raster.values  # row-major: cell (col, row) is values[col * h + row]
    lines = [f"P3\n{w} {h}\n255\n"]
    for row in range(h - 1, -1, -1):
        lines.append(" ".join([colors[v] for v in values[row::h]]) + "\n")
    fh.writelines(lines)


def _write_csv(fh, raster: RegionRaster) -> None:
    palette = raster.palette
    axes = [[str(i) for i in range(n)] for n in raster.shape]
    fh.writelines(",".join(idx) + "," + palette[v] + "\n"
                  for idx, v in zip(product(*axes), raster.values))


def _legend(raster: RegionRaster) -> dict:
    return {
        "palette": [
            {"index": i, "key": key, "color": list(palette_color(i))}
            for i, key in enumerate(raster.palette)
        ]
    }


def _cmd_root(args) -> int:
    ring = _ring(args)
    h = parse_polynomial(args.poly, ring)
    root = poly_bracket_root(h, FrobLevel(ring.p, args.e))
    _emit(_ideal_json(ring, root))
    return 0


def _cmd_tau(args) -> int:
    ring = _ring(args)
    fam = _family(args, ring)
    c = _split_vector(args.c, parse_rational, "exponent vector")
    tau = tau_mixed(fam, c, _tau_config(args))
    _emit(_ideal_json(ring, tau))
    return 0


def _cmd_raster(args) -> int:
    ring = _ring(args)
    fam = _family(args, ring)
    box = Box(_split_vector(args.box, parse_rational, "box"))
    if args.out_ppm and box.n != 2:
        raise UsageError("PPM output needs a 2-axis raster")
    with ExitStack() as stack:
        # opened first, so an unwritable path fails before the raster is computed
        ppm, csv, legend_fh = [stack.enter_context(open(path, "w")) if path else None
                               for path in (args.out_ppm, args.out_csv, args.out_legend)]
        raster = rasterize(fam, box, args.k, _tau_config(args))
        if ppm:
            _write_ppm(ppm, raster)
        if csv:
            _write_csv(csv, raster)
        legend = _legend(raster)
        if legend_fh:
            legend_fh.write(json.dumps(legend, separators=(",", ":")) + "\n")
    _emit(legend)
    return 0


def _cmd_threshold(args) -> int:
    ring = _ring(args)
    fam = _family(args, ring)
    r = _split_vector(args.r, _parse_int, "direction")
    I = _inner_ideal(args, ring)
    result = f_threshold(fam, r, I, args.e_max)
    _emit([str(v) for v in result.values])
    return 0


def _cmd_jump(args) -> int:
    ring = _ring(args)
    fam = _family(args, ring)
    r = _split_vector(args.r, _parse_int, "direction")
    bound = parse_rational(args.bound)
    jumps = jumping_scan(fam, r, args.k, bound, _tau_config(args))
    _emit([
        {
            "lo": str(j.lo),
            "hi": str(j.hi),
            "key_before": j.key_before,
            "key_after": j.key_after,
        }
        for j in jumps
    ])
    return 0


def _cmd_fractal_check(args) -> int:
    ring = _ring(args)
    fam = _family(args, ring)
    I = _inner_ideal(args, ring)
    b = _split_vector(args.b, _parse_int, "shift")
    box = Box(_split_vector(args.box, parse_rational, "box"))
    holds = verify_fractal_identity(fam, I, args.e, b, box, args.k, _tau_config(args))
    _emit({"holds": holds})
    return 0 if holds else 5


def _cmd_staircase(args) -> int:
    # the bytes of _emit on the whole list, written one point at a time
    out = sys.stdout
    sep = "["
    for pt in _staircase_points(args.depth):
        out.write(sep + json.dumps(list(pt.labels()), separators=(",", ":")))
        sep = ","
    out.write("]\n")
    return 0


def _add_ring_args(sub) -> None:
    sub.add_argument("-p", type=int, required=True, help="prime characteristic")
    sub.add_argument("-vars", required=True, help="comma-separated variable names")


def _add_family_args(sub) -> None:
    sub.add_argument("-ideal", action="append",
                     help="family member: generators separated by ';' (repeatable)")


def _add_limit_args(sub) -> None:
    sub.add_argument("-max-pairs", dest="max_pairs", type=int, default=None,
                     help="Groebner pair budget before aborting")


def _add_config_args(sub) -> None:
    sub.add_argument("-e-max", dest="e_max", type=int, default=None,
                     help="stabilization search cap")
    sub.add_argument("-window", type=int, default=None,
                     help="consecutive equal levels required to accept stabilization")
    _add_limit_args(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pfractal", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("root", help="bracket root of a polynomial")
    _add_ring_args(sp)
    sp.add_argument("poly", help="polynomial to take the root of")
    sp.add_argument("-e", type=int, required=True, help="root level, q = p^e")
    _add_limit_args(sp)
    sp.set_defaults(func=_cmd_root)

    sp = subs.add_parser("tau", help="mixed test ideal at an exponent vector")
    _add_ring_args(sp)
    _add_family_args(sp)
    sp.add_argument("-c", required=True, help="comma-separated rational exponents")
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_tau)

    sp = subs.add_parser("raster", help="test ideal regions on a grid")
    _add_ring_args(sp)
    _add_family_args(sp)
    sp.add_argument("-box", required=True, help="box side lengths, comma-separated")
    sp.add_argument("-k", type=int, required=True, help="grid level, step 1/p^k")
    sp.add_argument("-out-ppm", dest="out_ppm", default=None)
    sp.add_argument("-out-csv", dest="out_csv", default=None)
    sp.add_argument("-out-legend", dest="out_legend", default=None)
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_raster)

    sp = subs.add_parser("threshold", help="F-threshold approximants along a direction")
    _add_ring_args(sp)
    _add_family_args(sp)
    sp.add_argument("-r", required=True, help="direction exponents, comma-separated")
    sp.add_argument("-Igen", action="append", help="generator of the target ideal (repeatable)")
    sp.add_argument("-e-max", dest="e_max", type=int, required=True,
                    help="number of levels to compute")
    _add_limit_args(sp)
    sp.set_defaults(func=_cmd_threshold)

    sp = subs.add_parser("jump", help="F-jumping numbers on a 1/p^k grid")
    _add_ring_args(sp)
    _add_family_args(sp)
    sp.add_argument("-r", required=True, help="direction exponents, comma-separated")
    sp.add_argument("-k", type=int, required=True, help="grid level")
    sp.add_argument("-bound", required=True, help="scan parameters in [0, bound]")
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_jump)

    sp = subs.add_parser("fractal-check", help="verify the rescaling identity on a grid")
    _add_ring_args(sp)
    _add_family_args(sp)
    sp.add_argument("-Igen", action="append", help="generator of the reference ideal (repeatable)")
    sp.add_argument("-e", type=int, required=True, help="rescaling level")
    sp.add_argument("-b", required=True, help="integer shift vector, comma-separated")
    sp.add_argument("-box", required=True, help="box side lengths")
    sp.add_argument("-k", type=int, required=True, help="sample grid level")
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_fractal_check)

    sp = subs.add_parser("staircase", help="corner points of the base-3 staircase boundary")
    sp.add_argument("-depth", type=int, required=True)
    sp.set_defaults(func=_cmd_staircase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        max_pairs = getattr(args, "max_pairs", None)
        with nullcontext() if max_pairs is None else pair_budget(max_pairs):
            return args.func(args)
    except UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 1
    except (PolyParseError, RationalParseError) as err:
        sys.stderr.write(f"parse error: {err}\n")
        return 2
    except NotStabilizedError as err:
        sys.stderr.write(f"not stabilized: {err}\n")
        return 3
    except (ResourceLimitError, OverflowError, UnboundedError) as err:
        sys.stderr.write(f"resource limit: {err}\n")
        return 4
    except (ValueError, OSError) as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
