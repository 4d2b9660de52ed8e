"""Command line wrapper: grammar, JSON output, exit codes, artifacts."""

import io
import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from pfractal import Box, IdealFamily, IdealGens, RegionRaster, Ring, parse_polynomial, rasterize
from pfractal.cli import _write_csv, _write_ppm, main, palette_color, parse_rational
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("text,value", [
    ("5", Fraction(5)),
    ("5/27", Fraction(5, 27)),
    ("5/3^3", Fraction(5, 27)),
    ("0", Fraction(0)),
    ("9/3", Fraction(3)),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["", "-1", "1/0", "1/2/3", "a", "1.5", "1/2^", "^2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_root_command(capsys):
    code, out, _ = run(capsys, "root", "-p", "3", "-vars", "x,y",
                       "x^3*y^2 + x^2*y^3", "-e", "1")
    assert code == 0
    assert json.loads(out) == {"ring": {"p": 3, "vars": ["x", "y"]},
                               "gens": ["x", "y"]}


def test_root_unit_result(capsys):
    code, out, _ = run(capsys, "root", "-p", "3", "-vars", "x,y",
                       "x^3*y - x^2*y^2 + x*y^3", "-e", "1")
    assert code == 0
    assert json.loads(out)["gens"] == ["1"]


def test_root_trivial(capsys):
    code, out, _ = run(capsys, "root", "-p", "3", "-vars", "x,y", "x^3", "-e", "1")
    assert json.loads(out)["gens"] == ["x"]


@pytest.mark.parametrize("c,gens", [
    ("1/3,2/3", ["x", "y"]),
    ("0,0", ["1"]),
    ("1,1", ["x^2*y + x*y^2"]),
])
def test_tau_command(capsys, c, gens):
    code, out, _ = run(capsys, "tau", "-p", "3", "-vars", "x,y",
                       "-ideal", "x+y", "-ideal", "x*y", "-c", c)
    assert code == 0
    assert json.loads(out)["gens"] == gens


def test_tau_reparse_fixed_point(capsys, F3xy):
    """Canonical gens re-parse to the same reduced basis."""
    from pfractal import IdealGens, buchberger, parse_polynomial
    code, out, _ = run(capsys, "tau", "-p", "3", "-vars", "x,y",
                       "-ideal", "x+y", "-ideal", "x*y", "-c", "1,1")
    gens = json.loads(out)["gens"]
    reparsed = buchberger(IdealGens(F3xy, [parse_polynomial(g, F3xy) for g in gens]))
    assert [g.to_str() for g in reparsed.basis] == gens


def test_threshold_command(capsys):
    code, out, _ = run(capsys, "threshold", "-p", "3", "-vars", "x,y",
                       "-ideal", "x+y", "-ideal", "x*y",
                       "-r", "1,1", "-Igen", "x", "-Igen", "y", "-e-max", "3")
    assert code == 0
    assert json.loads(out) == ["1/3", "5/9", "17/27"]


def test_principal_threshold_has_no_level_cap(capsys):
    """3^45 exceeds a machine word; a principal search never builds that level."""
    code, out, err = run(capsys, "threshold", "-p", "3", "-vars", "x,y", "-ideal", "x+y",
                         "-r", "1", "-Igen", "x", "-Igen", "y", "-e-max", "45")
    assert (code, err) == (0, "")
    values = json.loads(out)
    assert len(values) == 45 and values[-1] == f"{3 ** 45 - 1}/{3 ** 45}"


def test_non_principal_threshold_reaches_level_7(capsys):
    """(x, y) against itself over F_3: v_e = 2(3^e - 1), the last value 4372/2187."""
    code, out, err = run(capsys, "threshold", "-p", "3", "-vars", "x,y", "-ideal", "x;y",
                         "-r", "1", "-Igen", "x", "-Igen", "y", "-e-max", "7")
    assert (code, err) == (0, "")
    values = json.loads(out)
    assert len(values) == 7 and values[-1] == "4372/2187"


def test_threshold_all_zero_weights_exit_1(capsys):
    code, out, err = run(capsys, "threshold", *STAIRCASE, "-r", "0,0",
                         "-Igen", "x", "-Igen", "y", "-e-max", "3")
    assert code == 1
    assert out == ""
    assert err == "usage error: at least one weight must be positive\n"


XY = ("-Igen", "x", "-Igen", "y")


@pytest.mark.parametrize("argv,code,out,err", [
    (("-p", "3", "-vars", "x,y", "-ideal", "x*y+y^2+2", "-r", "1", *XY, "-e-max", "1"), 4, "",
     "resource limit: v-number search: a term of the weighted product lies outside the "
     "radical of the monomial target; radical condition violated\n"),
    (("-p", "3", "-vars", "x,y", "-ideal", "x;y", "-r", "1", *XY, "-e-max", "5"), 0,
     '["4/3","16/9","52/27","160/81","484/243"]\n', ""),
    (("-p", "3", "-vars", "x,y", "-ideal", "x+y", "-ideal", "x*y", "-r", "1,1", *XY,
      "-e-max", "8"), 0,
     '["1/3","5/9","17/27","53/81","161/243","485/729","1457/2187","4373/6561"]\n', ""),
    (("-p", "3", "-vars", "x,y", "-ideal", "x+y", "-ideal", "x*y", "-r", "1,1",
      "-Igen", "1", "-e-max", "3"), 1, "",
     "usage error: target ideal is the unit ideal; every power is contained\n"),
    (("-p", "5", "-vars", "x,y", "-ideal", "x^2+y^3", "-r", "1", "-Igen", "x^2",
      "-Igen", "y^3", "-e-max", "4"), 0, '["4/5","24/25","124/125","624/625"]\n', ""),
    (("-p", "3", "-vars", "x,y", "-ideal", "x^2;y^3", "-r", "1", *XY, "-e-max", "4"), 0,
     '["1/3","2/3","7/9","22/27"]\n', ""),
], ids=["constant-term", "maximal", "staircase", "unit-target", "cusp-p5", "monomial"])
def test_threshold_golden_outputs(capsys, argv, code, out, err):
    """Exact stdout, stderr and exit code of threshold on each search route."""
    assert run(capsys, "threshold", *argv) == (code, out, err)


@pytest.mark.parametrize("e_max", [40, 41])
def test_non_principal_threshold_past_a_machine_word_exit_4(capsys, e_max):
    """3^40 exceeds a machine word: a non-principal search is refused before it climbs."""
    argv = ("-p", "3", "-vars", "x,y", "-ideal", "x;y", "-r", "1", *XY, "-e-max", str(e_max))
    assert run(capsys, "threshold", *argv) == (
        4, "", f"resource limit: p^e = 3^{e_max} exceeds machine word\n")


def test_module_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "pfractal", "threshold", *STAIRCASE,
         "-r", "1,1", "-Igen", "x", "-Igen", "y", "-e-max", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["1/3", "5/9", "17/27"]


def test_jump_command(capsys):
    code, out, _ = run(capsys, "jump", "-p", "3", "-vars", "x,y",
                       "-ideal", "x+y", "-ideal", "x*y",
                       "-r", "1,1", "-k", "2", "-bound", "1")
    assert code == 0
    jumps = json.loads(out)
    assert jumps == [
        {"lo": "5/9", "hi": "2/3", "key_before": "1", "key_after": "x;y"},
        {"lo": "8/9", "hi": "1", "key_before": "x;y", "key_after": "x^2*y+x*y^2"},
    ]


def test_principal_jump_past_a_machine_word(capsys):
    """3^45 exceeds a machine word; a principal jump line never expands g^m nor builds q."""
    code, out, err = run(capsys, "jump", "-p", "3", "-vars", "x,y", "-ideal", "x+y",
                         "-ideal", "x*y", "-r", "1,1", "-k", "45", "-bound", "1")
    assert (code, err) == (0, "")
    q = 3 ** 45
    assert json.loads(out) == [
        {"lo": str(Fraction(2 * 3 ** 44 - 1, q)), "hi": "2/3", "key_before": "1",
         "key_after": "x;y"},
        {"lo": str(Fraction(q - 1, q)), "hi": "1", "key_before": "x;y",
         "key_after": "x^2*y+x*y^2"},
    ]


@pytest.mark.parametrize("k", [40, 45])
def test_non_principal_jump_past_a_machine_word_exit_4(capsys, monkeypatch, k):
    """3^40 exceeds a machine word: a non-principal line is refused before its first tau."""
    import pfractal.testideal

    def fail(*args, **kwargs):
        raise AssertionError("tau_mixed called")

    monkeypatch.setattr(pfractal.testideal, "tau_mixed", fail)
    argv = ("-p", "3", "-vars", "x,y", "-ideal", "x;y", "-r", "1", "-k", str(k), "-bound", "1")
    assert run(capsys, "jump", *argv) == (
        4, "", f"resource limit: p^e = 3^{k} exceeds machine word\n")


def test_staircase_command(capsys):
    code, out, _ = run(capsys, "staircase", "-depth", "1")
    assert code == 0
    assert json.loads(out) == [["0.01", "0.22"], ["0.21", "0.12"]]


def _staircase_by_levels(depth):
    """The staircase labels built level by level, every point of a level held at once."""
    points = [("1", "2")]
    for _ in range(depth):
        points = [pair for xd, yd in points
                  for pair in ((xd[:-1] + "01", yd + "2"), (xd[:-1] + "21", yd[:-1] + "12"))]
    return [["0." + xd, "0." + yd] for xd, yd in points]


@pytest.mark.parametrize("depth", range(9))
def test_staircase_stream_matches_the_whole_list(capsys, depth):
    """Points written one at a time give the bytes of the whole list's compact JSON."""
    want = json.dumps(_staircase_by_levels(depth), separators=(",", ":")) + "\n"
    assert run(capsys, "staircase", "-depth", str(depth)) == (0, want, "")


def test_staircase_negative_depth_exit_1(capsys):
    assert run(capsys, "staircase", "-depth", "-1") == (
        1, "", "usage error: depth must be a non-negative integer\n")


def test_fractal_check_command(capsys):
    code, out, _ = run(capsys, "fractal-check", "-p", "3", "-vars", "x,y",
                       "-ideal", "x+y", "-ideal", "x*y", "-Igen", "x", "-Igen", "y",
                       "-e", "1", "-b", "0,2", "-box", "1,1", "-k", "2")
    assert code == 0
    assert json.loads(out) == {"holds": True}


def test_fractal_check_negative_level_exit_1(capsys):
    code, out, err = run(capsys, "fractal-check", "-p", "3", "-vars", "x,y",
                         "-ideal", "x+y", "-ideal", "x*y", "-Igen", "x", "-Igen", "y",
                         "-e", "1", "-b", "0,0", "-box", "1,1", "-k", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 1
    code, _, err = run(capsys, "root", "-p", "3", "-vars", "x,y")
    assert code == 1


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "root", "-p", "3", "-vars", "x,y", "x +", "-e", "1")
    assert code == 2
    assert "parse error" in err
    code, _, _ = run(capsys, "tau", "-p", "3", "-vars", "x,y",
                     "-ideal", "x+y", "-c", "x")
    assert code == 2


def test_not_stabilized_exit_3(capsys):
    code, _, err = run(capsys, "tau", "-p", "3", "-vars", "x,y",
                       "-ideal", "x+y", "-c", "1/7", "-e-max", "1")
    assert code == 3
    assert "not stabilized" in err


def test_resource_limit_exit_4(capsys):
    code, _, err = run(capsys, "tau", "-p", "3", "-vars", "x,y",
                       "-ideal", "x^2+x*y;y^2+x*y", "-c", "1", "-max-pairs", "0")
    assert code == 4
    assert "resource limit" in err


STAIRCASE = ("-p", "3", "-vars", "x,y", "-ideal", "x+y", "-ideal", "x*y")


@pytest.mark.parametrize("argv", [
    ("raster", *STAIRCASE, "-box", "1,1", "-k", "1"),
    ("threshold", *STAIRCASE, "-r", "1,1", "-Igen", "x+y", "-Igen", "x*y", "-e-max", "2"),
    ("jump", *STAIRCASE, "-r", "1,1", "-k", "1", "-bound", "1"),
    ("fractal-check", *STAIRCASE, "-Igen", "x", "-Igen", "y", "-e", "1", "-b", "0,2",
     "-box", "1,1", "-k", "1"),
], ids=["raster", "threshold", "jump", "fractal-check"])
def test_pair_budget_reaches_every_command(capsys, argv):
    code, out, err = run(capsys, *argv, "-max-pairs", "0")
    assert code == 4
    assert out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # q = 3^100 does not fit a machine word
    ("root", "-p", "3", "-vars", "x", "x", "-e", "100"),
    # the exponent does not fit a machine word
    ("tau", "-p", "3", "-vars", "x", "-ideal", "x^99999999999999999999999", "-c", "1"),
    # no power of (x) lies in (y): the containment search hits its cap
    ("threshold", "-p", "3", "-vars", "x,y", "-ideal", "x", "-r", "1", "-Igen", "y",
     "-e-max", "1"),
    # a constant term keeps every power outside (x, y): refused before any doubling
    ("threshold", "-p", "3", "-vars", "x,y", "-ideal", "x*y+y^2+2", "-r", "1", "-Igen", "x",
     "-Igen", "y", "-e-max", "1"),
    # the p-adic level 3^1000000 does not fit a machine word; refused without dividing it out
    ("tau", "-p", "3", "-vars", "x,y", "-ideal", "x+y", "-c", "1/3^1000000"),
], ids=["frob-level", "exponent", "unbounded", "constant-term", "denominator"])
def test_overflow_and_unbounded_exit_4(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


@pytest.mark.parametrize("c", ["17/9", "1/3"])
def test_negative_pair_budget_exit_1(capsys, c):
    code, out, err = run(capsys, "tau", "-p", "3", "-vars", "x,y",
                         "-ideal", "x;y", "-c", c, "-max-pairs", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and "max_pairs" in err


def test_raster_unwritable_output_exit_1(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "a.ppm"
    code, out, err = run(capsys, "raster", "-p", "3", "-vars", "x,y",
                         "-ideal", "x+y", "-ideal", "x*y", "-box", "1,1", "-k", "1",
                         "-out-ppm", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["-out-ppm", "-out-csv", "-out-legend"])
def test_raster_unwritable_output_fails_before_rasterizing(flag, tmp_path, capsys, monkeypatch):
    import pfractal.cli

    def fail(*args, **kwargs):
        raise AssertionError("rasterize called")

    monkeypatch.setattr(pfractal.cli, "rasterize", fail)
    code, out, err = run(capsys, "raster", *STAIRCASE, "-box", "1,1", "-k", "4",
                         flag, str(tmp_path / "no-such-dir" / "a.out"))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_raster_ppm_axes_checked_before_rasterizing(tmp_path, capsys, monkeypatch):
    import pfractal.cli

    def fail(*args, **kwargs):
        raise AssertionError("rasterize called")

    monkeypatch.setattr(pfractal.cli, "rasterize", fail)
    code, out, err = run(capsys, "raster", "-p", "3", "-vars", "x,y,z",
                         "-ideal", "x", "-ideal", "y", "-ideal", "z",
                         "-box", "1,1,1", "-k", "1", "-out-ppm", str(tmp_path / "a.ppm"))
    assert code == 1
    assert out == ""
    assert err == "usage error: PPM output needs a 2-axis raster\n"


def test_unknown_variable_is_parse_error(capsys):
    code, _, _ = run(capsys, "root", "-p", "3", "-vars", "x,y", "x + z", "-e", "1")
    assert code == 2


def test_composite_p_rejected(capsys):
    code, _, err = run(capsys, "root", "-p", "6", "-vars", "x,y", "x", "-e", "1")
    assert code == 1


def test_palette_color_wraps_darker():
    assert palette_color(0) == (255, 255, 255)
    assert palette_color(16) == (207, 207, 207)
    r0 = palette_color(1)
    r16 = palette_color(17)
    assert all(b <= a for a, b in zip(r0, r16))


def test_raster_artifacts(tmp_path, capsys):
    ppm = tmp_path / "out.ppm"
    csv = tmp_path / "out.csv"
    legend = tmp_path / "legend.json"
    code, out, _ = run(capsys, "raster", "-p", "3", "-vars", "x,y",
                       "-ideal", "x+y", "-ideal", "x*y",
                       "-box", "1,1", "-k", "1",
                       "-out-ppm", str(ppm), "-out-csv", str(csv),
                       "-out-legend", str(legend))
    assert code == 0
    header = ppm.read_text().splitlines()
    assert header[0] == "P3"
    assert header[1] == "4 4"
    assert header[2] == "255"
    assert len(header) == 3 + 4
    rows = csv.read_text().splitlines()
    assert len(rows) == 16
    assert rows[0] == "0,0,1"
    assert rows[-1].startswith("3,3,")
    stdout_legend = json.loads(out)
    file_legend = json.loads(legend.read_text())
    assert stdout_legend == file_legend
    for entry in file_legend["palette"]:
        assert set(entry) == {"index", "key", "color"}


def test_raster_determinism(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        ppm = tmp_path / f"{name}.ppm"
        csv = tmp_path / f"{name}.csv"
        code, out, _ = run(capsys, "raster", "-p", "3", "-vars", "x,y",
                           "-ideal", "x+y", "-ideal", "x*y",
                           "-box", "1,1", "-k", "2",
                           "-out-ppm", str(ppm), "-out-csv", str(csv))
        assert code == 0
        outs.append((ppm.read_bytes(), csv.read_bytes(), out))
    assert outs[0] == outs[1]


def _ppm_cell_by_cell(raster):
    """The PPM text with each pixel read through value_at and palette_color."""
    w, h = raster.shape
    lines = [f"P3\n{w} {h}\n255\n"]
    for row in range(h - 1, -1, -1):
        pix = []
        for col in range(w):
            r, g, b = palette_color(raster.value_at((col, row)))
            pix.append(f"{r} {g} {b}")
        lines.append(" ".join(pix) + "\n")
    return "".join(lines)


def _csv_cell_by_cell(raster):
    """The CSV text with each cell's key read through key_at."""
    return "".join(",".join(str(i) for i in idx) + "," + raster.key_at(idx) + "\n"
                   for idx in product(*map(range, raster.shape)))


def _written(writer, raster):
    fh = io.StringIO()
    writer(fh, raster)
    return fh.getvalue()


def _rasters():
    ring = Ring(3, ["x", "y"])
    fam = IdealFamily(ring, [IdealGens(ring, [parse_polynomial(g, ring)]) for g in ("x+y", "x*y")])
    # non-square: a transposed cell index reads the wrong cell or runs off the end
    yield rasterize(fam, Box((1, Fraction(2, 3))), 2)
    # more than 16 palette entries: the colors of the second cycle are darkened
    cells = math.prod(Box((2, 1)).shape(3, 2))
    yield RegionRaster(3, Box((2, 1)), 2, tuple(i * 7 % 20 for i in range(cells)),
                       tuple(f"k{i}" for i in range(20)))


@pytest.mark.parametrize("raster", list(_rasters()), ids=["non-square", "20-colors"])
def test_writers_match_the_cell_by_cell_form(raster):
    assert raster.shape[0] != raster.shape[1]
    assert _written(_write_ppm, raster) == _ppm_cell_by_cell(raster)
    assert _written(_write_csv, raster) == _csv_cell_by_cell(raster)


@pytest.mark.parametrize("box,k", [((2,), 1), ((1, 1, Fraction(1, 3)), 1)], ids=["1-axis", "3-axis"])
def test_csv_writer_matches_the_cell_by_cell_form_off_two_axes(box, k):
    cells = math.prod(Box(box).shape(3, k))
    raster = RegionRaster(3, Box(box), k, tuple(i % 3 for i in range(cells)), ("1", "x;y", "x*y"))
    assert _written(_write_csv, raster) == _csv_cell_by_cell(raster)
