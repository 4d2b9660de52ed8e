"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from reference import howald_generators, minimal_exponents  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import Fractal, Tau  # noqa: E402


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = tracer.wrap("algebra.leaf", lambda: tick(2))

    def middle_body():
        tick(1)
        leaf()
        tick(3)

    middle = tracer.wrap("testideal.middle", middle_body)

    def top_body():
        tick(5)
        middle()
        leaf()
        tick(1)

    tracer.wrap("region.top", top_body)()
    assert tracer.spans == {
        "region.top": [1, 14.0, 6.0],
        "testideal.middle": [1, 6.0, 4.0],
        "algebra.leaf": [2, 4.0, 4.0],
    }
    assert [tracer.layer_self_s(layer) for layer in ("region", "testideal", "algebra")] == \
        [6.0, 4.0, 4.0]
    assert tracer.stack == []


def test_span_closes_when_the_call_raises():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def fail():
        now[0] += 1
        raise ValueError("boom")

    failing = tracer.wrap("groebner.fail", fail)
    with pytest.raises(ValueError):
        tracer.wrap("region.outer", failing)()
    assert tracer.spans["groebner.fail"] == [1, 1.0, 1.0]
    assert tracer.spans["region.outer"] == [1, 1.0, 0.0]
    assert tracer.stack == []


@pytest.mark.parametrize("a, c, gens", [
    ((1, 1), Fraction(17, 9), {(0, 0)}),  # tau((x,y)^(17/9)) = R
    ((1, 1), Fraction(2), {(1, 0), (0, 1)}),  # tau((x,y)^2) = (x,y)
    ((1, 1, 1), Fraction(26, 9), {(0, 0, 0)}),  # tau((x,y,z)^(26/9)) = R
    ((2, 3), Fraction(1), {(1, 0), (0, 1)}),  # tau((x^2,y^3)) = (x,y)
    ((1, 1), Fraction(3), {(2, 0), (1, 1), (0, 2)}),  # tau((x,y)^3) = (x,y)^2
])
def test_howald_formula(a, c, gens):
    assert howald_generators(a, c) == gens


def test_minimal_exponents():
    assert minimal_exponents([(1, 0), (2, 0), (1, 1), (0, 3)]) == {(1, 0), (0, 3)}


def test_same_seed_same_draws():
    assert Fractal(7).shifts == Fractal(7).shifts
    assert Tau(7).points == Tau(7).points
    assert Tau(7).points != Tau(8).points


def test_draws_cover_every_stratum():
    shifts = Fractal(3).shifts
    assert len(set(shifts)) == 27
    assert sorted(b1 for b1, _ in shifts) == sorted(list(range(9)) * 3)
    points = Tau(3).points
    assert points[:2] == [("(x,y)", Fraction(17, 9)), ("(x,y)", Fraction(53, 27))]
    assert len(points) == 3 + 18 + 69 + 27 - 6
    assert not any(name == "(x,y,z)" and 2 < c <= Fraction(8, 3) for name, c in points[3:])


def _bindings():
    """Every function and wrapped class attribute that the tracer may replace."""
    import pfractal
    from pfractal.algebra import IdealGens, Polynomial

    mods = [pfractal] + [importlib.import_module(f"pfractal.{layer}") for layer in LAYERS]
    out = {(mod.__name__, attr): obj for mod in mods
           for attr, obj in vars(mod).items() if inspect.isfunction(obj)}
    out["Polynomial.__mul__"] = Polynomial.__dict__["__mul__"]
    out["IdealGens.__init__"] = IdealGens.__dict__["__init__"]
    return out


def test_install_wraps_every_binding_and_uninstall_restores():
    import pfractal
    from pfractal import region, testideal

    before = _bindings()
    tracer = Tracer()
    tracer.install(pfractal)
    try:
        assert region.tau_mixed.__wrapped__ is before[("pfractal.testideal", "tau_mixed")]
        assert region.reduces_to_zero is pfractal.groebner.reduces_to_zero
        assert testideal.poly_bracket_root is pfractal.poly_bracket_root
        assert hasattr(pfractal.Polynomial.__mul__, "__wrapped__")
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_timed_run_leaves_module_attributes_original(tmp_path, capsys):
    before = _bindings()
    assert worker.main(["--workload", "threshold", "--seed", "0", "--mode", "timed",
                        "--tmp", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["failures"] == [] and "layers" not in report
    assert _bindings() == before


def test_repetition_seconds_scale_with_the_probe_median():
    report = {"op_s": [1.0, 2.0], "probe_s": [2 * run.PROBE_REF_S, 2 * run.PROBE_REF_S,
                                              run.PROBE_REF_S]}
    assert run.scaled_s(report) == pytest.approx(1.5)  # the probe ran at half speed


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_traced_raster_counts_cells_issued_by_region():
    import pfractal

    ring = pfractal.Ring(3, ["x", "y"])
    fam = pfractal.IdealFamily(ring, [ring.ideal(ring.polynomial("x+y")),
                                      ring.ideal(ring.polynomial("x*y"))])
    tracer = Tracer()
    tracer.install(pfractal)
    try:
        pfractal.rasterize(fam, pfractal.Box((1, 1)), 2)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    assert layers["region.cells"] == 100  # the 10 x 10 grid of level 2
    assert layers["frobenius.root.calls"] == 100
    assert layers["testideal.tau.principal_ratio"] == 1.0
    assert layers["region.chi_samples"] == 0


def test_tau_check_flags_the_known_wrong_points():
    import pfractal

    tau = Tau(0)
    tau.points = [("(x,y)", Fraction(17, 9)), ("(x,y)", Fraction(2))]
    ops = tau.setup(pfractal, "")
    first, second = (tau.check(pfractal, i, op()) for i, op in enumerate(ops))
    assert first is not None and first.known
    assert second is None


def test_a_repetition_over_its_cap_is_killed(tmp_path):
    report, why = run.spawn("fractal", 0, "timed", tmp_path, 1.0)
    assert report is None and "killed" in why


def test_no_result_without_the_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tau", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
