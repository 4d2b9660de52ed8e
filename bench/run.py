"""The pfractal benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload {raster,fractal,tau,threshold} --seed N --seconds S --trace {0,1}

Run from the repository root; pfractal is imported from ./src.  Every
repetition runs bench/worker.py in a fresh interpreter with PYTHONHASHSEED
fixed, so pfractal's caches start cold as they do for a CLI user, and under a
wall-clock cap: a repetition that crashes or is killed counts all its
operations as failed and the run goes on.  A repetition's seconds are scaled
to a reference machine speed by the speed probe it samples around its
operations (see worker.speed_probe).  Set-up is also timed in set-up-only
interpreters, so its median has several samples.

With --trace 0 the repetitions run untraced and the last stdout line reports
the end-to-end metrics; with --trace 1 untraced and traced repetitions
alternate and it reports the per-layer metrics.  The line before it holds the
machine, every sample and every failure.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
REP_CAP_S = 150.0  # wall-clock cap of one repetition
DEADLINE_S = 170.0  # the whole run, set-up probes included, ends by then
# worker.speed_probe's seconds at the reference speed, about its median on
# the 2-core Xeon VM the baseline in bench/README.md was measured on
PROBE_REF_S = 0.02

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER = {
    "frobenius.self_s": "s",
    "frobenius.root.calls": "count",
    "frobenius.root.gens_out": "gens",
    "frobenius.root.unit_ratio": "ratio",
    "algebra.self_s": "s",
    "algebra.ideal_gens.calls": "count",
    "algebra.ideal_gens.self_s": "s",
    "algebra.ideal_power.gens_out": "gens",
    "algebra.mul.calls": "count",
    "algebra.mul.self_s": "s",
    "algebra.poly_pow.self_s": "s",
    "groebner.self_s": "s",
    "groebner.member.calls": "count",
    "groebner.member.self_s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.self_s": "s",
    "groebner.basis_len": "gens",
    "groebner.colon.self_s": "s",
    "testideal.self_s": "s",
    "testideal.tau.calls": "count",
    "testideal.tau.principal_ratio": "ratio",
    "testideal.v_number.calls": "count",
    "region.self_s": "s",
    "region.cells": "count",
    "region.chi_samples": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}


def spawn(workload: str, seed: int, mode: str, tmp: Path, timeout: float):
    """Run one worker; returns (report, None) or (None, why it failed)."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--tmp", str(tmp)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    # the first worker caches pfractal's bytecode in the checkout, as an
    # installed package has it; set-up then times the import a CLI user pays
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        # on timeout, run() kills the worker and waits for it
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition killed at the {timeout:.0f} s cap"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{mode} worker exited with {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def scaled_s(report: dict) -> float:
    """A repetition's operation seconds at the reference machine speed."""
    return sum(report["op_s"]) * PROBE_REF_S / statistics.median(report["probe_s"])


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor() or platform.machine(),
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pfractal" / "__init__.py").is_file():
        sys.stderr.write(f"no pfractal sources under {ROOT / 'src'}\n")
        return 2
    n_ops = len(WORKLOADS[args.workload](args.seed).op_names())
    machine_before = machine()
    started = time.monotonic()
    deadline = started + DEADLINE_S
    tmp_root = ROOT / ".bench_tmp"
    tmp = tmp_root / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    setups, problems, failures = [], [], []
    reps = {"timed": [], "traced": []}
    durations = {"timed": [], "traced": []}
    attempted = failed = 0
    try:
        for probe in range(SETUP_PROBES):
            report, why = spawn(args.workload, args.seed, "setup", tmp, 60.0)
            if report is None and probe == 0:
                sys.stderr.write(f"cannot set up {args.workload}: {why}\n")
                return 2
            if report is None:
                problems.append(why)
            else:
                setups.append(report["setup_s"])
        modes = ("timed", "traced") if args.trace else ("timed",)
        while True:
            round_start = time.monotonic()
            for mode in modes:
                begin = time.monotonic()
                report, why = spawn(args.workload, args.seed, mode, tmp,
                                    min(REP_CAP_S, deadline - begin))
                durations[mode].append(time.monotonic() - begin)
                attempted += n_ops
                if report is None:
                    failed += n_ops
                    problems.append(why)
                    continue
                reps[mode].append(report)
                setups.append(report["setup_s"])
                failed += len(report["failures"])
                if not failures:
                    failures = report["failures"]
                problems.extend(f"{name}: {reason}" for name, reason, known in report["failures"]
                                if not known)
            now = time.monotonic()
            round_s = now - round_start
            if now - started + round_s > args.seconds or deadline - now < 1.5 * round_s:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp_root.is_dir() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    def wall_s(mode):
        """Median over the repetitions of their operation seconds at the reference speed.

        When every repetition died, their durations stand in.
        """
        totals = [scaled_s(r) for r in reps[mode]] or durations[mode]
        return statistics.median(totals)

    if args.trace:
        traced = reps["traced"]
        # median_low returns one of the samples, so a count stays an integer
        values = {name: statistics.median_low(r["layers"][name] for r in traced) if traced else 0
                  for name in PER_LAYER if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = wall_s("traced") / wall_s("timed")
        units = PER_LAYER
    else:
        timed = reps["timed"]
        values = {
            "wall_s": wall_s("timed"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed) if timed else 0.0,
            "ok_ratio": 1 - failed / attempted,
        }
        units = END_TO_END
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_before,
        "loadavg_after": os.getloadavg(),
        "samples": {
            "setup_s": setups,
            "rep_s": [sum(r["op_s"]) for r in reps["timed"]],
            "probe_s": [statistics.median(r["probe_s"]) for r in reps["timed"]],
            "scaled_rep_s": [scaled_s(r) for r in reps["timed"]],
            "traced_rep_s": [sum(r["op_s"]) for r in reps["traced"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps["timed"]],
        },
        "failures": failures,
        "problems": list(dict.fromkeys(problems)),
        "spans": reps["traced"][0]["spans"] if reps["traced"] else {},
    }
    for name, value in values.items():
        sys.stderr.write(f"{args.workload:>9} {name:<30} {value:.6g} {units[name]}\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
