"""One repetition of a benchmark workload, run by bench/run.py in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode MODE --tmp DIR

MODE is `setup` (import pfractal and build the inputs, nothing else),
`timed` (set up, then run the operations) or `traced` (the same with the
tracer installed after set-up).  The last line of stdout is one JSON object
with the set-up seconds, the seconds of each operation, the speed-probe
samples taken around them, the peak resident memory, each failed operation
and, when traced, the per-layer metrics and span records.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Failure

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_EVERY_S = 1.0  # operation seconds between two speed-probe samples


def speed_probe() -> float:
    """Seconds this interpreter takes for a fixed piece of stdlib work.

    The work resembles pfractal's own (products of sparse polynomials over
    F_3 held as dicts of exponent tuples, then a sort of their monomials) but
    runs no pfractal code, so a change to pfractal cannot move it; only the
    speed of the machine can.  Other tenants of a shared machine change that
    speed by up to half within seconds, and bench/run.py scales each
    repetition's seconds by the probe samples taken around its operations.
    """
    f = {(i % 7, i // 7): 1 + i % 2 for i in range(30)}
    start = time.perf_counter()
    for _ in range(50):
        out = {}
        for (a1, b1), c1 in f.items():
            for (a2, b2), c2 in f.items():
                e = (a1 + a2, b1 + b2)
                c = (out.get(e, 0) + c1 * c2) % 3
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        sorted(out, key=lambda e: (e[0] + e[1], e))
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    import pfractal as pf
    ops = workload.setup(pf, args.tmp)
    setup_s = time.perf_counter() - start
    if not Path(pf.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"pfractal imported from {pf.__file__}, not from {SRC}\n")
        return 2
    report: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = Tracer() if args.mode == "traced" else None
    if tracer:
        tracer.install(pf)
    results, op_s = [], []
    probe_s, since_probe = [speed_probe()], 0.0
    for op in ops:
        if since_probe >= PROBE_EVERY_S:
            probe_s.append(speed_probe())
            since_probe = 0.0
        start = time.perf_counter()
        try:
            results.append(op())
        except Exception as err:  # a raised error is a failed operation; the run goes on
            results.append(Failure(f"{type(err).__name__}: {err}"))
        op_s.append(time.perf_counter() - start)
        since_probe += op_s[-1]
    probe_s.append(speed_probe())
    report["op_s"] = op_s
    report["probe_s"] = probe_s
    # read before the checks, which build bases of their own
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    failures = []
    for index, (name, result) in enumerate(zip(workload.op_names(), results)):
        failure = result if isinstance(result, Failure) else workload.check(pf, index, result)
        if failure is not None:
            failures.append([name, failure.reason, failure.known])
    report["failures"] = failures
    if tracer:
        layers = tracer.metrics()
        ok = hasattr(workload, "bytes_out") and not isinstance(results[0], Failure)
        layers["cli.bytes_out"] = workload.bytes_out(results) if ok else 0
        report["layers"] = layers
        report["spans"] = {name: rec for name, rec in sorted(tracer.spans.items()) if rec[0]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
