"""Outside-in tracing of pfractal's six modules, for the benchmark's traced run.

`Tracer.install` replaces every public function of a pfractal module by a
wrapper, in every module namespace that holds it: the package re-exports
names, and region, testideal and cli bind functions of other modules at
import.  `Polynomial.__mul__` and `IdealGens.__init__` are wrapped at class
level.  `uninstall` puts the originals back.  Timed runs never install it.

A wrapper records one span per call.  Spans are folded into per-name
records as they close (calls, total seconds, self seconds), because the
busiest workloads make millions of calls; the records stay in memory until
the run reports them.  A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of nested
spans add up to the outermost span's duration.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("algebra", "frobenius", "groebner", "testideal", "region", "cli")

# A sort key runs once per term comparison inside groebner; wrapping it would
# multiply the cost of the run it observes, and its time belongs to the caller.
UNWRAPPED = frozenset({"grevlex_key"})

# class-level wrappers: (module, class, attribute, span name)
CLASS_SPANS = (
    ("algebra", "Polynomial", "__mul__", "algebra.mul"),
    ("algebra", "IdealGens", "__init__", "algebra.ideal_gens"),
)


def _p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _after_root(counts, caller, args, kwargs, result):
    counts["frobenius.root.gens_out"] += len(result.gens)
    counts["frobenius.root.units"] += result.has_unit_generator()


def _after_power(counts, caller, args, kwargs, result):
    counts["algebra.ideal_power.gens_out"] += len(result.gens)


def _after_buchberger(counts, caller, args, kwargs, result):
    counts["groebner.basis_gens"] += len(result.basis)


def _after_tau(counts, caller, args, kwargs, result):
    fam = args[0] if args else kwargs["fam"]
    point = args[1] if len(args) > 1 else kwargs["c"]
    p = fam.ring.p
    if all(n == 1 for n in fam.gen_counts) and all(
            _p_power(getattr(c, "denominator", 1), p) for c in point):
        counts["testideal.tau.principal"] += 1
    if caller == "region":
        counts["region.cells"] += 1


def _after_member(counts, caller, args, kwargs, result):
    if caller == "region":
        counts["region.chi_samples"] += 1


AFTER = {
    "frobenius.poly_bracket_root": _after_root,
    "algebra.ideal_power": _after_power,
    "groebner.buchberger": _after_buchberger,
    "testideal.tau_mixed": _after_tau,
    "groebner.reduces_to_zero": _after_member,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [layer, seconds covered by child spans]
        self.spans: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        """fn wrapped so that every call records a span called name."""
        stack, clock, counts = self.stack, self.clock, self.counts
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
            if after is not None:
                after(counts, caller, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, pf) -> None:
        modules = {layer: importlib.import_module(f"{pf.__name__}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, AFTER.get(name))
        for mod in (pf, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, attr, name in CLASS_SPANS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def _self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(rec[2] for name, rec in self.spans.items()
                   if name.split(".", 1)[0] == layer)

    def metrics(self) -> dict:
        """The per-layer metrics the tracer measures (all but cli.bytes_out and trace.*)."""
        counts = self.counts
        roots = self._calls("frobenius.poly_bracket_root")
        bases = self._calls("groebner.buchberger")
        taus = self._calls("testideal.tau_mixed")
        out = {f"{layer}.self_s": self.layer_self_s(layer) for layer in LAYERS}
        out.update({
            "frobenius.root.calls": roots,
            "frobenius.root.gens_out": counts["frobenius.root.gens_out"],
            "frobenius.root.unit_ratio": counts["frobenius.root.units"] / roots if roots else 0.0,
            "algebra.ideal_gens.calls": self._calls("algebra.ideal_gens"),
            "algebra.ideal_gens.self_s": self._self_s("algebra.ideal_gens"),
            "algebra.ideal_power.gens_out": counts["algebra.ideal_power.gens_out"],
            "algebra.mul.calls": self._calls("algebra.mul"),
            "algebra.mul.self_s": self._self_s("algebra.mul"),
            "algebra.poly_pow.self_s": self._self_s("algebra.poly_pow"),
            "groebner.member.calls": self._calls("groebner.reduces_to_zero"),
            "groebner.member.self_s": self._self_s("groebner.reduces_to_zero"),
            "groebner.buchberger.calls": bases,
            "groebner.buchberger.self_s": self._self_s("groebner.buchberger"),
            "groebner.basis_len": counts["groebner.basis_gens"] / bases if bases else 0.0,
            "groebner.colon.self_s": self._self_s("groebner.ideal_colon"),
            "testideal.tau.calls": taus,
            "testideal.tau.principal_ratio":
                counts["testideal.tau.principal"] / taus if taus else 0.0,
            "testideal.v_number.calls": self._calls("testideal.v_number"),
            "region.cells": counts["region.cells"],
            "region.chi_samples": counts["region.chi_samples"],
        })
        return out
