"""Spans and counters recorded around calls into the package's layers.

`Tracer.install()` replaces selected functions and methods of `twocubes`
with wrappers defined here; `uninstall()` puts the originals back.  The
package's own source is never edited.  A spanned call records its name,
start, end and parent span in flat in-memory arrays, written out once at
the end of a run.  Times are CPU time of the running thread, the clock the
operations themselves are timed by.  The hottest scalar operations are only counted, and a
seeded sample of their operands is kept for a replay timed without the
tracer.
"""
from __future__ import annotations

import functools
import gzip
import random
import statistics
import sys
import time
from array import array

from twocubes import classify, decomp, ecurve, forms, roots
from twocubes.exact import CycNum, ParamPoly
from twocubes.forms import BinaryForm

# (span name, owner, attribute): owner is a module for functions, a class for
# methods.  A module function is also replaced in every twocubes module that
# imported it by name.  Both exact form divisions report as one metric.
SPANNED = (
    ("roots.linear_factors", roots, "linear_factors"),
    ("roots.aberth", roots, "_aberth_roots"),
    ("roots.reconstruct", roots, "_reconstruction"),
    ("decomp.rep_count", decomp, "rep_count"),
    ("decomp.pair_partitions", decomp, "pair_partitions"),
    ("decomp.H_eval", decomp, "H_eval"),
    ("decomp.dependence_test", decomp, "dependence_test"),
    ("decomp.construct_from_triple", decomp, "construct_from_triple"),
    ("forms.mul", BinaryForm, "__mul__"),
    ("forms.pow", BinaryForm, "__pow__"),
    ("forms.proportional_to", BinaryForm, "proportional_to"),
    ("forms.form_compose", forms, "form_compose"),
    ("forms.form_gcd", forms, "form_gcd"),
    ("forms.form_divexact", forms, "form_divexact"),
    ("forms.form_divexact", ecurve, "_divide_forms"),
    ("ecurve.curve_add", ecurve, "curve_add"),
    ("ecurve.eb_forward", ecurve, "eb_forward"),
    ("ecurve.eb_inverse", ecurve, "eb_inverse"),
    ("ecurve.curve_third_rep", ecurve, "curve_third_rep"),
    ("classify.type_detect", classify, "type_detect"),
)

# Outcomes summed over the calls that return, for the useful-work ratios:
# factorizations found, dependent groupings, representations kept.
OBSERVED = {
    "roots.linear_factors": lambda result: 1,
    "decomp.dependence_test": lambda dep: int(dep.dependent),
    "decomp.rep_count": lambda report: report.N,
}

# Counted only: (counter, class, attribute); reflected operators count as
# the operation they implement.
COUNTED = (
    ("exact.cycnum_add", CycNum, "__add__"),
    ("exact.cycnum_add", CycNum, "__radd__"),
    ("exact.cycnum_mul", CycNum, "__mul__"),
    ("exact.cycnum_mul", CycNum, "__rmul__"),
    ("exact.cycnum_inverse", CycNum, "inverse"),
    ("exact.parampoly_mul", ParamPoly, "__mul__"),
    ("exact.parampoly_mul", ParamPoly, "__rmul__"),
)
COUNTERS = tuple(dict.fromkeys(name for name, _, _ in COUNTED))
SAMPLE_SIZE = 2000  # operands kept per counter for the replay


class Tracer:
    def __init__(self, seed: int):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")   # 1 when an enclosing span has the same name
        self._stack = [-1]
        self._depth: list[int] = []
        self.outcomes = {name: 0 for name in OBSERVED}
        self.counts = {name: 0 for name in COUNTERS}
        self.samples = {name: [] for name in COUNTERS}
        self._stride = {name: 1 for name in COUNTERS}
        self._phase = {name: random.Random(f"{name}:{seed}").randrange(1 << 30) for name in COUNTERS}
        self.originals = {}
        self._patched = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.nested.append(1 if self._depth[name_id] else 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[name_id] += 1
        self.start.append(time.thread_time())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.thread_time()
            self._depth[name_id] -= 1
            self._stack.pop()

    def _spanning(self, name, fn):
        name_id = self.name_id(name)
        call = self.call
        observe = OBSERVED.get(name)
        if observe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(name_id, fn, args, kwargs)
        else:
            outcomes = self.outcomes

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = call(name_id, fn, args, kwargs)
                outcomes[name] += observe(result)
                return result

        return wrapper

    def _counting(self, name, fn):
        counts, samples = self.counts, self.samples[name]
        stride, phase = self._stride, self._phase[name]

        @functools.wraps(fn)
        def wrapper(*args):
            n = counts[name] = counts[name] + 1
            if (n + phase) % stride[name] == 0:
                samples.append(args)
                if len(samples) >= 2 * SAMPLE_SIZE:
                    # keep every other sample and halve the sampling rate
                    del samples[1::2]
                    stride[name] *= 2
            return fn(*args)

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "twocubes" or n.startswith("twocubes.")]
        for name, owner, attr in SPANNED:
            fn = owner.__dict__[attr]
            self.originals[(owner, attr)] = fn
            wrapped = self._spanning(name, fn)
            self._set(owner, attr, wrapped)
            if not isinstance(owner, type):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn and module is not owner:
                            self._set(module, key, wrapped)
        for name, owner, attr in COUNTED:
            fn = owner.__dict__[attr]
            self.originals[(owner, attr)] = fn
            self._set(owner, attr, self._counting(name, fn))

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def root(self, name: str, fn):
        """Run `fn` as a root span, the operation every layer span hangs under."""
        return self.call(self.name_id(name), fn, (), {})

    # -- summaries ------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds of outermost spans, self
        seconds).  Self time is a span's duration minus its children's."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            d = self.end[i] - self.start[i]
            calls[k] += 1
            own[k] += d - child[i]
            if not self.nested[i]:
                inclusive[k] += d
        return {
            name: (calls[k], inclusive[k], own[k]) for k, name in enumerate(self.names)
        }

    def replay_us(self, name, repeats: int = 5) -> float:
        """Microseconds per call of the original function on the sampled
        operands: the median of `repeats` timed passes, tracer uninstalled."""
        samples = self.samples[name]
        if not samples:
            return 0.0
        owner, attr = next((o, a) for n, o, a in COUNTED if n == name)
        fn = self.originals[(owner, attr)]
        times = []
        for _ in range(repeats):
            t0 = time.thread_time()
            for args in samples:
                fn(*args)
            times.append(time.thread_time() - t0)
        return statistics.median(times) / len(samples) * 1e6

    def write(self, path):
        """Every span as one tab-separated line: index, name, start, end and
        parent index (-1 for a root), times in CPU seconds of the thread."""
        names, start, end, parent = self.names, self.start, self.end, self.parent
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart\tend\tparent\n")
            for i, k in enumerate(self.name):
                out.write(f"{i}\t{names[k]}\t{start[i]!r}\t{end[i]!r}\t{parent[i]}\n")
