"""Outside-in tracing for the traced run.

Spans are recorded from the benchmark's side of each module boundary: the
problem's callables are swapped for timed ones with ``dataclasses.replace``
and the oracle is rebuilt with timed ``run``/``ratio``.  Nothing inside the
package is patched.  A hook whose field a later version removes is simply
not installed, so its metrics are absent rather than the run crashing.

A span's time leaves out the tracer's own bookkeeping (re-wrapping restricted
children); its self time also leaves out its child spans.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import partial
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set[str] = set()  # hooks this version of the program lacks
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, *args):
        frame = [0.0, 0.0]  # child spans' time, tracer bookkeeping time
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            net = perf_counter() - t0 - frame[1]
            self._stack.pop()
            self.calls[name] += 1
            self.seconds[name] += net
            self.self_seconds[name] += net - frame[0]
            if self._stack:
                self._stack[-1][0] += net
                self._stack[-1][1] += frame[1]

    def exclude(self, dur: float) -> None:
        """Keep `dur` of tracer bookkeeping out of the enclosing spans."""
        if self._stack:
            self._stack[-1][1] += dur

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "s": dict(self.seconds),
                "self_s": dict(self.self_seconds), "counts": dict(self.counts),
                "absent": sorted(self.absent)}


def _fields(obj) -> set[str]:
    if not dataclasses.is_dataclass(obj):
        return set()
    return {f.name for f in dataclasses.fields(obj)}


def wrap_oracle(tr: Tracer, oracle):
    have = _fields(oracle)
    changes = {}
    for name in ("run", "ratio"):
        if name in have:
            changes[name] = partial(tr.span, f"approx.{name}", getattr(oracle, name))
        else:
            tr.absent.add(f"approx.{name}")
    return dataclasses.replace(oracle, **changes) if changes else oracle


def wrap_problem(tr: Tracer, p):
    have = _fields(p)
    tr.absent.update(f"problems.{h}" for h in ("feasible_mask", "feasible_batch")
                     if h not in have)
    if "restrict_fn" not in have:
        tr.absent.add("problems.restrict")
    changes = {}
    if "feasible_mask" in have:
        changes["feasible_mask"] = partial(tr.span, "problems.feasible_mask", p.feasible_mask)
    if "feasible_batch" in have and p.feasible_batch is not None:
        batch = p.feasible_batch

        def timed_batch(masks):
            tr.counts["problems.feasible_batch.masks"] += len(masks)
            return tr.span("problems.feasible_batch", batch, masks)

        changes["feasible_batch"] = timed_batch
    if "restrict_fn" in have and p.restrict_fn is not None:
        restrict = p.restrict_fn

        def timed_restrict(e):
            r = tr.span("problems.restrict", restrict, e)
            t0 = perf_counter()
            if "problem" in _fields(r):
                r = dataclasses.replace(r, problem=wrap_problem(tr, r.problem))
            tr.exclude(perf_counter() - t0)
            return r

        changes["restrict_fn"] = timed_restrict
    return dataclasses.replace(p, **changes) if changes else p


# Run inside a fresh interpreter in place of `python -m subsetfpt.cli`:
# times the import and main() from outside, then exits with main's code.
CLI_TRACER = """
import json, sys, time
t0 = time.perf_counter()
import subsetfpt.cli as cli
t1 = time.perf_counter()
try:
    code = cli.main(sys.argv[1:])
finally:
    t2 = time.perf_counter()
    sys.stdout.flush()
    sys.stderr.write("\\nCLI_TRACE " + json.dumps({"import_s": t1 - t0, "main_s": t2 - t1}) + "\\n")
sys.exit(code)
"""
