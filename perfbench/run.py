#!/usr/bin/env python3
"""subsetfpt benchmark: four closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload {branch,brute,dual,cli} --seed N \
        --seconds S --trace {0,1} [--max-ops K]

Run from the root of a checkout; the package is imported from its src/.
Each run
  1. builds the workload's instances from --seed (perfbench/instances.py)
     and their reference answers (scipy milp, perfbench/reference.py),
     here in the parent, outside the measured process;
  2. times set-up: SETUP_REPEATS fresh interpreters each import subsetfpt
     and build every problem of the workload;
  3. runs the operations in one measured process (perfbench/child.py), one
     caller, no extra threads: whole passes over the list until --seconds
     have elapsed;
  4. judges every answer against the reference (perfbench/workloads.py).
With --trace 1 the measured process makes one untraced and one traced pass
instead, and the result carries the per-layer metrics of the traced pass.

End-to-end metrics (--trace 0):
  setup_s          median set-up time of step 2
  ops_per_s        operations per second of operation time
  op_s.p50         median time of one operation
  op_s.tail        time of one operation at the highest TAIL_LADDER
                   percentile with at least ten operations of one pass
                   beyond it (the report names the percentile)
  ok_share         1 - failed_share: operations that returned an answer the
                   reference agrees with
  not_wrong_share  1 - wrong_share: operations that did not return an answer
                   the reference disagrees with
  peak_rss_mb      peak resident memory of the measured process; for cli,
                   of the largest CLI subprocess
failed_share and wrong_share themselves are in the report; the metrics
carry their complements so that none of them is 0 when nothing fails.
`attempted` and `failed` in the result count each operation of the seeded
list once, however many passes ran, so the same seed gives the same counts
on any machine.

`correct` in the result is false if an answer breaks a guarantee the
program gives without conditions, if answers differ between passes, or if
an operation went unchecked (see workloads.py).  Known defects and wrong NO
verdicts of the branching engine count as failed operations instead.

The last line of stdout is the result object; before it come a readable
summary and one `report {...}` JSON line with every metric, its unit and
sample count, the failure breakdown, the answer digest (equal digests mean
the same verdicts, values and solutions, tie-breaks included), raw wall
times and the environment.  --max-ops keeps only the first K operations
(for perfbench/test_smoke.py).  instances.CONFIRM_SEED is the seed to
confirm a claimed gain on inputs not used while the change was written.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 7
# A shared machine's speed can swing: 1.7x within seconds was seen on a
# 2-vCPU virtual machine.  The measured process times a fixed pure-Python
# probe every CALIBRATE_EVERY_S (child.calibrate); every reported time is
# scaled to a machine on which that probe takes PROBE_NOMINAL_S, using the
# median of the PROBE_WINDOW probes on either side of the op.  The speed
# drifts by about 5 % within 50 ms, so probes are frequent and the window
# narrow.  Raw wall times are kept in the report.
PROBE_NOMINAL_S = 1e-3
PROBE_WINDOW = 1
DEADLINE_S = 170
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 70, 60, 50)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ok_share": "share",
    "not_wrong_share": "share",
    "peak_rss_mb": "MB",
}

# name -> unit.  The traced run reports each one, 0 where the workload does
# not enter that layer, and leaves out those whose hook the program lacks.
# Each group says which end-to-end metric it should move, on which workload.
PER_LAYER = {
    # op_s.tail, ops_per_s and ok_share on branch; nothing on brute or dual.
    "intersective.calls": "count",
    "intersective.nodes": "count",
    "intersective.cap_hits": "count",
    "intersective.s": "s",
    "intersective.self_s": "s",
    "intersective.us_per_node": "us",
    # op_s.p50 and ops_per_s on brute.
    "intersective.verify.calls": "count",
    "intersective.verify.s": "s",
    # op_s.p50 and ops_per_s on branch only.
    "problems.restrict.calls": "count",
    "problems.restrict.s": "s",
    # brute (sweep path) and branch (one call per node).
    "problems.feasible_mask.calls": "count",
    "problems.feasible_mask.s": "s",
    # op_s.p50, ops_per_s and peak_rss_mb on brute, and dual's brute path.
    "problems.feasible_batch.masks": "count",
    "problems.feasible_batch.s": "s",
    "problems.batch_masks_per_s": "1/s",
    "core.brute.calls": "count",
    "core.brute.s": "s",
    "core.brute.self_s": "s",
    "core.brute.batch_path": "count",
    "core.brute.sweep_path": "count",
    # setup_s on every workload.
    "problems.make_problem.s": "s",
    # op_s.p50 on dual (large inputs) and on branch (many tiny calls).
    "approx.run.calls": "count",
    "approx.run.s": "s",
    "approx.ratio.calls": "count",
    "approx.ratio.s": "s",
    # op_s.p50 on dual.
    "dualschema.calls": "count",
    "dualschema.s": "s",
    "dualschema.self_s": "s",
    "dualschema.approx_path": "count",
    "dualschema.brute_path": "count",
    "dualschema.budget_exceeded": "count",
    # op_s.p50 and op_s.tail on cli; cli.import_s also setup_s everywhere.
    "cli.process_start_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "io.parse.s": "s",
    # traced minus untraced pass time, same operations.
    "trace.overhead_s": "s",
}

# Metric-name prefix -> the hook in the program's objects it needs.
HOOKED = {
    "intersective.nodes": "intersective.nodes",
    "intersective.us_per_node": "intersective.nodes",
    "problems.restrict": "problems.restrict",
    "problems.feasible_mask": "problems.feasible_mask",
    "problems.feasible_batch": "problems.feasible_batch",
    "problems.batch_masks_per_s": "problems.feasible_batch",
    "approx.run": "approx.run",
    "approx.ratio": "approx.ratio",
}


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            fail("run exceeded its time limit")
        return left


def run_child(args: list[str], deadline: Deadline) -> str:
    """Run perfbench/child.py in its own process group; kill the group if
    it outlives the deadline."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PERFBENCH_ROOT=str(ROOT))
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("measured process exceeded the time limit")
    if proc.returncode != 0:
        fail(f"child.py {args[0]} exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def speed_factors(probes: list, n_ops: int) -> list[float]:
    """Per op, PROBE_NOMINAL_S over the median of the probes taken nearest
    to it: multiplying an op's wall time by its factor gives the time it
    would have taken with the machine running at nominal speed."""
    idx = [i for i, _ in probes]
    vals = [v for _, v in probes]
    out = []
    for j in range(n_ops):
        k = bisect.bisect_right(idx, j) - 1
        near = vals[max(0, k - PROBE_WINDOW): k + PROBE_WINDOW + 1]
        out.append(PROBE_NOMINAL_S / statistics.median(near))
    return out


def normalized_times(p: dict) -> list[float]:
    return [t * f for (t, _), f in zip(p["results"], speed_factors(p["probes"], len(p["results"])))]


def tail_level(per_pass: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it
    in one pass; fixed by the workload's list, not by how many passes ran."""
    for q in TAIL_LADDER:
        if per_pass * (1 - q / 100) >= 10:
            return q
    return 50


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def digest(ops: list[dict], answers: list[dict]) -> str:
    blob = json.dumps([[op["id"], ans] for op, ans in zip(ops, answers)], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "src_lines": src_lines}


def per_layer(trace: dict, traced: dict, untraced_s: float) -> dict:
    """Per-layer metrics from the traced pass; span times are scaled to
    nominal machine speed by the pass's median probe."""
    scale = PROBE_NOMINAL_S / statistics.median(v for _, v in traced["probes"])
    calls, counts = trace["calls"], trace["counts"]
    s = {k: v * scale for k, v in trace["s"].items()}
    self_s = {k: v * scale for k, v in trace["self_s"].items()}
    absent = set(trace["absent"])
    out = {}
    for name in ("intersective", "intersective.verify", "problems.restrict",
                 "problems.feasible_mask", "problems.feasible_batch", "approx.run",
                 "approx.ratio", "core.brute", "dualschema"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = s.get(name, 0.0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    nodes = counts.get("intersective.nodes", 0)
    masks = counts.get("problems.feasible_batch.masks", 0)
    out.update({
        "intersective.nodes": nodes,
        "intersective.cap_hits": counts.get("intersective.cap_hits", 0),
        "intersective.us_per_node": out["intersective.s"] / nodes * 1e6 if nodes else 0.0,
        "problems.feasible_batch.masks": masks,
        "problems.batch_masks_per_s": masks / out["problems.feasible_batch.s"] if masks else 0.0,
        "problems.make_problem.s": s.get("problems.make_problem", 0.0),
        "core.brute.batch_path": counts.get("core.brute.batch_path", 0),
        "core.brute.sweep_path": counts.get("core.brute.sweep_path", 0),
        "dualschema.approx_path": counts.get("dualschema.approx", 0),
        "dualschema.brute_path": counts.get("dualschema.brute", 0),
        "dualschema.budget_exceeded": counts.get("dualschema.budget_exceeded", 0),
        "cli.process_start_s": s.get("cli.process_start_s", 0.0),
        "cli.import_s": s.get("cli.import_s", 0.0),
        "cli.main_s": s.get("cli.main_s", 0.0),
        "io.parse.s": s.get("io.parse", 0.0),
        "trace.overhead_s": sum(normalized_times(traced)) - untraced_s,
    })
    metrics = {}
    for name, unit in PER_LAYER.items():
        if any(name.startswith(p) and h in absent for p, h in HOOKED.items()):
            continue
        metrics[name] = {"value": out[name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="subsetfpt benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0)
    args = ap.parse_args(argv)
    deadline = Deadline(DEADLINE_S)
    if not (ROOT / "src" / "subsetfpt" / "__init__.py").is_file():
        fail(f"no subsetfpt sources under {ROOT / 'src'}; run from a checkout of the repository")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    work_rel = f".bench_build/perfbench/{args.workload}-{args.seed}"
    workdir = ROOT / work_rel
    workdir.mkdir(parents=True, exist_ok=True)

    t0 = perf_counter()
    w = workloads.build(args.workload, args.seed, work_rel)
    if args.max_ops:
        w.ops = w.ops[: args.max_ops]
    reference_s = perf_counter() - t0
    workloads.write_files(w, ROOT)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(w.spec()))

    # One import first so byte-compilation is not counted as set-up.
    run_child(["setup", str(spec_path)], deadline)
    setups = [json.loads(run_child(["setup", str(spec_path)], deadline))
              for _ in range(SETUP_REPEATS)]

    out_path = workdir / f"result-{args.trace}.json"
    run_child(["run", str(spec_path), str(out_path), str(args.seconds), str(args.trace)], deadline)
    res = json.loads(out_path.read_text())

    passes = res["passes"] + ([res["traced"]] if args.trace else [])
    first = [ans for _, ans in passes[0]["results"]]
    stable = all([a for _, a in p["results"]] == first for p in passes[1:])
    judged = [workloads.judge(w, op, ans) for op, ans in zip(w.ops, first)]
    statuses = [s for s, _ in judged]
    violations = sum(v for _, v in judged)
    # Counted over the operation list, once per operation: every pass must
    # give the same answers (else `correct` is false), and the number of
    # passes depends on how fast the machine runs, so counting repeats would
    # make the same code report different counts from run to run.
    n_pass = len(passes)
    attempted = len(w.ops)
    failed = sum(s != "ok" for s in statuses)
    wrong = sum(s == "wrong" for s in statuses)
    breakdown: dict[str, int] = {}
    for op, ans, status in zip(w.ops, first, statuses):
        if status != "ok":
            key = f"{op['call']}:{status}" + (f":{ans['error']}" if status == "raised" else "")
            breakdown[key] = breakdown.get(key, 0) + 1

    timed = res["passes"]
    times = [t for p in timed for t in normalized_times(p)]
    raw = [t for p in timed for t, _ in p["results"]]
    q = tail_level(len(w.ops))
    setup_s = [s["setup_s"] * PROBE_NOMINAL_S / s["probe_s"] for s in setups]
    measured = {
        "setup_s": (statistics.median(setup_s), len(setups)),
        "ops_per_s": (len(times) / sum(times), len(times)),
        "op_s.p50": (statistics.median(times), len(times)),
        "op_s.tail": (percentile(times, q), len(times)),
        "ok_share": (1 - failed / attempted, attempted),
        "not_wrong_share": (1 - wrong / attempted, attempted),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }
    raw_wall = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": len(raw) / sum(p["wall"] for p in timed),
        "op_s.p50": statistics.median(raw),
        "op_s.tail": percentile(raw, q),
        "probe_s": statistics.median(v for p in timed for _, v in p["probes"]),
    }
    if args.trace:
        metrics = per_layer(res["trace"], res["traced"], sum(normalized_times(timed[0])))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in measured.items()}

    report = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k], "samples": n}
                       for k, (v, n) in measured.items()},
        "tail_percentile": q, "raw_wall": raw_wall,
        "failed_share": failed / attempted, "wrong_share": wrong / attempted,
        "failures": breakdown, "violations": violations, "answers_stable": stable,
        "ops_per_pass": len(w.ops), "passes": n_pass, "checked": len(judged),
        "digest": digest(w.ops, first),
        "setup_import_s": statistics.median(s["import_s"] for s in setups),
        "reference_s": reference_s, "environment": environment(),
    }
    if args.trace:
        report["per_layer"] = metrics
    for name, m in report["end_to_end"].items():
        print(f"{w.name:7s} {name:16s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"{w.name:7s} tail = p{q:g}; failed {failed}/{attempted}, wrong {wrong}; "
          f"failures {breakdown}; digest {report['digest']}")
    print("report " + json.dumps(report, sort_keys=True))
    correct = stable and violations == 0 and len(judged) == len(w.ops)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
