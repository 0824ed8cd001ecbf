"""The measured process: imports subsetfpt, builds the workload's problems
and runs its operations in a closed loop.

    python3 child.py setup SPEC            time import + build, print JSON
    python3 child.py run SPEC OUT SECONDS TRACE

`run` executes whole passes over the operation list until SECONDS have
elapsed, or until one more pass would end past 1.5 x SECONDS (always at
least one pass), and writes per-operation times, speed probes and answers
to OUT.  With TRACE=1 it runs one untraced pass and then one traced
pass over the same list instead.  It calls only the package's stable API and
the CLI; nothing from the benchmark's reference side is imported here, so
peak memory is the program's own.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from instances import GOAL

ROOT = os.environ["PERFBENCH_ROOT"]


CALIBRATE_EVERY_S = 0.01


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes now: a probe of how
    fast the (shared) machine runs at this moment.  It builds tuples,
    frozensets and a dict and sorts, as the engines do, so it slows down
    with them when neighbours contend for the same core and caches."""
    t0 = perf_counter()
    d = {}
    for i in range(1500):
        t = (i, i + 1, i & 3)
        d[t] = frozenset(t)
    sorted(d, key=lambda k: -k[2])
    return perf_counter() - t0


def build(spec: dict, timer=None) -> dict:
    """Instances -> problems, through Graph.from_edges / SetSystem.from_lists
    and make_problem.  `timer(fn, *args)` may time each make_problem call."""
    import subsetfpt as sf

    problems = {}
    for iid, inst in spec["instances"].items():
        kind = sf.ProblemKind(inst["kind"])
        if "sets" in inst:
            data = sf.SetSystem.from_lists(inst["ground"], inst["sets"])
        else:
            data = sf.Graph.from_edges(inst["n"], [tuple(e) for e in inst["edges"]])
        problems[iid] = timer(sf.make_problem, kind, data) if timer else sf.make_problem(kind, data)
    return problems


def setup(spec: dict) -> None:
    t0 = perf_counter()
    import subsetfpt  # noqa: F401

    t1 = perf_counter()
    build(spec)
    t2 = perf_counter()
    probe = sorted(calibrate() for _ in range(9))[4]
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "probe_s": probe}))


def _members(sol):
    return None if sol is None else sorted(sol)


class Runner:
    """Executes operations against one set of problems and oracles."""

    def __init__(self, spec: dict, problems: dict, oracles: dict, tracer=None):
        import subsetfpt as sf

        self.sf = sf
        self.kinds = {iid: inst["kind"] for iid, inst in spec["instances"].items()}
        self.problems = problems
        self.oracles = oracles
        self.tr = tracer
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def _span(self, name, fn, *args):
        return self.tr.span(name, fn, *args) if self.tr else fn(*args)

    def execute(self, op: dict) -> dict:
        try:
            return getattr(self, "op_" + op["call"])(op)
        except Exception as exc:  # a failed operation, recorded and judged
            return {"error": type(exc).__name__}

    def _problem(self, op):
        """The op's problem and its kind's default oracle."""
        return self.problems[op["inst"]], self.oracles[self.kinds[op["inst"]]]

    def op_branch(self, op):
        sf = self.sf
        p, oracle = self._problem(op)
        minimize = GOAL[self.kinds[op["inst"]]] == "min"
        solver = sf.branch_solve_min if minimize else sf.branch_solve_max
        cfg = sf.BranchConfig(budget_k=op["k"], node_cap=op["node_cap"])
        rep = self._span("intersective", solver, p, oracle, cfg)
        if self.tr:
            nodes = getattr(rep, "nodes_expanded", None)
            if nodes is None:
                self.tr.absent.add("intersective.nodes")
            else:
                self.tr.counts["intersective.nodes"] += nodes
            self.tr.counts["intersective.cap_hits"] += rep.outcome.value == "node-cap-exceeded"
        return {"outcome": rep.outcome.value, "solution": _members(rep.solution)}

    def op_brute(self, op):
        sf = self.sf
        p = self.problems[op["inst"]]
        target = sf.dualize(p) if op["dual"] else p
        batches = self.tr.calls["problems.feasible_batch"] if self.tr else 0
        try:
            res = self._span("core.brute", sf.brute_force_optimum, target)
        finally:
            if self.tr:
                batch = self.tr.calls["problems.feasible_batch"] > batches
                self.tr.counts["core.brute.batch_path" if batch else "core.brute.sweep_path"] += 1
        if isinstance(res, sf.EvaluatedSolution):
            return {"result": "optimal", "value": res.value, "solution": _members(res.members)}
        return {"result": type(res).__name__}

    def op_verify(self, op):
        rep = self._span("intersective.verify", self.sf.verify_intersective, *self._problem(op))
        return {"verdict": rep.verdict.value, "oracle_solution": _members(rep.oracle_solution),
                "optima_checked": rep.optima_checked,
                "intersecting_optimum": _members(rep.intersecting_optimum)}

    def op_dual(self, op):
        sf = self.sf
        cfg = sf.SchemaConfig(epsilon=Fraction(op["eps"]), brute_cap=op["brute_cap"])
        out = self._span("dualschema", sf.dual_approx, *self._problem(op), cfg)
        if self.tr:
            self.tr.counts["dualschema." + out.path.value.replace("-", "_")] += 1
        return {"path": out.path.value, "dual_value": out.dual_value,
                "dual_solution": _members(out.dual_solution),
                "guarantee": None if out.guarantee is None else str(out.guarantee),
                "exact": out.exact}

    def op_cli(self, op):
        if self.tr:
            return self._traced_cli(op)
        proc = subprocess.run([sys.executable, "-m", "subsetfpt.cli", *op["argv"]], cwd=ROOT,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return {"code": proc.returncode, "stdout": proc.stdout}

    def _traced_cli(self, op):
        from tracing import CLI_TRACER

        if op["inst"] is not None:
            self._time_parse(op)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_TRACER, *op["argv"]], cwd=ROOT,
                              env=self.env, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        marks = [ln for ln in proc.stderr.splitlines() if ln.startswith("CLI_TRACE ")]
        if marks:
            t = json.loads(marks[-1].split(" ", 1)[1])
            for key in ("import_s", "main_s"):
                self.tr.seconds["cli." + key] += t[key]
            self.tr.seconds["cli.process_start_s"] += wall - t["import_s"] - t["main_s"]
            self.tr.calls["cli"] += 1
        return {"code": proc.returncode, "stdout": proc.stdout}

    def _time_parse(self, op):
        """io.parse on the op's instance text, in this process: the parse
        work every CLI call with an instance file does."""
        from subsetfpt import io

        path = os.path.join(ROOT, op["argv"][op["argv"].index("--problem") + 2])
        with open(path) as f:
            text = f.read()
        parse = io.parse_setsystem if op["argv"][2] in ("set-cover", "set-packing") else io.parse_graph
        self.tr.span("io.parse", parse, text)


def timed_pass(runner: Runner, ops: list) -> dict:
    """One pass over the list: per-op (seconds, answer), the pass's wall
    time, and (op index, probe seconds) taken between ops every
    CALIBRATE_EVERY_S, outside the op timings."""
    results, probes = [], []
    last = t_start = perf_counter()
    probes.append((0, calibrate()))
    for op in ops:
        t0 = perf_counter()
        if t0 - last >= CALIBRATE_EVERY_S:
            probes.append((len(results), calibrate()))
            t0 = last = perf_counter()
        ans = runner.execute(op)
        results.append((perf_counter() - t0, ans))
    return {"results": results, "probes": probes, "wall": perf_counter() - t_start}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run(spec: dict, out_path: str, seconds: float, trace: bool) -> None:
    import subsetfpt as sf

    ops = spec["ops"]
    tracer = None
    if trace:
        from tracing import Tracer, wrap_oracle, wrap_problem

        tracer = Tracer()
        problems = build(spec, lambda fn, *a: tracer.span("problems.make_problem", fn, *a))
    else:
        problems = build(spec)
    oracles = {kind.value: o for kind, o in sf.DEFAULT_ORACLE.items()}
    runner = Runner(spec, problems, oracles)
    passes = []
    t_start = perf_counter()
    while True:
        passes.append(timed_pass(runner, ops))
        elapsed = perf_counter() - t_start
        # Whole passes only; stop rather than overrun by more than half.
        if trace or elapsed >= seconds or elapsed + passes[-1]["wall"] > 1.5 * seconds:
            break
    result = {"passes": passes, "peak_rss_mb": peak_rss_mb(spec["workload"])}
    if trace:
        traced = Runner(spec, {k: wrap_problem(tracer, p) for k, p in problems.items()},
                        {k: wrap_oracle(tracer, o) for k, o in oracles.items()}, tracer)
        result["traced"] = timed_pass(traced, ops)
        result["trace"] = tracer.dump()
    with open(out_path, "w") as f:
        json.dump(result, f)


def main() -> None:
    # One CPU for this process and the CLI subprocesses it starts, so the
    # probes see the speed of the CPU the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    if mode == "setup":
        setup(spec)
    else:
        run(spec, sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1")


if __name__ == "__main__":
    main()
