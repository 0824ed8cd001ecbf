#!/usr/bin/env python3
"""Layer-by-layer timings of subsetfpt and the branching engine's cost per node.

Layers, on G(50, 0.1) drawn with seed 70000 and a 16-set system: the
restriction I(e), which builds both its predicates, I(e) and one call of
its predicate (`restrict+feasible_mask.vertex-cover`), the scalar
predicate on a feasible and an infeasible mask, `run` and `ratio` of each
default oracle, one search node at depth 2 of each restrictable kind with a
default oracle as the search makes it (`node.<kind>`: from the masks of the
depth-1 instance I(0), `core.child_alive` on the lowest element it keeps,
then one `oracle.bounded_call()` on the child's masks with the room that a
search at budget k, the size of the oracle's output at the root, passes at
depth 2), the oracle's `run` on that depth-2 sub-instance
(`run.<oracle>.sub`), and the prune test of an oracle built from `run` and
`ratio` alone, on the integer terms of a ratio already read (`prune_test`;
such an oracle keeps this ratio cut alone).  The built-in minimization
oracles stop their greedy at the ratio bound instead, and the three
covering ones also cut by a lower bound inside the `node.<kind>` call:
vertex cover by its matching plus short augmenting paths, dominating set
and set cover by `problems.covering_lower_bound` before the greedy runs.
The set-cover
oracle is also timed on a wide system, 2,000 sets of at most 8 elements over
35 (`*.greedy-set-cover.wide`), where its greedy takes the gain counters.
The covering greedy's lazy scan is timed on two large narrow inputs:
dominating set on G(600, 0.02) (`run.greedy-dominating.large`) and set
cover on 300 sets of at most 12 elements over 400
(`run.greedy-set-cover.square`), both drawn with seed 70000.
The complement step of a dual scan alone (`complement.w16`,
`complement.w20`): `core._co_batch` with an inner predicate that returns
0, on the columns the scan passes at n = 16 and n = 20.
`packing_upper_bound` is timed per packing kind (`bound.*`): independent set
and clique on G(50, 0.1), set packing on the 16-set system.  Building a
problem (`build.*`, vertex cover and dominating set) is `Graph.from_edges`
on the edge list of G(50, 0.1) plus `make_problem`.  The scalar
predicate of feedback vertex set is timed on G(20, 0.15), seed 70000, on an
optimal solution (`feasible_mask.feedback-vertex-set.feasible`) and on the
empty mask, where the graph keeps a cycle (`...cyclic`).
Brute force: `brute_force_optimum` on G(16, 0.3) and G(20, 0.3) for each
graph kind and for its dual, and on a 16- and a 20-set system over 20
elements, seed 70000, for set cover and set packing and their duals.
First call: `brute_force_optimum` once in a fresh interpreter, on vertex
cover and on the dual of dominating set over G(20, 0.3), seed 70000, as a
one-shot CLI `solve` pays it; the brute-force figures above time later calls,
after the first has built the caches and raised the allocator's thresholds.
Intersectivity check: `verify_intersective`
with the default oracle of each kind that has one, the graph kinds on the
same two graphs and set cover on a 16- and a 20-set system over 20
elements, seed 70000.  Cost per node: the criterion-02 instance list
(500 G(n, p) vertex covers at k = opt and opt - 1), a small seeded list per
restrictable kind with a default oracle at k = opt and the adjacent NO
budget, and the G(50, 0.1) instance at k = 29 and 28 under a 2,000-node cap.  CLI cold start: `import
subsetfpt.cli` alone, `python -m subsetfpt.cli <sub>` for each of the seven
subcommands on a small fixed instance, and `solve` on a 16-vertex graph,
where brute force scans 2^16 masks.  Size: `src_lines`, the line count of
each module of the package under --src and their total (as `wc -l`).

Stdlib timing only: a layer is the median over REPEAT `timeit` runs, a
cost per node the median over REPEAT passes of its list, a cold start the
median over COLD_REPEAT interpreters, run in rounds of one per figure so
that drift of the machine spreads over all of them.  The result goes under
--label in --out, next to what the file already holds, with the machine,
the Python version and the numpy version if numpy is installed (the package
does not use it), so that two trees can be set side by side:

    python3 scripts/bench.py --src ../parent/src --label parent --out BENCH.json
    python3 scripts/bench.py --label change --out BENCH.json
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import timeit
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
NODE_CAP = 2_000
KIND_INSTANCES = 24
REPEAT = 5
# Five interpreters read 233 vs 302 ms for the same tree; fifteen is the least.
COLD_REPEAT = 15
# Brute force: (n, timeit number) per size, on G(n, 0.3) and on n sets over 20
# elements, both drawn with seed 70000.
BRUTE_SIZES = ((16, 20), (20, 2))
# argv of one cold-start call, and the vertex count of the G(n, 0.4) drawn
# with seed 3 that comes on its stdin.
CLI_CALLS = {
    "solve": (["solve", "-"], 8),
    "approx": (["approx", "-"], 8),
    "branch": (["branch", "-", "--k", "4"], 8),
    "dual": (["dual", "-", "--epsilon", "1/2"], 8),
    "check-intersective": (["check-intersective", "-"], 8),
    "gen": (["gen", "--model", "gnp", "--n", "8"], 8),
    "experiment": (["experiment", "--run", "solve", "--count", "2", "--n", "8"], 8),
    "solve-16": (["solve", "-"], 16),
}


def _median_us(stmt, number: int) -> float:
    return statistics.median(timeit.repeat(stmt, number=number, repeat=REPEAT)) / number * 1e6


def layers(sf) -> dict:
    from subsetfpt.io import generate_gnp, generate_setsystem

    g = generate_gnp(50, 0.1, 70000)
    s = generate_setsystem(20, 16, 4, 70000)
    K = sf.ProblemKind
    probs = {k: sf.make_problem(k, s if k is K.SET_COVER else g)
             for k in (K.VERTEX_COVER, K.DOMINATING_SET, K.SET_COVER,
                       K.INDEPENDENT_SET, K.MIN_INDEPENDENT_DOMINATING_SET, K.CLIQUE)}
    vc = probs[K.VERTEX_COVER]
    cover = sf.mask_of(sf.DEFAULT_ORACLE[K.VERTEX_COVER].run(vc))
    out = {
        "restrict.vertex-cover": _median_us(lambda: vc.restrict(0), 20_000),
        # restrict builds both predicates; this adds one call of the scalar one.
        "restrict+feasible_mask.vertex-cover": _median_us(
            lambda: vc.restrict(0).feasible_mask(0), 20_000),
        "restrict.independent-set": _median_us(
            lambda: probs[K.INDEPENDENT_SET].restrict(0), 20_000),
        "feasible_mask.feasible": _median_us(lambda: vc.feasible_mask(cover), 20_000),
        "feasible_mask.infeasible": _median_us(lambda: vc.feasible_mask(0x3FF), 20_000),
    }
    for kind, p in probs.items():
        oracle = sf.DEFAULT_ORACLE[kind]
        out[f"run.{oracle.name}"] = _median_us(lambda: oracle.run(p), 2_000)
        out[f"ratio.{oracle.name}"] = _median_us(lambda: oracle.ratio(p), 2_000)
    for kind, p in probs.items():
        if kind not in sf.RESTRICTABLE:
            continue
        # A search node at depth 2, as _branch makes it: the child's alive
        # mask from the depth-1 masks, then one bounded call with the room.
        oracle, parent = sf.DEFAULT_ORACLE[kind], p.restrict(0)
        f = min(sf.iter_bits(parent.alive))
        sub = parent.restrict(f)
        bounded, alive, chosen = oracle.bounded_call(), parent.alive, sub.chosen
        room = len(oracle.run(p)) - 2

        def node():
            bounded(p, sf.core.child_alive(p, alive, f), chosen, room)

        out[f"node.{kind.value}"] = _median_us(node, 2_000)
        out[f"run.{oracle.name}.sub"] = _median_us(lambda: oracle.run(sub), 2_000)
    wide = sf.make_problem(K.SET_COVER, generate_setsystem(35, 2_000, 8, 70000))
    oracle = sf.DEFAULT_ORACLE[K.SET_COVER]
    oracle.run(wide)  # builds what a set system caches on first use
    out[f"run.{oracle.name}.wide"] = _median_us(lambda: oracle.run(wide), 50)
    out[f"ratio.{oracle.name}.wide"] = _median_us(lambda: oracle.ratio(wide), 50)
    large = {"greedy-dominating.large": sf.make_problem(K.DOMINATING_SET, generate_gnp(600, 0.02, 70000)),
             "greedy-set-cover.square": sf.make_problem(K.SET_COVER, generate_setsystem(400, 300, 12, 70000))}
    for name, p in large.items():
        oracle = sf.DEFAULT_ORACLE[p.kind]
        oracle.run(p)  # builds the masks the data caches on first use
        out[f"run.{name}"] = _median_us(lambda: oracle.run(p), 20)
    for kind, data in ((K.INDEPENDENT_SET, g), (K.CLIQUE, g), (K.SET_PACKING, s)):
        p = sf.make_problem(kind, data)
        out[f"bound.{kind.value}"] = _median_us(lambda: sf.packing_upper_bound(p), 2_000)
    edges = sorted(g.edges)
    for kind in (K.VERTEX_COVER, K.DOMINATING_SET):
        out[f"build.{kind.value}"] = _median_us(
            lambda: sf.make_problem(kind, sf.Graph.from_edges(g.n, edges)), 2_000)
    fvs = sf.make_problem(K.FEEDBACK_VERTEX_SET, generate_gnp(20, 0.15, 70000))
    for name, m in (("feasible", sf.mask_of(sf.brute_force_optimum(fvs).members)), ("cyclic", 0)):
        out[f"feasible_mask.feedback-vertex-set.{name}"] = _median_us(lambda: fvs.feasible_mask(m), 20_000)
    # The complement step of a dual scan alone, on the columns _chunks passes.
    for n, number in BRUTE_SIZES:
        cols = _scanned_columns(sf, n)
        out[f"complement.w{n}"] = _median_us(lambda: sf.core._co_batch(_no_mask, cols), number * 10)
    # The prune test of an oracle built from run and ratio alone, once both
    # have run: |sol| * den > num * room.  The built-in minimization oracles
    # stop their greedy at the bound instead, and the covering ones cut by
    # their lower bounds too, so it times the derived path only.
    r = sf.DEFAULT_ORACLE[K.VERTEX_COVER].ratio(vc)
    sol, num, den, room = cover.bit_count(), r.numerator, r.denominator, 29 - 3
    out["prune_test"] = _median_us(lambda: sol * den > num * room, 200_000)
    return out


def _no_mask(cols) -> int:
    return 0


def _scanned_columns(sf, n: int) -> tuple:
    """The columns the scan of an n-element universe hands the predicate on
    its first chunk."""
    seen = []
    p = sf.SubsetProblem("columns", n, sf.Goal.MINIMIZE, feasible_mask=None,
                         feasible_batch=lambda cols: seen.append(cols) or -1)
    next(sf.core._chunks(p))
    return seen[0]


def brute_us(sf) -> dict:
    from subsetfpt.io import generate_gnp, generate_setsystem

    out = {}
    for n, number in BRUTE_SIZES:
        g, s = generate_gnp(n, 0.3, 70000), generate_setsystem(20, n, 4, 70000)
        for kind in sf.ProblemKind:
            p = sf.make_problem(kind, s if kind in sf.problems.SET_KINDS else g)
            for q in (p, sf.dualize(p)):
                sf.brute_force_optimum(q)  # fills the caches a first call builds
                out[q.label] = _median_us(lambda: sf.brute_force_optimum(q), number)
    return out


# Run in a fresh interpreter per figure: prints the problem's label and the
# time in µs of the first brute_force_optimum call on it.
FIRST_CALL = """
import sys, time
import subsetfpt as sf
from subsetfpt.io import generate_gnp
p = sf.make_problem(sf.ProblemKind[sys.argv[1]], generate_gnp(20, 0.3, 70000))
p = sf.dualize(p) if sys.argv[2] == "dual" else p
t0 = time.perf_counter()
sf.brute_force_optimum(p)
print(p.label, (time.perf_counter() - t0) * 1e6)
"""
FIRST_CALLS = (("VERTEX_COVER", "primal"), ("DOMINATING_SET", "dual"))


def first_call_us(src: Path) -> dict:
    """Median µs of the first brute-force call at n = 20 over COLD_REPEAT
    fresh interpreters per figure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times: dict[str, list] = {}
    for _ in range(COLD_REPEAT):
        for argv in FIRST_CALLS:
            out = subprocess.run([sys.executable, "-c", FIRST_CALL, *argv], env=env,
                                 capture_output=True, text=True, check=True).stdout
            label, us = out.split()
            times.setdefault(label, []).append(float(us))
    return {label: statistics.median(t) for label, t in times.items()}


def verify_us(sf) -> dict:
    from subsetfpt.io import generate_gnp, generate_setsystem

    out = {}
    for n, number in BRUTE_SIZES:
        g, s = generate_gnp(n, 0.3, 70000), generate_setsystem(20, n, 4, 70000)
        for kind, oracle in sf.DEFAULT_ORACLE.items():
            p = sf.make_problem(kind, s if kind in sf.problems.SET_KINDS else g)
            sf.verify_intersective(p, oracle)  # fills the caches a first call builds
            out[p.label] = _median_us(lambda: sf.verify_intersective(p, oracle), number)
    return out


def _criterion_02(sf) -> list:
    from subsetfpt.io import generate_gnp

    rng = random.Random(42)
    ops = []
    for i in range(500):
        n = rng.randint(4, 14)
        p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, generate_gnp(n, rng.choice([0.2, 0.5]), 1000 + i))
        opt = sf.brute_force_optimum(p).value
        ops += [(p, opt, 1_000_000)] + ([(p, opt - 1, 1_000_000)] if opt > 0 else [])
    return ops


def _per_kind(sf, kind) -> list:
    from subsetfpt.io import generate_gnp, generate_setsystem

    density = {"dominating-set": 0.3, "independent-set": 0.3, "clique": 0.5}.get(kind.value, 0.2)
    ops = []
    for i in range(KIND_INSTANCES):
        n = 8 + i % 9
        data = (generate_setsystem(n, n, 4, 71000 + i) if kind is sf.ProblemKind.SET_COVER
                else generate_gnp(n, density, 71000 + i))
        p = sf.make_problem(kind, data)
        opt = sf.brute_force_optimum(p).value
        no = opt - 1 if p.goal is sf.Goal.MINIMIZE else opt + 1
        ops += [(p, k, NODE_CAP) for k in (opt, no) if k >= 0]
    return ops


def _gnp50(sf) -> list:
    from subsetfpt.io import generate_gnp

    p = sf.make_problem(sf.ProblemKind.VERTEX_COVER, generate_gnp(50, 0.1, 70000))
    return [(p, 29, NODE_CAP), (p, 28, NODE_CAP)]


def per_node(sf, ops: list) -> tuple[float, int]:
    """(µs per node, nodes of one pass) over (problem, k, node cap) triples."""
    times, nodes = [], 0
    for _ in range(REPEAT):
        nodes, t0 = 0, perf_counter()
        for p, k, cap in ops:
            solve = sf.branch_solve_min if p.goal is sf.Goal.MINIMIZE else sf.branch_solve_max
            cfg = sf.BranchConfig(budget_k=k, node_cap=cap)
            nodes += solve(p, sf.DEFAULT_ORACLE[p.kind], cfg).nodes_expanded
        times.append(perf_counter() - t0)
    return statistics.median(times) / nodes * 1e6, nodes


def cold_start(src: Path) -> dict:
    """Median wall time in ms of COLD_REPEAT fresh interpreters per figure."""
    from subsetfpt.io import generate_gnp, render_graph

    env = dict(os.environ, PYTHONPATH=str(src))
    runs = {"import": (["-c", "import subsetfpt.cli"], "")}
    runs.update({sub: (["-m", "subsetfpt.cli", *argv], render_graph(generate_gnp(n, 0.4, 3)))
                 for sub, (argv, n) in CLI_CALLS.items()})
    times = {name: [] for name in runs}
    for _ in range(COLD_REPEAT):
        for name, (argv, stdin) in runs.items():
            t0 = perf_counter()
            subprocess.run([sys.executable, *argv], env=env, input=stdin,
                           capture_output=True, text=True, check=True)
            times[name].append(perf_counter() - t0)
    return {name: statistics.median(t) * 1e3 for name, t in times.items()}


def src_lines(src: Path) -> dict:
    """Newlines per module of subsetfpt under src, and their total."""
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted((src / "subsetfpt").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def _cpu_model() -> str:
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="the src/ directory to import subsetfpt from")
    ap.add_argument("--label", required=True, help="key of this run in --out, e.g. parent or change")
    ap.add_argument("--out", required=True, help="JSON file to write or merge into")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import subsetfpt as sf

    lists = {"criterion-02": _criterion_02(sf), "G(50,0.1)": _gnp50(sf)}
    lists.update({k.value: _per_kind(sf, k) for k in (
        sf.ProblemKind.VERTEX_COVER, sf.ProblemKind.SET_COVER, sf.ProblemKind.DOMINATING_SET,
        sf.ProblemKind.INDEPENDENT_SET, sf.ProblemKind.CLIQUE)})
    us_per_node, nodes = {}, {}
    for name, ops in lists.items():
        us_per_node[name], nodes[name] = per_node(sf, ops)
    env = {"machine": platform.machine(), "cpu": _cpu_model(), "cpus": os.cpu_count(),
           "platform": platform.platform(), "python": platform.python_version()}
    try:
        env["numpy"] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        pass
    result = {
        "env": env,
        "repeat": REPEAT,
        "cold_repeat": COLD_REPEAT,
        "layers_us": {k: round(v, 3) for k, v in layers(sf).items()},
        "brute_us": {k: round(v, 1) for k, v in brute_us(sf).items()},
        "brute_first_call_us": {k: round(v, 1) for k, v in first_call_us(src).items()},
        "verify_us": {k: round(v, 1) for k, v in verify_us(sf).items()},
        "us_per_node": {k: round(v, 2) for k, v in us_per_node.items()},
        "nodes": nodes,
        "cold_start_ms": {k: round(v, 1) for k, v in cold_start(src).items()},
        "src_lines": src_lines(src),
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=2) + "\n")
    json.dump(result, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
