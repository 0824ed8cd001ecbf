"""Seeded instance generators of the benchmark's own.

The benchmark never calls ``subsetfpt.io.generate_*``: inputs come from
here, so a change to the program cannot change what it is measured on.
Instances are plain JSON-able dicts; the measured process turns them into
``Graph.from_edges`` / ``SetSystem.from_lists`` and the CLI workload reads
them as DIMACS / set-system text rendered here.

Graph instance:      {"kind": <ProblemKind value>, "n": n, "edges": [[u, v], ...]}
Set-system instance: {"kind": <ProblemKind value>, "ground": g, "sets": [[e, ...], ...]}
"""

from __future__ import annotations

import random

SET_KINDS = ("set-cover", "set-packing")

GOAL = {
    "vertex-cover": "min",
    "independent-set": "max",
    "clique": "max",
    "dominating-set": "min",
    "set-cover": "min",
    "set-packing": "max",
    "feedback-vertex-set": "min",
    "max-minimal-vertex-cover": "max",
    "min-independent-dominating-set": "min",
}

# G(50, 0.1) drawn with random.Random(70000): 133 edges, vertex cover 29.
# ROADMAP's non-trivial branching instance; fixed, independent of --seed.
ROADMAP_SEED = 70000

# The seed named for confirming a claim on inputs not used while a change
# was written: measure on the usual seeds, then again with this one.
CONFIRM_SEED = 424242


def gnp(kind: str, n: int, p: float, rng: random.Random) -> dict:
    """G(n, p): one coin per vertex pair, pairs in (u, v) order."""
    edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return {"kind": kind, "n": n, "edges": edges}


def gnm(kind: str, n: int, p: float, rng: random.Random) -> dict:
    """G(n, m) with m = round(p * n(n-1)/2): p's expected edge count, drawn
    uniformly.  A fixed edge count keeps the cost of one instance closer to
    the next than G(n, p) does, so fewer instances give a steady figure."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return {"kind": kind, "n": n, "edges": sorted(map(list, rng.sample(pairs, round(p * len(pairs)))))}


def roadmap_graph(kind: str = "vertex-cover") -> dict:
    return gnp(kind, 50, 0.1, random.Random(ROADMAP_SEED))


def set_system(kind: str, ground: int, m: int, max_size: int, rng: random.Random) -> dict:
    """m random sets of uniform size in [1, max_size]; each ground element
    no set holds is then added to a random set, so the family covers."""
    max_size = min(max_size, ground)
    sets = [set(rng.sample(range(ground), rng.randint(1, max_size))) for _ in range(m)]
    covered = set().union(*sets)
    for e in range(ground):
        if e not in covered:
            sets[rng.randrange(m)].add(e)
    return {"kind": kind, "ground": ground, "sets": [sorted(s) for s in sets]}


def planted_stars(kind: str, centers: int, leaves: tuple[int, int], extra: float,
                  rng: random.Random) -> dict:
    """Disjoint stars plus about `extra` random leaf-leaf edges per leaf,
    vertices relabelled at random.  The centers dominate every vertex, so
    the dominating set is small next to n while the maximum degree stays
    near a star's."""
    edges = set()
    leaf_ids = []
    n = 0
    for _ in range(centers):
        c = n
        d = rng.randint(*leaves)
        for leaf in range(c + 1, c + 1 + d):
            edges.add((c, leaf))
            leaf_ids.append(leaf)
        n = c + 1 + d
    for _ in range(round(extra * len(leaf_ids))):
        u, v = rng.sample(leaf_ids, 2)
        edges.add((min(u, v), max(u, v)))
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    return {"kind": kind, "n": n, "edges": [list(e) for e in relabelled]}


def universe_size(inst: dict) -> int:
    return len(inst["sets"]) if inst["kind"] in SET_KINDS else inst["n"]


def render_dimacs(inst: dict) -> str:
    """DIMACS edge format with 1-based vertices."""
    lines = [f"p edge {inst['n']} {len(inst['edges'])}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in inst["edges"]]
    return "\n".join(lines) + "\n"


def render_sets(inst: dict) -> str:
    """'<ground> <m>' header, then one line of 1-based elements per set."""
    lines = [f"{inst['ground']} {len(inst['sets'])}"]
    lines += [" ".join(str(e + 1) for e in s) for s in inst["sets"]]
    return "\n".join(lines) + "\n"


def render(inst: dict) -> str:
    return render_sets(inst) if inst["kind"] in SET_KINDS else render_dimacs(inst)
