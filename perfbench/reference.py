"""Independent answers: feasibility predicates and exact optima.

Predicates use plain Python sets; optima come from integer programs solved
with ``scipy.optimize.milp``.  None of this imports subsetfpt, and it runs
only in the benchmark's parent process, outside the timed region.

Formulations (x_i = 1 iff element i is chosen):
  vertex cover, dominating set, set cover: covering program;
  independent set: n - tau; clique: independent set of the complement;
  min independent dominating set: packing rows per edge plus covering rows
  per closed neighbourhood; max minimal vertex cover: n - that;
  set packing: at most one chosen set per ground element;
  feedback vertex set: cycle rows added until networkx sees a forest.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from instances import universe_size

INF = np.inf



# ---------------------------------------------------------------- predicates

def _adjacency(inst: dict) -> list[set[int]]:
    adj = [set() for _ in range(inst["n"])]
    for u, v in inst["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _covers_edges(inst: dict, s: set[int]) -> bool:
    return all(u in s or v in s for u, v in inst["edges"])


def _independent(inst: dict, s: set[int]) -> bool:
    return not any(u in s and v in s for u, v in inst["edges"])


def _dominating(inst: dict, s: set[int]) -> bool:
    adj = _adjacency(inst)
    return all(v in s or adj[v] & s for v in range(inst["n"]))


def _forest_without(inst: dict, s: set[int]) -> bool:
    parent = list(range(inst["n"]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in inst["edges"]:
        if u in s or v in s:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def feasible(inst: dict, members: Iterable[int]) -> bool:
    """Is `members` (0-based universe indices) a feasible solution?"""
    s = set(members)
    if not all(0 <= i < universe_size(inst) for i in s):
        return False
    kind = inst["kind"]
    if kind == "vertex-cover":
        return _covers_edges(inst, s)
    if kind == "independent-set":
        return _independent(inst, s)
    if kind == "clique":
        adj = _adjacency(inst)
        return all(v in adj[u] for u in s for v in s if u != v)
    if kind == "dominating-set":
        return _dominating(inst, s)
    if kind == "set-cover":
        got = set()
        for i in s:
            got.update(inst["sets"][i])
        return got == set(range(inst["ground"]))
    if kind == "set-packing":
        seen: set[int] = set()
        for i in s:
            if seen & set(inst["sets"][i]):
                return False
            seen.update(inst["sets"][i])
        return True
    if kind == "feedback-vertex-set":
        return _forest_without(inst, s)
    if kind == "max-minimal-vertex-cover":
        adj = _adjacency(inst)
        return _covers_edges(inst, s) and all(adj[v] - s for v in s)
    if kind == "min-independent-dominating-set":
        return _independent(inst, s) and _dominating(inst, s)
    raise ValueError(f"unknown kind {kind}")


def dual_feasible(inst: dict, members: Iterable[int]) -> bool:
    """Feasible for the dual problem: the complement is feasible here."""
    s = set(members)
    return all(0 <= i < universe_size(inst) for i in s) and feasible(
        inst, set(range(universe_size(inst))) - s
    )


# ------------------------------------------------------------------ optima

def _milp(nvars: int, rows: list, maximize: bool = False,
          relax: bool = False) -> tuple[Optional[int], set[int]]:
    """Optimum of sum(x) and one optimal x as a set; (None, set()) if the
    program is infeasible.  rows: (columns, lb, ub).  With `relax` the
    integrality constraints are dropped and the value is the LP optimum
    rounded towards the integer optimum (up for min, down for max)."""
    if not rows:
        return (nvars, set(range(nvars))) if maximize else (0, set())
    a = np.zeros((len(rows), nvars))
    lb = np.empty(len(rows))
    ub = np.empty(len(rows))
    for r, (cols, lo, hi) in enumerate(rows):
        a[r, list(cols)] = 1
        lb[r], ub[r] = lo, hi
    res = milp(
        -np.ones(nvars) if maximize else np.ones(nvars),
        constraints=LinearConstraint(a, lb, ub),
        integrality=np.zeros(nvars) if relax else np.ones(nvars),
        bounds=Bounds(0, 1),
    )
    if res.status == 2:
        return None, set()
    if res.status != 0:
        raise RuntimeError(f"milp failed: {res.message}")
    if relax:
        value = abs(res.fun)
        return (math.floor(value + 1e-6) if maximize else math.ceil(value - 1e-6)), set()
    return int(round(abs(res.fun))), {i for i, x in enumerate(res.x) if x > 0.5}


def _complement_edges(inst: dict) -> list[tuple[int, int]]:
    have = {tuple(e) for e in inst["edges"]}
    n = inst["n"]
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in have]


def _closed_nbs(inst: dict) -> list[list[int]]:
    adj = _adjacency(inst)
    return [sorted(adj[v] | {v}) for v in range(inst["n"])]


def _fvs(inst: dict, extra: list) -> Optional[int]:
    n = inst["n"]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, inst["edges"]))
    rows = list(extra)
    while True:
        value, chosen = _milp(n, rows)
        if value is None:
            return None
        rest = g.subgraph(v for v in range(n) if v not in chosen)
        if nx.is_forest(rest):
            return value
        rows.extend((set(c), 1, INF) for c in nx.cycle_basis(rest))


def optimum(inst: dict, must_meet: Optional[Iterable[int]] = None) -> Optional[int]:
    """Optimal value; with `must_meet`, the optimum over solutions that
    share at least one element with it.  None when nothing is feasible."""
    kind = inst["kind"]
    extra = [] if must_meet is None else [(set(must_meet), 1, INF)]
    if must_meet is not None and not extra[0][0]:
        return None
    if kind in ("vertex-cover", "independent-set", "clique") and must_meet is None:
        edges = _complement_edges(inst) if kind == "clique" else inst["edges"]
        tau = _milp(inst["n"], [(e, 1, INF) for e in edges])[0]
        return tau if kind == "vertex-cover" else inst["n"] - tau
    if kind == "vertex-cover":
        return _milp(inst["n"], [(e, 1, INF) for e in inst["edges"]] + extra)[0]
    if kind in ("independent-set", "clique"):
        edges = _complement_edges(inst) if kind == "clique" else inst["edges"]
        return _milp(inst["n"], [(e, -INF, 1) for e in edges] + extra, maximize=True)[0]
    if kind == "dominating-set":
        return _milp(inst["n"], [(nb, 1, INF) for nb in _closed_nbs(inst)] + extra)[0]
    if kind in ("set-cover", "set-packing"):
        holders = [[i for i, s in enumerate(inst["sets"]) if e in s] for e in range(inst["ground"])]
        m = len(inst["sets"])
        if kind == "set-cover":
            return _milp(m, [(h, 1, INF) for h in holders] + extra)[0]
        return _milp(m, [(h, -INF, 1) for h in holders if len(h) > 1] + extra, maximize=True)[0]
    if kind in ("min-independent-dominating-set", "max-minimal-vertex-cover"):
        rows = [(e, -INF, 1) for e in inst["edges"]] + [(nb, 1, INF) for nb in _closed_nbs(inst)]
        if kind == "min-independent-dominating-set":
            return _milp(inst["n"], rows + extra)[0]
        if must_meet is not None:
            raise ValueError("must_meet is not supported for max-minimal-vertex-cover")
        return inst["n"] - _milp(inst["n"], rows)[0]
    if kind == "feedback-vertex-set":
        return _fvs(inst, extra)
    raise ValueError(f"unknown kind {kind}")


def set_cover_lower_bound(inst: dict) -> int:
    """LP bound on the set-cover optimum: cheap where the exact program is
    slow (thousands of sets), and enough to check a dual guarantee."""
    holders = [[i for i, s in enumerate(inst["sets"]) if e in s] for e in range(inst["ground"])]
    return _milp(len(inst["sets"]), [(h, 1, INF) for h in holders], relax=True)[0]
