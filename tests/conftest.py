"""Shared fixtures and independent reference oracles.

The reference implementations here deliberately avoid the package's bitmask
machinery (plain sets, itertools, union-find) so the tests are a genuinely
independent route to the same answers.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys

import networkx as nx
import pytest

import subsetfpt as sf


@pytest.fixture(scope="session")
def atlas():
    """All non-isomorphic graphs with 1..7 vertices, as package Graphs."""
    out = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0:
            continue
        out.append(sf.Graph.from_edges(n, list(G.edges())))
    return out


def atlas_upto(graphs, max_n):
    return [g for g in graphs if g.n <= max_n]


def all_graphs_upto(max_n):
    """Raw enumeration of every labeled graph with 1..max_n vertices."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            yield sf.Graph.from_edges(n, edges)


@contextlib.contextmanager
def recursion_limit_near_here(extra=100):
    """Lower the interpreter's recursion limit to about `extra` frames above
    the caller, and restore it on exit: a recursive search deeper than that
    would raise RecursionError."""
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + extra)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def random_graph(n, p, seed):
    from subsetfpt.io import generate_gnp

    return generate_gnp(n, p, seed)


def random_system(n_ground, m, max_size, seed):
    from subsetfpt.io import generate_setsystem

    return generate_setsystem(n_ground, m, max_size, seed)


def ref_optimum(universe_size, goal, feasible):
    """Independent exhaustive optimum over plain frozensets.

    feasible takes a frozenset; returns (best_set, value) or None.
    """
    cards = (
        range(universe_size + 1)
        if goal is sf.Goal.MINIMIZE
        else range(universe_size, -1, -1)
    )
    for r in cards:
        for combo in itertools.combinations(range(universe_size), r):
            if feasible(frozenset(combo)):
                return frozenset(combo), r
    return None


def _sweep_optima(p: sf.SubsetProblem, all_ties: bool):
    """Reference for brute force's bit-sliced scan: (value, optimal masks in
    lexicographic order) by a cardinality sweep over the scalar predicate,
    one mask at a time; only the first optimum unless all_ties.  None if
    infeasible."""
    n = p.universe_size
    cards = range(n + 1) if p.goal is sf.Goal.MINIMIZE else range(n, -1, -1)
    for r in cards:
        found = []
        for combo in itertools.combinations(range(n), r):
            m = sf.mask_of(combo)
            if p.feasible_mask(m):
                found.append(m)
                if not all_ties:
                    break
        if found:
            return r, found
    return None


def greedy_cover_ref(covers, target):
    """Reference for the covering greedy's picks, in order, over plain sets:
    on every pick, recount for every id how much of target its cover still
    holds, and take the largest count, lowest id on ties.  None if some
    element of target is in no cover."""
    left, picked = set(target), []
    while left:
        gains = [len(c & left) for c in covers]
        best = max(gains, default=0)
        if best == 0:
            return None
        i = gains.index(best)
        picked.append(i)
        left -= covers[i]
    return picked


def greedy_packing_ref(conflicts, alive):
    """Reference for the packing greedy's picks, in order, over plain sets:
    take the alive element with the fewest alive conflicts, lowest id on
    ties, then drop it and its conflicts; repeat while any is alive."""
    left, picked = set(alive), []
    while left:
        best = min(left, key=lambda v: (len(conflicts[v] & left), v))
        picked.append(best)
        left -= conflicts[best] | {best}
    return picked


def matching_cover_ref(neighbours, alive):
    """Reference for the matching cover, in order, over plain sets: take each
    free alive vertex in increasing order and pair it with its lowest free
    alive neighbour above it; both endpoints of each pair, pair by pair."""
    free, cover = set(alive), []
    for u in sorted(alive):
        above = sorted(v for v in neighbours[u] & free if v > u)
        if u in free and above:
            free -= {u, above[0]}
            cover += [u, above[0]]
    return cover


def disjoint_hitters_ref(hitters, chosen):
    """Reference for the covering bound, over plain sets: walk the distinct
    hitters, fewest members first and, among equal sizes, by their members
    in decreasing order (the order of their masks), and count those that
    meet neither chosen nor a hitter counted before."""
    order = sorted(set(map(frozenset, hitters)), key=lambda h: (len(h), sorted(h, reverse=True)))
    used, count = set(chosen), 0
    for h in order:
        if not h & used:
            used |= h
            count += 1
    return count


def augmenting_paths_ref(neighbours, alive, cover):
    """Reference for the matching bound's pass, over plain sets: for each
    matched pair (a, b) of cover, in order, a path u-a=b-v through alive
    vertices that no pair and no path before holds, u != v; u is the lowest
    such neighbour of a that b lacks, else a's lowest, v b's lowest other
    one.  The number of paths found."""
    free, paths = set(alive) - set(cover), 0
    for a, b in zip(cover[::2], cover[1::2]):
        at_a, at_b = neighbours[a] & free, neighbours[b] & free
        if not at_a:
            continue
        u = min(at_a - at_b or at_a)
        if at_b - {u}:
            free -= {u, min(at_b - {u})}
            paths += 1
    return paths


def uf_has_cycle(n, edges):
    """Union-find cycle detector, independent of the package's leaf peeling."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def vc_feasible_ref(g: sf.Graph, s: frozenset) -> bool:
    return all(u in s or v in s for u, v in g.edges)


def is_feasible_ref(g: sf.Graph, s: frozenset) -> bool:
    return all(not (u in s and v in s) for u, v in g.edges)


def closed_neighbourhoods_ref(g: sf.Graph) -> list[set]:
    """N[v] for each vertex v, as plain sets built from the edge list."""
    nbs = [{v} for v in range(g.n)]
    for u, v in g.edges:
        nbs[u].add(v)
        nbs[v].add(u)
    return nbs


def ds_feasible_ref(g: sf.Graph, s: frozenset) -> bool:
    dominated = set(s)
    for v in s:
        for u in range(g.n):
            if (g.adj[v] >> u) & 1:
                dominated.add(u)
    return len(dominated) == g.n


def mmvc_feasible_ref(g: sf.Graph, s: frozenset) -> bool:
    """S is a minimal vertex cover: it covers every edge, and every member
    has a neighbour outside S, so no member can be dropped."""
    neighbours = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return vc_feasible_ref(g, s) and all(neighbours[v] - s for v in s)
