"""Instance formats and random generation.

Graphs use the DIMACS edge format (1-based vertices); set systems use a
two-line-header-free format: first line "<n_ground> <m>", then m lines of
space-separated 1-based ground elements.  The parser skips blank lines, so
the format has no line for an empty set: render_setsystem refuses a system
that holds one, and generated sets are never empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import iter_bits
from .problems import Graph, SetSystem


class ParseError(ValueError):
    pass


@dataclass
class ParsedGraph:
    graph: Graph
    dropped_duplicates: int
    dropped_self_loops: int


def parse_graph(text: str) -> ParsedGraph:
    """DIMACS edge format: 'c' comments, one 'p edge <n> <m>' line, then
    'e <u> <v>' lines with 1-based endpoints."""
    n: Optional[int] = None
    raw_edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n, _m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed problem line {line!r}")
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed edge line {line!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range in {line!r}")
            raw_edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ParseError("missing 'p edge' line")
    kept = [(u, v) for u, v in raw_edges if u != v]
    graph = Graph.from_edges(n, kept)
    return ParsedGraph(graph, len(kept) - len(graph.edges), len(raw_edges) - len(kept))


def render_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def parse_setsystem(text: str) -> SetSystem:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty set-system input")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"malformed header {lines[0]!r}")
    try:
        n_ground, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"malformed header {lines[0]!r}")
    if n_ground < 0 or m < 1:
        raise ParseError("need n_ground >= 0 and m >= 1")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"header declares {m} sets but found {len(body)} lines")
    sets = []
    for lineno, ln in enumerate(body, 2):
        elems = []
        for tok in ln.split():
            try:
                e = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad element {tok!r}")
            if not 1 <= e <= n_ground:
                raise ParseError(f"line {lineno}: element {e} out of range")
            elems.append(e - 1)
        sets.append(elems)
    return SetSystem.from_lists(n_ground, sets)


def render_setsystem(sys: SetSystem) -> str:
    lines = [f"{sys.n_ground} {sys.m}"]
    for i, s in enumerate(sys.sets):
        if not s:
            raise ValueError(f"set {i} is empty: the format has no line for an empty set")
        lines.append(" ".join(str(e + 1) for e in iter_bits(s)))
    return "\n".join(lines) + "\n"


def generate_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): one coin flip per vertex pair, pairs in fixed (u, v) order."""
    if n < 0 or not 0 <= p <= 1:
        raise ValueError("need n >= 0 and p in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def generate_setsystem(
    n_ground: int, m: int, max_size: int, seed: int
) -> SetSystem:
    """Random coverable set system: each set gets a uniform size in
    [1, max_size]; afterwards every uncovered ground element is appended to a
    random set, so the full family always covers the ground set."""
    if n_ground < 1 or m < 1 or max_size < 1:
        raise ValueError("need n_ground, m, max_size >= 1")
    rng = random.Random(seed)
    max_size = min(max_size, n_ground)
    sets = [
        set(rng.sample(range(n_ground), rng.randint(1, max_size)))
        for _ in range(m)
    ]
    covered = set().union(*sets)
    for e in range(n_ground):
        if e not in covered:
            sets[rng.randrange(m)].add(e)
    return SetSystem.from_lists(n_ground, [sorted(s) for s in sets])
