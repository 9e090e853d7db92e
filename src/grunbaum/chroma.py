"""Exact chromatic numbers and detection of the critical six-chromatic
subgraphs that drive the torus dispatch."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .catalog import catalog_embedding
from .errors import BudgetExceeded, ChromaticUnknown, ClassificationAnomaly
from .solver import Budget, _greedy_clique, color_vertices_k, peel_order


def chromatic_number(adj: Sequence[set[int]], budget: Budget | None = None) -> int:
    """Exact chromatic number by iterative deepening.

    A greedy clique provides the starting point; each k is settled by an
    exhaustive DSATUR-ordered search, so the first feasible k is exact.  If
    the budget runs out, ChromaticUnknown carries the k being tried, which
    is a lower bound.
    """
    n = len(adj)
    if n == 0:
        return 0
    if not any(adj):
        return 1
    budget = budget or Budget()
    k = max(2, len(_greedy_clique(adj)))
    while True:
        try:
            if color_vertices_k(adj, k, budget=budget) is not None:
                return k
        except BudgetExceeded as exc:
            raise ChromaticUnknown(str(exc), at_least=k) from exc
        k += 1


def complete_graph(n: int) -> list[set[int]]:
    return [set(range(n)) - {v} for v in range(n)]


def circulant(n: int, steps: Sequence[int]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        for s in steps:
            adj[v].add((v + s) % n)
            adj[v].add((v - s) % n)
    return adj


def pattern_graph(name: str) -> list[set[int]]:
    """The five fixed patterns used by the dispatch."""
    key = name.upper().replace(" ", "")
    if key == "K6":
        return complete_graph(6)
    if key == "K7":
        return complete_graph(7)
    if key in ("C11^3", "C11CUBED", "C11_3"):
        return circulant(11, (1, 2, 3))
    if key in ("H7+K2", "H7K2"):
        return catalog_embedding("h7k2").adjacency()
    if key in ("C3+C5", "C3C5"):
        return catalog_embedding("c3c5").adjacency()
    raise ValueError(f"unknown pattern {name!r}")


def _triangle_support_core(adj: Sequence[set[int]], t: int) -> list[set[int]]:
    """A copy of the graph without the edges that lie in fewer than t
    triangles, removed one by one, rechecking the edges of each removed
    edge's triangles, until every edge left lies in t triangles or more."""
    adj = [set(a) for a in adj]
    stack = [(u, v) for u, a in enumerate(adj) for v in a
             if u < v and len(a & adj[v]) < t]
    while stack:
        u, v = stack.pop()
        if v not in adj[u]:
            continue
        adj[u].discard(v)
        adj[v].discard(u)
        for w in adj[u] & adj[v]:
            stack.extend((x, w) for x in (u, v) if len(adj[x] & adj[w]) < t)
    return adj


@dataclass(frozen=True)
class SubgraphMatch:
    pattern: str
    mapping: tuple[int, ...]  # pattern vertex -> host vertex


def find_subgraph(
    host_adj: Sequence[set[int]],
    pattern,
    budget: Budget | None = None,
) -> SubgraphMatch | None:
    """First subgraph embedding of the pattern into the host, or None.

    Subgraph means every pattern edge maps to a host edge; extra host edges
    between images are allowed.  Backtracking with degree pruning; pattern
    vertices are matched most-constrained-first and host candidates tried in
    id order, so the search meets the tuples of images in lexicographic
    order and its first match is the smallest one.

    Three cuts drop only searches that cannot succeed, so they leave that
    first match, mapping included, as it is:

    - Count filter: a host with fewer vertices of at least the pattern's
      minimum degree than the pattern has vertices holds no embedding, and
      None is returned before any node is counted.  Isolated vertices, such
      as those five_core peels, never count.
    - Support cut: for a complete pattern K_r, every host edge that lies in
      fewer than r - 2 triangles is removed, until none is left
      (:func:`_triangle_support_core`), and the count filter runs again on
      what is left.  Every edge of a K_r lies in r - 2 of its triangles, so
      no match loses an edge, and the search runs on the smaller host.
    - Clique symmetry break: for a complete pattern every image must have a
      higher host id than the one before it in the match order.  Any
      ordering of a clique's vertices is a match, so the smallest matching
      tuple is the sorted one, and only sorted tuples are searched.
    """
    if isinstance(pattern, str):
        name, pat = pattern, pattern_graph(pattern)
    else:
        name, pat = "custom", [set(a) for a in pattern]
    np_, nh = len(pat), len(host_adj)
    pat_deg = [len(a) for a in pat]
    host_deg = [len(a) for a in host_adj]
    min_deg = min(pat_deg, default=0)
    if sum(1 for d in host_deg if d >= min_deg) < np_:
        return None
    increasing = all(d == np_ - 1 for d in pat_deg)
    if increasing:
        host_adj = _triangle_support_core(host_adj, np_ - 2)
        host_deg = [len(a) for a in host_adj]
        if sum(1 for d in host_deg if d >= min_deg) < np_:
            return None
    budget = budget or Budget()
    # order: start at max degree, then most-mapped-neighbours first
    order: list[int] = []
    placed = [False] * np_
    for _ in range(np_):
        best, best_key = -1, None
        for v in range(np_):
            if placed[v]:
                continue
            mapped_nbrs = sum(1 for w in pat[v] if placed[w])
            key = (mapped_nbrs, pat_deg[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed[best] = True

    mapping = [-1] * np_
    used = [False] * nh

    def candidates(i: int):
        pv = order[i]
        low = mapping[order[i - 1]] if increasing and i else -1
        anchors = [w for w in pat[pv] if mapping[w] >= 0]
        if anchors:
            base = sorted(host_adj[mapping[anchors[0]]])
        else:
            base = range(nh)
        for hv in base:
            if hv <= low or used[hv] or host_deg[hv] < pat_deg[pv]:
                continue
            if all(mapping[w] in host_adj[hv] for w in pat[pv] if mapping[w] >= 0):
                yield hv

    def dfs(i: int) -> bool:
        if i == np_:
            return True
        budget.tick()
        pv = order[i]
        for hv in candidates(i):
            mapping[pv] = hv
            used[hv] = True
            if dfs(i + 1):
                return True
            mapping[pv] = -1
            used[hv] = False
        return False

    if dfs(0):
        return SubgraphMatch(name, tuple(mapping))
    return None


CRITICAL_PATTERNS = ("K6", "C3+C5", "H7+K2", "C11^3")


def five_core(adj: Sequence[set[int]]) -> list[set[int]]:
    """The 5-core of a graph, on the same vertex ids.

    Vertices of degree below 5 are peeled until none is left
    (:func:`solver.peel_order`); a peeled vertex keeps its id and gets an
    empty neighbour set.  Every pattern of the dispatch has minimum degree
    at least 5, so each of its embeddings lies in the 5-core.  find_subgraph tries host vertices in id order, so
    its first match on the core, mapping included, is its first match on
    the whole graph.  Its count filter counts only vertices of at least the
    pattern's minimum degree, so the peeled (now isolated) vertices do not
    let a pattern be searched on a core too small to hold it.
    """
    peeled = set(peel_order(adj, 5))
    return [set() if v in peeled else a - peeled for v, a in enumerate(adj)]


def dispatch_match(
    host_adj: Sequence[set[int]], budget: Budget | None = None
) -> SubgraphMatch:
    """K7 if the host contains it, else its one critical six-chromatic graph.

    Exactly one of the four critical graphs must match a six-chromatic torus
    graph; zero or several matches falsify the classification this package
    relies on and raise ClassificationAnomaly with the full evidence.
    """
    budget = budget or Budget()
    k7 = find_subgraph(host_adj, "K7", budget=budget)
    if k7 is not None:
        return k7
    matches = [
        m
        for p in CRITICAL_PATTERNS
        if (m := find_subgraph(host_adj, p, budget=budget)) is not None
    ]
    if len(matches) != 1:
        raise ClassificationAnomaly(
            f"expected exactly one critical subgraph, found "
            f"{[m.pattern for m in matches]}"
        )
    return matches[0]


def classify_six_chromatic(
    host_adj: Sequence[set[int]], budget: Budget | None = None
) -> SubgraphMatch:
    """Which of the four critical six-chromatic graphs is contained.

    As dispatch_match; a host containing K7 is not six-chromatic and is
    rejected as a precondition violation.
    """
    match = dispatch_match(host_adj, budget)
    if match.pattern == "K7":
        raise ValueError("host contains K7, so it is not six-chromatic")
    return match
