"""Search engines: DSATUR vertex coloring, and exact edge-coloring backtracking.

:func:`color_vertices_k` is the package's one search: it colors vertices,
and through the triangle graph (:func:`color_faces`) edges.  It searches
only the graph's k-core: the vertices outside it (:func:`peel_order`) always
find a free color once the core is colored, in reverse peel order, so the
search stays exhaustive while its cost follows the core, not the graph; on
a stellated sphere that core is the base.  Pins (vertex -> color) fix
colors before the search, as a disk's boundary labels or ``--fixed`` edges
do; the colors above the highest pin stay interchangeable, so cutting their
symmetry keeps the search exhaustive.  Its node count is one tick per
search node plus one per peeled vertex; a pinned vertex costs none.  A node
costs time in the uncolored core neighbours of the vertex it colors, not in
the graph or in k: each uncolored core vertex keeps one bitmask of its
neighbours' colors, and undo follows a per-frame trail.

The backtracker in :func:`solve_exact` is the brute-force oracle the tests
and tools check everything else against, so it stays deliberately simple:
static edge order (faces in breadth-first order over the dual from face 0,
edge ids inside a face), forced-move propagation on triangles, node/time
budgets.
"""
from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, nlargest
from typing import Iterable, Iterator, Mapping, Sequence

from .coloring import COLORS, EdgeColoring, PartialColoring
from .embedding import Embedding, dual_graph, trace_faces
from .errors import BudgetExceeded

FOUND = "FOUND"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_TIME_BUDGET = 30.0


@dataclass
class Budget:
    """Node and wall-clock limits shared by one solve.

    Every sub-search of a solve ticks the same budget, so ``used_nodes``
    counts the whole solve and one clock caps it.
    """

    nodes: int = DEFAULT_NODE_BUDGET
    seconds: float = DEFAULT_TIME_BUDGET
    used_nodes: int = 0
    started: float = field(default_factory=time.monotonic)

    def __post_init__(self):
        if self.nodes < 0:
            raise ValueError(f"node budget must not be negative, not {self.nodes}")

    def tick(self):
        if self.used_nodes >= self.nodes:
            raise BudgetExceeded(f"node budget {self.nodes} exhausted")
        self.used_nodes += 1
        if self.used_nodes % 1024 == 0 and time.monotonic() - self.started > self.seconds:
            raise BudgetExceeded(f"time budget {self.seconds}s exhausted")


@dataclass
class SolveReport:
    """Outcome of one solve: status, optional coloring, and a method trace."""

    status: str
    coloring: EdgeColoring | None = None
    method: str = "EXACT"
    trace: tuple[str, ...] = ()
    nodes: int = 0
    millis: float = 0.0

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def to_json(self, emb: Embedding | None = None) -> str:
        doc: dict = {
            "status": self.status,
            "method": self.method,
            "trace": list(self.trace),
            "stats": {"nodes": self.nodes, "millis": round(self.millis, 3)},
        }
        if self.coloring is not None and emb is not None:
            doc["coloring"] = [
                [u, v, c] for (u, v), c in zip(emb.edges, self.coloring.colors, strict=True)
            ]
        return json.dumps(doc)


def _edge_order(emb: Embedding) -> tuple[list[int], list[list[int]]]:
    """Static branching order plus, per edge, the constrained triangles on it."""
    fs = trace_faces(emb)
    dual = dual_graph(emb)
    active = [f for f in range(fs.num_faces) if fs.size(f) == 3]
    # BFS over the dual from face 0
    order_faces: list[int] = []
    seen = {0} if fs.num_faces else set()
    queue = deque(seen)
    while queue:
        f = queue.popleft()
        order_faces.append(f)
        for g, _ in sorted(dual.adjacency[f], key=lambda t: t[1]):
            if g not in seen:
                seen.add(g)
                queue.append(g)

    edge_order: list[int] = []
    placed = set()
    for f in order_faces:
        for e in sorted(fs.face_edges(f)):
            if e not in placed:
                placed.add(e)
                edge_order.append(e)
    for e in range(emb.num_edges):
        if e not in placed:
            edge_order.append(e)

    faces_of_edge: list[list[int]] = [[] for _ in range(emb.num_edges)]
    for f in active:
        for e in fs.face_edges(f):
            faces_of_edge[e].append(f)
    return edge_order, faces_of_edge


def solve_exact(
    emb: Embedding,
    fixed: PartialColoring | None = None,
    mode: str = "find",
    budget: Budget | None = None,
):
    """Exhaustive backtracking over edge colors.

    Only triangular faces are constrained, which is exactly the
    partial-coloring rule: an embedding with larger faces, such as a disk
    with a boundary of four or more edges, constrains just its triangles.

    mode "find" returns a SolveReport; "count" returns the number of total
    colorings; "enumerate" returns an iterator of EdgeColoring.
    """
    if mode not in ("find", "count", "enumerate"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = budget or Budget()
    fs = trace_faces(emb)
    ne = emb.num_edges
    fixed = fixed or PartialColoring.empty(ne)
    if len(fixed) != ne:
        raise ValueError("fixed coloring has wrong edge count")

    edge_order, faces_of_edge = _edge_order(emb)
    face_edges = {f: tuple(fs.face_edges(f)) for f in range(fs.num_faces)}
    colors: list[int | None] = list(fixed.colors)

    def propagate(e: int, trail: list[int]) -> bool:
        """Forced moves: a triangle with two colored edges forces the third."""
        stack = [e]
        while stack:
            cur = stack.pop()
            for f in faces_of_edge[cur]:
                es = face_edges[f]
                cs = [colors[x] for x in es]
                known = [c for c in cs if c is not None]
                if len(set(known)) != len(known):
                    return False
                if len(known) == 2:
                    missing = (0 + 1 + 2) - sum(known)  # type: ignore[arg-type]
                    idx = cs.index(None)
                    target = es[idx]
                    colors[target] = missing
                    trail.append(target)
                    stack.append(target)
        return True

    def search() -> Iterator[EdgeColoring]:
        pos = 0
        n_order = len(edge_order)
        stack: list[tuple[int, list[int], Iterator[int]]] = []

        def next_unassigned(p: int) -> int:
            while p < n_order and colors[edge_order[p]] is not None:
                p += 1
            return p

        # seed trail: propagate all fixed edges once; fixed colors that
        # already clash on a triangle end the search here, before any node
        seed_trail: list[int] = []
        for e in range(ne):
            if colors[e] is not None:
                if not propagate(e, seed_trail):
                    return
        pos = next_unassigned(0)
        if pos >= n_order:
            yield EdgeColoring(tuple(colors))  # type: ignore[arg-type]
            return
        stack.append((edge_order[pos], [], iter(COLORS)))
        while stack:
            e, trail, options = stack[-1]
            for t in trail:
                colors[t] = None
            trail.clear()
            chosen = None
            for c in options:
                budget.tick()
                colors[e] = c
                trail.append(e)
                if propagate(e, trail):
                    chosen = c
                    break
                for t in trail:
                    colors[t] = None
                trail.clear()
            if chosen is None:
                stack.pop()
                continue
            p2 = next_unassigned(0)
            if p2 >= n_order:
                yield EdgeColoring(tuple(colors))  # type: ignore[arg-type]
                # keep trail for undo, try next option of this frame
                continue
            stack.append((edge_order[p2], [], iter(COLORS)))
        return

    if mode == "enumerate":
        return search()
    t0 = time.monotonic()
    if mode == "count":
        n = 0
        for _ in search():
            n += 1
        return n
    try:
        for sol in search():
            report = SolveReport(
                FOUND,
                sol,
                nodes=budget.used_nodes,
                millis=1000 * (time.monotonic() - t0),
            )
            return report
        return SolveReport(
            UNSAT, nodes=budget.used_nodes, millis=1000 * (time.monotonic() - t0)
        )
    except BudgetExceeded as exc:
        return SolveReport(
            UNKNOWN,
            trace=(str(exc),),
            nodes=budget.used_nodes,
            millis=1000 * (time.monotonic() - t0),
        )


def count_grunbaum_colorings(emb: Embedding, budget: Budget | None = None) -> int:
    return solve_exact(emb, mode="count", budget=budget)  # type: ignore[return-value]


# -- vertex coloring --------------------------------------------------------------


def _greedy_clique(adj: Sequence[set[int]], k: int | None = None) -> list[int]:
    """Greedy clique seeded at the highest-degree vertex; lower bound only.

    Up to eight starts, from the highest degrees down, keeping the largest.
    With ``k``, the first start that reaches k vertices is returned, grown
    to k + 1 at most: a k-coloring can pin only k of them, and more than k
    refute it.
    """
    deg = [len(a) for a in adj]
    cap = len(adj) if k is None else k + 1
    best: list[int] = []
    for start in nlargest(8, range(len(adj)), key=deg.__getitem__):  # ties to lower ids
        clique = [start]
        cands = set(adj[start])
        while cands and len(clique) < cap:
            v = max(cands, key=lambda x: (len(adj[x] & cands), -x))
            clique.append(v)
            cands &= adj[v]
        if len(clique) > len(best):
            best = clique
        if k is not None and len(best) >= k:
            break
    return best


def peel_order(adj: Sequence[set[int]], k: int, keep: Iterable[int] = ()) -> list[int]:
    """The vertices outside the k-core, in the order they are peeled.

    Vertices with fewer than k neighbours left go, except those of ``keep``,
    until none is left; what stays is the k-core, with ``keep`` held in it.
    Each peeled vertex has fewer than k neighbours among the vertices peeled
    after it and those that stay, so coloring those first always leaves it a
    free color: in reverse peel order, any k-coloring of the core extends to
    the whole graph (Matula & Beck 1983).  One pass over degree counters.
    """
    deg = [len(a) for a in adj]
    out = bytearray(len(adj))  # 1 once peeled, queued or kept
    for v in keep:
        out[v] = 1
    stack = [v for v, d in enumerate(deg) if d < k and not out[v]]
    for v in stack:
        out[v] = 1
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            deg[w] -= 1
            if deg[w] < k and not out[w]:
                out[w] = 1
                stack.append(w)
    return order


def color_vertices_k(
    adj: Sequence[set[int]],
    k: int,
    budget: Budget | None = None,
    pins: Mapping[int, int] | None = None,
) -> list[int] | None:
    """Proper k-coloring by DSATUR-ordered backtracking, or None if impossible.

    Exhaustive: a None return is a proof that no k-coloring exists (within
    budget; BudgetExceeded propagates).  Each vertex v of ``pins`` keeps the
    color ``pins[v]``: pinned vertices are colored before the search, are
    never peeled and cost no node.  A pin outside 0..k-1, or two adjacent
    pins of one color, returns None at once.

    The search runs on the k-core only.  First every unpinned vertex outside
    it is peeled (:func:`peel_order`).  Once the core is colored, each
    peeled vertex, in reverse peel order, takes the least color its
    neighbours do not use; it has fewer than k colored neighbours, so one is
    free.  Hence, with the pins fixed, the graph is k-colorable exactly when
    its core is, and None is still a proof.  A stellated triangulation peels
    back to its base.

    Color symmetry is cut by trying no color above one past the highest in
    use: the colors above it are unused, so interchangeable, and none is
    lost.  With pins, the bound starts at the highest pinned color.  Without
    them, a greedy clique taken on the whole graph has its core vertices
    pre-colored 0, 1, ... (one taken on the core alone made the refutations
    of stellated five-chromatic grids longer); a clique of more than k
    returns None at once, before any node.

    Each search node takes the uncolored core vertex with the most distinct
    colors among its neighbors (saturation), ties to the higher degree in
    the whole graph, then the lower id, and tries the colors no neighbor
    uses in increasing order, up to the symmetry bound.  The budget ticks
    once per search node and once per peeled vertex.  The search is
    iterative, over an explicit stack of (vertex, next color) frames, so no
    input size meets the recursion limit.

    A node costs O(d log V), d the vertex's uncolored core neighbours.  Each
    uncolored core vertex keeps one bitmask of its neighbours' colors, and
    coloring a vertex sets its color's bit only in the uncolored neighbours
    that lack it.  Those neighbours are the frame's trail: the top frame is
    always the vertex colored last, so undo is last in, first out, and
    clears exactly those bits.  A heap with lazy deletion yields the next
    vertex.
    """
    n = len(adj)
    budget = budget or Budget()
    pins = pins or {}
    if any(not 0 <= c < k or any(pins.get(w) == c for w in adj[v])
           for v, c in pins.items()):
        return None
    clique = [] if pins else _greedy_clique(adj, k)
    if len(clique) > k:
        return None
    peeled = peel_order(adj, k, pins)

    # a peeled vertex holds color k, no color at all, until the core is
    # colored: it is never searched and blocks no color
    colors = [-1] * n
    for v in peeled:
        colors[v] = k
    # without pins, the greedy clique's core vertices are pinned to 0, 1, ...
    pins = pins or dict(zip((v for v in clique if colors[v] < 0), range(k)))
    for v, c in pins.items():
        colors[v] = c
    # per uncolored core vertex: the colors its neighbours use, as a mask
    # and their number, its degree negated, and its uncolored neighbours,
    # the only vertices that are ever uncolored
    free = [v for v in range(n) if colors[v] < 0]
    mask = [0] * n
    sat = [0] * n
    negdeg = [0] * n
    nbrs: list[list[int]] = [[]] * n
    for v, c in pins.items():
        for w in adj[v]:
            if colors[w] < 0:
                mask[w] |= 1 << c
    for v in free:
        sat[v] = mask[v].bit_count()
        negdeg[v] = -len(adj[v])
        nbrs[v] = [w for w in adj[v] if colors[w] < 0]
    # (-sat, -degree, id); an entry is live while its vertex is uncolored
    # and its saturation is current, so stale entries are skipped at the top
    heap = [(-sat[v], negdeg[v], v) for v in free]
    heapify(heap)

    # frames [vertex, next color to try, color bound, highest color in use
    # before the vertex was colored, trail]
    stack: list[list] = []
    highest = max(pins.values(), default=-1)
    while True:
        budget.tick()
        while heap and (colors[heap[0][2]] >= 0 or -heap[0][0] != sat[heap[0][2]]):
            heappop(heap)
        if not heap:
            break
        v = heap[0][2]
        if sat[v] < k:
            stack.append([v, 0, min(k, highest + 2), highest, []])
        # color the top frame's vertex with its next free color, dropping
        # frames whose colors are used up
        while stack:
            frame = stack[-1]
            v, c, bound, below, trail = frame
            if trail:  # take v's last color back from the neighbours it reached
                bit = 1 << colors[v]
                for w in trail:
                    mask[w] ^= bit
                    sat[w] -= 1
                    heappush(heap, (-sat[w], negdeg[w], w))
                trail.clear()
            m = mask[v]
            while c < bound and m >> c & 1:
                c += 1
            if c < bound:
                frame[1] = c + 1
                colors[v] = c
                bit = 1 << c
                for w in nbrs[v]:
                    if colors[w] < 0 and not mask[w] & bit:
                        mask[w] |= bit
                        sat[w] += 1
                        heappush(heap, (-sat[w], negdeg[w], w))
                        trail.append(w)
                highest = max(below, c)
                break
            stack.pop()
            colors[v] = -1
            heappush(heap, (-sat[v], negdeg[v], v))
            highest = below
        else:
            return None

    for v in reversed(peeled):
        budget.tick()
        used = {colors[w] for w in adj[v]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def four_color_vertices(
    adj: Sequence[set[int]], budget: Budget | None = None
) -> list[int] | None:
    """Proper coloring with at most four colors, or None when the chromatic
    number exceeds four (always succeeds on planar graphs)."""
    return color_vertices_k(adj, 4, budget=budget)


def color_faces(emb: Embedding, budget: Budget | None = None,
                pins: Mapping[int, int] | None = None) -> EdgeColoring | None:
    """Edge coloring in which every triangular face sees three colors and
    each edge e of ``pins`` has color ``pins[e]``, or None if there is none.

    Such a coloring is a proper 3-coloring of the triangle graph: one vertex
    per edge, two joined when their edges bound a common triangular face
    (only triangles constrain, as in :func:`solve_exact`).  The search is
    exhaustive; an exhausted budget raises BudgetExceeded.
    """
    adj: list[set[int]] = [set() for _ in range(emb.num_edges)]
    for face in trace_faces(emb).faces:
        if len(face) == 3:
            edges = {d >> 1 for d in face}
            for e in edges:
                adj[e] |= edges - {e}
    colors = color_vertices_k(adj, 3, budget, pins)
    return None if colors is None else EdgeColoring(tuple(colors))
