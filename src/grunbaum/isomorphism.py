"""Isomorphisms of embeddings (rotation-preserving vertex bijections).

An embedding isomorphism maps rotations to rotations either all in the same
cyclic direction (orientation-preserving) or all reversed.  The search is
rooted: once the image of one dart is chosen, rotation alignment propagates
the rest deterministically, so the cost per anchor is linear.
"""
from __future__ import annotations

from collections import deque
from typing import Iterator

from .embedding import Embedding


def _try_anchor(
    e1: Embedding, e2: Embedding, d1: int, d2: int, reverse: bool
) -> list[int] | None:
    vmap = [-1] * e1.num_vertices
    used = [False] * e2.num_vertices
    u1, v1 = e1.tail(d1), e1.head(d1)
    u2, v2 = e2.tail(d2), e2.head(d2)

    def assign(a: int, b: int) -> bool:
        if vmap[a] == -1:
            if used[b]:
                return False
            vmap[a] = b
            used[b] = True
            return True
        return vmap[a] == b

    if not (assign(u1, u2) and assign(v1, v2)):
        return None
    # queue of (vertex, one neighbour whose image is already aligned)
    queue = deque([(u1, v1), (v1, u1)])
    processed = [False] * e1.num_vertices
    while queue:
        v, anchor = queue.popleft()
        if processed[v]:
            continue
        processed[v] = True
        r1 = e1.rotation(v)
        r2 = e2.rotation(vmap[v])
        if len(r1) != len(r2):
            return None
        if reverse:
            r2 = tuple(reversed(r2))
        i1 = r1.index(anchor)
        try:
            i2 = r2.index(vmap[anchor])
        except ValueError:
            return None
        k = len(r1)
        for off in range(k):
            a, b = r1[(i1 + off) % k], r2[(i2 + off) % k]
            if not assign(a, b):
                return None
            if not processed[a]:
                queue.append((a, v))
    # the embedding is connected, so every vertex was processed, and each
    # processed rotation maps onto its image's up to a cyclic shift
    return vmap


def embedding_isomorphisms(e1: Embedding, e2: Embedding) -> Iterator[list[int]]:
    """Yield the vertex map of every rooted match, orientation-preserving
    maps first.  Each anchor dart pins another image of dart 0's ends, so
    no map is yielded twice for one orientation."""
    if (
        e1.num_vertices != e2.num_vertices
        or e1.num_edges != e2.num_edges
        or sorted(map(len, e1.rotations)) != sorted(map(len, e2.rotations))
    ):
        return
    for reverse in (False, True):
        for d2 in range(e2.num_darts):
            vmap = _try_anchor(e1, e2, 0, d2, reverse)
            if vmap is not None:
                yield vmap


def embeddings_isomorphic(e1: Embedding, e2: Embedding) -> bool:
    """True if some vertex bijection carries one rotation system to the other,
    up to global orientation reversal."""
    return next(embedding_isomorphisms(e1, e2), None) is not None
