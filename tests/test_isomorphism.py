"""Rooted embedding isomorphisms against the search with a final re-check.

``_try_anchor`` once confirmed every rotation again after the breadth-first
alignment.  An embedding is connected, so the alignment processes every
vertex and already checks its whole rotation; the copy below keeps the
re-check, and both must yield the same maps.
"""
import random
from collections import deque

from corpus import toroidal_corpus
from grunbaum import isomorphism
from grunbaum.catalog import catalog_embedding
from grunbaum.embedding import Embedding
from grunbaum.isomorphism import embedding_isomorphisms

FRAMES = ("c3c5", "h7k2", "k6-444a", "k6-444b", "k6-54", "k6-6", "k7")


def _try_anchor_rechecked(e1, e2, d1, d2, reverse):
    vmap = [-1] * e1.num_vertices
    used = [False] * e2.num_vertices
    u1, v1 = e1.tail(d1), e1.head(d1)
    u2, v2 = e2.tail(d2), e2.head(d2)

    def assign(a, b):
        if vmap[a] == -1:
            if used[b]:
                return False
            vmap[a] = b
            used[b] = True
            return True
        return vmap[a] == b

    if not (assign(u1, u2) and assign(v1, v2)):
        return None
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
    if -1 in vmap:
        return None
    for v in range(e1.num_vertices):
        r1 = [vmap[w] for w in e1.rotation(v)]
        r2 = list(e2.rotation(vmap[v]))
        if reverse:
            r2.reverse()
        k = len(r2)
        if len(r1) != k or not any(r1 == r2[i:] + r2[:i] for i in range(k)):
            return None
    return vmap


def _relabelled_mirror(emb: Embedding, rng: random.Random) -> Embedding:
    perm = list(range(emb.num_vertices))
    rng.shuffle(perm)
    inv = {p: v for v, p in enumerate(perm)}
    return Embedding([[perm[w] for w in reversed(emb.rotation(inv[v]))]
                      for v in range(emb.num_vertices)])


def test_isomorphisms_match_the_rechecked_search(monkeypatch):
    rng = random.Random(5)
    hosts = [inst.graph for inst in toroidal_corpus()]
    hosts += [catalog_embedding(name) for name in FRAMES]
    pairs = []
    for i, emb in enumerate(hosts):
        pairs += [(emb, emb), (emb, _relabelled_mirror(emb, rng)),
                  (emb, hosts[(i + 1) % len(hosts)])]
    found = [list(embedding_isomorphisms(a, b)) for a, b in pairs]
    monkeypatch.setattr(isomorphism, "_try_anchor", _try_anchor_rechecked)
    assert found == [list(embedding_isomorphisms(a, b)) for a, b in pairs]
    assert all(found[3 * i] and found[3 * i + 1] for i in range(len(hosts)))
