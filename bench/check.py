"""Checks that share no code with the package under test.

An input is a list of rotations: ``rot[v]`` lists v's neighbours in
counterclockwise order.  Faces are traced with the usual convention (the
face successor of the dart u -> v is the dart v -> w, where w follows u in
the rotation of v), which is all a coloring check needs.
"""
from __future__ import annotations

import json


class CheckError(Exception):
    """An input or an output failed an independent check."""


def edge_set(rot):
    """The edges {u, v} of a simple rotation system, as sorted pairs."""
    n = len(rot)
    nbr = [set(nbrs) for nbrs in rot]
    for u, nbrs in enumerate(rot):
        if len(nbr[u]) != len(nbrs):
            raise CheckError(f"vertex {u} lists a neighbour twice")
        for v in nbrs:
            if v == u or not 0 <= v < n:
                raise CheckError(f"vertex {u} lists bad neighbour {v}")
            if u not in nbr[v]:
                raise CheckError(f"edge {u}-{v} is listed one way only")
    return {(u, v) for u, nbrs in enumerate(rot) for v in nbrs if u < v}


def faces(rot):
    """Every face as its list of corners, walked counterclockwise."""
    pos = [{w: i for i, w in enumerate(nbrs)} for nbrs in rot]
    seen = set()
    out = []
    for u, nbrs in enumerate(rot):
        for v in nbrs:
            if (u, v) in seen:
                continue
            walk = []
            a, b = u, v
            while (a, b) not in seen:
                seen.add((a, b))
                walk.append(a)
                rb = rot[b]
                a, b = b, rb[(pos[b][a] + 1) % len(rb)]
            out.append(walk)
    return out


def genus_of(rot, fs=None):
    """Genus of the surface the rotation system embeds in (Euler count)."""
    fs = faces(rot) if fs is None else fs
    euler = len(rot) - len(edge_set(rot)) + len(fs)
    if euler > 2 or euler % 2:
        raise CheckError(f"impossible Euler characteristic {euler}")
    return (2 - euler) // 2


def check_triangulation(rot, genus):
    """Raise unless rot is a simple triangulation of the given genus."""
    fs = faces(rot)
    if any(len(f) != 3 for f in fs):
        raise CheckError("a face is not a triangle")
    got = genus_of(rot, fs)
    if got != genus:
        raise CheckError(f"genus {got}, expected {genus}")


def check_contains(rot, frame):
    """Raise unless the frame embedding sits in rot on its own vertex ids:
    every frame edge is a host edge and each frame vertex's rotation is its
    host rotation restricted to frame vertices, up to a cyclic shift."""
    keep = set(range(len(frame)))
    for v, nbrs in enumerate(frame):
        sub = [w for w in rot[v] if w in keep]
        if len(sub) != len(nbrs) or not any(
            sub[i:] + sub[:i] == list(nbrs) for i in range(len(sub))
        ):
            raise CheckError(f"frame rotation at vertex {v} is not kept")


def check_solution(rot, text):
    """Raise unless ``text`` (a solve report in JSON) is FOUND with a total
    edge 3-coloring in which every face sees three colors."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckError(f"report is not JSON: {exc}") from exc
    if doc.get("status") != "FOUND":
        raise CheckError(f"status {doc.get('status')}")
    edges = edge_set(rot)
    color = {}
    for triple in doc.get("coloring") or ():
        if not isinstance(triple, list) or len(triple) != 3:
            raise CheckError(f"coloring entry {triple!r} is not [u, v, color]")
        u, v, c = triple
        key = (min(u, v), max(u, v))
        if key not in edges:
            raise CheckError(f"colored pair {u}-{v} is not an edge")
        if key in color:
            raise CheckError(f"edge {u}-{v} is colored twice")
        if c not in (0, 1, 2):
            raise CheckError(f"edge {u}-{v} has color {c}")
        color[key] = c
    if len(color) != len(edges):
        raise CheckError(f"{len(edges) - len(color)} edges are not colored")
    for f in faces(rot):
        seen = {color[(min(a, b), max(a, b))] for a, b in zip(f, f[1:] + f[:1])}
        if len(seen) != 3:
            raise CheckError(f"face {f} sees colors {sorted(seen)}")
    return doc
