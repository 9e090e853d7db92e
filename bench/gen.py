"""Seeded inputs for the solve benchmark, built on plain rotation lists.

Only the bases come from the package (its grid generator and its bundled
embeddings); every refinement, relabelling and filler disk is made here, so
that a change to the package's own refinement code leaves the workloads as
they are.
"""
from __future__ import annotations

from check import CheckError, faces


def partial_cone(rot, walk, a):
    """Add a vertex x inside the face with corner walk ``walk`` and join it
    to the first ``a`` corners (2 <= a <= len(walk)).

    Returns the new faces: the triangles (w_i, w_i+1, x) and, when a is
    less than the face size, the face left over, which keeps the remaining
    corners and x.
    """
    k = len(walk)
    x = len(rot)
    for i in range(a):
        r = rot[walk[i]]
        r.insert(r.index(walk[i - 1]) + 1, x)
    rot.append(list(reversed(walk[:a])))
    out = [[walk[i], walk[(i + 1) % k], x] for i in range(a - 1)]
    if a == k:
        out.append([walk[k - 1], walk[0], x])
    else:
        out.append(walk[a - 1:] + [walk[0], x])
    return out


def stellate(rot, rng, triangles, steps):
    """Stellate ``steps`` times, each time into a triangle drawn uniformly
    from ``triangles``; the three new triangles join the pool."""
    for _ in range(steps):
        i = rng.randrange(len(triangles))
        tri = triangles[i]
        triangles[i] = triangles[-1]
        triangles.pop()
        triangles.extend(partial_cone(rot, tri, 3))


def fill_face(rot, rng, walk, extra):
    """Triangulate a face of size 4 to 6 with a small chordless disk.

    No interior vertex sees every corner of a hexagon (a cone there would
    put a K7 in a K6 host).  ``extra`` further stellations go into the
    disk's own triangles.  Returns the disk's triangles.
    """
    k = len(walk)
    s = rng.randrange(k)
    walk = walk[s:] + walk[:s]
    if k == 6:
        arc = rng.choice((4, 5))
    else:
        arc = rng.choice((k - 1, k))
    done = []
    while True:
        new = partial_cone(rot, walk, arc)
        walk = new.pop()
        done.extend(new)
        if len(walk) == 3:
            done.append(walk)
            break
        arc = len(walk)
    stellate(rot, rng, done, extra)
    return done


def relabel(rot, rng, mirror):
    """Shuffle vertex ids, start every rotation at a random neighbour and,
    if ``mirror``, reverse every rotation (the mirror image)."""
    perm = list(range(len(rot)))
    rng.shuffle(perm)
    out = [None] * len(rot)
    for v, nbrs in enumerate(rot):
        r = [perm[w] for w in nbrs]
        if mirror:
            r.reverse()
        s = rng.randrange(len(r))
        out[perm[v]] = r[s:] + r[:s]
    return out


def rotations(emb):
    return [list(r) for r in emb.rotations]


def triangles_of(rot):
    fs = faces(rot)
    if any(len(f) != 3 for f in fs):
        raise CheckError("base is not a triangulation")
    return fs


def valid_grids(catalog, errors, sizes, keep=lambda r, c, t: True):
    """Every grid T(rows, cols, twist) with rows * cols in ``sizes`` that
    passes ``keep`` and that the package's grid generator accepts, in a
    fixed order, as ((rows, cols, twist), rotations) pairs."""
    out = []
    for n in sizes:
        for rows in range(1, n + 1):
            if n % rows:
                continue
            cols = n // rows
            for twist in range(cols):
                if not keep(rows, cols, twist):
                    continue
                try:
                    grid = catalog.gen_altshuler(rows, cols, twist)
                except errors.NotSimple:
                    continue
                out.append(((rows, cols, twist), rotations(grid.embedding)))
    return out


def three_colorable(rows, cols, twist):
    """(i + j) mod 3 properly colors T(rows, cols, twist) when it is
    consistent across both wraps."""
    return cols % 3 == 0 and (rows - twist) % 3 == 0


def check_grid_three_coloring(rot, cols):
    for v, nbrs in enumerate(rot):
        cv = (v // cols + v % cols) % 3
        if any((w // cols + w % cols) % 3 == cv for w in nbrs):
            raise CheckError("grid base is not 3-colored by (i + j) mod 3")
