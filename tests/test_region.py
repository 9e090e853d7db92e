"""Pinned disks solved on the host agree with the same disks cut out.

The structural routes fill the region behind each frame triangle, and type
and fill each square region, on the host itself (``cycle_region`` and
``fill_region``).  For every such cycle of the toroidal corpus hosts, as
given, mirrored and relabelled, the disk cut out for the same cycle
(``extract_disk``), solved by ``solve_disk`` and typed by
``achievable_square_kinds``, must give the same colors, the same node
count and the same square kinds.
"""
import random

from corpus import toroidal_corpus
from grunbaum.catalog import labeling_cycles
from grunbaum.chroma import dispatch_match, five_core
from grunbaum.coloring import tait_lift
from grunbaum.embedding import (
    FaceCycle,
    build_embedding,
    cycle_region,
    extract_disk,
    trace_faces,
)
from grunbaum.pipeline import (
    achievable_square_kinds,
    fill_region,
    match_frame,
    region_square_kinds,
    solve,
    solve_disk,
)
from grunbaum.solver import Budget

STRUCTURAL = ("K7", "CRITICAL(444A)", "CRITICAL(444B)", "CRITICAL(54)", "CRITICAL(6)",
              "CRITICAL(H7K2)", "CRITICAL(C3C5)", "CRITICAL(C11CUBED)")


def _moves(host, seed):
    """The host, its mirror image, and the mirror with its ids shuffled."""
    mirror = build_embedding([r[::-1] for r in host.rotations])
    perm = list(range(host.num_vertices))
    random.Random(seed).shuffle(perm)
    rotations = [()] * host.num_vertices
    for v, nbrs in enumerate(mirror.rotations):
        rotations[perm[v]] = [perm[w] for w in nbrs]
    return host, mirror, build_embedding(rotations)


def _hosts():
    return [moved for i, inst in enumerate(toroidal_corpus())
            if inst.expected_method in STRUCTURAL
            for moved in _moves(inst.graph, i)]


def _cycles(host):
    """The frame's triangles and its pinned squares, as host cycles."""
    match = dispatch_match(five_core(host.adjacency()))
    frame = match_frame(host, match.pattern, match.mapping)
    triangles = [FaceCycle(face) for face in trace_faces(frame.cat_emb).faces
                 if len(face) == 3]
    labeling = labeling_cycles(frame.name) if frame.name.startswith("k6-") else {}
    squares = labeling.get("squares", [labeling["square"]] if "square" in labeling else [])
    return ([frame.host_cycle(host, c) for c in triangles],
            [frame.host_cycle(host, c) for c in squares])


def _disk(host, cycle):
    """The disk cut out for the cycle, and its edge ids in cycle order."""
    disk = extract_disk(host, cycle, None)
    back = {h: i for i, h in enumerate(disk.to_host)}
    return disk, tuple(disk.embedding.edge_id(back[host.tail(d)], back[host.head(d)])
                       for d in cycle.darts)


def _assert_same_fill(host, cycle, region, disk, positions, colors):
    out = dict(zip(cycle.edges, colors))
    ours, theirs = Budget(), Budget()
    vertex_colors = fill_region(host, region, out, ours)
    got = solve_disk(disk, positions, colors, theirs)
    assert ours.used_nodes == theirs.used_nodes
    assert (vertex_colors is None) == (got is None)
    if got is None:
        assert out == dict(zip(cycle.edges, colors))
        return
    assert tait_lift(disk.embedding, vertex_colors) == got
    to_host = disk.to_host
    assert out == {host.edge_id(to_host[u], to_host[v]): got[e]
                   for e, (u, v) in enumerate(disk.embedding.edges)}


def test_host_regions_agree_with_cut_out_disks():
    seen = {"triangles": 0, "squares": 0, "missing kind": 0}
    for host in _hosts():
        coloring = solve(host).coloring
        triangles, squares = _cycles(host)
        for cycle in triangles + squares:
            region = cycle_region(host, cycle)
            disk, positions = _disk(host, cycle)
            assert region.vertices == disk.to_host
            assert region.adjacency == disk.embedding.rotations
            colors = [coloring[e] for e in cycle.edges]
            for shift in (0, 1):
                _assert_same_fill(host, cycle, region, disk, positions,
                                  [(c + shift) % 3 for c in colors])
            seen["triangles" if len(colors) == 3 else "squares"] += 1
        for cycle in squares:
            region = cycle_region(host, cycle)
            disk, positions = _disk(host, cycle)
            ours, theirs = Budget(), Budget()
            kinds = region_square_kinds(host, region, cycle.edges, ours)
            assert kinds == achievable_square_kinds(disk, positions, theirs)
            assert ours.used_nodes == theirs.used_nodes
            for pattern in ((0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0), (0, 0, 0, 0),
                            (0, 1, 2, 0), (0, 0, 0, 1)):
                _assert_same_fill(host, cycle, region, disk, positions, pattern)
            seen["missing kind"] += len(kinds) < 4
    assert all(seen.values()), seen
