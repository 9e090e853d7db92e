"""Disks solved on the host agree with the same disks cut out.

The structural routes fill the region behind each frame triangle, type
and fill each square region, and color and Kempe-reduce the free pentagon,
hexagon and quadrilateral, all on the host itself (``cycle_region``,
``fill_region``, ``apex_solve`` and the ``reduce_*`` walks).  For every such
cycle of the toroidal corpus hosts, as given, mirrored and relabelled, the
disk cut out for the same cycle (``extract_disk``), solved as a region of
its own embedding, must give the same colors, the same node count, the same
square kinds and the same reductions.  A structural solve builds no
embedding beyond its frame's.
"""
import random

from corpus import toroidal_corpus
from grunbaum.catalog import labeling_cycles
from grunbaum.chroma import dispatch_match, five_core
from grunbaum.coloring import tait_lift
from grunbaum.embedding import (
    Embedding,
    FaceCycle,
    build_embedding,
    cycle_region,
    extract_disk,
    trace_faces,
)
from grunbaum.errors import NoTableEntry
from grunbaum.pipeline import (
    achievable_square_kinds,
    apex_solve,
    fill_region,
    match_frame,
    reduce_hexagon_disk,
    reduce_pentagon_disk,
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


# the frame -> its free disk's labeling cycle
FREE = {"k6-54": "pentagon", "k6-6": "hexagon", "h7k2": "quad", "c3c5": "quad"}


def _frame(host):
    match = dispatch_match(five_core(host.adjacency()))
    return match_frame(host, match.pattern, match.mapping)


def _cycles(host):
    """The frame's triangles and its pinned squares, as host cycles."""
    frame = _frame(host)
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
    assert out == _on_host(host, disk, got)


def _on_host(host, disk, coloring):
    """A coloring of the cut-out disk's edges, carried to host edge ids."""
    to_host = disk.to_host
    return {host.edge_id(to_host[u], to_host[v]): coloring[e]
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


def _reduced(reduce, *args):
    """A reduction's outcome, or the message of the NoTableEntry it raised."""
    try:
        return reduce(*args)
    except NoTableEntry as exc:
        return str(exc)


def test_free_disks_agree_with_cut_out_disks():
    seen = {"pentagon": 0, "hexagon": 0, "quad": 0, "steps": 0}
    for host in _hosts():
        frame = _frame(host)
        shape = FREE.get(frame.name)
        if shape is None:
            continue
        cycle = frame.host_cycle(host, labeling_cycles(frame.name)[shape])
        region = cycle_region(host, cycle)
        disk, positions = _disk(host, cycle)
        ours, theirs = Budget(), Budget()
        got = apex_solve(host, region, ours)
        want = apex_solve(disk.embedding, disk.as_region(), theirs)
        assert ours.used_nodes == theirs.used_nodes
        assert got.colored_edges == region.edges
        assert {e: got[e] for e in region.edges} == _on_host(host, disk, want)
        seen[shape] += 1
        if shape == "pentagon":
            runs = [(reduce_pentagon_disk, (t,)) for t in (1, 2, 3)]
        elif shape == "hexagon":
            runs = [(reduce_hexagon_disk, ())]
        else:
            runs = []
        for reduce, extra in runs:
            on_host = _reduced(reduce, host, region, cycle.edges, got, *extra)
            cut_out = _reduced(reduce, disk.embedding, disk.as_region(), positions, want,
                               *extra)
            if isinstance(cut_out, str):
                assert on_host == cut_out
                continue
            colors, reading, steps = on_host
            assert (reading, steps) == cut_out[1:]
            assert {e: colors[e] for e in region.edges} == _on_host(host, disk, cut_out[0])
            seen["steps"] += len(steps)
    assert all(seen.values()), seen


def test_structural_solve_builds_only_the_frame_embedding(monkeypatch):
    # match_frame's sub-embedding is the one; every disk is read off the host
    hosts = _hosts()
    built = []
    init = Embedding.__init__

    def counted(self, rotations):
        built.append(rotations)
        init(self, rotations)

    monkeypatch.setattr(Embedding, "__init__", counted)
    for host in hosts:
        built.clear()
        report = solve(host)
        assert report.method in STRUCTURAL
        assert len(built) == 1, report.method
