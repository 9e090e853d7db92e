"""Disks solved on the host agree with the same disks cut out.

The structural route fills the region behind every frame face on the host
itself (``cycle_region``, ``fill_region``), and the paper's case analysis
(``paper_cases``) types the square regions and colors and Kempe-reduces the
free pentagon, hexagon and quadrilateral there too (``apex_solve`` and the
``reduce_*`` walks).  For every such cycle of the toroidal corpus hosts, as
given, mirrored and relabelled, the disk cut out for the same cycle
(``extract_disk``), solved as a region of its own embedding, must give the
same colors, the same node count, the same square kinds and the same
reductions.  A structural solve builds no embedding beyond its frame's, and
the case analysis's entry lies in a class that fits every disk.
"""
import random
from collections import Counter

from corpus import toroidal_corpus, torus_census
from grunbaum.catalog import frame_classes, labeling_cycles
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
    region_square_kinds,
    solve,
    solve_disk,
)
from grunbaum.solver import Budget
from paper_cases import (
    case_coloring,
    class_key,
    fills_every_disk,
    frame_of,
    host_cycle,
    reduce_hexagon_disk,
    reduce_pentagon_disk,
)

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


def _cycles(host):
    """The frame's triangles and its pinned squares, as host cycles."""
    frame = frame_of(host)
    triangles = [FaceCycle(face) for face in trace_faces(frame.cat_emb).faces
                 if len(face) == 3]
    labeling = labeling_cycles(frame.name) if frame.name.startswith("k6-") else {}
    squares = labeling.get("squares", [labeling["square"]] if "square" in labeling else [])
    return ([host_cycle(host, frame, c) for c in triangles],
            [host_cycle(host, frame, c) for c in squares])


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
        frame = frame_of(host)
        shape = FREE.get(frame.name)
        if shape is None:
            continue
        cycle = host_cycle(host, frame, labeling_cycles(frame.name)[shape])
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


def test_case_table_entries_lie_in_classes_that_fit():
    # the paper's case analysis picks a frame coloring from the disks; the
    # class that holds it fits every disk, and the solve takes the first
    # class that fits, which comes no later.  K7's and C11^3's frames have
    # only triangles, and no table.
    tabled = [m for m in STRUCTURAL if m not in ("K7", "CRITICAL(C11CUBED)")]
    hosts = [inst.graph for inst in toroidal_corpus() if inst.expected_method in tabled]
    hosts += [host for n in (7, 8, 9) for host in torus_census(n)]
    seen = Counter()
    for host in hosts:
        report = solve(host)
        if report.method not in tabled:
            continue
        frame = frame_of(host)
        classes = frame_classes(frame.name)
        keys = [class_key(frame.cat_emb, c) for c in classes]
        entry, _ = case_coloring(host, frame)
        index = keys.index(class_key(frame.cat_emb, entry))
        assert fills_every_disk(host, frame, classes[index])
        name, _, probe = report.trace[-1].partition(" class ")
        probed = int(probe.split()[0])
        assert name == frame.name and probed <= index
        assert fills_every_disk(host, frame, classes[probed])
        assert not any(fills_every_disk(host, frame, c) for c in classes[:probed])
        seen[frame.name, probed > 0] += 1
    assert {name for name, _ in seen} == {"k6-444a", "k6-444b", "k6-54", "k6-6",
                                          "h7k2", "c3c5"}
    assert sum(count for (_, late), count in seen.items() if late) > 10, seen
