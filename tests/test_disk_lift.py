"""Disks colored through the vertex lift agree with the edge backtracker.

``solve_disk`` (pinned boundaries) and ``apex_solve`` (free boundaries) color
a disk from a vertex 4-coloring of its graph, the first with the boundary
vertices pinned to their labels, the second with an apex over the boundary;
``solve_exact`` stays the brute-force oracle they are checked against.
"""
from itertools import product

import pytest

from grunbaum.catalog import (
    catalog_embedding,
    enumerate_disks,
    random_refinement,
    triangulate_faces,
)
from grunbaum.coloring import PartialColoring, verify_grunbaum, verify_partial
from grunbaum.embedding import cap_with_apex
from grunbaum.pipeline import (
    achievable_square_kinds,
    apex_solve,
    solve,
    solve_disk,
)
from grunbaum.solver import Budget, solve_exact


def _pinned_disks():
    """Every disk with a 4-, 5- or 6-edge boundary and at most two interior
    vertices, plus the square disks of acceptance criterion 4 (up to four)."""
    return [*enumerate_disks(4, 4), *enumerate_disks(5, 2), *enumerate_disks(6, 2)]


def test_solve_disk_agrees_with_the_edge_oracle():
    outcomes = set()
    for disk in _pinned_disks():
        emb = disk.embedding
        pos = tuple(d >> 1 for d in disk.boundary_darts)
        for rest in product(range(3), repeat=len(pos) - 1):
            pattern = (0, *rest)
            fixed = PartialColoring.from_dict(emb.num_edges, dict(zip(pos, pattern)))
            oracle = solve_exact(emb, fixed=fixed)
            got = solve_disk(disk, pos, pattern)
            assert (got is not None) == oracle.found, (pos, pattern)
            if got is not None:
                assert tuple(got[p] for p in pos) == pattern
                assert verify_partial(emb, got.as_partial()).ok
            outcomes.add(oracle.found)
    assert outcomes == {True, False}


def test_solve_disk_parity_costs_no_node():
    disk = next(iter(enumerate_disks(4, 1)))
    pos = tuple(d >> 1 for d in disk.boundary_darts)
    budget = Budget()
    assert solve_disk(disk, pos, (0, 0, 0, 1), budget) is None
    assert budget.used_nodes == 0


def test_solve_disk_pins_exactly_the_boundary():
    disk = next(d for d in enumerate_disks(4, 1) if d.interior_vertex_count())
    pos = tuple(d >> 1 for d in disk.boundary_darts)
    inner = next(e for e in range(disk.embedding.num_edges) if e not in pos)
    with pytest.raises(ValueError):
        solve_disk(disk, pos[:3], (0, 1, 0))
    with pytest.raises(ValueError):
        solve_disk(disk, (*pos, inner), (0, 1, 0, 1, 2))
    with pytest.raises(ValueError):  # a color with no edge
        solve_disk(disk, pos, (0, 1, 0, 1, 2))
    with pytest.raises(ValueError):  # an edge pinned twice
        solve_disk(disk, (*pos, pos[0]), (0, 1, 0, 1, 1))
    for colors in ((0, 1, 0, 3), (3, 3, 0, 0), (0, 1, None, 1), (-1, 0, 0, 1)):
        with pytest.raises(ValueError):  # a color outside 0, 1, 2
            solve_disk(disk, pos, colors)


def test_square_kinds_read_exactly_a_square_boundary():
    pent = enumerate_disks(5, 1)[-1]
    with pytest.raises(ValueError):
        achievable_square_kinds(pent, pent.boundary_edges)
    with pytest.raises(ValueError):
        achievable_square_kinds(pent, pent.boundary_edges[:4])
    disk = next(d for d in enumerate_disks(4, 1) if d.interior_vertex_count())
    pos = disk.boundary_edges
    with pytest.raises(ValueError):
        achievable_square_kinds(disk, (*pos, pos[0]))
    assert achievable_square_kinds(disk, pos)


@pytest.mark.parametrize("boundary", [3, 4, 5, 6])
def test_apex_solve_is_the_capped_sphere_solve(boundary):
    for disk in enumerate_disks(boundary, 3):
        ours, theirs = Budget(), Budget()
        got = apex_solve(disk.embedding, disk.as_region(), ours)
        capped = cap_with_apex(disk)
        sphere = solve(capped, theirs).coloring
        assert got.colors == tuple(sphere[capped.edge_id(u, v)]
                                   for u, v in disk.embedding.edges)
        assert ours.used_nodes == theirs.used_nodes


@pytest.mark.parametrize("name, method", [
    ("k6-444a", "CRITICAL(444A)"),
    ("k6-444b", "CRITICAL(444B)"),
    ("k6-54", "CRITICAL(54)"),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_disk_routes_scale_to_three_hundred_vertices(name, method, seed):
    # stellations land inside the filled disks too; the edge search ran out
    # of budget on hosts of this size
    host = random_refinement(triangulate_faces(catalog_embedding(name)), 290, seed=seed)
    assert host.num_vertices >= 290
    report = solve(host, Budget())
    assert report.found and report.method == method, report.trace
    assert verify_grunbaum(host, report.coloring).ok
