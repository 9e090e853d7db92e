import pytest

from grunbaum.catalog import gen_k6, random_refinement
from grunbaum.embedding import (
    Embedding,
    FaceCycle,
    build_embedding,
    cap_with_apex,
    cone_face,
    dual_graph,
    extract_disk,
    genus,
    is_separating,
    is_triangulation,
    splice_disk,
    stellate_face,
    trace_faces,
)
from grunbaum.errors import (
    AsymmetricAdjacency,
    Disconnected,
    FaceNotTriangle,
    LoopEdge,
    NotACycle,
    ParallelEdge,
    SideNotADisk,
)

OCT = [[1, 5, 4, 2], [0, 2, 3, 5], [0, 4, 3, 1], [1, 2, 4, 5], [0, 5, 3, 2], [0, 1, 3, 4]]
K7 = [[(i + d) % 7 for d in (1, 3, 2, 6, 4, 5)] for i in range(7)]
K4 = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]


def test_build_octahedron_counts():
    emb = build_embedding(OCT)
    assert emb.num_vertices == 6
    assert emb.num_edges == 12


def test_build_k7_counts_any_rotation():
    # even a non-canonical cyclic rotation is a valid embedding of K7
    emb = build_embedding([[(i + d) % 7 for d in range(1, 7)] for i in range(7)])
    assert emb.num_vertices == 7
    assert emb.num_edges == 21


def test_build_rejects_asymmetric():
    # vertex 0 lists 3, but 3 lists only 2
    with pytest.raises(AsymmetricAdjacency):
        build_embedding([[1, 3], [0], [3], [2]])


def test_build_rejects_loop_parallel_disconnected():
    with pytest.raises(LoopEdge):
        build_embedding([[0, 1], [0]])
    with pytest.raises(ParallelEdge):
        build_embedding([[1, 1], [0, 0]])
    with pytest.raises(Disconnected):
        build_embedding([[1], [0], [3], [2]])


def test_dart_involution():
    emb = build_embedding(OCT)
    for d in range(emb.num_darts):
        assert emb.twin(emb.twin(d)) == d
        assert emb.twin(d) != d


def test_trace_faces_octahedron():
    emb = build_embedding(OCT)
    fs = trace_faces(emb)
    assert fs.census() == (3,) * 8
    assert sorted(fs.face_of) == sorted(list(range(8)) * 3)
    assert sum(fs.sizes) == emb.num_darts


def test_trace_faces_deterministic_min_dart():
    emb = build_embedding(OCT)
    fs = trace_faces(emb)
    starts = [f[0] for f in fs.faces]
    assert starts == sorted(starts)
    for face in fs.faces:
        assert face[0] == min(face)


def test_k6_54_face_census():
    fs = trace_faces(gen_k6("54"))
    assert fs.census() == (5, 4, 3, 3, 3, 3, 3, 3, 3)


def test_k7_canonical_is_toroidal_triangulation():
    emb = build_embedding(K7)
    fs = trace_faces(emb)
    assert fs.num_faces == 14
    assert all(s == 3 for s in fs.sizes)
    assert genus(emb) == 1


def test_genus_octahedron_and_444a():
    assert genus(build_embedding(OCT)) == 0
    e = gen_k6("444A")
    fs = trace_faces(e)
    assert genus(e) == 1
    assert fs.num_faces == 9
    assert fs.census() == (4, 4, 4, 3, 3, 3, 3, 3, 3)


def test_is_triangulation():
    assert is_triangulation(build_embedding(OCT))
    assert not is_triangulation(gen_k6("6"))


def test_dual_graph_shapes():
    k7 = build_embedding(K7)
    d = dual_graph(k7)
    assert d.num_nodes == 14
    assert d.is_cubic()

    oct_dual = dual_graph(build_embedding(OCT))
    assert oct_dual.num_nodes == 8
    assert all(oct_dual.degree(f) == 3 for f in range(8))

    d54 = dual_graph(gen_k6("54"))
    assert sorted(d54.degree(f) for f in range(d54.num_nodes)) == [3] * 7 + [4, 5]


def test_face_cycle_validation():
    emb = build_embedding(OCT)
    with pytest.raises(NotACycle):
        FaceCycle.from_vertices(emb, [0, 1])
    with pytest.raises(NotACycle):  # walks edge 1-4 twice
        FaceCycle.from_vertices(emb, [1, 4, 1, 4])
    with pytest.raises(NotACycle):  # 0-3 is not an edge of the octahedron
        FaceCycle.from_vertices(emb, [0, 3, 1])
    assert FaceCycle.from_vertices(emb, [0, 1, 2]).length == 3


def test_facial_triangle_separates_with_empty_side():
    emb = build_embedding(OCT)
    fs = trace_faces(emb)
    cyc = FaceCycle.from_darts(emb, fs.faces[0])
    rep = is_separating(emb, cyc)
    assert rep.separating
    assert rep.has_empty_side


def test_capped_square_separates():
    # square with both sides coned: a sphere with a marked separating square
    square = Embedding([[1, 3], [0, 2], [1, 3], [2, 0]])
    fs = trace_faces(square)
    emb = cone_face(square, 0)
    emb = cone_face(emb, [f for f in range(trace_faces(emb).num_faces)
                          if trace_faces(emb).size(f) == 4][0])
    cyc = FaceCycle.from_vertices(emb, [0, 1, 2, 3])
    rep = is_separating(emb, cyc)
    assert rep.separating
    assert not rep.has_empty_side
    assert genus(emb) == 0 and is_triangulation(emb)


def test_noncontractible_cycle_is_not_separating():
    from grunbaum.catalog import gen_altshuler

    grid = gen_altshuler(3, 3, 0).embedding
    # a horizontal row of the grid wraps around the torus
    cyc = FaceCycle.from_vertices(grid, [0, 1, 2])
    rep = is_separating(grid, cyc)
    assert not rep.separating


def test_extract_disk_and_cap():
    base = build_embedding(K7)
    refined = stellate_face(base, 0)
    base_faces = trace_faces(base)
    # the stellated face of K7, cut out of the refinement, is a disk with
    # one interior vertex
    darts = [refined.dart(base.tail(d), base.head(d)) for d in base_faces.faces[0]]
    disk = extract_disk(refined, FaceCycle.from_darts(refined, darts), "interior")
    assert disk.interior_vertex_count() == 1
    capped = cap_with_apex(disk)
    assert genus(capped) == 0
    assert is_triangulation(capped)


def test_extract_disk_empty_side_is_face():
    emb = build_embedding(OCT)
    fs = trace_faces(emb)
    cyc = FaceCycle.from_darts(emb, fs.faces[0])
    disk = extract_disk(emb, cyc, "interior")
    assert disk.interior_vertex_count() == 0
    assert disk.embedding.num_edges == 3


def test_extract_disk_rejects_noncycle_side():
    from grunbaum.catalog import gen_altshuler

    grid = gen_altshuler(3, 3, 0).embedding
    cyc = FaceCycle.from_vertices(grid, [0, 1, 2])
    with pytest.raises(SideNotADisk):
        extract_disk(grid, cyc, "interior")


def test_cap_single_triangle_gives_k4():
    emb = build_embedding(OCT)
    fs = trace_faces(emb)
    disk = extract_disk(emb, FaceCycle.from_darts(emb, fs.faces[0]), "interior")
    capped = cap_with_apex(disk)
    assert capped.num_vertices == 4
    assert capped.num_edges == 6
    assert is_triangulation(capped)


def test_cap_square_with_diagonal():
    from grunbaum.catalog import enumerate_disks

    disk = next(d for d in enumerate_disks(4, 0))
    capped = cap_with_apex(disk)
    assert capped.num_vertices == 5
    assert capped.degree(4) == 4
    assert is_triangulation(capped) and genus(capped) == 0


def test_cap_triangulated_pentagon_apex_degree():
    from grunbaum.catalog import enumerate_disks

    disk = next(d for d in enumerate_disks(5, 1) if d.interior_vertex_count() == 1)
    capped = cap_with_apex(disk)
    assert capped.degree(capped.num_vertices - 1) == 5
    assert is_triangulation(capped) and genus(capped) == 0


def test_dual_of_triangulation_cubic_and_connected():
    from collections import deque

    for emb in (build_embedding(OCT), build_embedding(K7)):
        d = dual_graph(emb)
        assert d.is_cubic()
        seen = {0}
        queue = deque([0])
        while queue:
            f = queue.popleft()
            for g, _ in d.adjacency[f]:
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
        assert len(seen) == d.num_nodes


def test_stellate_bookkeeping():
    oct_ = build_embedding(OCT)
    st = stellate_face(oct_, 0)
    assert (st.num_vertices, st.num_edges) == (7, 15)
    assert genus(st) == 0 and is_triangulation(st)

    k7 = build_embedding(K7)
    st7 = stellate_face(k7, 0)
    assert (st7.num_vertices, st7.num_edges) == (8, 24)
    assert genus(st7) == 1 and is_triangulation(st7)
    st7b = stellate_face(st7, 0)
    assert st7b.num_vertices == 9 and genus(st7b) == 1 and is_triangulation(st7b)


def test_stellate_requires_triangle():
    with pytest.raises(FaceNotTriangle):
        stellate_face(gen_k6("6"), trace_faces(gen_k6("6")).sizes.index(6))


def test_genus_invariant_under_refinement():
    emb = build_embedding(K7)
    refined = random_refinement(emb, 10, seed=3)
    assert genus(refined) == 1
    assert is_triangulation(refined)
    assert refined.num_vertices == 17
    assert refined.num_edges == emb.num_edges + 30


def test_splice_disk_round_trip():
    from grunbaum.catalog import enumerate_disks

    e6 = gen_k6("6")
    fs = trace_faces(e6)
    hexf = next(f for f in range(fs.num_faces) if fs.size(f) == 6)
    disk = next(
        d for d in enumerate_disks(6, 2)
        if d.interior_vertex_count() == 2
        and not any(set(d.embedding.edge_ends(x)) <= set(range(6))
                    and x not in set(d.boundary_edges)
                    for x in range(d.embedding.num_edges))
    )
    spliced = splice_disk(e6, hexf, disk)
    assert genus(spliced) == 1
    assert is_triangulation(spliced)
    assert spliced.num_vertices == 8


# -- the constructor against a plain reference --------------------------------


def _reference_tables(rotations):
    """Edges, dart ids and rotation successors as plain loops build them,
    validating in the constructor's order; raises what the constructor must."""
    from collections import deque

    rot = tuple(tuple(r) for r in rotations)
    n = len(rot)
    for v, nbrs in enumerate(rot):
        for w in nbrs:
            if not 0 <= w < n:
                raise AsymmetricAdjacency(f"vertex {v} lists unknown vertex {w}")
            if w == v:
                raise LoopEdge(f"vertex {v} lists itself")
        if len(set(nbrs)) != len(nbrs):
            raise ParallelEdge(f"vertex {v} lists a neighbour twice")
    nbr_sets = [set(nbrs) for nbrs in rot]
    for v, nbrs in enumerate(rot):
        for w in nbrs:
            if v not in nbr_sets[w]:
                raise AsymmetricAdjacency(f"{w} in rotation of {v} but not conversely")
    edges = sorted((min(u, v), max(u, v)) for u in range(n) for v in rot[u] if u < v)
    eindex = {uv: e for e, uv in enumerate(edges)}

    def dart(u, v):
        return 2 * eindex[(min(u, v), max(u, v))] + (0 if u < v else 1)

    succ = [0] * (2 * len(edges))
    for v, nbrs in enumerate(rot):
        for i, w in enumerate(nbrs):
            succ[dart(v, w)] = dart(v, nbrs[(i + 1) % len(nbrs)])
    if n:
        seen = {0}
        queue = deque([0])
        while queue:
            for w in rot[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != n:
            raise Disconnected("graph is not connected")
    return tuple(edges), dart, succ


def _relabeled(emb, rng):
    """The embedding with shuffled ids, shifted rotation starts and, by a
    coin flip, mirrored rotations."""
    n = emb.num_vertices
    ids = list(range(n))
    rng.shuffle(ids)
    mirror = rng.random() < 0.5
    rotations = [None] * n
    for v, nbrs in enumerate(emb.rotations):
        rot = [ids[w] for w in (reversed(nbrs) if mirror else nbrs)]
        k = rng.randrange(len(rot))
        rotations[ids[v]] = rot[k:] + rot[:k]
    return rotations


def _constructor_hosts():
    import random

    from corpus import five_chromatic_instances, planar_corpus, toroidal_corpus

    hosts = [inst.graph for inst in (*toroidal_corpus(), *planar_corpus(),
                                     *five_chromatic_instances())]
    rng = random.Random(5)
    for base in (build_embedding(OCT), build_embedding(K7), gen_k6("54"), gen_k6("6")):
        for seed in range(4):
            refined = random_refinement(base, rng.randrange(60), seed=seed)
            hosts += [refined, Embedding(_relabeled(refined, rng))]
    return hosts


def test_constructor_matches_reference_tables():
    hosts = _constructor_hosts()
    assert len(hosts) > 230
    for emb in hosts:
        edges, dart, succ = _reference_tables(emb.rotations)
        assert emb.edges == edges
        for u, v in edges:
            assert (emb.dart(u, v), emb.dart(v, u)) == (dart(u, v), dart(v, u))
        assert [emb.face_next(d) for d in range(emb.num_darts)] == [
            succ[d ^ 1] for d in range(emb.num_darts)]


MALFORMED = {
    "out of range": [[1, 5], [0]],
    "negative": [[1, -1], [0]],
    "loop": [[0, 1], [0]],
    "parallel": [[1, 1], [0, 0]],
    "range after a repeat": [[1, 1, 7], [0]],
    "parallel before a loop": [[1, 2], [0, 2, 2], [1, 0], [3]],
    # 0 lists 2, which does not list 0 back: the higher side is missing
    "asymmetric, higher side missing": [[1, 2], [0, 2], [1]],
    # 2 lists 0, which does not list 2 back: the lower side is missing
    "asymmetric, lower side missing": [[1], [0, 2], [1, 0]],
    # the lists hold 2E entries in all, yet 3 lists 1 and 0 lists 2 alone
    "asymmetric, count balanced": [[1, 2], [0, 2], [1, 3], [2, 1]],
    "asymmetric before a loop": [[1, 2], [0], [0, 3], [3]],
    "disconnected": [[1], [0], [3], [2]],
    "isolated vertex": [[1], [0], []],
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_rotations_raise_as_reference(name):
    rotations = MALFORMED[name]
    with pytest.raises(Exception) as expected:
        _reference_tables(rotations)
    with pytest.raises(type(expected.value)) as raised:
        Embedding(rotations)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_dual_graph_is_cached_and_equals_a_fresh_build():
    for emb in (build_embedding(K7), gen_k6("54"), random_refinement(build_embedding(OCT), 9)):
        dual = dual_graph(emb)
        assert dual_graph(emb) is dual
        assert dual == dual_graph(Embedding(emb.rotations))
