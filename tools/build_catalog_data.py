"""Regenerate the bundled catalog data files (src/grunbaum/data/).

The rotation systems below were derived once by exhaustive search over face
censuses (see embed_search.py) and are frozen here; this script re-validates
them, re-derives every bundled coloring deterministically (first hit in
enumeration/solve order), and rewrites the data files and manifest.  The
manifest's ``frame_classes`` lists, per frame with a non-triangular face,
one coloring of each class of its colorings, in enumeration order; a class
holds the colorings whose non-triangular faces read the same colors up to
a renaming within each face.

Run from the repository root:  python3 tools/build_catalog_data.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from grunbaum.coloring import (
    PartialColoring,
    canonical_letters,
    classify_pentagon,
    classify_square,
    verify_partial,
)
from grunbaum.embedding import Embedding, build_embedding, genus, trace_faces
from grunbaum.errors import BadParity, MixedTriple
from grunbaum.fileio import write_coloring, write_embedding
from grunbaum.solver import solve_exact

DATA = Path(__file__).resolve().parent.parent / "src" / "grunbaum" / "data"

# -- frozen rotation systems (derived by census search, validated below) ------

ROTATIONS = {
    "octahedron": [[1, 5, 4, 2], [0, 2, 3, 5], [0, 4, 3, 1],
                   [1, 2, 4, 5], [0, 5, 3, 2], [0, 1, 3, 4]],
    "icosahedron": [[5, 7, 1, 2, 6], [8, 2, 0, 7, 3], [4, 6, 0, 1, 8],
                    [9, 8, 1, 7, 11], [10, 6, 2, 8, 9], [11, 7, 0, 6, 10],
                    [10, 5, 0, 2, 4], [3, 1, 0, 5, 11], [4, 2, 1, 3, 9],
                    [4, 8, 3, 11, 10], [5, 6, 4, 9, 11], [10, 9, 3, 7, 5]],
    "k7": [[(i + d) % 7 for d in (1, 3, 2, 6, 4, 5)] for i in range(7)],
    "k6-444a": [[1, 4, 2, 5, 3], [0, 2, 5, 3, 4], [0, 4, 1, 3, 5],
                [0, 4, 1, 5, 2], [0, 1, 3, 5, 2], [0, 2, 3, 1, 4]],
    "k6-444b": [[1, 2, 5, 4, 3], [0, 2, 5, 3, 4], [0, 4, 1, 3, 5],
                [0, 4, 1, 5, 2], [0, 5, 2, 1, 3], [0, 2, 3, 1, 4]],
    "k6-54": [[1, 2, 5, 4, 3], [0, 2, 4, 5, 3], [0, 4, 1, 3, 5],
              [0, 4, 1, 5, 2], [0, 5, 1, 2, 3], [0, 2, 3, 1, 4]],
    "h7k2": [[2, 7, 6, 5, 8, 3], [2, 3, 7, 4, 8], [0, 3, 1, 8, 7],
             [0, 8, 7, 1, 2], [1, 7, 5, 6, 8], [0, 6, 4, 7, 8],
             [0, 7, 8, 4, 5], [0, 2, 5, 4, 1, 3, 8, 6],
             [0, 5, 2, 1, 4, 6, 7, 3]],
}
# the hexagonal embedding of K6 is K7 with its last vertex removed
ROTATIONS["k6-6"] = [[w for w in r if w != 6] for r in ROTATIONS["k7"][:6]]
ROTATIONS["c3c5"] = [[1, 6, 7, 3, 2, 5, 4], [0, 3, 7, 2, 4, 5, 6],
                     [0, 3, 4, 1, 7, 6, 5], [0, 7, 1, 4, 2], [0, 5, 1, 2, 3],
                     [0, 2, 6, 1, 4], [0, 1, 5, 2, 7], [0, 6, 2, 1, 3]]

EXPECTED = {
    "octahedron": (0, (3,) * 8),
    "icosahedron": (0, (3,) * 20),
    "k7": (1, (3,) * 14),
    "k6-444a": (1, (4, 4, 4) + (3,) * 6),
    "k6-444b": (1, (4, 4, 4) + (3,) * 6),
    "k6-54": (1, (5, 4) + (3,) * 7),
    "k6-6": (1, (6,) + (3,) * 8),
    "h7k2": (1, (4,) + (3,) * 16),
    "c3c5": (1, (4,) + (3,) * 14),
}


# the frames with a non-triangular face, which the solve colors by class
FRAMES = ("k6-54", "k6-6", "k6-444a", "k6-444b", "h7k2", "c3c5")


def dart_pairs(emb: Embedding, darts) -> list[list[int]]:
    return [[emb.tail(d), emb.head(d)] for d in darts]


def walk_from(emb: Embedding, face_darts, start: int, direction: int):
    k = len(face_darts)
    if direction == 1:
        return [face_darts[(start + i) % k] for i in range(k)]
    # reversed walk uses twins in opposite order
    return [face_darts[(start - i) % k] ^ 1 for i in range(k)]


def square_kind(coloring, emb: Embedding, pairs) -> str | None:
    try:
        return classify_square([coloring[emb.edge_id(u, v)] for u, v in pairs]).kind
    except (MixedTriple, BadParity):
        return None


def pentagon_sig(coloring, emb: Embedding, pairs):
    try:
        return tuple(sorted(
            classify_pentagon([coloring[emb.edge_id(u, v)] for u, v in pairs]).positions
        ))
    except BadParity:
        return None


def coloring_classes(emb: Embedding) -> list[str]:
    """The first coloring of each class, in ``solve_exact`` enumeration
    order, as one digit per edge id."""
    fs = trace_faces(emb)
    faces = [fs.face_edges(f) for f in range(fs.num_faces) if fs.size(f) > 3]
    classes: dict[tuple[str, ...], str] = {}
    for c in solve_exact(emb, mode="enumerate"):
        key = tuple(canonical_letters([c[e] for e in face]) for face in faces)
        classes.setdefault(key, "".join(map(str, c.colors)))
    return list(classes.values())


def main():
    DATA.mkdir(exist_ok=True)
    manifest: dict = {"embeddings": {}, "labelings": {}, "figures": {}, "case_tables": {},
                      "frame_classes": {}}

    embs: dict[str, Embedding] = {}
    for name, rot in ROTATIONS.items():
        emb = build_embedding(rot)
        g, census = genus(emb), trace_faces(emb).census()
        assert (g, census) == EXPECTED[name], (name, g, census)
        embs[name] = emb
        write_embedding(emb, DATA / f"{name}.emb")
        manifest["embeddings"][name] = {
            "file": f"{name}.emb",
            "vertices": emb.num_vertices,
            "edges": emb.num_edges,
            "genus": g,
            "face_census": list(census),
        }

    figures = manifest["figures"]

    def ship(fig_id: str, host: str, coloring, meta: dict):
        emb = embs[host]
        report = verify_partial(emb, PartialColoring(tuple(coloring.colors)))
        assert report.ok, (fig_id, report.violations)
        fname = fig_id.lower().replace(";", "_") + ".gcol"
        write_coloring(emb, coloring, DATA / fname)
        figures[fig_id] = {"file": fname, "host": host, **meta}

    # ---- quadrilateral-face graphs: one coloring per square class ----------
    for host, prefix in (("c3c5", "fig2-C3C5"), ("h7k2", "fig2-H7K2")):
        emb = embs[host]
        fs = trace_faces(emb)
        quad = next(f for f in range(fs.num_faces) if fs.size(f) == 4)
        qdarts = fs.faces[quad]
        qedges = [d >> 1 for d in qdarts]
        manifest["labelings"][host] = {"quad": dart_pairs(emb, qdarts)}
        for i, (kind, pattern) in enumerate(
            (("C", (0, 0, 0, 0)), ("B1", (0, 0, 1, 1)), ("B2", (0, 1, 1, 0))), start=1
        ):
            fixed = PartialColoring.from_dict(emb.num_edges, dict(zip(qedges, pattern)))
            rep = solve_exact(emb, fixed=fixed)
            assert rep.found
            got = classify_square([rep.coloring[e] for e in qedges]).kind
            assert got == kind
            ship(f"{prefix}-{i}", host, rep.coloring, {"quad_class": kind})

    # ---- (4,4,4)_B ----------------------------------------------------------
    emb = embs["k6-444b"]
    fs = trace_faces(emb)
    # square order and starts fixed so the six required signature triples are
    # all realizable with forward walks (chosen by search over labelings)
    sq_faces = [f for f in range(fs.num_faces) if fs.size(f) == 4]  # [0, 1, 5]
    walls = {f: fs.faces[f] for f in sq_faces}
    squares_b = [
        walk_from(emb, walls[sq_faces[0]], 0, 1),
        walk_from(emb, walls[sq_faces[2]], 1, 1),
        walk_from(emb, walls[sq_faces[1]], 0, 1),
    ]
    manifest["labelings"]["k6-444b"] = {
        "squares": [dart_pairs(emb, s) for s in squares_b]
    }
    sols_b = list(solve_exact(emb, mode="enumerate"))
    pairs_b = [dart_pairs(emb, s) for s in squares_b]
    needed_b = [("A", "B1", "B1"), ("B2", "B2", "A"), ("B1", "A", "B1"),
                ("B1", "B1", "A"), ("A", "A", "A"), ("B2", "B2", "C")]
    roman = ["i", "ii", "iii", "iv", "v", "vi"]
    for label, triple in zip(roman, needed_b):
        col = next(
            c for c in sols_b
            if tuple(square_kind(c, emb, p) for p in pairs_b) == triple
        )
        ship(f"fig4-{label}", "k6-444b", col, {"signatures": list(triple)})
    manifest["case_tables"]["444B"] = {
        **{k: "fig4-v" for k in ("111", "112", "121", "211", "221", "212", "122", "222")},
        **{k: "fig4-iii" for k in ("113", "123", "311", "313", "321")},
        **{k: "fig4-vi" for k in ("223", "233", "323", "333")},
        **{k: "fig4-i" for k in ("213", "131", "133", "231")},
        **{k: "fig4-iv" for k in ("331", "332", "132", "312")},
        **{k: "fig4-ii" for k in ("232", "322")},
    }

    # ---- (4,4,4)_A ------------------------------------------------------------
    emb = embs["k6-444a"]
    fs = trace_faces(emb)
    rho = [5, 0, 3, 4, 2, 1]  # order-3 automorphism cycling the three squares
    v1 = list(fs.face_vertices(emb, 0))
    v2 = [rho[v] for v in v1]
    v3 = [rho[v] for v in v2]
    squares_a = [
        [emb.dart(vs[i], vs[(i + 1) % 4]) for i in range(4)] for vs in (v1, v2, v3)
    ]
    manifest["labelings"]["k6-444a"] = {
        "squares": [dart_pairs(emb, s) for s in squares_a],
        "rho": rho,
    }
    sols_a = list(solve_exact(emb, mode="enumerate"))
    pairs_a = [dart_pairs(emb, s) for s in squares_a]
    needed_a = [("A", "B1", "B1"), ("A", "B2", "B2"), ("A", "A", "A"), ("C", "C", "C")]
    for i, triple in enumerate(needed_a, start=1):
        col = next(
            c for c in sols_a
            if tuple(square_kind(c, emb, p) for p in pairs_a) == triple
        )
        ship(f"fig5-{i}", "k6-444a", col, {"signatures": list(triple)})
    manifest["case_tables"]["444A"] = {
        **{k: "fig5-1" for k in ("113", "133", "233", "231", "213")},
        "223": "fig5-2",
        **{k: "fig5-3" for k in ("111", "112", "122", "222")},
        "333": "fig5-4",
    }

    # ---- (5,4) ------------------------------------------------------------------
    emb = embs["k6-54"]
    fs = trace_faces(emb)
    pent_f = next(f for f in range(fs.num_faces) if fs.size(f) == 5)
    sq_f = next(f for f in range(fs.num_faces) if fs.size(f) == 4)
    pent = walk_from(emb, fs.faces[pent_f], 3, 1)
    square = walk_from(emb, fs.faces[sq_f], 0, 1)
    shared = set(d >> 1 for d in pent) & set(d >> 1 for d in square)
    assert len(shared) == 1
    # boundary of the pentagon+square union, read from pentagon edge 1:
    # pentagon edges 1,2 / square edges 2,3,4 / pentagon edges 4,5
    hept = [pent[0], pent[1], square[1], square[2], square[3], pent[3], pent[4]]
    assert all((d >> 1) not in shared for d in hept)
    manifest["labelings"]["k6-54"] = {
        "pentagon": dart_pairs(emb, pent),
        "square": dart_pairs(emb, square),
        "heptagon": dart_pairs(emb, hept),
    }
    sols_54 = list(solve_exact(emb, mode="enumerate"))
    ppairs = dart_pairs(emb, pent)
    spairs = dart_pairs(emb, square)
    hedges = [d >> 1 for d in hept]
    entries_54 = [
        ("tptpptg", (2, 5), "B1"),
        ("tpgpptt", (2, 3), "B1"),
        ("tttppgp", (4, 5), "B1"),
        ("tpptpgt", (2, 4), "A"),
        ("tppgpgg", (1, 2), "A"),
        ("ttptppg", (4, 5), "A"),
    ]
    for i, (string, sig, kind) in enumerate(entries_54, start=1):
        col = next(
            c for c in sols_54
            if pentagon_sig(c, emb, ppairs) == sig
            and square_kind(c, emb, spairs) == kind
            and canonical_letters([c[e] for e in hedges]) == string
        )
        ship(f"fig6-{i}", "k6-54", col,
             {"heptagon": string, "pentagon": list(sig), "square": kind})
    manifest["case_tables"]["54"] = {
        "2;5|B1": "fig6-1", "2;3|B1": "fig6-2", "4;5|B1": "fig6-3",
        "2;4|A": "fig6-4", "1;2|A": "fig6-5", "4;5|A": "fig6-6",
    }

    # ---- (6) ------------------------------------------------------------------
    emb = embs["k6-6"]
    fs = trace_faces(emb)
    hex_f = next(f for f in range(fs.num_faces) if fs.size(f) == 6)
    hexd = fs.faces[hex_f]
    hexe = [d >> 1 for d in hexd]
    manifest["labelings"]["k6-6"] = {"hexagon": dart_pairs(emb, hexd)}
    hex_entries = [
        ("ttpppp", (0, 0, 1, 1, 1, 1)),
        ("ttppgg", (0, 0, 1, 1, 2, 2)),
        ("tpptpp", (0, 1, 1, 0, 1, 1)),
        ("tpgtpg", (0, 1, 2, 0, 1, 2)),
    ]
    for label, (name, pattern) in zip(roman[:4], hex_entries):
        fixed = PartialColoring.from_dict(emb.num_edges, dict(zip(hexe, pattern)))
        rep = solve_exact(emb, fixed=fixed)
        assert rep.found, name
        assert canonical_letters([rep.coloring[e] for e in hexe]) == name
        ship(f"fig7-{label}", "k6-6", rep.coloring, {"hexagon_class": name})
    manifest["case_tables"]["6"] = {
        "ttpppp": "fig7-i", "ttppgg": "fig7-ii", "tpptpp": "fig7-iii", "tpgtpg": "fig7-iv",
    }
    manifest["case_tables"]["H7K2"] = {"C": "fig2-H7K2-1", "B1": "fig2-H7K2-2", "B2": "fig2-H7K2-3"}
    manifest["case_tables"]["C3C5"] = {"C": "fig2-C3C5-1", "B1": "fig2-C3C5-2", "B2": "fig2-C3C5-3"}

    for name in FRAMES:
        manifest["frame_classes"][name] = coloring_classes(embs[name])

    (DATA / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    print(f"wrote {len(manifest['embeddings'])} embeddings, {len(figures)} colorings")


if __name__ == "__main__":
    main()
