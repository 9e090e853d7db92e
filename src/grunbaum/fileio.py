"""Text formats for embeddings (.emb) and edge colorings (.gcol).

.emb:   header ``vertices: <V>`` then one line per vertex
        ``<v>: <n1> <n2> ... <nk>`` listing the counterclockwise neighbour
        order; ``#`` starts a comment; ids are 0-based and consecutive.

.gcol:  one line per edge ``<u> <v> <color>`` with color in {0,1,2};
        order-insensitive.  A total coloring must cover the host edge set
        exactly; partial files may cover any subset.
"""
from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

from .coloring import EdgeColoring, PartialColoring
from .embedding import Embedding, build_embedding
from .errors import GrunbaumError


class FormatError(GrunbaumError):
    """Malformed .emb or .gcol content."""


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def read_embedding(source: str | Path | TextIO) -> Embedding:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = [s for s in (_strip(line) for line in text.splitlines()) if s]
    if not lines:
        raise FormatError("empty embedding file")
    head = lines[0].replace(" ", "")
    if not head.startswith("vertices:"):
        raise FormatError("missing 'vertices:' header")
    try:
        n = int(head.split(":", 1)[1])
    except ValueError as exc:
        raise FormatError("vertex count is not an integer") from exc
    if n < 0 or len(lines) - 1 != n:
        raise FormatError(f"expected {n} vertex lines, found {len(lines) - 1}")
    rotations: list[list[int] | None] = [None] * n
    for line in lines[1:]:
        if ":" not in line:
            raise FormatError(f"malformed vertex line: {line!r}")
        left, right = line.split(":", 1)
        try:
            v = int(left)
            nbrs = list(map(int, right.split()))
        except ValueError as exc:
            raise FormatError(f"malformed vertex line: {line!r}") from exc
        if not 0 <= v < n:
            raise FormatError(f"vertex id {v} out of range")
        if rotations[v] is not None:
            raise FormatError(f"duplicate line for vertex {v}")
        rotations[v] = nbrs
    return build_embedding([r if r is not None else [] for r in rotations])


def write_embedding(emb: Embedding, target: str | Path | TextIO | None = None) -> str:
    buf = io.StringIO()
    buf.write(f"vertices: {emb.num_vertices}\n")
    for v in range(emb.num_vertices):
        buf.write(f"{v}: " + " ".join(map(str, emb.rotation(v))) + "\n")
    text = buf.getvalue()
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    elif target is not None:
        target.write(text)
    return text


def read_coloring(
    source: str | Path | TextIO, emb: Embedding, partial: bool = False
) -> EdgeColoring | PartialColoring:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    colors: list[int | None] = [None] * emb.num_edges
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        toks = line.split()
        if len(toks) != 3:
            raise FormatError(f"expected '<u> <v> <color>': {raw!r}")
        try:
            u, v, c = (int(t) for t in toks)
        except ValueError as exc:
            raise FormatError(f"non-integer field: {raw!r}") from exc
        if c not in (0, 1, 2):
            raise FormatError(f"color {c} not in 0..2")
        if not emb.has_edge(u, v):
            raise FormatError(f"edge {u}-{v} not in host")
        e = emb.edge_id(u, v)
        if colors[e] is not None:
            raise FormatError(f"edge {u}-{v} colored twice")
        colors[e] = c
    pc = PartialColoring(tuple(colors))
    if partial:
        return pc
    if not pc.is_total:
        missing = [emb.edge_ends(e) for e, c in enumerate(colors) if c is None][:3]
        raise FormatError(f"coloring misses edges such as {missing}")
    return pc.to_total()


def write_coloring(
    emb: Embedding,
    coloring: EdgeColoring | PartialColoring,
    target: str | Path | TextIO | None = None,
) -> str:
    buf = io.StringIO()
    for e, (u, v) in enumerate(emb.edges):
        c = coloring[e]
        if c is not None:
            buf.write(f"{u} {v} {c}\n")
    text = buf.getvalue()
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    elif target is not None:
        target.write(text)
    return text
