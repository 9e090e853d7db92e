"""Edge 3-colorings of embedded triangulations where every face sees all
three colors: rotation-system embeddings, verification, Kempe machinery,
exact search, and the structured pipeline for sphere and torus inputs."""

from .coloring import (
    EdgeColoring,
    HexagonClass,
    KempeChain,
    PartialColoring,
    PentagonSignature,
    SquareSignature,
    VerificationReport,
    classify_hexagon,
    classify_pentagon,
    classify_square,
    kempe_chain,
    kempe_change,
    parity_check,
    tait_lift,
    verify_grunbaum,
    verify_partial,
)
from .embedding import (
    Disk,
    DualGraph,
    Embedding,
    FaceCycle,
    FaceSet,
    SeparationReport,
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
from .solver import (
    Budget,
    SolveReport,
    count_grunbaum_colorings,
    four_color_vertices,
    solve_exact,
)
from .chroma import (
    SubgraphMatch,
    chromatic_number,
    classify_six_chromatic,
    find_subgraph,
)
from .catalog import (
    GridTriangulation,
    enumerate_disks,
    figure_colorings,
    gen_altshuler,
    gen_k6,
    gen_named,
    random_refinement,
    triangulate_faces,
)
from .pipeline import (
    altshuler_coloring,
    extend_into_faces,
    solve,
    solve_disk,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
