"""The benchmark's ``--trace 1`` layers still name functions of the package.

``bench/tracer.py`` patches every layer it lists by module and attribute
name, so a renamed or deleted function breaks traced benchmark runs; this
test builds the tracer against the package to catch that here.
"""
import importlib.util
from pathlib import Path

import grunbaum
from grunbaum import pipeline
from grunbaum.catalog import catalog_embedding, triangulate_faces

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_layer():
    bench_tracer = _tracer_module()
    tracer = bench_tracer.Tracer(grunbaum)  # resolves every LAYERS name
    layers = {bench_tracer.span_name(m, a) for m, a, _ in bench_tracer.LAYERS}
    assert layers <= set(tracer.stats)

    solve, match_frame = pipeline.solve, pipeline.match_frame
    host = triangulate_faces(catalog_embedding("k6-54"))
    tracer.install()
    try:
        assert pipeline.solve is not solve
        report = tracer.operation(pipeline.solve, host)
    finally:
        tracer.uninstall()
    assert pipeline.solve is solve and pipeline.match_frame is match_frame
    assert report.found and report.method == "CRITICAL(54)"
    assert tracer.stats["pipeline.solve"].calls == 1
    assert tracer.stats["pipeline.match_frame"].calls == 1
    assert tracer.stats["pipeline.extend_over_face"].calls > 0
    # the embedding tables are built where the tracer sees them, so their
    # calls and self time stay in the benchmark's per-layer metrics
    for layer in ("embedding.Embedding", "embedding.trace_faces", "embedding.dual_graph"):
        assert tracer.stats[layer].calls > 0, layer
