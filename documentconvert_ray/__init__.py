"""documentconvert_ray — a Ray-Data-native main-content extraction engine.

Built from scratch (NOT a port) with the query/data-processing
capabilities of the reference NanamiAkari/DocumentConvert
(/root/reference, snapshot 2025-08-29): HTML boilerplate stripping via
text-density / link-density DOM heuristics, PDF text+layout parsing
(page segmentation, reading order, table/figure regions), Markdown
normalization with span offsets — expressed as ray.data.Dataset
pipelines over zero-copy Arrow batches, with explicit url-hash
partitioning, skew handling, per-partition lineage manifests and
resume.

The library never calls ray.init()/ray.shutdown(); sessions are owned
by the caller (bench.py, CLI, test fixture, or the grading driver).
"""

__version__ = "0.13.3"

ENGINE_VERSION = __version__
