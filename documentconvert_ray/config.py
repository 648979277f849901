"""Typed pipeline configuration.

Role-equivalent to the reference's free-form ``params`` JSON passed to
converters (reference: database/models.py:59,145 and
processors/enhanced_task_processor.py:536-539) — but typed, immutable
and hashed into the lineage manifest so a config change invalidates
resume state.

All thresholds are INTEGERS (percentages / counts), never floats:
byte-identical output under any parallelism requires that scoring
never depends on float rounding (SURVEY.md §7.4).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ExtractConfig:
    """Knobs for the extraction core and the Ray pipeline around it."""

    # ---- HTML main-content heuristics (integer percentages) ----
    # a block whose link_chars*100 > text_chars*link_density_pct is boilerplate
    link_density_pct: int = 50
    # minimum text characters for a block to count as content at all
    min_block_chars: int = 8
    # blocks under containers with < text_density_pct% of chars outside tags
    # are pruned (computed as integer ratio)
    text_density_pct: int = 20

    # ---- PDF layout ----
    # font size strictly greater than body median → heading
    pdf_heading_ratio_pct: int = 120  # size*100 > median*ratio → heading
    # vertical line-merge tolerance in 1/1000 text-space units
    pdf_line_tol_milli: int = 3000  # 3.0 units
    # two-column split requires a central x-gap at least this wide (milli-units)
    pdf_column_gap_milli: int = 30000

    # ---- transport decompression ----
    # gzip-wrapped payloads (Common-Crawl pages are stored gzip'd) are
    # transparently inflated before sniffing; a stream that inflates
    # past this cap is a zip-bomb error row, never an OOM
    max_gunzip_bytes: int = 64 * 1024 * 1024

    # ---- routing / partitioning ----
    num_partitions: int = 16
    # rows with payload >= this many bytes are "elephants" → batch_size=1 leg
    elephant_bytes: int = 4 * 1024 * 1024

    # ---- PDF leg ----
    # ~8% of rows are PDFs: 128-row mixed batches carry ~10 PDFs each;
    # elephants are split out separately (elephant_bytes)
    pdf_batch_size: int = 128

    # ---- output transforms ----
    # opt-in PII redaction of the extracted markdown (emails / NANP
    # phones / IPv4 → <EMAIL>/<PHONE>/<IP>, stages/text.py patterns).
    # OFF by default: the byte-identity contract vs the reference
    # fixtures holds only for unredacted output.
    redact_pii: bool = False
    # opt-in quality gate (C4-style curation at extraction time): OK
    # rows whose extracted markdown has fewer whitespace tokens than
    # this are reclassified ok=false / error_kind="low_quality" with
    # the payload dropped — failures-as-rows (M12), so the shard rows
    # invariant (ok + errors == rows) and the manifest schema are
    # untouched. 0 = off (default).
    min_quality_tokens: int = 0
    # output serialization: "parquet" (default — columnar, the query
    # layer's native input) or "jsonl" (gzip'd JSON Lines, the format
    # most LLM training loaders consume; mirrors the reference's
    # .json artifact leg, services/document_service.py result writers).
    # Binary image payloads base64-encode; timestamps render ISO-8601.
    output_format: str = "parquet"
    # opt-in UT1-style host blocklist (crawl-hygiene policy gate at
    # extraction time): a row whose url host has ANY dot-suffix in
    # this set (blocking "example" blocks "a.b.example" — subdomain
    # semantics) becomes ok=false / error_kind="blocked_host" BEFORE
    # sniff/extraction, so no payload is decoded, no parser runs and
    # the PDF leg never sees the bytes — failures-as-rows (M12), row
    # counts and manifest schema untouched. () = off (default).
    block_hosts: tuple = ()

    # fields that change WHAT is extracted (affect output bytes); the
    # remaining fields are execution sizing only — output-invariant, so
    # they must NOT invalidate resume manifests. output_format changes
    # the artifact bytes/layout, so jsonl and parquet runs of the same
    # input never cross-resume.
    _SEMANTIC_FIELDS = (
        "link_density_pct", "min_block_chars", "text_density_pct",
        "pdf_heading_ratio_pct", "pdf_line_tol_milli",
        "pdf_column_gap_milli", "num_partitions", "max_gunzip_bytes",
        "redact_pii", "min_quality_tokens", "output_format",
        "block_hosts",
    )

    def fingerprint(self) -> str:
        """Stable digest of the output-affecting config; part of every
        partition manifest. Batch sizing is excluded: the same
        input re-run at different parallelism must resume cleanly."""
        d = asdict(self)
        blob = json.dumps(
            {k: d[k] for k in self._SEMANTIC_FIELDS}, sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


DEFAULT_CONFIG = ExtractConfig()
