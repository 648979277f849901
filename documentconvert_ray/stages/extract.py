"""Extraction stages: sniff+HTML and PDF, both stateless.

Pipeline shape (SURVEY.md §7.0, single linear stream — no branch
re-execution, no mid-pipeline materialization):

    read_parquet(shards, include_paths=True)
      → map_batches(SniffAndExtractHtml(cfg))       # whole read blocks
      → map_batches(PdfExtractor(cfg))              # slices of pdf_batch_size
      → map_batches(PdfExtractor(cfg, elephant_leg=True))
      → map_batches(ShardWriter)

All four are plain task stages with batch_size=None, which Ray fuses
with the read into one operator. Kept as one operator on purpose: a
separate read operator would let Ray's per-operator resource
reservation give each operator half the CPUs, so extraction would
never run on more than half of them. ``run_extract_job`` turns that
reservation off for its own Dataset: on one operator whose outputs are
tiny it budgets no bytes and only delays task submission.

Stage 1 sniffs content type (reference dispatcher semantics,
services/document_service.py:83-126 — but on magic bytes, not
extensions), runs the cheap HTML leg inline (ms/doc), emits error rows
for junk (reference error-artifact semantics,
services/document_service.py:347-383), and passes PDF payloads through
unprocessed. Stage 2 finishes the PDF rows and drops the payload
column, so heavy bytes never travel past the stage that needs them.

Batches are `pyarrow` end-to-end (zero-copy from the object store); the
per-row python extractor calls are the useful compute, not overhead.
"""

from __future__ import annotations

import hashlib
import re
import zlib

import pyarrow as pa
import pyarrow.compute as pc

# url host for the block_hosts policy gate (scheme-agnostic)
_HOST_RE = re.compile(r"[a-z][a-z0-9+.-]*://([^/]+)")

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.doc_extract import extract_ole2
from ..functions.html_extract import extract_html
from ..functions.office_extract import extract_docx
from ..functions.pdf_extract import extract_pdf
from ..functions.rtf_extract import extract_rtf
from ..functions.sniff import (
    DOC_HTML,
    DOC_OFFICE,
    DOC_OTHER,
    DOC_PDF,
    GZIP_MAGIC,
    gunzip_payload,
    sniff_doc_type,
)

SPAN_TYPE = pa.list_(
    pa.struct(
        [
            pa.field("start", pa.int64()),
            pa.field("end", pa.int64()),
            pa.field("kind", pa.string()),
            pa.field("page", pa.int32()),
        ]
    )
)

# embedded-image payloads (PDF XObjects; reference parity: the
# reference moves extracted images to output/images,
# services/document_service.py:290-304). Names match the markdown
# figure placeholders ![](pageP-figI) so a consumer can join payloads
# back to their anchors. The column rides ONLY in the output rows —
# never through a shuffle (the extraction pipeline has none).
IMAGE_TYPE = pa.list_(
    pa.struct(
        [
            pa.field("name", pa.string()),
            pa.field("data", pa.binary()),
        ]
    )
)

# Output schema of the full extraction pipeline (SURVEY.md §7.0).
OUTPUT_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("lang", pa.string()),
        pa.field("doc_type", pa.string()),
        pa.field("ok", pa.bool_()),
        pa.field("error_kind", pa.string()),
        pa.field("error", pa.string()),
        pa.field("text_md", pa.string()),
        pa.field("spans", SPAN_TYPE),
        pa.field("images", IMAGE_TYPE),
        pa.field("text_sha256", pa.string()),
        pa.field("n_bytes", pa.int64()),
        pa.field("n_md_bytes", pa.int64()),
        pa.field("part", pa.int32()),
    ]
)

# Intermediate schema between stage 1 and stage 2: adds the pdf payload
# column (null for non-pdf rows) and the shard id.
_PDF_PAYLOAD_COL = "_pdf_payload"


def url_part(url: str, num_partitions: int) -> int:
    """Deterministic url-hash partition id: crc32(url) % P (SURVEY §4.3.1)."""
    return zlib.crc32(url.encode("utf-8")) % num_partitions


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quality_gate_batch(batch: pa.Table, min_tokens: int) -> pa.Table:
    """Opt-in output transform (cfg.min_quality_tokens > 0): OK rows
    whose extracted markdown has fewer than ``min_tokens`` whitespace
    tokens become ok=false / error_kind="low_quality" rows with the
    payload dropped — the C4-style length gate applied at extraction
    time, recorded as failures-as-rows (M12) so downstream counts and
    the shard rows invariant are preserved rather than rows silently
    vanishing. Shuffle-free map stage; untouched batches return
    as-is. Token contract: functions/textstats.tokens (the RE2 ∩
    Python whitespace class every token oracle uses)."""
    from ..functions.textstats import token_count as _tc

    oks = batch.column("ok").to_pylist()
    mds = batch.column("text_md").to_pylist()
    low = [i for i, (o, t) in enumerate(zip(oks, mds))
           if o and _tc(t) < min_tokens]
    if not low:
        return batch
    lowset = set(low)
    kinds = batch.column("error_kind").to_pylist()
    errs = batch.column("error").to_pylist()
    shas, nbs = (batch.column("text_sha256").to_pylist(),
                 batch.column("n_md_bytes").to_pylist())
    empty_sha = _sha256("")
    for i in lowset:
        oks[i] = False
        kinds[i] = "low_quality"
        errs[i] = f"below min_quality_tokens={min_tokens}"
        mds[i] = ""
        shas[i] = empty_sha
        nbs[i] = 0
    for name, arr in (
        ("ok", pa.array(oks, pa.bool_())),
        ("error_kind", pa.array(kinds, pa.string())),
        ("error", pa.array(errs, pa.string())),
        ("text_md", pa.array(mds, pa.string())),
        ("text_sha256", pa.array(shas, pa.string())),
        ("n_md_bytes", pa.array(nbs, pa.int64())),
    ):
        batch = batch.set_column(
            batch.schema.get_field_index(name), name, arr)
    return batch


def redact_pii_batch(batch: pa.Table) -> pa.Table:
    """Opt-in output transform (cfg.redact_pii): scrub emails / NANP
    phones / IPv4 from the extracted markdown and recompute the
    derived columns (text_sha256, n_md_bytes). Shuffle-free map stage
    appended after the extraction legs; rows that were not touched
    keep their python string identity so untouched batches stay cheap.
    Patterns: stages/text.py PII_*_RE (the T141 pii_scrub kernel)."""
    from . import text as _tx

    mds = batch.column("text_md").to_pylist()
    changed = False
    shas, nbs = [], []
    for i, t in enumerate(mds):
        r = _tx._PII_EMAIL.sub("<EMAIL>", t)
        r = _tx._PII_PHONE.sub("<PHONE>", r)
        r = _tx._PII_IP.sub("<IP>", r)
        if r is not t and r != t:
            mds[i] = r
            changed = True
        shas.append(_sha256(mds[i]) if mds[i] else _sha256(""))
        nbs.append(len(mds[i].encode("utf-8")))
    if not changed:
        return batch
    for name, arr in (
        ("text_md", pa.array(mds, pa.string())),
        ("text_sha256", pa.array(shas, pa.string())),
        ("n_md_bytes", pa.array(nbs, pa.int64())),
    ):
        batch = batch.set_column(
            batch.schema.get_field_index(name), name, arr)
    return batch


def _result_columns(n: int):
    """Pre-sized python lists for the per-row result columns."""
    return {
        "doc_type": [""] * n,
        "ok": [False] * n,
        "error_kind": [""] * n,
        "error": [""] * n,
        "text_md": [""] * n,
        "spans": [[] for _ in range(n)],
        "images": [[] for _ in range(n)],
        "text_sha256": [""] * n,
    }


class SniffAndExtractHtml:
    """Stage 1 (stateless): sniff, decode, HTML-extract, error rows.

    Usable as a plain function per batch; kept as a class so the
    config is bound once (callable instances serialize cheaply)."""

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG,
                 shard_of_path=None) -> None:
        self.cfg = cfg
        self.shard_of_path = shard_of_path or {}
        # UT1-style host blocklist (cfg.block_hosts): frozen suffix
        # set + host regex bound once; per-batch host→verdict memo in
        # __call__ (hosts ≪ rows per batch)
        self._blk = frozenset(cfg.block_hosts)

    def _host_blocked(self, url: str, memo: dict) -> str | None:
        """Returns the matched blocked suffix, or None. Subdomain
        semantics: ANY dot-suffix of the host may match (blocking
        'example' blocks 'a.b.example') — the url_host_rules (T189)
        rule, applied as an extraction policy."""
        m = _HOST_RE.match(url)
        host = m.group(1) if m else ""
        if host in memo:
            return memo[host]
        hit = None
        parts = host.split(".")
        for i in range(len(parts)):
            sfx = ".".join(parts[i:])
            if sfx in self._blk:
                hit = sfx
                break
        memo[host] = hit
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        urls = batch.column("url").to_pylist()
        payloads = batch.column("html").to_pylist()
        cols = _result_columns(n)
        pdf_payloads: list[bytes | None] = [None] * n
        blk_memo: dict = {}

        for i in range(n):
            if self._blk and (
                    sfx := self._host_blocked(urls[i], blk_memo)):
                # policy gate BEFORE decode/sniff: the payload is
                # never inflated or parsed, and the PDF leg never
                # sees it — the whole point of a crawl blocklist
                cols["doc_type"][i] = "blocked"
                cols["ok"][i] = False
                cols["error_kind"][i] = "blocked_host"
                cols["error"][i] = f"host blocked by policy: {sfx}"
                cols["text_sha256"][i] = _sha256("")
                continue
            raw = payloads[i] or b""
            if raw[:2] == GZIP_MAGIC:
                # transport gzip (CC-style stored pages): inflate
                # before sniffing; the cap turns zip bombs into error
                # rows. n_bytes below stays the OUTER (stored) size.
                inner, gerr = gunzip_payload(raw, cfg.max_gunzip_bytes)
                if inner is None:
                    cols["doc_type"][i] = DOC_OTHER
                    cols["ok"][i] = False
                    cols["error_kind"][i] = "bad_gzip"
                    cols["error"][i] = gerr
                    cols["text_sha256"][i] = _sha256("")
                    continue
                raw = inner
            dt = sniff_doc_type(raw)
            cols["doc_type"][i] = dt
            if dt == DOC_HTML:
                res = extract_html(raw, cfg)
                cols["ok"][i] = res.ok
                cols["error_kind"][i] = res.error_kind
                cols["error"][i] = res.error
                cols["text_md"][i] = res.text_md
                cols["spans"][i] = res.spans
                if res.images:  # data-URI embeds (M5 semantics)
                    cols["images"][i] = [
                        {"name": nm, "data": d} for nm, d in res.images]
                cols["text_sha256"][i] = _sha256(res.text_md)
            elif dt == DOC_PDF:
                pdf_payloads[i] = raw  # finished by PdfExtractor
            elif dt == DOC_OFFICE:
                if raw.startswith(b"\xd0\xcf\x11\xe0"):
                    # legacy OLE2 (.doc/.xls/.ppt): parsed directly
                    # (CFB container + WordDocument piece table / BIFF8
                    # / PowerPoint text atoms — functions/doc_extract);
                    # the reference needed LibreOffice here
                    res = extract_ole2(raw, cfg)
                elif raw.startswith(b"{\\rtf"):
                    # RTF: linear markup scan (functions/rtf_extract)
                    res = extract_rtf(raw, cfg)
                else:
                    # OOXML (.docx/.xlsx/.pptx) and ODF (.odt/.ods/
                    # .odp): extracted directly (stdlib zip + XML —
                    # functions/office_extract.py), no LibreOffice
                    res = extract_docx(raw, cfg)
                cols["ok"][i] = res.ok
                cols["error_kind"][i] = res.error_kind
                cols["error"][i] = res.error
                cols["text_md"][i] = res.text_md
                cols["spans"][i] = res.spans
                cols["text_sha256"][i] = _sha256(res.text_md)
            else:
                cols["ok"][i] = False
                cols["error_kind"][i] = "unsupported"
                cols["error"][i] = "unsupported payload (not html/pdf)"
                cols["text_sha256"][i] = _sha256("")

        n_bytes = pc.binary_length(batch.column("html")).cast(pa.int64())
        parts = pa.array(
            [url_part(u, cfg.num_partitions) for u in urls], pa.int32()
        )
        out = {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "lang": batch.column("lang"),
            "doc_type": pa.array(cols["doc_type"], pa.string()),
            "ok": pa.array(cols["ok"], pa.bool_()),
            "error_kind": pa.array(cols["error_kind"], pa.string()),
            "error": pa.array(cols["error"], pa.string()),
            "text_md": pa.array(cols["text_md"], pa.string()),
            "spans": pa.array(cols["spans"], SPAN_TYPE),
            "images": pa.array(cols["images"], IMAGE_TYPE),
            "text_sha256": pa.array(cols["text_sha256"], pa.string()),
            "n_bytes": n_bytes,
            # utf-8 byte length of text_md, denormalized so the manifest
            # pass never has to re-read the heavy text column
            "n_md_bytes": pc.binary_length(
                pa.array(cols["text_md"], pa.string())).cast(pa.int64()),
            "part": parts,
            _PDF_PAYLOAD_COL: pa.array(pdf_payloads, pa.binary()),
        }
        if "path" in batch.column_names:  # input provenance → shard id
            paths = batch.column("path").to_pylist()
            out["shard"] = pa.array(
                [self.shard_of_path.get(p, 0) for p in paths], pa.int32()
            )
        return pa.Table.from_pydict(out)


class PdfExtractor:
    """Stage 2 (stateless): finish PDF rows, keeping the payload only
    for elephants (oversized PDFs), which the elephant leg finishes at
    single-row granularity. A callable instance, so the config is
    bound once.

    Skew handling (SURVEY.md §4.3.2): rows whose payload is ≥
    ``cfg.elephant_bytes`` are NOT parsed here — they are yielded as
    their own single-row output blocks so one multi-hundred-page PDF
    never enlarges a mixed batch. The rest of a block is finished in
    slices of ``cfg.pdf_batch_size`` rows, one output block each: the
    stage receives whole read blocks, because a Ray batch_size would
    keep the read out of the fused operator. The elephant leg
    (``elephant_leg=True``) receives those single-row blocks
    (batch_size=None preserves block granularity) and finishes each
    one; for every other block it is a null-check pass-through.
    """

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG,
                 elephant_leg: bool = False) -> None:
        self.cfg = cfg
        self.elephant_leg = elephant_leg

    def _finish(self, batch: pa.Table) -> pa.Table:
        """Parse every row that still carries a payload and null its
        payload (the elephant leg, the last pdf stage, drops the column
        instead). Only the payload rows round-trip through Python; they
        are spliced back among the others in their input order, which
        ShardWriter's content-addressed part names depend on."""
        has_pdf = pc.is_valid(batch.column(_PDF_PAYLOAD_COL))
        no_pdf = pc.invert(has_pdf)
        pdfs = batch.filter(has_pdf)
        res = [extract_pdf(raw, self.cfg)
               for raw in pdfs.column(_PDF_PAYLOAD_COL).to_pylist()]
        md_arr = pa.array([r.text_md for r in res], pa.string())
        for name, arr in (
            ("ok", pa.array([r.ok for r in res], pa.bool_())),
            ("error_kind", pa.array([r.error_kind for r in res], pa.string())),
            ("error", pa.array([r.error for r in res], pa.string())),
            ("text_md", md_arr),
            ("spans", pa.array([r.spans for r in res], SPAN_TYPE)),
            ("images", pa.array(
                [[{"name": nm, "data": d} for nm, d in r.images]
                 for r in res], IMAGE_TYPE)),
            ("text_sha256", pa.array(
                [_sha256(r.text_md) for r in res], pa.string())),
            ("n_md_bytes", pc.binary_length(md_arr).cast(pa.int64())),
            (_PDF_PAYLOAD_COL, pa.nulls(len(res), pa.binary())),
        ):
            pdfs = pdfs.set_column(
                pdfs.schema.get_field_index(name), name, arr)
        out = pa.concat_tables([batch.filter(no_pdf), pdfs])
        # row j of ``out`` is input row src[j]; argsort(src) undoes it
        src = pa.concat_arrays([pc.indices_nonzero(no_pdf),
                                pc.indices_nonzero(has_pdf)])
        out = out.take(pc.sort_indices(src))
        return (out.drop_columns([_PDF_PAYLOAD_COL]) if self.elephant_leg
                else out)

    def __call__(self, batch: pa.Table):
        if _PDF_PAYLOAD_COL not in batch.column_names:
            yield batch
            return
        payload_col = batch.column(_PDF_PAYLOAD_COL)
        if payload_col.null_count == batch.num_rows:
            yield batch.drop_columns([_PDF_PAYLOAD_COL]) if self.elephant_leg \
                else batch
            return

        if self.elephant_leg:
            # finish everything that still carries a payload
            yield self._finish(batch)
            return

        is_elephant = pc.fill_null(pc.greater_equal(
            pc.binary_length(payload_col), self.cfg.elephant_bytes), False)
        has_elephant = pc.any(is_elephant).as_py()
        main = batch.filter(pc.invert(is_elephant)) if has_elephant else batch
        bs = self.cfg.pdf_batch_size
        for start in range(0, main.num_rows, bs):
            yield self._finish(main.slice(start, bs))
        if has_elephant:
            # one single-row block per elephant, finished by the
            # elephant leg
            for i in pc.indices_nonzero(is_elephant).to_pylist():
                yield batch.slice(i, 1)
