"""One-time golden-fixture generation (FIXTURES.md §5).

Runs the frozen extraction core SINGLE-THREADED (no Ray) over the
deterministic smoke corpus and freezes expected outputs. Thereafter
`python -m pytest -x -q` requires the full Ray pipeline to be
byte-identical per url at any parallelism — the same role MinerU's
middle_json → Markdown chain plays for the reference (SURVEY.md §5).

Usage: python tools/gen_fixtures.py  (idempotent; rewrites fixtures)

``python tools/gen_fixtures.py --pdf`` writes only the PDF kernel's
differential golden set, tests/fixtures/pdf_golden.csv: one row per
``make_pdf(doc_id, seed)`` for doc ids 0..299 of seeds 1 and 2, with
the result's ok flag, error kind and sha256 digests of its text and
of its image payloads (tests/test_pdf_golden.py compares).
"""

from __future__ import annotations

import hashlib
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from documentconvert_ray.config import DEFAULT_CONFIG
from documentconvert_ray.functions.html_extract import extract_html
from documentconvert_ray.functions.pdf_extract import extract_pdf
from documentconvert_ray.functions.sniff import (
    DOC_HTML,
    DOC_OFFICE,
    DOC_PDF,
    GZIP_MAGIC,
    gunzip_payload,
    sniff_doc_type,
)
from documentconvert_ray.sources.corpus import make_pdf, write_corpus
from documentconvert_ray.stages.extract import IMAGE_TYPE, SPAN_TYPE

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")
# 1500 = smallest corpus in which every classification class AND every
# office family appears (encrypted_pdf, legacy-OLE2 ok + unsupported,
# OOXML, ODF odt/ods/odp — ods first at doc 1383 — RTF, truncations)
N_ROWS = 1500

# the PDF golden set: 600 documents; seeds 1-2 x ids 0..299 hold every
# generator class, five /R 6 documents among them (pdf_classes names
# the classes; tests/test_pdf_golden.py asserts that all occur)
PDF_GOLDEN_SEEDS = (1, 2)
PDF_GOLDEN_IDS = range(300)
PDF_GOLDEN_CSV = os.path.join(FIXTURE_DIR, "pdf_golden.csv")
PDF_GOLDEN_HEADER = "doc_id,seed,ok,error_kind,text_sha256,images_sha256"

# generator class → a byte marker of it in the payload
PDF_CLASS_MARKERS = {
    "rc4_r2": b"/V 1 /R 2 /Length 40",
    "rc4_r3": b"/V 2 /R 3",
    "aesv2": b"/CFM /AESV2",
    "aesv3_r6": b"/V 5 /R 6",
    "passworded": b"/U <" + b"11" * 32,
    "lzw": b"/LZWDecode",
    "ascii85": b"/ASCII85Decode",
    "ascii_hex": b"/ASCIIHexDecode",
    "runlength": b"/RunLengthDecode",
    "png_predictor": b"/Predictor 1",
    "tiff_predictor": b"/Predictor 2",
    "objstm": b"/Type /ObjStm",
    "cid_font": b"/Subtype /Type0",
}


def pdf_classes(payload: bytes) -> set[str]:
    """The generator classes one make_pdf payload belongs to."""
    out = {c for c, mark in PDF_CLASS_MARKERS.items() if mark in payload}
    if not payload.rstrip().endswith(b"%%EOF"):
        out.add("truncated")
    return out


def pdf_golden_row(doc_id: int, seed: int, payload: bytes) -> str:
    """One CSV line: ``extract_pdf``'s output for the payload as
    (doc_id, seed, ok, error_kind, sha256 of text_md, sha256 of the
    length-prefixed image names and payloads)."""
    res = extract_pdf(payload, DEFAULT_CONFIG)
    ih = hashlib.sha256()
    for name, data in res.images:
        nm = name.encode()
        ih.update(len(nm).to_bytes(8, "big") + nm
                  + len(data).to_bytes(8, "big") + data)
    th = hashlib.sha256(res.text_md.encode()).hexdigest()
    return (f"{doc_id},{seed},{int(res.ok)},{res.error_kind or ''},"
            f"{th},{ih.hexdigest()}")


def pdf_golden_payloads():
    """(doc_id, seed, payload) for every document of the golden set."""
    for seed in PDF_GOLDEN_SEEDS:
        for doc_id in PDF_GOLDEN_IDS:
            yield doc_id, seed, make_pdf(doc_id, seed)[0]


def write_pdf_golden() -> None:
    lines = [pdf_golden_row(i, s, p) for i, s, p in pdf_golden_payloads()]
    with open(PDF_GOLDEN_CSV, "w") as f:
        f.write(PDF_GOLDEN_HEADER + "\n" + "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} PDF golden rows → {PDF_GOLDEN_CSV}")


def main() -> None:
    corpus_dir = os.path.join(FIXTURE_DIR, "corpus")
    write_corpus(corpus_dir, N_ROWS, rows_per_file=50)

    rows = []
    for f in sorted(os.listdir(corpus_dir)):
        t = pq.read_table(os.path.join(corpus_dir, f))
        for url, payload in zip(t.column("url").to_pylist(),
                                t.column("html").to_pylist()):
            payload = payload or b""
            if payload[:2] == GZIP_MAGIC:
                # transport unwrap, mirroring SniffAndExtractHtml
                # (the corpus generator never emits corrupt gzip)
                payload, _ = gunzip_payload(payload)
                assert payload is not None
            dt = sniff_doc_type(payload)
            if dt == DOC_HTML:
                res = extract_html(payload, DEFAULT_CONFIG)
            elif dt == DOC_PDF:
                res = extract_pdf(payload, DEFAULT_CONFIG)
            elif dt == DOC_OFFICE:
                if payload.startswith(b"\xd0\xcf\x11\xe0"):
                    from documentconvert_ray.functions.doc_extract import (
                        extract_ole2,
                    )
                    res = extract_ole2(payload, DEFAULT_CONFIG)
                elif payload.startswith(b"{\\rtf"):
                    from documentconvert_ray.functions.rtf_extract import (
                        extract_rtf,
                    )
                    res = extract_rtf(payload, DEFAULT_CONFIG)
                else:
                    from documentconvert_ray.functions.office_extract import (
                        extract_docx,
                    )
                    res = extract_docx(payload, DEFAULT_CONFIG)
            else:
                from documentconvert_ray.functions.html_extract import ExtractResult
                res = ExtractResult(False, "", [], "unsupported",
                                    "unsupported payload (not html/pdf)")
            rows.append(
                {
                    "url": url,
                    "doc_type": dt,
                    "ok": res.ok,
                    "error_kind": res.error_kind,
                    "text_md": res.text_md,
                    "spans": res.spans,
                    "images": [{"name": nm, "data": d}
                               for nm, d in getattr(res, "images", ())],
                    "text_sha256": hashlib.sha256(
                        res.text_md.encode()).hexdigest(),
                }
            )

    schema = pa.schema(
        [
            pa.field("url", pa.string()),
            pa.field("doc_type", pa.string()),
            pa.field("ok", pa.bool_()),
            pa.field("error_kind", pa.string()),
            pa.field("text_md", pa.string()),
            pa.field("spans", SPAN_TYPE),
            pa.field("images", IMAGE_TYPE),
            pa.field("text_sha256", pa.string()),
        ]
    )
    expected = pa.Table.from_pylist(rows, schema=schema)
    out = os.path.join(FIXTURE_DIR, "expected.parquet")
    pq.write_table(expected, out)
    with open(os.path.join(FIXTURE_DIR, "digests.csv"), "w") as f:
        f.write("url,text_sha256\n")
        for r in rows:
            f.write(f"{r['url']},{r['text_sha256']}\n")
    print(f"wrote {len(rows)} fixtures → {out}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--pdf"]:
        write_pdf_golden()
    else:
        main()
