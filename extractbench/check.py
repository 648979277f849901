"""Output checker that never calls the engine.

Expected ``doc_type`` / ``ok`` / ``error_kind`` are derived from the
payload kind the generator plants in every url (``.../{kind}/{id}``)
and from raw bytes: the PDF ``%%EOF`` trailer, ``/Encrypt`` with the
generator's bogus ``/U`` (a password no one knows), the OLE2 stream
names that survive only with the CFB directory, the ZIP end-of-central-
directory record and the RTF magic. A document counts as failed when
any check below fails for it.
"""

from __future__ import annotations

import collections
import glob
import hashlib
import json
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq

_KIND_RE = re.compile(r"/(html|pdf|office|junk)/\d+$")
_BOGUS_U = b"/U <" + b"11" * 32 + b">"
_OLE2_MAGIC = b"\xd0\xcf\x11\xe0"
_OLE2_STREAMS = tuple(s.encode("utf-16-le") for s in
                      ("WordDocument", "Workbook", "PowerPoint Document"))
_EOCD = b"PK\x05\x06"
_RTF_MAGIC = b"{\\rtf"
_GZIP_MAGIC = b"\x1f\x8b"
# figure anchors the PDF leg inserts, and tokens made only of markdown
# syntax (headings, table rules and pipes, formula fences, emphasis)
_ANCHOR_RE = re.compile(r"!\[\]\(page\d+-fig\d+\)")
_MD_TOKEN_RE = re.compile(r"[#|$*-]+")
# generator boilerplate that main-content extraction must drop: cookie
# banner, site header, footer, script and style bodies
HTML_MARKERS = ("We use cookies", "Site Title", "©", "var x_",
                "color: #333")


def expected_class(kind: str, raw: bytes) -> tuple[str, bool, str]:
    """(doc_type, ok, error_kind) of one input row."""
    if kind == "html":
        return "html", True, ""
    if kind == "pdf":
        if not raw.endswith(b"%%EOF\n"):
            return "pdf", False, "truncated_pdf"
        if b"/Encrypt" in raw and _BOGUS_U in raw:
            return "pdf", False, "encrypted_pdf"
        return "pdf", True, ""
    if kind == "office":
        if raw.startswith(_OLE2_MAGIC):
            if any(s in raw for s in _OLE2_STREAMS):
                return "office", True, ""
            return "office", False, "office_unsupported"
        if raw.startswith(_RTF_MAGIC):
            return "office", True, ""
        if len(raw) >= 22 and raw[-22:-18] == _EOCD:
            return "office", True, ""
        return "office", False, "office_truncated"
    # junk: random bytes; a gzip magic by chance is a bad transport
    # stream, anything else is unsupported
    if raw.startswith(_GZIP_MAGIC):
        return "other", False, "bad_gzip"
    return "other", False, "unsupported"


def _words(text: str) -> collections.Counter:
    return collections.Counter(
        t for t in _ANCHOR_RE.sub(" ", text).split()
        if not _MD_TOKEN_RE.fullmatch(t))


class Expected:
    """Per-url expectations for one input corpus (computed once)."""

    def __init__(self, files: list[str]) -> None:
        self.by_url: dict[str, tuple] = {}
        self.urls_of_file: list[list[str]] = []
        for path in files:
            t = pq.read_table(path, columns=["url", "html", "text"])
            self.urls_of_file.append(t.column("url").to_pylist())
            for url, raw, text in zip(t.column("url").to_pylist(),
                                      t.column("html").to_pylist(),
                                      t.column("text").to_pylist()):
                m = _KIND_RE.search(url)
                kind = m.group(1) if m else "junk"
                raw = raw or b""
                cls = expected_class(kind, raw)
                # naive text matters only for ok PDFs (word multiset)
                words = _words(text) if cls == ("pdf", True, "") else None
                self.by_url[url] = (cls, words, len(raw))

    @property
    def rows(self) -> int:
        return len(self.by_url)


def read_output(out_dir: str) -> pa.Table:
    cols = ["url", "doc_type", "ok", "error_kind", "text_md",
            "text_sha256", "n_bytes", "n_md_bytes"]
    files = sorted(glob.glob(os.path.join(out_dir, "data", "shard=*",
                                          "*.parquet")))
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in cols})
    return pa.concat_tables(pq.read_table(f, columns=cols) for f in files)


def check_output(exp: Expected, out_dir: str, metrics: dict) -> set[str]:
    """Urls of failed documents in one job's output directory."""
    t = read_output(out_dir)
    failed: set[str] = set()
    seen: collections.Counter = collections.Counter(t.column("url").to_pylist())
    failed.update(u for u, c in seen.items() if c != 1 or u not in exp.by_url)
    failed.update(u for u in exp.by_url if u not in seen)
    n_ok = 0
    for row in t.to_pylist():
        url = row["url"]
        if url not in exp.by_url:
            continue
        (cls, words, n_raw) = exp.by_url[url]
        md = row["text_md"]
        md_b = md.encode("utf-8")
        good = (
            (row["doc_type"], row["ok"], row["error_kind"]) == cls
            and row["text_sha256"] == hashlib.sha256(md_b).hexdigest()
            and row["n_md_bytes"] == len(md_b)
            and row["n_bytes"] == n_raw
        )
        if good and words is not None:
            good = _words(md) == words
        if good and cls[0] == "html":
            good = not any(m in md for m in HTML_MARKERS)
        if not good:
            failed.add(url)
        n_ok += bool(row["ok"])
    # job-level invariants: a broken count fails every document
    if (t.num_rows != exp.rows
            or metrics.get("rows") != exp.rows
            or metrics.get("ok", 0) + metrics.get("errors", 0) != exp.rows
            or metrics.get("ok") != n_ok):
        failed.update(exp.by_url)
    return failed


def shard_digests(out_dir: str) -> dict[str, str]:
    out = {}
    for p in sorted(glob.glob(os.path.join(out_dir, "_manifest",
                                           "shard-*.json"))):
        with open(p) as f:
            out[os.path.basename(p)] = json.load(f).get("content_digest")
    return out


def load_fixture_digests(root: str) -> dict[str, str]:
    path = os.path.join(root, "tests", "fixtures", "digests.csv")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()[1:]
    return dict(ln.rsplit(",", 1) for ln in lines if ln)


def check_fixture(digests: dict[str, str], out_dir: str) -> set[str]:
    """Urls whose extracted text differs from the golden digests."""
    t = read_output(out_dir)
    got = collections.Counter(t.column("url").to_pylist())
    sha = dict(zip(t.column("url").to_pylist(),
                   t.column("text_sha256").to_pylist()))
    bad = {u for u, d in digests.items() if got[u] != 1 or sha.get(u) != d}
    bad.update(u for u in got if u not in digests)
    return bad
