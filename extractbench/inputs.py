"""Seeded benchmark inputs, generated once and cached.

Every row comes from ``documentconvert_ray.sources.corpus`` with the
run's seed: ``doc_row(i, seed)`` for the web mix and ``make_pdf(i,
seed)`` for the PDF-only corpus. A corpus is a pure function of
(workload, seed, size, corpus.py); it is written atomically (temp dir +
rename) under ``<checkout>/.extractbench/inputs/`` and reused by every
later run with the same key.

AES-256 (/V 5 /R 6) PDFs dominate both generation and extraction cost:
their key derivation runs at least 64 AES+SHA rounds, so one such
document costs 0.3-0.7 s to extract against ~8 ms for the median PDF.
Left to chance, their count per corpus (Poisson, mean < 2) would move
docs/s by more than any bound a benchmark could fix. So each corpus
holds exactly its expected number of them (at least one) and the rest
of the mix is drawn as the generator draws it; ids that would exceed
the quota are skipped.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from documentconvert_ray.sources import corpus

# rows per corpus, spread over N_FILES files
SIZES = {"web-mix": 1000, "pdf-heavy": 300}
N_FILES = 20

# P(kind=pdf) in doc_row, and P(empty-password /R 6 class, not
# truncated | pdf) in make_pdf: 1/16 of doc ids x 7% encrypted with an
# empty password x 97% not truncated
_P_PDF = 0.08
_P_R6_GIVEN_PDF = (1 / 16) * 0.07 * 0.97
_R6_MARK = b"/V 5 /R 6"


def corpus_hash() -> str:
    with open(corpus.__file__, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


@contextlib.contextmanager
def _fast_aes():
    """Swap the generator's pure-Python AES-CBC for OpenSSL's while
    generating (byte-identical; checked on a test vector first). One
    /R 6 document takes ~17 s to generate in pure Python, ~5 ms here.
    Without the ``cryptography`` package the generator runs as is."""
    try:
        from cryptography.hazmat.primitives.ciphers import (
            Cipher,
            algorithms,
            modes,
        )
    except ImportError:
        yield
        return

    def cbc_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        return enc.update(data) + enc.finalize()

    orig = corpus._aes_cbc_enc_nopad
    key, iv, data = bytes(range(16)), bytes(range(16, 32)), bytes(range(48))
    if cbc_nopad(key, iv, data) != orig(key, iv, data):
        raise RuntimeError("OpenSSL AES-CBC disagrees with the generator")
    corpus._aes_cbc_enc_nopad = cbc_nopad
    try:
        yield
    finally:
        corpus._aes_cbc_enc_nopad = orig


def _is_costly_r6(payload: bytes) -> bool:
    return _R6_MARK in payload and payload.endswith(b"%%EOF\n")


def _pdf_row(doc_id: int, seed: int) -> dict:
    """A PDF-only row in doc_row's layout (kind ``pdf`` in the url)."""
    payload, naive, lang = corpus.make_pdf(doc_id, seed)
    return {
        "url": (f"https://site-{doc_id % 97}.example/"
                f"{corpus._WORDS[doc_id % len(corpus._WORDS)]}/pdf/{doc_id}"),
        "warc_ts": (datetime.datetime(2024, 1, 1)
                    + datetime.timedelta(seconds=doc_id * 37)),
        "html": payload,
        "text": naive,
        "lang": lang,
    }


def _may_be_r6(doc_id: int) -> bool:
    """make_pdf's doc-id selector for the /R 6 class (1 id in 16)."""
    return hashlib.md5(f"r6sel-{doc_id}".encode()).digest()[0] % 16 == 14


def _rows(workload: str, seed: int, n: int) -> list[dict]:
    make = _pdf_row if workload == "pdf-heavy" else corpus.doc_row
    share = _P_R6_GIVEN_PDF * (1 if workload == "pdf-heavy" else _P_PDF)
    quota = max(1, round(n * share))
    picked: list[dict] = []
    n_r6 = 0
    with _fast_aes():
        for doc_id in range(200 * n):
            if len(picked) == n:
                return picked
            others_full = len(picked) - n_r6 == n - quota
            if others_full and not _may_be_r6(doc_id):
                continue  # only an /R 6 document could still be taken
            row = make(doc_id, seed)
            if _is_costly_r6(row["html"]):
                if n_r6 < quota:
                    picked.append(row)
                    n_r6 += 1
            elif not others_full:
                picked.append(row)
    raise RuntimeError(f"no {quota} /R 6 PDFs among {200 * n} doc ids")


def _write(table: pa.Table, dest: str, n_files: int) -> None:
    per = -(-table.num_rows // n_files)
    for start in range(0, table.num_rows, per):
        pq.write_table(table.slice(start, per),
                       os.path.join(dest, f"corpus-{start:09d}.parquet"),
                       row_group_size=per)


def prepare(work_dir: str, workload: str, seed: int) -> dict:
    """Input files for (workload, seed), generating them on a cache
    miss. Returns ``{"dir", "files", "rows", "gen_s", "r6_files"}``:
    ``gen_s`` is 0 on a cache hit, ``r6_files`` are the indices of the
    files that hold an /R 6 PDF."""
    n = SIZES[workload]
    key = f"{workload}-s{seed}-n{n}-{corpus_hash()}"
    dest = os.path.join(work_dir, "inputs", key)
    gen_s = 0.0
    if not os.path.isdir(dest):
        t0 = time.monotonic()
        table = pa.Table.from_pylist(_rows(workload, seed, n),
                                     schema=corpus.CORPUS_SCHEMA)
        tmp = f"{dest}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        _write(table, tmp, N_FILES)
        gen_s = time.monotonic() - t0
        try:
            os.rename(tmp, dest)
        except OSError:  # another run won the race; its copy is equal
            shutil.rmtree(tmp, ignore_errors=True)
    files = sorted(os.path.join(dest, f) for f in os.listdir(dest)
                   if f.endswith(".parquet"))
    r6_files = [
        i for i, f in enumerate(files)
        if any(_is_costly_r6(p or b"") for p in
               pq.read_table(f, columns=["html"]).column("html").to_pylist())]
    return {"dir": dest, "files": files, "rows": n, "gen_s": gen_s,
            "r6_files": r6_files}
