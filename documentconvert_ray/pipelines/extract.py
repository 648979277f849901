"""The flagship extraction job: read → sniff+HTML → PDF → write, with
per-shard lineage manifests and resume.

Lifecycle mapping (SURVEY.md §3.4): the reference's API/poller/worker
machinery collapses into one lazy Dataset pipeline; its DB-backed
status/retry/recovery collapses into the manifest protocol in
``state/manifest.py``. Launched via ``ray job submit -- python -m
documentconvert_ray.run`` (north_rule: no service layer).

Scale notes (the 100 TB design; SURVEY.md §4.3):
- single linear stream — no branch re-execution, no mid-pipeline
  materialization; heavy payload bytes are dropped at the stage that
  consumes them;
- resumable unit = input fragment (shard); output is
  ``out/data/shard=<k>/`` so a rerun skips finished fragments — no
  all-to-all shuffle anywhere in the hot path;
- the url-hash ``part`` column (crc32(url) % P) is carried in the
  output for downstream bucketing / deterministic placement;
- the manifest pass re-reads only the (much smaller) extracted text,
  never the input payloads.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import ray.data

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..stages.extract import (
    OUTPUT_SCHEMA,
    PdfExtractor,
    SniffAndExtractHtml,
    quality_gate_batch,
    redact_pii_batch,
)
from ..state import manifest as mf


def expand_input_files(input_path: str | list[str],
                       suffix: str = ".parquet") -> list[str]:
    """Deterministic sorted list of input files for a path/dir/glob
    (``suffix=None`` lists EVERY file — the raw-document input mode).

    URI inputs (s3://, file:// — any pyarrow.fs scheme) are listed
    through the fs layer (reference S1-S3 semantics,
    s3_download_service.py:102-209) and returned as full URIs, which
    ``ray.data.read_parquet`` consumes natively."""
    if isinstance(input_path, list):
        files: list[str] = []
        for p in input_path:
            files.extend(expand_input_files(p, suffix=suffix))
        return sorted(set(files))
    if mf.is_uri(input_path):
        import pyarrow.fs as pafs

        fs, p = mf.fs_for(input_path)
        scheme = input_path.split("://", 1)[0]
        info = fs.get_file_info(p)
        if info.type == pafs.FileType.File:
            return [input_path]
        try:
            infos = fs.get_file_info(pafs.FileSelector(p, recursive=True))
        except (OSError, FileNotFoundError):
            return []
        return sorted(
            f"{scheme}://{i.path}" for i in infos
            if i.type == pafs.FileType.File
            and (suffix is None or i.path.endswith(suffix))
        )
    if os.path.isdir(input_path):
        pat = "*" if suffix is None else f"*{suffix}"
        files = [f for f in glob.glob(os.path.join(input_path, "**", pat),
                                      recursive=True) if os.path.isfile(f)]
    else:
        files = glob.glob(input_path) or [input_path]
    return sorted(files)


def _stage_files(input_path: str | list[str], out_dir: str, parse,
                 files_per_task: int = 1, suffixes=None) -> list[str]:
    """One streaming pass from input files (every file under
    ``input_path``, or those ending in one of ``suffixes``) to corpus-
    schema parquet shards: ``read_binary_files`` with one read task per
    ``files_per_task`` files (no shuffle; payload bytes go straight
    from reader task to its output shard) → ``parse`` per Arrow batch
    → ``write_parquet``. Returns the staged parquet paths."""
    paths = [p for p in expand_input_files(input_path, suffix=None)
             if suffixes is None or p.endswith(suffixes)]
    if not paths:
        return []
    filesystem = None
    read_paths = paths
    if mf.is_uri(paths[0]):
        filesystem, _ = mf.fs_for(paths[0])
        read_paths = [mf.fs_for(p)[1] for p in paths]
    ds = ray.data.read_binary_files(
        read_paths,
        filesystem=filesystem,
        include_paths=True,
        override_num_blocks=max(1, len(read_paths) // files_per_task),
    )
    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(parse, batch_format="pyarrow").write_parquet(out_dir)
    return expand_input_files(out_dir)


def stage_raw_files(input_path: str | list[str], out_dir: str,
                    files_per_shard: int = 512) -> list[str]:
    """The reference's ACTUAL input mode — a directory/bucket of raw
    document files (.pdf/.docx/.doc/.html/…; reference S1/S11/S13,
    s3_download_service.py:102-209 + batch directory loops M6/M7) —
    staged into corpus-schema parquet shards that the shard-resumable
    main job consumes unchanged.

    One streaming pass (``_stage_files``, one read task per
    ``files_per_shard`` documents) → corpus rows (url = file URI;
    content-type comes from the SNIFFER downstream, never the
    extension — M1/M9 semantics). Returns the staged parquet paths."""
    import datetime as _dt

    # staged rows are a pure function of file path+bytes (fixed
    # timestamp): re-staging the same tree is byte-deterministic, so
    # the downstream config-fingerprint resume contract holds
    epoch = _dt.datetime(2024, 1, 1)

    def to_rows(b: pa.Table) -> pa.Table:
        fps = b.column("path").to_pylist()
        n = len(fps)
        return pa.Table.from_pydict({
            "url": pa.array(
                [p if mf.is_uri(p) else "file://" + p for p in fps],
                pa.string()),
            "warc_ts": pa.array([epoch] * n, pa.timestamp("us")),
            "html": b.column("bytes"),
            "text": pa.array([""] * n, pa.string()),
            "lang": pa.array([""] * n, pa.string()),
        })

    return _stage_files(input_path, out_dir, to_rows,
                        files_per_task=files_per_shard)


def stage_warc_files(input_path: str | list[str], out_dir: str) -> list[str]:
    """Crawl-native input: `.warc` / `.warc.gz` archive shards →
    corpus-schema parquet shards (then the normal shard-resumable job
    runs unchanged). One read task per archive file — WARC is not
    splittable mid-record without an external index, so the archive
    shard is the parallelism unit (keep shards 0.1-1 GB, the
    Common-Crawl layout); parsing (gzip member split, WARC headers,
    HTTP envelope strip + dechunk) is a stateless map_batches. See
    sources/warc.py."""
    from ..sources.warc import warc_batch_to_rows

    return _stage_files(input_path, out_dir, warc_batch_to_rows,
                        suffixes=(".warc", ".warc.gz"))


def stage_jsonl_files(input_path: str | list[str], out_dir: str) -> list[str]:
    """JSON-Lines input: `.jsonl` / `.jsonl.gz` dump shards → corpus-
    schema parquet shards (then the normal shard-resumable job runs
    unchanged). Same scale contract as the WARC leg — one read task
    per shard file (gzip'd JSONL is not splittable mid-stream; keep
    shards 0.1-1 GB), stateless map_batches parse, malformed lines
    skipped not raised. Field contract in sources/jsonl.py."""
    from ..sources.jsonl import jsonl_batch_to_rows

    return _stage_files(input_path, out_dir, jsonl_batch_to_rows,
                        suffixes=(".jsonl", ".jsonl.gz"))


def build_extract_ds(
    input_files: list[str],
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    include_shard: bool = False,
    shard_of_path: dict[str, int] | None = None,
) -> ray.data.Dataset:
    """Lazy Dataset of extraction results (OUTPUT_SCHEMA [+ shard])."""
    if shard_of_path:
        # include_paths reports the fs-local path (no scheme); key the
        # shard map under both spellings so URI inputs resolve
        norm = dict(shard_of_path)
        for p, s in list(shard_of_path.items()):
            if mf.is_uri(p):
                norm[p.split("://", 1)[1]] = s
                norm["/" + p.split("://", 1)[1]] = s
        shard_of_path = norm
    filesystem = None
    read_paths = input_files
    if input_files and mf.is_uri(input_files[0]):
        # resolve the scheme once and hand Ray the fs + fs-local paths
        filesystem, _ = mf.fs_for(input_files[0])
        read_paths = [mf.fs_for(p)[1] for p in input_files]
    ds = ray.data.read_parquet(
        read_paths,
        filesystem=filesystem,
        columns=["url", "warc_ts", "html", "lang"],  # prune: `text` unused
        include_paths=include_shard,
        # one read task per input shard: without this Ray inserts a
        # SplitBlocks op (to hit its min-block-count heuristic) and
        # reads in more, smaller tasks.
        override_num_blocks=max(1, len(read_paths)),
    )
    # Every stage below is a stateless task stage with default
    # resources and batch_size=None, so Ray fuses the read, stage 1,
    # both PDF legs and run_extract_job's ShardWriter into ONE
    # operator: each task reads one input shard and writes it, and no
    # input block is ever materialized in the object store. Keep the
    # read fused: as a second operator it took half the CPUs under
    # Ray's per-operator reservation, and with the reservation off it
    # ran ahead of extraction and spilled inputs larger than the
    # object store to disk. Keep it actor-free: an actor pool holds
    # its CPUs until the Dataset is garbage-collected, and under
    # num_cpus=1 it takes the CPU the read needs (deadlock).
    # batch_size=None → whole read blocks: payload bytes are consumed
    # block-at-a-time, never re-sliced into small batches
    ds = ds.map_batches(
        SniffAndExtractHtml(cfg, shard_of_path if include_shard else None),
        batch_format="pyarrow",
        batch_size=None,
    )
    ds = ds.map_batches(
        PdfExtractor(cfg),
        batch_format="pyarrow",
        # a batch_size here would keep Ray from fusing the read into
        # this operator; PdfExtractor slices by cfg.pdf_batch_size
        batch_size=None,
    )
    # Elephant leg (SURVEY.md §4.3.2): oversized PDFs arrive as
    # single-row blocks from the stage above (batch_size=None keeps
    # that granularity), after the rest of their batch has moved on;
    # for every other block it is a null-check pass-through. It stays
    # fused: an operator boundary here gave no gain with four planted
    # 1-2.7 MB PDFs (Ray hands a task's output blocks to ONE
    # downstream task, so elephants never got a task each anyway).
    ds = ds.map_batches(
        PdfExtractor(cfg, elephant_leg=True),
        batch_format="pyarrow",
        batch_size=None,
    )
    if cfg.redact_pii:
        # opt-in PII scrub of the extracted markdown (semantic config:
        # part of the manifest fingerprint, so redacted and unredacted
        # runs never cross-resume)
        ds = ds.map_batches(
            redact_pii_batch, batch_format="pyarrow", batch_size=None)
    if cfg.min_quality_tokens > 0:
        # opt-in quality gate AFTER redaction (token count of the
        # final payload); semantic config like redact_pii — gated and
        # ungated runs never cross-resume
        mq = cfg.min_quality_tokens
        ds = ds.map_batches(
            lambda b, _m=mq: quality_gate_batch(b, _m),
            batch_format="pyarrow", batch_size=None)
    return ds


class ShardWriter:
    """Terminal stage: writes each batch into its shard's directory and
    emits per-(batch, shard) stats partials as its (tiny) output — the
    write and the manifest statistics are ONE pass over the data, no
    re-read (a generic ``write_parquet(partition_cols=…)`` + stats
    re-scan measured ~3× the core pipeline time at 32 CPUs).

    Idempotent under Ray task retries: the output filename is a pure
    function of the batch content — a SEQUENTIAL sha256 over every
    (url, text_sha256) row of the slice (collision-resistant; an XOR
    fold would let duplicate rows cancel pairwise), so two distinct
    blocks can never share a name: a retried task atomically replaces
    its own file, never duplicates rows.

    Durability ordering: the data tmp file is fsynced before the
    rename, and the shard directory is fsynced after it, so a shard's
    data is on disk BEFORE its manifest (write_manifest fsyncs the
    manifest) — a crash can leave an orphan data file (cleaned by
    clean_partial_shards) but never a manifest that points at
    lost data.
    """

    def __init__(self, out_dir: str, fmt: str = "parquet") -> None:
        if fmt not in ("parquet", "jsonl"):
            raise ValueError(f"unknown output format {fmt!r}")
        self.out_dir = out_dir
        self.fmt = fmt

    @staticmethod
    def _jsonl_bytes(sub: pa.Table) -> bytes:
        """Serialize a shard slice as gzip'd JSON Lines — binary image
        payloads base64-encode, timestamps render ISO-8601, key order
        follows OUTPUT_SCHEMA. mtime=0 in the gzip header keeps the
        bytes a pure function of the rows (same idempotent-retry
        contract as the content-addressed parquet leg)."""
        import base64
        import gzip
        import io
        import json as _json

        cols = [f.name for f in OUTPUT_SCHEMA]
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
            for row in sub.to_pylist():
                ts = row.get("warc_ts")
                if ts is not None:
                    row["warc_ts"] = ts.isoformat()
                for im in row.get("images") or []:
                    if im.get("data") is not None:
                        im["data"] = base64.b64encode(
                            im["data"]).decode("ascii")
                gz.write(_json.dumps(
                    {k: row[k] for k in cols}, ensure_ascii=False,
                    sort_keys=False).encode("utf-8"))
                gz.write(b"\n")
        return buf.getvalue()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib as _h

        import pyarrow.parquet as _pq

        shard_col = batch.column("shard").to_pylist()
        data = batch.drop_columns(["shard"])
        # normalize column order: upstream pass-through vs rebuilt
        # blocks differ, and every parquet file in a shard dir must
        # carry the same schema
        data = data.select([f.name for f in OUTPUT_SCHEMA])
        ext = ".parquet" if self.fmt == "parquet" else ".jsonl.gz"
        out_parts: list[pa.Table] = []
        for sid in sorted(set(shard_col)):
            mask = pa.array([s == sid for s in shard_col])
            sub = data.filter(mask)
            d = mf.shard_data_dir(self.out_dir, sid)
            hh = _h.sha256()
            for u, s in zip(sub.column("url").to_pylist(),
                            sub.column("text_sha256").to_pylist()):
                hh.update(u.encode())
                hh.update(b"\x00")
                hh.update(s.encode())
                hh.update(b"\x01")
            stem = hh.hexdigest()[:16]
            final = os.path.join(d, f"part-{stem}{ext}")
            if mf.is_uri(self.out_dir):
                # object stores: per-object atomic PUT, no rename/fsync
                fs, p = mf.fs_for(final)
                fs.create_dir(mf.fs_for(d)[1], recursive=True)
                if self.fmt == "parquet":
                    _pq.write_table(sub, p, filesystem=fs)
                else:
                    # compression=None: the payload is ALREADY gzip —
                    # pyarrow's default 'detect' would re-gzip by the
                    # .gz extension (double-compressed artifacts)
                    with fs.open_output_stream(p, compression=None) as f:
                        f.write(self._jsonl_bytes(sub))
            else:
                os.makedirs(d, exist_ok=True)
                tmp = final + f".tmp-{os.getpid()}"
                if self.fmt == "parquet":
                    _pq.write_table(sub, tmp)
                else:
                    with open(tmp, "wb") as f:
                        f.write(self._jsonl_bytes(sub))
                with open(tmp, "rb") as f:
                    os.fsync(f.fileno())
                os.replace(tmp, final)
                dfd = os.open(d, os.O_RDONLY)
                try:
                    os.fsync(dfd)
                finally:
                    os.close(dfd)
            out_parts.append(_stats_partials(sub, sid))
        return pa.concat_tables(out_parts)


def _stats_partials(batch: pa.Table, shard_id: int) -> pa.Table:
    """One shard-slice of a batch → one partial-stats row.

    The content digest is a SUM (mod 2^256) of per-row
    sha256(url || text_sha256) — order-insensitive and mergeable like
    an XOR fold, but duplicate rows cannot cancel pairwise (h+h ≠ 0),
    so a digest match certifies the multiset of rows (SURVEY.md §2.5:
    mergeable partial aggregation before the tiny final combine)."""
    import hashlib as _h

    shards = [shard_id] * batch.num_rows
    urls = batch.column("url").to_pylist()
    shas = batch.column("text_sha256").to_pylist()
    oks = batch.column("ok").to_pylist()
    kinds = batch.column("error_kind").to_pylist()
    md_lens = batch.column("n_md_bytes").to_pylist()

    acc: dict[int, dict] = {}
    for i, sid in enumerate(shards):
        a = acc.setdefault(
            sid,
            {"rows": 0, "ok": 0, "errors": 0, "out_md_bytes": 0,
             "digest": 0, "by_error_kind": {}},
        )
        a["rows"] += 1
        if oks[i]:
            a["ok"] += 1
        else:
            a["errors"] += 1
            k = kinds[i] or "unknown"
            a["by_error_kind"][k] = a["by_error_kind"].get(k, 0) + 1
        a["out_md_bytes"] += md_lens[i]
        h = _h.sha256((urls[i] + "\x00" + shas[i]).encode()).hexdigest()
        a["digest"] = (a["digest"] + int(h, 16)) % (1 << 256)

    import json as _json

    return pa.Table.from_pydict(
        {
            "shard": pa.array(list(acc.keys()), pa.int32()),
            "rows": pa.array([a["rows"] for a in acc.values()], pa.int64()),
            "ok": pa.array([a["ok"] for a in acc.values()], pa.int64()),
            "errors": pa.array([a["errors"] for a in acc.values()], pa.int64()),
            "out_md_bytes": pa.array(
                [a["out_md_bytes"] for a in acc.values()], pa.int64()
            ),
            "digest_hex": pa.array(
                [f"{a['digest']:064x}" for a in acc.values()], pa.string()
            ),
            "by_error_kind": pa.array(
                [_json.dumps(a["by_error_kind"], sort_keys=True)
                 for a in acc.values()],
                pa.string(),
            ),
        }
    )


def _url_projection(batch: pa.Table) -> pa.Table:
    """Pass-1 projection for the url-dedup: ONLY (url, ts_us, crc,
    sha) — payload bytes never enter the shuffle."""
    import hashlib
    import zlib

    payloads = batch.column("html").to_pylist()
    return pa.Table.from_pydict(
        {"url": batch.column("url"),
         "ts_us": batch.column("warc_ts").cast(pa.int64()),
         "crc": pa.array([zlib.crc32(p or b"") for p in payloads], pa.int64()),
         "sha": pa.array([hashlib.sha256(p or b"").hexdigest()
                          for p in payloads], pa.string())}
    )


def _bucket_dup_winners(g):
    """One url-hash bucket of projection rows → one row per DUPLICATED
    url: its winner key (min (ts_us, crc, sha)) and the winner key's
    multiplicity (k_winner > 1 ⟺ byte-identical rows tie)."""
    import pandas as pd

    g = g.sort_values(["url", "ts_us", "crc", "sha"], kind="mergesort")
    sizes = g.groupby("url")["url"].transform("size")
    dups = g[sizes > 1]
    if dups.empty:
        return pd.DataFrame(
            {"url": pd.Series(dtype="object"),
             "ts_us": pd.Series(dtype="int64"),
             "crc": pd.Series(dtype="int64"),
             "sha": pd.Series(dtype="object"),
             "k_winner": pd.Series(dtype="int64")})
    win = dups.drop_duplicates("url", keep="first")[
        ["url", "ts_us", "crc", "sha"]]
    k = (
        dups.merge(win, on=["url", "ts_us", "crc", "sha"], how="inner")
        .groupby("url").size()
    )
    win = win.assign(k_winner=win["url"].map(k).astype("int64"))
    return win.reset_index(drop=True)


def dedup_input_urls(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Input-hygiene exact url-dedup (SURVEY.md §2.7 — not in the
    reference; off the hot path by design): keep ONE row per url,
    deterministically — the earliest ``warc_ts``, ties broken by
    ``crc32(html)`` then ``sha256(html)``, so the winner is independent
    of row order, batch size, and partition count.

    Scale shape (VERDICT r1 #4 — payload bytes never shuffle):

    1. projection pass: only (url, ts_us, crc, sha) rows enter a
       size-derived url-hash-bucketed groupby; each bucket emits the
       winner key per DUPLICATED url (tiny: O(dup urls));
    2. the dup-winner table is the broadcast small side (its size is
       bounded by the duplication rate, not the corpus — input-hygiene
       assumption; a corpus that is mostly duplicates would use a
       url-bucketed full shuffle instead);
    3. streaming filter pass: rows of unique urls pass through
       untouched, rows of duplicated urls pass iff they match their
       url's winner key;
    4. only when a winner key is byte-identical across ≥2 rows
       (k_winner > 1: same url+ts+payload) does a second tiny scan
       route JUST those urls' rows through a bucketed pick-one groupby
       — the only place payload rows can shuffle, and only for that
       degenerate slice.

    Run as a PREP pass that writes a deduped corpus copy; the
    shard-resumable extract job then runs on stable input (cross-shard
    dedup inside the job would break per-shard manifest
    independence)."""
    import zlib

    from ..stages.dedup import bucketed_close

    n_rows = ds.count()
    winners = bucketed_close(
        ds, "url", _bucket_dup_winners, rows=n_rows,
        partial=_url_projection, batch_size=None,
    ).to_pandas()  # small side: one row per duplicated url
    dup_key = {
        u: (int(t), int(c), s)
        for u, t, c, s in zip(winners["url"], winners["ts_us"],
                              winners["crc"], winners["sha"])
    }
    needs_pick = frozenset(
        winners.loc[winners["k_winner"] > 1, "url"]
    )
    dup_ref = ray.put((dup_key, needs_pick))

    def keep_winners(batch: pa.Table) -> pa.Table:
        import hashlib

        from ..stages.similarity import resolve_broadcast

        dups, picks = resolve_broadcast(dup_ref, key="url-dedup")
        urls = batch.column("url").to_pylist()
        mask = [True] * len(urls)
        ts = None
        payloads = None
        for i, u in enumerate(urls):
            key = dups.get(u)
            if key is None:
                continue
            if u in picks:
                mask[i] = False  # handled by the pick pass
                continue
            if ts is None:
                ts = batch.column("warc_ts").cast(pa.int64()).to_pylist()
                payloads = batch.column("html").to_pylist()
            p = payloads[i] or b""
            row_key = (ts[i], zlib.crc32(p),
                       hashlib.sha256(p).hexdigest())
            mask[i] = row_key == key
        return batch.filter(pa.array(mask))

    main = ds.map_batches(keep_winners, batch_format="pyarrow",
                          batch_size=None)
    if not needs_pick:
        return main

    def only_picks(batch: pa.Table) -> pa.Table:
        from ..stages.similarity import resolve_broadcast

        _dups, picks = resolve_broadcast(dup_ref, key="url-dedup")
        urls = batch.column("url").to_pylist()
        return batch.filter(pa.array([u in picks for u in urls]))

    def pick_one(df):
        import hashlib

        df = df.copy()
        df["_crc"] = [zlib.crc32(p or b"") for p in df["html"]]
        df["_sha"] = [hashlib.sha256(p or b"").hexdigest()
                      for p in df["html"]]
        df = df.sort_values(["url", "warc_ts", "_crc", "_sha"],
                            kind="mergesort").drop_duplicates("url")
        return df.drop(columns=["bucket", "_crc", "_sha"])

    picked = bucketed_close(ds, "url", pick_one, rows=n_rows,
                            partial=only_picks, batch_size=None)
    return main.union(picked)


def run_extract_job(
    input_path: str | list[str],
    out_dir: str,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    *,
    resume: bool = True,
    stats_sink=None,
) -> dict:
    """Run (or resume) the extraction job; returns global metrics.

    Requires an initialized Ray session (owned by the caller)."""
    import json as _json

    _EMPTY = {"rows": 0, "ok": 0, "errors": 0, "out_md_bytes": 0,
              "by_error_kind": {}, "shards": 0,
              "resumed_shards": 0, "processed_shards": 0}
    files = expand_input_files(input_path)
    if isinstance(input_path, str) and not mf.is_uri(input_path):
        if files == [input_path] and not os.path.exists(input_path):
            raise FileNotFoundError(f"no input parquet at {input_path}")
        if not any(os.path.exists(f) for f in files):
            # empty input dir/glob: a valid no-op run, not a crash
            return dict(_EMPTY)
    elif not files:
        # URI input: distinguish a typo'd path (error, like the local
        # FileNotFoundError branch) from an existing-but-empty prefix
        # (valid no-op)
        if isinstance(input_path, str):
            import pyarrow.fs as _pafs

            fs, p = mf.fs_for(input_path)
            if fs.get_file_info(p).type == _pafs.FileType.NotFound:
                # NOTE: on object stores an empty prefix with no marker
                # object is indistinguishable from a typo; a loud
                # failure beats a silent successful no-op on a
                # misconfigured path. Callers with legitimately-empty
                # prefixes should create the prefix (marker object) or
                # pass an explicit empty file list.
                raise FileNotFoundError(
                    f"no input at {input_path} (path does not exist; "
                    "for object stores, an empty prefix without a "
                    "marker object also reports as missing)")
        return dict(_EMPTY)
    shards = mf.shard_map(files)
    fp = cfg.fingerprint()

    done = mf.completed_shards(out_dir, shards, fp) if resume else set()
    todo = {p: s for p, s in shards.items() if s not in done}

    if todo:
        mf.clean_partial_shards(out_dir, set(todo.values()))
        ds = build_extract_ds(
            list(todo), cfg, include_shard=True, shard_of_path=shards)
        # single pass: ShardWriter writes the data AND returns the
        # partial stats; the consumed result is one tiny row per
        # (block, shard), never the data itself
        stats_ds = ds.map_batches(
            ShardWriter(out_dir, fmt=cfg.output_format),
            batch_format="pyarrow", batch_size=None
        )
        # The job is one operator (the read fused in) whose only
        # outputs are these partials, so Ray's per-operator reservation
        # has no bytes to budget here. With it on, the executor submits
        # a task only after it sees one finish, and it polls for that
        # every 0.1 s: CPUs idle between the short extraction tasks.
        # Off, Ray queues every task and a freed CPU takes the next at
        # once. Set on the context this job's Datasets share; the
        # caller's DataContext and every other Dataset keep Ray's
        # default.
        stats_ds.context.op_resource_reservation_enabled = False

        # Commit each shard as soon as all of its rows are written: one
        # output row per input row (failures are rows too), so a shard
        # is complete once its folded partials reach its input's row
        # count from the parquet footer. A crash later in the job then
        # keeps every shard committed before it.
        import pyarrow.parquet as _pq

        in_rows = {}
        for p, sid in todo.items():
            fs, local = mf.fs_for(p)
            in_rows[sid] = _pq.read_metadata(local, filesystem=fs).num_rows
        path_of_shard = {s: p for p, s in shards.items()}
        folded: dict[int, dict] = {}
        committed: set[int] = set()

        def commit(sid: int, a: dict) -> None:
            mf.write_manifest(
                out_dir,
                sid,
                {
                    "input_file": path_of_shard[sid],
                    "config_fingerprint": fp,
                    "rows": a["rows"],
                    "ok": a["ok"],
                    "errors": a["errors"],
                    "out_md_bytes": a["out_md_bytes"],
                    "content_digest": f"{a['digest']:064x}",
                    "by_error_kind": a["by_error_kind"],
                },
            )
            committed.add(sid)

        def empty() -> dict:
            return {"rows": 0, "ok": 0, "errors": 0, "out_md_bytes": 0,
                    "digest": 0, "by_error_kind": {}}

        # tiny: one row per (block, shard)
        for r in stats_ds.iter_rows():
            sid = int(r["shard"])
            a = folded.setdefault(sid, empty())
            a["rows"] += int(r["rows"])
            a["ok"] += int(r["ok"])
            a["errors"] += int(r["errors"])
            a["out_md_bytes"] += int(r["out_md_bytes"])
            a["digest"] = (a["digest"] + int(r["digest_hex"], 16)) % (1 << 256)
            for k, v in _json.loads(r["by_error_kind"]).items():
                a["by_error_kind"][k] = a["by_error_kind"].get(k, 0) + v
            if a["rows"] == in_rows[sid]:
                commit(sid, a)
        if stats_sink is not None:
            stats_sink(stats_ds.stats())
        # shards whose input had zero rows still need a manifest
        for sid in sorted(in_rows):
            if sid not in committed:
                commit(sid, folded.get(sid, empty()))

    metrics = mf.aggregate_metrics(out_dir, shards)
    metrics["resumed_shards"] = len(done)
    metrics["processed_shards"] = len(todo)
    return metrics
