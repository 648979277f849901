"""Traced run: per-layer metrics, measured from outside each layer.

In-process, on the workload's inputs, in this order: the kernels
(``functions.sniff``, ``functions.html_extract``,
``functions.pdf_extract``, the office kernels), the two stage classes
(``SniffAndExtractHtml``, ``PdfExtractor``), ``ShardWriter`` and the
manifest functions (``state.manifest``). Then one Ray job in a session
of its own, for the operator readings of ``ds.stats()``. Spans (name,
start, end, parent) stay in memory and are written to one JSON-lines
file when the run ends.
"""

from __future__ import annotations

import collections
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.parquet as pq
from documentconvert_ray.config import DEFAULT_CONFIG
from documentconvert_ray.functions.doc_extract import extract_ole2
from documentconvert_ray.functions.html_extract import extract_html
from documentconvert_ray.functions.office_extract import extract_docx
from documentconvert_ray.functions.pdf_extract import extract_pdf
from documentconvert_ray.functions.rtf_extract import extract_rtf
from documentconvert_ray.functions.sniff import (
    GZIP_MAGIC,
    gunzip_payload,
    sniff_doc_type,
)
from documentconvert_ray.pipelines.extract import ShardWriter, run_extract_job
from documentconvert_ray.stages.extract import PdfExtractor, SniffAndExtractHtml
from documentconvert_ray.state import manifest as mf

import check
import session

ERROR_KINDS = ("truncated_pdf", "encrypted_pdf", "office_unsupported",
               "office_truncated", "unsupported")
DOC_TYPES = ("html", "pdf", "office", "other")
# the stage overheads are differences of two timed passes, so they need
# several rounds for their median to rise above host noise
MIN_ROUNDS = 4


class Spans:
    """In-memory span recorder; one process, one thread."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.rows: list[dict] = []
        self.stack: list[int] = []

    def add(self, name: str, t0: float, t1: float, **attrs) -> int:
        self.rows.append({"id": len(self.rows), "name": name,
                          "parent": self.stack[-1] if self.stack else None,
                          "start": t0 - self.origin, "end": t1 - self.origin,
                          **attrs})
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self.add(name, time.perf_counter(), 0.0, **attrs)
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            self.rows[sid]["end"] = time.perf_counter() - self.origin

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w") as f:
            for r in self.rows:
                f.write(json.dumps(r) + "\n")
        os.replace(tmp, path)


def _office_kernel(raw: bytes):
    """The office kernel SniffAndExtractHtml picks for these bytes."""
    if raw.startswith(b"\xd0\xcf\x11\xe0"):
        return extract_ole2
    if raw.startswith(b"{\\rtf"):
        return extract_rtf
    return extract_docx


def _kernels(spans: Spans, tables: list, cfg) -> dict:
    """Every kernel once per input row, without Ray. Per-file and
    per-url kernel seconds feed the stage overheads below."""
    k = {"sniff_s": 0.0, "stage1_s_of_file": [], "pdf_s_of_url": {},
         "secs": collections.Counter(), "docs": collections.Counter(),
         "inner_bytes": collections.Counter(),
         "rows": collections.Counter(), "bytes": collections.Counter()}
    pc = time.perf_counter
    for t in tables:
        stage1_s = 0.0
        for url, raw in zip(t.column("url").to_pylist(),
                            t.column("html").to_pylist()):
            raw = raw or b""
            stored = len(raw)
            t0 = pc()
            if raw[:2] == GZIP_MAGIC:
                inner, _ = gunzip_payload(raw, cfg.max_gunzip_bytes)
                raw = inner if inner is not None else b""
            dt = sniff_doc_type(raw)
            t1 = pc()
            spans.add("sniff", t0, t1)
            k["sniff_s"] += t1 - t0
            stage1_s += t1 - t0
            k["rows"][dt] += 1
            k["bytes"][dt] += stored
            if dt == "html":
                fn, layer = extract_html, "html_extract"
            elif dt == "pdf":
                fn, layer = extract_pdf, "pdf_extract"
            elif dt == "office":
                fn, layer = _office_kernel(raw), "office_extract"
            else:
                continue
            t0 = pc()
            fn(raw, cfg)
            t1 = pc()
            spans.add(layer, t0, t1, bytes=len(raw))
            k["secs"][layer] += t1 - t0
            k["docs"][layer] += 1
            k["inner_bytes"][layer] += len(raw)
            if layer == "pdf_extract":
                k["pdf_s_of_url"][url] = t1 - t0
            else:
                stage1_s += t1 - t0
        k["stage1_s_of_file"].append(stage1_s)
    return k


def _stages(spans: Spans, tables: list, files: list, kern: dict, cfg,
            out_dir: str) -> dict:
    """The stage classes, ShardWriter and the manifest functions, as
    the pipeline chains them, on the same inputs."""
    pc = time.perf_counter
    shards = mf.shard_map(files)
    stage1 = SniffAndExtractHtml(cfg, shards)
    s = {"stage1_s": 0.0, "stage1_over_s": 0.0, "pdf_over_s": 0.0,
         "writer_s": 0.0}
    firsts = []
    for path, t, kern_s in zip(files, tables, kern["stage1_s_of_file"]):
        batch = t.select(["url", "warc_ts", "html", "lang"]).append_column(
            "path", pa.array([path] * t.num_rows, pa.string()))
        t0 = pc()
        firsts.append(stage1(batch))
        t1 = pc()
        spans.add("stage_html", t0, t1, rows=t.num_rows)
        s["stage1_s"] += t1 - t0
        s["stage1_over_s"] += (t1 - t0) - kern_s
    mid = pa.concat_tables(firsts)

    pdf = PdfExtractor(cfg)
    elephant = PdfExtractor(cfg, elephant_leg=True)
    writer = ShardWriter(out_dir, fmt=cfg.output_format)
    partials = []
    for start in range(0, mid.num_rows, cfg.pdf_batch_size):
        b = mid.slice(start, cfg.pdf_batch_size)
        kern_s = sum(kern["pdf_s_of_url"].get(u, 0.0)
                     for u in b.column("url").to_pylist())
        t0 = pc()
        outs = list(pdf(b))
        t1 = pc()
        spans.add("stage_pdf", t0, t1, rows=b.num_rows)
        s["pdf_over_s"] += (t1 - t0) - kern_s
        for o in outs:
            for tail in elephant(o):
                t0 = pc()
                partials.append(writer(tail))
                t1 = pc()
                spans.add("writer", t0, t1, rows=tail.num_rows)
                s["writer_s"] += t1 - t0

    # the manifest pass of run_extract_job: fold partials per shard,
    # write one manifest each, then the resume and metrics reads
    folded: dict[int, dict] = {}
    for p in partials:
        for r in p.to_pylist():
            a = folded.setdefault(r["shard"], {"rows": 0, "ok": 0,
                                               "errors": 0, "digest": 0})
            a["rows"] += r["rows"]
            a["ok"] += r["ok"]
            a["errors"] += r["errors"]
            a["digest"] = (a["digest"] + int(r["digest_hex"], 16)) % (1 << 256)
    path_of = {sid: p for p, sid in shards.items()}
    fp = cfg.fingerprint()
    with spans.span("manifest.write"):
        t0 = pc()
        for sid, a in sorted(folded.items()):
            mf.write_manifest(out_dir, sid, {
                "input_file": path_of[sid], "config_fingerprint": fp,
                "rows": a["rows"], "ok": a["ok"], "errors": a["errors"],
                "content_digest": f"{a['digest']:064x}"})
        s["manifest_write_s"] = (pc() - t0) / max(1, len(folded))
    with spans.span("manifest.completed_shards"):
        t0 = pc()
        done = mf.completed_shards(out_dir, shards, fp)
        s["manifest_completed_s"] = pc() - t0
    with spans.span("manifest.aggregate_metrics"):
        t0 = pc()
        s["metrics"] = mf.aggregate_metrics(out_dir, shards)
        s["manifest_aggregate_s"] = pc() - t0
    s["all_done"] = len(done) == len(files)
    return s


def traced_run(args, corpus: dict, exp):
    cfg = DEFAULT_CONFIG
    spans = Spans()
    tally = session.Tally()
    files, rows = corpus["files"], corpus["rows"]
    tables = [pq.read_table(f) for f in files]

    # in-process rounds until --seconds have passed, at least MIN_ROUNDS:
    # the first is a warm-up (lazy tables such as the AES T-tables are
    # built on first use) and is left out of the medians
    rounds = []
    deadline = time.monotonic() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.monotonic() < deadline:
        with spans.span("round", index=len(rounds), warm_up=not rounds):
            with spans.span("kernels"):
                kern = _kernels(spans, tables, cfg)
            out = session.fresh_dir("layers")
            with spans.span("stages"):
                st = _stages(spans, tables, files, kern, cfg, out)
        failed = check.check_output(exp, out, st["metrics"])
        if not st["all_done"]:
            failed = set(exp.by_url)
        tally.add(rows, len(failed))
        rounds.append((kern, st))

    # one Ray job for the operator view
    digests = check.load_fixture_digests(session.ROOT)
    with spans.span("setup"):
        session.setup(digests, tally)
    session.quiesce()
    out = session.fresh_dir("job")
    stats: list[str] = []
    with spans.span("job"):
        t0 = time.monotonic()
        m = run_extract_job(files, out, cfg, resume=False,
                            stats_sink=stats.append)
        wall = time.monotonic() - t0
    session.stop_session()
    tally.add(rows, len(check.check_output(exp, out, m)))
    ops = session.op_roles(session.parse_stats(stats[0]))
    op_cpu = sum(v["cpu_s"] for v in ops.values())

    def med(f):
        return statistics.median(f(k, s) for k, s in rounds[1:])

    def per_doc(layer, scale):
        return med(lambda k, s: k["secs"][layer] / k["docs"][layer] * scale
                   if k["docs"][layer] else 0.0)

    def mb_per_s(layer):
        return med(lambda k, s: k["inner_bytes"][layer] / k["secs"][layer]
                   / 1e6 if k["secs"][layer] else 0.0)

    kern_docs_per_s_core = med(
        lambda k, s: rows / (k["sniff_s"] + sum(k["secs"].values())))
    kern0 = rounds[0][0]
    by_kind = m.get("by_error_kind", {})
    metrics = {
        "sniff.us_per_doc": med(lambda k, s: k["sniff_s"] / rows * 1e6),
        "html_extract.ms_per_doc": per_doc("html_extract", 1e3),
        "html_extract.mb_per_s": mb_per_s("html_extract"),
        "pdf_extract.ms_per_doc": per_doc("pdf_extract", 1e3),
        "pdf_extract.mb_per_s": mb_per_s("pdf_extract"),
        "office_extract.ms_per_doc": per_doc("office_extract", 1e3),
        "kernel.docs_per_s_core": kern_docs_per_s_core,
        "stage_html.ms_per_doc": med(lambda k, s: s["stage1_s"] / rows * 1e3),
        "stage_html.overhead_ms_per_doc":
            med(lambda k, s: s["stage1_over_s"] / rows * 1e3),
        "stage_pdf.overhead_ms_per_krow":
            med(lambda k, s: s["pdf_over_s"] / rows * 1e6),
        "writer.ms_per_krow": med(lambda k, s: s["writer_s"] / rows * 1e6),
        "op.read_html.cpu_s": ops["read_html"]["cpu_s"],
        "op.pdf_pool.cpu_s": ops["pdf_pool"]["cpu_s"],
        "op.tail_write.cpu_s": ops["tail_write"]["cpu_s"],
        "op.read_html.tasks": ops["read_html"]["tasks"],
        "pipeline.utilization": op_cpu / (wall * session.RAY_CPUS),
        "pipeline.kernel_gap":
            (rows / wall) / (session.RAY_CPUS * kern_docs_per_s_core),
        "manifest.completed_ms":
            med(lambda k, s: s["manifest_completed_s"] * 1e3),
        "manifest.aggregate_ms":
            med(lambda k, s: s["manifest_aggregate_s"] * 1e3),
        "manifest.write_ms_per_shard":
            med(lambda k, s: s["manifest_write_s"] * 1e3),
    }
    for dt in DOC_TYPES:
        metrics[f"rows.{dt}"] = kern0["rows"][dt]
        metrics[f"bytes.{dt}"] = kern0["bytes"][dt]
    for kind in ERROR_KINDS:
        metrics[f"errors.{kind}"] = by_kind.get(kind, 0)
    metrics["errors.other"] = sum(v for kd, v in by_kind.items()
                                  if kd not in ERROR_KINDS)
    units = {n: _unit(n) for n in metrics}

    path = os.path.join(session.WORK, "traces",
                        f"{args.workload}-s{args.seed}.jsonl")
    spans.dump(path)
    print(f"spans: {len(spans.rows)} written to {path}; in-process "
          f"rounds: {len(rounds)}; job wall {wall:.3f} s", file=sys.stderr)
    return tally, metrics, units


def _unit(name: str) -> str:
    tail = name.rsplit(".", 1)[1]
    if name.startswith(("rows.", "errors.")) or tail == "tasks":
        return "count"
    if name.startswith("bytes."):
        return "bytes"
    return {"us_per_doc": "us/doc", "ms_per_doc": "ms/doc",
            "mb_per_s": "MB/s", "overhead_ms_per_doc": "ms/doc",
            "overhead_ms_per_krow": "ms/krow", "ms_per_krow": "ms/krow",
            "cpu_s": "s", "utilization": "ratio", "kernel_gap": "ratio",
            "docs_per_s_core": "docs/s", "completed_ms": "ms",
            "aggregate_ms": "ms", "write_ms_per_shard": "ms"}[tail]
