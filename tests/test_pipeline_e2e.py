"""E2E golden tests: full Ray pipeline vs frozen fixtures (FIXTURES.md §5).

Byte-identical text_md per url at any batch size / partition count,
row conservation, resume correctness, and a job that runs on one CPU
and frees every CPU when it returns — the operational form of the
north_rule's "byte-identical extracted text per url" invariant.
"""

import gc
import glob
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pyarrow.dataset as pads
import pytest

from conftest import CORPUS_DIR

from documentconvert_ray.config import ExtractConfig
from documentconvert_ray.pipelines.extract import (
    build_extract_ds,
    expand_input_files,
    run_extract_job,
)


def corpus_files():
    return expand_input_files(CORPUS_DIR)


def _check_against_fixtures(rows: dict, expected_by_url: dict):
    assert set(rows) == set(expected_by_url), "row conservation violated"
    for url, (ok, kind, md, sha, imgs) in expected_by_url.items():
        got = rows[url]
        assert got["ok"] == ok, (url, got["error_kind"], kind)
        assert got["error_kind"] == kind, (url, got["error_kind"], kind)
        assert got["text_sha256"] == sha, f"digest mismatch for {url}"
        assert got["text_md"] == md, f"byte mismatch for {url}"
        assert got["images"] == imgs, f"image payload mismatch for {url}"


def _collect(ds) -> dict:
    out = {}
    for batch in ds.iter_batches(batch_size=1000, batch_format="pyarrow"):
        for i in range(batch.num_rows):
            url = batch.column("url")[i].as_py()
            out[url] = {
                "ok": batch.column("ok")[i].as_py(),
                "error_kind": batch.column("error_kind")[i].as_py(),
                "text_md": batch.column("text_md")[i].as_py(),
                "text_sha256": batch.column("text_sha256")[i].as_py(),
                "spans": batch.column("spans")[i].as_py(),
                "images": batch.column("images")[i].as_py(),
            }
    return out


def test_e2e_default_config(ray_session, expected_by_url):
    ds = build_extract_ds(corpus_files())
    rows = _collect(ds)
    _check_against_fixtures(rows, expected_by_url)


@pytest.mark.parametrize("pdf_bs", [1, 3])
def test_e2e_batch_size_invariance(ray_session, expected_by_url, pdf_bs):
    cfg = ExtractConfig(pdf_batch_size=pdf_bs)
    ds = build_extract_ds(corpus_files(), cfg)
    rows = _collect(ds)
    _check_against_fixtures(rows, expected_by_url)


def test_part_column_is_url_hash(ray_session):
    """Every output row's `part` equals crc32(url) % num_partitions —
    the deterministic placement key (SURVEY.md §4.3.1)."""
    import zlib

    from documentconvert_ray.config import DEFAULT_CONFIG

    ds = build_extract_ds(corpus_files())
    for batch in ds.iter_batches(batch_size=500, batch_format="pyarrow"):
        urls = batch.column("url").to_pylist()
        parts = batch.column("part").to_pylist()
        for u, p in zip(urls, parts):
            assert p == zlib.crc32(u.encode()) % DEFAULT_CONFIG.num_partitions


def test_e2e_elephant_routing(ray_session, expected_by_url):
    """Skew leg: with a tiny elephant threshold every sizable PDF is
    re-routed through the single-row elephant leg — output must stay
    byte-identical (SURVEY.md §4.3.2)."""
    cfg = ExtractConfig(elephant_bytes=2000)
    ds = build_extract_ds(corpus_files(), cfg)
    rows = _collect(ds)
    _check_against_fixtures(rows, expected_by_url)


def test_spans_reconstruct_text(ray_session):
    ds = build_extract_ds(corpus_files())
    for batch in ds.iter_batches(batch_size=500, batch_format="pyarrow"):
        for i in range(batch.num_rows):
            md = batch.column("text_md")[i].as_py()
            spans = batch.column("spans")[i].as_py() or []
            prev_end = -2
            for s in spans:
                assert 0 <= s["start"] < s["end"] <= len(md)
                assert s["start"] > prev_end, "overlapping spans"
                seg = md[s["start"]:s["end"]]
                assert seg == seg.strip("\n")
                prev_end = s["end"]
            if spans:
                # spans + separators tile the whole string
                assert spans[0]["start"] == 0 and spans[-1]["end"] == len(md)


def test_job_resume_partial_manifest(ray_session, expected_by_url, tmp_path):
    out_dir = str(tmp_path / "out")
    m1 = run_extract_job(CORPUS_DIR, out_dir)
    assert m1["rows"] == len(expected_by_url)
    assert m1["processed_shards"] == len(corpus_files())

    # delete one manifest → exactly that shard recomputes
    manifests = sorted(glob.glob(os.path.join(out_dir, "_manifest", "*.json")))
    os.remove(manifests[1])
    shutil.rmtree(os.path.join(out_dir, "data", "shard=1"))
    m2 = run_extract_job(CORPUS_DIR, out_dir)
    assert m2["processed_shards"] == 1
    assert m2["resumed_shards"] == len(corpus_files()) - 1
    assert m2["rows"] == m1["rows"]

    # final output matches fixtures exactly
    t = pads.dataset(os.path.join(out_dir, "data"), partitioning="hive").to_table(
        columns=["url", "ok", "error_kind", "text_md", "text_sha256",
                 "images"]
    )
    rows = {
        u: {"ok": ok, "error_kind": k, "text_md": md, "text_sha256": sha,
            "images": imgs}
        for u, ok, k, md, sha, imgs in zip(
            t.column("url").to_pylist(),
            t.column("ok").to_pylist(),
            t.column("error_kind").to_pylist(),
            t.column("text_md").to_pylist(),
            t.column("text_sha256").to_pylist(),
            t.column("images").to_pylist(),
        )
    }
    _check_against_fixtures(rows, expected_by_url)

    # config change invalidates resume
    m3 = run_extract_job(CORPUS_DIR, out_dir, ExtractConfig(link_density_pct=51))
    assert m3["processed_shards"] == len(corpus_files())


def test_shard_writer_retry_idempotent(ray_session, tmp_path):
    """A retried write task replaces its own file (content-derived
    name), never duplicates rows — the write-side exactly-once claim."""
    import pyarrow as pa

    from documentconvert_ray.pipelines.extract import ShardWriter
    from documentconvert_ray.stages.extract import OUTPUT_SCHEMA

    batch = pa.Table.from_pylist(
        [
            {f.name: {"url": "https://a/1", "warc_ts": 0, "lang": "en",
                      "doc_type": "html", "ok": True, "error_kind": "",
                      "error": "", "text_md": "x", "spans": [],
                      "text_sha256": "s", "n_bytes": 1, "n_md_bytes": 1,
                      "part": 0}.get(f.name)
             for f in OUTPUT_SCHEMA}
        ],
        schema=OUTPUT_SCHEMA,
    ).append_column("shard", pa.array([3], pa.int32()))
    w = ShardWriter(str(tmp_path / "out"))
    w(batch)
    w(batch)  # simulated Ray task retry
    files = glob.glob(str(tmp_path / "out" / "data" / "shard=3" / "*.parquet"))
    assert len(files) == 1
    t = pads.dataset(files[0]).to_table()
    assert t.num_rows == 1


def test_empty_input_is_noop_and_missing_raises(ray_session, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    m = run_extract_job(str(empty), str(tmp_path / "out"))
    assert m["rows"] == 0 and m["processed_shards"] == 0
    with pytest.raises(FileNotFoundError):
        run_extract_job(str(tmp_path / "nope"), str(tmp_path / "out2"))


def test_resume_across_parallelism_change(ray_session, tmp_path):
    """Execution sizing (batch size) is not part of the manifest
    fingerprint: a rerun at different parallelism resumes cleanly."""
    out_dir = str(tmp_path / "out")
    m1 = run_extract_job(
        CORPUS_DIR, out_dir, ExtractConfig(pdf_batch_size=4))
    m2 = run_extract_job(
        CORPUS_DIR, out_dir, ExtractConfig(pdf_batch_size=64))
    assert m2["processed_shards"] == 0
    assert m2["resumed_shards"] == m1["processed_shards"]
    assert m2["rows"] == m1["rows"]


def test_row_order_independence(ray_session, expected_by_url):
    """Extraction is per-row pure: shuffling input rows changes nothing."""
    import ray.data

    ds = ray.data.read_parquet(corpus_files(),
                               columns=["url", "warc_ts", "html", "lang"])
    ds = ds.random_shuffle(seed=7)
    from documentconvert_ray.config import DEFAULT_CONFIG
    from documentconvert_ray.stages.extract import PdfExtractor, SniffAndExtractHtml

    ds = ds.map_batches(SniffAndExtractHtml(DEFAULT_CONFIG),
                        batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(PdfExtractor(DEFAULT_CONFIG),
                        batch_format="pyarrow", batch_size=8)
    rows = _collect(ds)
    _check_against_fixtures(rows, expected_by_url)


def test_job_finishes_on_one_cpu(tmp_path, expected_by_url):
    """Under ray.init(num_cpus=1) the job completes: no stage may hold
    the only CPU while the read waits for it. Runs in a child process
    with its own Ray session, so a hang fails by timeout instead of
    stalling the suite; workers find the package via PYTHONPATH."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR",
                 object_store_memory=128 * 1024 * 1024)
        from documentconvert_ray.pipelines.extract import run_extract_job
        print(run_extract_job({CORPUS_DIR!r}, {str(tmp_path / "out")!r})["rows"])
        ray.shutdown()
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (repo, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("extract job still running after 90 s at num_cpus=1")
    assert proc.returncode == 0, err[-2000:]
    assert int(out.split()[-1]) == len(expected_by_url)


def test_job_releases_cpus(ray_session, tmp_path):
    """After each of three back-to-back jobs every CPU is free again,
    without waiting for garbage collection (the resource view lags a
    release by ~0.1 s, hence the short poll)."""
    gc.collect()  # drop what earlier tests left to the collector

    def free_cpus(want: float, wait_s: float) -> float:
        deadline = time.monotonic() + wait_s
        while True:
            got = ray_session.available_resources().get("CPU", 0.0)
            if got >= want or time.monotonic() > deadline:
                return got
            time.sleep(0.05)

    total = free_cpus(ray_session.cluster_resources()["CPU"], 10.0)
    for k in range(3):
        run_extract_job(CORPUS_DIR, str(tmp_path / f"out{k}"))
        assert free_cpus(total, 2.0) >= total, f"job {k} kept a CPU"


def _max_overlap(spans: list[tuple[float, float]]) -> int:
    """Most spans open at one instant (an end sorts before a start at
    the same timestamp)."""
    edges = sorted([(s, 1) for s, _ in spans] + [(e, -1) for _, e in spans])
    cur = best = 0
    for _, step in edges:
        cur += step
        best = max(best, cur)
    return best


def test_job_runs_extraction_on_every_cpu_from_one_operator(
        ray_session, tmp_path):
    """The read is fused into the extraction operator, so (a) on 4 Ray
    CPUs more than two extraction tasks run at once — a separate read
    operator would leave extraction half the CPUs under Ray's
    per-operator reservation — and (b) no input block passes through
    the object store: the only blocks the job stores are its manifest
    stats partials, so the read can never run ahead of extraction. The
    job turns Ray's reservation off on its own Dataset only."""
    import re

    from ray.data import DataContext

    reservation = DataContext.get_current().op_resource_reservation_enabled
    run_extract_job(CORPUS_DIR, str(tmp_path / "warm"))
    stats = []
    t0 = time.time()
    run_extract_job(CORPUS_DIR, str(tmp_path / "out"), stats_sink=stats.append)
    t1 = time.time()
    assert (DataContext.get_current().op_resource_reservation_enabled
            == reservation)

    stored = sum(int(n) for n in re.findall(
        r"Output size bytes per block: .*?(\d+) total", stats[0]))
    input_bytes = sum(os.path.getsize(p) for p in corpus_files())
    assert stored < input_bytes // 100, (stored, input_bytes)

    def overlap() -> int:
        spans = [
            (e["ts"], e["ts"] + e["dur"]) for e in ray_session.timeline()
            if e.get("cat", "").startswith("task::")
            and "SniffAndExtractHtml" in e["cat"]
            and t0 * 1e6 <= e["ts"] and e["ts"] + e["dur"] <= t1 * 1e6
        ]
        return _max_overlap(spans)

    # task events reach the timeline asynchronously (~1 s flush)
    deadline = time.monotonic() + 10.0
    got = overlap()
    while got <= 2 and time.monotonic() < deadline:
        time.sleep(0.5)
        got = overlap()
    assert got > 2, f"at most {got} extraction tasks overlapped on 4 CPUs"
