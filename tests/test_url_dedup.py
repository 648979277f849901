"""Input url-dedup prep pass: deterministic winner per url regardless
of row order / partitioning (SURVEY.md §2.7)."""

import datetime

import pyarrow as pa
import pytest

from documentconvert_ray.pipelines.extract import dedup_input_urls
from documentconvert_ray.sources.corpus import CORPUS_SCHEMA


def _corpus_with_dups():
    ts = datetime.datetime(2024, 1, 1)
    rows = []
    for i in range(40):
        url = f"https://ex.example/{i % 10}"  # each url appears 4×
        rows.append(
            {
                "url": url,
                "warc_ts": ts + datetime.timedelta(seconds=i % 7),
                "html": f"<html><p>v{i}</p></html>".encode(),
                "text": "",
                "lang": "en",
            }
        )
    return rows


@pytest.mark.parametrize("shuffle_seed,blocks", [(None, 2), (3, 8), (11, 1)])
def test_winner_is_order_and_partition_independent(
    ray_session, shuffle_seed, blocks
):
    import ray.data

    rows = _corpus_with_dups()
    ds = ray.data.from_arrow(
        pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)
    ).repartition(blocks)
    if shuffle_seed is not None:
        ds = ds.random_shuffle(seed=shuffle_seed)
    out = dedup_input_urls(ds).to_pandas().sort_values("url")
    assert len(out) == 10
    # winner = min (warc_ts, crc32(html), html) per url — recompute
    # naively and compare
    import zlib

    expected = {}
    for r in rows:
        key = (r["warc_ts"], zlib.crc32(r["html"]), r["html"])
        if r["url"] not in expected or key < expected[r["url"]][0]:
            expected[r["url"]] = (key, r["html"])
    got = dict(zip(out["url"], out["html"]))
    assert got == {u: h for u, (_, h) in expected.items()}


def test_projection_excludes_payload():
    """Pass-1 shuffle schema must never include payload columns."""
    import pyarrow as pa_

    from documentconvert_ray.pipelines.extract import _url_projection

    t = pa_.Table.from_pylist(_corpus_with_dups(), schema=CORPUS_SCHEMA)
    out = _url_projection(t)  # the shuffle adds only the bucket column
    assert set(out.column_names) == {"url", "ts_us", "crc", "sha"}


def test_exact_identical_rows_keep_one(ray_session):
    """Byte-identical (url, ts, payload) rows across partitions →
    exactly one survives (the k_winner>1 pick pass)."""
    import pyarrow as pa_
    import ray.data

    ts = datetime.datetime(2024, 1, 1)
    rows = []
    for i in range(12):
        rows.append(
            {"url": f"https://ex.example/{i % 3}",  # 3 urls, 4 identical rows
             "warc_ts": ts,
             "html": f"<html><p>same {i % 3}</p></html>".encode(),
             "text": "", "lang": "en"}
        )
    rows.append(
        {"url": "https://ex.example/unique", "warc_ts": ts,
         "html": b"<html><p>u</p></html>", "text": "", "lang": "en"}
    )
    ds = ray.data.from_arrow(
        pa_.Table.from_pylist(rows, schema=CORPUS_SCHEMA)
    ).repartition(6)
    out = dedup_input_urls(ds).to_pandas()
    assert len(out) == 4
    assert sorted(out["url"]) == [
        "https://ex.example/0", "https://ex.example/1",
        "https://ex.example/2", "https://ex.example/unique"]


def test_cli_dedup_prep_pass(ray_session, tmp_path):
    """--dedup-urls-to runs the prep pass and extracts from the deduped
    copy (duplicate urls collapse before sharding)."""
    import pyarrow as pa_
    import pyarrow.parquet as pq

    from documentconvert_ray.run import main

    rows = _corpus_with_dups()  # 40 rows, 10 distinct urls
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(pa_.Table.from_pylist(rows, schema=CORPUS_SCHEMA),
                   str(src / "part-0.parquet"))
    rc = main([
        "--input", str(src),
        "--output", str(tmp_path / "out"),
        "--dedup-urls-to", str(tmp_path / "deduped"),
    ])
    assert rc == 0
    deduped = pq.read_table(str(tmp_path / "deduped"))
    assert deduped.num_rows == 10
