"""Size-derived shuffle granularity (VERDICT r1 #3): per-bucket work
must stay bounded as the corpus grows, and results must be invariant
to the bucket count."""

import numpy as np
import pyarrow as pa
import pytest

from documentconvert_ray.stages import dedup as dd


def test_derive_buckets_bounds_rows_per_bucket():
    """Doubling the corpus must not grow per-bucket rows past target."""
    target = dd.TARGET_ROWS_PER_BUCKET
    n = 1_000
    for _ in range(40):  # up to ~10^15 rows
        nb = dd.derive_buckets(n, rows_per_doc=120)
        assert n * 120 / nb <= target
        n *= 2


def test_derive_buckets_floor():
    assert dd.derive_buckets(1, rows_per_doc=1, floor=32) == 32
    assert dd.derive_buckets(10**9, rows_per_doc=16) >= 10**9 * 16 // dd.TARGET_ROWS_PER_BUCKET


def _docs_table(n=120):
    # overlapping docs: doc i and i+1 share most trigrams when i % 3 == 0
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    texts = []
    for i in range(n):
        base = [words[(i * 7 + j) % len(words)] for j in range(30)]
        if i % 3 == 1:  # near-copy of previous doc
            prev = [words[((i - 1) * 7 + j) % len(words)] for j in range(30)]
            base = prev[:28] + base[:2]
        texts.append(" ".join(base))
    return pa.Table.from_pydict(
        {"doc_id": pa.array(range(n), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )


@pytest.mark.parametrize("n_buckets,n_pair_buckets", [(4, 4), (64, 16)])
def test_ngram_jaccard_invariant_to_bucket_count(
    ray_session, n_buckets, n_pair_buckets
):
    """Same pairs at any shuffle granularity (the bucket count is an
    execution knob, never a semantic one)."""
    import ray.data

    ds = ray.data.from_arrow(_docs_table()).repartition(4)
    rows = ds.map_batches(
        lambda b: dd.shingle_rows(b, n_buckets), batch_format="pyarrow"
    )
    pairs = rows.groupby("bucket").map_groups(
        lambda g: dd.shingle_partition_pairs(g, n_pair_buckets),
        batch_format="pyarrow",
    )
    out = (
        pairs.groupby("pair_bucket")
        .map_groups(lambda g: dd.pair_bucket_jaccard(g, 600_000),
                    batch_format="pandas")
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    assert len(out) > 0
    expected = _expected_pairs()
    got = list(zip(out["doc_id_a"], out["doc_id_b"], out["jaccard_micro"]))
    assert got == expected


def _expected_pairs():
    """Naive reference: exact pairwise word-trigram jaccard."""
    t = _docs_table()
    shs = [dd._word_shingles(x) for x in t.column("text").to_pylist()]
    out = []
    for i in range(len(shs)):
        for j in range(i + 1, len(shs)):
            inter = len(shs[i] & shs[j])
            union = len(shs[i]) + len(shs[j]) - inter
            jm = (inter * 1_000_000) // union if union else 0
            if jm >= 600_000:
                out.append((i, j, jm))
    return sorted(out)


def test_simhash_hamming_filter_vectorized_matches_scalar():
    rng = np.random.RandomState(7)
    sa = rng.randint(-(2**62), 2**62, size=200, dtype=np.int64)
    sb = sa.copy()
    flip = rng.randint(0, 64, size=200)
    sb ^= (np.int64(1) << flip.astype(np.int64))  # hamming 1 everywhere
    sb[::5] = rng.randint(-(2**62), 2**62, size=40, dtype=np.int64)
    batch = pa.Table.from_pydict(
        {"doc_id_a": pa.array(range(200), pa.int64()),
         "doc_id_b": pa.array(range(200, 400), pa.int64()),
         "sh_a": pa.array(sa), "sh_b": pa.array(sb)}
    )
    out = dd.hamming_filter_pairs(batch, 3, 16)
    got = dict(zip(out.column("doc_id_a").to_pylist(),
                   out.column("hamming").to_pylist()))
    for i in range(200):
        h = bin((int(sa[i]) & (2**64 - 1)) ^ (int(sb[i]) & (2**64 - 1))).count("1")
        if h <= 3:
            assert got[i] == h
        else:
            assert i not in got


def test_bucket_ids_hash_contract():
    """An int key buckets as key % nb, a string key as crc32(utf-8) %
    nb, several columns as crc32 of their '|'-joined text — the same
    value in any batch format."""
    import zlib

    import pandas as pd

    ints = np.array([-7, 0, 5, 2**40 + 3], np.int64)
    want = (ints % 13).astype(np.int32)
    assert (dd.bucket_ids([ints], 13) == want).all()
    assert (dd.bucket_ids([pd.Series(ints)], 13) == want).all()
    assert (dd.bucket_ids([pa.chunked_array([ints])], 13) == want).all()
    words = ["héllo", "", "word"]
    want = [zlib.crc32(w.encode()) % 13 for w in words]
    assert dd.bucket_ids([pa.chunked_array([words])], 13).tolist() == want
    assert dd.bucket_ids([pd.Series(words)], 13).tolist() == want
    want = [zlib.crc32(f"{w}|{i}".encode()) % 13
            for w, i in zip(words, [1, 2, 3])]
    got = dd.bucket_ids([pd.Series(words), pd.Series([1, 2, 3])], 13)
    assert got.tolist() == want


@pytest.mark.parametrize("rows", [1, 10**8])
@pytest.mark.parametrize("fmt", ["pyarrow", "pandas"])
def test_bucketed_close_invariant_to_bucket_count(ray_session, rows, fmt):
    """Every row of a key meets in one group, so a per-key close gives
    the same rows at 32 buckets (rows=1) and at 500 (rows=10^8), with
    a string key, a multi-column key and a unioned second leg."""
    import ray.data

    def leg(lo):
        return ray.data.from_arrow(pa.Table.from_pydict({
            "k": pa.array([f"k{i % 37}" for i in range(lo, lo + 400)]),
            "j": pa.array([i % 3 for i in range(lo, lo + 400)],
                          pa.int64()),
            "v": pa.array(range(lo, lo + 400), pa.int64())})).repartition(4)

    def close(g):
        return (g.groupby(["k", "j"], as_index=False)
                .agg(n=("v", "size"), s=("v", "sum")))

    assert dd.derive_buckets(rows) in (32, 500)
    for key in ("k", ["k", "j"]):
        got = dd.bucketed_close(
            leg(0), key, close, rows=rows, union=[(leg(400), None)],
            batch_format=fmt).to_pandas()
        got = got.sort_values(["k", "j"]).reset_index(drop=True)
        assert len(got) == 37 * 3
        assert got["n"].sum() == 800
        assert got["s"].sum() == sum(range(800))
        assert not got.duplicated(["k", "j"]).any()
