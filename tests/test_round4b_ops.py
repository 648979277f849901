"""Unit coverage for the session-4b operators (T77-T85) — the kernel
properties and plan-path splits the sf-corpus oracles can't isolate."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from documentconvert_ray.pipelines.queries import _SQ_SPLIT, _split_sq_sums


def test_split_sq_sums_exact_reassembly():
    """Σ = Σhi·2^30 + Σlo holds exactly for positive AND negative
    per-row products (the arithmetic-shift floor identity) — the
    invariant the exact variance/covariance partials rest on."""
    rng = np.random.default_rng(11)
    x = rng.integers(-(1 << 20), 1 << 20, size=4096, dtype=np.int64)
    y = rng.integers(0, 1 << 14, size=4096, dtype=np.int64)
    for q in (x * x, x * y, -(x * y)):
        hi, lo = _split_sq_sums(q)
        total = int(hi.sum()) * _SQ_SPLIT + int(lo.sum())
        assert total == sum(int(v) for v in q)
        assert (lo >= 0).all() and (lo < _SQ_SPLIT).all()


def test_split_sq_sums_partition_invariant():
    """Partials merged across arbitrary splits equal the whole — the
    mergeability contract of the variance/covariance combiners."""
    rng = np.random.default_rng(13)
    q = rng.integers(0, 1 << 40, size=1000, dtype=np.int64)
    hi, lo = _split_sq_sums(q)
    whole = int(hi.sum()) * _SQ_SPLIT + int(lo.sum())
    for cuts in ([100], [1, 999], [250, 500, 750]):
        parts = np.split(q, cuts)
        merged = 0
        for p in parts:
            h, lw = _split_sq_sums(p)
            merged += int(h.sum()) * _SQ_SPLIT + int(lw.sum())
        assert merged == whole


def test_variance_exceeds_int64_path(ray_session, tmp_path):
    """Values big enough that a naive int64 Σx² would overflow still
    produce the exact variance (the split-sum scale contract):
    x_milli ≈ 2^20 → x² ≈ 2^40; 20k rows → Σx² ≈ 2^54 is still fine
    in int64, so force magnitudes near the pandas-sum edge by using
    the full milli range and verify against Python-bigint truth."""
    from documentconvert_ray.pipelines.queries import q_value_variance

    rng = np.random.default_rng(17)
    vals = rng.uniform(0, 1_000_000, size=20_000)
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.Table.from_pydict({
            "event_id": np.arange(20_000, dtype=np.int64),
            "ts": pa.array(np.zeros(20_000, dtype="datetime64[us]")),
            "user_id": np.zeros(20_000, dtype=np.int64),
            "event_type": ["t"] * 20_000,
            "value": vals,
            "props": ["{}"] * 20_000,
        }),
        d / "events.parquet",
    )
    out = q_value_variance(str(d))
    x = [int(np.floor(v * 1000 + 0.5)) for v in vals]
    n = len(x)
    want = (n * sum(v * v for v in x) - sum(x) ** 2) // (n * n)
    assert list(out["var_milli2"]) == [want]
    assert sum(v * v for v in x) > 2**62  # the overflow class is real


def test_ntile_small_n_matches_duckdb(ray_session, tmp_path):
    """N < k and heavy ties: engine deciles equal duckdb ntile(10)
    bucket-for-bucket (the ⌈N/k⌉-first-buckets rule + doc_id tie
    order)."""
    import duckdb

    from documentconvert_ray.pipelines.queries import q_ntile_deciles

    for n_chars in ([5, 5, 5, 3, 3, 9, 1],
                    [4] * 23 + [7] * 5):
        d = tmp_path / f"sf{len(n_chars)}"
        d.mkdir(exist_ok=True)
        tbl = pa.Table.from_pydict({
            "doc_id": np.arange(len(n_chars), dtype=np.int64),
            "text": ["x"] * len(n_chars),
            "lang": ["en"] * len(n_chars),
            "source": ["s"] * len(n_chars),
            "n_chars": np.asarray(n_chars, np.int64),
        })
        pq.write_table(tbl, d / "documents.parquet")
        got = (q_ntile_deciles(str(d)).to_pandas()
               .sort_values("decile").reset_index(drop=True))
        con = duckdb.connect()
        con.register("documents", tbl)
        want = con.sql("""
            WITH t AS (SELECT n_chars,
                       ntile(10) OVER (ORDER BY n_chars, doc_id) AS decile
                       FROM documents)
            SELECT CAST(decile AS BIGINT) AS decile, count(*) AS n_docs,
                   CAST(min(n_chars) AS BIGINT) AS min_chars,
                   CAST(max(n_chars) AS BIGINT) AS max_chars
            FROM t GROUP BY decile ORDER BY decile
        """).df()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_salted_join_paths_identical(ray_session, monkeypatch):
    """All-hot and all-cold plans return identical rows (the salt is
    plan-only; no salt column leaks into the output)."""
    from documentconvert_ray.pipelines import queries as Q

    sf = "/root/testdata/sf0.001"

    def run():
        return (Q.q_salted_user_join(sf).to_pandas()
                .sort_values("event_id").reset_index(drop=True))

    monkeypatch.setattr(Q, "SALT_HOT_NUM", 0)  # every key hot → salted
    all_hot = run()
    assert set(all_hot.columns) == {"event_id", "user_id",
                                    "value_micro", "c_name"}
    monkeypatch.setattr(Q, "SALT_HOT_NUM", 10**9)  # none hot → plain
    all_cold = run()
    pd.testing.assert_frame_equal(all_hot, all_cold, check_like=True)


def test_next_event_gap_tie_and_sentinel(ray_session, tmp_path):
    """Equal timestamps order by event_id (the oracle's window ORDER
    BY); each user's last event gets the −1 sentinel."""
    from documentconvert_ray.pipelines.queries import q_next_event_gap

    us = 1_000_000
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.Table.from_pydict({
            "event_id": [10, 11, 12, 20],
            "ts": pa.array([0, 0, 5 * us, 0], pa.timestamp("us")),
            "user_id": [1, 1, 1, 2],
            "event_type": ["a"] * 4,
            "value": [0.0] * 4,
            "props": ["{}"] * 4,
        }),
        d / "events.parquet",
    )
    out = (q_next_event_gap(str(d)).to_pandas()
           .set_index("event_id")["gap_us"])
    assert out[10] == 0          # tie → next is event 11 at the same ts
    assert out[11] == 5 * us
    assert out[12] == -1         # user 1's last
    assert out[20] == -1         # user 2's only


def test_normalized_dedup_collapses_stopword_variants(ray_session,
                                                      tmp_path):
    """Docs differing only in stopwords/whitespace share one key;
    genuinely different docs don't."""
    from documentconvert_ray.pipelines.queries import q_normalized_dedup

    texts = ["big cat sat", "the big cat sat", "big  cat and sat",
             "big dog sat"]
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.Table.from_pydict({
            "doc_id": np.arange(4, dtype=np.int64),
            "text": texts,
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": np.asarray([len(t) for t in texts], np.int64),
        }),
        d / "documents.parquet",
    )
    out = q_normalized_dedup(str(d)).to_pandas()
    assert len(out) == 2
    grp = out.set_index("rep_doc_id")["n_copies"]
    assert grp[0] == 3 and grp[3] == 1


def test_label_pair_sim_identity_vs_bruteforce(ray_session, tmp_path):
    """(‖Σv‖² − Σ‖v‖²)/(n(n−1)) equals the brute-force mean pairwise
    dot over the quantized vectors, including a single-vector label
    (skipped) and negative components (floor-div sign class)."""
    from documentconvert_ray.pipelines.queries import q_label_pair_sim

    rng = np.random.default_rng(23)
    vecs = rng.uniform(-0.6, 0.6, size=(9, 8)).astype(np.float32)
    labels = np.asarray([0, 0, 0, 0, 1, 1, 1, 1, 2], np.int32)
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.Table.from_pydict({
            "vec_id": np.arange(9, dtype=np.int64),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
            "label": labels,
        }),
        d / "embeddings.parquet",
    )
    out = q_label_pair_sim(str(d)).set_index("label")
    q = np.floor(vecs.astype(np.float64) * 1000).astype(np.int64)
    for lab in (0, 1):
        idx = np.where(labels == lab)[0]
        dots = [int(q[i] @ q[j]) for k, i in enumerate(idx)
                for j in idx[k + 1:]]
        n = len(idx)
        want = sum(dots) * 2 // (n * (n - 1))  # mean with floor
        # floor of the mean == floor((num)/(den)) with num=2·Σdots
        assert out.loc[lab, "mean_pair_dot_micro"] == want
    assert 2 not in out.index  # single-vector label has no pairs


def test_orders_page_matches_duckdb_with_ties(ray_session, tmp_path):
    """Page slicing across a heavy tie block (every order on one of
    two dates) matches the oracle's OFFSET/LIMIT row-for-row."""
    import duckdb

    from documentconvert_ray.pipelines.queries import q_orders_page

    n = 400
    dates = np.where(np.arange(n) % 2 == 0, "2000-01-01", "2000-01-02")
    tbl = pa.Table.from_pydict({
        "o_orderkey": np.arange(n, dtype=np.int64),
        "o_custkey": np.zeros(n, dtype=np.int64),
        "o_orderstatus": ["O"] * n,
        "o_totalprice": np.linspace(1, 2, n),
        "o_orderdate": pa.array(dates.astype("datetime64[us]")),
        "o_orderpriority": ["1-URGENT"] * n,
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(tbl, d / "orders.parquet")
    got = q_orders_page(str(d)).reset_index(drop=True)
    con = duckdb.connect()
    con.register("orders", tbl)
    want = con.sql("""
        SELECT o_orderkey, o_orderdate,
               CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_c
        FROM orders ORDER BY o_orderdate DESC, o_orderkey
        LIMIT 100 OFFSET 100
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_dense_grid_zero_fill(ray_session, tmp_path):
    """A (nation, year) cell with no orders appears with zeros; a
    nation with no customers appears in every year with zeros."""
    from documentconvert_ray.pipelines.queries import q_dense_order_grid

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pydict({
        "n_nationkey": np.asarray([0, 1], np.int64),
        "n_name": ["ALPHA", "BETA"],
        "n_regionkey": np.asarray([0, 0], np.int32),
    }), d / "nation.parquet")
    pq.write_table(pa.Table.from_pydict({
        "c_custkey": np.asarray([10, 20], np.int64),
        "c_name": ["a", "b"],
        "c_nationkey": np.asarray([0, 0], np.int32),
        "c_acctbal": [0.0, 0.0],
        "c_mktsegment": ["BUILDING"] * 2,
    }), d / "customer.parquet")
    pq.write_table(pa.Table.from_pydict({
        "o_orderkey": np.asarray([1, 2], np.int64),
        "o_custkey": np.asarray([10, 10], np.int64),
        "o_orderstatus": ["O"] * 2,
        "o_totalprice": [10.0, 20.0],
        "o_orderdate": pa.array(
            np.asarray(["1995-03-01", "1997-07-01"],
                       dtype="datetime64[us]")),
        "o_orderpriority": ["1-URGENT"] * 2,
    }), d / "orders.parquet")
    out = q_dense_order_grid(str(d))
    assert len(out) == 4  # 2 nations x 2 observed years
    beta = out[out["n_name"] == "BETA"]
    assert (beta["n_orders"] == 0).all() and (beta["sum_cents"] == 0).all()
    a95 = out[(out["n_name"] == "ALPHA") & (out["order_year"] == 1995)]
    assert int(a95["sum_cents"].iloc[0]) == 1000
