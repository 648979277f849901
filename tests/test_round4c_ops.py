"""Unit coverage for the session-4c operators (T89-T95) — the
iterative/plan-path/rank-semantics properties the sf-corpus oracles
can't isolate (kmeans has no oracle at all)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


SF = "/root/testdata/sf0.001"


def test_kmeans_partitioning_invariant(ray_session):
    """Identical centroids / sizes / inertia trace regardless of block
    layout — the exact-integer contract of kmeans_fit (float k-means
    would diverge across partitionings via summation order)."""
    import ray.data

    from documentconvert_ray.stages import similarity as sim

    results = []
    for blocks in (2, 7):
        ds = ray.data.read_parquet(
            f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"],
            override_num_blocks=blocks)
        results.append(sim.kmeans_fit(ds, k=5, max_iters=8))
    (c1, s1, t1), (c2, s2, t2) = results
    assert np.array_equal(c1, c2)
    assert np.array_equal(s1, s2)
    assert t1 == t2
    assert int(s1.sum()) == 500


def test_kmeans_inertia_descends(ray_session):
    """Lloyd descent: the exact inertia trace is non-increasing up to
    the ±1-per-coordinate floor-division perturbation of the centroid
    update (bounded by n·d·(2·max|coord|+1) ≪ 0.1% of inertia here)."""
    import ray.data

    from documentconvert_ray.stages import similarity as sim

    ds = ray.data.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    _, _, trace = sim.kmeans_fit(ds, k=8, max_iters=10)
    assert len(trace) >= 2
    assert trace[-1] < trace[0]
    for a, b in zip(trace, trace[1:]):
        assert b <= a * 1.001


def test_median_quantile_disc_semantics(ray_session, tmp_path):
    """Rank select == DuckDB quantile_disc (index ceil(n·q)−1) on
    groups engineered to expose the off-by-one candidates: even n,
    odd n, heavy ties, single element."""
    from documentconvert_ray.pipelines import queries as Q

    rows = {
        "ev": [10, 20, 30, 40],           # even: median idx 1 → 20
        "od": [1, 2, 300],                # odd: median 2, p90 → 300
        "ti": [5, 5, 5, 5, 9],            # ties: median 5
        "on": [7],                        # single: both → 7
    }
    recs = [(lang, v) for lang, vs in rows.items() for v in vs]
    df = pd.DataFrame(recs, columns=["lang", "n_chars"])
    df["doc_id"] = np.arange(len(df))
    df["text"] = "x"
    df["source"] = "s"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))

    got = (Q.q_lang_median_chars(str(tmp_path)).to_pandas()
           .sort_values("lang").reset_index(drop=True))
    want = duckdb.sql(f"""
        SELECT lang,
               CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS median_chars,
               CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90_chars,
               count(*) AS n_docs
        FROM '{tmp_path}/documents.parquet'
        GROUP BY lang ORDER BY lang
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_active_streaks_hand_case(ray_session, tmp_path):
    """3-day run + 2-day run → max_streak 3, n_active_days 5; repeat
    events inside one day collapse."""
    from documentconvert_ray.pipelines import queries as Q

    days = ["2024-01-01", "2024-01-01", "2024-01-02", "2024-01-03",
            "2024-01-05", "2024-01-06"]
    df = pd.DataFrame({
        "event_id": np.arange(len(days), dtype=np.int64),
        "user_id": np.int64(7),
        "ts": pd.to_datetime(days),
        "event_type": "click",
        "value": 1.0,
        "props": "{}",
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = Q.q_active_streaks(str(tmp_path)).to_pandas()
    assert got.to_dict("records") == [
        {"user_id": 7, "max_streak": 3, "n_active_days": 5}]


def test_cohort_offset_zero_counts_every_user(ray_session):
    """Every user appears in their own cohort at offset 0, so the
    offset-0 column sums to the distinct-user count."""
    from documentconvert_ray.pipelines import queries as Q

    got = Q.q_cohort_retention(SF).to_pandas()
    n_users = duckdb.sql(
        f"SELECT count(DISTINCT user_id) FROM '{SF}/events.parquet'"
    ).fetchone()[0]
    assert int(got.loc[got["week_offset"] == 0, "n_users"].sum()) == n_users
    # a cohort's later-offset cells never exceed its own size
    size = got[got["week_offset"] == 0].set_index("cohort_week")["n_users"]
    assert (got["n_users"].to_numpy()
            <= size.loc[got["cohort_week"]].to_numpy()).all()


def test_token_count_partial_totals(ray_session):
    """The count combiner conserves occurrence mass: Σ cnt over the
    partial equals the batch's total token count."""
    from documentconvert_ray.functions.textstats import tokens
    from documentconvert_ray.stages import text as tx

    texts = ["a b b c", "", "b c\td\n d d"]
    batch = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "text": pa.array(texts)})
    part = tx.token_count_partial(batch)
    assert int(pa.compute.sum(part.column("cnt")).as_py()) == sum(
        len(tokens(t)) for t in texts)
    # distinct hashes: one row per distinct token
    assert part.num_rows == len({w for t in texts for w in tokens(t)})


def test_latest_order_tiebreak_lowest_key(ray_session, tmp_path):
    """Two orders on the same (latest) date → the LOWER orderkey wins,
    matching the oracle's row_number ORDER BY o_orderdate DESC,
    o_orderkey ASC."""
    from documentconvert_ray.pipelines import queries as Q

    df = pd.DataFrame({
        "o_orderkey": np.array([11, 5, 3], np.int64),
        "o_custkey": np.int64(1),
        "o_orderstatus": "O",
        "o_totalprice": [10.0, 20.0, 30.0],
        "o_orderdate": pd.to_datetime(
            ["2024-02-01", "2024-02-01", "2024-01-01"]),
        "o_orderpriority": "1-URGENT",
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "orders.parquet"))
    got = Q.q_latest_order_per_customer(str(tmp_path)).to_pandas()
    assert len(got) == 1
    assert int(got["o_orderkey"].iloc[0]) == 5
    assert int(got["price_c"].iloc[0]) == 2000
