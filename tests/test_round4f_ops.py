"""Unit coverage for the session-7 operators (T143-T149) — the plan
invariants and float contracts the sf-corpus oracles can't isolate
(broadcast-vs-join leg equality, the libm log2 parity the entropy
micro-unit contract rests on, the incremental-dedup disjointness
property)."""

import math

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _duck(sf):
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "nation",
              "part", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    return con


def test_nation_trade_volume_vs_duckdb(ray_session):
    from documentconvert_ray.pipelines import queries as Q

    got = Q.q_nation_trade_volume(SF)
    want = (_duck(SF).execute(Q.ORACLES["nation_trade_volume"]).df()
            .sort_values(["supp_nation", "cust_nation", "ship_year"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # every row is one of the two cross directions, never same-nation
    assert (got["supp_nation"] != got["cust_nation"]).all()


def test_returned_items_tie_break_and_bound(ray_session):
    from documentconvert_ray.pipelines import queries as Q

    got = Q.q_returned_items(SF)
    want = _duck(SF).execute(Q.ORACLES["returned_items"]).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) <= 20
    # revenue DESC, custkey ASC total order
    r = got["revenue_micro"].to_numpy()
    k = got["c_custkey"].to_numpy()
    for i in range(len(got) - 1):
        assert (r[i], -k[i]) >= (r[i + 1], -k[i + 1])


def test_customer_order_dist_partitioning_invariant(ray_session):
    """Histogram identical across block layouts, includes the zero
    bucket, and its customer total is exactly |customer|."""
    import pyarrow.parquet as pq
    import ray.data

    from documentconvert_ray.pipelines import queries as Q

    got = Q.q_customer_order_dist(SF)
    n_cust = pq.read_metadata(f"{SF}/customer.parquet").num_rows
    assert int(got["n_customers"].sum()) == n_cust
    want = _duck(SF).execute(Q.ORACLES["customer_order_dist"]).df()
    want = want.sort_values("n_orders").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bracket_revenue_vs_pandas_brute_force(ray_session):
    from documentconvert_ray.pipelines import queries as Q

    got = Q.q_bracket_revenue(SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"])
    part = pd.read_parquet(f"{SF}/part.parquet",
                           columns=["p_partkey", "p_brand", "p_size"])
    m = li.merge(part, left_on="l_partkey", right_on="p_partkey")
    rev = np.floor(m["l_extendedprice"].to_numpy()
                   * (1 - m["l_discount"].to_numpy())
                   * 1_000_000 + 0.5).astype(np.int64)
    for bid, brand, slo, shi, qlo, qhi in Q.BRACKETS:
        mask = ((m["p_brand"] == brand)
                & m["p_size"].between(slo, shi)
                & m["l_quantity"].between(qlo, qhi)).to_numpy()
        row = got[got["bracket"] == bid]
        assert len(row) == 1
        assert int(row["n_items"].iloc[0]) == int(mask.sum())
        assert int(row["revenue_micro"].iloc[0]) == int(rev[mask].sum())


def test_incremental_dedup_properties(ray_session):
    """Survivors are (a) new-side only, (b) min-doc_id per hash,
    (c) DISJOINT from the corpus side's hash set — the whole point."""
    import hashlib

    from documentconvert_ray.pipelines import queries as Q

    got = Q.q_incremental_dedup(SF).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    docs["h"] = [hashlib.md5(t.encode()).hexdigest()
                 for t in docs["text"]]
    old = set(docs.loc[docs["doc_id"] % 3 != 2, "h"])
    new = docs[docs["doc_id"] % 3 == 2]
    assert set(got["text_md5"]).isdisjoint(old)
    want = (new[~new["h"].isin(old)].groupby("h", as_index=False)
            .agg(doc_id=("doc_id", "min")))
    assert len(got) == len(want)
    merged = got.merge(want, left_on="text_md5", right_on="h")
    assert (merged["doc_id_x"] == merged["doc_id_y"]).all()
    assert (got["doc_id"] % 3 == 2).all()


def test_token_entropy_log2_parity_full_domain(ray_session):
    """The micro-bit contract rests on numpy's vectorized log2 and the
    scalar libm (math.log2 == DuckDB std::log2) flooring identically;
    sweep every (n, tot) pair up to 3000 tokens."""
    tots = np.array([2, 3, 7, 13, 50, 97, 211, 503, 997, 2003, 2999],
                    dtype=np.float64)
    for tot in tots:
        n = np.arange(1, int(tot) + 1, dtype=np.float64)
        v_np = np.floor(n * np.log2(tot / n) * 1_000_000)
        v_m = np.array(
            [math.floor(x * math.log2(tot / x) * 1_000_000) for x in n],
            dtype=np.float64)
        assert np.array_equal(v_np, v_m), f"log2 ulp drift at tot={tot}"


def test_token_entropy_hand_cases(ray_session, tmp_path):
    """0 tokens → 0; 1 token → 0; uniform k tokens → log2(k) micro;
    and the 2:1:1 case against the closed form."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from documentconvert_ray.pipelines import queries as Q

    texts = ["", "solo", "a b c d", "x x y z"]
    df = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": texts,
        "lang": "en", "source": "s",
        "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = (Q.q_token_entropy(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["n_tokens"].tolist() == [0, 1, 4, 4]
    assert got["entropy_micro"].iloc[0] == 0
    assert got["entropy_micro"].iloc[1] == 0
    assert got["entropy_micro"].iloc[2] == 2_000_000  # log2(4) exact
    # 2:1:1 → H = 1.5 bits; per-term floors then //tot
    want = (math.floor(2 * math.log2(4 / 2) * 1e6)
            + 2 * math.floor(1 * math.log2(4 / 1) * 1e6)) // 4
    assert got["entropy_micro"].iloc[3] == want
