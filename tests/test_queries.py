"""Query-vs-oracle parity tests (the driver's correctness gate, run
locally at sf0.001) + semantic checks for the non-SQL ops."""

import os
import sys

import pytest

from documentconvert_ray.pipelines.queries import oracle_sql

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

SF_DIR = "/root/testdata/sf0.001"

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
    return con


@pytest.fixture(scope="module")
def registry(ray_session):
    from documentconvert_ray.pipelines.queries import queries

    return queries(), oracle_sql()


@pytest.mark.parametrize("name", sorted(oracle_sql()))
def test_query_matches_oracle(name, duck, registry, ray_session):
    from check_oracles import canon, to_pandas

    qs, oracles = registry
    got = canon(to_pandas(qs[name](SF_DIR)))
    exp = canon(duck.execute(oracles[name]).fetchdf())
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp), f"{name}: {len(got)} != {len(exp)}"
    assert got.equals(exp), f"{name}: value mismatch"


# The queries on the registry's top-k combiner, sorted-key probe and
# min-id seed, checked again under a second block layout: 16 KiB
# blocks split the map outputs, which changes the grouped exchanges'
# partition counts and which of their groups come out empty (empty,
# schema-less blocks that the per-block partials downstream must pass
# by; q21_waiting_suppliers leaves some at either layout).
SMALL_BLOCK_QUERIES = (
    "big_orders bigram_lm_nll bigram_pmi bpe_pair_merge bracket_revenue "
    "cheapest_supplier cluster_reps dedup_keep_best excess_suppliers "
    "fk_integrity kcenter_coreset latest_orders local_supplier_volume "
    "market_share nation_revenue nation_trade_volume nation_year_profit "
    "ngram_top20 ngram_top20_mg oov_rate order_revenue_join orders_page "
    "promo_revenue q21_waiting_suppliers rare_token_score returned_items "
    "sample_exact_k tfidf_top_terms top_customers uniform_sample_k "
    "weighted_sample_k").split()

# The queries that attach a dimension through
# ``stages.similarity.lookup_join``, checked again on its hash-join
# plan: a zero byte budget sends every dimension through it.
LOOKUP_JOIN_QUERIES = (
    "bigram_lm_nll bigram_pmi local_supplier_volume market_share "
    "nation_revenue promo_revenue tfidf_top_terms").split()


@pytest.fixture
def small_blocks(ray_session):
    from ray.data import DataContext

    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    yield
    ctx.target_max_block_size = saved


@pytest.mark.parametrize("name", SMALL_BLOCK_QUERIES)
def test_query_matches_oracle_small_blocks(name, duck, registry,
                                           small_blocks):
    test_query_matches_oracle(name, duck, registry, None)


@pytest.mark.parametrize("name", LOOKUP_JOIN_QUERIES)
def test_query_matches_oracle_lookup_join_path(name, duck, registry,
                                               monkeypatch):
    from documentconvert_ray.stages import similarity as sim

    monkeypatch.setattr(sim, "LOOKUP_BCAST_BYTES", 0)
    test_query_matches_oracle(name, duck, registry, None)


def test_sample_exact_k_takes_its_own_k(registry):
    from documentconvert_ray.pipelines import queries as Q

    assert "LIMIT 200" in registry[1]["sample_exact_k"]
    assert len(Q.q_sample_exact_k(SF_DIR)) == Q.SAMPLE_EXACT_K == 200


def test_every_query_has_runnable_entry(registry):
    qs, oracles = registry
    assert set(oracles) <= set(qs)
    assert len(qs) >= 20


def test_ann_ivf_recall_vs_brute_force(registry, ray_session):
    """IVF is approximate; require recall@5 ≥ 0.6 vs brute force on
    this data (nprobe=4 of 16 buckets)."""
    from check_oracles import to_pandas

    qs, _ = registry
    exact = to_pandas(qs["knn_cosine"](SF_DIR))
    approx = to_pandas(qs["ann_ivf"](SF_DIR))
    e = {(int(r.query_id), int(r.neighbor_id)) for r in exact.itertuples()}
    a = {(int(r.query_id), int(r.neighbor_id)) for r in approx.itertuples()}
    recall = len(e & a) / len(e)
    assert recall >= 0.6, f"IVF recall {recall:.2f}"


def test_embedding_near_dups_ivf_recall(registry, ray_session):
    """IVF multi-probe near-dup is approximate; require recall ≥ 0.9
    vs the exact broadcast sweep and NO false positives (every emitted
    pair is cosine-verified in its bucket)."""
    from check_oracles import to_pandas

    qs, _ = registry
    exact = to_pandas(qs["embedding_near_dups"](SF_DIR))
    approx = to_pandas(qs["embedding_near_dups_ivf"](SF_DIR))
    e = set(zip(exact["vec_id_a"], exact["vec_id_b"]))
    a = set(zip(approx["vec_id_a"], approx["vec_id_b"]))
    assert len(a - e) == 0, "false positives"
    assert len(e & a) / len(e) >= 0.9


def test_value_quantiles_sketch_rank_bound(registry, ray_session, duck):
    """The sketch op must agree with ground truth to within ±2% RANK
    per quantile (theory bound ≈ ±0.4% at S=512), with exact n_events
    and the same key set / schema as the exact operator."""
    import numpy as np

    from check_oracles import to_pandas

    qs, _ = registry
    sk = to_pandas(qs["value_quantiles_sketch"](SF_DIR)).set_index("event_type")
    exact = to_pandas(qs["value_quantiles"](SF_DIR)).set_index("event_type")
    assert list(sk.columns) == list(exact.columns)
    assert sorted(sk.index) == sorted(exact.index)
    truth = duck.execute(
        "SELECT event_type, CAST(floor(value*1000000 + 0.5) AS BIGINT) v"
        " FROM events").fetchdf()
    for et, g in truth.groupby("event_type"):
        v = np.sort(g["v"].to_numpy(dtype=np.int64))
        n = len(v)
        assert int(sk.loc[et, "n_events"]) == n
        for q, col in ((0.25, "p25_micro"), (0.50, "p50_micro"),
                       (0.90, "p90_micro")):
            got = int(sk.loc[et, col])
            # rank of the returned value in the true sorted multiset
            lo = np.searchsorted(v, got, side="left") / n
            hi = np.searchsorted(v, got, side="right") / n
            assert lo - 0.02 <= q <= hi + 0.02, (et, col, q, lo, hi)


def test_distinct_users_hll_error_bound(registry, ray_session):
    """HLL estimate within ±5% of the exact twin per key (theory
    stderr ≈ 1.6% at P=12), same key set."""
    from check_oracles import to_pandas

    qs, _ = registry
    hll = to_pandas(qs["distinct_users_hll"](SF_DIR)).set_index("event_type")
    exact = to_pandas(qs["distinct_users"](SF_DIR)).set_index("event_type")
    assert sorted(hll.index) == sorted(exact.index)
    for et in exact.index:
        n, est = int(exact.loc[et, "n_users"]), int(hll.loc[et, "n_users_est"])
        assert abs(est - n) <= max(2, 0.05 * n), (et, n, est)


def test_hll_kernel_merge_associative_and_accurate():
    """Pure-kernel gate (no Ray): 1M distinct ids at 3% tolerance,
    AND split-merge equals whole-corpus registers exactly (elementwise
    max associativity is what makes the distributed op partitioning-
    independent)."""
    import numpy as np

    from documentconvert_ray.stages.cardinality import (
        hll_estimate, hll_registers)

    ids = np.arange(1_000_000, dtype=np.int64) * 2_654_435_761 + 17
    whole = hll_registers(ids)
    merged = np.zeros_like(whole)
    for i in range(0, len(ids), 37_123):
        np.maximum(merged, hll_registers(ids[i:i + 37_123]), out=merged)
    assert np.array_equal(whole, merged)
    est = hll_estimate(whole)
    assert abs(est - 1_000_000) <= 30_000, est
    # small-range (linear counting) branch
    small = hll_registers(ids[:500])
    assert abs(hll_estimate(small) - 500) <= 25


def test_mg_partial_compression_lower_bounds():
    """Kernel gate: with > MG_SIZE distinct words the summary really
    compresses (≤ MG_SIZE rows), every kept count is a LOWER bound
    within N_batch/(MG_SIZE+1) of truth, and a genuinely heavy word
    survives with most of its mass (the e2e oracle test can't show
    this at sf0.001 where batch vocabularies are under MG_SIZE)."""
    import pyarrow as pa

    from documentconvert_ray.stages.text import MG_SIZE, mg_partial_counts

    words = [f"w{i:05d}" for i in range(MG_SIZE + 2000)]
    text = " ".join(words) + " heavy" * 0 + (" heavy" * 500)
    batch = pa.table({"text": pa.array([text])})
    out = mg_partial_counts(batch)
    assert out.num_rows <= MG_SIZE
    got = dict(zip(out.column("word").to_pylist(),
                   out.column("n").to_pylist()))
    n_batch = MG_SIZE + 2000 + 500
    err = n_batch // (MG_SIZE + 1) + 1
    assert "heavy" in got and 500 - err <= got["heavy"] <= 500
    for w, n in got.items():
        true = 500 if w == "heavy" else 1
        assert 0 < n <= true


def test_sketch_hierarchy_rank_error_bound():
    """Pure-kernel gate (no Ray): 200k values through the real
    partial→merge→final hierarchy with compression ACTUALLY firing at
    every level (batches of 5k ≫ S per key would not compress at
    sf0.001, which is why the e2e test alone is not enough). Asserts
    the theory bound: rank error ≤ 2/S per quantile, exact counts."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from documentconvert_ray.stages.sketch import (
        SKETCH_SIZE, sketch_final, sketch_merge, sketch_partial)

    n, n_batches, n_buckets = 200_000, 40, 8
    # deterministic skewed data: squared uniform ints
    v = (np.arange(n, dtype=np.int64) * 48271 % 65537) ** 2
    parts = []
    for i in range(n_batches):
        chunk = v[i * (n // n_batches):(i + 1) * (n // n_batches)]
        t = pa.table({"event_type": pa.array(["k"] * len(chunk)),
                      "v": pa.array(chunk, pa.int64())})
        p = sketch_partial(t, n_buckets)
        assert max(len(x) for x in p["vals"].to_pylist()) <= SKETCH_SIZE
        parts.append(p.to_pandas())
    merged = pd.concat(
        [sketch_merge(g) for _, g in
         pd.concat(parts, ignore_index=True).groupby("jb")],
        ignore_index=True)
    out = sketch_final(merged)
    assert int(out["n_events"].iloc[0]) == n
    sv = np.sort(v)
    for q, col in ((0.25, "p25_micro"), (0.50, "p50_micro"),
                   (0.90, "p90_micro")):
        got = int(out[col].iloc[0])
        lo = np.searchsorted(sv, got, side="left") / n
        hi = np.searchsorted(sv, got, side="right") / n
        tol = 2.0 / SKETCH_SIZE
        assert lo - tol <= q <= hi + tol, (col, q, lo, hi)


def test_simhash_pairs_deterministic(registry, ray_session):
    from check_oracles import to_pandas

    qs, _ = registry
    a = to_pandas(qs["simhash_near_dups"](SF_DIR))
    b = to_pandas(qs["simhash_near_dups"](SF_DIR))
    assert a.sort_values(list(a.columns)).reset_index(drop=True).equals(
        b.sort_values(list(b.columns)).reset_index(drop=True)
    )
    assert (a["hamming"] <= 3).all() if len(a) else True


def test_minhash_pairs_deterministic(registry, ray_session):
    from check_oracles import to_pandas

    qs, _ = registry
    a = to_pandas(qs["minhash_dup_pairs"](SF_DIR))
    b = to_pandas(qs["minhash_dup_pairs"](SF_DIR))
    assert a.sort_values(list(a.columns)).reset_index(drop=True).equals(
        b.sort_values(list(b.columns)).reset_index(drop=True)
    )
    # verified pairs must really exceed the jaccard threshold
    assert (a["jaccard_micro"] >= 700_000).all() if len(a) else True


def test_simhash_pairs_sound(registry, ray_session):
    """Soundness: every emitted simhash pair, independently recomputed
    from the raw documents, really has hamming distance <= 3 AND
    shares at least one 16-bit band (the candidate condition)."""
    import pyarrow.parquet as pq

    from documentconvert_ray.functions.textstats import simhash64

    qs, _ = registry
    pairs = qs["simhash_near_dups"](SF_DIR).to_pandas()
    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"])
    text_of = dict(zip(t.column("doc_id").to_pylist(),
                       t.column("text").to_pylist()))
    assert len(pairs) > 0
    for a, b, ham in zip(pairs["doc_id_a"], pairs["doc_id_b"],
                         pairs["hamming"]):
        sa, sb = simhash64(text_of[int(a)]), simhash64(text_of[int(b)])
        x = sa ^ sb
        assert bin(x).count("1") == int(ham) <= 3, (a, b)
        assert any(((x >> (16 * band)) & 0xFFFF) == 0 for band in range(4))


def test_prefix_jaccard_order_invariance(ray_session):
    """The prefix-filter theorem holds under ANY global total order:
    the hash-order default and PPJoin's df-ascending order must emit
    the IDENTICAL exact pair set (both verified, both lossless)."""
    from documentconvert_ray.pipelines.queries import _prefix_jaccard

    def canon(res):
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    a = canon(_prefix_jaccard(SF_DIR, use_df_order=False))
    b = canon(_prefix_jaccard(SF_DIR, use_df_order=True))
    assert a.equals(b)
    assert (a["jaccard_micro"] >= 600_000).all() if len(a) else True


def test_distinct_over_empty_schemaless_blocks(ray_session):
    """The candidate-id distinct holds on the block mix an empty group
    of a grouped exchange leaves (empty schema-less pandas blocks next
    to Arrow blocks), where ``Dataset.unique`` raises TypeError."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from documentconvert_ray.pipelines.queries import _distinct

    ds = ray.data.from_blocks([
        pd.DataFrame(), pa.table({"a": [3, 1, 1], "b": [2, 5, 3]}),
        pd.DataFrame(), pa.table({"a": [7], "b": [1]}),
    ])
    assert _distinct(ds, "a", "b") == [1, 2, 3, 5, 7]


def test_near_dup_clusters_reps_are_component_minima(registry, ray_session):
    """Every rep is the min id of its cluster and every clustered doc
    appears exactly once."""
    qs, _ = registry
    df = qs["near_dup_clusters"](SF_DIR).to_pandas()
    assert df["doc_id"].is_unique
    by_rep = df.groupby("rep_doc_id")["doc_id"].min()
    assert (by_rep.index == by_rep.values).all()

def test_cc_distributed_chain_graph(ray_session):
    """Min-label propagation on a path graph (diameter 8 — forces
    multiple propagation rounds) plus a disjoint 2-clique: every node
    labels with its component minimum."""
    import pyarrow as pa
    import ray.data

    from documentconvert_ray.pipelines.queries import _cc_distributed

    chain = [(i, i + 1) for i in range(10, 18)]  # component min = 10
    pairs = chain + [(100, 101)]
    ds = ray.data.from_arrow(pa.Table.from_pydict(
        {"doc_id_a": pa.array([a for a, _ in pairs], pa.int64()),
         "doc_id_b": pa.array([b for _, b in pairs], pa.int64()),
         "jaccard_micro": pa.array([10 ** 6] * len(pairs), pa.int64())}))
    df = _cc_distributed(ds).to_pandas().sort_values("doc_id")
    got = dict(zip(df["doc_id"], df["rep_doc_id"]))
    assert got == {**{i: 10 for i in range(10, 19)}, 100: 100, 101: 100}


def test_cc_distributed_matches_driver_union_find(registry, ray_session,
                                                  monkeypatch):
    """Forcing the distributed path (CC_DRIVER_MAX_PAIRS=0) on the real
    sf0.001 pair set yields exactly the driver union-find's labels."""
    from check_oracles import canon, to_pandas

    from documentconvert_ray.pipelines import queries as q

    qs, _ = registry
    driver = canon(to_pandas(qs["near_dup_clusters"](SF_DIR)))
    monkeypatch.setattr(q, "CC_DRIVER_MAX_PAIRS", 0)
    dist = canon(to_pandas(qs["near_dup_clusters"](SF_DIR)))
    assert len(driver) > 0
    assert driver.equals(dist)


def test_cc_distributed_random_graph(ray_session):
    """Distributed propagation equals a reference union-find on a
    deterministic pseudo-random graph (2,000 edges over 1,500 nodes —
    many components of varied size/shape, multiple merge rounds)."""
    import pyarrow as pa
    import ray.data

    from documentconvert_ray.pipelines.queries import _cc_distributed

    x = 12345
    edges = []
    for _ in range(2000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        a = (x >> 16) % 1500
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        b = (x >> 16) % 1500
        if a != b:
            edges.append((min(a, b), max(a, b)))

    parent: dict = {}

    def find(v):
        r = v
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(v, v) != v:
            parent[v], v = r, parent[v]
        return r

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted({n for e in edges for n in e})
    expected = {n: find(n) for n in nodes}

    ds = ray.data.from_arrow(pa.Table.from_pydict(
        {"doc_id_a": pa.array([a for a, _ in edges], pa.int64()),
         "doc_id_b": pa.array([b for _, b in edges], pa.int64())}))
    df = _cc_distributed(ds).to_pandas()
    got = dict(zip(df["doc_id"].astype(int), df["rep_doc_id"].astype(int)))
    assert got == expected


def test_sentence_split_multi_sentence(registry, ray_session, tmp_path):
    """The sf corpus happens to be single-sentence docs, so the gate
    never exercises the 1→N explode path — pin it against the oracle
    on a multi-sentence table."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from check_oracles import canon, to_pandas

    qs, oracles = registry
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([
            "One. Two sentences! A third? Tail without ender",
            "",
            "no enders at all",
            "Multi  spaces.  After!   End.",
            # Unicode whitespace (NBSP/thin space) must NOT split on
            # either side — the class is explicit ASCII, not \\s
            "Stays. together! really. glued? Split here",
        ], pa.string()),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = canon(to_pandas(qs["sentence_split"](str(tmp_path))))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    exp = canon(con.execute(oracles["sentence_split"]).fetchdf())
    # doc 5: ASCII spaces after '!' and '?' split (3 pieces); the
    # NBSP after 'Stays.' and thin space after 'really.' do NOT
    assert len(got) == 11  # 4 + 0 + 1 + 3 + 3 ('End.' stays whole)
    assert got.equals(exp)


def test_doc_fingerprints_non_ascii_matches_oracle(registry, ray_session,
                                                   tmp_path):
    """Non-ASCII docs route to the md5 fallback on BOTH sides (SQL
    can only address characters, the engine rolls UTF-8 bytes) — pin
    engine/oracle parity on a mixed-ASCII/unicode table."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from check_oracles import canon, to_pandas

    qs, oracles = registry
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "plain ascii document long enough for many windows. " * 3,
            "ünïcode document — müssen wir über den Fallback gehen",
            "中文文档也必须走哈希回退路径才能保持一致",
            "sm",  # shorter than the window
        ], pa.string()),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = canon(to_pandas(qs["doc_fingerprints"](str(tmp_path))))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    exp = canon(con.execute(oracles["doc_fingerprints"]).fetchdf())
    assert len(got) == 4
    assert got.equals(exp)


def test_event_density_boundary_semantics(registry, ray_session, tmp_path):
    """Inclusive ±1 h bounds and bucket-boundary replication, pinned
    on crafted timestamps: pairs exactly 1 h apart count (BETWEEN is
    inclusive), 1 h + 1 µs apart don't, and pairs straddling a bucket
    edge are found via the b±1 build replication."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from check_oracles import canon, to_pandas
    from documentconvert_ray.pipelines.queries import DENSITY_WINDOW_US

    W = DENSITY_WINDOW_US
    base = 1_700_000_000_000_000  # µs epoch, mid-bucket somewhere
    ts_us = [
        base,              # e1
        base + W,          # e2: exactly +1h from e1 → mutual (inclusive)
        base + 2 * W + 1,  # e3: 1h+1µs after e2 → NOT counted with e2
        ((base // W) + 5) * W - 1,   # e4: 1µs before a bucket edge
        ((base // W) + 5) * W + 1,   # e5: 1µs after it (2µs apart,
                                     # different buckets → replication)
    ]
    events = pa.table({
        "event_id": pa.array(list(range(1, 6)), pa.int64()),
        "ts": pa.array(ts_us, pa.timestamp("us")),
    })
    pq.write_table(events, str(tmp_path / "events.parquet"))
    qs, oracles = registry
    got = canon(to_pandas(qs["event_density"](str(tmp_path))))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
    exp = canon(con.execute(oracles["event_density"]).fetchdf())
    assert got.equals(exp)
    counts = dict(zip(got["event_id"], got["n_within_1h"]))
    assert counts == {1: 2, 2: 2, 3: 1, 4: 2, 5: 2}
