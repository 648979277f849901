"""Unit coverage for the session-9 operators (T165-T166): the bigram
LM scorer's two execution paths pinned equal (broadcast dict vs the
distributed model-join path), a brute-force pandas recompute of the
per-doc NLL independent of both paths, and cluster-representative
invariants against the component labels they derive from."""

import os
import sys

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def registry(ray_session):
    from documentconvert_ray.pipelines.queries import oracle_sql, queries

    return queries(), oracle_sql()


def _canon(df):
    from check_oracles import canon, to_pandas

    return canon(to_pandas(df))


def test_bigram_lm_nll_matches_bruteforce(registry, ray_session):
    """Independent pandas recompute: MLE bigram counts over the raw
    parquet, per-instance integer log2-micro NLL, per-doc average."""
    from documentconvert_ray.functions.textstats import tokens

    qs, _ = registry
    got = _canon(qs["bigram_lm_nll"](SF))

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    cnt: dict = {}
    c1: dict = {}
    docs = []
    for doc_id, text in zip(t.column("doc_id").to_pylist(),
                            t.column("text").to_pylist()):
        tk = tokens(text.lower())
        pairs = list(zip(tk[:-1], tk[1:]))
        docs.append((doc_id, pairs))
        for p in pairs:
            cnt[p] = cnt.get(p, 0) + 1
            c1[p[0]] = c1.get(p[0], 0) + 1

    def lg(n):
        return int(np.floor(np.log2(np.float64(n)) * 1_000_000))

    rows = []
    for doc_id, pairs in docs:
        if not pairs:
            continue
        tot = sum(lg(c1[w1]) - lg(cnt[(w1, w2)]) for w1, w2 in pairs)
        rows.append((doc_id, len(pairs), tot // len(pairs)))
    want = _canon(pd.DataFrame(
        rows, columns=["doc_id", "n_bigrams", "nll_log2_micro"]
    ).astype("int64"))
    assert len(want) > 0
    assert got.equals(want)


def test_bpe_encode_counts_matches_bruteforce(registry, ray_session):
    """Independent re-encode of the raw parquet with the merge rules
    the trainer returns: same per-doc word and subword counts."""
    from documentconvert_ray.functions.textstats import tokens

    qs, _ = registry
    merges = qs["bpe_vocab"](SF)
    merges = (merges.to_pandas()
              if hasattr(merges, "to_pandas") else merges)
    rules = list(zip(merges["left"], merges["right"]))
    assert len(rules) > 0

    def enc(word):
        sym = list(word)
        for la, rb in rules:
            out, i = [], 0
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == la and sym[i + 1] == rb:
                    out.append(la + rb)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            sym = out
        return len(sym)

    got = _canon(qs["bpe_encode_counts"](SF))
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    rows = []
    for doc_id, text in zip(t.column("doc_id").to_pylist(),
                            t.column("text").to_pylist()):
        tk = tokens(text)
        rows.append((doc_id, len(tk), sum(enc(w) for w in tk)))
    want = _canon(pd.DataFrame(
        rows, columns=["doc_id", "n_words", "n_subwords"]
    ).astype("int64"))
    assert len(want) > 0
    # merges must actually fire: subwords < raw character count
    n_chars = sum(len(w) for doc_id, text in zip(
        t.column("doc_id").to_pylist(), t.column("text").to_pylist())
        for w in tokens(text))
    assert want["n_subwords"].sum() < n_chars
    assert got.equals(want)


def test_embedding_covariance_matches_numpy(registry, ray_session):
    """Whole-table numpy recompute of the integer Gram matrix."""
    qs, _ = registry
    got = _canon(qs["embedding_covariance"](SF))
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    m = np.floor(np.stack(t.column("embedding").to_pylist())
                 .astype(np.float64) * 1e6).astype(np.int64)
    g = m.T @ m
    iu, ju = np.triu_indices(m.shape[1])
    want = _canon(pd.DataFrame({
        "di": iu.astype(np.int64), "dj": ju.astype(np.int64),
        "sum_prod_micro2": g[iu, ju],
        "n_vecs": np.full(len(iu), m.shape[0], np.int64)}))
    assert got.equals(want)


def test_cluster_reps_invariants(registry, ray_session):
    """Each representative row names a doc INSIDE its component, with
    the component's maximum length (ties -> smallest id) and the
    exact component size; every component is represented once."""
    qs, _ = registry
    labels = qs["near_dup_clusters"](SF)
    lpd = labels.to_pandas() if hasattr(labels, "to_pandas") else labels
    reps = qs["cluster_reps"](SF)
    reps = reps.to_pandas() if hasattr(reps, "to_pandas") else reps

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    chars = dict(zip(t.column("doc_id").to_pylist(),
                     (len(x) for x in t.column("text").to_pylist())))

    by_rep = {}
    for d, r in zip(lpd["doc_id"], lpd["rep_doc_id"]):
        by_rep.setdefault(int(r), []).append(int(d))
    assert len(reps) == len(by_rep) > 0
    assert set(reps["rep_doc_id"]) == set(by_rep)
    for _, row in reps.iterrows():
        members = by_rep[int(row["rep_doc_id"])]
        assert int(row["n_docs"]) == len(members)
        assert int(row["keep_doc_id"]) in members
        best = sorted(members, key=lambda d: (-chars[d], d))[0]
        assert int(row["keep_doc_id"]) == best
        assert int(row["keep_chars"]) == chars[best]
