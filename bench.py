"""Query battery timings: representative registry
queries over the $GRAFT_SF_DIR tables, timed one after another in one
Ray session. Prints ONE JSON line. The extraction benchmark is
``extractbench/`` (see its README).

  python bench.py             # $RAY_GRAFT_CPUS (default: os.cpu_count())
  python bench.py --battery-budget 120   # timebox the query battery:
                              # never-driver-checked + previous-round
                              # slowest-10 run first, skipped queries
                              # reported under "queries_skipped"
  BENCH_ONLY_QUERY=<name> python bench.py   # time one query
"""

from __future__ import annotations

import json
import os
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", str(os.cpu_count() or 1)))

QUERY_NAMES = [
    # r3-era battery FIRST, in its round-3 run order: these are the
    # queries every BENCH_r* shares, and per-query timings in a long
    # mixed battery depend on what ran before (idle task workers get
    # evicted by actor/shuffle-heavy neighbors and the next query
    # repays worker spawn+import) -- keeping the shared prefix in the
    # same order keeps the cross-round comparison apples-to-apples.
    "doc_stats_by_lang",
    "token_counts",
    "exact_dedup",
    "ngram_top20",
    "minhash_dup_pairs",
    "near_dup_clusters",
    "simhash_near_dups",
    "ngram_jaccard_dups",
    "embedding_near_dups",
    "embedding_near_dups_ivf",
    "hash_sample",
    "sentence_split",
    "bloom_semi_join",
    "moving_sum",
    "dup_gram_mass",
    "tfidf_top_terms",
    "per_lang_top5",
    "term_scrub",
    "repetition_stats",
    "benchmark_contamination",
    "sequence_pack",
    "events_hourly",
    "events_sliding",
    "value_quantiles",
    "corpus_curation",
    "purchase_attribution",
    "event_value_bands",
    "user_sessions",
    "user_running_total",
    "big_orders",
    "pricing_summary",
    "top_customers",
    "order_revenue_join",
    "latest_orders",
    "filter_regex",
    "knn_cosine",
    "ann_ivf",
    # everything added after round 3, oldest first
    "gopher_rules",
    "nfc_audit",
    "padding_waste",
    "domain_gini",
    "url_host_rules",
    "embedding_contamination",
    "fuzzy_contamination",
    "sentence_lang_mismatch",
    "uniform_sample_k",
    "quality_calibration",
    "weighted_sample_k",
    "funnel_conversion",
    "column_profile",
    "embedding_covariance",
    "bpe_encode_counts",
    "fk_integrity",
    "token_drift_kl",
    "winsorized_value_mean",
    "regex_token_counts",
    "value_mad",
    "global_row_ids",
    "user_entropy",
    "embedded_image_stats",
    "bigram_lm_nll",
    "cluster_reps",
    "nation_year_profit",
    "ship_delay_modes",
    "excess_suppliers",
    "kcenter_coreset",
    "embedding_quantize",
    "cheapest_supplier",
    "returned_priority_counts",
    "small_qty_revenue",
    "top_suppliers",
    "idle_rich_customers",
    "brand_supplier_counts",
    "domain_link_agg",
    "geo_mean_value",
    "bpe_vocab",
    "hard_negatives",
    "class_balance_plan",
    "filtered_revenue",
    "important_parts",
    "nation_trade_volume",
    "market_share",
    "returned_items",
    "customer_order_dist",
    "bracket_revenue",
    "incremental_dedup",
    "token_entropy",
    "in_transit_daily",
    "dsir_weights",
    "srp_embedding_dups",
    "substring_dup_spans",
    "quality_lr",
    "q21_waiting_suppliers",
    "value_quantiles_cont",
    "sliding_distinct_users",
    "new_users_daily",
    "heavy_hitters_cms",
    "lang_confusion",
    "zipf_slope",
    "char_diversity",
    "bpe_pair_merge",
    "local_supplier_volume",
    "link_domains",
    "domain_degrees",
    "reciprocal_links",
    "pii_scrub",
    "training_shuffle",
    "asof_last_order",
    "lineitem_unpivot",
    "fuzzy_prefix_dups",
    "sample_k_per_lang",
    "window_dedup",
    "dataset_mix",
    "bigram_pmi",
    "value_variance",
    "ntile_deciles",
    "salted_user_join",
    "normalized_dedup",
    "event_cooccurrence",
    "dense_order_grid",
    "label_pair_sim",
    "nation_revenue",
    "lang_median_chars",
    "rare_token_score",
    "active_streaks",
    "cohort_retention",
    "promo_revenue",
    "kmeans_embeddings",
    "latest_order_per_customer",
    "revenue_mom",
    "multimodal_features",
    "multimodal_resize",
    "frame_sample",
    "sentence_dedup",
    "doc_chunks",
    "embedding_outliers",
    "oov_rate",
    "audio_decode",
    "audio_features",
    "substring_scan",
    "dedup_keep_best",
    "dataset_split",
    "domain_triangles",
    "domain_clustering",
    "anchor_texts",
    "charset_audit",
    "containment_dups",
    "prefix_jaccard_dups",
    "sorted_neighborhood_dups",
    "domain_components",
    "domain_hops",
    "mad_outliers",
    "peak_concurrency",
    "inverted_index",
    "purchase_ffill",
    "session_duration_stats",
    "intra_domain_link_ratio",
    "hourly_anomaly",
    "pareto_docs",
    "lang_source_mi",
    "user_overlap_kmv",
    "multi_touch_attribution",
    "event_rle",
    "feature_hash_vectors",
    "events_time_window",
    "vocab_growth",
    "degree_assortativity",
    "domain_kcore",
    "value_interp",
    "harmonic_centrality",
    "event_path_trigrams",
    "weighted_median_price",
    # round-5 additions
    "ocr_text",
    "ngram_novelty",
    "event_decay_mass",
    "pagerank_domains",
    "hits_domains",
]


def battery_order(budget: float) -> list[str]:
    """Battery order for a TIMEBOXED run (VERDICT r4 task 8): with a
    budget set, the highest-signal queries run first — (1) queries
    never driver-CORRECTNESS-sampled in any recorded round, (2) the
    slowest 10 of the previous round's bench (regression canaries),
    (3) everything else in the standard shared order. Without a
    budget the shared QUERY_NAMES order is kept verbatim (per-query
    timings depend on battery position — BENCH cross-round
    comparability note above)."""
    if not budget:
        return list(QUERY_NAMES)
    import glob as _glob

    sampled: set = set()
    for f in sorted(_glob.glob(os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "CORRECTNESS_r0*.json"))):
        try:
            with open(f) as fh:
                sampled.update(json.load(fh).keys())
        except (OSError, ValueError):
            pass
    prev: dict = {}
    benches = sorted(_glob.glob(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_r0*.json")))
    if benches:
        try:
            with open(benches[-1]) as fh:
                prev = json.load(fh).get("queries", {})
        except (OSError, ValueError):
            prev = {}
    slowest = [n for n, _ in sorted(prev.items(), key=lambda kv: -kv[1])
               if n in QUERY_NAMES][:10]
    never = [n for n in QUERY_NAMES if n not in sampled]
    seen: set = set()
    out: list[str] = []
    for n in never + slowest + list(QUERY_NAMES):
        if n not in seen:
            seen.add(n)
            out.append(n)
    return out


def _init_ray() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        # The raylet's idle-worker soft cap defaults to num_cpus TOTAL
        # processes; every actor-pool query then evicts the plain task
        # workers, and the next task query repays worker spawn + numpy/
        # pandas import INSIDE its timing (measured: token_counts 0.6 s
        # warm vs 6.1 s right after a heavy actor stage). Raising the
        # cap keeps both populations resident across a mixed battery.
        _system_config={"num_workers_soft_limit": NUM_CPUS * 5},
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def run_only_query(name: str) -> dict:
    """Time ONE query pipeline (ray.init/import overhead stays outside
    the timed window)."""
    import ray

    _init_ray()
    from documentconvert_ray.pipelines.queries import queries

    fn = queries()[name]
    runs = []
    for _ in range(int(os.environ.get("BENCH_REPEATS", "1"))):
        t0 = time.monotonic()
        res = fn(SF_DIR)
        if hasattr(res, "count"):
            res.count()
        runs.append(round(time.monotonic() - t0, 3))
    ray.shutdown()
    return {"metric": "query_sec", "unit": "sec", "query": name,
            "sf": SF_DIR, "num_cpus": NUM_CPUS,
            "value": min(runs), "runs": runs}


def run_bench() -> dict:
    import ray

    _init_ray()
    from documentconvert_ray.pipelines.queries import queries

    result: dict = {
        "metric": "query_battery_sec",
        "unit": "sec",
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "queries": {},
    }
    qs = queries()
    # --battery-budget S / $BENCH_BATTERY_BUDGET: timebox the battery;
    # priority queries run first and anything cut is REPORTED (no
    # silent drops — VERDICT r4 task 8)
    budget = float(os.environ.get("BENCH_BATTERY_BUDGET", "0") or 0)
    for i, a in enumerate(sys.argv):
        if a == "--battery-budget" and i + 1 < len(sys.argv):
            budget = float(sys.argv[i + 1])
        elif a.startswith("--battery-budget="):
            budget = float(a.split("=", 1)[1])
    names = battery_order(budget)
    t_bat = time.monotonic()
    for name in names:
        if budget and time.monotonic() - t_bat > budget:
            result["battery_budget_sec"] = budget
            result["queries_skipped"] = [
                n for n in names if n not in result["queries"]]
            break
        t0 = time.monotonic()
        res = qs[name](SF_DIR)
        # consume lazily-built datasets fully (count() triggers execution
        # without driver materialization of wide columns)
        if hasattr(res, "count"):
            res.count()
        result["queries"][name] = round(time.monotonic() - t0, 3)

    result["value"] = round(sum(result["queries"].values()), 3)
    ray.shutdown()
    return result


if __name__ == "__main__":
    if os.environ.get("BENCH_ONLY_QUERY"):
        print(json.dumps(run_only_query(os.environ["BENCH_ONLY_QUERY"]),
                         sort_keys=True))
    else:
        print(json.dumps(run_bench(), sort_keys=True))
