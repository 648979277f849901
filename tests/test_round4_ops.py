"""Unit coverage for the round-4 operators' kernels (T73-T76) — the
paths the sf-corpus oracles can't isolate."""

import numpy as np

from documentconvert_ray.pipelines.queries import _ed_le1


def _ed_ref(a: str, b: str) -> int:
    """Reference Levenshtein (full DP) for the property check."""
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]


def test_ed_le1_exhaustive_small():
    """_ed_le1 agrees with full Levenshtein (clamped at >1 → None)
    over every pair of strings of length ≤ 4 from a 3-letter
    alphabet."""
    al = "abc"
    universe = [""]
    frontier = [""]
    for _ in range(4):
        frontier = [s + c for s in frontier for c in al]
        universe += frontier
    for a in universe:
        for b in universe:
            ref = _ed_ref(a, b)
            got = _ed_le1(a, b)
            assert got == (ref if ref <= 1 else None), (a, b)


def test_deletion_neighborhood_completeness():
    """ed(a,b) ≤ 1 ⟹ the deletion neighborhoods intersect — the
    candidate-generation completeness q_fuzzy_prefix_dups relies on
    (no recall loss; the superset — e.g. transpositions like ab/ba
    also intersect — is removed by the exact _ed_le1 verify)."""
    import itertools
    import random

    rng = random.Random(7)
    words = ["".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
             for _ in range(120)]

    def neigh(s):
        return {s} | {s[:i] + s[i + 1:] for i in range(len(s))}

    n_true = 0
    for a, b in itertools.combinations(words, 2):
        if _ed_ref(a, b) <= 1:
            n_true += 1
            assert neigh(a) & neigh(b), (a, b)
    assert n_true > 50  # the property was actually exercised
    # and the false-positive class the verify must remove exists:
    assert _ed_ref("ab", "ba") == 2 and (neigh("ab") & neigh("ba"))
    assert _ed_le1("ab", "ba") is None


def test_window_dedup_chained_burst(ray_session, tmp_path):
    """Chained bursts: t0, t0+30m, t0+70m — row 3 is dropped because
    row 2 (itself dropped) is within the hour; EXISTS semantics, not
    survivor-based."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from documentconvert_ray.pipelines.queries import q_window_dedup

    us = 1_000_000
    rows = {
        "event_id": [1, 2, 3, 4, 5],
        "ts": pa.array(
            [0, 1800 * us, 4200 * us, 9000 * us, 9000 * us],
            pa.timestamp("us")),
        "user_id": [7, 7, 7, 7, 7],
        "event_type": ["click", "click", "click", "click", "view"],
    }
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pydict(rows), d / "events.parquet")
    out = q_window_dedup(str(d)).to_pandas().sort_values("event_id")
    # kept: 1 (first), 4 (>1h after the previous CLICK at 4200s),
    # 5 (different event_type); dropped: 2 (30m gap), 3 (40m gap to
    # the DROPPED row 2)
    assert list(out["event_id"]) == [1, 4, 5]


def test_dataset_mix_weight_proportions(ray_session):
    """Heavier sources appear ~weight× more often in the mix slice."""
    from documentconvert_ray.pipelines.queries import q_dataset_mix

    out = q_dataset_mix("/root/testdata/sf0.01")
    w = 1 + out["source"].str.extract(r"(\d+)$")[0].astype(np.int64) % 5
    counts = out.groupby(w.to_numpy()).size()
    # per-source draw count scales with weight: each weight class has
    # 4 sources, so class share ≈ 4w / Σ; check monotonicity
    assert counts.index.is_monotonic_increasing
    assert counts.loc[5] > counts.loc[1]
    # positions are the weighted round-robin schedule: first position
    # of a weight-5 source precedes first of a weight-1 source
    first_pos = out.groupby(w.to_numpy())["mix_pos"].min()
    assert first_pos.loc[5] < first_pos.loc[1]
