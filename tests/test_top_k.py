"""The registry's top-k combiner (``stages.similarity.top_k``) and
sorted-key probe (``pipelines.queries._sorted_lookup``)."""

import numpy as np
import pandas as pd
import pytest


def _rows(table):
    return table.to_pandas().to_dict("records")


@pytest.mark.usefixtures("ray_session")
def test_top_k_orders_by_every_key_and_breaks_ties():
    import ray

    from documentconvert_ray.stages.similarity import top_k

    rows = [{"n": i % 4, "w": f"w{i:02d}", "id": i} for i in range(40)]
    ds = ray.data.from_items(rows, override_num_blocks=7)
    ref = pd.DataFrame(rows)
    for keys, desc, k in [
        (["n", "w"], [True, False], 5),
        (["n", "id"], True, 12),
        (["w"], False, 3),
        (["n", "w"], [False, True], 9),
    ]:
        exp = ref.sort_values(keys, ascending=[not d for d in (
            desc if isinstance(desc, list) else [desc] * len(keys))])
        got = _rows(top_k(ds, keys, k, descending=desc))
        assert got == exp.head(k).to_dict("records"), (keys, desc)


@pytest.mark.usefixtures("ray_session")
def test_top_k_with_k_past_the_input():
    import ray

    from documentconvert_ray.stages.similarity import top_k

    ds = ray.data.from_items([{"x": x} for x in (5, 1, 4)],
                             override_num_blocks=3)
    assert _rows(top_k(ds, ["x"], 10)) == [{"x": 1}, {"x": 4}, {"x": 5}]
    assert _rows(top_k(ds, ["x"], 10, descending=True)) == [
        {"x": 5}, {"x": 4}, {"x": 1}]


@pytest.mark.usefixtures("ray_session")
def test_top_k_over_empty_groups_of_a_grouped_exchange():
    """32 buckets over 3 keys: most groups are empty and leave empty,
    schema-less blocks, which the per-block partial must pass by."""
    import ray

    from documentconvert_ray.stages import dedup as dd
    from documentconvert_ray.stages.similarity import top_k

    ds = ray.data.from_items([{"k": i % 3, "v": i} for i in range(30)],
                             override_num_blocks=10)

    def close(g):
        return g.groupby("k", as_index=False).agg(v=("v", "sum"))

    sums = dd.bucketed_close(ds, "k", close, rows=30, floor=32)
    assert _rows(top_k(sums, ["v", "k"], 2, descending=[True, False])) == [
        {"k": 2, "v": 155}, {"k": 1, "v": 145}]
    assert _rows(top_k(sums, ["k"], 5)) == [
        {"k": 0, "v": 135}, {"k": 1, "v": 145}, {"k": 2, "v": 155}]


@pytest.mark.usefixtures("ray_session")
def test_top_k_of_nothing_is_empty():
    import ray

    from documentconvert_ray.stages.similarity import top_k

    ds = ray.data.from_items([{"x": 1}]).limit(0)
    assert top_k(ds, ["x"], 3).num_rows == 0


def test_sorted_lookup_hits_and_misses():
    from documentconvert_ray.pipelines.queries import _sorted_lookup

    keys = np.array([2, 5, 9], np.int64)
    idx, hit = _sorted_lookup(keys, np.array([9, 1, 5, 10, 2], np.int64))
    assert hit.tolist() == [True, False, True, False, True]
    assert idx[hit].tolist() == [2, 1, 0]
    assert (idx < len(keys)).all()  # a probe past the last key clamps


def test_sorted_lookup_with_no_keys():
    from documentconvert_ray.pipelines.queries import _sorted_lookup

    vals = np.array([], np.int64)
    idx, hit = _sorted_lookup(np.array([], np.int64),
                              np.array([3, 4], np.int64))
    assert hit.tolist() == [False, False]
    assert vals[idx[hit]].tolist() == []
    idx, hit = _sorted_lookup(np.array([1], np.int64),
                              np.array([], np.int64))
    assert len(idx) == len(hit) == 0
