"""The registry's lookup join (``stages.similarity.lookup_join``): its
broadcast plan and its hash-join plan (forced by a zero byte budget)
give the same rows, column names and dtypes."""

import pyarrow as pa
import pytest


def _table(ds) -> pa.Table:
    """Every row of ``ds`` in key order, whatever its block layout."""
    import ray

    from documentconvert_ray.stages.similarity import _as_arrow

    tabs = [t for t in map(_as_arrow, ray.get(ds.materialize()
                                              .to_arrow_refs()))
            if t.num_columns]
    t = pa.concat_tables(tabs, promote_options="permissive")
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _both_plans(monkeypatch, probe, dim, *args, **kw):
    from documentconvert_ray.stages import similarity as sim

    bcast = _table(sim.lookup_join(probe, dim, *args, **kw))
    monkeypatch.setattr(sim, "LOOKUP_BCAST_BYTES", 0)
    joined = _table(sim.lookup_join(probe, dim, *args, **kw))
    monkeypatch.undo()
    assert bcast.schema == joined.schema
    assert bcast.equals(joined)
    return bcast


def _probe(n: int = 40, blocks: int = 4):
    import ray

    return ray.data.from_items(
        [{"k": i, "x": f"s{i % 10}"} for i in range(n)],
        override_num_blocks=blocks)


def _dim(keys):
    import ray

    return ray.data.from_arrow(pa.table({
        "kk": pa.array(keys, pa.int64()),
        "v": pa.array([k * 1.5 for k in keys], pa.float64()),
        "s": pa.array([f"d{k}" for k in keys], pa.string())}))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("how", ["inner", "left_semi"])
def test_plans_agree(monkeypatch, how):
    got = _both_plans(monkeypatch, _probe(), _dim([1, 3, 5, 7, 33, 99]),
                      "k", "kk", how=how)
    assert got.column("k").to_pylist() == [1, 3, 5, 7, 33]
    if how == "inner":
        assert got.column_names == ["k", "x", "v", "s"]
        assert got.column("s").to_pylist() == ["d1", "d3", "d5", "d7", "d33"]
    else:
        assert got.column_names == ["k", "x"]


@pytest.mark.usefixtures("ray_session")
def test_composite_key(monkeypatch):
    import ray

    probe = ray.data.from_items(
        [{"w1": a, "w2": b, "d": i} for i, (a, b) in enumerate(
            [("a", "x"), ("a", "y"), ("b", "x"), ("c", "x"), ("b", "y")])],
        override_num_blocks=2)
    dim = ray.data.from_items([{"w1": "a", "w2": "x", "nll": 10},
                               {"w1": "b", "w2": "x", "nll": 20},
                               {"w1": "c", "w2": "y", "nll": 30}])
    got = _both_plans(monkeypatch, probe, dim, ["w1", "w2"])
    assert got.to_pylist() == [{"w1": "a", "w2": "x", "d": 0, "nll": 10},
                               {"w1": "b", "w2": "x", "d": 2, "nll": 20}]


@pytest.mark.usefixtures("ray_session")
def test_empty_dimension_keeps_its_columns(monkeypatch):
    empty = _dim([1]).map_batches(lambda b: b.slice(0, 0),
                                  batch_format="pyarrow")
    got = _both_plans(monkeypatch, _probe(), empty, "k", "kk")
    assert got.num_rows == 0
    assert got.column_names == ["k", "x", "v", "s"]


@pytest.mark.usefixtures("ray_session")
def test_dimension_in_one_join_partition(monkeypatch):
    """One dimension row: every other hash-join partition gets no
    dimension rows at all."""
    got = _both_plans(monkeypatch, _probe(200, 8), _dim([17]), "k", "kk")
    assert got.to_pylist() == [{"k": 17, "x": "s7", "v": 25.5, "s": "d17"}]


@pytest.mark.usefixtures("ray_session")
def test_probe_with_empty_groups_of_a_grouped_exchange(monkeypatch):
    """32 buckets over 3 keys: most groups are empty and leave empty,
    schema-less blocks in the probe."""
    import ray

    from documentconvert_ray.stages import dedup as dd
    from documentconvert_ray.stages.similarity import _as_arrow

    def close(g):
        return g.groupby("k", as_index=False).agg(n=("i", "count"))

    ds = ray.data.from_items([{"k": i % 3, "i": i} for i in range(30)],
                             override_num_blocks=10)
    probe = dd.bucketed_close(ds, "k", close, rows=30).materialize()
    blocks = [_as_arrow(b) for b in ray.get(probe.to_arrow_refs())]
    assert any(b.num_columns == 0 for b in blocks)
    got = _both_plans(monkeypatch, probe, _dim([0, 2, 5]), "k", "kk")
    assert got.select(["k", "n", "s"]).to_pylist() == [
        {"k": 0, "n": 10, "s": "d0"}, {"k": 2, "n": 10, "s": "d2"}]


@pytest.mark.usefixtures("ray_session")
def test_duplicate_dimension_keys_refused():
    from documentconvert_ray.stages import similarity as sim

    with pytest.raises(ValueError, match="duplicate"):
        sim.lookup_join(_probe(), _dim([1, 1]), "k", "kk")
