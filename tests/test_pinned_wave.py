"""The pinned-block round primitive every iterative fixpoint runs on
(``stages.similarity.pinned_wave``)."""

import pandas as pd
import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
def test_pinned_wave_skips_empty_blocks_and_keeps_ref_order():
    import ray

    from documentconvert_ray.stages.similarity import pinned_wave

    def tagged(block, k):
        return (block.column("x").to_pylist(), k)

    blocks = [
        pa.table({"x": pa.array([3, 4], pa.int64())}),
        pa.table({"x": pa.array([], pa.int64())}),  # empty
        pa.table({}),  # schema-less
        pd.DataFrame(),  # what an empty group of a grouped exchange yields
        pa.table({"x": pa.array([1], pa.int64())}),
        pa.table({"x": pa.array([9, 2, 7], pa.int64())}),
    ]
    refs = [ray.put(b) for b in blocks]
    got = pinned_wave(refs, tagged, 10)
    assert got == [([3, 4], 10), ([1], 10), ([9, 2, 7], 10)]
    assert pinned_wave(refs[1:4], tagged, 10) == []
