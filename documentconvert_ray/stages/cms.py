"""Count-Min sketch (Cormode & Muthukrishnan 2005, "An improved data
stream summary: the count-min sketch and its applications", J.
Algorithms 55(1)) — the heavy-hitter CANDIDATE FILTER in front of an
exact per-key count (the sketch-guided-exact pattern).

A grouped exact count over every key shuffles O(distinct keys) rows to
find the few heavy ones; at 10^9 keys that exchange dwarfs the answer.
The CMS route bounds it:

- per batch: hash every key ``depth`` ways into a ``depth × width``
  int64 counter grid and emit only the NON-ZERO slots as sparse
  ``(slot, n)`` rows — O(batch-distinct · depth) rows, independent of
  batch size;
- the sparse partials sum associatively (groupby slot), so the merged
  sketch is exactly the single-pass sketch of the whole input —
  ≤ depth·width rows however large the corpus;
- probe pass: the merged grid is broadcast (ray.put once); a key's
  estimate = min over its depth counters, which NEVER undercounts, so
  ``estimate ≥ threshold`` selects a SUPERSET of the true heavy
  hitters. Only those candidates' exact partial counts shuffle, and a
  final exact filter removes the false positives — the result is
  exact (SQL-oracle-checkable) while the exchange is O(candidates).

Overcount bound: E[excess] ≤ total/width per row, taken to the min
over ``depth`` independent rows — with width 4096 and the 1.2×-mean
threshold the candidate set stays within ~2× the true heavy set until
distinct keys approach ``width · mean`` (then widen the grid; it is a
constant, not a scale knob).

Reference class: the reference keeps per-task counters in a DB table
(database/models.py:40-88 status tallies); this is the corresponding
bounded-state summary for keys too numerous to tally exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .cardinality import _mix64

CMS_DEPTH = 4
CMS_WIDTH = 4096
# distinct splitmix64 lanes per row: salt the key stream per row with
# fixed odd constants before the avalanche
_CMS_SALTS = (0x243F6A8885A308D3, 0x13198A2E03707344,
              0xA4093822299F31D0, 0x082EFA98EC4E6C89)


def cms_rows(ids: np.ndarray) -> np.ndarray:
    """int64 keys → (depth, n) slot indices in [0, width)."""
    x = ids.astype(np.uint64)
    return np.stack([
        (_mix64(x ^ np.uint64(s)) % np.uint64(CMS_WIDTH)).astype(np.int64)
        for s in _CMS_SALTS
    ])


def cms_partial_rows(batch: pa.Table, key_col: str) -> pa.Table:
    """One batch → sparse (slot, n) rows of its CMS grid (slot =
    row·width + column). Collapses the batch to its distinct keys
    first, so the emitted row count is O(batch-distinct · depth)."""
    ids = batch.column(key_col).to_numpy(zero_copy_only=False)
    if len(ids) == 0:
        return pa.Table.from_pydict(
            {"slot": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
    keys, counts = np.unique(ids, return_counts=True)
    cols = cms_rows(keys)  # (depth, k)
    slots = (np.arange(CMS_DEPTH, dtype=np.int64)[:, None] * CMS_WIDTH
             + cols).ravel()
    ns = np.broadcast_to(counts, (CMS_DEPTH, len(keys))).ravel()
    # sum duplicate slots within the batch (two keys may collide)
    uslot, inv = np.unique(slots, return_inverse=True)
    acc = np.bincount(inv, weights=ns).astype(np.int64)
    return pa.Table.from_pydict(
        {"slot": pa.array(uslot, pa.int64()), "n": pa.array(acc, pa.int64())})


def cms_grid(slot_rows) -> np.ndarray:
    """Merged sparse rows (pandas DataFrame slot/n) → dense grid."""
    grid = np.zeros(CMS_DEPTH * CMS_WIDTH, dtype=np.int64)
    grid[np.asarray(slot_rows["slot"], dtype=np.int64)] = np.asarray(
        slot_rows["n"], dtype=np.int64)
    return grid.reshape(CMS_DEPTH, CMS_WIDTH)


def cms_estimate(grid: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Point estimates (min over depth) for an int64 key vector."""
    cols = cms_rows(keys)  # (depth, k)
    vals = grid[np.arange(CMS_DEPTH)[:, None], cols]
    return vals.min(axis=0)


class CmsCandidateCountStage:
    """Probe pass: per batch, keep only keys whose broadcast-CMS
    estimate clears the threshold, and emit their exact partial
    counts. The grid travels by ray.put ref (once per worker, not per
    batch)."""

    def __init__(self, grid_ref, key_col: str, threshold: int) -> None:
        self._grid_ref = grid_ref
        self._key = key_col
        self._thr = threshold
        self._grid = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .similarity import resolve_broadcast

        if self._grid is None:
            self._grid = resolve_broadcast(self._grid_ref, key="cms-grid")
        ids = batch.column(self._key).to_numpy(zero_copy_only=False)
        empty = pa.Table.from_pydict(
            {self._key: pa.array([], pa.int64()),
             "n": pa.array([], pa.int64())})
        if len(ids) == 0:
            return empty
        keys, counts = np.unique(ids, return_counts=True)
        keep = cms_estimate(self._grid, keys) >= self._thr
        if not keep.any():
            return empty
        keys, counts = keys[keep], counts[keep]
        return pa.Table.from_pydict(
            {self._key: pa.array(keys.astype(np.int64), pa.int64()),
             "n": pa.array(counts.astype(np.int64), pa.int64())})
