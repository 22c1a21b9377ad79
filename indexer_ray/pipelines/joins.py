"""Join operators Ray Data's Dataset API lacks, expressed as compositions
of map_batches + partition-routed map_groups (the engine's standard
blocking pattern — same shape as dedup bucketing and sessionize).

  * asof_join — for each left row, the most recent right row with
    right.ts <= left.ts within the same key (the classic event-enrichment
    join: "attach the latest click before this pageview").  Both sides
    hash-route on the key into N partitions; one vectorized
    sort + segmented-forward-fill pass runs per partition.  No driver-side
    materialization; the shuffle moves each side exactly once.

Partitioning assumption: one PARTITION (not one key) fits a task; keys
never span partitions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from indexer_ray.stages.shuffle import routed_reduce

_JOIN_PARTITIONS = 64


def _project(ds, columns: dict[str, str]):
    """user_id plus `columns` (out_name <- in_name): one schema for both
    sides of asof and interval joins."""

    def fn(batch: pa.Table) -> pa.Table:
        cols = {"user_id": batch.column("user_id")}
        for out_name, in_name in columns.items():
            cols[out_name] = batch.column(in_name)
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=8192)


def asof_join(left_ds, right_ds, n_parts: int = _JOIN_PARTITIONS):
    """(event_id, matched_event_id) — for each left event, the right event
    with the largest ts <= left.ts for the same user_id (-1 if none).

    Equal-ts right rows resolve deterministically to the max event_id
    (the sort's last-wins), which equals "dedupe right per (user_id, ts)
    keeping max event_id" — the DuckDB ASOF JOIN oracle dedupes exactly
    that way so both sides are deterministic.

    Per partition: concat both sides, sort (user_id, ts, side) with right
    rows first at equal ts (ASOF allows equality), then one segmented
    maximum-accumulate forward-fills the latest right row index within
    each user run — O(n log n) per partition, no per-key loop."""
    cols = {"event_id": "event_id", "ts": "ts"}
    sides = [_project(right_ds, cols), _project(left_ds, cols)]  # side 0 = right

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        # sort: right (side=0) before left at equal (user, ts) -> a right
        # row at exactly left.ts is eligible (ASOF >= semantics)
        g = g.sort_values(["user_id", "ts", "side", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        side = g["side"].to_numpy()
        eid = g["event_id"].to_numpy()
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "matched_event_id": pd.Series([], dtype="int64"),
                }
            )
        # user run codes 0..U-1 in sorted order
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        ucode = np.cumsum(new_user) - 1
        # segmented forward-fill of the last right-row position: encode
        # (ucode, pos+1) so the running max never crosses a user boundary
        idx = np.arange(n, dtype=np.int64)
        enc = ucode * np.int64(n + 1) + np.where(side == 0, idx + 1, 0)
        run = np.maximum.accumulate(enc)
        pos = run % np.int64(n + 1)  # 0 = no right row yet in this user
        valid = (run // np.int64(n + 1)) == ucode
        is_left = side == 1
        li = np.flatnonzero(is_left)
        matched = np.where(valid[li] & (pos[li] > 0), pos[li] - 1, -1)
        # no-match sentinel is -1 (not NULL): keeps the output all-int64 so
        # the DuckDB oracle compare (coalesce(..., -1)) is NA-free
        return pd.DataFrame(
            {
                "event_id": eid[li].astype("int64"),
                "matched_event_id": np.where(
                    matched >= 0, eid[np.maximum(matched, 0)], -1
                ).astype("int64"),
            }
        )

    return routed_reduce(sides, ["user_id"], n_parts, per_part)


def interval_join(left_ds, intervals_ds, n_parts: int = _JOIN_PARTITIONS):
    """Range join: (event_id, interval_id) — each left event matched to the
    interval [start_ts, end_ts] containing it for the same user_id (-1 if
    none).  Intervals must be non-overlapping per user (sessions are).

    Same partition-routed vectorized shape as asof_join: route both sides
    by user, sort (user, ts) with interval-starts BEFORE events at equal
    ts, forward-fill the latest interval start, then a single vectorized
    end-bound check decides containment."""

    sides = [  # side 0 = intervals
        _project(intervals_ds, {"row_id": "interval_id", "ts": "start_ts", "end_ts": "end_ts"}),
        # end_ts <- ts on left rows: unused placeholder, keeps schemas equal
        _project(left_ds, {"row_id": "event_id", "ts": "ts", "end_ts": "ts"}),
    ]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "side", "row_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        side = g["side"].to_numpy()
        rid = g["row_id"].to_numpy()
        ends = g["end_ts"].to_numpy()
        ts = g["ts"].to_numpy()
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "interval_id": pd.Series([], dtype="int64"),
                }
            )
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        ucode = np.cumsum(new_user) - 1
        idx = np.arange(n, dtype=np.int64)
        enc = ucode * np.int64(n + 1) + np.where(side == 0, idx + 1, 0)
        run = np.maximum.accumulate(enc)
        pos = run % np.int64(n + 1)
        valid = (run // np.int64(n + 1)) == ucode
        li = np.flatnonzero(side == 1)
        cand = np.where(valid[li] & (pos[li] > 0), pos[li] - 1, -1)
        safe = np.maximum(cand, 0)
        inside = (cand >= 0) & (ts[li] <= ends[safe])
        return pd.DataFrame(
            {
                "event_id": rid[li].astype("int64"),
                "interval_id": np.where(inside, rid[safe], -1).astype("int64"),
            }
        )

    return routed_reduce(sides, ["user_id"], n_parts, per_part)
