"""Event-stream-shaped operators over the `events` table
(event_id, ts, user_id, event_type, value, props).

Ray Data is a batch engine (no watermarks); stream semantics are expressed
as ordered, partitioned batch computations (ray_guide: streaming-shaped
workloads).  Tumbling windows pre-aggregate inside map_batches (one row per
(window, key) per batch) before the small groupby — the shuffle moves
aggregates, not events.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from indexer_ray.stages.shuffle import routed_reduce


def _tumble_batch(batch: pa.Table, window: str) -> pa.Table:
    ts = batch.column("ts")
    # keep timestamp[us] through the pandas round-trip (floor_temporal +
    # from_pandas otherwise coerce to [s]/[ns], breaking oracle schema parity)
    bucket = pc.floor_temporal(ts, unit=window).cast(pa.timestamp("us"))
    t = batch.set_column(batch.schema.get_field_index("ts"), "window_start", bucket)
    df = t.select(["window_start", "event_type", "value"]).to_pandas()
    g = (
        df.groupby(["window_start", "event_type"], sort=False)
        .agg(n_events=("value", "size"), sum_value=("value", "sum"))
        .reset_index()
    )
    # strip the pandas schema metadata from_pandas attaches — it is an
    # unhashable dict that defeats Ray's schema-dedup fast path downstream
    return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)


def tumbling_window_stats(events_ds, window: str = "hour"):
    """(window_start, event_type, n_events, sum_value) tumbling aggregate."""
    from ray.data.aggregate import Sum

    partial = events_ds.map_batches(
        lambda b: _tumble_batch(b, window), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192
    )
    agg = partial.groupby(["window_start", "event_type"]).aggregate(
        Sum("n_events", alias_name="n_events"), Sum("sum_value", alias_name="sum_value")
    )

    # Ray's aggregate normalizes hour-aligned timestamps to timestamp[s];
    # restore [us] so the output schema matches the input ts unit.
    def _fix_unit(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("window_start")
        return b.set_column(i, "window_start", b.column("window_start").cast(pa.timestamp("us")))

    return agg.map_batches(_fix_unit, batch_format="pyarrow")


def hopping_window_stats(events_ds, size_minutes: int = 60, hop_minutes: int = 15):
    """(window_start, event_type, n_events) over HOPPING (sliding) windows:
    window i covers [i*hop, i*hop + size), so each event lands in exactly
    size/hop windows (size must be a multiple of hop — then no boundary
    filter is needed).  The size/hop-fold fan-out happens inside
    map_batches and is immediately pre-aggregated to one row per
    (window, type) per batch, so the shuffle moves aggregates, not the
    multiplied events."""
    if size_minutes % hop_minutes:
        raise ValueError("size_minutes must be a multiple of hop_minutes")
    from ray.data.aggregate import Sum

    hop_us = hop_minutes * 60 * 1_000_000
    n_k = size_minutes // hop_minutes

    def _hop_batch(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        base = ts - (ts % hop_us)
        et = batch.column("event_type").to_pandas()
        frames = []
        for k in range(n_k):
            frames.append(
                pd.DataFrame({"window_start": base - k * hop_us, "event_type": et})
            )
        df = pd.concat(frames, ignore_index=True)
        g = (
            df.groupby(["window_start", "event_type"], sort=False)
            .size()
            .reset_index(name="n_events")
        )
        return pa.table(
            {
                "window_start": pa.array(g["window_start"], type=pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "event_type": pa.array(g["event_type"], type=pa.string()),
                "n_events": pa.array(g["n_events"], type=pa.int64()),
            }
        )

    agg = (
        events_ds.map_batches(_hop_batch, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=8192)
        .groupby(["window_start", "event_type"])
        .aggregate(Sum("n_events", alias_name="n_events"))
    )

    def _fix_unit(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("window_start")
        return b.set_column(i, "window_start", b.column("window_start").cast(pa.timestamp("us")))

    return agg.map_batches(_fix_unit, batch_format="pyarrow")


def extract_props_key(events_ds, key: str = "k"):
    """Scalar JSON extraction over the `props` column: (event_id, k_value).
    Vectorized per batch with the C json parser; null-safe (missing key or
    bad JSON -> null, matching SQL json_extract semantics)."""
    import json

    def _extract(batch: pa.Table) -> pa.Table:
        out = []
        for p in batch.column("props").to_pylist():
            try:
                v = json.loads(p).get(key) if p else None
            except (ValueError, AttributeError):
                v = None
            out.append(int(v) if v is not None else None)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "k_value": pa.array(out, type=pa.int64()),
            }
        )

    return events_ds.map_batches(_extract, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)


_SESS_PARTITIONS = 64


def user_event_deltas(events_ds, n_parts: int = _SESS_PARTITIONS):
    """Per-user lag features: for every event, the previous event by the
    same user in (ts, event_id) order and the elapsed microseconds since it
    (-1 / -1 for a user's first event) — the LAG() window function Ray
    Data's Dataset API lacks, as a partition-routed vectorized pass.

    Output: (event_id, prev_event_id, delta_us).

    Same blocking pattern as sessionize: users hash-route into `n_parts`
    partitions, ONE sort+shift pass per partition (no per-user group
    overhead).  Partitioning assumption: one partition's events fit one
    task; no single user spans partitions."""

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        eid = g["event_id"].to_numpy()
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "prev_event_id": pd.Series([], dtype="int64"),
                    "delta_us": pd.Series([], dtype="int64"),
                }
            )
        first = np.r_[True, uid[1:] != uid[:-1]]
        prev_eid = np.r_[-1, eid[:-1]]
        delta = np.r_[-1, ts_us[1:] - ts_us[:-1]]
        prev_eid[first] = -1
        delta[first] = -1
        return pd.DataFrame(
            {
                "event_id": eid.astype("int64"),
                "prev_event_id": prev_eid.astype("int64"),
                "delta_us": delta.astype("int64"),
            }
        )

    return routed_reduce(
        events_ds.select_columns(["user_id", "event_id", "ts"]), ["user_id"], n_parts, per_part
    )


def sessionize(events_ds, gap_minutes: float = 30.0, n_parts: int = _SESS_PARTITIONS):
    """Session windows per user: events sorted by ts within a user;
    a gap > `gap_minutes` starts a new session.  Output: one row per session
    (user_id, session_idx, session_start, session_end, n_events).

    Users are hash-routed into `n_parts` partitions and each partition runs
    ONE vectorized sort+diff+cumsum pass over all of its users — not one
    pandas call per user (per-group map_groups overhead dominates at
    millions of tiny user groups; `stages.shuffle.routed_reduce`).  Partitioning assumption: one PARTITION's events
    fit one task (tune n_parts upward with event volume); no single user
    ever spans partitions."""

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "session_idx": pd.Series([], dtype="int64"),
                    "session_start": pd.Series([], dtype="datetime64[us]"),
                    "session_end": pd.Series([], dtype="datetime64[us]"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        uchg = np.r_[True, uid[1:] != uid[:-1]]
        gap_min = np.empty(n, dtype=np.float64)
        gap_min[0] = 0.0
        gap_min[1:] = (ts[1:] - ts[:-1]) / np.timedelta64(1, "s") / 60.0
        new_sess = uchg | (gap_min > gap_minutes)
        starts = np.flatnonzero(new_sess)
        ends = np.r_[starts[1:], n]
        # session_idx restarts at 0 per user: global session number minus
        # the user's first session number
        sess_uid = uid[starts]
        first_of_user = np.r_[True, sess_uid[1:] != sess_uid[:-1]]
        sess_no = np.arange(len(starts))
        base = np.maximum.accumulate(np.where(first_of_user, sess_no, 0))
        return pd.DataFrame(
            {
                "user_id": sess_uid,
                "session_idx": (sess_no - base).astype("int64"),
                "session_start": ts[starts],
                "session_end": ts[ends - 1],
                "n_events": (ends - starts).astype("int64"),
            }
        )

    return routed_reduce(
        events_ds.select_columns(["user_id", "event_id", "ts"]), ["user_id"], n_parts, per_part
    )


def window_distinct_users(events_ds, window: str = "hour"):
    """(window_start, n_users) EXACT distinct users per tumbling window —
    the cardinality rollup next to tumbling_window_stats' counts/sums
    (the HLL sketch in sketches.py is the approximate sibling; this is
    the exact path, still shuffle-light).

    Shape: each batch pre-dedupes to its distinct (window, user_id)
    pairs and hash-routes them by WINDOW (the shuffle moves one row per
    distinct pair per batch, never per event); one vectorized
    drop_duplicates + nunique pass per routed partition finishes — a
    single shuffle with a window-complete partitioning, not a
    groupby(window, user).aggregate over n_pairs tiny keys (the
    sort-groupby pathology the chunk-census fix measured at 10x).
    Exact and order-independent, so SQL count(DISTINCT ...) is the
    oracle."""
    n_parts = 32

    def _pairs(batch: pa.Table) -> pa.Table:
        bucket = (
            pc.floor_temporal(batch.column("ts"), unit=window)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"w_us": bucket, "user_id": uid}).drop_duplicates()
        return pa.table(
            {
                "w_us": pa.array(df["w_us"].to_numpy(), type=pa.int64()),
                "user_id": pa.array(df["user_id"].to_numpy(), type=pa.int64()),
            }
        )

    def _count(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.drop_duplicates(["w_us", "user_id"])
            .groupby("w_us")["user_id"]
            .size()
            .reset_index(name="n_users")
        )
        return out.astype({"w_us": "int64", "n_users": "int64"})

    pairs = events_ds.map_batches(_pairs, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)
    agg = routed_reduce(pairs, ["w_us"], n_parts, _count)

    def _fix(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": b.column("w_us").cast(pa.timestamp("us")),
                "n_users": b.column("n_users").cast(pa.int64()),
            }
        )

    return agg.map_batches(_fix, batch_format="pyarrow")
