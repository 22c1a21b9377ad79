"""Routed shuffle: the engine's one blocking step for key-partitioned reduces.

Every operator that must see all rows of a key in one task (sessionize,
as-of joins, similarity-join buckets, routed count merges, ...) uses the
same shape: hash the key to an int32 partition id inside ``map_batches``,
then ``groupby(<partition>).map_groups(fn)`` so ONE vectorized pandas pass
runs per partition — never one call per key.  At 2M rows / 81k string keys
on a 4-cpu host this measured 2.0-2.2 s, against 12.9 s for Ray's native
``groupby(key).sum`` (Ray 2.49.2).

This module owns the policy of which key goes to which reduce partition:

  * ``route_parts`` — the routing hash.  One integer key column routes by
    ``key_partition`` unchanged; any other key (strings, several columns)
    by pandas' fixed-key vectorized hash, so the id never depends on the
    process that computes it.  Null keys route like any other value.
  * ``routed_reduce`` — route one or several same-schema Datasets and run
    ``fn`` once per partition.  ``fn`` gets a pandas frame holding every
    row of each key it sees (with a ``side`` column when several inputs
    are given) and returns a frame; the output schema carries no pandas
    metadata, which would otherwise defeat Ray's schema-dedup fast path.

Sites whose partition id carries meaning of its own (ordered range
partitions, on-disk layouts) route by hand; this module is only for
"which task reduces this key".
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from indexer_ray.functions.hashing import key_partition

_PART = "__route_part"
_MIX = np.uint64(0x100000001B3)


def _column_hash(col: pa.ChunkedArray) -> np.ndarray:
    """uint64 per row of one key column, stable across batches and
    processes: a batch's null count must not change a value's hash, so
    integers fill nulls before converting and every other type hashes its
    string form (``None`` hashes to a fixed value)."""
    if pa.types.is_integer(col.type):
        return pd.util.hash_array(
            pc.fill_null(col, 0).to_numpy().astype(np.uint64)
        )
    if not (
        pa.types.is_string(col.type)
        or pa.types.is_large_string(col.type)
        or pa.types.is_binary(col.type)
        or pa.types.is_large_binary(col.type)
    ):
        col = pc.cast(col, pa.string())
    return pd.util.hash_array(col.to_numpy(zero_copy_only=False))


def route_parts(table: pa.Table, key_cols: Sequence[str], n_parts: int) -> np.ndarray:
    """int32 reduce partition in [0, n_parts) per row of ``table``, from
    the values of ``key_cols``: rows with equal keys always get equal ids."""
    if len(key_cols) == 1 and pa.types.is_integer(table.schema.field(key_cols[0]).type):
        keys = pc.fill_null(table.column(key_cols[0]), 0).to_numpy()
        return key_partition(keys, n_parts)
    h = _column_hash(table.column(key_cols[0]))
    with np.errstate(over="ignore"):
        for c in key_cols[1:]:
            h = (h * _MIX) ^ _column_hash(table.column(c))
    return key_partition(h, n_parts)


def routed_reduce(
    inputs,
    key_cols: Sequence[str],
    n_parts: int,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
):
    """Run ``fn`` once per reduce partition of ``inputs`` routed on
    ``key_cols``.  ``inputs`` is one Dataset, or a list of Datasets with
    the same schema; a list is unioned with an int8 ``side`` column
    holding each row's input index.  ``fn`` sees the real key values
    (nulls included) and never the routing column."""
    from ray.data.block import BlockAccessor

    def _route(t: pa.Table, side: int | None) -> pa.Table:
        if side is not None:
            t = t.append_column(
                "side", pa.array(np.full(t.num_rows, side, dtype=np.int8))
            )
        return t.append_column(
            _PART, pa.array(route_parts(t, key_cols, n_parts), type=pa.int32())
        )

    def _reduce(g: pd.DataFrame) -> pa.Table:
        out = fn(g.drop(columns=_PART))
        return BlockAccessor.for_block(out).to_arrow().replace_schema_metadata(None)

    many = isinstance(inputs, (list, tuple))
    routed = [
        ds.map_batches(
            _route,
            fn_kwargs={"side": i if many else None},
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=None,
        )
        for i, ds in enumerate(inputs if many else [inputs])
    ]
    ds = routed[0].union(*routed[1:]) if len(routed) > 1 else routed[0]
    return ds.groupby(_PART).map_groups(_reduce, batch_format="pandas")
