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

It also owns the engine's one key-set join, ``regime_join``: a
membership filter (semi/anti) or id lookup (inner) of a big Dataset
against a smaller one.  At most ``threshold`` small rows ship to every
task once via ``ray.put`` and each big batch runs one vectorized kernel;
above it both sides hash-join (``Dataset.join`` over ``join_parts()``
partitions).  Both regimes return the same rows in the same columns, so
callers never see which one ran.

And it owns the engine's one distributed top-k, ``top_k_rows``: the k
first rows under a sort order, overall or per group, WITHOUT a global
sort.  Each batch of ``_TOPK_BATCH`` rows keeps only its own first k,
then one ``map_groups`` per group (a single constant-key group when no
group is given) cuts the survivors and numbers them with a 0-based
``rank``.  Cut and merge call the same sort-and-head function.  A local
cut may drop rows safely only because the order is TOTAL: the sort keys
must end in a column (or columns) unique within each group, so no two
rows tie and the survivors of every batch are exactly the rows the
global order would keep.

Finally ``grouped_aggregate``: Ray's ``groupby(keys).aggregate`` with
null keys grouped (as SQL and ``pandas.groupby(dropna=False)`` do), which
Ray's sort-based groupby cannot order in a multi-block input.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from indexer_ray.functions.hashing import key_partition

_PART = "__route_part"
#: regime_join's join types (Ray's names)
SEMI, ANTI, INNER = "left_semi", "left_anti", "inner"
_JOIN_TYPES = (SEMI, ANTI, INNER)
_MIX = np.uint64(0x100000001B3)
#: rows per batch of ``top_k_rows``' local cut
_TOPK_BATCH = 8192
#: ``top_k_rows``' merge group: (group key is null, key with nulls filled)
_TOPK_GROUP = ("__topk_null", "__topk_key")
#: ``grouped_aggregate``'s is-null column of a key
_NULL_KEY = "__null_{}"


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


def join_parts() -> int:
    """Partition count for a distributed ``Dataset.join``: half the
    cluster's CPUs, at least 2.  Ray's hash-join aggregators are actors
    holding a CPU each; more partitions starve the map tasks feeding them
    (observed deadlock at 64 partitions on a 4-cpu node)."""
    import ray

    return max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)


def driver_table(ds) -> pa.Table:
    """Every row of a (small) Dataset as one Arrow table on the driver,
    pulled block by block — never through per-row dicts.  Materialized
    first: `to_arrow_refs` reads the schema, which would run a lazy
    Dataset a second time up to its first row (all of it behind a
    shuffle)."""
    import ray

    ds = ds.materialize()
    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_columns]
    if blocks:
        return pa.concat_tables(blocks, promote_options="default")
    schema = ds.schema()
    base = getattr(schema, "base_schema", None)
    return base.empty_table() if isinstance(base, pa.Schema) else pa.table({})


def _small_side(small: pa.Table, key: str, how: str):
    """What the broadcast kernel needs of ``small``, null keys dropped:
    the distinct keys for semi/anti; for inner the keys sorted (numpy)
    and the non-key columns in the same order."""
    if key not in small.column_names:  # empty small of unknown schema
        small = pa.table({key: pa.array([], pa.null())})
    small = small.filter(pc.is_valid(small.column(key)))
    if how != INNER:
        return pc.unique(small.column(key))
    small = small.take(pc.sort_indices(small, [(key, "ascending")]))
    return small.column(key).to_numpy(zero_copy_only=False), small.drop_columns([key])


def _probe(t: pa.Table, side, key: str, how: str) -> pa.Table:
    """One big batch against the broadcast small side."""
    if how != INNER:
        hit = (
            pc.is_in(t.column(key), value_set=side)
            if len(side)
            else pa.array(np.zeros(t.num_rows, dtype=bool))
        )
        return t.filter(hit if how == SEMI else pc.invert(hit))
    # sorted-key lookup: big row i pairs with small rows lo[i]..lo[i]+cnt[i]
    keys, rest = side
    valid = pc.is_valid(t.column(key)).to_numpy(zero_copy_only=False)
    probe = t.column(key).filter(pa.array(valid)).to_numpy(zero_copy_only=False)
    lo = np.zeros(t.num_rows, dtype=np.int64)
    cnt = np.zeros(t.num_rows, dtype=np.int64)
    lo[valid] = np.searchsorted(keys, probe, side="left")
    cnt[valid] = np.searchsorted(keys, probe, side="right") - lo[valid]
    rows = np.repeat(np.arange(t.num_rows), cnt)
    within = np.arange(len(rows)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    right = rest.take(pa.array(np.repeat(lo, cnt) + within))
    out = t.take(pa.array(rows))
    for name, col in zip(right.column_names, right.columns):
        out = out.append_column(name, col)
    return out


def _as_signed(t: pa.Table, key: str) -> pa.Table:
    """int64 two's-complement view of a uint64 key: hash-join keys above
    2^63 otherwise fall into a pickled-object path; the view is
    bijective and keeps nulls."""
    i = t.schema.get_field_index(key)
    return t.set_column(i, key, pc.cast(t.column(i), pa.int64(), safe=False))


def _as_unsigned(t: pa.Table, key: str) -> pa.Table:
    i = t.schema.get_field_index(key)
    return t.set_column(i, key, pc.cast(t.column(i), pa.uint64(), safe=False))


def _lead_row(schema: pa.Schema, key: str, value):
    """One-row Dataset typed ``schema``: ``key`` = ``value``, the rest null."""
    import ray.data as rd

    cols = {f.name: pa.array([value if f.name == key else None], f.type) for f in schema}
    return rd.from_arrow(pa.table(cols))


def _arrow_schema(ds) -> pa.Schema | None:
    """``ds``'s schema in Arrow types, None if it produced no block.  A
    Dataset of pandas blocks (``from_pandas``) reports numpy dtypes, with
    strings as ``object``; one row converted to Arrow types it."""
    schema = ds.schema()
    if schema is None:
        return None
    if isinstance(schema.base_schema, pa.Schema):
        return schema.base_schema
    return driver_table(ds.limit(1)).schema


def _any_key(ds, key: str):
    """Some non-null ``key`` value of a materialized Dataset, or None."""
    import ray

    for ref in ds.to_arrow_refs():
        keys = pc.drop_null(ray.get(ref).column(key))
        if len(keys):
            return keys[0].as_py()
    return None


def regime_join(big, small, key: str, how: str, threshold: int):
    """``big`` joined with ``small`` on column ``key``, SQL semantics:
    ``left_semi`` keeps big rows whose key occurs in small, ``left_anti``
    the others, ``inner`` pairs each big row with every small row of its
    key (duplicate small keys fan out).  Null keys never match.  Output
    columns: big's in big's order, then (``inner``) small's non-key
    columns, which must not share a name with big's.

    ``small`` is materialized once; at most ``threshold`` rows ship to
    every task via ``ray.put`` (per big batch one ``pc.is_in``, or a
    sorted-key ``searchsorted`` for inner; big is never shuffled), more
    hash-join both sides over ``join_parts()`` partitions."""
    import ray

    if how not in _JOIN_TYPES:
        raise ValueError(f"regime_join: how must be one of {_JOIN_TYPES}, got {how!r}")
    small = small.materialize()
    if small.count() <= threshold:
        side_ref = ray.put(_small_side(driver_table(small), key, how))

        def _broadcast(t: pa.Table) -> pa.Table:
            return _probe(t, ray.get(side_ref), key, how)

        return big.map_batches(_broadcast, batch_format="pyarrow", zero_copy_batch=True)

    schema = _arrow_schema(big)
    if schema is None:  # no block ever produced: nothing to join
        return big
    # Ray's hash join sends each side's schema to every partition with
    # the side's FIRST block and skips 0-row blocks, so a side that starts
    # empty reaches the join without its schema.  A one-row lead block,
    # unioned first on each side, carries it.  Its key never survives:
    # null (never matches), except big's under anti, which takes a small
    # key so anti drops it (if small has no non-null key, anti is the
    # identity).
    lead_key = None
    if how == ANTI:
        lead_key = _any_key(small, key)
        if lead_key is None:
            return big
    big = _lead_row(schema, key, lead_key).union(big)
    small = _lead_row(_arrow_schema(small), key, None).union(small)
    if pa.types.is_uint64(schema.field(key).type):
        kw = {"fn_kwargs": {"key": key}, "batch_format": "pyarrow"}
        big = big.map_batches(_as_signed, **kw)
        small = small.map_batches(_as_signed, **kw)
        return big.join(small, how, join_parts(), on=(key,)).map_batches(
            _as_unsigned, **kw
        )
    return big.join(small, how, join_parts(), on=(key,))


def _first_k(df: pd.DataFrame, k: int, by: list, ascending: list) -> pd.DataFrame:
    """The first ``k`` rows of each merge group of ``df`` under the order
    ``by``/``ascending``, in that order."""
    df = df.sort_values(by, ascending=ascending)
    return df.groupby(list(_TOPK_GROUP), sort=False).head(k).reset_index(drop=True)


def top_k_rows(
    ds,
    k: int,
    by: Sequence[str],
    ascending: Sequence[bool],
    cols: Sequence[str],
    group: str | None = None,
):
    """The ``k`` first rows of ``ds`` under the order ``by``/``ascending``
    (pandas ``sort_values`` semantics, nulls last), per value of ``group``
    when one is given (null included).  Each row gets a 0-based int64
    ``rank`` within its group; the output holds the columns ``cols``
    (which name ``rank``) in that order, groups by ascending key, the
    null group last.

    The order must be total within a group — ``by`` ends in a column (or
    columns) unique there — or the per-batch cut could keep a different
    set of tied rows than one global sort would.  Raises ``ValueError``
    for a negative ``k`` when called, not when the Dataset runs."""
    if k < 0:
        raise ValueError(f"top_k_rows: k must be >= 0, got {k}")
    by, ascending, cols = list(by), list(ascending), list(cols)

    def _cut(b: pd.DataFrame) -> pa.Table:
        # Ray's sort-based groupby cannot order a null key against a
        # non-null one (Ray 2.49.2), so the merge groups by (is null,
        # key with nulls filled): no null to compare, same group order
        keys = b[group] if group else pd.Series(np.zeros(len(b), np.int32), index=b.index)
        null = keys.isna()
        b[_TOPK_GROUP[0]] = null.astype(np.int8)
        b[_TOPK_GROUP[1]] = keys.where(~null, "" if keys.dtype == object else 0)
        out = pa.Table.from_pandas(_first_k(b, k, by, ascending), preserve_index=False)
        return out.replace_schema_metadata(None)  # as routed_reduce: Ray's schema dedup

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        g = _first_k(g, k, by, ascending)
        g["rank"] = np.arange(len(g), dtype=np.int64)  # one group per call
        return g[cols]

    return (
        ds.map_batches(_cut, batch_format="pandas", batch_size=_TOPK_BATCH)
        .groupby(list(_TOPK_GROUP))
        .map_groups(_merge, batch_format="pandas")
    )


def _split_null_keys(t: pa.Table, keys: list[str]) -> pa.Table:
    """Each key column with its nulls filled ("" or 0), beside an int8
    is-null column."""
    for c in keys:
        col = t.column(c)
        fill = "" if pa.types.is_string(col.type) or pa.types.is_large_string(col.type) else 0
        t = t.set_column(t.schema.get_field_index(c), c, pc.fill_null(col, fill))
        t = t.append_column(_NULL_KEY.format(c), pc.cast(pc.is_null(col), pa.int8()))
    return t


def _restore_null_keys(t: pa.Table, keys: list[str]) -> pa.Table:
    """`_split_null_keys` undone: the flagged keys null again, the is-null
    columns dropped."""
    for c in keys:
        col = t.column(c)
        null = pc.equal(t.column(_NULL_KEY.format(c)), 1)
        t = t.set_column(t.schema.get_field_index(c), c,
                         pc.if_else(null, pa.scalar(None, col.type), col))
    return t.drop_columns([_NULL_KEY.format(c) for c in keys])


def grouped_aggregate(ds, keys: Sequence[str], *aggs):
    """``ds.groupby(keys).aggregate(*aggs)``, null keys included: a null
    key is a group of its own.  Ray's sort-based groupby cannot order a
    null key against a non-null one in a multi-block input (Ray 2.49.2
    raises ``TypeError``), so each key groups as (key is null, key with
    nulls filled), as `top_k_rows` groups, and the nulls come back in the
    output.  Output: the keys, then the aggregates; groups by ascending
    key, a key's null group last."""
    keys = list(keys)
    kw = {"fn_kwargs": {"keys": keys}, "batch_format": "pyarrow"}
    by = [c for k in keys for c in (_NULL_KEY.format(k), k)]
    return (
        ds.map_batches(_split_null_keys, zero_copy_batch=True, **kw)
        .groupby(by)
        .aggregate(*aggs)
        .map_batches(_restore_null_keys, **kw)
    )
