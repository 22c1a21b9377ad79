"""Routed shuffle helper (stages/shuffle.py): routing hash, routed reduce,
the broadcast-or-join key-set join and the distributed top-k."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from indexer_ray.functions.hashing import key_partition
from indexer_ray.stages import shuffle
from indexer_ray.stages.shuffle import regime_join, route_parts, routed_reduce, top_k_rows


def _str_keys():
    return pa.table(
        {
            "a": pa.array(["x", None, "x", "y", None, "y", "x", None], type=pa.string()),
            "b": pa.array(["p", "q", "p", None, "q", None, None, None], type=pa.string()),
            "v": pa.array(np.arange(8), type=pa.int64()),
        }
    )


def test_route_parts_uint64_matches_key_partition():
    keys = np.array([0, 1, 2**63 + 5, 2**64 - 1, 12345], dtype=np.uint64)
    t = pa.table({"k": pa.array(keys, type=pa.uint64())})
    got = route_parts(t, ["k"], 7)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, key_partition(keys, 7))


def test_route_parts_stable_across_batches_with_nulls():
    # the same key must route identically whether or not its batch
    # happens to contain nulls (int -> float coercion would break this)
    with_null = pa.table({"k": pa.array([5, None], type=pa.int64()),
                          "s": pa.array(["a", None])})
    without = pa.table({"k": pa.array([5], type=pa.int64()), "s": pa.array(["a"])})
    for cols in (["k"], ["k", "s"], ["s"]):
        assert route_parts(with_null, cols, 13)[0] == route_parts(without, cols, 13)[0]


def test_routed_reduce_string_key_with_nulls(ray_session):
    import ray.data as rd

    t = _str_keys()
    ds = rd.from_arrow([t.slice(0, 4), t.slice(4)])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        assert "__route_part" not in g.columns
        return pd.DataFrame(
            {
                "a": g["a"].to_numpy(dtype=object),
                "b": g["b"].to_numpy(dtype=object),
                "v": g["v"].astype("int64"),
                "n_keys": np.full(
                    len(g), len(g.groupby(["a", "b"], dropna=False)), dtype="int64"
                ),
                "first_v": np.full(len(g), int(g["v"].min()), dtype="int64"),
            }
        )

    out = routed_reduce(ds, ["a", "b"], 4, fn).to_pandas()
    assert sorted(out["v"]) == list(range(8))
    # every row of one (a, b) group was reduced in the same partition,
    # identified by the partition's smallest v
    per_group = out.groupby(["a", "b"], dropna=False)["first_v"].nunique()
    assert (per_group == 1).all()
    # fn saw the real nulls, not a routing sentinel
    by_v = out.set_index("v").sort_index()
    assert by_v.loc[1, "a"] is None and by_v.loc[3, "b"] is None
    assert by_v.loc[7, "a"] is None and by_v.loc[7, "b"] is None


def test_routed_reduce_two_inputs_tag_side(ray_session):
    import ray.data as rd

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], type=pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([3, 2, 9], type=pa.int64())}))

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        both = set(g.loc[g["side"] == 0, "k"]) & set(g.loc[g["side"] == 1, "k"])
        return pd.DataFrame(
            {
                "k": g["k"].astype("int64"),
                "side": g["side"].astype("int8"),
                "matched": g["k"].isin(both),
            }
        )

    out = routed_reduce([left, right], ["k"], 5, fn).to_pandas()
    assert sorted(zip(out["k"], out["side"])) == [
        (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (9, 1)
    ]
    assert set(out.loc[out["matched"], "k"]) == {2, 3}


def test_routed_reduce_output_has_no_pandas_metadata(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": pa.array(["a", "b", "a"])}))
    out = routed_reduce(
        ds, ["k"], 3, lambda g: g.groupby("k", as_index=False).size()
    )
    for ref in out.materialize().to_arrow_refs():
        import ray

        assert not (ray.get(ref).schema.metadata or {}).get(b"pandas")


def test_route_parts_process_independent(ray_session):
    import ray

    t = _str_keys()

    @ray.remote
    def remote_parts(table):
        from indexer_ray.stages.shuffle import route_parts

        return route_parts(table, ["a", "b"], 16), route_parts(table, ["a"], 16)

    two, one = ray.get(remote_parts.remote(t))
    np.testing.assert_array_equal(two, route_parts(t, ["a", "b"], 16))
    np.testing.assert_array_equal(one, route_parts(t, ["a"], 16))


@pytest.mark.parametrize("n_parts", [1, 3])
def test_route_parts_in_range(n_parts):
    p = route_parts(_str_keys(), ["a", "b", "v"], n_parts)
    assert p.dtype == np.int32 and ((p >= 0) & (p < n_parts)).all()


_BIG_KEYS = {
    "uint64": (pa.uint64(), [5, 2**63 + 7, None, 5, 2**64 - 1, 11, 2**63 + 7]),
    "string": (pa.string(), ["e", "x", None, "e", "z", "k", "x"]),
}
_SMALL_KEYS = {
    "uint64": [2**63 + 7, 5, 2**63 + 7, None, 3],
    "string": ["x", "e", "x", None, "c"],
}


def _join_inputs(key_type: str, case: str):
    typ, big_keys = _BIG_KEYS[key_type]
    small_keys = _SMALL_KEYS[key_type]
    big = pa.table(
        {
            "v": pa.array(np.arange(len(big_keys)), type=pa.int64()),
            "k": pa.array(big_keys, type=typ),
        }
    )
    small = pa.table(
        {
            "k": pa.array(small_keys, type=typ),
            "w": pa.array([f"s{i}" for i in range(len(small_keys))], type=pa.string()),
        }
    )
    if case == "empty_big":
        big = big.slice(0, 0)
    elif case == "empty_small":
        small = small.slice(0, 0)
    elif case == "one_small":  # leaves a join partition with no small rows
        small = small.slice(0, 1)
    return big, small


def _frame(t: pa.Table) -> pd.DataFrame:
    return pd.DataFrame(
        {c: pd.Series(t.column(c).to_pylist(), dtype=object) for c in t.column_names}
    )


def _sorted_rows(rows) -> list:
    return sorted((tuple(r) for r in rows), key=repr)


def _pandas_reference(big: pa.Table, small: pa.Table, how: str) -> list:
    b, s = _frame(big), _frame(small)
    s = s[s["k"].notna()]  # SQL: a null key never matches
    if how == "inner":
        out = b.merge(s, on="k", how="inner")
    else:
        hit = b.merge(s[["k"]].drop_duplicates(), on="k", how="left", indicator=True)
        keep = (hit["_merge"] == "both") == (how == "left_semi")
        out = hit.loc[keep, b.columns]
    return _sorted_rows(out.itertuples(index=False, name=None))


def _collect(ds):
    """(sorted rows, schema of the non-empty blocks or None).  Ray's map
    operators skip 0-row blocks, so an empty output has no schema to
    compare."""
    import ray

    blocks = [b for b in ray.get(ds.materialize().to_arrow_refs()) if b.num_rows]
    rows = _sorted_rows(tuple(r.values()) for b in blocks for r in b.to_pylist())
    return rows, blocks[0].schema if blocks else None


@pytest.mark.parametrize("case", ["full", "one_small", "empty_small", "empty_big"])
@pytest.mark.parametrize("key_type", ["uint64", "string"])
@pytest.mark.parametrize("how", ["left_semi", "left_anti", "inner"])
def test_regime_join_regimes_agree_with_pandas(ray_session, how, key_type, case):
    import ray.data as rd

    big, small = _join_inputs(key_type, case)

    def run(threshold):
        # leading empty blocks: Ray's hash join takes each side's schema
        # from its first block
        b = rd.from_arrow([big.slice(0, 0), big.slice(0, 3), big.slice(3)])
        s = rd.from_arrow([small.slice(0, 0), small.slice(0, 1), small.slice(1)])
        return _collect(regime_join(b, s, "k", how, threshold))

    bc_rows, bc_schema = run(10**9)
    j_rows, j_schema = run(0)
    assert bc_rows == j_rows == _pandas_reference(big, small, how)
    assert bc_schema == j_schema
    if bc_rows:
        want_cols = big.column_names + (["w"] if how == "inner" else [])
        assert bc_schema.names == want_cols
        assert bc_schema.field("k").type == big.schema.field("k").type


@pytest.mark.parametrize("how", ["left_semi", "left_anti", "inner"])
def test_regime_join_pandas_blocks(ray_session, how):
    """Datasets of pandas blocks (`from_pandas`, string keys as numpy
    `object`) join like their Arrow twins in both regimes."""
    import ray.data as rd

    big, small = _join_inputs("string", "full")
    b = rd.from_pandas(big.to_pandas())
    s = rd.from_pandas(small.to_pandas())
    want = _pandas_reference(big, small, how)
    for threshold in (10**9, 0):
        assert _collect(regime_join(b, s, "k", how, threshold))[0] == want


def test_regime_join_rejects_other_join_types(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": pa.array([1], type=pa.int64())}))
    with pytest.raises(ValueError, match="left_semi"):
        regime_join(ds, ds, "k", "left_outer", 10)


# ------------------------------------------------------------- top_k_rows

_TOPK_ROWS = 23


def _topk_input() -> pa.Table:
    """23 rows: ``score`` ties in long runs (4 distinct values), ``name``
    unique and shuffled against ``score``, ``grp`` a/b/null."""
    rng = np.random.default_rng(5)
    names = [f"n{i:02d}" for i in rng.permutation(_TOPK_ROWS)]
    grp = [("a", "b", None)[i % 3] for i in range(_TOPK_ROWS)]
    return pa.table(
        {
            "score": pa.array(np.arange(_TOPK_ROWS) % 4, type=pa.int64()),
            "name": pa.array(names, type=pa.string()),
            "grp": pa.array(grp, type=pa.string()),
        }
    )


def _topk_ds(t: pa.Table, monkeypatch):
    """``t`` as 4 blocks, cut in batches of 4 rows: every score tie spans
    several batches and blocks."""
    import ray.data as rd

    monkeypatch.setattr(shuffle, "_TOPK_BATCH", 4)
    return rd.from_arrow([t.slice(0, 5), t.slice(5, 7), t.slice(12, 3), t.slice(15)])


def _rows(df: pd.DataFrame, cols) -> list:
    return [tuple(r) for r in df[cols].itertuples(index=False, name=None)]


@pytest.mark.parametrize("k", [0, 1, _TOPK_ROWS - 1, _TOPK_ROWS, _TOPK_ROWS + 5])
@pytest.mark.parametrize(
    "by, ascending",
    [(["score", "name"], [False, True]), (["name"], [True]), (["name"], [False])],
)
def test_top_k_rows_matches_full_sort(ray_session, monkeypatch, k, by, ascending):
    t = _topk_input()
    cols = ["rank", "name", "score"]
    want = t.to_pandas().sort_values(by, ascending=ascending).head(k)
    want["rank"] = np.arange(len(want), dtype=np.int64)
    got = top_k_rows(_topk_ds(t, monkeypatch), k, by, ascending, cols).to_pandas()
    if not k:  # no row, so no block to carry a schema
        assert got.empty
        return
    assert list(got.columns) == cols
    assert got["rank"].dtype == np.int64
    assert _rows(got.sort_values("rank"), cols) == _rows(want, cols)


@pytest.mark.parametrize("k", [1, 3, _TOPK_ROWS])
def test_top_k_rows_per_group_keeps_null_group(ray_session, monkeypatch, k):
    t = _topk_input()
    cols = ["grp", "name", "score", "rank"]
    want = []
    for g in ("a", "b", None):
        sub = t.to_pandas()
        sub = sub[sub["grp"].isna()] if g is None else sub[sub["grp"] == g]
        sub = sub.sort_values(["score", "name"], ascending=[False, True]).head(k)
        want += [(g, n, s, r) for r, (n, s) in enumerate(zip(sub["name"], sub["score"]))]
    got = top_k_rows(
        _topk_ds(t, monkeypatch), k, ["score", "name"], [False, True], cols, group="grp"
    ).to_pandas()
    assert list(got.columns) == cols
    # groups come out by ascending key, the null group last
    assert [(None if g != g else g, n, s, r) for g, n, s, r in _rows(got, cols)] == want


def test_top_k_rows_empty_input_has_no_rows(ray_session, monkeypatch):
    t = _topk_input()
    for ds in (_topk_ds(t.slice(0, 0), monkeypatch),
               _topk_ds(t, monkeypatch).filter(lambda r: False)):
        out = top_k_rows(ds, 5, ["score", "name"], [False, True], ["name", "rank"])
        assert out.count() == 0


def test_top_k_rows_rejects_negative_k_when_called(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_topk_input())
    with pytest.raises(ValueError, match="k must be >= 0"):
        top_k_rows(ds, -1, ["score", "name"], [False, True], ["name", "rank"])
