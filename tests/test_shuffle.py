"""Routed shuffle helper (stages/shuffle.py): routing hash + routed reduce."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from indexer_ray.functions.hashing import key_partition
from indexer_ray.stages.shuffle import route_parts, routed_reduce


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
