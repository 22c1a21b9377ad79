"""Seeded inputs are byte-identical per seed, and the refresh comparison
tolerates tie order.

Run from the repository root: python -m pytest perfbench/tests -q"""

import filecmp

from perfbench import inputs
from perfbench.workloads import same_topk


def _make(d, seed):
    d.mkdir()
    corpus = inputs.write_corpus(str(d / "pages.parquet"), 300, seed)
    zipf = inputs.write_lines(str(d / "zipf.txt"), inputs.zipf_queries(seed, 200, 300))
    sel = inputs.write_lines(str(d / "sel.txt"), inputs.selective_queries(seed, 200, 300))
    ref = inputs.write_refresh_inputs(str(d), corpus, 20, seed)
    return [corpus, zipf, sel, ref["delta"], ref["final"]]


def test_same_seed_same_bytes_other_seed_differs(tmp_path):
    a = _make(tmp_path / "a", 7)
    b = _make(tmp_path / "b", 7)
    c = _make(tmp_path / "c", 8)
    for x, y, z in zip(a, b, c):
        assert filecmp.cmp(x, y, shallow=False), x
        assert not filecmp.cmp(x, z, shallow=False), x


def test_refresh_inputs_shape(tmp_path):
    import pyarrow.parquet as pq

    base = inputs.write_corpus(str(tmp_path / "pages.parquet"), 300, 3)
    ref = inputs.write_refresh_inputs(str(tmp_path), base, 20, 3)
    n_upd = len(range(0, 300, inputs.UPDATE_EVERY))
    assert ref["n_delta"] == n_upd + 20
    assert len(ref["delete_urls"]) == len(range(inputs.DELETE_AT, 300, inputs.DELETE_EVERY))
    final = pq.read_table(ref["final"], columns=["url"]).column("url").to_pylist()
    assert len(final) == len(set(final)) == 300 - len(ref["delete_urls"]) + 20
    assert not set(ref["delete_urls"]) & set(final)


def test_same_topk_allows_tie_order_only():
    a = [("u1", 3.0), ("u2", 2.0), ("u3", 2.0), ("u4", 1.0)]
    assert same_topk(a, [("u1", 3.0), ("u3", 2.0), ("u2", 2.0), ("u4", 1.0)])
    # which tied entry fills the last place may differ
    assert same_topk(a, [("u1", 3.0), ("u2", 2.0), ("u3", 2.0), ("u9", 1.0)])
    assert not same_topk(a, [("u1", 3.0), ("u2", 2.0), ("u9", 2.0), ("u4", 1.0)])
    assert not same_topk(a, [("u1", 3.0), ("u2", 2.0), ("u3", 2.5), ("u4", 1.0)])
    assert not same_topk(a, a[:3])
    assert same_topk([], [])
