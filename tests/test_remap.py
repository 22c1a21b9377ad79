"""Tests for docid reassignment (pipelines/remap.py): the remapped index
must be query-equivalent to the original (ids differ, url-joined results
identical), new ids must be the dense global rank of the sort key, both
id-translation regimes must agree, and remapping a hash-id index must
shrink bytes/posting (the operator's reason to exist)."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _pages(n=240, vocab=120, seed=3, words=30):
    rng = np.random.default_rng(seed)
    v = [f"w{i}" for i in range(vocab)]
    probs = 1.0 / np.arange(1, vocab + 1)
    probs /= probs.sum()
    texts = [" ".join(rng.choice(v, size=words, p=probs)) for _ in range(n)]
    # urls deliberately NOT in arrival order: host h{i%7} clusters docs
    # that arrival order scatters
    urls = [f"http://h{i % 7}.example/{i:05d}" for i in range(n)]
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array([0] * n, type=pa.timestamp("us")),
            "html": pa.array([b""] * n, type=pa.binary()),
            "text": pa.array(texts, type=pa.string()),
        }
    )


@pytest.fixture()
def built(tmp_path, ray_session):
    from indexer_ray.pipelines.build import BuildConfig, build_index

    def make(id_assign):
        root = tmp_path / id_assign
        root.mkdir(exist_ok=True)
        pq.write_table(_pages(), str(root / "pages.parquet"))
        build_index(
            [str(root / "pages.parquet")],
            str(root / "idx"),
            BuildConfig(mode="plain", n_partitions=8, id_assign=id_assign),
        )
        return root

    return make


def _docmap(index_dir, cols=("doc_id", "url")):
    fs = sorted(glob.glob(os.path.join(index_dir, "docmap", "*.parquet")))
    return pq.read_table(fs, columns=list(cols)).to_pandas()


def _results_by_url(index_dir, queries, k=1000):
    # k > n_docs: the full zero-drop result set — a truncating k would
    # admit different TIED docs before vs after remap (tie-break is
    # doc_id, which is exactly what the remap rewrites)
    from indexer_ray.pipelines.query import IndexSearcher

    s = IndexSearcher(index_dir)
    dm = _docmap(index_dir)
    umap = dict(zip(dm["doc_id"], dm["url"]))
    return {
        q: sorted((umap[d], round(sc, 9)) for d, sc in s.search(q, k=k))
        for q in queries
    }


_QUERIES = ("w0 w2", "w5 w30 w1", "w100", "w3 w3 w7")


def test_remap_url_rank_and_equivalence(built):
    from indexer_ray.pipelines.remap import remap_docids

    root = built("dense")
    m = remap_docids(str(root / "idx"), str(root / "out"), key_cols=("url",))
    dm = _docmap(str(root / "out")).sort_values("doc_id")
    # dense rank 0..n-1 in url lexicographic order
    assert dm["doc_id"].min() == 0 and dm["doc_id"].max() == len(dm) - 1
    assert list(dm["url"]) == sorted(dm["url"])
    assert m.n_docs == len(dm)
    assert _results_by_url(str(root / "idx"), _QUERIES) == _results_by_url(
        str(root / "out"), _QUERIES
    )


def test_remap_hash_ids_shrinks_payload(built):
    from indexer_ray.pipelines.remap import index_payload_stats, remap_docids

    root = built("hash")
    remap_docids(str(root / "idx"), str(root / "out"), key_cols=("url",))
    before = index_payload_stats(str(root / "idx"))
    after = index_payload_stats(str(root / "out"))
    assert after["n_postings"] == before["n_postings"] > 0
    # blake2b ids are ~9-10 B/posting of gap bytes; dense ranks are 1-2
    assert after["bytes_per_posting"] < before["bytes_per_posting"] * 0.75
    assert _results_by_url(str(root / "idx"), _QUERIES) == _results_by_url(
        str(root / "out"), _QUERIES
    )


def test_remap_join_regime_matches_broadcast(built):
    from indexer_ray.pipelines.remap import remap_docids

    root = built("dense")
    remap_docids(str(root / "idx"), str(root / "b"), key_cols=("url",))
    # threshold 0 forces the distributed hash-join id translation
    remap_docids(
        str(root / "idx"),
        str(root / "j"),
        key_cols=("url",),
        broadcast_docs_threshold=0,
    )
    a = _docmap(str(root / "b"), ("doc_id", "url", "doc_len")).sort_values("doc_id")
    b = _docmap(str(root / "j"), ("doc_id", "url", "doc_len")).sort_values("doc_id")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
    assert _results_by_url(str(root / "b"), _QUERIES) == _results_by_url(
        str(root / "j"), _QUERIES
    )


def test_remap_multi_boundary_rank(built, tmp_path):
    """Many rank partitions (tiny per-part counts) still yield the exact
    global rank — exercises boundary routing + offset stitching."""
    from indexer_ray.pipelines.remap import remap_docids

    root = built("dense")
    remap_docids(
        str(root / "idx"),
        str(root / "out32"),
        key_cols=("url",),
        n_rank_parts=32,
    )
    dm = _docmap(str(root / "out32")).sort_values("doc_id")
    assert list(dm["url"]) == sorted(dm["url"])
    assert dm["doc_id"].tolist() == list(range(len(dm)))


def _drop_max_doc_from_docmap(index_dir):
    """Corrupt the docmap: remove the row of the MAX doc_id (so postings
    reference an id past every remaining docmap id — the searchsorted
    past-the-end case)."""
    import pyarrow.compute as pc

    fs = sorted(glob.glob(os.path.join(index_dir, "docmap", "*.parquet")))
    max_id = max(
        pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy().max()
        for f in fs
        if pq.ParquetFile(f).metadata.num_rows
    )
    for f in fs:
        t = pq.read_table(f)
        pq.write_table(t.filter(pc.field("doc_id") != int(max_id)), f)


def test_remap_missing_docmap_id_broadcast_raises(built):
    """A posting doc_id above every docmap id must raise the documented
    RuntimeError, not IndexError (searchsorted returns len(o))."""
    from indexer_ray.pipelines.remap import remap_docids

    root = built("dense")
    _drop_max_doc_from_docmap(str(root / "idx"))
    with pytest.raises(Exception) as ei:
        remap_docids(str(root / "idx"), str(root / "out_bx"), key_cols=("url",))
    assert "missing from docmap" in str(ei.value)


def test_remap_duplicate_docmap_id_join_raises(built):
    """A docmap row repeated for one old doc_id makes the join regime
    write MORE postings than the manifest holds; the error must name the
    duplicate, not report the id as missing."""
    from indexer_ray.pipelines.remap import remap_docids

    root = built("dense")
    idx = str(root / "idx")
    f = next(
        f
        for f in sorted(glob.glob(os.path.join(idx, "docmap", "*.parquet")))
        if pq.ParquetFile(f).metadata.num_rows
    )
    t = pq.read_table(f)
    pq.write_table(pa.concat_tables([t, t.slice(0, 1)]), f)
    with pytest.raises(RuntimeError) as ei:
        remap_docids(
            idx, str(root / "out_dup"), key_cols=("url",),
            broadcast_docs_threshold=0,
        )
    assert "duplicate old doc_id in docmap" in str(ei.value)


def test_remap_duplicate_docmap_id_broadcast_raises(built):
    """The broadcast regime must reject a duplicated docmap row like the
    join regime, not write a docmap with two rows for one url."""
    from indexer_ray.pipelines.remap import remap_docids

    root = built("dense")
    idx = str(root / "idx")
    f = next(
        f
        for f in sorted(glob.glob(os.path.join(idx, "docmap", "*.parquet")))
        if pq.ParquetFile(f).metadata.num_rows
    )
    t = pq.read_table(f)
    pq.write_table(pa.concat_tables([t, t.slice(0, 1)]), f)
    with pytest.raises(RuntimeError) as ei:
        remap_docids(idx, str(root / "out_dup_b"), key_cols=("url",))
    assert "duplicate old doc_id in docmap" in str(ei.value)


def test_remap_missing_docmap_id_join_raises(built):
    """The join regime must error like the broadcast regime instead of
    silently dropping unmapped postings."""
    from indexer_ray.pipelines.remap import remap_docids

    root = built("dense")
    _drop_max_doc_from_docmap(str(root / "idx"))
    with pytest.raises(Exception) as ei:
        remap_docids(
            str(root / "idx"),
            str(root / "out_jx"),
            key_cols=("url",),
            broadcast_docs_threshold=0,
        )
    assert "missing from docmap" in str(ei.value)
