"""Index fsck tests: a fresh build verifies clean (shallow + deep), and
each class of corruption — missing completion marker, tampered posting
payload, duplicated docmap rows, manifest/count drift — is detected."""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from indexer_ray.pipelines.build import BuildConfig, build_index
from indexer_ray.pipelines.fsck import verify_index
from indexer_ray.sources.pages import generate_pages_parquet


@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("fsck")
    pages = str(root / "pages.parquet")
    generate_pages_parquet(pages, n_rows=300, seed=11)
    idx = str(root / "index")
    build_index([pages], idx, BuildConfig(n_partitions=8))
    return idx, root


def _copy(idx, root, name):
    dst = str(root / name)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(idx, dst)
    return dst


def test_clean_index_verifies(built_index):
    idx, _ = built_index
    r = verify_index(idx)
    assert r["ok"], r["errors"]
    r = verify_index(idx, deep=True)
    assert r["ok"], r["errors"]
    assert r["stats"]["n_postings"] > 0
    assert r["stats"]["docmap_rows"] == r["stats"]["n_docs"]


def test_hash_id_index_verifies_deep(ray_session, tmp_path):
    """Hashed doc ids spread over all of uint64: one block can hold ids
    more than 2^63 apart, which the in-block order check must not read as
    a decrease."""
    pages = str(tmp_path / "pages.parquet")
    generate_pages_parquet(pages, n_rows=300, seed=11)
    idx = str(tmp_path / "index")
    build_index([pages], idx, BuildConfig(n_partitions=8, id_assign="hash"))
    r = verify_index(idx, deep=True)
    assert r["ok"], r["errors"]


def test_missing_part_marker_fails_shallow(built_index):
    idx, root = built_index
    bad = _copy(idx, root, "bad_marker")
    os.unlink(os.path.join(bad, "parts", "3", "_meta.json"))
    r = verify_index(bad)
    assert not r["ok"] and any("partition 3" in e for e in r["errors"])


def test_tampered_payload_fails_deep(built_index):
    idx, root = built_index
    bad = _copy(idx, root, "bad_payload")
    # rewrite one partition's blocks with a truncated payload column
    target = None
    for pdir in sorted(glob.glob(os.path.join(bad, "parts", "*"))):
        t = pq.read_table(os.path.join(pdir, "blocks.parquet"))
        if t.num_rows:
            target = (pdir, t)
            break
    pdir, t = target
    import pyarrow as pa

    payloads = t.column("payload").to_pylist()
    payloads[0] = payloads[0][: max(0, len(payloads[0]) - 3)]  # clip varints
    t = t.set_column(
        t.schema.get_field_index("payload"),
        "payload",
        pa.array(payloads, type=pa.large_binary()),
    )
    pq.write_table(t, os.path.join(pdir, "blocks.parquet"))
    assert verify_index(bad)["ok"]  # shallow can't see it
    r = verify_index(bad, deep=True)
    assert not r["ok"]
    assert any("decode failed" in e or "postings" in e for e in r["errors"])


def _first_part(idx, f):
    """(path, table) of the first partition whose ``f`` has >= 2 rows."""
    for pdir in sorted(glob.glob(os.path.join(idx, "parts", "*"))):
        path = os.path.join(pdir, f)
        t = pq.read_table(path)
        if t.num_rows >= 2:
            return path, t
    raise AssertionError(f"no partition with two {f} rows")


def test_swapped_dict_df_fails_deep(built_index):
    """Two terms with different df swap their dict values: sum(df) still
    equals n_postings, but each term's df no longer equals the sum of its
    blocks' n, which is the df the searcher serves."""
    import numpy as np
    import pyarrow as pa

    idx, root = built_index
    bad = _copy(idx, root, "bad_df_swap")
    path, d = _first_part(bad, "dict.parquet")
    df = d.column("df").to_numpy().copy()
    i = 0
    j = int(np.flatnonzero(df != df[i])[0])
    df[[i, j]] = df[[j, i]]
    d = d.set_column(d.schema.get_field_index("df"), "df", pa.array(df, type=pa.uint64()))
    pq.write_table(d, path)
    assert verify_index(bad)["ok"]  # shallow can't see it
    r = verify_index(bad, deep=True)
    assert not r["ok"]
    assert any("sum of their blocks' n" in e for e in r["errors"]), r["errors"]


def test_unsorted_blocks_fail_deep(built_index):
    """blocks.parquet rows out of (term, block_id) order decode and count
    fine, but the searcher's binary search over them would miss terms."""
    idx, root = built_index
    bad = _copy(idx, root, "bad_block_order")
    path, b = _first_part(bad, "blocks.parquet")
    pq.write_table(b.take(list(range(b.num_rows))[::-1]), path)
    assert verify_index(bad)["ok"]
    r = verify_index(bad, deep=True)
    assert not r["ok"]
    assert r["errors"] == [f"partition {os.path.basename(os.path.dirname(path))}: "
                           "blocks.parquet rows not sorted by (term, block_id)"]


def test_swapped_term_blocks_fail_deep(built_index):
    """Two blocks of one term trade places while the rows keep their
    (term, block_id) order: every block still decodes, matches its own
    first/last ids and counts toward df, but the term's postings are no
    longer one doc-sorted run."""
    import numpy as np

    idx, root = built_index
    bad = _copy(idx, root, "bad_term_block_order")
    for path in sorted(glob.glob(os.path.join(bad, "parts", "*", "blocks.parquet"))):
        b = pq.read_table(path)
        terms = b.column("term").to_numpy(zero_copy_only=False)
        same = np.flatnonzero(terms[1:] == terms[:-1])
        if len(same):
            break
    else:
        raise AssertionError("no term with two blocks in one partition")
    i = int(same[0])
    rows = list(range(b.num_rows))
    rows[i], rows[i + 1] = i + 1, i
    swapped = b.take(rows)
    keep = ("term", "block_id")  # row order by (term, block_id) is kept
    for c in keep:
        swapped = swapped.set_column(b.schema.get_field_index(c), c, b.column(c))
    pq.write_table(swapped, path)
    assert verify_index(bad)["ok"]
    r = verify_index(bad, deep=True)
    assert r["errors"] == [f"partition {os.path.basename(os.path.dirname(path))}: "
                           "a term's consecutive blocks not in doc_id order"]


def test_duplicate_docmap_rows_fail_deep(built_index):
    idx, root = built_index
    bad = _copy(idx, root, "bad_docmap")
    f = glob.glob(os.path.join(bad, "docmap", "*.parquet"))[0]
    t = pq.read_table(f)
    pq.write_table(t.slice(0, 1), os.path.join(bad, "docmap", "zz_dup.parquet"))
    r = verify_index(bad)  # shallow: row count drifts from manifest
    assert not r["ok"]
    # fix the manifest count so only the deep uniqueness check can catch it
    m = json.load(open(os.path.join(bad, "manifest.json")))
    m["n_docs"] += 1
    json.dump(m, open(os.path.join(bad, "manifest.json"), "w"))
    r = verify_index(bad, deep=True)
    assert not r["ok"]
    assert any("duplicate doc_ids" in e for e in r["errors"])


def test_cli_verify_exit_codes(built_index, capsys):
    idx, root = built_index
    from indexer_ray.cli import main

    assert main(["verify", "-i", idx, "--deep"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    bad = _copy(idx, root, "bad_cli")
    os.unlink(os.path.join(bad, "parts", "1", "_meta.json"))
    assert main(["verify", "-i", bad]) == 1


def test_fsck_deep_over_merge_delete_remap_lineage(
    built_index, tmp_path_factory, ray_session
):
    """The three lifecycle ops compose: build -> merge -> delete -> remap,
    with verify --deep green after every step and the final docmap being
    the dense url rank (the remap contract)."""
    from indexer_ray.pipelines.merge import delete_docs, merge_indexes
    from indexer_ray.pipelines.remap import remap_docids

    idx, _ = built_index
    work = tmp_path_factory.mktemp("lineage")

    delta_pages = str(work / "delta.parquet")
    # start=300: disjoint url space from the base fixture's 300 rows
    generate_pages_parquet(delta_pages, n_rows=120, seed=11, start=300)
    delta_idx = str(work / "delta_idx")
    build_index([delta_pages], delta_idx, BuildConfig(n_partitions=8))
    r = verify_index(delta_idx, deep=True)
    assert r["ok"], r["errors"]

    merged = str(work / "merged")
    merge_indexes(idx, delta_idx, merged)
    r = verify_index(merged, deep=True)
    assert r["ok"], r["errors"]

    dm = pq.read_table(
        sorted(glob.glob(os.path.join(merged, "docmap", "*.parquet"))),
        columns=["url"],
    )
    urls = sorted(dm.column("url").to_pylist())[::17][:25]
    assert urls
    deleted = str(work / "deleted")
    delete_docs(merged, urls, deleted)
    r = verify_index(deleted, deep=True)
    assert r["ok"], r["errors"]

    remapped = str(work / "remapped")
    remap_docids(deleted, remapped, key_cols=("url",))
    r = verify_index(remapped, deep=True)
    assert r["ok"], r["errors"]

    dm2 = (
        pq.read_table(
            sorted(glob.glob(os.path.join(remapped, "docmap", "*.parquet"))),
            columns=["doc_id", "url"],
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    assert dm2["doc_id"].tolist() == list(range(len(dm2)))
    assert dm2["url"].tolist() == sorted(dm2["url"])
    assert len(dm2) == 300 + 120 - len(urls)
    for u in urls:
        assert u not in set(dm2["url"])
