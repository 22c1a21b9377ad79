"""LSM-style index merge / compaction — closes the incremental lifecycle.

After `incremental.build_delta_index` the corpus is covered by TWO indexes
(base + delta), and a re-indexed url exists in BOTH: the delta has its
fresh postings, the base still has its stale ones.  `merge_indexes`
compacts the pair into ONE fresh index with newest-url-wins semantics:

    merged corpus = (base docs whose url is NOT in the delta docmap)
                    union (all delta docs)

The merge works at the POSTINGS level — documents are never re-extracted
or re-tokenized.  At web scale tokenization dominates build cost, so a
merge moves only (term, doc_id, tf, dl) rows: decode both indexes' posting
blocks (stages/codec.py) as streaming Datasets, drop the superseded base
postings, re-route every posting to its output partition with the SAME
routing functions the build uses (functions/hashing.py — including
salted hot-term runs), write the partitioned raw layout, and reuse the
build's phase-2 encoder verbatim (`build.encode_partition`), inheriting
its per-partition checkpoints, `_meta.json` lineage and byte-determinism.
The manifest is written atomically LAST (state/manifest.py commit rule).

Superseded docs drop through `stages/shuffle.regime_join` (broadcast
url set below `broadcast_urls_threshold`, distributed hash join above).

Doc-id space: for hash ids (blake2b(url)) and native `id_column` ids a
re-indexed url keeps the SAME id, so dropping superseded base postings
makes the union collision-free with no remapping.  Dense row-number ids
collide across independently built indexes, so delta ids shift by
(max base docmap id + 1) — gaps left by superseded docs are fine, the
block codec stores deltas.

Reference anchor: the reference mutates a single in-memory tree per run
(lib.rs:251-256 re-index on mtime; tree.rs:186-247 segment flush) and
never compacts segments; this operator is the engine's own design for the
north rule's resumable 10^12-doc lifecycle.

Deletions are out of scope (as in the reference): a url whose new
version became empty is skipped by the delta build (A2 empty-skip) and
its stale base entry survives the merge.

`merge_many` extends the rule to a generation CHAIN (L0..Lk compaction):
a url's postings come from the last generation containing it, in one
streaming pass over all generations' postings.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from indexer_ray.functions.hashing import (
    hot_term_partitions,
    salt_of_doc,
    term_partition,
)
from indexer_ray.pipelines.build import (
    BuildConfig,
    _auto_partitions,
    _docmap_stats,
    _encode_partition_batch,
)
from indexer_ray.stages.codec import decode_blocks
from indexer_ray.stages.shuffle import ANTI, SEMI, regime_join
from indexer_ray.state.manifest import (
    IndexManifest,
    load_progress,
    part_complete,
    save_progress,
)


def _blocks_files(index_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(index_dir, "parts", "*", "blocks.parquet")))


def _docmap_files(index_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(index_dir, "docmap", "*.parquet")))


_POST_COLS = ["term", "doc_id", "tf", "dl"]
_EMPTY_POSTINGS = pa.table(
    {
        "term": pa.array([], type=pa.string()),
        "doc_id": pa.array([], type=pa.uint64()),
        "tf": pa.array([], type=pa.uint32()),
        "dl": pa.array([], type=pa.uint32()),
    }
)


def postings_ds(index_dir: str):
    """Streaming Dataset of decoded postings (term, doc_id, tf, dl) from an
    index's block files — the read half of the merge.  One vectorized
    decode per batch of block rows (stages/codec.decode_blocks); terms
    repeat via an Arrow take, never a Python loop per posting."""
    import ray.data as rd

    files = _blocks_files(index_dir)
    if not files:
        return rd.from_arrow(_EMPTY_POSTINGS)

    def _decode(batch: pa.Table) -> pa.Table:
        ns = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        first = (
            batch.column("first_doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        )
        doc, tf, dl, _ = decode_blocks(batch.column("payload"), ns, first)
        idx = np.repeat(np.arange(len(ns), dtype=np.int64), ns)
        terms = batch.column("term").combine_chunks().take(pa.array(idx))
        return pa.table(
            {
                "term": terms,
                "doc_id": pa.array(doc, type=pa.uint64()),
                "tf": pa.array(tf.astype(np.uint32), type=pa.uint32()),
                "dl": pa.array(dl.astype(np.uint32), type=pa.uint32()),
            }
        )

    # ~1024 block rows/batch = up to ~128k postings per decode call
    return rd.read_parquet(
        files, columns=["term", "n", "first_doc_id", "payload"]
    ).map_batches(_decode, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024)


def _docmap_rows(docmap_dir_files: list[str]) -> int:
    """Total docmap rows from parquet METADATA only (no data read)."""
    return sum(pq.ParquetFile(f).metadata.num_rows for f in docmap_dir_files)


def _max_docmap_id(index_dir: str) -> int:
    """Max doc_id across an index's docmap fragments, from parquet
    row-group statistics (metadata-only)."""
    mx = 0
    for f in _docmap_files(index_dir):
        md = pq.ParquetFile(f)
        ci = md.schema_arrow.get_field_index("doc_id")
        for rg in range(md.metadata.num_row_groups):
            st = md.metadata.row_group(rg).column(ci).statistics
            if st is not None and st.max is not None:
                mx = max(mx, int(st.max))
    return mx


def _route_batch(
    batch: pa.Table, hot_salts: dict[str, int], n_partitions: int, id_space
) -> pa.Table:
    """Assign each posting row its output partition — the same routing rule
    as the build's tokenize stage (stages/tokenize.py `_part_of` + salt
    runs), applied to already-tokenized rows.  Vectorized per distinct
    term (parquet block tables are term-dictionary-heavy)."""
    batch = batch.select(_POST_COLS)
    enc = batch.column("term").combine_chunks().dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    base_parts = np.fromiter(
        (term_partition(t, n_partitions) for t in uniq),
        dtype=np.int32,
        count=len(uniq),
    )
    part = base_parts[codes] if len(codes) else np.empty(0, dtype=np.int32)
    hot_here = [(ui, t) for ui, t in enumerate(uniq) if t in hot_salts]
    if hot_here:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        for ui, t in hot_here:
            s = int(hot_salts[t])
            rows = codes == ui
            hp = np.array(hot_term_partitions(t, s, n_partitions), dtype=np.int32)
            part[rows] = hp[salt_of_doc(ids[rows], s, id_space)]
    return batch.append_column("part_id", pa.array(part, type=pa.int32()))


def _write_raw(
    post, raw_root: str, hot_salts: dict[str, int], n_partitions: int, id_space
):
    """Route postings to their output partitions and write the partitioned
    raw layout the phase-2 encoder reads."""
    post.map_batches(
        _route_batch,
        fn_kwargs={
            "hot_salts": hot_salts,
            "n_partitions": n_partitions,
            "id_space": id_space,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).write_parquet(raw_root, partition_cols=["part_id"])


def _shift_ids(ds, offset: int):
    """`ds` with `doc_id + offset` — dense row-number ids of a later
    generation moved past the earlier generations' id spaces."""
    if not offset:
        return ds
    off = np.uint64(offset)

    def _shift(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.set_column(
            t.schema.get_field_index("doc_id"),
            "doc_id",
            pa.array(ids + off, type=pa.uint64()),
        )

    return ds.map_batches(_shift, batch_format="pyarrow", zero_copy_batch=True)


def _read_docmap(files: list[str], columns: list[str] | None = None):
    """Docmap fragments as a Dataset; a typed empty (doc_id, url) one when
    there are none."""
    import ray.data as rd

    if files:
        return rd.read_parquet(files, columns=columns)
    empty = pa.table(
        {
            "doc_id": pa.array([], type=pa.uint64()),
            "url": pa.array([], type=pa.string()),
        }
    )
    return rd.from_arrow(empty.select(columns) if columns else empty)


def _select(ds, cols: list[str]):
    return ds.map_batches(lambda t: t.select(cols), batch_format="pyarrow")


def _drop_urls(index_dir: str, urls_ds, threshold: int):
    """(postings, docmap) of an index minus every doc whose url is in
    `urls_ds` (one `url` column): the doc_ids of those urls, then both
    tables without them."""
    urls_ds = urls_ds.materialize()
    dm = _read_docmap(_docmap_files(index_dir))
    gone = regime_join(
        dm.select_columns(["doc_id", "url"]), urls_ds, "url", SEMI, threshold
    ).select_columns(["doc_id"])
    post = regime_join(postings_ds(index_dir), gone, "doc_id", ANTI, threshold)
    return post, regime_join(dm, urls_ds, "url", ANTI, threshold)


def merge_indexes(
    base_dir: str,
    delta_dir: str,
    out_dir: str,
    resume: bool = False,
    n_partitions: int | None = None,
    broadcast_urls_threshold: int = 1 << 20,
) -> IndexManifest:
    """Compact base + delta indexes into a fresh index at `out_dir` with
    newest-url-wins semantics.  Ray must already be initialised (driver
    contract).  Returns the merged manifest.

    Resumable like `build_index`: phase 1 (decode/filter/route/write-raw +
    docmap) is marked complete in progress.json; phase 2 reuses the
    per-partition `_meta.json` checkpoints; manifest.json commits last."""
    import ray.data as rd

    base_m = IndexManifest.load(base_dir)
    delta_m = IndexManifest.load(delta_dir)
    for k in ("mode", "stem_tokens", "stop_filter", "source", "extract"):
        if base_m.config.get(k) != delta_m.config.get(k):
            raise ValueError(
                f"merge_indexes: tokenizer config mismatch on {k!r}: "
                f"{base_m.config.get(k)!r} vs {delta_m.config.get(k)!r} — "
                "merging indexes with different token semantics would mix "
                "incomparable postings"
            )

    if not resume and (
        os.path.exists(os.path.join(out_dir, "progress.json"))
        or os.path.exists(os.path.join(out_dir, "manifest.json"))
    ):
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    raw_root = os.path.join(out_dir, "raw")
    docmap_dir = os.path.join(out_dir, "docmap")
    progress = load_progress(out_dir) if resume else {}

    dense = bool(base_m.config.get("id_assign") == "dense") and not base_m.config.get(
        "id_column"
    )
    delta_offset = (_max_docmap_id(base_dir) + 1) if dense else 0

    # output sizing + routing tables (persisted so resumes route identically)
    if "n_partitions" in progress:
        P = int(progress["n_partitions"])
        hot_out = dict(progress["hot_terms"])
        id_space = progress["id_space"]
        delta_offset = int(progress["delta_offset"])
    else:
        total_postings = sum(
            int(m.get("n_postings", 0)) for m in base_m.partitions.values()
        ) + sum(int(m.get("n_postings", 0)) for m in delta_m.partitions.values())
        tgt = int(base_m.config.get("target_partition_postings", 4 << 20))
        P = n_partitions or _auto_partitions(total_postings, tgt)
        hot_out = dict(base_m.hot_terms)
        for t, s in delta_m.hot_terms.items():
            hot_out[t] = max(int(hot_out.get(t, 0)), int(s))
        # salt ranges split the merged id space for dense/native ids; hash
        # ids span the full 2^64 space (id_space=None)
        if dense or base_m.config.get("id_column"):
            id_space = max(
                _max_docmap_id(base_dir), delta_offset + _max_docmap_id(delta_dir)
            ) + 1
        else:
            id_space = None
        progress.update(
            {
                "n_partitions": P,
                "hot_terms": hot_out,
                "id_space": id_space,
                "delta_offset": delta_offset,
            }
        )
        save_progress(out_dir, progress)

    t0 = time.monotonic()
    if not progress.get("phase1_complete"):
        # idempotent rewrite: a crashed phase 1 leaves partial raw/docmap
        shutil.rmtree(raw_root, ignore_errors=True)
        shutil.rmtree(docmap_dir, ignore_errors=True)

        base_dm_files = _docmap_files(base_dir)
        delta_dm_files = _docmap_files(delta_dir)
        base_post, dm_out = _drop_urls(
            base_dir, _read_docmap(delta_dm_files, ["url"]), broadcast_urls_threshold
        )
        delta_post = _shift_ids(postings_ds(delta_dir), delta_offset)
        _write_raw(base_post.union(delta_post), raw_root, hot_out, P, id_space)

        if delta_dm_files:
            dm_cols = pq.ParquetFile(
                (base_dm_files or delta_dm_files)[0]
            ).schema_arrow.names
            delta_dm = _shift_ids(rd.read_parquet(delta_dm_files), delta_offset)
            dm_out = _select(dm_out, dm_cols).union(_select(delta_dm, dm_cols))
        dm_out.write_parquet(docmap_dir)
        os.makedirs(docmap_dir, exist_ok=True)  # 0-row write creates no dir
        progress["phase1_complete"] = True
        progress["phase1_sec"] = round(time.monotonic() - t0, 3)
        save_progress(out_dir, progress)

    return _encode_and_commit(
        out_dir, base_m.config, P, hot_out, progress, [base_dir, delta_dir]
    )


def _encode_and_commit(
    out_dir: str,
    base_config: dict,
    P: int,
    hot_out: dict[str, int],
    progress: dict,
    input_files: list[str],
) -> IndexManifest:
    """Shared merge tail: phase-2 encode (per-partition checkpoints, the
    build's encoder) + docmap stats + manifest-last commit."""
    import ray
    import ray.data as rd

    raw_root = os.path.join(out_dir, "raw")
    docmap_dir = os.path.join(out_dir, "docmap")
    t2 = time.monotonic()
    existing = {
        int(os.path.basename(d).split("=")[1])
        for d in glob.glob(os.path.join(raw_root, "part_id=*"))
    }
    all_parts = sorted(existing)
    pending = [p for p in all_parts if not part_complete(out_dir, p)]
    if pending:
        n_cpus = int(ray.cluster_resources().get("CPU", 8))
        block_size = int(base_config.get("block_size", 128))
        tgt = int(base_config.get("target_partition_postings", 4 << 20))
        rd.from_items([{"part_id": p} for p in pending]).map_batches(
            _encode_partition_batch,
            fn_args=(out_dir, raw_root, block_size, tgt),
            batch_size=1,
            num_cpus=max(1, n_cpus // 8),
        ).materialize()
    progress["phase2_sec"] = round(time.monotonic() - t2, 3)
    save_progress(out_dir, progress)

    n_docs, total_dl, _ = _docmap_stats(docmap_dir)
    part_metas = {}
    for p in all_parts:
        import json

        from indexer_ray.state.manifest import part_dir

        with open(os.path.join(part_dir(out_dir, p), "_meta.json")) as f:
            part_metas[str(p)] = json.load(f)
    out_config = dict(base_config)
    out_config["n_partitions"] = P
    manifest = IndexManifest(
        n_docs=n_docs,
        total_doc_len=total_dl,
        n_partitions=P,
        hot_terms=hot_out,
        config=out_config,
        partitions=part_metas,
        input_files=input_files,
    )
    manifest.save(out_dir)
    shutil.rmtree(raw_root, ignore_errors=True)
    return manifest


def merge_many(
    index_dirs: list[str],
    out_dir: str,
    n_partitions: int | None = None,
    broadcast_urls_threshold: int = 1 << 20,
) -> IndexManifest:
    """Compact a GENERATION CHAIN of indexes (oldest first, newest last)
    into one fresh index: a url's postings come from the LAST index that
    contains it — the n-way extension of `merge_indexes`' newest-wins rule,
    i.e. L0..Lk LSM compaction.

    Each generation drops the urls of every newer one through
    `regime_join`, gated on `broadcast_urls_threshold`.

    Dense row-number ids shift by cumulative per-generation id spaces;
    hash / native ids keep their shared ids (superseded copies drop)."""
    if len(index_dirs) < 2:
        raise ValueError("merge_many needs at least two indexes")
    if len(index_dirs) == 2:
        return merge_indexes(
            index_dirs[0],
            index_dirs[1],
            out_dir,
            n_partitions=n_partitions,
            broadcast_urls_threshold=broadcast_urls_threshold,
        )
    manifests = [IndexManifest.load(d) for d in index_dirs]
    m0 = manifests[0]
    for d, m in zip(index_dirs[1:], manifests[1:]):
        for k in ("mode", "stem_tokens", "stop_filter", "source", "extract"):
            if m0.config.get(k) != m.config.get(k):
                raise ValueError(
                    f"merge_many: tokenizer config mismatch on {k!r} "
                    f"between {index_dirs[0]!r} and {d!r}"
                )

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    raw_root = os.path.join(out_dir, "raw")
    docmap_dir = os.path.join(out_dir, "docmap")
    progress: dict = {}

    dense = bool(m0.config.get("id_assign") == "dense") and not m0.config.get(
        "id_column"
    )
    G = len(index_dirs)
    offsets = [0] * G
    if dense:
        for g in range(1, G):
            offsets[g] = offsets[g - 1] + _max_docmap_id(index_dirs[g - 1]) + 1

    total_postings = sum(
        int(pm.get("n_postings", 0))
        for m in manifests
        for pm in m.partitions.values()
    )
    tgt = int(m0.config.get("target_partition_postings", 4 << 20))
    P = n_partitions or _auto_partitions(total_postings, tgt)
    hot_out: dict[str, int] = {}
    for m in manifests:
        for t_, s_ in m.hot_terms.items():
            hot_out[t_] = max(int(hot_out.get(t_, 0)), int(s_))
    if dense or m0.config.get("id_column"):
        id_space = max(
            offsets[g] + _max_docmap_id(index_dirs[g]) for g in range(G)
        ) + 1
    else:
        id_space = None
    progress.update(
        {"n_partitions": P, "hot_terms": hot_out, "id_space": id_space}
    )
    save_progress(out_dir, progress)

    posts, dms = [], []
    for g, d in enumerate(index_dirs):
        newer = [f for n in index_dirs[g + 1:] for f in _docmap_files(n)]
        post, dm = _drop_urls(
            d, _read_docmap(newer, ["url"]), broadcast_urls_threshold
        )
        posts.append(_shift_ids(post, offsets[g]))
        files = _docmap_files(d)
        if files:
            dm_cols = pq.ParquetFile(files[0]).schema_arrow.names
            dms.append(_select(_shift_ids(dm, offsets[g]), dm_cols))
    _write_raw(posts[0].union(*posts[1:]), raw_root, hot_out, P, id_space)
    if dms:
        dms[0].union(*dms[1:]).write_parquet(docmap_dir)
    os.makedirs(docmap_dir, exist_ok=True)
    progress["phase1_complete"] = True
    save_progress(out_dir, progress)

    return _encode_and_commit(out_dir, m0.config, P, hot_out, progress, list(index_dirs))


def delete_docs(
    base_dir: str,
    urls,
    out_dir: str,
    resume: bool = False,
    n_partitions: int | None = None,
    broadcast_urls_threshold: int = 1 << 20,
) -> IndexManifest:
    """Tombstone deletion as compaction: produce a fresh index at
    `out_dir` equal to `base_dir` minus the documents whose url is in
    `urls` — the LSM lifecycle step merge_indexes does NOT cover
    (takedowns / GDPR erasure / opt-out lists delete docs without a
    replacement delta).  No re-tokenization: base postings stream through
    a doc-id filter and re-encode with the base's own hot-term salting,
    partitioning and checkpointed phase-2 tail.

    `urls` is a list[str] or a Dataset with a `url` column, dropped
    through `regime_join` like merge_indexes' superseded urls.  Deleting
    a url absent from the index is a no-op, like the reference's skip
    semantics.  Resumable exactly like merge/build."""
    import ray.data as rd

    base_m = IndexManifest.load(base_dir)
    if not resume and (
        os.path.exists(os.path.join(out_dir, "progress.json"))
        or os.path.exists(os.path.join(out_dir, "manifest.json"))
    ):
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    raw_root = os.path.join(out_dir, "raw")
    docmap_dir = os.path.join(out_dir, "docmap")
    progress = load_progress(out_dir) if resume else {}

    if "n_partitions" in progress:
        P = int(progress["n_partitions"])
        hot_out = dict(progress["hot_terms"])
        id_space = progress["id_space"]
    else:
        # deletion only SHRINKS content, so the base's partition count is
        # the right default (autosizing would bounce a 4-part index to the
        # 32-part floor)
        P = n_partitions or int(base_m.n_partitions)
        hot_out = dict(base_m.hot_terms)
        dense_or_col = bool(base_m.config.get("id_assign") == "dense") or bool(
            base_m.config.get("id_column")
        )
        id_space = (_max_docmap_id(base_dir) + 1) if dense_or_col else None
        progress.update(
            {"n_partitions": P, "hot_terms": hot_out, "id_space": id_space}
        )
        save_progress(out_dir, progress)

    t0 = time.monotonic()
    if not progress.get("phase1_complete"):
        shutil.rmtree(raw_root, ignore_errors=True)
        shutil.rmtree(docmap_dir, ignore_errors=True)

        if isinstance(urls, (list, tuple, set, frozenset)):
            urls = sorted(str(u) for u in urls)
            urls = rd.from_arrow(pa.table({"url": pa.array(urls, type=pa.string())}))
        elif not hasattr(urls, "count"):
            raise TypeError(f"urls must be a list or a Dataset, got {type(urls)}")
        base_post, dm_out = _drop_urls(
            base_dir, urls.select_columns(["url"]), broadcast_urls_threshold
        )
        _write_raw(base_post, raw_root, hot_out, P, id_space)
        base_dm_files = _docmap_files(base_dir)
        if base_dm_files:
            dm_out = _select(dm_out, pq.ParquetFile(base_dm_files[0]).schema_arrow.names)
        dm_out.write_parquet(docmap_dir)
        os.makedirs(docmap_dir, exist_ok=True)  # 0-row write creates no dir
        progress["phase1_complete"] = True
        progress["phase1_sec"] = round(time.monotonic() - t0, 3)
        save_progress(out_dir, progress)

    return _encode_and_commit(out_dir, base_m.config, P, hot_out, progress, [base_dir])
