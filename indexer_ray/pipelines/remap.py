"""Docid reassignment (index remap) for posting-gap compression.

Assigning document ids in an order that clusters similar documents
shrinks delta-encoded posting gaps: postings of host- or topic-local
terms land on near-consecutive ids, so the LEB128 gap stream spends one
byte where random assignment spends two or three (Silvestri, "Sorting
out the document identifier assignment problem", ECIR 2007).  For web
corpora the classic cheap heuristic is URL lexicographic order —
same-host pages sort adjacent.

``remap_docids`` rewrites an existing index (merge.py's streaming
decode → route → encode machinery) with doc ids replaced by the GLOBAL
RANK of each docmap row under a caller-chosen sort key:

    new_id = rank of (key_cols..., doc_id) among all docmap rows

Distribution (nothing driver-sized anywhere):

* rank pass — sampled-boundary range partitioning over the composite
  key (deterministic hash-sample of ~64 keys per partition, persisted
  in progress.json so resumes route identically), per-partition counts
  → exclusive prefix offsets (P ints on the driver), local sort +
  offset inside ``groupby(part).map_groups`` — the
  ccnet_perplexity_buckets two-pass rank shape, with string keys;
* postings pass — the old → new id translation is one inner
  ``regime_join`` of the postings with the mapping, gated on
  ``broadcast_docs_threshold``;
* encode — the build's phase-2 encoder verbatim via merge's
  ``_encode_and_commit`` (per-partition checkpoints, ``_meta.json``
  lineage, manifest-last commit).

The output index is dense-id BY CONSTRUCTION (ids 0..n_docs-1 in key
order), so hot-term salt ranges split the new id space evenly and the
gap codec sees its best case.

Reference anchor: the reference assigns ids by arrival order and never
revisits them (lib.rs doc admission, tree.rs:216-221 uncompressed
postings); this operator exists for the north rule's storage cost at
10^12 docs, where bytes/posting dominates."""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from indexer_ray.pipelines.build import _auto_partitions
from indexer_ray.pipelines.merge import (
    _docmap_files,
    _docmap_rows,
    _encode_and_commit,
    _write_raw,
    postings_ds,
)
from indexer_ray.stages.shuffle import INNER, regime_join
from indexer_ray.state.manifest import (
    IndexManifest,
    load_progress,
    save_progress,
)

_DOCMAP_SHUFFLE_PARTS = 64


def _composite_key(t: pa.Table, key_cols: tuple[str, ...]) -> pa.Array:
    """NUL-joined string composite of the key columns (NUL is the lowest
    byte, so concat order == the boundary-sample order used for routing;
    ties across rows are broken by doc_id in the local sort)."""
    k = pc.cast(t.column(key_cols[0]), pa.string())
    for c in key_cols[1:]:
        k = pc.binary_join_element_wise(
            k, pc.cast(t.column(c), pa.string()), "\x00"
        )
    return k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k


def remap_docids(
    index_dir: str,
    out_dir: str,
    key_cols: tuple[str, ...] = ("url",),
    n_partitions: int | None = None,
    n_rank_parts: int = _DOCMAP_SHUFFLE_PARTS,
    broadcast_docs_threshold: int = 1 << 20,
    resume: bool = False,
) -> IndexManifest:
    """Rewrite `index_dir` at `out_dir` with ids re-assigned by the
    global (key_cols..., doc_id) rank.  Ray must already be initialised
    (driver contract).  Returns the new manifest."""
    base_m = IndexManifest.load(index_dir)
    if not resume and (
        os.path.exists(os.path.join(out_dir, "progress.json"))
        or os.path.exists(os.path.join(out_dir, "manifest.json"))
    ):
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    raw_root = os.path.join(out_dir, "raw")
    docmap_dir = os.path.join(out_dir, "docmap")
    progress = load_progress(out_dir) if resume else {}

    dm_files = _docmap_files(index_dir)
    n_docs = _docmap_rows(dm_files)

    out_config = dict(base_m.config)
    out_config["id_assign"] = "dense"
    out_config["id_column"] = None
    out_config["remap_key"] = list(key_cols)
    tgt = int(base_m.config.get("target_partition_postings", 4 << 20))
    total_postings = sum(
        int(m.get("n_postings", 0)) for m in base_m.partitions.values()
    )

    # routing tables persisted so resumes route identically
    if "n_partitions" in progress:
        P = int(progress["n_partitions"])
        hot_out = dict(progress["hot_terms"])
        boundaries = np.array(progress["rank_boundaries"], dtype=object)
    else:
        P = n_partitions or _auto_partitions(total_postings, tgt)
        hot_out = dict(base_m.hot_terms)
        boundaries = _rank_boundaries(dm_files, key_cols, n_docs, n_rank_parts)
        progress.update(
            {
                "n_partitions": P,
                "hot_terms": hot_out,
                "rank_boundaries": [str(b) for b in boundaries],
            }
        )
        save_progress(out_dir, progress)

    t0 = time.monotonic()
    if not progress.get("phase1_complete"):
        shutil.rmtree(raw_root, ignore_errors=True)
        shutil.rmtree(docmap_dir, ignore_errors=True)

        if n_docs == 0:
            os.makedirs(docmap_dir, exist_ok=True)
            progress["phase1_complete"] = True
            save_progress(out_dir, progress)
            return _encode_and_commit(
                out_dir, out_config, P, hot_out, progress, [index_dir]
            )

        ranked = _ranked_docmap(dm_files, key_cols, boundaries)

        # new docmap: the ranked rows minus the bookkeeping columns
        ranked.map_batches(
            lambda t: t.drop_columns(["old_doc_id"]), batch_format="pyarrow"
        ).write_parquet(docmap_dir)
        os.makedirs(docmap_dir, exist_ok=True)

        # (doc_id = old id, new_id): the join key keeps the postings' name
        mapping = ranked.select_columns(["old_doc_id", "doc_id"]).map_batches(
            lambda t: t.rename_columns(["doc_id", "new_id"]), batch_format="pyarrow"
        )
        post = regime_join(
            postings_ds(index_dir), mapping, "doc_id", INNER, broadcast_docs_threshold
        ).map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("doc_id"), "doc_id", t.column("new_id")
            ).drop_columns(["new_id"]),
            batch_format="pyarrow",
        )
        # dense rank space: salts split 0..n_docs-1 evenly
        _write_raw(post, raw_root, hot_out, P, n_docs)
        if total_postings:
            # the inner join DROPS a posting whose doc_id is missing from
            # the docmap and repeats one whose old id is duplicated there;
            # the written row count (parquet footer metadata only — no
            # data read) against the manifest's posting total catches both
            written = sum(
                pq.ParquetFile(os.path.join(r, f)).metadata.num_rows
                for r, _, fs in os.walk(raw_root)
                for f in fs
                if f.endswith(".parquet")
            )
            if written != total_postings:
                cause = (
                    "duplicate old doc_id in docmap"
                    if written > total_postings
                    else "posting doc_id missing from docmap"
                )
                raise RuntimeError(
                    f"remap_docids: {cause} "
                    f"(joined {written} of {total_postings} postings)"
                )
        progress["phase1_complete"] = True
        progress["phase1_sec"] = round(time.monotonic() - t0, 3)
        save_progress(out_dir, progress)

    return _encode_and_commit(
        out_dir, out_config, P, hot_out, progress, [index_dir]
    )


def _rank_boundaries(
    dm_files: list[str],
    key_cols: tuple[str, ...],
    n_docs: int,
    n_rank_parts: int,
) -> np.ndarray:
    """Sampled range-partition boundaries over the composite key.

    Deterministic: a fixed-key hash of the composite key picks ~64
    sample keys per partition regardless of row order; the sample is
    bounded (never the corpus) and the quantile cut points come from
    its sorted order."""
    import ray.data as rd

    if n_docs == 0 or n_rank_parts <= 1:
        return np.array([], dtype=object)
    rate = max(1, n_docs // (n_rank_parts * 64))

    def _samp(t: pa.Table) -> pa.Table:
        k = _composite_key(t, key_cols)
        kn = k.to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(kn)
        return pa.table({"skey": k.filter(pa.array(h % rate == 0))})

    sample = (
        rd.read_parquet(dm_files, columns=list(dict.fromkeys([*key_cols, "doc_id"])))
        .map_batches(_samp, batch_format="pyarrow")
        .limit(n_rank_parts * 512)
        .take_all()
    )
    keys = sorted(r["skey"] for r in sample)
    if not keys:
        return np.array([], dtype=object)
    cuts = [keys[(i * len(keys)) // n_rank_parts] for i in range(1, n_rank_parts)]
    return np.unique(np.array(cuts, dtype=object))


def _ranked_docmap(
    dm_files: list[str], key_cols: tuple[str, ...], boundaries: np.ndarray
):
    """Docmap rows with ``doc_id`` replaced by the global key rank and the
    original id kept as ``old_doc_id`` (two-pass distributed rank)."""
    import ray.data as rd

    dm = rd.read_parquet(dm_files)
    dm_cols = [c for c in dm.schema().names]

    def _route(t: pa.Table) -> pa.Table:
        k = _composite_key(t, key_cols)
        kn = k.to_numpy(zero_copy_only=False)
        part = (
            np.searchsorted(boundaries, kn, side="right")
            if len(boundaries)
            else np.zeros(len(kn), dtype=np.int64)
        )
        return t.append_column(
            "skey", k
        ).append_column("part", pa.array(part.astype(np.int32), type=pa.int32()))

    routed = dm.map_batches(
        _route, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    counts_df = routed.groupby("part").count().to_pandas()
    counts = dict(
        zip(counts_df["part"].astype(int), counts_df["count()"].astype(int))
    )
    offsets = {}
    acc = 0
    for p in range(int(len(boundaries)) + 1):
        offsets[p] = acc
        acc += counts.get(p, 0)

    def _assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["skey", "old_doc_id"], kind="mergesort")
        part = int(g["part"].iloc[0])
        new_ids = offsets[part] + np.arange(len(g), dtype=np.uint64)
        out = {c: g[c].to_numpy() for c in dm_cols if c != "doc_id"}
        out["doc_id"] = new_ids
        out["old_doc_id"] = g["old_doc_id"].to_numpy(dtype=np.uint64)
        return pd.DataFrame(out)

    renamed = routed.map_batches(
        lambda t: t.rename_columns(
            ["old_doc_id" if c == "doc_id" else c for c in t.column_names]
        ),
        batch_format="pyarrow",
    )
    return renamed.groupby("part").map_groups(
        _assign, batch_format="pandas"
    ).map_batches(
        # uint64 ids survive the pandas hop only if re-cast explicitly
        lambda t: t.set_column(
            t.schema.get_field_index("doc_id"),
            "doc_id",
            pc.cast(t.column("doc_id"), pa.uint64()),
        ).set_column(
            t.schema.get_field_index("old_doc_id"),
            "old_doc_id",
            pc.cast(t.column("old_doc_id"), pa.uint64()),
        ),
        batch_format="pyarrow",
    ).materialize()


def index_payload_stats(index_dir: str) -> dict:
    """Posting-payload size census: (n_postings, payload_bytes,
    bytes_per_posting) from the block files — one streaming pass, only
    the ``n`` and ``payload`` columns leave storage."""
    import ray.data as rd

    from indexer_ray.pipelines.merge import _blocks_files

    files = _blocks_files(index_dir)
    if not files:
        return {"n_postings": 0, "payload_bytes": 0, "bytes_per_posting": 0.0}

    def _sz(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        pb = (
            pc.binary_length(t.column("payload"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table(
            {
                "n": pa.array([int(n.sum())], type=pa.int64()),
                "b": pa.array([int(pb.sum())], type=pa.int64()),
            }
        )

    agg = (
        rd.read_parquet(files, columns=["n", "payload"])
        .map_batches(_sz, batch_format="pyarrow", zero_copy_batch=True)
        .sum(["n", "b"])
    )
    n, b = int(agg["sum(n)"]), int(agg["sum(b)"])
    return {
        "n_postings": n,
        "payload_bytes": b,
        "bytes_per_posting": (b / n) if n else 0.0,
    }
