"""Index verification (fsck) — the operational check a 100-TB deployment
runs after a build/merge/restore before putting an index behind queries
(reference analogue: none — the reference trusts its segment files;
SURVEY W2's manifest-last commit gives this repo something checkable).

Two levels:

`verify_index(dir)` — SHALLOW, driver-side, metadata only (seconds at any
scale): manifest loads and is internally consistent, every partition
0..P-1 has its `_meta.json` completion marker plus dict/blocks files,
docmap parquet row counts (footers only, no data read) sum to
manifest.n_docs, progress.json agrees on the partition count.

`verify_index(dir, deep=True)` — DEEP, distributed: one Ray task per
partition decodes every posting block (the same vectorized
codec.decode_blocks kernel queries use) and re-checks the build's
invariants — decoded posting count == _meta.n_postings, dict row count ==
_meta.n_terms, sum(dict.df) == n_postings (df counts per salt run, so the
sum holds for salted terms too), each term's dict df == the sum of its
blocks' n and blocks.parquet sorted by (term, block_id) (the two facts the
searcher's term lookup rests on), per-block last_doc_id == last decoded id
and doc ids strictly increasing within a block; one task per docmap file
re-checks per-file doc_id uniqueness and aggregates (rows, doc_len) whose
totals must equal manifest.n_docs / total_doc_len.  Cross-file doc_id
uniqueness is checked driver-side below `unique_ids_threshold` ids
(8 B/id) and via a distributed duplicate-count groupby above it — the
repo's standard regime gate.

Returns {"ok": bool, "errors": [...], "stats": {...}}; the CLI `verify`
subcommand exits non-zero when ok is False.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from indexer_ray.state.manifest import IndexManifest, load_progress, part_dir


def _shallow(index_dir: str) -> tuple[list[str], dict]:
    errors: list[str] = []
    stats: dict = {}
    try:
        m = IndexManifest.load(index_dir)
    except Exception as e:  # missing/corrupt manifest: nothing else checkable
        return [f"manifest.json unreadable: {e}"], {}
    stats.update(
        n_docs=m.n_docs, n_partitions=m.n_partitions, total_doc_len=m.total_doc_len
    )
    # the manifest lists only NON-EMPTY partitions (sparse small builds
    # write no dir for empty parts) — fsck checks exactly that set
    for pid in sorted(m.partitions, key=lambda s: int(s)):
        if not (str(pid).isdigit() and int(pid) < m.n_partitions):
            errors.append(f"manifest lists out-of-range partition {pid!r}")
            continue
        pd_ = part_dir(index_dir, int(pid))
        if not os.path.exists(os.path.join(pd_, "_meta.json")):
            errors.append(f"partition {pid}: missing _meta.json completion marker")
            continue
        for f in ("dict.parquet", "blocks.parquet"):
            if not os.path.exists(os.path.join(pd_, f)):
                errors.append(f"partition {pid}: missing {f}")
    on_disk = {
        d
        for d in (
            os.listdir(os.path.join(index_dir, "parts"))
            if os.path.isdir(os.path.join(index_dir, "parts"))
            else []
        )
        if d.isdigit()
    }
    orphans = on_disk - set(m.partitions)
    if orphans:
        errors.append(
            f"partition dirs on disk but absent from the manifest: {sorted(orphans, key=int)}"
        )
    docmap_files = sorted(glob.glob(os.path.join(index_dir, "docmap", "*.parquet")))
    stats["docmap_files"] = len(docmap_files)
    n_rows = 0
    for f in docmap_files:
        try:
            n_rows += pq.ParquetFile(f).metadata.num_rows
        except Exception as e:
            errors.append(f"docmap {os.path.basename(f)}: unreadable footer: {e}")
    stats["docmap_rows"] = n_rows
    if m.n_docs and not docmap_files:
        errors.append("no docmap files but manifest.n_docs > 0")
    if n_rows != m.n_docs:
        errors.append(f"docmap rows {n_rows} != manifest.n_docs {m.n_docs}")
    prog = load_progress(index_dir)
    if prog.get("n_partitions") not in (None, m.n_partitions):
        errors.append(
            f"progress.json n_partitions {prog.get('n_partitions')} "
            f"!= manifest {m.n_partitions}"
        )
    return errors, stats


def _verify_part(batch: dict, index_dir: str) -> pa.Table:
    """One task per partition: decode + invariant checks (bounded output:
    one report row)."""
    from indexer_ray.stages.codec import decode_blocks

    msgs, n_post = [], 0
    for pid in batch["part_id"]:
        pd_ = part_dir(index_dir, int(pid))
        try:
            meta = json.load(open(os.path.join(pd_, "_meta.json")))
            d = pq.read_table(os.path.join(pd_, "dict.parquet"))
            b = pq.read_table(os.path.join(pd_, "blocks.parquet"))
        except Exception as e:
            msgs.append(f"partition {pid}: unreadable: {e}")
            continue
        err = []
        if d.num_rows != int(meta.get("n_terms", -1)):
            err.append(f"dict rows {d.num_rows} != meta n_terms {meta.get('n_terms')}")
        import pyarrow.compute as pc

        df_sum = int(pc.sum(d.column("df")).as_py() or 0)
        if df_sum != int(meta.get("n_postings", -1)):
            err.append(f"sum(df) {df_sum} != meta n_postings {meta.get('n_postings')}")
        # the searcher finds a term's blocks by binary search over the
        # term-sorted rows and takes its df as the sum of their n
        terms = b.column("term").to_numpy(zero_copy_only=False)
        bids = b.column("block_id").to_numpy(zero_copy_only=False).astype(np.int64)
        if not (
            (terms[1:] > terms[:-1]) | ((terms[1:] == terms[:-1]) & (bids[1:] > bids[:-1]))
        ).all():
            err.append("blocks.parquet rows not sorted by (term, block_id)")
        j = d.select(["term", "df"]).join(
            b.group_by("term").aggregate([("n", "sum")]), "term", join_type="full outer"
        )
        bad = j.filter(pc.not_equal(pc.fill_null(j["df"], 0), pc.fill_null(j["n_sum"], 0)))
        if bad.num_rows:
            err.append(
                f"{bad.num_rows} terms whose dict df != the sum of their blocks' n, "
                f"e.g. {bad.column('term').to_pylist()[:3]}"
            )
        ns = b.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        try:
            doc, tf, dl, starts = decode_blocks(
                b.column("payload"),
                ns,
                b.column("first_doc_id").to_numpy(zero_copy_only=False).astype(
                    np.uint64
                ),
            )
        except Exception as e:
            msgs.append(f"partition {pid}: block decode failed: {e}")
            continue
        if len(doc) != int(meta.get("n_postings", -1)):
            err.append(
                f"decoded postings {len(doc)} != meta n_postings "
                f"{meta.get('n_postings')}"
            )
        if len(ns):
            ends = starts + ns - 1
            last = b.column("last_doc_id").to_numpy(zero_copy_only=False).astype(
                np.uint64
            )
            if not (doc[ends] == last).all():
                err.append("block last_doc_id mismatch with decoded ids")
            # strictly increasing within blocks, compared as uint64: an
            # int64 difference wraps for hash ids more than 2^63 apart
            if len(doc) > 1:
                first_rows = np.zeros(len(doc), dtype=bool)
                first_rows[starts] = True
                if not (doc[1:] > doc[:-1])[~first_rows[1:]].all():
                    err.append("non-increasing doc ids inside a block")
            # and across a term's consecutive blocks: the searcher takes a
            # term's blocks, in block_id order, as one doc-sorted run
            same = (terms[1:] == terms[:-1]) & (bids[1:] > bids[:-1])
            if not (doc[starts[1:][same]] > doc[ends[:-1][same]]).all():
                err.append("a term's consecutive blocks not in doc_id order")
        n_post += len(doc)
        msgs.extend(f"partition {pid}: {e}" for e in err)
    return pa.table(
        {
            "errors": pa.array(["\n".join(msgs)], type=pa.string()),
            "n_postings": pa.array([n_post], type=pa.int64()),
        }
    )


def _verify_docmap_file(batch: dict, include_ids: bool = True) -> pa.Table:
    rows, uniq, dlsum, msgs = 0, 0, 0, []
    ids_parts = []
    for path in batch["path"]:
        try:
            t = pq.read_table(path, columns=["doc_id", "doc_len"])
        except Exception as e:
            msgs.append(f"docmap {os.path.basename(path)}: unreadable: {e}")
            continue
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        rows += len(ids)
        u = np.unique(ids)
        uniq += len(u)
        if len(u) != len(ids):
            msgs.append(f"docmap {os.path.basename(path)}: duplicate doc_ids in file")
        dlsum += int(
            t.column("doc_len").to_numpy(zero_copy_only=False).astype(np.int64).sum()
        )
        ids_parts.append(u)
    if include_ids:  # regime-gated by the caller: only under the threshold
        allu = (
            np.concatenate(ids_parts) if ids_parts else np.empty(0, dtype=np.uint64)
        )
    else:
        allu = np.empty(0, dtype=np.uint64)
    return pa.table(
        {
            "errors": pa.array(["\n".join(msgs)], type=pa.string()),
            "n_rows": pa.array([rows], type=pa.int64()),
            "dl_sum": pa.array([dlsum], type=pa.int64()),
            "ids": pa.array([allu.tobytes()], type=pa.large_binary()),
        }
    )


def verify_index(
    index_dir: str,
    deep: bool = False,
    unique_ids_threshold: int = 5_000_000,
) -> dict:
    errors, stats = _shallow(index_dir)
    if errors or not deep:
        return {"ok": not errors, "errors": errors, "stats": stats}

    import ray.data as rd

    m = IndexManifest.load(index_dir)
    part_report = (
        rd.from_items([{"part_id": int(p)} for p in sorted(m.partitions, key=int)])
        .map_batches(
            _verify_part,
            fn_kwargs={"index_dir": index_dir},
            batch_size=1,
            batch_format="numpy",
        )
        .to_pandas()
    )
    for e in part_report["errors"]:
        if e:
            errors.extend(e.split("\n"))
    stats["n_postings"] = int(part_report["n_postings"].sum())

    files = sorted(glob.glob(os.path.join(index_dir, "docmap", "*.parquet")))
    if files:
        dm = (
            rd.from_items([{"path": p} for p in files])
            .map_batches(
                _verify_docmap_file,
                fn_kwargs={"include_ids": m.n_docs <= unique_ids_threshold},
                batch_size=1,
                batch_format="numpy",
            )
            .to_pandas()
        )
        for e in dm["errors"]:
            if e:
                errors.extend(e.split("\n"))
        if int(dm["n_rows"].sum()) != m.n_docs:
            errors.append(
                f"docmap deep row count {int(dm['n_rows'].sum())} "
                f"!= manifest.n_docs {m.n_docs}"
            )
        if int(dm["dl_sum"].sum()) != m.total_doc_len:
            errors.append(
                f"docmap doc_len sum {int(dm['dl_sum'].sum())} "
                f"!= manifest.total_doc_len {m.total_doc_len}"
            )
        if m.n_docs <= unique_ids_threshold:
            allu = np.concatenate(
                [np.frombuffer(b, dtype=np.uint64) for b in dm["ids"]]
            )
            if len(np.unique(allu)) != len(allu):
                errors.append("duplicate doc_ids across docmap files")
        else:
            # distributed regime: duplicate detection via groupby count
            from ray.data.aggregate import Count

            dups = (
                rd.read_parquet(files, columns=["doc_id"])
                .groupby("doc_id")
                .aggregate(Count(alias_name="n"))
                .filter(lambda r: r["n"] > 1)
                .count()
            )
            if dups:
                errors.append(f"{dups} duplicate doc_ids across docmap files")
    return {"ok": not errors, "errors": errors, "stats": stats}
