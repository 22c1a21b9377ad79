"""Incremental re-index support — the distributed analogue of the
reference's mtime skip predicate `doc_index_is_expired` (lib.rs:210-224,
used at lib.rs:251-256; SURVEY.md A5).

The reference re-indexes a file iff it was modified more recently than it
was indexed, mutating the index in place (and double-counting df across
segments — quirk Q6, consciously excluded).  Our model keeps index builds
immutable: `filter_expired` computes the subset of pages that NEED indexing
against a prior index's docmap, and the caller builds a fresh (delta) index
over just that subset.  The freshness key is `(url, warc_ts)`: a page is
expired iff its url is absent from the docmap OR its warc_ts is newer than
the indexed one — warc_ts plays the reference's mtime role with none of its
wall-clock raciness (`indexed_at` vs `elapsed_since_modified`).

Scale paths:
  * hash-join (default): `Dataset.join(left_outer)` on url — both sides
    shuffle once on the same key; right for docmaps too big to broadcast.
  * broadcast: the docmap's (url -> warc_ts) dict is `ray.put` ONCE and read
    by every filter task — right when the prior docmap fits in worker memory
    (`ray_guide`: broadcast small sides instead of shuffling the big one).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc


def _docmap_ds(prior_index_dir: str):
    import glob as _glob

    import ray.data as rd

    # explicit *.parquet list: the docmap dir also holds per-fragment
    # stats sidecars (*.meta.json) a dir-level read would choke on
    files = sorted(_glob.glob(os.path.join(prior_index_dir, "docmap", "*.parquet")))
    return rd.read_parquet(files, columns=["url", "warc_ts"])


def filter_expired(
    pages_ds,
    prior_index_dir: str,
    method: str = "join",
    num_partitions: int | None = None,
):
    """Pages that need (re-)indexing: url unseen, or warc_ts newer than the
    indexed warc_ts.  Returns a Dataset with the pages schema."""
    if method == "broadcast":
        return _filter_broadcast(pages_ds, prior_index_dir)
    if num_partitions is None:
        from indexer_ray.stages.shuffle import join_parts

        num_partitions = join_parts()
    docmap = _docmap_ds(prior_index_dir)
    joined = pages_ds.join(
        docmap,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("url",),
        right_suffix="_indexed",
    )

    def _expired(batch: pa.Table) -> pa.Table:
        indexed_ts = batch.column("warc_ts_indexed")
        fresh = pc.or_kleene(
            pc.is_null(indexed_ts), pc.greater(batch.column("warc_ts"), indexed_ts)
        )
        out = batch.filter(pc.fill_null(fresh, True))
        return out.drop_columns(["warc_ts_indexed"])

    return joined.map_batches(_expired, batch_format="pyarrow")


def _filter_broadcast(pages_ds, prior_index_dir: str):
    import ray

    t = _docmap_ds(prior_index_dir).to_arrow_refs()
    tables = [pa.Table.from_batches(x.to_batches()) if not isinstance(x, pa.Table) else x for x in ray.get(t)]
    merged = pa.concat_tables(tables) if tables else None
    lookup: dict[str, int] = {}
    if merged is not None and merged.num_rows:
        urls = merged.column("url").to_pylist()
        tss = merged.column("warc_ts").cast(pa.int64()).to_pylist()
        lookup = dict(zip(urls, tss))
    lookup_ref = ray.put(lookup)

    class _Filter:
        def __init__(self, ref):
            self.lookup = ray.get(ref)  # one fetch per actor, zero per batch

        def __call__(self, batch: pa.Table) -> pa.Table:
            urls = batch.column("url").to_pylist()
            ts = batch.column("warc_ts").cast(pa.int64()).to_pylist()
            lk = self.lookup
            mask = [lk.get(u) is None or t > lk[u] for u, t in zip(urls, ts)]
            return batch.filter(pa.array(mask, type=pa.bool_()))

    return pages_ds.map_batches(
        _Filter,
        fn_constructor_args=(lookup_ref,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    )


def build_delta_index(
    paths,
    prior_index_dir: str,
    delta_index_dir: str,
    config=None,
    method: str = "broadcast",
    resume: bool = False,
):
    """Build a fresh index over only the pages `filter_expired` keeps.

    Materializes the expired subset to parquet first (the build pipeline's
    resume/lineage contract is per input file), then runs the normal build.
    Returns (manifest, n_expired).

    Re-runnable: the subset lives in a SIBLING dir of the index (a fresh
    build_index wipes delta_index_dir — the subset must survive that) and
    is cleared before each non-resume write so a rerun can't append
    duplicate files.  ``resume=True`` flows through to build_index's
    checkpoint contract, reusing both the already-written subset and any
    completed encode partitions."""
    import glob as _glob

    from indexer_ray.pipelines.build import build_index

    if isinstance(paths, str):
        paths = (
            sorted(_glob.glob(os.path.join(paths, "*.parquet")))
            if os.path.isdir(paths)
            else [paths]
        )
    import pyarrow.parquet as pq
    import ray.data as rd

    subset_dir = delta_index_dir.rstrip("/") + "_input"
    marker = os.path.join(subset_dir, "_SUBSET_COMPLETE")
    import shutil

    # resume only trusts a COMPLETE subset: a crash mid-write leaves
    # parquet fragments but no marker, and building over a partial subset
    # silently drops documents
    if resume and os.path.exists(marker):
        pass  # reuse the checkpointed subset (rewriting would shift ids)
    else:
        shutil.rmtree(subset_dir, ignore_errors=True)
        pages = rd.read_parquet(paths)
        expired = filter_expired(pages, prior_index_dir, method=method)
        expired.write_parquet(subset_dir)
        os.makedirs(subset_dir, exist_ok=True)  # 0-row write creates no dir
        with open(marker, "w") as f:
            f.write("ok")
    files = sorted(_glob.glob(os.path.join(subset_dir, "*.parquet")))
    # count from the written files' metadata (no second pass over data)
    n = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    if n == 0:
        return None, 0
    manifest = build_index(files, delta_index_dir, config, resume=resume)
    return manifest, n
