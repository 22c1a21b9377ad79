"""Deduplication family over a documents table (doc_id, text, ...).

Large-scale training-data operators, Ray-Data-first (the reference engine has
only exact path-keyed identity, SURVEY.md §2.7/A4):

  * exact_duplicates    — content-hash partition + per-group first-wins
  * minhash_lsh_pairs   — shingle -> minhash -> banded LSH buckets ->
                          candidate pairs -> exact Jaccard verification
  * simhash_pairs       — 64-bit simhash, 4x16-bit band blocking, Hamming
                          verification
  * embedding_dup_pairs — multi-table random-hyperplane LSH over an
                          embedding column, cosine verification (brute
                          mode for small inputs)
  * winnow_dup_pairs    — winnowing fingerprints (Schleimer et al. 2003):
                          substring-overlap detection — any shared token
                          run >= w+k-1 yields a shared fingerprint

Shuffle discipline: every operator pre-reduces inside `map_batches` (one
signature/hash row per doc) before its single groupby; candidate pair sets
are verified AFTER blocking, so the quadratic step only ever runs inside a
bucket.  Buckets larger than `max_bucket` contribute no pairs and are
reported in a `truncated` counter row instead of silently exploding
(no-silent-caps rule).

Two API layers per family:
  * `*_pairs_ds` (minhash_pairs_ds / simhash_pairs_ds / winnow_pairs_ds /
    embedding_pairs_ds) — Dataset-returning: pair dedup and truncation
    counters are distributed groupbys, verification routes candidate-doc
    state via a broadcast dict only below BROADCAST_PAIRS_THRESHOLD pairs
    and via a distributed hash JOIN above it, and the pair set NEVER
    materializes on the driver.  At 100 TB (~10^9-10^10 near-dup pairs)
    this is the only usable layer: `minhash_pairs_ds(ds).write_parquet(p)`.
  * the historical pandas wrappers (minhash_lsh_pairs / simhash_pairs /
    winnow_dup_pairs / embedding_dup_pairs) — `.to_pandas()` convenience
    over the same distributed pipeline for driver-sized outputs.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from indexer_ray.conformance.lexer import tokenize_plain
from indexer_ray.stages.shuffle import (
    driver_table,
    join_parts,
    route_parts,
    routed_reduce,
)

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_MERSENNE = np.uint64((1 << 61) - 1)


def _hash64_bytes(b: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "big")


# ------------------------------------------------------------ exact dedup


def _content_hash_batch(batch: pa.Table, key: str) -> pa.Table:
    # 128-bit digest as two int64 columns: a 64-bit key has ~N^2/2^65
    # expected birthday collisions (~10^4 silent false merges at 10^12
    # docs); 128 bits pushes that to ~10^-15.  Signed int64 halves (not
    # uint64): keys above 2^63 force Ray's groupby key handling into a
    # pickled-object fallback path.
    his, los = [], []
    for v in batch.column(key).to_pylist():
        d = hashlib.blake2b((v or "").encode("utf-8"), digest_size=16).digest()
        his.append(int.from_bytes(d[:8], "big", signed=True))
        los.append(int.from_bytes(d[8:], "big", signed=True))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "hash_hi": pa.array(his, type=pa.int64()),
            "hash_lo": pa.array(los, type=pa.int64()),
        }
    )


def exact_duplicates(ds, key: str = "text"):
    """(keep_doc_id, dup_count) per distinct content: hash-partition the
    128-bit content hash, keep the smallest doc_id per group (first-wins,
    deterministic).  Returns one row per distinct content value."""
    from ray.data.aggregate import Count, Min

    hashed = ds.map_batches(
        lambda b: _content_hash_batch(b, key), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=4096
    )
    return hashed.groupby(["hash_hi", "hash_lo"]).aggregate(
        Min("doc_id", alias_name="keep_doc_id"), Count(alias_name="dup_count")
    )


# ------------------------------------------------------------ minhash LSH


_TOKEN_HASH_CACHE: dict[str, int] = {}
_SHINGLE_B = np.uint64(1099511628211)


def _token_hashes(tokens: list[str]) -> np.ndarray:
    """uint64 hash per token; Zipfian vocab -> high cache hit rate."""
    cache = _TOKEN_HASH_CACHE
    out = np.empty(len(tokens), dtype=np.uint64)
    for i, t in enumerate(tokens):
        h = cache.get(t)
        if h is None:
            h = _hash64_bytes(t.encode())
            if len(cache) < 4_000_000:
                cache[t] = h
        out[i] = h
    return out


def _kgram_hashes(tokens: list[str], k: int) -> np.ndarray:
    """POSITIONAL uint64 k-gram hashes (vectorized rolling polynomial over
    per-token hashes: k vector ops per doc, no per-shingle hashing)."""
    n = len(tokens)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    th = _token_hashes(tokens)
    if n < k:
        k = n
    with np.errstate(over="ignore"):
        acc = np.zeros(n - k + 1, dtype=np.uint64)
        for j in range(k):
            acc = (acc * _SHINGLE_B + th[j : n - k + 1 + j]) & _M64
    return acc


def _shingles(tokens: list[str], k: int) -> np.ndarray:
    """Sorted unique uint64 k-shingle hashes."""
    return np.unique(_kgram_hashes(tokens, k))


def _winnow(kgrams: np.ndarray, w: int) -> np.ndarray:
    """Winnowing fingerprint selection (Schleimer, Wilkerson & Aiken 2003,
    published algorithm): the minimum k-gram hash of every window of w
    consecutive k-grams, deduplicated.  Guarantees every run of w k-grams
    contributes at least one fingerprint, so any shared substring of
    length >= w+k-1 tokens yields at least one shared fingerprint."""
    n = len(kgrams)
    if n == 0:
        return kgrams
    if n <= w:
        return np.unique(kgrams.min(keepdims=True))
    wins = np.lib.stride_tricks.sliding_window_view(kgrams, w)
    return np.unique(wins.min(axis=1))


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (bit-parallel via unpackbits
    on the byte view — replaces the per-pair Python bin().count loop)."""
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    return (
        np.unpackbits(np.ascontiguousarray(x).view(np.uint8))
        .reshape(len(x), 64)
        .sum(axis=1)
        .astype(np.int64)
    )


class MinHashStage:
    """Per-doc minhash signature + banded emission (actor pool: permutation
    coefficients generated once per actor from the fixed seed)."""

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_k: int = 3, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.num_perm, self.bands = num_perm, bands
        self.rows = num_perm // bands
        self.shingle_k = shingle_k

    def signature(self, text: str) -> np.ndarray | None:
        x = _shingles(tokenize_plain(text or ""), self.shingle_k)
        if not len(x):
            return None
        with np.errstate(over="ignore"):
            # (a*x + b) mod 2^61-1, vectorized over (perm, shingle)
            prod = (self.a[:, None] * x[None, :] + self.b[:, None]) & _M64
            vals = (prod >> np.uint64(3)) % _MERSENNE
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, sigs = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            sig = self.signature(text)
            if sig is None:
                continue
            doc_ids.append(doc_id)
            sigs.append(sig)
        n = len(doc_ids)
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "band": pa.array([], type=pa.int32()),
                    "band_hash": pa.array([], type=pa.uint64()),
                }
            )
        # band hashing vectorized across the whole batch: a polynomial roll
        # over each band's `rows` signature values (equal band-slices still
        # collide identically — the LSH property — without the round-1
        # bands-per-doc Python loop of blake2b calls)
        S = np.stack(sigs)  # (n, num_perm) uint64
        bh = np.zeros((n, self.bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for band in range(self.bands):
                acc = np.zeros(n, dtype=np.uint64)
                for j in range(self.rows):
                    acc = acc * _SHINGLE_B + S[:, band * self.rows + j]
                bh[:, band] = acc
        return pa.table(
            {
                "doc_id": pa.array(
                    np.repeat(np.asarray(doc_ids, dtype=np.int64), self.bands),
                    type=pa.int64(),
                ),
                "band": pa.array(
                    np.tile(np.arange(self.bands, dtype=np.int32), n), type=pa.int32()
                ),
                "band_hash": pa.array(bh.ravel(), type=pa.uint64()),
            }
        )


_PAIR_PARTITIONS = 64
#: LSH bucket identity: one reduce partition holds whole (band, hash) buckets
_BUCKET_KEY = ["band", "band_hash"]


def _adaptive_pair_parts(ds, n_parts: int | None) -> int:
    """Pair-partition count for the bucket-routing shuffles: tracks corpus
    size, the same principle as the build's `_auto_partitions` — shuffle
    width should scale with data volume, and a 64-way shuffle of a 5k-doc
    corpus pays 64 blocks of fixed per-task scheduling for no parallelism
    win (measured ~1-1.5 s per groupby at toy scale).  An explicit
    `n_parts` always wins; None derives the width from `ds.count()`, which
    is metadata-only for parquet / in-memory sources — pass `n_parts`
    explicitly for already-transformed inputs to avoid an extra execution."""
    if n_parts is not None:
        return n_parts
    try:
        n = ds.count()
    except Exception:
        return _PAIR_PARTITIONS
    return int(np.clip(n // 256, 8, _PAIR_PARTITIONS))


def _bucket_pairs_in_part(g: pd.DataFrame, max_bucket: int) -> pd.DataFrame:
    """All candidate pairs from every bucket in one partition, vectorized:
    sort by (band, band_hash, doc_id), find bucket boundaries with diff, and
    emit triangular pairs only for the (rare) buckets of size >= 2."""
    g = g.sort_values(["band", "band_hash", "doc_id"]).drop_duplicates(
        ["band", "band_hash", "doc_id"]
    )
    band = g["band"].to_numpy()
    bh = g["band_hash"].to_numpy()
    ids = g["doc_id"].to_numpy()
    n = len(ids)
    if n == 0:
        return pd.DataFrame(
            {
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "truncated": pd.Series([], dtype="int64"),
            }
        )
    starts = np.flatnonzero(np.r_[True, (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])])
    ends = np.r_[starts[1:], n]
    out_a, out_b, truncated = [], [], []
    for s, e in zip(starts, ends):
        size = e - s
        if size < 2:
            continue
        if size > max_bucket:
            truncated.append(int(size))
            continue
        ia, ib = np.triu_indices(size, k=1)
        out_a.append(ids[s:e][ia])
        out_b.append(ids[s:e][ib])
    doc_a = np.concatenate(out_a) if out_a else np.empty(0, dtype=np.int64)
    doc_b = np.concatenate(out_b) if out_b else np.empty(0, dtype=np.int64)
    res = pd.DataFrame(
        {
            "doc_a": doc_a.astype("int64"),
            "doc_b": doc_b.astype("int64"),
            "truncated": np.zeros(len(doc_a), dtype="int64"),
        }
    )
    if truncated:
        res = pd.concat(
            [res, pd.DataFrame({"doc_a": [-1] * len(truncated), "doc_b": [-1] * len(truncated), "truncated": truncated})],
            ignore_index=True,
        )
    return res


def _jaccard_for_pairs(
    sh: dict[int, np.ndarray], a_ids: np.ndarray, b_ids: np.ndarray
) -> pd.DataFrame:
    """Exact shingle-set Jaccard for (a_ids[i], b_ids[i]) given a doc_id ->
    sorted-unique-shingles dict; docs absent from the dict score 0."""
    empty = np.empty(0, dtype=np.uint64)
    jac = np.empty(len(a_ids), dtype=np.float64)
    for i, (a, b) in enumerate(zip(a_ids, b_ids)):
        sa, sb = sh.get(int(a), empty), sh.get(int(b), empty)
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        union = len(sa) + len(sb) - inter
        jac[i] = inter / union if union else 0.0
    return pd.DataFrame(
        {
            "doc_a": a_ids.astype("int64"),
            "doc_b": b_ids.astype("int64"),
            "jaccard": jac,
        }
    )


_EMPTY_JACCARD_TABLE = pa.table(
    {
        "doc_a": pa.array([], type=pa.int64()),
        "doc_b": pa.array([], type=pa.int64()),
        "jaccard": pa.array([], type=pa.float64()),
    }
)


def _pairwise_jaccard_broadcast_ds(
    ds, pairs: pd.DataFrame, shingle_k: int, n_parts: int = _PAIR_PARTITIONS
):
    """Broadcast-routed exact-Jaccard verify, with NO driver-side corpus
    iteration: the corpus STREAMS through a shingle stage that drops every
    non-candidate doc (candidate-id routing table broadcast once via
    ray.put), each surviving doc's shingle set is routed to every
    pair-partition that references it, and one vectorized verify pass runs
    per partition.  Driver-side state is only the candidate pair list —
    callers bound its size (`broadcast_pairs_threshold`); above that bound
    use `_pairwise_jaccard_join_ds`, which routes via a distributed join.

    Returns a DATASET of (doc_a, doc_b, jaccard) covering every input pair.
    """
    import ray
    import ray.data as rd

    if pairs.empty:
        return rd.from_arrow(_EMPTY_JACCARD_TABLE)
    pairs = pairs[["doc_a", "doc_b"]].drop_duplicates().reset_index(drop=True)
    # partition count tracks the pair count (>=64 pairs per part target):
    # tiny candidate sets shouldn't pay a 64-way shuffle's scheduling toll
    n_parts = int(np.clip(len(pairs) // 64, 4, n_parts))
    part_of_pair = (
        (pairs["doc_a"].to_numpy(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        ^ pairs["doc_b"].to_numpy(np.uint64)
    ) % np.uint64(n_parts)
    pairs_by_part: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    doc_parts: dict[int, list[int]] = {}
    for p in np.unique(part_of_pair):
        sel = part_of_pair == p
        a = pairs["doc_a"].to_numpy()[sel]
        b = pairs["doc_b"].to_numpy()[sel]
        pairs_by_part[int(p)] = (a, b)
        for d in np.unique(np.concatenate([a, b])):
            doc_parts.setdefault(int(d), []).append(int(p))
    doc_parts_ref = ray.put(doc_parts)
    pairs_ref = ray.put(pairs_by_part)

    def _shingle_stage(batch: pa.Table) -> pa.Table:
        # stateless TASK (not an actor pool: pool startup costs ~0.5 s the
        # broadcast regime can't amortize); ray.get of the broadcast dict is
        # a shared-memory hit after the first task on each worker process
        doc_parts_local = ray.get(doc_parts_ref)
        out_part, out_doc, out_sh = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            parts = doc_parts_local.get(doc_id)
            if not parts:
                continue
            sh = _shingles(tokenize_plain(text or ""), shingle_k)
            for p in parts:
                out_part.append(p)
                out_doc.append(doc_id)
                out_sh.append(sh)
        return pa.table(
            {
                "part": pa.array(out_part, type=pa.int32()),
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "shingles": pa.array(
                    [s.tolist() for s in out_sh], type=pa.list_(pa.uint64())
                ),
            }
        )

    def verify_part(g: pd.DataFrame) -> pd.DataFrame:
        part = int(g["part"].iloc[0])
        a_ids, b_ids = ray.get(pairs_ref)[part]
        sh = {
            int(d): np.asarray(s, dtype=np.uint64)
            for d, s in zip(g["doc_id"], g["shingles"])
        }
        return _jaccard_for_pairs(sh, a_ids, b_ids)

    import ray.data as rd

    # seed one sentinel row per pair partition: a partition whose candidate
    # docs are ALL absent from the corpus would otherwise never form a
    # group and its pairs would vanish instead of scoring jaccard=0 (the
    # join path emits them; the two regimes must be output-equivalent)
    seed = rd.from_arrow(
        pa.table(
            {
                "part": pa.array(sorted(pairs_by_part), type=pa.int32()),
                "doc_id": pa.array([-1] * len(pairs_by_part), type=pa.int64()),
                "shingles": pa.array([[]] * len(pairs_by_part), type=pa.list_(pa.uint64())),
            }
        )
    )
    return (
        ds.map_batches(
            _shingle_stage,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=2048,
        )
        .union(seed)
        .groupby("part")
        .map_groups(verify_part, batch_format="pandas")
    )


def _pairwise_jaccard_distributed(
    ds, pairs: pd.DataFrame, shingle_k: int, n_parts: int = _PAIR_PARTITIONS
) -> pd.DataFrame:
    """Pandas-in/pandas-out verify (callers that already hold a bounded
    candidate frame, e.g. `ngram_jaccard_pairs(pairs=...)`)."""
    if pairs.empty:
        return pairs.assign(jaccard=pd.Series([], dtype="float64"))
    return _pairwise_jaccard_broadcast_ds(ds, pairs, shingle_k, n_parts).to_pandas()


def _pairwise_jaccard_join_ds(
    ds, pairs_ds, shingle_k: int, n_parts: int = _PAIR_PARTITIONS
):
    """Fully distributed exact-Jaccard verify: the candidate pair set NEVER
    touches the driver.  Routing is a distributed hash join instead of a
    broadcast dict:

      pair rows     : part = hash(doc_a, doc_b) % n_parts
      needed        : distinct (doc_id, part) references (distributed dedup,
                      so a doc in many pairs ships its text <= n_parts times)
      corpus ⋈ needed on doc_id (Ray hash join) -> (doc_id, text, part)
      shingle stage -> (part, doc_id, shingles), only for candidate docs
      union(pair rows, shingle rows) -> groupby(part) -> vectorized verify

    Returns a DATASET of (doc_a, doc_b, jaccard) covering every input pair.
    """
    from ray.data.aggregate import Count

    # hash-join aggregators are ACTORS, one per partition, each holding a
    # CPU slot: cap join partitions at half the cluster's CPUs or the map
    # tasks starve (observed deadlock at 64 partitions on a 4-cpu node)
    jp = max(2, min(n_parts, join_parts()))
    shingle_list = pa.list_(pa.uint64())

    def _pair_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "part": pa.array(route_parts(batch, ["doc_a", "doc_b"], n_parts)),
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "doc_id": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "shingles": pa.array([[]] * n, type=shingle_list),
            }
        )

    pair_rows = pairs_ds.map_batches(
        _pair_rows, batch_format="pyarrow", zero_copy_batch=True
    )

    def _doc_refs(batch: pa.Table) -> pa.Table:
        part = batch.column("part").combine_chunks()
        return pa.table(
            {
                "doc_id": pa.concat_arrays(
                    [
                        batch.column("doc_a").combine_chunks(),
                        batch.column("doc_b").combine_chunks(),
                    ]
                ),
                "part": pa.concat_arrays([part, part]),
            }
        )

    needed = (
        pair_rows.map_batches(_doc_refs, batch_format="pyarrow")
        .groupby(["doc_id", "part"])
        .aggregate(Count(alias_name="_c"))
        .select_columns(["doc_id", "part"])
    )
    joined = ds.select_columns(["doc_id", "text"]).join(
        needed, "inner", jp, on=("doc_id",)
    )

    def _shingle_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        parts = batch.column("part").to_pylist()
        sh = [
            _shingles(tokenize_plain(t or ""), shingle_k).tolist()
            for t in batch.column("text").to_pylist()
        ]
        n = len(ids)
        return pa.table(
            {
                "part": pa.array(parts, type=pa.int32()),
                "doc_a": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "doc_b": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "doc_id": pa.array(ids, type=pa.int64()),
                "shingles": pa.array(sh, type=shingle_list),
            }
        )

    shingle_rows = joined.map_batches(
        _shingle_rows, batch_format="pyarrow", batch_size=2048
    )

    def _verify_joined(g: pd.DataFrame) -> pd.DataFrame:
        docs = g[g["doc_id"] >= 0]
        sh = {
            int(d): np.asarray(s, dtype=np.uint64)
            for d, s in zip(docs["doc_id"], docs["shingles"])
        }
        prs = g[g["doc_id"] < 0]
        return _jaccard_for_pairs(
            sh,
            prs["doc_a"].to_numpy(dtype=np.int64),
            prs["doc_b"].to_numpy(dtype=np.int64),
        )

    return (
        pair_rows.union(shingle_rows)
        .groupby("part")
        .map_groups(_verify_joined, batch_format="pandas")
    )


#: Above this many candidate pairs, verify routing switches from the
#: broadcast-dict fast path (driver holds the pair list) to the fully
#: distributed join path (driver holds nothing).
BROADCAST_PAIRS_THRESHOLD = 100_000


def _pairwise_jaccard_ds(
    ds,
    pairs_ds,
    shingle_k: int,
    n_parts: int = _PAIR_PARTITIONS,
    broadcast_threshold: int = BROADCAST_PAIRS_THRESHOLD,
):
    """Dataset-in/Dataset-out verify: broadcast routing below
    `broadcast_threshold` pairs (cheap at toy scale), distributed-join
    routing above it (no driver-side pair materialization)."""
    import ray.data as rd

    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return rd.from_arrow(_EMPTY_JACCARD_TABLE)
    if n_pairs <= broadcast_threshold:
        return _pairwise_jaccard_broadcast_ds(
            ds, pairs_ds.to_pandas(), shingle_k, n_parts
        )
    return _pairwise_jaccard_join_ds(ds, pairs_ds, shingle_k, n_parts)


def _dedup_pairs_regime(
    raw,
    keys: list[str],
    agg_specs,
    pandas_agg,
    empty_tbl: pa.Table,
    threshold: int = BROADCAST_PAIRS_THRESHOLD,
):
    """Cross-partition pair dedup with a size regime: the raw pair rows are
    materialized (object-store blocks, never the driver heap) and counted
    (metadata-only).  Above `threshold` rows the dedup is a DISTRIBUTED
    groupby — pairs never touch the driver; below it, one driver-side
    pandas aggregation replaces a whole shuffle stage (a sort-shuffle of a
    ~250-row pair set measures ~1.6 s of pure fixed task scheduling).
    Returns a materialized/in-memory Dataset either way, so downstream
    count()/to_pandas()/map_batches never re-execute the upstream chain."""
    import ray.data as rd

    raw = raw.materialize()
    if raw.count() > threshold:
        return raw.groupby(keys).aggregate(*agg_specs).materialize()
    df = raw.to_pandas()
    if df.empty:
        return rd.from_arrow(empty_tbl)
    out = pandas_agg(df)[empty_tbl.column_names]
    return rd.from_arrow(
        pa.Table.from_pandas(out, preserve_index=False).cast(empty_tbl.schema)
    )


def _split_by_truncated(t: pa.Table, counters: bool) -> pa.Table:
    """Vectorized split of a pair table into real rows / counter rows."""
    import pyarrow.compute as pc

    col = t.column("truncated")
    return t.filter(pc.greater(col, 0) if counters else pc.equal(col, 0))


def _as_pair_output(t: pa.Table, value_col: str, keep_mask=None) -> pa.Table:
    """Canonical pair-output layout (doc_a, doc_b, <value_col>, truncated)."""
    if keep_mask is not None:
        t = t.filter(keep_mask)
    cols = {"doc_a": t.column("doc_a"), "doc_b": t.column("doc_b")}
    if value_col in t.column_names:
        cols[value_col] = t.column(value_col)
    else:
        cols[value_col] = pa.array(np.full(len(t), np.nan), type=pa.float64())
    if "truncated" in t.column_names:
        cols["truncated"] = t.column("truncated")
    else:
        cols["truncated"] = pa.array(np.zeros(len(t), dtype=np.int64), type=pa.int64())
    return pa.table(cols)


def minhash_pairs_ds(
    ds,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    jaccard_threshold: float = 0.5,
    max_bucket: int = 2000,
    verify: bool = True,
    broadcast_pairs_threshold: int = BROADCAST_PAIRS_THRESHOLD,
    n_parts: int | None = None,
):
    """Dataset-returning MinHash + banded-LSH near-duplicate pairs.
    Above `broadcast_pairs_threshold` candidates the pair set NEVER
    touches the driver (dedup, split and verify all distributed); below
    it the driver holds at most `broadcast_pairs_threshold` rows — the
    bounded regime — to skip shuffle stages toy scale can't amortize.
    Consume with write_parquet / iter_batches / count, or `.to_pandas()`
    when the caller knows the output is small (`minhash_lsh_pairs` is
    that convenience wrapper).

    Output columns (doc_a, doc_b, jaccard, truncated):
      * real pairs — doc_a < doc_b, truncated == 0, jaccard = exact
        shingle-set Jaccard >= `jaccard_threshold` (NaN when verify=False);
      * counter row — doc_a == doc_b == -1, truncated = total banded-bucket
        rows covered by oversized skipped buckets (no-silent-caps; absent
        when nothing was truncated).

    Cross-band pair dedup is a distributed groupby; verification routes doc
    shingles to pair partitions via a broadcast dict only while the
    candidate count is <= `broadcast_pairs_threshold`, else via a
    distributed hash join (`_pairwise_jaccard_join_ds`)."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    P = _adaptive_pair_parts(ds, n_parts)
    sigs = ds.map_batches(
        MinHashStage,
        fn_constructor_args=(num_perm, bands, shingle_k),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=2048,
        concurrency=(1, 8),
    )
    # (doc_a, doc_b, truncated): deduped across bands — distributed groupby
    # above the threshold, one driver pandas pass below it (regime helper)
    raw_pairs = routed_reduce(
        sigs, _BUCKET_KEY, P, lambda g: _bucket_pairs_in_part(g, max_bucket)
    )
    cand = _dedup_pairs_regime(
        raw_pairs,
        ["doc_a", "doc_b"],
        [Sum("truncated", alias_name="truncated")],
        lambda df: df.groupby(["doc_a", "doc_b"], as_index=False)["truncated"].sum(),
        pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "truncated": pa.array([], type=pa.int64()),
            }
        ),
        threshold=broadcast_pairs_threshold,
    )
    n_cand = cand.count()  # metadata-only on a materialized dataset
    if n_cand > broadcast_pairs_threshold:
        # distributed regime: splits stay Dataset-side, verify routes via
        # the hash join — the driver never holds a pair row
        counters = cand.map_batches(
            lambda t: _as_pair_output(_split_by_truncated(t, True), "jaccard"),
            batch_format="pyarrow",
        )
        real = cand.map_batches(
            lambda t: _split_by_truncated(t, False), batch_format="pyarrow"
        )
        if not verify:
            out = real.map_batches(
                lambda t: _as_pair_output(t, "jaccard"), batch_format="pyarrow"
            )
            return out.union(counters)
        ver = _pairwise_jaccard_join_ds(
            ds, real.select_columns(["doc_a", "doc_b"]), shingle_k
        )
        out = ver.map_batches(
            lambda t: _as_pair_output(
                t, "jaccard", pc.greater_equal(t.column("jaccard"), jaccard_threshold)
            ),
            batch_format="pyarrow",
        )
        return out.union(counters)
    # broadcast regime: the candidate set is driver-sized BY DEFINITION
    # (<= broadcast_pairs_threshold rows), so split counters/real on the
    # driver in one fetch instead of re-executing filter stages per branch
    cand_df = cand.to_pandas()
    if cand_df.empty:
        return rd.from_arrow(_as_pair_output(_EMPTY_JACCARD_TABLE, "jaccard"))
    counters_df = cand_df[cand_df["truncated"] > 0]
    real_df = cand_df[cand_df["truncated"] == 0][["doc_a", "doc_b"]]
    counters_tbl = pa.table(
        {
            "doc_a": pa.array(counters_df["doc_a"], type=pa.int64()),
            "doc_b": pa.array(counters_df["doc_b"], type=pa.int64()),
            "jaccard": pa.array(np.full(len(counters_df), np.nan), type=pa.float64()),
            "truncated": pa.array(counters_df["truncated"], type=pa.int64()),
        }
    )
    if verify and not real_df.empty:
        ver = _pairwise_jaccard_broadcast_ds(ds, real_df, shingle_k)
        out = ver.map_batches(
            lambda t: _as_pair_output(
                t, "jaccard", pc.greater_equal(t.column("jaccard"), jaccard_threshold)
            ),
            batch_format="pyarrow",
        )
    else:
        out = rd.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array(real_df["doc_a"], type=pa.int64()),
                    "doc_b": pa.array(real_df["doc_b"], type=pa.int64()),
                    "jaccard": pa.array(np.full(len(real_df), np.nan), type=pa.float64()),
                    "truncated": pa.array(np.zeros(len(real_df), dtype=np.int64)),
                }
            )
        )
    return out.union(rd.from_arrow(counters_tbl)) if len(counters_tbl) else out


def _pairs_ds_to_pandas(
    out_ds, value_col: str, warn_tag: str, value_dtype: str = "float64"
) -> pd.DataFrame:
    """Shared wrapper tail: collect a pair Dataset, surface the truncation
    counter as the historical WARNING print, drop counter rows, sort."""
    out = out_ds.to_pandas()
    if out.empty:
        return pd.DataFrame(
            {"doc_a": [], "doc_b": [], value_col: []}
        ).astype({"doc_a": "int64", "doc_b": "int64", value_col: value_dtype})
    truncated = int(out.loc[out["truncated"] > 0, "truncated"].sum())
    if truncated:
        print(
            f"[{warn_tag}] WARNING: skipped buckets covering {truncated} docs (> max_bucket)"
        )
    pairs = out[out["truncated"] == 0][["doc_a", "doc_b", value_col]]
    return pairs.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def minhash_lsh_pairs(
    ds,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    jaccard_threshold: float = 0.5,
    max_bucket: int = 2000,
    verify: bool = True,
    n_parts: int | None = None,
):
    """Near-duplicate pairs via MinHash + banded LSH, as a pandas DataFrame
    (doc_a, doc_b, jaccard) with doc_a < doc_b — a driver-side convenience
    wrapper over `minhash_pairs_ds` for corpora whose pair set fits in
    driver memory; at scale call `minhash_pairs_ds` and write to parquet.
    Pass `n_parts` explicitly for already-transformed input datasets (the
    adaptive width otherwise derives it from ds.count(), which re-executes
    a transformed chain)."""
    return _pairs_ds_to_pandas(
        minhash_pairs_ds(
            ds,
            num_perm=num_perm,
            bands=bands,
            shingle_k=shingle_k,
            jaccard_threshold=jaccard_threshold,
            max_bucket=max_bucket,
            verify=verify,
            n_parts=n_parts,
        ),
        "jaccard",
        "minhash_lsh_pairs",
        value_dtype="float64",
    )


def ngram_jaccard_pairs(
    ds,
    pairs=None,
    shingle_k: int = 3,
    threshold: float = 0.0,
    max_bucket: int = 2000,
) -> pd.DataFrame:
    """Exact n-gram (k-shingle) Jaccard for given candidate pairs — or, when
    ``pairs`` is None, for MinHash-LSH candidates (blocking first, so the
    quadratic step never touches the full corpus).  ``pairs`` may be a
    pandas frame (driver-sized) or a Ray DATASET of (doc_a, doc_b) — the
    Dataset form routes through `_pairwise_jaccard_ds`, so huge externally-
    computed candidate sets verify without touching the driver.  Output:
    (doc_a, doc_b, jaccard) with jaccard >= threshold."""
    if pairs is None:
        return minhash_lsh_pairs(
            ds, shingle_k=shingle_k, jaccard_threshold=threshold, max_bucket=max_bucket
        )
    if isinstance(pairs, pd.DataFrame):
        out = _pairwise_jaccard_distributed(
            ds, pairs[pairs["doc_a"] >= 0], shingle_k
        )
    else:  # Ray Dataset of candidate pairs: fully distributed routing
        import pyarrow.compute as pc

        def _clean(t: pa.Table) -> pa.Table:
            # the *_pairs_ds output format includes (-1, -1) truncation
            # counter rows — candidates they are not
            t = t.filter(pc.greater_equal(t.column("doc_a"), 0))
            return pa.table({"doc_a": t.column("doc_a"), "doc_b": t.column("doc_b")})

        clean = pairs.map_batches(_clean, batch_format="pyarrow")
        out = _pairwise_jaccard_ds(ds, clean, shingle_k).to_pandas()
        # the join regime verifies the input MULTISET (no dedup stage);
        # this API returns a driver frame, so dedup here for parity with
        # the broadcast regime's internal drop_duplicates
        out = out.drop_duplicates(["doc_a", "doc_b"])
    return out[out["jaccard"] >= threshold].sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# --------------------------------------------------------------- simhash


class SimHashStage:
    """64-bit SimHash over the plain token multiset (tf-weighted)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for text in batch.column("text").to_pylist():
            counts = Counter(tokenize_plain(text or ""))
            if not counts:
                out.append(0)
                continue
            hashes = _token_hashes(list(counts.keys()))
            weights = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
            bits = np.unpackbits(hashes.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
            v = ((bits * 2.0 - 1.0) * weights[:, None]).sum(axis=0)
            sim_bits = (v > 0).astype(np.uint8)
            out.append(int(np.packbits(sim_bits, bitorder="little").view(np.uint64)[0]))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(out, type=pa.uint64()),
            }
        )


def simhash_signatures(ds):
    return ds.map_batches(SimHashStage, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048, concurrency=(1, 8))


def simhash_pairs_ds(
    ds,
    max_hamming: int = 3,
    max_bucket: int = 2000,
    n_parts: int | None = None,
    broadcast_pairs_threshold: int = BROADCAST_PAIRS_THRESHOLD,
):
    """Dataset-returning SimHash near-dup pairs: block on 4x16-bit bands
    (any pair within Hamming<=3 of 64 bits must agree exactly on at least
    one 16-bit quarter, pigeonhole), verify Hamming inside buckets, dedup
    across bands with a DISTRIBUTED groupby — the pair set never collects
    on the driver.

    Output columns (doc_a, doc_b, hamming, truncated): real pairs have
    truncated == 0; the counter row (doc_a == doc_b == -1) carries the
    total docs covered by oversized skipped buckets (no-silent-caps)."""
    from ray.data.aggregate import Min, Sum

    P = _adaptive_pair_parts(ds, n_parts)
    sigs = simhash_signatures(ds)

    def emit_bands(batch: pa.Table) -> pa.Table:
        sh = np.asarray(batch.column("simhash").to_numpy(zero_copy_only=False), dtype=np.uint64)
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
        docs, bands, keys = [], [], []
        for band in range(4):
            part = (sh >> np.uint64(16 * band)) & np.uint64(0xFFFF)
            docs.extend(doc.tolist())
            bands.extend([band] * len(doc))
            keys.extend(part.tolist())
        return pa.table(
            {
                "doc_id": pa.array(docs, type=pa.int64()),
                "band": pa.array(bands, type=pa.int32()),
                "band_hash": pa.array(keys, type=pa.uint64()),
                "simhash": pa.array(np.tile(sh, 4), type=pa.uint64()),
            }
        )

    banded = sigs.map_batches(emit_bands, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["band", "band_hash", "doc_id"]).drop_duplicates(
            ["band", "band_hash", "doc_id"]
        )
        band = g["band"].to_numpy()
        bh = g["band_hash"].to_numpy()
        ids = g["doc_id"].to_numpy()
        hs = g["simhash"].to_numpy(dtype=np.uint64)
        n = len(ids)
        empty = pd.DataFrame(
            {"doc_a": [], "doc_b": [], "hamming": [], "truncated": []}
        ).astype(
            {"doc_a": "int64", "doc_b": "int64", "hamming": "int64", "truncated": "int64"}
        )
        if n == 0:
            return empty
        starts = np.flatnonzero(np.r_[True, (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])])
        ends = np.r_[starts[1:], n]
        frames = []
        truncated = []
        for s, e in zip(starts, ends):
            size = e - s
            if size < 2:
                continue
            if size > max_bucket:
                # no-silent-caps: surface skipped buckets as counter rows
                truncated.append(int(size))
                continue
            ia, ib = np.triu_indices(size, k=1)
            x = hs[s:e][ia] ^ hs[s:e][ib]
            ham = _popcount64(x)
            m = ham <= max_hamming
            if m.any():
                frames.append(
                    pd.DataFrame(
                        {
                            "doc_a": ids[s:e][ia][m].astype("int64"),
                            "doc_b": ids[s:e][ib][m].astype("int64"),
                            "hamming": ham[m].astype("int64"),
                            "truncated": np.zeros(int(m.sum()), dtype="int64"),
                        }
                    )
                )
        if truncated:
            frames.append(
                pd.DataFrame(
                    {
                        "doc_a": [-1] * len(truncated),
                        "doc_b": [-1] * len(truncated),
                        "hamming": [-1] * len(truncated),
                        "truncated": truncated,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else empty

    # cross-band dedup + counter merge: identical pairs found in several
    # bands have identical hamming (Min picks one); counter rows all share
    # the (-1, -1) key and Sum their covered-doc counts.  Distributed
    # groupby above the size threshold, driver pandas pass below it.
    raw_pairs = routed_reduce(banded, _BUCKET_KEY, P, pairs_in_part)
    return _dedup_pairs_regime(
        raw_pairs,
        ["doc_a", "doc_b"],
        [Min("hamming", alias_name="hamming"), Sum("truncated", alias_name="truncated")],
        lambda df: df.groupby(["doc_a", "doc_b"], as_index=False).agg(
            hamming=("hamming", "min"), truncated=("truncated", "sum")
        ),
        pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "hamming": pa.array([], type=pa.int64()),
                "truncated": pa.array([], type=pa.int64()),
            }
        ),
        threshold=broadcast_pairs_threshold,
    )


def simhash_pairs(
    ds, max_hamming: int = 3, max_bucket: int = 2000, n_parts: int | None = None
) -> pd.DataFrame:
    """SimHash near-dup pairs as a pandas DataFrame (doc_a, doc_b, hamming)
    — driver-side convenience wrapper over `simhash_pairs_ds`; at scale
    call the Dataset variant and write to parquet."""
    out = _pairs_ds_to_pandas(
        simhash_pairs_ds(
            ds, max_hamming=max_hamming, max_bucket=max_bucket, n_parts=n_parts
        ),
        "hamming",
        "simhash_pairs",
        value_dtype="int64",
    )
    return out.astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"})


# --------------------------------------------- embedding near-dup / cosine


def embedding_pairs_ds(
    emb_ds,
    cosine_threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 11,
    max_bucket: int = 4000,
    n_tables: int = 4,
    n_parts: int | None = None,
    broadcast_pairs_threshold: int = BROADCAST_PAIRS_THRESHOLD,
):
    """Dataset-returning near-duplicate embedding pairs (vec_a < vec_b,
    cosine >= threshold) — the pair set never collects on the driver.

    Scale path: multi-table random-hyperplane LSH — `n_tables` independent
    hash tables of `n_planes` sign bits each; vectors agreeing on ALL bits
    of ANY table become candidates (recall 1-(1-p^k)^L instead of the
    single-table p^k cliff at the threshold).  (table, bucket) keys are
    hash-ROUTED into `n_parts` partitions — ONE vectorized verify pass per
    partition, the same `routed_reduce` blocking as minhash/simhash/
    winnow, not one map_groups per bucket — then a distributed groupby
    dedups pairs found in several tables.  Each vector emits n_tables rows,
    so the shuffle grows L-fold — the standard LSH recall/cost trade.

    Output columns (vec_a, vec_b, cosine, truncated): real pairs have
    truncated == 0; the counter row (vec_a == vec_b == -1) carries the
    total vectors covered by oversized skipped buckets (no-silent-caps)."""
    from ray.data.aggregate import Max, Sum

    P = _adaptive_pair_parts(emb_ds, n_parts)
    rng = np.random.default_rng(seed)

    class SignStage:
        def __init__(self, planes):
            self.planes = planes  # (n_tables, n_planes, dim) — broadcast once

        def __call__(self, batch: pa.Table) -> pa.Table:
            from indexer_ray.pipelines.ann import _embedding_matrix, _normalize

            Xn = _normalize(_embedding_matrix(batch.column("embedding")))
            n = len(Xn)
            keys = []
            for ti in range(len(self.planes)):
                bits = (Xn @ self.planes[ti].T) > 0
                key = np.full(n, np.uint64(ti) << np.uint64(56), dtype=np.uint64)
                for j in range(bits.shape[1]):
                    key |= bits[:, j].astype(np.uint64) << np.uint64(j)
                keys.append(key)
            return pa.table(
                {
                    "vec_id": pa.array(
                        np.tile(
                            batch.column("vec_id").to_numpy(zero_copy_only=False),
                            len(self.planes),
                        )
                    ),
                    "bucket": pa.array(np.concatenate(keys), type=pa.uint64()),
                    "embedding": pa.concat_arrays(
                        [batch.column("embedding").combine_chunks()] * len(self.planes)
                    ),
                }
            )

    # peek dim from schema/first row
    first = emb_ds.take(1)[0]
    dim = len(first["embedding"])
    planes = rng.standard_normal((n_tables, n_planes, dim))
    bucketed = emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        SignStage,
        fn_constructor_args=(planes,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    )

    def verify_part(g: pd.DataFrame) -> pd.DataFrame:
        """One vectorized pass over ALL buckets routed to this partition:
        sort by (bucket, vec_id), find bucket boundaries, verify cosine
        inside each — vec_a < vec_b holds because ids ascend in-slice."""
        g = g.sort_values(["bucket", "vec_id"]).drop_duplicates(["bucket", "vec_id"])
        bkt = g["bucket"].to_numpy(dtype=np.uint64)
        ids = g["vec_id"].to_numpy()
        n = len(ids)
        empty = pd.DataFrame(
            {"vec_a": [], "vec_b": [], "cosine": [], "truncated": []}
        ).astype(
            {"vec_a": "int64", "vec_b": "int64", "cosine": "float64", "truncated": "int64"}
        )
        if n == 0:
            return empty
        X = np.stack(g["embedding"].to_numpy())
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
        ends = np.r_[starts[1:], n]
        frames, truncated = [], []
        for s, e in zip(starts, ends):
            size = e - s
            if size < 2:
                continue
            if size > max_bucket:
                truncated.append(int(size))
                continue
            sims = Xn[s:e] @ Xn[s:e].T
            ia, ib = np.triu_indices(size, k=1)
            m = sims[ia, ib] >= cosine_threshold
            if m.any():
                frames.append(
                    pd.DataFrame(
                        {
                            "vec_a": ids[s:e][ia][m].astype("int64"),
                            "vec_b": ids[s:e][ib][m].astype("int64"),
                            "cosine": sims[ia, ib][m],
                            "truncated": np.zeros(int(m.sum()), dtype="int64"),
                        }
                    )
                )
        if truncated:
            frames.append(
                pd.DataFrame(
                    {
                        "vec_a": [-1] * len(truncated),
                        "vec_b": [-1] * len(truncated),
                        "cosine": [0.0] * len(truncated),
                        "truncated": truncated,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else empty

    # cross-table dedup + counter merge (cosine is identical for the same
    # pair in every table; Max just picks one): distributed groupby above
    # the size threshold, driver pandas pass below it
    raw_pairs = routed_reduce(bucketed, ["bucket"], P, verify_part)
    return _dedup_pairs_regime(
        raw_pairs,
        ["vec_a", "vec_b"],
        [Max("cosine", alias_name="cosine"), Sum("truncated", alias_name="truncated")],
        lambda df: df.groupby(["vec_a", "vec_b"], as_index=False).agg(
            cosine=("cosine", "max"), truncated=("truncated", "sum")
        ),
        pa.table(
            {
                "vec_a": pa.array([], type=pa.int64()),
                "vec_b": pa.array([], type=pa.int64()),
                "cosine": pa.array([], type=pa.float64()),
                "truncated": pa.array([], type=pa.int64()),
            }
        ),
        threshold=broadcast_pairs_threshold,
    )


def embedding_dup_pairs(
    emb_ds,
    cosine_threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 11,
    brute: bool = False,
    max_bucket: int = 4000,
    n_tables: int = 4,
    n_parts: int | None = None,
) -> pd.DataFrame:
    """Near-duplicate embedding pairs (vec_a < vec_b, cosine >= threshold)
    as a pandas DataFrame — driver-side convenience wrapper over
    `embedding_pairs_ds`; at scale call the Dataset variant and write to
    parquet.  (`brute=True` is the exact all-pairs baseline used by tests
    to measure recall.)"""
    if brute:
        t = emb_ds.select_columns(["vec_id", "embedding"]).to_pandas()
        ids = t["vec_id"].to_numpy()
        X = np.stack(t["embedding"].to_numpy())
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        sims = Xn @ Xn.T
        ia, ib = np.triu_indices(len(ids), k=1)
        m = sims[ia, ib] >= cosine_threshold
        return (
            pd.DataFrame({"vec_a": ids[ia][m], "vec_b": ids[ib][m], "cosine": sims[ia, ib][m]})
            .sort_values(["vec_a", "vec_b"])
            .reset_index(drop=True)
        )
    out = embedding_pairs_ds(
        emb_ds,
        cosine_threshold=cosine_threshold,
        n_planes=n_planes,
        seed=seed,
        max_bucket=max_bucket,
        n_tables=n_tables,
        n_parts=n_parts,
    ).to_pandas()
    if out.empty:
        return pd.DataFrame({"vec_a": [], "vec_b": [], "cosine": []}).astype(
            {"vec_a": "int64", "vec_b": "int64", "cosine": "float64"}
        )
    n_trunc = int(out.loc[out["truncated"] > 0, "truncated"].sum())
    if n_trunc:
        print(
            f"[embedding_dup_pairs] WARNING: skipped buckets covering {n_trunc} vectors (> max_bucket)"
        )
    return (
        out[out["truncated"] == 0][["vec_a", "vec_b", "cosine"]]
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )


def semdedup_keep(
    emb_ds,
    n_clusters: int = 16,
    threshold: float = 0.97,
    seed: int = 13,
    sample_size: int = 2000,
    iters: int = 10,
    max_cluster: int = 100_000,
):
    """SemDeDup semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means buckets the embedding space (centroids fit
    on a bounded driver sample and broadcast once — the same machinery as
    `embedding_clusters`), then ONE within-cluster greedy pass keeps a
    vector only if its max cosine to the already-kept set stays below
    `threshold`.  Scan order inside a cluster follows the paper's
    keep-farthest-from-centroid rule — ascending cosine-to-centroid, with
    vec_id ascending as the deterministic tie-break — so output is
    layout- and process-independent.

    Shape: assignment is a streaming matmul-argmax map (no shuffle); the
    only exchange routes (vec_id, cluster, cos_c, embedding) BY CLUSTER so
    each cluster lands whole in one group.  At 100-TB scale `n_clusters`
    grows with the corpus (the paper's own regime: clusters stay
    partition-sized); the greedy kernel is BLOCKED — candidates screen
    against the kept set in bounded block x chunk matmuls (memory
    O(n·kept_chunk), never the n x n sim matrix), so `max_cluster` is a
    wall-time valve, not a memory one; a cluster above it emits a
    counter row (vec_id == -1, skipped = size) — no-silent-caps, same
    convention as the pair families.

    Output: (vec_id, cluster, cosine_to_centroid, keep, skipped) — one
    row per vector, keep in {0, 1}, skipped == 0 on real rows."""
    import ray

    from indexer_ray.pipelines.ann import (
        _embedding_matrix,
        _fit_centroids,
        _normalize,
    )

    C = _fit_centroids(emb_ds, n_clusters, iters, seed, sample_size)
    cref = ray.put(C)

    class Assign:
        def __init__(self):
            self.C = ray.get(cref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            Xn = _normalize(_embedding_matrix(batch.column("embedding")))
            sims = Xn @ self.C.T
            cell = np.argmax(sims, axis=1)
            return pa.table(
                {
                    "vec_id": pa.array(ids, type=pa.int64()),
                    "cluster": pa.array(cell.astype(np.int64), type=pa.int64()),
                    "cos_c": pa.array(
                        sims[np.arange(len(ids)), cell], type=pa.float64()
                    ),
                    "embedding": batch.column("embedding").combine_chunks(),
                }
            )

    assigned = emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        Assign,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    )

    empty = pd.DataFrame(
        {
            "vec_id": [],
            "cluster": [],
            "cosine_to_centroid": [],
            "keep": [],
            "skipped": [],
        }
    ).astype(
        {
            "vec_id": "int64",
            "cluster": "int64",
            "cosine_to_centroid": "float64",
            "keep": "int64",
            "skipped": "int64",
        }
    )

    def prune_cluster(g: pd.DataFrame) -> pd.DataFrame:
        n = len(g)
        if n == 0:
            return empty
        cluster = int(g["cluster"].iloc[0])
        if n > max_cluster:
            return pd.DataFrame(
                {
                    "vec_id": [-1],
                    "cluster": [cluster],
                    "cosine_to_centroid": [0.0],
                    "keep": [0],
                    "skipped": [n],
                }
            ).astype(empty.dtypes)
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        cos_c = g["cos_c"].to_numpy(dtype=np.float64)
        X = np.stack(g["embedding"].to_numpy())
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        order = np.lexsort((ids, cos_c))  # farthest-from-centroid first
        # Blocked greedy, memory O(block * kept) instead of the full
        # n x n sim matrix: a candidate block is first screened against
        # the ALREADY-KEPT set (rejection there is final — the kept set
        # only grows), then only the block's survivors run the
        # sequential pass against each other.  Identical keep set to the
        # one-row-at-a-time greedy, but the Python loop touches only
        # survivors and every matmul is bounded at block x chunk.
        Xo = np.ascontiguousarray(Xn[order])
        block, kchunk = 1024, 8192
        keep_o = np.zeros(n, dtype=bool)
        kept_rows: list[int] = []
        for s in range(0, n, block):
            B = Xo[s : s + block]
            if kept_rows:
                mx = np.full(len(B), -np.inf)
                for t in range(0, len(kept_rows), kchunk):
                    Kt = Xo[kept_rows[t : t + kchunk]]
                    np.maximum(mx, (B @ Kt.T).max(axis=1), out=mx)
                surv = np.flatnonzero(mx < threshold)
            else:
                surv = np.arange(len(B))
            if len(surv):
                Bs = B[surv]
                local = Bs @ Bs.T
                lkept: list[int] = []
                for j in range(len(surv)):
                    if not lkept or local[j, lkept].max() < threshold:
                        lkept.append(j)
                for j in lkept:
                    keep_o[s + surv[j]] = True
                    kept_rows.append(s + int(surv[j]))
        keep = np.zeros(n, dtype=np.int64)
        keep[order[keep_o]] = 1
        return pd.DataFrame(
            {
                "vec_id": ids,
                "cluster": np.full(n, cluster, dtype=np.int64),
                "cosine_to_centroid": cos_c,
                "keep": keep,
                "skipped": np.zeros(n, dtype=np.int64),
            }
        )

    return assigned.groupby("cluster").map_groups(
        prune_cluster, batch_format="pandas"
    )


# ----------------------------------------------------------- winnowing

def winnow_fingerprints(ds, k: int = 5, w: int = 4):
    """(doc_id, fp) rows: winnowing fingerprints of each doc's plain token
    stream (one row per distinct selected k-gram hash).  Winnowing
    guarantees any shared token run of length >= w+k-1 produces at least
    one shared fp — the substring-overlap detector MinHash (a whole-doc
    similarity sketch) is not."""

    def _fp_batch(batch: pa.Table) -> pa.Table:
        doc_ids, fps = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            sel = _winnow(_kgram_hashes(tokenize_plain(text or ""), k), w)
            doc_ids.extend([doc_id] * len(sel))
            fps.extend(sel.tolist())
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "fp": pa.array(fps, type=pa.uint64()),
            }
        )

    return ds.map_batches(_fp_batch, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


def winnow_pairs_ds(
    ds,
    k: int = 5,
    w: int = 4,
    min_shared: int = 2,
    max_bucket: int = 2000,
    n_parts: int | None = None,
    broadcast_pairs_threshold: int = BROADCAST_PAIRS_THRESHOLD,
):
    """Dataset-returning overlap-duplicate pairs: docs sharing >=
    `min_shared` winnowing fingerprints (doc_a < doc_b).  Blocking is the
    LSH-bucket pattern: fps hash-route to partitions, each partition emits
    per-bucket pairs WITH per-part shared-counts (one vectorized pass), a
    final DISTRIBUTED groupby sums counts across partitions — the pair set
    never collects on the driver.

    Output columns (doc_a, doc_b, n_shared, truncated): real pairs have
    truncated == 0 and n_shared >= min_shared; the counter row
    (doc_a == doc_b == -1) carries the total docs covered by oversized
    skipped fp buckets (boilerplate runs — no silent caps)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    P = _adaptive_pair_parts(ds, n_parts)
    fps = winnow_fingerprints(ds, k=k, w=w)

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["fp", "doc_id"]).drop_duplicates(["fp", "doc_id"])
        fp = g["fp"].to_numpy(dtype=np.uint64)
        ids = g["doc_id"].to_numpy()
        n = len(ids)
        empty = pd.DataFrame({"doc_a": [], "doc_b": [], "n_shared": [], "truncated": []}).astype(
            {"doc_a": "int64", "doc_b": "int64", "n_shared": "int64", "truncated": "int64"}
        )
        if n == 0:
            return empty
        starts = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
        ends = np.r_[starts[1:], n]
        out_a, out_b, truncated = [], [], []
        for s, e in zip(starts, ends):
            size = e - s
            if size < 2:
                continue
            if size > max_bucket:
                truncated.append(int(size))
                continue
            ia, ib = np.triu_indices(size, k=1)
            out_a.append(ids[s:e][ia])
            out_b.append(ids[s:e][ib])
        frames = []
        if out_a:
            a = np.concatenate(out_a)
            b = np.concatenate(out_b)
            pairs = pd.DataFrame({"doc_a": a.astype("int64"), "doc_b": b.astype("int64")})
            agg = pairs.groupby(["doc_a", "doc_b"], sort=False).size().reset_index(name="n_shared")
            agg["truncated"] = np.int64(0)
            frames.append(agg)
        if truncated:
            frames.append(
                pd.DataFrame(
                    {
                        "doc_a": [-1] * len(truncated),
                        "doc_b": [-1] * len(truncated),
                        "n_shared": [0] * len(truncated),
                        "truncated": truncated,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else empty

    raw_pairs = routed_reduce(fps, ["fp"], P, pairs_in_part)
    counted = _dedup_pairs_regime(
        raw_pairs,
        ["doc_a", "doc_b"],
        [Sum("n_shared", alias_name="n_shared"), Sum("truncated", alias_name="truncated")],
        lambda df: df.groupby(["doc_a", "doc_b"], as_index=False).agg(
            n_shared=("n_shared", "sum"), truncated=("truncated", "sum")
        ),
        pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "n_shared": pa.array([], type=pa.int64()),
                "truncated": pa.array([], type=pa.int64()),
            }
        ),
        threshold=broadcast_pairs_threshold,
    )

    def _apply_min_shared(t: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.greater(t.column("truncated"), 0),
            pc.greater_equal(t.column("n_shared"), min_shared),
        )
        return t.filter(keep)

    return counted.map_batches(_apply_min_shared, batch_format="pyarrow")


def winnow_dup_pairs(
    ds,
    k: int = 5,
    w: int = 4,
    min_shared: int = 2,
    max_bucket: int = 2000,
    n_parts: int | None = None,
) -> pd.DataFrame:
    """Overlap-duplicate pairs as a pandas DataFrame (doc_a, doc_b,
    n_shared) — driver-side convenience wrapper over `winnow_pairs_ds`; at
    scale call the Dataset variant and write to parquet."""
    out = _pairs_ds_to_pandas(
        winnow_pairs_ds(
            ds, k=k, w=w, min_shared=min_shared, max_bucket=max_bucket, n_parts=n_parts
        ),
        "n_shared",
        "winnow_dup_pairs",
        value_dtype="int64",
    )
    return out.astype({"doc_a": "int64", "doc_b": "int64", "n_shared": "int64"})


# ------------------------------------------------------- duplicate clusters


def _union_find_clusters(edges: pd.DataFrame) -> pd.DataFrame:
    """Driver-side union-find with path compression over (doc_a, doc_b)
    edges: one row (doc_id, cluster_id) per vertex, cluster_id = min doc_id
    of the connected component (union by MIN, so the root IS the keeper)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(edges["doc_a"], edges["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    rows = sorted((x, find(x)) for x in parent)
    return pd.DataFrame(rows, columns=["doc_id", "cluster_id"]).astype("int64")


_EMPTY_CLUSTERS_TABLE = pa.table(
    {
        "doc_id": pa.array([], type=pa.int64()),
        "cluster_id": pa.array([], type=pa.int64()),
    }
)


def dup_clusters(
    pairs,
    threshold: int = BROADCAST_PAIRS_THRESHOLD,
    max_iters: int = 64,
    n_parts: int = _PAIR_PARTITIONS,
):
    """Connected components over duplicate-pair output: one row
    (doc_id, cluster_id) per vertex, cluster_id = MIN doc_id of the
    component — the canonical keeper, first-wins like `exact_duplicates`.
    The step every dedup pipeline needs between "pairs found" and "corpus
    filtered": near-dup relations are not transitive-closed, so keeping
    min(doc_a, doc_b) per PAIR both over- and under-deletes.

    Accepts the (doc_a, doc_b, ...) pair output of any family here —
    pandas frame or Ray Dataset; counter rows (doc_a == -1) are ignored.
    Returns the kind it was given (DataFrame in -> DataFrame out).

    Driver-sized pair sets run union-find on the driver.  Above
    `threshold` pairs, DISTRIBUTED hash-min label propagation (the HCC
    formulation of Kang, Tsourakakis & Faloutsos, ICDM 2009): every vertex
    repeatedly adopts the minimum label of its closed neighborhood.
    Labels only ever decrease, so sum(labels) is a monotone convergence
    witness needing no change-detection join; rounds = component diameter
    (near-dup clusters are shallow).  Each round is one hash join + one
    groupby over edge/label rows — the corpus and driver are never
    touched."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Min

    if isinstance(pairs, pd.DataFrame):
        # a frame the caller already holds is driver-sized by definition
        return _union_find_clusters(pairs[pairs["doc_a"] >= 0][["doc_a", "doc_b"]])

    def _clean(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("doc_a"), 0))
        return pa.table({"doc_a": t.column("doc_a"), "doc_b": t.column("doc_b")})

    edges = pairs.map_batches(_clean, batch_format="pyarrow").materialize()
    if edges.count() <= threshold:
        df = edges.to_pandas()
        if df.empty:
            return rd.from_arrow(_EMPTY_CLUSTERS_TABLE)
        return rd.from_arrow(
            pa.Table.from_pandas(
                _union_find_clusters(df), preserve_index=False
            ).replace_schema_metadata(None)
        )

    jp = max(2, min(n_parts, join_parts()))

    def _sym(t: pa.Table) -> pa.Table:
        a = t.column("doc_a").combine_chunks()
        b = t.column("doc_b").combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([a, b]).cast(pa.int64()),
                "dst": pa.concat_arrays([b, a]).cast(pa.int64()),
            }
        )

    edges_sym = edges.map_batches(_sym, batch_format="pyarrow").materialize()

    def _self_min(t: pa.Table) -> pa.Table:
        # closed neighborhood: label starts at min(self, neighbors)
        return pa.table(
            {
                "src": t.column("src"),
                "label": pc.min_element_wise(
                    t.column("src").cast(pa.int64()), t.column("label").cast(pa.int64())
                ),
            }
        )

    labels = (
        edges_sym.groupby("src")
        .aggregate(Min("dst", alias_name="label"))
        .map_batches(_self_min, batch_format="pyarrow")
        .materialize()
    )
    prev_sum = labels.sum("label")
    converged = False
    for _ in range(max_iters):
        msgs = edges_sym.join(labels, "inner", jp, on=("src",)).map_batches(
            lambda t: pa.table(
                {
                    "src": t.column("dst").cast(pa.int64()),
                    "label": t.column("label").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        labels = (
            msgs.union(labels)
            .groupby("src")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:  # labels are monotone non-increasing ints
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # no-silent-caps: an unconverged propagation means some component's
        # diameter exceeds max_iters and its cluster_ids are WRONG — a
        # downstream drop_duplicates_ds would silently under-delete
        raise RuntimeError(
            f"dup_clusters: hash-min propagation did not converge within "
            f"max_iters={max_iters} rounds (a component has larger diameter); "
            "raise max_iters"
        )
    return labels.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("src").cast(pa.int64()),
                "cluster_id": t.column("label").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def drop_duplicates_ds(ds, clusters, id_col: str = "doc_id"):
    """Corpus filter from a cluster assignment: keep every row that is
    either outside all duplicate clusters or its cluster's canonical
    keeper (doc_id == cluster_id).  `clusters` is the `dup_clusters`
    output (Dataset or DataFrame).  Implemented as a LEFT OUTER hash join
    — the corpus streams, nothing materializes on the driver."""
    import pyarrow.compute as pc
    import ray.data as rd

    if isinstance(clusters, pd.DataFrame):
        clusters = rd.from_arrow(
            pa.Table.from_pandas(
                clusters[["doc_id", "cluster_id"]], preserve_index=False
            ).cast(_EMPTY_CLUSTERS_TABLE.schema)
        )
    if id_col != "doc_id":
        clusters = clusters.map_batches(
            lambda t: pa.table(
                {id_col: t.column("doc_id"), "cluster_id": t.column("cluster_id")}
            ),
            batch_format="pyarrow",
        )
    jp = join_parts()
    joined = ds.join(clusters, "left_outer", jp, on=(id_col,))

    def _keep(t: pa.Table) -> pa.Table:
        cid = t.column("cluster_id")
        keep = pc.or_kleene(
            pc.is_null(cid), pc.equal(cid, t.column(id_col).cast(pa.int64()))
        )
        return t.filter(pc.fill_null(keep, True)).drop_columns(["cluster_id"])

    return joined.map_batches(_keep, batch_format="pyarrow")


# ----------------------------------------------- cross-corpus decontamination


def cross_corpus_overlap_ds(
    corpus_ds,
    probe_ds,
    k: int = 5,
    w: int = 4,
    min_shared: int = 2,
    max_bucket: int = 2000,
    n_parts: int | None = None,
    broadcast_pairs_threshold: int = BROADCAST_PAIRS_THRESHOLD,
):
    """Benchmark-contamination detection: (doc_id, probe_id, n_shared) for
    every corpus document sharing >= `min_shared` winnowing fingerprints
    with a document of the (small) probe/benchmark table — any common token
    run of length >= w+k-1 guarantees a shared fingerprint (Schleimer et
    al. 2003), so verbatim benchmark sentences inside training documents
    are caught regardless of surrounding text.

    BIPARTITE blocking over the same fp-routed partitions as
    `winnow_pairs_ds`: both sides fingerprint independently (the big
    corpus streams; the probe is usually thousands of rows), fps
    hash-route to partitions with a side tag, each partition emits only
    ACROSS-side pairs in one vectorized pass, a distributed groupby sums
    shared counts, and the counter row (doc_id == probe_id == -1) carries
    docs covered by oversized fp buckets (boilerplate; no silent caps)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    P = _adaptive_pair_parts(corpus_ds, n_parts)

    def _fp_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"fp": batch.column("fp"), "doc_id": batch.column("doc_id").cast(pa.int64())}
        )

    sides = [  # side 0 = corpus, 1 = probe
        winnow_fingerprints(d, k=k, w=w).map_batches(
            _fp_rows, batch_format="pyarrow", zero_copy_batch=True
        )
        for d in (corpus_ds, probe_ds)
    ]

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["fp", "side", "doc_id"]).drop_duplicates(
            ["fp", "side", "doc_id"]
        )
        fp = g["fp"].to_numpy(dtype=np.uint64)
        ids = g["doc_id"].to_numpy()
        side = g["side"].to_numpy()
        n = len(ids)
        empty = pd.DataFrame(
            {"doc_id": [], "probe_id": [], "n_shared": [], "truncated": []}
        ).astype(
            {"doc_id": "int64", "probe_id": "int64", "n_shared": "int64", "truncated": "int64"}
        )
        if n == 0:
            return empty
        starts = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
        ends = np.r_[starts[1:], n]
        out_c, out_p, truncated = [], [], []
        for s, e in zip(starts, ends):
            size = e - s
            if size < 2:
                continue
            if size > max_bucket:
                truncated.append(int(size))
                continue
            # side-sorted within the bucket: corpus rows first, probe after
            n_c = int((side[s:e] == 0).sum())
            if n_c == 0 or n_c == size:
                continue  # fp seen on one side only
            c_ids = ids[s : s + n_c]
            p_ids = ids[s + n_c : e]
            ii, jj = np.meshgrid(
                np.arange(n_c), np.arange(size - n_c), indexing="ij"
            )
            out_c.append(c_ids[ii.ravel()])
            out_p.append(p_ids[jj.ravel()])
        frames = []
        if out_c:
            cp = pd.DataFrame(
                {
                    "doc_id": np.concatenate(out_c).astype("int64"),
                    "probe_id": np.concatenate(out_p).astype("int64"),
                }
            )
            agg = cp.groupby(["doc_id", "probe_id"], sort=False).size().reset_index(
                name="n_shared"
            )
            agg["truncated"] = np.int64(0)
            frames.append(agg)
        if truncated:
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": [-1] * len(truncated),
                        "probe_id": [-1] * len(truncated),
                        "n_shared": [0] * len(truncated),
                        "truncated": truncated,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else empty

    raw = routed_reduce(sides, ["fp"], P, pairs_in_part)
    counted = _dedup_pairs_regime(
        raw,
        ["doc_id", "probe_id"],
        [Sum("n_shared", alias_name="n_shared"), Sum("truncated", alias_name="truncated")],
        lambda df: df.groupby(["doc_id", "probe_id"], as_index=False).agg(
            n_shared=("n_shared", "sum"), truncated=("truncated", "sum")
        ),
        pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "probe_id": pa.array([], type=pa.int64()),
                "n_shared": pa.array([], type=pa.int64()),
                "truncated": pa.array([], type=pa.int64()),
            }
        ),
        threshold=broadcast_pairs_threshold,
    )
    import pyarrow.compute as pc

    def _apply_min_shared(t: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.greater(t.column("truncated"), 0),
            pc.greater_equal(t.column("n_shared"), min_shared),
        )
        return t.filter(keep)

    return counted.map_batches(_apply_min_shared, batch_format="pyarrow")


def decontaminate_ds(
    corpus_ds,
    probe_ds,
    k: int = 5,
    w: int = 4,
    min_shared: int = 2,
    max_bucket: int = 2000,
    id_col: str = "doc_id",
):
    """Remove every corpus document that overlaps the probe/benchmark set
    (`cross_corpus_overlap_ds` hit with >= min_shared shared fingerprints)
    — a streaming LEFT ANTI join, so the corpus never materializes.
    Returns (clean_corpus_ds, overlap_ds); consume the overlap Dataset for
    an audit trail of what was dropped and why."""
    overlaps = cross_corpus_overlap_ds(
        corpus_ds, probe_ds, k=k, w=w, min_shared=min_shared, max_bucket=max_bucket
    ).materialize()

    import pyarrow.compute as pc

    contaminated = (
        overlaps.map_batches(
            lambda t: pa.table(
                {id_col: t.filter(pc.greater_equal(t.column("doc_id"), 0)).column("doc_id")}
            ),
            batch_format="pyarrow",
        )
        .groupby(id_col)
        .count()
        .select_columns([id_col])
    )
    jp = join_parts()
    clean = corpus_ds.join(contaminated, "left_anti", jp, on=(id_col,))
    return clean, overlaps


class _WordGramStage:
    """Per-doc word n-gram keys over plain tokens: emits one 62-bit
    double-rolling-hash key per n-gram POSITION (keys, not strings,
    through the shuffle — 16 bytes/gram).  Token hashes come from one
    vectorized pandas hash_array per batch; the rolling windows use the
    census' prefix-sum trick over the FLAT token array, with windows
    that cross a document boundary masked out — no per-position Python.
    Power tables are actor state, grown by doubling on demand."""

    def __init__(self, n: int):
        self.n = n
        self.pow_b: list[np.ndarray] = []
        self.pow_binv: list[np.ndarray] = []
        self.binv = []
        for m, b in _SUBH:
            binv = pow(b, m - 2, m)
            self.binv.append(binv)
            self.pow_b.append(_pow_table(b, m, 1024))
            self.pow_binv.append(_pow_table(binv, m, 1024))

    def _grow(self, n: int):
        for i, (m, b) in enumerate(_SUBH):
            if len(self.pow_b[i]) < n:
                self.pow_b[i] = _pow_table(b, m, n, self.pow_b[i])
                self.pow_binv[i] = _pow_table(
                    self.binv[i], m, n, self.pow_binv[i]
                )

    def keys_of(self, batch: pa.Table):
        """(doc_row_index, keys) for every valid n-gram window."""
        from indexer_ray.pipelines.text_analysis import _flatten_plain_tokens

        rows, flat = _flatten_plain_tokens(batch)
        L = self.n
        nf = len(flat)
        if nf < L:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
        self._grow(nf)
        th = pd.util.hash_array(flat)
        hs = []
        for i, (m, _b) in enumerate(_SUBH):
            M = np.uint64(m)
            w = th % M * self.pow_binv[i][:nf] % M
            c = np.concatenate([np.zeros(1, dtype=np.uint64), np.cumsum(w)])
            s = (c[L:] - c[: nf - L + 1]) % M
            hs.append(s * self.pow_b[i][L - 1 : nf] % M)
        keys = hs[0] * np.uint64(_SUBH[1][0]) + hs[1]
        # a window is valid iff it lies inside ONE document
        valid = rows[: nf - L + 1] == rows[L - 1 :]
        return rows[: nf - L + 1][valid], keys[valid]


def exact_ngram_overlap(
    train_ds,
    eval_ds,
    n: int = 13,
    broadcast_keys_threshold: int = 1 << 22,
    n_parts: int = 32,
):
    """Exact word-n-gram decontamination census — the GPT-3 appendix-C /
    Brown et al. 2020 rule (a train doc is contaminated when it shares
    any exact 13-gram with the eval set), over plain tokens
    ([a-z0-9]+ runs of lower(text)) so a DuckDB oracle can replay gram
    STRINGS while the engine exchanges 62-bit rolling-hash keys
    (birthday-safe at these corpus sizes, same argument as
    `substring_dup_stats`).

    Two regimes on the eval gram count (which is benchmark-sized, not
    corpus-sized — the asymmetry decontamination exists to exploit):
      * broadcast (distinct eval keys <= threshold): the sorted eval key
        array ships ONCE via ray.put and every train batch counts hits
        with one searchsorted — the train corpus is never shuffled;
      * join (pathologically large eval sets): train gram keys inner-join
        the distinct eval keys, hit counts come from a doc groupby, and a
        doc-routed tagged union merges them with per-doc totals.

    Output: (doc_id, n_grams, n_hits, contaminated) — one row per train
    doc; n_hits counts gram POSITIONS whose gram occurs anywhere in the
    eval set."""
    import ray
    import pyarrow.compute as pc

    eval_keys_ds = eval_ds.select_columns(["doc_id", "text"]).map_batches(
        _EvalGramKeys,
        fn_constructor_args=(n,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(1, 8),
    )
    n_eval_keys = eval_keys_ds.count()

    def _totals(batch: pa.Table) -> pa.Table:
        from indexer_ray.pipelines.text_analysis import _flatten_plain_tokens

        rows, _flat = _flatten_plain_tokens(batch)
        cnt = np.bincount(rows, minlength=batch.num_rows)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": pa.array(
                    np.maximum(cnt - n + 1, 0).astype(np.int64),
                    type=pa.int64(),
                ),
            }
        )

    if n_eval_keys <= broadcast_keys_threshold:
        ek = (
            np.unique(
                driver_table(eval_keys_ds.select_columns(["key"]))
                .column("key")
                .to_numpy()
                .astype(np.uint64)
            )
            if n_eval_keys
            else np.empty(0, dtype=np.uint64)
        )
        ek_ref = ray.put(ek)

        class _Census(_WordGramStage):
            def __call__(self, batch: pa.Table) -> pa.Table:
                t = _totals(batch)
                e = ray.get(ek_ref)
                hits = np.zeros(batch.num_rows, dtype=np.int64)
                if len(e):
                    rows, keys = self.keys_of(batch)
                    if len(keys):
                        pos = np.minimum(
                            np.searchsorted(e, keys), len(e) - 1
                        )
                        hit_rows = rows[e[pos] == keys]
                        hits = np.bincount(
                            hit_rows, minlength=batch.num_rows
                        ).astype(np.int64)
                return t.append_column(
                    "n_hits", pa.array(hits, type=pa.int64())
                ).append_column(
                    "contaminated", pa.array(hits > 0, type=pa.bool_())
                )

        return train_ds.select_columns(["doc_id", "text"]).map_batches(
            _Census,
            fn_constructor_args=(n,),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=1024,
            concurrency=(1, 8),
        )

    # ---- join regime: eval keys stay distributed ----
    class _TrainGrams(_WordGramStage):
        def __call__(self, batch: pa.Table) -> pa.Table:
            rows, keys = self.keys_of(batch)
            doc = (
                batch.column("doc_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            return pa.table(
                {
                    "jkey": pa.array(
                        keys.view(np.int64), type=pa.int64()
                    ),
                    "doc_id": pa.array(doc[rows], type=pa.int64()),
                }
            )

    eval_distinct = (
        eval_keys_ds.map_batches(
            lambda t: pa.table(
                {
                    "jkey": pa.array(
                        t.column("key")
                        .to_numpy(zero_copy_only=False)
                        .astype(np.uint64)
                        .view(np.int64),
                        type=pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("jkey")
        .count()
        .select_columns(["jkey"])
    )
    jp = join_parts()
    train_grams = train_ds.select_columns(["doc_id", "text"]).map_batches(
        _TrainGrams,
        fn_constructor_args=(n,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(1, 8),
    )
    hit_counts = (
        train_grams.join(eval_distinct, "inner", jp, on=("jkey",))
        .groupby("doc_id")
        .count()
    )  # (doc_id, count())
    totals = train_ds.select_columns(["doc_id", "text"]).map_batches(
        _totals, batch_format="pyarrow", zero_copy_batch=True
    )

    def _tag_hits(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_grams": pa.array(
                    np.full(t.num_rows, -1, dtype=np.int64), type=pa.int64()
                ),
                "n_hits": pc.cast(t.column("count()"), pa.int64()),
            }
        ).replace_schema_metadata(None)

    def _tag_totals(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_grams": pc.cast(t.column("n_grams"), pa.int64()),
                "n_hits": pa.array(
                    np.full(t.num_rows, -1, dtype=np.int64), type=pa.int64()
                ),
            }
        ).replace_schema_metadata(None)

    sides = [
        totals.map_batches(_tag_totals, batch_format="pyarrow"),
        hit_counts.map_batches(_tag_hits, batch_format="pyarrow"),
    ]

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {"doc_id": [], "n_grams": [], "n_hits": [], "contaminated": []}
            ).astype(
                {
                    "doc_id": "int64",
                    "n_grams": "int64",
                    "n_hits": "int64",
                    "contaminated": "bool",
                }
            )
        tot = g[g["n_grams"] >= 0]
        hit = g[g["n_grams"] < 0]
        hmap = dict(zip(hit["doc_id"], hit["n_hits"]))
        doc = tot["doc_id"].to_numpy(dtype=np.int64)
        nh = np.array([hmap.get(d, 0) for d in doc], dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": doc,
                "n_grams": tot["n_grams"].to_numpy(dtype=np.int64),
                "n_hits": nh,
                "contaminated": nh > 0,
            }
        )

    return routed_reduce(sides, ["doc_id"], n_parts, _merge)


class _EvalGramKeys(_WordGramStage):
    """Eval-side gram keys, deduped per batch before the exchange."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        _rows, keys = self.keys_of(batch)
        return pa.table(
            {"key": pa.array(np.unique(keys), type=pa.uint64())}
        )


# --------------------------------------------------- chunk-level dedup


def chunk_dedup_stats(ds, chunk_words: int = 20, n_parts: int = 32):
    """Span-level exact dedup census (the C4 paper's three-sentence-span
    idea, Raffel et al. 2020 §2.2, over fixed word windows): split each
    document's whitespace tokens into consecutive `chunk_words`-word chunks
    (trailing partial chunk included), and count, per doc, how many of its
    chunks are exact duplicates of a chunk seen EARLIER — earlier means
    smaller (doc_id, chunk_idx) lexicographically, so the census is
    deterministic and layout-independent.

    Output: (doc_id, n_chunks, n_dup_chunks), one row per doc with >= 1
    word.  Shape: map_batches emits one 128-bit content hash row per chunk
    (blake2b, same two-int64 birthday-safety argument as
    exact_duplicates), hash-routes chunks into `n_parts` partitions so
    equal chunks co-locate, one vectorized sort + duplicated() pass per
    partition emits per-(partition, doc) partial counts, and a doc-routed
    vectorized reduceat pass merges them per doc (NOT a
    groupby(doc_id).aggregate — Ray's sort-based groupby over n_docs tiny
    keys measured 14 s on a 5k-doc bench where the whole map side took
    0.8 s; the routed merge is the repo's standard discipline, see
    doc_unigram_nll/doc_keywords).  The shuffle moves one 28-byte row per
    chunk — never the text."""

    def _chunks(batch: pa.Table) -> pa.Table:
        ids_out, idx_out, his, los = [], [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            w = (t or "").split()
            for ci in range(0, -(-len(w) // chunk_words)):
                chunk = " ".join(w[ci * chunk_words : (ci + 1) * chunk_words])
                d = hashlib.blake2b(chunk.encode("utf-8"), digest_size=16).digest()
                his.append(int.from_bytes(d[:8], "big", signed=True))
                los.append(int.from_bytes(d[8:], "big", signed=True))
                ids_out.append(doc_id)
                idx_out.append(ci)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, type=pa.int64()),
                "chunk_idx": pa.array(idx_out, type=pa.int64()),
                "hash_hi": pa.array(his, type=pa.int64()),
                "hash_lo": pa.array(los, type=pa.int64()),
            }
        )

    def _census(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["hash_hi", "hash_lo", "doc_id", "chunk_idx"], kind="mergesort"
        )
        dup = g.duplicated(["hash_hi", "hash_lo"], keep="first")
        out = g.assign(dup=dup.astype("int64")).groupby("doc_id", as_index=False).agg(
            n_chunks=("dup", "size"), n_dup_chunks=("dup", "sum")
        )
        return out.astype(
            {"doc_id": "int64", "n_chunks": "int64", "n_dup_chunks": "int64"}
        )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        doc = g["doc_id"].to_numpy()
        order = np.argsort(doc, kind="mergesort")
        sdoc = doc[order]
        starts = np.flatnonzero(np.r_[True, sdoc[1:] != sdoc[:-1]])
        return pd.DataFrame(
            {
                "doc_id": sdoc[starts].astype("int64"),
                "n_chunks": np.add.reduceat(
                    g["n_chunks"].to_numpy()[order], starts
                ).astype("int64"),
                "n_dup_chunks": np.add.reduceat(
                    g["n_dup_chunks"].to_numpy()[order], starts
                ).astype("int64"),
            }
        )

    chunks = ds.map_batches(_chunks, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)
    census = routed_reduce(chunks, ["hash_hi"], n_parts, _census)
    return routed_reduce(census, ["doc_id"], n_parts, _merge)


# ------------------------------------------- exact substring dedup census
#
# Two independent 31-bit polynomial rolling hashes (Karp-Rabin 1987),
# packed into one 62-bit key.  Codepoint-level (matches SQL substr
# semantics), vectorized with a prefix-sum trick: weight each codepoint by
# Binv^i, cumsum once, and every window hash is (window difference) * B^p
# — O(n) numpy per document, no per-position Python.
_SUBH = (
    (2_147_483_647, 1_000_003),  # (modulus, base) — both primes
    (2_147_483_629, 1_000_033),
)


def _pow_table(base: int, mod: int, n: int, start: np.ndarray | None = None):
    """powers[i] = base^i mod mod for i < n, built by vectorized doubling
    (each step appends p * (last*base) % mod — log2(n) numpy ops)."""
    p = np.ones(1, dtype=np.uint64) if start is None else start
    b, m = np.uint64(base), np.uint64(mod)
    while len(p) < n:
        step = p[-1] * b % m
        p = np.concatenate([p, p * step % m])
    return p[:n]


class _GramHashStage:
    """Per-doc rolling L-gram hashes: emits (key, doc_id, pos) — 20 bytes
    per corpus character through the shuffle, never the text.  Power
    tables are actor state, grown by doubling on demand."""

    def __init__(self, min_len: int):
        self.L = min_len
        self.pow_b: list[np.ndarray] = []
        self.pow_binv: list[np.ndarray] = []
        for m, b in _SUBH:
            binv = pow(b, m - 2, m)  # Fermat inverse, m prime
            self.pow_b.append(_pow_table(b, m, 1024))
            self.pow_binv.append(_pow_table(binv, m, 1024))
        self.binv = [pow(b, m - 2, m) for m, b in _SUBH]

    def _grow(self, n: int):
        for i, (m, b) in enumerate(_SUBH):
            if len(self.pow_b[i]) < n:
                self.pow_b[i] = _pow_table(b, m, n, self.pow_b[i])
                self.pow_binv[i] = _pow_table(
                    self.binv[i], m, n, self.pow_binv[i]
                )

    def _doc_keys(self, text: str) -> np.ndarray:
        L = self.L
        cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(
            np.uint64
        )
        n = len(cp)
        if n < L:
            return np.empty(0, dtype=np.uint64)
        self._grow(n)
        hs = []
        for i, (m, _b) in enumerate(_SUBH):
            M = np.uint64(m)
            w = cp % M * self.pow_binv[i][:n] % M  # cp < 2^21, pow < 2^31
            c = np.concatenate([np.zeros(1, dtype=np.uint64), np.cumsum(w)])
            s = (c[L:] - c[: n - L + 1]) % M  # docs < 2^32 chars (cumsum headroom)
            hs.append(s * self.pow_b[i][L - 1 : n] % M)
        return hs[0] * np.uint64(_SUBH[1][0]) + hs[1]  # < 2^62

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, keys, poss = [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            k = self._doc_keys(t or "")
            if len(k):
                ids.append(np.full(len(k), doc_id, dtype=np.int64))
                keys.append(k)
                poss.append(np.arange(len(k), dtype=np.int32))
        if not ids:
            return pa.table(
                {
                    "key": pa.array([], type=pa.uint64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "pos": pa.array([], type=pa.int32()),
                }
            )
        return pa.table(
            {
                "key": pa.array(np.concatenate(keys), type=pa.uint64()),
                "doc_id": pa.array(np.concatenate(ids), type=pa.int64()),
                "pos": pa.array(np.concatenate(poss), type=pa.int32()),
            }
        )


def substring_dup_stats(ds, min_len: int = 25, n_parts: int | None = None):
    """Corpus-level exact duplicate-substring census — the suffix-array
    dedup of Lee et al. 2022 ("Deduplicating Training Data Makes Language
    Models Better", arXiv:2107.06499) re-expressed for Ray Data: a
    character position is DUPLICATED when the `min_len`-codepoint gram
    starting there occurs at >= 2 positions anywhere in the corpus (other
    documents or self-repeats; the paper counts both).  Per document it
    reports total grams, duplicated grams, and the characters covered by
    at least one duplicated gram (the paper's removable-span mass).

    Shape: `_GramHashStage` (actor pool; power tables are actor state)
    emits one 20-byte (key, doc_id, pos) row per corpus character — the
    same O(n) exchange the suffix-array build pays, never the text.  Keys
    hash-route to `n_parts` partitions; one vectorized sort per partition
    marks keys seen >= 2 times; the surviving positions re-route BY DOC in
    a tagged union with the per-doc base stats, where span coverage falls
    out of the equal-length-interval identity
        union = L + sum(min(L, pos[i] - pos[i-1]))
    — one sort + reduceat per partition, no interval loop.  Gram equality
    is 62-bit double-rolling-hash equality (birthday argument as
    exact_duplicates: < 2^30 corpus grams keep collision odds < 1e-4).

    Output: (doc_id, n_chars, n_grams, n_dup_grams, dup_chars), one row
    per document, including zero-duplicate docs."""
    import pyarrow.compute as pc

    L = min_len
    # shuffle width tracks corpus size (same rationale as
    # _adaptive_pair_parts: a 32-way sort of a toy corpus pays fixed
    # per-task scheduling for no parallelism win); explicit n_parts wins.
    # grams-per-doc >> 1, so bias the width up vs the pair heuristic.
    n_parts = (
        n_parts
        if n_parts is not None
        else max(_adaptive_pair_parts(ds, None), 16)
    )

    grams = ds.select_columns(["doc_id", "text"]).map_batches(
        _GramHashStage,
        fn_constructor_args=(L,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(1, 8),
    )

    def _dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_id": [], "pos": [], "n_chars": [], "n_grams": []}
        ).astype(
            {"doc_id": "int64", "pos": "int32", "n_chars": "int64", "n_grams": "int64"}
        )
        if not len(g):
            return empty
        key = g["key"].to_numpy(dtype=np.uint64)
        order = np.argsort(key, kind="mergesort")
        sk = key[order]
        starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
        sizes = np.diff(np.r_[starts, len(sk)])
        dup = np.repeat(sizes >= 2, sizes)
        sel = order[dup]
        if not len(sel):
            return empty
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy()[sel].astype("int64"),
                "pos": g["pos"].to_numpy()[sel].astype("int32"),
                "n_chars": np.zeros(len(sel), dtype=np.int64),
                "n_grams": np.zeros(len(sel), dtype=np.int64),
            }
        )

    def _base(batch: pa.Table) -> pa.Table:
        n_chars = pc.fill_null(
            pc.utf8_length(batch.column("text")), 0
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": pa.array(doc, type=pa.int64()),
                "pos": pa.array(
                    np.full(len(doc), -1, dtype=np.int32), type=pa.int32()
                ),
                "n_chars": pa.array(n_chars, type=pa.int64()),
                "n_grams": pa.array(
                    np.maximum(n_chars - L + 1, 0), type=pa.int64()
                ),
            }
        )

    # side 0 = per-doc base stats, side 1 = dup positions: one doc-routed
    # reduce merges both without a join
    sides = [
        ds.select_columns(["doc_id", "text"]).map_batches(
            _base, batch_format="pyarrow", zero_copy_batch=True
        ),
        routed_reduce(grams, ["key"], n_parts, _dup_positions),
    ]

    def _census(g: pd.DataFrame) -> pd.DataFrame:
        out_empty = pd.DataFrame(
            {
                "doc_id": [],
                "n_chars": [],
                "n_grams": [],
                "n_dup_grams": [],
                "dup_chars": [],
            }
        ).astype("int64")
        if not len(g):
            return out_empty
        basef = g[g["side"] == 0]
        dupf = g[g["side"] == 1]
        doc = dupf["doc_id"].to_numpy(dtype=np.int64)
        pos = dupf["pos"].to_numpy(dtype=np.int64)
        order = np.lexsort((pos, doc))
        doc, pos = doc[order], pos[order]
        first = np.r_[True, doc[1:] != doc[:-1]]
        starts = np.flatnonzero(first)
        gap = np.empty(len(pos), dtype=np.int64)
        if len(pos):
            gap[0] = L
            gap[1:] = np.minimum(pos[1:] - pos[:-1], L)
            gap[first] = L
        n_dup = np.diff(np.r_[starts, len(doc)])
        cover = np.add.reduceat(gap, starts) if len(pos) else np.empty(0, np.int64)
        agg = pd.DataFrame(
            {
                "doc_id": doc[starts] if len(pos) else np.empty(0, np.int64),
                "n_dup_grams": n_dup if len(pos) else np.empty(0, np.int64),
                "dup_chars": cover,
            }
        )
        out = basef[["doc_id", "n_chars", "n_grams"]].merge(
            agg, on="doc_id", how="left"
        )
        out[["n_dup_grams", "dup_chars"]] = (
            out[["n_dup_grams", "dup_chars"]].fillna(0).astype("int64")
        )
        return out.astype("int64")

    return routed_reduce(sides, ["doc_id"], n_parts, _census)


def drop_duplicate_substrings(
    ds, min_len: int = 25, n_parts: int | None = None
):
    """Duplicate-substring REMOVAL — the apply step of the suffix-array
    dedup (Lee et al. 2022 §4.1 remove all but one occurrence of any
    duplicated span): every occurrence of a duplicated `min_len`-gram
    EXCEPT the corpus-wide first (smallest (doc_id, pos)) is cut; a
    character survives iff no removed gram covers it.  Overlapping
    removed grams merge into one span, so the removable mass equals
    `substring_dup_stats`' coverage minus the kept-first spans.  The
    kept first occurrence can still lose characters to a DIFFERENT
    key's removed span overlapping it — the paper's policy has the same
    property (removal is by span union, not by key).

    Shape: the census' `_GramHashStage` exchange (20 bytes per corpus
    character, never the text), except the per-key pass keeps positions
    of dup keys MINUS each key's (doc_id, pos)-first — a key's rows all
    land in one hash partition, so "corpus-wide first" is a partition-
    local head row.  Marked positions re-route BY DOC in a tagged union
    with the texts; per doc one interval-difference cumsum builds the
    covered mask and the survivors re-encode from the utf-32 view (no
    per-character Python).

    Output: (doc_id, text, n_removed) — text with the spans cut,
    n_removed = characters deleted; one row per input document."""
    L = min_len
    n_parts = (
        n_parts
        if n_parts is not None
        else max(_adaptive_pair_parts(ds, None), 16)
    )

    grams = ds.select_columns(["doc_id", "text"]).map_batches(
        _GramHashStage,
        fn_constructor_args=(L,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(1, 8),
    )

    def _marked(g: pd.DataFrame):
        # typed ARROW empty: a zero-row pandas frame with an `object`
        # text column converts to a null-typed (schema-less) block and
        # defeats the executor's schema dedup (r04 bench-tail warnings)
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int32()),
                "text": pa.array([], type=pa.string()),
            }
        )
        if not len(g):
            return empty
        key = g["key"].to_numpy(dtype=np.uint64)
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        pos = g["pos"].to_numpy(dtype=np.int64)
        order = np.lexsort((pos, doc, key))
        key, doc, pos = key[order], doc[order], pos[order]
        head = np.r_[True, key[1:] != key[:-1]]
        sizes = np.diff(np.r_[np.flatnonzero(head), len(key)])
        in_dup = np.repeat(sizes >= 2, sizes)
        mark = in_dup & ~head  # all but each dup key's (doc_id,pos)-first
        if not mark.any():
            return empty
        return pa.table(
            {
                "doc_id": pa.array(doc[mark], type=pa.int64()),
                "pos": pa.array(pos[mark].astype(np.int32), type=pa.int32()),
                # placeholder keeps the union schema string-typed
                "text": pa.array(
                    np.full(int(mark.sum()), "", dtype=object), type=pa.string()
                ),
            }
        )

    def _base(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pos": pa.array(
                    np.full(batch.num_rows, -1, dtype=np.int32),
                    type=pa.int32(),
                ),
                "text": batch.column("text"),
            }
        )

    sides = [
        ds.select_columns(["doc_id", "text"]).map_batches(
            _base, batch_format="pyarrow", zero_copy_batch=True
        ),
        routed_reduce(grams, ["key"], n_parts, _marked),
    ]

    def _cut(g: pd.DataFrame):
        if not len(g):
            # typed ARROW empty (see _marked)
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "text": pa.array([], type=pa.string()),
                    "n_removed": pa.array([], type=pa.int64()),
                }
            )
        basef = g[g["pos"] == -1]
        dupf = g[g["pos"] >= 0]
        pos_by_doc = (
            {
                d: sub["pos"].to_numpy(dtype=np.int64)
                for d, sub in dupf.groupby("doc_id")
            }
            if len(dupf)
            else {}
        )
        rows_id, rows_text, rows_rm = [], [], []
        for d, t in zip(
            basef["doc_id"].to_numpy(dtype=np.int64), basef["text"]
        ):
            t = t or ""
            ps = pos_by_doc.get(d)
            if ps is None or not len(ps):
                rows_id.append(d)
                rows_text.append(t)
                rows_rm.append(0)
                continue
            cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            n = len(cp)
            diff = np.zeros(n + 1, dtype=np.int64)
            np.add.at(diff, ps, 1)
            np.add.at(diff, np.minimum(ps + L, n), -1)
            covered = np.cumsum(diff[:n]) > 0
            kept = cp[~covered]
            rows_id.append(d)
            rows_text.append(kept.tobytes().decode("utf-32-le"))
            rows_rm.append(int(covered.sum()))
        return pa.table(
            {
                "doc_id": pa.array(np.array(rows_id, dtype=np.int64), type=pa.int64()),
                "text": pa.array(rows_text, type=pa.string()),
                "n_removed": pa.array(
                    np.array(rows_rm, dtype=np.int64), type=pa.int64()
                ),
            }
        )

    return routed_reduce(sides, ["doc_id"], n_parts, _cut)


def bloom_dedup_census(
    ds,
    chunk_words: int = 20,
    unit_sep: str | None = None,
    n_bits: int = 1 << 20,
    k: int = 4,
    n_parts: int = 32,
):
    """Bloom-filter dedup census — the BFF pattern (a Bloom filter in
    front of the corpus, as in Dolma's paragraph dedup; Bloom 1970,
    Kirsch-Mitzenmacher 2006 double hashing) made distributed and
    deterministic.  Units are fixed `chunk_words`-word windows (or
    `unit_sep`-separated segments when given); a unit counts as a
    BLOOM-duplicate when all `k` of its bits were set by a unit EARLIER
    in the global (doc_id, unit_idx) order.  The census reports the
    exact duplicate count next to the Bloom count so the false-positive
    cost is observable per document (bloom >= exact always).

    Shape: content-hash routing shards the filter — equal units
    co-locate, so exactness of true-duplicate detection is preserved and
    each of the `n_parts` shards is an INDEPENDENT Bloom of `n_bits`
    (FP probability is that of n/P inserts into n_bits, better than one
    global filter).  Inside a shard the sequential check-then-insert
    semantics vectorize exactly via the earliest-bit-producer identity:
    unit u at position p is a Bloom-dup iff every bit of u was first
    produced at a position < p — one groupby-min over (bit, pos) rows,
    no per-unit loop.

    Output: (doc_id, n_units, n_dup_units, n_bloom_dup_units)."""

    def _units(batch: pa.Table) -> pa.Table:
        import hashlib

        ids_out, idx_out, his, los = [], [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if unit_sep is not None:
                units = (t or "").split(unit_sep)
            else:
                w = (t or "").split()
                units = [
                    " ".join(w[ci * chunk_words : (ci + 1) * chunk_words])
                    for ci in range(-(-len(w) // chunk_words))
                ]
            for ci, u in enumerate(units):
                d = hashlib.blake2b(u.encode("utf-8"), digest_size=16).digest()
                his.append(int.from_bytes(d[:8], "big", signed=True))
                los.append(int.from_bytes(d[8:], "big", signed=True))
                ids_out.append(doc_id)
                idx_out.append(ci)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, type=pa.int64()),
                "unit_idx": pa.array(idx_out, type=pa.int64()),
                "hash_hi": pa.array(his, type=pa.int64()),
                "hash_lo": pa.array(los, type=pa.int64()),
            }
        )

    NB = np.uint64(n_bits)

    def _shard_census(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_id": [], "n_units": [], "n_dup": [], "n_bloom": []}
        ).astype("int64")
        if not len(g):
            return empty
        g = g.sort_values(["doc_id", "unit_idx"], kind="mergesort")
        hi = g["hash_hi"].to_numpy(dtype=np.int64).view(np.uint64)
        lo = g["hash_lo"].to_numpy(dtype=np.int64).view(np.uint64)
        n = len(hi)
        # exact duplicates-of-earlier in global order (content routing
        # makes shard-local == global for equal units)
        exact = pd.DataFrame({"hi": hi, "lo": lo}).duplicated(keep="first")
        exact = exact.to_numpy()
        # Kirsch-Mitzenmacher: bit_j = (hi + j*lo) mod n_bits
        j = np.arange(k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            bits = (hi[:, None] + j[None, :] * lo[:, None]) % NB  # (n, k)
        pos = np.repeat(np.arange(n, dtype=np.int64), k)
        flat = bits.ravel()
        order = np.lexsort((pos, flat))
        fb, fp = flat[order], pos[order]
        starts = np.flatnonzero(np.r_[True, fb[1:] != fb[:-1]])
        first_pos = fp[starts]  # earliest producer per distinct bit
        # map every (unit, j) bit back to its earliest producer
        idx = np.searchsorted(fb[starts], bits.ravel())
        bloom = (first_pos[idx].reshape(n, k) < np.arange(n)[:, None]).all(
            axis=1
        )
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        dstart = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
        return pd.DataFrame(
            {
                "doc_id": doc[dstart],
                "n_units": np.diff(np.r_[dstart, n]).astype("int64"),
                "n_dup": np.add.reduceat(exact.astype(np.int64), dstart),
                "n_bloom": np.add.reduceat(bloom.astype(np.int64), dstart),
            }
        )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        doc = g["doc_id"].to_numpy()
        order = np.argsort(doc, kind="mergesort")
        sdoc = doc[order]
        starts = np.flatnonzero(np.r_[True, sdoc[1:] != sdoc[:-1]])
        return pd.DataFrame(
            {
                "doc_id": sdoc[starts].astype("int64"),
                "n_units": np.add.reduceat(
                    g["n_units"].to_numpy()[order], starts
                ).astype("int64"),
                "n_dup_units": np.add.reduceat(
                    g["n_dup"].to_numpy()[order], starts
                ).astype("int64"),
                "n_bloom_dup_units": np.add.reduceat(
                    g["n_bloom"].to_numpy()[order], starts
                ).astype("int64"),
            }
        )

    units = ds.select_columns(["doc_id", "text"]).map_batches(
        _units, batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    )
    # one Bloom shard per reduce partition of the unit's content hash
    census = routed_reduce(units, ["hash_hi"], n_parts, _shard_census)
    return routed_reduce(census, ["doc_id"], n_parts, _merge)


def _dedup_unit_engine(ds, split_units, unit_sep, n_parts, broadcast_threshold):
    """Shared global-first unit-dedup machinery (drop_duplicate_chunks /
    dedup_paragraphs): `split_units(text)` yields (key, original) pairs —
    key None means the unit never participates in dedup (always kept);
    otherwise every occurrence of a key except the globally FIRST
    (smallest (doc_id, unit_idx)) is dropped, and each doc's text is
    rebuilt as `unit_sep`.join of its kept ORIGINAL units in order.

    Shape: census emits one 16-byte-hash row per participating unit,
    hash-routed so equal keys co-locate (vectorized duplicated() per
    partition); text never enters the shuffle.  Rebuild routing is
    regime-gated like every dedup family here: drop set <= threshold ->
    broadcast dict read once per task; above -> per-doc drop lists
    aggregate distributed and LEFT OUTER hash-join the corpus."""
    import ray
    import ray.data as rd

    def _units(batch: pa.Table) -> pa.Table:
        ids_out, idx_out, his, los = [], [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for ui, (key, _orig) in enumerate(split_units(t or "")):
                if key is None:
                    continue
                d = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
                his.append(int.from_bytes(d[:8], "big", signed=True))
                los.append(int.from_bytes(d[8:], "big", signed=True))
                ids_out.append(doc_id)
                idx_out.append(ui)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, type=pa.int64()),
                "chunk_idx": pa.array(idx_out, type=pa.int64()),
                "hash_hi": pa.array(his, type=pa.int64()),
                "hash_lo": pa.array(los, type=pa.int64()),
            }
        )

    def _drops(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["hash_hi", "hash_lo", "doc_id", "chunk_idx"], kind="mergesort"
        )
        dup = g.duplicated(["hash_hi", "hash_lo"], keep="first")
        return g.loc[dup, ["doc_id", "chunk_idx"]].astype(
            {"doc_id": "int64", "chunk_idx": "int64"}
        )

    units = ds.map_batches(_units, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)
    drops = routed_reduce(units, ["hash_hi"], n_parts, _drops).materialize()

    def _rebuild_tbl(batch: pa.Table, drop_of) -> pa.Table:
        ids_out, texts, ndrop = [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            units = split_units(t or "")
            if not units:
                continue
            bad = drop_of(doc_id)
            kept = [orig for ui, (_k, orig) in enumerate(units) if ui not in bad]
            if not kept:
                continue
            ids_out.append(doc_id)
            texts.append(unit_sep.join(kept))
            ndrop.append(len(bad))
        return pa.table(
            {
                "doc_id": pa.array(ids_out, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
                "n_dropped": pa.array(ndrop, type=pa.int64()),
            }
        )

    n_drops = drops.count()
    if n_drops <= broadcast_threshold:
        df = drops.to_pandas() if n_drops else pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "chunk_idx": pd.Series([], dtype="int64")}
        )
        by_doc: dict[int, frozenset] = {
            int(d): frozenset(int(i) for i in g["chunk_idx"])
            for d, g in df.groupby("doc_id")
        }
        ref = ray.put(by_doc)

        def _rebuild_bcast(batch: pa.Table) -> pa.Table:
            m = ray.get(ref)
            return _rebuild_tbl(batch, lambda did: m.get(did, frozenset()))

        return ds.map_batches(_rebuild_bcast, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=2048)

    # distributed regime: per-doc drop lists join the corpus by doc_id
    def _pack(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": [int(g["doc_id"].iloc[0])],
                "drop_csv": [",".join(map(str, sorted(g["chunk_idx"])))],
            }
        )

    per_doc = drops.groupby("doc_id").map_groups(_pack, batch_format="pandas")
    jp = join_parts()
    joined = ds.join(per_doc, "left_outer", jp, on=("doc_id",))

    def _rebuild_joined(batch: pa.Table) -> pa.Table:
        csvs = batch.column("drop_csv").to_pylist()
        sets = [
            frozenset(int(x) for x in c.split(",")) if c else frozenset()
            for c in csvs
        ]
        by_row = dict(zip(batch.column("doc_id").to_pylist(), sets))
        return _rebuild_tbl(batch, lambda did: by_row.get(did, frozenset()))

    return joined.map_batches(_rebuild_joined, batch_format="pyarrow")


def drop_duplicate_chunks(
    ds,
    chunk_words: int = 20,
    n_parts: int = 32,
    broadcast_threshold: int = 100_000,
):
    """C4-style duplicated-span REMOVAL (Raffel et al. 2020 §2.2 — they
    drop all but one occurrence of any repeated three-sentence span; here
    the span is a fixed `chunk_words`-word window, the same chunking as
    `chunk_dedup_stats`): every chunk occurrence except the globally
    FIRST (smallest (doc_id, chunk_idx)) of its content is dropped, and
    each document's text is rebuilt as the space-join of its kept chunks
    in order.

    Output: (doc_id, text, n_dropped) — one row per doc that keeps >= 1
    chunk (docs with no tokens, or whose every chunk duplicates an earlier
    one, are removed from the corpus).  Whitespace NORMALIZES to single
    spaces (output tokens == kept chunk tokens) so the rule — and the SQL
    oracle — is uniform across touched and untouched docs.

    Built on _dedup_unit_engine (see its docstring for the at-scale
    routing); the unit key IS the chunk content."""

    def _split(t: str):
        w = t.split()
        return [
            (" ".join(w[ci * chunk_words : (ci + 1) * chunk_words]),) * 2
            for ci in range(0, -(-len(w) // chunk_words))
        ]

    return _dedup_unit_engine(ds, _split, " ", n_parts, broadcast_threshold)


def _ccnet_norm(s: str) -> str:
    """The paragraph-dedup key normalization (Wenzek 2020 §4.1 hash
    lowercase+accent-stripped text before dedup): NFD minus combining
    marks -> NFC -> lower -> ASCII-whitespace collapse + trim — the same
    chain as text_analysis.normalize_text(accents=True)."""
    import unicodedata

    s = "".join(
        ch for ch in unicodedata.normalize("NFD", s) if not unicodedata.combining(ch)
    )
    s = unicodedata.normalize("NFC", s).lower()
    return _WS_RUN.sub(" ", s).strip()


_WS_RUN = re.compile(r"\s+", re.ASCII)


def dedup_paragraphs(
    ds,
    n_parts: int = 32,
    broadcast_threshold: int = 100_000,
):
    """CCNet-style paragraph dedup (Wenzek et al. 2020 §4.1: drop
    duplicated paragraphs corpus-wide, comparing NORMALIZED text but
    keeping the original bytes of the surviving occurrence): paragraphs
    are newline-separated; a paragraph whose normalized form is EMPTY
    (blank/whitespace line) never participates and is always kept; every
    other occurrence of a normalized key except the globally FIRST
    (smallest (doc_id, paragraph_idx)) is dropped; docs rebuild as the
    newline-join of their kept ORIGINAL paragraphs (docs whose every
    paragraph drops are removed).

    Output: (doc_id, text, n_dropped).  Built on _dedup_unit_engine —
    same census shuffle + regime-gated rebuild as drop_duplicate_chunks."""

    def _split(t: str):
        return [(_ccnet_norm(p) or None, p) for p in t.split("\n")]

    return _dedup_unit_engine(ds, _split, "\n", n_parts, broadcast_threshold)
