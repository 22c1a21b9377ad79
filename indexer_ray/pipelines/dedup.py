"""Deduplication family over a documents table (doc_id, text, ...).

Large-scale training-data operators, Ray-Data-first (the reference engine has
only exact path-keyed identity, SURVEY.md §2.7/A4):

  * exact_duplicates        — content-hash partition + per-group first-wins
  * minhash_pairs_ds        — shingle -> minhash -> banded LSH buckets ->
                              candidate pairs -> exact Jaccard verification
  * simhash_pairs_ds        — 64-bit simhash, 4x16-bit band blocking,
                              Hamming verification
  * embedding_pairs_ds      — multi-table random-hyperplane LSH over an
                              embedding column, cosine verification
                              (`embedding_pairs_brute` is the exact
                              all-pairs reference)
  * winnow_pairs_ds         — winnowing fingerprints (Schleimer et al.
                              2003): substring-overlap detection — any
                              shared token run >= w+k-1 yields a shared
                              fingerprint
  * cross_corpus_overlap_ds — the same fingerprints, pairs across a corpus
                              and a probe set only (decontamination)

Shuffle discipline: every operator pre-reduces inside `map_batches` (one
signature/hash row per doc) before its single routed shuffle; candidate
pairs are verified AFTER blocking, so the quadratic step only ever runs
inside a bucket.  Buckets larger than `max_bucket` contribute no pairs and
are reported in a `truncated` counter row instead of silently exploding
(no-silent-caps rule).

One pair pipeline serves the five `*_pairs_ds` families:
  * `_bucket_pairs` walks the LSH buckets of one reduce partition; each
    family passes only its per-bucket pair emitter;
  * `_dedup_pairs_regime` merges pairs found in several buckets or
    partitions by one `_PairSpec` (key columns, one value column with a
    min / max / sum reducer): a driver pandas pass up to
    `broadcast_pairs_threshold` rows, a distributed groupby above it;
  * `_jaccard_ds` is minhash's and `ngram_jaccard_pairs`' one exact-Jaccard
    verify: the needed-doc set goes through the same dedup regime and the
    corpus meets it in `regime_join` (broadcast up to the threshold, hash
    join above), so above the threshold no pair touches the driver.
Every family returns a Dataset with its four documented columns, empty
input included: at 100 TB (~10^9-10^10 near-dup pairs) write it out,
`minhash_pairs_ds(ds).write_parquet(p)`; `pairs_frame` collects a
driver-sized one as a sorted pandas frame.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

from indexer_ray.conformance.lexer import tokenize_plain
from indexer_ray.stages.shuffle import (
    driver_table,
    join_parts,
    regime_join,
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
    return int(np.clip(ds.count() // 256, 8, _PAIR_PARTITIONS))


#: Up to this many rows, a pair dedup runs as one driver-side pandas pass
#: and the Jaccard verify broadcasts its needed-doc set; above it both are
#: distributed (groupby, hash join) and the driver holds no pair row.
BROADCAST_PAIRS_THRESHOLD = 100_000


class _PairSpec(NamedTuple):
    """How pair rows sharing a key merge into one, for the Ray aggregate,
    the pandas pass and the empty table alike: the first two columns of
    `schema` are the key, `value` merges by `reduce` ("min", "max" or
    "sum"), every other column (the `truncated` counter) sums, and a
    truncation counter row carries `fill` as its value."""

    schema: pa.Schema
    value: str
    reduce: str = "sum"
    fill: int | float = 0

    @property
    def keys(self) -> list[str]:
        return self.schema.names[:2]

    def _how(self) -> dict[str, str]:
        return {
            c: self.reduce if c == self.value else "sum"
            for c in self.schema.names[2:]
        }

    def aggregates(self) -> list:
        from ray.data.aggregate import Max, Min, Sum

        fns = {"min": Min, "max": Max, "sum": Sum}
        return [fns[how](c, alias_name=c) for c, how in self._how().items()]

    def merge(self, df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(self.keys, as_index=False).agg(
            **{c: (c, how) for c, how in self._how().items()}
        )


def _pair_spec(
    a: str,
    b: str,
    value: str,
    reduce: str = "sum",
    dtype: pa.DataType = pa.int64(),
    fill: int | float = 0,
) -> _PairSpec:
    """Spec of a pair family's output (a, b, value, truncated)."""
    schema = pa.schema(
        [(a, pa.int64()), (b, pa.int64()), (value, dtype), ("truncated", pa.int64())]
    )
    return _PairSpec(schema, value, reduce, fill)


#: minhash and winnow: n_shared = buckets (bands, fingerprints) in common
_SHARED = _pair_spec("doc_a", "doc_b", "n_shared")


def _dedup_pairs_regime(raw, spec: _PairSpec, threshold: int):
    """Cross-partition pair dedup with a size regime: the raw pair rows are
    materialized (object-store blocks, never the driver heap) and counted
    (metadata-only).  Above `threshold` rows the dedup is a DISTRIBUTED
    groupby — pairs never touch the driver; below it, one driver-side
    pandas pass replaces a whole shuffle stage (a sort-shuffle of a
    ~250-row pair set measures ~1.6 s of pure fixed task scheduling).
    Both merge by `spec`.  Returns a materialized/in-memory Dataset either
    way, so downstream count()/to_pandas()/map_batches never re-execute
    the upstream chain."""
    import ray.data as rd

    raw = raw.materialize()
    if raw.count() > threshold:
        return raw.groupby(spec.keys).aggregate(*spec.aggregates()).materialize()
    df = driver_table(raw).to_pandas()
    if df.empty:
        return rd.from_arrow(spec.schema.empty_table())
    return rd.from_arrow(
        pa.Table.from_pandas(spec.merge(df), preserve_index=False).cast(spec.schema)
    )


def _bucket_pairs(
    g: pd.DataFrame,
    bucket: list[str],
    within: list[str],
    max_bucket: int,
    spec: _PairSpec,
    pairs,
) -> pd.DataFrame:
    """The LSH bucket walk of every pair family, over one reduce partition:
    rows sort by `bucket + within` and repeated rows drop; each run of
    equal `bucket` values is one bucket and `within[-1]` holds the ids.
    A bucket of one row pairs nothing, and one of more than `max_bucket`
    rows is counted instead of paired (no silent caps).  `pairs(g)`
    returns the family's emitter `emit(s, e) -> (rows_a, rows_b, values)`
    for the bucket at rows s:e of the sorted `g`.  Returns the pairs
    merged by `spec` (a, b, value, truncated=0), plus one counter row
    (-1, -1, spec.fill, rows of the skipped buckets) if any was skipped."""
    cols = bucket + within
    g = g.sort_values(cols).drop_duplicates(cols)
    n = len(g)
    new = np.logical_or.reduce(
        [np.r_[True, k[1:] != k[:-1]] for k in (g[c].to_numpy() for c in bucket)]
    )
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, n])
    paired = (sizes >= 2) & (sizes <= max_bucket)
    skipped = sizes[(sizes >= 2) & (sizes > max_bucket)]
    dtype = spec.schema.field(spec.value).type.to_pandas_dtype()
    rows_a, rows_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    vals = [np.empty(0, dtype)]
    emit = pairs(g) if paired.any() else None
    for s, size in zip(starts[paired], sizes[paired]):
        ra, rb, v = emit(s, s + size)
        rows_a.append(ra)
        rows_b.append(rb)
        vals.append(v)
    rows_a, rows_b = np.concatenate(rows_a), np.concatenate(rows_b)
    ids = g[within[-1]].to_numpy()
    c = int(len(skipped) > 0)  # the counter row, if any bucket was skipped
    a, b = spec.keys
    df = pd.DataFrame(
        {
            a: np.r_[ids[rows_a], [-1] * c].astype(np.int64),
            b: np.r_[ids[rows_b], [-1] * c].astype(np.int64),
            spec.value: np.r_[np.concatenate(vals), [spec.fill] * c].astype(dtype),
            "truncated": np.r_[np.zeros(len(rows_a)), [skipped.sum()] * c].astype(np.int64),
        }
    )
    return spec.merge(df)


def _all_pairs(g: pd.DataFrame):
    """Emitter pairing every two rows of a bucket, each pair counting one
    shared bucket (minhash bands, winnow fingerprints)."""

    def emit(s: int, e: int):
        ia, ib = np.triu_indices(e - s, k=1)
        return s + ia, s + ib, np.ones(len(ia), dtype=np.int64)

    return emit


def _at_least_shared(counted, min_shared: int):
    """Pairs sharing >= `min_shared` fingerprints, and the counter row, of
    a materialized pair Dataset (winnow, cross-corpus).  An empty one is
    returned as it is: a map over no rows would drop its schema."""
    import pyarrow.compute as pc

    if counted.count() == 0:
        return counted

    def _keep(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.or_(
                pc.greater(t.column("truncated"), 0),
                pc.greater_equal(t.column("n_shared"), min_shared),
            )
        )

    return counted.map_batches(_keep, batch_format="pyarrow")


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

#: the verify's needed-doc set: refs = pairs of the part citing the doc
_NEEDED = _PairSpec(
    pa.schema([("doc_id", pa.int64()), ("part", pa.int32()), ("refs", pa.int64())]),
    "refs",
)


def _jaccard_ds(ds, pairs, shingle_k: int, threshold: int):
    """Exact shingle-set Jaccard of every (doc_a, doc_b) row of the pair
    Dataset `pairs` over the corpus `ds` (doc_id, text); counter rows
    (doc_a < 0) and other columns are ignored:

      pair rows : part = hash(doc_a, doc_b) % n_parts
      needed    : distinct (doc_id, part) references, deduped by
                  `_dedup_pairs_regime` (a doc in many pairs ships its
                  text <= n_parts times)
      corpus ⋈ needed on doc_id — `regime_join` inner: needed broadcast
                  up to `threshold` rows, hash join above
      shingle stage -> (part, doc_id, shingles), only for candidate docs
      union(pair rows, shingle rows) -> groupby(part) -> vectorized verify

    Above `threshold` rows the driver holds no pair.  Pairs whose docs are
    absent from the corpus score 0.  Returns a DATASET of (doc_a, doc_b,
    jaccard), one row per input pair row."""
    import pyarrow.compute as pc
    import ray.data as rd

    pairs = pairs.materialize()
    n_pairs = pairs.count()  # metadata-only once materialized
    if n_pairs == 0:
        return rd.from_arrow(_EMPTY_JACCARD_TABLE)
    # >= 64 pairs per part: a small candidate set pays no 64-way shuffle
    n_parts = int(np.clip(n_pairs // 64, 4, _PAIR_PARTITIONS))
    shingle_list = pa.list_(pa.uint64())

    def _pair_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater_equal(batch.column("doc_a"), 0))
        n = batch.num_rows
        return pa.table(
            {
                "part": pa.array(route_parts(batch, ["doc_a", "doc_b"], n_parts)),
                "doc_a": batch.column("doc_a").cast(pa.int64()),
                "doc_b": batch.column("doc_b").cast(pa.int64()),
                "doc_id": pa.array(np.full(n, -1, dtype=np.int64), type=pa.int64()),
                "shingles": pa.array([[]] * n, type=shingle_list),
            }
        )

    pair_rows = pairs.map_batches(
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
                "refs": pa.array(np.ones(2 * batch.num_rows, dtype=np.int64)),
            }
        )

    needed = _dedup_pairs_regime(
        pair_rows.map_batches(_doc_refs, batch_format="pyarrow"), _NEEDED, threshold
    )
    joined = regime_join(
        ds.select_columns(["doc_id", "text"]), needed, "doc_id", "inner", threshold
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
    Consume with write_parquet / iter_batches / count, or `pairs_frame`
    when the caller knows the output is small.

    Output columns (doc_a, doc_b, jaccard, truncated):
      * real pairs — doc_a < doc_b, truncated == 0, jaccard = exact
        shingle-set Jaccard >= `jaccard_threshold` (NaN when verify=False);
      * counter row — doc_a == doc_b == -1, truncated = total banded-bucket
        rows covered by oversized skipped buckets (no-silent-caps; absent
        when nothing was truncated).

    Cross-band pair dedup (`_dedup_pairs_regime`) and the verify join
    (`_jaccard_ds`) each run on the driver up to
    `broadcast_pairs_threshold` rows and distributed above it, where the
    pair set never touches the driver."""
    import pyarrow.compute as pc
    import ray.data as rd

    P = _adaptive_pair_parts(ds, n_parts)
    sigs = ds.map_batches(
        MinHashStage,
        fn_constructor_args=(num_perm, bands, shingle_k),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=2048,
        concurrency=(1, 8),
    )
    raw_pairs = routed_reduce(
        sigs,
        _BUCKET_KEY,
        P,
        lambda g: _bucket_pairs(g, _BUCKET_KEY, ["doc_id"], max_bucket, _SHARED, _all_pairs),
    )
    cand = _dedup_pairs_regime(raw_pairs, _SHARED, broadcast_pairs_threshold)
    if cand.count() == 0:  # metadata-only on a materialized dataset
        return rd.from_arrow(_as_pair_output(_EMPTY_JACCARD_TABLE, "jaccard"))
    counters = cand.map_batches(
        lambda t: _as_pair_output(_split_by_truncated(t, True), "jaccard"),
        batch_format="pyarrow",
    )
    if not verify:
        out = cand.map_batches(
            lambda t: _as_pair_output(_split_by_truncated(t, False), "jaccard"),
            batch_format="pyarrow",
        )
        return out.union(counters)
    ver = _jaccard_ds(ds, cand, shingle_k, broadcast_pairs_threshold)
    out = ver.map_batches(
        lambda t: _as_pair_output(
            t, "jaccard", pc.greater_equal(t.column("jaccard"), jaccard_threshold)
        ),
        batch_format="pyarrow",
    )
    return out.union(counters)


def pairs_frame(ds, value_col: str) -> pd.DataFrame:
    """A driver-sized pair Dataset of any family as a pandas frame (the
    two id columns, `value_col`) sorted by the ids.  The truncation counter
    row is dropped after a WARNING that names the rows it covers."""
    out = driver_table(ds).to_pandas()
    a, b = out.columns[:2]
    truncated = int(out.loc[out["truncated"] > 0, "truncated"].sum())
    if truncated:
        print(
            f"[pairs_frame] WARNING: skipped buckets covering {truncated} rows (> max_bucket)"
        )
    pairs = out[out["truncated"] == 0][[a, b, value_col]]
    return pairs.sort_values([a, b]).reset_index(drop=True)


def ngram_jaccard_pairs(
    ds,
    pairs=None,
    shingle_k: int = 3,
    threshold: float = 0.0,
    max_bucket: int = 2000,
) -> pd.DataFrame:
    """Exact n-gram (k-shingle) Jaccard for given candidate pairs — or, when
    ``pairs`` is None, for MinHash-LSH candidates (blocking first, so the
    quadratic step never touches the full corpus).  ``pairs`` is a pandas
    frame or a Ray DATASET of (doc_a, doc_b), counter rows (doc_a < 0)
    allowed; both forms verify through `_jaccard_ds`, so huge
    externally-computed candidate sets verify without touching the
    driver.  Output: (doc_a, doc_b, jaccard) with jaccard >= threshold,
    one row per distinct pair."""
    import ray.data as rd

    if pairs is None:
        return pairs_frame(
            minhash_pairs_ds(
                ds, shingle_k=shingle_k, jaccard_threshold=threshold, max_bucket=max_bucket
            ),
            "jaccard",
        )
    if isinstance(pairs, pd.DataFrame):
        pairs = rd.from_pandas(pairs)
    out = _jaccard_ds(ds, pairs, shingle_k, BROADCAST_PAIRS_THRESHOLD).to_pandas()
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
    truncated == 0; the counter row (doc_a == doc_b == -1, hamming -1)
    carries the total docs covered by oversized skipped buckets
    (no-silent-caps)."""
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

    def hamming_pairs(g: pd.DataFrame):
        hs = g["simhash"].to_numpy(dtype=np.uint64)

        def emit(s: int, e: int):
            ia, ib = np.triu_indices(e - s, k=1)
            ham = _popcount64(hs[s:e][ia] ^ hs[s:e][ib])
            m = ham <= max_hamming
            return s + ia[m], s + ib[m], ham[m]

        return emit

    # a pair found in several bands has one hamming (min picks it)
    spec = _pair_spec("doc_a", "doc_b", "hamming", "min", fill=-1)
    raw_pairs = routed_reduce(
        banded,
        _BUCKET_KEY,
        P,
        lambda g: _bucket_pairs(g, _BUCKET_KEY, ["doc_id"], max_bucket, spec, hamming_pairs),
    )
    return _dedup_pairs_regime(raw_pairs, spec, broadcast_pairs_threshold)


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
    P = _adaptive_pair_parts(emb_ds, n_parts)

    def sign_keys(batch: pa.Table) -> pa.Table:
        from indexer_ray.pipelines.ann import _embedding_matrix, _normalize

        Xn = _normalize(_embedding_matrix(batch.column("embedding")))
        # every task draws the same planes: one seeded generator per dim
        planes = np.random.default_rng(seed).standard_normal(
            (n_tables, n_planes, Xn.shape[1])
        )
        keys = []
        for ti in range(n_tables):
            bits = (Xn @ planes[ti].T) > 0
            key = np.full(len(Xn), np.uint64(ti) << np.uint64(56), dtype=np.uint64)
            for j in range(bits.shape[1]):
                key |= bits[:, j].astype(np.uint64) << np.uint64(j)
            keys.append(key)
        return pa.table(
            {
                "vec_id": pa.array(
                    np.tile(batch.column("vec_id").to_numpy(zero_copy_only=False), n_tables)
                ),
                "bucket": pa.array(np.concatenate(keys), type=pa.uint64()),
                "embedding": pa.concat_arrays(
                    [batch.column("embedding").combine_chunks()] * n_tables
                ),
            }
        )

    bucketed = emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        sign_keys, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096
    )

    def cosine_pairs(g: pd.DataFrame):
        X = np.stack(g["embedding"].to_numpy())
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)

        def emit(s: int, e: int):
            sims = Xn[s:e] @ Xn[s:e].T
            ia, ib = np.triu_indices(e - s, k=1)
            m = sims[ia, ib] >= cosine_threshold
            return s + ia[m], s + ib[m], sims[ia, ib][m]

        return emit

    # a pair found in several tables has one cosine (max picks it)
    spec = _pair_spec("vec_a", "vec_b", "cosine", "max", pa.float64(), fill=0.0)
    raw_pairs = routed_reduce(
        bucketed,
        ["bucket"],
        P,
        lambda g: _bucket_pairs(g, ["bucket"], ["vec_id"], max_bucket, spec, cosine_pairs),
    )
    return _dedup_pairs_regime(raw_pairs, spec, broadcast_pairs_threshold)


def embedding_pairs_brute(emb_ds, cosine_threshold: float = 0.95) -> pd.DataFrame:
    """Exact all-pairs reference for `embedding_pairs_ds`: every pair with
    cosine >= threshold from one driver-side n x n matmul, as a pandas
    frame (vec_a, vec_b, cosine) with vec_a < vec_b — the recall baseline
    of the LSH path, for small inputs."""
    # sorted ids make vec_a < vec_b whatever order the blocks arrive in
    t = emb_ds.select_columns(["vec_id", "embedding"]).to_pandas().sort_values("vec_id")
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
    P = _adaptive_pair_parts(ds, n_parts)
    raw_pairs = routed_reduce(
        winnow_fingerprints(ds, k=k, w=w),
        ["fp"],
        P,
        lambda g: _bucket_pairs(g, ["fp"], ["doc_id"], max_bucket, _SHARED, _all_pairs),
    )
    counted = _dedup_pairs_regime(raw_pairs, _SHARED, broadcast_pairs_threshold)
    return _at_least_shared(counted, min_shared)


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

    def cross_pairs(g: pd.DataFrame):
        side = g["side"].to_numpy()

        def emit(s: int, e: int):
            # side-sorted within the bucket: corpus rows first, probe after
            m = s + int((side[s:e] == 0).sum())
            ii, jj = np.meshgrid(np.arange(s, m), np.arange(m, e), indexing="ij")
            return ii.ravel(), jj.ravel(), np.ones(ii.size, dtype=np.int64)

        return emit

    spec = _pair_spec("doc_id", "probe_id", "n_shared")
    raw = routed_reduce(
        sides,
        ["fp"],
        P,
        lambda g: _bucket_pairs(g, ["fp"], ["side", "doc_id"], max_bucket, spec, cross_pairs),
    )
    counted = _dedup_pairs_regime(raw, spec, broadcast_pairs_threshold)
    return _at_least_shared(counted, min_shared)


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
