"""Query engines over the partitioned index (rebuild of reference
tree.rs:388-465 `search` + lib.rs:92-100 `search_term`; SURVEY.md §2.6, §7.1 M4).

Two scorers sharing one decode path:
  * conformance TF-IDF — the reference formula exactly: idf = |ln(N/df)|,
    score += tf*idf accumulated in query-token order then doc_id order,
    score==0.0 dropped, ties broken (score desc, doc_id asc).  Duplicate
    query tokens: the reference's raw-token-list iteration in BOTH search
    passes (tree.rs:406-415, 419-449) inflates global_df to m*df and
    accumulates m^2 times — replicated in `_weights` (and in the spec
    scorer, conformance/scorer.py).
  * BM25 (k1=1.2, b=0.75, Lucene-style positive idf) — the engine-mode
    scorer named by the north rule; doc length comes from the posting
    payload (inlined norms), avgdl/N from the manifest.

Two kernels, both exact:
  * exhaustive — decode every matching posting list and sum each doc's
    contributions in term order (`_sum_runs`): a union whose doc-id span
    is at most `_DENSE_SPAN` times its postings is added run by run into
    one dense float array over the span (the reference's per-doc
    accumulator, tree.rs:418/445-449), any other union — sparse, or
    hash-assigned ids — is merged by a stable argsort and summed with
    ``np.bincount``.  Both add each doc's contributions into 0.0 in term
    order, so they agree bit for bit; the dense array's 9 B per span slot
    bound it at 9 × `_DENSE_SPAN` B per posting summed.  The reference the
    top-k kernel is tested against, and the path for k=None;
  * top-k ("wand", and "auto" whenever k is given), three regimes, all
    equal to exhaustive bit for bit (tested):
      - one term: a slice of its cached k best positions, O(k);
      - a dense union (several terms whose union passes `_sum_runs`'
        dense gate, read from the terms' cached ends): every term's
        contributions are added into one span array, no member mask, and
        its top k cut by a chunk-max threshold (`_top_positions`): over
        dense ids that is cheaper than pruning;
      - any other union (sparse, or hash-assigned ids): block-max
        MaxScore — seeds the top-k threshold θ from the full scores of the
        highest-bound term's best postings, splits off the low-bound terms
        whose bounds cannot reach θ together (non-essential), scores only
        the essential terms' docs, and drops a candidate whose partial
        score plus the non-essential terms' per-block bounds (from the
        blocks' max_tf, min_dl) is below θ.  Survivors are scored in full
        in term order.  A query that prunes nothing sums its whole union
        by the sort (`_sort_sum`: the dense gate failed), and the essential
        terms' candidates are summed with `_sum_runs`.
    Each term caches its contributions, block bounds and k best positions
    across queries (`_TermBlocks`).

Unlike the reference — which re-reads every segment dictionary from disk on
every query (tree.rs:397-404) — each partition's ``blocks.parquet`` is read
once into memory.  A term's blocks are found by binary search over its
term-sorted rows, and its df is the sum of their posting counts: the
position lookup of the reference's TermInfo (tree.rs:116-125).  Partitions
and per-term postings share one byte-budgeted LRU across queries.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import accumulate

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from indexer_ray.conformance.lexer import tokenize, tokenize_plain
from indexer_ray.conformance.scorer import B, K1, bm25_idf, tfidf_idf
from indexer_ray.functions.hashing import hot_term_partitions, term_partition
from indexer_ray.stages.codec import BLOCK_SIZE, decode_blocks, encode_term_postings
from indexer_ray.state.manifest import IndexManifest, part_dir


#: float64 machine epsilon, for the MaxScore cut's rounding margin
_EPS = sys.float_info.epsilon

#: `_sum_runs` adds runs into one dense array when their doc-id span is at
#: most this many times their postings (the sweep is in BASELINE.md)
_DENSE_SPAN = 4

#: the columns of ``blocks.parquet`` the searcher reads
_BLOCKS_SCHEMA = pa.schema(
    [("term", pa.string()), ("first_doc_id", pa.uint64()), ("last_doc_id", pa.uint64()),
     ("n", pa.uint32()), ("max_tf", pa.uint32()), ("min_dl", pa.uint32()),
     ("payload", pa.large_binary())]
)


class _PartBlocks:
    """One partition's ``blocks.parquet``, read once.

    The rows are sorted by (term, block_id) (build.encode_partition), so a
    term's blocks are one slice of rows found by binary search, and its df
    in the partition is the sum of their ``n``.  ``terms`` is searched with
    `bisect`: Python's str order is the UTF-8 byte order the build sorted
    by, a fixed-width array would widen every row to the longest token, and
    a lookup costs a fifth of `np.searchsorted` on an object array (a warm
    query pays one per term absent from the index).  ``nbytes`` is the
    charge against the searcher's cache budget.  A partition with no file
    (empty at build time) has no rows."""

    __slots__ = ("terms", "first", "last", "n", "max_tf", "min_dl", "payload", "nbytes")

    def __init__(self, path: str):
        if os.path.exists(path):
            t = pq.read_table(path, columns=_BLOCKS_SCHEMA.names)
        else:
            t = _BLOCKS_SCHEMA.empty_table()
        self.terms = t.column("term").to_numpy(zero_copy_only=False).tolist()
        self.first, self.last = (
            t.column(c).to_numpy(zero_copy_only=False).astype(np.uint64)
            for c in ("first_doc_id", "last_doc_id")
        )
        self.n, self.max_tf, self.min_dl = (
            t.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
            for c in ("n", "max_tf", "min_dl")
        )
        self.payload = t.column("payload").combine_chunks()
        self.nbytes = (
            self.payload.nbytes
            + 48 * len(self.terms)  # a term pointer + five numeric columns
            + sum(map(sys.getsizeof, dict.fromkeys(self.terms)))
        )

    def rows(self, term: str) -> slice:
        return slice(bisect_left(self.terms, term), bisect_right(self.terms, term))

    def df(self, term: str) -> int:
        return int(self.n[self.rows(term)].sum())


class _TermBlocks:
    """All block metadata + payloads for one term, in global doc_id order.

    ``decoded`` lazily caches the decoded (doc_ids, tfs, dls), read-only:
    hot terms decode once per searcher, not once per query.  Cached under
    ``contrib_key`` = (scorer, weight, avgdl), recomputed when it changes:
    ``contrib`` (the postings' contributions), ``contrib_max``, ``bound``
    (each block's bound, from its max_tf and min_dl) and ``top`` = (k, the
    k best positions), also recomputed for another k.  ``ends`` = (first
    doc_id, last doc_id, postings) feeds the dense gate (`_dense_span`).  ``nbytes``, the
    cache charge, counts the payloads, 48 bytes per block (metadata and
    ``bound``), 32 per posting (``decoded`` and ``contrib``) and 8 per
    cached position, moved as ``top`` changes (`IndexSearcher._set_top`)."""

    __slots__ = (
        "term", "df", "first", "last", "n", "max_tf", "min_dl", "payloads",
        "decoded", "contrib", "contrib_max", "bound", "top", "contrib_key", "nbytes", "ends",
    )

    def __init__(self, term, df, first, last, n, max_tf, min_dl, payloads):
        self.term, self.df = term, df
        self.first, self.last, self.n = first, last, n
        self.max_tf, self.min_dl, self.payloads = max_tf, min_dl, payloads
        self.decoded = self.contrib = self.contrib_max = self.bound = self.top = self.contrib_key = None
        self.nbytes = sum(len(p) for p in payloads) + 48 * len(n) + 32 * int(n.sum())
        self.ends = (int(first[0]), int(last[-1]), df)  # the blocks are doc-ordered

    def decode_all(self):
        if self.decoded is None:
            self.decoded = decode_blocks(self.payloads, self.n, self.first)[:3]
            for a in self.decoded:
                a.flags.writeable = False
        return self.decoded


def _dense_span(ends: list[tuple[int, int, int]]) -> tuple[int, int] | None:
    """(lowest id, highest id) of runs whose ends are ``ends`` — (first id,
    last id, length) per non-empty run — when their id span is at most
    `_DENSE_SPAN` × their total postings, else None."""
    n, lo, hi = 0, 1 << 64, 0
    for a, b, m in ends:
        n += m
        if a < lo:
            lo = a
        if b > hi:
            hi = b
    return (lo, hi) if n and hi - lo < _DENSE_SPAN * n else None  # span = hi - lo + 1 <= C·n


def _dense_add(doc_runs: list[np.ndarray], contrib_runs: list[np.ndarray], lo: int, hi: int,
               member: np.ndarray | None = None) -> np.ndarray:
    """One zeroed float64 array over the ids lo..hi, each run's
    contributions added into it run by run: slot i holds doc lo + i's sum.
    ``member``, a bool array as long, when given, is set at every id a run
    holds."""
    base = np.uint64(lo)
    acc = np.zeros(hi - lo + 1)
    for docs, contrib in zip(doc_runs, contrib_runs):
        off = (docs - base).view(np.int64)  # < span: exact, and indexes faster
        acc[off] += contrib  # a run's ids are unique: one add per slot
        if member is not None:
            member[off] = True
    return acc


def _sum_runs(doc_runs: list[np.ndarray], contrib_runs: list[np.ndarray],
              ends: list[tuple[int, int, int]] | None = None, stats: dict | None = None):
    """Per-doc score sums over several (doc_ids, contributions) runs, one per
    query term in term order, each sorted by doc_id with unique ids.

    Returns (doc_ids ascending and unique, sums).  One run is returned as
    is.  Several are summed one of two ways, chosen from the runs' end ids
    and lengths alone — ``ends``, (first id, last id, length) per non-empty
    run as `_TermBlocks.ends` caches them, else read off the runs:
      * dense — `_dense_span` passes (the runs' id span is at most
        `_DENSE_SPAN` × their total postings): `_dense_add` sums them into
        one array over the span and marks the members in a bool mask, and
        the members are returned in id order.  The transient arrays take
        9 B per span slot, so at most 9 × `_DENSE_SPAN` B per posting the
        runs hold.  ``stats``, when given, counts this regime under
        ``dense_sums``;
      * sort — otherwise (sparse unions, hash-assigned ids), `_sort_sum`:
        a stable argsort — timsort merges the pre-sorted runs, and equal
        ids keep their run order — and ``np.bincount`` over the groups,
        which adds each doc's contributions one by one in that order.
    Both start each doc's sum from 0.0 and add its contributions in run
    order, so their sums are bit-identical: float-order parity with the
    spec scorer (tree.rs:418/445-449), for any uint64 ids."""
    if len(doc_runs) == 1:
        return doc_runs[0], contrib_runs[0]
    if ends is None:
        ends = [(d.item(0), d.item(-1), len(d)) for d in doc_runs if len(d)]
    span = _dense_span(ends)
    if span is not None:
        lo, hi = span
        member = np.zeros(hi - lo + 1, dtype=bool)
        acc = _dense_add(doc_runs, contrib_runs, lo, hi, member)
        pos = np.flatnonzero(member)
        if stats is not None:
            stats["dense_sums"] += 1
        return pos.astype(np.uint64) + np.uint64(lo), acc[pos]
    return _sort_sum(doc_runs, contrib_runs)


def _sort_sum(doc_runs: list[np.ndarray], contrib_runs: list[np.ndarray]):
    """`_sum_runs`' sort regime: the runs' unique ids ascending and their
    sums."""
    docs = np.concatenate(doc_runs)
    order = np.argsort(docs, kind="stable")
    docs = docs[order]
    first = np.empty(len(docs), dtype=bool)
    first[:1] = True
    np.not_equal(docs[1:], docs[:-1], out=first[1:])
    group = np.cumsum(first) - 1
    sums = np.bincount(group, weights=np.concatenate(contrib_runs)[order])
    return docs[first], sums


def _full_scores(ids: np.ndarray, doc_runs: list[np.ndarray], contrib_runs: list[np.ndarray]):
    """Scores of ``ids`` over the runs `_sum_runs` takes: each run's
    contribution added into 0.0 in run order, a run lacking the doc adding
    0.0 — bit-identical to `_sum_runs`' sums (contributions are >= 0)."""
    out = np.zeros(len(ids))
    for docs, contrib in zip(doc_runs, contrib_runs):
        pos = np.minimum(np.searchsorted(docs, ids), len(docs) - 1)
        out += np.where(docs[pos] == ids, contrib[pos], 0.0)
    return out


def _top_positions(docs: np.ndarray | None, scores: np.ndarray, k: int | None) -> np.ndarray:
    """Positions of the first k (all when k is None) of (docs, scores) ranked
    (score desc, doc_id asc), exact-zero scores dropped (Q6, tree.rs:457).
    ``docs`` None ranks each position as its own doc id (a dense span array).

    Only rows that can reach the top k are ranked, those scoring at least
    a cut ``lb``.  Over more than 256·k rows, cut into k equal contiguous
    chunks (a tail shorter than a chunk left out), the scores' chunk maxima
    are held by k distinct rows, so when the smallest of them, ``lb``, is
    > 0, the k-th score is >= lb and the rows scoring >= lb hold the top k
    and every tie of the k-th score (at most 11·k rows over the perfbench
    query streams, k = 10 and 100).  Otherwise — fewer rows, or a chunk
    scoring nothing — ``lb`` is the k-th score itself, from
    ``np.partition``: below 256·k rows the chunk cut's extra passes and
    larger sort cost more than the partition saves (one x86 core, best of
    7: k=10, 6.6-7.8 against 5.5-6.2 µs at 640 rows and 8.2-8.7 against
    8.4-9.0 µs at 2,560; k=100, 25 against 19-22 µs at 6,400 rows)."""
    n = len(scores)
    lb = 0.0
    if k is not None and k < n:
        if n > 256 * k:
            m = n // k
            lb = scores[: k * m].reshape(k, m).max(axis=1).min()
        if lb <= 0.0:
            lb = np.partition(scores, n - k)[n - k]
    # the rows scoring >= a positive lb, else every nonzero score
    idx = np.flatnonzero(scores >= lb if lb > 0.0 else scores)
    return idx[np.lexsort((idx if docs is None else docs[idx], -scores[idx]))][:k]


def _top_k(docs: np.ndarray, scores: np.ndarray, k: int | None) -> list[tuple[int, float]]:
    """[(doc_id, score)] of `_top_positions`."""
    pos = _top_positions(docs, scores, k)
    return list(zip(docs[pos].tolist(), scores[pos].tolist()))


class IndexSearcher:
    def __init__(self, index_dir: str, blocks_cache_bytes: int = 256 << 20):
        self.index_dir = index_dir
        self.m = IndexManifest.load(index_dir)
        self.n_docs = self.m.n_docs
        self.avgdl = self.m.avgdl
        # effective stats for the CURRENT search: equal to the local index's
        # by default; a doc-sharded deployment overrides them with gathered
        # GLOBAL (n_docs, avgdl, per-term df) so every shard scores with the
        # same idf/norms (ShardedSearcher in pipelines/serve.py)
        self._eff_n_docs = self.n_docs
        self._eff_avgdl = self.avgdl
        self._eff_df: dict[str, int] = {}
        self.mode = self.m.config.get("mode", "conformance")
        if self.m.config.get("stem_tokens", True) and self.m.config.get("stop_filter", True):
            self._tokenize = tokenize if self.mode == "conformance" else tokenize_plain
        else:
            # query tokenization must mirror the build's tokenizer config
            # exactly (symmetry invariant, reference lib.rs:92-96 / T5)
            from indexer_ray.conformance.lexer import make_tokenizer
            from indexer_ray.conformance.stopwords import STOP_WORDS

            self._tokenize = make_tokenizer(
                self.mode,
                stem_tokens=self.m.config.get("stem_tokens", True),
                stop_words=STOP_WORDS if self.m.config.get("stop_filter", True) else None,
            )
        self.hot_terms = self.m.hot_terms
        self.P = self.m.n_partitions
        # one LRU under one byte budget: partition block tables under
        # ("part", p) and per-term postings under ("term", t), each charged
        # its `nbytes` (the reference re-reads every segment per query,
        # tree.rs:397-443).  An entry larger than the budget serves the
        # call that loaded it and is not kept, evicting nothing.
        self._cache: OrderedDict[tuple[str, object], _PartBlocks | _TermBlocks] = OrderedDict()
        self._cache_budget = blocks_cache_bytes
        self._cache_bytes = 0

    # ---- lookup ----

    def _cached(self, key: tuple[str, object], load):
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            return entry
        entry = load()
        if entry is not None and entry.nbytes <= self._cache_budget:
            self._cache[key] = entry
            self._charge(entry.nbytes)
        return entry

    def _charge(self, nbytes: int):
        """Add ``nbytes`` to the cached total, then evict from the LRU end
        while it is over budget."""
        self._cache_bytes += nbytes
        while self._cache_bytes > self._cache_budget:
            _, old = self._cache.popitem(last=False)
            self._cache_bytes -= old.nbytes

    def _set_top(self, tb: _TermBlocks, top: tuple[int, np.ndarray] | None):
        """Replace ``tb.top`` and move ``tb``'s charge by the positions'
        bytes, and the cached total too if ``tb`` is cached (which may
        evict it, once it alone exceeds the budget)."""
        delta = (0 if top is None else top[1].nbytes) - (0 if tb.top is None else tb.top[1].nbytes)
        tb.top = top
        tb.nbytes += delta
        if self._cache.get(("term", tb.term)) is tb:
            self._charge(delta)

    def _part(self, part_id: int) -> _PartBlocks:
        return self._cached(
            ("part", part_id),
            lambda: _PartBlocks(os.path.join(part_dir(self.index_dir, part_id), "blocks.parquet")),
        )

    def _parts_of_term(self, term: str) -> list[int]:
        s = self.hot_terms.get(term)
        if s:
            # distinct partitions only: two salts may hash to the same
            # partition, whose blocks already merge both (doc-disjoint)
            # runs — visiting it twice would double-count.
            return list(dict.fromkeys(hot_term_partitions(term, int(s), self.P)))
        return [term_partition(term, self.P)]

    def term_df(self, term: str) -> int:
        # global df = sum of per-partition dfs (runs are doc-disjoint; the
        # reference's analogous sum over segments is tree.rs:413)
        return sum(self._part(p).df(term) for p in self._parts_of_term(term))

    def _load_term_blocks(self, term: str) -> _TermBlocks | None:
        return self._cached(("term", term), lambda: self._read_term_blocks(term))

    def _read_term_blocks(self, term: str) -> _TermBlocks | None:
        runs = [(pb, pb.rows(term)) for pb in map(self._part, self._parts_of_term(term))]
        runs = [(pb, rows) for pb, rows in runs if rows.stop > rows.start]
        if not runs:
            return None
        first, last, n, max_tf, min_dl = (
            np.concatenate([getattr(pb, c)[rows] for pb, rows in runs])
            for c in ("first", "last", "n", "max_tf", "min_dl")
        )
        # copies of the payload bytes: evicting the partitions frees theirs
        pays = [b for pb, rows in runs for b in pb.payload[rows].to_pylist()]
        # salted runs are doc_id-range-disjoint: order blocks globally
        order = np.argsort(first, kind="stable")
        first, last, n, max_tf, min_dl = (a[order] for a in (first, last, n, max_tf, min_dl))
        pays = [pays[i] for i in order]
        if (first[1:] <= last[:-1]).any():
            # a partition holding two salts, not adjacent, blocks them as one
            # run, so a block can straddle a salt held elsewhere: re-block
            # the term's postings in doc_id order, as the build blocks a run
            ids, tfs, dls, _ = decode_blocks(pays, n, first)
            o = np.argsort(ids, kind="stable")
            c = encode_term_postings(np.zeros(len(o), np.int64), ids[o], tfs[o], dls[o],
                                     int(self.m.config.get("block_size", BLOCK_SIZE)))
            first, last, pays = c["first_doc_id"], c["last_doc_id"], c["payload"].to_pylist()
            n, max_tf, min_dl = (c[k].astype(np.int64) for k in ("n", "max_tf", "min_dl"))
        return _TermBlocks(term, int(n.sum()), first, last, n, max_tf, min_dl, pays)

    # ---- scoring kernels ----

    def _weights(self, q_tokens: list[str], scorer: str) -> list[tuple[str, float, _TermBlocks]]:
        """Per unique term: (term, weight, blocks) in first-occurrence order.

        Duplicate query tokens (multiplicity m):
          * tfidf (conformance) — the reference iterates the RAW token list
            in both search passes (tree.rs:406-415 + 419-449), inflating
            global_df to m*df and accumulating each of its m cached copies
            once per occurrence: weight = m^2 * |ln(N/(m*df))| (so 'cat cat'
            over a corpus with df(cat)=N/2 returns EMPTY — idf hits 0).
          * bm25 (engine mode, no reference analogue) — per-occurrence
            accumulation without df inflation: weight = m * idf(df)."""
        mult: dict[str, int] = {}
        order: list[str] = []
        for t in q_tokens:
            if t not in mult:
                order.append(t)
            mult[t] = mult.get(t, 0) + 1
        out = []
        for t in order:
            tb = self._load_term_blocks(t)
            if tb is None:
                continue
            df = self._eff_df.get(t, tb.df)
            n = self._eff_n_docs
            m = mult[t]
            if scorer == "tfidf":
                w = (m * m) * tfidf_idf(n, m * df)
            else:
                w = m * bm25_idf(n, df)
            out.append((t, w, tb))
        return out

    def _contrib(self, scorer: str, w: float, tfs: np.ndarray, dls: np.ndarray) -> np.ndarray:
        # with a block's (max_tf, min_dl): the bound on the block's
        # contributions, which grow with tf and shrink with dl
        if scorer == "tfidf":
            return w * tfs.astype(np.float64)
        tff = tfs.astype(np.float64)
        norm = tff + K1 * (1.0 - B + B * dls.astype(np.float64) / self._eff_avgdl)
        return w * tff * (K1 + 1.0) / norm

    def _term_contrib(self, scorer: str, w: float, tb: _TermBlocks) -> np.ndarray:
        """Contributions of every posting of ``tb`` (decoded here if needed),
        cached on ``tb`` under everything they depend on besides the
        postings: the scorer, the term's weight (which carries n_docs, df and
        the query multiplicity) and the effective avgdl."""
        key = (scorer, w, self._eff_avgdl)
        if tb.contrib_key != key:
            _, tfs, dls = tb.decode_all()
            tb.contrib = self._contrib(scorer, w, tfs, dls)
            tb.contrib.flags.writeable = False
            tb.contrib_max = float(tb.contrib.max())
            tb.bound = self._contrib(scorer, w, tb.max_tf, tb.min_dl)
            tb.contrib_key = key
            if tb.top is not None:
                self._set_top(tb, None)
        return tb.contrib

    def _term_top(self, tb: _TermBlocks, k: int) -> np.ndarray:
        """`_top_positions` of ``tb``'s cached contributions, cached with them."""
        if tb.top is None or tb.top[0] != k:
            # a copy: the k-slice would keep every tie of the k-th score alive
            self._set_top(tb, (k, _top_positions(tb.decoded[0], tb.contrib, k).copy()))
        return tb.top[1]

    # ---- public API ----

    def search(
        self,
        query: str,
        k: int = 10,
        scorer: str = "tfidf",
        algorithm: str = "exhaustive",
        global_stats: dict | None = None,
    ) -> list[tuple[int, float]]:
        """Returns [(doc_id, score)] sorted (score desc, doc_id asc), top k.
        ``k=None`` returns all matches (exhaustive only), ``k=0`` none; a
        negative k raises ValueError.

        ``algorithm`` "auto" and "wand" both run the top-k kernel
        (`_search_wand`: a cached single-term slice, a dense union's span
        sum, or MaxScore) whenever k is given; "exhaustive", and any
        k=None search, scores every match.  All return identical results.

        ``global_stats`` ({"n_docs", "avgdl", "df": {term: global_df}})
        overrides the local index statistics — the doc-sharded deployment
        passes corpus-wide values so every shard scores with identical
        idf/norms and shard top-ks merge exactly (serve.ShardedSearcher)."""
        if k is not None and k < 0:
            raise ValueError(f"search: k must be >= 0 or None, got {k}")
        if k == 0:
            return []
        if global_stats is not None:
            self._eff_n_docs = int(global_stats["n_docs"])
            self._eff_avgdl = float(global_stats["avgdl"])
            self._eff_df = dict(global_stats.get("df") or {})
        else:
            self._eff_n_docs, self._eff_avgdl, self._eff_df = self.n_docs, self.avgdl, {}
        q_tokens = self._tokenize(query)
        if not q_tokens or self._eff_n_docs == 0:
            return []
        terms = self._weights(q_tokens, scorer)
        if not terms:
            return []
        if algorithm in ("auto", "wand") and k is not None:
            return self._search_wand(terms, k, scorer)
        return self._search_exhaustive(terms, k, scorer)

    def _search_exhaustive(self, terms, k, scorer) -> list[tuple[int, float]]:
        # Per-term doc-sorted runs of cached contributions, in query-term
        # order; `_sum_runs` adds each doc's contributions in that order.
        docs, scores = _sum_runs(
            [tb.decode_all()[0] for _, _, tb in terms],
            [self._term_contrib(scorer, w, tb) for _, w, tb in terms],
            [tb.ends for _, _, tb in terms],
        )
        return _top_k(docs, scores, k)

    def _search_wand(self, terms, k, scorer) -> list[tuple[int, float]]:
        """Top-k of a query's terms; equals `_search_exhaustive` exactly.

        One term's top k is its cached best positions (`_term_top`).  A
        union of several terms that passes `_sum_runs`' dense gate
        (`_dense_span` over the terms' cached ends) is summed into one span
        array (`_dense_add`), in query-term order as `_sum_runs` adds: a
        slot is nonzero exactly when its doc scores nonzero, as
        contributions are >= 0, and `_top_positions` cuts the array's top k
        (doc id = lowest id + position).

        Any other union runs block-max MaxScore (Turtle & Flood 1995, with
        per-block bounds).  Contributions are >= 0, so a doc's partial score
        over some of its terms is at most its full score, which is at most
        the partial score plus the other terms' bounds.  θ, the smallest
        full score among the cached best positions of the highest-bound
        term, is met by k distinct docs, so no doc scoring below θ reaches
        the top k.  The terms of the longest ascending-bound prefix whose
        bounds sum below θ are non-essential: a doc holding only those
        terms scores below θ.  The essential terms' docs are the
        candidates; a candidate is dropped when its partial score plus, per
        non-essential term, the cached bound of the block covering it is
        below θ.  Survivors are scored in full — contributions added into
        0.0 in query-term order, the order of `_sum_runs` — and ranked by
        `_top_k`; when no term is non-essential, the whole union is summed
        by `_sort_sum` instead.  Both cuts are strict (a doc scoring exactly
        θ can still win its tie on doc_id) and lowered by a relative margin
        that covers float rounding in the sums.

        Telemetry, read via ``self.last_wand_stats`` by the benchmarks:
          windows / windows_skipped — query terms / non-essential terms;
          blocks_total — the query terms' blocks;
          blocks_decoded — the essential terms' blocks plus the
            non-essential blocks covering a survivor;
          payload_decodes — blocks the codec decoded during this search (a
            term's first touch decodes its whole list);
          dense_sums — this search's sums of several runs into one span
            array: MaxScore's `_sum_runs` calls that took the dense array,
            not the sort, or 1 on the dense path.
        The dense path prunes nothing: it reads dense_sums 1,
        windows_skipped 0 and blocks_decoded = blocks_total."""
        nblocks = [len(tb.n) for _, _, tb in terms]
        stats = self.last_wand_stats = {
            "windows": len(terms), "windows_skipped": 0,
            "blocks_decoded": sum(nblocks), "blocks_total": sum(nblocks),
            "payload_decodes": sum(nb for nb, (*_, tb) in zip(nblocks, terms) if tb.decoded is None),
            "dense_sums": 0,
        }
        docs = [tb.decode_all()[0] for _, _, tb in terms]
        contribs = [self._term_contrib(scorer, w, tb) for _, w, tb in terms]
        ends = [tb.ends for _, _, tb in terms]
        span = _dense_span(ends) if len(terms) > 1 else None
        if span is not None:
            stats["dense_sums"] = 1
            acc = _dense_add(docs, contribs, *span)
            pos = _top_positions(None, acc, k)  # doc id = span[0] + position
            ids = pos.astype(np.uint64) + np.uint64(span[0])
            return list(zip(ids.tolist(), acc[pos].tolist()))
        bounds = [tb.contrib_max for _, _, tb in terms]
        top = bounds.index(max(bounds))
        seeds = self._term_top(terms[top][2], k)
        if len(terms) == 1:
            return list(zip(docs[0][seeds].tolist(), contribs[0][seeds].tolist()))
        theta = -math.inf  # the top term holds fewer than k scoring postings
        if len(seeds) == k:
            theta = float(_full_scores(docs[top][seeds], docs, contribs).min())
        # a float sum of n addends >= 0 is within n*eps/2 of exact, so a bound
        # can round below the score it covers, by less than n*eps
        cut = theta * (1.0 - 2 * len(terms) * _EPS)
        order = sorted(range(len(terms)), key=bounds.__getitem__)
        n_non = bisect_left(list(accumulate(bounds[i] for i in order)), cut)
        if n_non == 0:  # the whole union, which the dense gate did not pass
            return _top_k(*_sort_sum(docs, contribs), k)
        ess = sorted(order[n_non:])
        cand, bound = _sum_runs([docs[i] for i in ess], [contribs[i] for i in ess],
                                [ends[i] for i in ess], stats)
        covering = []
        for i in order[:n_non]:
            tb = terms[i][2]
            b = np.searchsorted(tb.last, cand)  # first block ending at or after the doc
            bc = np.minimum(b, len(tb.last) - 1)
            hit = (b < len(tb.last)) & (tb.first[bc] <= cand)
            bound = bound + np.where(hit, tb.bound[bc], 0.0)
            covering.append((b, hit))
        keep = bound >= cut
        stats["windows_skipped"] = n_non
        # b ascends with cand: count its distinct values by their steps
        stats["blocks_decoded"] = sum(nblocks[i] for i in ess) + sum(
            len(b) and 1 + int(np.count_nonzero(b[1:] != b[:-1]))
            for b in (b[keep & hit] for b, hit in covering)
        )
        survivors = cand[keep]
        return _top_k(survivors, _full_scores(survivors, docs, contribs), k)

    # ---- boolean retrieval (beyond the reference: tree.rs scores OR-mode
    # only; conjunctive AND / AND-NOT is standard fulltext surface) ----

    def search_boolean(
        self, must: str | list[str], must_not: str | list[str] = ()
    ) -> np.ndarray:
        """Conjunctive boolean retrieval: doc_ids containing EVERY ``must``
        term and NONE of the ``must_not`` terms, sorted ascending (uint64).

        Strings are tokenized with the index's own tokenizer (symmetry
        invariant, T5); a ``must`` term absent from the index short-circuits
        to empty.  Pure-NOT queries are rejected (unbounded result).

        Intersection is index-grade, not scan-grade: the smallest-df term
        seeds the candidate set, and every further term decodes ONLY the
        posting blocks whose [first_doc_id, last_doc_id] range intersects a
        live candidate (block metadata is already in memory; payload decode
        is the cost being skipped).  Membership tests are vectorized
        searchsorted over the sorted decoded ids."""
        toks_must = self._boolean_terms(must)
        toks_not = self._boolean_terms(must_not)
        if not toks_must:
            if toks_not:
                raise ValueError("pure-NOT boolean query is unbounded")
            return np.empty(0, dtype=np.uint64)
        tbs = []
        for t in toks_must:
            tb = self._load_term_blocks(t)
            if tb is None:
                return np.empty(0, dtype=np.uint64)
            tbs.append(tb)
        tbs.sort(key=lambda tb: tb.df)
        cand = tbs[0].decode_all()[0]
        for tb in tbs[1:]:
            if len(cand) == 0:
                return cand
            cand = self._filter_member(cand, tb, keep=True)
        for t in dict.fromkeys(toks_not):
            if len(cand) == 0:
                break
            tb = self._load_term_blocks(t)
            if tb is not None:
                cand = self._filter_member(cand, tb, keep=False)
        return cand

    def _boolean_terms(self, q: str | list[str]) -> list[str]:
        parts = [q] if isinstance(q, str) else list(q)
        out: list[str] = []
        for p in parts:
            out.extend(self._tokenize(p))
        return list(dict.fromkeys(out))

    def _filter_member(self, cand: np.ndarray, tb: _TermBlocks, keep: bool) -> np.ndarray:
        """Keep (or drop) candidates that appear in ``tb``'s posting list,
        decoding only blocks whose id range intersects the candidates."""
        lo = np.searchsorted(cand, tb.first, side="left")
        hi = np.searchsorted(cand, tb.last, side="right")
        needed = np.flatnonzero(hi > lo)
        if len(needed) == 0:
            return np.empty(0, dtype=np.uint64) if keep else cand
        ids = tb.decoded[0] if tb.decoded is not None else decode_blocks(
            [tb.payloads[i] for i in needed], tb.n[needed], tb.first[needed]
        )[0]
        pos = np.searchsorted(ids, cand)
        member = (pos < len(ids)) & (ids[np.minimum(pos, len(ids) - 1)] == cand)
        return cand[member] if keep else cand[~member]

    def term_postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Decoded global posting list for one ALREADY-tokenized term:
        (doc_ids, tfs) in doc_id order, read-only (S8 analogue, decoded via
        the block codec; used by the driver oracle to diff the built index
        against SQL-computed term frequencies)."""
        tb = self._load_term_blocks(term)
        if tb is None:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        return tb.decode_all()[:2]

    # ---- resolution (Q5 analogue: doc_id -> url via docmap) ----

    def _docmap_catalog(self):
        """Per-fragment (min_doc_id, max_doc_id) ranges from parquet footer
        stats, read ONCE per searcher.  Dense-id builds write fragments
        covering contiguous disjoint ranges, so a k=10 resolve touches ~1
        fragment instead of scanning every footer per query (the round-1
        behavior); hash-id fragments have wide ranges and degrade gracefully
        to the full scan."""
        if getattr(self, "_docmap_cat", None) is None:
            import glob as _glob

            files = sorted(
                _glob.glob(os.path.join(self.index_dir, "docmap", "*.parquet"))
            )
            lows, highs = [], []
            for f in files:
                md = pq.ParquetFile(f).metadata
                names = [md.schema.column(j).name for j in range(md.num_columns)]
                j = names.index("doc_id")
                lo, hi = None, None
                for rg in range(md.num_row_groups):
                    st = md.row_group(rg).column(j).statistics
                    if st is None or not st.has_min_max:
                        lo, hi = 0, (1 << 64) - 1  # no stats: never prune
                        break
                    lo = st.min if lo is None else min(lo, st.min)
                    hi = st.max if hi is None else max(hi, st.max)
                lows.append(lo if lo is not None else 0)
                highs.append(hi if hi is not None else (1 << 64) - 1)
            self._docmap_cat = (
                files,
                np.array(lows, dtype=np.uint64),
                np.array(highs, dtype=np.uint64),
            )
        return self._docmap_cat

    def resolve_urls(self, doc_ids: list[int]) -> dict[int, str]:
        if not doc_ids:
            return {}
        files, lows, highs = self._docmap_catalog()
        ids = np.array(sorted(doc_ids), dtype=np.uint64)
        # fragment needed iff any requested id falls inside its range
        pos = np.searchsorted(ids, lows, side="left")
        need = (pos < len(ids)) & np.array(
            [ids[min(p, len(ids) - 1)] <= h for p, h in zip(pos, highs)]
        )
        sel = [f for f, n in zip(files, need) if n]
        if not sel:
            return {}
        ds = pads.dataset(sel, format="parquet")
        t = ds.to_table(
            columns=["doc_id", "url"],
            filter=pads.field("doc_id").isin(pa.array(doc_ids, type=pa.uint64())),
        )
        return dict(zip(t.column("doc_id").to_pylist(), t.column("url").to_pylist()))

    def search_urls(self, query: str, k: int = 10, **kw) -> list[tuple[str, float]]:
        hits = self.search(query, k=k, **kw)
        urls = self.resolve_urls([d for d, _ in hits])
        return [(urls.get(d, str(d)), s) for d, s in hits]

    def matching_doc_ids(self, query: str) -> np.ndarray:
        """All doc_ids containing ANY query term (OR semantics, no scoring),
        sorted ascending — the candidate set faceting/filtering runs over."""
        parts = []
        for t in dict.fromkeys(self._tokenize(query)):
            tb = self._load_term_blocks(t)
            if tb is not None:
                parts.append(tb.decode_all()[0])
        if not parts:
            return np.empty(0, dtype=np.uint64)
        out = parts[0]
        for p in parts[1:]:
            out = np.union1d(out, p)
        return out


def _member_mask(sorted_ids: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
    """Vectorized membership of `doc_ids` in a SORTED int64 id array — the
    broadcast-filter kernel shared by facet_counts / phrase_search /
    search_snippets.  Callers must cast to int64 BEFORE sorting (uint64
    ids >= 2^63 reorder under the cast and would break searchsorted)."""
    if len(sorted_ids) == 0:
        return np.zeros(len(doc_ids), dtype=bool)
    pos = np.searchsorted(sorted_ids, doc_ids)
    return (pos < len(sorted_ids)) & (
        sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] == doc_ids
    )


def facet_counts(searcher: IndexSearcher, docs_ds, query: str, facet_col: str = "lang"):
    """Facet rollup for a query: per-``facet_col`` count of ALL documents
    matching ANY query term (standard search-engine facets; the reference
    has no analogue — its result is a flat scored list, tree.rs:452-465).

    The index supplies the match set (posting-list union — no corpus scan);
    the corpus table is then streamed through a broadcast membership filter
    (`ray.put` of the sorted id array, searchsorted per batch) and a tiny
    groupby counts survivors per facet.  The broadcast is the match set,
    not the corpus: fine to ~10^8 ids; above that, swap the filter for a
    distributed semi-join on doc_id (`shuffle.regime_join`, as the dedup
    family's Jaccard verify does).

    Output: (facet_col, n_docs)."""
    import ray
    from ray.data.aggregate import Count

    # int64 cast BEFORE sort: hash-assigned ids >= 2^63 reorder under the
    # cast, and searchsorted requires the CAST order
    ids_ref = ray.put(np.sort(searcher.matching_doc_ids(query).astype(np.int64)))

    def _member(batch: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)  # zero-copy object-store view, already sorted
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(_member_mask(ids, d)))

    return (
        docs_ds.select_columns(["doc_id", facet_col])
        .map_batches(_member, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(facet_col)
        .aggregate(Count(alias_name="n_docs"))
    )


def prefix_suggest(index_dir: str, prefix: str, k: int = 10):
    """Index-backed autocomplete: the top-`k` dictionary terms with the
    given prefix, ranked by global df desc (term asc tie-break) — a
    dictionary-range query the reference cannot serve without
    deserializing every segment dict (tree.rs:397-404 re-reads them per
    query; there is no prefix API).

    Distributed over the per-partition ``dict.parquet`` files: each dict
    is term-sorted with 16k row groups, so the [prefix, prefix+1) range
    predicate prunes row groups at the parquet footer — only matching
    slices of each partition's dictionary are read.  Salted hot terms
    appear in several partitions with doc-disjoint postings, so per-
    partition dfs SUM to the global df; the groupby moves only the
    prefix-filtered terms, and the final top-k is `top_k_rows`' per-batch
    cut + single merge.

    Output: (rank, term, df)."""
    import glob as _glob

    import ray.data as rd
    from ray.data.aggregate import Sum

    from indexer_ray.stages.shuffle import top_k_rows

    if not prefix:
        raise ValueError("prefix must be non-empty")
    paths = sorted(_glob.glob(os.path.join(index_dir, "parts", "*", "dict.parquet")))
    hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
    expr = (pads.field("term") >= prefix) & (pads.field("term") < hi)
    ds = rd.read_parquet(paths, columns=["term", "df"], filter=expr)
    agg = ds.groupby("term").aggregate(Sum("df", alias_name="df"))
    return top_k_rows(agg, k, ["df", "term"], [False, True], ["rank", "term", "df"])


def _hot_global_counts(index_dir: str, hot_terms, col: str) -> dict[str, int]:
    """Global df/cf for the SALTED hot terms: salt partitions hold
    doc-disjoint runs, so their per-partition dict values SUM to the
    global count.  The hot set is manifest-bounded and tiny; the `term in
    hotset` parquet filter prunes to the few row groups of each
    term-sorted dict that can contain them — never a full-vocabulary
    driver scan."""
    import glob as _glob

    out: dict[str, int] = {}
    if not hot_terms:
        return out
    flt = [("term", "in", sorted(hot_terms))]
    for f in sorted(_glob.glob(os.path.join(index_dir, "parts", "*", "dict.parquet"))):
        t = pq.read_table(f, columns=["term", col], filters=flt)
        for term, v in zip(t.column("term").to_pylist(), t.column(col).to_pylist()):
            out[term] = out.get(term, 0) + int(v)
    return out


def doc_keywords(index_dir: str, m: int = 3, n_parts: int = 64):
    """Per-document top-`m` TF-IDF keywords extracted straight off the
    INDEX postings (no corpus re-tokenization): score = tf·|ln(N/df)|
    (the reference's idf, tree.rs:426) quantized to int64 like the search
    oracles, ranked (score desc, term asc) within each doc.

    Scale shape: each index partition is one task — its dict supplies df
    locally (term and its postings are co-located by the build's term-hash
    routing, so NO df join ships anywhere); salted hot terms get their
    global df from a driver-read correction map (the hot set is
    manifest-bounded and tiny).  Each partition pre-reduces to at most `m`
    candidate rows per (doc, partition) before the single doc-routed
    shuffle, and the final per-doc merge is one vectorized lexsort pass
    per routed partition — never a per-doc group call.

    Output: (doc_id, rank, term, score_q)."""
    import pandas as pd
    import ray
    import ray.data as rd

    from indexer_ray.stages.shuffle import routed_reduce

    manifest = IndexManifest.load(index_dir)
    n_docs = manifest.n_docs
    hot_ref = ray.put(_hot_global_counts(index_dir, manifest.hot_terms, "df"))

    def _score_part(batch: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        out = []
        for pid in batch.column("part_id").to_pylist():
            pdir = part_dir(index_dir, int(pid))
            if not os.path.exists(os.path.join(pdir, "blocks.parquet")):
                continue  # empty partition: the build writes no dir for it
            d = pq.read_table(os.path.join(pdir, "dict.parquet"), columns=["term", "df"])
            b = pq.read_table(
                os.path.join(pdir, "blocks.parquet"),
                columns=["term", "n", "first_doc_id", "payload"],
            )
            if b.num_rows == 0:
                continue
            ns = b.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
            first = b.column("first_doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            doc, tf, _, _ = decode_blocks(b.column("payload"), ns, first)
            bterms = np.asarray(b.column("term").to_pylist(), dtype=object)
            dterms = np.asarray(d.column("term").to_pylist(), dtype=object)
            dfs = d.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
            # dict is term-sorted: df per block row via searchsorted
            block_df = dfs[np.searchsorted(dterms, bterms)].copy()
            for term, gdf in hot.items():
                block_df[bterms == term] = gdf
            pterms = np.repeat(bterms, ns)
            pdf = np.repeat(block_df, ns).astype(np.float64)
            score = tf.astype(np.float64) * np.abs(np.log(n_docs / pdf))
            score_q = np.floor(score * 1e6 + 0.5).astype(np.int64)
            # per-doc top-m inside the partition (the combiner): global
            # order is (doc asc, score desc, term asc)
            order = np.lexsort((pterms, -score_q, doc))
            sdoc = doc[order]
            starts = np.flatnonzero(np.r_[True, sdoc[1:] != sdoc[:-1]])
            rank_in_doc = np.arange(len(sdoc)) - np.repeat(
                starts, np.diff(np.r_[starts, len(sdoc)])
            )
            keep = order[rank_in_doc < m]
            out.append(
                pa.table(
                    {
                        "doc_id": pa.array(doc[keep].astype("int64"), type=pa.int64()),
                        "term": pa.array(pterms[keep], type=pa.string()),
                        "score_q": pa.array(score_q[keep], type=pa.int64()),
                    }
                )
            )
        if not out:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "term": pa.array([], type=pa.string()),
                    "score_q": pa.array([], type=pa.int64()),
                }
            )
        return pa.concat_tables(out)

    cands = rd.from_items(
        [{"part_id": k} for k in range(manifest.n_partitions)]
    ).map_batches(_score_part, batch_format="pyarrow", batch_size=1)

    def _merge(g: "pd.DataFrame") -> "pd.DataFrame":
        doc = g["doc_id"].to_numpy()
        sq = g["score_q"].to_numpy()
        terms = g["term"].to_numpy()
        order = np.lexsort((terms, -sq, doc))
        sdoc = doc[order]
        starts = np.flatnonzero(np.r_[True, sdoc[1:] != sdoc[:-1]])
        rank = np.arange(len(sdoc)) - np.repeat(
            starts, np.diff(np.r_[starts, len(sdoc)])
        )
        keep = rank < m
        return pd.DataFrame(
            {
                "doc_id": sdoc[keep].astype("int64"),
                "rank": rank[keep].astype("int64"),
                "term": terms[order][keep],
                "score_q": sq[order][keep].astype("int64"),
            }
        )

    return routed_reduce(cands, ["doc_id"], n_parts, _merge)


def search_snippets(
    searcher: IndexSearcher,
    docs_ds,
    query: str,
    k: int = 10,
    scorer: str = "tfidf",
    width: int = 3,
):
    """Top-k search + keyword-in-context snippet per hit: the full
    result-page composition (index scoring -> corpus text fetch ->
    concordance), which the reference stops short of (tree.rs returns only
    ids/scores; main.rs prints paths).

    Ranking uses the repo's cross-engine compare discipline: scores
    quantized to int64 (floor(s*1e6+0.5)) BEFORE ranking, ties broken
    doc_id asc.  The snippet is `width` tokens each side of the FIRST
    occurrence of any query token, in the index's own token mode (plain
    mode == the SQL oracle's regexp tokens).

    The corpus table streams through a broadcast membership filter (the
    top-k id set — k rows, trivially broadcastable at any corpus size);
    only the <=k surviving rows pay tokenization.

    Output: (rank, doc_id, score_q, pos, snippet)."""
    import math as _math

    import ray
    import ray.data as rd

    hits = searcher.search(query, k=None, scorer=scorer, algorithm="exhaustive")
    # signed int64 view of the (possibly uint64 hash-range) ids BEFORE
    # ranking: the (score_q desc, doc_id asc) tie-break and the rank_map
    # keys must use the same cast order as the corpus-side _member_mask
    # filter below (ids >= 2^63 reorder under the cast — see
    # test_member_mask_handles_hash_range_ids)
    hit_arr = np.array([d for d, _ in hits], dtype=np.uint64).astype(np.int64)
    ranked = sorted(
        (-int(_math.floor(sc * 1e6 + 0.5)), int(ds))
        for (_, sc), ds in zip(hits, hit_arr)
    )[: k]
    rank_of = {d: (r, -negq) for r, (negq, d) in enumerate(ranked)}
    q_tokens = list(dict.fromkeys(searcher._tokenize(query)))
    mode = searcher.mode
    sorted_hits = np.sort(np.fromiter(rank_of, dtype=np.int64, count=len(rank_of)))
    ref = ray.put((sorted_hits, rank_of, q_tokens))

    def _snip(batch: pa.Table) -> pa.Table:
        from indexer_ray.conformance.lexer import make_tokenizer

        hit_ids, rank_map, qtoks = ray.get(ref)
        # vectorized membership prefilter: only the <=k hit rows pay the
        # Python-object conversion + tokenization below
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        batch = batch.filter(pa.array(_member_mask(hit_ids, d)))
        tokenize_fn = make_tokenizer(mode)
        qset = set(qtoks)
        # signed view to match the rank_map keys (uint64 corpus columns
        # would otherwise yield unsigned Python ints here)
        ids = (
            batch.column("doc_id")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .tolist()
        )
        texts = batch.column("text").to_pylist()
        rows = {"rank": [], "doc_id": [], "score_q": [], "pos": [], "snippet": []}
        for did, text in zip(ids, texts):
            hit = rank_map.get(int(did))
            if hit is None:
                continue
            toks = tokenize_fn(text or "")
            pos = next((i for i, t in enumerate(toks) if t in qset), None)
            if pos is None:
                continue
            rows["rank"].append(hit[0])
            rows["doc_id"].append(int(did))
            rows["score_q"].append(hit[1])
            rows["pos"].append(pos)
            rows["snippet"].append(
                " ".join(toks[max(0, pos - width) : pos + width + 1])
            )
        return pa.table(
            {
                "rank": pa.array(rows["rank"], type=pa.int64()),
                "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
                "score_q": pa.array(rows["score_q"], type=pa.int64()),
                "pos": pa.array(rows["pos"], type=pa.int64()),
                "snippet": pa.array(rows["snippet"], type=pa.string()),
            }
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _snip, batch_format="pyarrow", zero_copy_batch=True
    )


def phrase_search(searcher: IndexSearcher, docs_ds, phrase: str):
    """INDEX-ACCELERATED exact phrase match: the boolean AND of the
    phrase's terms prunes the corpus to candidate docs via posting-list
    intersection (no corpus scan), then only the candidates' text is
    streamed through the adjacency regex verifier
    (text_analysis.phrase_match_docs semantics — identical output).

    At 10^12 docs the candidate set of a selective phrase is orders of
    magnitude smaller than the corpus: the broadcast membership filter
    ships the sorted candidate id array once (`ray.put`), every batch
    drops non-candidates with one vectorized searchsorted, and the RE2
    verification cost is paid only by survivors.  Falls back gracefully —
    a phrase term absent from the dictionary yields an empty result, as
    it must (AND semantics).

    Output: (doc_id,) — docs whose plain tokens contain the phrase
    adjacently."""
    import re as _re

    import pyarrow.compute as pc
    import ray

    if searcher.mode != "plain":
        # a stop-filtered/stemmed dictionary can't promise the candidate
        # superset (a stopword phrase term has no postings at all)
        raise ValueError("phrase_search requires a plain-mode index")
    words = tokenize_plain(phrase)
    if not words:
        raise ValueError("phrase has no plain tokens")
    cand = searcher.search_boolean(words)
    # int64 cast BEFORE sort (see _member_mask: hash ids >= 2^63 reorder)
    ids_ref = ray.put(np.sort(cand.astype(np.int64)))
    pat = (
        "(^|[^a-z0-9])"
        + "[^a-z0-9]+".join(_re.escape(w) for w in words)
        + "($|[^a-z0-9])"
    )

    def _verify(batch: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)  # zero-copy object-store view
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch.filter(pa.array(_member_mask(ids, d)))
        mask = pc.match_substring_regex(
            pc.utf8_lower(pc.fill_null(t.column("text"), "")), pat
        )
        return pa.table({"doc_id": t.filter(mask).column("doc_id")})

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _verify, batch_format="pyarrow", zero_copy_batch=True, batch_size=8192
    )


def doc_unigram_nll(index_dir: str, n_parts: int = 64):
    """Per-document unigram negative log-likelihood off the INDEX — the
    CCNet/Gopher-family LM quality signal (Wenzek et al. 2020 use a real
    LM; the unigram corpus model is its shuffle-free first rung):
    nll(doc) = Σ_terms tf · ln(total_tokens / cf).

    Exactness trick: each (term, doc) CONTRIBUTION is quantized to int64
    (floor(x·1e6 + 0.5)) BEFORE summation, so partial sums are exact
    integers that merge associatively in any order — the property that
    lets a float-flavored score be hash-checked against SQL (the repo's
    quantize-before-rank discipline, moved one step earlier).

    Scale shape (doc_keywords' pattern): contributions are scored inside
    their own index partition (cf from the co-located dict; salted hot
    terms corrected to global cf), PARTIAL-SUMMED per (doc, partition) —
    the shuffle moves one row per doc per partition, not one per posting —
    then one final Sum groupby.  total_tokens and per-doc lengths come
    from the manifest / posting payloads; no corpus pass at all.

    Output: (doc_id, nll_q, n_tokens)."""
    import ray
    import ray.data as rd

    manifest = IndexManifest.load(index_dir)
    total = manifest.total_doc_len
    hot_ref = ray.put(_hot_global_counts(index_dir, manifest.hot_terms, "cf"))

    def _part_nll(batch: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        out = []
        for pid in batch.column("part_id").to_pylist():
            pdir = part_dir(index_dir, int(pid))
            if not os.path.exists(os.path.join(pdir, "blocks.parquet")):
                continue  # empty partition: the build writes no dir for it
            d = pq.read_table(os.path.join(pdir, "dict.parquet"), columns=["term", "cf"])
            b = pq.read_table(
                os.path.join(pdir, "blocks.parquet"),
                columns=["term", "n", "first_doc_id", "payload"],
            )
            if b.num_rows == 0:
                continue
            ns = b.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
            first = b.column("first_doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            doc, tf, dl, _ = decode_blocks(b.column("payload"), ns, first)
            bterms = np.asarray(b.column("term").to_pylist(), dtype=object)
            dterms = np.asarray(d.column("term").to_pylist(), dtype=object)
            cfs = d.column("cf").to_numpy(zero_copy_only=False).astype(np.int64)
            block_cf = cfs[np.searchsorted(dterms, bterms)].copy()
            for term, gcf in hot.items():
                block_cf[bterms == term] = gcf
            pcf = np.repeat(block_cf, ns).astype(np.float64)
            contrib_q = np.floor(
                tf.astype(np.float64) * np.log(total / pcf) * 1e6 + 0.5
            ).astype(np.int64)
            # partial sum per doc WITHIN the partition (exact: integers)
            di = doc.astype(np.int64)
            order = np.argsort(di, kind="mergesort")
            sdoc = di[order]
            starts = np.flatnonzero(np.r_[True, sdoc[1:] != sdoc[:-1]])
            sums = np.add.reduceat(contrib_q[order], starts)
            out.append(
                pa.table(
                    {
                        "doc_id": pa.array(sdoc[starts], type=pa.int64()),
                        "nll_q": pa.array(sums, type=pa.int64()),
                        "n_tokens": pa.array(
                            dl[order][starts].astype("int64"), type=pa.int64()
                        ),
                    }
                )
            )
        if not out:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "nll_q": pa.array([], type=pa.int64()),
                    "n_tokens": pa.array([], type=pa.int64()),
                }
            )
        return pa.concat_tables(out)

    partials = rd.from_items(
        [{"part_id": k} for k in range(manifest.n_partitions)]
    ).map_batches(_part_nll, batch_format="pyarrow", batch_size=1)

    # final merge: doc-routed partitions + ONE vectorized reduceat pass
    # each (Ray's sort-based groupby().aggregate() over n_docs tiny keys
    # measured 5x superlinear at a 25k->100k-doc probe; the routed merge
    # is the repo's standard discipline — see doc_keywords/sessionize)
    from indexer_ray.stages.shuffle import routed_reduce

    def _merge(g):
        doc = g["doc_id"].to_numpy()
        order = np.argsort(doc, kind="mergesort")
        sdoc = doc[order]
        starts = np.flatnonzero(np.r_[True, sdoc[1:] != sdoc[:-1]])
        import pandas as pd

        return pd.DataFrame(
            {
                "doc_id": sdoc[starts].astype("int64"),
                "nll_q": np.add.reduceat(g["nll_q"].to_numpy()[order], starts).astype(
                    "int64"
                ),
                # every partial carries the SAME dl for a doc; take the first
                "n_tokens": g["n_tokens"].to_numpy()[order][starts].astype("int64"),
            }
        )

    return routed_reduce(partials, ["doc_id"], n_parts, _merge)


def proximity_topk(searcher: "IndexSearcher", docs_ds, query: str, k: int = 10):
    """Proximity-ranked retrieval — minimal-window span scoring, the
    classic positional-IR ranker (Clarke et al. 1995 shortest-substring
    ranking): a document's score is the length of the SMALLEST token
    window containing at least one occurrence of every distinct query
    term; top-k ascending (ties break doc_id asc).

    Shape (phrase_search's pruning + the partial-top-k merge): the
    posting-list AND prunes the corpus to candidate docs and the sorted
    candidate-id array broadcasts once; survivors tokenize and run one
    linear two-pointer minimal-window pass over their query-term
    positions only; `top_k_rows` cuts each batch's windows to a local
    top-k and one merge yields the global ranking.  Integer windows keep
    the output hash-checkable.

    Output: (doc_id, window_len, rank), rank 0-based."""
    import ray

    from indexer_ray.stages.shuffle import top_k_rows

    if searcher.mode != "plain":
        raise ValueError("proximity_topk requires a plain-mode index")
    words = sorted(set(tokenize_plain(query)))
    if not words:
        raise ValueError("query has no plain tokens")
    cand = searcher.search_boolean(words)
    ids_ref = ray.put(np.sort(cand.astype(np.int64)))
    need = len(words)
    wset = set(words)

    def _min_window(toks: list[str]) -> int:
        # two-pointer over query-term hits only: O(#hits)
        hits = [(i, t) for i, t in enumerate(toks) if t in wset]
        best = -1
        have: dict[str, int] = {}
        left = 0
        for right in range(len(hits)):
            have[hits[right][1]] = have.get(hits[right][1], 0) + 1
            while len(have) == need:
                w = hits[right][0] - hits[left][0] + 1
                if best < 0 or w < best:
                    best = w
                t = hits[left][1]
                have[t] -= 1
                if not have[t]:
                    del have[t]
                left += 1
        return best

    def _windows(batch: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch.filter(pa.array(_member_mask(ids, d)))
        rows = []
        for doc_id, text in zip(
            t.column("doc_id").to_pylist(), t.column("text").to_pylist()
        ):
            w = _min_window(tokenize_plain(text or ""))
            if w > 0:
                rows.append((int(doc_id), w))
        return pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                "window_len": pa.array([r[1] for r in rows], type=pa.int64()),
            }
        )

    windows = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _windows, batch_format="pyarrow", zero_copy_batch=True, batch_size=8192
    )
    return top_k_rows(
        windows, k, ["window_len", "doc_id"], [True, True], ["doc_id", "window_len", "rank"]
    )


def ccnet_perplexity_buckets(index_dir: str, k: int = 3, n_parts: int = 64):
    """CCNet head/middle/tail bucketing (Wenzek et al. 2020 §4.3,
    arXiv:1911.00359): rank every document by its per-token unigram NLL
    (`doc_unigram_nll`, the repo's LM-quality proxy for CCNet's real LM)
    and NTILE the corpus into `k` equal-size buckets — bucket 1 = head
    (most fluent) through k = tail.  ppl_q = nll_q // n_tokens (integer
    micro-nats per token) keeps the order SQL-checkable; doc_id breaks
    ties so the rank is a total order.

    Distribution (the pack_sequences two-pass shape; the shuffle payload
    is 3 ints per doc): scores range-partition by ppl_q VALUE into
    contiguous slices; pass 1 collects the P slice counts on the driver
    (P ints) into exclusive prefix offsets; pass 2 sorts each slice
    locally and assigns global rank = offset + local position, then the
    exact NTILE split (first n mod k buckets get ceil(n/k)).  Value-range
    slicing can skew if ppl concentrates — swap the splitter for sampled
    quantiles when a corpus does; the per-slice payload stays key-sized
    either way.

    Output: (doc_id, ppl_q, bucket, label)."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    scores = doc_unigram_nll(index_dir, n_parts=n_parts)

    def _ppl(t: pa.Table) -> pa.Table:
        nll = t.column("nll_q").to_numpy(zero_copy_only=False).astype(np.int64)
        ntok = np.maximum(
            t.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.int64),
            1,
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "ppl_q": pa.array(nll // ntok, type=pa.int64()),
            }
        )

    ppl = scores.map_batches(
        _ppl, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n_total = ppl.count()
    if n_total == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "ppl_q": pa.array([], type=pa.int64()),
                    "bucket": pa.array([], type=pa.int64()),
                    "label": pa.array([], type=pa.string()),
                }
            )
        )
    bounds = ppl.aggregate(Min("ppl_q"), Max("ppl_q"))
    lo, hi = int(bounds["min(ppl_q)"]), int(bounds["max(ppl_q)"])
    width = max(-(-(hi - lo + 1) // n_parts), 1)

    def _route(t: pa.Table) -> pa.Table:
        v = t.column("ppl_q").to_numpy(zero_copy_only=False).astype(np.int64)
        part = np.minimum((v - lo) // width, n_parts - 1).astype(np.int32)
        return t.append_column("part", pa.array(part, type=pa.int32()))

    routed = ppl.map_batches(
        _route, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    counts_df = routed.groupby("part").count().to_pandas()
    counts = dict(
        zip(counts_df["part"].astype(int), counts_df["count()"].astype(int))
    )
    offsets = {}
    acc = 0
    for p in range(n_parts):
        offsets[p] = acc
        acc += counts.get(p, 0)

    q, r = divmod(n_total, k)
    cut = r * (q + 1)
    labels = (
        {1: "head", 2: "middle", 3: "tail"}
        if k == 3
        else {i: f"b{i}" for i in range(1, k + 1)}
    )

    def _assign(g):
        import pandas as pd

        g = g.sort_values(["ppl_q", "doc_id"], kind="mergesort")
        part = int(g["part"].iloc[0])
        rank0 = offsets[part] + np.arange(len(g), dtype=np.int64)
        bucket = np.empty(len(g), dtype=np.int64)
        head = rank0 < cut
        bucket[head] = rank0[head] // (q + 1)
        if q:
            bucket[~head] = r + (rank0[~head] - cut) // q
        bucket += 1
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "ppl_q": g["ppl_q"].to_numpy(dtype=np.int64),
                "bucket": bucket,
                "label": [labels[int(b)] for b in bucket],
            }
        )

    return routed.groupby("part").map_groups(_assign, batch_format="pandas")


def _levenshtein_within(a: str, b: str, cap: int) -> int:
    """Standard unit-cost Levenshtein (insert/delete/substitute — NO
    transposition, matching DuckDB's levenshtein()) with an early-exit
    band: returns cap+1 as soon as the distance must exceed `cap`."""
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        best = i
        ca = a[i - 1]
        for j in range(1, lb + 1):
            c = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != b[j - 1]),
            )
            cur[j] = c
            if c < best:
                best = c
        if best > cap:
            return cap + 1
        prev = cur
    return prev[lb]


def fuzzy_suggest(index_dir: str, term: str, k: int = 10, max_dist: int = 1):
    """"Did you mean": the top-`k` dictionary terms within `max_dist`
    Levenshtein edits of `term`, ranked (distance asc, global df desc,
    term asc) — the misspelling-recovery stage the reference has no
    analogue for (an unknown term simply scores nothing, tree.rs:406-415).

    Scan pruning: indexes built with the length-banded dict sidecar
    (dict_len.parquet, (term_len, term)-sorted, small row groups) read
    ONLY the row groups intersecting the |len - len(q)| <= max_dist
    band — edit distance admits no TERM-order pruning, but it does bound
    candidate LENGTH, and the sidecar clusters by length so parquet
    row-group stats turn that bound into pruned bytes.  Older indexes
    without the sidecar fall back to the full dict scan.  The
    per-candidate DP runs only on surviving terms; salted per-partition
    dfs Sum to global df; final top-k is `top_k_rows`' partial cut +
    single merge.

    Output: (rank, term, dist, df)."""
    import glob as _glob

    import ray.data as rd
    from ray.data.aggregate import Sum

    from indexer_ray.stages.shuffle import top_k_rows

    if not term:
        raise ValueError("term must be non-empty")
    dict_paths = sorted(_glob.glob(os.path.join(index_dir, "parts", "*", "dict.parquet")))
    len_paths = sorted(_glob.glob(os.path.join(index_dir, "parts", "*", "dict_len.parquet")))
    if len(len_paths) == len(dict_paths) and len_paths:
        expr = (pads.field("term_len") >= len(term) - max_dist) & (
            pads.field("term_len") <= len(term) + max_dist
        )
        ds = rd.read_parquet(len_paths, columns=["term", "df"], filter=expr)
    else:
        ds = rd.read_parquet(dict_paths, columns=["term", "df"])

    def _candidates(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lens = pc.utf8_length(batch.column("term"))
        band = pc.and_(
            pc.greater_equal(lens, len(term) - max_dist),
            pc.less_equal(lens, len(term) + max_dist),
        )
        t = batch.filter(band)
        terms = t.column("term").to_pylist()
        dists = np.fromiter(
            (_levenshtein_within(term, c, max_dist) for c in terms),
            dtype=np.int64,
            count=len(terms),
        )
        ok = dists <= max_dist
        return pa.table(
            {
                "term": pa.array(np.asarray(terms, dtype=object)[ok], type=pa.string()),
                "df": t.column("df").to_numpy(zero_copy_only=False)[ok].astype("int64"),
            }
        )

    agg = (
        ds.map_batches(_candidates, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
    )

    # dist is a property of the TERM (salted copies agree), recomputed on
    # the few surviving candidates rather than carried through the groupby
    def _with_dist(batch: pa.Table) -> pa.Table:
        dists = np.fromiter(
            (_levenshtein_within(term, c, max_dist) for c in batch.column("term").to_pylist()),
            dtype=np.int64,
            count=batch.num_rows,
        )
        return batch.append_column("dist", pa.array(dists, type=pa.int64()))

    return top_k_rows(
        agg.map_batches(_with_dist, batch_format="pyarrow", zero_copy_batch=True),
        k, ["dist", "df", "term"], [True, False, True], ["rank", "term", "dist", "df"],
    )


def related_terms(searcher: IndexSearcher, docs_ds, term: str, k: int = 10):
    """"Related searches": the top-`k` terms by document frequency WITHIN
    `term`'s match set (docs containing `term`), excluding the term itself
    — a co-occurrence rollup composed from existing primitives: the index
    supplies the match set (posting-list read, no corpus scan for
    candidates), the corpus streams through the broadcast membership
    filter, and term_stats' partial-aggregation counts survivors.

    Output: (rank, term, df) — df counted within the match set."""
    import pyarrow.compute as pc
    import ray

    from indexer_ray.pipelines.text_analysis import term_stats
    from indexer_ray.stages.shuffle import top_k_rows

    mode = searcher.mode
    if mode != "plain":
        raise ValueError("related_terms requires a plain-mode index")
    ids_ref = ray.put(
        np.sort(searcher.matching_doc_ids(term).astype(np.int64))
    )

    def _member(batch: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(_member_mask(ids, d)))

    matched = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _member, batch_format="pyarrow", zero_copy_batch=True
    )
    stats = term_stats(matched, mode="plain")

    def _drop_term(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.not_equal(batch.column("term"), term))

    return top_k_rows(
        stats.map_batches(_drop_term, batch_format="pyarrow", zero_copy_batch=True),
        k, ["df", "term"], [False, True], ["rank", "term", "df"],
    )


def more_like_this(
    searcher: IndexSearcher,
    docs_ds,
    doc_id: int,
    m: int = 5,
    k: int = 10,
    scorer: str = "tfidf",
):
    """"More like this": rank documents similar to a SEED document — the
    classic MoreLikeThis design (Lucene's published recipe): extract the
    seed's top-`m` TF-IDF terms, run them as a query, drop the seed from
    the results.  Keyword score = tf·|ln(N/df)| quantized (the repo's
    doc_keywords formula); df comes from the searcher's `term_df` (a
    binary search over cached partition block tables), never a corpus scan — only the seed's own text is tokenized.

    Plain-mode indexes only (like phrase_search/related_terms: plain
    [a-z0-9]+ terms re-tokenize to themselves, so the keyword query round-
    trips through search() unchanged; conformance-mode stems would
    re-stem).

    Output: (rank, doc_id, score_q) — score quantized like the search
    oracles; the seed never appears."""
    import pandas as pd

    from indexer_ray.conformance.lexer import tokenize_plain

    if searcher.mode != "plain":
        raise ValueError("more_like_this requires a plain-mode index")

    seed = (
        docs_ds.select_columns(["doc_id", "text"])
        .filter(lambda r: r["doc_id"] == doc_id)
        .take(1)
    )
    if not seed:
        raise KeyError(f"doc_id {doc_id} not found in docs_ds")
    toks = tokenize_plain(seed[0]["text"] or "")
    if not toks:
        return pd.DataFrame(
            {
                "rank": pd.Series([], dtype="int64"),
                "doc_id": pd.Series([], dtype="int64"),
                "score_q": pd.Series([], dtype="int64"),
            }
        )
    tf: dict[str, int] = {}
    for t in toks:
        tf[t] = tf.get(t, 0) + 1
    n = searcher.n_docs
    scored = []
    for t, c in tf.items():
        df = searcher.term_df(t)
        if df == 0:
            continue
        q = int(np.floor(c * abs(np.log(n / df)) * 1e6 + 0.5))
        if q > 0:  # terms in every doc carry no signal (idf 0)
            scored.append((-q, t))
    keywords = [t for _, t in sorted(scored)[:m]]
    if not keywords:
        return pd.DataFrame(
            {
                "rank": pd.Series([], dtype="int64"),
                "doc_id": pd.Series([], dtype="int64"),
                "score_q": pd.Series([], dtype="int64"),
            }
        )

    # over-fetch one slot: the seed itself usually tops its own query
    hits = searcher.search(" ".join(keywords), k=k + 1, scorer=scorer)
    sid = np.uint64(doc_id).astype(np.int64) if doc_id >= 0 else np.int64(doc_id)
    rows = []
    for d, s in hits:
        d_signed = int(np.uint64(d).astype(np.int64))
        if d_signed == int(sid):
            continue
        rows.append((d_signed, int(np.floor(s * 1e6 + 0.5))))
        if len(rows) == k:
            break
    return pd.DataFrame(
        {
            "rank": pd.Series(range(len(rows)), dtype="int64"),
            "doc_id": pd.Series([r[0] for r in rows], dtype="int64"),
            "score_q": pd.Series([r[1] for r in rows], dtype="int64"),
        }
    )


def search_rocchio(
    searcher: "IndexSearcher",
    docs_path: str,
    query: str,
    k: int = 10,
    n_fb: int = 5,
    m_exp: int = 3,
):
    """Pseudo-relevance-feedback query expansion (the Rocchio 1971 /
    Buckley 1994 "blind feedback" loop over the conformance tf-idf):

      1. base search, keep the top `n_fb` feedback docs (quantized
         score desc, doc_id asc — the repo's rank contract);
      2. expansion weight w(t) = (Σ_{d∈F} tf(t, d)) · |ln(N / df(t))|
         over the feedback docs' plain tokens, df from the searcher's
         `term_df`; the top `m_exp` terms NOT already in the query
         (floor(w·1e6 + 0.5) desc, term asc) join the query;
      3. re-search with the expanded term set (all distinct, so the
         duplicate-token m² semantics stay inert).

    Feedback texts are fetched by a predicate-pushdown parquet read of
    the `n_fb` ids — constant rows, never a corpus scan; expansion df
    lookups are `term_df` binary searches over the searcher's cached
    partition block tables.  Returns
    (rank, doc_id, score_q, exp_terms) — `exp_terms` is the space-joined
    expansion in weight order (constant per row, so the oracle
    hash-checks the chosen expansion too)."""
    import math
    from collections import Counter as _Counter

    import pyarrow.parquet as _pq

    import pandas as pd

    from indexer_ray.conformance.lexer import tokenize_plain as _tp

    base = searcher.search(query, k=None, scorer="tfidf", algorithm="exhaustive")
    ranked = sorted((-(int(math.floor(sc * 1e6 + 0.5))), d) for d, sc in base)
    fb_ids = [int(d) for _, d in ranked[:n_fb]]

    cnt: _Counter = _Counter()
    if fb_ids:
        t = _pq.read_table(
            docs_path, columns=["doc_id", "text"],
            filters=[("doc_id", "in", fb_ids)],
        )
        for tx in t.column("text").to_pylist():
            cnt.update(_tp(tx or ""))

    qset = set(_tp(query))
    n = searcher.n_docs
    weighted = []
    for term, tf in cnt.items():
        if term in qset:
            continue
        df = searcher.term_df(term)
        if df <= 0:
            continue
        w_q = int(math.floor(tf * abs(math.log(n / df)) * 1e6 + 0.5))
        weighted.append((-w_q, term))
    weighted.sort()
    exp_terms = [t for _, t in weighted[:m_exp]]

    expanded = " ".join(list(dict.fromkeys(_tp(query))) + exp_terms)
    hits = searcher.search(expanded, k=None, scorer="tfidf", algorithm="exhaustive")
    final = sorted((-(int(math.floor(sc * 1e6 + 0.5))), d) for d, sc in hits)[:k]
    exp_str = " ".join(exp_terms)
    return pd.DataFrame(
        {
            "rank": pd.Series(range(len(final)), dtype="int64"),
            "doc_id": pd.Series([int(d) for _, d in final], dtype="int64"),
            "score_q": pd.Series([int(-negq) for negq, _ in final], dtype="int64"),
            "exp_terms": pd.Series([exp_str] * len(final), dtype="object"),
        }
    )


def search_wildcard(
    searcher: "IndexSearcher",
    query: str,
    k: int = 10,
    max_expand: int = 25,
):
    """Wildcard query support — 'bat*' matches every term with that
    prefix (the reference's exact-token-only query path cannot): each
    trailing-star token expands through the DICTIONARY (prefix_suggest's
    row-group-pruned range read) to its top `max_expand` prefix terms by
    global df (df desc, term asc — Lucene's deterministic max-expansions
    cap), and ONE search scores the distinct union of plain + expanded
    terms with the standard tf-idf (a doc matching several expansions
    sums their contributions — OR semantics).

    Expanded terms already present as plain tokens are dropped from the
    expansion (no duplicate-token m² inflation), so the SQL oracle can
    replay the whole chain.  Returns (rank, doc_id, score_q, exp_terms);
    `exp_terms` is the space-joined expansion in rank order."""
    import math

    import pandas as pd

    from indexer_ray.conformance.lexer import tokenize_plain as _tp

    plain: list[str] = []
    prefixes: list[str] = []
    for raw in query.split():
        if raw.endswith("*") and len(raw) > 1:
            body = _tp(raw[:-1])
            if len(body) != 1:
                raise ValueError(f"wildcard token must be one plain token: {raw!r}")
            prefixes.append(body[0])
        else:
            plain.extend(_tp(raw))

    expanded: list[str] = []
    seen = set(plain)
    for p in prefixes:
        sug = prefix_suggest(searcher.index_dir, p, k=max_expand)
        if hasattr(sug, "to_pandas"):
            sug = sug.to_pandas()
        for t in sug.sort_values("rank")["term"]:
            if t not in seen:
                expanded.append(t)
                seen.add(t)

    terms = list(dict.fromkeys(plain)) + expanded
    if not terms:
        raise ValueError("query has no plain tokens after expansion")
    hits = searcher.search(
        " ".join(terms), k=None, scorer="tfidf", algorithm="exhaustive"
    )
    final = sorted((-(int(math.floor(sc * 1e6 + 0.5))), int(d)) for d, sc in hits)[:k]
    exp_str = " ".join(expanded)
    return pd.DataFrame(
        {
            "rank": pd.Series(range(len(final)), dtype="int64"),
            "doc_id": pd.Series([d for _, d in final], dtype="int64"),
            "score_q": pd.Series([int(-negq) for negq, _ in final], dtype="int64"),
            "exp_terms": pd.Series([exp_str] * len(final), dtype="object"),
        }
    )
