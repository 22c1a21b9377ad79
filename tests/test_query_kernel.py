"""The warm query kernel's per-doc summing (`_sum_runs`, in both its dense
and its sort regime) equals the `np.unique` + `np.add.at` reference
accumulate, bit for bit, and its top-k selection (`_top_positions`,
`_top_k`, with and without the chunk-max cut) equals a brute-force sort;
a dense-id union summed over its span equals exhaustive and the spec."""

import numpy as np
import pytest

from indexer_ray.pipelines.query import _DENSE_SPAN, _sum_runs, _top_k, _top_positions


def _unique_add_at(doc_runs, contrib_runs):
    uniq, inv = np.unique(np.concatenate(doc_runs), return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(sums, inv, np.concatenate(contrib_runs))
    return uniq, sums


def _runs(rng, n_runs, universe, size, base):
    """n_runs doc-sorted unique-id runs drawn from ``universe`` ids above
    ``base``, with contributions of mixed magnitude (so addition order
    shows in the low bits)."""
    doc_runs, contrib_runs = [], []
    for _ in range(n_runs):
        n = int(rng.integers(0, size + 1)) if rng.random() < 0.8 else 0
        ids = np.sort(rng.choice(universe, size=min(n, universe), replace=False))
        doc_runs.append(np.uint64(base) + ids.astype(np.uint64))
        contrib_runs.append(rng.random(len(ids)) * 10.0 ** rng.integers(-8, 8, len(ids)))
    return doc_runs, contrib_runs


@pytest.mark.parametrize(
    "universe, base",
    [
        (50, 0),  # runs overlap almost fully
        (5_000, 0),  # partial overlap
        (5_000, 2**63 + 12_345),  # hash ids >= 2^63
        (300, 2**64 - 301),  # top of the uint64 range
    ],
)
def test_sum_runs_equals_unique_add_at(universe, base):
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n_runs = 1 + seed % 6
        doc_runs, contrib_runs = _runs(rng, n_runs, universe, 200, base)
        docs, sums = _sum_runs(doc_runs, contrib_runs)
        ref_docs, ref_sums = _unique_add_at(doc_runs, contrib_runs)
        assert docs.dtype == np.uint64
        assert np.array_equal(docs, ref_docs), seed
        assert np.array_equal(sums.view(np.uint64), ref_sums.view(np.uint64)), seed


@pytest.mark.parametrize("layout", ["disjoint", "identical"])
@pytest.mark.parametrize("n_runs", range(1, 7))
def test_sum_runs_disjoint_identical_and_empty_runs(layout, n_runs):
    rng = np.random.default_rng(n_runs)
    # every other run empty; the rest share no id (listed out of id order)
    # or all hold the same ids
    doc_runs, contrib_runs = [], []
    for r in rng.permutation(n_runs):
        n = 0 if r % 2 else 30
        lo = r * 100 if layout == "disjoint" else 0
        doc_runs.append(np.arange(lo, lo + n, dtype=np.uint64) + np.uint64(2**63))
        contrib_runs.append(rng.random(n) * 10.0 ** rng.integers(-8, 8, n))
    docs, sums = _sum_runs(doc_runs, contrib_runs)
    ref_docs, ref_sums = _unique_add_at(doc_runs, contrib_runs)
    assert np.array_equal(docs, ref_docs)
    assert np.array_equal(sums.view(np.uint64), ref_sums.view(np.uint64))


def _spanning_runs(rng, n_runs, n, span, lo):
    """n_runs doc-sorted unique-id runs of n postings in all, whose ids
    cover exactly [lo, lo + span): the first run holds both ends, the
    others draw from between them; then one empty run inserted anywhere.
    Contributions of mixed magnitude, some exactly 0.0."""
    sizes = [2] + [0] * (n_runs - 1)
    for r in rng.integers(1, n_runs, n - 2):
        sizes[r] += 1
    doc_runs, contrib_runs = [], []
    for i, m in enumerate(sizes):
        if i == 0:
            ids = np.r_[0, np.sort(rng.choice(np.arange(1, span - 1), m - 2, replace=False)), span - 1]
        else:
            ids = np.sort(rng.choice(np.arange(1, span - 1), m, replace=False))
        doc_runs.append(np.uint64(lo) + ids.astype(np.uint64))
        c = rng.random(m) * 10.0 ** rng.integers(-8, 8, m)
        c[rng.random(m) < 0.1] = 0.0
        contrib_runs.append(c)
    at = int(rng.integers(0, n_runs + 1))
    doc_runs.insert(at, np.empty(0, np.uint64))
    contrib_runs.insert(at, np.empty(0))
    return doc_runs, contrib_runs


@pytest.mark.parametrize("extra, dense", [(0, True), (1, False)])  # span = C·n, C·n + 1
@pytest.mark.parametrize("where", ["low", "hash", "top"])
def test_sum_runs_regimes_at_the_gate_boundary(extra, dense, where):
    """Unions whose span is exactly `_DENSE_SPAN` × their postings take the
    dense array, one id wider take the sort; both equal the reference bit
    for bit, for ids from 0, >= 2^63 and ending at 2^64 - 1 (where
    hi - lo + 1 would overflow uint64 arithmetic)."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_runs, n = 2 + seed % 3, 8 + 7 * seed
        span = _DENSE_SPAN * n + extra
        lo = {"low": 0, "hash": 2**63 + 12_345, "top": 2**64 - span}[where]
        doc_runs, contrib_runs = _spanning_runs(rng, n_runs, n, span, lo)
        ends = [int(d[i]) for d in doc_runs if len(d) for i in (0, -1)]
        assert (min(ends), max(ends) - min(ends) + 1) == (lo, span)
        assert sum(map(len, doc_runs)) == n and min(map(len, doc_runs)) == 0
        ref_docs, ref_sums = _unique_add_at(doc_runs, contrib_runs)
        # the gate reads the runs' ends off the arrays, or as given
        for given in (None, [(int(d[0]), int(d[-1]), len(d)) for d in doc_runs if len(d)]):
            stats = {"dense_sums": 0}
            docs, sums = _sum_runs(doc_runs, contrib_runs, given, stats)
            assert stats["dense_sums"] == dense, seed
            assert docs.dtype == np.uint64
            assert np.array_equal(docs, ref_docs), seed
            assert np.array_equal(sums.view(np.uint64), ref_sums.view(np.uint64)), seed


@pytest.mark.parametrize("doc_id", [0, 7, 2**63, 2**64 - 1])
def test_sum_runs_single_shared_id(doc_id):
    """Every run holds the one same id (a span of 1, dense), among empty
    runs: its sum adds the runs' contributions into 0.0 in run order."""
    one, none = np.array([doc_id], np.uint64), np.empty(0, np.uint64)
    doc_runs = [one, none, one, one, none, one]
    contrib_runs = [np.array(c, float) for c in ([1e8], [], [0.0], [3e-9], [], [0.1])]
    stats = {"dense_sums": 0}
    docs, sums = _sum_runs(doc_runs, contrib_runs, stats=stats)
    assert stats["dense_sums"] == 1
    assert docs.tolist() == [doc_id] and docs.dtype == np.uint64
    assert sums.tolist() == [((0.0 + 1e8) + 0.0 + 3e-9) + 0.1]
    ref_docs, ref_sums = _unique_add_at(doc_runs, contrib_runs)
    assert np.array_equal(docs, ref_docs)
    assert np.array_equal(sums.view(np.uint64), ref_sums.view(np.uint64))


def test_sum_runs_all_runs_empty():
    stats = {"dense_sums": 0}
    docs, sums = _sum_runs([np.empty(0, np.uint64)] * 3, [np.empty(0)] * 3, stats=stats)
    assert len(docs) == len(sums) == 0 and docs.dtype == np.uint64
    assert stats["dense_sums"] == 0


def _sorted_top_k(docs, scores, k):
    """Reference ranking: nonzero scores sorted by (-score, doc_id)."""
    ranked = sorted(((d, s) for d, s in zip(docs.tolist(), scores.tolist()) if s != 0.0),
                    key=lambda ds: (-ds[1], ds[0]))
    return ranked if k is None else ranked[:k]


@pytest.mark.parametrize("base", [0, 2**63 + 7, 2**64 - 1_000])
@pytest.mark.parametrize("values", ["ties", "distinct"])
def test_top_k_equals_sorted(base, values):
    """Heavy ties at the k-th score (a handful of distinct values), exact
    zeros (none, some, all), every k from 1 past n, ids >= 2^63 given in
    no particular order."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        docs = np.uint64(base) + rng.permutation(900)[:n].astype(np.uint64)
        if values == "ties":
            scores = rng.choice([0.25, 0.5, 1.0, 3.0], n)
        else:
            scores = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
        scores[rng.random(n) < (0.0, 0.3, 1.0)[seed % 3]] = 0.0
        for k in {1, 3, max(n - 1, 1), n, n + 5, None}:
            want = _sorted_top_k(docs, scores, k)
            pos = _top_positions(docs, scores, k)
            assert list(zip(docs[pos].tolist(), scores[pos].tolist())) == want, (seed, k)
            assert _top_k(docs, scores, k) == want, (seed, k)


def test_top_k_empty_input():
    docs, scores = np.empty(0, np.uint64), np.empty(0)
    for k in (1, 3, None):
        assert _top_k(docs, scores, k) == []
        assert len(_top_positions(docs, scores, k)) == 0


@pytest.fixture
def partitions(monkeypatch):
    """Counts `np.partition` calls: the chunk-max cut makes none."""
    calls = []
    real = np.partition

    def counted(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(np, "partition", counted)
    return calls


def _ranked(docs, scores, k):
    pos = _top_positions(docs, scores, k)
    return list(zip(docs[pos].tolist(), scores[pos].tolist()))


@pytest.mark.parametrize("k", [1, 3, 10])
def test_chunk_max_cut_equals_sorted(k, partitions):
    """Over more than 256·k rows with no chunk scoring nothing the cut
    skips the partition, and equals a brute-force sort: few distinct
    values (heavy ties at the k-th score) or distinct ones, zeros among
    them, doc ids ascending (a span array, ``docs`` None too) or
    shuffled."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = 256 * k + 1 + int(rng.integers(0, 3000))
        if seed % 2:
            scores = rng.choice([0.0, 0.5, 1.0, 2.0], n)
        else:
            scores = rng.random(n) * (rng.random(n) < 0.7)
        m = n // k
        scores[np.arange(k) * m + rng.integers(0, m, k)] += 0.125  # lb > 0
        ascending = np.arange(n, dtype=np.uint64) + np.uint64(2**63)
        for docs in (ascending, rng.permutation(ascending)):
            del partitions[:]
            assert _ranked(docs, scores, k) == _sorted_top_k(docs, scores, k), (seed, k)
            assert not partitions
        pos = _top_positions(None, scores, k)
        assert np.array_equal(pos, _top_positions(np.arange(n), scores, k))


@pytest.mark.parametrize("k", [2, 5, 10])
def test_chunk_max_cut_ties_straddle_chunk_edges(k, partitions):
    """The k-th score is held by more rows than the top k has room for,
    at both sides of every chunk edge and in the tail past the last full
    chunk: the lowest ids among them fill the top k."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 256 * k + 1 + int(rng.integers(0, 500))
        m = n // k
        scores = rng.random(n) * 0.5
        edges = np.arange(1, k + 1) * m
        tied = np.unique(np.r_[edges - 1, edges[:-1], n - 1])
        scores[tied] = 0.75
        scores[rng.choice(n, k // 2, replace=False)] = 1.0  # some above the tie
        docs = rng.permutation(n).astype(np.uint64)
        assert _ranked(docs, scores, k) == _sorted_top_k(docs, scores, k), seed
        assert not partitions


def test_chunk_max_cut_falls_back_when_a_chunk_scores_nothing(partitions):
    """One of the 10 chunks scoring nothing (lb = 0) falls back to the
    partition at k=10, while k=1 and k=3 still cut; n-1 rows are too few
    for the cut (k >= n needs neither).  k beyond the nonzero count
    too."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 3000 + int(rng.integers(0, 1000))
        docs = np.arange(n, dtype=np.uint64)
        scores = rng.random(n) * (rng.random(n) < 0.5)
        m = n // 10
        c = int(rng.integers(0, 10))
        scores[c * m:(c + 1) * m] = 0.0
        for k in (1, 3, 10, n - 1, n, n + 5):
            del partitions[:]
            assert _ranked(docs, scores, k) == _sorted_top_k(docs, scores, k), (seed, k)
            assert len(partitions) == (k in (10, n - 1)), (seed, k)
        few = np.zeros(n)
        few[rng.choice(n, 4, replace=False)] = [3.0, 1.0, 1.0, 2.0]
        for k in (1, 4, 5, 10, n + 5):
            assert _ranked(docs, few, k) == _sorted_top_k(docs, few, k), (seed, k)
        assert _ranked(docs, np.zeros(n), 3) == []


def test_dense_union_with_zero_weight_term_equals_exhaustive_and_spec(ray_session, tiny_pages, tmp_path):
    """On a dense-id index a tfidf query pairing the hot term (df = N, so
    weight |ln(N/N)| = 0) with a mid-frequency term sums its union over
    the span — the dense path, no MaxScore — and equals exhaustive and the
    brute-force spec scorer."""
    import pyarrow.parquet as pq

    from indexer_ray.conformance.lexer import tokenize
    from indexer_ray.conformance.scorer import brute_force_tfidf_topk
    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import IndexSearcher
    from indexer_ray.sources.pages import make_vocab

    index_dir = str(tmp_path / "idx")
    build_index([tiny_pages], index_dir, BuildConfig(n_partitions=4, block_size=16, sample_docs=100))
    texts = pq.read_table(tiny_pages, columns=["text"]).column("text").to_pylist()
    corpus = [(i, tokenize(t)) for i, t in enumerate(texts)]
    vocab = make_vocab()
    s = IndexSearcher(index_dir)
    assert s.term_df(tokenize(vocab[0])[0]) == s.n_docs
    for q in (f"{vocab[0]} {vocab[100]}", f"{vocab[100]} {vocab[0]} {vocab[3]}"):
        for k in (1, 3, 10, 500):
            got = s.search(q, k=k, scorer="tfidf", algorithm="wand")
            st = s.last_wand_stats
            assert (st["dense_sums"], st["windows_skipped"]) == (1, 0), (q, k)
            assert got == s.search(q, k=k, scorer="tfidf", algorithm="exhaustive"), (q, k)
            want = brute_force_tfidf_topk(corpus, tokenize(q), k=k)
            assert [d for d, _ in got] == [d for d, _ in want], (q, k)
            assert [x for _, x in got] == pytest.approx([x for _, x in want], rel=1e-12), (q, k)
            assert got
