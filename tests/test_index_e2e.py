"""End-to-end rank-identity: distributed build + both query engines vs the
brute-force conformance spec on the reference query set (SURVEY.md §5.3)."""

import pyarrow.parquet as pq
import pytest

from indexer_ray.conformance.lexer import tokenize
from indexer_ray.conformance.scorer import brute_force_bm25_topk, brute_force_tfidf_topk
from indexer_ray.functions.hashing import hash64_str
from indexer_ray.pipelines.build import BuildConfig, build_index
from indexer_ray.pipelines.query import IndexSearcher
from indexer_ray.sources.pages import make_vocab, reference_queries


@pytest.fixture(scope="module", params=["dense", "hash"])
def built(request, ray_session, tiny_pages, tmp_path_factory):
    """Build + spec corpus under both doc-id schemes (dense row numbers and
    url hashes); every test below must hold for each."""
    id_assign = request.param
    index_dir = str(tmp_path_factory.mktemp("idx") / f"tiny_{id_assign}")
    cfg = BuildConfig(
        n_partitions=8,
        block_size=16,  # small blocks so WAND pruning paths execute
        sample_docs=100,
        hot_df_ratio=0.10,  # force a real hot-term set at tiny scale
        tokenize_actors=2,
        batch_size=64,
        id_assign=id_assign,
    )
    manifest = build_index([tiny_pages], index_dir, cfg)
    # spec-side corpus: tokenize the text column with the conformance chain
    t = pq.read_table(tiny_pages, columns=["url", "text"])
    corpus = []
    for i, (url, text) in enumerate(
        zip(t.column("url").to_pylist(), t.column("text").to_pylist())
    ):
        doc_id = i if id_assign == "dense" else hash64_str(url)
        corpus.append((doc_id, tokenize(text)))
    return index_dir, manifest, corpus


def test_manifest_counts(built):
    index_dir, manifest, corpus = built
    non_empty = [c for c in corpus if c[1]]
    assert manifest.n_docs == len(non_empty) == 200
    assert manifest.total_doc_len == sum(len(toks) for _, toks in non_empty)
    assert manifest.hot_terms, "tiny corpus must trip the hot-term sampler"
    assert all(s >= 2 for s in manifest.hot_terms.values())
    total_postings = sum(p["n_postings"] for p in manifest.partitions.values())
    assert total_postings == sum(len(set(toks)) for _, toks in non_empty)


def test_df_matches_spec(built):
    index_dir, manifest, corpus = built
    s = IndexSearcher(index_dir)
    from collections import Counter

    df = Counter()
    for _, toks in corpus:
        df.update(set(toks))
    probes = ["needle17", ".", ",", "needle199"] + list(manifest.hot_terms)[:3]
    for term in probes:
        assert s.term_df(term) == df.get(term, 0), term


@pytest.mark.parametrize("scorer", ["tfidf", "bm25"])
def test_rank_identity_vs_spec(built, scorer):
    index_dir, manifest, corpus = built
    s = IndexSearcher(index_dir)
    brute = brute_force_tfidf_topk if scorer == "tfidf" else brute_force_bm25_topk
    for q in reference_queries():
        expected = brute(corpus, tokenize(q["query"]), k=q["k"])
        got = s.search(q["query"], k=q["k"], scorer=scorer, algorithm="exhaustive")
        assert [d for d, _ in got] == [d for d, _ in expected], q["query"]
        for (_, gs), (_, es) in zip(got, expected):
            assert gs == pytest.approx(es, rel=1e-12), q["query"]


@pytest.mark.parametrize("scorer", ["tfidf", "bm25"])
def test_wand_equals_exhaustive(built, scorer):
    index_dir, _, _ = built
    s = IndexSearcher(index_dir)
    for q in reference_queries():
        for k in (3, 10):
            ex = s.search(q["query"], k=k, scorer=scorer, algorithm="exhaustive")
            wd = s.search(q["query"], k=k, scorer=scorer, algorithm="wand")
            assert wd == ex, (q["query"], k)


def test_wand_telemetry_counts_consistent(built):
    """last_wand_stats after a WAND search: every counter non-negative,
    windows_skipped <= windows, blocks_decoded <= blocks_total, and the
    pruning path observably fires on at least one reference query."""
    index_dir, _, _ = built
    s = IndexSearcher(index_dir)
    any_pruned = False
    for q in reference_queries():
        s.search(q["query"], k=3, scorer="bm25", algorithm="wand")
        st = s.last_wand_stats
        assert 0 <= st["windows_skipped"] <= st["windows"]
        assert 0 <= st["blocks_decoded"] <= st["blocks_total"]
        if (
            st["windows_skipped"] > 0
            or st["blocks_decoded"] < st["blocks_total"]
        ):
            any_pruned = True
    assert any_pruned


def test_wand_then_exhaustive_keeps_one_decoded_copy(built):
    """A term WAND decoded block by block and the exhaustive kernel then
    decoded in full holds ONE decoded copy (the block-LRU charge assumes
    it), and WAND over the fully-decoded term still ranks exactly."""
    index_dir, _, _ = built
    ref = IndexSearcher(index_dir)
    s = IndexSearcher(index_dir)
    block_cached = False
    for q in reference_queries():
        for scorer in ("tfidf", "bm25"):
            expected = ref.search(q["query"], k=3, scorer=scorer, algorithm="exhaustive")
            assert s.search(q["query"], k=3, scorer=scorer, algorithm="wand") == expected
            block_cached |= any(tb.dec_blocks for tb in s._blocks_cache.values())
            assert s.search(q["query"], k=3, scorer=scorer, algorithm="exhaustive") == expected
            assert all(not tb.dec_blocks for tb in s._blocks_cache.values())
            assert s.search(q["query"], k=3, scorer=scorer, algorithm="wand") == expected
            assert all(not tb.dec_blocks for tb in s._blocks_cache.values())
    assert block_cached, "no reference query made WAND decode a block"


def test_wand_skips_blocks_on_common_plus_rare_query(built):
    """block_size=16 gives the hot term several blocks.  With k=1 the rare
    term's doc sets θ early, so a cold searcher's sweep scores fewer blocks
    than the query's terms hold, decodes each scored block at most once,
    and still ranks exactly; a warm rerun scores the same blocks and
    decodes none."""
    index_dir, _, _ = built
    hot = make_vocab()[0]
    q = f"{hot} needle17"
    s = IndexSearcher(index_dir)
    assert len(s._load_term_blocks(tokenize(hot)[0]).n) > 1
    got = s.search(q, k=1, scorer="bm25", algorithm="wand")
    st = dict(s.last_wand_stats)
    assert st["blocks_decoded"] < st["blocks_total"]
    assert 0 < st["payload_decodes"] <= st["blocks_decoded"]
    assert got == IndexSearcher(index_dir).search(q, k=1, scorer="bm25", algorithm="exhaustive")
    assert s.search(q, k=1, scorer="bm25", algorithm="wand") == got
    assert s.last_wand_stats["blocks_decoded"] == st["blocks_decoded"]
    assert s.last_wand_stats["payload_decodes"] == 0


def test_cached_contributions_follow_scoring_inputs(built):
    """One searcher with a small block budget, calls alternating scorer,
    algorithm, global_stats (avgdl alone, n_docs and df alone, all three),
    duplicate query tokens and k beyond the match count: every call
    equals a fresh searcher's, and the LRU's byte count stays the sum of
    its entries' charges, within budget."""
    index_dir, manifest, _ = built
    vocab = make_vocab()
    hot, mid = vocab[0], vocab[100]
    t_hot, t_mid = tokenize(hot)[0], tokenize(mid)[0]
    queries = [f"{hot} {mid}", mid, f"{mid} {mid}", f"{hot} {hot} needle17", f"{vocab[3]} {vocab[7]}"]
    # each entry changes one input of the one before: avgdl alone, then
    # n_docs and df alone (the weight), then all three
    stats = [
        None,
        {"n_docs": manifest.n_docs, "avgdl": 2 * manifest.avgdl},
        {"n_docs": 1000, "avgdl": 2 * manifest.avgdl, "df": {t_hot: 600}},
        {"n_docs": 300, "avgdl": 9.5, "df": {t_mid: 7}},
    ]
    budget = 16 << 10
    s = IndexSearcher(index_dir, blocks_cache_bytes=budget)
    loaded = set()
    for _ in range(2):
        for q in queries:
            loaded.update(tokenize(q))
            for scorer in ("bm25", "tfidf"):
                for gs in stats:
                    for algorithm in ("exhaustive", "wand"):
                        for k in (3, 1000):
                            kw = dict(k=k, scorer=scorer, algorithm=algorithm, global_stats=gs)
                            got = s.search(q, **kw)
                            assert got == IndexSearcher(index_dir).search(q, **kw), (q, kw)
                            assert s._blocks_cache_bytes == sum(
                                s._tb_size(tb) for tb in s._blocks_cache.values()
                            )
                            assert s._blocks_cache_bytes <= budget
    assert len(s._blocks_cache) < len(loaded), "the budget never evicted a term"


def test_url_resolution(built):
    index_dir, _, corpus = built
    s = IndexSearcher(index_dir)
    hits = s.search_urls("needle17", k=3)
    assert len(hits) == 1
    assert hits[0][0].endswith("/page/000000000017")


def test_empty_and_stopword_queries(built):
    index_dir, _, _ = built
    s = IndexSearcher(index_dir)
    assert s.search("") == []
    assert s.search("the and of") == []
    assert s.search("zzzzunknownterm") == []


def test_rank_identity_at_2k_docs(ray_session, small_pages, tmp_path_factory):
    """Same invariant at 10x the corpus: multi-batch build, real hot-term
    salting, dense ids — engine equals the brute-force spec on every
    reference query, both scorers, WAND included."""
    index_dir = str(tmp_path_factory.mktemp("idx2k") / "small")
    build_index([small_pages], index_dir, BuildConfig(n_partitions=8, batch_size=256))
    t = pq.read_table(small_pages, columns=["text"])
    corpus = [(i, tokenize(x)) for i, x in enumerate(t.column("text").to_pylist())]
    s = IndexSearcher(index_dir)
    for q in reference_queries():
        toks = tokenize(q["query"])
        for scorer, brute in (("tfidf", brute_force_tfidf_topk), ("bm25", brute_force_bm25_topk)):
            expected = brute(corpus, toks, k=10)
            got = s.search(q["query"], k=10, scorer=scorer, algorithm="auto")
            assert [d for d, _ in got] == [d for d, _ in expected], (q["query"], scorer)
            for (_, gs), (_, es) in zip(got, expected):
                assert gs == pytest.approx(es, rel=1e-12)


def test_df_point_reads_match_full_dict_load(built):
    """VERDICT r2 #6: with full-dict loading disabled (the web-scale
    configuration, where a partition dict has millions of terms), df
    lookups become predicate-pushdown point reads and every search result
    must be identical to the in-memory-dict searcher."""
    index_dir, manifest, corpus = built
    full = IndexSearcher(index_dir)
    point = IndexSearcher(index_dir, dict_full_load_rows=0)
    terms = sorted({t for _, toks in corpus for t in toks})[:40]
    for t in terms:
        assert point.term_df(t) == full.term_df(t), t
    assert point.term_df("never-a-term-zzz") == 0
    for q in ["running fast", "needle17", "the index"]:
        for scorer in ("tfidf", "bm25"):
            assert point.search(q, k=10, scorer=scorer) == full.search(
                q, k=10, scorer=scorer
            )
    # full dicts were never pulled into memory on the point searcher
    assert not point._dict_cache and point._df_point_cache


def test_boolean_search_vs_brute(built):
    """Conjunctive boolean retrieval (AND / AND-NOT) equals set algebra over
    the spec-tokenized corpus — including hot (salted, multi-partition)
    terms, absent terms, and the decode-only-overlapping-blocks path."""
    import numpy as np

    index_dir, manifest, corpus = built
    s = IndexSearcher(index_dir)
    docs_with = {}
    for doc_id, toks in corpus:
        for t in set(toks):
            docs_with.setdefault(t, set()).add(doc_id)
    hot = list(manifest.hot_terms)[:2]
    # mid-df terms straight from the (stemmed) index vocabulary, so every
    # case intersects NON-vacuous sets
    mids = sorted(t for t, d in docs_with.items() if 10 <= len(d) <= 100)[:3]
    assert len(mids) >= 3 and hot
    cases = [
        (mids[:2], []),
        (mids[:1], mids[1:2]),
        ([hot[0]], []),
        ([hot[0], mids[0]], []),
        (mids[:2], hot[:1]),
        (mids[:3], []),
        (["needle17"], []),
        (["needle17", "needle199"], []),  # disjoint singletons -> empty
    ]
    nonempty_results = 0
    for must, must_not in cases:
        expect = set.intersection(*(docs_with.get(t, set()) for t in must))
        for t in must_not:
            expect -= docs_with.get(t, set())
        got = s.search_boolean(must, must_not)
        assert got.dtype == np.uint64
        assert list(got) == sorted(expect), (must, must_not)
        nonempty_results += bool(len(got))
    assert nonempty_results >= 4  # the suite exercised real intersections
    # tokenizer symmetry: a raw string query stems/filters like the build
    got = s.search_boolean("running fast", "")
    assert list(got) == sorted(docs_with.get("run", set()) & docs_with.get("fast", set()))
    # absent must term short-circuits; pure-NOT is rejected
    assert len(s.search_boolean(["zzzznoterm", "running"])) == 0
    with pytest.raises(ValueError):
        s.search_boolean([], ["running"])
