"""End-to-end rank-identity: distributed build + both query engines vs the
brute-force conformance spec on the reference query set (SURVEY.md §5.3)."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from indexer_ray.conformance.lexer import tokenize
from indexer_ray.conformance.scorer import brute_force_bm25_topk, brute_force_tfidf_topk
from indexer_ray.functions.hashing import hash64_str
from indexer_ray.pipelines.build import BuildConfig, build_index
from indexer_ray.pipelines.query import IndexSearcher, _dense_span
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


def _takes_dense_path(s, q):
    """Whether `_search_wand` sums ``q``'s whole union into one span array:
    several terms whose union passes `_sum_runs`' dense gate."""
    ends = [tb.ends for tb in map(s._load_term_blocks, dict.fromkeys(tokenize(q))) if tb]
    return len(ends) > 1 and _dense_span(ends) is not None


def _assert_dense_path(st):
    assert (st["dense_sums"], st["windows_skipped"]) == (1, 0), st
    assert st["blocks_decoded"] == st["blocks_total"], st


def test_wand_telemetry_counts_consistent(built):
    """last_wand_stats after a WAND search: every counter non-negative,
    windows_skipped <= windows, blocks_decoded <= blocks_total.  On url-hash
    ids (no union passes the dense gate) the pruning path observably fires
    on at least one reference query; on dense ids the multi-term queries
    whose union passes the gate (at least one) report the dense path."""
    index_dir, manifest, _ = built
    hashed = manifest.config["id_assign"] == "hash"
    s = IndexSearcher(index_dir)
    any_pruned = any_dense = False
    for q in reference_queries():
        s.search(q["query"], k=3, scorer="bm25", algorithm="wand")
        st = s.last_wand_stats
        assert 0 <= st["windows_skipped"] <= st["windows"]
        assert 0 <= st["blocks_decoded"] <= st["blocks_total"]
        if _takes_dense_path(s, q["query"]):
            assert not hashed
            _assert_dense_path(st)
            any_dense = True
        if (
            st["windows_skipped"] > 0
            or st["blocks_decoded"] < st["blocks_total"]
        ):
            any_pruned = True
    assert any_pruned if hashed else any_dense


def test_wand_skips_blocks_on_common_plus_rare_query(built):
    """block_size=16 gives the hot term several blocks.  With k=1 the rare
    term's doc sets θ, so the hot term is non-essential and only its block
    covering that doc is scored: fewer blocks than the query's terms hold.
    A cold searcher decodes both lists whole; a warm rerun scores the same
    blocks and decodes none."""
    index_dir, manifest, _ = built
    hot = make_vocab()[0]
    q = f"{hot} needle17"
    s = IndexSearcher(index_dir)
    assert len(s._load_term_blocks(tokenize(hot)[0]).n) > 1
    got = s.search(q, k=1, scorer="bm25", algorithm="wand")
    st = dict(s.last_wand_stats)
    if manifest.config["id_assign"] == "hash":
        assert st["blocks_decoded"] < st["blocks_total"]
        assert st["windows_skipped"] >= 1
        assert st["dense_sums"] == 0
    else:  # the hot term spans every dense id: the dense path scores all
        assert _takes_dense_path(s, q)
        _assert_dense_path(st)
    assert st["payload_decodes"] == st["blocks_total"]
    assert got == IndexSearcher(index_dir).search(q, k=1, scorer="bm25", algorithm="exhaustive")
    assert s.search(q, k=1, scorer="bm25", algorithm="wand") == got
    assert s.last_wand_stats["blocks_decoded"] == st["blocks_decoded"]
    assert s.last_wand_stats["payload_decodes"] == 0


@pytest.mark.parametrize(
    "query, k, scorer, skipped",
    [
        ("needle17", 3, "bm25", 0),  # one term: θ = -inf
        ("{hot} needle17", 3, "bm25", 0),  # top term holds < k postings: θ = -inf
        ("needle42 needle43", 1, "tfidf", 0),  # θ tied by two docs: nothing non-essential
        ("{hot} needle17", 1, "bm25", 1),  # pruned
        ("{hot} {mid}", 3, "tfidf", 1),  # the hot term's df is N: zero idf
        ("{mid} {mid} {hot}", 3, "bm25", 1),  # duplicate tokens
    ],
)
def test_wand_branches_equal_exhaustive(built, query, k, scorer, skipped):
    """Each branch of the top-k kernel, told apart by the non-essential
    term count, equals the exhaustive kernel exactly.  On dense ids every
    multi-term case's union passes the dense gate (the hot term, df = N,
    spans every doc; needle42 and needle43 sit in adjacent docs), so those
    take the dense path instead; on url-hash ids MaxScore runs them."""
    index_dir, manifest, _ = built
    vocab = make_vocab()
    q = query.format(hot=vocab[0], mid=vocab[100])
    s = IndexSearcher(index_dir)
    assert s.term_df(tokenize(vocab[0])[0]) == manifest.n_docs
    got = s.search(q, k=k, scorer=scorer, algorithm="wand")
    dense = manifest.config["id_assign"] == "dense" and " " in query
    assert _takes_dense_path(s, q) == dense
    if dense:
        _assert_dense_path(s.last_wand_stats)
    else:
        assert s.last_wand_stats["windows_skipped"] == skipped
        assert s.last_wand_stats["dense_sums"] == 0
    assert got == s.search(q, k=k, scorer=scorer, algorithm="exhaustive")
    assert got


@pytest.mark.parametrize("algorithm", ["auto", "wand", "exhaustive"])
def test_search_k_zero_and_negative(built, algorithm):
    """k=0 returns no hits; a negative k raises ValueError naming k when
    the call is made, before the query is looked at — through
    `search_urls` too."""
    index_dir, _, _ = built
    vocab = make_vocab()
    s = IndexSearcher(index_dir)
    for q in (f"{vocab[0]} {vocab[100]} needle17", "needle17", ""):
        for scorer in ("bm25", "tfidf"):
            kw = dict(scorer=scorer, algorithm=algorithm)
            assert s.search(q, k=0, **kw) == []
            assert s.search_urls(q, k=0, **kw) == []
            for search in (s.search, s.search_urls):
                with pytest.raises(ValueError, match="k must be >= 0"):
                    search(q, k=-1, **kw)
    assert s.search("needle17", k=1, algorithm=algorithm)


def test_cached_contributions_follow_scoring_inputs(built):
    """One searcher with a small cache budget, calls alternating scorer,
    algorithm, global_stats (avgdl alone, n_docs and df alone, all three),
    duplicate query tokens and k (1, 3, beyond the match count), on
    single-term and multi-term queries: every call equals a fresh
    searcher's, and the LRU's byte count stays the sum of its entries'
    charges — partition block tables included — within budget.  One
    budget holds two partitions and evicts; a second is below every
    partition's charge, so no partition is ever kept."""
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
    part_charges = [IndexSearcher(index_dir)._part(int(p)).nbytes for p in manifest.partitions]
    small = 16 << 10
    assert small < min(part_charges)
    for budget in (2 * max(part_charges), small):
        s = IndexSearcher(index_dir, blocks_cache_bytes=budget)
        seen = set()
        for _ in range(2):
            for q in queries:
                for scorer in ("bm25", "tfidf"):
                    for gs in stats:
                        for algorithm in ("exhaustive", "wand"):
                            for k in (1, 3, 1000):
                                kw = dict(k=k, scorer=scorer, algorithm=algorithm, global_stats=gs)
                                got = s.search(q, **kw)
                                assert got == IndexSearcher(index_dir).search(q, **kw), (q, kw)
                                assert s._cache_bytes == sum(e.nbytes for e in s._cache.values())
                                assert s._cache_bytes <= budget
                                seen.update(s._cache)
        assert set(s._cache) < seen, "the budget never evicted an entry"
        assert any(kind == "part" for kind, _ in seen) == (budget != small), budget


@pytest.mark.parametrize("scorer", ["tfidf", "bm25"])
def test_dense_sums_follow_the_id_span(built, scorer):
    """The two hottest terms (df about N) and a needle: the top term holds
    fewer than k postings, so nothing is pruned and the kernel sums the
    whole union.  Over dense ids (0..N-1) its span is at most
    `_DENSE_SPAN` times its postings and it takes the dense array; over
    url-hash ids spread across uint64 it takes the sort.  Both regimes
    equal the exhaustive kernel and the brute-force scorer."""
    index_dir, manifest, corpus = built
    vocab = make_vocab()
    q = f"{vocab[0]} {vocab[1]} needle17"
    brute = brute_force_tfidf_topk if scorer == "tfidf" else brute_force_bm25_topk
    s = IndexSearcher(index_dir)
    for t in tokenize(q):  # the gate reads each term's cached ends
        ids = s.term_postings(t)[0]
        assert s._load_term_blocks(t).ends == (ids.item(0), ids.item(-1), len(ids))
    for k in (3, 10):
        got = s.search(q, k=k, scorer=scorer, algorithm="wand")
        assert s.last_wand_stats["windows_skipped"] == 0
        assert s.last_wand_stats["dense_sums"] == (manifest.config["id_assign"] == "dense")
        assert got == s.search(q, k=k, scorer=scorer, algorithm="exhaustive")
        expected = brute(corpus, tokenize(q), k=k)
        assert [d for d, _ in got] == [d for d, _ in expected]
        assert [x for _, x in got] == pytest.approx([x for _, x in expected], rel=1e-12)


def test_cached_positions_charged_per_position(built):
    """A term's cache charge counts 32 B per posting and 8 B per cached
    top position: a long term searched at k=1 adds 8 bytes, not 8 per
    posting, and another k or scorer re-charges it and the searcher's
    total.  The positions own their bytes: a k-slice of `_top_positions`
    would keep every tie of the k-th score alive behind 8 × k."""
    index_dir, manifest, _ = built
    term = tokenize(make_vocab()[0])[0]
    s = IndexSearcher(index_dir)
    tb = s._load_term_blocks(term)
    base = sum(map(len, tb.payloads)) + 48 * len(tb.n) + 32 * tb.df
    assert tb.df == manifest.n_docs and tb.nbytes == base
    for k, scorer, n_top in ((1, "bm25", 1), (10, "bm25", 10), (1, "bm25", 1), (3, "tfidf", 0)):
        # tf-idf gives the hot term (df = N) zero idf: no scoring postings
        s.search(term, k=k, scorer=scorer, algorithm="wand")
        assert s._cache[("term", term)] is tb
        assert tb.nbytes == base + 8 * n_top, (k, scorer)
        assert tb.top[1].base is None
        assert s._cache_bytes == sum(e.nbytes for e in s._cache.values())
    # a budget that the term and its partitions fill exactly: caching one
    # position goes over it and evicts the least recently used entry
    full = IndexSearcher(index_dir)
    full._load_term_blocks(term)
    s = IndexSearcher(index_dir, blocks_cache_bytes=full._cache_bytes)
    s.search(term, k=1, scorer="bm25", algorithm="wand")
    assert list(s._cache) == list(full._cache)[1:]
    assert s._cache_bytes == sum(e.nbytes for e in s._cache.values()) <= full._cache_bytes


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


def test_term_df_equals_dict_df_of_every_term(built):
    """The searcher's df — the sum of a term's block counts, found by
    binary search over each partition's blocks.parquet — equals the sum
    of dict.parquet df over the term's partitions, for every term of the
    index, salted hot terms included; a missing term has df 0."""
    from collections import Counter

    index_dir, manifest, _ = built
    want = Counter()
    for f in glob.glob(os.path.join(index_dir, "parts", "*", "dict.parquet")):
        d = pq.read_table(f, columns=["term", "df"])
        for t, df in zip(d.column("term").to_pylist(), d.column("df").to_pylist()):
            want[t] += df
    assert set(manifest.hot_terms) <= set(want)
    s = IndexSearcher(index_dir)
    assert {t: s.term_df(t) for t in want} == want
    assert s.term_df("never-a-term-zzz") == 0


def test_term_postings_reuse_the_cached_decode(built):
    """term_postings returns each doc's tf in doc_id order, as counted in
    the spec corpus, and serves it from the term's cached decode."""
    index_dir, manifest, corpus = built
    s = IndexSearcher(index_dir)
    for t in [tokenize(make_vocab()[0])[0], "needle17", next(iter(manifest.hot_terms))]:
        want = sorted((d, toks.count(t)) for d, toks in corpus if t in toks)
        ids, tfs = s.term_postings(t)
        assert list(zip(ids.tolist(), tfs.tolist())) == want, t
        assert s._load_term_blocks(t).decoded is not None
    ids, tfs = s.term_postings("never-a-term-zzz")
    assert len(ids) == len(tfs) == 0


def test_non_ascii_terms_match_brute_force(ray_session, tmp_path):
    """Arrow sorts blocks.parquet by UTF-8 bytes and the searcher binary-
    searches with Python str comparison; the two orders agree, so df and
    top-k over non-ASCII terms equal the brute-force scorers."""
    import pyarrow as pa
    from collections import Counter

    texts = [
        "café straße 東京 zürich",
        "zürich zürich café",
        "東京 東京 東京 straße",
        "cafe strasse zurich tokyo",
        "zebra café zürich 東京",
    ]
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(
        pa.table(
            {
                "url": [f"https://example.org/{i}" for i in range(len(texts))],
                "warc_ts": pa.array([0] * len(texts), type=pa.timestamp("us")),
                "text": texts,
            }
        ),
        pages,
    )
    index_dir = str(tmp_path / "idx")
    build_index([pages], index_dir, BuildConfig(n_partitions=2, tokenize_actors=1))
    corpus = [(i, tokenize(x)) for i, x in enumerate(texts)]
    df = Counter(t for _, toks in corpus for t in set(toks))
    s = IndexSearcher(index_dir)
    assert any(not t.isascii() for t in df)
    for t, n in df.items():
        assert s.term_df(t) == n, t
    for q in ["café", "straße zürich", "東京 café", "zürich cafe", "東京 zebra straße"]:
        toks = tokenize(q)
        for scorer, brute in (("tfidf", brute_force_tfidf_topk), ("bm25", brute_force_bm25_topk)):
            for algorithm in ("exhaustive", "wand"):
                got = s.search(q, k=3, scorer=scorer, algorithm=algorithm)
                want = brute(corpus, toks, k=3)
                assert [d for d, _ in got] == [d for d, _ in want], (q, scorer, algorithm)
                for (_, gs), (_, ws) in zip(got, want):
                    assert gs == pytest.approx(ws, rel=1e-12), (q, scorer, algorithm)


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


def test_salts_sharing_a_partition_read_in_doc_order(ray_session, tmp_path):
    """A hot term with three salts whose first and last share a partition
    that the middle salt does not: that partition blocks salts 0 and 2 as
    one run, so one of its blocks straddles salt 1's doc range.  Every
    reader of the term's postings must still see them in doc_id order."""
    import numpy as np
    import pyarrow as pa

    from indexer_ray.conformance.lexer import tokenize_plain
    from indexer_ray.functions.hashing import hot_term_partitions
    from indexer_ray.state.manifest import part_dir

    n = 200
    texts = [" ".join(["hotterm"] * (1 + i % 3) + [f"filler{i % 7}", f"tail{i % 11}"])
             for i in range(n)]
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table({
        "url": [f"u://{i}" for i in range(n)],
        "warc_ts": pa.array([0] * n, type=pa.timestamp("us")),
        "html": pa.array([b""] * n, type=pa.binary()),
        "text": texts,
    }), pages)
    cfg = BuildConfig(mode="plain", n_partitions=8, block_size=16,
                      target_run_postings=20, max_salts=3)
    manifest = build_index([pages], str(tmp_path / "idx"), cfg)
    assert manifest.hot_terms["hotterm"] == 3
    p0, p1, p2 = hot_term_partitions("hotterm", 3, 8)
    assert p0 == p2 != p1
    on_disk = {
        p: pq.read_table(os.path.join(part_dir(str(tmp_path / "idx"), p), "blocks.parquet"),
                         filters=[("term", "=", "hotterm")])
        for p in (p0, p1)
    }
    mid_lo = min(on_disk[p1].column("first_doc_id").to_pylist())
    assert any(f < mid_lo < l for f, l in zip(on_disk[p0].column("first_doc_id").to_pylist(),
                                             on_disk[p0].column("last_doc_id").to_pylist()))

    corpus = [(i, tokenize_plain(t)) for i, t in enumerate(texts)]
    docs_with = {}
    for doc_id, toks in corpus:
        for t in toks:
            docs_with.setdefault(t, set()).add(doc_id)
    s = IndexSearcher(str(tmp_path / "idx"))
    ids, tfs = s.term_postings("hotterm")
    assert ids.tolist() == list(range(n))
    assert tfs.tolist() == [1 + i % 3 for i in range(n)]
    assert s.matching_doc_ids("hotterm filler3").tolist() == list(range(n))
    assert s.search_boolean(["filler3", "hotterm"], ["tail4"]).tolist() == sorted(
        docs_with["filler3"] - docs_with["tail4"])
    brutes = {"tfidf": brute_force_tfidf_topk, "bm25": brute_force_bm25_topk}
    for q in ("hotterm", "hotterm filler3", "tail4 hotterm filler2", "hotterm filler0 filler4"):
        for scorer, brute in brutes.items():
            for k in (1, 5, 10, None):
                ex = s.search(q, k=k, scorer=scorer, algorithm="exhaustive")
                assert s.search(q, k=k, scorer=scorer, algorithm="wand") == ex, (q, scorer, k)
                want = brute(corpus, tokenize_plain(q), k=k)
                assert [d for d, _ in ex] == [d for d, _ in want], (q, scorer, k)
