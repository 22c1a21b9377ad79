"""Tests for the web-corpus curation operators added in round 3:
repetition signals (Gopher-style), per-source caps, chunk-level exact
dedup census (C4-style spans), and two-pass Misra-Gries heavy hitters."""

from collections import Counter

import numpy as np
import pandas as pd
import pytest


# ------------------------------------------------------ repetition_stats
def test_repetition_stats_known_counts(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import repetition_stats

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "a a a b",          # top word 'a'=3, top bigram 'a a'=2
                "x y x y x",        # top word 'x'=3, top bigram 'x y'=2
                "only",             # one word, no bigram
                "",                 # empty
            ],
        }
    )
    out = (
        repetition_stats(rd.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["n_words"].tolist() == [4, 5, 1, 0]
    assert out["top_word_n"].tolist() == [3, 3, 1, 0]
    assert out["top_bigram_n"].tolist() == [2, 2, 0, 0]


def test_repetition_stats_whitespace_handling(ray_session):
    """Leading/trailing/multiple whitespace must not create empty tokens
    (Arrow's split emits '' there; '\\S+' semantics drop them)."""
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import repetition_stats

    df = pd.DataFrame({"doc_id": [0], "text": ["  w1   w2  w1 "]})
    out = repetition_stats(rd.from_pandas(df)).to_pandas()
    assert out.iloc[0]["n_words"] == 3
    assert out.iloc[0]["top_word_n"] == 2


# --------------------------------------------------------- cap_per_group
def test_cap_per_group_keeps_smallest_ids(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.sampling import cap_per_group

    rng = np.random.default_rng(3)
    ids = rng.permutation(100)
    df = pd.DataFrame({"doc_id": ids, "source": [f"s{i % 7}" for i in ids]})
    out = cap_per_group(rd.from_pandas(df), cap=2, group_col="source").to_pandas()
    # exactly ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) <= 2
    expect = (
        df.sort_values("doc_id")
        .groupby("source")
        .head(2)
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = out.sort_values("doc_id").reset_index(drop=True)[["doc_id", "source"]]
    pd.testing.assert_frame_equal(got, expect[["doc_id", "source"]])


def test_cap_per_group_small_groups_uncapped(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.sampling import cap_per_group

    df = pd.DataFrame({"doc_id": [1, 2], "source": ["a", "b"]})
    out = cap_per_group(rd.from_pandas(df), cap=5).to_pandas()
    assert len(out) == 2


# ----------------------------------------------------- chunk_dedup_stats
def test_chunk_dedup_census(ray_session):
    """Cross-doc and within-doc duplicate chunks, trailing partial chunks,
    and 'earlier' = (doc_id, chunk_idx) lexicographic order."""
    import ray.data as rd

    from indexer_ray.pipelines.dedup import chunk_dedup_stats

    c1 = "w1 w2 w3"  # one 3-word chunk at chunk_words=3
    c2 = "x1 x2 x3"
    df = pd.DataFrame(
        {
            "doc_id": [10, 20, 30],
            "text": [
                f"{c1} {c2}",        # doc 10: both chunks first occurrences
                f"{c2} {c1} tail",   # doc 20: both dups + unique partial
                f"{c1} {c1}",        # doc 30: both dups (of doc 10's)
            ],
        }
    )
    out = (
        chunk_dedup_stats(rd.from_pandas(df), chunk_words=3)
        .to_pandas()
        .sort_values("doc_id")
        .set_index("doc_id")
    )
    assert out.loc[10].tolist() == [2, 0]
    assert out.loc[20].tolist() == [3, 2]  # 'tail' partial chunk is unique
    assert out.loc[30].tolist() == [2, 2]


def test_chunk_dedup_within_doc_repeat_counts_later_occurrence(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import chunk_dedup_stats

    df = pd.DataFrame({"doc_id": [1], "text": ["a b a b"]})
    out = chunk_dedup_stats(rd.from_pandas(df), chunk_words=2).to_pandas()
    assert out.iloc[0]["n_chunks"] == 2
    assert out.iloc[0]["n_dup_chunks"] == 1  # second 'a b' dups the first


def test_chunk_dedup_empty_docs_emit_no_rows(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import chunk_dedup_stats

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["has words", ""]})
    out = chunk_dedup_stats(rd.from_pandas(df), chunk_words=2).to_pandas()
    assert out["doc_id"].tolist() == [1]


# --------------------------------------------------------- heavy_hitters
def _zipf_corpus(n_docs: int, vocab: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab + 1)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()
    texts = [
        " ".join(f"t{w}" for w in rng.choice(vocab, size=40, p=probs))
        for _ in range(n_docs)
    ]
    return pd.DataFrame({"doc_id": range(n_docs), "text": texts})


def test_heavy_hitters_exact_under_mg_pruning(ray_session):
    """Wide Zipf vocabulary so per-batch MG reduction actually fires
    (total_err > 0), yet the output equals the exact HAVING >= answer."""
    import ray.data as rd

    from indexer_ray.pipelines.sketches import heavy_hitters

    df = _zipf_corpus(n_docs=400, vocab=2000, seed=11)
    exact = Counter()
    for t in df["text"]:
        exact.update(t.split())
    min_count = 60
    truth = sorted((t, c) for t, c in exact.items() if c >= min_count)
    out = (
        heavy_hitters(rd.from_pandas(df), min_count=min_count, n_counters=512)
        .to_pandas()
        .sort_values("term")
        .reset_index(drop=True)
    )
    assert list(zip(out["term"], out["cnt"])) == truth
    assert len(truth) > 3  # the test actually checks something


def test_heavy_hitters_raises_when_undersized(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.sketches import heavy_hitters

    df = _zipf_corpus(n_docs=300, vocab=2000, seed=5)
    with pytest.raises(ValueError, match="not guaranteed"):
        heavy_hitters(rd.from_pandas(df), min_count=5, n_counters=8).to_pandas()


def test_heavy_hitters_no_hitters_empty_result(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.sketches import heavy_hitters

    df = pd.DataFrame({"doc_id": [0], "text": ["unique words only here"]})
    out = heavy_hitters(rd.from_pandas(df), min_count=10, n_counters=64).to_pandas()
    assert len(out) == 0


# ------------------------------------------------------------ pii_redact
def test_pii_redact_python_matches_duckdb_on_adversarial_strings(ray_session):
    """The rule chain must behave identically under Python re (Ray side)
    and RE2 (DuckDB oracle side) — adversarial cases: boundary-adjacent
    IPs, dotted local-parts, digits around phone shapes, rule interaction
    (an email whose redaction must NOT create a later-match)."""
    import duckdb
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import PII_RULES, pii_redact

    texts = [
        "mail a.b-c_d%e+f@sub.domain.org now",
        "ip 10.0.0.1. end-of-sentence dot",        # trailing dot after IP
        "255.255.255.255 at start",
        "v1.2.3.4beta is a version not an ip",     # \b blocks? 4beta has no boundary after 4
        "call +1 555 123 4567 or +44 207 946 0958",
        "not a phone +1 55 123 4567",
        "two mails x@y.co z@w.io and ip 1.2.3.4",
        "email-with-ip user@10.0.0.1.example.com ok",
        "", "no pii here at all",
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = (
        pii_redact(rd.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("d", df)
    prev, stages = "text", []
    for i, (name, pat, repl) in enumerate(PII_RULES, 1):
        stages.append(
            f"s{i} AS (SELECT *, len(regexp_extract_all({prev}, '{pat}')) AS n_{name}, "
            f"regexp_replace({prev}, '{pat}', '{repl}', 'g') AS t{i} "
            f"FROM {'d' if i == 1 else f's{i-1}'})"
        )
        prev = f"t{i}"
    names = ", ".join(f"n_{n}" for n, _, _ in PII_RULES)
    want = con.execute(
        f"WITH {', '.join(stages)} SELECT doc_id, {names}, t{len(PII_RULES)} AS redacted "
        f"FROM s{len(PII_RULES)} ORDER BY doc_id"
    ).df()
    for c in ["n_email", "n_phone", "n_ipv4", "redacted"]:
        assert got[c].tolist() == want[c].tolist(), c
    # sanity: the adversarial set actually exercises every rule
    assert got["n_email"].sum() >= 4 and got["n_phone"].sum() >= 2
    assert got["n_ipv4"].sum() >= 3


# ---------------------------------------------------------- bigram_counts
def test_bigram_counts_known(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import bigram_counts

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "a b a b c",   # (a,b)x2 (b,a) (b,c)
                "a b. c a-b",  # plain tok: a b c a b -> (a,b)x2 (b,c) (c,a)
                "",            # empty
            ],
        }
    )
    out = bigram_counts(rd.from_pandas(df), k=3).to_pandas().sort_values("rank")
    # order is (cnt desc, w1 asc, w2 asc)
    assert out.iloc[0][["w1", "w2", "cnt"]].tolist() == ["a", "b", 4]
    assert out.iloc[1][["w1", "w2", "cnt"]].tolist() == ["b", "c", 2]
    assert out.iloc[2]["cnt"] == 1 and out.iloc[2][["w1", "w2"]].tolist() == ["b", "a"]
    assert out["rank"].tolist() == [0, 1, 2]


def test_bigram_counts_topk_equals_global_sort(ray_session):
    """The no-global-sort distributed top-k must equal the brute global
    ranking on a corpus with many distinct bigrams and boundary ties."""
    import ray.data as rd

    from indexer_ray.conformance.lexer import tokenize_plain
    from indexer_ray.pipelines.text_analysis import bigram_counts

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(30)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(2, 40)))
        for _ in range(300)
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    k = 25
    out = bigram_counts(rd.from_pandas(df), k=k).to_pandas().sort_values("rank")
    brute = Counter()
    for t in texts:
        toks = tokenize_plain(t)
        brute.update(zip(toks, toks[1:]))
    want = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))[:k]
    assert [((r.w1, r.w2), r.cnt) for r in out.itertuples()] == want


def test_bigram_counts_rejects_negative_k(ray_session):
    """k=-1 once kept every row but the last (pandas ``head(-1)``)."""
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import bigram_counts

    ds = rd.from_pandas(pd.DataFrame({"doc_id": [0], "text": ["a b c"]}))
    with pytest.raises(ValueError, match="k must be >= 0"):
        bigram_counts(ds, k=-1)
    assert bigram_counts(ds, k=0).count() == 0


# ------------------------------------------------------ top_docs_by_length
@pytest.mark.parametrize("n", [1, 4, 7, 40])
def test_top_docs_by_length_matches_brute(ray_session, monkeypatch, n):
    """Length ties straddle batches (tie-break doc_id asc), null text
    counts 0 chars, characters are code points, and n may exceed the
    corpus."""
    import pyarrow as pa
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import top_docs_by_length
    from indexer_ray.stages import shuffle

    texts = ["abc", None, "xyz", "é日本", "ab", "", "abcd", "qrs", None, "zz", "wxyz", "ééé"]
    ids = [40, 3, 17, 8, 25, 1, 30, 5, 12, 9, 2, 33]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())})
    monkeypatch.setattr(shuffle, "_TOPK_BATCH", 3)
    ds = rd.from_arrow([t.slice(0, 5), t.slice(5, 4), t.slice(9)])
    got = top_docs_by_length(ds, n=n).to_pandas().sort_values("rank")
    want = sorted(((-len(x or ""), d) for d, x in zip(ids, texts)))[:n]
    assert list(got.columns) == ["doc_id", "n_chars", "rank"]
    assert [(r.doc_id, r.n_chars, r.rank) for r in got.itertuples()] == [
        (d, -m, r) for r, (m, d) in enumerate(want)
    ]


# ------------------------------------------------------------ facet_counts
def test_facet_counts_vs_brute(ray_session, tiny_pages, tmp_path_factory):
    import pyarrow as pa
    import ray.data as rd

    from indexer_ray.conformance.lexer import tokenize
    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import IndexSearcher, facet_counts

    import pyarrow.parquet as pq

    index_dir = str(tmp_path_factory.mktemp("fidx") / "tiny")
    build_index([tiny_pages], index_dir, BuildConfig(n_partitions=4, id_assign="dense"))
    t = pq.read_table(tiny_pages, columns=["url", "text", "lang"])
    s = IndexSearcher(index_dir)
    # pick real mid-df corpus terms so the match set is non-vacuous
    df_counter = Counter()
    for text in t.column("text").to_pylist():
        df_counter.update(set(tokenize(text)))
    mids = sorted(w for w, c in df_counter.items() if 5 <= c <= 60)[:3]
    assert len(mids) == 3
    query = " ".join(mids)
    q_terms = set(tokenize(query))
    # brute facet counts over the spec-tokenized corpus (dense ids = row no.)
    brute = Counter()
    match_ids = []
    for i, (text, lang) in enumerate(
        zip(t.column("text").to_pylist(), t.column("lang").to_pylist())
    ):
        if q_terms & set(tokenize(text)):
            brute[lang] += 1
            match_ids.append(i)
    assert sum(brute.values()) > 0
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(t.num_rows), type=pa.int64()),
                "lang": t.column("lang"),
            }
        )
    )
    got = facet_counts(s, docs, query, facet_col="lang").to_pandas()
    assert dict(zip(got["lang"], got["n_docs"])) == dict(brute)
    assert sorted(s.matching_doc_ids(query).tolist()) == match_ids


def test_facet_counts_empty_match_set(ray_session, tiny_pages, tmp_path_factory):
    """A query with no dictionary hits must yield zero facet rows, not an
    indexing error in the broadcast membership filter."""
    import pyarrow as pa
    import ray.data as rd

    import pyarrow.parquet as pq

    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import IndexSearcher, facet_counts

    index_dir = str(tmp_path_factory.mktemp("fidx0") / "tiny")
    build_index([tiny_pages], index_dir, BuildConfig(n_partitions=2, id_assign="dense"))
    t = pq.read_table(tiny_pages, columns=["lang"])
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(t.num_rows), type=pa.int64()),
                "lang": t.column("lang"),
            }
        )
    )
    s = IndexSearcher(index_dir)
    out = facet_counts(s, docs, "zzzznotaword", facet_col="lang")
    assert out.count() == 0


def _null_last(rows):
    """(key tuple, values) rows with pandas' NaN keys as None, sorted by
    key ascending, a key's null group last."""
    rows = [(tuple(None if pd.isna(k) else k for k in key), v) for key, v in rows]
    return sorted(rows, key=lambda r: [(k is None, k or "") for k in r[0]])


def test_facet_counts_null_lang_over_blocks(ray_session, tiny_pages, tmp_path_factory):
    """A null lang is a facet of its own, over a 4-block corpus table
    (Ray's sort-based groupby cannot order a null string key against a
    non-null one across blocks): counts equal pandas' groupby with
    dropna=False, non-null langs ascending, the null facet last."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import IndexSearcher, facet_counts
    from indexer_ray.sources.pages import make_vocab

    index_dir = str(tmp_path_factory.mktemp("fidxn") / "tiny")
    build_index([tiny_pages], index_dir, BuildConfig(n_partitions=2, id_assign="dense"))
    langs = pq.read_table(tiny_pages, columns=["lang"]).column("lang").to_pylist()
    langs = [None if i % 3 == 1 else lang for i, lang in enumerate(langs)]
    t = pa.table({"doc_id": pa.array(range(len(langs)), pa.int64()),
                  "lang": pa.array(langs, pa.string())})
    q = t.num_rows // 4
    docs = rd.from_arrow([t.slice(i * q, q if i < 3 else None) for i in range(4)])
    s = IndexSearcher(index_dir)
    query = make_vocab()[3]
    ids = s.matching_doc_ids(query).astype(np.int64)
    assert 0 < len(ids) < t.num_rows
    want = pd.DataFrame({"lang": [langs[i] for i in ids]}).groupby("lang", dropna=False).size()
    assert want.index.isna().any()
    got = facet_counts(s, docs, query, facet_col="lang").to_pandas()
    assert list(got.columns) == ["lang", "n_docs"]
    assert [((k,), v) for k, v in zip(got["lang"], got["n_docs"])] == _null_last(
        ((k,), v) for k, v in want.items())


def test_lang_source_stats_null_keys_over_blocks(ray_session):
    """Null lang and null source are groups of their own over a 300-row,
    4-block input: every aggregate equals pandas' groupby with
    dropna=False, groups in key order, a key's null group last."""
    import pyarrow as pa
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import lang_source_stats

    rng = np.random.default_rng(5)
    n = 300
    lang = [None if i % 11 == 0 else ["de", "en", "fr"][i % 3] for i in range(n)]
    source = [None if i % 13 == 5 else ["cc", "wiki"][i % 2] for i in range(n)]
    chars = rng.integers(1, 5000, n)
    t = pa.table({"lang": pa.array(lang, pa.string()), "source": pa.array(source, pa.string()),
                  "n_chars": pa.array(chars, pa.int64())})
    got = lang_source_stats(rd.from_arrow([t.slice(i * 75, 75) for i in range(4)])).to_pandas()
    assert list(got.columns) == ["lang", "source", "n_docs", "sum_chars", "avg_chars", "max_chars"]
    want = t.to_pandas().groupby(["lang", "source"], dropna=False)["n_chars"].agg(
        ["size", "sum", "mean", "max"])
    assert want.index.to_frame().isna().any().all()  # nulls in both keys
    rows = [((a, b), (c, d, e, f)) for a, b, c, d, e, f in got.itertuples(index=False)]
    exp = _null_last((k, tuple(v)) for k, v in zip(want.index, want.itertuples(index=False)))
    assert [k for k, _ in rows] == [k for k, _ in exp]
    for (_, g), (_, w) in zip(rows, exp):
        assert g[:2] == tuple(w[:2]) and g[3] == w[3]
        assert g[2] == pytest.approx(w[2], rel=1e-12)


def _brute_drop_chunks(texts: dict[int, str], chunk_words: int) -> pd.DataFrame:
    seen: set[str] = set()
    rows = []
    for did in sorted(texts):
        w = (texts[did] or "").split()
        kept, ndrop = [], 0
        for ci in range(0, -(-len(w) // chunk_words)):
            chunk = " ".join(w[ci * chunk_words : (ci + 1) * chunk_words])
            if chunk in seen:
                ndrop += 1
            else:
                seen.add(chunk)
                kept.append(chunk)
        if kept:
            rows.append((did, " ".join(kept), ndrop))
    return pd.DataFrame(rows, columns=["doc_id", "text", "n_dropped"]).astype(
        {"doc_id": "int64", "n_dropped": "int64"}
    )


def test_drop_duplicate_chunks_matches_brute(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import drop_duplicate_chunks

    texts = {
        0: "a b c d  e f",          # chunks (w=2): 'a b','c d','e f'
        1: "c d a b x y",           # 'c d','a b' dup doc0 -> only 'x y' kept
        2: "x y",                   # dup of doc1's kept chunk -> doc DROPPED
        3: "",                      # no tokens -> dropped
        4: "e f g",                 # 'e f' dup; trailing partial 'g' kept
        5: "g",                     # partial chunk 'g' dup of doc4's -> dropped
    }
    df = pd.DataFrame(
        {"doc_id": pd.array(sorted(texts), dtype="int64"),
         "text": [texts[k] for k in sorted(texts)]}
    )
    want = _brute_drop_chunks(texts, 2)
    got = (
        drop_duplicate_chunks(rd.from_pandas(df), chunk_words=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert set(got["doc_id"]) == {0, 1, 4}
    assert got.loc[got["doc_id"] == 1, "text"].iloc[0] == "x y"

    # distributed join regime (threshold 0) must match the broadcast path
    got2 = (
        drop_duplicate_chunks(rd.from_pandas(df), chunk_words=2, broadcast_threshold=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got2, want)


def test_drop_duplicate_chunks_random_corpus_regimes_agree(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import drop_duplicate_chunks

    rng = np.random.default_rng(41)
    vocab = [f"w{i}" for i in range(12)]  # tiny vocab -> many chunk collisions
    texts = {
        i: " ".join(rng.choice(vocab, size=int(rng.integers(0, 30))))
        for i in range(300)
    }
    df = pd.DataFrame(
        {"doc_id": pd.array(sorted(texts), dtype="int64"),
         "text": [texts[k] for k in sorted(texts)]}
    )
    want = _brute_drop_chunks(texts, 3)
    for thr in (10**9, 0):
        got = (
            drop_duplicate_chunks(rd.from_pandas(df), chunk_words=3,
                                  broadcast_threshold=thr)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)


_ALPHA_VOCAB = [
    "".join(np.random.default_rng(100 + j).choice(list("abcdefghijklmnopqrstuvwxyz"), 6))
    for j in range(40)
]


def test_curate_corpus_matches_brute(ray_session):
    import ray.data as rd

    from indexer_ray.conformance.lexer import tokenize_plain
    from indexer_ray.pipelines.curate import curate_corpus
    from indexer_ray.pipelines.sampling import _bucket_of

    rng = np.random.default_rng(95)
    n = 400
    texts = []
    for i in range(n):
        if i % 10 == 0:
            texts.append("12345 67890 " * 5)  # digit-heavy -> filtered
        elif i % 7 == 0:
            texts.append("shared duplicate body text here")  # exact dup family
        else:
            # alphabetic vocab: digit-bearing tokens would fail the
            # digit-percentage admission and empty the fixture
            texts.append(" ".join(rng.choice(_ALPHA_VOCAB, size=12)))
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": texts,
            "source": [f"s{i % 3}" for i in range(n)],
        }
    )
    got = (
        curate_corpus(
            rd.from_pandas(df), {"s0": 1.0, "s1": 0.0}, default=0.4,
            min_tokens=5, max_digit_pct=30, min_alpha_pct=50,
        )
        .to_pandas()
        .sort_values("doc_id")["doc_id"]
        .tolist()
    )

    def _admit(t):
        nd = sum(c.isdigit() for c in t)
        na = sum(c.isalpha() for c in t)
        return (
            len(tokenize_plain(t)) >= 5
            and nd * 100 <= len(t) * 30
            and na * 100 >= len(t) * 50
        )

    first = {}
    for i, t in enumerate(texts):
        first.setdefault(t, i)
    rates = {"s0": 10000, "s1": 0}
    want = [
        int(i)
        for i, t in enumerate(texts)
        if _admit(t)
        and first[t] == i
        and _bucket_of(np.array([i]))[0] < rates.get(f"s{i % 3}", 4000)
    ]
    assert got == want
    assert want, "fixture must curate a non-empty corpus"


def test_normalize_text_chain(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from indexer_ray.pipelines.text_analysis import normalize_text

    t = pa.table(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "  Héllo\tWÖRLDé  café ",  # accents + combining mark
                "Øber  UPPER",  # no canonical decomposition: kept
                "a b",  # NBSP: NOT ASCII whitespace, survives
                "",
            ],
        }
    )
    out = (
        normalize_text(rd.from_arrow(t), accents=True)
        .to_pandas()
        .sort_values("doc_id")["norm_text"]
        .tolist()
    )
    assert out == ["hello worlde cafe", "øber upper", "a b", ""]


def test_normalize_text_flags(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from indexer_ray.pipelines.text_analysis import normalize_text

    t = pa.table({"text": ["  Á  B  "]})
    # nfc only: combining composes, case/ws untouched
    nfc_only = normalize_text(
        rd.from_arrow(t), lower=False, collapse_ws=False
    ).to_pandas()["norm_text"][0]
    assert nfc_only == "  Á  B  "
    # full default chain without accent strip keeps the acute
    full = normalize_text(rd.from_arrow(t)).to_pandas()["norm_text"][0]
    assert full == "á b"


def test_dedup_paragraphs_ccnet(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from indexer_ray.pipelines.dedup import dedup_paragraphs

    t = pa.table(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "Header A\nunique one\nSUBSCRIBE now",
                "Header A\nunique two\nSUBSCRIBE now",  # both shared paras drop
                "Héader a\nunique three\n",  # accent-normalized dup header
                "SUBSCRIBE   NOW",  # ws/case-normalized dup -> doc removed
            ],
        }
    )
    out = (
        dedup_paragraphs(rd.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2, 3]  # doc 4 fully duplicated
    assert out["text"].tolist() == [
        "Header A\nunique one\nSUBSCRIBE now",  # first occurrences keep bytes
        "unique two",
        "unique three\n",  # blank paragraph never participates
    ]
    assert out["n_dropped"].tolist() == [0, 2, 1]


def test_dedup_paragraphs_forced_join_regime(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from indexer_ray.pipelines.dedup import dedup_paragraphs

    t = pa.table(
        {
            "doc_id": list(range(12)),
            "text": ["shared line\nuniq %d" % i for i in range(12)],
        }
    )
    a = dedup_paragraphs(rd.from_arrow(t)).to_pandas()
    b = dedup_paragraphs(rd.from_arrow(t), broadcast_threshold=0).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)  # regimes agree
    assert a["text"][0] == "shared line\nuniq 0"
    assert (a["n_dropped"][1:] == 1).all()


def test_frequency_spectrum(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from indexer_ray.pipelines.text_analysis import frequency_spectrum

    t = pa.table(
        {
            "doc_id": [1, 2],
            "text": ["a a a b b c", "b d"],  # cf: a=3, b=3, c=1, d=1
        }
    )
    out = frequency_spectrum(rd.from_arrow(t)).to_pandas()
    assert dict(zip(out["cf"], out["n_terms"])) == {1: 2, 3: 2}
    # layout independence
    out2 = frequency_spectrum(rd.from_arrow(t).repartition(3)).to_pandas()
    assert out.sort_values("cf").reset_index(drop=True).equals(
        out2.sort_values("cf").reset_index(drop=True)
    )


def test_split_sentences(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from indexer_ray.pipelines.text_analysis import split_sentences

    t = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "First one. Second! Third? tail",
                "No terminator here",
                "Dots..here. Next",  # '..h' has no space: not a boundary
            ],
        }
    )
    out = (
        split_sentences(rd.from_arrow(t))
        .to_pandas()
        .sort_values(["doc_id", "sent_idx"])
        .reset_index(drop=True)
    )
    assert out[out["doc_id"] == 1]["sentence"].tolist() == [
        "First one.", "Second!", "Third?", "tail",
    ]
    assert out[out["doc_id"] == 2]["sentence"].tolist() == ["No terminator here"]
    assert out[out["doc_id"] == 3]["sentence"].tolist() == ["Dots..here.", "Next"]
    assert out[out["doc_id"] == 1]["sent_idx"].tolist() == [0, 1, 2, 3]


def test_eval_retrieval(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from indexer_ray.pipelines.evaluation import eval_retrieval

    results = rd.from_arrow(
        pa.table(
            {
                "query_id": [1, 1, 1, 2, 2, 3],
                "doc_id": [10, 11, 12, 20, 21, 30],
                "rank": [0, 1, 2, 0, 1, 0],
            }
        )
    )
    qrels = rd.from_arrow(
        pa.table(
            {
                # q1: 11 and 12 relevant (first hit rank 1)
                # q2: 99 relevant only (never retrieved)
                # q4: judged but zero results
                "query_id": [1, 1, 2, 4],
                "doc_id": [11, 12, 99, 40],
            }
        )
    )
    out = (
        eval_retrieval(results, qrels, k=2)
        .to_pandas()
        .sort_values("query_id")
        .set_index("query_id")
    )
    assert out.loc[1].tolist() == [2, 1, 1, 10**9 // 2]  # hit@2: only rank1
    assert out.loc[2].tolist() == [1, 0, -1, 0]
    assert out.loc[3].tolist() == [0, 0, -1, 0]  # results, no judgments
    assert out.loc[4].tolist() == [1, 0, -1, 0]  # judgments, no results
    # layout independence
    out2 = (
        eval_retrieval(results.repartition(3), qrels.repartition(2), k=2)
        .to_pandas()
        .sort_values("query_id")
        .reset_index(drop=True)
    )
    assert out.reset_index().equals(out2)


def test_ngram_counts(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from indexer_ray.pipelines.text_analysis import ngram_counts

    t = pa.table(
        {
            "doc_id": [1, 2],
            "text": ["a b c a b c x", "a b c z"],
        }
    )
    out = ngram_counts(rd.from_arrow(t), n=3, k=5).to_pandas()
    top = out[out["rank"] == 0].iloc[0]
    assert top["ngram"] == "a b c" and top["cnt"] == 3
    assert out["rank"].tolist() == list(range(len(out)))
    # layout independence
    out2 = ngram_counts(rd.from_arrow(t).repartition(3), n=3, k=5).to_pandas()
    assert out.equals(out2)


# --------------------------------------------------- percolate_alerts


def test_percolator_all_terms_required(ray_session):
    import pandas as pd
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import percolate_alerts

    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "alpha beta gamma",
                "alpha only here",
                "Beta then ALPHA capitalized",
                "gamma delta",
            ],
        }
    )
    out = (
        percolate_alerts(rd.from_pandas(docs), {7: "alpha beta", 9: "gamma"})
        .to_pandas()
        .sort_values(["query_id", "doc_id"])
        .reset_index(drop=True)
    )
    fired = set(zip(out["query_id"], out["doc_id"]))
    # alert 7 needs BOTH alpha and beta (case-folded, token boundaries)
    assert fired == {(7, 0), (7, 2), (9, 0), (9, 3)}


def test_percolator_token_boundaries_and_empty_alert(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import percolate_alerts

    docs = pd.DataFrame({"doc_id": [0], "text": ["alphabet soup"]})
    out = percolate_alerts(rd.from_pandas(docs), {1: "alpha"}).to_pandas()
    assert len(out) == 0  # 'alphabet' must not fire the 'alpha' alert
    with pytest.raises(ValueError):
        percolate_alerts(rd.from_pandas(docs), {2: "!!!"})


def test_site_quality_filter(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.curate import site_quality_filter

    df = pd.DataFrame(
        {
            "doc_id": range(10),
            "source": ["good"] * 4 + ["spam"] * 4 + ["mixed"] * 2,
            "text": (
                ["a decent page with plenty of words here"] * 4
                + ["1234 5678 90 12", "99 88 77", "11 22 33 44", "ok words but alone"]
                + ["fine normal page text here today", "55 66 77 88 99 00"]
            ),
        }
    )
    kept, stats = site_quality_filter(rd.from_pandas(df))
    s = stats.to_pandas().set_index("host").sort_index()
    # good: 4/4 pass; spam: 0-1/4; mixed: 1/2 passes exactly the 1/2 bar
    assert bool(s.loc["good", "kept"]) and not bool(s.loc["spam", "kept"])
    assert bool(s.loc["mixed", "kept"])  # n_pass*2 >= n_docs at equality
    kept_ids = sorted(kept.to_pandas()["doc_id"])
    assert kept_ids == [0, 1, 2, 3, 8, 9]
    # layout independence
    kept2, stats2 = site_quality_filter(rd.from_pandas(df).repartition(4))
    assert sorted(kept2.to_pandas()["doc_id"]) == kept_ids
    pd.testing.assert_frame_equal(
        stats.to_pandas().sort_values("host").reset_index(drop=True),
        stats2.to_pandas().sort_values("host").reset_index(drop=True),
    )
