"""KWIC snippets, phrase containment, per-user lag features, and
index-backed prefix suggestion — in-test brute-force oracles."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from indexer_ray.conformance.lexer import tokenize_plain


def _docs_ds(rows):
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    df["doc_id"] = df["doc_id"].astype("int64")
    return rd.from_pandas(df)


def test_kwic_first_occurrence_and_edges(ray_session):
    from indexer_ray.pipelines.text_analysis import kwic_snippets

    rows = [
        (1, "alpha beta TARGET gamma delta epsilon zeta"),  # interior
        (2, "target starts the doc here"),  # pos 0, left-clipped
        (3, "ends with the word target"),  # right-clipped
        (4, "no match in this one"),  # dropped
        (5, "twice target then target again"),  # FIRST occurrence only
        (6, "punct!TARGET?why not"),  # plain tokens split on punct
    ]
    out = (
        kwic_snippets(_docs_ds(rows), term="target", width=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2, 3, 5, 6]
    assert out["pos"].tolist() == [2, 0, 4, 1, 1]
    assert out["snippet"].tolist() == [
        "alpha beta target gamma delta",
        "target starts the",
        "the word target",
        "twice target then target",
        "punct target why not",
    ]


def test_kwic_matches_brute_on_tiny_pages(ray_session, tiny_pages):
    import pyarrow.parquet as pq

    from indexer_ray.pipelines.text_analysis import kwic_snippets

    docs = pq.read_table(tiny_pages).to_pandas()
    term, w = "bebe", 3  # common in the synthetic pages vocabulary
    expect = {}
    for _, r in docs.iterrows():
        toks = tokenize_plain(r["text"] or "")
        if term in toks:
            p = toks.index(term)
            expect[r["url"]] = (p, " ".join(toks[max(0, p - w) : p + w + 1]))
    # pages table keys on url; reuse row position as doc_id
    got = (
        kwic_snippets(
            rd.from_pandas(
                docs.reset_index()[["index", "text"]].rename(
                    columns={"index": "doc_id"}
                )
            ),
            term=term,
            width=w,
        )
        .to_pandas()
        .set_index("doc_id")
    )
    assert len(got) == len(expect)
    for i, (_, r) in enumerate(docs.iterrows()):
        if r["url"] in expect:
            p, snip = expect[r["url"]]
            assert got.loc[i, "pos"] == p
            assert got.loc[i, "snippet"] == snip


def test_phrase_match_adjacency(ray_session):
    from indexer_ray.pipelines.text_analysis import phrase_match_docs

    rows = [
        (1, "the quick brown fox"),  # match
        (2, "quick, brown!"),  # punct separators still adjacent
        (3, "quick and brown"),  # NOT adjacent
        (4, "Quick Brown at start"),  # case-folded, string edge
        (5, "it ends quick brown"),  # string end
        (6, "quickbrown fused"),  # no separator -> one token, no match
        (7, "brown quick reversed"),  # order matters
    ]
    got = sorted(
        phrase_match_docs(_docs_ds(rows), phrase="quick brown")
        .to_pandas()["doc_id"]
        .tolist()
    )
    assert got == [1, 2, 4, 5]


def test_phrase_match_requires_tokens(ray_session):
    from indexer_ray.pipelines.text_analysis import phrase_match_docs

    with pytest.raises(ValueError):
        phrase_match_docs(_docs_ds([(1, "x")]), phrase="!!!")


def test_user_event_deltas_known(ray_session):
    from indexer_ray.pipelines.events import user_event_deltas

    ts = pd.to_datetime(
        [
            "2024-01-01 00:00:00",
            "2024-01-01 00:00:05",
            "2024-01-01 00:00:05",  # tie: event_id breaks order
            "2024-01-01 00:01:00",
            "2024-01-01 00:00:30",  # other user interleaved
        ]
    ).astype("datetime64[us]")
    ev = pd.DataFrame(
        {
            "event_id": pd.array([10, 11, 12, 13, 20], dtype="int64"),
            "ts": ts,
            "user_id": pd.array([1, 1, 1, 1, 2], dtype="int64"),
        }
    )
    out = (
        user_event_deltas(rd.from_pandas(ev))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert out["event_id"].tolist() == [10, 11, 12, 13, 20]
    assert out["prev_event_id"].tolist() == [-1, 10, 11, 12, -1]
    assert out["delta_us"].tolist() == [-1, 5_000_000, 0, 55_000_000, -1]


def test_user_event_deltas_matches_pandas_lag(ray_session):
    from indexer_ray.pipelines.events import user_event_deltas

    rng = np.random.default_rng(7)
    n = 5000
    ev = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype="int64"),
            "ts": pd.to_datetime(
                rng.integers(0, 10**6, n), unit="s"
            ).astype("datetime64[us]"),
            "user_id": rng.integers(0, 200, n).astype("int64"),
        }
    )
    got = (
        user_event_deltas(rd.from_pandas(ev))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ref = ev.sort_values(["user_id", "ts", "event_id"]).copy()
    ref["prev_event_id"] = (
        ref.groupby("user_id")["event_id"].shift(1).fillna(-1).astype("int64")
    )
    prev_ts = ref.groupby("user_id")["ts"].shift(1)
    d = ((ref["ts"] - prev_ts).dt.total_seconds() * 1e6).round()
    ref["delta_us"] = d.fillna(-1).astype("int64")
    ref = ref.sort_values("event_id").reset_index(drop=True)
    assert got["prev_event_id"].tolist() == ref["prev_event_id"].tolist()
    assert got["delta_us"].tolist() == ref["delta_us"].tolist()


def test_prefix_suggest_vs_brute(ray_session, tiny_pages, tmp_path_factory):
    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import prefix_suggest

    import pyarrow.parquet as pq

    idx = str(tmp_path_factory.mktemp("psx") / "index")
    build_index([tiny_pages], idx, BuildConfig(mode="plain", n_partitions=4))

    docs = pq.read_table(tiny_pages).to_pandas()
    df_counts: dict[str, set] = {}
    for _, r in docs.iterrows():
        for t in set(tokenize_plain(r["text"] or "")):
            df_counts.setdefault(t, set()).add(r["url"])
    for prefix in ["b", "lo", "bebe"]:  # synthetic pages vocabulary
        cand = sorted(
            ((t, len(us)) for t, us in df_counts.items() if t.startswith(prefix)),
            key=lambda x: (-x[1], x[0]),
        )[:5]
        got = (
            prefix_suggest(idx, prefix, k=5)
            .to_pandas()
            .sort_values("rank")
            .reset_index(drop=True)
        )
        assert got["term"].tolist() == [t for t, _ in cand]
        assert got["df"].tolist() == [c for _, c in cand]
        assert got["rank"].tolist() == list(range(len(cand)))


def test_prefix_suggest_empty_prefix_raises(ray_session, tiny_pages, tmp_path_factory):
    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import prefix_suggest

    idx = str(tmp_path_factory.mktemp("pse") / "index")
    build_index([tiny_pages], idx, BuildConfig(mode="plain", n_partitions=2))
    with pytest.raises(ValueError):
        prefix_suggest(idx, "", k=5)


def test_prefix_suggest_rejects_negative_k(ray_session, tiny_pages, tmp_path_factory):
    """k=-1 once kept every row but the last (pandas ``head(-1)``)."""
    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import prefix_suggest

    idx = str(tmp_path_factory.mktemp("psk") / "index")
    build_index([tiny_pages], idx, BuildConfig(mode="plain", n_partitions=2))
    with pytest.raises(ValueError, match="k must be >= 0"):
        prefix_suggest(idx, "b", k=-1)
    assert prefix_suggest(idx, "b", k=0).count() == 0


def test_levenshtein_matches_duckdb(ray_session):
    import duckdb

    from indexer_ray.pipelines.query import _levenshtein_within

    rng = np.random.default_rng(23)
    con = duckdb.connect()
    words = [
        "".join(rng.choice(list("abcde"), size=rng.integers(1, 8)))
        for _ in range(60)
    ]
    q = "abcd"
    for w in words:
        want = con.execute("SELECT levenshtein(?, ?)", [q, w]).fetchone()[0]
        got = _levenshtein_within(q, w, 3)
        if want <= 3:
            assert got == want, (q, w)
        else:
            assert got > 3, (q, w)


def test_fuzzy_suggest_ranking(ray_session, tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import fuzzy_suggest

    # vocab crafted around query 'cat': exact match, three dist-1 terms
    # (sub/ins variants) with different dfs, one far term (excluded)
    texts = (
        ["cat mat"] * 5        # cat df 5, mat df 5
        + ["bat"] * 9          # bat df 9
        + ["coat"] * 3         # insert 'o' -> dist 1, df 3
        + ["unrelatedword"] * 2
    )
    df = pd.DataFrame(
        {
            "doc_id": pd.array(range(len(texts)), dtype="int64"),
            "text": texts,
        }
    )
    src = str(tmp_path_factory.mktemp("fz") / "docs.parquet")
    idx = src.replace("docs.parquet", "index")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    build_index([src], idx, BuildConfig(mode="plain", id_column="doc_id", n_partitions=4))
    out = (
        fuzzy_suggest(idx, "cat", k=10, max_dist=1)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    # dist asc first (exact match wins), then df desc, then term asc
    assert out["term"].tolist() == ["cat", "bat", "mat", "coat"]
    assert out["dist"].tolist() == [0, 1, 1, 1]
    assert out["df"].tolist() == [5, 9, 5, 3]


def test_related_terms_vs_brute(ray_session, tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from indexer_ray.pipelines.build import BuildConfig, build_index
    from indexer_ray.pipelines.query import IndexSearcher, related_terms

    texts = [
        "anchor alpha beta",
        "anchor alpha",
        "anchor gamma gamma",   # within-doc repeats count once (df)
        "beta gamma",           # no anchor -> outside the match set
        "alpha beta gamma",     # no anchor
    ]
    df = pd.DataFrame(
        {"doc_id": pd.array(range(len(texts)), dtype="int64"), "text": texts}
    )
    src = str(tmp_path_factory.mktemp("rt") / "docs.parquet")
    idx = src.replace("docs.parquet", "index")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    build_index([src], idx, BuildConfig(mode="plain", id_column="doc_id", n_partitions=2))
    out = (
        related_terms(IndexSearcher(idx), rd.from_pandas(df), "anchor", k=10)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    # in match set {0,1,2}: alpha df 2, beta df 1, gamma df 1; anchor excluded
    assert out["term"].tolist() == ["alpha", "beta", "gamma"]
    assert out["df"].tolist() == [2, 1, 1]
