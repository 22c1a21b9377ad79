"""Text-analysis operators over a documents table (doc_id, text, ...).

All operators are Ray-Data-first: vectorized `map_batches` bodies, partial
aggregation before any shuffle, and column names chosen to match the DuckDB
oracle SQL in `__ray_entry__.py` exactly.

Tokenization here defaults to "plain mode" (lowercase + [a-z0-9] runs,
conformance/lexer.py:tokenize_plain) because that is SQL-expressible; the
engine-mode (stemmed) variants reuse the same shapes with the conformance
chain and get rows-only driver checks.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from indexer_ray.conformance.lexer import tokenize, tokenize_plain
from indexer_ray.conformance.stopwords import STOP_WORDS
from indexer_ray.stages.shuffle import grouped_aggregate, routed_reduce, top_k_rows

# ---------------------------------------------------------------- token stats


class DocTokenStats:
    """Per-doc token statistics (actor-pool map_batches body).

    Output: doc_id, n_tokens, n_unique, mean_token_len (plain mode).
    """

    def __init__(self, mode: str = "plain"):
        self._tok = tokenize_plain if mode == "plain" else tokenize

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_tokens, n_unique, mean_len = [], [], []
        for t in texts:
            toks = self._tok(t or "")
            n_tokens.append(len(toks))
            n_unique.append(len(set(toks)))
            mean_len.append(float(np.mean([len(x) for x in toks])) if toks else 0.0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_tokens, type=pa.int64()),
                "n_unique": pa.array(n_unique, type=pa.int64()),
                "mean_token_len": pa.array(mean_len, type=pa.float64()),
            }
        )


def doc_token_stats(ds, mode: str = "plain"):
    return ds.map_batches(
        DocTokenStats,
        fn_constructor_args=(mode,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(1, 8),
    )


# ------------------------------------------------------------------- term df


class _PartialTermStats:
    """Per-batch partial (term, df, cf): the combiner before the groupby —
    the shuffle moves one row per distinct term per batch, not per token."""

    def __init__(self, mode: str = "plain"):
        self._tok = tokenize_plain if mode == "plain" else tokenize

    def __call__(self, batch: pa.Table) -> pa.Table:
        df: Counter = Counter()
        cf: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = self._tok(t or "")
            cf.update(toks)
            df.update(set(toks))
        terms = list(df.keys())
        return pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "df": pa.array([df[t] for t in terms], type=pa.int64()),
                "cf": pa.array([cf[t] for t in terms], type=pa.int64()),
            }
        )


def term_stats(ds, mode: str = "plain"):
    """Global (term, df, cf) via partial-aggregate -> small groupby-sum."""
    from ray.data.aggregate import Sum

    partial = ds.map_batches(
        _PartialTermStats,
        fn_constructor_args=(mode,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(1, 8),
    )
    return partial.groupby("term").aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))


# ------------------------------------------------------------- language ID

# Tiny closed-class word profiles (public knowledge: the highest-frequency
# function words of each language) + script-range checks for languages whose
# writing system is (near-)unambiguous.  A heuristic demo-grade classifier,
# NOT fastText — swap wholesale for a real model via map_batches.
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "with", "was", "on"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine", "zu", "den", "von"},
    "fr": {"le", "la", "les", "et", "est", "pas", "pour", "que", "une", "dans", "des", "du"},
    "es": {"el", "los", "las", "es", "no", "por", "que", "una", "con", "para", "del", "se"},
    "it": {"il", "di", "che", "non", "per", "sono", "della", "nel", "anche", "come", "più", "gli"},
    "pt": {"não", "uma", "para", "com", "dos", "mais", "foi", "são", "como", "pelo", "já", "você"},
    "nl": {"de", "het", "een", "van", "niet", "dat", "voor", "met", "zijn", "naar", "ook", "maar"},
}
#: deterministic tie order (first wins on equal hit ratio)
_LANG_ORDER = ("en", "de", "fr", "es", "it", "pt", "nl")
#: script ranges that identify a language class on their own
_SCRIPT_RANGES = [
    ("ja", "぀", "ヿ"),  # hiragana+katakana BEFORE the han check
    ("ko", "가", "힯"),  # hangul syllables
    ("zh", "一", "鿿"),  # CJK unified ideographs
    ("ru", "Ѐ", "ӿ"),  # cyrillic (coarse: the dominant language)
    ("el", "Ͱ", "Ͽ"),  # greek
    ("ar", "؀", "ۿ"),  # arabic
]
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


class LangIdStage:
    """Heuristic language ID: script-range detection (ja/ko/zh/ru/el/ar)
    then closed-class word hit-rates over the Latin-script profiles
    (en/de/fr/es/it/pt/nl).

    Output: doc_id, pred_lang, lang_score (hit ratio of the winner, or the
    marker-character ratio for script-detected languages).  Deterministic;
    ties resolve in `_LANG_ORDER`.
    """

    def __init__(self):
        self.markers = {k: frozenset(v) for k, v in _LANG_MARKERS.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds, scores = [], []
        for t in batch.column("text").to_pylist():
            t = t or ""
            head = t[:400]
            words = _WORD_RE.findall(t.lower())
            script_lang = None
            for lang, lo, hi in _SCRIPT_RANGES:
                n_hits = sum(1 for ch in head if lo <= ch <= hi)
                if n_hits >= 5 or (n_hits > 0 and len(words) < 3):
                    script_lang = (lang, min(1.0, n_hits / max(1, len(head))))
                    break
            if script_lang is not None:
                preds.append(script_lang[0])
                scores.append(script_lang[1])
                continue
            if not words:
                preds.append("und")
                scores.append(0.0)
                continue
            best_lang, best = "und", 0.0
            for lang in _LANG_ORDER:
                hits = sum(1 for w in words if w in self.markers[lang])
                r = hits / len(words)
                if r > best:
                    best_lang, best = lang, r
            preds.append(best_lang)
            scores.append(best)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pred_lang": pa.array(preds, type=pa.string()),
                "lang_score": pa.array(scores, type=pa.float64()),
            }
        )


def language_id(ds):
    return ds.map_batches(LangIdStage, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048, concurrency=(1, 8))


# ---------------------------------------------------------- quality scoring


def _quality_batch(batch: pa.Table) -> pa.Table:
    texts = batch.column("text").to_pylist()
    n_chars, n_tokens, stop_ratio, punct_ratio, digit_ratio, alpha_ratio = (
        [],
        [],
        [],
        [],
        [],
        [],
    )
    for t in texts:
        t = t or ""
        toks = tokenize_plain(t)
        n_chars.append(len(t))
        n_tokens.append(len(toks))
        stop_ratio.append(sum(1 for w in toks if w in STOP_WORDS) / len(toks) if toks else 0.0)
        n = len(t)
        punct_ratio.append(sum(1 for c in t if c in ".,;:!?\"'()[]{}-") / n if n else 0.0)
        digit_ratio.append(sum(1 for c in t if c.isdigit()) / n if n else 0.0)
        alpha_ratio.append(sum(1 for c in t if c.isalpha()) / n if n else 0.0)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array(n_chars, type=pa.int64()),
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "stopword_ratio": pa.array(stop_ratio, type=pa.float64()),
            "punct_ratio": pa.array(punct_ratio, type=pa.float64()),
            "digit_ratio": pa.array(digit_ratio, type=pa.float64()),
            "alpha_ratio": pa.array(alpha_ratio, type=pa.float64()),
        }
    )


def quality_scores(ds):
    """Per-doc quality heuristics (length, stopword/punct/digit/alpha ratios)."""
    return ds.map_batches(_quality_batch, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


_ASCII_DIGITS = frozenset("0123456789")
_ASCII_ALPHA = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _ascii_class_counts(t: str) -> tuple[int, int]:
    """(n_digit, n_alpha) of the ASCII classes, vectorized over the UTF-8
    bytes: digits/letters are single ASCII bytes and UTF-8 continuation
    bytes are >= 0x80, so byte-range tests count exactly the [0-9] /
    [a-zA-Z] CHARACTERS (what the DuckDB regex oracle counts) — replacing
    a per-character Python loop with two numpy range checks."""
    b = np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
    n_digit = int(((b >= 48) & (b <= 57)).sum())
    lower = b | np.uint8(0x20)
    n_alpha = int(((lower >= 97) & (lower <= 122) & (b < 128)).sum())
    return n_digit, n_alpha


def _quality_counts_batch(batch: pa.Table) -> pa.Table:
    """Integer-only quality counts with explicit ASCII character classes so
    the DuckDB oracle ([0-9] / [a-zA-Z] regex counts) matches exactly."""
    texts = batch.column("text").to_pylist()
    n_chars, n_tokens, n_digit, n_alpha = [], [], [], []
    for t in texts:
        t = t or ""
        n_chars.append(len(t))
        n_tokens.append(len(tokenize_plain(t)))
        d, a = _ascii_class_counts(t)
        n_digit.append(d)
        n_alpha.append(a)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array(n_chars, type=pa.int64()),
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "n_digit": pa.array(n_digit, type=pa.int64()),
            "n_alpha": pa.array(n_alpha, type=pa.int64()),
        }
    )


def quality_counts(ds):
    """SQL-expressible integer quality counts per doc."""
    return ds.map_batches(_quality_counts_batch, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


# ------------------------------------------------------------ token counting

_WS_TOKEN_RE = re.compile(r"\S+")
# GPT-2-style pre-tokenizer shape (published pattern), ASCII character
# classes (stdlib `re` lacks \p{L}/\p{N}; documented approximation) and no
# trailing-space lookahead (keeps it RE2-expressible for parity checks)
_BPE_TOKEN_RE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[a-zA-Z]+| ?[0-9]+| ?[^\sa-zA-Z0-9]+|\s+"
)


def token_counts(ds, scheme: str = "whitespace"):
    """Per-doc token counts under a counting scheme:
    "whitespace" (maximal \\S+ runs — SQL-expressible) or "bpe_regex"
    (GPT-2-ish pre-tokenization; proxy for LLM token budgeting)."""
    pat = _WS_TOKEN_RE if scheme == "whitespace" else _BPE_TOKEN_RE

    def _count(batch: pa.Table) -> pa.Table:
        counts = [len(pat.findall(t or "")) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(counts, type=pa.int64()),
            }
        )

    return ds.map_batches(_count, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


# --------------------------------------------------------- sequence packing


def pack_sequences(ds, budget: int, scheme: str = "whitespace", n_parts: int = 64):
    """Greedy first-fit-in-order sequence packing for LLM training-batch
    assembly: assign each document to a pack so consecutive (by doc_id)
    docs share a pack until `budget` tokens would be exceeded.  Output one
    row per doc: (doc_id, n_tokens, pack_id, pack_tokens) where pack_id is
    globally unique and pack_tokens is the pack's total.

    Distribution: docs are RANGE-partitioned by doc_id into `n_parts`
    contiguous slices (packing is order-sensitive, so hash routing would
    scramble it), one vectorized pass per slice.  Pack boundaries never
    cross slices, so the result is deterministic and independent of block
    layout; each pack is named by its FIRST doc_id — globally unique with
    no driver coordination.  An oversized single doc (> budget) gets its
    own pack — never silently dropped.  The greedy loop is
    O(n_packs log n) via searchsorted over the token-count cumsum, not a
    per-row walk."""
    from ray.data.aggregate import Max, Min

    counts = token_counts(ds, scheme=scheme).materialize()
    if counts.count() == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_tokens": pa.array([], type=pa.int64()),
                    "pack_id": pa.array([], type=pa.int64()),
                    "pack_tokens": pa.array([], type=pa.int64()),
                }
            )
        )
    # doc_id range bounds -> contiguous range partitioning (driver reads 2 ints)
    bounds = counts.aggregate(Min("doc_id"), Max("doc_id"))
    lo, hi = int(bounds["min(doc_id)"]), int(bounds["max(doc_id)"])
    span = max(hi - lo + 1, 1)
    # slice width via DIVISION, not (off * n_parts) // span: the multiply
    # wraps int64 when doc_ids span the hashed-id range (~2^63) and would
    # scramble the contiguous-slice semantics
    width = -(-span // n_parts)

    def _route(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        off = (ids - lo).astype(np.uint64)
        part = (off // np.uint64(width)).astype(np.int32)
        return t.append_column("part", pa.array(np.minimum(part, n_parts - 1), type=pa.int32()))

    def _pack_slice(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        tok = g["n_tokens"].to_numpy(dtype=np.int64)
        n = len(ids)
        cum = np.cumsum(tok)
        pack_of = np.empty(n, dtype=np.int64)
        start = 0
        local = 0
        while start < n:
            base = cum[start - 1] if start else 0
            # largest prefix whose running total stays within budget
            end = int(np.searchsorted(cum, base + budget, side="right"))
            if end <= start:  # oversized single doc: its own pack
                end = start + 1
            pack_of[start:end] = local
            local += 1
            start = end
        # pack totals, vectorized per pack
        sums = np.bincount(pack_of, weights=tok).astype(np.int64)
        pack_tokens = sums[pack_of]
        # globally unique, coordination-free, layout-independent pack ids:
        # each pack is named by its FIRST doc_id (ids are unique and slices
        # are disjoint contiguous ranges)
        firsts = ids[np.flatnonzero(np.r_[True, pack_of[1:] != pack_of[:-1]])]
        pack_ids = firsts[pack_of]
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_tokens": tok,
                "pack_id": pack_ids,
                "pack_tokens": pack_tokens,
            }
        )

    return (
        counts.map_batches(_route, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("part")
        .map_groups(_pack_slice, batch_format="pandas")
    )


# ------------------------------------------------------- doc fingerprinting

_FP_B = np.uint64(1099511628211)
_FP_SEED = np.uint64(14695981039346656037)


def _fingerprint_batch(batch: pa.Table) -> pa.Table:
    """64-bit polynomial rolling hash over the plain token stream (order-
    sensitive document fingerprint; equal texts => equal fingerprints).

    Vectorized: per-token 64-bit hashes come from the shared Zipf-cached
    token-hash table (dedup._token_hashes), and the roll is one
    power-weighted dot product per doc — h = seed*B^n + sum(th[i] *
    B^(n-1-i)) mod 2^64 — instead of the round-1 per-byte Python loop
    (the slowest stage body in the repo per the round-1 review)."""
    from indexer_ray.pipelines.dedup import _token_hashes

    fps = []
    for t in batch.column("text").to_pylist():
        th = _token_hashes(tokenize_plain(t or ""))
        n = len(th)
        if n == 0:
            fps.append(int(_FP_SEED))
            continue
        with np.errstate(over="ignore"):
            pw = np.empty(n, dtype=np.uint64)
            pw[0] = 1
            if n > 1:
                np.cumprod(np.full(n - 1, _FP_B, dtype=np.uint64), out=pw[1:])
            h = _FP_SEED * pw[n - 1] * _FP_B + (th * pw[::-1]).sum(dtype=np.uint64)
        fps.append(int(h))
    return pa.table(
        {"doc_id": batch.column("doc_id"), "fingerprint": pa.array(fps, type=pa.uint64())}
    )


def fingerprints(ds):
    return ds.map_batches(_fingerprint_batch, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


# --------------------------------------------------------- grouped rollups


def lang_source_stats(ds):
    """Grouped aggregate: docs + char stats per (lang, source) — the
    reference has no grouped analytics; this is the training-pipeline rollup
    shape (pre-aggregated per batch, then a tiny groupby).  A null lang or
    source is a group of its own (`grouped_aggregate`)."""
    from ray.data.aggregate import Count, Max, Mean, Sum

    return grouped_aggregate(
        ds,
        ["lang", "source"],
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="sum_chars"),
        Mean("n_chars", alias_name="avg_chars"),
        Max("n_chars", alias_name="max_chars"),
    )


# ----------------------------------------------------- grouped top-k terms


def top_terms_per_group(ds, group_col: str = "lang", k: int = 10, mode: str = "plain"):
    """Most frequent terms per group, deterministic (count desc, term asc)
    ranking: per-batch partial (group, term, cnt) counts -> groupby-sum
    (the shuffle moves per-batch distinct pairs, not tokens) -> per-group
    `top_k_rows`.  Output: (group_col, term, cnt, rank), rank < k."""
    tok = tokenize_plain if mode == "plain" else tokenize

    def _partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for g, t in zip(
            batch.column(group_col).to_pylist(), batch.column("text").to_pylist()
        ):
            for term in tok(t or ""):
                counts[(g, term)] += 1
        keys = list(counts.keys())
        return pa.table(
            {
                group_col: pa.array([g for g, _ in keys], type=pa.string()),
                "term": pa.array([t for _, t in keys], type=pa.string()),
                "cnt": pa.array([counts[k_] for k_ in keys], type=pa.int64()),
            }
        )

    agg = _routed_cnt_sum(
        ds.map_batches(_partial, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=1024),
        (group_col, "term"),
    )

    return top_k_rows(
        agg, k, ["cnt", "term"], [False, True], [group_col, "term", "cnt", "rank"],
        group=group_col,
    )


# ------------------------------------------------------- quality filtering


def quality_filter(
    ds,
    min_tokens: int = 5,
    max_digit_pct: int = 30,
    min_alpha_pct: int = 50,
):
    """Training-data admission filter: doc_ids whose text has at least
    `min_tokens` plain tokens, at most `max_digit_pct`% ASCII digits and
    at least `min_alpha_pct`% ASCII letters.  Thresholds are integer
    percentages compared by cross-multiplication (n_digit*100 <=
    n_chars*pct) so the DuckDB oracle is float-free and exact."""

    def _filter(batch: pa.Table) -> pa.Table:
        keep = []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            t = t or ""
            n = len(t)
            if len(tokenize_plain(t)) < min_tokens or n == 0:
                continue
            n_digit, n_alpha = _ascii_class_counts(t)
            if n_digit * 100 <= n * max_digit_pct and n_alpha * 100 >= n * min_alpha_pct:
                keep.append(doc_id)
        return pa.table({"doc_id": pa.array(keep, type=pa.int64())})

    return ds.map_batches(_filter, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


# --------------------------------------------------------- global top-N


def top_docs_by_length(ds, n: int = 100):
    """Global top-N docs by text length WITHOUT a global sort: one
    vectorized utf8_length per batch (null text counts 0 chars, no
    per-row Python strings), then `top_k_rows`: each batch keeps its
    local top-N, a single merge takes the top-N of the <= N-per-batch
    survivors.  At 100 TB a full `ds.sort` is an all-to-all shuffle of
    every row; this moves at most N rows per batch.  Deterministic
    tie-break (n_chars desc, doc_id asc).  Output: (doc_id, n_chars, rank)."""
    import pyarrow.compute as pc

    def _lengths(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64(), safe=False),
                "n_chars": pc.cast(
                    pc.fill_null(pc.utf8_length(batch.column("text")), 0), pa.int64()
                ),
            }
        )

    lengths = ds.map_batches(_lengths, batch_format="pyarrow", zero_copy_batch=True)
    return top_k_rows(
        lengths, n, ["n_chars", "doc_id"], [False, True], ["doc_id", "n_chars", "rank"]
    )


# ------------------------------------------------------- PII redaction

#: (name, pattern, replacement) — applied IN ORDER, count-then-replace on the
#: evolving string, so the DuckDB oracle (nested regexp_replace over the same
#: stages) is exactly reproducible.  Patterns are deliberately RE2-compatible
#: AND Python-re-compatible (no lookaround/backrefs; ASCII classes only) so
#: both engines match identically.
PII_RULES: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("phone", r"\+\d{1,2} \d{3} \d{3} \d{4}", "<PHONE>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
]


def _pii_batch(batch: pd.DataFrame) -> pd.DataFrame:
    s = batch["text"].fillna("")
    out = {"doc_id": batch["doc_id"].astype("int64")}
    for name, pat, repl in PII_RULES:
        out[f"n_{name}"] = s.str.count(pat).astype("int64")
        s = s.str.replace(pat, repl, regex=True)
    out["redacted"] = s
    return pd.DataFrame(out)


def pii_redact(ds):
    """Redact PII-shaped substrings (emails, +-prefixed phone numbers, IPv4
    addresses) from a documents table — the standard scrub pass of a
    web-corpus training pipeline (e.g. C4 / CCNet lineage).  Pure
    map_batches, no shuffle; regex work is pandas-vectorized (compiled once
    by pandas' str engine, applied column-at-a-time).

    Output: (doc_id, n_email, n_phone, n_ipv4, redacted) — counts are
    per-rule match counts at that rule's stage, so the whole transform is
    deterministic and SQL-reproducible (nested regexp_replace oracle)."""
    return ds.map_batches(_pii_batch, batch_format="pandas", batch_size=2048)


# ------------------------------------------------- corpus bigram counts


class _PartialBigrams:
    """Per-batch partial bigram counts (plain tokens): the combiner before
    the groupby — the shuffle moves one row per distinct bigram per batch."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = tokenize_plain(t or "")
            c.update(zip(toks, toks[1:]))
        pairs = list(c.keys())
        return pa.table(
            {
                "w1": pa.array([p[0] for p in pairs], type=pa.string()),
                "w2": pa.array([p[1] for p in pairs], type=pa.string()),
                "cnt": pa.array([c[p] for p in pairs], type=pa.int64()),
            }
        )


def bigram_counts(ds, k: int = 100):
    """Corpus-wide top-k adjacent-token bigrams (plain tokenization) — the
    n-gram LM / collocation-stats building block.  Shape: per-batch partial
    Counter -> groupby-sum over (w1, w2) -> `top_k_rows`, a distributed
    top-k WITHOUT a global sort (each batch keeps its local top-k under the
    global order, one merge cuts the <=k-per-batch survivors).

    Output: (w1, w2, cnt, rank), rank 0-based by (cnt desc, w1 asc, w2 asc)."""
    summed = _routed_cnt_sum(
        ds.map_batches(
            _PartialBigrams,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=1024,
            concurrency=(1, 8),
        ),
        ("w1", "w2"),
    )

    return top_k_rows(
        summed, k, ["cnt", "w1", "w2"], [False, True, True], ["w1", "w2", "cnt", "rank"]
    )


def _routed_cnt_sum(ds, key_cols: tuple[str, ...], n_parts: int = 64):
    """``groupby(key_cols).Sum('cnt')`` as a routed vectorized merge: ONE
    pandas groupby-sum per routed partition.  Ray's sort-based Aggregate
    over high-cardinality string keys measured 33 s at a 4.3M-row
    pair-count merge where this routed pass takes ~2 s (the same
    sort-groupby hotspot class the r04 chunk_dedup_stats fix removed).
    The merged VALUES are exact integer sums, so the route choice never
    affects results."""
    cols = list(key_cols)

    def _sum(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: pandas groupby silently DROPS null keys by
        # default, which would diverge from the Ray groupby semantics
        # this routed merge replaces (null group values survive there)
        out = g.groupby(cols, as_index=False, sort=False, dropna=False)[
            "cnt"
        ].sum()
        return out.astype({"cnt": "int64"})

    return routed_reduce(ds, cols, n_parts, _sum)


def skipgram_counts(ds, window: int = 3, k: int = 100):
    """Skip-gram (center, context) pair counts within ±`window` token
    positions — the training-pair extraction step of word2vec-style
    embedding training (Mikolov et al. 2013): every ordered pair
    (t[i], t[j]) with 0 < |i−j| <= window inside a document counts once.
    Plain tokenization, so the DuckDB oracle recomputes it exactly as a
    positional self-join.

    Shape: per-batch partial counts (one vectorized Arrow flatten, then
    2·window shifted-pair frames through ONE pandas value_counts — no
    per-document loop), groupby-sum over (center, context), distributed
    top-k via `top_k_rows` (never a global sort).

    Output: (center, context, cnt, rank), rank by (cnt desc, center,
    context)."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def _partials(batch: pa.Table) -> pa.Table:
        rows, flat = _flatten_plain_tokens(batch)
        frames = []
        for d in range(1, window + 1):
            if len(rows) <= d:
                break
            adj = rows[d:] == rows[:-d]
            if not adj.any():
                continue
            a, b = flat[:-d][adj], flat[d:][adj]
            frames.append(pd.DataFrame({"center": a, "context": b}))
            frames.append(pd.DataFrame({"center": b, "context": a}))
        if not frames:
            return pa.table(
                {
                    "center": pa.array([], type=pa.string()),
                    "context": pa.array([], type=pa.string()),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        c = (
            pd.concat(frames, ignore_index=True)
            .groupby(["center", "context"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return pa.table(
            {
                "center": pa.array(c["center"], type=pa.string()),
                "context": pa.array(c["context"], type=pa.string()),
                "cnt": pa.array(c["cnt"].to_numpy(), type=pa.int64()),
            }
        )

    summed = _routed_cnt_sum(
        ds.map_batches(_partials, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=1024),
        ("center", "context"),
    )

    return top_k_rows(
        summed, k, ["cnt", "center", "context"], [False, True, True],
        ["center", "context", "cnt", "rank"],
    )


def _flatten_plain_tokens(batch: pa.Table):
    """(rows, flat) over PLAIN tokens ([a-z0-9]+ runs of lower(text)) —
    the plain-mode sibling of _flatten_ws_tokens: one Arrow lower + one
    RE2 split per batch, empty fragments masked out (adjacent separators
    produce '' fragments, exactly what regexp_extract_all never emits)."""
    import pyarrow.compute as pc

    n = batch.num_rows
    lower = pc.utf8_lower(pc.fill_null(batch.column("text").combine_chunks(), ""))
    toks = pc.split_pattern_regex(lower, pattern="[^a-z0-9]+")
    flat_arr = toks.flatten()
    counts = np.diff(toks.offsets.to_numpy(zero_copy_only=False))
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    mask = pc.greater(pc.binary_length(flat_arr), 0).to_numpy(zero_copy_only=False)
    return rows[mask], flat_arr.to_numpy(zero_copy_only=False)[mask]


def pmi_collocations(ds, k: int = 100, min_count: int = 5, n_parts: int = 32):
    """Top-k adjacent-bigram collocations by pointwise mutual information
    (Church & Hanks 1990): pmi = ln(P(w1 w2) / (P(w1) P(w2))) with
    P(w1 w2) = c12/N2 and P(w) = c/N1 over plain tokens — the classic
    corpus-linguistics collocation extractor (raw counts rank "of the";
    PMI ranks genuinely associated pairs).

    Exactness: each ln(count) quantizes to int64 (×1e6, floor+0.5) BEFORE
    the signed combination, so
      pmi_q = q(c12) + 2·q(N1) − q(N2) − q(c1) − q(c2)
    is an exact integer the DuckDB oracle reproduces term by term.

    Scale shape — no count-table broadcast, no join:
      * ONE tagged partial-count pass (per-batch Counters; unigram rows
        keyed w2 = '' — plain tokens are never empty) and ONE groupby-sum
        merge both count kinds in a single shuffle;
      * N1/N2 are per-block partial sums (1 row per block to the driver);
      * c1/c2 attach via two hash-routed tagged-union passes (the
        doc_bigram_nll two-routing pattern): unigram rows travel WITH the
        bigram rows to the partition that owns their term, so each group
        resolves its counts locally;
      * top-k is `top_k_rows` (local cut + one merge), never a global sort.
    Bigram rows below `min_count` drop before the routing shuffles.

    Output: (w1, w2, cnt, pmi_q, rank), rank by (pmi_q desc, w1, w2)."""
    import pyarrow.compute as pc

    def _tagged_partials(batch: pa.Table) -> pa.Table:
        # one vectorized Arrow flatten for the whole batch, then integer
        # codes: factorize once, count unigrams with bincount and bigrams
        # with one np.unique over packed 64-bit pair codes — no
        # per-document Python loop, no object-dtype groupby
        rows, flat = _flatten_plain_tokens(batch)
        if not len(rows):
            return pa.table(
                {
                    "w1": pa.array([], type=pa.string()),
                    "w2": pa.array([], type=pa.string()),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        codes, uniques = pd.factorize(flat)
        v = len(uniques)
        ucnt = np.bincount(codes, minlength=v).astype(np.int64)
        adj = rows[1:] == rows[:-1]
        key = codes[:-1][adj].astype(np.int64) * v + codes[1:][adj]
        pk, pc_ = np.unique(key, return_counts=True)
        terms = np.asarray(uniques, dtype=object)
        w1 = np.concatenate([terms[(pk // v)], terms])
        w2 = np.concatenate([terms[(pk % v)], np.full(v, "", dtype=object)])
        cnt = np.concatenate([pc_.astype(np.int64), ucnt])
        return pa.table(
            {
                "w1": pa.array(w1, type=pa.string()),
                "w2": pa.array(w2, type=pa.string()),
                "cnt": pa.array(cnt, type=pa.int64()),
            }
        )

    merged = _routed_cnt_sum(
        ds.map_batches(
            _tagged_partials,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=1024,
        ),
        ("w1", "w2"),
    ).materialize()

    def _totals(batch: pa.Table) -> pa.Table:
        isuni = pc.equal(batch.column("w2"), "")
        cnt = batch.column("cnt")
        n1 = pc.sum(pc.if_else(isuni, cnt, pa.scalar(0, pa.int64()))).as_py() or 0
        n2 = pc.sum(pc.if_else(isuni, pa.scalar(0, pa.int64()), cnt)).as_py() or 0
        return pa.table(
            {"n1": pa.array([n1], pa.int64()), "n2": pa.array([n2], pa.int64())}
        )

    tot = merged.map_batches(_totals, batch_format="pyarrow").to_pandas()
    n1_total, n2_total = int(tot["n1"].sum()), int(tot["n2"].sum())

    def _q_int(x) -> np.ndarray:
        return np.floor(np.log(np.asarray(x, dtype=np.float64)) * 1e6 + 0.5).astype(
            np.int64
        )

    qn1 = int(_q_int([n1_total])[0]) if n1_total else 0
    qn2 = int(_q_int([n2_total])[0]) if n2_total else 0

    def _drop_rare(batch: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.equal(batch.column("w2"), ""),
            pc.greater_equal(batch.column("cnt"), min_count),
        )
        return batch.filter(keep)

    def _attach_c1(g: pd.DataFrame) -> pd.DataFrame:
        uni = g[g["w2"] == ""]
        big = g[g["w2"] != ""].copy()
        big["c1"] = big["w1"].map(dict(zip(uni["w1"], uni["cnt"]))).astype("int64")
        uni = uni.copy()
        uni["c1"] = np.int64(0)
        out = pd.concat([big, uni], ignore_index=True)[["w1", "w2", "cnt", "c1"]]
        # second routing key: a bigram's w2, a unigram row's own term
        out["term"] = out["w2"].where(out["w2"] != "", out["w1"])
        return out

    def _score(g: pd.DataFrame) -> pd.DataFrame:
        uni = g[g["w2"] == ""]
        big = g[g["w2"] != ""]
        out = pd.DataFrame(
            {
                "w1": big["w1"],
                "w2": big["w2"],
                "cnt": big["cnt"].astype("int64"),
                "pmi_q": (
                    _q_int(big["cnt"])
                    + 2 * qn1
                    - qn2
                    - _q_int(big["c1"])
                    - _q_int(big["w2"].map(dict(zip(uni["w1"], uni["cnt"]))))
                ).astype("int64"),
            }
        )
        return out

    with_c1 = routed_reduce(
        merged.map_batches(_drop_rare, batch_format="pyarrow", zero_copy_batch=True),
        ["w1"], n_parts, _attach_c1,
    )
    scored = routed_reduce(with_c1, ["term"], n_parts, _score)

    return top_k_rows(
        scored, k, ["pmi_q", "w1", "w2"], [False, True, True],
        ["w1", "w2", "cnt", "pmi_q", "rank"],
    )


# ------------------------------------------------- repetition signals


def _flatten_ws_tokens(batch: pa.Table):
    """One vectorized Arrow whitespace split for the whole batch ->
    (rows, flat): row index and token string per non-empty token, in
    document order.  Arrow's split emits '' for leading/trailing/double
    whitespace; '\\S+' semantics (and the SQL oracles) have no empty
    tokens, so those are masked out.  Shared by repetition_stats and
    chunk_documents.

    ASCII whitespace on purpose: the DuckDB oracles tokenize with RE2
    '\\S+' whose \\s is ASCII-only, so Unicode spaces (NBSP etc.) must
    stay INSIDE tokens to match — ascii_split_whitespace, not
    utf8_split_whitespace."""
    import pyarrow.compute as pc

    n = batch.num_rows
    words = pc.ascii_split_whitespace(batch.column("text").combine_chunks())
    flat_arr = words.flatten()
    counts = np.diff(words.offsets.to_numpy(zero_copy_only=False))
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    mask = pc.greater(pc.binary_length(flat_arr), 0).to_numpy(zero_copy_only=False)
    return rows[mask], flat_arr.to_numpy(zero_copy_only=False)[mask]


# Rae et al. 2021 (Gopher), Table A1: the page must contain >= 2 of these
# "required words" to survive the stopword rule.
_GOPHER_REQUIRED_WORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality_stats(ds):
    """Full Gopher quality rule set (Rae et al. 2021, Table A1) as integer
    counts plus the page-keep decision:

      r1  50 <= n_words <= 100,000                (\\S+ words)
      r2  3 <= mean word length <= 10             (3*n_words <= word_chars
                                                   <= 10*n_words)
      r3  hash / ellipsis symbol-to-word ratio <= 0.1
      r4  <= 90% of lines start with a bullet ('-', '*' or U+2022)
      r5  <= 30% of lines end with an ellipsis ('...' or U+2026)
      r6  >= 80% of words contain an alphabetic character
      r7  >= 2 distinct required stopwords present (plain-token boundaries)

    Every threshold is compared by integer cross-multiplication so the
    DuckDB oracle is float-free and exact; the emitted columns are the raw
    integer counts (not ratios), matching the repetition_stats discipline.
    Pure map_batches — the rules are per-document, no shuffle.  All string
    work is Arrow kernels over the whole batch (RE2 patterns, no
    lookarounds, so the identical regexes run in the DuckDB oracle).

    Output: (doc_id, n_words, word_chars, n_lines, n_bullet_lines,
    n_ellipsis_lines, n_hash, n_ellipsis, n_alpha_words, n_req_stop, kept).
    """
    import pyarrow.compute as pc

    req_pats = [
        f"(^|[^a-z0-9]){w}([^a-z0-9]|$)" for w in _GOPHER_REQUIRED_WORDS
    ]

    def _flat_counts(col, splitter, flat_pred):
        """split each row -> (per-row counts of elements, of pred hits)."""
        lst = splitter(col)
        flat = lst.flatten()
        counts = np.diff(lst.offsets.to_numpy(zero_copy_only=False))
        n = len(counts)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        hits, lens = flat_pred(flat)
        total = np.bincount(rows, weights=hits, minlength=n).astype(np.int64)
        chars = np.bincount(rows, weights=lens, minlength=n).astype(np.int64)
        nonempty = np.bincount(rows, weights=lens > 0, minlength=n).astype(np.int64)
        return nonempty, total, chars

    def _gopher(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        col = pc.fill_null(batch.column("text").combine_chunks(), "")

        # words: \S+ runs (Arrow's split emits '' for repeated whitespace;
        # masked out via the zero-length lane in _flat_counts)
        def _word_pred(flat):
            lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
            alpha = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(
                zero_copy_only=False
            )
            return alpha & (lens > 0), lens

        n_words, n_alpha_words, word_chars = _flat_counts(
            col, pc.ascii_split_whitespace, _word_pred
        )

        # lines: '\n'-separated (empty lines count, as in the SQL split)
        def _line_pred(flat):
            bullet = pc.match_substring_regex(flat, "^[-*•]").to_numpy(
                zero_copy_only=False
            )
            return bullet, np.ones(len(flat), dtype=np.int64)

        def _line_pred_ell(flat):
            ell = pc.match_substring_regex(
                flat, r"(\.\.\.|…)$"
            ).to_numpy(zero_copy_only=False)
            return ell, np.ones(len(flat), dtype=np.int64)

        split_nl = lambda c: pc.split_pattern(c, pattern="\n")  # noqa: E731
        n_lines, n_bullet_lines, _ = _flat_counts(col, split_nl, _line_pred)
        _, n_ellipsis_lines, _ = _flat_counts(col, split_nl, _line_pred_ell)

        n_hash = pc.count_substring(col, "#").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n_ellipsis = (
            pc.count_substring(col, "...").to_numpy(zero_copy_only=False)
            + pc.count_substring(col, "…").to_numpy(zero_copy_only=False)
        ).astype(np.int64)

        lower = pc.utf8_lower(col)
        n_req_stop = np.zeros(n, dtype=np.int64)
        for pat in req_pats:
            n_req_stop += pc.match_substring_regex(lower, pat).to_numpy(
                zero_copy_only=False
            )

        kept = (
            (n_words >= 50)
            & (n_words <= 100_000)
            & (3 * n_words <= word_chars)
            & (word_chars <= 10 * n_words)
            & (10 * n_hash <= n_words)
            & (10 * n_ellipsis <= n_words)
            & (10 * n_bullet_lines <= 9 * n_lines)
            & (10 * n_ellipsis_lines <= 3 * n_lines)
            & (10 * n_alpha_words >= 8 * n_words)
            & (n_req_stop >= 2)
        ).astype(np.int64)

        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words, type=pa.int64()),
                "word_chars": pa.array(word_chars, type=pa.int64()),
                "n_lines": pa.array(n_lines, type=pa.int64()),
                "n_bullet_lines": pa.array(n_bullet_lines, type=pa.int64()),
                "n_ellipsis_lines": pa.array(n_ellipsis_lines, type=pa.int64()),
                "n_hash": pa.array(n_hash, type=pa.int64()),
                "n_ellipsis": pa.array(n_ellipsis, type=pa.int64()),
                "n_alpha_words": pa.array(n_alpha_words, type=pa.int64()),
                "n_req_stop": pa.array(n_req_stop, type=pa.int64()),
                "kept": pa.array(kept, type=pa.int64()),
            }
        )

    return ds.map_batches(_gopher, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


def repetition_stats(ds):
    """Per-document repetition signals over whitespace tokens — the
    Gopher-style (Rae et al. 2021, §A1.1) quality heuristics that catch
    boilerplate and degenerate generations: the count of the most frequent
    word and of the most frequent adjacent word BIGRAM.  Downstream filters
    compare them to n_words as a fraction; integer counts are emitted (not
    the fractions) so the DuckDB oracle is float-free and exact.

    Output: (doc_id, n_words, top_word_n, top_bigram_n), one row per doc
    (0-token docs emit 0/0/0).  Pure map_batches — no shuffle: the signals
    are per-document, so each batch is independent.  Vectorized: Arrow
    splits the whole batch, pandas groupbys count words/bigrams across the
    flattened (row, token) frame — no per-document Python loop."""
    import pyarrow.compute as pc

    def _rep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        rows, flat = _flatten_ws_tokens(batch)
        n_words = np.bincount(rows, minlength=n).astype(np.int64)

        top_word = np.zeros(n, dtype=np.int64)
        top_bigram = np.zeros(n, dtype=np.int64)
        if len(rows):
            wc = (
                pd.DataFrame({"r": rows, "w": flat})
                .groupby(["r", "w"], sort=False)
                .size()
                .groupby(level="r")
                .max()
            )
            top_word[wc.index.to_numpy()] = wc.to_numpy()
            adj = rows[1:] == rows[:-1]
            if adj.any():
                big = pd.Series(flat[:-1][adj]) + " " + pd.Series(flat[1:][adj])
                bc = (
                    pd.DataFrame({"r": rows[1:][adj], "b": big.to_numpy()})
                    .groupby(["r", "b"], sort=False)
                    .size()
                    .groupby(level="r")
                    .max()
                )
                top_bigram[bc.index.to_numpy()] = bc.to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_words": pa.array(n_words, type=pa.int64()),
                "top_word_n": pa.array(top_word, type=pa.int64()),
                "top_bigram_n": pa.array(top_bigram, type=pa.int64()),
            }
        )

    return ds.map_batches(_rep, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


# -------------------------------------------------- KWIC concordance


def kwic_snippets(ds, term: str, width: int = 3):
    """Keyword-in-context concordance: for every document whose plain-mode
    token stream contains `term`, the FIRST occurrence position and a
    snippet of the surrounding plain tokens (`width` each side, space
    joined) — the search-result-snippet stage the reference's query path
    stops short of (tree.rs returns only doc ids/scores).

    Output: (doc_id, pos, snippet).  Docs without the term are dropped.

    Embarrassingly parallel map_batches; tokenization is inherently
    per-row (same stance as language_id), but the batch is pre-filtered
    with a vectorized substring test so only rows that can match pay the
    tokenize cost."""
    import pyarrow.compute as pc

    if tokenize_plain(term) != [term]:
        # 'Batch' or 'two words' can never equal a plain token; failing
        # loudly beats a silently empty concordance
        raise ValueError(f"term must be a single plain token, got {term!r}")

    def _kwic(batch: pa.Table) -> pa.Table:
        # cheap vectorized prefilter: term must appear as a substring of
        # lower(text) for the token to exist (superset of token match)
        mask = pc.match_substring(
            pc.utf8_lower(pc.fill_null(batch.column("text"), "")), term
        )
        t = batch.filter(mask)
        ids_out: list[int] = []
        pos_out: list[int] = []
        snip_out: list[str] = []
        ids = t.column("doc_id").to_pylist()
        for did, text in zip(ids, t.column("text").to_pylist()):
            toks = tokenize_plain(text or "")
            try:
                p = toks.index(term)
            except ValueError:
                continue
            ids_out.append(did)
            pos_out.append(p)
            snip_out.append(" ".join(toks[max(0, p - width) : p + width + 1]))
        return pa.table(
            {
                "doc_id": pa.array(ids_out, type=pa.int64()),
                "pos": pa.array(pos_out, type=pa.int64()),
                "snippet": pa.array(snip_out, type=pa.string()),
            }
        )

    return ds.map_batches(_kwic, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=4096)


# ---------------------------------------------- phrase containment


def phrase_match_docs(ds, phrase: str):
    """Docs whose plain-mode token stream contains `phrase`'s tokens
    ADJACENTLY (exact phrase match without a positional index): fully
    vectorized as one RE2 regex per batch — adjacency in plain tokens is
    exactly "phrase words separated by non-alphanumerics, bounded by
    non-alphanumerics or string edges" over lower(text).

    Output: (doc_id,)."""
    import pyarrow.compute as pc

    from indexer_ray.conformance.lexer import tokenize_plain as _tp

    words = _tp(phrase)
    if not words:
        raise ValueError("phrase has no plain tokens")
    pat = (
        "(^|[^a-z0-9])" + "[^a-z0-9]+".join(re.escape(w) for w in words) + "($|[^a-z0-9])"
    )

    def _match(batch: pa.Table) -> pa.Table:
        mask = pc.match_substring_regex(
            pc.utf8_lower(pc.fill_null(batch.column("text"), "")), pat
        )
        return pa.table({"doc_id": batch.filter(mask).column("doc_id")})

    return ds.map_batches(_match, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)


def percolate_alerts(ds, alerts: dict[int, str]):
    """Reverse search / percolation (the Elasticsearch-percolator,
    Google-Alerts shape): a SET of stored conjunctive queries is matched
    against every incoming document — "which alerts fire for this doc" —
    instead of one query against a stored index.  Alert `qid` fires for a
    doc when EVERY plain token of its query string appears in the doc.

    Shape: pure map_batches — each stored query compiles once (closure)
    to its RE2 token-boundary patterns, a batch pays n_alerts × n_terms
    vectorized Arrow regex kernels and NO tokenization; stored-query sets
    are small (alerts, not corpora), so the per-batch cost is a constant
    factor.  At 100 TB this streams: no shuffle, no index required.

    Output: (query_id, doc_id), one row per firing (alert, doc) pair."""
    import pyarrow.compute as pc

    compiled: list[tuple[int, list[str]]] = []
    for qid, q in sorted(alerts.items()):
        terms = tokenize_plain(q)
        if not terms:
            raise ValueError(f"alert {qid!r} has no plain tokens: {q!r}")
        compiled.append(
            (int(qid), [f"(^|[^a-z0-9]){re.escape(t)}([^a-z0-9]|$)" for t in terms])
        )

    def _match(batch: pa.Table) -> pa.Table:
        lower = pc.utf8_lower(pc.fill_null(batch.column("text").combine_chunks(), ""))
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_d = [], []
        for qid, pats in compiled:
            mask = np.ones(len(ids), dtype=bool)
            for p in pats:
                mask &= pc.match_substring_regex(lower, p).to_numpy(
                    zero_copy_only=False
                )
                if not mask.any():
                    break
            hit = ids[mask]
            out_q.append(np.full(len(hit), qid, dtype=np.int64))
            out_d.append(hit)
        return pa.table(
            {
                "query_id": pa.array(
                    np.concatenate(out_q) if out_q else [], type=pa.int64()
                ),
                "doc_id": pa.array(
                    np.concatenate(out_d) if out_d else [], type=pa.int64()
                ),
            }
        )

    return ds.map_batches(_match, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=4096)


# -------------------------------------------------- training chunking


def chunk_documents(ds, size: int = 128, overlap: int = 32):
    """Split every document into OVERLAPPING fixed-token windows — the
    context-window chunking step of an LLM training / RAG ingestion
    pipeline: chunk i covers whitespace-token positions
    [i*stride, i*stride + size), stride = size - overlap, so consecutive
    chunks share `overlap` tokens (same fan-out shape as hopping windows:
    each token lands in at most ceil(size/stride) chunks).

    Output: (doc_id, chunk_idx, n_tokens, chunk_text); trailing chunks may
    be short, empty docs emit no rows.  Pure map_batches — chunking is
    per-document, so no shuffle; the token flatten is one vectorized Arrow
    split per batch (repetition_stats' pattern) and only the final chunk
    assembly joins strings."""
    if overlap >= size:
        raise ValueError("overlap must be < size")
    stride = size - overlap
    n_k = -(-size // stride)  # ceil: max chunks containing one token

    def _chunk(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        rows, flat = _flatten_ws_tokens(batch)
        if len(rows) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "chunk_idx": pa.array([], type=pa.int64()),
                    "n_tokens": pa.array([], type=pa.int64()),
                    "chunk_text": pa.array([], type=pa.string()),
                }
            )
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        pos = np.arange(len(rows)) - np.repeat(
            starts, np.diff(np.r_[starts, len(rows)])
        )
        frames = []
        for k in range(n_k):
            ci = pos // stride - k
            ok = (ci >= 0) & (pos < ci * stride + size)
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": ids[rows[ok]],
                        "chunk_idx": ci[ok],
                        "pos": pos[ok],
                        "term": flat[ok],
                    }
                )
            )
        x = pd.concat(frames, ignore_index=True).sort_values(
            ["doc_id", "chunk_idx", "pos"], kind="mergesort"
        )
        g = x.groupby(["doc_id", "chunk_idx"], sort=False)["term"]
        out = g.agg(n_tokens="size", chunk_text=" ".join).reset_index()
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"].to_numpy(), type=pa.int64()),
                "chunk_idx": pa.array(out["chunk_idx"].to_numpy(), type=pa.int64()),
                "n_tokens": pa.array(
                    out["n_tokens"].to_numpy().astype("int64"), type=pa.int64()
                ),
                "chunk_text": pa.array(out["chunk_text"], type=pa.string()),
            }
        )

    return ds.map_batches(_chunk, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=2048)


# ------------------------------------------------ DSIR importance weights


_DSIR_CACHES: dict[int, dict] = {}


def _dsir_hash_cache(n_buckets: int) -> dict:
    """Worker-process-global feature->bucket memo (one per bucket count).
    Ray worker processes persist across map tasks, so the cache warms
    once per worker and serves every batch of every stage — the task-pool
    equivalent of actor-held state, without actor-pool startup cost."""
    c = _DSIR_CACHES.get(n_buckets)
    if c is None:
        c = _DSIR_CACHES[n_buckets] = {}
    return c


def _dsir_bucket_counts(
    tokens: list[str], n_buckets: int, cache: dict | None = None
) -> dict[int, int]:
    """Hashed unigram+bigram feature counts for one document (the DSIR
    featurization, Xie et al. 2023 'Data Selection for Language Models
    via Importance Resampling': n-gram features hashed into a fixed
    bucket space so the distribution fit is bounded at any corpus/vocab
    size).  String-feature counting runs at C speed (Counter over
    zipped pairs); blake2b runs once per UNIQUE feature, memoized in
    `cache` across documents and batches (worker-process lifetime) —
    feature frequencies are Zipf, so the memo serves almost every
    lookup."""
    import hashlib

    if cache is None:
        cache = {}
    c: Counter = Counter(tokens)
    if len(tokens) > 1:
        c.update(map(" ".join, zip(tokens, tokens[1:])))
    out: dict[int, int] = {}
    for f, n in c.items():
        b = cache.get(f)
        if b is None:
            b = cache[f] = (
                int.from_bytes(
                    hashlib.blake2b(f.encode("utf-8"), digest_size=8).digest(), "big"
                )
                % n_buckets
            )
        out[b] = out.get(b, 0) + n
    return out


def _dsir_dist(ds, n_buckets: int) -> "np.ndarray":
    """Bucket-count vector over a corpus: per-batch partial counts (one
    fixed-size int64 vector per batch — a semilattice combiner), summed
    on the driver.  Driver memory is O(n_buckets), never corpus-sized."""
    def _partial(batch: pa.Table) -> pa.Table:
        cache = _dsir_hash_cache(n_buckets)
        v = np.zeros(n_buckets, dtype=np.int64)
        for t in batch.column("text").to_pylist():
            for b, c in _dsir_bucket_counts(
                (t or "").lower().split(), n_buckets, cache
            ).items():
                v[b] += c
        return pa.table({"bucket": pa.array(np.arange(n_buckets), type=pa.int64()),
                         "cnt": pa.array(v, type=pa.int64())})

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(_partial, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=1024)
        .groupby("bucket")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # n_buckets rows — bounded
    )
    v = np.zeros(n_buckets, dtype=np.int64)
    v[agg["bucket"].to_numpy()] = agg["cnt"].to_numpy()
    return v


def dsir_weights(ds, target_ds, n_buckets: int = 16_384):
    """DSIR importance weights (Xie et al. 2023): score every corpus doc
    by how much more likely its hashed n-gram features are under a TARGET
    distribution (e.g. a quality reference corpus) than under the corpus'
    own distribution — the data-selection step that reweights a raw crawl
    toward a target domain.  log w(doc) = Σ_f n_f(doc)·(ln p̂_t[f] −
    ln p̂_s[f]), add-1 smoothed.

    Exactness: the per-bucket log ratio is quantized to int64 (×1e6) ONCE
    in a broadcast table, so each doc's weight is an exact integer dot
    product — order-independent and reproducible (the repo's
    quantize-before-sum discipline).  Rows-only at the driver (the
    feature hashing is not SQL-expressible — same carve-out as
    decontamination); the pytest oracle is a brute reimplementation.

    Scale shape: two bounded-size distribution fits (one fixed-length
    vector per batch through a tiny groupby) + one pure scoring map.
    Output: (doc_id, n_features, logw_q), logw_q = quantized log weight."""
    import ray

    tgt = _dsir_dist(target_ds, n_buckets).astype(np.float64)
    src = _dsir_dist(ds, n_buckets).astype(np.float64)
    lr = np.log((tgt + 1.0) / (tgt.sum() + n_buckets)) - np.log(
        (src + 1.0) / (src.sum() + n_buckets)
    )
    lr_q = np.floor(lr * 1e6 + 0.5).astype(np.int64)
    ref = ray.put(lr_q)

    def _score(batch: pa.Table) -> pa.Table:
        table = ray.get(ref)
        cache = _dsir_hash_cache(n_buckets)
        ids, nf, w = [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            c = _dsir_bucket_counts((t or "").lower().split(), n_buckets, cache)
            ids.append(doc_id)
            nf.append(sum(c.values()))
            w.append(int(sum(n * int(table[b]) for b, n in c.items())))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_features": pa.array(nf, type=pa.int64()),
                "logw_q": pa.array(w, type=pa.int64()),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=1024)


def dsir_feature_bucket(feature: str, n_buckets: int) -> int:
    """The DSIR feature->bucket hash (blake2b-64 mod n_buckets) as a
    public single-feature function, so callers (and the SQL oracle
    builder) can pin the exact mapping dsir_weights uses."""
    import hashlib

    return (
        int.from_bytes(
            hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(), "big"
        )
        % n_buckets
    )


def dsir_probe_bucket_counts(ds, features: tuple[str, ...], n_buckets: int = 16):
    """Per-document bucket counts of a FIXED probe-feature list through
    the real DSIR featurization (lower().split() unigrams + space-joined
    bigrams, blake2b bucket hash) — the SQL-checkable window onto
    dsir_weights' feature pipeline: the probe list is small enough to
    inline its (feature, bucket) pairs as a VALUES table in DuckDB, so
    the whole distributed counting path gets a full value-hash oracle
    while the unbounded-vocabulary scoring keeps its rows-only check.

    Shape: pure map — per batch a Counter over unigram+bigram features,
    filtered to the probe set, bucket-aggregated; no shuffle at all (the
    per-(doc, bucket) rows ARE the result).
    Output: (doc_id, bucket, cnt), only buckets with cnt > 0."""
    probe = {f: dsir_feature_bucket(f, n_buckets) for f in features}

    def _count(batch: pa.Table) -> pa.Table:
        ids, bks, ns = [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = (t or "").lower().split()
            c: Counter = Counter(toks)
            if len(toks) > 1:
                c.update(map(" ".join, zip(toks, toks[1:])))
            out: dict[int, int] = {}
            for f, b in probe.items():
                n = c.get(f)
                if n:
                    out[b] = out.get(b, 0) + n
            for b, n in sorted(out.items()):
                ids.append(doc_id)
                bks.append(b)
                ns.append(n)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "bucket": pa.array(bks, type=pa.int64()),
                "cnt": pa.array(ns, type=pa.int64()),
            }
        )

    return ds.select_columns(["doc_id", "text"]).map_batches(
        _count, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024
    )


def doc_bigram_nll(ds, n_parts: int = 32):
    """Per-document bigram-LM negative log-likelihood over corpus MLE
    counts — the next rung above doc_unigram_nll on the CCNet/Gopher LM
    quality ladder:  nll2(doc) = Σ_{bigrams} [ln c(w1·) − ln c(w1 w2)]
    (≥ 0; c(w1·) = total bigram continuations of w1).  Plain
    tokenization, so SQL recomputes it exactly.

    Exactness: ln of each count quantizes to int64 (×1e6) BEFORE any
    summation, so every partial is an exact integer — order-independent
    and hash-checkable (the repo's quantize-before-sum discipline).

    Scale shape — the two count keys need different co-locations, so the
    score DECOMPOSES into two routed partial sums that never broadcast a
    count table:
      * occurrences (doc, w1, w2, n) route by hash(w1, w2): inside a
        partition the per-bigram sums ARE the global c(w1 w2), so the
        −q(ln c12)·n partials per doc are computed locally;
      * a second routing by hash(w1) makes per-partition sums the global
        c(w1·), giving the +q(ln c1)·n partials;
      * a doc-routed vectorized reduceat merge adds the two streams.
    The shuffle moves per-(doc, bigram) count rows and per-(doc,
    partition) partials — never text, never a global count table.
    Output: (doc_id, n_bigrams, nll2_q)."""

    def _occ(batch: pa.Table) -> pa.Table:
        ids, w1s, w2s, ns = [], [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = tokenize_plain(t or "")
            if len(toks) < 2:
                continue
            c = Counter(zip(toks[:-1], toks[1:]))
            for (a, b), n in c.items():
                ids.append(doc_id)
                w1s.append(a)
                w2s.append(b)
                ns.append(n)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "w1": pa.array(w1s, type=pa.string()),
                "w2": pa.array(w2s, type=pa.string()),
                "n": pa.array(ns, type=pa.int64()),
            }
        )

    occ = ds.map_batches(_occ, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=1024).materialize()

    def _partial12(g: pd.DataFrame) -> pd.DataFrame:
        c12 = g.groupby(["w1", "w2"])["n"].transform("sum").to_numpy()
        q = np.floor(np.log(c12.astype(np.float64)) * 1e6 + 0.5).astype(np.int64)
        s = pd.DataFrame(
            {"doc_id": g["doc_id"], "s_q": -q * g["n"].to_numpy(), "nb": g["n"]}
        )
        out = s.groupby("doc_id", as_index=False).sum()
        return out.astype({"doc_id": "int64", "s_q": "int64", "nb": "int64"})

    def _partial1(g: pd.DataFrame) -> pd.DataFrame:
        c1 = g.groupby("w1")["n"].transform("sum").to_numpy()
        q = np.floor(np.log(c1.astype(np.float64)) * 1e6 + 0.5).astype(np.int64)
        s = pd.DataFrame({"doc_id": g["doc_id"], "s_q": q * g["n"].to_numpy()})
        out = s.groupby("doc_id", as_index=False).sum()
        out["nb"] = np.int64(0)
        return out.astype({"doc_id": "int64", "s_q": "int64", "nb": "int64"})

    partials = routed_reduce(occ, ["w1", "w2"], n_parts, _partial12).union(
        routed_reduce(occ, ["w1"], n_parts, _partial1)
    )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        doc = g["doc_id"].to_numpy()
        order = np.argsort(doc, kind="mergesort")
        sdoc = doc[order]
        starts = np.flatnonzero(np.r_[True, sdoc[1:] != sdoc[:-1]])
        return pd.DataFrame(
            {
                "doc_id": sdoc[starts].astype("int64"),
                "n_bigrams": np.add.reduceat(
                    g["nb"].to_numpy()[order], starts
                ).astype("int64"),
                "nll2_q": np.add.reduceat(
                    g["s_q"].to_numpy()[order], starts
                ).astype("int64"),
            }
        )

    return routed_reduce(partials, ["doc_id"], n_parts, _merge)


def doc_trigram_nll(
    ds,
    n_parts: int = 32,
    lambdas: tuple[float, float, float] = (0.5, 0.3, 0.2),
):
    """Per-document INTERPOLATED trigram-LM NLL — the trained-LM rung of
    the CCNet quality ladder (Wenzek 2020 §4.3; Jelinek-Mercer smoothing,
    Chen & Goodman 1999 eq. 4 with fixed mixture weights):

      p(w3 | w1 w2) = λ3·c123/c12•  +  λ2·c23/c2•  +  λ1·c3/N
      nll3(doc)     = Σ_occurrences −q(ln p),   q(x) = floor(x·1e6 + 0.5)

    where every count is over the corpus TRIGRAM-occurrence table (c12• =
    occurrences with context (w1,w2), c2• = occurrences with middle word
    w2, N = total trigram occurrences), so a DuckDB oracle recomputes it
    exactly from the same GROUP BYs.  Quantization happens per occurrence
    BEFORE the doc sum (the repo's quantize-before-sum discipline); the
    interpolation itself is evaluated in ONE fixed expression order
    (λ3·p3 + λ2·p2 + λ1·p1, left-to-right IEEE doubles) on both sides,
    and each pᵢ reaches that expression through a pivot whose groupby-sum
    adds exact float zeros — so the doubles are bit-identical to SQL's.

    Scale shape — ln(a+b+c) does not decompose the way the bigram score
    did, so instead of two subtractable streams the three conditional
    probabilities are computed in three DIFFERENTLY-ROUTED passes over
    the same materialized occurrence table (context (w1,w2) / middle w2 /
    last w3 — inside each routed partition the per-key sums ARE the
    global counts), then re-keyed by doc for the pivot + ln + sum merge.
    The shuffles move per-(doc, trigram) count rows — never text, never a
    count table; the only driver-side value is the scalar N.
    Output: (doc_id, n_trigrams, nll3_q)."""
    l3, l2, l1 = float(lambdas[0]), float(lambdas[1]), float(lambdas[2])

    def _occ(batch: pa.Table) -> pa.Table:
        ids, w1s, w2s, w3s, ns = [], [], [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = tokenize_plain(t or "")
            if len(toks) < 3:
                continue
            c = Counter(zip(toks[:-2], toks[1:-1], toks[2:]))
            for (a, b, d), n in c.items():
                ids.append(doc_id)
                w1s.append(a)
                w2s.append(b)
                w3s.append(d)
                ns.append(n)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "w1": pa.array(w1s, type=pa.string()),
                "w2": pa.array(w2s, type=pa.string()),
                "w3": pa.array(w3s, type=pa.string()),
                "n": pa.array(ns, type=pa.int64()),
            }
        )

    occ = ds.map_batches(
        _occ, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024
    ).materialize()
    n_total = occ.sum("n") or 0  # scalar N — the only driver-side value
    if not n_total:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_trigrams": pa.array([], type=pa.int64()),
                    "nll3_q": pa.array([], type=pa.int64()),
                }
            )
        )

    _KEY = ["doc_id", "w1", "w2", "w3"]

    def _stream(g: pd.DataFrame, which: str) -> pd.DataFrame:
        if which == "p3":
            num = g.groupby(["w1", "w2", "w3"])["n"].transform("sum").to_numpy()
            den = g.groupby(["w1", "w2"])["n"].transform("sum").to_numpy()
        elif which == "p2":
            num = g.groupby(["w2", "w3"])["n"].transform("sum").to_numpy()
            den = g.groupby(["w2"])["n"].transform("sum").to_numpy()
        else:  # p1
            num = g.groupby(["w3"])["n"].transform("sum").to_numpy()
            den = np.float64(n_total)
        out = g[_KEY].copy()
        p = num.astype(np.float64) / den
        out["p3"] = p if which == "p3" else np.float64(0.0)
        out["p2"] = p if which == "p2" else np.float64(0.0)
        out["p1"] = p if which == "p1" else np.float64(0.0)
        # n travels on exactly ONE stream so the pivot sum stays exact
        out["n"] = g["n"].to_numpy() if which == "p3" else np.int64(0)
        return out

    streams = [
        routed_reduce(occ, keys, n_parts, lambda g, w=which: _stream(g, w))
        for which, keys in (("p3", ["w1", "w2"]), ("p2", ["w2"]), ("p1", ["w3"]))
    ]
    combined = streams[0].union(streams[1]).union(streams[2])

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        # pivot: per (doc, trigram) each pᵢ column holds one non-zero
        # contribution plus exact float zeros — the sum is order-exact
        piv = g.groupby(_KEY, as_index=False, sort=False)[
            ["p3", "p2", "p1", "n"]
        ].sum()
        pi = (
            l3 * piv["p3"].to_numpy()
            + l2 * piv["p2"].to_numpy()
            + l1 * piv["p1"].to_numpy()
        )
        q = np.floor(np.log(pi) * 1e6 + 0.5).astype(np.int64)
        nv = piv["n"].to_numpy(dtype=np.int64)
        s = pd.DataFrame(
            {"doc_id": piv["doc_id"], "n_trigrams": nv, "nll3_q": -q * nv}
        )
        out = s.groupby("doc_id", as_index=False, sort=False).sum()
        return out.astype(
            {"doc_id": "int64", "n_trigrams": "int64", "nll3_q": "int64"}
        )

    return routed_reduce(combined, ["doc_id"], n_parts, _merge)


def build_vocab(ds, size: int, min_df: int = 1, mode: str = "plain"):
    """Tokenizer-vocabulary export: the `size` highest-cf terms with
    df >= min_df, ranked (cf desc, term asc) — the frequency-cut vocab a
    word-level tokenizer trains from (the published word-vocab recipe;
    BPE replaces the cut with merges but consumes the same counts).

    Shape: term_stats' partial-aggregate rollup, the df >= min_df filter,
    then `top_k_rows` (per-batch local top-`size` under the global order,
    one merge) — never a global sort.
    Output: (term, df, cf, rank)."""
    stats = term_stats(ds, mode=mode)

    def _min_df(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["df"] >= min_df]

    return top_k_rows(
        stats.map_batches(_min_df, batch_format="pandas"),
        size, ["cf", "term"], [False, True], ["term", "df", "cf", "rank"],
    )


def normalize_text(
    ds,
    text_col: str = "text",
    out_col: str = "norm_text",
    nfc: bool = True,
    lower: bool = True,
    accents: bool = False,
    collapse_ws: bool = True,
):
    """CCNet-style text normalization (Wenzek 2020 normalizes before
    paragraph hashing): NFC -> lowercase -> optional accent strip ->
    ASCII-whitespace collapse + trim, as a pure map (no shuffle).

    lower/collapse are Arrow kernels (utf8_lower /
    replace_substring_regex — RE2 '\\s' is ASCII-only, matching the
    DuckDB oracle's regexp_replace semantics; Unicode spaces like NBSP
    intentionally survive on BOTH sides).  NFC and the accent strip go
    through stdlib unicodedata in ONE per-row pass — pyarrow 16's
    utf8_normalize(form='NFC') does NOT compose combining sequences
    (decomposition-only; 'A'+U+0301 stays two codepoints, diverging from
    DuckDB/CPython), so it cannot be used.  The documented per-row
    exemption: a pure codepoint filter, no allocation-heavy parse.
    Characters without a canonical decomposition (e.g. 'ø') are KEPT by
    the accent strip, which DuckDB's strip_accents agrees with."""
    import unicodedata

    def _py_norm(v: str | None) -> str | None:
        if v is None:
            return None
        if accents:
            v = "".join(
                ch
                for ch in unicodedata.normalize("NFD", v)
                if not unicodedata.combining(ch)
            )
            return unicodedata.normalize("NFC", v) if nfc else v
        return unicodedata.normalize("NFC", v)

    def _norm(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        arr = pc.cast(t.column(text_col).combine_chunks(), pa.string())
        if nfc or accents:
            arr = pa.array([_py_norm(v) for v in arr.to_pylist()], type=pa.string())
        if lower:
            arr = pc.utf8_lower(arr)
        if collapse_ws:
            arr = pc.replace_substring_regex(arr, r"\s+", " ")
            arr = pc.utf8_trim(arr, characters=" ")
        if out_col in t.schema.names:
            t = t.drop_columns([out_col])
        return t.append_column(out_col, arr)

    return ds.map_batches(_norm, batch_format="pyarrow")


def frequency_spectrum(ds, mode: str = "plain"):
    """Zipf frequency spectrum (Baayen's V(k,N): how many distinct terms
    occur exactly k times in the corpus) — the corpus-linguistics census
    behind hapax-rate / vocabulary-growth quality checks.  Two chained
    partial aggregations: term_stats' (term, df, cf) rollup, then a
    count-of-counts groupby on cf — both shuffles carry one row per
    distinct key, never per token."""
    from ray.data.aggregate import Count

    return (
        term_stats(ds, mode=mode)
        .groupby("cf")
        .aggregate(Count(alias_name="n_terms"))
        .sort("cf")
    )


def split_sentences(ds, text_col: str = "text"):
    """Sentence segmentation, fully vectorized (Arrow kernels only): a
    boundary is a [.!?] terminator followed by ONE space; the terminator
    stays with the left sentence and the boundary space is consumed.
    Deliberately lookaround-free so the identical RE2 rule runs in the
    DuckDB oracle (abbreviation/uppercase heuristics are out of scope —
    demo-grade rule; swap the regex or the whole batch fn for a real
    segmenter).  Output: (doc_id, sent_idx, sentence), one row per
    sentence, no shuffle."""

    def _split(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = pc.cast(t.column(text_col).combine_chunks(), pa.string())
        marked = pc.replace_substring_regex(text, r"([.!?]) ", "\\1\x1f")
        lists = pc.split_pattern(marked, pattern="\x1f")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        # per-row local index: arange minus each row's start offset
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = offsets[-1] if len(offsets) else 0
        starts = np.repeat(offsets[:-1], np.diff(offsets))
        local = np.arange(n, dtype=np.int64) - starts
        doc_ids = (
            t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        parents = np.repeat(doc_ids, np.diff(offsets))
        return pa.table(
            {
                "doc_id": pa.array(parents, type=pa.int64()),
                "sent_idx": pa.array(local, type=pa.int64()),
                "sentence": flat,
            }
        )

    return ds.map_batches(_split, batch_format="pyarrow", zero_copy_batch=True)


def ngram_counts(ds, n: int = 3, k: int = 100, mode: str = "plain"):
    """Corpus-wide top-k adjacent-token n-grams (generalizes
    bigram_counts to any n — the n-gram LM / collocation building block
    at the order a KenLM-style pipeline actually trains).  The n-gram is
    one space-joined string column so the shuffle key stays single.

    Shape identical to bigram_counts: per-batch partial Counter ->
    groupby-sum over the ngram string -> `top_k_rows` under the global
    (cnt desc, ngram asc) order; no global sort.  Output: (ngram, cnt, rank)."""
    tok = tokenize_plain if mode == "plain" else tokenize

    def _partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = tok(t or "")
            for i in range(len(toks) - n + 1):
                c[" ".join(toks[i : i + n])] += 1
        grams = list(c.keys())
        return pa.table(
            {
                "ngram": pa.array(grams, type=pa.string()),
                "cnt": pa.array([c[g] for g in grams], type=pa.int64()),
            }
        )

    summed = (
        ds.map_batches(
            _partial,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=1024,
        )
    )
    summed = _routed_cnt_sum(summed, ("ngram",))

    return top_k_rows(summed, k, ["cnt", "ngram"], [False, True], ["ngram", "cnt", "rank"])


def c4_line_filter(
    ds,
    text_col: str = "text",
    min_words_per_line: int = 5,
    min_kept_lines: int = 3,
):
    """The C4 line-level cleaning rules (Raffel et al. 2020 §2.2,
    arXiv:1910.10683), faithfully and fully vectorized — Arrow kernels
    only, no shuffle:

      * keep only lines ending in a terminal punctuation mark
        (. ! ? or closing quote),
      * keep only lines with >= `min_words_per_line` words,
      * drop lines containing the word "javascript",
      * drop the whole page if it contains "lorem ipsum" (any case)
        or a curly brace,
      * keep the page only if >= `min_kept_lines` lines survive
        (the paper's >= 3 sentences, approximated at line granularity).

    The paper's remaining rules are covered elsewhere: three-sentence-span
    dedup is `chunk_dedup_stats`, and the bad-words list needs an external
    wordlist (out of scope offline).  Word counting uses RE2 '\\S+' (ASCII
    whitespace — the repo's documented oracle-tokenizer convention).

    Output: (doc_id, n_lines, n_kept_lines, kept, clean_text), one row
    per page; clean_text joins the surviving lines with newlines."""

    def _filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = pc.cast(t.column(text_col).combine_chunks(), pa.string())
        text = pc.fill_null(text, "")
        lower = pc.utf8_lower(text)
        banned = pc.or_(
            pc.match_substring(lower, "lorem ipsum"),
            pc.or_(
                pc.match_substring(text, "{"), pc.match_substring(text, "}")
            ),
        ).to_numpy(zero_copy_only=False)

        lists = pc.split_pattern(text, pattern="\n")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.utf8_trim_whitespace(lists.flatten())
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        sizes = np.diff(offsets)

        ends = np.zeros(len(flat), dtype=bool)
        for mark in (".", "!", "?", '"'):
            ends |= pc.ends_with(flat, pattern=mark).to_numpy(
                zero_copy_only=False
            )
        n_words = pc.count_substring_regex(flat, pattern=r"\S+").to_numpy(
            zero_copy_only=False
        )
        has_js = pc.match_substring(
            pc.utf8_lower(flat), "javascript"
        ).to_numpy(zero_copy_only=False)
        keep_line = ends & (n_words >= min_words_per_line) & ~has_js

        doc_ids = (
            t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        # per-doc line counts: reduceat over the flat keep mask
        starts = offsets[:-1]
        n_kept = (
            np.add.reduceat(keep_line.astype(np.int64), starts)
            if len(flat)
            else np.zeros(len(doc_ids), dtype=np.int64)
        )
        n_kept = np.where(sizes == 0, 0, n_kept)  # reduceat quirk on empties
        kept_doc = (~banned) & (n_kept >= min_kept_lines)

        kept_flat = flat.filter(pa.array(keep_line))
        kept_offsets = np.zeros(len(doc_ids) + 1, dtype=np.int32)
        np.cumsum(n_kept, out=kept_offsets[1:])
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(kept_offsets), kept_flat), "\n"
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "n_lines": pa.array(sizes, type=pa.int64()),
                "n_kept_lines": pa.array(n_kept, type=pa.int64()),
                "kept": pa.array(kept_doc.astype(np.int64), type=pa.int64()),
                "clean_text": joined,
            }
        )

    return ds.map_batches(_filter, batch_format="pyarrow", zero_copy_batch=True)
