"""Retrieval-quality evaluation at corpus scale — the measurement loop a
search/RAG deployment runs over its own query logs (the reference ships
no evaluation at all; this closes the engine's feedback loop).

`eval_retrieval(results, qrels, k)` consumes a ranked results Dataset
(query_id, doc_id, rank — rank dense from 0, the contract every search
API in this repo emits) and a relevance-judgment Dataset
(query_id, doc_id[, grade > 0]) and computes, PER QUERY:

  n_rel        judged-relevant documents for the query
  hits_at_k    relevant docs among the top k results
  first_rank   rank of the first relevant result (-1 if none in results)
  rr_q         quantized reciprocal rank: 10^9 // (first_rank + 1), 0 if
               none — INTEGER, so P@k = hits_at_k/k, recall@k =
               hits_at_k/n_rel and MRR = avg(rr_q)/1e9 are all exact
               integer ratios and the whole table is cross-engine
               hash-checkable (the repo's quantize-before-compare rule)

Shape: both sides hash-route by query_id into `n_parts` partitions (the
routed-partition pattern — one vectorized pandas pass per PARTITION,
never a map_groups per query); queries with judgments but no results
still emit a row (hits 0, first_rank -1), queries with results but no
judgments emit n_rel 0.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from indexer_ray.stages.shuffle import routed_reduce

_RR_SCALE = 10**9


def _project(t: pa.Table) -> pa.Table:
    """(query_id, doc_id, rank) as int64; rank -1 on judgment rows."""

    def i64(c: str) -> np.ndarray:
        return t.column(c).to_numpy(zero_copy_only=False).astype(np.int64)

    rank = i64("rank") if "rank" in t.schema.names else np.full(t.num_rows, -1, dtype=np.int64)
    return pa.table({"query_id": i64("query_id"), "doc_id": i64("doc_id"), "rank": rank})


def eval_retrieval(results, qrels, k: int = 10, n_parts: int = 32):
    """Per-query integer-exact retrieval metrics; see module docstring.
    Output: (query_id, n_rel, hits_at_k, first_rank, rr_q)."""

    sides = [
        results.map_batches(_project, batch_format="pyarrow"),
        qrels.map_batches(_project, batch_format="pyarrow"),
    ]

    def _metrics(g: pd.DataFrame) -> pd.DataFrame:
        res = g[g["side"] == 0]
        rel = g[g["side"] == 1]
        n_rel = rel.groupby("query_id")["doc_id"].nunique()
        # relevant results: inner merge on (query_id, doc_id)
        hit = res.merge(
            rel[["query_id", "doc_id"]].drop_duplicates(),
            on=["query_id", "doc_id"],
        )
        hits_at_k = (
            hit[hit["rank"] < k].groupby("query_id")["doc_id"].nunique()
        )
        first = hit.groupby("query_id")["rank"].min()
        qids = sorted(set(g["query_id"]))
        nr = np.array([int(n_rel.get(q, 0)) for q in qids], dtype=np.int64)
        hk = np.array([int(hits_at_k.get(q, 0)) for q in qids], dtype=np.int64)
        fr = np.array([int(first.get(q, -1)) for q in qids], dtype=np.int64)
        rr = np.where(fr >= 0, _RR_SCALE // (fr + 1), 0).astype(np.int64)
        return pd.DataFrame(
            {
                "query_id": np.array(qids, dtype=np.int64),
                "n_rel": nr,
                "hits_at_k": hk,
                "first_rank": fr,
                "rr_q": rr,
            }
        )

    return routed_reduce(sides, ["query_id"], n_parts, _metrics)


def mine_hard_negatives(
    searcher,
    queries: list[str],
    qrels: "pd.DataFrame",
    k: int = 10,
    scorer: str = "tfidf",
):
    """Hard-negative mining for dense-retriever training — the
    BM25-negatives recipe of Karpukhin et al. 2020 (DPR): per query, the
    `k` highest-scoring documents NOT judged relevant are the hard
    negatives (lexically close to the query, semantically wrong — the
    pairs that actually teach the bi-encoder).

    Ranking follows the repo's quantize-then-rank contract
    (floor(score·1e6 + 0.5) desc, doc_id asc) so the SQL oracle replays
    the cut exactly; relevant docs are excluded BEFORE ranking, so each
    rank is dense over negatives only.

    `qrels`: DataFrame (query_id, doc_id).  Returns (query_id, rank,
    doc_id, score_q).  Per-query index search goes through the searcher's
    byte-budgeted cache of partition block tables; qrels membership is a set probe (qrels for a query
    set are small — judgments, not the corpus)."""
    import math

    import pandas as pd

    rel = {
        (int(q), int(d))
        for q, d in zip(qrels["query_id"].to_numpy(), qrels["doc_id"].to_numpy())
    }
    rows = []
    for qi, q in enumerate(queries):
        hits = searcher.search(q, k=None, scorer=scorer, algorithm="exhaustive")
        ranked = sorted((-(int(math.floor(sc * 1e6 + 0.5))), int(d)) for d, sc in hits)
        neg = [(d, -negq) for negq, d in ranked if (qi, d) not in rel][:k]
        rows.extend((qi, r, d, sq) for r, (d, sq) in enumerate(neg))
    return pd.DataFrame(
        rows, columns=["query_id", "rank", "doc_id", "score_q"]
    ).astype("int64")


def ltr_features(
    searcher,
    docs_path: str,
    query: str,
    k: int = 20,
):
    """Learning-to-rank training-feature extraction (the feature-vector
    stage of a ranking pipeline, e.g. LambdaMART training sets): for the
    top-`k` tf-idf candidates of `query`, one row of integer-exact
    features per (query, doc) pair:

      tfidf_q / bm25_q   both scorers' quantized scores off the index
      n_matched          distinct query terms present in the doc
      sum_tf             total query-term occurrences
      dl                 plain-token document length
      min_window         smallest token span containing ALL query terms
                         (two-pointer over per-term position lists ==
                         MIN over the position cross product; -1 when
                         some term is absent)

    Candidate texts are fetched by one predicate-pushdown id read
    (bounded by k); scores come from the index; the SQL oracle replays
    every feature from the corpus."""
    import math

    import pandas as pd
    import pyarrow.parquet as _pq

    from indexer_ray.conformance.lexer import tokenize_plain as _tp

    terms = list(dict.fromkeys(_tp(query)))
    hits_t = searcher.search(query, k=None, scorer="tfidf", algorithm="exhaustive")
    ranked = sorted(
        (-(int(math.floor(sc * 1e6 + 0.5))), int(d)) for d, sc in hits_t
    )[:k]
    hits_b = searcher.search(query, k=None, scorer="bm25", algorithm="exhaustive")
    bq = {int(d): int(math.floor(sc * 1e6 + 0.5)) for d, sc in hits_b}

    cand = [d for _, d in ranked]
    texts: dict[int, str] = {}
    if cand:
        t = _pq.read_table(
            docs_path, columns=["doc_id", "text"],
            filters=[("doc_id", "in", cand)],
        )
        texts = dict(
            zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist())
        )

    def _min_window(pos_lists: list[list[int]]) -> int:
        # two-pointer sweep over the merged (pos, which-term) stream: the
        # smallest [lo, hi] containing >= 1 position of every term — equal
        # to MIN over the cross product of (max - min + 1)
        stream = sorted(
            (p, i) for i, ps in enumerate(pos_lists) for p in ps
        )
        need = len(pos_lists)
        count = [0] * need
        have = 0
        best = None
        lo = 0
        for hi in range(len(stream)):
            count[stream[hi][1]] += 1
            if count[stream[hi][1]] == 1:
                have += 1
            while have == need:
                w = stream[hi][0] - stream[lo][0] + 1
                best = w if best is None or w < best else best
                count[stream[lo][1]] -= 1
                if count[stream[lo][1]] == 0:
                    have -= 1
                lo += 1
        return -1 if best is None else best

    rows = []
    for rank, (negq, d) in enumerate(ranked):
        toks = _tp(texts.get(d, "") or "")
        dl = len(toks)
        pos = {t: [] for t in terms}
        for i, t in enumerate(toks):
            if t in pos:
                pos[t].append(i)
        n_matched = sum(1 for t in terms if pos[t])
        sum_tf = sum(len(pos[t]) for t in terms)
        mw = _min_window([pos[t] for t in terms]) if n_matched == len(terms) else -1
        rows.append((rank, d, int(-negq), bq.get(d, 0), n_matched, sum_tf, dl, mw))
    return pd.DataFrame(
        rows,
        columns=[
            "rank", "doc_id", "tfidf_q", "bm25_q",
            "n_matched", "sum_tf", "dl", "min_window",
        ],
    ).astype("int64")
