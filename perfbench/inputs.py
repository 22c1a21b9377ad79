"""Benchmark inputs, each a pure function of (seed, size).

The program under test sees only the parquet files and query strings made
here.  Pages come from ``indexer_ray.sources.pages`` (the BASELINE
``(url, warc_ts, html, text, lang)`` schema, Zipf(1.07) word skew); query
terms are drawn from the same vocabulary and Zipf table.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from indexer_ray.sources.pages import (
    _zipf_cdf,
    generate_pages_batch,
    generate_pages_parquet,
    make_vocab,
)

# Ranks below HEAD are the Zipf head (df of hundreds to all docs at 10k
# docs); selective queries draw uniformly from [HEAD, TAIL), so their terms
# are rare and WAND takes them.
HEAD = 200
TAIL = 20_000
NEEDLE_SHARE = 0.25

# refresh: base rows i % UPDATE_EVERY == 0 get a newer version with new
# text, rows i % DELETE_EVERY == DELETE_AT are deleted
UPDATE_EVERY = 10
DELETE_EVERY = 20
DELETE_AT = 5
NEWER_BY_US = 86_400 * 1_000_000


# Row groups are the build's phase-1 task unit; 1000 rows give every cpu
# of a small host work at the benchmark's corpus size.
ROW_GROUP = 1000


def write_corpus(path: str, n_docs: int, seed: int) -> str:
    return generate_pages_parquet(path, n_docs, seed=seed, row_group_size=ROW_GROUP)


def text_bytes(paths: list[str]) -> int:
    return sum(
        int(pc.sum(pc.binary_length(pq.read_table(p, columns=["text"]).column("text"))).as_py() or 0)
        for p in paths
    )


def _queries(seed: int, n: int, n_docs: int, stream: int, draw) -> list[str]:
    rng = np.random.default_rng([seed, stream])
    vocab = make_vocab()
    out = []
    for _ in range(n):
        terms = [vocab[r] for r in draw(rng, int(rng.integers(1, 4)))]
        if rng.random() < NEEDLE_SHARE:
            terms.append(f"needle{int(rng.integers(n_docs))}")
        out.append(" ".join(terms))
    return out


def zipf_queries(seed: int, n: int, n_docs: int) -> list[str]:
    """1-3 Zipf(1.07) terms per query, a needle in NEEDLE_SHARE of them."""
    cdf = _zipf_cdf()
    last = len(cdf) - 1
    return _queries(
        seed, n, n_docs, 1,
        lambda rng, k: np.minimum(np.searchsorted(cdf, rng.random(k), side="right"), last),
    )


def selective_queries(seed: int, n: int, n_docs: int) -> list[str]:
    """1-3 terms uniform over ranks [HEAD, TAIL), needles as above."""
    return _queries(seed, n, n_docs, 2, lambda rng, k: rng.integers(HEAD, TAIL, k))


def write_lines(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))
    return path


def _rows(indices, seed: int) -> pa.Table:
    return pa.concat_tables([generate_pages_batch(int(i), 1, seed=seed) for i in indices])


def write_refresh_inputs(work: str, base_path: str, n_new: int, seed: int) -> dict:
    """Delta pages and delete list against a base corpus made by
    ``write_corpus(base_path, n, seed)``:

    * updated: base rows i % UPDATE_EVERY == 0, text from seed+1, warc_ts
      one day newer (same url);
    * new: rows [n, n + n_new) from seed+1 (unseen urls);
    * deleted: urls of base rows i % DELETE_EVERY == DELETE_AT.

    Also writes the equivalent final corpus (base minus updated and deleted
    rows, plus the delta), the input of the fresh build the refresh result
    is checked against."""
    base = pq.read_table(base_path)
    base_docs = base.num_rows
    idx = np.arange(base_docs)
    upd_idx = idx[idx % UPDATE_EVERY == 0]
    del_idx = idx[idx % DELETE_EVERY == DELETE_AT]
    updated = _rows(upd_idx, seed + 1)
    ts = pc.cast(updated.column("warc_ts"), pa.int64())
    updated = updated.set_column(
        1, "warc_ts", pc.cast(pc.add(ts, NEWER_BY_US), pa.timestamp("us"))
    )
    new = generate_pages_batch(base_docs, n_new, seed=seed + 1)
    delta = pa.concat_tables([updated, new])
    delta_path = os.path.join(work, "delta.parquet")
    pq.write_table(delta, delta_path, row_group_size=ROW_GROUP)

    keep = (idx % UPDATE_EVERY != 0) & (idx % DELETE_EVERY != DELETE_AT)
    final = pa.concat_tables([base.filter(pa.array(keep)), delta])
    final_path = os.path.join(work, "final.parquet")
    pq.write_table(final, final_path, row_group_size=ROW_GROUP)
    urls = base.column("url").to_pylist()
    new_urls = new.column("url").to_pylist()
    # needle{i} occurs in row i only, in its old and new versions
    needles = [(f"needle{i}", urls[i]) for i in upd_idx[:5]]
    needles += [(f"needle{i}", None) for i in del_idx[:5]]
    needles += [(f"needle{base_docs + j}", new_urls[j]) for j in range(min(5, n_new))]
    return {
        "delta": delta_path,
        "delete_urls": [urls[i] for i in del_idx],
        "final": final_path,
        "n_delta": delta.num_rows,
        "n_final": final.num_rows,
        "needles": needles,
    }
