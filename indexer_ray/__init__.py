"""indexer_ray — a Ray-Data-native inverted-index + BM25/TF-IDF query engine.

A from-scratch rebuild of the capabilities of the reference engine
(juanmilkah/indexer, a single-node Rust search engine; see SURVEY.md) as a
distributed, streaming, resumable Ray Data pipeline over Parquet tables of
Common-Crawl-style web pages.

Layout:
  conformance/ — the executable spec (no Ray): tokenizer chain, stemmer,
                 stop words, text extraction, brute-force scorers.  Everything
                 distributed is judged against this package.
  sources/     — synthetic `pages` generator + file-corpus ingestion
                 (the reference CLI's directory-of-files input mode).
  stages/      — map_batches stage bodies (tokenize actor, codecs) and
                 shuffle.py, the routed shuffle every key-partitioned
                 reduce runs through (route_parts / routed_reduce) and
                 the broadcast-or-join key-set join (regime_join,
                 join_parts).
  pipelines/   — build (index construction), query (search engines), dedup
                 (exact/MinHash/SimHash/embedding/winnowing), ann (streaming
                 + persisted index), text_analysis, events (windows,
                 sessionize), joins (as-of, interval), relational,
                 incremental, serve, multimodal.
  state/       — index manifest, checkpoint/resume bookkeeping, metrics.
  functions/   — vectorized scalar helpers shared across stages.
"""

__version__ = "0.1.0"

# Driver-side fix for Ray's schema-less empty sort ranges (see module
# docstring); no-op if Ray internals have moved.
from indexer_ray import _raypatch as _raypatch

_raypatch.apply()
