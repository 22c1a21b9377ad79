"""Per-layer metrics of a traced run: timed calls into each layer's public
functions, made from outside the program on the workload's own corpus,
index and query stream after its timed window.  Every traced run measures
every layer, so each workload reports the same metric names."""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
import pyarrow.parquet as pq

from perfbench import inputs
from perfbench.stats import dir_bytes
from perfbench.workloads import K, REFRESH_NEW, Ctx, Result, refresh_cycle

PROBE_QUERIES = 40
OPEN_REPEATS = 10


def _ms(v: float) -> float:
    return v * 1e3


def _median_or_zero(xs: list[float]) -> float:
    # a path auto never took on the probe queries reads 0; its base is
    # query.wand_share x query.probe_queries
    return statistics.median(xs) if xs else 0.0


def build_layers(b: dict) -> dict:
    """build.* from one build_index call: its wall time, a timed
    sample_hot_terms call on the same input, and the phase durations and
    per-partition encode times the build wrote."""
    from indexer_ray.pipelines.build import BuildConfig, sample_hot_terms
    from indexer_ray.state.manifest import IndexManifest

    d = b["dir"]
    n_docs = sum(pq.ParquetFile(p).metadata.num_rows for p in b["paths"])
    t0 = time.perf_counter()
    sample_hot_terms(b["paths"], BuildConfig(), n_docs)
    sample_s = time.perf_counter() - t0
    with open(os.path.join(d, "progress.json")) as f:
        prog = json.load(f)
    m = IndexManifest.load(d)
    parts = list(m.partitions.values())
    enc = [float(p["elapsed_sec"]) for p in parts]
    posts = [int(p["n_postings"]) for p in parts]
    p1, p2 = float(prog["phase1_sec"]), float(prog["phase2_sec"])
    return {
        "build.s": (b["s"], "s"),
        "build.sample_s": (sample_s, "s"),
        "build.phase1_s": (p1, "s"),
        "build.phase2_s": (p2, "s"),
        "build.commit_s": (b["s"] - sample_s - p1 - p2, "s"),
        "build.encode_part_p50_s": (statistics.median(enc), "s"),
        "build.encode_part_max_s": (max(enc), "s"),
        "build.postings": (sum(posts), "count"),
        "build.partitions": (m.n_partitions, "count"),
        "build.hot_terms": (len(m.hot_terms), "count"),
        "build.part_postings_max_over_median": (max(posts) / statistics.median(posts), "ratio"),
    }


def tokenize_layers(ctx: Ctx, corpus: str, hot_terms: dict, n_partitions: int) -> dict:
    """The build's phase-1 stage (TokenizeFileTask, dense row-number doc
    ids) called in-process on the corpus's first row group, in cpu seconds
    of this thread."""
    from indexer_ray.pipelines.build import BuildConfig
    from indexer_ray.stages.tokenize import TokenizeFileTask

    cfg = BuildConfig(n_partitions=n_partitions).tokenizer_config(hot_terms, ctx.path("probe-docmap"))
    cfg["id_space"] = pq.ParquetFile(corpus).metadata.num_rows
    task = TokenizeFileTask(cfg)
    rows = pq.ParquetFile(corpus).metadata.row_group(0).num_rows
    c0 = time.thread_time()
    task({"path": [corpus], "row_group": [0], "row_offset": [0]})
    cpu = time.thread_time() - c0
    return {"tokenize.docs_per_cpu_s": (rows / cpu, "1/s")}


def codec_layers(index_dir: str) -> dict:
    """decode_blocks / encode_term_postings over the largest partition's
    blocks (best of three, postings per second)."""
    from indexer_ray.stages.codec import decode_blocks, encode_term_postings
    from indexer_ray.state.manifest import IndexManifest, part_dir

    m = IndexManifest.load(index_dir)
    big = max(m.partitions.items(), key=lambda kv: int(kv[1]["n_postings"]))[0]
    t = pq.read_table(os.path.join(part_dir(index_dir, int(big)), "blocks.parquet"))
    ns = t.column("n").to_numpy().astype(np.int64)
    first = t.column("first_doc_id").to_numpy()
    payloads = t.column("payload").combine_chunks()
    terms = t.column("term").to_numpy(zero_copy_only=False)
    term_codes = np.repeat(np.cumsum(np.r_[True, terms[1:] != terms[:-1]]) - 1, ns)
    dec, enc = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        doc_ids, tfs, dls, _ = decode_blocks(payloads, ns, first)
        dec.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        encode_term_postings(term_codes, doc_ids, tfs, dls)
        enc.append(time.perf_counter() - t0)
    n = int(ns.sum())
    payload = sum(int(p["payload_bytes"]) for p in m.partitions.values())
    postings = sum(int(p["n_postings"]) for p in m.partitions.values())
    return {
        "codec.decode_postings_per_s": (n / min(dec), "1/s"),
        "codec.encode_postings_per_s": (n / min(enc), "1/s"),
        "codec.postings_probed": (n, "count"),
        "codec.payload_bytes_per_posting": (payload / postings, "B"),
    }


def query_layers(ctx: Ctx, index_dir: str, queries: list[str]) -> dict:
    """Timed IndexSearcher calls over the first PROBE_QUERIES queries of the
    workload's stream.  open/df/postings are cold (fresh searcher per call);
    search and resolve are warm.  The search time is split by the path
    ``auto`` took; both algorithms are also run on every query and their
    results checked equal."""
    from indexer_ray.conformance.lexer import tokenize
    from indexer_ray.pipelines.query import IndexSearcher

    qs = queries[:PROBE_QUERIES]
    tok_us, opens, dfs, posts = [], [], [], []
    for q in qs:
        t0 = time.perf_counter()
        tokenize(q)
        tok_us.append((time.perf_counter() - t0) * 1e6)
    for _ in range(OPEN_REPEATS):
        t0 = time.perf_counter()
        IndexSearcher(index_dir)
        opens.append(time.perf_counter() - t0)
    terms = list(dict.fromkeys(t for q in qs for t in tokenize(q)))
    for term in terms:
        s = IndexSearcher(index_dir)
        t0 = time.perf_counter()
        s.term_df(term)
        dfs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        s.term_postings(term)
        posts.append(time.perf_counter() - t0)

    s = IndexSearcher(index_dir)
    touched = []
    for q in qs:  # warm-up
        s.search(q, k=K, scorer="bm25", algorithm="auto")
        touched.append(sum(s.term_df(t) for t in set(tokenize(q))))
    # warm auto search, bucketed by the path auto took
    by_path: dict[bool, list[float]] = {True: [], False: []}
    wst = {"windows": 0, "windows_skipped": 0, "blocks_decoded": 0, "blocks_total": 0}
    res_ms = []
    for q in qs:
        s.last_wand_stats = None
        t0 = time.perf_counter()
        hits = s.search(q, k=K, scorer="bm25", algorithm="auto")
        dt = _ms(time.perf_counter() - t0)
        wand = s.last_wand_stats is not None
        by_path[wand].append(dt)
        for key in wst:
            wst[key] += int((s.last_wand_stats or {}).get(key, 0))
        ids = [doc for doc, _ in hits]
        t0 = time.perf_counter()
        s.resolve_urls(ids)
        res_ms.append(_ms(time.perf_counter() - t0))
        wd = s.search(q, k=K, scorer="bm25", algorithm="wand")
        ex = s.search(q, k=K, scorer="bm25", algorithm="exhaustive")
        ctx.check(wd == ex, f"probe: wand != exhaustive for {q!r}")
    n_wand = len(by_path[True])
    return {
        "query.tokenize_us": (statistics.median(tok_us), "us"),
        "query.open_ms": (_ms(statistics.median(opens)), "ms"),
        "query.df_ms": (_ms(statistics.median(dfs)), "ms"),
        "query.postings_ms": (_ms(statistics.median(posts)), "ms"),
        "query.search_wand_ms": (_median_or_zero(by_path[True]), "ms"),
        "query.search_exhaustive_ms": (_median_or_zero(by_path[False]), "ms"),
        "query.resolve_ms": (statistics.median(res_ms), "ms"),
        "query.probe_queries": (len(qs), "count"),
        "query.wand_share": (n_wand / len(qs), "ratio"),
        "query.postings_touched": (statistics.median(touched), "count"),
        "wand.blocks_total": (wst["blocks_total"], "count"),
        "wand.blocks_skipped_ratio": (1.0 - wst["blocks_decoded"] / max(wst["blocks_total"], 1), "ratio"),
        "wand.windows": (wst["windows"], "count"),
        "wand.windows_skipped_ratio": (wst["windows_skipped"] / max(wst["windows"], 1), "ratio"),
    }


def serve_layers(index_dir: str, queries: list[str]) -> dict:
    """Median served latency through a one-replica QueryService minus the
    median in-process latency (warm, BM25 auto) over the same queries."""
    from indexer_ray.pipelines.query import IndexSearcher
    from indexer_ray.pipelines.serve import QueryService

    qs = queries[:PROBE_QUERIES]
    svc = QueryService(index_dir, replicas=1)
    try:
        s = IndexSearcher(index_dir)
        for q in qs:  # warm both sides
            svc.search(q, k=K)
            s.search(q, k=K, scorer="bm25", algorithm="auto")
        served, local = [], []
        for q in qs:
            t0 = time.perf_counter()
            svc.search(q, k=K, scorer="bm25", algorithm="auto")
            served.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            s.search(q, k=K, scorer="bm25", algorithm="auto")
            local.append(time.perf_counter() - t0)
    finally:
        svc.shutdown()
    return {"serve.overhead_ms": (_ms(statistics.median(served) - statistics.median(local)), "ms")}


def refresh_layers(ctx: Ctx, r: Result) -> dict:
    """One refresh cycle against the workload's index, its steps and their
    phases, and a timed filter_expired call on the same delta."""
    import ray.data as rd

    from indexer_ray.pipelines.incremental import filter_expired

    base = r.build["dir"]
    r.ref = inputs.write_refresh_inputs(ctx.path(), r.corpus, REFRESH_NEW, ctx.seed)
    r.refresh = cyc = refresh_cycle(ctx, base, r.ref["delta"], r.ref["delete_urls"], ctx.path("refresh"))
    t0 = time.perf_counter()
    kept = filter_expired(rd.read_parquet([r.ref["delta"]]), base, method="broadcast").count()
    filt = time.perf_counter() - t0
    out = {
        "refresh.filter_expired_s": (filt, "s"),
        "refresh.filter_kept_rows": (kept, "count"),
    }
    for key in ("delta_build_s", "merge_s", "delete_s"):
        out[f"refresh.{key}"] = (cyc["times"][key], "s")
    for step, d, key in (("merge", "merged", "merge_s"), ("delete", "final", "delete_s")):
        with open(os.path.join(cyc["dirs"][d], "progress.json")) as f:
            prog = json.load(f)
        p1, p2 = float(prog["phase1_sec"]), float(prog["phase2_sec"])
        out[f"{step}.phase1_s"] = (p1, "s")
        out[f"{step}.phase2_s"] = (p2, "s")
        out[f"{step}.gap_s"] = (cyc["times"][key] - p1 - p2, "s")
    out["merge.bytes_written_per_delta_byte"] = (
        dir_bytes(cyc["dirs"]["merged"]) / dir_bytes(cyc["dirs"]["delta"]),
        "ratio",
    )
    return out


def all_layers(ctx: Ctx, r: Result) -> dict:
    """Every per-layer metric."""
    from indexer_ray.state.manifest import IndexManifest

    ctx.ray.start()
    m = IndexManifest.load(r.build["dir"])
    out = build_layers(r.build)
    out.update(tokenize_layers(ctx, r.corpus, m.hot_terms, m.n_partitions))
    out.update(codec_layers(r.build["dir"]))
    out.update(query_layers(ctx, r.index_dir, r.queries))
    out.update(serve_layers(r.index_dir, r.queries))
    out.update(refresh_layers(ctx, r))
    return out
