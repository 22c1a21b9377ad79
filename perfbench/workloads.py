"""The workloads.  Each sets up (corpus, indexes), runs its
timed operation in a loop for the run's seconds (at least once), and checks
the program's outputs.  Spans go to ``ctx.tracer``, a NullTracer unless the
run is traced."""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import statistics
import time

from perfbench import hostref, inputs

K = 10
# Corpus rows per workload (every row is a non-empty page).
CORPUS_DOCS = 10_000
# Pages of the corpus slice the reference queries are checked on against
# the brute-force scorers (traced runs).
SLICE_DOCS = 300
REFRESH_NEW = 1_000
# set-up builds its index this many times (each into a fresh directory);
# setup_s counts the median build
SETUP_BUILDS = 2
# query_p95_ms is the tail: at most p95 (search-warm's p99 spread 0.30 between runs on
# a shared host); the window runs until it has the samples that leave ten
# beyond p95
TAIL_TOP = 95.0
WARM_MIN_OPS = 200
# the window cycles through this many queries of the stream, all run once
# before timing, so every block they touch is decoded and cached.  Warming
# costs ~9 ms a selective query (its rare terms are all read cold) against
# ~2 ms a Zipf one, so the selective set is smaller, to keep set-up short.
ZIPF_QUERIES = 3000
SELECTIVE_QUERIES = 1000
QUERY_STREAM = 20_000
# the window alternates SLICE_S of queries with REF_REPS reference calls
# (~25 ms, 5% of the window)
SLICE_S = 0.5
REF_REPS = 50
CHECKED_QUERIES = 30


class Ctx:
    """Per-run state: work dir, seed, window length, tracer and the tally
    of checked operations."""

    def __init__(self, work: str, seed: int, seconds: float, traced: bool):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = None
        self.ray = None  # run.RaySession
        self.attempted = 0
        self.failures: list[str] = []
        self.t_start = time.perf_counter()

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Result:
    """What a workload hands back for metrics and probes."""

    def __init__(self):
        self.setup_s = 0.0
        self.samples: list[float] = []  # seconds per timed operation
        self.ref_samples: list[float] = []  # seconds per host reference call
        self.window_s = 0.0
        self.index_dir = ""
        self.corpus = ""
        self.text_bytes = 0
        self.queries: list[str] = []
        self.build = {}  # {"dir", "s", "paths"} of the index the probes read
        self.setup_repeat_s = 0.0  # set-up time beyond one set-up
        # seconds of each set-up step, builds all counted (for the report)
        self.setup_parts: dict[str, float] = {}
        self.refresh = None  # the traced run's refresh_cycle() output
        self.ref = None  # and its inputs.write_refresh_inputs() output
        # checks too slow for every run; traced runs make them
        self.traced_checks: list = []


# ---- shared steps ----


def phase_spans(tracer, call: str, index_dir: str, parent, t0: float, first_layer: str) -> None:
    """Child spans of a build/merge/delete call from the phase durations
    in its progress.json.  Only durations are measured; the spans are laid
    back to back from the call's start."""
    with open(os.path.join(index_dir, "progress.json")) as f:
        prog = json.load(f)
    p1, p2 = float(prog.get("phase1_sec", 0.0)), float(prog.get("phase2_sec", 0.0))
    tracer.add(f"{call}.phase1", first_layer, t0, t0 + p1, parent)
    tracer.add(f"{call}.phase2.encode", "stages.codec", t0 + p1, t0 + p1 + p2, parent)


def traced_build(ctx: Ctx, paths: list[str], index_dir: str) -> float:
    from indexer_ray.pipelines.build import build_index

    tr = ctx.tracer
    with tr.span("build_index", "pipelines.build") as sid:
        t0 = time.perf_counter()
        build_index(paths, index_dir)
        t1 = time.perf_counter()
    if ctx.traced:
        phase_spans(tr, "build_index", index_dir, sid, t0, "stages.tokenize")
    return t1 - t0


def setup_build(ctx: Ctx, r: Result, paths: list[str], index_dir: str) -> None:
    """Builds the workload's index SETUP_BUILDS times (once when traced),
    the last into ``index_dir`` (the one ``r.build`` describes to the
    probes).  All but the median build's time goes to ``r.setup_repeat_s``,
    so setup_s counts one set-up with the median build."""
    # a traced run reports no setup_s and builds once
    n = 1 if ctx.traced else SETUP_BUILDS
    times = []
    for i in range(n):
        d = index_dir if i == n - 1 else f"{index_dir}-{i}"
        times.append(traced_build(ctx, paths, d))
        if d != index_dir:
            shutil.rmtree(d)
    r.build = {"dir": index_dir, "paths": paths, "s": times[-1]}
    r.setup_repeat_s = sum(times) - statistics.median(times)


def refresh_cycle(ctx: Ctx, base_dir: str, delta_pages: str, delete_urls: list[str], out: str) -> dict:
    """build_delta_index -> merge_indexes -> delete_docs, each into a fresh
    directory under ``out``.  Returns the step times and directories."""
    from indexer_ray.pipelines.incremental import build_delta_index
    from indexer_ray.pipelines.merge import delete_docs, merge_indexes

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tr = ctx.tracer
    dirs = {k: os.path.join(out, k) for k in ("delta", "merged", "final")}
    times = {}
    with tr.span("build_delta_index", "pipelines.incremental") as sid:
        t0 = time.perf_counter()
        _, n_expired = build_delta_index([delta_pages], base_dir, dirs["delta"])
        times["delta_build_s"] = time.perf_counter() - t0
    if ctx.traced:
        # phases of the inner build_index; the filter and subset write are
        # the call's self time
        phase_spans(tr, "build_delta_index", dirs["delta"], sid, t0, "stages.tokenize")
    with tr.span("merge_indexes", "pipelines.merge") as sid:
        t0 = time.perf_counter()
        merge_indexes(base_dir, dirs["delta"], dirs["merged"])
        times["merge_s"] = time.perf_counter() - t0
    if ctx.traced:
        phase_spans(tr, "merge_indexes", dirs["merged"], sid, t0, "pipelines.merge")
    with tr.span("delete_docs", "pipelines.merge") as sid:
        t0 = time.perf_counter()
        delete_docs(dirs["merged"], delete_urls, dirs["final"])
        times["delete_s"] = time.perf_counter() - t0
    if ctx.traced:
        phase_spans(tr, "delete_docs", dirs["final"], sid, t0, "pipelines.merge")
    return {"times": times, "dirs": dirs, "n_expired": n_expired}


def run_window(ctx: Ctx, op, min_ops: int = 1) -> tuple[float, list[float], list[float]]:
    """Runs ``op()`` until the window has lasted ctx.seconds and run at
    least ``min_ops`` times, under one root span.  Slices of SLICE_S of
    operations alternate with blocks of REF_REPS host reference calls
    (``perfbench.hostref``).  Returns (window seconds, op seconds,
    reference-call seconds)."""
    samples, ref = [], []
    tr = ctx.tracer
    with tr.span("window", "perfbench"):
        t0 = time.perf_counter()
        while True:
            t_slice = time.perf_counter()
            while True:
                a = time.perf_counter()
                op()
                b = time.perf_counter()
                samples.append(b - a)
                if b - t_slice >= SLICE_S:
                    break
            with tr.span("hostref", "perfbench"):
                ref += hostref.time_reference(REF_REPS)
            if time.perf_counter() - t0 >= ctx.seconds and len(samples) >= min_ops:
                break
    return time.perf_counter() - t0, samples, ref


# ---- checks ----


def same_topk(a: list[tuple], b: list[tuple]) -> bool:
    """Equal top-k as (key, score) lists, allowing the order among equal
    scores and the choice of which tied entries fill the last places to
    differ (doc ids, and so tie order, differ between two indexes)."""
    if len(a) != len(b):
        return False
    if any(not math.isclose(x[1], y[1], rel_tol=1e-12, abs_tol=0.0) for x, y in zip(a, b)):
        return False
    if not a:
        return True
    last = a[-1][1]

    def above(r):
        return sorted((-s, str(key)) for key, s in r if not math.isclose(s, last, rel_tol=1e-12))

    return [k for _, k in above(a)] == [k for _, k in above(b)]


def check_wand_exhaustive(ctx: Ctx, searcher, queries: list[str], label: str) -> None:
    for q in queries:
        ex = searcher.search(q, k=K, scorer="bm25", algorithm="exhaustive")
        wd = searcher.search(q, k=K, scorer="bm25", algorithm="wand")
        ctx.check(wd == ex, f"{label}: wand != exhaustive for {q!r}")


def check_reference_queries(ctx: Ctx) -> None:
    """The reference query set on an index of the corpus's first SLICE_DOCS
    pages against the brute-force spec scorers (dense doc ids are row
    numbers), both scorers, both algorithms."""
    import pyarrow.parquet as pq

    from indexer_ray.conformance.lexer import tokenize
    from indexer_ray.conformance.scorer import brute_force_bm25_topk, brute_force_tfidf_topk
    from indexer_ray.pipelines.query import IndexSearcher
    from indexer_ray.sources.pages import reference_queries

    slice_path = inputs.write_corpus(ctx.path("slice.parquet"), SLICE_DOCS, ctx.seed)
    slice_dir = ctx.path("slice-index")
    traced_build(ctx, [slice_path], slice_dir)
    texts = pq.read_table(slice_path, columns=["text"]).column("text").to_pylist()
    corpus = [(i, tokenize(t)) for i, t in enumerate(texts)]
    s = IndexSearcher(slice_dir)
    for scorer, brute in (("bm25", brute_force_bm25_topk), ("tfidf", brute_force_tfidf_topk)):
        for q in reference_queries():
            want = brute(corpus, tokenize(q["query"]), k=q["k"])
            for algo in ("exhaustive", "wand"):
                got = s.search(q["query"], k=q["k"], scorer=scorer, algorithm=algo)
                ok = [d for d, _ in got] == [d for d, _ in want] and all(
                    math.isclose(g, w, rel_tol=1e-12) for (_, g), (_, w) in zip(got, want)
                )
                ctx.check(ok, f"reference {scorer}/{algo} {q['query']!r}: {got} != {want}")


def check_refresh(ctx: Ctx, r: Result) -> None:
    """The refresh cycle a traced run makes (``r.refresh``, from
    ``r.ref``): the expired-page count, the final document count, the
    needles of updated, deleted and new pages, and the refreshed index
    against a fresh build_index of the equivalent final corpus (same
    document count and length, same top-k urls and scores; tie order may
    differ since doc ids do)."""
    from indexer_ray.pipelines.query import IndexSearcher

    ref, cyc = r.ref, r.refresh
    ctx.check(cyc["n_expired"] == ref["n_delta"], f"refresh: {cyc['n_expired']} pages expired, want {ref['n_delta']}")
    a = IndexSearcher(cyc["dirs"]["final"])
    ctx.check(a.n_docs == ref["n_final"], f"refresh: n_docs {a.n_docs} != {ref['n_final']}")
    for term, url in ref["needles"]:
        got = [u for u, _ in a.search_urls(term, k=K, scorer="bm25", algorithm="auto")]
        ctx.check(got == ([url] if url else []), f"refresh: {term} found {got}, want {url}")
    fresh = ctx.path("fresh")
    traced_build(ctx, [ref["final"]], fresh)
    b = IndexSearcher(fresh)
    ctx.check(
        (a.n_docs, a.m.total_doc_len) == (b.n_docs, b.m.total_doc_len),
        f"refresh: docs/length {a.n_docs}/{a.m.total_doc_len} != fresh {b.n_docs}/{b.m.total_doc_len}",
    )
    for q in r.queries[:CHECKED_QUERIES] + [t for t, _ in ref["needles"]]:
        got = a.search_urls(q, k=K, scorer="bm25", algorithm="auto")
        want = b.search_urls(q, k=K, scorer="bm25", algorithm="auto")
        ctx.check(same_topk(got, want), f"refresh: {q!r} {got} != fresh build {want}")


# ---- workloads ----


def search_warm(ctx: Ctx, make_queries, n_queries: int):
    """One client on one warmed in-process IndexSearcher, BM25 auto top-k
    over the first ``n_queries`` of the stream ``make_queries(seed, n,
    n_docs)`` draws."""
    from indexer_ray.pipelines.query import IndexSearcher

    r = Result()
    marks = [time.perf_counter()]
    with ctx.tracer.span("setup", "perfbench"):
        with ctx.tracer.span("generate_pages", "sources.pages"):
            r.corpus = inputs.write_corpus(ctx.path("pages.parquet"), CORPUS_DOCS, ctx.seed)
            r.queries = make_queries(ctx.seed, QUERY_STREAM, CORPUS_DOCS)
        marks.append(time.perf_counter())
        r.index_dir = ctx.path("index")
        setup_build(ctx, r, [r.corpus], r.index_dir)
        r.text_bytes = inputs.text_bytes([r.corpus])
        marks.append(time.perf_counter())
        # in-process search needs no Ray session
        with ctx.tracer.span("ray.shutdown", "ray"):
            left = ctx.ray.stop()
        if left:
            raise RuntimeError(f"Ray processes outlived shutdown: {sorted(left)}")
        marks.append(time.perf_counter())
        with ctx.tracer.span("warm", "pipelines.query"):
            s = IndexSearcher(r.index_dir)
            for q in r.queries[:n_queries]:
                s.search(q, k=K, scorer="bm25", algorithm="auto")
        marks.append(time.perf_counter())
    steps = ("start", "generate", "builds", "ray_shutdown", "warm")
    r.setup_parts = {f"{k}_s": b - a for k, a, b in zip(steps, [ctx.t_start] + marks, marks)}
    r.setup_s = time.perf_counter() - ctx.t_start - r.setup_repeat_s
    tr, qs = ctx.tracer, r.queries[:n_queries]
    i = [0]

    def op():
        q = qs[i[0] % len(qs)]
        i[0] += 1
        with tr.span("search", "pipelines.query"):
            s.search(q, k=K, scorer="bm25", algorithm="auto")

    r.window_s, r.samples, r.ref_samples = run_window(ctx, op, WARM_MIN_OPS)
    r.traced_checks += [lambda: check_reference_queries(ctx), lambda: check_refresh(ctx, r)]

    def check():
        check_wand_exhaustive(ctx, s, qs[:CHECKED_QUERIES], "search")

    return r, check


WORKLOADS = {
    "search-warm": functools.partial(search_warm, make_queries=inputs.zipf_queries, n_queries=ZIPF_QUERIES),
    "search-selective": functools.partial(
        search_warm, make_queries=inputs.selective_queries, n_queries=SELECTIVE_QUERIES
    ),
}
