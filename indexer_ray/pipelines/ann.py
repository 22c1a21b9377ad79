"""Approximate-nearest-neighbor search over an embedding column
(list<float>), per the training-data operator set.

  * ann_brute_topk — exact cosine top-k baseline: the query matrix is
    broadcast once (ray.put) and every batch does one numpy matmul; each
    batch emits only its LOCAL top-k per query (partial top-k combiner),
    and the final merge is a DISTRIBUTED per-query_id `top_k_rows` —
    the driver sees only the nq*k result rows, never the partial set.
  * ann_lsh_topk   — scale path A: random-hyperplane bucketing restricts
    scoring to vectors sharing (or neighboring, via multi-probe on 1-bit
    flips) the query's bucket.  Recall measured against brute in tests.
  * ann_ivf_topk   — scale path B: IVF — k-means centroids fit on a driver
    sample, broadcast once; vectors score only against queries probing
    their centroid's cell (nprobe nearest cells per query).
  * ann_index_build / ann_index_query — the PERSISTED scale path: bucket
    (LSH) or cell (IVF) assignments are written once as parquet
    partitioned by bucket; queries then read ONLY the probed partitions,
    so per-query scan cost is sublinear in corpus size (the streaming
    variants above re-stream the full corpus per call — fine for batch
    scoring, wrong for a standing index).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from indexer_ray.stages.shuffle import top_k_rows


def _normalize(X: np.ndarray) -> np.ndarray:
    return X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)


def _embedding_matrix(col) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> / fixed_size_list<float>
    Arrow column with no per-row Python objects: one flat values-buffer
    view + reshape (the round-1 `np.stack(col.to_pylist())` built n Python
    lists per batch in the hottest numeric stages)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.ExtensionArray):
        # Ray's ArrowTensorArray (what from_pandas builds for ndarray
        # cells): its to_numpy already yields the (n, dim) matrix
        X = np.asarray(col.to_numpy(zero_copy_only=False))
        if X.dtype == object:  # variable-shaped tensor array
            X = np.stack(X)
        return X.reshape(len(col), -1).astype(np.float64, copy=False)
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
        # flatten(), not .values: a SLICED array's .values spans the whole
        # parent buffer and the reshape would see the wrong row count
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return flat.reshape(len(col), dim).astype(np.float64, copy=False)
    widths = np.diff(col.offsets.to_numpy(zero_copy_only=False))
    if len(widths) and not (widths == widths[0]).all():
        raise ValueError("ragged embedding column: rows have unequal dims")
    dim = int(widths[0]) if len(widths) else 0
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(col), dim).astype(np.float64, copy=False)


def _lsh_planes(dim: int, n_planes: int, seed: int) -> np.ndarray:
    """Deterministic hyperplanes — regenerable from (dim, n_planes, seed),
    so the persisted index stores only the three scalars."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_planes, dim))


def _bucket_sig(X: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (X @ planes.T) > 0
    key = np.zeros(len(X), dtype=np.uint64)
    for j in range(planes.shape[0]):
        key |= bits[:, j].astype(np.uint64) << np.uint64(j)
    return key


def _probe_set(s: int, n_planes: int, multiprobe: int) -> set[int]:
    """Own bucket + all signatures within `multiprobe` bit flips."""
    out = {s}
    frontier = {s}
    for _ in range(multiprobe):
        nxt = set()
        for v in frontier:
            for j in range(n_planes):
                nxt.add(v ^ (1 << j))
        out |= nxt
        frontier = nxt
    return out


class _BruteScoreStage:
    """Per-batch cosine vs the broadcast query matrix; emits local top-k."""

    def __init__(self, queries_ref, k: int):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.Q = _normalize(np.asarray(q, dtype=np.float64))  # (nq, dim)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        X = _normalize(_embedding_matrix(batch.column("embedding")))
        sims = X @ self.Q.T  # (n, nq)
        k = min(self.k, len(ids))
        out_q, out_id, out_s = [], [], []
        for qi in range(self.Q.shape[0]):
            col = sims[:, qi]
            top = np.argpartition(-col, k - 1)[:k] if k < len(ids) else np.arange(len(ids))
            out_q.extend([qi] * len(top))
            out_id.extend(ids[top].tolist())
            out_s.extend(col[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )


_EMPTY_TOPK = {
    "query_id": "int64",
    "vec_id": "int64",
    "cosine": "float64",
    "rank": "int64",
}


def _final_topk_ds(partials_ds, k: int) -> pd.DataFrame:
    """DISTRIBUTED final merge of per-batch local top-k partials:
    `top_k_rows` grouped by query_id reduces to the global top-k inside
    map_groups, so the driver only ever sees the nq*k final rows.  The
    partial set is nq*k*n_blocks rows — collecting it driver-side would
    grow linearly with corpus block count and break at 10^6+ blocks.

    Tie semantics: (cosine desc, vec_id asc), rank dense from 0 per
    query."""
    out = top_k_rows(
        partials_ds, k, ["cosine", "vec_id"], [False, True], list(_EMPTY_TOPK),
        group="query_id",
    ).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {c: pd.Series([], dtype=t) for c, t in _EMPTY_TOPK.items()}
        )
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def ann_brute_topk(emb_ds, queries: np.ndarray, k: int = 10) -> pd.DataFrame:
    """Exact cosine top-k: (query_id, vec_id, cosine, rank); ties broken by
    vec_id asc.  `queries` is (nq, dim)."""
    import ray

    qref = ray.put(np.asarray(queries, dtype=np.float64))
    partials = emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        _BruteScoreStage,
        fn_constructor_args=(qref, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    )
    return _final_topk_ds(partials, k)


def mmr_topk(
    emb_ds, query: np.ndarray, k: int = 10, pool: int = 100, lam: float = 0.7
) -> pd.DataFrame:
    """Maximal-Marginal-Relevance diversified top-k (Carbonell & Goldstein
    1998): greedily select argmax ``lam*rel(d) − (1−lam)*max_{s∈S} sim(d,s)``
    — the result-diversification step a retrieval pipeline runs so the top
    page isn't k near-duplicates of one answer.

    Scale shape: stage 1 is the exact distributed cosine top-`pool`
    candidate cut (brute partial-top-k + grouped merge — only `pool` rows
    reach the driver); stage 2 fetches just the pool's embeddings via a
    broadcast membership filter and runs the greedy selection over the
    pool×pool cosine matrix on the driver — pool is a CONSTANT (default
    100), so the driver work is O(pool²) regardless of corpus size.

    Ties: step 0 picks (rel desc, vec_id asc); later steps (mmr desc,
    vec_id asc) — the order the SQL oracle replays.  Output:
    (rank, vec_id, cosine) in selection order."""
    import pyarrow.compute as pc

    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    cand = ann_brute_topk(emb_ds, q, k=pool)
    ids = cand["vec_id"].to_numpy()
    relmap = dict(zip(ids.tolist(), cand["cosine"].to_numpy().tolist()))
    idset = pa.array(sorted(relmap), type=pa.int64())

    def _pick(batch: pa.Table) -> pa.Table:
        m = pc.is_in(
            pc.cast(batch.column("vec_id"), pa.int64()), value_set=idset
        )
        return batch.filter(m)

    sub = (
        emb_ds.select_columns(["vec_id", "embedding"])
        .map_batches(_pick, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    vid = sub["vec_id"].to_numpy().astype(np.int64)
    X = _normalize(np.stack(sub["embedding"].to_numpy()).astype(np.float64))
    rels = np.array([relmap[v] for v in vid], dtype=np.float64)
    S = X @ X.T
    n = len(vid)
    chosen: list[int] = []
    chosen_mask = np.zeros(n, dtype=bool)
    maxsim = np.full(n, -np.inf)
    for step in range(min(k, n)):
        scores = rels if step == 0 else lam * rels - (1.0 - lam) * maxsim
        scores = np.where(chosen_mask, -np.inf, scores)
        best = int(np.lexsort((vid, -scores))[0])
        chosen.append(best)
        chosen_mask[best] = True
        maxsim = np.maximum(maxsim, S[:, best])
    sel = np.array(chosen, dtype=np.int64)
    return pd.DataFrame(
        {
            "rank": np.arange(len(sel), dtype=np.int64),
            "vec_id": vid[sel],
            "cosine": rels[sel],
        }
    )


def ann_lsh_topk(
    emb_ds,
    queries: np.ndarray,
    k: int = 10,
    n_planes: int = 8,
    seed: int = 11,
    multiprobe: int = 1,
) -> pd.DataFrame:
    """LSH-bucketed ANN: score only vectors whose hyperplane signature is
    within `multiprobe` bit flips of the query's.  Same output shape as
    brute; approximate (recall < 1)."""
    import ray

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    planes = _lsh_planes(Q.shape[1], n_planes, seed)

    def sig(X: np.ndarray) -> np.ndarray:
        return _bucket_sig(X, planes)

    q_sigs = sig(Q)
    wanted: dict[int, list[int]] = {}
    for qi, s in enumerate(q_sigs):
        for b in _probe_set(int(s), n_planes, multiprobe):
            wanted.setdefault(b, []).append(qi)
    wanted_ref = ray.put(wanted)
    qref = ray.put(Q)

    class Stage:
        def __init__(self):
            self.wanted = ray.get(wanted_ref)
            self.Q = ray.get(qref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
            X = _normalize(_embedding_matrix(batch.column("embedding")))
            keys = sig(X)
            out_q, out_id, out_s = [], [], []
            # group rows of this batch by bucket, score only probed queries
            for b in np.unique(keys):
                qis = self.wanted.get(int(b))
                if not qis:
                    continue
                rows = np.flatnonzero(keys == b)
                sims = X[rows] @ self.Q[qis].T
                for ci, qi in enumerate(qis):
                    col = sims[:, ci]
                    kk = min(self.k, len(rows))
                    top = np.argpartition(-col, kk - 1)[:kk] if kk < len(rows) else np.arange(len(rows))
                    out_q.extend([qi] * len(top))
                    out_id.extend(ids[rows[top]].tolist())
                    out_s.extend(col[top].tolist())
            return pa.table(
                {
                    "query_id": pa.array(out_q, type=pa.int64()),
                    "vec_id": pa.array(out_id, type=pa.int64()),
                    "cosine": pa.array(out_s, type=pa.float64()),
                }
            )

    partials = emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        Stage, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=4096, concurrency=(1, 8),
    )
    return _final_topk_ds(partials, k)


def _kmeans(X: np.ndarray, n_centroids: int, iters: int, seed: int) -> np.ndarray:
    """Deterministic Lloyd's k-means on unit vectors (cosine == dot).

    Init is farthest-point seeding (the deterministic cousin of
    k-means++, Arthur & Vassilvitskii 2007): after a seeded first pick,
    each next centroid is the point farthest from all chosen ones —
    well-separated blobs each get their own seed instead of random init
    splitting one blob and merging two others."""
    rng = np.random.default_rng(seed)
    # zero-norm rows (empty docs) normalize to zero vectors whose
    # self-cosine is 0 — unmasked they'd be re-chosen forever (seeding
    # collapse); drop them from the candidate pool
    live = np.flatnonzero(np.linalg.norm(X, axis=1) > 1e-9)
    if not len(live):
        return X[:1].copy()
    Xl = X[live]
    k = min(n_centroids, len(Xl))
    first = int(rng.integers(0, len(Xl)))
    chosen = [first]
    min_sim = Xl @ Xl[first]
    for _ in range(k - 1):
        min_sim[chosen] = np.inf  # never re-pick a chosen seed
        nxt = int(np.argmin(min_sim))  # farthest = lowest max-cosine
        chosen.append(nxt)
        min_sim = np.maximum(min_sim, Xl @ Xl[nxt])
    C = Xl[chosen].copy()
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(len(C)):
            members = X[assign == c]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 1e-12:
                    C[c] = m / n
    return C


def _fit_centroids(
    emb_ds, n_centroids: int, iters: int, seed: int, sample_size: int
) -> np.ndarray:
    """Centroids from a bounded driver-side sample — THE one preamble for
    every centroid consumer (streaming IVF, persisted IVF index, topic
    clustering), so sampling/seeding fixes land everywhere at once.

    The sample is sorted by vec_id before fitting: `take()` returns rows
    in whatever block order the streaming executor produced, which varies
    across processes and would permute centroid LABELS run-to-run
    (observed: identical clusters, different ids)."""
    sample_rows = emb_ds.select_columns(["vec_id", "embedding"]).take(sample_size)
    sample_rows.sort(key=lambda r: r["vec_id"])
    Xs = _normalize(np.stack([r["embedding"] for r in sample_rows]).astype(np.float64))
    return _kmeans(Xs, n_centroids, iters, seed)


def ann_ivf_topk(
    emb_ds,
    queries: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    seed: int = 13,
    sample_size: int = 2000,
    iters: int = 10,
) -> pd.DataFrame:
    """IVF ANN: centroids from a bounded driver-side sample (k-means is tiny;
    the corpus itself streams), broadcast via ray.put; each batch assigns its
    vectors to cells and scores them only against the queries probing that
    cell.  Approximate (recall < 1, grows with nprobe)."""
    import ray

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    C = _fit_centroids(emb_ds, n_centroids, iters, seed, sample_size)
    # nprobe nearest cells per query -> cell -> probing queries
    order = np.argsort(-(Q @ C.T), axis=1)[:, :nprobe]
    wanted: dict[int, list[int]] = {}
    for qi in range(len(Q)):
        for c in order[qi]:
            wanted.setdefault(int(c), []).append(qi)
    cref, qref, wref = ray.put(C), ray.put(Q), ray.put(wanted)

    class Stage:
        def __init__(self):
            self.C, self.Q, self.wanted = ray.get(cref), ray.get(qref), ray.get(wref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
            X = _normalize(_embedding_matrix(batch.column("embedding")))
            cell = np.argmax(X @ self.C.T, axis=1)
            out_q, out_id, out_s = [], [], []
            for c in np.unique(cell):
                qis = self.wanted.get(int(c))
                if not qis:
                    continue
                rows = np.flatnonzero(cell == c)
                sims = X[rows] @ self.Q[qis].T
                kk = min(self.k, len(rows))
                for ci, qi in enumerate(qis):
                    col = sims[:, ci]
                    top = np.argpartition(-col, kk - 1)[:kk] if kk < len(rows) else np.arange(len(rows))
                    out_q.extend([qi] * len(top))
                    out_id.extend(ids[rows[top]].tolist())
                    out_s.extend(col[top].tolist())
            return pa.table(
                {
                    "query_id": pa.array(out_q, type=pa.int64()),
                    "vec_id": pa.array(out_id, type=pa.int64()),
                    "cosine": pa.array(out_s, type=pa.float64()),
                }
            )

    partials = emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        Stage, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=4096, concurrency=(1, 8),
    )
    return _final_topk_ds(partials, k)


# ------------------------------------------------- persisted ANN index

def ann_index_build(
    emb_ds,
    index_dir: str,
    method: str = "lsh",
    n_planes: int = 8,
    n_centroids: int = 16,
    seed: int = 11,
    sample_size: int = 2000,
    iters: int = 10,
) -> dict:
    """Build a persisted bucketed ANN index under `index_dir`.

    Vectors are written as parquet PARTITIONED BY their LSH bucket (or IVF
    cell): `<index_dir>/vectors/bucket=<b>/...`.  meta.json stores the
    bucketing parameters (LSH planes are regenerated from (dim, n_planes,
    seed); IVF centroids are stored explicitly — they depend on the fitted
    sample).  `ann_index_query` then reads only probed partitions, making
    per-query scan cost sublinear in corpus size.

    Commit protocol is meta.json-LAST over a wiped vectors dir: a crashed
    build leaves no meta.json, and the rebuild clears any orphaned vector
    files first — a rebuild can never append a second copy of the corpus
    into the bucket partitions.
    """
    import shutil

    os.makedirs(index_dir, exist_ok=True)
    shutil.rmtree(os.path.join(index_dir, "vectors"), ignore_errors=True)
    meta_path = os.path.join(index_dir, "meta.json")
    if os.path.exists(meta_path):
        os.remove(meta_path)
    first = emb_ds.take(1)[0]
    dim = len(first["embedding"])
    if method == "lsh":
        meta = {"method": "lsh", "dim": dim, "n_planes": n_planes, "seed": seed}

        class Assign:
            def __init__(self):
                self.planes = _lsh_planes(dim, n_planes, seed)

            def __call__(self, batch: pa.Table) -> pa.Table:
                Xn = _normalize(_embedding_matrix(batch.column("embedding")))
                b = _bucket_sig(Xn, self.planes).astype(np.int64)
                return pa.table(
                    {
                        "vec_id": batch.column("vec_id"),
                        "embedding": batch.column("embedding"),
                        "bucket": pa.array(b, type=pa.int64()),
                    }
                )

    elif method == "ivf":
        C = _fit_centroids(emb_ds, n_centroids, iters, seed, sample_size)
        meta = {"method": "ivf", "dim": dim, "centroids": C.tolist(), "seed": seed}
        import ray

        cref = ray.put(C)

        class Assign:
            def __init__(self):
                import ray as _ray

                self.C = _ray.get(cref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                Xn = _normalize(_embedding_matrix(batch.column("embedding")))
                cell = np.argmax(Xn @ self.C.T, axis=1).astype(np.int64)
                return pa.table(
                    {
                        "vec_id": batch.column("vec_id"),
                        "embedding": batch.column("embedding"),
                        "bucket": pa.array(cell, type=pa.int64()),
                    }
                )

    else:
        raise ValueError(f"unknown ANN index method: {method}")

    emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        Assign,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    ).write_parquet(os.path.join(index_dir, "vectors"), partition_cols=["bucket"])
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def ann_index_query(
    index_dir: str,
    queries: np.ndarray,
    k: int = 10,
    multiprobe: int = 1,
    nprobe: int = 4,
    return_stats: bool = False,
):
    """Top-k over a persisted ANN index, reading ONLY probed bucket
    partitions.  Output shape matches the streaming variants; with equal
    parameters the results are identical to ann_lsh_topk / ann_ivf_topk
    (same planes/centroids, same probe sets — tested).  `return_stats`
    additionally returns {partitions_read, partitions_total, files_read,
    files_total} so callers (and tests) can assert sublinear scan."""
    import ray
    import ray.data as rd

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    if meta["method"] == "lsh":
        planes = _lsh_planes(meta["dim"], meta["n_planes"], meta["seed"])
        q_sigs = _bucket_sig(Q, planes)
        wanted: dict[int, list[int]] = {}
        for qi, s in enumerate(q_sigs):
            for b in _probe_set(int(s), meta["n_planes"], multiprobe):
                wanted.setdefault(b, []).append(qi)
    else:
        C = np.asarray(meta["centroids"], dtype=np.float64)
        order = np.argsort(-(Q @ C.T), axis=1)[:, :nprobe]
        wanted = {}
        for qi in range(len(Q)):
            for c in order[qi]:
                wanted.setdefault(int(c), []).append(qi)

    # committed generation roots: "vectors" (the base build) plus any
    # ann_index_append generations listed in meta — an unlisted gen dir
    # (crashed append) is invisible, keeping the meta-last commit protocol
    gen_roots = [os.path.join(index_dir, g) for g in meta.get("generations", ["vectors"])]
    part_dirs: dict[int, list[str]] = {}
    for root in gen_roots:
        for d in glob.glob(os.path.join(root, "bucket=*")):
            part_dirs.setdefault(int(os.path.basename(d).split("=")[1]), []).append(d)
    probed = sorted(b for b in wanted if b in part_dirs)
    stats = {
        "partitions_read": len(probed),
        "partitions_total": len(part_dirs),
        "files_read": sum(
            len(glob.glob(os.path.join(d, "*.parquet")))
            for b in probed
            for d in part_dirs[b]
        ),
        "files_total": sum(
            len(glob.glob(os.path.join(root, "*", "*.parquet"))) for root in gen_roots
        ),
    }
    empty = pd.DataFrame(
        {
            "query_id": pd.Series([], dtype="int64"),
            "vec_id": pd.Series([], dtype="int64"),
            "cosine": pd.Series([], dtype="float64"),
            "rank": pd.Series([], dtype="int64"),
        }
    )
    if not probed:
        return (empty, stats) if return_stats else empty

    wref, qref = ray.put(wanted), ray.put(Q)
    if meta["method"] == "lsh":
        n_planes, dim, seed = meta["n_planes"], meta["dim"], meta["seed"]

        class Score:
            def __init__(self):
                self.planes = _lsh_planes(dim, n_planes, seed)
                self.wanted = ray.get(wref)
                self.Q = ray.get(qref)

            def _keys(self, Xn):
                return _bucket_sig(Xn, self.planes)

    else:
        cref2 = ray.put(np.asarray(meta["centroids"], dtype=np.float64))

        class Score:
            def __init__(self):
                self.C = ray.get(cref2)
                self.wanted = ray.get(wref)
                self.Q = ray.get(qref)

            def _keys(self, Xn):
                return np.argmax(Xn @ self.C.T, axis=1)

    def _call(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        Xn = _normalize(_embedding_matrix(batch.column("embedding")))
        keys = self._keys(Xn)
        out_q, out_id, out_s = [], [], []
        for b in np.unique(keys):
            qis = self.wanted.get(int(b))
            if not qis:
                continue
            rows = np.flatnonzero(keys == b)
            sims = Xn[rows] @ self.Q[qis].T
            kk = min(k, len(rows))
            for ci, qi in enumerate(qis):
                col = sims[:, ci]
                top = (
                    np.argpartition(-col, kk - 1)[:kk]
                    if kk < len(rows)
                    else np.arange(len(rows))
                )
                out_q.extend([qi] * len(top))
                out_id.extend(ids[rows[top]].tolist())
                out_s.extend(col[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    Score.__call__ = _call
    probed_files = [
        f
        for b in probed
        for d in part_dirs[b]
        for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
    ]
    partials = rd.read_parquet(probed_files).map_batches(
        Score,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    )
    out = _final_topk_ds(partials, k)
    return (out, stats) if return_stats else out


def embedding_clusters(
    emb_ds,
    n_clusters: int = 16,
    seed: int = 13,
    sample_size: int = 2000,
    iters: int = 10,
):
    """Cluster assignment over an embedding column — the topic-bucketing
    op of a training-data pipeline: centroids fit on a bounded driver
    sample (`_kmeans`, deterministic), broadcast once, then one matmul
    argmax per batch.  Output: (vec_id, cluster, cosine_to_centroid).
    The corpus streams; nothing shuffles."""
    import ray

    C = _fit_centroids(emb_ds, n_clusters, iters, seed, sample_size)
    cref = ray.put(C)

    class Assign:
        def __init__(self):
            self.C = ray.get(cref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
            Xn = _normalize(_embedding_matrix(batch.column("embedding")))
            sims = Xn @ self.C.T
            cell = np.argmax(sims, axis=1)
            return pa.table(
                {
                    "vec_id": pa.array(ids, type=pa.int64()),
                    "cluster": pa.array(cell.astype(np.int64), type=pa.int64()),
                    "cosine_to_centroid": pa.array(
                        sims[np.arange(len(ids)), cell], type=pa.float64()
                    ),
                }
            )

    return emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        Assign,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    )


def ann_index_append(index_dir: str, emb_ds) -> dict:
    """Append vectors to a persisted ANN index WITHOUT rebuilding — the
    delta path of the index lifecycle (the inverted index has
    build/merge/delete; this is the ANN sibling).  New vectors bucket
    with the ORIGINAL parameters (LSH planes regenerated from meta; IVF
    uses the stored centroids), so probe sets stay valid and a query
    over the appended index equals a query over a fresh index built from
    the union corpus with the same parameters (tested).

    Commit protocol: the new generation writes to its own
    `vectors_gen<N>/` dir and meta.json (listing committed generations)
    rewrites LAST via tmp+rename — a crashed append leaves an UNLISTED
    gen dir that queries never read.  Compaction = rebuild."""
    import ray

    meta_path = os.path.join(index_dir, "meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    gens = meta.get("generations", ["vectors"])
    new_gen = f"vectors_gen{len(gens)}"
    out_dir = os.path.join(index_dir, new_gen)
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)

    if meta["method"] == "lsh":
        dim, n_planes, seed = meta["dim"], meta["n_planes"], meta["seed"]

        class Assign:
            def __init__(self):
                self.planes = _lsh_planes(dim, n_planes, seed)

            def __call__(self, batch: pa.Table) -> pa.Table:
                Xn = _normalize(_embedding_matrix(batch.column("embedding")))
                b = _bucket_sig(Xn, self.planes).astype(np.int64)
                return pa.table(
                    {
                        "vec_id": batch.column("vec_id"),
                        "embedding": batch.column("embedding"),
                        "bucket": pa.array(b, type=pa.int64()),
                    }
                )

    elif meta["method"] == "ivf":
        cref = ray.put(np.asarray(meta["centroids"], dtype=np.float64))

        class Assign:
            def __init__(self):
                self.C = ray.get(cref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                Xn = _normalize(_embedding_matrix(batch.column("embedding")))
                cell = np.argmax(Xn @ self.C.T, axis=1).astype(np.int64)
                return pa.table(
                    {
                        "vec_id": batch.column("vec_id"),
                        "embedding": batch.column("embedding"),
                        "bucket": pa.array(cell, type=pa.int64()),
                    }
                )

    else:
        raise ValueError(f"unknown ANN index method: {meta['method']}")

    emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        Assign,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    ).write_parquet(out_dir, partition_cols=["bucket"])

    meta["generations"] = gens + [new_gen]
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, meta_path)
    return meta


def quantize_embeddings(emb_ds, out_col: str = "code"):
    """Scalar symmetric int8 quantization of unit-normalized embeddings:
    code = round(x / ||x|| * 127), stored as list<int8> — 4x smaller than
    float32 (8x vs float64) per vector, the memory knob that decides how
    much of a 100-TB embedding corpus fits in the object store.  Pure
    map, no shuffle; pair with ann_quantized_topk's ASYMMETRIC scoring
    (float query x int8 corpus) so query precision is never lost."""

    def _q(batch: pa.Table) -> pa.Table:
        X = _normalize(_embedding_matrix(batch.column("embedding")))
        codes = np.clip(np.round(X * 127.0), -127, 127).astype(np.int8)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                out_col: pa.array(list(codes), type=pa.list_(pa.int8())),
            }
        )

    return emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        _q, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096
    )


class _QuantScoreStage:
    """Asymmetric scoring: float64 unit query matrix against int8 codes;
    score = (codes @ Q.T) / 127 ~ cosine (both sides unit at quantization
    time).  Emits per-batch local top-k — same merge contract as brute."""

    def __init__(self, queries_ref, k: int, code_col: str):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.Q = _normalize(np.asarray(q, dtype=np.float64))
        self.k = k
        self.code_col = code_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch.column(self.code_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        C = flat.reshape(len(ids), -1) / 127.0  # dequantized unit-ish rows
        sims = C @ self.Q.T
        k = min(self.k, len(ids))
        out_q, out_id, out_s = [], [], []
        for qi in range(self.Q.shape[0]):
            colv = sims[:, qi]
            top = (
                np.argpartition(-colv, k - 1)[:k] if k < len(ids) else np.arange(len(ids))
            )
            out_q.extend([qi] * len(top))
            out_id.extend(ids[top].tolist())
            out_s.extend(colv[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )


def ann_quantized_topk(
    code_ds, queries: np.ndarray, k: int = 10, code_col: str = "code"
) -> pd.DataFrame:
    """Top-k over an int8-quantized corpus (see quantize_embeddings):
    approximate (quantization noise ~1/127 per component), asymmetric —
    the float query never loses precision.  Same output contract and
    distributed final merge as ann_brute_topk."""
    import ray

    qref = ray.put(np.asarray(queries, dtype=np.float64))
    partials = code_ds.map_batches(
        _QuantScoreStage,
        fn_constructor_args=(qref, k, code_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
        concurrency=(1, 8),
    )
    return _final_topk_ds(partials, k)
