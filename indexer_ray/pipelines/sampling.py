"""Deterministic hash-based dataset splitting and sampling — the
train/val/test assignment step of a training-data pipeline.

Requirements that shape the design (and why `ds.random_shuffle()` or
`random.random()` per row are wrong here):
  * deterministic and layout-independent — the same row gets the same
    split on every run, every cluster size, every block order;
  * disjoint and exhaustive — every row lands in exactly one split;
  * cheap — a pure per-row arithmetic map, no shuffle, no state;
  * auditable — the assignment rule is SQL-expressible, so the DuckDB
    oracle recomputes it exactly (driver query `hash_split_assign`).

The hash is Knuth's multiplicative scheme on the id column folded to a
32-bit lattice: h = (id * 2654435761) mod 2^32, bucket = h mod 10_000.
Published constant (Knuth TAOCP vol. 3 §6.4); NOT a cryptographic hash —
adequate for splitting ids that carry no adversarial structure, and chosen
over blake2b precisely because plain SQL can reproduce it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from indexer_ray.stages.shuffle import routed_reduce

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)
_BUCKETS = 10_000


def _bucket_of(ids: np.ndarray) -> np.ndarray:
    """bucket in [0, 10000) per id: (id * 2654435761 mod 2^32) mod 10000."""
    with np.errstate(over="ignore"):
        h = (ids.astype(np.uint64) * _KNUTH) & _M32
    return (h % np.uint64(_BUCKETS)).astype(np.int64)


def hash_split(ds, splits: dict[str, float], id_col: str = "doc_id"):
    """Assign every row to exactly one named split by hashed-id bucket
    ranges: splits = {"train": 0.9, "val": 0.05, "test": 0.05} (fractions
    must sum to <= 1; any remainder falls into the LAST split so the
    assignment is exhaustive).  Adds a `split` string column; pure
    map_batches, no shuffle, deterministic across runs/layouts."""
    if not splits:
        raise ValueError("splits must name at least one split")
    names = list(splits)
    cuts = np.cumsum([splits[n] for n in names])
    if cuts[-1] > 1.0 + 1e-9:
        raise ValueError(f"split fractions sum to {cuts[-1]:.4f} > 1")
    bounds = np.minimum((cuts * _BUCKETS).round().astype(np.int64), _BUCKETS)
    bounds[-1] = _BUCKETS  # exhaustive: remainder joins the last split

    def _assign(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        b = _bucket_of(ids)
        idx = np.searchsorted(bounds, b, side="right")
        labels = np.asarray(names, dtype=object)[idx]
        return t.append_column("split", pa.array(labels.tolist(), type=pa.string()))

    return ds.map_batches(_assign, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)


def hash_sample(ds, fraction: float, id_col: str = "doc_id"):
    """Deterministic ~`fraction` sample by hashed-id bucket: keeps rows
    whose bucket < fraction * 10000.  Repeated calls with growing fractions
    are NESTED (a 1% sample is a subset of the 10% sample) — the property
    that makes hash sampling the right tool for progressive data ablations."""
    cut = int(round(fraction * _BUCKETS))

    def _keep(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_bucket_of(ids) < cut))

    return ds.map_batches(_keep, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)


def cap_per_group(ds, cap: int, group_col: str = "source",
                  id_col: str = "doc_id", n_parts: int = 32):
    """Keep at most `cap` rows per group, deterministically: the survivors
    are the `cap` smallest `id_col` values in each group (exactly SQL's
    ``ROW_NUMBER() OVER (PARTITION BY group ORDER BY id) <= cap`` — the
    per-domain cap step of a web-corpus pipeline, where a handful of hot
    domains would otherwise dominate the training mix).

    Shape: hash-route whole groups into `n_parts` partitions (the repo's
    routed-partition pattern — one vectorized pass per PARTITION, never a
    map_groups per group: at web scale there are millions of domains), then
    one sort + cumcount per partition.  The shuffle moves only
    (id, group) — prune other columns before calling, or join survivors
    back by id.  Skew note: a single group larger than worker memory is
    bounded by the same hot-key salting argument as the index build — the
    cap is applied to the SMALLEST ids, so a pre-filter
    `hash_sample`-style guard can shrink giant groups before routing;
    groups at web scale are domains (<= ~10^8 rows), which fit a task."""
    import pandas as pd

    def _cap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, id_col], kind="mergesort")
        keep = g.groupby(group_col, sort=False).cumcount() < cap
        return g.loc[keep, [id_col, group_col]]

    return routed_reduce(ds.select_columns([id_col, group_col]), [group_col], n_parts, _cap)


def sample_per_group(ds, k: int, group_col: str = "source",
                     id_col: str = "doc_id", n_parts: int = 32):
    """Deterministic UNIFORM sample of exactly min(k, |group|) rows per
    group: the k smallest (hashed-id bucket, id) per group — a distributed
    reservoir sample whose "random" order is the same Knuth multiplicative
    hash as hash_split/hash_sample, so it is reproducible across runs,
    layouts and cluster sizes (unlike cap_per_group, which keeps the
    smallest IDS — biased toward old docs — this draws uniformly).

    Bottom-k is a semilattice combiner, so every batch PRE-REDUCES to at
    most k rows per group it contains before the single group-routed
    shuffle; the per-partition finisher is one vectorized sort + cumcount.
    Output: (id_col, group_col)."""
    import pandas as pd

    def _partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        b = _bucket_of(ids)
        g = t.column(group_col).combine_chunks()
        enc = g.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, b, codes))
        sc = codes[order]
        starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        rank = np.arange(len(sc)) - np.repeat(
            starts, np.diff(np.r_[starts, len(sc)])
        )
        keep = pa.array(order[rank < k])
        return pa.table(
            {
                id_col: t.column(id_col).take(keep),
                group_col: t.column(group_col).take(keep),
            }
        )

    def _pick(g: "pd.DataFrame") -> "pd.DataFrame":
        ids = g[id_col].to_numpy()
        b = _bucket_of(ids)
        g = g.assign(_b=b).sort_values([group_col, "_b", id_col], kind="mergesort")
        keep = g.groupby(group_col, sort=False).cumcount() < k
        return g.loc[keep, [id_col, group_col]]

    partial = ds.map_batches(_partial, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)
    return routed_reduce(partial, [group_col], n_parts, _pick)


def mixture_sample(ds, rates: dict[str, float], default: float = 0.0,
                   group_col: str = "source", id_col: str = "doc_id"):
    """Domain-mixture sampling: keep each row with its GROUP's target rate
    (e.g. {"web": 0.3, "wiki": 1.0, "forum": 0.05}) — the re-weighting
    step that turns a raw web crawl into a curated training mixture
    (per-source sampling rates are the standard published knob, e.g. the
    GPT-3 / The Pile dataset mixing tables).  Groups not named in `rates`
    keep `default`.

    Same Knuth-bucket lattice as hash_split/hash_sample, so the draw is
    deterministic, layout-independent, NESTED across rate increases, and
    SQL-expressible (oracle: bucket(doc_id) < CASE source ... END).
    Pure map_batches filter — no shuffle."""
    for g, r in rates.items():
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"rate for {g!r} must be in [0, 1], got {r}")
    if not (0.0 <= default <= 1.0):
        raise ValueError(f"default rate must be in [0, 1], got {default}")
    cuts = {g: int(round(r * _BUCKETS)) for g, r in rates.items()}
    dcut = int(round(default * _BUCKETS))

    def _keep(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        b = _bucket_of(ids)
        enc = t.column(group_col).combine_chunks().dictionary_encode()
        uniq_cuts = np.array(
            [cuts.get(v, dcut) for v in enc.dictionary.to_pylist()], dtype=np.int64
        )
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(b < uniq_cuts[codes]))

    return ds.map_batches(_keep, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)


def token_budget_sample(ds, budget: int, id_col: str = "doc_id",
                        text_col: str = "text", n_parts: int = 32):
    """Select documents to an exact TOKEN budget: walk docs in the
    deterministic hash order (bucket(id), id) and keep every doc whose
    RUNNING token total (inclusive) stays <= `budget` — "give me a fair
    ~2B-token subset" is how training mixtures are actually sized, and a
    hash-ordered prefix makes the subset reproducible and nested (a 1B
    budget is a prefix of the 2B budget).

    Distributed shape — an ordered prefix-sum (scan), two passes:
      1. one map_batches computes (id, bucket, n_tokens) and routes rows
         to `n_parts` ORDERED bucket-range partitions;
      2. per-partition token sums (n_parts tiny rows) come to the driver,
         an exclusive prefix over partitions gives each partition its
         starting offset, and a second vectorized pass cuts each
         partition at its local threshold.
    Nothing unbounded materializes on the driver (n_parts rows).  Token
    counting is RE2 '\\S+' runs (count_substring_regex), matching the SQL
    oracle's tokenization exactly.

    Output: (id_col, n_tokens), the selected docs."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    if budget < 0:
        raise ValueError("budget must be >= 0")
    part_w = -(-_BUCKETS // n_parts)  # bucket-range width per ordered partition

    def _count(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        b = _bucket_of(ids)
        ntok = pc.fill_null(
            pc.count_substring_regex(
                pc.cast(t.column(text_col), pa.string()), pattern=r"\S+"
            ),
            0,
        )
        return pa.table(
            {
                id_col: t.column(id_col),
                "bucket": pa.array(b, type=pa.int64()),
                "n_tokens": ntok.cast(pa.int64()),
                "part": pa.array(b // part_w, type=pa.int32()),
            }
        )

    counted = ds.map_batches(_count, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192).materialize()

    # pass 1: per-partition totals (n_parts rows — bounded, driver-safe)
    from ray.data.aggregate import Sum

    totals = counted.groupby("part").aggregate(Sum("n_tokens", alias_name="tot")).to_pandas()
    totals = totals.sort_values("part")
    offsets = dict(
        zip(
            totals["part"].to_numpy(),
            np.r_[0, np.cumsum(totals["tot"].to_numpy())[:-1]],
        )
    )
    off_ref = ray.put(offsets)

    # pass 2: cut each ordered partition at its local threshold.  The cut
    # EMITS a keep flag instead of dropping rows (an all-empty map_groups
    # output loses its schema); the Arrow filter below preserves the
    # schema even when every row is dropped (budget < first doc).
    import pandas as pd

    def _cut(g: pd.DataFrame) -> pd.DataFrame:
        start = ray.get(off_ref).get(int(g["part"].iloc[0]), 0)
        g = g.sort_values(["bucket", id_col], kind="mergesort")
        run = start + g["n_tokens"].cumsum()
        return pd.DataFrame(
            {
                id_col: g[id_col],
                "n_tokens": g["n_tokens"],
                "keep": (run <= budget).to_numpy(),
            }
        )

    flagged = counted.groupby("part").map_groups(_cut, batch_format="pandas")
    return flagged.map_batches(
        lambda t: t.filter(t.column("keep")).drop_columns(["keep"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def stratified_sample(ds, score_col: str, boundaries: list[float],
                      rates: list[float], id_col: str = "doc_id"):
    """Per-stratum sampling over a score column — the CCNet-style
    quality-bucket curation step (keep the head, thin the middle, drop
    the tail): stratum i covers scores in (boundaries[i-1], boundaries[i]]
    with stratum 0 = (-inf, boundaries[0]] and a final stratum above the
    last boundary, so len(rates) == len(boundaries) + 1.

    Boundaries are EXPLICIT (compose with `relational.group_quantiles`
    for a bounded-domain score, or a `hash_sample` estimate otherwise) —
    the op itself is a pure map: stratum by searchsorted, keep by the
    same Knuth bucket lattice as hash_split, so the draw is
    deterministic, layout-independent, nested per stratum, and
    SQL-recomputable.  Adds a `stratum` column to the kept rows."""
    if len(rates) != len(boundaries) + 1:
        raise ValueError(
            f"need len(rates) == len(boundaries)+1, got {len(rates)} rates "
            f"for {len(boundaries)} boundaries"
        )
    for r in rates:
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"rates must be in [0, 1], got {r}")
    if sorted(boundaries) != list(boundaries):
        raise ValueError("boundaries must be sorted ascending")
    bnd = np.asarray(boundaries, dtype=np.float64)
    cut = np.array([int(round(r * _BUCKETS)) for r in rates], dtype=np.int64)

    def _keep(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        score = t.column(score_col).to_numpy(zero_copy_only=False).astype(np.float64)
        stratum = np.searchsorted(bnd, score, side="left")
        b = _bucket_of(ids)
        keep = b < cut[stratum]
        out = t.filter(pa.array(keep))
        return out.append_column(
            "stratum", pa.array(stratum[keep].astype(np.int64), type=pa.int64())
        )

    return ds.map_batches(_keep, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)


def temperature_mixture(ds, alpha: float = 0.5, group_col: str = "source",
                        id_col: str = "doc_id"):
    """Temperature-based source rebalancing — the multilingual sampling
    rule of Lample & Conneau 2019 / XLM-R (Conneau 2020): the target
    mixture follows p(s) ∝ n_s^alpha, implemented as a per-doc keep rate
    r_s = (n_min / n_s)^(1-alpha) so the SMALLEST source keeps every row
    and larger sources are downsampled toward their tempered share
    (alpha=1 keeps the natural mix; alpha→0 equalizes sources).

    Exactness: cut_s = floor(10000 · (n_min/n_s)^(1-alpha)); at the
    default alpha=0.5 the power is ONE sqrt of one division — both
    correctly-rounded IEEE ops, so DuckDB reproduces every cut bit-exactly
    (general pow is not correctly rounded; other alphas work but the
    oracle pins 0.5).  The draw itself is the repo's Knuth-bucket lattice:
    deterministic, layout-independent, nested across alpha increases.

    Shape: ONE small partial-count groupby (n_sources rows to the
    driver), cuts broadcast in the filter closure, then a pure
    map_batches filter — no shuffle of the corpus."""
    import math

    from ray.data.aggregate import Sum

    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    def _partial(t: pa.Table) -> pa.Table:
        enc = t.column(group_col).combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(codes, minlength=len(enc.dictionary)).astype(np.int64)
        return pa.table(
            {
                group_col: enc.dictionary,
                "n": pa.array(cnt, type=pa.int64()),
            }
        )

    counts = (
        ds.map_batches(_partial, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=8192)
        .groupby(group_col)
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    if counts.empty:
        return ds.filter(lambda _row: False)
    n_min = int(counts["n"].min())

    def _rate(n: int) -> float:
        # sqrt explicitly at the default (correctly rounded; libm pow at
        # exponent 0.5 is not guaranteed identical to sqrt)
        r = n_min / n
        return math.sqrt(r) if alpha == 0.5 else r ** (1.0 - alpha)

    cuts = {
        g: int(math.floor(_BUCKETS * _rate(int(n))))
        for g, n in zip(counts[group_col], counts["n"])
    }

    def _keep(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        b = _bucket_of(ids)
        enc = t.column(group_col).combine_chunks().dictionary_encode()
        uniq_cuts = np.array(
            [cuts.get(v, 0) for v in enc.dictionary.to_pylist()], dtype=np.int64
        )
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(b < uniq_cuts[codes]))

    return ds.map_batches(_keep, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)
