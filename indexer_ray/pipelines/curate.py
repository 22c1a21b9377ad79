"""End-to-end corpus curation: the canonical admission → dedup → mixing
chain a web crawl goes through before training, composed from this
repo's operators so the whole chain stays streaming and oracle-checkable.

Stage order matters and is fixed: quality ADMISSION first (cheap pure
map, shrinks everything downstream), exact DEDUP second (keeps the
smallest doc_id per distinct content), MIXTURE sampling last (rates are
defined over the deduplicated admitted pool).  Near-dup removal /
decontamination slot between dedup and mixing — they are Dataset-in/
Dataset-out (dedup.drop_duplicates_ds, dedup.decontaminate_ds) and
compose the same way; the default chain keeps to the SQL-expressible
stages so the driver oracle can hash-check the full composition.
"""

from __future__ import annotations

import pyarrow as pa

from indexer_ray.stages.shuffle import join_parts


def curate_corpus(
    ds,
    rates: dict[str, float],
    default: float = 0.0,
    min_tokens: int = 5,
    max_digit_pct: int = 30,
    min_alpha_pct: int = 50,
    group_col: str = "source",
):
    """documents Dataset -> curated Dataset (original columns).

    Shape: both keep-sets (quality-admitted ids, exact-dedup keeper ids)
    stay DISTRIBUTED and semi-join the corpus with inner hash joins —
    no driver materialization, no broadcast of corpus-sized id sets;
    the mixture draw is a pure map."""
    from indexer_ray.pipelines.dedup import exact_duplicates
    from indexer_ray.pipelines.sampling import mixture_sample
    from indexer_ray.pipelines.text_analysis import quality_filter

    jp = join_parts()

    admitted = quality_filter(
        ds, min_tokens=min_tokens, max_digit_pct=max_digit_pct,
        min_alpha_pct=min_alpha_pct,
    )
    keepers = exact_duplicates(ds).map_batches(
        lambda t: pa.table({"doc_id": t.column("keep_doc_id")}),
        batch_format="pyarrow",
    )
    kept = ds.join(admitted, "inner", jp, on=("doc_id",)).join(
        keepers, "inner", jp, on=("doc_id",)
    )
    return mixture_sample(kept, rates, default=default, group_col=group_col)


def site_quality_stats(
    ds,
    host_col: str = "source",
    min_tokens: int = 5,
    max_digit_pct: int = 30,
    min_alpha_pct: int = 50,
    pass_num: int = 1,
    pass_den: int = 2,
):
    """Site-level quality admission (the RefinedWeb / Gopher practice of
    filtering by SITE, not only by page: a host whose pages mostly fail
    the doc-level rules is a spam farm even when individual pages squeak
    past — Penedo et al. 2023 §3.1 url+host filtering).  Per host:
    number of docs, number passing `quality_filter`'s doc rules, and a
    keep flag ``n_pass * pass_den >= n_docs * pass_num`` (integer
    cross-multiplication, so the DuckDB oracle is float-free).

    Shape: doc flags + per-host partial (n_docs, n_pass) sums inside ONE
    map_batches pass; the groupby that follows moves one row per
    (batch, host) — host cardinality, not corpus cardinality.

    Output: (host, n_docs, n_pass, kept)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from indexer_ray.pipelines.text_analysis import (
        _ascii_class_counts,
        tokenize_plain,
    )

    def _partial(batch: pa.Table) -> pa.Table:
        hosts = batch.column(host_col).to_pylist()
        flags = np.zeros(batch.num_rows, dtype=np.int64)
        for i, t in enumerate(batch.column("text").to_pylist()):
            t = t or ""
            n = len(t)
            if n == 0 or len(tokenize_plain(t)) < min_tokens:
                continue
            n_digit, n_alpha = _ascii_class_counts(t)
            if (
                n_digit * 100 <= n * max_digit_pct
                and n_alpha * 100 >= n * min_alpha_pct
            ):
                flags[i] = 1
        g = pd.DataFrame({"host": hosts, "pass": flags}).groupby(
            "host", sort=False
        )
        agg = g.agg(n_docs=("pass", "size"), n_pass=("pass", "sum"))
        return pa.table(
            {
                "host": pa.array(agg.index.to_numpy(), type=pa.string()),
                "n_docs": pa.array(
                    agg["n_docs"].to_numpy(dtype=np.int64), type=pa.int64()
                ),
                "n_pass": pa.array(
                    agg["n_pass"].to_numpy(dtype=np.int64), type=pa.int64()
                ),
            }
        )

    summed = (
        ds.select_columns([host_col, "text"])
        .map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True,
                     batch_size=2048)
        .groupby("host")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("n_pass", alias_name="n_pass"))
    )

    def _flag(t: pa.Table) -> pa.Table:
        nd = t.column("n_docs").to_numpy(zero_copy_only=False).astype("int64")
        np_ = t.column("n_pass").to_numpy(zero_copy_only=False).astype("int64")
        return pa.table(
            {
                "host": t.column("host"),
                "n_docs": pa.array(nd, type=pa.int64()),
                "n_pass": pa.array(np_, type=pa.int64()),
                "kept": pa.array(np_ * pass_den >= nd * pass_num,
                                 type=pa.bool_()),
            }
        )

    return summed.map_batches(_flag, batch_format="pyarrow")


def site_quality_filter(ds, host_col: str = "source", **rule_kw):
    """Drop every doc whose host fails the site-level keep rule — a
    distributed LEFT ANTI join against the (small) bad-host set.
    Returns (kept_ds, stats_ds)."""
    stats = site_quality_stats(ds, host_col=host_col, **rule_kw).materialize()
    bad = stats.map_batches(
        lambda t: pa.table(
            {host_col: t.filter(
                pa.compute.invert(t.column("kept").combine_chunks())
            ).column("host")}
        ),
        batch_format="pyarrow",
    )
    return ds.join(bad, "left_anti", join_parts(), on=(host_col,)), stats
