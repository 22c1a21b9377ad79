"""URL canonicalization and host-level rollups over a web-page corpus —
the normalization step before any url-keyed dedup / freshness join
(reference analogue: the indexer keys documents by raw url,
lib.rs:http-path handling; a real crawl needs the key normalized first).

Canonical form (fixed, documented rules — the DuckDB oracle applies the
identical chain, so the canonical STRING is hash-checkable):
  R1 drop the '#fragment';
  R2 sort query parameters lexicographically by their full 'k=v' text
     (duplicates kept, order-normalized); empty query ('?') drops;
  R3 lowercase the scheme and authority (path/query stay case-sensitive);
  R4 strip an explicit default port (':80' / ':443') from the authority;
  R5 strip ALL trailing '/' (root, path, or repeated — 'http://x.com/',
     '/a/b/' and '/a//' all normalize; never strips into '://', so the
     rule is idempotent — pinned by a hypothesis property test).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from indexer_ray.stages.shuffle import join_parts, routed_reduce


def _canon_one(u: str) -> str:
    u = u.split("#", 1)[0]  # R1
    base, sep, query = u.partition("?")
    if sep and query:  # R2
        query = "&".join(sorted(query.split("&")))
    # R3/R4: lowercase scheme://authority, strip default port
    if "://" in base:
        head, _, tail = base.partition("://")
        auth, slash, path = tail.partition("/")
        auth = auth.lower()
        if auth.endswith(":80") or auth.endswith(":443"):
            auth = auth.rsplit(":", 1)[0]
        base = head.lower() + "://" + auth + slash + path
    out = base + ("?" + query if sep and query else "")
    while out.endswith("/") and not out.endswith("://"):  # R5
        out = out[:-1]
    return out


def canonicalize_urls(ds, url_col: str = "url"):
    """Adds `canon_url` and `host` columns.  Pure map_batches — no
    shuffle; the per-row work is string slicing (the query-param sort is
    per row by necessity, over the handful of params a url carries)."""

    def _canon(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        canon = [_canon_one(u or "") for u in urls]
        hosts = []
        for c in canon:
            if "://" in c:
                auth = c.partition("://")[2].partition("/")[0].partition("?")[0]
                hosts.append(auth.rsplit(":", 1)[0] if ":" in auth else auth)
            else:
                hosts.append("")
        return batch.append_column(
            "canon_url", pa.array(canon, type=pa.string())
        ).append_column("host", pa.array(hosts, type=pa.string()))

    return ds.map_batches(_canon, batch_format="pyarrow",
        zero_copy_batch=True, batch_size=8192)


def host_doc_counts(ds, url_col: str = "url"):
    """(host, n_docs) rollup over canonical hosts — the per-domain
    balance statistic cap_per_group consumes.  Partial counts per batch
    before the (host-cardinality-bounded) groupby."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        hosts = {}
        for u in urls:
            c = _canon_one(u or "")
            auth = c.partition("://")[2].partition("/")[0].partition("?")[0]
            h = auth.rsplit(":", 1)[0] if ":" in auth else auth
            hosts[h] = hosts.get(h, 0) + 1
        ks = sorted(hosts)
        return pa.table(
            {
                "host": pa.array(ks, type=pa.string()),
                "n_docs": pa.array([hosts[k] for k in ks], type=pa.int64()),
            }
        )

    return (
        ds.map_batches(_partial, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=8192)
        .groupby("host")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


def keep_latest_per_key(
    ds,
    key_col: str = "url",
    ts_col: str = "ts",
    id_col: str = "doc_id",
    n_parts: int = 32,
):
    """Crawl re-fetch dedup: keep exactly ONE row per key — the newest
    fetch, i.e. ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY ts DESC,
    id DESC) = 1`` (ts ties break on the larger id, so re-crawls with a
    coarse clock are still deterministic).  This is the freshness step a
    continuously-refreshed web index runs before build/merge: only the
    latest snapshot of each URL should be indexed.

    Shape: hash-route whole key groups into `n_parts` partitions (the
    cap_per_group routing — one vectorized lexsort + drop_duplicates pass
    per PARTITION, never per key), shuffle moves only (key, id, ts).
    Output: (key_col, id_col, ts_col) survivors."""
    def _latest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [key_col, ts_col, id_col], ascending=[True, False, False],
            kind="mergesort",
        )
        return g.drop_duplicates(key_col, keep="first")[
            [key_col, id_col, ts_col]
        ]

    return routed_reduce(ds.select_columns([key_col, id_col, ts_col]), [key_col], n_parts, _latest)


def crawl_diff(
    old_ds,
    new_ds,
    url_col: str = "url",
    content_col: str = "text",
    num_partitions: int | None = None,
):
    """Snapshot diff between two crawls of the same site set: per url,
    status ``added`` (new crawl only), ``removed`` (old crawl only),
    ``changed`` (both, content differs) or ``unchanged`` — the change-
    detection census a re-crawl scheduler feeds on (the reference's
    mtime freshness rule, lib.rs:210-224, is the single-file analogue;
    cf. Cho & Garcia-Molina 2000 on crawl refresh estimation).

    Shape: each side reduces to (url, 8-byte blake2b content digest) in
    one batch pass — the shuffle moves 16-byte rows, never documents —
    then ONE distributed full-outer hash join on url and a vectorized
    status classification.  Urls are assumed unique per snapshot
    (dedup a multi-fetch crawl with `keep_latest_per_key` first).

    Output: (url, status) rows."""
    import hashlib

    import pyarrow.compute as pc

    def _digest(side: str):
        col = f"h_{side}"

        def _d(t: pa.Table) -> pa.Table:
            texts = t.column(content_col).to_pylist()
            h = np.fromiter(
                (
                    int.from_bytes(
                        hashlib.blake2b(
                            (s or "").encode("utf-8"), digest_size=8
                        ).digest(),
                        "big",
                    )
                    for s in texts
                ),
                dtype=np.uint64,
                count=len(texts),
            )
            return pa.table(
                {
                    url_col: t.column(url_col),
                    col: pa.array(h.view(np.int64), type=pa.int64()),
                }
            )

        return _d

    a = old_ds.map_batches(_digest("old"), batch_format="pyarrow")
    b = new_ds.map_batches(_digest("new"), batch_format="pyarrow")
    jp = num_partitions or join_parts()
    joined = a.join(b, "full_outer", jp, on=(url_col,))

    def _status(t: pa.Table) -> pa.Table:
        ho, hn = t.column("h_old"), t.column("h_new")
        old_null = pc.is_null(ho).to_numpy(zero_copy_only=False)
        new_null = pc.is_null(hn).to_numpy(zero_copy_only=False)
        same = pc.equal(ho, hn).fill_null(False).to_numpy(zero_copy_only=False)
        status = np.where(
            old_null,
            "added",
            np.where(new_null, "removed", np.where(same, "unchanged", "changed")),
        )
        return pa.table(
            {
                url_col: t.column(url_col),
                "status": pa.array(status, type=pa.string()),
            }
        )

    return joined.map_batches(_status, batch_format="pyarrow")
