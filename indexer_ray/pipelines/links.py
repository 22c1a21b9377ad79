"""HTML link extraction and the host-level link graph — the web-corpus
structure pass (crawl frontier seeding, in-degree/PageRank features,
spam-host heuristics all start from this edge list).

Reference analogue: html.rs walks the DOM for text only; link extraction
is the same walk keeping `<a href>` / `<area href>` attributes instead
(stdlib html.parser, matching the extractor chain's parser family).

Semantics (documented; the SQL oracle reproduces them on the synthetic
corpus):
 - hrefs resolve against the page url per RFC 3986 (stdlib urljoin); a
   `<base href>` tag, first one wins, re-bases the page per the HTML spec;
 - fragment-only hrefs (`#top`) are self-links and are dropped; so are
   non-navigational schemes (javascript:, mailto:, data:, tel:);
 - duplicates are KEPT in the edge list (multiplicity is the graph
   weight) and collapse only in the host rollup's count.

Scale design: extraction is a pure map (per-row HTML parsing is
inherently serial, the documented T1-style vectorization exemption); the
host rollup pre-aggregates per batch (Counter combiner) so the global
groupby shuffles one row per distinct (src_host, dst_host) pair per
block, not one per link.
"""

from __future__ import annotations

from html.parser import HTMLParser
from urllib.parse import urljoin, urlparse

import numpy as np
import pyarrow as pa

from indexer_ray.stages.shuffle import ANTI, driver_table, regime_join, routed_reduce

_SKIP_SCHEMES = ("javascript:", "mailto:", "data:", "tel:")


class _LinkParser(HTMLParser):
    """Collect resolved link targets from a[href] / area[href], plus each
    anchor's visible TEXT (the classic anchor-text relevance signal);
    honour the first <base href> (HTML spec: later base tags are
    ignored).  Anchor text = character data between <a> and its </a>
    (nested anchors close the open one, per the HTML parsing spec's
    no-nested-anchors rule)."""

    def __init__(self, page_url: str) -> None:
        super().__init__(convert_charrefs=True)
        self.base = page_url
        self._base_seen = False
        self.out: list[list] = []  # [raw href, resolved, anchor text]
        self._open = False  # an <a href> awaiting its text

    def _close_anchor(self) -> None:
        self._open = False

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag == "base" and not self._base_seen:
            href = next((v for k, v in attrs if k == "href" and v), None)
            if href:
                self.base = urljoin(self.base, href)
                self._base_seen = True
            return
        if tag not in ("a", "area"):
            return
        if tag == "a":
            self._close_anchor()  # implicit close: no nested anchors
        href = next((v for k, v in attrs if k == "href" and v is not None), None)
        if href is None:
            return
        h = href.strip()
        if not h or h.startswith("#"):
            return  # fragment-only: self-link
        if h.lower().startswith(_SKIP_SCHEMES):
            return
        self.out.append([href, urljoin(self.base, h), ""])
        self._open = tag == "a"

    def handle_data(self, data: str) -> None:
        if self._open and self.out:
            self.out[-1][2] += data

    def handle_endtag(self, tag: str) -> None:
        if tag == "a":
            self._close_anchor()


def _links_full(page_url: str, html) -> list[list]:
    """[raw href, resolved url, anchor text] per anchor occurrence."""
    if html is None:
        return []
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    if not html:
        return []
    p = _LinkParser(page_url or "")
    try:
        p.feed(html)
        p.close()
    except Exception:
        pass  # keep whatever parsed before the malformed tail
    return p.out


def _links_of(page_url: str, html) -> list[tuple[str, str]]:
    return [(raw, resolved) for raw, resolved, _ in _links_full(page_url, html)]


def _host_of(u: str) -> str:
    try:
        netloc = urlparse(u).netloc.lower()
    except ValueError:
        return ""
    return netloc.rsplit(":", 1)[0] if ":" in netloc else netloc


def extract_links(ds, url_col: str = "url", html_col: str = "html"):
    """Dataset -> edge list (src_url, href, dst_url), one row per anchor
    occurrence (duplicates kept — multiplicity is the edge weight)."""

    def _batch(t: pa.Table) -> pa.Table:
        srcs, hrefs, dsts = [], [], []
        for u, h in zip(t.column(url_col).to_pylist(), t.column(html_col).to_pylist()):
            for raw, resolved in _links_of(u, h):
                srcs.append(u)
                hrefs.append(raw)
                dsts.append(resolved)
        return pa.table(
            {
                "src_url": pa.array(srcs, type=pa.string()),
                "href": pa.array(hrefs, type=pa.string()),
                "dst_url": pa.array(dsts, type=pa.string()),
            }
        )

    return ds.map_batches(_batch, batch_format="pyarrow")


def host_link_counts(ds, url_col: str = "url", html_col: str = "html"):
    """Host-level link graph: (src_host, dst_host, n_links), combiner
    pre-aggregated per batch, then one small groupby-sum shuffle."""

    def _partial(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for u, h in zip(t.column(url_col).to_pylist(), t.column(html_col).to_pylist()):
            sh = _host_of(u or "")
            for _, resolved in _links_of(u, h):
                c[(sh, _host_of(resolved))] += 1
        src, dst, n = [], [], []
        for (s, d), v in c.items():
            src.append(s)
            dst.append(d)
            n.append(v)
        return pa.table(
            {
                "src_host": pa.array(src, type=pa.string()),
                "dst_host": pa.array(dst, type=pa.string()),
                "n_links": pa.array(n, type=pa.int64()),
            }
        )

    import ray.data  # noqa: F401  (Sum aggregate import side)
    from ray.data.aggregate import Sum

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n_links", alias_name="n_links"))
    )


def host_indegree(ds, url_col: str = "url", html_col: str = "html"):
    """In-degree per destination host (distinct-source-weighted edges
    collapse naturally: this sums link multiplicities into the host)."""
    from ray.data.aggregate import Sum

    return (
        host_link_counts(ds, url_col, html_col)
        .groupby("dst_host")
        .aggregate(Sum("n_links", alias_name="in_links"))
    )


def pagerank_hosts(
    edges,
    iters: int = 3,
    damping_pct: int = 85,
    scale: int = 10**12,
    broadcast_hosts_threshold: int = 2_000_000,
):
    """PageRank over a (src_host, dst_host, n_links) edge list (Brin &
    Page 1998), in EXACT integer arithmetic so the result is
    cross-engine hash-checkable (the repo's quantize-before-compare
    discipline applied at every step instead of only at the end):

      N       = |distinct hosts in src + dst|
      r0      = scale // N                       for every host
      base    = ((100 - damping_pct) * (scale // N)) // 100
      out_w   = sum of n_links over a host's outgoing edges
      contrib = (r[src] * n_links) // out_w[src] per edge
      r'[v]   = base + (damping_pct * sum contrib into v) // 100

    Edge multiplicity weights contributions; hosts without outlinks leak
    their mass (dangling mass is DROPPED, not redistributed — documented,
    and reproduced by the SQL oracle).  All intermediates fit int64 for
    scale=1e12 and realistic degree counts.

    Distributed shape, regime-gated on the HOST count (rank state is
    node-sized — hosts, not pages):
      * broadcast regime (n_hosts <= broadcast_hosts_threshold, the
        overwhelmingly common case — even the full web is ~10^8 hosts):
        hosts/out-weights/ranks ship once per iteration via ray.put; one
        vectorized pass over the edges emits per-batch pre-aggregated
        (dst_code, partial) pairs and the node-sized combine happens on
        the driver.  Edges are code-ified ONCE (integer columns), so an
        iteration is a single map + small collect.
      * tagged-union groupby regime (above the threshold): each iteration
        co-partitions rank rows with edge rows by src_host (Dataset.join
        is avoided because Ray 2.49's join aggregator finalizes empty
        partitions as column-less tables that break a downstream join's
        key resolution), sums contributions per dst_host, and
        co-partitions the inflow with the node set to apply the update;
        state is materialized per iteration to keep lineage flat.
    Both regimes share the exact integer arithmetic (integer sums are
    order-independent), pinned identical by test."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    import pandas as pd

    def _sel(name):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table(
                {"host": pc.cast(t.column(name).combine_chunks(), pa.string())}
            )

        return _f

    import pyarrow.compute as pc

    edges = edges.materialize()
    nodes = (
        edges.map_batches(_sel("src_host"), batch_format="pyarrow")
        .union(edges.map_batches(_sel("dst_host"), batch_format="pyarrow"))
        .groupby("host")
        .count()  # distinct hosts (count column dropped below)
        .select_columns(["host"])
        .materialize()
    )
    n_nodes = nodes.count()
    if n_nodes == 0:
        return rd.from_arrow(
            pa.table({"host": pa.array([], pa.string()),
                      "rank": pa.array([], pa.int64())})
        )
    r0 = scale // n_nodes
    base = ((100 - damping_pct) * r0) // 100

    if n_nodes <= broadcast_hosts_threshold:
        import ray

        hosts = np.sort(
            driver_table(nodes.select_columns(["host"]))
            .column("host")
            .to_numpy(zero_copy_only=False)
        )
        hosts_ref = ray.put(hosts)

        def _codify(t: pa.Table) -> pa.Table:
            hs = ray.get(hosts_ref)
            s = np.array(t.column("src_host").to_pylist(), dtype=object)
            d = np.array(t.column("dst_host").to_pylist(), dtype=object)
            return pa.table(
                {
                    "sc": pa.array(np.searchsorted(hs, s), type=pa.int64()),
                    "dc": pa.array(np.searchsorted(hs, d), type=pa.int64()),
                    "n": pc.cast(t.column("n_links").combine_chunks(), pa.int64()),
                }
            )

        enc = edges.map_batches(_codify, batch_format="pyarrow").materialize()

        def _sparse_sum(codes: np.ndarray, vals: np.ndarray) -> pa.Table:
            # int64 np.add.at, NOT np.bincount(weights=...) — bincount
            # accumulates in float64 and loses exactness past 2^53
            uniq, inv = np.unique(codes, return_inverse=True)
            acc = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(acc, inv, vals.astype(np.int64))
            return pa.table(
                {
                    "c": pa.array(uniq, type=pa.int64()),
                    "v": pa.array(acc, type=pa.int64()),
                }
            )

        # out-weights: one pre-aggregated pass, node-sized driver combine
        w = np.zeros(n_nodes, dtype=np.int64)
        for t in enc.map_batches(
            lambda t: _sparse_sum(
                t.column("sc").to_numpy(zero_copy_only=False),
                t.column("n").to_numpy(zero_copy_only=False),
            ),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow"):
            np.add.at(
                w,
                t.column("c").to_numpy(zero_copy_only=False),
                t.column("v").to_numpy(zero_copy_only=False),
            )

        r = np.full(n_nodes, r0, dtype=np.int64)
        for _ in range(iters):
            r_ref = ray.put((r, w))

            def _partial(t: pa.Table) -> pa.Table:
                rv, wv = ray.get(r_ref)
                sc = t.column("sc").to_numpy(zero_copy_only=False)
                dc = t.column("dc").to_numpy(zero_copy_only=False)
                n = t.column("n").to_numpy(zero_copy_only=False)
                contrib = rv[sc] * n // wv[sc]
                return _sparse_sum(dc, contrib)

            inflow = np.zeros(n_nodes, dtype=np.int64)
            for t in enc.map_batches(_partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            ):
                np.add.at(
                    inflow,
                    t.column("c").to_numpy(zero_copy_only=False),
                    t.column("v").to_numpy(zero_copy_only=False),
                )
            r = base + damping_pct * inflow // 100
        return rd.from_arrow(
            pa.table(
                {
                    "host": pa.array(list(hosts), type=pa.string()),
                    "rank": pa.array(r, type=pa.int64()),
                }
            )
        )

    def _edge_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pc.cast(t.column("src_host").combine_chunks(), pa.string()),
                "dst": pc.cast(t.column("dst_host").combine_chunks(), pa.string()),
                "n": pc.cast(t.column("n_links").combine_chunks(), pa.int64()),
                "rank": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "tag": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def _rank_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pc.cast(t.column("host").combine_chunks(), pa.string()),
                "dst": pa.array([""] * t.num_rows, type=pa.string()),
                "n": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "rank": pc.cast(t.column("rank").combine_chunks(), pa.int64()),
                "tag": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    def _contrib(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["tag"] == 0]
        if not len(e):
            # rank-only group (host with no outlinks): a zero contribution
            # into itself keeps the block non-empty (Ray's pandas size
            # estimator chokes on 0-row object columns) without changing
            # any inflow sum
            return pd.DataFrame(
                {"dst": [g["key"].iloc[0]],
                 "contrib": np.zeros(1, dtype=np.int64)}
            )
        rank = int(g.loc[g["tag"] == 1, "rank"].iloc[0])
        n = e["n"].to_numpy(dtype=np.int64)
        w = int(n.sum())
        return pd.DataFrame(
            {"dst": e["dst"].to_numpy(), "contrib": rank * n // w}
        )

    def _apply(g: pd.DataFrame) -> pd.DataFrame:
        inflow = int(g["contrib"].sum())
        return pd.DataFrame(
            {
                "host": [g["key"].iloc[0]],
                "rank": np.array([base + damping_pct * inflow // 100],
                                 dtype=np.int64),
            }
        )

    def _node_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pc.cast(t.column("host").combine_chunks(), pa.string()),
                "contrib": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            }
        )

    def _inflow_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pc.cast(t.column("dst").combine_chunks(), pa.string()),
                "contrib": pc.cast(t.column("contrib").combine_chunks(), pa.int64()),
            }
        )

    edge_tagged = edges.map_batches(_edge_rows, batch_format="pyarrow").materialize()
    ranks = nodes.map_batches(
        lambda t: t.append_column(
            "rank", pa.array(np.full(t.num_rows, r0, dtype=np.int64))
        ),
        batch_format="pyarrow",
    ).materialize()
    for _ in range(iters):
        contribs = (
            edge_tagged.union(
                ranks.map_batches(_rank_rows, batch_format="pyarrow")
            )
            .groupby("key")
            .map_groups(_contrib, batch_format="pandas")
            .groupby("dst")
            .aggregate(Sum("contrib", alias_name="contrib"))
        )
        ranks = (
            nodes.map_batches(_node_rows, batch_format="pyarrow")
            .union(contribs.map_batches(_inflow_rows, batch_format="pyarrow"))
            .groupby("key")
            .map_groups(_apply, batch_format="pandas")
            .materialize()
        )
    return ranks


def hits_hosts(
    edges,
    iters: int = 2,
    scale: int = 10**9,
    broadcast_hosts_threshold: int = 2_000_000,
):
    """HITS hubs & authorities (Kleinberg 1999) over a (src_host,
    dst_host, n_links) edge list, in EXACT integer arithmetic:

      a0 = h0 = scale // N  for every host
      per iteration (classic sequential update):
        raw_a[v] = Σ_{edges u→v} n · h[u];  a = raw_a · scale // Σ raw_a
        raw_h[u] = Σ_{edges u→v} n · a[v];  h = raw_h · scale // Σ raw_h

    L1 (sum) normalization instead of the textbook L2 so every step is an
    integer: the per-host division is computed in arbitrary precision
    (Python int / SQL HUGEINT — raw · scale overflows int64 by design)
    and the DuckDB oracle replays each iteration as a chained CTE
    cell-exactly.  Bound: Σ n_links · scale must fit int64 per raw sum
    (same realistic-degree-counts bound as pagerank_hosts; scale=1e9
    leaves 9.2e9 weighted links of headroom).

    Regimes, gated on the HOST count exactly like pagerank_hosts:
      * broadcast (n_hosts <= threshold — even the full web is ~10^8
        hosts): code-ified edges stream once per half-iteration through a
        vectorized pre-aggregated pass; the two node-sized int arrays live
        on the driver and ship via ray.put.
      * tagged-union groupby regime above the threshold: state is a
        Dataset, each half-iteration co-partitions state with edges by
        the gather key (join avoided — Ray 2.49 empty-partition bug, see
        pagerank_hosts), normalization is one tiny global sum + a
        node-sized map.  Pinned identical to broadcast by test.

    Returns a Dataset (host, auth, hub) with quantized int64 scores."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    import pandas as pd
    import pyarrow.compute as pc

    def _sel(name):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table(
                {"host": pc.cast(t.column(name).combine_chunks(), pa.string())}
            )

        return _f

    edges = edges.materialize()
    nodes = (
        edges.map_batches(_sel("src_host"), batch_format="pyarrow")
        .union(edges.map_batches(_sel("dst_host"), batch_format="pyarrow"))
        .groupby("host")
        .count()
        .select_columns(["host"])
        .materialize()
    )
    n_nodes = nodes.count()
    empty = pa.table(
        {
            "host": pa.array([], pa.string()),
            "auth": pa.array([], pa.int64()),
            "hub": pa.array([], pa.int64()),
        }
    )
    if n_nodes == 0:
        return rd.from_arrow(empty)
    v0 = scale // n_nodes

    def _norm_exact(raw: np.ndarray) -> np.ndarray:
        s = int(raw.sum())
        if s <= 0:
            return np.zeros(len(raw), dtype=np.int64)
        return np.array(
            [int(x) * scale // s for x in raw.tolist()], dtype=np.int64
        )

    if n_nodes <= broadcast_hosts_threshold:
        import ray

        hosts = np.sort(
            driver_table(nodes.select_columns(["host"]))
            .column("host")
            .to_numpy(zero_copy_only=False)
        )
        hosts_ref = ray.put(hosts)

        def _codify(t: pa.Table) -> pa.Table:
            hs = ray.get(hosts_ref)
            s = np.array(t.column("src_host").to_pylist(), dtype=object)
            d = np.array(t.column("dst_host").to_pylist(), dtype=object)
            return pa.table(
                {
                    "sc": pa.array(np.searchsorted(hs, s), type=pa.int64()),
                    "dc": pa.array(np.searchsorted(hs, d), type=pa.int64()),
                    "n": pc.cast(t.column("n_links").combine_chunks(), pa.int64()),
                }
            )

        enc = edges.map_batches(_codify, batch_format="pyarrow").materialize()

        def _sparse_sum(codes: np.ndarray, vals: np.ndarray) -> pa.Table:
            uniq, inv = np.unique(codes, return_inverse=True)
            acc = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(acc, inv, vals.astype(np.int64))
            return pa.table(
                {
                    "c": pa.array(uniq, type=pa.int64()),
                    "v": pa.array(acc, type=pa.int64()),
                }
            )

        def _gather(state: np.ndarray, src_col: str, dst_col: str) -> np.ndarray:
            ref = ray.put(state)

            def _partial(t: pa.Table) -> pa.Table:
                sv = ray.get(ref)
                s = t.column(src_col).to_numpy(zero_copy_only=False)
                d = t.column(dst_col).to_numpy(zero_copy_only=False)
                n = t.column("n").to_numpy(zero_copy_only=False)
                return _sparse_sum(d, n * sv[s])

            raw = np.zeros(n_nodes, dtype=np.int64)
            for t in enc.map_batches(_partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            ):
                np.add.at(
                    raw,
                    t.column("c").to_numpy(zero_copy_only=False),
                    t.column("v").to_numpy(zero_copy_only=False),
                )
            return raw

        a = np.full(n_nodes, v0, dtype=np.int64)
        h = np.full(n_nodes, v0, dtype=np.int64)
        for _ in range(iters):
            a = _norm_exact(_gather(h, "sc", "dc"))
            h = _norm_exact(_gather(a, "dc", "sc"))
        return rd.from_arrow(
            pa.table(
                {
                    "host": pa.array(list(hosts), type=pa.string()),
                    "auth": pa.array(a, type=pa.int64()),
                    "hub": pa.array(h, type=pa.int64()),
                }
            )
        )

    # ---- tagged-union groupby regime (host count above the threshold) ----
    def _edge_rows(gather_key: str, emit_key: str):
        def _f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": pc.cast(t.column(gather_key).combine_chunks(), pa.string()),
                    "dst": pc.cast(t.column(emit_key).combine_chunks(), pa.string()),
                    "n": pc.cast(t.column("n_links").combine_chunks(), pa.int64()),
                    "val": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                    "tag": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
                }
            )

        return _f

    def _state_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pc.cast(t.column("host").combine_chunks(), pa.string()),
                "dst": pa.array([""] * t.num_rows, type=pa.string()),
                "n": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "val": pc.cast(t.column("val").combine_chunks(), pa.int64()),
                "tag": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    def _contrib(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["tag"] == 0]
        if not len(e):
            return pd.DataFrame(
                {"dst": [g["key"].iloc[0]], "contrib": np.zeros(1, dtype=np.int64)}
            )
        val = int(g.loc[g["tag"] == 1, "val"].iloc[0])
        n = e["n"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"dst": e["dst"].to_numpy(), "contrib": n * val})

    def _node_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pc.cast(t.column("host").combine_chunks(), pa.string()),
                "contrib": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            }
        )

    def _inflow_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pc.cast(t.column("dst").combine_chunks(), pa.string()),
                "contrib": pc.cast(t.column("contrib").combine_chunks(), pa.int64()),
            }
        )

    def _sum_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": [g["key"].iloc[0]],
                "raw": np.array([int(g["contrib"].sum())], dtype=np.int64),
            }
        )

    def _half_iteration(state, gather_key: str, emit_key: str):
        """one HITS half-step: gather state along edges, L1-normalize."""
        raw = (
            edges.map_batches(_edge_rows(gather_key, emit_key),
                              batch_format="pyarrow")
            .union(state.map_batches(_state_rows, batch_format="pyarrow"))
            .groupby("key")
            .map_groups(_contrib, batch_format="pandas")
            .groupby("dst")
            .aggregate(Sum("contrib", alias_name="contrib"))
        )
        full = (
            nodes.map_batches(_node_rows, batch_format="pyarrow")
            .union(raw.map_batches(_inflow_rows, batch_format="pyarrow"))
            .groupby("key")
            .map_groups(_sum_group, batch_format="pandas")
            .materialize()
        )
        total = int(
            full.aggregate(Sum("raw", alias_name="s"))["s"] or 0
        )

        def _norm_batch(t: pa.Table) -> pa.Table:
            raw_np = t.column("raw").to_numpy(zero_copy_only=False)
            if total <= 0:
                vals = np.zeros(len(raw_np), dtype=np.int64)
            else:
                vals = np.array(
                    [int(x) * scale // total for x in raw_np.tolist()],
                    dtype=np.int64,
                )
            return pa.table(
                {
                    "host": t.column("host"),
                    "val": pa.array(vals, type=pa.int64()),
                }
            )

        return full.map_batches(_norm_batch, batch_format="pyarrow").materialize()

    def _const_state(v: int):
        return nodes.map_batches(
            lambda t: t.append_column(
                "val", pa.array(np.full(t.num_rows, v, dtype=np.int64))
            ),
            batch_format="pyarrow",
        ).materialize()

    a_ds = _const_state(v0)
    h_ds = _const_state(v0)
    for _ in range(iters):
        a_ds = _half_iteration(h_ds, "src_host", "dst_host")
        h_ds = _half_iteration(a_ds, "dst_host", "src_host")

    def _a_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": t.column("host"),
                "auth": pc.cast(t.column("val").combine_chunks(), pa.int64()),
                "hub": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "tag": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def _h_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": t.column("host"),
                "auth": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "hub": pc.cast(t.column("val").combine_chunks(), pa.int64()),
                "tag": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    def _zip(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": [g["host"].iloc[0]],
                "auth": np.array([int(g["auth"].sum())], dtype=np.int64),
                "hub": np.array([int(g["hub"].sum())], dtype=np.int64),
            }
        )

    return (
        a_ds.map_batches(_a_rows, batch_format="pyarrow")
        .union(h_ds.map_batches(_h_rows, batch_format="pyarrow"))
        .groupby("host")
        .map_groups(_zip, batch_format="pandas")
    )


def crawl_frontier(
    pages_ds,
    seen_urls,
    per_host_cap: int = 0,
    url_col: str = "url",
    html_col: str = "html",
    broadcast_threshold: int = 5_000_000,
    n_parts: int = 32,
):
    """Crawl-frontier discovery: the next urls to fetch from a crawled
    batch's outlinks — extract (stdlib parser, RFC 3986 resolution) ->
    canonicalize (pipelines/urls rule chain R1-R5) -> drop already-seen
    canonical urls -> distinct -> optional per-host politeness cap
    (`cap_per_group` semantics: the cap SMALLEST urls per host win, i.e.
    SQL ROW_NUMBER() OVER (PARTITION BY host ORDER BY url) <= cap).

    `seen_urls` is a list/set of urls (canonicalized with the same chain
    before comparison) or a Dataset with a url column; the seen urls drop
    through one `regime_join` anti-join gated on `broadcast_threshold`.

    Output: (url, host), distinct canonical urls.  At 100-TB crawl scale
    the frontier state lives in the large regime; the pages batch streams
    — nothing here materializes the corpus."""
    import ray.data as rd

    from indexer_ray.pipelines.urls import _canon_one

    def _canon_batch(t: pa.Table) -> pa.Table:
        canon = [_canon_one(u or "") for u in t.column("dst_url").to_pylist()]
        return pa.table(
            {
                "url": pa.array(canon, type=pa.string()),
                "host": pa.array([_host_of(c) for c in canon], type=pa.string()),
            }
        )

    def _rehost(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        return pa.table(
            {
                "url": pa.array(urls, type=pa.string()),
                "host": pa.array([_host_of(u) for u in urls], type=pa.string()),
            }
        )

    # distinct canonical urls via a hash count aggregate (vectorized — not
    # a per-group map_groups), host recomputed on the distinct rows
    cands = (
        extract_links(pages_ds, url_col, html_col)
        .map_batches(_canon_batch, batch_format="pyarrow")
        .groupby("url")
        .count()
        .map_batches(_rehost, batch_format="pyarrow")
    )

    if isinstance(seen_urls, (list, tuple, set, frozenset)):
        seen_ds = rd.from_arrow(
            pa.table({"url": pa.array(sorted(seen_urls), type=pa.string())})
        )
    else:
        seen_ds = seen_urls

    def _canon_seen(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": pa.array(
                    [_canon_one(u or "") for u in t.column("url").to_pylist()],
                    type=pa.string(),
                )
            }
        )

    seen_canon = seen_ds.map_batches(_canon_seen, batch_format="pyarrow")
    out = regime_join(cands, seen_canon, "url", ANTI, broadcast_threshold)

    if per_host_cap:
        from indexer_ray.pipelines.sampling import cap_per_group

        out = cap_per_group(
            out, per_host_cap, group_col="host", id_col="url", n_parts=n_parts
        )
    return out


def anchor_texts(
    ds,
    url_col: str = "url",
    html_col: str = "html",
    sep: str = " ",
    n_parts: int = 32,
    max_anchors: int = 10_000,
):
    """Per-target anchor-text aggregation — the classic web-search
    relevance signal (index a page by the words OTHERS use to link to
    it; the reference indexes only body text, lib.rs/tree.rs).  Each
    anchor occurrence emits (dst_url, src_url, occurrence idx,
    stripped text); empty/whitespace anchor texts carry no signal and
    are dropped.  Aggregation is deterministic: texts concatenate with
    `sep` in (src_url, occurrence) order.

    Shape: anchors hash-route by dst_url into `n_parts` partitions (the
    routed-partition pattern: one vectorized sort + groupby-agg pass per
    PARTITION, never a map_groups per target).  A mega-hub target
    (millions of inbound anchors) would otherwise aggregate an unbounded
    string, so the concat keeps only the FIRST `max_anchors` occurrences
    in the deterministic order while `n_anchors` still reports the TRUE
    count (no-silent-caps discipline).  Output:
    (dst_url, anchor_text, n_anchors) — feed the text column straight
    into build_index for an anchor-text index."""
    import pandas as pd

    def _anchors(t: pa.Table) -> pa.Table:
        dsts, srcs, idxs, texts = [], [], [], []
        for u, h in zip(t.column(url_col).to_pylist(), t.column(html_col).to_pylist()):
            for i, (_raw, resolved, text) in enumerate(_links_full(u, h)):
                text = (text or "").strip()
                if not text:
                    continue
                dsts.append(resolved)
                srcs.append(u)
                idxs.append(i)
                texts.append(text)
        return pa.table(
            {
                "dst_url": pa.array(dsts, type=pa.string()),
                "src_url": pa.array(srcs, type=pa.string()),
                "idx": pa.array(idxs, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
            }
        )

    def _agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["dst_url", "src_url", "idx"], kind="mergesort")
        true_counts = g.groupby("dst_url", sort=True).size()
        capped = g.groupby("dst_url", sort=True).head(max_anchors)
        out = (
            capped.groupby("dst_url", sort=True)["text"]
            .agg(sep.join)
            .rename("anchor_text")
            .reset_index()
        )
        out["n_anchors"] = true_counts.loc[out["dst_url"]].to_numpy().astype("int64")
        return out[["dst_url", "anchor_text", "n_anchors"]]

    anchors = ds.map_batches(_anchors, batch_format="pyarrow")
    return routed_reduce(anchors, ["dst_url"], n_parts, _agg)
