"""Trigram-index-accelerated regex search — the Google Code Search design
(R. Cox 2012, "Regular Expression Matching with a Trigram Index",
swtch.com/~rsc/regexp/regexp4.html): a corpus-wide posting list of
character trigrams prunes the candidate set for ANY regex whose match
must contain some literal substring, and a real regex engine verifies
only the survivors.  The reference engine greps nothing; this is the
operator a webtext corpus needs for "find every page matching this
pattern" at 100 TB without a full scan per query.

  build_trigram_index   one (tri, doc_id) row per DISTINCT trigram per doc
                        (raw text, case-sensitive — regexp semantics),
                        hash-partitioned by trigram, each partition file
                        sorted by (tri, doc_id) with small row groups so a
                        per-trigram read prunes to a handful of row
                        groups; manifest-LAST commit.
  required_literals     conservative literal extraction from the pattern:
                        candidates are always a SUPERSET of true matches
                        (correctness never depends on the extractor —
                        only pruning power), alternation falls back to a
                        full scan exactly as Cox describes.
  regex_grep            trigram AND-intersection -> candidate doc ids ->
                        verify with RE2 (pyarrow match_substring_regex —
                        the same engine DuckDB uses, so the oracle is
                        regexp_matches over the corpus).

Scale shape: the index build is one shuffle of ~len(text) 12-byte rows
per doc (the substring_dup_stats cost class — that IS the Code Search
design).  A query reads only the row groups of its literals' trigrams
(point reads), intersects rarest-first
with early exit, and the verify pass reads candidate docs by
predicate-pushdown id read below `scan_threshold`, else streams the
corpus through a broadcast member filter + one vectorized regex kernel.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

_ROW_GROUP = 4096
_META = "grep_meta.json"


def _doc_trigrams(text: str) -> np.ndarray:
    """distinct trigrams of one doc as a sorted object array."""
    if len(text) < 3:
        return np.empty(0, dtype=object)
    return np.unique([text[i : i + 3] for i in range(len(text) - 2)])


def _write_trigram_gen(ds, index_dir: str, n_parts: int, gen: str) -> int:
    """One generation of (tri, doc_id) posting files:
    `part=<p>/<gen>.parquet`, sorted by (tri, doc_id), 4096-row groups so
    a filters=[('tri','=',t)] read prunes on row-group statistics.
    Returns total rows written.  The caller commits meta LAST."""
    import hashlib

    from indexer_ray.functions.hashing import key_partition

    def _rows(batch: pa.Table) -> pa.Table:
        ids_out, tris_out = [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            tr = _doc_trigrams(t or "")
            if len(tr):
                tris_out.append(tr)
                ids_out.append(np.full(len(tr), doc_id, dtype=np.int64))
        if not ids_out:
            return pa.table(
                {
                    "tri": pa.array([], type=pa.string()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "part": pa.array([], type=pa.int32()),
                }
            )
        tri = np.concatenate(tris_out)
        h = np.array(
            [
                int.from_bytes(
                    hashlib.blake2b(s.encode(), digest_size=8).digest(), "big"
                )
                for s in tri
            ],
            dtype=np.uint64,
        )
        return pa.table(
            {
                "tri": pa.array(tri, type=pa.string()),
                "doc_id": pa.array(np.concatenate(ids_out), type=pa.int64()),
                "part": pa.array(key_partition(h, n_parts), type=pa.int32()),
            }
        )

    def _write(g: pd.DataFrame) -> pd.DataFrame:
        p = int(g["part"].iloc[0])
        g = g.sort_values(["tri", "doc_id"], kind="mergesort")
        t = pa.table(
            {
                "tri": pa.array(g["tri"].to_numpy(), type=pa.string()),
                "doc_id": pa.array(
                    g["doc_id"].to_numpy().astype(np.int64), type=pa.int64()
                ),
            }
        )
        d = os.path.join(index_dir, f"part={p}")
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, f".tmp.{gen}.parquet")
        pq.write_table(t, tmp, row_group_size=_ROW_GROUP)
        os.replace(tmp, os.path.join(d, f"{gen}.parquet"))
        return pd.DataFrame({"part": [p], "n_rows": [len(g)]})

    parts = (
        ds.select_columns(["doc_id", "text"])
        .map_batches(_rows, batch_format="pyarrow", zero_copy_batch=True,
                     batch_size=1024)
        .groupby("part")
        .map_groups(_write, batch_format="pandas")
        .to_pandas()
    )
    return int(parts["n_rows"].sum()) if len(parts) else 0


def build_trigram_index(ds, index_dir: str, n_parts: int = 32) -> dict:
    """Build the trigram posting index under `index_dir` (generation 0).

    Commit = meta-LAST over wiped partition dirs (the repo's crash-safe
    protocol); `trigram_index_append` adds re-crawl generations without
    rewriting the base."""
    import shutil

    os.makedirs(index_dir, exist_ok=True)
    meta_path = os.path.join(index_dir, _META)
    if os.path.exists(meta_path):
        os.remove(meta_path)
    for d in os.listdir(index_dir):
        if d.startswith("part="):
            shutil.rmtree(os.path.join(index_dir, d), ignore_errors=True)

    n_rows = _write_trigram_gen(ds, index_dir, n_parts, "gen0")
    meta = {"n_parts": n_parts, "gens": ["gen0"], "n_rows": n_rows}
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def trigram_index_append(index_dir: str, ds) -> dict:
    """Append a re-crawl batch as a new GENERATION without rewriting the
    base (the LSM shape of merge.merge_indexes / ann_index_append):
    posting files land as `part=<p>/gen<N>.parquet`, meta commits LAST —
    a crashed append leaves files no reader consults, and the retry
    reclaims them (same generation name, tmp+rename overwrite).

    Re-crawled doc_ids may leave STALE postings in older generations;
    that only widens the candidate set, and regex_grep's verify pass
    reads the CURRENT corpus — correctness is unaffected (documented
    superset invariant), compaction is a rebuild."""
    meta_path = os.path.join(index_dir, _META)
    with open(meta_path) as f:
        meta = json.load(f)
    gen = f"gen{len(meta['gens'])}"
    # reclaim a crashed earlier attempt at this generation name
    for d in os.listdir(index_dir):
        if d.startswith("part="):
            p = os.path.join(index_dir, d, f"{gen}.parquet")
            if os.path.exists(p):
                os.remove(p)
    n_rows = _write_trigram_gen(ds, index_dir, int(meta["n_parts"]), gen)
    meta["gens"].append(gen)
    meta["n_rows"] = int(meta["n_rows"]) + n_rows
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, meta_path)
    return meta


_QUANTIFIERS = set("*+?{")
_META_CHARS = set(".^$*+?()[]{}|\\")


def required_literals(pattern: str, min_len: int = 3) -> list[str]:
    """Literal substrings every match of `pattern` must contain — the
    conservative extraction of Cox 2012 §"Implementation": maximal runs
    of plain literal characters, with the char before any quantifier
    dropped (it may be optional / collapsed) and everything inside
    character classes or after escapes ignored.  A top-level alternation
    means NO substring is required — return [] (full-scan fallback), and
    so does any ``(?...`` construct (inline flags like ``(?i)`` change
    matching case-sensitivity, lookarounds change semantics — the
    conservative answer is "nothing is required").  Groups are tracked
    with a stack of run indices: a quantifier following ``)`` discards
    every literal run produced INSIDE that group (``(foo)?bar`` requires
    only ``bar``), while an unquantified group's runs stay required.
    The result is used only to PRUNE: a superset candidate set is always
    verified by the real regex engine, so a weak extraction costs speed,
    never correctness."""
    # alternation anywhere outside a class kills required-ness (grouped
    # alternations could still contribute shared literals, but the
    # conservative answer is correct — Cox's full analysis is a lattice);
    # '(?' constructs (flags / non-capturing / lookaround) likewise bail
    in_class = False
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            i += 2
            continue
        if in_class:
            if c == "]":
                in_class = False
        elif c == "[":
            in_class = True
        elif c == "|":
            return []
        elif c == "(" and pattern[i + 1 : i + 2] == "?":
            return []
        i += 1

    runs: list[str] = []
    cur: list[str] = []
    group_stack: list[int] = []  # len(runs) at each open '('
    in_class = False
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            # escapes: \d \w \s... are classes; escaped punctuation is a
            # literal char but conservatively breaks the run
            if cur:
                runs.append("".join(cur))
                cur = []
            i += 2
            continue
        if in_class:
            if c == "]":
                in_class = False
            i += 1
            continue
        if c == "[":
            in_class = True
            if cur:
                runs.append("".join(cur))
                cur = []
            i += 1
            continue
        if c == "(":
            if cur:
                runs.append("".join(cur))
                cur = []
            group_stack.append(len(runs))
            i += 1
            continue
        if c == ")":
            if cur:
                runs.append("".join(cur))
                cur = []
            start = group_stack.pop() if group_stack else 0
            nxt = pattern[i + 1 : i + 2]
            if nxt and nxt in _QUANTIFIERS:
                # the whole group may vanish or repeat: nothing produced
                # inside it is required, and the quantifier must NOT pop
                # a char from any run outside the group
                del runs[start:]
                if nxt == "{":
                    j = pattern.find("}", i + 1)
                    i = (j if j != -1 else i + 1) + 1
                else:
                    i += 2
            else:
                i += 1
            continue
        if c in _QUANTIFIERS:
            # the preceding char may repeat or vanish: drop it
            if cur:
                cur.pop()
                if cur:
                    runs.append("".join(cur))
                cur = []
            # skip a {m,n} body
            if c == "{":
                j = pattern.find("}", i)
                i = (j if j != -1 else i) + 1
            else:
                i += 1
            continue
        if c in _META_CHARS:
            if cur:
                runs.append("".join(cur))
                cur = []
            i += 1
            continue
        cur.append(c)
        i += 1
    if cur:
        runs.append("".join(cur))
    return [r for r in runs if len(r) >= min_len]


def _trigram_docs(index_dir: str, tri: str, meta: dict) -> np.ndarray:
    """doc_ids containing `tri`: one row-group-pruned point read per
    committed generation (only generations listed in meta are consulted —
    crashed-append orphans are invisible)."""
    import hashlib

    from indexer_ray.functions.hashing import key_partition

    h = np.array(
        [int.from_bytes(hashlib.blake2b(tri.encode(), digest_size=8).digest(), "big")],
        dtype=np.uint64,
    )
    p = int(key_partition(h, int(meta["n_parts"]))[0])
    parts = []
    for gen in meta["gens"]:
        path = os.path.join(index_dir, f"part={p}", f"{gen}.parquet")
        if not os.path.exists(path):
            continue
        t = pq.read_table(path, columns=["doc_id"], filters=[("tri", "=", tri)])
        parts.append(t.column("doc_id").to_numpy(zero_copy_only=False))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts).astype(np.int64))


def trigram_candidates(index_dir: str, literals: list[str]) -> np.ndarray:
    """AND-intersection of the posting lists of every trigram of every
    required literal, rarest-first with early exit."""
    with open(os.path.join(index_dir, _META)) as f:
        meta = json.load(f)
    tris = sorted({lit[i : i + 3] for lit in literals for i in range(len(lit) - 2)})
    cand: np.ndarray | None = None
    # read all, then intersect smallest-first (posting sizes unknown a
    # priori; the reads are row-group-pruned point reads either way)
    posts = sorted((_trigram_docs(index_dir, t, meta) for t in tris), key=len)
    for p in posts:
        cand = p if cand is None else np.intersect1d(cand, p, assume_unique=True)
        if cand is not None and len(cand) == 0:
            break
    return cand if cand is not None else np.empty(0, dtype=np.int64)


def regex_grep(
    index_dir: str,
    docs_path: str,
    pattern: str,
    scan_threshold: int = 100_000,
    return_stats: bool = False,
):
    """Docs whose text matches `pattern` (RE2 semantics — pyarrow's
    engine, identical to DuckDB regexp_matches): trigram candidates when
    the pattern has required literals, full distributed scan otherwise.

    Verify regimes: candidates below `scan_threshold` are fetched with
    one predicate-pushdown id read (driver-held — bounded by the
    threshold); above it (or with no literals) the corpus streams through
    map_batches with a broadcast membership mask + ONE vectorized regex
    kernel per batch.  Returns a sorted doc_id DataFrame; with
    `return_stats`, also {n_candidates, used_index}."""
    import pyarrow.compute as pc
    import ray.data as rd

    from indexer_ray.sources.tables import read_parquet_clean

    lits = required_literals(pattern)
    used_index = bool(lits)
    cand = trigram_candidates(index_dir, lits) if lits else None

    if cand is not None and len(cand) == 0:
        out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
        return (out, {"n_candidates": 0, "used_index": True}) if return_stats else out

    if cand is not None and len(cand) <= scan_threshold:
        t = pq.read_table(
            docs_path, columns=["doc_id", "text"],
            filters=[("doc_id", "in", cand.tolist())],
        )
        m = pc.match_substring_regex(t.column("text"), pattern)
        ids = t.filter(m).column("doc_id").to_numpy(zero_copy_only=False)
        out = pd.DataFrame({"doc_id": np.sort(ids).astype(np.int64)})
        stats = {"n_candidates": int(len(cand)), "used_index": True}
        return (out, stats) if return_stats else out

    cand_set = pa.array(cand.tolist(), type=pa.int64()) if cand is not None else None

    def _scan(batch: pa.Table) -> pa.Table:
        t = batch
        if cand_set is not None:
            keep = pc.is_in(pc.cast(t.column("doc_id"), pa.int64()),
                            value_set=cand_set)
            t = t.filter(keep)
        m = pc.match_substring_regex(pc.fill_null(t.column("text"), ""), pattern)
        return pa.table({"doc_id": t.filter(m).column("doc_id")})

    ids = (
        read_parquet_clean(docs_path)
        .select_columns(["doc_id", "text"])
        .map_batches(_scan, batch_format="pyarrow", zero_copy_batch=True,
                     batch_size=4096)
        .to_pandas()
    )
    out = (
        ids.sort_values("doc_id").reset_index(drop=True).astype({"doc_id": "int64"})
    )
    stats = {
        "n_candidates": int(len(cand)) if cand is not None else -1,
        "used_index": used_index,
    }
    return (out, stats) if return_stats else out
