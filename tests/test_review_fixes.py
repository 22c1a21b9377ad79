"""Regression tests for the round-3 review findings: overflow-safe
sequence-pack routing, dedup verify regime parity, counter-row hygiene,
dup_clusters convergence surfacing, HLL exact group keys, PDF /Encrypt
trailer-window detection, typed empty pair frames."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------- packing
def test_pack_sequences_wide_hash_id_span(ray_session):
    """doc_ids spanning ~2^62 (the hashed-id web-scale case): the old
    '(ids - lo) * n_parts // span' routing wrapped int64 and scrambled
    slices; division routing must keep slices contiguous in doc_id."""
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import pack_sequences

    rng = np.random.default_rng(7)
    ids = np.sort(
        rng.integers(-(2**62), 2**62, size=200, dtype=np.int64)
    )
    ids = np.unique(ids)
    df = pd.DataFrame(
        {"doc_id": ids, "text": ["w " * int(k) for k in rng.integers(1, 30, len(ids))]}
    )
    out = (
        pack_sequences(rd.from_pandas(df), budget=64, n_parts=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # every doc present exactly once
    assert sorted(out["doc_id"]) == sorted(df["doc_id"].tolist())
    # packs respect the budget (no single doc here exceeds it)
    sums = out.groupby("pack_id")["n_tokens"].sum()
    assert (sums <= 64).all()
    # slice routing is monotone: doc ids sorted ascending => pack_id
    # non-decreasing would be too strong (pack ids are per-slice), but
    # docs of one pack must form a contiguous doc_id run
    for _, grp in out.groupby("pack_id"):
        lo_i, hi_i = grp["doc_id"].min(), grp["doc_id"].max()
        inside = out[(out["doc_id"] >= lo_i) & (out["doc_id"] <= hi_i)]
        assert set(inside["pack_id"]) == {grp["pack_id"].iloc[0]}


# ------------------------------------------------- verify regime parity
def test_broadcast_verify_emits_pairs_with_absent_docs(ray_session):
    """Pairs whose docs are missing from the corpus must score jaccard=0,
    not vanish — the broadcast regime seeds empty partitions so it stays
    output-equivalent with the join regime."""
    import ray.data as rd

    from indexer_ray.pipelines.dedup import ngram_jaccard_pairs

    docs = pd.DataFrame({"doc_id": [1, 2], "text": ["alpha beta gamma delta", "alpha beta gamma delta"]})
    # docs 50/51 are absent from the corpus entirely
    pairs = pd.DataFrame({"doc_a": [1, 50], "doc_b": [2, 51]})
    out = ngram_jaccard_pairs(
        rd.from_pandas(docs), pairs=pairs, shingle_k=2, threshold=0.0
    )
    assert len(out) == 2
    absent = out[out["doc_a"] == 50].iloc[0]
    assert absent["jaccard"] == 0.0
    present = out[out["doc_a"] == 1].iloc[0]
    assert present["jaccard"] == 1.0


def test_ngram_pairs_dataset_filters_counter_rows_and_dedups(ray_session):
    """The *_pairs_ds output format includes (-1, -1) truncation counter
    rows and (in the join regime) possible duplicate pairs; the Dataset
    path of ngram_jaccard_pairs must drop both."""
    import ray.data as rd

    from indexer_ray.pipelines.dedup import ngram_jaccard_pairs

    docs = pd.DataFrame(
        {"doc_id": [1, 5], "text": ["red fox jumps high", "red fox jumps high"]}
    )
    pairs_ds = rd.from_pandas(
        pd.DataFrame(
            {"doc_a": [1, 1, -1], "doc_b": [5, 5, -1], "truncated": [0, 0, 3]}
        )
    )
    out = ngram_jaccard_pairs(
        rd.from_pandas(docs), pairs=pairs_ds, shingle_k=2, threshold=0.0
    )
    assert len(out) == 1
    assert (out["doc_a"] >= 0).all()
    assert out.iloc[0]["jaccard"] == 1.0


def test_pandas_pairs_input_filters_counter_rows(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import ngram_jaccard_pairs

    docs = pd.DataFrame({"doc_id": [1, 5], "text": ["a b c d", "a b c d"]})
    pairs = pd.DataFrame({"doc_a": [1, -1], "doc_b": [5, -1]})
    out = ngram_jaccard_pairs(rd.from_pandas(docs), pairs=pairs, shingle_k=2, threshold=0.0)
    assert list(out["doc_a"]) == [1]


# --------------------------------------------------- dup_clusters raise
def test_dup_clusters_raises_on_unconverged_propagation(ray_session):
    """max_iters smaller than a component's diameter must RAISE, not
    silently return wrong cluster ids (no-silent-caps)."""
    import ray.data as rd

    from indexer_ray.pipelines.dedup import dup_clusters

    chain = pd.DataFrame({"doc_a": list(range(0, 9)), "doc_b": list(range(1, 10))})
    # threshold=0 forces the distributed label-propagation path even for
    # this driver-sized chain (the default would route to union-find)
    with pytest.raises(RuntimeError, match="did not converge"):
        dup_clusters(rd.from_pandas(chain), threshold=0, max_iters=1, n_parts=4)
    # and with enough rounds the same chain converges to one component
    ok = dup_clusters(
        rd.from_pandas(chain), threshold=0, max_iters=16, n_parts=4
    ).to_pandas()
    assert set(ok["cluster_id"]) == {0}
    assert len(ok) == 10


# ------------------------------------------------------------ HLL keys
def test_hll_group_keys_exact_above_2_53_with_nulls(ray_session):
    """int64 group keys above 2^53 with nulls present: the old pandas
    factorize round-trip went through float64 and collapsed adjacent ids."""
    import ray.data as rd

    from indexer_ray.pipelines.sketches import hyperloglog_distinct

    g1, g2 = 2**60, 2**60 + 1  # indistinguishable in float64
    df = pd.DataFrame(
        {
            "k": ["a", "b", "c", "d", "e", "f"],
            "g": pd.array([g1, g1, g2, g2, None, None], dtype="Int64"),
        }
    )
    # take_all (not to_pandas: pandas would coerce int64-with-null to
    # float64 and collapse the two keys in the TEST itself)
    rows = hyperloglog_distinct(rd.from_pandas(df), "k", group_col="g").take_all()
    groups = {r["g"] for r in rows if r["g"] is not None}
    assert g1 in groups and g2 in groups  # kept distinct, not rounded
    assert sum(1 for r in rows if r["g"] is None) == 1  # null group kept
    # each group saw 2 distinct keys (p=12 HLL is exact at this size)
    assert all(r["approx_distinct"] == 2 for r in rows)


# -------------------------------------------------------- PDF /Encrypt
def _xref_stream_pdf(dict_extra: bytes, pad: bytes = b"") -> bytes:
    head = b"%PDF-1.5\n"
    obj = (
        b"1 0 obj\n<</Type/XRef /W [1 1 1] "
        + dict_extra
        + b">>\nstream\nxxxx\nendstream\nendobj\n"
    )
    body = head + obj + pad
    off = len(head)
    return body + b"startxref\n" + str(off).encode() + b"\n%%EOF"


def test_pdf_encrypted_xref_stream_outside_tail_window():
    """Linearized/xref-stream PDF (no 'trailer' keyword) whose /Encrypt
    dict sits >2048 bytes before EOF: must be detected via the startxref
    offset, not just the file tail."""
    from indexer_ray.functions.extractors import extract_pdf

    pdf = _xref_stream_pdf(b"/Encrypt 2 0 R ", pad=b"%" + b"x" * 4096 + b"\n")
    assert extract_pdf(pdf) is None


def test_pdf_xref_stream_content_encrypt_not_false_positive():
    """'/Encrypt' bytes INSIDE the xref stream data (after the dict) must
    not drop an unencrypted document."""
    from indexer_ray.functions.extractors import extract_pdf

    head = b"%PDF-1.5\n"
    obj = (
        b"1 0 obj\n<</Type/XRef /W [1 1 1]>>\nstream\n/Encrypt-looking bytes\nendstream\nendobj\n"
    )
    content = b"2 0 obj\n<</Length 20>>\nstream\nBT (hello world) Tj ET\nendstream\nendobj\n"
    body = head + obj + content + b"%" + b"x" * 4096 + b"\n"
    pdf = body + b"startxref\n" + str(len(head)).encode() + b"\n%%EOF"
    out = extract_pdf(pdf)
    assert out is not None and "hello" in out


def test_pdf_trailer_bytes_after_real_trailer():
    """'trailer' appearing again AFTER the real trailer (appended data)
    must not mask a real /Encrypt declaration (old rfind anchor bug)."""
    from indexer_ray.functions.extractors import extract_pdf

    pdf = (
        b"%PDF-1.4\n1 0 obj <</Length 10>> stream\nBT (x) Tj ET\nendstream endobj\n"
        b"trailer <</Root 1 0 R /Encrypt 9 0 R>>\n"
        b"% appended junk mentioning trailer word\n" + b"y" * 3000 +
        b"\nstartxref\n0\n%%EOF"
    )
    assert extract_pdf(pdf) is None


# -------------------------------------------------- typed empty frames
def test_empty_pair_frames_keep_value_dtypes(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import minhash_pairs_ds, pairs_frame, simhash_pairs_ds

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": [
                "completely different words here today",
                "nothing shared at all with former",
            ],
        }
    )
    ds = rd.from_pandas(docs)
    mh = pairs_frame(minhash_pairs_ds(ds, jaccard_threshold=0.99), "jaccard")
    assert len(mh) == 0 and str(mh["jaccard"].dtype) == "float64"
    sh = pairs_frame(simhash_pairs_ds(ds, max_hamming=0), "hamming")
    if len(sh) == 0:
        assert str(sh["hamming"].dtype) == "int64"


# ------------------------------------------- routed-count null group keys
def test_routed_cnt_sum_keeps_null_group_values(ray_session):
    """Rows whose group column is null must still be counted (pandas
    groupby drops NaN keys by default; the routing key join nulls out if
    any key column is null) — top_terms_per_group over a lang column
    containing nulls is the reported repro."""
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import top_terms_per_group

    df = pd.DataFrame(
        {
            "lang": ["en", "en", None, None, "fr"],
            "text": [
                "alpha beta alpha",
                "alpha gamma",
                "nullish words nullish",
                "nullish more",
                "delta delta delta",
            ],
        }
    )
    out = top_terms_per_group(rd.from_pandas(df), "lang", k=3).to_pandas()
    null_rows = out[out["lang"].isna()]
    assert len(null_rows) > 0, "null-lang docs vanished from the counts"
    got = dict(zip(null_rows["term"], null_rows["cnt"]))
    assert got["nullish"] == 3
    en = out[out["lang"] == "en"]
    assert dict(zip(en["term"], en["cnt"]))["alpha"] == 3


# -------------------------------------- schema-less empty sort ranges
def test_empty_sort_ranges_keep_schema_and_stay_silent(ray_session):
    """A groupby whose sort width exceeds the distinct-key count produces
    empty reduce ranges; Ray's merge emits them as zero-column blocks.
    The _raypatch shim must adopt the stream schema for such bundles
    without logging the divergence warning (the one-shot warn slot stays
    reserved for real schema changes)."""
    import logging

    import pyarrow as pa
    import ray.data as rd

    import indexer_ray  # noqa: F401 — package import applies _raypatch

    records = []

    class _Catch(logging.Handler):
        def emit(self, r):
            if "different schema" in r.getMessage():
                records.append(r.getMessage())

    h = _Catch()
    logging.getLogger("ray.data").addHandler(h)
    try:
        df = pd.DataFrame({"doc_id": np.arange(500, dtype=np.int64)})

        def route(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy()
            return t.append_column(
                "dpart", pa.array((ids % 3).astype(np.int32), type=pa.int32())
            )

        def m(g: pd.DataFrame):
            return pa.table(
                {"doc_id": pa.array(np.asarray(g["doc_id"]), type=pa.int64())}
            )

        out = (
            rd.from_pandas(df)
            .repartition(16)  # 16 sort ranges over 3 distinct keys
            .map_batches(route, batch_format="pyarrow")
            .groupby("dpart")
            .map_groups(m, batch_format="pandas")
        )
        assert out.count() == 500
        assert [f.name for f in out.schema().base_schema] == ["doc_id"]
    finally:
        logging.getLogger("ray.data").removeHandler(h)
    assert records == [], records


def test_zero_row_blocks_do_not_poison_hash_join(ray_session):
    """The hash-shuffle aggregate emits empty partitions as zero-column
    blocks and projections skip 0-row blocks (stale columns survive);
    either shape used to crash a downstream join with acero's "No match
    or multiple matches for key field reference".  The _raypatch hook
    drops 0-row blocks at add_output, so the join sees only typed
    blocks.  (Observed on the 600k-doc minhash forced-join probe.)"""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count

    import indexer_ray  # noqa: F401 — package import applies _raypatch

    corpus = rd.from_pandas(
        pd.DataFrame(
            {"doc_id": np.arange(1000, dtype=np.int64), "text": ["x"] * 1000}
        )
    )
    refs = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": np.array([1, 2, 3] * 200, dtype=np.int64),
                "part": np.array([0, 1, 2] * 200, dtype=np.int32),
            }
        )
    ).repartition(16)  # many more shuffle partitions than distinct keys
    needed = (
        refs.groupby(["doc_id", "part"])
        .aggregate(Count(alias_name="_c"))
        .select_columns(["doc_id", "part"])
    )
    joined = corpus.join(needed, "inner", 4, on=("doc_id",))
    out = joined.to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 3]


def test_raypatch_empty_blocks_adversarial_shapes(ray_session):
    """The empty-block replacement/drop hooks must stay invisible under
    preserve_order, a join whose BOTH sides flow through aggregates with
    many empty ranges, and a union with an all-empty-filtered stream
    (stock Ray loses the schema of an all-empty SORTED stream with or
    without the patch — not asserted here).  The patch's fire counters
    show the replacement ran, without a hook exception."""
    import ray.data as rd
    from ray.data.aggregate import Count
    from ray.data.context import DataContext

    import indexer_ray  # noqa: F401 — applies _raypatch
    from indexer_ray._raypatch import FIRES

    before = dict(FIRES)

    ctx = DataContext.get_current()
    prev = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        ds = rd.from_pandas(
            pd.DataFrame({"x": np.arange(5000, dtype=np.int64)})
        ).repartition(40)
        vals = [
            r["x"]
            for r in ds.map_batches(
                lambda b: b[b["x"] % 9 == 0], batch_format="pandas"
            ).take_all()
        ]
        assert vals == sorted(vals) and len(vals) == len(range(0, 5000, 9))

        left = (
            rd.from_pandas(
                pd.DataFrame(
                    {"k": np.array([7, 8] * 50, dtype=np.int64), "v": np.arange(100)}
                )
            )
            .repartition(24)
            .groupby("k")
            .aggregate(Count(alias_name="cl"))
            .select_columns(["k"])
        )
        right = (
            rd.from_pandas(
                pd.DataFrame(
                    {"k": np.array([8, 9] * 50, dtype=np.int64), "w": np.arange(100)}
                )
            )
            .repartition(24)
            .groupby("k")
            .aggregate(Count(alias_name="cr"))
            .select_columns(["k"])
        )
        j = left.join(right, "inner", 4, on=("k",)).to_pandas()
        assert sorted(j["k"]) == [8]

        empty = rd.from_pandas(
            pd.DataFrame({"k": np.arange(100, dtype=np.int64)})
        ).repartition(8).map_batches(lambda b: b[b["k"] < 0], batch_format="pandas")
        real = rd.from_pandas(pd.DataFrame({"k": np.arange(5, dtype=np.int64)}))
        assert sorted(r["k"] for r in empty.union(real).take_all()) == [0, 1, 2, 3, 4]
    finally:
        ctx.execution_options.preserve_order = prev
    assert FIRES["replaced"] > before["replaced"]
    assert FIRES["errors"] == before["errors"]


def test_raypatch_skipped_on_untested_ray_version():
    """On a Ray version outside _TESTED_RAY the package import patches
    neither executor hook and warns once, naming the version."""
    import json
    import os
    import subprocess
    import sys

    code = """
import json, warnings
import ray
ray.__version__ = "0.0.0.untested"
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import indexer_ray
from ray.data._internal.execution import streaming_executor_state as ses
print(json.dumps({
    "add_output": getattr(ses.OpState.add_output, "_indexer_ray_patch", False),
    "dedupe": getattr(ses.dedupe_schemas_with_validation, "_indexer_ray_patch", False),
    "warnings": [str(w.message) for w in caught if "0.0.0.untested" in str(w.message)],
}))
"""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=repo, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["add_output"] is False and got["dedupe"] is False
    assert len(got["warnings"]) == 1


class _EmptyRangeJoinBroken(Exception):
    """Stock Ray failed the empty-range sort reduce into a join."""


@pytest.mark.xfail(
    strict=True,
    raises=_EmptyRangeJoinBroken,
    reason="Ray's sort reduce emits empty ranges as zero-column blocks, which "
    "break a downstream join; once this passes, Ray is fixed and _raypatch "
    "can go",
)
def test_raypatch_canary_empty_sort_range_into_join():
    """Canary for the bug `_raypatch` works around, run on stock Ray (a
    fresh process that never imports indexer_ray, so the patch is off): a
    sort-based groupby with more ranges than keys feeds a join.  Ray
    2.49.2 raises in the join's hash-shuffle finalize."""
    import json
    import os
    import subprocess
    import sys

    code = """
import json
import numpy as np, pandas as pd, ray, ray.data as rd
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
df = pd.DataFrame({"k": np.arange(500, dtype=np.int64) % 3, "v": np.arange(500, dtype=np.int64)})
left = (
    rd.from_pandas(df)
    .repartition(16)  # 16 sort ranges over 3 distinct keys
    .groupby("k")
    .map_groups(lambda g: pd.DataFrame({"k": [int(g["k"].iloc[0])], "n": [len(g)]}),
                batch_format="pandas")
)
right = rd.from_pandas(pd.DataFrame({"k": np.arange(3, dtype=np.int64), "w": list("abc")}))
try:
    out = left.join(right, "inner", 4, on=("k",)).to_pandas().sort_values("k")
    got = {"raised": None, "rows": out[["k", "n", "w"]].values.tolist()}
except Exception as e:
    got = {"raised": f"{type(e).__name__}: {str(e)[:500]}", "rows": None}
ray.shutdown()
print(json.dumps(got))
"""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=repo, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    if got["raised"]:
        raise _EmptyRangeJoinBroken(got["raised"])
    assert got["rows"] == [[0, 167, "a"], [1, 167, "b"], [2, 166, "c"]]
