"""Training-data operators: dedup family, ANN, text analysis, multimodal
plumbing — checked against in-test brute-force oracles on sf0.001."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/embeddings.parquet")


@pytest.fixture(scope="module")
def docs_pdf():
    import pyarrow.parquet as pq

    return pq.read_table(f"{SF}/documents.parquet").to_pandas()


def test_exact_duplicates(docs_ds, docs_pdf, ray_session):
    from indexer_ray.pipelines.dedup import exact_duplicates

    got = exact_duplicates(docs_ds).to_pandas()
    expected = (
        docs_pdf.groupby("text")
        .agg(keep_doc_id=("doc_id", "min"), dup_count=("doc_id", "size"))
        .reset_index(drop=True)
    )
    assert len(got) == len(expected)
    assert sorted(got["keep_doc_id"]) == sorted(expected["keep_doc_id"])
    assert got["dup_count"].sum() == len(docs_pdf)


def test_exact_duplicates_finds_injected_dups(ray_session, docs_pdf):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import exact_duplicates

    dup = docs_pdf.head(5).copy()
    dup["doc_id"] = dup["doc_id"] + 100_000
    both = pd.concat([docs_pdf, dup], ignore_index=True)
    got = exact_duplicates(rd.from_pandas(both)).to_pandas()
    assert (got["dup_count"] == 2).sum() == 5
    # first-wins: kept ids are the originals
    kept_for_dups = got[got["dup_count"] == 2]["keep_doc_id"]
    assert all(k < 100_000 for k in kept_for_dups)


def test_minhash_finds_near_dups(ray_session, docs_pdf):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import minhash_pairs_ds, pairs_frame

    # inject near-duplicates: copy docs with a small tail edit
    near = docs_pdf.head(8).copy()
    near["doc_id"] = near["doc_id"] + 200_000
    near["text"] = near["text"] + " extra tail token"
    both = pd.concat([docs_pdf, near], ignore_index=True)
    pairs = pairs_frame(
        minhash_pairs_ds(rd.from_pandas(both), jaccard_threshold=0.5), "jaccard"
    )
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    expected = {(i, i + 200_000) for i in docs_pdf.head(8)["doc_id"]}
    assert expected <= found, expected - found
    assert (pairs["jaccard"] >= 0.5).all()


def test_simhash_pairs(ray_session, docs_pdf):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import pairs_frame, simhash_pairs_ds

    near = docs_pdf.head(4).copy()
    near["doc_id"] = near["doc_id"] + 300_000
    near["text"] = near["text"] + " tail"
    both = pd.concat([docs_pdf, near], ignore_index=True)
    pairs = pairs_frame(simhash_pairs_ds(rd.from_pandas(both), max_hamming=3), "hamming")
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    expected = {(i, i + 300_000) for i in docs_pdf.head(4)["doc_id"]}
    # simhash with hamming<=3 must at minimum catch these light edits
    assert expected <= found, expected - found
    if len(pairs):
        assert (pairs["hamming"] <= 3).all()


def test_embedding_dup_pairs_brute_vs_lsh(emb_ds, ray_session):
    from indexer_ray.pipelines.dedup import (
        embedding_pairs_brute,
        embedding_pairs_ds,
        pairs_frame,
    )

    brute = embedding_pairs_brute(emb_ds, cosine_threshold=0.9)
    lsh = pairs_frame(embedding_pairs_ds(emb_ds, cosine_threshold=0.9, n_planes=8), "cosine")
    bset = set(zip(brute["vec_a"], brute["vec_b"]))
    lset = set(zip(lsh["vec_a"], lsh["vec_b"])) if len(lsh) else set()
    # LSH returns a subset of the true pairs (no false positives after verify)
    assert lset <= bset
    if bset:
        assert len(lset) / len(bset) >= 0.3  # sane recall on this data


def test_embedding_lsh_multitable_recall(ray_session):
    """Multi-table LSH fixes the single-table recall cliff at the
    threshold: recall 1-(1-p^k)^L vs p^k.  Measured on injected near-dups
    (cos ~0.95): 1 table ~0.7, 4 tables >=0.9."""
    import pyarrow as pa
    import ray.data as rd

    from indexer_ray.pipelines.dedup import (
        embedding_pairs_brute,
        embedding_pairs_ds,
        pairs_frame,
    )

    rng = np.random.default_rng(2)
    X = rng.standard_normal((300, 32))
    dup = np.array([X[i] + rng.standard_normal(32) * 0.12 for i in range(40)])
    X = np.vstack([X, dup])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(len(X)), type=pa.int64()),
            "embedding": pa.array([r.tolist() for r in X], type=pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(t)
    brute = embedding_pairs_brute(ds, cosine_threshold=0.9)
    bset = set(zip(brute["vec_a"], brute["vec_b"]))
    assert len(bset) >= 30
    # the reference does not depend on row order: vec_a < vec_b always
    rev = rd.from_arrow(t.take(np.arange(len(X))[::-1]))
    pd.testing.assert_frame_equal(embedding_pairs_brute(rev, cosine_threshold=0.9), brute)

    def recall(n_tables):
        lsh = pairs_frame(
            embedding_pairs_ds(ds, cosine_threshold=0.9, n_planes=12, n_tables=n_tables),
            "cosine",
        )
        lset = set(zip(lsh["vec_a"], lsh["vec_b"])) if len(lsh) else set()
        assert lset <= bset  # verify step: no false positives
        return len(lset & bset) / len(bset)

    r1, r4 = recall(1), recall(4)
    assert r4 >= r1
    assert r4 >= 0.9


def test_ann_brute_topk(emb_ds, ray_session):
    import pyarrow.parquet as pq

    from indexer_ray.pipelines.ann import ann_brute_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    X = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    ids = np.asarray(t.column("vec_id").to_pylist())
    Q = X[:3]  # first three vectors as queries
    got = ann_brute_topk(emb_ds, Q, k=5)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Qn @ Xn.T
    for qi in range(3):
        order = np.lexsort((ids, -sims[qi]))[:5]
        expect_ids = ids[order].tolist()
        g = got[got["query_id"] == qi].sort_values("rank")
        assert g["vec_id"].tolist() == expect_ids
        assert g["cosine"].to_numpy() == pytest.approx(sims[qi][order], rel=1e-9)
        # self-match first with cosine ~1
        assert g.iloc[0]["vec_id"] == ids[qi]
        assert g.iloc[0]["cosine"] == pytest.approx(1.0)


def test_ann_lsh_recall(emb_ds, ray_session):
    import pyarrow.parquet as pq

    from indexer_ray.pipelines.ann import ann_brute_topk, ann_lsh_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    Q = np.stack(t.column("embedding").to_pylist()[:5]).astype(np.float64)
    brute = ann_brute_topk(emb_ds, Q, k=5)
    lsh = ann_lsh_topk(emb_ds, Q, k=5, n_planes=6, multiprobe=2)
    recalls = []
    for qi in range(5):
        b = set(brute[brute["query_id"] == qi]["vec_id"])
        l = set(lsh[lsh["query_id"] == qi]["vec_id"])
        recalls.append(len(b & l) / len(b))
    assert np.mean(recalls) >= 0.5, recalls


def test_ann_ivf_recall(emb_ds, ray_session):
    import pyarrow.parquet as pq

    from indexer_ray.pipelines.ann import ann_brute_topk, ann_ivf_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    Q = np.stack(t.column("embedding").to_pylist()[:5]).astype(np.float64)
    brute = ann_brute_topk(emb_ds, Q, k=5)
    ivf = ann_ivf_topk(emb_ds, Q, k=5, n_centroids=8, nprobe=3, sample_size=300)
    recalls = []
    for qi in range(5):
        b = set(brute[brute["query_id"] == qi]["vec_id"])
        v = set(ivf[ivf["query_id"] == qi]["vec_id"])
        recalls.append(len(b & v) / len(b))
    assert np.mean(recalls) >= 0.6, recalls
    # each query's own vector lives in its top probe cell -> rank 0 exact
    for qi in range(5):
        g = ivf[ivf["query_id"] == qi].sort_values("rank")
        assert len(g) and g.iloc[0]["cosine"] == pytest.approx(1.0)


def test_token_stats_and_term_stats(docs_ds, docs_pdf, ray_session):
    from indexer_ray.conformance.lexer import tokenize_plain
    from indexer_ray.pipelines.text_analysis import doc_token_stats, term_stats

    got = doc_token_stats(docs_ds).to_pandas().set_index("doc_id")
    for doc_id, text in zip(docs_pdf["doc_id"].head(20), docs_pdf["text"].head(20)):
        toks = tokenize_plain(text)
        assert got.loc[doc_id, "n_tokens"] == len(toks)
        assert got.loc[doc_id, "n_unique"] == len(set(toks))

    ts = term_stats(docs_ds).to_pandas().set_index("term")
    from collections import Counter

    df, cf = Counter(), Counter()
    for text in docs_pdf["text"]:
        toks = tokenize_plain(text)
        cf.update(toks)
        df.update(set(toks))
    assert len(ts) == len(df)
    for term in list(df)[:30]:
        assert ts.loc[term, "df"] == df[term]
        assert ts.loc[term, "cf"] == cf[term]


def test_language_id(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import language_id

    df = pd.DataFrame(
        {
            "doc_id": list(range(1, 12)),
            "text": [
                "the cat and the dog went to the park and it was good",
                "der Hund und die Katze sind nicht mit dem Mann",
                "le chat et le chien sont dans la maison pour une fête",
                "el perro y el gato no es una casa con los amigos",
                "这是一个中文文档 包含很多汉字内容",
                "il gatto non è nel giardino ma sono più che contento anche come gli altri",
                "você não foi para casa com os amigos mas já são mais dos que pelo menos",
                "de hond en het huis zijn niet voor een man maar ook naar de stad met hem",
                "собака и кошка находятся в доме рядом с парком",
                "これはテストのドキュメントです、ひらがなとカタカナ",
                "이것은 한국어 문서입니다 테스트를 위한 것입니다",
            ],
        }
    )
    got = language_id(rd.from_pandas(df)).to_pandas().set_index("doc_id")
    assert got.loc[1, "pred_lang"] == "en"
    assert got.loc[2, "pred_lang"] == "de"
    assert got.loc[3, "pred_lang"] == "fr"
    assert got.loc[4, "pred_lang"] == "es"
    assert got.loc[5, "pred_lang"] == "zh"
    assert got.loc[6, "pred_lang"] == "it"
    assert got.loc[7, "pred_lang"] == "pt"
    assert got.loc[8, "pred_lang"] == "nl"
    assert got.loc[9, "pred_lang"] == "ru"
    assert got.loc[10, "pred_lang"] == "ja"
    assert got.loc[11, "pred_lang"] == "ko"


def test_quality_and_fingerprints(docs_ds, docs_pdf, ray_session):
    from indexer_ray.pipelines.text_analysis import fingerprints, quality_scores

    q = quality_scores(docs_ds).to_pandas()
    assert (q["n_chars"] == docs_pdf.sort_values("doc_id")["n_chars"].values).all() or set(
        zip(q["doc_id"], q["n_chars"])
    ) == set(zip(docs_pdf["doc_id"], docs_pdf["n_chars"]))
    assert ((q["stopword_ratio"] >= 0) & (q["stopword_ratio"] <= 1)).all()
    fp = fingerprints(docs_ds).to_pandas()
    # deterministic + injective on this corpus (distinct texts)
    fp2 = fingerprints(docs_ds).to_pandas()
    assert fp.sort_values("doc_id").equals(fp2.sort_values("doc_id"))
    assert fp["fingerprint"].nunique() == len(fp)


def test_multimodal_plumbing(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.multimodal import (
        MediaDecodeStage,
        decode_features,
        sample_frames,
        synth_media_table,
    )

    media = rd.from_arrow(synth_media_table(50, seed=42))
    feats = decode_features(media, decoder="fake", feat_dim=16).to_pandas()
    assert len(feats) == 50
    assert feats["ok"].all()
    assert all(len(f) == 16 for f in feats["feature"])
    # deterministic
    feats2 = decode_features(rd.from_arrow(synth_media_table(50, seed=42)), "fake", 16).to_pandas()
    assert feats.sort_values("media_id")["n_bytes"].tolist() == feats2.sort_values("media_id")["n_bytes"].tolist()
    frames = sample_frames(media, n_frames=4).to_pandas()
    assert len(frames) == 200
    assert set(frames["frame_idx"]) == {0, 1, 2, 3}
    # decoder="real" now exists (BMP/PPM/WAV); unknown names still rejected
    with pytest.raises(ValueError):
        MediaDecodeStage(decoder="imaginary")


def test_media_resize(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.multimodal import resize_media, synth_media_table

    media = rd.from_arrow(synth_media_table(50, seed=42))
    out = resize_media(media, width=8, height=8).to_pandas()
    assert len(out) == 50
    assert (out["width"] == 8).all() and (out["height"] == 8).all()
    assert all(len(p) == 64 for p in out["payload"])
    # deterministic: same input -> same resized bytes
    out2 = resize_media(rd.from_arrow(synth_media_table(50, seed=42)), width=8, height=8).to_pandas()
    assert list(out["payload"]) == list(out2["payload"])


def test_winnow_spec_and_guarantee():
    """Vectorized winnowing equals the loop spec; the substring guarantee
    (shared run of >= w+k-1 tokens -> >= 1 shared fingerprint) holds."""
    from indexer_ray.pipelines.dedup import _kgram_hashes, _winnow

    rng = np.random.default_rng(9)
    toks = [f"t{v}" for v in rng.integers(0, 50, size=200)]
    k, w = 5, 4
    kg = _kgram_hashes(toks, k)
    got = _winnow(kg, w)
    brute = set()
    for s in range(len(kg) - w + 1):
        brute.add(int(kg[s : s + w].min()))
    assert set(int(x) for x in got) == brute
    # guarantee: doc B embeds a (w+k-1)-token run of doc A
    run = toks[50 : 50 + w + k - 1]
    other = [f"z{i}" for i in range(60)]
    b_toks = other[:30] + run + other[30:]
    fa = set(int(x) for x in _winnow(_kgram_hashes(toks, k), w))
    fb = set(int(x) for x in _winnow(_kgram_hashes(b_toks, k), w))
    assert fa & fb


def test_winnow_dup_pairs(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from indexer_ray.pipelines.dedup import pairs_frame, winnow_pairs_ds

    rng = np.random.default_rng(12)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    for i in range(60):
        texts.append(" ".join(rng.choice(vocab, size=80)))
    # doc 60 copies a 30-token run from doc 3; doc 61 is unrelated
    run = texts[3].split()[10:40]
    texts.append(" ".join(list(rng.choice(vocab, size=40)) + run))
    texts.append(" ".join(rng.choice(vocab, size=80)))
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    pairs = pairs_frame(winnow_pairs_ds(rd.from_arrow(t), k=5, w=4, min_shared=2), "n_shared")
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (3, 60) in got
    assert not any(61 in p for p in got)


def _make_bmp(px: np.ndarray) -> bytes:
    from indexer_ray.pipelines.multimodal import encode_bmp

    return encode_bmp(px)


def test_real_decoders_roundtrip():
    import io
    import wave

    from indexer_ray.pipelines.multimodal import decode_bmp, decode_ppm, decode_wav

    rng = np.random.default_rng(8)
    px = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
    got = decode_bmp(_make_bmp(px))
    assert got is not None and (got == px).all()

    ppm = b"P6\n# comment\n3 2\n255\n" + px[:2, :, :].tobytes()
    got = decode_ppm(ppm)
    assert got is not None and (got == px[:2]).all()

    samples = (np.sin(np.linspace(0, 20, 400)) * 20000).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(8000)
        f.writeframes(samples.tobytes())
    got = decode_wav(buf.getvalue())
    assert got is not None
    assert np.allclose(got, samples.astype(np.float32) / 32768.0)

    assert decode_bmp(b"nope") is None
    assert decode_ppm(b"P5 1 1 255 x") is None
    assert decode_wav(b"RIFFxxxxWAVE") is None


def test_decode_features_real_path(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.multimodal import MEDIA_SCHEMA, decode_features

    rng = np.random.default_rng(9)
    payloads = [
        _make_bmp(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)),
        _make_bmp(rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)),
        b"\x89PNG not decodable here",  # unsupported codec -> ok=False
    ]
    t = pa.table(
        {
            "media_id": pa.array([0, 1, 2], type=pa.int64()),
            "kind": pa.array(["image"] * 3),
            "payload": pa.array(payloads, type=pa.large_binary()),
            "mime": pa.array(["image/bmp", "image/bmp", "image/png"]),
            "width": pa.array([8, 6, -1], type=pa.int32()),
            "height": pa.array([8, 4, -1], type=pa.int32()),
            "duration_ms": pa.array([-1] * 3, type=pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )
    out = (
        decode_features(rd.from_arrow(t), decoder="real", feat_dim=8)
        .to_pandas()
        .sort_values("media_id")
    )
    assert out["ok"].tolist() == [True, True, False]
    feats = np.stack(out["feature"].to_numpy()[:2])
    assert np.isfinite(feats).all() and (feats > 0).any()


def test_resize_real_path(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.multimodal import (
        MEDIA_SCHEMA,
        decode_ppm,
        resize_media,
    )

    rng = np.random.default_rng(10)
    src = rng.integers(0, 256, size=(16, 12, 3), dtype=np.uint8)
    t = pa.table(
        {
            "media_id": pa.array([0, 1], type=pa.int64()),
            "kind": pa.array(["image", "image"]),
            "payload": pa.array([_make_bmp(src), b"garbage"], type=pa.large_binary()),
            "mime": pa.array(["image/bmp", "application/octet-stream"]),
            "width": pa.array([12, -1], type=pa.int32()),
            "height": pa.array([16, -1], type=pa.int32()),
            "duration_ms": pa.array([-1, -1], type=pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )
    out = (
        resize_media(rd.from_arrow(t), width=4, height=4, decoder="real")
        .to_pandas()
        .sort_values("media_id")
    )
    resized = decode_ppm(out.iloc[0]["payload"])
    assert resized.shape == (4, 4, 3)
    # nearest-neighbor: every output pixel exists in the source
    assert all(
        (src == resized[r, c]).all(axis=2).any()
        for r in range(4)
        for c in range(4)
    )
    assert out.iloc[1]["payload"] == b""  # undecodable -> empty


def test_minhash_pairs_ds_join_path_no_driver_materialization(ray_session, docs_pdf):
    """The distributed-join verify path (broadcast_pairs_threshold=0) must
    produce the same pairs as the broadcast path WITHOUT ever collecting
    the pair set on the driver (VERDICT r2 #1)."""
    import ray.data as rd

    from indexer_ray.pipelines import dedup

    near = docs_pdf.head(8).copy()
    near["doc_id"] = near["doc_id"] + 200_000
    near["text"] = near["text"] + " extra tail token"
    both = pd.concat([docs_pdf, near], ignore_index=True)
    ds = rd.from_pandas(both)

    want = dedup.pairs_frame(  # driver regime
        dedup.minhash_pairs_ds(ds, jaccard_threshold=0.5), "jaccard"
    )

    real_to_pandas = rd.Dataset.to_pandas
    real_take_all = rd.Dataset.take_all

    def _boom(self, *a, **k):
        raise AssertionError("driver-side pair materialization in ds path")

    rd.Dataset.to_pandas = _boom
    rd.Dataset.take_all = _boom
    try:
        out_ds = dedup.minhash_pairs_ds(
            ds, jaccard_threshold=0.5, broadcast_pairs_threshold=0
        )
        frames = list(out_ds.iter_batches(batch_format="pandas"))
    finally:
        rd.Dataset.to_pandas = real_to_pandas
        rd.Dataset.take_all = real_take_all
    got = pd.concat(frames, ignore_index=True)
    got = (
        got[got["truncated"] == 0][["doc_a", "doc_b", "jaccard"]]
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_pairs_ds_counter_rows_surface_truncation(ray_session):
    """Truncation counters flow through the Dataset APIs as counter rows
    (VERDICT r2 #10: no-silent-caps in the distributed output path)."""
    import ray.data as rd

    from indexer_ray.pipelines import dedup

    n = 12
    t = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": pa.array(["identical text body shared by every doc here"] * n),
        }
    )
    out = dedup.minhash_pairs_ds(rd.from_arrow(t), max_bucket=5).to_pandas()
    counters = out[out["truncated"] > 0]
    assert len(counters) == 1 and counters.iloc[0]["doc_a"] == -1
    assert counters.iloc[0]["truncated"] >= n  # every band bucket truncated
    assert out[out["truncated"] == 0].empty  # nothing slipped through silently

    out2 = dedup.simhash_pairs_ds(rd.from_arrow(t), max_bucket=5).to_pandas()
    c2 = out2[out2["truncated"] > 0]
    assert len(c2) == 1 and c2.iloc[0]["truncated"] >= n

    out3 = dedup.winnow_pairs_ds(rd.from_arrow(t), max_bucket=5).to_pandas()
    assert (out3["truncated"] > 0).any()


def test_ngram_jaccard_accepts_pairs_dataset(ray_session, docs_pdf):
    """ngram_jaccard_pairs verifies an externally-computed candidate set
    passed as a Ray Dataset (fully distributed routing) identically to the
    pandas form."""
    import ray.data as rd

    from indexer_ray.pipelines.dedup import ngram_jaccard_pairs

    near = docs_pdf.head(4).copy()
    near["doc_id"] = near["doc_id"] + 400_000
    near["text"] = near["text"] + " tail token x"
    both = pd.concat([docs_pdf, near], ignore_index=True)
    ds = rd.from_pandas(both)
    base = docs_pdf.head(4)["doc_id"].to_numpy()
    pairs_pd = pd.DataFrame({"doc_a": base, "doc_b": base + 400_000})
    want = ngram_jaccard_pairs(ds, pairs=pairs_pd)
    got = ngram_jaccard_pairs(ds, pairs=rd.from_pandas(pairs_pd))
    pd.testing.assert_frame_equal(got, want)
    assert len(got) == 4 and (got["jaccard"] > 0.5).all()


def test_dup_clusters_union_find_known_components():
    from indexer_ray.pipelines.dedup import _union_find_clusters, dup_clusters

    # components: {1,2,3,7}, {10,11}, chain {20,21,22}; counter row ignored
    pairs = pd.DataFrame(
        {
            "doc_a": [2, 3, 7, 10, 21, 20, -1],
            "doc_b": [1, 2, 3, 11, 22, 21, -1],
        }
    )
    got = dup_clusters(pairs)  # pandas in -> pandas out (union-find)
    want = {1: 1, 2: 1, 3: 1, 7: 1, 10: 10, 11: 10, 20: 20, 21: 20, 22: 20}
    assert dict(zip(got["doc_id"], got["cluster_id"])) == want
    assert got.equals(_union_find_clusters(pairs[pairs.doc_a >= 0]))


def test_dup_clusters_distributed_matches_union_find(ray_session):
    """Hash-min label propagation (threshold=0 forces the distributed
    path) must match driver union-find on a random graph with long chains
    (propagation depth > 1 round)."""
    import ray.data as rd

    from indexer_ray.pipelines.dedup import _union_find_clusters, dup_clusters

    rng = np.random.default_rng(11)
    # 40 random edges over 60 vertices + one 12-vertex chain (diameter 11)
    a = rng.integers(0, 60, size=40)
    b = rng.integers(0, 60, size=40)
    chain = np.arange(100, 112)
    pairs = pd.DataFrame(
        {
            "doc_a": np.r_[a, chain[:-1]].astype("int64"),
            "doc_b": np.r_[b, chain[1:]].astype("int64"),
        }
    )
    pairs = pairs[pairs.doc_a != pairs.doc_b].reset_index(drop=True)
    want = _union_find_clusters(pairs)
    got = (
        dup_clusters(rd.from_pandas(pairs), threshold=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    pd.testing.assert_frame_equal(got, want)


def test_drop_duplicates_ds(ray_session, docs_pdf):
    """Pairs -> clusters -> corpus filter: only canonical keepers of each
    injected duplicate cluster survive; untouched docs all survive."""
    import ray.data as rd

    from indexer_ray.pipelines.dedup import (
        drop_duplicates_ds,
        dup_clusters,
        minhash_pairs_ds,
        pairs_frame,
    )

    near = docs_pdf.head(6).copy()
    near["doc_id"] = near["doc_id"] + 500_000
    near["text"] = near["text"] + " extra tail token"
    both = pd.concat([docs_pdf, near], ignore_index=True)
    ds = rd.from_pandas(both)
    pairs = pairs_frame(minhash_pairs_ds(ds, jaccard_threshold=0.5), "jaccard")
    clusters = dup_clusters(pairs)
    kept = drop_duplicates_ds(ds, clusters).to_pandas()
    kept_ids = set(kept["doc_id"])
    # every injected copy (the larger id of its pair) is gone
    for i in docs_pdf.head(6)["doc_id"]:
        assert i in kept_ids and (i + 500_000) not in kept_ids
    # nothing outside the clusters was dropped
    clustered = set(clusters["doc_id"])
    assert kept_ids == set(both["doc_id"]) - (clustered - set(clusters["cluster_id"]))


def test_simhash_and_winnow_ds_distributed_dedup_regime(ray_session, docs_pdf):
    """Forcing broadcast_pairs_threshold=0 routes every pair dedup and the
    minhash verify join through their DISTRIBUTED regime; the output of
    all five pair families must equal the driver regime's exactly, the
    truncation counter row included (max_bucket=4 truncates the bucket of
    five identical docs / vectors)."""
    import ray.data as rd

    from indexer_ray.pipelines import dedup

    near = docs_pdf.head(4).copy()
    near["doc_id"] = near["doc_id"] + 300_000
    near["text"] = near["text"] + " tail"
    same = docs_pdf.iloc[[10] * 4].copy()
    same["doc_id"] = 400_000 + np.arange(4)
    ds = rd.from_pandas(pd.concat([docs_pdf, near, same], ignore_index=True))
    probe = rd.from_pandas(docs_pdf.iloc[[1, 10]][["doc_id", "text"]])

    rng = np.random.default_rng(3)
    X = pq.read_table(f"{SF}/embeddings.parquet").column("embedding").to_pylist()
    X = np.asarray(X, dtype=np.float64)
    X = np.vstack([X, X[:4] + rng.standard_normal((4, X.shape[1])) * 0.01, [X[10]] * 4])
    emb = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(X)), type=pa.int64()),
                "embedding": pa.array(X.tolist(), type=pa.list_(pa.float64())),
            }
        )
    )

    families = {
        "minhash": lambda **kw: dedup.minhash_pairs_ds(ds, **kw),
        "simhash": lambda **kw: dedup.simhash_pairs_ds(ds, **kw),
        "embedding": lambda **kw: dedup.embedding_pairs_ds(emb, **kw),
        "winnow": lambda **kw: dedup.winnow_pairs_ds(ds, **kw),
        "cross_corpus": lambda **kw: dedup.cross_corpus_overlap_ds(ds, probe, **kw),
    }
    # max_bucket=1 truncates every bucket: the counter row alone, and an
    # empty verify join for minhash
    for (name, fn), max_bucket in itertools.product(families.items(), (4, 1)):
        a = fn(max_bucket=max_bucket).to_pandas()
        b = fn(max_bucket=max_bucket, broadcast_pairs_threshold=0).to_pandas()
        a = a.sort_values(list(a.columns)).reset_index(drop=True)
        b = b.sort_values(list(b.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, obj=f"{name} max_bucket={max_bucket}")
        assert (a["truncated"] > 0).sum() == 1, name
        assert (a["truncated"] == 0).any() == (max_bucket == 4), name


@pytest.mark.parametrize(
    "family", ["minhash", "simhash", "embedding", "winnow", "cross_corpus"]
)
def test_pair_families_keep_schema_on_empty_input(ray_session, family):
    import ray.data as rd

    from indexer_ray.pipelines import dedup

    docs = rd.read_parquet(f"{SF}/documents.parquet").filter(expr="doc_id < 0")
    emb = rd.read_parquet(f"{SF}/embeddings.parquet").filter(expr="vec_id < 0")
    run, names = {
        "minhash": (lambda: dedup.minhash_pairs_ds(docs), ["doc_a", "doc_b", "jaccard"]),
        "simhash": (lambda: dedup.simhash_pairs_ds(docs), ["doc_a", "doc_b", "hamming"]),
        "embedding": (lambda: dedup.embedding_pairs_ds(emb), ["vec_a", "vec_b", "cosine"]),
        "winnow": (lambda: dedup.winnow_pairs_ds(docs), ["doc_a", "doc_b", "n_shared"]),
        "cross_corpus": (
            lambda: dedup.cross_corpus_overlap_ds(docs, docs),
            ["doc_id", "probe_id", "n_shared"],
        ),
    }[family]
    out = run()
    assert out.count() == 0
    assert out.schema().names == names + ["truncated"]


def test_cross_corpus_decontamination(ray_session):
    """Corpus docs containing a verbatim benchmark sentence are detected
    (winnowing guarantee: any shared run >= w+k-1 tokens shares a
    fingerprint) and removed by the LEFT ANTI join; clean docs survive."""
    import ray.data as rd

    from indexer_ray.pipelines.dedup import cross_corpus_overlap_ds, decontaminate_ds

    rng = np.random.default_rng(5)
    vocab = [f"tok{i}" for i in range(5000)]
    bench_sents = [
        " ".join(rng.choice(vocab, size=12)) for _ in range(10)
    ]  # 12 >= w+k-1 = 8
    probe = pd.DataFrame({"doc_id": range(10), "text": bench_sents})
    docs = []
    for i in range(200):
        body = " ".join(rng.choice(vocab, size=40))
        if i % 20 == 0:  # 10 contaminated docs, one benchmark sentence inside
            body = body + " " + bench_sents[i // 20] + " trailing tokens here"
        docs.append({"doc_id": 1000 + i, "text": body})
    corpus = pd.DataFrame(docs)
    corpus_ds = rd.from_pandas(corpus)
    probe_ds = rd.from_pandas(probe)

    overlaps = cross_corpus_overlap_ds(corpus_ds, probe_ds, min_shared=2).to_pandas()
    hits = overlaps[overlaps["truncated"] == 0]
    contaminated = {1000 + i for i in range(0, 200, 20)}
    assert set(hits["doc_id"]) == contaminated
    # each hit points at the right benchmark row
    for _, r in hits.iterrows():
        assert r["probe_id"] == (r["doc_id"] - 1000) // 20

    clean, _ = decontaminate_ds(corpus_ds, probe_ds, min_shared=2)
    kept = set(clean.to_pandas()["doc_id"])
    assert kept == set(corpus["doc_id"]) - contaminated


def test_pack_sequences_invariants_and_greedy_oracle(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import pack_sequences

    rng = np.random.default_rng(9)
    n = 400
    toks = rng.integers(5, 60, size=n)
    toks[37] = 500  # oversized doc > budget
    texts = [" ".join(["w"] * int(k)) for k in toks]
    df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"), "text": texts})
    ds = rd.from_pandas(df)
    budget = 128
    out = pack_sequences(ds, budget=budget, n_parts=8).to_pandas().sort_values("doc_id")
    # every doc assigned exactly once, token counts correct
    assert out["doc_id"].tolist() == list(range(n))
    assert (out["n_tokens"].to_numpy() == toks).all()
    # no pack exceeds budget except single-doc oversized packs
    g = out.groupby("pack_id").agg(total=("n_tokens", "sum"), k=("doc_id", "size"))
    over = g[g["total"] > budget]
    assert (over["k"] == 1).all()
    # pack totals column consistent
    assert (out.groupby("pack_id")["pack_tokens"].nunique() == 1).all()
    assert (out.groupby("pack_id")["n_tokens"].sum() == out.groupby("pack_id")["pack_tokens"].first()).all()
    # packs are contiguous doc runs named by their first doc
    firsts = out.groupby("pack_id")["doc_id"].min()
    assert (firsts.index.to_numpy() == firsts.to_numpy()).all()
    # single-slice result matches a reference greedy scan exactly
    one = pack_sequences(ds, budget=budget, n_parts=1).to_pandas().sort_values("doc_id")
    expect_pack = []
    cur_first, cur_total = 0, 0
    for d, k in zip(range(n), toks):
        if cur_total and cur_total + k > budget:
            cur_first, cur_total = d, 0
        cur_total += int(k)
        expect_pack.append(cur_first)
    assert one["pack_id"].tolist() == expect_pack
    # deterministic across runs
    again = pack_sequences(ds, budget=budget, n_parts=8).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), again.reset_index(drop=True)
    )


def test_hash_split_and_sample(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.sampling import hash_sample, hash_split

    n = 20_000
    t = pa.table({"doc_id": pa.array(np.arange(n), type=pa.int64())})
    ds = rd.from_arrow(t)
    out = hash_split(ds, {"train": 0.8, "val": 0.1, "test": 0.1}).to_pandas()
    # exhaustive + disjoint: every row exactly one split
    assert len(out) == n and set(out["split"]) == {"train", "val", "test"}
    frac = out["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.8) < 0.02
    assert abs(frac["val"] - 0.1) < 0.01 and abs(frac["test"] - 0.1) < 0.01
    # deterministic across runs and layouts
    again = hash_split(ds.repartition(7), {"train": 0.8, "val": 0.1, "test": 0.1}).to_pandas()
    assert dict(zip(out["doc_id"], out["split"])) == dict(zip(again["doc_id"], again["split"]))
    # nested samples: the 5% sample is a subset of the 20% sample
    s5 = set(hash_sample(ds, 0.05).to_pandas()["doc_id"])
    s20 = set(hash_sample(ds, 0.20).to_pandas()["doc_id"])
    assert s5 <= s20
    assert abs(len(s5) / n - 0.05) < 0.01 and abs(len(s20) / n - 0.20) < 0.02
    # fraction sanity errors
    import pytest as _pytest

    with _pytest.raises(ValueError):
        hash_split(ds, {"a": 0.7, "b": 0.6})
    with _pytest.raises(ValueError):
        hash_split(ds, {})


def test_chunk_documents_known_windows(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import chunk_documents

    toks = [f"t{i}" for i in range(10)]
    df = pd.DataFrame(
        {
            "doc_id": pd.array([1, 2, 3], dtype="int64"),
            "text": [" ".join(toks), "solo", ""],
        }
    )
    out = (
        chunk_documents(rd.from_pandas(df), size=4, overlap=1)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    # stride 3: chunks [0:4) [3:7) [6:10) [9:10)
    d1 = out[out["doc_id"] == 1]
    assert d1["chunk_idx"].tolist() == [0, 1, 2, 3]
    assert d1["chunk_text"].tolist() == [
        "t0 t1 t2 t3",
        "t3 t4 t5 t6",
        "t6 t7 t8 t9",
        "t9",
    ]
    assert d1["n_tokens"].tolist() == [4, 4, 4, 1]
    d2 = out[out["doc_id"] == 2]
    assert d2["chunk_text"].tolist() == ["solo"]
    assert (out["doc_id"] == 3).sum() == 0  # empty doc -> no rows


def test_chunk_documents_consecutive_chunks_share_overlap(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import chunk_documents

    rng = np.random.default_rng(5)
    texts = {
        i: " ".join(f"w{rng.integers(0, 50)}_{j}" for j in range(rng.integers(0, 60)))
        for i in range(40)
    }
    df = pd.DataFrame(
        {"doc_id": pd.array(list(texts), dtype="int64"), "text": list(texts.values())}
    )
    size, overlap = 16, 4
    out = chunk_documents(rd.from_pandas(df), size=size, overlap=overlap).to_pandas()
    stride = size - overlap
    for did, g in out.groupby("doc_id"):
        g = g.sort_values("chunk_idx")
        toks = texts[did].split()
        assert g["chunk_idx"].tolist() == list(range(len(g)))
        for _, r in g.iterrows():
            lo = r["chunk_idx"] * stride
            assert r["chunk_text"].split() == toks[lo : lo + size]
            assert r["n_tokens"] == len(toks[lo : lo + size])
    # every doc with tokens covered
    assert set(out["doc_id"]) == {d for d, t in texts.items() if t.split()}


def test_chunk_documents_overlap_must_be_smaller(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import chunk_documents

    df = pd.DataFrame({"doc_id": pd.array([1], dtype="int64"), "text": ["x"]})
    with pytest.raises(ValueError):
        chunk_documents(rd.from_pandas(df), size=8, overlap=8)


# ---------------------------------------------------------- DSIR weights
def _brute_dsir(corpus: dict[int, str], target: list[str], B: int) -> pd.DataFrame:
    import hashlib

    def feats(text):
        toks = (text or "").lower().split()
        c = {}
        prev = None
        for tok in toks:
            for s in ([tok] if prev is None else [tok, prev + " " + tok]):
                h = int.from_bytes(
                    hashlib.blake2b(s.encode(), digest_size=8).digest(), "big"
                ) % B
                c[h] = c.get(h, 0) + 1
            prev = tok
        return c

    tgt = np.zeros(B)
    for t in target:
        for b, n in feats(t).items():
            tgt[b] += n
    src = np.zeros(B)
    for t in corpus.values():
        for b, n in feats(t).items():
            src[b] += n
    lr = np.log((tgt + 1) / (tgt.sum() + B)) - np.log((src + 1) / (src.sum() + B))
    lr_q = np.floor(lr * 1e6 + 0.5).astype(np.int64)
    rows = []
    for did in sorted(corpus):
        c = feats(corpus[did])
        rows.append(
            (did, sum(c.values()), int(sum(n * int(lr_q[b]) for b, n in c.items())))
        )
    return pd.DataFrame(rows, columns=["doc_id", "n_features", "logw_q"]).astype(
        {"doc_id": "int64", "n_features": "int64", "logw_q": "int64"}
    )


def test_dsir_weights_match_brute_and_rank_target_like_docs(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import dsir_weights

    rng = np.random.default_rng(51)
    web = [f"junk{i}" for i in range(30)]
    sci = ["theorem", "proof", "lemma", "tensor", "gradient", "matrix"]
    corpus = {}
    for i in range(60):
        vocab = sci if i % 3 == 0 else web
        corpus[i] = " ".join(rng.choice(vocab, size=20))
    target = [" ".join(rng.choice(sci, size=25)) for _ in range(10)]
    B = 512

    df = pd.DataFrame(
        {"doc_id": pd.array(sorted(corpus), dtype="int64"),
         "text": [corpus[k] for k in sorted(corpus)]}
    )
    tgt_df = pd.DataFrame(
        {"doc_id": pd.array(range(len(target)), dtype="int64"), "text": target}
    )
    got = (
        dsir_weights(rd.from_pandas(df), rd.from_pandas(tgt_df), n_buckets=B)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_features": "int64", "logw_q": "int64"})
    )
    pd.testing.assert_frame_equal(got, _brute_dsir(corpus, target, B))
    # every science-vocab doc must outweigh every web-vocab doc
    sci_w = got[got["doc_id"] % 3 == 0]["logw_q"]
    web_w = got[got["doc_id"] % 3 != 0]["logw_q"]
    assert sci_w.min() > web_w.max()


def test_dsir_weights_deterministic_across_layouts(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import dsir_weights

    rng = np.random.default_rng(52)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(100, dtype=np.int64),
            "text": [" ".join(rng.choice([f"t{i}" for i in range(40)], size=15))
                     for _ in range(100)],
        }
    )
    tgt = df.head(10)[["doc_id", "text"]]
    a = (
        dsir_weights(rd.from_pandas(df), rd.from_pandas(tgt), n_buckets=256)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        dsir_weights(
            rd.from_pandas(df.sample(frac=1.0, random_state=3)).repartition(7),
            rd.from_pandas(tgt).repartition(3),
            n_buckets=256,
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


# ------------------------------------------------------- bigram-LM NLL
def _brute_bigram_nll(texts: dict[int, str]) -> pd.DataFrame:
    from collections import Counter

    from indexer_ray.conformance.lexer import tokenize_plain

    c12: Counter = Counter()
    c1: Counter = Counter()
    per_doc: dict[int, Counter] = {}
    for did in sorted(texts):
        toks = tokenize_plain(texts[did] or "")
        bg = Counter(zip(toks[:-1], toks[1:]))
        if bg:
            per_doc[did] = bg
            c12.update(bg)
            for (a, _), n in bg.items():
                c1[a] += n
    q = lambda x: int(np.floor(np.log(x) * 1e6 + 0.5))
    rows = []
    for did, bg in per_doc.items():
        s = sum(n * (q(c1[a]) - q(c12[(a, b)])) for (a, b), n in bg.items())
        rows.append((did, sum(bg.values()), s))
    return pd.DataFrame(rows, columns=["doc_id", "n_bigrams", "nll2_q"]).astype(
        {"doc_id": "int64", "n_bigrams": "int64", "nll2_q": "int64"}
    )


def test_doc_bigram_nll_matches_brute(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import doc_bigram_nll

    rng = np.random.default_rng(71)
    vocab = [f"w{i}" for i in range(25)]
    texts = {
        i: " ".join(rng.choice(vocab, size=int(rng.integers(0, 30))))
        for i in range(150)
    }
    df = pd.DataFrame(
        {"doc_id": pd.array(sorted(texts), dtype="int64"),
         "text": [texts[k] for k in sorted(texts)]}
    )
    got = (
        doc_bigram_nll(rd.from_pandas(df), n_parts=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_bigrams": "int64", "nll2_q": "int64"})
    )
    pd.testing.assert_frame_equal(got, _brute_bigram_nll(texts))
    assert (got["nll2_q"] >= 0).all()  # MLE NLL is non-negative


def test_doc_bigram_nll_layout_independent(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import doc_bigram_nll

    rng = np.random.default_rng(72)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(80, dtype=np.int64),
            "text": [" ".join(rng.choice([f"v{i}" for i in range(15)], size=12))
                     for _ in range(80)],
        }
    )
    a = (doc_bigram_nll(rd.from_pandas(df), n_parts=4).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (doc_bigram_nll(rd.from_pandas(df.sample(frac=1.0, random_state=1)).repartition(5),
                        n_parts=16).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


# --------------------------------------------- interpolated trigram NLL
def _brute_trigram_nll(texts: dict[int, str]) -> pd.DataFrame:
    """Single-process reimplementation of the Jelinek-Mercer score with
    the SAME fixed expression order (0.5*p3 + 0.3*p2 + 0.2*p1)."""
    from collections import Counter

    from indexer_ray.conformance.lexer import tokenize_plain

    c123: Counter = Counter()
    c12: Counter = Counter()
    c23: Counter = Counter()
    c2: Counter = Counter()
    c3: Counter = Counter()
    per_doc: dict[int, Counter] = {}
    for did in sorted(texts):
        toks = tokenize_plain(texts[did] or "")
        tg = Counter(zip(toks[:-2], toks[1:-1], toks[2:]))
        if tg:
            per_doc[did] = tg
            for (a, b, c), n in tg.items():
                c123[(a, b, c)] += n
                c12[(a, b)] += n
                c23[(b, c)] += n
                c2[b] += n
                c3[c] += n
    ntri = float(sum(c123.values()))
    rows = []
    for did, tg in per_doc.items():
        s = 0
        for (a, b, c), n in tg.items():
            pi = (
                0.5 * (np.float64(c123[(a, b, c)]) / np.float64(c12[(a, b)]))
                + 0.3 * (np.float64(c23[(b, c)]) / np.float64(c2[b]))
                + 0.2 * (np.float64(c3[c]) / np.float64(ntri))
            )
            s += -int(np.floor(np.log(pi) * 1e6 + 0.5)) * n
        rows.append((did, sum(tg.values()), s))
    return pd.DataFrame(rows, columns=["doc_id", "n_trigrams", "nll3_q"]).astype(
        {"doc_id": "int64", "n_trigrams": "int64", "nll3_q": "int64"}
    )


def test_doc_trigram_nll_matches_brute(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import doc_trigram_nll

    rng = np.random.default_rng(73)
    vocab = [f"w{i}" for i in range(20)]
    texts = {
        i: " ".join(rng.choice(vocab, size=int(rng.integers(0, 30))))
        for i in range(120)
    }
    df = pd.DataFrame(
        {"doc_id": pd.array(sorted(texts), dtype="int64"),
         "text": [texts[k] for k in sorted(texts)]}
    )
    got = (
        doc_trigram_nll(rd.from_pandas(df), n_parts=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_trigrams": "int64", "nll3_q": "int64"})
    )
    pd.testing.assert_frame_equal(got, _brute_trigram_nll(texts))
    # interpolated p <= 1 always, so the NLL is non-negative
    assert (got["nll3_q"] >= 0).all()


def test_doc_trigram_nll_layout_independent(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import doc_trigram_nll

    rng = np.random.default_rng(74)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(60, dtype=np.int64),
            "text": [" ".join(rng.choice([f"v{i}" for i in range(12)], size=14))
                     for _ in range(60)],
        }
    )
    a = (doc_trigram_nll(rd.from_pandas(df), n_parts=4).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (doc_trigram_nll(rd.from_pandas(df.sample(frac=1.0, random_state=2)).repartition(5),
                         n_parts=16).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_doc_trigram_nll_empty_and_short_docs(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import doc_trigram_nll

    df = pd.DataFrame(
        {"doc_id": np.arange(4, dtype=np.int64),
         "text": ["", "one", "two words", "alpha beta gamma"]}
    )
    out = doc_trigram_nll(rd.from_pandas(df)).to_pandas()
    # only the 3-token doc produces a trigram row
    assert out["doc_id"].tolist() == [3]
    assert out["n_trigrams"].tolist() == [1]


# --------------------------------------------- DSIR probe bucket counts
def test_dsir_probe_bucket_counts_matches_brute(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import (
        dsir_feature_bucket,
        dsir_probe_bucket_counts,
    )

    features = ("alpha", "beta", "gamma", "alpha beta", "beta beta")
    nb = 8
    texts = {
        0: "Alpha beta beta gamma",
        1: "beta BETA beta",
        2: "delta epsilon",
        3: "",
    }
    df = pd.DataFrame(
        {"doc_id": pd.array(sorted(texts), dtype="int64"),
         "text": [texts[k] for k in sorted(texts)]}
    )
    got = (
        dsir_probe_bucket_counts(rd.from_pandas(df), features, n_buckets=nb)
        .to_pandas().sort_values(["doc_id", "bucket"]).reset_index(drop=True)
    )
    from collections import Counter

    rows = []
    for did in sorted(texts):
        toks = texts[did].lower().split()
        c = Counter(toks)
        c.update(map(" ".join, zip(toks, toks[1:])))
        agg: dict[int, int] = {}
        for f in features:
            if c.get(f):
                b = dsir_feature_bucket(f, nb)
                agg[b] = agg.get(b, 0) + c[f]
        for b in sorted(agg):
            rows.append((did, b, agg[b]))
    want = pd.DataFrame(rows, columns=["doc_id", "bucket", "cnt"]).astype("int64")
    pd.testing.assert_frame_equal(got.astype("int64"), want)
    # doc 2 and 3 contain no probe feature -> absent
    assert set(got["doc_id"]) == {0, 1}


def test_build_vocab_matches_brute(ray_session):
    import ray.data as rd

    from indexer_ray.conformance.lexer import tokenize_plain
    from indexer_ray.pipelines.text_analysis import build_vocab

    rng = np.random.default_rng(92)
    vocab = [f"t{i}" for i in range(50)]
    probs = 1.0 / np.arange(1, 51)
    probs /= probs.sum()
    texts = {
        i: " ".join(rng.choice(vocab, size=30, p=probs)) for i in range(200)
    }
    df = pd.DataFrame(
        {"doc_id": pd.array(sorted(texts), dtype="int64"),
         "text": [texts[k] for k in sorted(texts)]}
    )
    from collections import Counter

    cf, dfc = Counter(), Counter()
    for t in texts.values():
        toks = tokenize_plain(t)
        cf.update(toks)
        dfc.update(set(toks))
    want = sorted(
        ((term, dfc[term], c) for term, c in cf.items() if dfc[term] >= 5),
        key=lambda r: (-r[2], r[0]),
    )[:20]
    got = (
        build_vocab(rd.from_pandas(df), size=20, min_df=5)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    assert [(r.term, r.df, r.cf) for r in got.itertuples()] == want
    assert got["rank"].tolist() == list(range(len(want)))


def _semdedup_frame(ds, **kw):
    from indexer_ray.pipelines.dedup import semdedup_keep

    return (
        semdedup_keep(ds, **kw)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )


def test_semdedup_drops_injected_duplicates(ray_session, emb_ds):
    import ray.data as rd

    base = emb_ds.to_pandas()
    dup = base.head(6).copy()
    dup["vec_id"] = dup["vec_id"] + 500_000
    both = pd.concat([base, dup], ignore_index=True)
    out = _semdedup_frame(rd.from_pandas(both), n_clusters=4, threshold=0.99)
    assert len(out) == len(both)
    assert (out["skipped"] == 0).all()
    # each injected exact-duplicate pair keeps exactly one member
    for vid in base.head(6)["vec_id"]:
        pair = out[out["vec_id"].isin([vid, vid + 500_000])]
        assert pair["keep"].sum() == 1, pair
    # greedy invariant: no two kept vectors in one cluster at >= threshold
    kept = out[out["keep"] == 1]
    emb_of = {r.vec_id: np.asarray(r.embedding, dtype=np.float64)
              for r in both.itertuples()}
    for _, grp in kept.groupby("cluster"):
        X = np.stack([emb_of[v] for v in grp["vec_id"]])
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        sims = Xn @ Xn.T
        np.fill_diagonal(sims, 0.0)
        assert sims.max() < 0.99 + 1e-9


def test_semdedup_deterministic_and_threshold_extremes(ray_session, emb_ds):
    a = _semdedup_frame(emb_ds, n_clusters=4, threshold=0.95)
    b = _semdedup_frame(emb_ds, n_clusters=4, threshold=0.95)
    pd.testing.assert_frame_equal(a, b)
    # threshold above any cosine keeps everything
    all_keep = _semdedup_frame(emb_ds, n_clusters=4, threshold=1.1)
    assert (all_keep["keep"] == 1).all()
    # threshold below any cosine keeps exactly one per cluster
    one_per = _semdedup_frame(emb_ds, n_clusters=4, threshold=-1.0)
    per_cluster = one_per.groupby("cluster")["keep"].sum()
    assert (per_cluster == 1).all()


def test_semdedup_oversized_cluster_counter_rows(ray_session, emb_ds):
    out = _semdedup_frame(emb_ds, n_clusters=2, threshold=0.95, max_cluster=1)
    counters = out[out["vec_id"] == -1]
    assert len(counters) >= 1
    assert counters["skipped"].sum() == emb_ds.count()


def test_semdedup_blocked_kernel_matches_naive_greedy(ray_session):
    """A cluster larger than the 1024-row screening block must produce
    the EXACT keep set of the one-row-at-a-time greedy (the blocked
    kernel's equivalence claim)."""
    import ray.data as rd

    rng = np.random.default_rng(41)
    n, d = 3000, 16
    # low-dim crowded ball -> plenty of > threshold neighbors
    X = rng.normal(size=(n, d))
    X[n // 2 :] = X[: n - n // 2] + rng.normal(scale=0.02, size=(n // 2, d))
    df = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": list(X)}
    )
    out = _semdedup_frame(
        rd.from_pandas(df), n_clusters=1, threshold=0.98, sample_size=500
    )
    assert (out["skipped"] == 0).all()
    # naive greedy in the same order the kernel documents
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    srt = out.sort_values("vec_id")
    cos_c = srt["cosine_to_centroid"].to_numpy()
    order = np.lexsort((srt["vec_id"].to_numpy(), cos_c))
    sims = Xn @ Xn.T
    kept_idx: list[int] = []
    keep = np.zeros(n, dtype=np.int64)
    for i in order:
        if not kept_idx or sims[i, kept_idx].max() < 0.98:
            keep[i] = 1
            kept_idx.append(int(i))
    assert (srt["keep"].to_numpy() == keep).all()
    assert 0 < keep.sum() < n  # both branches actually exercised


def _brute_substring_stats(texts: dict, L: int) -> pd.DataFrame:
    from collections import Counter

    counts = Counter()
    for t in texts.values():
        for p in range(len(t) - L + 1):
            counts[t[p : p + L]] += 1
    rows = []
    for doc_id in sorted(texts):
        t = texts[doc_id]
        dup_pos = [
            p for p in range(len(t) - L + 1) if counts[t[p : p + L]] >= 2
        ]
        covered = set()
        for p in dup_pos:
            covered.update(range(p, p + L))
        rows.append(
            {
                "doc_id": doc_id,
                "n_chars": len(t),
                "n_grams": max(len(t) - L + 1, 0),
                "n_dup_grams": len(dup_pos),
                "dup_chars": len(covered),
            }
        )
    return pd.DataFrame(rows).astype("int64")


def test_substring_dup_stats_matches_brute(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import substring_dup_stats

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(400)]
    texts = {}
    for i in range(60):
        texts[i] = " ".join(rng.choice(words, size=40))
    shared = "the quick brown fox jumps over the lazy dog again and again"
    # inject a shared span into three docs, self-repeat into one, and a
    # short doc below the gram length
    texts[3] = texts[3][:50] + shared + texts[3][50:]
    texts[17] = shared + texts[17]
    texts[42] = texts[42] + shared
    texts[9] = texts[9][:30] + "abcdefghij" * 8 + texts[9][30:]
    texts[61] = "short"
    texts[62] = ""
    df = pd.DataFrame(
        {"doc_id": sorted(texts), "text": [texts[k] for k in sorted(texts)]}
    )
    L = 30
    got = (
        substring_dup_stats(rd.from_pandas(df), min_len=L, n_parts=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _brute_substring_stats(texts, L)
    pd.testing.assert_frame_equal(got, want)
    # the injected sharers must show duplicated mass
    by_id = got.set_index("doc_id")
    for d in (3, 17, 42, 9):
        assert by_id.loc[d, "n_dup_grams"] > 0, d
    assert by_id.loc[61, "n_grams"] == 0 and by_id.loc[61, "dup_chars"] == 0


def test_substring_dup_stats_unicode_and_determinism(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import substring_dup_stats

    span = "héllo wörld ünïcode span çôdepoints répeated"  # non-ASCII
    texts = {
        0: "prefix " + span + " suffix",
        1: span + " tail of document one",
        2: "no duplicated content in this document at all here",
    }
    df = pd.DataFrame(
        {"doc_id": sorted(texts), "text": [texts[k] for k in sorted(texts)]}
    )
    L = 20
    a = (
        substring_dup_stats(rd.from_pandas(df), min_len=L, n_parts=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        substring_dup_stats(rd.from_pandas(df), min_len=L, n_parts=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    want = _brute_substring_stats(texts, L)
    pd.testing.assert_frame_equal(a, want)


def test_c4_line_filter_rules(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.text_analysis import c4_line_filter

    pages = {
        # 3 good sentences -> kept
        0: "This is a perfectly fine sentence one.\n"
        "Here is another good long sentence two!\n"
        'And a third quoted sentence right here."\n'
        "no terminal punctuation on this line\n"
        "Too short line.",
        # only 2 good lines -> dropped
        1: "This is a perfectly fine sentence one.\n"
        "Here is another good long sentence two.",
        # lorem ipsum bans the page despite good lines
        2: "This is a perfectly fine sentence one.\n"
        "Here is another good long sentence two.\n"
        "And LOREM IPSUM appears right here now.\n"
        "A fourth good long sentence closes this.",
        # curly brace bans the page
        3: "This is a perfectly fine sentence one.\n"
        "var x = {key: 1}.\n"
        "Here is another good long sentence two.\n"
        "And a third good long sentence here.",
        # javascript line is dropped but page survives on the others
        4: "Please enable JavaScript to view this.\n"
        "This is a perfectly fine sentence one.\n"
        "Here is another good long sentence two.\n"
        "And a third good long sentence here.",
        5: "",
    }
    df = pd.DataFrame(
        {"doc_id": sorted(pages), "text": [pages[k] for k in sorted(pages)]}
    )
    out = (
        c4_line_filter(rd.from_pandas(df))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "kept"] == 1 and out.loc[0, "n_kept_lines"] == 3
    assert out.loc[0, "n_lines"] == 5
    assert "no terminal punctuation" not in out.loc[0, "clean_text"]
    assert "Too short" not in out.loc[0, "clean_text"]
    assert out.loc[1, "kept"] == 0 and out.loc[1, "n_kept_lines"] == 2
    assert out.loc[2, "kept"] == 0  # lorem ipsum, case-insensitive
    assert out.loc[3, "kept"] == 0  # curly brace
    assert out.loc[4, "kept"] == 1 and out.loc[4, "n_kept_lines"] == 3
    assert "JavaScript" not in out.loc[4, "clean_text"]
    assert out.loc[5, "kept"] == 0 and out.loc[5, "n_lines"] == 1
    # surviving text joins kept lines in order
    assert out.loc[4, "clean_text"].split("\n") == [
        "This is a perfectly fine sentence one.",
        "Here is another good long sentence two.",
        "And a third good long sentence here.",
    ]


def test_bloom_dedup_census_matches_exact(ray_session, docs_ds):
    from indexer_ray.pipelines.dedup import bloom_dedup_census, chunk_dedup_stats

    got = (
        bloom_dedup_census(docs_ds, chunk_words=20, n_bits=1 << 22)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    want = (
        chunk_dedup_stats(docs_ds, chunk_words=20)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_units"].tolist() == want["n_chunks"].tolist()
    # exact column reproduces the chunk census exactly
    assert got["n_dup_units"].tolist() == want["n_dup_chunks"].tolist()
    # a generously sized filter has no false positives on sf0.001
    assert got["n_bloom_dup_units"].tolist() == got["n_dup_units"].tolist()


def test_bloom_dedup_census_fp_bounded_and_deterministic(ray_session, docs_ds):
    from indexer_ray.pipelines.dedup import bloom_dedup_census

    tiny = (
        bloom_dedup_census(docs_ds, chunk_words=20, n_bits=256, k=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    again = (
        bloom_dedup_census(docs_ds, chunk_words=20, n_bits=256, k=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(tiny, again)
    # bloom can only over-count, never under-count
    assert (tiny["n_bloom_dup_units"] >= tiny["n_dup_units"]).all()
    # a 256-bit filter over thousands of units must saturate -> real FPs
    assert tiny["n_bloom_dup_units"].sum() > tiny["n_dup_units"].sum()


# -------------------------------------------- temperature_mixture


def test_temperature_mixture_rates(ray_session):
    import math

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from indexer_ray.pipelines.sampling import _bucket_of, temperature_mixture

    # skewed sources: 1600 big / 400 small
    n = 2000
    src = ["big" if i < 1600 else "small" for i in range(n)]
    df = pd.DataFrame({"doc_id": range(n), "source": src})
    out = temperature_mixture(rd.from_pandas(df), alpha=0.5).to_pandas()
    kept = out.groupby("source").size()
    # the smallest source keeps everything
    assert kept["small"] == 400
    # big keeps exactly the ids whose bucket < floor(10000*sqrt(400/1600))
    cut = math.floor(10000 * math.sqrt(400 / 1600))
    ids = np.arange(1600, dtype=np.int64)
    expect = int((_bucket_of(ids) < cut).sum())
    assert kept["big"] == expect
    # tempered: big/small ratio moves from 4.0 toward sqrt(4)=2.0
    assert 1.5 < kept["big"] / kept["small"] < 2.5


def test_temperature_mixture_alpha_one_keeps_all(ray_session):
    import pandas as pd
    import ray.data as rd

    from indexer_ray.pipelines.sampling import temperature_mixture

    df = pd.DataFrame(
        {"doc_id": range(100), "source": ["a"] * 80 + ["b"] * 20}
    )
    out = temperature_mixture(rd.from_pandas(df), alpha=1.0).to_pandas()
    assert len(out) == 100  # natural mixture untouched


def test_temperature_mixture_bad_alpha_raises(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from indexer_ray.pipelines.sampling import temperature_mixture

    df = pd.DataFrame({"doc_id": [1], "source": ["a"]})
    with pytest.raises(ValueError):
        temperature_mixture(rd.from_pandas(df), alpha=1.5)


def _brute_drop_substrings(texts, L):
    from collections import defaultdict

    occ = defaultdict(list)
    for d in sorted(texts):
        t = texts[d]
        for p in range(max(len(t) - L + 1, 0)):
            occ[t[p : p + L]].append((d, p))
    marked = defaultdict(list)
    for g, lst in occ.items():
        if len(lst) >= 2:
            for d, p in sorted(lst)[1:]:
                marked[d].append(p)
    rows = []
    for d in sorted(texts):
        t = texts[d]
        cov = [False] * len(t)
        for p in marked.get(d, []):
            for i in range(p, min(p + L, len(t))):
                cov[i] = True
        kept = "".join(c for c, m in zip(t, cov) if not m)
        rows.append((d, kept, sum(cov)))
    return pd.DataFrame(rows, columns=["doc_id", "text", "n_removed"]).astype(
        {"doc_id": "int64", "n_removed": "int64"}
    )


def test_drop_duplicate_substrings_matches_brute(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import drop_duplicate_substrings

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(400)]
    texts = {}
    for i in range(50):
        texts[i] = " ".join(rng.choice(words, size=40))
    shared = "the quick brown fox jumps over the lazy dog again and again"
    texts[3] = texts[3][:50] + shared + texts[3][50:]
    texts[17] = shared + texts[17]
    texts[42] = texts[42] + shared
    texts[9] = texts[9][:30] + "abcdefghij" * 8 + texts[9][30:]  # self-repeat
    texts[51] = "short"
    texts[52] = ""
    df = pd.DataFrame(
        {"doc_id": sorted(texts), "text": [texts[k] for k in sorted(texts)]}
    )
    L = 30
    got = (
        drop_duplicate_substrings(rd.from_pandas(df), min_len=L, n_parts=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _brute_drop_substrings(texts, L)
    pd.testing.assert_frame_equal(got, want)
    by_id = got.set_index("doc_id")
    # the (doc_id,pos)-first occurrence (doc 3's copy precedes 17's and
    # 42's in id order) keeps its span; later occurrences lose theirs
    assert shared in by_id.loc[3, "text"]
    assert shared not in by_id.loc[17, "text"]
    assert shared not in by_id.loc[42, "text"]
    assert by_id.loc[51, "n_removed"] == 0 and by_id.loc[52, "text"] == ""


def test_drop_duplicate_substrings_layout_independent(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import drop_duplicate_substrings

    span = "héllo wörld ünïcode span çôdepoints répeated here"
    texts = {
        0: "prefix " + span + " suffix",
        1: span + " tail of document one",
        2: "no duplicated content in this document at all here",
        3: "mid " + span + " mid",
    }
    df = pd.DataFrame(
        {"doc_id": sorted(texts), "text": [texts[k] for k in sorted(texts)]}
    )
    a = (
        drop_duplicate_substrings(rd.from_pandas(df), min_len=20, n_parts=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        drop_duplicate_substrings(
            rd.from_pandas(df).repartition(3), min_len=20, n_parts=7
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    want = _brute_drop_substrings(texts, 20)
    pd.testing.assert_frame_equal(a, want)


def _brute_ngram_overlap(train, ev, n):
    import re

    def toks(t):
        return re.findall(r"[a-z0-9]+", (t or "").lower())

    egrams = set()
    for t in ev.values():
        ts = toks(t)
        for p in range(len(ts) - n + 1):
            egrams.add(tuple(ts[p : p + n]))
    rows = []
    for d in sorted(train):
        ts = toks(train[d])
        ng = max(len(ts) - n + 1, 0)
        nh = sum(
            1 for p in range(ng) if tuple(ts[p : p + n]) in egrams
        )
        rows.append((d, ng, nh, nh > 0))
    return pd.DataFrame(
        rows, columns=["doc_id", "n_grams", "n_hits", "contaminated"]
    ).astype({"doc_id": "int64", "n_grams": "int64", "n_hits": "int64"})


def test_exact_ngram_overlap_matches_brute_both_regimes(ray_session):
    import ray.data as rd

    from indexer_ray.pipelines.dedup import exact_ngram_overlap

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(300)]
    train = {
        i: " ".join(rng.choice(words, size=30)) for i in range(40)
    }
    ev = {0: " ".join(rng.choice(words, size=25)), 1: "Short eval doc!"}
    # inject eval 13-grams into three train docs (start / middle / end)
    inj = " ".join(ev[0].split()[3:16])
    train[7] = inj + " " + train[7]
    train[19] = train[19][:50] + " " + inj + " " + train[19][50:]
    train[33] = train[33] + " " + inj
    train[38] = "tiny"
    tdf = pd.DataFrame(
        {"doc_id": sorted(train), "text": [train[k] for k in sorted(train)]}
    )
    edf = pd.DataFrame(
        {"doc_id": sorted(ev), "text": [ev[k] for k in sorted(ev)]}
    )
    want = _brute_ngram_overlap(train, ev, 13)
    a = (
        exact_ngram_overlap(rd.from_pandas(tdf), rd.from_pandas(edf), n=13)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, want)
    b = (
        exact_ngram_overlap(
            rd.from_pandas(tdf).repartition(5),
            rd.from_pandas(edf),
            n=13,
            broadcast_keys_threshold=0,  # force the join regime
            n_parts=7,
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(b, want)
    assert a.set_index("doc_id").loc[[7, 19, 33], "contaminated"].all()
    assert not a.set_index("doc_id").loc[38, "contaminated"]
