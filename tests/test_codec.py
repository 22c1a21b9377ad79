"""Codec property tests (SURVEY.md §5.6): varint round-trip, block build /
decode round-trip, block-max metadata correctness."""

import pathlib
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexer_ray.stages.codec import (
    decode_blocks,
    decode_varints,
    encode_term_postings,
    encode_varints,
    varint_sizes,
)


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(values):
    arr = np.array(values, dtype=np.uint64)
    data, ends = encode_varints(arr)
    out = decode_varints(data)
    assert out.tolist() == values
    assert len(ends) == len(values)
    sizes = varint_sizes(arr)
    for v, s in zip(values, sizes):
        assert s == max(1, (v.bit_length() + 6) // 7)


def _roundtrip(term_codes, doc_ids, tfs, dls, block_size=4):
    cols = encode_term_postings(
        np.asarray(term_codes, dtype=np.int64),
        np.asarray(doc_ids, dtype=np.uint64),
        np.asarray(tfs, dtype=np.uint64),
        np.asarray(dls, dtype=np.uint64),
        block_size=block_size,
    )
    d, t, l, starts = decode_blocks(
        cols["payload"], np.asarray(cols["n"]), np.asarray(cols["first_doc_id"])
    )
    return cols, d, t, l, starts


def test_encode_decode_roundtrip_basic():
    term_codes = [0] * 10 + [1] * 3 + [2] * 5
    doc_ids = list(range(0, 100, 10)) + [7, 9, 4000] + [1, 2, 3, 1 << 40, (1 << 40) + 5]
    tfs = list(range(1, 19))
    dls = [100] * 18
    cols, d, t, l, starts = _roundtrip(term_codes, doc_ids, tfs, dls, block_size=4)
    assert d.tolist() == doc_ids
    assert t.tolist() == tfs
    assert l.tolist() == dls
    # blocks never span terms; per-term block ids restart at 0
    assert cols["term_code"].tolist() == [0, 0, 0, 1, 2, 2]
    assert cols["block_id"].tolist() == [0, 1, 2, 0, 0, 1]
    assert cols["n"].tolist() == [4, 4, 2, 3, 4, 1]


def test_block_metadata():
    cols = encode_term_postings(
        np.zeros(6, dtype=np.int64),
        np.array([5, 6, 7, 8, 20, 30], dtype=np.uint64),
        np.array([9, 1, 2, 1, 7, 3], dtype=np.uint64),
        np.array([50, 60, 10, 80, 90, 100], dtype=np.uint64),
        block_size=4,
    )
    assert cols["first_doc_id"].tolist() == [5, 20]
    assert cols["last_doc_id"].tolist() == [8, 30]
    assert cols["max_tf"].tolist() == [9, 7]
    assert cols["min_dl"].tolist() == [10, 90]
    assert cols["sum_tf"].tolist() == [13, 10]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # term
            st.integers(min_value=0, max_value=2**48),  # doc
            st.integers(min_value=1, max_value=1000),  # tf
            st.integers(min_value=1, max_value=100000),  # dl
        ),
        max_size=300,
    ),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_roundtrip_property(rows, block_size):
    # sort by (term, doc) and dedup doc within term (postings invariant)
    rows = sorted(set((t, d) for t, d, _, _ in rows))
    if not rows:
        return
    lookup = {}
    for t, d, tf, dl in [(t, d, 1 + (d % 7), 1 + (d % 50)) for t, d in rows]:
        lookup[(t, d)] = (tf, dl)
    term_codes = np.array([t for t, _ in rows], dtype=np.int64)
    doc_ids = np.array([d for _, d in rows], dtype=np.uint64)
    tfs = np.array([lookup[k][0] for k in rows], dtype=np.uint64)
    dls = np.array([lookup[k][1] for k in rows], dtype=np.uint64)
    cols = encode_term_postings(term_codes, doc_ids, tfs, dls, block_size=block_size)
    d, t, l, starts = decode_blocks(
        cols["payload"], np.asarray(cols["n"]), np.asarray(cols["first_doc_id"])
    )
    assert d.tolist() == doc_ids.tolist()
    assert t.tolist() == tfs.tolist()
    assert l.tolist() == dls.tolist()
    # metadata invariants: every block's max_tf/min_dl match the decoded data
    ns = np.asarray(cols["n"])
    for b in range(len(ns)):
        s, e = starts[b], starts[b] + ns[b]
        assert cols["max_tf"][b] == t[s:e].max()
        assert cols["min_dl"][b] == l[s:e].min()
        assert cols["first_doc_id"][b] == d[s]
        assert cols["last_doc_id"][b] == d[e - 1]
        assert ns[b] <= block_size


def test_empty():
    cols = encode_term_postings(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.uint64),
    )
    assert len(pa.Array.from_pandas(cols["term_code"])) == 0


def _truncated_payload_args():
    cols = encode_term_postings(
        np.zeros(5, dtype=np.int64),
        np.arange(0, 15, 3, dtype=np.uint64),
        np.ones(5, dtype=np.uint64),
        np.full(5, 100, dtype=np.uint64),
        block_size=4,
    )
    payloads = [p.as_py() for p in cols["payload"]]
    payloads[-1] = payloads[-1][:-1]  # drop the last block's final varint
    return payloads, np.asarray(cols["n"]), np.asarray(cols["first_doc_id"])


def test_decode_truncated_payload_raises():
    with pytest.raises(ValueError, match="corrupt posting payload"):
        decode_blocks(*_truncated_payload_args())


def test_decode_truncated_payload_raises_under_optimize():
    # a bare assert would vanish under -O and decode garbage
    code = (
        "from tests.test_codec import _truncated_payload_args\n"
        "from indexer_ray.stages.codec import decode_blocks\n"
        "try:\n"
        "    decode_blocks(*_truncated_payload_args())\n"
        "except ValueError as e:\n"
        "    print('ValueError', e)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        cwd=pathlib.Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.startswith("ValueError corrupt posting payload"), out.stderr
