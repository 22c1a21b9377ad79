"""Delta + variable-byte posting-list codec with per-block max-score metadata.

Implements (and generalizes) the reference's explicit TODO at tree.rs:215
("apply delta + variable-byte encoding here before writing"); the reference
itself stores uncompressed fixed-width postings (8 + 12·df bytes per list,
tree.rs:216-221).  The north rule makes compression + per-block metadata a
requirement.

Layout
------
Postings for one term are doc_id-sorted and cut into blocks of at most
``block_size`` (default 128) postings.  Per block we persist a row:

    term        : string        (dictionary key)
    block_id    : uint32        (ordinal within the (term, partition) list)
    first_doc_id: uint64        (absolute; deltas are block-local)
    last_doc_id : uint64        (for skip/interval pruning)
    n           : uint32        (postings in the block)
    max_tf      : uint32        (tf-idf upper bound support)
    min_dl      : uint32        (BM25 upper bound support: the shortest doc)
    sum_tf      : uint64        (collection-frequency bookkeeping)
    payload     : large_binary  (varint stream, see below)

``payload`` is a LEB128 varint stream of 3·n values laid out as three
sections: ``n`` doc-id gaps (gap[0] == 0, the absolute id is
``first_doc_id``; gap[i] = doc_id[i] - doc_id[i-1]), then ``n`` tfs, then
``n`` doc lengths.  Storing doc length with the posting lets BM25 score
without a random docmap lookup per posting — at 10^12 docs a doc-length
array cannot live in RAM, so the length travels with the posting (what
Lucene calls "norms", inlined).

Block-local deltas make blocks independently decodable, which is what allows
(a) block-max WAND skipping and (b) hot-term posting lists to be built as
disjoint doc_id-range runs in different shuffle groups with NO merge step.

Everything below is vectorized numpy; no Python loop runs per posting.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

BLOCK_SIZE = 128

_THRESHOLDS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)


def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Byte length of each value's LEB128 encoding (1..10).

    Comparison-chain instead of searchsorted: posting gaps/tfs/dls are small,
    so the loop exits after 1-3 cheap vector compares."""
    v = values.astype(np.uint64, copy=False)
    sizes = np.ones(len(v), dtype=np.int64)
    for t in _THRESHOLDS:
        over = v >= t
        if not over.any():
            break
        sizes += over
    return sizes


def encode_varints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode a uint64 array.

    Returns (data, ends): ``data`` is a uint8 array of the concatenated
    varints, ``ends[i]`` is the end byte offset of value i (cumulative sizes).
    """
    v = values.astype(np.uint64, copy=False)
    sizes = varint_sizes(v)
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    data = np.zeros(total, dtype=np.uint8)
    starts = ends - sizes
    max_size = int(sizes.max()) if len(sizes) else 0
    shifted = v.copy()
    for j in range(max_size):
        mask = sizes > j
        if not mask.any():
            break
        byte = (shifted[mask] & np.uint64(0x7F)).astype(np.uint8)
        cont = (sizes[mask] - 1) > j
        byte[cont] |= 0x80
        data[starts[mask] + j] = byte
        shifted[mask] >>= np.uint64(7)
    return data, ends


def decode_varints(data: np.ndarray | bytes) -> np.ndarray:
    """Decode a LEB128 stream back to a uint64 array (vectorized)."""
    buf = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, memoryview)) else data
    if len(buf) == 0:
        return np.empty(0, dtype=np.uint64)
    is_end = (buf & 0x80) == 0
    ends = np.flatnonzero(is_end)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # position of each byte within its value (repeat beats searchsorted ~3x)
    sizes = ends - starts + 1
    value_of_byte = np.repeat(np.arange(len(ends), dtype=np.int64), sizes)
    pos = np.arange(len(buf), dtype=np.int64) - starts[value_of_byte]
    contrib = (buf & np.uint64(0x7F)).astype(np.uint64) << (np.uint64(7) * pos.astype(np.uint64))
    return np.add.reduceat(contrib, starts)


def _segmented_gaps(doc_ids: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """gap[i] = doc_ids[i] - doc_ids[i-1] within a segment; 0 at seg starts."""
    gaps = np.empty_like(doc_ids)
    gaps[0] = 0
    gaps[1:] = doc_ids[1:] - doc_ids[:-1]
    gaps[seg_starts] = 0
    return gaps


def encode_term_postings(
    term_codes: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    block_size: int = BLOCK_SIZE,
) -> dict[str, np.ndarray | pa.Array]:
    """Encode a partition's postings (sorted by (term_code, doc_id)) into
    block rows.  Returns a dict of columns; ``term_code`` indexes the caller's
    vocabulary.  Fully vectorized; one pyarrow binary-array slice at the end.
    """
    n = len(doc_ids)
    if n == 0:
        empty64 = np.empty(0, dtype=np.uint64)
        return {
            "term_code": np.empty(0, dtype=np.int64),
            "block_id": np.empty(0, dtype=np.uint32),
            "first_doc_id": empty64,
            "last_doc_id": empty64,
            "n": np.empty(0, dtype=np.uint32),
            "max_tf": np.empty(0, dtype=np.uint32),
            "min_dl": np.empty(0, dtype=np.uint32),
            "sum_tf": empty64,
            "payload": pa.array([], type=pa.large_binary()),
        }
    doc_ids = doc_ids.astype(np.uint64, copy=False)
    tfs = tfs.astype(np.uint64, copy=False)
    dls = dls.astype(np.uint64, copy=False)

    term_starts = np.flatnonzero(np.r_[True, term_codes[1:] != term_codes[:-1]])
    # ordinal of each posting within its term
    within = np.arange(n, dtype=np.int64)
    within -= np.repeat(term_starts, np.diff(np.r_[term_starts, n]))
    block_of = within // block_size
    # block boundary where term changes or block_of changes
    is_block_start = np.r_[True, (term_codes[1:] != term_codes[:-1]) | (block_of[1:] != block_of[:-1])]
    block_starts = np.flatnonzero(is_block_start)
    block_ends = np.r_[block_starts[1:], n]
    counts = (block_ends - block_starts).astype(np.int64)

    gaps = _segmented_gaps(doc_ids, block_starts)

    # Lay values out block-contiguously: per block [gaps..., tfs..., dls...].
    # Build a gather index into a virtual concatenation. For block b with rows
    # [s, e): output slice [3s, 3s + 3(e-s)) maps to gaps[s:e], tfs[s:e], dls[s:e].
    out_n = 3 * n
    values = np.empty(out_n, dtype=np.uint64)
    # destination offsets for each section per block
    dst_base = 3 * block_starts
    for section, arr in enumerate((gaps, tfs, dls)):
        # destination for row i in block b: dst_base[b] + section*count[b] + (i - s)
        dst = np.repeat(dst_base + section * counts, counts)
        dst += (np.arange(n) - np.repeat(block_starts, counts)).astype(np.int64)
        values[dst] = arr
    data, ends = encode_varints(values)
    # payload boundaries: value index 3*block_start .. 3*block_end
    value_starts = 3 * block_starts
    byte_starts = np.zeros(len(block_starts), dtype=np.int64)
    nonzero = value_starts > 0
    byte_starts[nonzero] = ends[value_starts[nonzero] - 1]
    byte_ends = ends[3 * block_ends - 1]
    offsets = np.r_[byte_starts, byte_ends[-1]].astype(np.int64)
    payload = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(block_starts), [None, pa.py_buffer(offsets), pa.py_buffer(data)]
    )

    max_tf = np.maximum.reduceat(tfs, block_starts).astype(np.uint32)
    min_dl = np.minimum.reduceat(dls, block_starts).astype(np.uint32)
    sum_tf = np.add.reduceat(tfs, block_starts).astype(np.uint64)
    return {
        "term_code": term_codes[block_starts],  # caller's dtype (code or hash)
        "block_id": block_of[block_starts].astype(np.uint32),
        "first_doc_id": doc_ids[block_starts],
        "last_doc_id": doc_ids[block_ends - 1],
        "n": counts.astype(np.uint32),
        "max_tf": max_tf,
        "min_dl": min_dl,
        "sum_tf": sum_tf,
        "payload": payload,
    }


def decode_blocks(
    payloads: pa.Array | list[bytes],
    ns: np.ndarray,
    first_doc_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a set of blocks (possibly across terms) in one vectorized pass.

    Returns (doc_ids, tfs, dls, block_row_starts) where ``block_row_starts[b]``
    is the index of block b's first posting in the flat output arrays.
    """
    if isinstance(payloads, pa.ChunkedArray):
        payloads = payloads.combine_chunks()
    if isinstance(payloads, pa.Array):
        joined = b"".join(memoryview(p) for p in payloads.to_pylist())
    else:
        joined = b"".join(payloads)
    values = decode_varints(np.frombuffer(joined, dtype=np.uint8))
    ns = ns.astype(np.int64, copy=False)
    n_total = int(ns.sum())
    if len(values) != 3 * n_total:
        raise ValueError(
            f"corrupt posting payload: {len(values)} varints for {n_total} "
            f"postings (expected {3 * n_total})"
        )
    block_value_starts = np.r_[0, np.cumsum(3 * ns)[:-1]]
    row_starts = np.r_[0, np.cumsum(ns)[:-1]]
    doc_out = np.empty(n_total, dtype=np.uint64)
    tf_out = np.empty(n_total, dtype=np.uint64)
    dl_out = np.empty(n_total, dtype=np.uint64)
    # gather each section
    row_idx = np.arange(n_total, dtype=np.int64)
    within = row_idx - np.repeat(row_starts, ns)
    base = np.repeat(block_value_starts, ns)
    nrep = np.repeat(ns, ns)
    gaps = values[base + within]
    tf_out[:] = values[base + nrep + within]
    dl_out[:] = values[base + 2 * nrep + within]
    # doc_ids: segmented cumsum of gaps + first_doc_id per block
    csum = np.cumsum(gaps)
    seg_base = csum[row_starts]  # includes gap[start] == 0
    doc_out[:] = csum - np.repeat(seg_base, ns) + np.repeat(
        first_doc_ids.astype(np.uint64), ns
    )
    return doc_out, tf_out, dl_out, row_starts
