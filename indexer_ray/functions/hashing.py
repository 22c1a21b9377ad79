"""Stable 64-bit identities and partition routing.

doc_id must be deterministic across runs, schedulers and cluster sizes
(SURVEY.md §1.2; the reference's insertion-order AtomicU64 ids,
tree.rs:63-82, are nondeterministic under parallelism — quirk Q8, replaced).
We derive doc_id = blake2b-64(url): collision probability for 10^12 docs over
64 bits is ~2.7% birthday mass, so the build VERIFIES uniqueness (distinct
count == row count) and the digest can be widened per-deployment; at test
scale collisions are impossible in practice.

Partition routing:
    normal term:  part_id = H(term) % P
    hot term:     part_id = H(term, salt) % P,  salt = order-preserving
                  multiply-shift bucket of doc_id into n_salts ranges
Salting hot-head terms across partitions bounds the largest shuffle group
(SURVEY.md §2.8); because salt buckets are doc_id RANGES, each (term, salt)
run is a disjoint doc_id interval and the global posting list is just the
runs concatenated in salt order — no merge step (codec blocks are
block-local-delta encoded and independently decodable).
"""

from __future__ import annotations

import hashlib

import numpy as np

_M = np.uint64(0xFFFFFFFFFFFFFFFF)


def hash64_str(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def doc_ids_for_urls(urls: list[str]) -> np.ndarray:
    out = np.empty(len(urls), dtype=np.uint64)
    blake = hashlib.blake2b
    for i, u in enumerate(urls):
        out[i] = int.from_bytes(blake(u.encode("utf-8"), digest_size=8).digest(), "big")
    return out


def term_partition(term: str, n_partitions: int) -> int:
    return hash64_str("t\x00" + term) % n_partitions


def hot_term_partitions(term: str, n_salts: int, n_partitions: int) -> list[int]:
    """All partitions holding runs of a hot term, in salt (= doc_id range) order."""
    return [hash64_str(f"t\x01{salt}\x00" + term) % n_partitions for salt in range(n_salts)]


def salt_of_doc(doc_ids: np.ndarray, n_salts: int, id_space: int | None = None) -> np.ndarray:
    """Order-preserving bucket of uint64 doc_id into [0, n_salts).

    ``id_space`` is the exclusive upper bound of the id range: None means the
    full 2^64 hash space (url-hash ids); dense row-number ids pass their
    corpus size so ranges split evenly.  Ids beyond id_space clip into the
    last salt — still order-preserving, so runs stay doc_id-disjoint."""
    d = doc_ids.astype(np.uint64)
    if id_space is None:
        hi = (d >> np.uint64(32)).astype(np.uint64)
        return ((hi * np.uint64(n_salts)) >> np.uint64(32)).astype(np.uint32)
    width = max(1, -(-int(id_space) // n_salts))
    return np.minimum(d // np.uint64(width), np.uint64(n_salts - 1)).astype(np.uint32)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def key_partition(keys: np.ndarray, n_parts: int) -> np.ndarray:
    """int32 partition per uint64 key: golden-ratio multiply + high-bits
    mix.  Reduce-side routing goes through `stages.shuffle.route_parts`,
    which applies this to one integer key column unchanged (and to the
    mixed hash of any other key); call it directly only where the
    partition id itself is stored (the writer's part_<p> layout, the
    trigram index's on-disk partitions)."""
    with np.errstate(over="ignore"):
        return (
            ((keys.astype(np.uint64) * _GOLDEN) >> np.uint64(32)) % np.uint64(n_parts)
        ).astype(np.int32)
