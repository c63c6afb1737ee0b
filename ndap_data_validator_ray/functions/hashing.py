"""Shingling, MinHash, and SimHash kernels (pure numpy, deterministic).

Building blocks for the near-duplicate detection stages
(stages/dedup_near.py): shingle -> minhash signature -> LSH bands, and
simhash bit-signatures.  Hashing is ``pandas.util.hash_array`` (stable
across processes) driven through seed-mixed multiplicative permutations.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Stable hashes of the k-byte shingles of ``text`` (utf-8), fully
    vectorized: sliding windows over the byte array -> polynomial hash in
    uint64 wraparound arithmetic + a splitmix-style finalizer.  ~50x faster
    than building per-shingle Python strings (the round-2 hot loop of
    ``minhash_lsh_pairs`` sig scan); hash VALUES differ from round 2,
    which is fine — only signature similarity semantics are contractual."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(b) < k:
        b = np.concatenate([b, np.full(k - len(b), 32, dtype=np.uint8)])  # pad with spaces
    w = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    powers = np.empty(k, dtype=np.uint64)
    powers[0] = 1
    with np.errstate(over="ignore"):
        for i in range(1, k):
            powers[i] = powers[i - 1] * np.uint64(1099511628211)  # FNV prime
        h = (w * powers[None, :]).sum(axis=1, dtype=np.uint64)
        h = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(29)
    return h


def md5_lower64(token: str) -> int:
    """Lower 8 bytes of MD5 as a little-endian uint64 — the exact twin of
    DuckDB's ``md5_number_lower``, so any signature built from it can be
    recomputed verbatim by a SQL oracle (verified: both yield
    10575884659879408057 for 'hello')."""
    import hashlib

    return int.from_bytes(hashlib.md5(token.encode("utf-8", "replace")).digest()[8:16], "little")


def md5_lower64_batch(tokens, cache: dict | None = None) -> np.ndarray:
    """Vector of ``md5_lower64`` over a token sequence.  Hashes each
    DISTINCT token once (documents repeat tokens heavily) and optionally
    memoizes across calls via ``cache`` (an actor-resident dict)."""
    toks = np.asarray(tokens, dtype=object)
    if not len(toks):
        return np.array([], dtype=np.uint64)
    uniq, inv = np.unique(toks, return_inverse=True)
    if cache is None:
        vals = np.fromiter((md5_lower64(t) for t in uniq), dtype=np.uint64, count=len(uniq))
    else:
        vals = np.empty(len(uniq), dtype=np.uint64)
        for i, t in enumerate(uniq):
            v = cache.get(t)
            if v is None:
                v = md5_lower64(t)
                if len(cache) < 1_000_000:  # bound actor-resident memo
                    cache[t] = v
            vals[i] = v
    return vals[inv]


def word_ngrams(text: str, n: int = 3) -> set[str]:
    ws = text.split()
    if len(ws) < n:
        return {" ".join(ws)} if ws else set()
    return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}


_PERM_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _perms(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    key = (num_perm, seed)
    if key not in _PERM_CACHE:
        rng = np.random.default_rng(seed)
        # odd multipliers -> bijective multiply-shift hashing mod 2^64
        a = (rng.integers(0, 1 << 62, num_perm, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        b = rng.integers(0, 1 << 63, num_perm, dtype=np.uint64)
        _PERM_CACHE[key] = (a, b)
    return _PERM_CACHE[key]


def minhash_signature(shingle_hashes: np.ndarray, num_perm: int = 64, seed: int = 7) -> np.ndarray:
    """num_perm-wide MinHash signature via multiply-shift permutations in
    uint64 wraparound arithmetic — fully vectorized (shingles x perms)."""
    if len(shingle_hashes) == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    a, b = _perms(num_perm, seed)
    x = shingle_hashes.astype(np.uint64)
    with np.errstate(over="ignore"):
        vals = x[:, None] * a[None, :] + b[None, :]  # uint64 wraparound is the hash
    return vals.min(axis=0)


def char_shingles_batch(texts: list[str], k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """All docs' shingle hashes in ONE numpy pass: concatenated hash array +
    per-doc start offsets (``hashes[offsets[i]:offsets[i+1] or None]`` is
    doc i).  Hash-identical to per-doc ``char_shingles`` (same windows,
    same polynomial; docs shorter than k are space-padded the same way) —
    this is the cross-doc vectorization of the per-doc loop that dominated
    the minhash sig scan: one sliding-window/hash kernel over the
    whole batch, boundary-crossing windows dropped by a vectorized
    range-gather."""
    if not texts:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    encs = [t.encode("utf-8") for t in texts]
    pad = b" " * k
    encs = [e if len(e) >= k else e + pad[: k - len(e)] for e in encs]
    lens = np.fromiter((len(e) for e in encs), dtype=np.int64, count=len(encs))
    b = np.frombuffer(b"".join(encs), dtype=np.uint8)

    w = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    powers = np.empty(k, dtype=np.uint64)
    powers[0] = 1
    with np.errstate(over="ignore"):
        for i in range(1, k):
            powers[i] = powers[i - 1] * np.uint64(1099511628211)  # FNV prime
        h = (w * powers[None, :]).sum(axis=1, dtype=np.uint64)
        h = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(29)

    # keep only windows fully inside one doc: doc i contributes windows
    # starting at [byte_start_i, byte_start_i + len_i - k] — gather those
    # index ranges without a Python loop (diff-of-starts cumsum trick)
    n_sh = lens - k + 1
    byte_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    offsets = np.concatenate(([0], np.cumsum(n_sh)[:-1]))
    step = np.ones(int(n_sh.sum()), dtype=np.int64)
    step[0] = byte_starts[0]
    step[offsets[1:]] = byte_starts[1:] - (byte_starts[:-1] + n_sh[:-1] - 1)
    return h[np.cumsum(step)], offsets


def minhash_signature_matrix_concat(
    hashes: np.ndarray, offsets: np.ndarray, num_perm: int = 64, seed: int = 7
) -> np.ndarray:
    """(n_docs, num_perm) signatures from ``char_shingles_batch`` output.

    Deliberately a per-doc slice loop over the pre-hashed concatenated
    array: each doc's (n_shingles, num_perm) permute-and-min stays inside
    L2 cache, which measures ~4-5x faster than the "fully batched"
    alternatives (one big (total_shingles, num_perm) temp is
    memory-bandwidth-bound, and ``np.minimum.reduceat`` has a scalar inner
    loop ~8x slower than ``min(axis=0)``).  Value-identical to
    ``minhash_signature`` per doc."""
    n_docs = len(offsets)
    if n_docs == 0:
        return np.empty((0, num_perm), dtype=np.uint64)
    ends = np.append(offsets[1:], len(hashes))
    return np.vstack(
        [minhash_signature(hashes[s:e], num_perm, seed) for s, e in zip(offsets, ends)]
    )


def lsh_bands_matrix(sig_matrix: np.ndarray, bands: int = 16) -> np.ndarray:
    """Vectorized banding for a (n_docs, num_perm) signature matrix ->
    (n_docs, bands) uint64 band hashes (FNV-style fold over each band's
    slice, splitmix finalizer).  Docs sharing any (band_id, band_hash)
    become LSH candidates."""
    n, p = sig_matrix.shape
    rows = p // bands
    v = sig_matrix[:, : bands * rows].reshape(n, bands, rows).astype(np.uint64)
    h = np.full((n, bands), 0xCBF29CE484222325, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(rows):
            h = (h ^ v[:, :, r]) * np.uint64(1099511628211)
        h = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(29)
    return h


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / max(1, len(a | b))


def simhash64(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> np.uint64:
    """64-bit SimHash: weighted bit-vote over token hashes."""
    if len(token_hashes) == 0:
        return np.uint64(0)
    h = token_hashes.astype(np.uint64)
    if weights is None:
        weights = np.ones(len(h), dtype=np.float64)
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.float64)
    votes = (bits * 2 - 1) * weights[:, None]
    col = votes.sum(axis=0) > 0
    out = np.uint64(0)
    for i in np.flatnonzero(col):
        out |= np.uint64(1) << np.uint64(i)
    return out


def _simhash64_segment(h: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """One vectorized pass of the bit-vote kernel (see simhash64_batch)."""
    votes = (
        ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
        .astype(np.int32)
        * 2 - 1
    )
    cs = np.zeros((len(h) + 1, 64), dtype=np.int64)
    np.cumsum(votes, axis=0, out=cs[1:])
    seg = cs[offsets[1:]] - cs[offsets[:-1]]  # (n_docs, 64) per-bit vote sums
    bits = seg > 0
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


def simhash64_batch(
    token_hashes: np.ndarray, offsets: np.ndarray, max_tokens_per_pass: int = 1 << 17
) -> np.ndarray:
    """Vectorized :func:`simhash64` over a whole batch: ``token_hashes``
    is the concatenation of every doc's token hashes, ``offsets`` the
    doc boundaries (len = n_docs + 1).  One (tokens, 64) bit expansion +
    a segmented cumsum-difference replaces the per-doc Python loop
    (empty docs — equal offsets — correctly get signature 0, which
    ``np.add.reduceat`` would botch).  Unit weights (the engine's only
    use).

    The kernel's peak memory is ~0.77 KB per token (vote matrix + cumsum),
    so a long-document batch is processed in doc-aligned SEGMENTS of at
    most ``max_tokens_per_pass`` tokens (~100 MB peak at the default) —
    the vectorization stays, the memory spike doesn't.  A single doc
    longer than the cap runs alone (O(doc) peak, same as the per-doc
    loop).  Value-identical to the unchunked kernel."""
    n_docs = len(offsets) - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    if not len(token_hashes):
        return out
    h = token_hashes.astype(np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    d0 = 0
    while d0 < n_docs:
        d1 = d0 + 1
        while d1 < n_docs and offsets[d1 + 1] - offsets[d0] <= max_tokens_per_pass:
            d1 += 1
        s, e = offsets[d0], offsets[d1]
        out[d0:d1] = _simhash64_segment(h[s:e], offsets[d0 : d1 + 1] - s)
        d0 = d1
    return out


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit population count (SWAR bit trick) — works on any
    shape, no per-element Python loop (round-4 verdict item 7: the old
    ``bin(int(v)).count('1')`` loop was the last scalar inner loop in the
    simhash verify path)."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)
