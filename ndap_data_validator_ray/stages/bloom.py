"""Bounded-memory broadcast membership: Bloom-filtered anti-joins.

Round 1 built referential orphan checks (reference J1 shape,
``main.py:673-679`` preview + ``utils/validation.py`` not-null/referential
semantics) on a driver-side exact key ``set()`` broadcast via ``ray.put`` —
O(#distinct build keys) of driver memory, a non-starter when the build side
is 10^12 keys.  The scale-safe layout (SCALE.md "anti-join"):

1. fold the build side's keys into a fixed-size **Bloom filter** — one
   small bitmap per input block OR-merged (here a driver fold over block
   partials; on a large cluster the same OR is a tree reduce);
2. broadcast the filter once with ``ray.put`` (read per actor, never
   re-shipped per batch);
3. probe rows whose key **misses** the filter are *definite* anti-join
   output (a Bloom filter has no false negatives) and short-circuit —
   they never enter a shuffle;
4. probe rows that **hit** the filter are only *possibly* present: they go
   through the exact bucketed anti join (``stages/join.bucketed_join``
   with ``how="anti"``) against the build side, so the false-positive
   rate affects the *volume* of the verify leg, never correctness.

The filter size is derived from the build-side row count (parquet
metadata, no scan) at the configured false-positive rate; memory is
``m_bits/8`` bytes regardless of key cardinality.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def _hash_keys(keys: np.ndarray) -> np.ndarray:
    """Stable uint64 hashes for int/float/string key arrays."""
    if keys.dtype == object or keys.dtype.kind in "US":
        return pd.util.hash_array(keys.astype(object), categorize=False)
    return pd.util.hash_array(keys, categorize=False)


class BloomFilter:
    """Classic Bloom filter over a numpy bitmap with Kirsch–Mitzenmacher
    double hashing (k probe positions from two stable 64-bit hashes)."""

    __slots__ = ("m_bits", "k", "bits")

    def __init__(self, m_bits: int, k: int, bits: np.ndarray | None = None):
        self.m_bits = int(m_bits)
        self.k = int(k)
        self.bits = bits if bits is not None else np.zeros((self.m_bits + 7) // 8, dtype=np.uint8)

    @staticmethod
    def sized_for(expected_keys: int, fp_rate: float = 0.01) -> "BloomFilter":
        n = max(1024, int(expected_keys))
        m = int(math.ceil(-n * math.log(fp_rate) / (math.log(2) ** 2)))
        k = max(1, int(round(m / n * math.log(2))))
        return BloomFilter(m, k)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        h1 = _hash_keys(keys)
        h2 = (h1 >> np.uint64(17)) | np.uint64(1)  # odd -> decorrelated stride
        i = np.arange(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(self.m_bits)).astype(np.uint64)

    def add(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(self.bits, (pos >> np.uint64(3)).astype(np.int64), (1 << (pos & np.uint64(7))).astype(np.uint8))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership probe -> bool array (no false negatives)."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)
        byte = self.bits[(pos >> np.uint64(3)).astype(np.int64)]
        hit = (byte >> (pos & np.uint64(7)).astype(np.uint8)) & 1
        return hit.all(axis=1)


def build_bloom(ds: "ray.data.Dataset", key: str, expected_keys: int | None = None, fp_rate: float = 0.01) -> BloomFilter:
    """Distributed Bloom build: per-block partial bitmaps, OR-folded.

    The fold ships ``#blocks x m_bits/8`` bytes to the driver (tiny: the
    bitmap is ~1.2 bytes/key at 1% fp); on a multi-node cluster the same
    commutative OR runs as a tree reduce instead of a driver loop."""
    n = expected_keys if expected_keys is not None else ds.count()
    proto = BloomFilter.sized_for(n, fp_rate)
    m_bits, k = proto.m_bits, proto.k

    def partial(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(m_bits, k)
        bf.add(batch[key].to_numpy(zero_copy_only=False))
        return pa.table({"bits": pa.array([bf.bits.tobytes()], pa.large_binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None).to_pandas()
    bits = np.zeros((m_bits + 7) // 8, dtype=np.uint8)
    for blob in parts["bits"]:
        bits |= np.frombuffer(blob, dtype=np.uint8)
    return BloomFilter(m_bits, k, bits)


class _BloomMark:
    """Arrow-native probe stage: attach a ``_bloom_hit`` column (the filter
    is fetched from the object store once per actor in __init__)."""

    def __init__(self, bloom_ref, key: str):
        self.bloom: BloomFilter = ray.get(bloom_ref)
        self.key = key

    def __call__(self, batch: pa.Table) -> pa.Table:
        hit = self.bloom.contains(batch[self.key].to_numpy(zero_copy_only=False))
        return batch.append_column("_bloom_hit", pa.array(hit, pa.bool_()))


# task-mode per-worker-process filter cache, keyed by ObjectRef hex (same
# pattern as the task-mode fused audio stage): ray.get hits the node-local
# plasma store, the dict skips re-deserializing per batch.
_BLOOM_TASK_CACHE: dict = {}


def _mark_task(batch: pa.Table, bloom_ref, key: str) -> pa.Table:
    cached = _BLOOM_TASK_CACHE.get(bloom_ref.hex())
    if cached is None:
        cached = _BLOOM_TASK_CACHE[bloom_ref.hex()] = ray.get(bloom_ref)
    hit = cached.contains(batch[key].to_numpy(zero_copy_only=False))
    return batch.append_column("_bloom_hit", pa.array(hit, pa.bool_()))


def bloom_anti_join(
    probe: "ray.data.Dataset",
    build: "ray.data.Dataset",
    probe_on: str,
    build_on: str,
    fp_rate: float = 0.01,
    concurrency: int | tuple = (1, 4),
    mode: str = "actor",
) -> "ray.data.Dataset":
    """Rows of ``probe`` whose ``probe_on`` key has no match in ``build``.

    Bloom-miss rows short-circuit (definite orphans, no shuffle); bloom-hit
    rows are verified exactly via the bucketed anti join.  The two legs
    each re-execute the (column-pruned) probe read — two cheap scans
    instead of shuffling the full probe side.

    ``mode="task"`` marks with plain tasks (per-process cached filter
    fetch) instead of the actor pool — REQUIRED when several anti-joins
    run concurrently: the union re-executes the marked lineage on both
    legs, so N concurrent actor-mode joins try to place ~2N min-1 pools
    and deadlock a small cluster (the reserved-CPU invariant; found by
    the 7-edge fk_integrity_audit hanging a 4-CPU session)."""
    from functools import partial as _partial

    from ndap_data_validator_ray.stages.join import bucketed_join

    bloom = build_bloom(build, build_on, fp_rate=fp_rate)
    ref = ray.put(bloom)
    if mode == "task":
        marked = probe.map_batches(
            _partial(_mark_task, bloom_ref=ref, key=probe_on), batch_format="pyarrow"
        )
    else:
        marked = probe.map_batches(
            _BloomMark, fn_constructor_kwargs={"bloom_ref": ref, "key": probe_on},
            batch_format="pyarrow", concurrency=concurrency,
        )

    def take_miss(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(batch["_bloom_hit"])).drop_columns(["_bloom_hit"])

    def take_hit(batch: pa.Table) -> pa.Table:
        return batch.filter(batch["_bloom_hit"]).drop_columns(["_bloom_hit"])

    definite = marked.map_batches(take_miss, batch_format="pyarrow")
    maybe = marked.map_batches(take_hit, batch_format="pyarrow")
    if build_on != probe_on:
        build = build.map_batches(
            lambda t, src=build_on, dst=probe_on: t.rename_columns(
                [dst if c == src else c for c in t.column_names]
            ),
            batch_format="pyarrow",
        )
    verified = bucketed_join(maybe, build.select_columns([probe_on]), on=[probe_on], how="anti")
    return definite.union(verified)
