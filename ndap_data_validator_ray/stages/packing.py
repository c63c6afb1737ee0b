"""Sequence packing — assign variable-length items (documents/token
sequences) to fixed-capacity bins, the batch-assembly step of an LLM
training pipeline.

Distributed shape: items hash-bucket by id (one exchange of (id, size)
METADATA only — the text/tokens never move); each reducer runs
best-fit-decreasing over its bucket with a bisect-maintained bin table
(O(log bins) per item, Python cost bounded by the metadata rows per
bucket, not by payload bytes).  Bin ids are globally unique by
construction (``bucket_id * 2^40 + local_bin``, over a fixed
``_PACK_BUCKETS`` buckets), so downstream stages can gather a bin's
members with one groupby.

Determinism: BFD over (size DESC, id ASC) — identical input always packs
identically on any cluster, so a resumed run reproduces the same bins
(the same rerun-stability argument as the engine's deterministic
stratified sampling).  Items larger than the capacity get a dedicated bin and are
flagged ``overflow=1`` rather than dropped or silently truncated.

Packing quality note: per-bucket packing wastes at most one partial bin per
bucket versus a global pack — negligible at scale where every bucket holds
thousands of items; a global sort would serialize the whole table for no
measurable gain.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np
import pandas as pd

import ray.data

from ndap_data_validator_ray.stages.groupby import exchange, hash_partitioner

_BIN_STRIDE = 1 << 40
# The packing domain.  The bucket id is part of every bin id and packing
# runs per bucket, so a fixed count keeps the bins independent of the
# cluster and of the input size.
_PACK_BUCKETS = 16


def _ffd_pack(sizes: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Best-fit-decreasing over pre-sorted (descending) sizes.  Returns
    (bin_id per item, overflow flag per item).  Maintains bins as a
    sorted list of (remaining, bin_id): for each item, the left-most bin
    with remaining >= size is found by bisect (best-fit on remaining)."""
    bins: list[tuple[int, int]] = []  # sorted by remaining capacity
    out = np.empty(len(sizes), dtype=np.int64)
    overflow = np.zeros(len(sizes), dtype=np.int64)
    next_bin = 0
    for i, sz in enumerate(sizes):
        if sz > capacity:
            out[i] = next_bin
            overflow[i] = 1
            next_bin += 1
            continue
        j = bisect_left(bins, (sz, -1))
        if j == len(bins):
            out[i] = next_bin
            rem = capacity - sz
            insort(bins, (rem, next_bin))
            next_bin += 1
        else:
            rem, bid = bins.pop(j)
            out[i] = bid
            insort(bins, (rem - sz, bid))
    return out, overflow


def pack_bins(
    ds: "ray.data.Dataset",
    id_col: str,
    size_col: str,
    capacity: int,
) -> "ray.data.Dataset":
    """Pack every item into a bin of at most ``capacity`` total size.

    Output columns: ``id_col``, ``size_col``, ``bin_id`` (globally
    unique), ``overflow`` (1 when a single item exceeds the capacity and
    owns its bin)."""

    def pack(group: pd.DataFrame, bucket: int) -> pd.DataFrame:
        g = group.sort_values([size_col, id_col], ascending=[False, True], ignore_index=True)
        local, overflow = _ffd_pack(g[size_col].to_numpy(), capacity)
        g["bin_id"] = bucket * _BIN_STRIDE + local
        g["overflow"] = overflow
        return g

    return exchange(
        ds.map_batches(lambda b: b[[id_col, size_col]], batch_format="pandas"),
        hash_partitioner([id_col]),
        pack,
        n_partitions=_PACK_BUCKETS,
    )
