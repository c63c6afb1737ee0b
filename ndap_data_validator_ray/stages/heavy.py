"""Heavy hitters: Count-Min candidate filter + exact verify pass.

Finding all keys with frequency >= T by brute force is a full
distinct-key groupby — at 10^12 rows that shuffles every distinct key.
The sketch-filtered shape (Cormode & Muthukrishnan's Count-Min, the
standard streaming heavy-hitter recipe):

1. one column-pruned pass builds per-block Count-Min partials
   (``functions.sketches.CountMin``; cell-wise-sum mergeable), folded at
   the driver (n_blocks x depth*width*8 bytes — a real cluster would
   tree-reduce the same blobs);
2. the merged sketch is broadcast (``ray.put``) and a second pruned pass
   keeps only batch-partial counts of keys whose estimate >= T — CM never
   under-counts, so this is a SUPERSET of the true heavy hitters;
3. the surviving candidates (sketch-bounded, tiny) go through the normal
   bucketed exact count, and the final filter keeps true_count >= T.

Exact output (the sketch only prunes, never decides), so the result is
DuckDB-oracle-equivalent to ``GROUP BY key HAVING COUNT(*) >= T``.

Reference scope: the reference validator has no frequency operator; this
is part of the engine's training-data-pipeline family (SURVEY.md §2.8's
dedup/frequency analyses) built on the same partial+merge algebra as its
drift sketches (reference ``utils/validation.py:189-197`` only profiles
dtypes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from ndap_data_validator_ray.functions import sketches as sk
from ndap_data_validator_ray.stages.groupby import sum_by_key


def build_countmin(
    ds: "ray.data.Dataset", key: str, width: int = 8192, depth: int = 4
) -> sk.CountMin:
    """One streaming pass -> merged Count-Min of ``key`` frequencies.

    Per-BLOCK partials (``batch_size=None``) keep the driver fold at
    n_blocks blobs; each partial pre-aggregates with ``value_counts`` so
    ``np.add.at`` touches each distinct key once per block."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cm = sk.CountMin(width=width, depth=depth)
        vc = batch[key].value_counts()
        cm.add_hashes(sk.stable_hash64(vc.index.to_numpy()), vc.to_numpy())
        return pd.DataFrame({"blob": [sk.serialize(cm)]})

    merged = sk.CountMin(width=width, depth=depth)
    for row in ds.map_batches(partial, batch_format="pandas", batch_size=None).iter_rows():
        merged = merged.merge(sk.deserialize(row["blob"]))
    return merged


def heavy_hitters(
    ds: "ray.data.Dataset",
    key: str,
    threshold: int,
    count_col: str = "cnt",
    width: int = 8192,
    depth: int = 4,
) -> "ray.data.Dataset":
    """All keys with exact COUNT(*) >= threshold, as (key, count_col).

    ``ds`` is consumed twice (sketch pass + candidate pass) — pass a
    column-pruned Dataset so both passes read only the key column."""
    cm_ref = ray.put(build_countmin(ds, key, width=width, depth=depth))

    def candidates(batch: pd.DataFrame) -> pd.DataFrame:
        cm: sk.CountMin = ray.get(cm_ref)
        vc = batch[key].value_counts()
        keys = vc.index.to_numpy()
        est = cm.estimate(sk.stable_hash64(keys))
        keep = est >= threshold
        return pd.DataFrame({key: keys[keep], "_partial": vc.to_numpy()[keep]}).astype(
            {"_partial": np.int64}
        )

    cand = ds.map_batches(candidates, batch_format="pandas")
    # exact verify: bucketed sum of the candidate PARTIAL counts (never
    # re-expanded to rows), then the true threshold filter (drops CM
    # false positives)
    counted = sum_by_key(cand, [key], ["_partial"])
    return counted.map_batches(
        lambda b: b[b["_partial"] >= threshold].rename(columns={"_partial": count_col}),
        batch_format="pandas",
    )
