"""Fuzzy entity resolution: blocked edit-distance name matching.

The standard record-linkage shape for 100 TB: NEVER all-pairs on rows —
(1) collapse rows to DISTINCT names + occurrence counts with the
bucketed two-phase aggregation (the only exchange that sees row volume
ships (name, partial_count) rows); (2) assign each distinct name a
BLOCKING key (default: its last whitespace token — the "reliable
attribute" rule of classic ER); (3) verify all pairs ONLY within a
block, with the vectorized Levenshtein kernel
(``functions/strdist.levenshtein_batch`` — no per-pair Python loop).
Block sizes are bounded by name-domain cardinality, not row count; an
over-cap block is skipped and COUNTED (sentinel row → ``stats``
out-dict), never silent — same contract as the near-dup verify caps.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from ndap_data_validator_ray.functions.strdist import levenshtein_batch
from ndap_data_validator_ray.stages.groupby import bucketed_groupby, exchange, hash_partitioner


def _last_token(names: pd.Series) -> pd.Series:
    return names.str.rsplit(" ", n=1).str[-1]


def fuzzy_name_pairs(
    ds: "ray.data.Dataset",
    name_col: str,
    max_dist: int = 2,
    block_fn=_last_token,
    block_cap: int = 1000,
    stats: dict | None = None,
) -> pd.DataFrame:
    """All distinct-name pairs within ``max_dist`` edits sharing a
    blocking key.  Returns (name_a, name_b, dist, count_a, count_b),
    name_a < name_b, sorted."""

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch[name_col].value_counts()
        return pd.DataFrame({name_col: vc.index, "cnt": vc.to_numpy(np.int64)})

    def count_merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(name_col, as_index=False)["cnt"].sum()

    distinct = bucketed_groupby(ds, [name_col], count_partial, count_merge)

    def tag_block(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(_block=block_fn(batch[name_col]))

    def verify_bucket(group: pd.DataFrame, _pid: int) -> pd.DataFrame:
        frames = []
        oversized = 0
        for _, blk in group.groupby("_block", sort=False):
            names = blk.sort_values(name_col)
            m = len(names)
            if m < 2:
                continue
            if m > block_cap:
                oversized += 1
                continue
            ia, ib = np.triu_indices(m, k=1)
            na = names[name_col].to_numpy()
            d = levenshtein_batch(na[ia], na[ib])
            keep = d <= max_dist
            cnts = names["cnt"].to_numpy(np.int64)
            frames.append(
                pd.DataFrame(
                    {
                        "name_a": na[ia[keep]],
                        "name_b": na[ib[keep]],
                        "dist": d[keep],
                        "count_a": cnts[ia[keep]],
                        "count_b": cnts[ib[keep]],
                        "_oversized": 0,
                    }
                )
            )
        if oversized:
            frames.append(
                pd.DataFrame(
                    {
                        "name_a": [""],
                        "name_b": [""],
                        "dist": [np.int64(-1)],
                        "count_a": [np.int64(0)],
                        "count_b": [np.int64(0)],
                        "_oversized": [oversized],
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "name_a": pd.Series([], dtype=object),
                    "name_b": pd.Series([], dtype=object),
                    "dist": pd.Series([], dtype=np.int64),
                    "count_a": pd.Series([], dtype=np.int64),
                    "count_b": pd.Series([], dtype=np.int64),
                    "_oversized": pd.Series([], dtype=np.int64),
                }
            )
        return pd.concat(frames, ignore_index=True)

    out = exchange(
        distinct.map_batches(tag_block, batch_format="pandas"),
        hash_partitioner(["_block"]),
        verify_bucket,
    ).to_pandas()
    if stats is not None:
        stats["oversized_blocks"] = int(out["_oversized"].sum())
    out = out[out["dist"] >= 0].drop(columns=["_oversized"])
    out["dist"] = out["dist"].astype(np.int64)
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)
