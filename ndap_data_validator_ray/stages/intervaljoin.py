"""Distributed interval OVERLAP join (intervals x intervals).

Third member of the ordered-join family: stages/asof.py matches each left
row to ONE right row by time, stages/rangejoin.py matches POINTS into
intervals within an equality key — this stage joins two interval SETS on
the overlap predicate ``a.start <= b.end AND b.start <= a.end`` (closed
intervals), with no equality key required.  The canonical uses: session
overlap across users, outage windows x job runs, contract/coverage
period reconciliation.

Partitioning is temporal REPLICATION + an owner-bucket rule (the classic
spatial-join de-dup trick, cf. the "reference point" method of Dittrich &
Seeger / Zhou et al. for parallel spatial joins):

- time is cut into fixed-width buckets (``bucket_width``); each interval
  is replicated to EVERY bucket its span touches — a pair that overlaps
  must co-occur in at least one bucket (their overlap region lies in one
  or more buckets both touch);
- a co-bucketed pair is EMITTED only by its owner bucket, the one
  containing ``max(a.start, b.start)`` (the overlap region's left edge) —
  each qualifying pair is emitted exactly once, no global dedup exchange
  needed;
- within a bucket the probe is vectorized: the right side is sorted by
  start; for each left interval a ``searchsorted`` prefix bounds the
  candidates with ``r.start <= l.end``, and the remaining ``r.end >=
  l.start`` + owner-bucket checks are numpy masks over that prefix,
  chunked so no intermediate mask exceeds ~4M cells.

Sizing contract (documented, the caller's knob): ``bucket_width`` should
be ~the TYPICAL interval length — replication factor is
``len/width + 1`` per interval, while a too-wide bucket concentrates
unrelated intervals in one reducer.  Long-tail intervals (e.g. a
never-closed session) replicate O(span/width) times; clamp or split them
upstream.  All columns ride the exchange as int64 (epoch days/seconds/
micros — caller's unit); the exchanged row is a homogeneous
(id, s, e, side, bucket) tuple, so the union never mixes schemas (the
repo's join dtype contract).

Returns (id_a, id_b, overlap) rows — ``overlap`` = ``min(e) - max(s)``
in the caller's unit (>= 0 for closed-interval overlaps).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ndap_data_validator_ray.stages.groupby import bucketed_groupby

_COLS = ["id", "s", "e", "side", "bkt"]
_MAX_MASK_CELLS = 4_000_000

_EMPTY = pd.DataFrame(
    {
        "id_a": pd.Series([], dtype=np.int64),
        "id_b": pd.Series([], dtype=np.int64),
        "overlap": pd.Series([], dtype=np.int64),
    }
)


def _replicate(side: int, id_col: str, start_col: str, end_col: str, width: int):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].to_numpy().astype(np.int64)
        s = batch[start_col].to_numpy().astype(np.int64)
        e = batch[end_col].to_numpy().astype(np.int64)
        keep = e >= s  # degenerate (end < start) intervals match nothing
        ids, s, e = ids[keep], s[keep], e[keep]
        lo = s // width
        hi = e // width
        counts = (hi - lo + 1).astype(np.int64)
        if not len(ids):
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64) for c in _COLS}
            )[_COLS]
        rep = np.repeat(np.arange(len(ids)), counts)
        # bucket index for each replica: lo[i], lo[i]+1, ..., hi[i]
        offs = np.arange(len(rep)) - np.repeat(np.cumsum(counts) - counts, counts)
        return pd.DataFrame(
            {
                "id": ids[rep],
                "s": s[rep],
                "e": e[rep],
                "side": np.full(len(rep), side, dtype=np.int64),
                "bkt": lo[rep] + offs,
            }
        )[_COLS]

    return fn


def interval_overlap_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    id_col: str = "id",
    start_col: str = "s",
    end_col: str = "e",
    bucket_width: int = 7,
) -> pd.DataFrame:
    """All (left, right) interval pairs that overlap (module docstring).
    Both sides need int64 (id_col, start_col, end_col); closed-interval
    semantics.  Returns (id_a, id_b, overlap) sorted, exactly one row per
    qualifying pair."""
    if bucket_width <= 0:
        raise ValueError(f"bucket_width must be positive, got {bucket_width}")
    w = int(bucket_width)

    tagged = left.map_batches(
        _replicate(0, id_col, start_col, end_col, w), batch_format="pandas"
    ).union(
        right.map_batches(_replicate(1, id_col, start_col, end_col, w), batch_format="pandas")
    )

    def probe(group: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for bkt, g in group.groupby("bkt", sort=False):
            a = g[g["side"] == 0]
            b = g[g["side"] == 1].sort_values("s", kind="mergesort")
            if a.empty or b.empty:
                continue
            ia = a["id"].to_numpy()
            sa = a["s"].to_numpy()
            ea = a["e"].to_numpy()
            ib = b["id"].to_numpy()
            sb = b["s"].to_numpy()
            eb = b["e"].to_numpy()
            step = max(1, _MAX_MASK_CELLS // max(1, len(ib)))
            for st in range(0, len(ia), step):
                sl = slice(st, st + step)
                # candidates: r.start <= l.end (prefix of the start-sorted
                # right side), then r.end >= l.start and the owner rule
                nmax = np.searchsorted(sb, ea[sl], side="right")
                if not nmax.max(initial=0):
                    continue
                width_b = int(nmax.max())
                m = (
                    (np.arange(width_b)[None, :] < nmax[:, None])
                    & (eb[None, :width_b] >= sa[sl][:, None])
                    & ((np.maximum(sa[sl][:, None], sb[None, :width_b]) // w) == bkt)
                )
                ai, bi = np.nonzero(m)
                if len(ai):
                    outs.append(
                        pd.DataFrame(
                            {
                                "id_a": ia[sl][ai],
                                "id_b": ib[bi],
                                "overlap": np.minimum(ea[sl][ai], eb[bi])
                                - np.maximum(sa[sl][ai], sb[bi]),
                            }
                        )
                    )
        if not outs:
            return _EMPTY.copy()
        return pd.concat(outs, ignore_index=True)

    out = bucketed_groupby(tagged, ["bkt"], lambda b: b, probe).to_pandas()
    if out.empty:
        return _EMPTY.copy()
    for c in ("id_a", "id_b", "overlap"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
