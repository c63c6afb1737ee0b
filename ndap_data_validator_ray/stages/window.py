"""Partitioned window functions — ROW_NUMBER / RANK / LAG / LEAD /
cumulative and rolling aggregates OVER (PARTITION BY ... ORDER BY ...).

Ray Data has no native window operator.  The scale-correct expression is
the same layout every distributed SQL engine uses: hash-partition rows by
the PARTITION BY key (``stages/groupby.exchange``) so each partition lands
whole on one reducer, sort
within the reducer, then compute every requested window column in one
vectorized pandas pass (``groupby(...).cumcount/shift/cumsum/rolling`` —
never a per-row loop).

Partitioning assumption (documented, same as sessionization in
``pipelines/queries.py``): ONE partition key's rows fit in one reducer's
memory.  That is the standard window-function contract — a window over a
single giant partition is inherently sequential; salt the key upstream if
a partition cannot fit (only frame-bounded specs like ``rolling_sum`` can
be salted safely; unbounded specs cannot).

Unlike the aggregation stages there is no combiner phase — window
functions are row-preserving, so every row must reach its reducer.  The
shuffle ships exactly the projected columns; callers should ``select``
before windowing.

Dtype contract: LAG/LEAD over integer columns yield SQL NULL on the frame
edge; pandas ``shift`` would upcast to float64, so integer inputs are
rebuilt as nullable ``Int64`` (Arrow ``int64`` + nulls) — the same
int-preservation rule as the join stages (``stages/join.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import ray.data

from ndap_data_validator_ray.stages.groupby import exchange, hash_partitioner

_KINDS = (
    "row_number", "rank", "dense_rank", "percent_rank", "cume_dist", "ntile",
    "lag", "lead", "cumsum", "cummax", "rolling_sum", "rolling_mean",
    "range_count", "range_sum", "range_mean",
)
_RANGE_KINDS = ("range_count", "range_sum", "range_mean")
_RANK_KINDS = ("row_number", "rank", "dense_rank", "percent_rank", "cume_dist", "ntile")


@dataclass(frozen=True)
class WindowSpec:
    """One output column: ``kind`` over ``col`` (ignored for row_number /
    rank kinds, which rank by the window's ORDER BY), written as ``out``.
    ``n`` is the LAG/LEAD offset or the rolling frame size (current row +
    n-1 preceding).  ``delta`` is the RANGE-frame extent for the
    ``range_*`` kinds (SQL ``RANGE BETWEEN delta PRECEDING AND CURRENT
    ROW`` over a single datetime ORDER BY column; pass a ``pd.Timedelta``)
    — SQL-exact including ORDER BY peers: every row in a tie group gets
    the full frame of its order value, even peers that sort later."""

    kind: str
    out: str
    col: str | None = None
    n: int = 1
    delta: object = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}; one of {_KINDS}")
        if self.kind not in _RANK_KINDS and self.kind != "range_count" and self.col is None:
            raise ValueError(f"{self.kind} needs col=")
        if self.kind in _RANGE_KINDS and self.delta is None:
            raise ValueError(f"{self.kind} needs delta= (the RANGE frame extent)")


def _apply_specs(
    part: pd.DataFrame, partition_by: list[str], order_by: list[str], specs: list[WindowSpec]
) -> pd.DataFrame:
    """Vectorized window computation over one sorted reducer block
    (multiple partition keys; never a per-row or per-key Python loop)."""
    part = part.sort_values(partition_by + order_by, kind="stable", ignore_index=True)
    g = part.groupby(partition_by, sort=False)
    for s in specs:
        if s.kind == "row_number":
            part[s.out] = g.cumcount() + 1
        elif s.kind in ("rank", "dense_rank"):
            # rank by the ORDER BY tuple: order_by[0] carries the ties of
            # the full tuple only when it is the sole order column, so rank
            # over the positional tuple key (stable: rows already sorted)
            key = part[order_by[0]] if len(order_by) == 1 else pd.Series(
                list(zip(*(part[c] for c in order_by))), index=part.index
            )
            method = "min" if s.kind == "rank" else "dense"
            part[s.out] = key.groupby([part[c] for c in partition_by], sort=False).rank(
                method=method
            ).astype("int64")
        elif s.kind in ("percent_rank", "cume_dist"):
            key = part[order_by[0]] if len(order_by) == 1 else pd.Series(
                list(zip(*(part[c] for c in order_by))), index=part.index
            )
            grouped = key.groupby([part[c] for c in partition_by], sort=False)
            m = g[partition_by[0]].transform("size").to_numpy()
            if s.kind == "percent_rank":
                rk = grouped.rank(method="min").to_numpy()
                part[s.out] = np.where(m > 1, (rk - 1) / np.maximum(m - 1, 1), 0.0)
            else:
                part[s.out] = grouped.rank(method="max").to_numpy() / m
        elif s.kind == "ntile":
            # SQL NTILE(n): the first (m % n) tiles get ceil(m/n) rows
            i = g.cumcount().to_numpy()
            m = g[partition_by[0]].transform("size").to_numpy()
            n = s.n
            big = m // n + 1
            n_big = m % n
            cutoff = n_big * big
            small = np.maximum(m // n, 1)
            part[s.out] = (
                np.where(i < cutoff, i // big, n_big + (i - cutoff) // small) + 1
            ).astype(np.int64)
        elif s.kind in ("lag", "lead"):
            shifted = g[s.col].shift(s.n if s.kind == "lag" else -s.n)
            if pd.api.types.is_integer_dtype(part[s.col].dtype):
                shifted = shifted.astype("Int64")  # SQL NULL edge, int preserved
            part[s.out] = shifted
        elif s.kind == "cumsum":
            part[s.out] = g[s.col].cumsum()
        elif s.kind == "cummax":
            part[s.out] = g[s.col].cummax()
        elif s.kind in _RANGE_KINDS:
            # SQL RANGE frame [order - delta, order] over a datetime ORDER BY.
            # pandas time-rolling with closed="both" gives each row the frame
            # ending at ITS position; SQL's CURRENT ROW means "last peer of my
            # order value", so broadcast the tie group's last value to every
            # peer (transform("last")) — vectorized, no per-key loop.
            if len(order_by) != 1:
                raise ValueError(f"{s.kind} needs a single ORDER BY column")
            ocol = order_by[0]
            col = s.col if s.kind != "range_count" else "_range_ones"
            if s.kind == "range_count":
                part[col] = 1.0
            # fresh groupby: g predates the helper column
            rolled = part.groupby(partition_by, sort=False).rolling(
                window=pd.Timedelta(s.delta), on=ocol, closed="both"
            )[col]
            vals = rolled.count() if s.kind == "range_count" else (
                rolled.sum() if s.kind == "range_sum" else rolled.mean()
            )
            # with on=, the inner index level is the (possibly duplicated)
            # order values — assign positionally: groupby(sort=False) over
            # the partition-sorted frame preserves row order exactly
            part[s.out] = vals.to_numpy()
            part[s.out] = part.groupby(partition_by + [ocol], sort=False)[s.out].transform("last")
            if s.kind == "range_count":
                part[s.out] = part[s.out].astype(np.int64)
                part.drop(columns=[col], inplace=True)
        else:  # rolling_sum / rolling_mean: frame = n-1 PRECEDING .. CURRENT
            rolled = g[s.col].rolling(window=s.n, min_periods=1)
            vals = rolled.sum() if s.kind == "rolling_sum" else rolled.mean()
            part[s.out] = vals.reset_index(drop=True) if len(partition_by) == 0 else vals.droplevel(
                list(range(len(partition_by)))
            )
    return part


def partitioned_window(
    ds: "ray.data.Dataset",
    partition_by: list[str],
    order_by: list[str],
    specs: list[WindowSpec],
) -> "ray.data.Dataset":
    """Append window columns to ``ds``.

    Rows are hash-bucketed on ``partition_by`` (cheap small-int-domain
    exchange, hot-key note in module docstring), each bucket sorted by
    ``partition_by + order_by`` and windowed in one vectorized pass.
    Output rows are the input rows (same dtypes) plus one column per spec;
    global row order is not defined (windows are per-partition ordered)."""
    if not partition_by:
        raise ValueError("partition_by must be non-empty (a global window is a sequential scan)")
    for s in specs:
        if s.out in set(partition_by) | set(order_by):
            raise ValueError(f"window output {s.out!r} collides with a key column")
    return exchange(
        ds,
        hash_partitioner(partition_by),
        lambda group, _pid: _apply_specs(group, partition_by, order_by, specs),
    )
