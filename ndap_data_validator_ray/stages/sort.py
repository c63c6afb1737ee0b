"""Distributed global sort / ranking via range partitioning.

The scale-correct global ORDER BY: no single node ever sees the full
table.  Three streaming passes:

1. **Sample** (projected scan, tiny output): every block emits up to
   ``sample_per_block`` evenly-spaced samples of the first order column;
   the driver sorts the pooled sample and picks ``n_parts - 1`` range
   boundaries.
2. **Count** (projected scan, tiny output): per-batch bincount of the
   range-partition id → exact per-partition row counts → prefix offsets,
   broadcast to the shuffle pass.  (Counting before the shuffle lets the
   reducers emit FINAL global ranks in one pass instead of re-scanning
   the shuffled output.)
3. **Shuffle**: ``stages/groupby.exchange`` with the range partition id
   as the partition function — each reducer sorts ITS range by the full
   order tuple and adds the partition's prefix offset.

Rows equal on the first order column always share a partition
(``searchsorted(..., side="right")``), so ties are resolved entirely
inside one reducer by the full tuple — global ranks are exact and
deterministic when the tuple is unique (pass a unique tie-break column,
the same contract as SQL ROW_NUMBER with a total order).

Skew: a single first-column value larger than one partition's share is
the classic range-sort hot spot; the sample-based boundaries bound every
OTHER partition, and the hot value's partition degrades to one bigger
reducer (documented limit — same behavior as Spark's range partitioner).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from ndap_data_validator_ray.stages.groupby import exchange


def _order_key(batch: pd.DataFrame, col: str, ascending: bool) -> np.ndarray:
    v = batch[col].to_numpy()
    if not ascending:
        if np.issubdtype(v.dtype, np.number):
            return -v
        raise ValueError("descending order needs a numeric first order column")
    return v


class _RangePlan:
    """Shared machinery of the range-partitioned window primitives
    (global_rank / global_running_sum): pass-1 boundary sampling, the
    pid_of partitioner (the ``exchange`` partition function of pass 3),
    and the pass-2 per-pid driver fold.
    One implementation so boundary/sampling fixes can't drift between the
    two operators (round-3 ADVICE)."""

    def __init__(
        self,
        ds: "ray.data.Dataset",
        order_by: list[str],
        ascending: list[bool] | None,
        n_parts: int | None,
        sample_per_block: int,
    ):
        if ascending is None:
            ascending = [True] * len(order_by)
        if len(ascending) != len(order_by):
            raise ValueError("ascending must match order_by")
        self.ds, self.order_by, self.ascending = ds, order_by, ascending
        self.first, self.first_asc = order_by[0], ascending[0]
        n_parts = n_parts or 32
        first, first_asc = self.first, self.first_asc

        def sample(batch: pd.DataFrame) -> pd.DataFrame:
            k = _order_key(batch, first, first_asc)
            if not len(k):
                return pd.DataFrame({"s": k})
            idx = np.linspace(0, len(k) - 1, min(sample_per_block, len(k))).astype(np.int64)
            return pd.DataFrame({"s": np.sort(k)[idx]})

        pooled = np.sort(
            ds.map_batches(sample, batch_format="pandas").to_pandas()["s"].to_numpy()
        )
        self.empty = not len(pooled)
        if self.empty:
            return
        q = np.linspace(0, len(pooled) - 1, n_parts + 1)[1:-1].astype(np.int64)
        self.boundaries = np.unique(pooled[q])
        self.n_pids = len(self.boundaries) + 1

    def empty_result(self, out: str) -> "ray.data.Dataset":
        return self.ds.map_batches(
            lambda b: b.assign(**{out: np.int64([])}), batch_format="pandas"
        )

    def make_pid_of(self):
        """A partitioner closing over PLAIN ARRAYS only — never ``self``
        (which holds the Dataset; capturing it in a map_batches closure
        would ship the whole DAG to every worker)."""
        boundaries, first, first_asc = self.boundaries, self.first, self.first_asc

        def pid_of(batch: pd.DataFrame) -> np.ndarray:
            return np.searchsorted(boundaries, _order_key(batch, first, first_asc), side="right")

        return pid_of

    def fold_partials(self, partial, col: str) -> np.ndarray:
        """Pass 2: per-batch (pid, col) partial rows -> per-pid totals on
        the driver (tiny: n_pids rows per block).  Dtype-preserving:
        all-int64 partials fold to int64 (exact prefix sums)."""
        ser = (
            self.ds.map_batches(partial, batch_format="pandas")
            .to_pandas()
            .groupby("pid")[col]
            .sum()
        )
        return ser.reindex(range(self.n_pids), fill_value=0).to_numpy()

    def shuffle_fold(self, fold) -> "ray.data.Dataset":
        """Pass 3: tag rows with their pid, exchange, sort each range by
        the full order tuple, apply ``fold(sorted_group, pid)``."""
        pid_of, order_by, ascending = self.make_pid_of(), self.order_by, self.ascending

        def run(group: pd.DataFrame, pid: int) -> pd.DataFrame:
            group = group.sort_values(order_by, ascending=ascending, kind="stable", ignore_index=True)
            return fold(group, pid)

        return exchange(self.ds, lambda batch, _n: pid_of(batch), run, n_partitions=self.n_pids)


def global_rank(
    ds: "ray.data.Dataset",
    order_by: list[str],
    ascending: list[bool] | None = None,
    out: str = "rank",
    n_parts: int | None = None,
    sample_per_block: int = 64,
) -> "ray.data.Dataset":
    """Append a global 1-based dense row rank (``ROW_NUMBER`` over the
    total order ``order_by`` with per-column ``ascending``).  Descending
    is supported for numeric columns (negation keeps one searchsorted
    code path)."""
    plan = _RangePlan(ds, order_by, ascending, n_parts, sample_per_block)
    if plan.empty:
        return plan.empty_result(out)

    pid_of = plan.make_pid_of()
    n_pids = plan.n_pids

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        c = np.bincount(pid_of(batch), minlength=n_pids)
        return pd.DataFrame({"pid": np.arange(len(c), dtype=np.int64), "n": c.astype(np.int64)})

    counts = plan.fold_partials(count_partial, "n")
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    off_ref = ray.put(offsets)

    def rank_fold(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        offs = ray.get(off_ref)
        group[out] = offs[pid] + 1 + np.arange(len(group), dtype=np.int64)
        return group

    return plan.shuffle_fold(rank_fold)


def global_running_sum(
    ds: "ray.data.Dataset",
    order_by: list[str],
    val: str,
    ascending: list[bool] | None = None,
    out: str = "running",
    n_parts: int | None = None,
    sample_per_block: int = 64,
) -> "ray.data.Dataset":
    """Append ``SUM(val) OVER (ORDER BY order_by ROWS UNBOUNDED
    PRECEDING)`` — the distributed un-partitioned running aggregate (the
    sweep-line primitive).  Same three passes as :func:`global_rank`, but
    pass 2 sums ``val`` per range partition instead of counting rows, so
    each reducer starts from the exact prefix SUM of every earlier range
    and one cumsum finishes its slice.  Ties on the first order column
    share a partition, so tie ordering resolves inside one reducer; rows
    tied on the FULL order tuple get order-dependent individual values
    (same as SQL ROWS framing) but an order-invariant multiset.

    Exactness: a null-free INTEGER ``val`` column accumulates in int64
    end-to-end (per-block partials, driver prefix fold, reducer cumsum) —
    exact at any magnitude int64 can hold, not just below 2^53.  A float
    (or null-carrying, hence float-upcast) column accumulates in float64
    with the usual rounding."""
    plan = _RangePlan(ds, order_by, ascending, n_parts, sample_per_block)
    if plan.empty:
        return plan.empty_result(out)

    pid_of = plan.make_pid_of()

    def sum_partial(batch: pd.DataFrame) -> pd.DataFrame:
        pid = pid_of(batch)
        v = batch[val].to_numpy()
        # dtype-preserving per-pid partial: int64 stays int64 (np.bincount's
        # float64 weights would silently round prefixes past 2^53)
        part = pd.DataFrame({"pid": pid, "v": v}).groupby("pid", as_index=False)["v"].sum()
        return part

    sums = plan.fold_partials(sum_partial, "v")
    if np.issubdtype(sums.dtype, np.integer):
        prefix = np.concatenate([[np.int64(0)], np.cumsum(sums)[:-1]]).astype(np.int64)
    else:
        prefix = np.concatenate([[0.0], np.cumsum(sums.astype(np.float64))[:-1]])
    pre_ref = ray.put(prefix)

    def run_fold(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        pre = ray.get(pre_ref)
        v = group[val].to_numpy()
        if np.issubdtype(v.dtype, np.integer) and np.issubdtype(pre.dtype, np.integer):
            group[out] = pre[pid] + np.cumsum(v.astype(np.int64))
        else:
            group[out] = float(pre[pid]) + np.cumsum(v.astype(np.float64))
        return group

    return plan.shuffle_fold(run_fold)
