"""The engine's one exchange, and bucketed (two-phase) grouped aggregation
on top of it.

``exchange`` is the only place a Dataset is shuffled by key: rows get a
small-int partition id, and a Ray-core split/merge (split tasks per
block, a few reduce tasks over contiguous id ranges) runs one reducer call
per partition.  ``cogroup`` layers multi-leg joins on it (union schema,
side marker, Arrow side-split).  Every bucketed stage routes through these
two, so the fan-out strategy can change here alone.

``Dataset.groupby(key).aggregate(...)`` in this Ray version sort-shuffles on
the raw key; with 10^5+ distinct keys the sort dominates (measured 29s vs
2s at sf0.1 for 15k groups, 32 CPUs).  The classic fix — and the layout
that scales to 10^12 keys on a real cluster — is an explicit partitioned
hash aggregation (ray_guide "Joins and lookups" / "Aggregation at scale"):

1. per-batch partial aggregation (combiner) inside ``map_batches``;
2. partition id ``bucket = stable_hash(key) % R`` — the shuffle key is a
   SMALL int domain, so the exchange is a cheap R-way partition, and hot
   keys spread across *batch partials* cannot skew a reducer beyond its
   bucket;
3. one ``exchange`` whose reducer does an in-memory pandas merge of its
   bucket's partials.

The exchange picks R from the input (see ``exchange``); no caller
chooses a bucket count.  Correct for any commutative partial/merge pair
(same algebra as the checkpoint sketches)."""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

import pyarrow as pa
import ray
import ray.data

from ndap_data_validator_ray.functions.sketches import stable_hash64


def default_n_buckets() -> int:
    """Cluster-sized cap on an exchange's reduce tasks: ~3x the worker
    CPUs, clamped to [32, 512] so a big cluster doesn't explode an input
    into thousands of tasks."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 16)) if ray.is_initialized() else 16
    except Exception:
        cpus = 16
    return int(min(512, max(32, 3 * cpus)))


def _hash_stable_dtype(s: pd.Series) -> pd.Series:
    """Dtype-normalize a key column before hashing: a nullable int column
    arrives as int64 in null-free batches but float64 (or Int64) where a
    null forced an upcast — and pandas hashes 1 and 1.0 differently, so
    the SAME key value would land in DIFFERENT buckets depending on which
    batch (or side) it rode in.  Numeric keys therefore hash through
    float64 (deterministic; a >2^53 collision only co-locates, never
    splits, and merges always compare true values)."""
    if pd.api.types.is_bool_dtype(s) or pd.api.types.is_numeric_dtype(s):
        return s.astype("float64")
    if s.dtype == object and s.isna().any():
        # object nulls arrive as None in some batches and NaN in others,
        # which hash differently — map both to one sentinel so the SQL
        # NULL group co-locates (a real "\\0" key would merely share the
        # bucket; the merge still groups it separately)
        s = s.copy()
        s[s.isna()] = "\0"
    return s


def stable_bucket(keys: pd.Series | pd.DataFrame, n: int) -> np.ndarray:
    """Deterministic bucket ids from one or more key columns:
    ``stable_hash64(key) % n`` after dtype normalization."""
    if isinstance(keys, pd.DataFrame):
        h = stable_hash64(pd.DataFrame({c: _hash_stable_dtype(keys[c]) for c in keys.columns}))
    else:
        h = stable_hash64(_hash_stable_dtype(keys).to_numpy())
    return (h % np.uint64(n)).astype(np.int64)


def hash_partitioner(key_cols: list[str]) -> Callable:
    """``partition_of`` for :func:`exchange`/:func:`cogroup`: the
    ``stable_bucket`` of ``key_cols`` in ``[0, n)`` for a pandas or an
    Arrow batch."""

    def partition_of(batch, n: int) -> np.ndarray:
        keys = batch[key_cols] if isinstance(batch, pd.DataFrame) else batch.select(key_cols).to_pandas()
        return stable_bucket(keys if len(key_cols) > 1 else keys[key_cols[0]], n)

    return partition_of


# Reduce tasks any exchange gets, CPUs permitting; input bytes that earn
# one more task, up to the CPU count; and the most one task is sized to
# take (see ``exchange``).
EXCHANGE_FLOOR_TASKS = 8
EXCHANGE_MIN_TASK_BYTES = 4 << 20
EXCHANGE_TASK_BYTES = 64 << 20


def _reduce_tasks(in_bytes: int) -> int:
    """R, the reduce tasks of one exchange: ``EXCHANGE_FLOOR_TASKS``, or
    one per ``EXCHANGE_MIN_TASK_BYTES`` of input if that is more, at most
    one per cluster CPU; past the CPUs only when a task would take more
    than ``EXCHANGE_TASK_BYTES``; never above ``default_n_buckets()``.
    A small input so never fans out across a big cluster: CC over a
    15k-node graph, on 4 logical CPUs of one core, took 12 s at R = 8 and
    41 s at R = 32 (task overhead, not data)."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    spread = min(cpus, max(EXCHANGE_FLOOR_TASKS, -(-in_bytes // EXCHANGE_MIN_TASK_BYTES)))
    return int(min(default_n_buckets(), max(spread, -(-in_bytes // EXCHANGE_TASK_BYTES))))


def _take(batch, idx: np.ndarray):
    return batch.take(idx) if not isinstance(batch, pd.DataFrame) else batch.iloc[idx]


@ray.remote
def _split_task(block, partition_of: Callable, batch_format: str, bounds: np.ndarray):
    """One block -> one ``(rows, pids)`` slice per reduce task, rows sorted
    by pid (stable, so a pid's rows keep block order), plus the slices'
    row counts as the last return."""
    from ray.data.block import BlockAccessor

    batch = BlockAccessor.for_block(block).to_batch_format(batch_format)
    pids = np.asarray(partition_of(batch, int(bounds[-1])), dtype=np.int64)
    order = np.argsort(pids, kind="stable")
    pids = pids[order]
    if len(pids) and (pids[0] < 0 or pids[-1] >= bounds[-1]):
        raise ValueError(f"partition id out of range [0, {bounds[-1]}): {pids[0]}..{pids[-1]}")
    cuts = np.searchsorted(pids, bounds)
    slices = [(_take(batch, order[a:b]), pids[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    return (*slices, np.diff(cuts))


@ray.remote
def _reduce_task(reduce: Callable, *parts):
    """Concatenate one reduce task's slices in leg/block order and call
    ``reduce(group, pid)`` once per pid, ascending.  Returns the output
    block and its metadata."""
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    stats = BlockExecStats.builder()
    batches = [b for b, _ in parts]
    pids = np.concatenate([p for _, p in parts])
    if isinstance(batches[0], pd.DataFrame):
        data = pd.concat(batches, ignore_index=True)
    else:
        data = pa.concat_tables(batches, promote_options="permissive")
    if len(parts) > 1:  # each slice is pid-sorted, their concatenation is not
        order = np.argsort(pids, kind="stable")
        pids, data = pids[order], _take(data, order)
    starts = np.flatnonzero(np.r_[True, pids[1:] != pids[:-1]])
    ends = np.r_[starts[1:], len(pids)]
    builder = DelegatingBlockBuilder()
    for a, b in zip(starts, ends):
        group = data.iloc[a:b].reset_index(drop=True) if isinstance(data, pd.DataFrame) else data.slice(a, b - a)
        builder.add_batch(reduce(group, int(pids[a])))
    block = builder.build()
    return block, BlockMetadataWithSchema.from_block(block, stats=stats.build())


def _await(refs: list) -> list:
    """``ray.get`` that first lets every ref finish, so a failing task
    never leaves its siblings running behind the raised error."""
    if refs:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
    return ray.get(refs)


def _from_block_refs(blocks: list, metas: list) -> "ray.data.Dataset":
    """An already-executed Dataset over reducer output blocks, in order."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromBlocks
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(DatasetStats(metadata={"FromBlocks": metas}, parent=None), DataContext.get_current().copy())
    return MaterializedDataset(plan, LogicalPlan(FromBlocks(blocks, metas), plan._context))


def exchange(
    ds: "ray.data.Dataset | list[ray.data.Dataset]",
    partition_of: Callable,
    reduce: Callable,
    batch_format: str = "pandas",
    n_partitions: int | None = None,
) -> "ray.data.Dataset":
    """The engine's one shuffle: route every row to the reducer of its
    partition and run ``reduce(group, partition_id)`` once per non-empty
    partition, in ascending partition id.

    ``ds`` is one Dataset or a list of legs with one schema;
    ``partition_of(batch, n)`` gives each row an id in ``[0, n)``.  The
    shuffle is a Ray-core split/merge over the legs' blocks with R reduce
    tasks, sized by ``_reduce_tasks`` from the input bytes and the cluster
    CPUs, so the fan-out follows the data.  The exchange owns the
    domain: n = R, one partition per reduce task.  A caller whose ids
    mean something outside the shuffle (sort ranges, a persisted bucket,
    packed bin ids) fixes n with ``n_partitions``; R is then capped at
    n and each task owns a contiguous pid range.  One split task per
    non-empty block cuts it into R slices by pid range; reduce task j
    concatenates its slices in leg/block/row order and calls ``reduce``
    per pid, with the group in ``batch_format`` and without the id.
    Every task is awaited before this returns or raises, and the result
    is an already-executed Dataset whose blocks come out in ascending pid
    order."""
    legs = ds if isinstance(ds, list) else [ds]
    blocks = [
        (ref, meta)
        for leg in legs
        for bundle in leg.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows != 0
    ]
    n_tasks = _reduce_tasks(sum(meta.size_bytes or 0 for _, meta in blocks))
    n = n_tasks if n_partitions is None else n_partitions
    n_tasks = max(1, min(n_tasks, n))
    # reduce task j owns pids [bounds[j], bounds[j + 1])
    bounds = np.array([j * n // n_tasks for j in range(n_tasks + 1)], dtype=np.int64)

    fn_ref = ray.put(partition_of)
    splits = [
        _split_task.options(num_returns=n_tasks + 1).remote(ref, fn_ref, batch_format, bounds)
        for ref, _ in blocks
    ]
    counts = _await([s[-1] for s in splits])
    reduce_ref = ray.put(reduce)
    outs = []
    for j in range(n_tasks):
        parts = [s[j] for s, c in zip(splits, counts) if c[j]]
        if parts:
            outs.append(_reduce_task.options(num_returns=2).remote(reduce_ref, *parts))
    metas = _await([m for _, m in outs])
    return _from_block_refs([b for b, _ in outs], metas)


def cogroup(
    legs: list[tuple["ray.data.Dataset", "pa.Schema"]],
    reduce: Callable,
    partition_of: Callable,
) -> "ray.data.Dataset":
    """Co-partition several Arrow legs: ``reduce(*sides)`` runs once per
    non-empty partition with one Arrow table per leg (the partition
    domain is :func:`exchange`'s).

    ``legs`` pairs each Dataset with the schema of the columns it
    contributes.  Every leg is padded with typed nulls to the union of
    those schemas (the first leg's type wins on a shared name; a leg's own
    column of another type is cast to it) and marked with its leg index;
    ``partition_of`` sees the padded batch.  Each reducer splits the sides
    while still ARROW and gives leg i only its own columns, so real values
    never share a pandas column with the other legs' null padding (which
    would upcast int64 to float64 and corrupt keys above 2^53)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    union: dict[str, "pa.DataType"] = {}
    for _, schema in legs:
        for f in schema:
            union.setdefault(f.name, f.type)
    side_col = "_side"
    union_schema = pa.schema([pa.field(n, t) for n, t in union.items()] + [pa.field(side_col, pa.int8())])

    def pad(side: int, own: set[str]):
        def fn(batch: "pa.Table") -> "pa.Table":
            n = batch.num_rows
            cols = []
            for name, typ in union.items():
                col = batch[name] if name in own else pa.nulls(n, typ)
                cols.append(col.cast(typ) if col.type != typ else col)
            cols.append(pa.array(np.full(n, side, dtype=np.int8)))
            return pa.Table.from_arrays(cols, schema=union_schema)

        return fn

    # the reducer closes over column names only, never the leg Datasets
    # (a captured Dataset would ship its whole DAG to every worker)
    names = [schema.names for _, schema in legs]

    def split(group: "pa.Table", _pid: int):
        side = group[side_col]
        return reduce(*(group.filter(pc.equal(side, i)).select(own) for i, own in enumerate(names)))

    padded = [
        ds.map_batches(pad(i, set(own)), batch_format="pyarrow")
        for i, ((ds, _), own) in enumerate(zip(legs, names))
    ]
    return exchange(padded, partition_of, split, batch_format="pyarrow")


def bucketed_groupby(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    batch_partial: Callable,
    local_merge: Callable[[pd.DataFrame], pd.DataFrame],
    partial_format: str = "pandas",
) -> "ray.data.Dataset":
    """Two-phase grouped aggregation.

    ``batch_partial``: batch -> partial rows (must carry key_cols).
    ``local_merge``: all partial rows of one bucket -> final rows for every
    key in that bucket.

    ``partial_format="pyarrow"`` feeds ``batch_partial`` zero-copy Arrow
    tables (it may return an Arrow table or a DataFrame) — the scan-side
    chain then never pays an Arrow->pandas copy of the FULL block; only the
    already-aggregated partial (<= n_keys-in-block rows) converts for
    bucketing and the exchange.
    """
    return exchange(
        ds.map_batches(batch_partial, batch_format=partial_format),
        hash_partitioner(key_cols),
        lambda group, _pid: local_merge(group),
    )


def sum_by_key(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    value_cols: list[str],
    partial_format: str = "pyarrow",
) -> "ray.data.Dataset":
    """Convenience: SUM(value_cols) GROUP BY key_cols, bucketed.

    SQL NULL-group semantics: null keys form ONE group (Arrow ``group_by``
    and pandas ``dropna=False`` both do this; pandas' default would
    silently drop them).  The default partial is Arrow-native
    (``Table.group_by``): the full block never converts to pandas — only
    the per-block partial does (round-3 verdict item 5)."""

    if partial_format == "pyarrow":
        import pyarrow as pa

        def partial(batch: "pa.Table") -> "pa.Table":
            agg = batch.group_by(key_cols).aggregate([(v, "sum") for v in value_cols])
            return agg.rename_columns(list(key_cols) + list(value_cols))

    else:

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.groupby(key_cols, as_index=False, dropna=False)[value_cols].sum()

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(key_cols, as_index=False, dropna=False)[value_cols].sum()

    return bucketed_groupby(ds, key_cols, partial, merge, partial_format=partial_format)


def count_by_key(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    count_col: str = "cnt",
    partial_format: str = "pyarrow",
) -> "ray.data.Dataset":
    """Convenience: COUNT(*) GROUP BY key_cols, bucketed (null keys
    form one group, as in SQL — see sum_by_key)."""

    if partial_format == "pyarrow":
        import pyarrow as pa

        def partial(batch: "pa.Table") -> "pa.Table":
            agg = batch.group_by(key_cols).aggregate([([], "count_all")])
            return agg.rename_columns(list(key_cols) + [count_col])

    else:

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            g = batch.groupby(key_cols, as_index=False, dropna=False).size()
            return g.rename(columns={"size": count_col})

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(key_cols, as_index=False, dropna=False)[count_col].sum()

    return bucketed_groupby(ds, key_cols, partial, merge, partial_format=partial_format)
