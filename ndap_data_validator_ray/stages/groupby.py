"""The engine's one exchange, and bucketed (two-phase) grouped aggregation
on top of it.

``exchange`` is the only place a Dataset is shuffled by key: rows get a
small-int partition id, ``groupby(id).map_groups(reduce)`` runs one
reducer per partition.  ``cogroup`` layers multi-leg joins on it (union
schema, side marker, Arrow side-split).  Every bucketed stage routes
through these two, so the fan-out strategy can change here alone.

``Dataset.groupby(key).aggregate(...)`` in this Ray version sort-shuffles on
the raw key; with 10^5+ distinct keys the sort dominates (measured 29s vs
2s at sf0.1 for 15k groups, 32 CPUs).  The classic fix — and the layout
that scales to 10^12 keys on a real cluster — is an explicit partitioned
hash aggregation (ray_guide "Joins and lookups" / "Aggregation at scale"):

1. per-batch partial aggregation (combiner) inside ``map_batches``;
2. partition id ``bucket = stable_hash(key) % B`` — the shuffle key is a
   SMALL int domain, so the exchange is a cheap B-way partition, and hot
   keys spread across *batch partials* cannot skew a reducer beyond its
   bucket;
3. one ``exchange`` whose reducer does an in-memory pandas merge of its
   bucket's partials.

``n_buckets`` is the cluster-parallelism knob: ~2-4x the worker count.
Correct for any commutative partial/merge pair (same algebra as the
checkpoint sketches)."""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

import ray.data

from ndap_data_validator_ray.functions.sketches import stable_hash64

BUCKET_COL = "_bucket"


def default_n_buckets() -> int:
    """Cluster-sized bucket count: ~2-4x the worker CPUs (the shuffle's
    parallelism knob), clamped so tiny test clusters still spread and a
    big cluster doesn't explode tiny inputs into thousands of groups."""
    try:
        import ray

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


def stable_bucket(keys: pd.Series | pd.DataFrame, n_buckets: int) -> np.ndarray:
    """Deterministic bucket ids from one or more key columns:
    ``stable_hash64(key) % n_buckets`` after dtype normalization."""
    if isinstance(keys, pd.DataFrame):
        h = stable_hash64(pd.DataFrame({c: _hash_stable_dtype(keys[c]) for c in keys.columns}))
    else:
        h = stable_hash64(_hash_stable_dtype(keys).to_numpy())
    return (h % np.uint64(n_buckets)).astype(np.int64)


def hash_partitioner(key_cols: list[str], n_buckets: int) -> Callable:
    """``partition_of`` for :func:`exchange`/:func:`cogroup`: the
    ``stable_bucket`` of ``key_cols`` for a pandas or an Arrow batch."""

    def partition_of(batch) -> np.ndarray:
        keys = batch[key_cols] if isinstance(batch, pd.DataFrame) else batch.select(key_cols).to_pandas()
        return stable_bucket(keys if len(key_cols) > 1 else keys[key_cols[0]], n_buckets)

    return partition_of


def exchange(
    ds: "ray.data.Dataset | list[ray.data.Dataset]",
    partition_of: Callable,
    reduce: Callable,
    batch_format: str = "pandas",
) -> "ray.data.Dataset":
    """The engine's one shuffle: route every row to the reducer of its
    partition and run ``reduce(group, partition_id)`` once per partition.

    ``ds`` is one Dataset or a list of legs with one schema; each leg is
    tagged with ``partition_of(batch)`` (an int array, one id per row)
    before the legs union, so the tag fuses into the leg's last map.  The
    exchange itself is ``groupby(id).map_groups`` on that small int
    domain — the sort shuffle never sees the raw key space.  ``reduce``
    gets the group without the id column, in ``batch_format``.  Choosing a
    different fan-out strategy means changing this function only."""
    import pyarrow as pa

    if batch_format == "pyarrow":

        def tag(batch: "pa.Table") -> "pa.Table":
            return batch.append_column(BUCKET_COL, pa.array(partition_of(batch), pa.int64()))

        def run(group: "pa.Table"):
            return reduce(group.drop_columns([BUCKET_COL]), group[BUCKET_COL][0].as_py())

    else:

        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            # shallow copy: the batch may be a slice of an upstream frame,
            # and a new column must not write into it
            out = batch.copy(deep=False)
            out[BUCKET_COL] = partition_of(batch)
            return out

        def run(group: pd.DataFrame):
            return reduce(group.drop(columns=[BUCKET_COL]), int(group[BUCKET_COL].iloc[0]))

    legs = [leg.map_batches(tag, batch_format=batch_format) for leg in (ds if isinstance(ds, list) else [ds])]
    tagged = legs[0].union(*legs[1:]) if len(legs) > 1 else legs[0]
    return tagged.groupby(BUCKET_COL).map_groups(run, batch_format=batch_format)


def cogroup(
    legs: list[tuple["ray.data.Dataset", "pa.Schema"]],
    reduce: Callable,
    partition_of: Callable,
) -> "ray.data.Dataset":
    """Co-partition several Arrow legs: ``reduce(*sides)`` runs once per
    partition with one Arrow table per leg.

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
    n_buckets: int = 64,
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
        hash_partitioner(key_cols, n_buckets),
        lambda group, _pid: local_merge(group),
    )


def sum_by_key(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    value_cols: list[str],
    n_buckets: int = 64,
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

    return bucketed_groupby(ds, key_cols, partial, merge, n_buckets, partial_format=partial_format)


def count_by_key(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    n_buckets: int = 64,
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

    return bucketed_groupby(ds, key_cols, partial, merge, n_buckets, partial_format=partial_format)
