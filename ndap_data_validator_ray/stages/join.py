"""Partitioned hash join for large x large tables.

Ray Data's native ``Dataset.join`` exists in this version but the portable,
skew-controllable pattern (ray_guide "Joins and lookups") is an explicit
bucketed hash join: both sides go through ``stages/groupby.cogroup`` (the
shared ``exchange`` on ``bucket = stable_hash(key) % B``, both legs padded
to one Arrow schema and split again per bucket), and each bucket
pandas-merges its two sides.  The partition function this module passes
in sprays null keys round-robin and salts hot keys; build-side
replication for salting is a map before the exchange.

Use only when BOTH sides are large: a small side should be broadcast with
``ray.put`` + per-batch map instead (see pipelines/queries.py
``top_revenue_customers`` / ``customers_without_orders``).

Skew: a hot join key lands in one bucket, but only with its own bucket
peers; salt hot keys (``hot_keys``/``salt``) or pre-aggregate one side
when semantics allow (the aggregate-join queries pre-aggregate the fact
side per batch first).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ndap_data_validator_ray.stages.groupby import cogroup, hash_partitioner

_SALT_COL = "_salt"


def detect_hot_keys(
    ds: "ray.data.Dataset",
    key: str,
    min_share: float = 0.01,
    per_block_top: int = 8,
) -> list:
    """Approximate hot-key detection for join salting: each BLOCK emits its
    top-``per_block_top`` key counts (a key owning >= ``min_share`` of all
    rows is necessarily a top key in most blocks), the driver folds the
    tiny partials and keeps keys above the share threshold.  One pruned
    streaming pass; the candidate set is O(blocks x per_block_top)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch[key].value_counts().head(per_block_top)
        return pd.DataFrame({key: vc.index.to_numpy(), "_cnt": vc.to_numpy().astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas", batch_size=None).to_pandas()
    total = ds.count()
    if not len(parts) or not total:
        return []
    folded = parts.groupby(key)["_cnt"].sum()
    return folded[folded >= min_share * total].index.tolist()


def bucketed_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str],
    how: str = "inner",
    suffixes: tuple[str, str] = ("", "_r"),
    hot_keys: list | None = None,
    salt: int = 8,
) -> "ray.data.Dataset":
    """Hash-partitioned join of two Datasets on ``on`` columns.

    Returns a Dataset of merged rows (pandas-merge semantics per bucket).
    ``how`` supports inner/left/right/outer plus the filtering joins
    "semi" (left rows WITH a right match — SQL EXISTS, left multiplicity
    kept, left columns only) and "anti" (left rows with NO right match —
    SQL NOT EXISTS, the exact verify leg of ``stages/bloom.bloom_anti_join``).
    Null-key SQL semantics hold for every variant: equality never matches
    NULL, so null-keyed rows are dropped by inner/semi, kept by anti, and
    pass through unmatched (null-padded) on the preserved side(s) of
    left/right/outer.

    Performance contract: the stage reads each side's schema up front, and
    ``Dataset.schema()`` on a lazy pipeline that ends in a Ray Data
    shuffle (``Dataset.groupby``/``sort``/``repartition``) EXECUTES that
    pipeline once just for the schema — the join's own run then executes
    it again.  Callers joining such a side should ``.materialize()`` it
    first (measured 9.2s -> 3.3s on the sf0.1 fact join).  An ``exchange``
    output (bucketed aggregation, another join) is already executed, and
    plain reads and map_batches chains are fine as-is (schema needs one
    block).

    Skew (BASELINE.json "salted keys to tame skew"): pass ``hot_keys``
    (e.g. from ``detect_hot_keys``) and a hot LEFT key's rows are sprayed
    across ``salt`` consecutive buckets while the matching RIGHT rows are
    REPLICATED to all of them — no reducer ever receives more than
    ~1/salt of a hot key's probe rows.  Salted legs merge on the key plus
    the salt offset, so each left row meets exactly one replica of its
    right key-group even when several offsets share a partition.  A salt
    above the exchange's partition count spreads no further; its extra
    offsets only cost build-side copies.  Only valid for how in
    inner/left/anti (a replicated unmatched right row would duplicate
    under right/outer).  Assumes the right side is dim-like on hot keys (a
    hot x hot join explodes output regardless of partitioning).
    """

    import pyarrow as pa
    import pyarrow.compute as pc

    if hot_keys:
        if len(on) != 1:
            raise ValueError("hot-key salting supports single-column join keys")
        if how not in ("inner", "left", "anti"):
            raise ValueError(f"hot-key salting is not valid for how={how!r}")
    hot_arr = np.asarray(sorted(hot_keys)) if hot_keys else None

    from ndap_data_validator_ray.stages.schema_util import arrow_field_types

    left_schema = pa.schema(list(arrow_field_types(left).items()))
    right_schema = pa.schema(list(arrow_field_types(right).items()))
    left_cols = left_schema.names
    right_cols = right_schema.names
    # cogroup's union rule: on a shared column the left type wins
    union_types = {**{f.name: f.type for f in right_schema}, **{f.name: f.type for f in left_schema}}

    # explicit output schema (pandas-merge column layout, Arrow types from
    # the union schema) so int64 keys survive the per-bucket pandas merge —
    # unmatched-side nulls would otherwise upcast whole columns to float64
    overlap = [c for c in left_cols if c in right_cols and c not in on]
    if how in ("anti", "semi"):
        out_schema = pa.schema([pa.field(c, union_types[c]) for c in left_cols])
    else:
        out_fields = [
            pa.field(c + suffixes[0] if c in overlap else c, union_types[c]) for c in left_cols
        ]
        out_fields += [
            pa.field(c + suffixes[1] if c in overlap else c, union_types[c])
            for c in right_cols
            if c not in on
        ]
        out_schema = pa.schema(out_fields)

    legs = [(left, left_schema), (right, right_schema)]
    join_on = on
    if hot_arr is not None:
        # salt: a hot probe row goes to one of ``salt`` consecutive buckets
        # (its _salt offset); the matching build rows are replicated once
        # per offset, so every probe row still meets its whole key group
        salt_field = pa.field(_SALT_COL, pa.int64())

        def is_hot(batch: pa.Table) -> np.ndarray:
            return np.isin(batch[on[0]].to_pandas().to_numpy(), hot_arr)

        def spray(batch: pa.Table) -> pa.Table:
            offs = np.where(is_hot(batch), np.arange(batch.num_rows) % salt, 0)
            return batch.append_column(salt_field, pa.array(offs, pa.int64()))

        def replicate(batch: pa.Table) -> pa.Table:
            hot = batch.filter(pa.array(is_hot(batch)))
            copies = [
                t.append_column(salt_field, pa.array(np.full(t.num_rows, s), pa.int64()))
                for s, t in [(0, batch)] + [(s, hot) for s in range(1, salt)]
            ]
            return pa.concat_tables(copies)

        legs = [
            (left.map_batches(spray, batch_format="pyarrow"), left_schema.append(salt_field)),
            (right.map_batches(replicate, batch_format="pyarrow"), right_schema.append(salt_field)),
        ]
        join_on = on + [_SALT_COL]

    key_bucket = hash_partitioner(on)

    def partition_of(batch: pa.Table, n: int) -> np.ndarray:
        base = key_bucket(batch, n)
        if _SALT_COL in batch.column_names:
            base = (base + batch[_SALT_COL].to_numpy()) % n
        # null keys never match anything (SQL equality), so they don't
        # need co-location — spread them round-robin instead of letting
        # every null-keyed row hash into one hot bucket (at scale a
        # high-null key column would otherwise serialize on one reducer)
        null_mask = np.zeros(batch.num_rows, dtype=bool)
        for c in on:
            null_mask |= pc.is_null(batch[c], nan_is_null=True).to_numpy(zero_copy_only=False)
        return np.where(null_mask, np.arange(batch.num_rows) % n, base)

    def merge_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # each side holds only its own columns (plus the salt offset)
        l, r = lt.to_pandas(), rt.to_pandas()
        if how == "anti":
            # SQL NOT EXISTS semantics: NULL never equals NULL, so a
            # null-keyed probe row has no match and is KEPT (pandas merge
            # would pair NaN with NaN and wrongly drop it)
            null_key = l[on].isna().any(axis=1)
            flagged = l[~null_key].merge(
                r[join_on].dropna().drop_duplicates(), on=join_on, how="left", indicator=True
            )
            anti = flagged[flagged["_merge"] == "left_only"][left_cols]
            merged = pd.concat([anti, l.loc[null_key, left_cols]]) if null_key.any() else anti
        elif how == "semi":
            # SQL EXISTS: left multiplicity kept, right side deduped to keys
            # only, null probe keys never match (dropped)
            null_key = l[on].isna().any(axis=1)
            merged = l[~null_key].merge(
                r[on].dropna().drop_duplicates(), on=on, how="inner"
            )[left_cols]
        elif how == "outer":
            # FULL OUTER: null-keyed rows on EITHER side never match —
            # split them out, merge the non-null cores, then pass the
            # null-keyed rows through with the other side null-padded
            ln = l[on].isna().any(axis=1)
            rn = r[on].isna().any(axis=1)
            core = l[~ln].merge(r[~rn], on=on, how="outer", suffixes=suffixes)
            parts = [core]
            if ln.any():
                parts.append(l.loc[ln].rename(columns={c: c + suffixes[0] for c in overlap}))
            if rn.any():
                parts.append(r.loc[rn].rename(columns={c: c + suffixes[1] for c in overlap}))
            merged = pd.concat(parts, ignore_index=True).reindex(columns=out_schema.names)
        else:
            # SQL equality never matches NULL, but pandas merge pairs
            # NaN keys with NaN keys — drop null-keyed rows from the side
            # whose match would wrongly materialize (the preserved side's
            # null-keyed rows still flow through with null padding, as in
            # SQL LEFT/RIGHT JOIN)
            if how in ("inner", "left"):
                rn = r[on].isna().any(axis=1)
                r = r[~rn] if rn.any() else r
            if how in ("inner", "right"):
                ln = l[on].isna().any(axis=1)
                l = l[~ln] if ln.any() else l
            merged = l.merge(r, on=join_on, how=how, suffixes=suffixes)
        return pa.Table.from_pandas(merged[out_schema.names], schema=out_schema, preserve_index=False).replace_schema_metadata(None)

    return cogroup(legs, merge_bucket, partition_of)
