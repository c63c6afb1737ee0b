"""Bucketed range (interval/band) join — with as-of (stages/asof.py) the
second ordered join Ray Data lacks natively.

Emits one row per (left, right) pair with equal ``by`` keys whose ordered
values satisfy ``start < left.on <= end`` computed from the right row
(half-open band, configurable via the caller's derived start/end
columns).  Both sides go through ``stages/groupby.cogroup`` keyed on
``hash(by) % R``; each bucket runs a pandas merge + interval filter.

Partitioning assumptions (documented): one ``by`` key's rows co-locate in
one reducer; per-key match multiplicity is bounded (the per-bucket merge
is equality-on-key then interval filter — at extreme per-key fan-out an
interval-tree per key is the scale path).

Dtype contract: ``cogroup`` splits each bucket into its sides while still
Arrow; output is rebuilt against an explicit
Arrow schema so int64 keys survive (no float64 upcast, no silent
precision loss above 2^53).  ``right_start``/``right_end``/``right_by``
must NOT collide with a left column name — the band filter resolves them
by name post-merge, so a collision would silently read the wrong column;
the stage raises ``ValueError`` instead.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ndap_data_validator_ray.stages.asof import _fields
from ndap_data_validator_ray.stages.groupby import cogroup, hash_partitioner

_BY_COL = "_range_by"


def bucketed_range_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    by: str,
    right_by: str,
    right_start: str,
    right_end: str,
) -> "ray.data.Dataset":
    """Inner band join: pairs where ``left[on] > right[right_start]`` and
    ``left[on] <= right[right_end]`` with ``left[by] == right[right_by]``.
    Output carries all left columns + the right's non-key columns."""
    lf = _fields(left)
    rf = _fields(right)
    left_cols = list(lf)
    colliding = [c for c in (right_start, right_end) if c in left_cols]
    if right_by in left_cols and right_by != by:
        colliding.append(right_by)
    if colliding:
        raise ValueError(
            f"right column(s) {colliding} collide with left column names; "
            "rename them on the right side before the range join"
        )
    right_value_cols = [c for c in rf if c != right_by and c not in left_cols]

    left_fields = [pa.field(c, lf[c]) for c in left_cols]
    right_fields = [pa.field(c, rf[c]) for c in right_value_cols]
    out_schema = pa.schema(left_fields + right_fields)
    key = pa.field(_BY_COL, lf[by])

    def keyed(by_c: str):
        return lambda b: b.append_column(_BY_COL, b[by_c])

    legs = [
        (left.map_batches(keyed(by), batch_format="pyarrow"), pa.schema(left_fields + [key])),
        (right.map_batches(keyed(right_by), batch_format="pyarrow"), pa.schema(right_fields + [key])),
    ]

    def merge_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if not lt.num_rows or not rt.num_rows:
            return out_schema.empty_table()
        merged = lt.to_pandas().merge(rt.to_pandas(), on=_BY_COL, how="inner")
        keep = (merged[on] > merged[right_start]) & (merged[on] <= merged[right_end])
        return pa.Table.from_pandas(merged.loc[keep, left_cols + right_value_cols], schema=out_schema, preserve_index=False).replace_schema_metadata(None)

    return cogroup(legs, merge_bucket, hash_partitioner([_BY_COL]))
