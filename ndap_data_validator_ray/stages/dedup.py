"""Exact key-uniqueness / deduplication stages (A14, SURVEY.md §2.8).

Two shapes of the same exact count:

- **Exchange** (``key_counts``/``duplicate_keys``, used by the
  ``duplicate_lineitem_pk`` query): the shuffle input is **pre-aggregated
  per batch** — each batch contributes at most one ``(key, cnt)`` row per
  distinct key, so a key duplicated H times across the table arrives at its
  reducer as at most ``#batches`` partial rows instead of H data rows.  That
  batch-partial step plays the role of the salt/pre-combine phase of a
  salted two-phase aggregation (BASELINE.json:6 "salted keys to tame
  clip_id skew"), with the batch id acting as the implicit salt; the final
  bucketed merge then sums tiny partials.  Only the key column is ever
  shuffled — callers should project (``columns=[key]`` at the read) before
  calling.
- **Key runs** (``write_key_run``/``key_run_duplicates``, used by clip
  uniqueness): one immutable parquet file per input partition holding its
  ``(h, key, cnt)`` counts sorted by ``h = stable_hash64(key)``.  Counts
  are commutative, so the global count of any key is the sum over runs,
  and a contiguous ``h`` range of every run holds all partials of the keys
  in that range: B range mergers read only their row groups (parquet
  statistics on the sorted ``h``) and sum.  No shuffle; a partition whose
  input did not change keeps its run, so an incremental run rebuilds only
  the changed partitions' runs (D-Streams' deterministic per-partition
  state).  Scale limit: every merger opens every run, so a job makes
  P runs x B ranges file opens; toward 10^12 keys (millions of
  partitions) that product, not the bytes read, is the cost, and the
  follow-up is a persisted bucketed count table that a delta run patches
  in place (ROADMAP direction 6).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ndap_data_validator_ray.functions.sketches import stable_hash64
from ndap_data_validator_ray.sources import fs as vfs

# rows per key-run row group: the grain at which a range merger skips data
KEY_RUN_ROW_GROUP = 1 << 16
# run bytes one range merger should read; the merge fan-out B follows
MERGE_RANGE_BYTES = 64 << 20


def key_counts(ds: "ray.data.Dataset", key: str) -> "ray.data.Dataset":
    """Global exact counts per key: batch partials -> bucketed two-phase
    merge (stages/groupby.py) — the shuffle key is a B-way bucket, never
    the raw high-cardinality key."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch[key].dropna().value_counts()
        return pd.DataFrame({key: vc.index.to_numpy(), "cnt": vc.to_numpy().astype(np.int64)})

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(key, as_index=False)["cnt"].sum()

    return bucketed_groupby(ds, [key], partial, merge)


def duplicate_keys(ds: "ray.data.Dataset", key: str) -> pa.Table:
    """Keys appearing more than once, with their exact counts (small result:
    materialized to the driver — violation keys, not data rows)."""
    counts = key_counts(ds, key)
    dups = counts.map_batches(
        lambda t: t.filter(pa.compute.greater(t["cnt"], 1)), batch_format="pyarrow"
    )
    pdf = dups.to_pandas()
    if pdf.empty:
        key_type = ds.schema().base_schema.field(key).type
        return pa.table({key: pa.array([], key_type), "cnt": pa.array([], pa.int64())})
    tbl = pa.Table.from_pandas(pdf, preserve_index=False)
    order = pa.compute.sort_indices(tbl, sort_keys=[(key, "ascending")])
    return tbl.take(order)


def write_key_run(files: list[str], key: str, path: str) -> str:
    """Write the key run of one partition to ``path``: one row per distinct
    non-null ``key`` of ``files`` (nulls dropped, as ``key_counts`` does),
    ``(h, key, cnt)`` sorted by ``h`` then key.  Reads only the key column;
    the write is atomic, so a run is either whole or absent."""
    cols = []
    for f in files:
        fs, p = vfs.resolve(f)
        cols.extend(pq.read_table(p, columns=[key], filesystem=fs)[key].chunks)
    keys = pa.chunked_array(cols, cols[0].type if cols else pa.string()).drop_null()
    if pa.types.is_null(keys.type):
        keys = keys.cast(pa.string())
    vc = pc.value_counts(keys)
    values = vc.field("values")
    h = stable_hash64(values.to_numpy(zero_copy_only=False))
    run = pa.table({"h": pa.array(h, pa.uint64()), key: values, "cnt": vc.field("counts").cast(pa.int64())})
    run = run.take(pc.sort_indices(run, [("h", "ascending"), (key, "ascending")]))
    sink = pa.BufferOutputStream()
    pq.write_table(run, sink, row_group_size=KEY_RUN_ROW_GROUP)
    vfs.write_bytes_atomic(path, sink.getvalue().to_pybytes())
    return path


def merge_ranges(run_bytes: int, n_cpus: int) -> list[tuple[int, int]]:
    """Split the 64-bit hash space into B contiguous inclusive ranges, B
    sized so each merger reads ~``MERGE_RANGE_BYTES`` of runs, at most one
    per CPU."""
    b = max(1, min(n_cpus, -(-run_bytes // MERGE_RANGE_BYTES)))
    bounds = [(i << 64) // b for i in range(b + 1)]
    return [(bounds[i], bounds[i + 1] - 1) for i in range(b)]


def key_run_duplicates(paths: list[str], key: str, lo: int, hi: int) -> pa.Table:
    """Keys whose ``h`` lies in ``[lo, hi]`` with a count above 1 summed
    over the key runs ``paths``, as ``(key, cnt)``.  Reads only the row
    groups of each run whose ``h`` statistics overlap the range; groups by
    the true key, so a hash collision never merges two keys."""
    rng = (pc.field("h") >= pa.scalar(lo, pa.uint64())) & (pc.field("h") <= pa.scalar(hi, pa.uint64()))
    parts = []
    for path in paths:
        fs, p = vfs.resolve(path)
        parts.append(pq.read_table(p, columns=[key, "cnt"], filters=rng, filesystem=fs))
    if not parts:
        return pa.table({key: pa.array([], pa.string()), "cnt": pa.array([], pa.int64())})
    sums = pa.concat_tables(parts, promote_options="permissive").group_by(key).aggregate([("cnt", "sum")])
    dups = sums.filter(pc.greater(sums["cnt_sum"], 1))
    return pa.table({key: dups[key], "cnt": dups["cnt_sum"]})


def exact_dedup(ds: "ray.data.Dataset", content_cols: list[str], keep_col: str) -> "ray.data.Dataset":
    """Exact dedup: keep the min-``keep_col`` row per distinct content.

    Hash-partition groupby on a content hash (full content kept alongside,
    so hash collisions cannot merge distinct contents — groups are re-split
    on true content inside the reducer)."""

    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # in-batch pre-dedup: at most one candidate row per content per batch
        return batch.sort_values(keep_col, kind="stable").groupby(content_cols, as_index=False, sort=False).first()

    def first_per_content(group: pd.DataFrame) -> pd.DataFrame:
        return (
            group.sort_values(keep_col, kind="stable")
            .groupby(content_cols, as_index=False, sort=False)
            .first()
        )

    return bucketed_groupby(ds, content_cols, partial, first_per_content)


def exact_dedup_counts(
    ds: "ray.data.Dataset",
    content_cols: list[str],
    keep_col: str,
    count_col: str = "n_copies",
) -> "ray.data.Dataset":
    """Exact dedup GROUPS: min-``keep_col`` + copy count per distinct
    content, via the bucketed two-phase path (the shuffle key is the B-way
    bucket, never the raw per-document content hash — raw-key
    ``Dataset.groupby`` is 10-15x slower at high cardinality, BASELINE.md).

    Shuffles (content, min_keep, partial_count) batch partials; content
    rides along so hash-bucket collisions can never merge distinct
    documents.  100TB note: at extreme scale shuffle (hash, id) pairs and
    verify colliding hashes in a second pass instead of shipping content."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(content_cols, as_index=False, sort=False).agg(
            **{keep_col: (keep_col, "min"), count_col: (keep_col, "size")}
        )

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(content_cols, as_index=False, sort=False).agg(
            **{keep_col: (keep_col, "min"), count_col: (count_col, "sum")}
        )

    return bucketed_groupby(ds, content_cols, partial, merge)


def exact_dedup_counts_hashed(
    ds: "ray.data.Dataset",
    content_cols: list[str],
    keep_col: str,
    count_col: str = "n_copies",
    hash_bits: int = 64,
) -> "ray.data.Dataset":
    """The 100 TB exact-dedup shape: shuffle (content_hash, keep) pairs
    ONLY — document content never rides the exchange — then verify
    colliding hashes against TRUE content in a bounded second pass.

    1. per-batch partials aggregate on a 64-bit content hash
       (``pd.util.hash_pandas_object``, process-stable) -> bucketed
       (hash, min_keep, count) aggregation: the exchange carries ~16
       bytes/distinct content instead of the full payload;
    2. hashes seen with count > 1 are *candidate* duplicate groups — a
       hash collision between distinct contents would wrongly merge them,
       so those hashes (bounded by the number of duplicated contents; at
       extreme scale ship them as a Bloom filter like ``stages/bloom``)
       are broadcast and their rows re-read WITH content, grouped by true
       content in a second bucketed pass;
    3. output = unique-hash groups (exact already: a unique hash can only
       be one content) + verified multi-member groups, as
       ``(keep_col, count_col)`` — the representative id + copy count,
       i.e. the decision output of dedup; content itself stays put.

    ``hash_bits`` narrows the hash so tests can force real collisions and
    exercise the verify split (64-bit collisions are ~2^-64/pair).
    Returns the same (keep, count) groups as ``exact_dedup_counts`` —
    equivalence-tested in ``test_stages_ops.py``."""
    import ray as _ray

    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    def _h(batch: pd.DataFrame) -> np.ndarray:
        h = pd.util.hash_pandas_object(batch[content_cols], index=False).to_numpy()
        if hash_bits < 64:
            h = h % np.uint64(1 << hash_bits)
        return h.astype(np.int64)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame({"_h": _h(batch), keep_col: batch[keep_col].to_numpy()})
        return df.groupby("_h", as_index=False).agg(
            **{keep_col: (keep_col, "min"), count_col: (keep_col, "size")}
        )

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("_h", as_index=False).agg(
            **{keep_col: (keep_col, "min"), count_col: (count_col, "sum")}
        )

    # materialize the (hash, keep, count) AGGREGATE (O(distinct) small
    # rows, already shuffled) so the singles leg and the collision scan
    # don't re-execute the full input pass; the raw input is never
    # materialized
    agg = bucketed_groupby(ds, ["_h"], partial, merge).materialize()
    singles = agg.map_batches(
        lambda b: b.loc[b[count_col] == 1, [keep_col, count_col]], batch_format="pandas"
    )
    multi_df = agg.map_batches(
        lambda b: b.loc[b[count_col] > 1, ["_h"]], batch_format="pandas"
    ).to_pandas()
    # all-empty blocks lose their pandas schema -> no "_h" column at all
    multi_hashes = (
        multi_df["_h"].to_numpy() if "_h" in multi_df.columns else np.array([], dtype=np.int64)
    )
    if len(multi_hashes) == 0:
        return singles
    ref = _ray.put(np.sort(multi_hashes))

    def candidates(batch: pd.DataFrame) -> pd.DataFrame:
        hs = _h(batch)
        m = np.isin(hs, _ray.get(ref), assume_unique=False)
        return batch.loc[m, content_cols + [keep_col]]

    def v_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(content_cols, as_index=False, sort=False).agg(
            **{keep_col: (keep_col, "min"), count_col: (keep_col, "size")}
        )

    def v_merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(content_cols, as_index=False, sort=False).agg(
            **{keep_col: (keep_col, "min"), count_col: (count_col, "sum")}
        )

    verified = bucketed_groupby(
        ds.map_batches(candidates, batch_format="pandas"), content_cols, v_partial, v_merge
    ).map_batches(lambda b: b[[keep_col, count_col]], batch_format="pandas")
    return singles.union(verified)
