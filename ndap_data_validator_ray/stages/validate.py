"""The batch validation kernel — one stateless ``map_batches`` stage that
turns Arrow batches into (violation rows + serialized stats partials).

This is the distributed reimplementation of the reference's whole-table
pandas pass (``coerce_dataframe_by_roles`` + ``validate_dataframe_by_roles``,
``/root/reference/utils/validation.py:200-357``): everything the reference
computes per column (nulls, conversion errors, time-format scans) becomes a
per-batch vectorized kernel emitting a mergeable ``TableStats`` partial,
plus the target-only constraint checks (domain, range, min/max, HLL,
t-digest, audio consistency) and *materialized violation rows*
(BASELINE.json:6 — the reference only reports counts/reasons).

Output is a union-typed Arrow table (both record kinds in one stream) so the
whole pipeline is consumed exactly once — a single streaming pass over the
data with one small output dataset:

    record_type: "violation" | "stats"
    partition_id, check, column, key, detail, rows, stats_blob

Violation rows are capped per (check, batch) — exact counts always live in
the stats partials; the cap only bounds materialized rows at 10^12 scale
(SURVEY.md §7.3).

The partition mechanics both validation pipelines (clips, role folders)
share live here too: ``read_partitions`` (read + partition-id column),
``compact_stats`` (per-block stats fold), ``partition_stats`` (driver fold
to one ``TableStats`` per partition) and ``run_with_fallback`` (whole pass,
else one partition at a time — the reference's per-file semantics).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ndap_data_validator_ray import report as rpt
from ndap_data_validator_ray.functions import coercion as co
from ndap_data_validator_ray.functions import sketches as sk
from ndap_data_validator_ray.functions import timefmt
from ndap_data_validator_ray.report import AudioStats, ColumnStats, TableStats
from ndap_data_validator_ray.schema import TableSchema
from ndap_data_validator_ray.sources import fs as vfs

UNION_SCHEMA = pa.schema(
    [
        pa.field("record_type", pa.string()),
        pa.field("partition_id", pa.int64()),
        pa.field("check", pa.string()),
        pa.field("column", pa.string()),
        pa.field("key", pa.string()),
        pa.field("detail", pa.string()),
        pa.field("rows", pa.int64()),
        pa.field("stats_blob", pa.binary()),
    ]
)

PARTITION_COL = "_partition_id"


def _np(arr: pa.Array) -> np.ndarray:
    return arr.to_numpy(zero_copy_only=False)


class ValidateBatch:
    """Stateless batch validator. Use as
    ``ds.map_batches(ValidateBatch(schema), batch_format="pyarrow")`` —
    plain-function semantics (no per-actor state needed), but a callable
    class so the compiled constraint plan is built once per worker."""

    def __init__(
        self,
        schema: TableSchema,
        key_column: str | None = None,
        violation_cap: int = 1000,
        dur_tolerance_ms: float = 10.0,
    ):
        self.schema = schema
        self.key_column = key_column
        self.violation_cap = violation_cap
        self.dur_tolerance_ms = dur_tolerance_ms

    # -- violation row accumulation -------------------------------------
    def _emit(self, sink: list, mask: np.ndarray, keys: np.ndarray | None, check: str, column: str, detail_vals=None):
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            return
        capped = idx[: self.violation_cap]
        for i in capped:
            key = None if keys is None else (keys[i] if keys[i] is not None else None)
            detail = None
            if detail_vals is not None:
                v = detail_vals[i]
                detail = None if v is None else str(v)[:120]
            sink.append((check, column, key, detail))

    def _validate_subbatch(self, batch: pa.Table, pid: int, out_cols: dict[str, list]) -> None:
        n = batch.num_rows
        stats = TableStats(rows=n)
        keys: np.ndarray | None = None
        if self.key_column and self.key_column in batch.column_names:
            karr = batch[self.key_column]
            if isinstance(karr, pa.ChunkedArray):
                karr = karr.combine_chunks()
            keys = _np(pc.cast(karr, pa.string()))
        violations: list[tuple[str, str | None, str | None, str | None]] = []

        for spec in self.schema.columns:
            if spec.name not in batch.column_names:
                continue
            arr = batch[spec.name]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            cs = ColumnStats(rows=n)
            flags = self.schema.role_flags(spec.role)

            converted, conv_errs = co.coerce_by_role(arr, spec.role, spec.measure_type)
            cs.conversion_errors = conv_errs
            cs.nulls = int(converted.null_count)
            null_mask = _np(pc.is_null(converted))
            orig_valid = _np(pc.is_valid(arr))

            if spec.role == "Time":
                ids = timefmt.format_ids(arr)
                ids_np = _np(ids)
                valid_ids = _np(pc.is_valid(ids))
                hist_vals = ids_np[valid_ids].astype(np.int64)
                cs.time_hist = np.bincount(hist_vals + 1, minlength=timefmt.HIST_SIZE).astype(np.int64)
                self._emit(violations, valid_ids & (ids_np == -1), keys, rpt.CHECK_TIME_FORMAT, spec.name, _np(pc.cast(arr, pa.string())))

            not_null_req = flags.get("notNull", False) if spec.not_null is None else spec.not_null
            if not_null_req:
                self._emit(violations, null_mask, keys, rpt.CHECK_NOT_NULL, spec.name)
            if flags.get("numericOnly"):
                self._emit(violations, null_mask & orig_valid, keys, rpt.CHECK_NUMERIC_ONLY, spec.name,
                           _np(pc.cast(arr, pa.string())) if not pa.types.is_binary(arr.type) else None)

            is_numeric = pa.types.is_integer(converted.type) or pa.types.is_floating(converted.type)
            vals_np: np.ndarray | None = None
            if is_numeric:
                vals_np = _np(pc.cast(converted, pa.float64()))
                finite = ~np.isnan(vals_np)
                if finite.any():
                    with np.errstate(invalid="ignore"):
                        cs.min_val = float(np.nanmin(vals_np))
                        cs.max_val = float(np.nanmax(vals_np))

            if spec.domain is not None:
                sarr = arr if pa.types.is_string(arr.type) else pc.cast(arr, pa.string())
                in_dom = _np(pc.is_in(sarr, value_set=pa.array(list(spec.domain))))
                bad = orig_valid & ~np.asarray(in_dom, dtype=bool)
                cs.domain_violations = int(bad.sum())
                self._emit(violations, bad, keys, rpt.CHECK_DOMAIN, spec.name, _np(sarr))

            if (spec.range_min is not None or spec.range_max is not None) and vals_np is not None:
                with np.errstate(invalid="ignore"):
                    bad = np.zeros(n, dtype=bool)
                    if spec.range_min is not None:
                        bad |= vals_np < spec.range_min
                    if spec.range_max is not None:
                        bad |= vals_np > spec.range_max
                    bad &= ~np.isnan(vals_np)
                cs.range_violations = int(bad.sum())
                self._emit(violations, bad, keys, rpt.CHECK_RANGE, spec.name, vals_np)

            if spec.not_empty and (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
                eq = pc.fill_null(pc.equal(pc.utf8_trim_whitespace(arr), ""), False)
                empty = _np(eq).astype(bool)
                cs.empty_strings = int(empty.sum())
                self._emit(violations, empty, keys, rpt.CHECK_REFERENTIAL, spec.name)

            for check in getattr(spec, "custom", ()):
                bad = np.asarray(check.kernel(arr), dtype=bool)
                cs.custom_counts[check.name] = int(bad.sum())
                self._emit(violations, bad, keys, f"custom:{check.name}", spec.name)

            if spec.track_cardinality:
                cs.hll = sk.HyperLogLog()
                nn = arr.drop_null()
                if len(nn):
                    cs.hll.update(_np(nn if pa.types.is_string(nn.type) else pc.cast(nn, pa.string())))
            if spec.track_quantiles and vals_np is not None:
                cs.tdigest = sk.TDigest()
                cs.tdigest.update(vals_np[~np.isnan(vals_np)])

            stats.columns[spec.name] = cs

        # audio consistency checks (decoder stage ran upstream)
        if "_audio_ok" in batch.column_names:
            ok = _np(batch["_audio_ok"]).astype(bool)
            bytes_valid = _np(pc.is_valid(batch["bytes"])) if "bytes" in batch.column_names else np.ones(n, bool)
            a = AudioStats(rows=int(bytes_valid.sum()))
            decode_fail = ~ok & bytes_valid
            a.decode_failures = int(decode_fail.sum())
            self._emit(violations, decode_fail, keys, rpt.CHECK_DECODE, "bytes")

            dec_sr = _np(pc.cast(batch["_audio_sr"], pa.float64()))
            dec_dur = _np(batch["_audio_dur_ms"])
            if "sr_hz" in batch.column_names:
                decl_sr = _np(pc.cast(batch["sr_hz"], pa.float64()))
                with np.errstate(invalid="ignore"):
                    m = ok & ~np.isnan(decl_sr) & ~np.isnan(dec_sr) & (decl_sr != dec_sr)
                a.sr_mismatches = int(m.sum())
                self._emit(violations, m, keys, rpt.CHECK_SR_CONSISTENCY, "sr_hz", decl_sr)
            if "dur_ms" in batch.column_names:
                decl_dur = _np(pc.cast(batch["dur_ms"], pa.float64()))
                with np.errstate(invalid="ignore"):
                    m = ok & ~np.isnan(decl_dur) & ~np.isnan(dec_dur) & (np.abs(decl_dur - dec_dur) > self.dur_tolerance_ms)
                a.dur_mismatches = int(m.sum())
                self._emit(violations, m, keys, rpt.CHECK_DUR_CONSISTENCY, "dur_ms", decl_dur)
            if "codec" in batch.column_names:
                decl_codec = _np(pc.cast(batch["codec"], pa.string()))
                dec_codec = _np(batch["_audio_codec"])
                m = ok & np.array([d is not None and g is not None and d != g for d, g in zip(decl_codec, dec_codec)], dtype=bool)
                a.codec_mismatches = int(m.sum())
                self._emit(violations, m, keys, rpt.CHECK_CODEC_CONSISTENCY, "codec", decl_codec)
            if "_audio_rms_db" in batch.column_names:
                from ndap_data_validator_ray.functions.audio_codec import CLIPPING_RATIO_MAX, SILENCE_RMS_DB

                rms = _np(pc.cast(batch["_audio_rms_db"], pa.float64()))
                clip_ratio = _np(pc.cast(batch["_audio_clipping_ratio"], pa.float64()))
                with np.errstate(invalid="ignore"):
                    m = ok & ~np.isnan(rms) & (rms < SILENCE_RMS_DB)
                a.silent_clips = int(m.sum())
                self._emit(violations, m, keys, rpt.CHECK_AUDIO_SILENCE, "bytes", rms)
                with np.errstate(invalid="ignore"):
                    m = ok & ~np.isnan(clip_ratio) & (clip_ratio > CLIPPING_RATIO_MAX)
                a.clipped_clips = int(m.sum())
                self._emit(violations, m, keys, rpt.CHECK_AUDIO_CLIPPING, "bytes", clip_ratio)
            stats.audio = a

        for check, column, key, detail in violations:
            out_cols["record_type"].append("violation")
            out_cols["partition_id"].append(pid)
            out_cols["check"].append(check)
            out_cols["column"].append(column)
            out_cols["key"].append(key)
            out_cols["detail"].append(detail)
            out_cols["rows"].append(1)
            out_cols["stats_blob"].append(None)

        out_cols["record_type"].append("stats")
        out_cols["partition_id"].append(pid)
        out_cols["check"].append(None)
        out_cols["column"].append(None)
        out_cols["key"].append(None)
        out_cols["detail"].append(None)
        out_cols["rows"].append(n)
        out_cols["stats_blob"].append(sk.serialize(stats))

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_cols: dict[str, list] = {name: [] for name in UNION_SCHEMA.names}
        if PARTITION_COL in batch.column_names:
            pids = _np(batch[PARTITION_COL]).astype(np.int64)
            for pid in np.unique(pids):
                sub = batch.filter(pa.array(pids == pid))
                self._validate_subbatch(sub, int(pid), out_cols)
        else:
            self._validate_subbatch(batch, -1, out_cols)
        return pa.table({k: pa.array(v, UNION_SCHEMA.field(k).type) for k, v in out_cols.items()}, schema=UNION_SCHEMA)


def read_partitions(partitions: dict[int, list[str]]) -> "ray.data.Dataset":
    """Read the partitions' parquet files (local paths or URIs) as one
    Dataset whose ``PARTITION_COL`` names each row's partition.  Remote
    schemes get an explicit pyarrow filesystem (built from standard AWS env
    config) so endpoint overrides / credentials reach every Ray read task."""
    files = [f for fs in partitions.values() for f in fs]
    # Ray's include_paths reports scheme-less paths; key the pid map the
    # same way so remote URIs resolve (s3://b/k -> b/k)
    path_to_pid = {vfs.resolve(f)[1]: pid for pid, fs in partitions.items() for f in fs}
    if vfs.is_uri(files[0]):
        fs, _ = vfs.resolve(files[0])
        ds = ray.data.read_parquet(list(path_to_pid), filesystem=fs, include_paths=True)
    else:
        ds = ray.data.read_parquet(files, include_paths=True)

    def attach(batch: pa.Table) -> pa.Table:
        # dictionary-encode first: the Python dict lookup runs once per
        # DISTINCT path (~1 per block), not once per row
        enc = batch["path"].combine_chunks().dictionary_encode()
        mapped = np.array([path_to_pid.get(p, -1) for p in enc.dictionary.to_pylist()], dtype=np.int64)
        pids = pa.array(mapped[enc.indices.to_numpy(zero_copy_only=False)], pa.int64())
        return batch.drop_columns(["path"]).append_column(PARTITION_COL, pids)

    return ds.map_batches(attach, batch_format="pyarrow")


def merge_blobs(blobs) -> TableStats:
    """Fold serialized ``TableStats`` partials in bytewise blob order, so
    the result does not depend on task completion order."""
    total = TableStats()
    for blob in sorted(blobs):
        total = total.merge(sk.deserialize(blob))
    return total


def compact_stats(block: pa.Table) -> pa.Table:
    """Per-block compactor (``map_batches(compact_stats, batch_size=None)``):
    violations pass through; the stats rows of each partition present in
    the block fold into one, so the driver fold sees ~1 blob per (block,
    partition).  A streaming map, not a ``groupby(partition_id)``: that
    sort barrier cost 20-30 s of post-decode tail at 500+ blocks (at ~10^8
    blocks, add a hierarchical fold before the driver).  Commutative and
    associative, so block boundaries and task order cannot change the
    result.  A block with at most one stats row per partition is returned
    untouched."""
    is_stats = pc.equal(block["record_type"], "stats")
    stats = block.filter(is_stats)
    pids = stats["partition_id"].to_numpy()
    uniq = np.unique(pids)
    if len(uniq) == len(pids):
        return block
    rows = stats["rows"].to_numpy()
    blobs = stats["stats_blob"].to_pylist()
    out_rows, out_blobs = [], []
    for pid in uniq:
        sel = np.flatnonzero(pids == pid)
        out_rows.append(int(rows[sel].sum()))
        out_blobs.append(blobs[sel[0]] if len(sel) == 1 else sk.serialize(merge_blobs(blobs[i] for i in sel)))
    n = len(uniq)
    cols = {
        "record_type": pa.array(["stats"] * n, pa.string()),
        "partition_id": pa.array(uniq, pa.int64()),
        "rows": pa.array(out_rows, pa.int64()),
        "stats_blob": pa.array(out_blobs, pa.binary()),
    }
    compacted = pa.table([cols.get(f.name, pa.nulls(n, f.type)) for f in block.schema], schema=block.schema)
    return pa.concat_tables([block.filter(pc.invert(is_stats)), compacted])


def partition_stats(union: pd.DataFrame) -> dict[int, TableStats]:
    """One ``TableStats`` per partition from a union's stats rows."""
    if union.empty:
        return {}
    stats = union[union["record_type"] == "stats"]
    return {int(pid): merge_blobs(blobs) for pid, blobs in stats.groupby("partition_id")["stats_blob"]}


def run_with_fallback(
    run: Callable[[dict[int, list[str]], int | None], dict[int, Any]],
    partitions: dict[int, list[str]],
) -> tuple[dict[int, Any], dict[int, str]]:
    """``run(partitions, None)``; if it raises (a corrupt file aborts the
    whole streaming pass or its plan build), ``run({pid: files}, pid)`` for
    each partition so every healthy one completes.  Returns (merged
    results, ``{pid: error}`` for the partitions that raised alone)."""
    try:
        return run(partitions, None), {}
    except Exception:
        out: dict[int, Any] = {}
        failed: dict[int, str] = {}
        for pid, files in partitions.items():
            try:
                out.update(run({pid: files}, pid))
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                failed[pid] = f"{type(exc).__name__}: {str(exc)[:200]}"
        return out, failed
