"""Mergeable per-column statistics and verdict-report assembly.

``ColumnStats`` is the engine's "coercion report + aggregation state" in one
mergeable object — the distributed replacement for the reference's
whole-column pandas counts (nulls ``validation.py:273``, conversion errors
``validation.py:205-231``, time-format scans ``validation.py:297-327``).
Batch kernels produce one ``ColumnStats`` per column per batch; merges are
commutative/associative; verdict logic runs once, on the merged result, at
the driver (reference semantics ``validation.py:240-357``, byte-exact
reason strings).

Report shape matches the reference verdict dict (validation.py:352-357):
``{per_column, failed_columns, missing_roles, passed}`` — extended with the
target-only fields (violation counts, sketch summaries, drift stats)
required by BASELINE.json:6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ndap_data_validator_ray.functions import timefmt
from ndap_data_validator_ray.functions.sketches import HyperLogLog, TDigest, ks_statistic, psi_statistic
from ndap_data_validator_ray.schema import (
    REASON_INCONSISTENT_TIME,
    REASON_INVALID_TIME,
    REASON_NON_NUMERIC,
    REASON_NO_NULLS,
    TableSchema,
)

# target-only check ids (violation rows / counts are keyed by these)
CHECK_NOT_NULL = "not_null"
CHECK_NUMERIC_ONLY = "numeric_only"
CHECK_TIME_FORMAT = "time_format"
CHECK_DOMAIN = "domain"
CHECK_RANGE = "range"
CHECK_UNIQUE = "unique"
CHECK_DECODE = "audio_decode"
CHECK_SR_CONSISTENCY = "audio_sr_consistency"
CHECK_DUR_CONSISTENCY = "audio_dur_consistency"
CHECK_CODEC_CONSISTENCY = "audio_codec_consistency"
CHECK_AUDIO_SILENCE = "audio_silence"
CHECK_AUDIO_CLIPPING = "audio_clipping"
CHECK_REFERENTIAL = "referential"
CHECK_DRIFT = "drift"


@dataclass
class ColumnStats:
    """Per-column mergeable statistics (one instance per column per batch)."""

    rows: int = 0
    nulls: int = 0  # post-coercion nulls (reference counts on coerced df)
    conversion_errors: int = 0  # raw (unclamped) sum; clamp at finalize
    time_hist: np.ndarray | None = None  # [invalid, fmt0..fmt5]
    min_val: float = float("inf")
    max_val: float = float("-inf")
    domain_violations: int = 0
    range_violations: int = 0
    empty_strings: int = 0  # for not_empty (referential pairing) columns
    custom_counts: dict = field(default_factory=dict)  # check name -> count
    hll: HyperLogLog | None = None
    tdigest: TDigest | None = None

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        out = ColumnStats(
            rows=self.rows + other.rows,
            nulls=self.nulls + other.nulls,
            conversion_errors=self.conversion_errors + other.conversion_errors,
            min_val=min(self.min_val, other.min_val),
            max_val=max(self.max_val, other.max_val),
            domain_violations=self.domain_violations + other.domain_violations,
            range_violations=self.range_violations + other.range_violations,
            empty_strings=self.empty_strings + other.empty_strings,
        )
        for k in set(self.custom_counts) | set(other.custom_counts):
            out.custom_counts[k] = self.custom_counts.get(k, 0) + other.custom_counts.get(k, 0)
        if self.time_hist is not None or other.time_hist is not None:
            a = self.time_hist if self.time_hist is not None else np.zeros(timefmt.HIST_SIZE, dtype=np.int64)
            b = other.time_hist if other.time_hist is not None else np.zeros(timefmt.HIST_SIZE, dtype=np.int64)
            out.time_hist = a + b
        if self.hll is not None and other.hll is not None:
            out.hll = self.hll.merge(other.hll)
        else:
            out.hll = self.hll or other.hll
        if self.tdigest is not None and other.tdigest is not None:
            out.tdigest = self.tdigest.merge(other.tdigest)
        else:
            out.tdigest = self.tdigest or other.tdigest
        return out


@dataclass
class AudioStats:
    """Mergeable audio decode-validation counters (target-only, M10)."""

    rows: int = 0
    decode_failures: int = 0
    sr_mismatches: int = 0
    dur_mismatches: int = 0
    codec_mismatches: int = 0
    silent_clips: int = 0
    clipped_clips: int = 0

    def merge(self, other: "AudioStats") -> "AudioStats":
        return AudioStats(
            rows=self.rows + other.rows,
            decode_failures=self.decode_failures + other.decode_failures,
            sr_mismatches=self.sr_mismatches + other.sr_mismatches,
            dur_mismatches=self.dur_mismatches + other.dur_mismatches,
            codec_mismatches=self.codec_mismatches + other.codec_mismatches,
            silent_clips=self.silent_clips + other.silent_clips,
            clipped_clips=self.clipped_clips + other.clipped_clips,
        )


@dataclass
class TableStats:
    """All mergeable state for one table (or one partition of it)."""

    columns: dict[str, ColumnStats] = field(default_factory=dict)
    audio: AudioStats | None = None
    rows: int = 0

    def merge(self, other: "TableStats") -> "TableStats":
        out = TableStats(rows=self.rows + other.rows)
        for name in set(self.columns) | set(other.columns):
            a, b = self.columns.get(name), other.columns.get(name)
            out.columns[name] = a.merge(b) if (a and b) else (a or b)
        if self.audio and other.audio:
            out.audio = self.audio.merge(other.audio)
        else:
            out.audio = self.audio or other.audio
        return out


def finalize_report(
    schema: TableSchema,
    stats: TableStats,
    duplicate_keys: int | None = None,
    referential_orphans: int | None = None,
    baseline: dict[str, TDigest] | None = None,
    drift_ks_threshold: float = 0.15,
) -> dict[str, Any]:
    """Assemble the verdict report from merged stats (driver-side fold).

    Reference parity for the role checks — identical reason strings and
    priority order (numericOnly -> notNull -> time format,
    validation.py:287-327) — plus the extended constraint verdicts.
    """
    per_column: dict[str, dict[str, Any]] = {}
    failed_columns: list[str] = []

    for spec in schema.columns:
        cs = stats.columns.get(spec.name, ColumnStats())
        flags = schema.role_flags(spec.role)
        conv_errs = max(int(cs.conversion_errors), 0)  # clamp once, at finalize (validation.py:50,228)
        if spec.role == "Time" and cs.time_hist is not None:
            conv_errs = timefmt.conversion_errors_from_hist(cs.time_hist)
        nulls = int(cs.nulls)
        passed = True
        reasons: list[str] = []

        if flags.get("numericOnly") and conv_errs > 0:
            passed = False
            reasons.append(REASON_NON_NUMERIC)
        not_null_req = flags.get("notNull", False) if spec.not_null is None else spec.not_null
        if not_null_req and nulls > 0:
            passed = False
            reasons.append(REASON_NO_NULLS)
        if spec.role == "Time" and cs.time_hist is not None:
            if timefmt.invalid_count_from_hist(cs.time_hist) > 0:
                passed = False
                reasons.append(REASON_INVALID_TIME)
            elif timefmt.distinct_formats_from_hist(cs.time_hist) > 1:
                passed = False
                reasons.append(REASON_INCONSISTENT_TIME)

        # target-only constraint verdicts
        if spec.domain is not None and cs.domain_violations > 0:
            passed = False
            reasons.append(f"Values outside allowed domain ({cs.domain_violations} rows)")
        if (spec.range_min is not None or spec.range_max is not None) and cs.range_violations > 0:
            passed = False
            reasons.append(f"Values outside allowed range ({cs.range_violations} rows)")
        if spec.not_empty and cs.empty_strings > 0:
            passed = False
            reasons.append(f"Empty values detected ({cs.empty_strings} rows)")
        for check in getattr(spec, "custom", ()):
            n_bad = cs.custom_counts.get(check.name, 0)
            if n_bad > 0:
                passed = False
                reasons.append(check.reason.format(n=n_bad))

        entry: dict[str, Any] = {
            "role": spec.role,
            "nulls": nulls,
            "conversion_errors": conv_errs,
            "passed": passed,
            "reasons": reasons,
        }
        if cs.hll is not None:
            entry["approx_distinct"] = round(cs.hll.estimate())
        if cs.tdigest is not None and cs.tdigest.total_weight() > 0:
            entry["quantiles"] = {
                "p01": cs.tdigest.quantile(0.01),
                "p50": cs.tdigest.quantile(0.50),
                "p99": cs.tdigest.quantile(0.99),
            }
            entry["min"] = cs.tdigest.min_val
            entry["max"] = cs.tdigest.max_val
        elif np.isfinite(cs.min_val):
            entry["min"], entry["max"] = cs.min_val, cs.max_val

        if spec.drift and baseline and spec.name in baseline and cs.tdigest is not None:
            ks = ks_statistic(cs.tdigest, baseline[spec.name])
            psi = psi_statistic(cs.tdigest, baseline[spec.name])
            entry["drift"] = {"ks": ks, "psi": psi, "threshold": drift_ks_threshold}
            if np.isfinite(ks) and ks > drift_ks_threshold:
                passed = False
                entry["passed"] = False
                reasons.append(f"Distribution drift detected (KS={ks:.3f} > {drift_ks_threshold})")

        if spec.unique and duplicate_keys:
            passed = False
            entry["passed"] = False
            reasons.append(f"Duplicate key values detected ({duplicate_keys} keys)")

        entry["passed"] = passed
        per_column[spec.name] = entry
        if not passed:
            failed_columns.append(spec.name)

    missing_roles = schema.missing_roles()

    report: dict[str, Any] = {
        "per_column": per_column,
        "failed_columns": failed_columns,
        "missing_roles": missing_roles,
        "passed": len(failed_columns) == 0 and len(missing_roles) == 0,
        "rows": int(stats.rows),
    }
    if stats.audio is not None:
        a = stats.audio
        audio_passed = (
            a.decode_failures == 0 and a.sr_mismatches == 0 and a.dur_mismatches == 0
            and a.codec_mismatches == 0 and a.silent_clips == 0 and a.clipped_clips == 0
        )
        report["audio"] = {
            "rows_checked": a.rows,
            "decode_failures": a.decode_failures,
            "sr_mismatches": a.sr_mismatches,
            "dur_mismatches": a.dur_mismatches,
            "codec_mismatches": a.codec_mismatches,
            "silent_clips": a.silent_clips,
            "clipped_clips": a.clipped_clips,
            "passed": audio_passed,
        }
        if not audio_passed:
            report["passed"] = False
    if referential_orphans is not None:
        report["referential"] = {"orphans": referential_orphans, "passed": referential_orphans == 0}
        if referential_orphans:
            report["passed"] = False
    if duplicate_keys is not None:
        report["uniqueness"] = {"duplicate_keys": duplicate_keys, "passed": duplicate_keys == 0}
    return report
