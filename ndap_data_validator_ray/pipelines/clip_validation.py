"""Flagship pipeline: full constraint-suite validation of the audio clip +
transcript table (the BASELINE.json metric: "validated clips/sec").

One streaming pass over the data (read -> attach partition ids ->
fused audio decode + batch validation -> per-block stats compaction ->
small union output), plus key runs for the global uniqueness check:

    read_partitions(pending)                      # read + path -> pid column
      .map_batches(AudioDecodeValidator + ValidateBatch, batch_size=B)
      .map_batches(compact_stats)                 # one stats row per (block, pid)
      .write_parquet(run_dir/union)               # SMALL output (not data)

    one Ray task per partition needing a run      # clip_id column only
      -> <ckpt_dir>-keys/partition-P-<lineage>.parquet   (h, clip_id, cnt)
    B Ray tasks, one per contiguous h range       # sum cnt over every run
      -> keys with cnt > 1 (tiny) -> unique_violations.parquet

A key run is immutable and named by its partition's ``lineage_id``, so a
resumed run rebuilds runs only for the partitions it re-validates (plus
any done partition whose run is missing); the key-run tasks overlap the
main pass, and the merge reads only each run's row groups in its range.
No Dataset exchange: uniqueness never shuffles (stages/dedup.py has the
algebra and the P x B file-open scale limit).

Verdict logic runs on merged small state at the driver (reference shape,
``validation.py:352-357``); per-partition manifests make the run resumable
(state/checkpoint.py).  The global total folds, in ascending partition id,
the done partitions' manifests (loaded once by the resume check: current
partitions under their current lineage only) and this run's in-memory
stats; a manifest of a partition that no longer exists is never folded.
Per-file failure becomes a failed-partition record, not a job abort —
matching the reference's per-file fold (``main.py:928-936``).  The
partition read, stats compaction and fold, and the per-partition fallback
are ``stages/validate.py``'s, shared with role_validation.py.
"""

from __future__ import annotations

import collections
import json
import os
from dataclasses import dataclass
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data

from ndap_data_validator_ray import report as rpt
from ndap_data_validator_ray.report import TableStats
from ndap_data_validator_ray.schema import TableSchema, clips_table_schema
from ndap_data_validator_ray.sources import fs as vfs
from ndap_data_validator_ray.sources.synthetic import clip_files
from ndap_data_validator_ray.stages.audio import AudioDecodeValidator
from ndap_data_validator_ray.stages.dedup import key_run_duplicates, merge_ranges, write_key_run
from ndap_data_validator_ray.stages.validate import (
    ValidateBatch,
    compact_stats,
    partition_stats,
    read_partitions,
    run_with_fallback,
)
from ndap_data_validator_ray.state import baseline as bl
from ndap_data_validator_ray.state import checkpoint as ckpt

_KEY = "clip_id"


def _mark(label: str, t0: float) -> None:
    """Env-gated phase timing (NDAP_TIMING=1) for fixed-cost hunting."""
    if os.environ.get("NDAP_TIMING"):
        import sys, time

        print(f"# t+{time.time() - t0:7.2f}s  {label}", file=sys.stderr, flush=True)


@dataclass
class ClipRunConfig:
    out_dir: str
    run_id: str = "RUN-local"
    batch_size: int = 512
    # actor-pool size: (min, max) autoscaling by default so the pool can
    # never reserve every CPU and starve the read/write stages (a fixed
    # pool equal to the CPU count deadlocks a small cluster)
    audio_concurrency: Any = (1, 4)
    full_decode: bool = True
    violation_cap: int = 1000
    resume: bool = True
    # checkpoint manifests location; defaults to <out_dir>/checkpoints.
    # May be a URI (s3://bucket/ckpt) independent of out_dir.
    ckpt_dir: str | None = None
    baseline_path: str | None = None
    check_unique: bool = True


class _DecodeValidateStage:
    """Fused actor stage: audio decode (ST5 stateful pool) + the stateless
    validation kernel in one ``__call__`` — the decoded batch dies inside
    the actor instead of riding the object store to a second stage."""

    def __init__(self, full_decode: bool, validator: ValidateBatch):
        self.decode = AudioDecodeValidator(full_decode=full_decode)
        self.validate = validator

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.validate(self.decode(batch))


# per-worker-process decoder cache for the TASK-mode stage: the same
# init-once-per-process behavior as an actor pool, without reserving CPUs
_TASK_DECODER_CACHE: dict[bool, AudioDecodeValidator] = {}


def _decode_validate_task(batch: pa.Table, *, full_decode: bool, validator: ValidateBatch) -> pa.Table:
    """TASK-mode fused decode+validate (``audio_concurrency=None``).

    An actor pool reserves a fixed CPU split for the whole run; on a
    bounded job that split is never perfectly balanced against the read /
    compact / write stages, so ~10-15% of the pool sits idle across the
    ramp and drain (measured at 16 CPUs / 3M clips).  As a plain task
    stage, Ray fuses read->decode->compact->write into ONE task chain and
    packs every CPU with no partition gaps.  Stateful decoder init stays
    once-per-worker via a process-global cache (the actor-pool path — the
    contract a REAL model-loading decoder with GPU/heap affinity needs —
    remains available and is the default)."""
    dec = _TASK_DECODER_CACHE.get(full_decode)
    if dec is None:
        dec = AudioDecodeValidator(full_decode=full_decode)
        _TASK_DECODER_CACHE[full_decode] = dec
    return validator(dec(batch))


def validate_clips(data_dir: str, cfg: ClipRunConfig, schema: TableSchema | None = None) -> dict[str, Any]:
    """Run the full constraint suite; returns the verdict report dict and
    writes violations + per-partition manifests under ``cfg.out_dir``."""
    import time as _time

    _t0 = _time.time()
    schema = schema or clips_table_schema(drift=cfg.baseline_path is not None)
    files = clip_files(data_dir)
    _mark("listed files", _t0)
    if not files:
        raise FileNotFoundError(f"no clip shards under {data_dir}")
    partitions = {pid: [f] for pid, f in enumerate(files)}
    ckpt_dir = cfg.ckpt_dir or vfs.join(cfg.out_dir, "checkpoints")
    run_dir = vfs.join(cfg.out_dir, f"run-{cfg.run_id}")

    lineages = ckpt.lineage_ids(partitions)
    done = ckpt.completed_partitions(ckpt_dir, lineages) if cfg.resume else {}
    pending = {pid: fs for pid, fs in partitions.items() if pid not in done}

    def run(parts: dict[int, list[str]], pid: int | None):
        ds = _build_validation_plan(parts, cfg, schema)
        subdir = "union" if pid is None else f"union-p{pid:05d}"
        return _execute_validation_pass(ds, parts, lineages, run_dir, ckpt_dir, cfg, schema, subdir, _t0)

    # key runs build concurrently with the main pass: plain Ray tasks that
    # read one column of one partition each
    runs = _KeyRuns(ckpt_dir, partitions, lineages, pending) if cfg.check_unique else None
    try:
        # a pass that raises falls back to one pass per partition; a failed
        # partition gets NO manifest, so a later resume retries it
        new_manifests, failed_partitions = run_with_fallback(run, pending) if pending else ({}, {})
        _mark("validation pass done", _t0)
        # a failed partition's run is left out of the merge; a run that
        # could not be built fails its partition the same way
        dup_tbl = runs.duplicates(failed_partitions) if runs is not None else None
    finally:
        if runs is not None:
            runs.wait()
    if dup_tbl is not None:
        _mark("uniqueness merged", _t0)
        vfs.ensure_dir(run_dir)
        _fs, _p = vfs.resolve(vfs.join(run_dir, "unique_violations.parquet"))
        pq.write_table(dup_tbl, _p, filesystem=_fs)

    # one fold over the current partitions: the done ones' manifests (as
    # the resume check loaded them) and this run's stats, still in memory
    folded = {**{pid: (m, m.stats()) for pid, m in done.items()}, **new_manifests}
    total = TableStats()
    for pid in sorted(folded):
        total = total.merge(folded[pid][1])
    _mark("manifests merged", _t0)

    n_dup_keys = dup_tbl.num_rows if dup_tbl is not None else None
    baseline = bl.load_baseline(cfg.baseline_path) if cfg.baseline_path else None
    report = rpt.finalize_report(schema, total, duplicate_keys=n_dup_keys, baseline=baseline)
    report["run_id"] = cfg.run_id
    report["partitions"] = {
        "total": len(partitions),
        "resumed_from_checkpoint": sorted(done),
        "validated_this_run": sorted(pid for pid in pending if pid not in failed_partitions),
        "failed": {str(pid): msg for pid, msg in sorted(failed_partitions.items())},
    }
    if failed_partitions:
        report["passed"] = False  # per-file fold: any failed file fails the run (main.py:926-936)
    report["violation_counts"] = _violation_counts(m for m, _s in folded.values())
    if n_dup_keys is not None:
        report["violation_counts"][rpt.CHECK_UNIQUE] = n_dup_keys

    vfs.ensure_dir(run_dir)
    vfs.write_bytes_atomic(
        vfs.join(run_dir, "report.json"), json.dumps(report, indent=1, default=str).encode()
    )
    return report


@ray.remote
def _key_run_task(files: list[str], path: str, aws_env: dict[str, str]) -> str:
    os.environ.update(aws_env)
    return write_key_run(files, _KEY, path)


@ray.remote
def _merge_range_task(paths: list[str], lo: int, hi: int, aws_env: dict[str, str]) -> pa.Table:
    os.environ.update(aws_env)
    return key_run_duplicates(paths, _KEY, lo, hi)


class _KeyRuns:
    """The clip-uniqueness key runs of one job (stages/dedup.py).

    Construction submits one build task per partition that needs a run:
    every pending partition, plus each done partition whose run under its
    current lineage is missing.  ``duplicates`` awaits them, deletes runs
    no current partition names, and merges by hash range.  ``wait``
    awaits whatever is still in flight, so no task outlives the job."""

    def __init__(
        self,
        ckpt_dir: str,
        partitions: dict[int, list[str]],
        lineages: dict[int, str],
        pending: dict[int, list[str]],
    ):
        self.dir = ckpt.key_runs_dir(ckpt_dir)
        self.names = {pid: ckpt.key_run_name(pid, lineages[pid]) for pid in partitions}
        self.aws_env = vfs.aws_env()
        have = vfs.file_sizes(self.dir)
        vfs.ensure_dir(self.dir)
        self.builds = {
            pid: _key_run_task.remote(partitions[pid], vfs.join(self.dir, name), self.aws_env)
            for pid, name in self.names.items()
            if pid in pending or name not in have
        }
        self.merges: list = []

    def duplicates(self, failed_partitions: dict[int, str]) -> pa.Table:
        """Keys counted more than once over the runs of every partition
        not in ``failed_partitions`` (which this extends with partitions
        whose run build failed), sorted by key: ``(clip_id, cnt)``."""
        self.wait()
        for pid, ref in self.builds.items():
            try:
                ray.get(ref)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                failed_partitions.setdefault(pid, f"key run: {type(exc).__name__}: {str(exc)[:200]}")
        sizes = vfs.file_sizes(self.dir)
        for name in set(sizes) - set(self.names.values()):
            vfs.delete_file(vfs.join(self.dir, name))
        current = sorted(name for pid, name in self.names.items() if pid not in failed_partitions)
        n_cpus = int(ray.cluster_resources().get("CPU", 1))
        paths = [vfs.join(self.dir, name) for name in current]
        self.merges = [
            _merge_range_task.remote(paths, lo, hi, self.aws_env)
            for lo, hi in merge_ranges(sum(sizes.get(name, 0) for name in current), n_cpus)
        ]
        self.wait()
        tbl = pa.concat_tables(ray.get(self.merges), promote_options="permissive")
        return tbl.take(pc.sort_indices(tbl, [(_KEY, "ascending")])).combine_chunks()

    def wait(self) -> None:
        refs = [*self.builds.values(), *self.merges]
        if refs:
            ray.wait(refs, num_returns=len(refs))


def _build_validation_plan(
    pending: dict[int, list[str]],
    cfg: ClipRunConfig,
    schema: TableSchema,
) -> "ray.data.Dataset":
    """Build (lazily) the streaming validation plan over ``pending``."""
    ds = read_partitions(pending)
    # decode + validation FUSED into one actor stage: an actor (decode)
    # stage and a task (validate) stage cannot be fused by Ray, so split
    # stages would push the full decoded stream (~15GB/1M clips) through
    # the object store a second time just to shrink it to violation/stats
    # rows; fused, the actor emits only the tiny union records and one
    # pool serves both compute bodies (better CPU balance at any size)
    validator = ValidateBatch(schema, key_column="clip_id", violation_cap=cfg.violation_cap)
    if cfg.audio_concurrency is None:
        # task mode: fully fusable with read + compact + write — every CPU
        # runs the whole chain, no fixed pool split (see _decode_validate_task)
        ds = ds.map_batches(
            _decode_validate_task,
            fn_kwargs={"full_decode": cfg.full_decode, "validator": validator},
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            num_cpus=1,
        )
    else:
        ds = ds.map_batches(
            _DecodeValidateStage,
            fn_constructor_kwargs={"full_decode": cfg.full_decode, "validator": validator},
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            concurrency=cfg.audio_concurrency,
            num_cpus=1,
        )
    return ds.map_batches(compact_stats, batch_size=None, batch_format="pyarrow")


def _execute_validation_pass(
    ds: "ray.data.Dataset",
    pending: dict[int, list[str]],
    lineages: dict[int, str],
    run_dir: str,
    ckpt_dir: str,
    cfg: ClipRunConfig,
    schema: TableSchema,
    subdir: str,
    _t0: float,
) -> dict[int, tuple["ckpt.PartitionManifest", TableStats]]:
    """Execute a built validation plan -> union output + per-partition
    manifests (returned so the global fold need not re-read them)."""
    union_dir = vfs.join(run_dir, subdir)
    # write_parquet appends; a prior attempt that died between its union
    # write and its manifest writes would leave files this read-back fold
    # would double-count on resume — each attempt owns the subdir exclusively
    vfs.delete_dir(union_dir)
    union_fs, union_path = vfs.resolve(union_dir)
    _mark("pass: plan built, starting execution", _t0)
    ds.write_parquet(union_path, filesystem=union_fs)
    _mark("pass: union written", _t0)
    if os.environ.get("NDAP_TIMING"):
        import sys

        print(ds.stats(), file=sys.stderr, flush=True)

    # union output is SMALL (violations + ONE stats row per partition):
    # read it back, fold per partition, write manifests
    union = pads.dataset(union_path, format="parquet", filesystem=union_fs).to_table()
    _mark("pass: union read back", _t0)
    manifests = _write_partition_manifests(union, pending, lineages, ckpt_dir, cfg.run_id, schema)
    _mark("pass: manifests written", _t0)
    return manifests


def _write_partition_manifests(
    union: pa.Table,
    pending: dict[int, list[str]],
    lineages: dict[int, str],
    ckpt_dir: str,
    run_id: str,
    schema: TableSchema,
) -> dict[int, tuple["ckpt.PartitionManifest", TableStats]]:
    # vectorized fold: group the (small) union output once with pandas —
    # never a per-row Python loop over all partitions x rows
    df = union.select(["record_type", "partition_id", "check", "stats_blob"]).to_pandas()
    stats_by_pid = partition_stats(df)
    viol_df = df[df["record_type"] == "violation"]
    vcounts_by_pid = {
        int(pid): g["check"].value_counts().to_dict() for pid, g in viol_df.groupby("partition_id")
    }

    def build_and_write(item: tuple[int, list[str]]) -> tuple[int, tuple["ckpt.PartitionManifest", TableStats]]:
        pid, files = item
        stats = stats_by_pid.get(pid, TableStats())
        vcounts = collections.Counter({k: int(v) for k, v in vcounts_by_pid.get(pid, {}).items()})
        # violation ROWS are capped per batch; exact counts come from stats
        exact = _exact_violation_counts(stats, schema)
        for check, cnt in exact.items():
            vcounts[check] = cnt
        m = ckpt.make_manifest(run_id, pid, files, stats, dict(vcounts), lineages[pid])
        ckpt.write_manifest(ckpt_dir, m)
        # return the in-memory stats too so the caller's global fold does
        # not re-deserialize every digest it just encoded
        return pid, (m, stats)

    # each manifest write is tiny but does real work (digest encode +
    # atomic write); at hundreds of shards the serial loop is ~1s of
    # driver tail, so fan out over threads (writes are independent files)
    import concurrent.futures

    vfs.ensure_dir(ckpt_dir)
    if len(pending) <= 4:
        return dict(build_and_write(it) for it in pending.items())
    with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
        return dict(pool.map(build_and_write, pending.items()))


def _exact_violation_counts(stats: TableStats, schema: TableSchema) -> dict[str, int]:
    """Exact per-check counts from the mergeable stats (violation ROWS are
    capped per batch; these counters are never capped)."""
    out: dict[str, int] = {}
    nn = 0
    num = 0
    tfmt = 0
    for spec in schema.columns:
        cs = stats.columns.get(spec.name)
        if cs is None:
            continue
        flags = schema.role_flags(spec.role)
        not_null_req = flags.get("notNull", False) if spec.not_null is None else spec.not_null
        if not_null_req:
            nn += cs.nulls
        if flags.get("numericOnly"):
            num += max(cs.conversion_errors, 0)
        if spec.role == "Time" and cs.time_hist is not None:
            tfmt += int(cs.time_hist[0])
    if nn:
        out[rpt.CHECK_NOT_NULL] = nn
    if num:
        out[rpt.CHECK_NUMERIC_ONLY] = num
    if tfmt:
        out[rpt.CHECK_TIME_FORMAT] = tfmt
    dom = sum(cs.domain_violations for cs in stats.columns.values())
    rng = sum(cs.range_violations for cs in stats.columns.values())
    emp = sum(cs.empty_strings for cs in stats.columns.values())
    if dom:
        out[rpt.CHECK_DOMAIN] = dom
    if rng:
        out[rpt.CHECK_RANGE] = rng
    if emp:
        out[rpt.CHECK_REFERENTIAL] = emp
    if stats.audio:
        a = stats.audio
        for check, v in (
            (rpt.CHECK_DECODE, a.decode_failures),
            (rpt.CHECK_SR_CONSISTENCY, a.sr_mismatches),
            (rpt.CHECK_DUR_CONSISTENCY, a.dur_mismatches),
            (rpt.CHECK_CODEC_CONSISTENCY, a.codec_mismatches),
            (rpt.CHECK_AUDIO_SILENCE, a.silent_clips),
            (rpt.CHECK_AUDIO_CLIPPING, a.clipped_clips),
        ):
            if v:
                out[check] = v
    return out


def _violation_counts(manifests) -> dict[str, int]:
    total: collections.Counter = collections.Counter()
    for m in manifests:
        total.update(m.violation_counts)
    return dict(total)


def save_clean_baseline(data_dir: str, out_path: str, cfg: ClipRunConfig | None = None) -> None:
    """Produce a drift baseline snapshot (FIXTURES.md F3) from a clean run."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        c = cfg or ClipRunConfig(out_dir=tmp)
        c = ClipRunConfig(**{**c.__dict__, "out_dir": tmp, "baseline_path": None, "check_unique": False, "resume": False})
        validate_clips(data_dir, c)
        manifests = ckpt.load_manifests(os.path.join(tmp, "checkpoints"))
        bl.save_baseline(out_path, ckpt.merged_stats(manifests))
