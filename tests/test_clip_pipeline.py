"""End-to-end flagship pipeline tests against the generator goldens:
exact violation row sets, per-row fidelity (SNR >= 30 dB + transcript
equality), checkpoint/resume identity, and drift detection."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from ndap_data_validator_ray.functions import audio_codec as ac
from ndap_data_validator_ray.pipelines.clip_validation import (
    ClipRunConfig,
    save_clean_baseline,
    validate_clips,
)
from ndap_data_validator_ray.sources import synthetic as syn


@pytest.fixture(scope="module")
def tiny_run(clips_tiny, tmp_path_factory):
    data_dir, spec, goldens = clips_tiny
    out = str(tmp_path_factory.mktemp("clips_run"))
    report = validate_clips(data_dir, ClipRunConfig(out_dir=out, run_id="T1", audio_concurrency=2))
    return data_dir, spec, goldens, out, report


def _violation_keys(out_dir: str, run_id: str, check: str) -> set[str]:
    tbl = pads.dataset(os.path.join(out_dir, f"run-{run_id}", "union"), format="parquet").to_table()
    mask = [
        rt == "violation" and c == check
        for rt, c in zip(tbl["record_type"].to_pylist(), tbl["check"].to_pylist())
    ]
    return set(tbl.filter(pa.array(mask))["key"].to_pylist())


def _key_runs(out_dir: str) -> list[str]:
    return sorted(os.listdir(os.path.join(out_dir, "checkpoints-keys")))


def _unique_bytes(out_dir: str, run_id: str) -> bytes:
    with open(os.path.join(out_dir, f"run-{run_id}", "unique_violations.parquet"), "rb") as f:
        return f.read()


def _shard_duplicates(data_dir: str) -> dict[str, int]:
    """Keys counted more than once straight from the shards (pyarrow)."""
    ids = pa.chunked_array([pq.read_table(f, columns=["clip_id"])["clip_id"] for f in syn.clip_files(data_dir)])
    vc = pa.compute.value_counts(ids.drop_null())
    return {k: c for k, c in zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist()) if c > 1}


def test_overall_verdict(tiny_run):
    *_, report = tiny_run
    assert report["passed"] is False
    assert report["rows"] == tiny_run[2].n_rows


def test_violation_row_sets_match_goldens(tiny_run):
    data_dir, spec, goldens, out, report = tiny_run
    # corrupt bytes -> audio_decode violations
    assert _violation_keys(out, "T1", "audio_decode") == set(goldens.violations[syn.V_CORRUPT_BYTES])
    # sr mismatch
    assert _violation_keys(out, "T1", "audio_sr_consistency") == set(goldens.violations[syn.V_SR_MISMATCH])
    # codec outside domain
    assert _violation_keys(out, "T1", "domain") == set(goldens.violations[syn.V_BAD_CODEC])
    # null/empty transcript = not_null(transcript) + referential(empty) + V7 null sr rows
    nn = _violation_keys(out, "T1", "not_null") | _violation_keys(out, "T1", "referential")
    assert set(goldens.violations[syn.V_NULL_TRANSCRIPT]) <= nn
    # dur mismatch: at least the V5 rows (V7 negative-dur rows also trip it)
    dur = _violation_keys(out, "T1", "audio_dur_consistency")
    assert set(goldens.violations[syn.V_DUR_MISMATCH]) <= dur
    assert dur - set(goldens.violations[syn.V_DUR_MISMATCH]) <= set(goldens.violations[syn.V_BAD_MEASURE])
    # audio QA features: silent and clipped clips
    assert _violation_keys(out, "T1", "audio_silence") == set(goldens.violations[syn.V_SILENT])
    assert _violation_keys(out, "T1", "audio_clipping") == set(goldens.violations[syn.V_CLIPPED])


def test_uniqueness_matches_goldens(tiny_run):
    data_dir, spec, goldens, out, report = tiny_run
    dup = pq.read_table(os.path.join(out, "run-T1", "unique_violations.parquet"))
    assert sorted(dup["clip_id"].to_pylist()) == goldens.violations[syn.V_DUP]
    assert report["uniqueness"]["duplicate_keys"] == len(goldens.violations[syn.V_DUP])
    # the hot key's count reflects the injected skew
    counts = dict(zip(dup["clip_id"].to_pylist(), dup["cnt"].to_pylist()))
    assert counts["clip-000000000000"] >= spec.hot_dup_copies


def test_duplicate_goldens_match_generated_ids(monkeypatch):
    """Plan-only (no shards written, audio stubbed): at this spec some V1
    rows copy an id from a row that is itself a V1 row; the goldens must
    list exactly the ids the generator emits more than once."""
    from collections import Counter

    monkeypatch.setattr(ac, "synth_pcm", lambda idx, sr, n, seed: np.zeros(1, dtype=np.float32))
    monkeypatch.setattr(ac, "encode", lambda pcm, sr, codec: b"")
    spec = syn.ClipTableSpec(n_rows=20000, seed=42, n_files=16, hot_dup_copies=200)
    counts = Counter()
    for shard in range(spec.n_files):
        counts.update(syn.generate_shard(spec, shard)["clip_id"].to_pylist())
    assert sum(counts.values()) == spec.n_rows + spec.hot_dup_copies
    expected = sorted(cid for cid, c in counts.items() if c > 1)
    assert syn.compute_goldens(spec).violations[syn.V_DUP] == expected
    assert len(expected) == 196


def test_exact_counts_unaffected_by_violation_cap(clips_tiny, tmp_path):
    """Violation ROWS are capped; violation COUNTS must stay exact."""
    data_dir, spec, goldens = clips_tiny
    rep = validate_clips(
        data_dir,
        ClipRunConfig(out_dir=str(tmp_path), run_id="CAP", violation_cap=2, audio_concurrency=2),
    )
    assert rep["violation_counts"]["audio_decode"] == len(goldens.violations[syn.V_CORRUPT_BYTES])
    assert rep["violation_counts"]["domain"] == len(goldens.violations[syn.V_BAD_CODEC])


def test_per_row_fidelity(clips_clean):
    """BASELINE.json:15 invariant on a clean table: decoded PCM allclose to
    the oracle synth at SNR >= 30 dB and transcript byte-equality."""
    data_dir, spec, _ = clips_clean
    tbl = pa.concat_tables([pq.read_table(f) for f in syn.clip_files(data_dir)])
    assert tbl.num_rows == spec.n_rows
    checked = 0
    for row in tbl.to_pylist():
        codec, sr, pcm = ac.decode(row["bytes"])
        assert codec == row["codec"] and sr == row["sr_hz"]
        idx = int(row["clip_id"].rsplit("-", 1)[1])
        ref = ac.synth_pcm(idx, sr, len(pcm), seed=spec.seed)
        assert ac.snr_db(ref, pcm) >= 30.0
        assert abs(len(pcm) / sr * 1000 - row["dur_ms"]) <= 10
        assert row["transcript"] == syn._transcript(spec, idx, max(2, len(row["transcript"].split())))
        checked += 1
    assert checked == spec.n_rows


def test_clean_table_passes(clips_clean, tmp_path):
    data_dir, *_ = clips_clean
    rep = validate_clips(data_dir, ClipRunConfig(out_dir=str(tmp_path), run_id="CLEAN", audio_concurrency=2))
    assert rep["passed"] is True
    assert rep["failed_columns"] == []
    assert rep["violation_counts"] == {"unique": 0}


def test_resume_from_checkpoints(clips_tiny, tmp_path):
    """Kill-and-resume (FIXTURES.md F4): run partitions 0..2, then resume;
    final report equals an uninterrupted run's."""
    data_dir, spec, goldens = clips_tiny
    full_out = str(tmp_path / "full")
    rep_full = validate_clips(data_dir, ClipRunConfig(out_dir=full_out, run_id="FULL", audio_concurrency=2))

    part_out = str(tmp_path / "partial")
    files = syn.clip_files(data_dir)
    # simulate a killed run: validate only the first 3 partitions
    import shutil

    first_dir = str(tmp_path / "first3")
    os.makedirs(first_dir)
    for f in files[:3]:
        shutil.copy(f, first_dir)
    validate_clips(
        first_dir,
        ClipRunConfig(out_dir=part_out, run_id="K1", audio_concurrency=2, check_unique=False),
    )
    done_before = len(os.listdir(os.path.join(part_out, "checkpoints")))
    assert done_before == 3
    assert not os.path.exists(os.path.join(part_out, "checkpoints-keys"))  # uniqueness was off

    # resume over the full input: only the remaining partitions run
    rep_resumed = validate_clips(data_dir, ClipRunConfig(out_dir=part_out, run_id="K2", audio_concurrency=2))
    assert rep_resumed["partitions"]["resumed_from_checkpoint"] == [0, 1, 2]
    assert sorted(rep_resumed["partitions"]["validated_this_run"]) == [3, 4, 5]

    # the done partitions had no key run: the resume built one for each
    assert len(_key_runs(part_out)) == len(files)
    assert _unique_bytes(part_out, "K2") == _unique_bytes(full_out, "FULL")

    # verdicts and exact counters identical to the uninterrupted run
    assert rep_resumed["violation_counts"] == rep_full["violation_counts"]
    assert rep_resumed["failed_columns"] == rep_full["failed_columns"]
    assert rep_resumed["rows"] == rep_full["rows"]
    for col, e in rep_full["per_column"].items():
        r = rep_resumed["per_column"][col]
        for k in ("role", "nulls", "conversion_errors", "passed", "reasons"):
            assert r[k] == e[k], (col, k)


def test_resume_never_double_counts_stale_union(clips_tiny, tmp_path):
    """A run that dies between its union write and its manifest writes
    leaves union files behind; resuming with the SAME run_id must not fold
    those stale files into the rebuilt manifest (each attempt owns the
    union subdir exclusively — counts stay identical, never doubled)."""
    data_dir, spec, goldens = clips_tiny
    out = str(tmp_path)
    rep1 = validate_clips(data_dir, ClipRunConfig(out_dir=out, run_id="R", audio_concurrency=2))
    # simulate the mid-write death: manifest gone, union files still present
    ck = os.path.join(out, "checkpoints")
    os.remove(os.path.join(ck, sorted(os.listdir(ck))[0]))
    rep2 = validate_clips(data_dir, ClipRunConfig(out_dir=out, run_id="R", audio_concurrency=2))
    assert rep2["partitions"]["validated_this_run"] == [0]
    assert rep2["rows"] == rep1["rows"]
    assert rep2["violation_counts"] == rep1["violation_counts"]
    for col, e in rep1["per_column"].items():
        assert rep2["per_column"][col]["nulls"] == e["nulls"]


def test_rerun_is_noop_and_stable(clips_tiny, tmp_path):
    """Re-validating with checkpoints present re-validates nothing and
    reproduces the same report (idempotent merge, no double-counting)."""
    data_dir, spec, goldens = clips_tiny
    out = str(tmp_path)
    rep1 = validate_clips(data_dir, ClipRunConfig(out_dir=out, run_id="A", audio_concurrency=2))
    rep2 = validate_clips(data_dir, ClipRunConfig(out_dir=out, run_id="B", audio_concurrency=2))
    assert rep2["partitions"]["validated_this_run"] == []
    assert rep2["violation_counts"] == rep1["violation_counts"]
    assert rep2["rows"] == rep1["rows"]


def test_drift_detection(clips_clean, tmp_path):
    """F3/V8: baseline from a clean run; a drifted table trips KS."""
    data_dir, spec, _ = clips_clean
    baseline_path = str(tmp_path / "baseline.json")
    save_clean_baseline(data_dir, baseline_path)

    drifted_dir = str(tmp_path / "drifted")
    drift_spec = syn.ClipTableSpec(
        n_rows=300, n_files=4, inject_violations=False, drift_tail=True, dur_ms_lo=800, dur_ms_hi=6000
    )
    syn.write_clips_dataset(drifted_dir, drift_spec, overwrite=True)
    rep = validate_clips(
        drifted_dir,
        ClipRunConfig(out_dir=str(tmp_path / "drift_run"), run_id="D", baseline_path=baseline_path, audio_concurrency=2),
    )
    assert "drift" in rep["per_column"]["dur_ms"]
    assert rep["per_column"]["dur_ms"]["drift"]["ks"] > 0.15
    assert rep["passed"] is False

    # same distribution -> no drift flag
    rep_same = validate_clips(
        data_dir,
        ClipRunConfig(out_dir=str(tmp_path / "same_run"), run_id="S", baseline_path=baseline_path, audio_concurrency=2),
    )
    assert rep_same["per_column"]["dur_ms"]["drift"]["ks"] < 0.15
    assert rep_same["passed"] is True


def test_corrupt_shard_fails_partition_not_job(clips_clean, tmp_path, monkeypatch, capsys):
    """A corrupt input shard yields a failed-partition record; every other
    partition still completes (reference per-file semantics,
    main.py:928-936), and a later resume retries only the broken one.
    The per-partition fallback's NDAP_TIMING marks are job offsets."""
    import re
    import shutil

    monkeypatch.setenv("NDAP_TIMING", "1")

    data_dir, spec, _ = clips_clean
    broken_dir = str(tmp_path / "data")
    os.makedirs(broken_dir)
    for f in syn.clip_files(data_dir):
        shutil.copy(f, broken_dir)
    files = syn.clip_files(broken_dir)
    with open(files[1], "wb") as f:
        f.write(b"NOT A PARQUET FILE")

    out = str(tmp_path / "run")
    rep = validate_clips(broken_dir, ClipRunConfig(out_dir=out, run_id="FT", audio_concurrency=2))
    offsets = [float(t) for t in re.findall(r"# t\+\s*([0-9.]+)s", capsys.readouterr().err)]
    assert offsets and max(offsets) < 3600
    assert rep["passed"] is False
    assert list(rep["partitions"]["failed"].keys()) == ["1"]
    assert rep["partitions"]["validated_this_run"] == [0, 2, 3]
    # healthy partitions produced manifests; the broken one did not
    assert sorted(os.listdir(os.path.join(out, "checkpoints"))) == [
        "partition-00000.json",
        "partition-00002.json",
        "partition-00003.json",
    ]
    # rows scanned = the three healthy shards
    healthy_rows = sum(pq.read_metadata(files[i]).num_rows for i in (0, 2, 3))
    assert rep["rows"] == healthy_rows

    # repair the shard; resume validates ONLY partition 1
    shutil.copy(syn.clip_files(data_dir)[1], files[1])
    rep2 = validate_clips(broken_dir, ClipRunConfig(out_dir=out, run_id="FT2", audio_concurrency=2))
    assert rep2["partitions"]["resumed_from_checkpoint"] == [0, 2, 3]
    assert rep2["partitions"]["validated_this_run"] == [1]
    assert rep2["passed"] is True
    assert rep2["rows"] == spec.n_rows


def test_resume_folds_only_current_partitions(clips_tiny, tmp_path):
    """A resumed run over a table that lost a shard folds only the
    partitions that exist now: the manifest left by the last partition id
    is never counted, and the report equals a fresh run's."""
    import shutil

    data_dir, *_ = clips_tiny
    data = str(tmp_path / "data")
    shutil.copytree(data_dir, data)
    out = str(tmp_path / "run")
    validate_clips(data, ClipRunConfig(out_dir=out, run_id="A", audio_concurrency=2))
    n_files = len(syn.clip_files(data))
    os.remove(syn.clip_files(data)[1])

    resumed = validate_clips(data, ClipRunConfig(out_dir=out, run_id="B", audio_concurrency=2))
    fresh = validate_clips(
        data, ClipRunConfig(out_dir=str(tmp_path / "fresh"), run_id="F", audio_concurrency=2, resume=False)
    )
    assert resumed["partitions"]["resumed_from_checkpoint"] == [0]  # later pids shifted onto new files
    assert resumed["partitions"]["total"] == n_files - 1
    assert resumed["rows"] == fresh["rows"] == sum(pq.read_metadata(f).num_rows for f in syn.clip_files(data))
    assert resumed["violation_counts"] == fresh["violation_counts"]
    assert resumed["per_column"] == fresh["per_column"]


def test_delta_uniqueness_is_byte_identical(clips_tiny, tmp_path):
    """A resumed run that re-validates one partition merges the persisted
    key runs of the others: its unique_violations.parquet is the full
    run's, byte for byte, and holds the shards' exact duplicate set."""
    data_dir, spec, goldens = clips_tiny
    out = str(tmp_path)
    validate_clips(data_dir, ClipRunConfig(out_dir=out, run_id="FULL", audio_concurrency=2, resume=False))
    runs_before = _key_runs(out)
    os.remove(os.path.join(out, "checkpoints", "partition-00002.json"))
    rep = validate_clips(data_dir, ClipRunConfig(out_dir=out, run_id="DELTA", audio_concurrency=2))
    assert rep["partitions"]["validated_this_run"] == [2]
    assert _key_runs(out) == runs_before  # same inputs, same run names
    assert _unique_bytes(out, "DELTA") == _unique_bytes(out, "FULL")
    dup = pq.read_table(os.path.join(out, "run-DELTA", "unique_violations.parquet"))
    assert dup.schema.types == [pa.string(), pa.int64()]
    assert dup["clip_id"].to_pylist() == sorted(dup["clip_id"].to_pylist())
    assert dict(zip(dup["clip_id"].to_pylist(), dup["cnt"].to_pylist())) == _shard_duplicates(data_dir)


def test_rewritten_shard_gets_a_fresh_key_run(clips_clean, tmp_path):
    """Rewriting a shard changes its lineage: the resume builds a run under
    the new name, deletes the old one (never merges it), and the duplicate
    set follows the new content."""
    import shutil

    data_dir, spec, _ = clips_clean
    data = str(tmp_path / "data")
    shutil.copytree(data_dir, data)
    out = str(tmp_path / "run")
    rep1 = validate_clips(data, ClipRunConfig(out_dir=out, run_id="A", audio_concurrency=2))
    assert rep1["violation_counts"]["unique"] == 0
    old_runs = _key_runs(out)
    assert len(old_runs) == spec.n_files

    files = syn.clip_files(data)
    shard = pq.read_table(files[1])
    taken = pq.read_table(files[0], columns=["clip_id"])["clip_id"][0].as_py()
    ids = shard["clip_id"].to_pylist()
    ids[0] = taken  # plant one duplicate across shards 0 and 1
    pq.write_table(shard.set_column(shard.schema.get_field_index("clip_id"), "clip_id", pa.array(ids)), files[1])

    rep2 = validate_clips(data, ClipRunConfig(out_dir=out, run_id="B", audio_concurrency=2))
    assert rep2["partitions"]["validated_this_run"] == [1]
    new_runs = _key_runs(out)
    old_p1 = [r for r in old_runs if r.startswith("partition-00001-")]
    new_p1 = [r for r in new_runs if r.startswith("partition-00001-")]
    assert len(old_p1) == len(new_p1) == 1 and old_p1 != new_p1  # old run deleted
    assert [r for r in new_runs if r not in new_p1] == [r for r in old_runs if r not in old_p1]
    dup = pq.read_table(os.path.join(out, "run-B", "unique_violations.parquet"))
    assert dict(zip(dup["clip_id"].to_pylist(), dup["cnt"].to_pylist())) == _shard_duplicates(data) == {taken: 2}
    assert rep2["violation_counts"]["unique"] == 1


def test_clip_uniqueness_does_not_shuffle(clips_clean, tmp_path, monkeypatch):
    """validate_clips never calls Dataset.groupby: uniqueness merges the
    persisted key runs instead of running an exchange."""
    import ray.data

    def no_groupby(self, *args, **kwargs):
        raise AssertionError("validate_clips shuffled")

    monkeypatch.setattr(ray.data.Dataset, "groupby", no_groupby)
    data_dir, *_ = clips_clean
    rep = validate_clips(data_dir, ClipRunConfig(out_dir=str(tmp_path), run_id="NS", audio_concurrency=2))
    assert rep["passed"] is True
    assert rep["violation_counts"] == {"unique": 0}
    dup = pq.read_table(os.path.join(str(tmp_path), "run-NS", "unique_violations.parquet"))
    assert dup.num_rows == 0 and dup.schema.names == ["clip_id", "cnt"]
    assert dup.schema.types == [pa.string(), pa.int64()]


def test_key_run_ranges_partition_the_count(tmp_path, monkeypatch):
    """Range merges over runs with many row groups: every range reads only
    its own keys, and the ranges together give the exact duplicate set
    (nulls dropped) that one merge over the whole hash space gives."""
    from ndap_data_validator_ray.stages import dedup

    monkeypatch.setattr(dedup, "KEY_RUN_ROW_GROUP", 16)
    rng = np.random.default_rng(3)
    shards, runs = [], []
    for i in range(3):
        ids = [None if v == 0 else f"k{v}" for v in rng.integers(0, 150, size=200)]
        shards.append(str(tmp_path / f"s{i}.parquet"))
        pq.write_table(pa.table({"clip_id": pa.array(ids, pa.string())}), shards[-1])
        runs.append(dedup.write_key_run([shards[-1]], "clip_id", str(tmp_path / f"run{i}.parquet")))
    assert pq.ParquetFile(runs[0]).metadata.num_row_groups > 4
    run0 = pq.read_table(runs[0])
    assert run0["h"].to_pylist() == sorted(run0["h"].to_pylist())

    ranges = dedup.merge_ranges(4 * dedup.MERGE_RANGE_BYTES, 4)
    assert len(ranges) == 4 and ranges[0][0] == 0 and ranges[-1][1] == 2**64 - 1
    parts = [dedup.key_run_duplicates(runs, "clip_id", lo, hi) for lo, hi in ranges]
    got = {}
    for part in parts:
        keys = part["clip_id"].to_pylist()
        assert not set(got) & set(keys)  # a key belongs to one range only
        got.update(zip(keys, part["cnt"].to_pylist()))
    whole = dedup.key_run_duplicates(runs, "clip_id", 0, 2**64 - 1)
    assert got == dict(zip(whole["clip_id"].to_pylist(), whole["cnt"].to_pylist()))
    ids = pa.chunked_array([pq.read_table(s)["clip_id"] for s in shards]).drop_null()
    vc = pa.compute.value_counts(ids)
    assert got == {k: c for k, c in zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist()) if c > 1}
