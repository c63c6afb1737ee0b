"""Checkpoint-manifest unit tests: content-addressed lineage, atomicity,
latest-attempt-wins, and merge algebra (FIXTURES.md F4 foundations)."""

import json
import os

import numpy as np

from ndap_data_validator_ray.report import ColumnStats, TableStats
from ndap_data_validator_ray.state import checkpoint as ckpt


def _stats(rows: int, nulls: int) -> TableStats:
    t = TableStats(rows=rows)
    t.columns["c"] = ColumnStats(rows=rows, nulls=nulls)
    return t


def _touch(path, content=b"x" * 100):
    with open(path, "wb") as f:
        f.write(content)


def test_lineage_is_content_addressed(tmp_path):
    f1, f2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    _touch(f1)
    _touch(f2)
    lid = ckpt.lineage_id_for([f1, f2])
    assert lid == ckpt.lineage_id_for([f2, f1])  # order-free
    _touch(f2, b"y" * 150)  # size change -> different lineage
    assert lid != ckpt.lineage_id_for([f1, f2])


def test_completed_partitions_rejects_stale_lineage(tmp_path):
    d = str(tmp_path / "ck")
    f1 = str(tmp_path / "a.parquet")
    _touch(f1)
    m = ckpt.make_manifest("R1", 0, [f1], _stats(10, 1), {"not_null": 1}, ckpt.lineage_id_for([f1]))
    ckpt.write_manifest(d, m)
    assert ckpt.completed_partitions(d, ckpt.lineage_ids({0: [f1]})) == {0}
    # file changed on disk -> manifest is stale -> partition must re-run
    _touch(f1, b"z" * 999)
    assert ckpt.completed_partitions(d, ckpt.lineage_ids({0: [f1]})) == set()


def test_latest_attempt_wins(tmp_path):
    d = str(tmp_path / "ck")
    f1 = str(tmp_path / "a.parquet")
    _touch(f1)
    ckpt.write_manifest(d, ckpt.make_manifest("R1", 0, [f1], _stats(10, 1), {}, ckpt.lineage_id_for([f1])))
    ckpt.write_manifest(d, ckpt.make_manifest("R2", 0, [f1], _stats(10, 3), {}, ckpt.lineage_id_for([f1])))
    loaded = ckpt.load_manifests(d)
    assert loaded[0].run_id == "R2"
    assert loaded[0].stats().columns["c"].nulls == 3


def test_torn_manifest_ignored(tmp_path):
    d = str(tmp_path / "ck")
    os.makedirs(d)
    with open(os.path.join(d, "partition-00000.json"), "w") as f:
        f.write('{"run_id": "R1", "partition')
    assert ckpt.load_manifests(d) == {}


def test_merged_stats_deterministic_and_complete(tmp_path):
    d = str(tmp_path / "ck")
    files = []
    for i in range(4):
        f = str(tmp_path / f"p{i}.parquet")
        _touch(f, bytes([i]) * (50 + i))
        files.append(f)
        ckpt.write_manifest(d, ckpt.make_manifest("R", i, [f], _stats(100 + i, i), {}, ckpt.lineage_id_for([f])))
    total = ckpt.merged_stats(ckpt.load_manifests(d))
    assert total.rows == sum(100 + i for i in range(4))
    assert total.columns["c"].nulls == sum(range(4))


def test_manifest_roundtrip_preserves_metrics(tmp_path):
    d = str(tmp_path / "ck")
    f1 = str(tmp_path / "a.parquet")
    _touch(f1)
    st = _stats(42, 7)
    m = ckpt.make_manifest("R9", 3, [f1], st, {"domain": 2, "range": 1}, ckpt.lineage_id_for([f1]))
    path = ckpt.write_manifest(d, m)
    raw = json.load(open(path))
    assert raw["rows_scanned"] == 42
    assert raw["violation_counts"] == {"domain": 2, "range": 1}
    loaded = ckpt.load_manifests(d)[3]
    assert loaded.lineage_id == m.lineage_id
    assert loaded.stats().columns["c"].nulls == 7
