"""Per-partition checkpoint manifests: lineage ids + metrics + stats digests.

The reference persists pipeline state in DuckDB so any worker can rebuild it
mid-run (``utils/db.py:344-379``, ``main.py:1527-1550``); its lineage view
keeps the *latest* attempt per token (``ROW_NUMBER() ... rn=1``,
``db.py:493-501``).  The engine's equivalent (BASELINE.json:6 "resumable
from per-partition checkpoints carrying lineage IDs and metrics") is a
directory of small JSON manifests, one per input partition:

    {run_id, partition_id, lineage_id, files, rows_scanned,
     violation_counts, stats_digest (base85 of the serialized TableStats)}

Rules:
- **lineage_id is a content address** — a hash of the partition's file list
  — so "is this partition done?" survives run-id changes and file-set
  reshuffles; a manifest whose lineage_id no longer matches the current
  partitioning is ignored, not trusted.
- **atomic writes** (temp + rename), so a killed run never leaves a
  half-manifest that a resume would trust.
- **key runs** (clip uniqueness, stages/dedup.py) live in the sibling
  ``<ckpt_dir>-keys/``: one immutable file per partition, named by its
  ``lineage_id``, written before any merge reads it; a run whose name is
  not a current partition's is deleted.
- **latest-attempt-wins**: re-validating a partition overwrites its
  manifest; merged reports are rebuilt from manifests only, and the merge
  is a commutative sketch-union (report.TableStats.merge), so a resumed run
  never double-counts (manifests are the unit of idempotence).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

from ndap_data_validator_ray.functions.sketches import deserialize, serialize
from ndap_data_validator_ray.report import TableStats
from ndap_data_validator_ray.sources import fs as vfs


@dataclass
class PartitionManifest:
    run_id: str
    partition_id: int
    lineage_id: str
    files: list[str] = field(default_factory=list)
    rows_scanned: int = 0
    violation_counts: dict[str, int] = field(default_factory=dict)
    stats_digest: str = ""  # base85(serialized TableStats)

    def stats(self) -> TableStats:
        if not self.stats_digest:
            return TableStats()
        return deserialize(base64.b85decode(self.stats_digest))


def lineage_id_for(files: list[str]) -> str:
    """Content address of a partition: hash of its sorted file basenames +
    sizes + a first/last-4KB content sample (deterministic for resume;
    SURVEY.md §4.1 'determinism of run ids').  The sample makes this a real
    content address — an in-place rewrite that preserves the byte size
    still invalidates the manifest — while staying O(8KB) per file and
    stable across copies/moves (mtime is deliberately NOT included)."""
    h = hashlib.sha256()
    for f in sorted(files):
        try:
            size = vfs.file_size(f)
            with vfs.open_input(f) as fh:
                head = fh.read(4096)
                if size > 8192:
                    fh.seek(size - 4096)
                tail = fh.read(4096) if size > 4096 else b""
        except (OSError, FileNotFoundError):
            size, head, tail = -1, b"", b""
        h.update(f"{vfs.basename(f)}:{size};".encode())
        h.update(head)
        h.update(tail)
    return h.hexdigest()[:16]


def lineage_ids(partition_files: dict[int, list[str]]) -> dict[int, str]:
    """``lineage_id_for`` of every partition — computed once per run and
    shared by the resume check, the manifests and the key-run names."""
    return {pid: lineage_id_for(files) for pid, files in partition_files.items()}


def make_manifest(
    run_id: str,
    partition_id: int,
    files: list[str],
    stats: TableStats,
    violation_counts: dict[str, int],
    lineage_id: str,
) -> PartitionManifest:
    return PartitionManifest(
        run_id=run_id,
        partition_id=partition_id,
        lineage_id=lineage_id,
        files=[vfs.basename(f) for f in files],
        rows_scanned=int(stats.rows),
        violation_counts=dict(violation_counts),
        stats_digest=base64.b85encode(serialize(stats)).decode(),
    )


def manifest_path(ckpt_dir: str, partition_id: int) -> str:
    return vfs.join(ckpt_dir, f"partition-{partition_id:05d}.json")


def write_manifest(ckpt_dir: str, manifest: PartitionManifest) -> str:
    """Atomic-visibility write: local = temp + rename, object store =
    single PUT (``ckpt_dir`` may be a URI, e.g. ``s3://bucket/ckpt``)."""
    vfs.ensure_dir(ckpt_dir)
    path = manifest_path(ckpt_dir, manifest.partition_id)
    vfs.write_bytes_atomic(path, json.dumps(asdict(manifest)).encode())
    return path


def load_manifests(ckpt_dir: str) -> dict[int, PartitionManifest]:
    out: dict[int, PartitionManifest] = {}
    for path in vfs.list_files(ckpt_dir):
        name = vfs.basename(path)
        if not (name.startswith("partition-") and name.endswith(".json")):
            continue
        try:
            raw = json.loads(vfs.read_bytes(path))
            out[int(raw["partition_id"])] = PartitionManifest(**raw)
        except (json.JSONDecodeError, KeyError, TypeError):
            continue  # torn/foreign file: treat partition as not-done
    return out


def completed_partitions(ckpt_dir: str, lineages: dict[int, str]) -> dict[int, PartitionManifest]:
    """Manifests of the partitions whose manifest exists AND whose lineage
    matches the current file assignment (``lineage_ids``; stale manifests,
    and those of partitions that no longer exist, are not trusted)."""
    return {pid: m for pid, m in load_manifests(ckpt_dir).items() if lineages.get(pid) == m.lineage_id}


def key_runs_dir(ckpt_dir: str) -> str:
    """Where the partitions' key runs live (stages/dedup.py): a sibling of
    ``ckpt_dir``, which holds manifests only."""
    return str(ckpt_dir).rstrip("/") + "-keys"


def key_run_name(partition_id: int, lineage_id: str) -> str:
    """A key run is named by its partition AND lineage: a changed input
    gets a new name, never an overwrite of a run a reader may trust."""
    return f"partition-{partition_id:05d}-{lineage_id}.parquet"


def merged_stats(manifests: dict[int, PartitionManifest]) -> TableStats:
    """Deterministic fold (ascending partition_id) of per-partition digests."""
    total = TableStats()
    for pid in sorted(manifests):
        total = total.merge(manifests[pid].stats())
    return total
