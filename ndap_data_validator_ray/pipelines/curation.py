"""Document-curation pipeline: quality filter → exact prefix dedup →
benchmark decontamination → partitioned parquet of kept docs.

The productized form of the curation funnel (``pipelines/queries.
curation_funnel_documents`` is the oracled per-doc-flag twin): given a
documents table and an optional benchmark table, write the surviving
corpus and report per-stage counts.

Execution shape (one full-data exchange, one light exchange):

1. ``map_batches`` computes the per-doc quality flag and (if a benchmark
   is given) the contamination flag — bench grams are collected once and
   broadcast (``stages/decontaminate.collect_gram_set``); full rows ride
   along.
2. ONE bucketed exchange on the dedup prefix resolves keep-lowest-id
   among quality survivors; each bucket reducer WRITES its survivors
   (one parquet file per bucket under ``<out>/kept``, atomic temp+rename
   via sources/fs) and its checkpoint manifest, then returns only 4 int64
   funnel counters — the corpus crosses the wire exactly once and every
   flag is computed exactly once.
3. The summary folds the (tiny, commutative) per-bucket counters from the
   MANIFESTS, so a resumed run reports byte-identical funnel counts.

Checkpoint/resume (round-4 verdict item 5, reusing state/checkpoint.py):
the dedup BUCKET is the checkpoint unit — keep-lowest-id is decided
entirely inside one bucket, so a bucket's survivors + counters are final
the moment its reducer commits them.  Every manifest carries one shared
lineage id = content hash of the sorted input file list + the funnel
parameters (incl. ``n_buckets`` — a different bucketing reshuffles rows —
and the benchmark's own file hash); a rerun over the same inputs skips
completed buckets (their reducers return without rewriting), while ANY
input/parameter change invalidates every manifest.  Manifest writes are
atomic and latest-attempt-wins, and the kept file is written BEFORE its
manifest — a kill between the two re-runs that bucket and overwrites the
orphan file, never the reverse, so survivors are never double-written.
The summary JSON is written last; its presence marks a completed run.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ndap_data_validator_ray.functions.hashing import word_ngrams
from ndap_data_validator_ray.functions.text import repetition_stats
from ndap_data_validator_ray.stages.decontaminate import collect_gram_set
from ndap_data_validator_ray.stages.groupby import default_n_buckets, exchange, hash_partitioner
from ndap_data_validator_ray.state import checkpoint as ckpt
from ndap_data_validator_ray.sources import fs as vfs


def _flag_batch(
    batch: pd.DataFrame,
    text_col: str,
    grams_ref,
    min_tokens: int,
    max_top_frac: float,
    prefix_len: int,
) -> pd.DataFrame:
    st = repetition_stats(batch[text_col])
    q = (
        (st["n_tokens"].to_numpy() >= min_tokens)
        & (st["top_token_frac"].to_numpy() <= max_top_frac)
    ).astype(np.int64)
    if grams_ref is not None:
        grams = ray.get(grams_ref)
        c = np.fromiter(
            (len(word_ngrams(t or "", 3) & grams) == 0 for t in batch[text_col]),
            dtype=np.int64,
            count=len(batch),
        )
    else:
        c = np.ones(len(batch), dtype=np.int64)
    out = batch.copy()
    out["_q"] = q
    out["_c"] = c
    out["_prefix"] = batch[text_col].str.slice(0, prefix_len)
    return out


def _dedup_flag(part: pd.DataFrame, id_col: str) -> pd.DataFrame:
    part = part.reset_index(drop=True)
    qmask = part["_q"] == 1
    mins = part.loc[qmask].groupby("_prefix")[id_col].min()
    min_for_row = part["_prefix"].map(mins)
    part["_d"] = (qmask & (part[id_col] == min_for_row)).astype(np.int64).to_numpy()
    return part


def _input_parquet_files(data_path: str) -> list[str]:
    if data_path.endswith(".parquet"):
        return [data_path]
    return sorted(f for f in vfs.list_files(data_path) if f.endswith(".parquet"))


_COUNT_KEYS = ("input_docs", "quality_kept", "dedup_kept", "final_kept")


def curate_documents(
    data_path: str,
    out_dir: str,
    bench_path: str | None = None,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_tokens: int = 20,
    max_top_frac: float = 0.13,
    prefix_len: int = 40,
    n_buckets: int | None = None,
    run_id: str = "curate",
    resume: bool = True,
) -> dict:
    """Run the funnel over ``data_path`` (parquet file/dir of documents);
    write survivors to ``<out_dir>/kept`` (one file per dedup bucket) and
    return the stage counts.  Re-running over the same inputs/params skips
    completed buckets (see module docstring); pass ``resume=False`` to
    force a full redo.

    Scale sizing: a bucket writes exactly ONE kept object (that is what
    makes latest-attempt-wins trivially correct — a re-run can never
    leave stale extra parts behind), so ``n_buckets`` is the knob that
    bounds per-object size AND per-reducer memory: size it so
    corpus_bytes / n_buckets is a comfortable object (the default is
    cluster-sized; a 100 TB corpus wants thousands of buckets, which also
    raises resume granularity).  It is the one bucket count the engine
    does not leave to the exchange: the bucket id names persisted output."""
    n_buckets = n_buckets or default_n_buckets()
    files = _input_parquet_files(data_path)
    cfg = f"{text_col}|{id_col}|{min_tokens}|{max_top_frac}|{prefix_len}|{n_buckets}"
    bench_lineage = ckpt.lineage_id_for(_input_parquet_files(bench_path)) if bench_path else ""
    lineage = hashlib.sha256(
        (ckpt.lineage_id_for(files) + "|" + cfg + "|" + bench_lineage).encode()
    ).hexdigest()[:16]

    ckpt_dir = vfs.join(out_dir, "checkpoints")
    kept_dir = vfs.join(out_dir, "kept")
    done: frozenset[int] = frozenset()
    if resume:
        done = frozenset(
            pid for pid, m in ckpt.load_manifests(ckpt_dir).items() if m.lineage_id == lineage
        )
    vfs.ensure_dir(kept_dir)

    grams_ref = (
        collect_gram_set(ray.data.read_parquet(bench_path), text_col, 3)
        if bench_path
        else None
    )

    def flags(batch: pd.DataFrame) -> pd.DataFrame:
        return _flag_batch(batch, text_col, grams_ref, min_tokens, max_top_frac, prefix_len)

    drop_cols = ["_q", "_c", "_d", "_prefix"]
    # reducers write to kept_dir/ckpt_dir themselves; when those are object
    # -store URIs the workers need the driver's AWS_* config (endpoint
    # override / credentials), which they won't have if the env was set
    # after the Ray workers started (exactly the moto test harness shape)
    _aws_env = vfs.aws_env()

    def dedup_write_bucket(group: pd.DataFrame, bid: int) -> pd.DataFrame:
        """Finalize ONE dedup bucket: keep decision, survivor file,
        manifest — all bucket-local, so the bucket is the resume unit."""
        import os

        os.environ.update(_aws_env)
        if bid in done:  # completed in a prior attempt; counts live in its manifest
            return pd.DataFrame({"bid": pd.Series([], dtype=np.int64)})
        part = _dedup_flag(group, id_col)
        kept = part[(part["_q"] == 1) & (part["_d"] == 1) & (part["_c"] == 1)].drop(
            columns=drop_cols
        )
        # survivors first (atomic single PUT / temp+rename), manifest second:
        # a kill between the two re-runs the bucket and overwrites the file.
        # Schema comes from the (never-empty) bucket frame — an empty kept
        # frame would otherwise infer null-typed columns and poison the
        # multi-file read of the kept dir.
        schema = pa.Schema.from_pandas(part.drop(columns=drop_cols), preserve_index=False)
        sink = pa.BufferOutputStream()
        pq.write_table(pa.Table.from_pandas(kept, schema=schema, preserve_index=False), sink)
        vfs.write_bytes_atomic(
            vfs.join(kept_dir, f"bucket-{bid:05d}.parquet"), sink.getvalue().to_pybytes()
        )
        counts = {
            "input_docs": int(len(part)),
            "quality_kept": int(part["_q"].sum()),
            "dedup_kept": int((part["_q"] * part["_d"]).sum()),
            "final_kept": int((part["_q"] * part["_d"] * part["_c"]).sum()),
        }
        ckpt.write_manifest(
            ckpt_dir,
            ckpt.PartitionManifest(
                run_id=run_id,
                partition_id=bid,
                lineage_id=lineage,
                files=[],  # buckets span every input file; lineage covers them
                rows_scanned=counts["input_docs"],
                violation_counts=counts,
            ),
        )
        return pd.DataFrame({"bid": [np.int64(bid)]})

    processed = exchange(
        ray.data.read_parquet(data_path).map_batches(flags, batch_format="pandas"),
        hash_partitioner(["_prefix"]),
        dedup_write_bucket,
        n_partitions=n_buckets,
    ).to_pandas()

    # funnel counts fold from the MANIFESTS (commutative int sums): a
    # resumed run reports byte-identical totals, never double-counts
    manifests = {
        pid: m for pid, m in ckpt.load_manifests(ckpt_dir).items() if m.lineage_id == lineage
    }
    summary: dict = {k: int(sum(m.violation_counts.get(k, 0) for m in manifests.values()))
                     for k in _COUNT_KEYS}
    summary.update(
        {
            "decontaminated": bench_path is not None,
            "kept_path": kept_dir,
            "buckets_total": len(manifests),
            "buckets_resumed": len(done),
            "buckets_validated_this_run": int(len(processed)),
        }
    )
    vfs.write_bytes_atomic(
        vfs.join(out_dir, "curation_summary.json"), json.dumps(summary, indent=2).encode()
    )
    return summary
