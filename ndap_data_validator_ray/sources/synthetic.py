"""Deterministic synthesis of the target audio-clip + transcript table.

Implements FIXTURES.md F1: the canonical input (BASELINE.json:15) is a table

    clip_id:string  bytes:binary  sr_hz:int32  dur_ms:int32
    codec:string    transcript:string

with violations injected at seed-determined rows, and a goldens record of
exactly which rows violate which check.  Everything is a pure function of
``(spec, row_index)`` — file shard k can be generated on any worker without
coordination, which is how ``write_clips_dataset`` parallelizes with Ray
tasks when a Ray session exists.

Storage: Lance is the nominal target format (BASELINE.json:6); the ``lance``
package is not available in this sandbox, so shards are written as Parquet
(same columnar, fragment-per-file streaming read model via
``ray.data.read_parquet``).  Swapping the shard writer/reader for Lance
(``lance.write_dataset`` / ``ray.data.read_lance``) is a two-line change
gated on the package being importable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ndap_data_validator_ray.functions import audio_codec as ac

CLIP_SCHEMA = pa.schema(
    [
        pa.field("clip_id", pa.string()),
        pa.field("bytes", pa.binary()),
        pa.field("sr_hz", pa.int32()),
        pa.field("dur_ms", pa.int32()),
        pa.field("codec", pa.string()),
        pa.field("transcript", pa.string()),
    ]
)

ALLOWED_CODECS = list(ac.CODECS)  # pcm_s16le, ulaw, alaw, opus
# skewed: ~80% of clips on one codec (exercises hot-key handling)
_CODEC_WEIGHTS = {"pcm_s16le": 0.80, "ulaw": 0.10, "alaw": 0.06, "opus": 0.04}
_SR_CHOICES = np.array([8000, 16000, 22050, 44100, 48000], dtype=np.int64)
_SR_WEIGHTS = np.array([0.35, 0.35, 0.15, 0.10, 0.05])

_VOCAB = (
    "the a of to and in for on with at from by data audio clip speech sound "
    "model train test value check record table row column signal noise word "
    "time year state region nation metric quality stream batch shard merge"
).split()

# Violation kinds (FIXTURES.md F1, V1..V8)
V_DUP = "V1_duplicate_clip_id"
V_NULL_TRANSCRIPT = "V2_null_transcript"
V_CORRUPT_BYTES = "V3_corrupt_bytes"
V_SR_MISMATCH = "V4_sr_mismatch"
V_DUR_MISMATCH = "V5_dur_mismatch"
V_BAD_CODEC = "V6_codec_domain"
V_BAD_MEASURE = "V7_bad_measures"
V_SILENT = "V8_silent_audio"
V_CLIPPED = "V9_clipped_audio"


@dataclass(frozen=True)
class ClipTableSpec:
    """Deterministic generation recipe. Hash of this = dataset cache key."""

    n_rows: int = 1000
    seed: int = 42
    n_files: int = 8
    dur_ms_lo: int = 200
    dur_ms_hi: int = 2000
    violation_rate: float = 0.01  # per violation kind, fraction of rows
    hot_dup_copies: int = 0  # extra copies of one hot clip_id (skew); 0=off
    drift_tail: bool = False  # last 5% of rows: shifted dur_ms distribution
    inject_violations: bool = True
    # parquet row-group size (rows).  One row group per shard (the pyarrow
    # default) makes shards unsplittable: Ray Data cannot parallelize
    # within a file or split blocks without re-reading the whole shard.
    # ~2048 rows x ~15KB = ~30MB row groups give the reader real split
    # points (Lance fragments have the same sub-file granularity).
    row_group_size: int = 2048
    # Codec for the audio payload column.  Synthetic (and most real) audio
    # bytes are incompressible — zstd got 6.32->6.52 MB per row group (97%)
    # while costing ~1 CPU-s/GiB to decompress on EVERY read; "none" frees
    # that CPU for the decode pool (metadata columns stay zstd, they
    # compress 3-10x).  Field participates in cache_key so cached tables
    # roll over when it changes.
    payload_codec: str = "none"

    def cache_key(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ClipGoldens:
    """Exact expected violation row sets, keyed by check id -> clip_ids."""

    n_rows: int = 0
    violations: dict[str, list[str]] = field(default_factory=dict)
    drift_tail: bool = False


def _plan_violations(spec: ClipTableSpec) -> dict[str, np.ndarray]:
    """Pick disjoint, seed-determined row indices per violation kind."""
    kinds = [V_DUP, V_NULL_TRANSCRIPT, V_CORRUPT_BYTES, V_SR_MISMATCH, V_DUR_MISMATCH, V_BAD_CODEC, V_BAD_MEASURE, V_SILENT, V_CLIPPED]
    if not spec.inject_violations:
        return {k: np.empty(0, dtype=np.int64) for k in kinds}
    rng = np.random.default_rng(spec.seed + 1_000_003)
    per = max(1, int(spec.n_rows * spec.violation_rate))
    need = per * len(kinds)
    # row 0 is never a violation row (dup targets copy an earlier clean row)
    pool = rng.choice(np.arange(1, spec.n_rows, dtype=np.int64), size=min(need, spec.n_rows - 1), replace=False)
    out: dict[str, np.ndarray] = {}
    for i, kind in enumerate(kinds):
        out[kind] = np.sort(pool[i * per : (i + 1) * per])
    return out


def _row_ids(idx: np.ndarray, plan: dict[str, np.ndarray]) -> np.ndarray:
    """The n of ``clip-{n:012d}`` at absolute rows ``idx``: the row index,
    except that a V1 duplicate row carries the id of a deterministic
    earlier row (Knuth hash).  The generator and the goldens both read ids
    from here, so a chain (a duplicate whose source is itself a duplicate
    row) cannot make them disagree."""
    ids = np.asarray(idx, dtype=np.int64).copy()
    dup = np.isin(ids, plan[V_DUP])
    src = ids[dup].astype(np.uint64)
    ids[dup] = (src * np.uint64(2654435761) % np.uint64(4294967296) % src).astype(np.int64)
    return ids


def _row_params(spec: ClipTableSpec, idx: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized clean-row parameters for absolute row indices ``idx``."""
    # one RNG per row keeps params independent of shard boundaries
    sr = np.empty(len(idx), dtype=np.int64)
    dur = np.empty(len(idx), dtype=np.int64)
    codec_pick = np.empty(len(idx), dtype=np.float64)
    nwords = np.empty(len(idx), dtype=np.int64)
    rngs = [np.random.default_rng(np.uint64(spec.seed) * np.uint64(2654435761) + np.uint64(i)) for i in idx]
    for j, rng in enumerate(rngs):
        sr[j] = _SR_CHOICES[rng.choice(len(_SR_CHOICES), p=_SR_WEIGHTS)]
        # log-uniform-ish duration in [lo, hi]
        dur[j] = int(np.exp(rng.uniform(np.log(spec.dur_ms_lo), np.log(spec.dur_ms_hi))))
        codec_pick[j] = rng.uniform()
        nwords[j] = max(2, dur[j] // 150)
    codecs = np.empty(len(idx), dtype=object)
    cum, names = 0.0, []
    bounds = []
    for name, w in _CODEC_WEIGHTS.items():
        cum += w
        names.append(name)
        bounds.append(cum)
    for j, p in enumerate(codec_pick):
        for name, b in zip(names, bounds):
            if p <= b:
                codecs[j] = name
                break
        else:
            codecs[j] = names[-1]
    return {"sr_hz": sr, "dur_ms": dur, "codec": codecs, "n_words": nwords}


def _transcript(spec: ClipTableSpec, row_idx: int, n_words: int) -> str:
    rng = np.random.default_rng(np.uint64(spec.seed) * np.uint64(40503) + np.uint64(row_idx))
    return " ".join(_VOCAB[k] for k in rng.integers(0, len(_VOCAB), n_words))


def shard_row_range(spec: ClipTableSpec, shard: int) -> tuple[int, int]:
    base, rem = divmod(spec.n_rows, spec.n_files)
    lo = shard * base + min(shard, rem)
    return lo, lo + base + (1 if shard < rem else 0)


def generate_shard(spec: ClipTableSpec, shard: int) -> pa.Table:
    """Generate file shard ``shard`` (pure function: any worker, any order)."""
    lo, hi = shard_row_range(spec, shard)
    idx = np.arange(lo, hi, dtype=np.int64)
    plan = _plan_violations(spec)
    in_kind = {k: np.isin(idx, v) for k, v in plan.items()}
    params = _row_params(spec, idx)
    ids = _row_ids(idx, plan)

    drift_start = int(spec.n_rows * 0.95) if spec.drift_tail else spec.n_rows

    clip_ids: list[str] = []
    blobs: list[bytes | None] = []
    srs: list[int | None] = []
    durs: list[int | None] = []
    codecs: list[str] = []
    transcripts: list[str | None] = []

    for j, i in enumerate(idx):
        i = int(i)
        sr = int(params["sr_hz"][j])
        dur = int(params["dur_ms"][j])
        codec = str(params["codec"][j])
        if i >= drift_start:
            dur = min(spec.dur_ms_hi * 4, dur * 3 + 500)  # V8 shifted duration distribution

        gen_index = int(ids[j])
        cid = f"clip-{gen_index:012d}"
        if in_kind[V_DUP][j]:
            # true duplicate of an earlier row: same id, bytes, metadata
            src_params = _row_params(spec, np.array([gen_index]))
            sr = int(src_params["sr_hz"][0])
            dur = int(src_params["dur_ms"][0])
            codec = str(src_params["codec"][0])

        n_samples = int(round(sr * dur / 1000.0))
        pcm = ac.synth_pcm(gen_index, sr, n_samples, seed=spec.seed)

        declared_sr, declared_dur, declared_codec = sr, dur, codec
        enc_codec = codec

        if in_kind[V_BAD_CODEC][j]:
            declared_codec = "speex"  # outside allowed domain; bytes stay decodable
        if in_kind[V_SR_MISMATCH][j]:
            declared_sr = sr * 2 if sr <= 24000 else sr // 2
        if in_kind[V_DUR_MISMATCH][j]:
            declared_dur = dur + 250  # beyond the +-10 ms tolerance
        if in_kind[V_BAD_MEASURE][j]:
            if i % 2 == 0:
                declared_dur = -dur
            else:
                declared_sr = None  # null sr_hz
        if in_kind[V_SILENT][j]:
            pcm = pcm * 1e-5  # near-digital-silence (trips rms_db < -50)
        if in_kind[V_CLIPPED][j]:
            pcm = np.clip(pcm * 4.0, -0.999, 0.999)  # hard clipping
        blob = ac.encode(pcm, sr, enc_codec)
        if in_kind[V_CORRUPT_BYTES][j]:
            blob = blob[: max(10, len(blob) // 3)] if i % 2 == 0 else b"JUNK" + blob[4:]

        transcript: str | None = _transcript(spec, gen_index, int(params["n_words"][j]))
        if in_kind[V_NULL_TRANSCRIPT][j]:
            transcript = None if i % 2 == 0 else ""

        clip_ids.append(cid)
        blobs.append(blob)
        srs.append(declared_sr)
        durs.append(declared_dur)
        codecs.append(declared_codec)
        transcripts.append(transcript)

    # hot-key skew: replicate one hot clip id many times in the last shard
    if spec.hot_dup_copies and shard == spec.n_files - 1:
        hot = 0
        hot_params = _row_params(spec, np.array([hot]))
        sr = int(hot_params["sr_hz"][0])
        dur = int(hot_params["dur_ms"][0])
        codec = str(hot_params["codec"][0])
        pcm = ac.synth_pcm(hot, sr, int(round(sr * dur / 1000.0)), seed=spec.seed)
        blob = ac.encode(pcm, sr, codec)
        tx = _transcript(spec, hot, int(hot_params["n_words"][0]))
        for _ in range(spec.hot_dup_copies):
            clip_ids.append(f"clip-{hot:012d}")
            blobs.append(blob)
            srs.append(sr)
            durs.append(dur)
            codecs.append(codec)
            transcripts.append(tx)

    return pa.table(
        {
            "clip_id": pa.array(clip_ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "sr_hz": pa.array(srs, pa.int32()),
            "dur_ms": pa.array(durs, pa.int32()),
            "codec": pa.array(codecs, pa.string()),
            "transcript": pa.array(transcripts, pa.string()),
        },
        schema=CLIP_SCHEMA,
    )


def compute_goldens(spec: ClipTableSpec) -> ClipGoldens:
    """Expected violation row sets (clip_ids), from the plan and the
    generator's own id function: V1 lists every id that occurs more than
    once among all rows (the hot copies of row 0 included)."""
    plan = _plan_violations(spec)
    g = ClipGoldens(n_rows=spec.n_rows + (spec.hot_dup_copies or 0), drift_tail=spec.drift_tail)
    ids = _row_ids(np.arange(spec.n_rows, dtype=np.int64), plan)
    hot = np.zeros(spec.hot_dup_copies, dtype=np.int64)  # the hot copies carry row 0's id
    vals, counts = np.unique(np.concatenate([ids, hot]), return_counts=True)
    g.violations[V_DUP] = [f"clip-{int(n):012d}" for n in vals[counts > 1]]
    for kind in (V_NULL_TRANSCRIPT, V_CORRUPT_BYTES, V_SR_MISMATCH, V_DUR_MISMATCH, V_BAD_CODEC, V_BAD_MEASURE, V_SILENT, V_CLIPPED):
        g.violations[kind] = sorted(f"clip-{int(n):012d}" for n in ids[plan[kind]])
    return g


def write_clips_dataset(out_dir: str, spec: ClipTableSpec, overwrite: bool = False) -> ClipGoldens:
    """Write shards + goldens.json; parallel via Ray tasks when available.

    Idempotent: if the directory already holds a matching spec.json the
    write is skipped (cheap cache for bench reruns).
    """
    spec_path = os.path.join(out_dir, "spec.json")
    goldens_path = os.path.join(out_dir, "goldens.json")
    if not overwrite and os.path.exists(spec_path):
        with open(spec_path) as f:
            if json.load(f) == asdict(spec):
                with open(goldens_path) as f:
                    raw = json.load(f)
                return ClipGoldens(n_rows=raw["n_rows"], violations=raw["violations"], drift_tail=raw["drift_tail"])
    os.makedirs(out_dir, exist_ok=True)

    def _write_one(shard: int) -> None:
        tbl = generate_shard(spec, shard)
        tmp = os.path.join(out_dir, f".part-{shard:05d}.parquet.tmp")
        comp = {name: "zstd" for name in tbl.schema.names}
        comp["bytes"] = spec.payload_codec
        pq.write_table(tbl, tmp, compression=comp, row_group_size=spec.row_group_size)
        os.replace(tmp, os.path.join(out_dir, f"part-{shard:05d}.parquet"))

    import ray

    if ray.is_initialized():
        fn = ray.remote(num_cpus=1)(lambda s: _write_one(s))
        ray.get([fn.remote(s) for s in range(spec.n_files)])
    else:
        for s in range(spec.n_files):
            _write_one(s)

    goldens = compute_goldens(spec)
    with open(goldens_path + ".tmp", "w") as f:
        json.dump({"n_rows": goldens.n_rows, "violations": goldens.violations, "drift_tail": goldens.drift_tail}, f, indent=1)
    os.replace(goldens_path + ".tmp", goldens_path)
    with open(spec_path + ".tmp", "w") as f:
        json.dump(asdict(spec), f, indent=1)
    os.replace(spec_path + ".tmp", spec_path)
    return goldens


def clip_files(data_dir: str) -> list[str]:
    """Sorted shard paths (stable order -> stable partition/lineage ids).
    ``data_dir`` may be a local path or a URI (``s3://bucket/prefix``) —
    the reference's remote-folder lister semantics (``s3_uploader.py:42-61``:
    list, suffix-filter, sort)."""
    from ndap_data_validator_ray.sources import fs as vfs

    return sorted(
        p for p in vfs.list_files(data_dir)
        if vfs.basename(p).endswith(".parquet") and vfs.basename(p).startswith("part-")
    )
