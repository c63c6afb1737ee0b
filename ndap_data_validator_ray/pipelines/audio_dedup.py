"""Exact audio-content deduplication over a clips table (ray-data x audio).

Content identity = md5 over (sample_rate, decoded PCM float64 bytes) — the
DECODED signal, not the container: byte-identical blobs always agree, while
re-encodes under a lossy codec (ulaw/alaw/fake-opus) intentionally do NOT
collapse — they are different signals after decode.  The reference has no
audio dedup at all (single-file pandas validator); this is a
beyond-reference training-data op composing the repo's audio decode with
the exact-dedup exchange posture of ``stages/dedup.py``.

Distributed shape:

- decode + fingerprint: task-mode ``map_batches`` over Arrow blocks; only
  slim (clip_id, fp) rows leave the task — the decoded PCM dies inside it
  and the blob column never re-ships through the object store.
- duplicate groups: ONE bucketed exchange keyed by the fingerprint with
  per-batch (fp, clip_id)-level pre-aggregation — a hot content duplicated
  H times arrives at its reducer as <= #batches partial rows (the
  stages/dedup.py salted-combiner posture), so the synth's hot-dup skew
  cannot create a last-reducer straggler.
- undecodable / null-bytes rows are COUNTED into the ``stats`` out-dict
  (the repo's never-silent convention), not dropped silently.

Fingerprints use the full 128-bit md5 hex — grouping is collision-free in
practice without carrying the PCM itself through the exchange (the
full-content re-split of ``stages/dedup.exact_dedup`` is impossible here:
the content IS the decoded signal).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ndap_data_validator_ray.functions import audio_codec as ac


def _fingerprint_batch(batch: pa.Table) -> pd.DataFrame:
    ids = batch["clip_id"].to_pylist()
    blobs = batch["bytes"].to_pylist()
    out_id, out_fp, out_ok = [], [], []
    for cid, blob in zip(ids, blobs):
        fp = None
        if blob is not None:
            try:
                _codec, sr, pcm = ac.decode(bytes(blob))
                fp = hashlib.md5(np.int64(sr).tobytes() + pcm.tobytes()).hexdigest()
            except ac.AudioDecodeError:
                fp = None
        out_id.append(cid)
        out_fp.append(fp)
        out_ok.append(fp is not None)
    return pd.DataFrame({"clip_id": out_id, "fp": out_fp, "ok": out_ok})


def audio_fingerprints(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """(clip_id, fp, ok) rows: fp = md5 hex of (sr, decoded PCM), null on
    decode failure / null bytes.  Slim output — the blob never re-ships."""
    return ds.map_batches(_fingerprint_batch, batch_format="pyarrow")


def audio_dup_groups(
    data_dir: str,
    stats: dict | None = None,
) -> pd.DataFrame:
    """Exact audio-content duplicate groups of the clips table at
    ``data_dir``: one row per decoded-PCM content appearing more than once
    — (fp, rep_clip_id = min id, n_copies = total rows, n_clip_ids =
    distinct ids sharing the content).  Sorted by rep_clip_id.

    ``stats`` (out-dict) receives ``n_rows``, ``n_undecodable`` and
    ``n_dup_rows`` (rows beyond the first of each group — what a dedup
    pass would remove)."""
    from ndap_data_validator_ray.sources.synthetic import clip_files
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    files = clip_files(data_dir)
    ds = ray.data.read_parquet(files, columns=["clip_id", "bytes"])
    fps = audio_fingerprints(ds).materialize()

    bad = fps.map_batches(
        lambda b: pd.DataFrame({"n": [int((~b["ok"]).sum())], "t": [len(b)]}),
        batch_format="pandas",
    ).to_pandas()
    n_rows, n_undecodable = int(bad["t"].sum()), int(bad["n"].sum())

    good = fps.map_batches(lambda b: b[b["ok"]][["clip_id", "fp"]], batch_format="pandas")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # one row per (fp, clip_id) per batch: hot contents pre-combine here
        g = batch.groupby(["fp", "clip_id"], as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        per_id = group.groupby(["fp", "clip_id"], as_index=False)["cnt"].sum()
        agg = per_id.groupby("fp").agg(
            rep_clip_id=("clip_id", "min"),
            n_copies=("cnt", "sum"),
            n_clip_ids=("clip_id", "nunique"),
        )
        agg = agg[agg["n_copies"] > 1].reset_index()
        return agg[["fp", "rep_clip_id", "n_copies", "n_clip_ids"]]

    groups = bucketed_groupby(good, ["fp"], partial, merge).to_pandas()
    if groups.empty:
        groups = pd.DataFrame(
            {
                "fp": pd.Series([], dtype=object),
                "rep_clip_id": pd.Series([], dtype=object),
                "n_copies": pd.Series([], dtype=np.int64),
                "n_clip_ids": pd.Series([], dtype=np.int64),
            }
        )
    groups["n_copies"] = groups["n_copies"].astype(np.int64)
    groups["n_clip_ids"] = groups["n_clip_ids"].astype(np.int64)
    groups = groups.sort_values("rep_clip_id").reset_index(drop=True)
    if stats is not None:
        stats["n_rows"] = n_rows
        stats["n_undecodable"] = n_undecodable
        stats["n_dup_rows"] = int((groups["n_copies"] - 1).sum())
    return groups


def _spectral_fingerprint(
    pcm: np.ndarray, sr_hz: int, n_bands: int = 64, fmax: float = 4000.0
) -> np.ndarray:
    """Codec-robust content signature: band-pooled magnitude spectrum of
    the whole clip (band edges in Hz, so the declared sample rate — not
    the sample count — fixes the geometry).  Lossy companding (ulaw/alaw/
    fake-opus) perturbs each band by its quantization-noise floor only, so
    re-encodes of the same signal keep cosine ~0.999+ while distinct
    two-tone synth clips concentrate energy in different bands.  A clip
    with no measurable energy (injected silence) maps to the constant
    vector — silences group with silences, never with content."""
    if len(pcm) == 0:
        return np.ones(n_bands, dtype=np.float64)
    spec = np.abs(np.fft.rfft(pcm))
    freqs = np.fft.rfftfreq(len(pcm), 1.0 / float(sr_hz))
    hi = min(fmax, sr_hz / 2.0)
    edges = np.linspace(0.0, hi, n_bands + 1)
    idx = np.searchsorted(edges, freqs, side="right") - 1
    valid = (idx >= 0) & (idx < n_bands)
    e = np.zeros(n_bands, dtype=np.float64)
    np.add.at(e, idx[valid], spec[valid] ** 2)
    v = np.sqrt(e)
    if not np.any(v > 1e-9):
        return np.ones(n_bands, dtype=np.float64)
    return v


def audio_near_dup_groups(
    data_dir: str,
    threshold: float = 0.995,
    n_bands: int = 64,
    stats: dict | None = None,
) -> pd.DataFrame:
    """Audio near-duplicate clusters: the SAME signal re-encoded under a
    different (lossy) codec collapses here even though the exact
    decoded-PCM dedup above correctly keeps it apart.  Shape: decode +
    spectral fingerprint per clip (task map_batches; the blob and PCM die
    in the task, only a ``n_bands``-float vector ships), then the
    embedding near-dup LSH machinery verbatim
    (``stages/similarity.embedding_near_duplicates``: hyperplane-signature
    buckets, in-bucket vectorized cosine verify, over-cap sub-bucketing
    surfaced via ``stats``), then driver union-find over the O(matches)
    pair list.  Returns (clip_id, cluster_id = min member) for every
    member of a cluster with >= 2 clips, sorted."""
    from ndap_data_validator_ray.sources.synthetic import clip_files
    from ndap_data_validator_ray.stages.dedup_near import connected_components
    from ndap_data_validator_ray.stages.similarity import embedding_near_duplicates

    files = clip_files(data_dir)
    ds = ray.data.read_parquet(files, columns=["clip_id", "bytes", "sr_hz"])

    def featurize(batch: pa.Table) -> pd.DataFrame:
        ids = batch["clip_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        out_id, out_env = [], []
        for cid, blob in zip(ids, blobs):
            if blob is None:
                continue
            try:
                _codec, sr, pcm = ac.decode(bytes(blob))
            except ac.AudioDecodeError:
                continue
            out_id.append(cid)
            out_env.append(_spectral_fingerprint(pcm, sr, n_bands=n_bands))
        if not out_id:
            return pd.DataFrame(
                {"clip_id": pd.Series([], dtype=object), "env": pd.Series([], dtype=object)}
            )
        return pd.DataFrame({"clip_id": out_id, "env": out_env})

    feats = ds.map_batches(featurize, batch_format="pyarrow").materialize()
    if stats is not None:
        # undecodable = input rows minus featurized rows (block-layout safe)
        stats["n_undecodable"] = int(ds.count()) - int(feats.count())

    pairs = embedding_near_duplicates(
        feats,
        id_col="clip_id",
        vec_col="env",
        threshold=threshold,
        concurrency=2,
        stats=stats,
    )
    if pairs.empty:
        return pd.DataFrame(
            {"clip_id": pd.Series([], dtype=object), "cluster_id": pd.Series([], dtype=object)}
        )
    comp = connected_components(pairs)
    comp = comp.rename(columns={"doc_id": "clip_id"})
    return comp.sort_values(["cluster_id", "clip_id"]).reset_index(drop=True)
