"""Mergeable sketches: HyperLogLog, t-digest, fixed histograms.

Required by BASELINE.json:6: cardinality sketches (HLL) for ``clip_id`` /
``codec``, t-digest quantiles for ``dur_ms`` / ``sr_hz``, and KS/PSI drift
statistics computed from merged digests against a baseline snapshot.

All sketches satisfy the checkpoint algebra (SURVEY.md §4.1):
``merge`` is commutative and associative, and merging a sketch with an
empty sketch is identity — so per-partition checkpoint digests can be
re-merged in any order on resume without double-counting the *merge* step.
(Idempotence of re-adding the same partition is handled one level up by
latest-attempt-wins manifests, not by the sketches.)

Pure numpy; deterministic hashing via ``pandas.util.hash_array`` (stable
64-bit hash, fixed key — stable across processes and platforms, unlike
Python's seeded ``hash``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np
import pandas as pd


def stable_hash64(values: np.ndarray | pd.DataFrame) -> np.ndarray:
    """Deterministic 64-bit hashes of an array (strings/bytes/numbers), or
    of each row of a DataFrame (its columns' hashes combined) — the
    package's one key hash (sketches, exchange buckets, key runs)."""
    if isinstance(values, pd.DataFrame):
        return pd.util.hash_pandas_object(values, index=False).to_numpy()
    if values.dtype == object or values.dtype.kind in "USV":
        return pd.util.hash_array(values.astype(object), categorize=False)
    return pd.util.hash_array(np.ascontiguousarray(values), categorize=False)


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------

@dataclass
class HyperLogLog:
    """Fixed 2^p registers; update/merge vectorized. p=12 -> ~1.6% error."""

    p: int = 12
    registers: np.ndarray = field(default_factory=lambda: np.zeros(1 << 12, dtype=np.uint8))

    def update_hashes(self, h: np.ndarray) -> None:
        if len(h) == 0:
            return
        h = h.astype(np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = h & np.uint64((1 << (64 - self.p)) - 1)
        bits = 64 - self.p
        # rank = leading-zero count of the low (64-p) bits + 1
        rank = np.where(w == 0, bits + 1, bits - np.floor(np.log2(np.maximum(w, 1).astype(np.float64))).astype(np.int64))
        np.maximum.at(self.registers, idx, rank.astype(np.uint8))

    def update(self, values: np.ndarray) -> None:
        self.update_hashes(stable_hash64(values))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        return HyperLogLog(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        m = float(len(self.registers))
        alpha = 0.7213 / (1.0 + 1.079 / m)
        inv = np.power(2.0, -self.registers.astype(np.float64))
        raw = alpha * m * m / inv.sum()
        zeros = int((self.registers == 0).sum())
        if raw <= 2.5 * m and zeros > 0:
            return m * np.log(m / zeros)  # linear counting, small range
        return raw


# ---------------------------------------------------------------------------
# t-digest (Dunning's merging digest, simplified)
# ---------------------------------------------------------------------------

@dataclass
class TDigest:
    """Mergeable quantile digest: centroids (mean, weight), k-scale bound."""

    compression: float = 200.0
    means: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    min_val: float = float("inf")
    max_val: float = float("-inf")

    def update(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return
        self.min_val = min(self.min_val, float(v.min()))
        self.max_val = max(self.max_val, float(v.max()))
        # batch path: pre-cluster sorted values into ~4*compression
        # equal-weight chunks (vectorized reduceat) so _compress only ever
        # sees O(compression) centroids regardless of batch size
        v.sort()
        n_chunks = min(len(v), int(4 * self.compression))
        edges = np.linspace(0, len(v), n_chunks + 1).astype(np.int64)[:-1]
        edges = np.unique(edges)
        sums = np.add.reduceat(v, edges)
        counts = np.diff(np.append(edges, len(v))).astype(np.float64)
        self.means = np.concatenate([self.means, sums / counts])
        self.weights = np.concatenate([self.weights, counts])
        self._compress()

    def merge(self, other: "TDigest") -> "TDigest":
        out = TDigest(self.compression)
        out.means = np.concatenate([self.means, other.means])
        out.weights = np.concatenate([self.weights, other.weights])
        out.min_val = min(self.min_val, other.min_val)
        out.max_val = max(self.max_val, other.max_val)
        out._compress()
        return out

    def _compress(self) -> None:
        if len(self.means) == 0:
            return
        order = np.argsort(self.means, kind="stable")
        means, weights = self.means[order], self.weights[order]
        total = weights.sum()
        out_m: list[float] = []
        out_w: list[float] = []
        cur_m, cur_w = float(means[0]), float(weights[0])
        q0 = 0.0
        for m, w in zip(means[1:], weights[1:]):
            q_limit = self._k_inv(self._k(q0) + 1.0)
            if (q0 + (cur_w + w) / total) <= q_limit and len(means) > self.compression:
                cur_m = (cur_m * cur_w + float(m) * float(w)) / (cur_w + float(w))
                cur_w += float(w)
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                q0 += cur_w / total
                cur_m, cur_w = float(m), float(w)
        out_m.append(cur_m)
        out_w.append(cur_w)
        self.means = np.array(out_m)
        self.weights = np.array(out_w)

    def _k(self, q: float) -> float:
        return self.compression / (2 * np.pi) * np.arcsin(2 * q - 1)

    def _k_inv(self, k: float) -> float:
        return (np.sin(k * 2 * np.pi / self.compression) + 1) / 2

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def quantile(self, q: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        cum = np.cumsum(self.weights) - self.weights / 2.0
        target = q * self.weights.sum()
        lo = np.searchsorted(cum, target)
        if lo == 0:
            return self.min_val if q <= 0 else float(
                np.interp(target, [0, cum[0]], [self.min_val, self.means[0]])
            )
        if lo >= len(cum):
            return self.max_val if q >= 1 else float(
                np.interp(target, [cum[-1], self.weights.sum()], [self.means[-1], self.max_val])
            )
        return float(np.interp(target, [cum[lo - 1], cum[lo]], [self.means[lo - 1], self.means[lo]]))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        if len(self.means) == 0:
            return np.full(np.shape(x), np.nan)
        cum = np.cumsum(self.weights) - self.weights / 2.0
        total = self.weights.sum()
        return np.interp(np.asarray(x, dtype=np.float64), self.means, cum / total, left=0.0, right=1.0)


# ---------------------------------------------------------------------------
# Count-Min sketch (heavy-hitter candidate filter)
# ---------------------------------------------------------------------------

@dataclass
class CountMin:
    """Mergeable Count-Min frequency sketch over 64-bit key hashes.

    ``estimate`` never under-counts (row-wise min of over-counting
    cells), so filtering keys by ``estimate >= T`` yields a SUPERSET of
    the true heavy hitters — the exact second pass then only shuffles
    candidate keys instead of the full distinct-key space.  depth x width
    int64 counts; update/estimate vectorized; ``merge`` is cell-wise sum
    (commutative/associative, empty identity — checkpoint algebra safe).
    """

    width: int = 8192
    depth: int = 4
    seed: int = 11
    counts: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = np.zeros((self.depth, self.width), dtype=np.int64)

    def _cols(self, h: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        a = (rng.integers(0, 1 << 62, self.depth, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        b = rng.integers(0, 1 << 63, self.depth, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = h[None, :] * a[:, None] + b[:, None]  # (depth, n) uint64 wraparound
        return (mixed >> np.uint64(17)).astype(np.int64) % self.width

    def add_hashes(self, h: np.ndarray, weights: np.ndarray | None = None) -> None:
        if len(h) == 0:
            return
        w = np.ones(len(h), dtype=np.int64) if weights is None else weights.astype(np.int64)
        cols = self._cols(h.astype(np.uint64))
        for r in range(self.depth):
            np.add.at(self.counts[r], cols[r], w)

    def estimate(self, h: np.ndarray) -> np.ndarray:
        if len(h) == 0:
            return np.zeros(0, dtype=np.int64)
        cols = self._cols(h.astype(np.uint64))
        return np.min(self.counts[np.arange(self.depth)[:, None], cols], axis=0)

    def merge(self, other: "CountMin") -> "CountMin":
        assert (self.width, self.depth, self.seed) == (other.width, other.depth, other.seed)
        return CountMin(self.width, self.depth, self.seed, self.counts + other.counts)


# ---------------------------------------------------------------------------
# Drift statistics (driver-side, on merged digests)
# ---------------------------------------------------------------------------

def ks_statistic(current: TDigest, baseline: TDigest) -> float:
    """Approximate two-sample KS from the two digests' CDFs, evaluated at
    the union of centroid locations."""
    if len(current.means) == 0 or len(baseline.means) == 0:
        return float("nan")
    xs = np.unique(np.concatenate([current.means, baseline.means]))
    return float(np.max(np.abs(current.cdf(xs) - baseline.cdf(xs))))


def psi_statistic(current: TDigest, baseline: TDigest, n_buckets: int = 10) -> float:
    """Population Stability Index over baseline-quantile buckets."""
    if len(current.means) == 0 or len(baseline.means) == 0:
        return float("nan")
    edges = np.array([baseline.quantile(q) for q in np.linspace(0, 1, n_buckets + 1)])
    edges[0], edges[-1] = -np.inf, np.inf
    edges = np.unique(edges)
    b_cdf = np.concatenate([[0.0], baseline.cdf(edges[1:-1]), [1.0]]) if len(edges) > 2 else np.array([0.0, 1.0])
    c_cdf = np.concatenate([[0.0], current.cdf(edges[1:-1]), [1.0]]) if len(edges) > 2 else np.array([0.0, 1.0])
    b_p = np.clip(np.diff(b_cdf), 1e-6, None)
    c_p = np.clip(np.diff(c_cdf), 1e-6, None)
    b_p, c_p = b_p / b_p.sum(), c_p / c_p.sum()
    return float(np.sum((c_p - b_p) * np.log(c_p / b_p)))


def serialize(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize(blob: bytes):
    return pickle.loads(blob)
