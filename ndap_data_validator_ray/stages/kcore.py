"""Distributed k-core decomposition (membership) by synchronized peeling.

The k-core of an undirected simple graph is its maximal subgraph in which
every node has degree >= k — the classic density/community filter next to
the repo's other graph stages (components in ``stages/cc.py``, PageRank in
``stages/pagerank.py``, triangles in ``stages/triangles.py``).  The
reference (single-file pandas validator) has no graph operators; this is
one of the beyond-reference large-scale primitives, built like the rest of
the engine: every wide step is a bucketed exchange and nothing graph-sized
ever lands on the driver.

Algorithm — parallel (synchronized) peeling, the textbook
Matula–Beck / "peel all minimum-degree nodes at once" scheme:

1. canonicalize + dedup edges (u < v, self-loops dropped) — one bucketed
   exchange keyed by the pair (shared with ``stages/triangles.py``);
2. per round: degrees over the SURVIVING edges (``count_by_key`` — one
   exchange), attach both endpoint degrees to each edge
   (``stages/broadcast.attach_or_join``: the degree map is O(nodes) rows —
   broadcast once under the cap, bucketed hash join above it), drop every
   edge with an endpoint of degree < k;
3. stop when no node is below k (checked with a tiny per-block fold over
   the degree Dataset — one scalar to the driver per round).

Synchronized peeling removes ALL currently-low nodes per round, so the
round count equals the graph's peeling DEPTH for this k — typically small
(3–10 on the co-purchase fixtures at every SF), but data-dependent and
worst-case O(nodes) on path-like graphs, so ``max_rounds`` is a hard cap
and overrun RAISES (never a silent wrong answer; the cross-engine SQL
oracle unrolls the same fixed round budget, idempotent once converged).

``k`` may be given explicitly or derived from the initial degree
distribution as an exact order statistic: ``k = the rn-th smallest
initial degree`` with ``rn = (n_nodes + 19) // 20`` (the 5th percentile,
pure-integer rank so both engines agree bit-for-bit — never a float
quantile).  The order statistic is computed from a degree COUNT-OF-COUNTS
histogram (bounded by max degree, tiny on the driver), not by sorting the
O(nodes) degree fold.

Iterative-loop hygiene (the round-4 invariant): the edge Dataset is
re-materialized every round and the round count is bounded, so block
counts stay O(reduce tasks) and lineage never grows geometrically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ndap_data_validator_ray.stages.broadcast import attach_or_join
from ndap_data_validator_ray.stages.groupby import count_by_key
from ndap_data_validator_ray.stages.triangles import _canonical_distinct_edges

_EMPTY = pd.DataFrame(
    {
        "node": pd.Series([], dtype=np.int64),
        "core_deg": pd.Series([], dtype=np.int64),
    }
)


def _degree_histogram(deg: "ray.data.Dataset") -> pd.DataFrame:
    """(node, deg) Dataset -> driver (deg, n_nodes) count-of-counts fold.
    Per-block partials are bounded by the block's distinct degree VALUES
    (<= max degree), so the driver fold is histogram-sized, never
    node-sized."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("deg").size()
        return pd.DataFrame({"deg": g.index.to_numpy(np.int64), "n": g.to_numpy(np.int64)})

    out = deg.map_batches(partial, batch_format="pandas").to_pandas()
    return out.groupby("deg", as_index=False)["n"].sum().sort_values("deg")


def k_from_degree_quantile(hist: pd.DataFrame, rank_of) -> int:
    """Exact order statistic of the degree distribution from its
    count-of-counts histogram: ``rank_of(n_nodes)`` must return the
    1-based ascending rank (an INTEGER rule, e.g. ``(n + 19) // 20`` for
    the 5th percentile) so the SQL twin can reproduce it verbatim."""
    n = int(hist["n"].sum())
    rn = int(rank_of(n))
    cum = hist["n"].cumsum().to_numpy()
    idx = int(np.searchsorted(cum, rn, side="left"))
    return int(hist["deg"].to_numpy()[idx])


def k_core(
    edges: "ray.data.Dataset",
    src_col: str = "id_a",
    dst_col: str = "id_b",
    k: int | None = None,
    rank_of=lambda n: (n + 19) // 20,
    max_rounds: int = 24,
    stats: dict | None = None,
) -> tuple[pd.DataFrame, int, int]:
    """k-core membership of the undirected simple graph given by
    ``edges`` (module docstring).  Returns ``(core_df, k, rounds)`` where
    ``core_df`` has (node, core_deg) for every surviving node — its degree
    WITHIN the k-core — and ``rounds`` is the peeling depth taken.

    ``k=None`` derives k from the initial degree distribution via
    ``rank_of`` (default: exact 5th-percentile order statistic).  Raises
    ``RuntimeError`` if convergence takes more than ``max_rounds`` rounds
    (the SQL oracle unrolls the same budget)."""
    e = _canonical_distinct_edges(edges, src_col, dst_col).materialize()
    if e.count() == 0:
        if stats is not None:
            stats.update({"k": 0, "rounds": 0, "core_edges": 0})
        return _EMPTY.copy(), 0, 0

    def ends(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": np.concatenate([b["u"].to_numpy(np.int64), b["v"].to_numpy(np.int64)])}
        )

    deg = count_by_key(
        e.map_batches(ends, batch_format="pandas"), ["node"], count_col="deg"
    ).materialize()
    if k is None:
        k = k_from_degree_quantile(_degree_histogram(deg), rank_of)
    k = int(k)

    rounds = 0
    while True:
        # one scalar to the driver: number of currently-low nodes
        low = (
            deg.map_batches(
                lambda b, kk=k: pd.DataFrame(
                    {"low": [int((b["deg"].to_numpy(np.int64) < kk).sum())]}
                ),
                batch_format="pandas",
            ).sum("low")
            or 0
        )
        if low == 0:
            break
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"k_core(k={k}) did not converge within max_rounds={max_rounds}; "
                "raise max_rounds (and the oracle's unroll budget) for this graph"
            )
        with_du = attach_or_join(
            e,
            deg.map_batches(
                lambda b: b.rename(columns={"node": "u", "deg": "du"}), batch_format="pandas"
            ),
            on_fact="u",
            on_side="u",
            attach_cols=["du"],
        )
        with_deg = attach_or_join(
            with_du,
            deg.map_batches(
                lambda b: b.rename(columns={"node": "v", "deg": "dv"}), batch_format="pandas"
            ),
            on_fact="v",
            on_side="v",
            attach_cols=["dv"],
        )

        def keep(b: pd.DataFrame, kk=k) -> pd.DataFrame:
            m = (b["du"].to_numpy(np.int64) >= kk) & (b["dv"].to_numpy(np.int64) >= kk)
            return b.loc[m, ["u", "v"]]

        e = with_deg.map_batches(keep, batch_format="pandas").materialize()
        if e.count() == 0:
            if stats is not None:
                stats.update({"k": k, "rounds": rounds, "core_edges": 0})
            return _EMPTY.copy(), k, rounds
        deg = count_by_key(
            e.map_batches(ends, batch_format="pandas"), ["node"], count_col="deg"
        ).materialize()

    out = deg.to_pandas()
    out["node"] = out["node"].astype(np.int64)
    out["core_deg"] = out["deg"].astype(np.int64)
    out = out[["node", "core_deg"]].sort_values("node").reset_index(drop=True)
    if stats is not None:
        stats.update({"k": k, "rounds": rounds, "core_edges": int(e.count())})
    return out, k, rounds
