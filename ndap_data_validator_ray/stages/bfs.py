"""Distributed multi-source BFS hop distances over an edge Dataset.

The graph-proximity primitive next to components (stages/cc.py), PageRank
and k-core: given an undirected edge list and a set of source nodes,
label every node with its hop distance to the NEAREST source — the
building block behind label propagation from seed sets (spam/quality
seeds on a web graph, trusted-domain distance for crawl curation) and
bounded-radius neighborhood queries.

Algorithm: synchronized Bellman-Ford relaxation with unit weights for a
FIXED number of rounds (``rounds`` = the radius of interest).  Fixed
rounds make the result deterministic and SQL-twinnable (an unrolled
min-join CTE per round, the kcore-oracle pattern); nodes not reached
within the budget come back as -1 ("farther than ``rounds`` hops"),
which is the semantics a curation filter actually wants (keep documents
within k hops of a seed) rather than exact eccentricity.

Per round, ONE ``stages/groupby.exchange`` (the cc.py fused-gather
shape): edge rows (k=u, val=v) and distance rows (k=node, val=dist) ride
the same exchange bucketed on k; each reducer builds the bucket-local
dist lut and emits a proposal ``(v, dist(u) + 1)`` for every edge whose
tail is currently reached.  Proposals union the standing distances into a
min-per-node ``bucketed_groupby``.  Its output is already executed and
has one block per reduce task, so the block count stays pinned between
rounds (the round-4 lesson: unioned mapped views double the block count
per round and wall time grows geometrically without the pin).

Scale notes: every gathered row is a homogeneous (k, val, side) int64
tuple (the cc.py dtype contract — no typed-null padding can upcast
ids); unreached nodes carry the INF sentinel but propose nothing, so the
proposal volume per round is O(edges touching the reached set), not
O(E x rounds) on a sparse frontier graph.  Nothing graph-sized ever
reaches the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from ndap_data_validator_ray.stages.groupby import bucketed_groupby, exchange, hash_partitioner

# Unreached sentinel: far above any real hop count, far below int64
# overflow even after += rounds increments.
INF_HOPS = np.int64(1) << 40


def _min_dist(batch: pd.DataFrame) -> pd.DataFrame:
    return batch.groupby("node", as_index=False)["dist"].min()


def _relax_round(sym: "ray.data.Dataset", dists: "ray.data.Dataset") -> "ray.data.Dataset":
    """One relaxation round as one lazy chain ending in the min fold."""

    def edge_leg(b: pd.DataFrame) -> pd.DataFrame:
        k = b["u"].to_numpy(np.int64)
        return pd.DataFrame(
            {"k": k, "val": b["v"].to_numpy(np.int64), "side": np.zeros(len(k), dtype=np.int64)}
        )

    def dist_leg(b: pd.DataFrame) -> pd.DataFrame:
        k = b["node"].to_numpy(np.int64)
        return pd.DataFrame(
            {"k": k, "val": b["dist"].to_numpy(np.int64), "side": np.ones(len(k), dtype=np.int64)}
        )

    legs = [
        sym.map_batches(edge_leg, batch_format="pandas"),
        dists.map_batches(dist_leg, batch_format="pandas"),
    ]

    def reduce(group: pd.DataFrame, _pid: int) -> pd.DataFrame:
        lut = group.loc[group["side"] == 1].set_index("k")["val"]
        ef = group[group["side"] == 0]
        if ef.empty:
            return pd.DataFrame(
                {"node": pd.Series([], dtype=np.int64), "dist": pd.Series([], dtype=np.int64)}
            )
        d = ef["k"].map(lut)
        keep = (d.notna() & (d < INF_HOPS)).to_numpy()
        return pd.DataFrame(
            {
                "node": ef["val"].to_numpy()[keep],
                "dist": (d[keep].astype(np.int64) + 1).to_numpy(),
            }
        )

    proposals = exchange(legs, hash_partitioner(["k"]), reduce)
    return bucketed_groupby(proposals.union(dists), ["node"], _min_dist, _min_dist)


def distributed_bfs_hops(
    edges: "ray.data.Dataset",
    sources: "ray.data.Dataset",
    src_col: str = "id_a",
    dst_col: str = "id_b",
    source_col: str = "node",
    rounds: int = 4,
) -> "ray.data.Dataset":
    """Hop distance (0..``rounds``, else -1) from every edge-endpoint node
    to its nearest source.

    ``sources``: Dataset with a ``source_col`` column of source node ids
    (need not be endpoint nodes; sources outside the graph simply label
    themselves 0).  Membership is never tested — source rows seed dist=0,
    endpoint rows seed dist=INF, and the first min fold merges them, so
    the source set can itself be arbitrarily large (no broadcast, no
    driver set).

    Node ids must be int64.  Returns (node, hops).
    """
    sym = edges.map_batches(
        lambda b: pd.DataFrame(
            {
                "u": np.concatenate(
                    [b[src_col].to_numpy().astype(np.int64), b[dst_col].to_numpy().astype(np.int64)]
                ),
                "v": np.concatenate(
                    [b[dst_col].to_numpy().astype(np.int64), b[src_col].to_numpy().astype(np.int64)]
                ),
            }
        ),
        batch_format="pandas",
    ).materialize()

    seeds = sym.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": (u := np.unique(b["u"].to_numpy(np.int64))),
                "dist": np.full(len(u), INF_HOPS, dtype=np.int64),
            }
        ),
        batch_format="pandas",
    ).union(
        sources.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": (s := b[source_col].to_numpy().astype(np.int64)),
                    "dist": np.zeros(len(s), dtype=np.int64),
                }
            ),
            batch_format="pandas",
        )
    )

    dists = bucketed_groupby(seeds, ["node"], _min_dist, _min_dist)
    for _round in range(rounds):
        dists = _relax_round(sym, dists)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        d = b["dist"].to_numpy(np.int64)
        return pd.DataFrame(
            {"node": b["node"].to_numpy(np.int64), "hops": np.where(d >= INF_HOPS, -1, d)}
        )

    return dists.map_batches(finish, batch_format="pandas")
