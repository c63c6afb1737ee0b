"""Distributed PageRank over an edge Dataset (fixed-iteration, exact).

The second iterative graph primitive next to ``stages/cc.py`` (same
exchange discipline: per iteration nothing reaches the driver, labels
and edges move only through bucketed exchanges).  Fixed iteration count
keeps the result DETERMINISTIC and therefore SQL-oracleable — an
unrolled join+groupby CTE per iteration reproduces the values exactly
(modulo float last-ulp, hidden by round-6).

Per iteration, TWO ``stages/groupby.exchange`` calls:
  1. contribution gather — edge rows (u -> v) and rank rows (node ->
     rank, out_deg) co-locate on u; each bucket emits
     (v, damping * rank(u) / deg(u));
  2. rank fold — contributions and the static (node, deg) map co-locate
     on v; new rank(v) = (1 - damping)/N + sum(contributions).  Every
     node of the symmetrized graph has out-degree >= 1, so there is no
     dangling-mass term.

The rank map is an ``exchange`` output, already executed with one block
per reduce task — the block-count pinning the CC rounds need (union legs
double blocks geometrically otherwise).

Graphs whose components are reducer-sized could instead groupby a
component id and iterate locally (zero per-iteration exchanges); this
module is the general path with no component-size assumption.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ndap_data_validator_ray.stages.groupby import exchange, hash_partitioner


def _leg(side: int, k: np.ndarray, v: np.ndarray, x: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "k": k.astype(np.int64),
            "v": v.astype(np.int64),
            "x": x.astype(np.float64),
            "side": np.full(len(k), side, dtype=np.int64),
        }
    )


def distributed_pagerank(
    edges: "ray.data.Dataset",
    src_col: str = "id_a",
    dst_col: str = "id_b",
    iters: int = 5,
    damping: float = 0.85,
) -> "ray.data.Dataset":
    """PageRank on the UNDIRECTED (symmetrized) graph of ``edges`` after
    ``iters`` fixed iterations from the uniform start.  Returns a Dataset
    of (node, rank).  Node ids must be int64."""

    def sym_map(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "u": np.concatenate(
                    [b[src_col].to_numpy().astype(np.int64), b[dst_col].to_numpy().astype(np.int64)]
                ),
                "v": np.concatenate(
                    [b[dst_col].to_numpy().astype(np.int64), b[src_col].to_numpy().astype(np.int64)]
                ),
            }
        ).drop_duplicates()  # parallel edges collapse (undirected simple graph)

    sym = edges.map_batches(sym_map, batch_format="pandas").materialize()

    # static per-node out-degree (one exchange of sym on u); cross-block
    # duplicate edges are deduped in the merge
    def deg_merge(g: pd.DataFrame, _pid: int) -> pd.DataFrame:
        d = g.drop_duplicates().groupby("u", as_index=False).size()
        return pd.DataFrame({"node": d["u"].to_numpy(), "deg": d["size"].to_numpy().astype(np.int64)})

    degs = exchange(sym, hash_partitioner(["u"]), deg_merge)
    n_nodes = degs.count()
    if n_nodes == 0:
        return degs.map_batches(
            lambda b: pd.DataFrame({"node": [], "rank": []}), batch_format="pandas"
        )
    base = (1.0 - damping) / n_nodes

    # ranks carry deg along so the contribution gather needs no third leg
    ranks = degs.map_batches(
        lambda b: pd.DataFrame(
            {"node": b["node"].to_numpy(), "rank": np.full(len(b), 1.0 / n_nodes), "deg": b["deg"].to_numpy()}
        ),
        batch_format="pandas",
    ).materialize()

    def edge_leg(b: pd.DataFrame) -> pd.DataFrame:
        return _leg(0, b["u"].to_numpy(), b["v"].to_numpy(), np.zeros(len(b)))

    def rank_leg(b: pd.DataFrame) -> pd.DataFrame:
        # x = damping * rank / deg — the per-edge contribution of this node
        return _leg(1, b["node"].to_numpy(), b["deg"].to_numpy(),
                    damping * b["rank"].to_numpy() / b["deg"].to_numpy())

    def gather(group: pd.DataFrame, _pid: int) -> pd.DataFrame:
        lut = group.loc[group["side"] == 1].set_index("k")["x"]
        e = group[group["side"] == 0]
        if e.empty:
            return pd.DataFrame({"node": pd.Series([], dtype=np.int64), "c": pd.Series([], dtype=np.float64)})
        contrib = e["k"].map(lut)
        keep = contrib.notna().to_numpy()
        out = pd.DataFrame({"node": e["v"].to_numpy()[keep], "c": contrib[keep].to_numpy()})
        # pre-fold inside the bucket: <= nodes-in-bucket rows leave
        return out.groupby("node", as_index=False)["c"].sum()

    def deg_leg(b: pd.DataFrame) -> pd.DataFrame:
        return _leg(3, b["node"].to_numpy(), b["deg"].to_numpy(), np.zeros(len(b)))

    def contrib_leg(b: pd.DataFrame) -> pd.DataFrame:
        return _leg(2, b["node"].to_numpy(), np.zeros(len(b), dtype=np.int64), b["c"].to_numpy())

    def fold(group: pd.DataFrame, _pid: int) -> pd.DataFrame:
        d = group[group["side"] == 3]
        if d.empty:
            return pd.DataFrame(
                {"node": pd.Series([], dtype=np.int64), "rank": pd.Series([], dtype=np.float64),
                 "deg": pd.Series([], dtype=np.int64)}
            )
        c = group[group["side"] == 2].groupby("k")["x"].sum()
        nodes = d["k"].to_numpy()
        return pd.DataFrame(
            {
                "node": nodes,
                "rank": base + pd.Series(nodes).map(c).fillna(0.0).to_numpy(),
                "deg": d["v"].to_numpy(),
            }
        )

    by_k = hash_partitioner(["k"])
    for _ in range(iters):
        contribs = exchange(
            [
                sym.map_batches(edge_leg, batch_format="pandas"),
                ranks.map_batches(rank_leg, batch_format="pandas"),
            ],
            by_k,
            gather,
        )
        ranks = exchange(
            [
                contribs.map_batches(contrib_leg, batch_format="pandas"),
                degs.map_batches(deg_leg, batch_format="pandas"),
            ],
            by_k,
            fold,
        )

    return ranks.map_batches(lambda b: b[["node", "rank"]], batch_format="pandas")
