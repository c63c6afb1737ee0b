"""Distributed connected components over an edge Dataset.

The dedup-clustering primitive at corpus scale: near-dup stages emit a
verified edge list (id_a, id_b); grouping those edges into clusters and
electing one representative per cluster is a connected-components
problem.  The driver union-find in ``stages/dedup_near.connected_
components`` assumes an LSH-small edge list; THIS module is the 100 TB
path — labels and edges only ever move through bucketed exchanges, and
nothing reaches the driver but one convergence scalar per round.

Algorithm: iterated min-label propagation with POINTER JUMPING
(path-doubling — the classic PRAM/MapReduce CC trick, cf. Rastogi et
al., "Finding Connected Components in Map-Reduce in Logarithmic
Rounds"), FUSED into one exchange round (round-4 verdict item 6 — the
two-exchange round spent ~2/3 of its wall time on Ray execution
overhead at small scale):

 per round, ONE bucketed exchange + one bucketed min-groupby, each
 executed as it is built:
   - every edge (u, v), both directions, proposes ``label(u)`` to v
     (neighbor min), AND every label row, re-keyed as (label(v) -> v),
     proposes ``label(label(v))`` to v (pointer jump with the CURRENT
     round's labels — "stale" jumping).  Both proposal kinds are the
     same gather — rows keyed by k looking up label(k) — so they ride
     ONE exchange; new label(v) = min(self, all proposals).
 The stale jump preserves the path-doubling recurrence: with uniform
 label distance d, a round yields min(d + d, d + 1) = 2d — a length-L
 chain still converges in O(log L) rounds (the chain/star/ring tests
 pin this: 60-node chain well inside max_rounds=20 where naive
 propagation needs 59).
 convergence: SUM(label) is monotone non-increasing under min semantics
 (labels are node ids), so a round that leaves the sum unchanged is a
 fixpoint — a single integer per round to the driver, no diff join.
 The sum runs over the round's MATERIALIZED output (cheap block scan),
 so each round costs one shuffle execution + one trivial one.

Both exchanges go through ``stages/groupby``: the gather is one
``exchange`` over three legs keyed on k, the min fold a
``bucketed_groupby`` on node.  Every gathered row is a homogeneous
(k, val, side) int64 tuple — one schema on all union legs, so Ray's
groupby never sees mixed blocks and no typed-null padding can upcast ids
(the reason the join family uses ``cogroup``).

Output: Dataset of (node, component) where component = min node id of
the node's component (deterministic; matches the driver union-find's
min-root convention and a SQL oracle's MIN() OVER ()).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from ndap_data_validator_ray.stages.groupby import bucketed_groupby, exchange, hash_partitioner

# Symmetric-edge-row cap for the driver fast path (module attr so tests can
# monkeypatch it; resolved at call time like broadcast.DEFAULT_BROADCAST_CAP).
# 5M int64 pairs is ~80 MB on the driver — the same small-side scale the
# broadcast-join guard accepts.
DEFAULT_SMALL_GRAPH_CAP = 5_000_000


def _driver_components(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact min-label components of a bounded symmetric edge array on the
    driver: vectorized hook (``np.minimum.at``) + full pointer jumping per
    round — O(log n) rounds, no Python per-edge loop.  Returns (sorted
    unique node ids, component = min node id), matching the distributed
    rounds' min-root convention exactly (equivalence-tested)."""
    ids = np.unique(np.concatenate([u, v]))
    ui = np.searchsorted(ids, u)
    vi = np.searchsorted(ids, v)
    labels = np.arange(len(ids), dtype=np.int64)
    while True:
        new = labels.copy()
        np.minimum.at(new, vi, labels[ui])
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            break
        labels = new
    return ids, ids[labels]


def _small_graph_components(
    sym: "ray.data.Dataset", nodes: "ray.data.Dataset | None", node_col: str
) -> "ray.data.Dataset":
    """The under-cap path: union-find the bounded edge list on the driver,
    broadcast the (edge-touched only — O(edges), not O(corpus)) component
    map once via ``ray.put``, and label the ``nodes`` Dataset by lookup —
    isolated nodes stream straight through (component = self) and never
    materialize on the driver."""
    e = sym.to_pandas()  # bounded by the caller's cap check
    if len(e):
        ids, comp = _driver_components(
            e["u"].to_numpy().astype(np.int64), e["v"].to_numpy().astype(np.int64)
        )
    else:
        ids = comp = np.array([], dtype=np.int64)
    if nodes is None:
        return ray.data.from_pandas(pd.DataFrame({"node": ids, "component": comp}))
    ref = ray.put((ids, comp))

    def lookup(b: pd.DataFrame) -> pd.DataFrame:
        k, c = ray.get(ref)
        node = b[node_col].to_numpy().astype(np.int64)
        if len(k):
            pos = np.clip(np.searchsorted(k, node), 0, len(k) - 1)
            out = np.where(k[pos] == node, c[pos], node)
        else:
            out = node
        return pd.DataFrame({"node": node, "component": out.astype(np.int64)})

    return nodes.map_batches(lookup, batch_format="pandas")


def _min_label(batch: pd.DataFrame) -> pd.DataFrame:
    return batch.groupby("node", as_index=False)["label"].min()


def _leg(side: int, key: str, val: str):
    """Normalize a frame to the homogeneous (k, val, side) int64 exchange
    layout, keyed on ``key``."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch[key].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "k": k,
                "val": batch[val].to_numpy().astype(np.int64),
                "side": np.full(len(k), side, dtype=np.int64),
            }
        )

    return fn


def _fused_round(sym: "ray.data.Dataset", labels: "ray.data.Dataset") -> "ray.data.Dataset":
    """One CC round as ONE lazy chain (module docstring): neighbor-min
    proposals (edge rows keyed by u) and stale pointer-jump proposals
    (label rows re-keyed by label(v)) share a single bucketed gather
    against the label lut, then min-fold with the self labels.  ``labels``
    must be MATERIALIZED (it feeds three legs)."""
    legs = [
        sym.map_batches(_leg(0, "u", "v"), batch_format="pandas"),
        labels.map_batches(_leg(1, "node", "label"), batch_format="pandas"),
        labels.map_batches(_leg(2, "label", "node"), batch_format="pandas"),
    ]

    def reduce(group: pd.DataFrame, _pid: int) -> pd.DataFrame:
        # side 1 = lut rows (node -> label, unique per node); sides 0 and 2
        # are both "emit (val, lut[k])" gathers — one vectorized map
        lut = group.loc[group["side"] == 1].set_index("k")["val"]
        lf = group[group["side"] != 1]
        if lf.empty:
            return pd.DataFrame(
                {"node": pd.Series([], dtype=np.int64), "label": pd.Series([], dtype=np.int64)}
            )
        lab = lf["k"].map(lut)
        keep = lab.notna().to_numpy()
        return pd.DataFrame(
            {"node": lf["val"].to_numpy()[keep], "label": lab[keep].astype(np.int64).to_numpy()}
        )

    proposals = exchange(legs, hash_partitioner(["k"]), reduce)
    return bucketed_groupby(proposals.union(labels), ["node"], _min_label, _min_label)


def distributed_connected_components(
    edges: "ray.data.Dataset",
    src_col: str = "id_a",
    dst_col: str = "id_b",
    nodes: "ray.data.Dataset | None" = None,
    node_col: str = "node",
    max_rounds: int = 50,
    small_graph_cap: int | None = None,
) -> "ray.data.Dataset":
    """Connected components of the undirected graph given by ``edges``.

    ``nodes`` (optional): Dataset with a ``node_col`` column of ALL node
    ids — isolated nodes (no edges) then appear with component = self,
    matching SQL semantics where every key row gets a label.  When given,
    it must be a superset of the edge endpoints with unique ids (all
    callers pass the full corpus id column).

    ``small_graph_cap``: the attach_or_join pattern applied to graphs —
    the symmetric edge list is materialized anyway (every distributed
    round re-reads it), so its EXACT row count is free; at or under the
    cap (default ``DEFAULT_SMALL_GRAPH_CAP``, resolved at call time so
    tests can monkeypatch) the components resolve on the driver in one
    vectorized union-find and only the O(edges) component map broadcasts
    back — the rounds-dominated distributed path on a toy graph spends
    ~3 s/round on pure Ray orchestration (measured 32 s -> 0.3 s on a
    368-edge graph).  Above the cap: the distributed rounds, unchanged.
    Pass ``small_graph_cap=0`` to force the distributed path (the
    flagship LSH dedup flow and the CC value-oracle queries do, keeping
    the 100 TB path itself pinned end to end).

    Node ids must be int64 (doc ids).  Returns (node, component).
    """

    def edge_nodes(batch: pd.DataFrame) -> pd.DataFrame:
        # sym already carries every endpoint in its "u" column (both
        # directions), so seeding from sym never re-executes a lazy edge
        # pipeline — edges runs exactly once (into sym)
        vals = np.unique(batch["u"].to_numpy())
        return pd.DataFrame({"node": vals, "label": vals})

    # symmetrized slim edge list, reused every round (materialized once —
    # so the small-graph probe's count() is metadata-only)
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
    n_sym = sym.count()
    cap = DEFAULT_SMALL_GRAPH_CAP if small_graph_cap is None else small_graph_cap
    if cap and n_sym <= cap:
        return _small_graph_components(sym, nodes, node_col)

    seeds = sym.map_batches(edge_nodes, batch_format="pandas")
    if nodes is not None:
        seeds = seeds.union(
            nodes.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "node": (v := b[node_col].to_numpy().astype(np.int64)),
                        "label": v,
                    }
                ),
                batch_format="pandas",
            )
        )
    # each round unions two mapped views of the labels; the round's
    # exchange output is already executed with one block per reduce task,
    # so the label block count stays pinned (unpinned it DOUBLED per round:
    # 1.4s -> 20s by round 2 on a 50-edge graph)
    labels = bucketed_groupby(seeds, ["node"], _min_label, _min_label)

    def label_sum(ds: "ray.data.Dataset") -> int:
        parts = ds.map_batches(
            # Python-int partial sums: node ids near 2^63 would wrap an
            # int64 accumulator and break the monotone-sum fixpoint check
            lambda b: pd.DataFrame({"s": [str(int(b["label"].to_numpy().astype(object).sum()))]}),
            batch_format="pandas",
        ).to_pandas()
        return sum(int(s) for s in parts["s"]) if len(parts) else 0

    prev_sum = label_sum(labels)
    for _round in range(max_rounds):
        # one exchange per round runs the whole fused chain; label_sum then
        # scans in-memory blocks only
        labels = _fused_round(sym, labels)
        cur_sum = label_sum(labels)
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda b: b.rename(columns={"label": "component"}), batch_format="pandas"
    )
