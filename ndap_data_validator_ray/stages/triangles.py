"""Distributed per-node triangle counting over an edge Dataset.

Triangle participation is the classic graph-quality signal next to the
repo's other graph stages (connected components in ``stages/cc.py``,
PageRank in ``stages/pagerank.py``): clustering-coefficient numerators,
community density, spam-farm detection on link graphs.  The reference has
no graph operators at all (single-file pandas validator); this is one of
the beyond-reference large-scale primitives, built the same way as the
rest of the engine — every wide step is a bucketed exchange, nothing
graph-sized ever lands on the driver.

Algorithm: degree-oriented node-iterator (the MapReduce/NodeIterator++
scheme of Suri & Vassilvitskii, "Counting Triangles and the Curse of the
Last Reducer", WWW'11):

1. canonicalize + dedup edges (u < v, self-loops dropped) — one bucketed
   exchange keyed by the pair;
2. degrees = COUNT per endpoint (``count_by_key``) — one exchange;
3. ORIENT each edge from its lower-(degree, id) endpoint to the higher:
   after this, every node's out-degree is <= sqrt(2m) (if out-degree is
   k, the node has k neighbors of degree >= k, so 2m >= k^2) — the bound
   that kills the "curse of the last reducer" on power-law graphs.
   Degrees attach via ``stages/broadcast.attach_or_join``: the degree map
   is O(nodes) rows — broadcast once under the cap, bucketed hash join
   above it;
4. WEDGES: group oriented edges by source; each source with out-neighbors
   [n1..nk] emits its C(k,2) neighbor pairs (canonical lo/hi) — vectorized
   ``np.triu_indices`` per source, no per-pair Python loop;
5. CLOSURE: a wedge (a, b) centered at c is a triangle iff edge (a, b)
   exists — a bucketed SEMI join of wedges against the canonical edge
   list.  Degree orientation makes each triangle close exactly ONCE (at
   the unique corner whose two partners are both out-neighbors);
6. per-node counts: each closed triangle credits all three corners —
   3 slim (node, 1) rows into a final ``count_by_key``.

Scale posture: the wedge set is the big intermediate — at most
m * sqrt(2m) rows worst case, in practice far less, and it exists only
inside the wedge->closure exchange (never materialized to the driver).
A single max-out-degree source emits its wedges inside one reducer; if a
~10^5-out-degree hub ever dominates, split its dst list across sub-rows
keyed (src, chunk) before step 4 — the pair emission is associative
across chunks of the SAME sorted dst array only if chunk pairs are also
crossed.

Node ids must be int64.  Returns (node, triangles) for nodes in >= 1
triangle — int64, one row per such node.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ndap_data_validator_ray.stages.broadcast import attach_or_join
from ndap_data_validator_ray.stages.groupby import bucketed_groupby, count_by_key
from ndap_data_validator_ray.stages.join import bucketed_join

_EMPTY = pd.DataFrame(
    {
        "node": pd.Series([], dtype=np.int64),
        "triangles": pd.Series([], dtype=np.int64),
    }
)


def _canonical_distinct_edges(edges: "ray.data.Dataset", src_col: str, dst_col: str) -> "ray.data.Dataset":
    """(src, dst) rows (any order, dups allowed) -> distinct (u, v) with
    u < v; self-loops and null endpoints dropped.  Dedup is exact: a pair
    hashes to one bucket, so per-bucket drop_duplicates is global."""

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=[src_col, dst_col])
        a = b[src_col].to_numpy().astype(np.int64)
        c = b[dst_col].to_numpy().astype(np.int64)
        keep = a != c
        a, c = a[keep], c[keep]
        return pd.DataFrame(
            {"u": np.minimum(a, c), "v": np.maximum(a, c)}
        ).drop_duplicates()

    return bucketed_groupby(
        edges.map_batches(canon, batch_format="pandas"),
        ["u", "v"],
        lambda b: b,
        lambda g: g.drop_duplicates(),
    )


def distributed_triangle_counts(
    edges: "ray.data.Dataset",
    src_col: str = "id_a",
    dst_col: str = "id_b",
    return_degrees: bool = False,
) -> pd.DataFrame | tuple[pd.DataFrame, pd.DataFrame]:
    """Per-node triangle counts of the undirected simple graph given by
    ``edges`` (module docstring).  Output is the per-node fold — O(nodes
    in triangles) rows — returned as pandas; the graph-sized intermediates
    (edge list, wedges) stay distributed throughout.

    ``return_degrees=True`` additionally returns the (node, deg) fold the
    orientation step already computed — same O(nodes) size class as the
    result — so clustering-coefficient callers don't pay a second raw
    edge scan + dedup + count exchange for a frame this stage holds."""

    _EMPTY_DEG = pd.DataFrame(
        {"node": pd.Series([], dtype=np.int64), "deg": pd.Series([], dtype=np.int64)}
    )

    def _ret(tri: pd.DataFrame, deg_ds) -> pd.DataFrame | tuple[pd.DataFrame, pd.DataFrame]:
        if not return_degrees:
            return tri
        if deg_ds is None:
            return tri, _EMPTY_DEG.copy()
        d = deg_ds.to_pandas()
        d["node"] = d["node"].astype(np.int64)
        d["deg"] = d["deg"].astype(np.int64)
        return tri, d.sort_values("node").reset_index(drop=True)

    e = _canonical_distinct_edges(edges, src_col, dst_col).materialize()
    if e.count() == 0:
        return _ret(_EMPTY.copy(), None)

    ends = e.map_batches(
        lambda b: pd.DataFrame(
            {"node": np.concatenate([b["u"].to_numpy(), b["v"].to_numpy()])}
        ),
        batch_format="pandas",
    )
    deg = count_by_key(ends, ["node"], count_col="deg").materialize()

    # Attach both endpoint degrees (broadcast under the cap, bucketed join
    # above it), then orient low-(deg, id) -> high-(deg, id).
    with_du = attach_or_join(
        e,
        deg.map_batches(lambda b: b.rename(columns={"node": "u", "deg": "du"}), batch_format="pandas"),
        on_fact="u",
        on_side="u",
        attach_cols=["du"],
    )
    with_deg = attach_or_join(
        with_du,
        deg.map_batches(lambda b: b.rename(columns={"node": "v", "deg": "dv"}), batch_format="pandas"),
        on_fact="v",
        on_side="v",
        attach_cols=["dv"],
    )

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["u"].to_numpy().astype(np.int64)
        v = batch["v"].to_numpy().astype(np.int64)
        du = batch["du"].to_numpy().astype(np.int64)
        dv = batch["dv"].to_numpy().astype(np.int64)
        # lexicographic (deg, id): ties broken by id keep the orientation
        # acyclic (u < v canonical, so equal degrees orient low-id -> high)
        u_first = (du < dv) | ((du == dv) & (u < v))
        return pd.DataFrame(
            {"src": np.where(u_first, u, v), "dst": np.where(u_first, v, u)}
        )

    oriented = with_deg.map_batches(orient, batch_format="pandas")

    def emit_wedges(group: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in group.groupby("src", sort=False):
            d = np.sort(g["dst"].to_numpy().astype(np.int64))
            k = len(d)
            if k < 2:
                continue
            i, j = np.triu_indices(k, k=1)
            outs.append(
                pd.DataFrame(
                    {
                        # dst array sorted ascending, so d[i] < d[j] is
                        # already canonical (wu < wv)
                        "wu": d[i],
                        "wv": d[j],
                        "center": np.full(len(i), g["src"].iloc[0], dtype=np.int64),
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "wu": pd.Series([], dtype=np.int64),
                    "wv": pd.Series([], dtype=np.int64),
                    "center": pd.Series([], dtype=np.int64),
                }
            )
        return pd.concat(outs, ignore_index=True)

    # materialized: bucketed_join reads each side's schema up front, which
    # EXECUTES a shuffle-ending pipeline once just for the schema — without
    # this the whole wedge emission runs twice (the repo's join contract)
    wedges = bucketed_groupby(oriented, ["src"], lambda b: b, emit_wedges).materialize()

    closed = bucketed_join(
        wedges,
        e.map_batches(lambda b: b.rename(columns={"u": "wu", "v": "wv"}), batch_format="pandas"),
        on=["wu", "wv"],
        how="semi",
    )

    corners = closed.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": np.concatenate(
                    [
                        b["wu"].to_numpy().astype(np.int64),
                        b["wv"].to_numpy().astype(np.int64),
                        b["center"].to_numpy().astype(np.int64),
                    ]
                )
            }
        ),
        batch_format="pandas",
    )
    out = count_by_key(corners, ["node"], count_col="triangles").to_pandas()
    if out.empty:
        return _ret(_EMPTY.copy(), deg)
    out["node"] = out["node"].astype(np.int64)
    out["triangles"] = out["triangles"].astype(np.int64)
    return _ret(out.sort_values("node").reset_index(drop=True), deg)
