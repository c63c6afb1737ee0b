"""Arrow-native broadcast dimension lookups.

The broadcast-join shape (ray_guide "Joins and lookups"): the small side is
``ray.put`` once as a pair of Arrow arrays and fetched by each batch task
(a local object-store read, never re-shipped per batch); the per-batch work
is pure ``pyarrow.compute`` — ``index_in`` against the key array + ``take``
on the value array — so fact batches stay zero-copy Arrow end to end (no
pandas conversion, round-1 weakness).  A plain task map, not an actor pool:
no actors start per call, and it runs on a one-CPU cluster."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def attach_lookup(
    ds: "ray.data.Dataset",
    lookup: dict,
    key_col: str,
    out_col: str,
    keep: list[str] | None = None,
) -> "ray.data.Dataset":
    """Attach ``out_col`` to every batch by mapping ``key_col`` through the
    broadcast ``lookup``; unmatched keys get null (pandas ``.map``
    semantics)."""
    ref = ray.put((pa.array(list(lookup)), pa.array(list(lookup.values()))))

    def attach(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        key = batch[key_col]
        if key.type != keys.type:
            key = key.cast(keys.type)
        out = batch.append_column(out_col, pc.take(vals, pc.index_in(key, value_set=keys)))
        return out.select(keep) if keep else out

    return ds.map_batches(attach, batch_format="pyarrow")


# Broadcast-vs-shuffle switch (the Q10 guard, generalized): below the cap
# the small side ships once via ray.put; above it the fact pays a bucketed
# hash join instead of the driver holding an unbounded map.
DEFAULT_BROADCAST_CAP = 5_000_000


def attach_or_join(
    fact: "ray.data.Dataset",
    side: "ray.data.Dataset",
    on_fact: str,
    on_side: str,
    attach_cols: list[str],
    cap: int | None = None,
) -> "ray.data.Dataset":
    """INNER-join ``attach_cols`` from ``side`` onto ``fact`` (fact rows
    without a match are dropped), choosing broadcast vs shuffle by the
    side's EXACT row count: ``side`` is materialized (callers usually need
    that anyway — it is consumed once per path) and counted (metadata);
    at or under ``cap`` the sorted key + column arrays broadcast once via
    ``ray.put`` and each Arrow batch attaches via ``searchsorted``; above
    the cap the side stays distributed and the fact takes
    ``stages/join.bucketed_join``.  Side keys must be unique (dim or
    windowed-key map semantics)."""
    import numpy as np

    if cap is None:
        cap = DEFAULT_BROADCAST_CAP  # resolved at call time (tests lower it)
    side = side.materialize()
    n = side.count()
    if n == 0:
        # typed empty result: fact schema + attach cols are unknowable
        # without a match — emit no rows via an always-false filter
        return fact.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow").map_batches(
            lambda t: t, batch_format="pyarrow"
        )
    if n <= cap:
        s = side.to_pandas().sort_values(on_side)
        keys = s[on_side].to_numpy()
        ref = ray.put((keys, {c: s[c].to_numpy() for c in attach_cols}))

        def fn(t: pa.Table) -> pa.Table:
            ks, cols = ray.get(ref)
            # null fact keys never match under SQL equality — drop them
            # up front (keeps the two paths consistent; bucketed_join
            # drops them in the shuffle path)
            t = t.filter(pc.is_valid(t[on_fact]))
            fk = t[on_fact].to_numpy()
            pos = ks.searchsorted(fk).clip(0, max(len(ks) - 1, 0))
            hit = ks[pos] == fk if len(ks) else pos.astype(bool)
            kept = t.filter(pa.array(hit))
            for c in attach_cols:
                kept = kept.append_column(c, pa.array(cols[c][pos[hit]]))
            return kept

        return fact.map_batches(fn, batch_format="pyarrow")
    from ndap_data_validator_ray.stages.join import bucketed_join

    keyed = side.map_batches(
        lambda b: b[[on_side] + attach_cols].rename(columns={on_side: on_fact}),
        batch_format="pandas",
    ).materialize()
    return bucketed_join(fact, keyed, on=[on_fact], how="inner")
