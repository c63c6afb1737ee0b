"""Exact distributed set-similarity self-join (Jaccard >= t) with prefix
filtering — the AllPairs / PPJoin candidate scheme (Bayardo et al.,
"Scaling Up All Pairs Similarity Search", WWW'07; Xiao et al., PPJoin,
WWW'08) re-expressed as bucketed exchanges.

Complements the repo's other similarity families: MinHash/SimHash LSH
(``stages/dedup_near``) are probabilistic-recall near-dup detectors over
TEXT shingles; this stage is an EXACT join over explicit token SETS
(ids-in-a-basket, tags, shingle ids) — every qualifying pair is found,
no recall knob — with the prefix filter doing the pruning that makes
exact feasible: a pair with Jaccard >= t must share a token inside both
sets' (n - ceil(t*n) + 1)-prefixes under one GLOBAL token order
(PPJoin Lemma 1 with alpha = ceil(t*n) <= |A intersect B|, which J >= t
implies for both endpoint sizes).  Ordering tokens by ascending corpus
frequency makes those prefixes the RAREST tokens, so candidate buckets
stay small on skewed vocabularies.

Pipeline (every step a bucketed exchange or a guarded broadcast; the
driver only ever sees the final pair list, and callers can keep even
that distributed via ``as_dataset``):

1. distinct (id, token) rows — dedup exchange keyed by the pair;
2. token document frequency — ``count_by_key(token)``;
3. df attaches back to the rows via ``stages/broadcast.attach_or_join``
   (vocab is O(distinct tokens): broadcast under the cap, hash join
   above);
4. per-set fold — one exchange keyed by id: tokens sorted by
   (df, token), emitting one row per set: (id, size, payload, prefix
   tokens).  Prefix rows explode from this fold (token, id, size);
5. candidates — one exchange keyed by prefix token: within a token
   group, every id pair passes the size filter
   ``t * max(na, nb) <= min(na, nb)`` (J >= t forces it) and is emitted
   slim (id_a < id_b), vectorized via ``np.triu_indices``;
6. exact verify — ``stages/dedup_near.verify_pairs_distributed`` (two
   bucketed exchanges, pair dedup in the first): true Jaccard over the
   full token sets, keep >= t.

Scale posture: candidate volume is bounded by sum over tokens of
C(prefix_df, 2) — the frequency-ascending order keeps prefix_df small
for common tokens (they sit outside most prefixes); output-dense inputs
(many true pairs) are inherently O(pairs).  Token groups emit inside one
reducer each; a pathological hub token degrades that reducer only —
pre-salt the token, never cap silently (this is an EXACT operator;
there is no stats-degrade mode by design).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

import ray.data

from ndap_data_validator_ray.stages.broadcast import attach_or_join
from ndap_data_validator_ray.stages.groupby import bucketed_groupby, count_by_key, sum_by_key

_SEP = "\x1f"

_EMPTY = pd.DataFrame(
    {
        "id_a": pd.Series([], dtype=np.int64),
        "id_b": pd.Series([], dtype=np.int64),
        "jaccard": pd.Series([], dtype=np.float64),
    }
)


def _jaccard_scorer(pa_arr: np.ndarray, pb_arr: np.ndarray) -> np.ndarray:
    """Exact Jaccard over payload token strings (reducer-local; the pair
    list inside one reducer is the bounded verify set, and each set op is
    C-speed — same shape as exact_jaccard_pairs' verify)."""
    out = np.empty(len(pa_arr), dtype=np.float64)
    for i, (x, y) in enumerate(zip(pa_arr, pb_arr)):
        sx = set(x.split(_SEP)) if x else set()
        sy = set(y.split(_SEP)) if y else set()
        un = len(sx | sy)
        out[i] = (len(sx & sy) / un) if un else 0.0
    return out


def allpairs_jaccard_join(
    rows: "ray.data.Dataset",
    id_col: str,
    token_col: str,
    threshold: float = 0.6,
    as_dataset: bool = False,
) -> "pd.DataFrame | ray.data.Dataset":
    """All pairs of sets with Jaccard >= ``threshold`` (module docstring).

    ``rows``: exploded set representation — (id_col, token_col) rows,
    duplicates allowed, null tokens/ids dropped.  Ids must be int64;
    tokens any hashable scalar type (stringified into the payload).
    Returns (id_a, id_b, jaccard) with id_a < id_b — pandas by default,
    a lazy Dataset with ``as_dataset=True`` (the 100 TB path when the
    pair list feeds clustering, cf. ``stages/cc.py``).
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")

    def clean(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=[id_col, token_col])
        return pd.DataFrame(
            {"id": b[id_col].to_numpy().astype(np.int64), "tok": b[token_col].astype(str).to_numpy()}
        ).drop_duplicates()

    distinct = bucketed_groupby(
        rows.map_batches(clean, batch_format="pandas"),
        ["id", "tok"],
        lambda b: b,
        lambda g: g.drop_duplicates(),
    ).materialize()
    if distinct.count() == 0:
        return ray.data.from_pandas(_EMPTY.copy()) if as_dataset else _EMPTY.copy()

    df = count_by_key(distinct, ["tok"], count_col="df").materialize()
    with_df = attach_or_join(distinct, df, on_fact="tok", on_side="tok", attach_cols=["df"])

    def fold_sets(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["id", "df", "tok"], kind="mergesort")
        ids, sizes, payloads, prefixes = [], [], [], []
        for sid, rows_ in g.groupby("id", sort=False):
            toks = rows_["tok"].tolist()
            n = len(toks)
            # the -1e-9 slack keeps float(threshold)*n from ceiling UP past
            # the exact product at integer boundaries — a too-short prefix
            # would silently miss pairs; a longer one only adds candidates
            # (the verify leg is exact either way)
            plen = n - math.ceil(threshold * n - 1e-9) + 1
            ids.append(sid)
            sizes.append(n)
            payloads.append(_SEP.join(toks))
            prefixes.append(_SEP.join(toks[:plen]))
        return pd.DataFrame(
            {
                "id": np.asarray(ids, dtype=np.int64),
                "size": np.asarray(sizes, dtype=np.int64),
                "payload": payloads,
                "prefix": prefixes,
            }
        )

    sets = bucketed_groupby(with_df, ["id"], lambda b: b, fold_sets).materialize()

    def explode_prefix(batch: pd.DataFrame) -> pd.DataFrame:
        pref = [p.split(_SEP) for p in batch["prefix"]]
        counts = np.fromiter((len(p) for p in pref), dtype=np.int64, count=len(pref))
        return pd.DataFrame(
            {
                "tok": np.concatenate([np.asarray(p, dtype=object) for p in pref])
                if len(pref)
                else np.array([], dtype=object),
                "id": np.repeat(batch["id"].to_numpy().astype(np.int64), counts),
                "size": np.repeat(batch["size"].to_numpy().astype(np.int64), counts),
            }
        )

    prefix_rows = sets.map_batches(explode_prefix, batch_format="pandas")

    def emit_candidates(group: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in group.groupby("tok", sort=False):
            u = g.drop_duplicates(subset=["id"])
            ids = u["id"].to_numpy().astype(np.int64)
            sz = u["size"].to_numpy().astype(np.int64)
            k = len(ids)
            if k < 2:
                continue
            i, j = np.triu_indices(k, k=1)
            lo, hi = np.minimum(sz[i], sz[j]), np.maximum(sz[i], sz[j])
            # J >= t forces t*max <= |intersection| <= min; the 1e-9 slack
            # keeps float roundoff from rejecting an exact-boundary pair
            # (over-admitting is safe — verify is exact)
            ok = threshold * hi <= lo + 1e-9
            if not ok.any():
                continue
            a, b = ids[i][ok], ids[j][ok]
            outs.append(pd.DataFrame({"id_a": np.minimum(a, b), "id_b": np.maximum(a, b)}))
        if not outs:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype=np.int64), "id_b": pd.Series([], dtype=np.int64)}
            )
        return pd.concat(outs, ignore_index=True)

    # materialized: verify's first exchange peeks the schema of its union,
    # which would EXECUTE this shuffle-ending pipeline once just for the
    # schema (the repo's join/verify contract — all verify callers do this)
    cands = bucketed_groupby(prefix_rows, ["tok"], lambda b: b, emit_candidates).materialize()

    from ndap_data_validator_ray.stages.dedup_near import verify_pairs_distributed

    payload = sets.map_batches(lambda b: b[["id", "payload"]], batch_format="pandas")
    scored = verify_pairs_distributed(
        cands,
        payload,
        id_col="id",
        payload_col="payload",
        scorer=_jaccard_scorer,
        score_col="jaccard",
        as_dataset=as_dataset,
    )
    if as_dataset:
        return scored.map_batches(
            lambda b: b[b["jaccard"] >= threshold][["id_a", "id_b", "jaccard"]],
            batch_format="pandas",
        )
    kept = scored[scored["jaccard"] >= threshold][["id_a", "id_b", "jaccard"]]
    if kept.empty:
        return _EMPTY.copy()
    kept["id_a"] = kept["id_a"].astype(np.int64)
    kept["id_b"] = kept["id_b"].astype(np.int64)
    return kept.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def weighted_cosine_join(
    rows: "ray.data.Dataset",
    id_col: str,
    token_col: str,
    weight_col: str,
    threshold: float,
    round_to: int = 6,
) -> pd.DataFrame:
    """Exact WEIGHTED cosine set-similarity self-join — the tf-idf sibling
    of ``allpairs_jaccard_join`` (reference parity: the unweighted set
    joins above; the weighting follows the classic sparse
    document-similarity formulation, cf. Bayardo et al. WWW'07 §2).

    ``rows``: exploded sparse vectors — one (id, token, weight) row per
    nonzero coordinate, (id, token) UNIQUE, weights nonzero (a zero
    weight contributes nothing to the dot product but would poison the
    norm of an all-zero vector; callers drop such rows — the tf-idf
    caller guarantees w > 0 by construction).  Returns
    (id_a, id_b, cosine) pairs with ROUND(cosine, round_to) >=
    ``threshold``, id_a < id_b, sorted.

    Distributed shape (no driver state until the final thresholded pair
    list, which is O(true matches)):

    1. squared norms — ``sum_by_key(id)`` over w^2;
    2. norms attach back via the guarded ``attach_or_join`` (broadcast
       under the cap, bucketed hash join above) and each row normalizes
       in place: nw = w / sqrt(||w||^2);
    3. inverted-index exchange keyed by token: within one token's
       posting list every id pair (``np.triu_indices``, no row loops)
       emits a partial product nw_a * nw_b; partials PRE-SUM per
       (id_a, id_b) inside the reducer before the next exchange;
    4. global pair sum — ``sum_by_key((id_a, id_b))`` — then a
       distributed threshold filter on the ROUNDED value; only
       qualifying pairs reach the driver.

    Scale posture: step-3 fanout is sum over tokens of C(df, 2) — the
    caller bounds it with a document-frequency cut (high-df tokens carry
    ~zero idf weight anyway), the same lever AllPairs' prefix filter
    automates for the unweighted case.  Cosine is a float SUM whose
    order differs between engine and any oracle — compare ROUNDED values
    (the queries-module convention); per-element products are IEEE-exact
    twins.
    """

    def sq(b: pd.DataFrame) -> pd.DataFrame:
        w = b[weight_col].to_numpy(np.float64)
        return pd.DataFrame({"id": b[id_col].to_numpy(np.int64), "_w2": w * w})

    norms = sum_by_key(
        rows.map_batches(sq, batch_format="pandas"), ["id"], ["_w2"]
    ).materialize()

    def slim(b: pd.DataFrame) -> pd.DataFrame:
        # the fact side was renamed id_col -> "id" before the attach
        return pd.DataFrame(
            {
                "tok": b[token_col].astype(str).to_numpy(),
                "id": b["id"].to_numpy(np.int64),
                "_nw": b[weight_col].to_numpy(np.float64) / np.sqrt(b["_w2"].to_numpy(np.float64)),
            }
        )

    renamed = rows.map_batches(
        lambda b: b.rename(columns={id_col: "id"}) if id_col != "id" else b,
        batch_format="pandas",
    )
    normalized = attach_or_join(renamed, norms, on_fact="id", on_side="id", attach_cols=["_w2"])
    posting = normalized.map_batches(slim, batch_format="pandas")

    def pair_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["tok", "id"], kind="stable")
        ids = g["id"].to_numpy(np.int64)
        nw = g["_nw"].to_numpy(np.float64)
        codes = pd.factorize(g["tok"].to_numpy())[0]
        sizes = np.bincount(codes)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        out_a, out_b, out_p = [], [], []
        for s, n in zip(starts, sizes):
            if n < 2:
                continue
            ia, ib = np.triu_indices(int(n), 1)
            out_a.append(ids[s + ia])
            out_b.append(ids[s + ib])
            out_p.append(nw[s + ia] * nw[s + ib])
        if not out_a:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=np.int64),
                    "id_b": pd.Series([], dtype=np.int64),
                    "p": pd.Series([], dtype=np.float64),
                }
            )
        part = pd.DataFrame(
            {
                "id_a": np.concatenate(out_a),
                "id_b": np.concatenate(out_b),
                "p": np.concatenate(out_p),
            }
        )
        return part.groupby(["id_a", "id_b"], as_index=False)["p"].sum()

    partials = bucketed_groupby(posting, ["tok"], lambda b: b, pair_partials)
    totals = sum_by_key(partials, ["id_a", "id_b"], ["p"])

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        c = np.round(b["p"].to_numpy(np.float64), round_to)
        m = c >= threshold
        return pd.DataFrame(
            {
                "id_a": b["id_a"].to_numpy(np.int64)[m],
                "id_b": b["id_b"].to_numpy(np.int64)[m],
                "cosine": c[m],
            }
        )

    out = totals.map_batches(keep, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "id_a": pd.Series([], dtype=np.int64),
                "id_b": pd.Series([], dtype=np.int64),
                "cosine": pd.Series([], dtype=np.float64),
            }
        )
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
