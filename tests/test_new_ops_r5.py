"""Round-5 gates: distributed edge-list clustering (no driver hop), Q10
broadcast-size guard, vectorized pair kernels, simhash memory chunking."""

import numpy as np
import pandas as pd
import pytest
import ray

SF = "/root/testdata/sf0.001"


# --- Q10 broadcast-size guard (round-4 verdict item 2) ----------------------

def test_q10_join_fallback(monkeypatch):
    """Forcing the broadcast cap to 0 routes the windowed orders side
    through bucketed_join; both paths must emit identical rows."""
    import ndap_data_validator_ray.pipelines.queries as q

    broadcast = q.tpch_q10_returned_items(SF)
    monkeypatch.setattr(q, "_Q10_BROADCAST_CAP", 0)
    joined = q.tpch_q10_returned_items(SF)
    pd.testing.assert_frame_equal(broadcast, joined)
    assert len(broadcast) == 20


def test_attach_or_join_property():
    """Both attach_or_join paths match a pandas inner merge on random
    inputs (duplicate fact keys, side misses) — hypothesis-style sweep
    with a fixed seed battery."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join

    rng = np.random.default_rng(17)
    for trial in range(6):
        n_fact, n_side = rng.integers(1, 60), rng.integers(1, 20)
        fact = pd.DataFrame(
            {
                # nullable Int64: ~10% null fact keys must DROP on both paths
                "k": pd.array(
                    [None if rng.random() < 0.1 else int(v) for v in rng.integers(0, 25, n_fact)],
                    dtype="Int64",
                ),
                "fv": rng.integers(0, 1000, n_fact).astype(np.int64),
            }
        )
        side = pd.DataFrame(
            {
                "sk": np.random.default_rng(trial).permutation(25)[:n_side].astype(np.int64),
                "sv": rng.integers(0, 1000, n_side).astype(np.int64),
            }
        )
        want = (
            fact.merge(side, left_on="k", right_on="sk")[["k", "fv", "sv"]]
            .sort_values(["k", "fv", "sv"])
            .reset_index(drop=True)
        )
        for cap in (10**6, 0):  # broadcast path, then forced join path
            got_df = attach_or_join(
                ray.data.from_pandas(fact).repartition(3),
                ray.data.from_pandas(side).repartition(2),
                "k",
                "sk",
                ["sv"],
                cap=cap,
            ).to_pandas()
            if want.empty:
                assert len(got_df) == 0  # empty result may drop its schema
                continue
            got = (
                got_df[["k", "fv", "sv"]]
                .astype(np.int64)
                .sort_values(["k", "fv", "sv"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_attach_or_join_fallback_equivalence(monkeypatch):
    """Forcing DEFAULT_BROADCAST_CAP=0 routes every attach_or_join caller
    (Q4/Q7/Q8's windowed-orders maps) through bucketed_join; results must
    be identical to the broadcast path."""
    import ndap_data_validator_ray.stages.broadcast as bc
    import ndap_data_validator_ray.pipelines.queries as q

    fns = [q.tpch_q4_order_priority, q.tpch_q7_volume_shipping, q.tpch_q8_market_share]
    broadcast_res = [f(SF) for f in fns]
    monkeypatch.setattr(bc, "DEFAULT_BROADCAST_CAP", 0)
    for f, want in zip(fns, broadcast_res):
        pd.testing.assert_frame_equal(f(SF), want)


# --- as_dataset verify path (round-4 verdict item 1) -------------------------

def _near_dup_corpus() -> pd.DataFrame:
    base = "the quick brown fox jumps over the lazy dog " * 8
    rows = []
    for i in range(40):
        if i % 4 == 0 and i > 0:
            rows.append((i, base + f" tail{i}"))
        else:
            rows.append((i, f"unique document number {i} " + " ".join(f"w{i}_{j}" for j in range(60))))
    return pd.DataFrame({"doc_id": np.array([r[0] for r in rows], dtype=np.int64),
                         "text": [r[1] for r in rows]})


def test_minhash_as_dataset_equals_pandas():
    """Dataset-returning mode is the same edge set as the pandas return —
    the 100 TB path (verify reducers -> CC, no driver hop) loses nothing."""
    from ndap_data_validator_ray.stages.dedup_near import minhash_lsh_pairs

    ds = ray.data.from_pandas(_near_dup_corpus()).repartition(4)
    p_pd = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, concurrency=2)
    p_ds = (
        minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, concurrency=2, as_dataset=True)
        .to_pandas()[["id_a", "id_b", "sim"]]
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(p_pd, p_ds)
    assert len(p_pd) > 0


def test_near_dup_clusters_planted_trio_distributed():
    """LSH -> distributed verify (as_dataset) -> distributed CC, end to end
    with a planted near-dup trio: all three land in one cluster whose rep
    is the min doc_id, with no pandas hop between verify and CC."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.dedup_near import minhash_lsh_pairs

    df = _near_dup_corpus()
    ds = ray.data.from_pandas(df).repartition(4)
    edges = (
        minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, concurrency=2, as_dataset=True)
        .map_batches(lambda b: b[["id_a", "id_b"]], batch_format="pandas")
        .materialize()
    )
    assert edges.count() > 0
    comp = distributed_connected_components(edges, small_graph_cap=0).to_pandas()
    planted = {i for i in range(40) if i % 4 == 0 and i > 0}
    got = comp.set_index("node")["component"].to_dict()
    assert planted <= set(got)
    assert {got[i] for i in planted} == {min(planted)}


def test_verify_pairs_missing_payload_dropped():
    """A candidate id with no payload row is dropped (never reaches the
    scorer as None) — the generic-primitive guard."""
    from ndap_data_validator_ray.stages.dedup_near import verify_pairs_distributed

    cands = ray.data.from_pandas(
        pd.DataFrame({"id_a": np.array([1, 1, 7], dtype=np.int64),
                      "id_b": np.array([2, 99, 98], dtype=np.int64)})
    )
    payload = ray.data.from_pandas(
        pd.DataFrame({"id": np.array([1, 2, 7], dtype=np.int64),
                      "val": ["aa", "ab", "zz"]})
    )

    def scorer(a: pd.Series, b: pd.Series) -> np.ndarray:
        assert not a.isna().any() and not b.isna().any()
        return np.array([1.0 if x[0] == y[0] else 0.0 for x, y in zip(a, b)])

    out = verify_pairs_distributed(cands, payload, "id", "val", scorer, "s")
    got = set(zip(out["id_a"], out["id_b"]))
    assert got == {(1, 2)}  # pairs touching 98/99 dropped, (1,2) scored


# --- PQ ANN ------------------------------------------------------------------

def test_knn_pq_recall_floor():
    """PQ + exact re-rank recall@10 vs the oracled exact brute force:
    measured 1.0 at both fixtures (rerank=80 recovers ADC misordering);
    floor with margin."""
    from ndap_data_validator_ray.pipelines.queries import knn_pq_recall

    r = knn_pq_recall(SF)
    assert len(r) == 5
    assert r["recall_at_10"].mean() >= 0.9
    assert r["recall_at_10"].min() >= 0.8


# --- distributed PageRank ----------------------------------------------------

def test_distributed_pagerank_matches_numpy():
    """Star + chain + isolated-pair graph vs a dense numpy power
    iteration with identical arithmetic (per-edge damping*rank/deg,
    two-term sums) — exact to float64."""
    from ndap_data_validator_ray.stages.pagerank import distributed_pagerank

    edges = pd.DataFrame(
        {
            "id_a": np.array([1, 1, 1, 10, 11, 12, 20], dtype=np.int64),
            "id_b": np.array([2, 3, 4, 11, 12, 13, 21], dtype=np.int64),
        }
    )
    got = (
        distributed_pagerank(ray.data.from_pandas(edges).repartition(3), iters=5, damping=0.85)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )

    # numpy reference on the symmetrized graph
    sym = pd.concat(
        [edges, edges.rename(columns={"id_a": "id_b", "id_b": "id_a"})]
    ).drop_duplicates()
    nodes = np.sort(pd.unique(pd.concat([sym["id_a"], sym["id_b"]])))
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    deg = sym.groupby("id_a").size()
    r = np.full(n, 1.0 / n)
    for _ in range(5):
        nxt = np.full(n, (1.0 - 0.85) / n)
        for _, e in sym.iterrows():
            nxt[idx[e["id_b"]]] += 0.85 * r[idx[e["id_a"]]] / deg[e["id_a"]]
        r = nxt
    want = pd.DataFrame({"node": nodes, "rank": r})
    assert np.allclose(got["rank"].to_numpy(), want["rank"].to_numpy(), atol=1e-12)
    assert (got["node"].to_numpy() == want["node"].to_numpy()).all()
    assert abs(got["rank"].sum() - 1.0) < 1e-9  # rank mass conserved (no dangling nodes)


# --- vectorized kernels -----------------------------------------------------

def test_popcount64_matches_python():
    from ndap_data_validator_ray.functions.hashing import popcount64

    rng = np.random.default_rng(3)
    x = rng.integers(0, 2**63, 500, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    want = np.array([bin(int(v)).count("1") for v in x], dtype=np.int64)
    assert (popcount64(x) == want).all()
    assert (popcount64(np.array([0, 2**64 - 1], dtype=np.uint64)) == [0, 64]).all()


def test_simhash_batch_chunking_value_identical():
    from ndap_data_validator_ray.functions.hashing import simhash64_batch

    rng = np.random.default_rng(5)
    th = rng.integers(0, 2**64, 4000, dtype=np.uint64)
    cuts = np.sort(rng.choice(np.arange(1, 4000), 25, replace=False))
    offs = np.concatenate([[0], cuts, [4000, 4000]])  # includes an empty doc
    full = simhash64_batch(th, offs)
    chunked = simhash64_batch(th, offs, max_tokens_per_pass=97)
    assert (full == chunked).all()
    assert full[-1] == 0  # empty doc -> signature 0


# --- curation checkpoint/resume (round-4 verdict item 5) ---------------------

def _curation_corpus(tmp: str) -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = []
    for i in range(300):
        if i % 7 == 0:
            rows.append("short text")  # fails min_tokens
        elif i % 5 == 0:
            rows.append(
                "duplicated prefix content identical for every copy "
                + " ".join(f"word{j} extra{j}" for j in range(20))
            )
        else:
            rows.append(f"document {i} " + " ".join(f"alpha{i} beta{j} gamma{i+j}" for j in range(15)))
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64), "text": rows})
    import os

    os.makedirs(tmp + "/data", exist_ok=True)
    pq.write_table(pa.Table.from_pandas(df[:150], preserve_index=False), tmp + "/data/a.parquet")
    pq.write_table(pa.Table.from_pandas(df[150:], preserve_index=False), tmp + "/data/b.parquet")
    return tmp + "/data"


def test_curation_kill_and_resume(tmp_path):
    """Kill-and-resume: delete half the bucket manifests (+ their kept
    files) after a full run; the rerun must skip the surviving buckets,
    redo only the killed ones, report byte-identical funnel counts, and
    never double-write survivors."""
    import glob
    import os

    from ndap_data_validator_ray.pipelines.curation import curate_documents

    tmp = str(tmp_path)
    data = _curation_corpus(tmp)
    out = tmp + "/out"

    s1 = curate_documents(data, out, n_buckets=16)
    assert s1["input_docs"] == 300 and s1["final_kept"] > 0
    kept1 = (
        pd.concat([pd.read_parquet(f) for f in sorted(glob.glob(out + "/kept/*.parquet"))])
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert kept1["doc_id"].is_unique

    # simulate a mid-run kill: half the buckets never committed
    mans = sorted(glob.glob(out + "/checkpoints/partition-*.json"))
    killed = mans[::2]
    for m in killed:
        pid = int(m.split("partition-")[1].split(".")[0])
        os.remove(m)
        kf = out + f"/kept/bucket-{pid:05d}.parquet"
        if os.path.exists(kf):
            os.remove(kf)

    s2 = curate_documents(data, out, n_buckets=16)
    for k in ("input_docs", "quality_kept", "dedup_kept", "final_kept"):
        assert s2[k] == s1[k], k
    assert s2["buckets_resumed"] == len(mans) - len(killed)
    assert s2["buckets_validated_this_run"] == len(killed)
    kept2 = (
        pd.concat([pd.read_parquet(f) for f in sorted(glob.glob(out + "/kept/*.parquet"))])
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(kept1, kept2)

    # parameter change invalidates every manifest (lineage covers params)
    s3 = curate_documents(data, out, n_buckets=16, min_tokens=25)
    assert s3["buckets_resumed"] == 0


def test_curation_input_change_invalidates(tmp_path):
    """Rewriting an input shard (same name) flips the content-addressed
    lineage: no bucket may resume from the stale manifests."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.curation import curate_documents

    tmp = str(tmp_path)
    data = _curation_corpus(tmp)
    out = tmp + "/out"
    s1 = curate_documents(data, out, n_buckets=8)
    assert s1["buckets_resumed"] == 0
    df = pd.read_parquet(data + "/a.parquet")
    df.loc[1, "text"] = "entirely new content " + " ".join(f"fresh{j} token{j}" for j in range(25))
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), data + "/a.parquet")
    s2 = curate_documents(data, out, n_buckets=8)
    assert s2["buckets_resumed"] == 0


def test_simhash_pairs_unchanged_by_vectorized_verify():
    """Pairwise-matrix Hamming verify emits the same pair set as the
    planted-dup expectation (exact recall at Hamming<=3 by pigeonhole)."""
    from ndap_data_validator_ray.stages.dedup_near import simhash_near_pairs

    df = _near_dup_corpus()
    ds = ray.data.from_pandas(df).repartition(3)
    pairs = simhash_near_pairs(ds, "text", "doc_id", max_hamming=3, concurrency=2)
    planted = {i for i in range(40) if i % 4 == 0 and i > 0}
    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        assert a in planted and b in planted  # no false pairs among uniques
    # every planted doc appears in at least one pair
    assert planted <= (set(pairs["id_a"]) | set(pairs["id_b"]))


# --- CC small-graph guard (round 5b) -----------------------------------------

def test_cc_small_graph_path_matches_distributed():
    """The guarded driver fast path and the distributed rounds produce
    identical (node, component) labelings — random graphs, with and
    without an isolated-node ``nodes=`` superset."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components

    rng = np.random.default_rng(7)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n_edges = int(rng.integers(5, 120))
        a = rng.integers(0, 90, n_edges).astype(np.int64)
        b = rng.integers(0, 90, n_edges).astype(np.int64)
        edges = pd.DataFrame({"id_a": a, "id_b": b})
        nodes = pd.DataFrame({"node": np.arange(100, dtype=np.int64)})  # superset: 90..99 isolated

        def run(cap):
            return (
                distributed_connected_components(
                    ray.data.from_pandas(edges).repartition(3),
                    nodes=ray.data.from_pandas(nodes),
                    small_graph_cap=cap,
                )
                .to_pandas()
                .sort_values("node")
                .reset_index(drop=True)
                .astype({"node": np.int64, "component": np.int64})
            )

        fast, dist = run(None), run(0)
        pd.testing.assert_frame_equal(fast, dist)
        # isolated nodes label themselves on both paths
        assert (fast.loc[fast["node"] >= 90, "component"].to_numpy() == np.arange(90, 100)).all()


def test_cc_small_graph_cap_boundary():
    """cap semantics: sym rows <= cap -> driver path; the distributed path
    engages just above (pinned via a 1-row cap on a 2-edge graph), and an
    empty edge list with nodes= labels every node as itself."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components

    edges = pd.DataFrame({"id_a": np.array([1, 3], dtype=np.int64), "id_b": np.array([2, 4], dtype=np.int64)})
    nodes = pd.DataFrame({"node": np.arange(6, dtype=np.int64)})
    for cap in (1, 4, 1000):  # sym rows = 4: cap 1 -> distributed, 4/1000 -> driver
        out = (
            distributed_connected_components(
                ray.data.from_pandas(edges),
                nodes=ray.data.from_pandas(nodes),
                small_graph_cap=cap,
            )
            .to_pandas()
            .set_index("node")["component"]
        )
        assert out.loc[2] == 1 and out.loc[4] == 3 and out.loc[5] == 5 and out.loc[0] == 0

    empty = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64), "id_b": pd.Series([], dtype=np.int64)})
    out = (
        distributed_connected_components(
            ray.data.from_pandas(empty), nodes=ray.data.from_pandas(nodes)
        )
        .to_pandas()
        .sort_values("node")
    )
    assert (out["node"].to_numpy() == out["component"].to_numpy()).all() and len(out) == 6


def test_semantic_dedup_survivors_planted(tmp_path):
    """Planted near-identical vectors inside one sign-cell collapse to one
    survivor (min id); a near-identical pair SPLIT across cells survives
    twice (the documented SemDeDup trade-off); isolated vectors survive."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import semantic_dedup_survivors

    rng = np.random.default_rng(3)
    base = rng.normal(size=8); base[0] = abs(base[0]) + 1.0; base[1] = abs(base[1]) + 1.0
    rows = []
    for i in range(3):  # trio: same cell (dims 0,1 positive), cosine ~1
        v = base + rng.normal(scale=1e-3, size=8)
        rows.append((10 + i, v))
    flip = base.copy(); flip[0] = -flip[0]  # near-dup of base but other cell
    rows.append((20, flip))
    flip2 = flip + rng.normal(scale=1e-3, size=8)
    rows.append((21, flip2))
    for i in range(5):  # isolated: orthogonal-ish random
        v = rng.normal(size=8) * 0.1; v[4 + (i % 4)] = 10.0 * (1 if i % 2 else -1)
        rows.append((30 + i, v))
    tbl = pa.table({
        "vec_id": pa.array([r[0] for r in rows], pa.int64()),
        "embedding": pa.array([np.asarray(r[1], dtype=np.float32) for r in rows],
                              pa.list_(pa.float32())),
    })
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    out = semantic_dedup_survivors(str(tmp_path))
    got = set(out["vec_id"])
    assert 10 in got and 11 not in got and 12 not in got   # trio -> min id
    assert 20 in got and 21 not in got                      # flip pair -> min id
    assert got >= {30, 31, 32, 33, 34}                      # isolated survive


def test_boilerplate_and_debounce_vs_duckdb(tmp_path):
    """Planted corpora through the full query fns vs their own oracle SQL
    (fixture-independent parity, beyond the driver-gate fixtures)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import (
        _BOILERPLATE_SQL, _DEBOUNCE_SQL, boilerplate_fraction_documents, debounce_events,
    )

    boiler = "all rights reserved contact us for details"
    docs = [(i, f"{boiler} unique body {i} " + " ".join(f"w{i}x{j}" for j in range(6))) for i in range(8)]
    docs += [(100, "short one"), (101, ""), (102, None)]
    pq.write_table(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    }), str(tmp_path / "documents.parquet"))

    ts = pd.Timestamp("2024-01-01")
    ev = pd.DataFrame({
        "event_id": np.arange(12, dtype=np.int64),
        "user_id": np.array([1] * 8 + [2] * 4, dtype=np.int64),
        "event_type": ["click"] * 6 + ["view"] * 2 + ["click"] * 4,
        "ts": [ts + pd.Timedelta(seconds=s) for s in
               [0, 10, 599, 600, 1500, 1500, 0, 700, 0, 599, 1199, 1800]],
    })
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False), str(tmp_path / "events.parquet"))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")

    got = boilerplate_fraction_documents(str(tmp_path)).reset_index(drop=True)
    want = con.execute(_BOILERPLATE_SQL).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.astype({"doc_id": np.int64}))
    assert got.loc[got["doc_id"] == 0, "boilerplate_frac"].iloc[0] > 0.3  # planted boilerplate found
    assert (got.loc[got["doc_id"] >= 100, "boilerplate_frac"] == 0.0).all()

    got_e = debounce_events(str(tmp_path)).reset_index(drop=True)
    want_e = con.execute(_DEBOUNCE_SQL).df().astype({"event_id": np.int64}).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_e, want_e)
    # duplicate-ts pair at 1500s: LAG gap 0 -> second one dropped
    assert 4 in set(got_e["event_id"]) and 5 not in set(got_e["event_id"])


def test_unigram_nll_oov_floor(tmp_path):
    """A rare token (count < 3) must hit the 1/total OOV floor on both
    sides — the fixture corpus never exercises it (every fixture token
    has count >= 3), so this planted corpus pins the vocab threshold."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import _UNIGRAM_NLL_SQL, unigram_nll_documents

    docs = [(0, "common common common rareword"), (1, "common common common"),
            (2, ""), (3, None)]
    pq.write_table(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    }), str(tmp_path / "documents.parquet"))
    got = unigram_nll_documents(str(tmp_path)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    want = con.execute(_UNIGRAM_NLL_SQL).df().astype({"doc_id": np.int64}).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # rareword (count 1 < 3) floors at 1/total=1/7: doc 0 is strictly
    # more surprising than doc 1; empty/null docs score 0
    a = got.set_index("doc_id")["avg_nll"]
    assert a[0] > a[1] > 0.0 and a[2] == 0.0 and a[3] == 0.0


def test_dsir_importance_direction(tmp_path):
    """DSIR log importance weights must be POSITIVE for docs made of
    target-heavy (en) tokens and NEGATIVE for docs made of raw-only
    tokens — and the score is a function of CONTENT only: a zh doc with
    en-typical text scores identically to its en twin (the resampling
    property the paper relies on).  Also value-checked vs the SQL twin
    on this planted corpus (the fixture never isolates token ownership
    this cleanly)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import _DSIR_SQL, dsir_importance_documents

    # token counts must dwarf the +1/+1024 smoothing for the sign to be
    # driven by the distributions rather than the smoothing constants
    en_text = " ".join(["target"] * 400 + ["alpha"] * 100)
    zh_text = " ".join(["noise"] * 400 + ["gamma"] * 100)
    docs = [
        (0, en_text, "en"), (1, en_text, "en"), (2, en_text, "en"),
        (3, zh_text, "zh"), (4, zh_text, "zh"), (5, zh_text, "zh"),
        (6, en_text, "zh"),  # en-typical content, non-target label
        (7, "", "en"), (8, None, "zh"),
    ]
    pq.write_table(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
        "lang": pa.array([d[2] for d in docs], pa.string()),
    }), str(tmp_path / "documents.parquet"))
    got = dsir_importance_documents(str(tmp_path)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    want = con.execute(_DSIR_SQL).df().astype({"doc_id": np.int64}).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    s = got.set_index("doc_id")["log_iw"]
    assert s[0] > 0 > s[3]          # target-like up-weighted, raw-only down
    assert s[6] == s[0]             # content-only: label doesn't enter the score
    assert s[7] == 0.0 and s[8] == 0.0


def test_weighted_sample_is_weighted_and_deterministic():
    """The A-ES sample must equal the brute-force k-smallest exponential
    keys computed directly (selection is a pure function of the data,
    so reruns and block splits can't change it), and planted weights
    must steer it: a doc with overwhelming weight always wins slot 1."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import tempfile

    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.pipelines.queries import weighted_sample_documents

    with tempfile.TemporaryDirectory() as td:
        ids = np.arange(200, dtype=np.int64)
        n_chars = np.full(200, 10, dtype=np.int64)
        n_chars[7] = 10**9  # overwhelming weight -> key ~ 0
        pq.write_table(pa.table({"doc_id": ids, "n_chars": n_chars}), f"{td}/documents.parquet")
        got = weighted_sample_documents(td)
        u = (md5_lower64_batch([str(i) for i in ids]).astype(np.float64) + 0.5) / 2.0**64
        key = -np.log(u) / np.maximum(n_chars.astype(np.float64), 1.0)
        order = np.lexsort((ids, key))[:50]
        assert got["doc_id"].tolist() == ids[order].tolist()
        assert got["doc_id"].iloc[0] == 7
        np.testing.assert_allclose(got["priority"].to_numpy(), np.round(key[order], 6), atol=1e-12)


def test_lexical_diversity_known_values(tmp_path):
    """TTR and char entropy must hit hand-computed values on a planted
    corpus (including empty/null/single-char edge docs) and match the
    SQL twin frame-exactly — the fixture never isolates these shapes."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import (
        _LEXICAL_DIVERSITY_SQL,
        lexical_diversity_documents,
    )

    docs = [
        (0, "aa bb aa"),   # 3 tokens / 2 distinct; chars a:4 b:2 ' ':2 of 8
        (1, "x"),          # single char: entropy exactly 0
        (2, ""),           # empty
        (3, None),         # null
        (4, "a a a a"),    # ttr 0.25
    ]
    pq.write_table(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    }), str(tmp_path / "documents.parquet"))
    got = lexical_diversity_documents(str(tmp_path)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    want = con.execute(_LEXICAL_DIVERSITY_SQL).df().astype(
        {"doc_id": np.int64, "n_tokens": np.int64, "distinct_tokens": np.int64}
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    r0 = got.set_index("doc_id").loc[0]
    assert (r0["n_tokens"], r0["distinct_tokens"], r0["ttr"]) == (3, 2, round(2 / 3, 6))
    # H = -(1/2 ln 1/2 + 1/4 ln 1/4 + 1/4 ln 1/4)
    h = -(0.5 * np.log(0.5) + 2 * 0.25 * np.log(0.25))
    assert r0["char_entropy"] == round(h, 6)
    e = got.set_index("doc_id")
    assert e.loc[1, "char_entropy"] == 0.0 and e.loc[2, "ttr"] == 0.0
    assert e.loc[3, "n_tokens"] == 0 and e.loc[4, "ttr"] == 0.25


def test_zipf_slope_planted(tmp_path):
    """A corpus built with exact count = floor(1000 / rank) must fit a
    slope near -1 (Zipf), with vocab/total exact; and the engine frame
    must equal the SQL twin."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import _ZIPF_SLOPE_SQL, zipf_slope_documents

    toks: list = []
    for r in range(1, 41):
        toks.extend([f"tok{r:03d}"] * (1000 // r))
    # split across docs so per-batch partials + the exchange both engage
    texts = [" ".join(toks[i::7]) for i in range(7)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(7), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(tmp_path / "documents.parquet"))
    got = zipf_slope_documents(str(tmp_path)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    want = con.execute(_ZIPF_SLOPE_SQL).df().astype(
        {"n_vocab": np.int64, "total_tokens": np.int64}
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert got["n_vocab"][0] == 40
    assert got["total_tokens"][0] == sum(1000 // r for r in range(1, 41))
    assert -1.1 < got["slope"][0] < -0.9


def test_dup_span_coverage_planted(tmp_path):
    """Coverage must equal the union of duplicated 3-gram windows:
    overlapping windows merge (no double-count), a WITHIN-doc repeat
    counts as duplication, docs under 3 tokens are never covered, and
    unique text contributes nothing — hand-computed per doc and matched
    frame-exactly vs the SQL twin."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import (
        _DUP_SPAN_SQL,
        dup_span_coverage_documents,
    )

    docs = [
        # docs 0/1 share "a b c d": dup 3-grams "a b c"@0, "b c d"@1 in
        # both -> union [0,4) = 4 covered of 6 / of 4
        (0, "a b c d u1 u2"),
        (1, "a b c d"),
        # within-doc repeat: "x y z" at 0 and 3 -> covered {0,1,2} u {3,4,5} = 6 of 6
        (2, "x y z x y z"),
        (3, "p q"),            # too short for any 3-gram
        (4, "only unique words here nine"),  # no dup grams
        (5, ""), (6, None),
    ]
    pq.write_table(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    }), str(tmp_path / "documents.parquet"))
    got = dup_span_coverage_documents(str(tmp_path)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    want = con.execute(_DUP_SPAN_SQL).df().astype(
        {"doc_id": np.int64, "n_tokens": np.int64, "dup_tokens": np.int64}
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    e = got.set_index("doc_id")
    assert e.loc[0, "dup_tokens"] == 4 and e.loc[0, "dup_frac"] == round(4 / 6, 6)
    assert e.loc[1, "dup_tokens"] == 4 and e.loc[1, "dup_frac"] == 1.0
    assert e.loc[2, "dup_tokens"] == 6 and e.loc[2, "dup_frac"] == 1.0
    assert (e.loc[[3, 4, 5, 6], "dup_tokens"] == 0).all()


def test_r5_ops_block_split_invariance(tmp_path):
    """The new ops' distributed shapes (local top-k merge, per-batch
    partial folds, two-exchange span coverage) must be invariant to how
    Ray blocks the input: tiny row groups force multi-block reads, and
    every result must equal the single-block run byte-for-byte."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import (
        dsir_importance_documents,
        dup_span_coverage_documents,
        lexical_diversity_documents,
        weighted_sample_documents,
        zipf_slope_documents,
    )

    rng = np.random.RandomState(7)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(0, 30)).tolist()) or None
        for _ in range(60)
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(60), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array((["en", "zh", "fr"] * 20), pa.string()),
        "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
    })
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    pq.write_table(tbl, str(one / "documents.parquet"))
    pq.write_table(tbl, str(many / "documents.parquet"), row_group_size=7)

    for fn in (
        weighted_sample_documents, dsir_importance_documents,
        lexical_diversity_documents, zipf_slope_documents,
        dup_span_coverage_documents,
    ):
        a = fn(str(one)).reset_index(drop=True)
        b = fn(str(many)).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b), fn.__name__


def test_lexical_and_dup_span_randomized_vs_sql(tmp_path):
    """Randomized (seeded) corpora sweep the kernels past the planted
    fixtures: mixed-length docs, unicode letters INSIDE tokens (DuckDB
    ``string_split(s,'')`` splits by codepoint exactly like Python
    iteration — verified incl. combining marks and astral plane), token
    runs, duplicated docs, empties and nulls.  Whitespace stays ASCII:
    RE2's ``\\s`` is ASCII while Python ``str.split()`` is unicode-aware
    — the repo-wide tokenizer-parity convention."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import (
        _DUP_SPAN_SQL,
        _LEXICAL_DIVERSITY_SQL,
        dup_span_coverage_documents,
        lexical_diversity_documents,
    )

    rng = np.random.RandomState(42)
    vocab = ["the", "héé", "data", "😀ok", "x", "ǽther", "spark", "row"]
    for trial in range(3):
        n = 40
        texts: list = []
        for i in range(n):
            k = rng.randint(0, 25)
            texts.append(" ".join(rng.choice(vocab, size=k).tolist()) if k else
                         rng.choice(["", None]))
        # plant exact duplicate docs so cross-doc 3-gram dups exist
        if texts[0]:
            texts[1] = texts[0]
        d = tmp_path / f"t{trial}"
        d.mkdir()
        pq.write_table(pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }), str(d / "documents.parquet"), row_group_size=9)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'")
        got = lexical_diversity_documents(str(d)).reset_index(drop=True)
        want = con.execute(_LEXICAL_DIVERSITY_SQL).df().astype(
            {"doc_id": np.int64, "n_tokens": np.int64, "distinct_tokens": np.int64}
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)
        got = dup_span_coverage_documents(str(d)).reset_index(drop=True)
        want = con.execute(_DUP_SPAN_SQL).df().astype(
            {"doc_id": np.int64, "n_tokens": np.int64, "dup_tokens": np.int64}
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


def test_cms_part_counts_planted_and_split_invariant(tmp_path):
    """CMS with md5-twin bucket hashes: planted lineitem with known key
    frequencies must (a) match the DuckDB sketch-cell recomputation
    byte-for-byte, (b) respect the one-sided error bound
    (cms_est >= exact_cnt for every reported key), and (c) be invariant
    to Ray's input blocking (the sketch is a fixed 4x1024 additive
    partial — block boundaries must not change any cell)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import _CMS_SQL, cms_part_counts

    rng = np.random.RandomState(11)
    # skewed key universe: key k appears ~(40 - k) times, keys 100.. are noise
    keys = np.concatenate(
        [np.repeat(k, 40 - k) for k in range(1, 31)]
        + [rng.randint(100, 5000, size=400)]
    ).astype(np.int64)
    rng.shuffle(keys)
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    tbl = pa.table({"l_partkey": pa.array(keys, pa.int64())})
    pq.write_table(tbl, str(one / "lineitem.parquet"))
    pq.write_table(tbl, str(many / "lineitem.parquet"), row_group_size=37)

    got = cms_part_counts(str(one)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{one}/lineitem.parquet'")
    want = con.execute(_CMS_SQL).df().astype(
        {"l_partkey": np.int64, "exact_cnt": np.int64, "cms_est": np.int64}
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)

    assert (got["cms_est"] >= got["exact_cnt"]).all()
    # top-20 must be the 20 heaviest planted keys (counts 39..20 -> keys 1..20)
    assert set(got["l_partkey"]) == set(range(1, 21))
    # ~430 distinct keys in 4x1024 cells: the heavy keys should be exact
    # (min over 4 rows kills any single-row collision) for most rows
    assert (got["cms_est"] == got["exact_cnt"]).mean() >= 0.8

    split = cms_part_counts(str(many)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, split)


def test_hll_distinct_users_both_branches_vs_sql(tmp_path):
    """Value-pinned HLL: planted events with one high-cardinality type
    (raw-estimate branch, ~3000 distinct users > 2.5m = 1280) and one
    low-cardinality type (linear-counting branch, 50 users) must (a)
    match the DuckDB register+estimate recomputation byte-for-byte in
    BOTH branches, (b) land within HLL's error envelope of the exact
    count (sigma = 1.04/sqrt(512) ~ 4.6%; assert 15%), and (c) be
    invariant to Ray's input blocking (registers are mergeable maxes)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import (
        _HLL_SQL,
        hll_distinct_users_by_type,
    )

    rng = np.random.RandomState(7)
    big_users = rng.choice(np.arange(10_000, 60_000), size=3000, replace=False)
    rows_big = rng.choice(big_users, size=9000)  # repeats: dedup must not matter
    rows_small = rng.choice(np.arange(1, 51), size=800)
    user_id = np.concatenate([rows_big, rows_small]).astype(np.int64)
    event_type = np.array(["view"] * len(rows_big) + ["buy"] * len(rows_small))
    order = rng.permutation(len(user_id))
    tbl = pa.table(
        {
            "event_type": pa.array(event_type[order]),
            "user_id": pa.array(user_id[order], pa.int64()),
        }
    )
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    pq.write_table(tbl, str(one / "events.parquet"))
    pq.write_table(tbl, str(many / "events.parquet"), row_group_size=251)

    got = hll_distinct_users_by_type(str(one)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{one}/events.parquet'")
    want = con.execute(_HLL_SQL).df().astype(
        {"n_users": np.int64, "hll_est": np.float64}
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)

    by_type = got.set_index("event_type")
    assert by_type.loc["view", "n_users"] == len(np.unique(rows_big))
    assert by_type.loc["view", "n_users"] > 1280  # raw-estimate branch
    assert by_type.loc["buy", "n_users"] == 50  # linear-counting branch
    rel_err = (got["hll_est"] - got["n_users"]).abs() / got["n_users"]
    assert (rel_err <= 0.15).all(), rel_err.tolist()

    split = hll_distinct_users_by_type(str(many)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, split)


def test_bloom_false_positives_planted_vs_sim_and_sql(tmp_path):
    """md5-twin Bloom: a planted orders/customer fixture sized so the
    4096-bit filter has a ~4-5% false-positive rate must (a) match a
    pure-Python Bloom simulation exactly, (b) match the DuckDB bit-array
    recomputation, (c) contain NO true members (no false negatives leak
    through: every member passes the filter and is then removed by the
    exact verify), and (d) be invariant to input blocking (set bits are
    mergeable ORs)."""
    import hashlib

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import (
        _BLOOM_FP_SQL,
        bloom_false_positives_customers,
    )

    members = np.arange(1, 601, dtype=np.int64)  # 600 urgent custkeys
    non_members = np.arange(10_000, 11_000, dtype=np.int64)  # 1000 probes
    rng = np.random.RandomState(3)
    # urgent orders cover every member (some repeated); noise rows are other priorities
    o_cust = np.concatenate([members, rng.choice(members, 400)])
    orders = pa.table(
        {
            "o_custkey": pa.array(np.concatenate([o_cust, non_members[:200]]), pa.int64()),
            "o_orderpriority": pa.array(
                ["1-URGENT"] * len(o_cust) + ["3-MEDIUM"] * 200
            ),
        }
    )
    customer = pa.table(
        {"c_custkey": pa.array(np.concatenate([members, non_members]), pa.int64())}
    )

    def md5l(s: str) -> int:
        return int.from_bytes(hashlib.md5(s.encode()).digest()[8:16], "little")

    bits = {md5l(f"{k}#{i}") % 4096 for k in members for i in range(3)}
    sim_fp = sorted(
        int(k) for k in non_members
        if all(md5l(f"{k}#{i}") % 4096 in bits for i in range(3))
    )
    assert len(sim_fp) >= 1  # fixture actually exercises the FP path

    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    pq.write_table(orders, str(one / "orders.parquet"))
    pq.write_table(customer, str(one / "customer.parquet"))
    pq.write_table(orders, str(many / "orders.parquet"), row_group_size=67)
    pq.write_table(customer, str(many / "customer.parquet"), row_group_size=113)

    got = bloom_false_positives_customers(str(one)).reset_index(drop=True)
    assert got["c_custkey"].tolist() == sim_fp  # exact vs pure-Python Bloom
    assert not set(got["c_custkey"]) & set(members)  # no member survives

    con = duckdb.connect()
    for t in ("orders", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{one}/{t}.parquet'")
    want = con.execute(_BLOOM_FP_SQL).df().astype({"c_custkey": np.int64}).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)

    split = bloom_false_positives_customers(str(many)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, split)


def test_token_kl_by_source_planted_vs_pandas_and_sql(tmp_path):
    """KL(P_source || P_corpus) over the top-200 vocab: a planted corpus
    with one source drawn from the corpus-mix distribution (low KL), one
    heavily skewed source (higher KL), must (a) match a pure-pandas
    recomputation, (b) match the DuckDB twin byte-for-byte, and (c) be
    invariant to input blocking (one token-bucketed exchange + local
    top-k)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import _TOKEN_KL_SQL, token_kl_by_source

    rng = np.random.RandomState(23)
    vocab = [f"w{i:03d}" for i in range(50)]
    probs_a = np.ones(50) / 50.0  # uniform
    probs_b = np.zeros(50); probs_b[:5] = 0.2  # all mass on 5 tokens
    texts, srcs = [], []
    for _ in range(120):
        texts.append(" ".join(rng.choice(vocab, size=40, p=probs_a)))
        srcs.append("uniform")
    for _ in range(120):
        texts.append(" ".join(rng.choice(vocab, size=40, p=probs_b)))
        srcs.append("skewed")
    tbl = pa.table({"source": pa.array(srcs), "text": pa.array(texts)})
    one = tmp_path / "one"; many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    pq.write_table(tbl, str(one / "documents.parquet"))
    pq.write_table(tbl, str(many / "documents.parquet"), row_group_size=17)

    got = token_kl_by_source(str(one)).reset_index(drop=True)

    # pure-pandas reference (same top-200 vocab rule; 50 distinct tokens here)
    rows = [(s, t) for s, txt in zip(srcs, texts) for t in txt.split()]
    df = pd.DataFrame(rows, columns=["source", "tok"])
    ctok = df.groupby("tok").size().sort_values(ascending=False)
    v = set(ctok.head(200).index)
    dfv = df[df["tok"].isin(v)]
    tot = float(len(dfv))
    q = dfv.groupby("tok").size() / tot
    want_rows = []
    for s, g in dfv.groupby("source"):
        p = g.groupby("tok").size() / float(len(g))
        want_rows.append((s, np.int64(len(g)),
                          round(float((p * np.log(p / q.loc[p.index])).sum()), 6)))
    want = pd.DataFrame(want_rows, columns=["source", "vocab_tokens", "kl"]) \
        .sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, atol=2e-6, rtol=0)

    # both sources diverge from the 50/50 corpus mix; the 5-token source
    # concentrates mass harder, so its KL is strictly larger
    s = got.set_index("source")["kl"]
    assert s["skewed"] > s["uniform"] > 0

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{one}/documents.parquet'")
    sql = con.execute(_TOKEN_KL_SQL).df().astype(
        {"vocab_tokens": np.int64, "kl": np.float64}
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, sql)

    split = token_kl_by_source(str(many)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, split)


def test_tfidf_cosine_pairs_planted_both_paths(tmp_path, monkeypatch):
    """weighted_cosine_join end-to-end through the tfidf query: a planted
    corpus (exact dup pair, a partial overlap, an unrelated doc, a null,
    a sub-gram-length doc) must match a local numpy brute force of the
    same formula, stay invariant to Ray blocking, and produce identical
    rows when the broadcast cap is zeroed (every attach takes the
    bucketed-join path — the 100 TB configuration)."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    import ndap_data_validator_ray.stages.broadcast as br
    from ndap_data_validator_ray.pipelines.queries import tfidf_cosine_pairs_documents

    base = (
        "the quick brown fox jumps over the lazy dog while the cat "
        "watches from the warm windowsill in the afternoon sun light"
    )
    other = (
        "completely different content about distributed query engines "
        "streaming arrow batches through an object store with backpressure"
    )
    texts = [base, base, base[: len(base) // 2] + other[: len(other) // 2],
             other, None, "tiny"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir()
    many.mkdir()
    pq.write_table(tbl, str(one / "documents.parquet"))
    pq.write_table(tbl, str(many / "documents.parquet"), row_group_size=2)

    # local brute force of the exact formula (k=8 grams, df<=100 & df<n,
    # w = tf * ln(n/df), cosine of normalized vectors, round 6, tau 0.5)
    n = len(texts)
    K = 8
    tfs = []
    for t in texts:
        s = t or ""
        grams = [s[i : i + K] for i in range(len(s) - K + 1)]
        cnt: dict = {}
        for g in grams:
            cnt[g] = cnt.get(g, 0) + 1
        tfs.append(cnt)
    df: dict = {}
    for cnt in tfs:
        for g in cnt:
            df[g] = df.get(g, 0) + 1
    vecs = []
    for cnt in tfs:
        w = {g: c * math.log(n / df[g]) for g, c in cnt.items() if df[g] <= 100 and df[g] < n}
        nr = math.sqrt(sum(v * v for v in w.values()))
        vecs.append({g: v / nr for g, v in w.items()} if nr else {})
    want = []
    for a in range(n):
        for b in range(a + 1, n):
            c = sum(vecs[a][g] * vecs[b].get(g, 0.0) for g in vecs[a])
            if round(c, 6) >= 0.5:
                want.append((a, b, round(c, 6)))
    expected = pd.DataFrame(want, columns=["id_a", "id_b", "cosine"])
    assert (0, 1) in {(r[0], r[1]) for r in want}  # the exact dup pair
    assert len(want) < (n * (n - 1)) // 2  # and NOT everything

    got = tfidf_cosine_pairs_documents(str(one))
    pd.testing.assert_frame_equal(
        got, expected.astype({"id_a": np.int64, "id_b": np.int64}), atol=1e-9
    )

    split = tfidf_cosine_pairs_documents(str(many))
    pd.testing.assert_frame_equal(got, split)

    monkeypatch.setattr(br, "DEFAULT_BROADCAST_CAP", 0)
    joined = tfidf_cosine_pairs_documents(str(one))
    pd.testing.assert_frame_equal(got, joined)


def test_clustering_coeff_planted(tmp_path):
    """Hand-checkable skip graph: one customer with orders 1..4 gives
    edges {12,23,34,13,24} — a 4-path with two chords.  Degrees
    (1:2, 2:3, 3:3, 4:2); triangles (123) and (234) touch (1:1, 2:2,
    3:2, 4:1).  Coefficients: 1 -> 1.0, 2 -> 2/3, 3 -> 2/3, 4 -> 1.0.
    A second customer with two orders (one edge, both deg 1) must be
    excluded entirely."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import order_skip_clustering_coeff

    tbl = pa.table(
        {
            "o_orderkey": pa.array([1, 2, 3, 4, 10, 11], pa.int64()),
            "o_custkey": pa.array([7, 7, 7, 7, 9, 9], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "orders.parquet"))
    got = order_skip_clustering_coeff(str(tmp_path))
    expected = pd.DataFrame(
        {
            "node": np.array([1, 2, 3, 4], dtype=np.int64),
            "degree": np.array([2, 3, 3, 2], dtype=np.int64),
            "triangles": np.array([1, 2, 2, 1], dtype=np.int64),
            "coeff": np.round([1.0, 2 / 3, 2 / 3, 1.0], 6),
        }
    )
    pd.testing.assert_frame_equal(got, expected)


def test_knn_hard_negatives_planted(tmp_path):
    """Planted two-cluster fixture: queries sit in cluster A (label 0);
    the nearest DIFFERENT-label vectors are the planted B vectors even
    though same-label A vectors are far more similar — every returned
    neighbor must carry another label, self never appears, and the top
    negative is the B vector tilted toward A."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import knn_hard_negatives

    rng = np.random.default_rng(3)
    a_dir = np.array([1.0, 0.0, 0.0, 0.0])
    b_dir = np.array([0.0, 1.0, 0.0, 0.0])
    vecs, labels = [], []
    for i in range(20):  # label 0 cluster, tight around a_dir
        vecs.append(a_dir + 0.01 * rng.standard_normal(4))
        labels.append(0)
    # label-1 vectors: one tilted 30% toward A (the expected top negative),
    # the rest orthogonal-ish
    tilted = 0.7 * b_dir + 0.3 * a_dir
    for i, v in enumerate([tilted] + [b_dir + 0.01 * rng.standard_normal(4) for _ in range(14)]):
        vecs.append(v)
        labels.append(1)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
            "label": pa.array(labels, pa.int32()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))

    out = knn_hard_negatives(str(tmp_path))
    assert set(out["query_id"]) == {0, 1, 2, 3, 4}
    lbl = dict(zip(range(len(labels)), labels))
    for q, g in out.groupby("query_id"):
        assert list(g["rank"]) == list(range(1, 11))
        assert all(lbl[n] == 1 for n in g["neighbor_id"]), "same-label leak"
        assert int(g[g["rank"] == 1]["neighbor_id"].iloc[0]) == 20  # the tilted B vector


def test_audio_dedup_vs_brute_force(tmp_path):
    """audio_dup_groups must equal a single-process brute force over the
    same clips table: decode every blob, md5 the (sr, pcm) content, group
    locally.  The synth injects hot-dup copies (guaranteed content-equal),
    id-dup rows, and corrupt blobs (counted, never silently dropped)."""
    import hashlib

    import pyarrow.dataset as pads

    from ndap_data_validator_ray.functions import audio_codec as ac
    from ndap_data_validator_ray.pipelines.audio_dedup import audio_dup_groups
    from ndap_data_validator_ray.sources.synthetic import (
        ClipTableSpec,
        clip_files,
        write_clips_dataset,
    )

    spec = ClipTableSpec(n_rows=300, n_files=4, hot_dup_copies=7)
    write_clips_dataset(str(tmp_path), spec)

    tbl = pads.dataset(clip_files(str(tmp_path)), format="parquet").to_table()
    fps: dict = {}
    n_undec = 0
    for cid, blob in zip(tbl["clip_id"].to_pylist(), tbl["bytes"].to_pylist()):
        if blob is None:
            n_undec += 1
            continue
        try:
            _c, sr, pcm = ac.decode(bytes(blob))
        except ac.AudioDecodeError:
            n_undec += 1
            continue
        fp = hashlib.md5(np.int64(sr).tobytes() + pcm.tobytes()).hexdigest()
        fps.setdefault(fp, []).append(cid)
    want = sorted(
        (min(ids), len(ids), len(set(ids)), fp)
        for fp, ids in fps.items()
        if len(ids) > 1
    )
    expected = pd.DataFrame(
        want, columns=["rep_clip_id", "n_copies", "n_clip_ids", "fp"]
    )[["fp", "rep_clip_id", "n_copies", "n_clip_ids"]]
    expected["n_copies"] = expected["n_copies"].astype(np.int64)
    expected["n_clip_ids"] = expected["n_clip_ids"].astype(np.int64)

    stats: dict = {}
    got = audio_dup_groups(str(tmp_path), stats=stats)
    pd.testing.assert_frame_equal(got, expected)
    assert stats["n_undecodable"] == n_undec
    assert stats["n_rows"] == tbl.num_rows
    # the hot clip-0 group is present with all its copies
    hot = got[got["rep_clip_id"] == "clip-000000000000"]
    assert len(hot) == 1 and int(hot["n_copies"].iloc[0]) >= 8
    assert stats["n_dup_rows"] == int((got["n_copies"] - 1).sum()) > 0


def test_audio_near_dup_cross_codec(tmp_path):
    """The spectral-fingerprint near-dup must collapse the SAME signal
    re-encoded under pcm16/ulaw/alaw (which the exact decoded-PCM dedup
    correctly keeps apart), group injected silences together, and leave
    distinct signals alone; corrupt blobs are counted, never clustered."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.functions import audio_codec as ac
    from ndap_data_validator_ray.pipelines.audio_dedup import (
        audio_dup_groups,
        audio_near_dup_groups,
    )
    from ndap_data_validator_ray.sources.synthetic import CLIP_SCHEMA

    sr = 16000
    sig_a = ac.synth_pcm(0, sr, sr)
    sig_b = ac.synth_pcm(1, sr, sr)
    sig_c = ac.synth_pcm(2, sr, sr)
    silent = np.zeros(sr, dtype=np.float64)
    rows = [
        ("a-pcm", ac.encode(sig_a, sr, "pcm_s16le"), "pcm_s16le"),
        ("a-ulaw", ac.encode(sig_a, sr, "ulaw"), "ulaw"),
        ("a-alaw", ac.encode(sig_a, sr, "alaw"), "alaw"),
        ("b", ac.encode(sig_b, sr, "pcm_s16le"), "pcm_s16le"),
        ("c", ac.encode(sig_c, sr, "pcm_s16le"), "pcm_s16le"),
        ("bad", b"not audio at all", "pcm_s16le"),
        ("sil1", ac.encode(silent, sr, "pcm_s16le"), "pcm_s16le"),
        ("sil2", ac.encode(silent, sr, "pcm_s16le"), "pcm_s16le"),
    ]
    tbl = pa.table(
        {
            "clip_id": pa.array([r[0] for r in rows], pa.string()),
            "bytes": pa.array([r[1] for r in rows], pa.binary()),
            "sr_hz": pa.array([sr] * len(rows), pa.int32()),
            "dur_ms": pa.array([1000] * len(rows), pa.int32()),
            "codec": pa.array([r[2] for r in rows], pa.string()),
            "transcript": pa.array(["t"] * len(rows), pa.string()),
        },
        schema=CLIP_SCHEMA,
    )
    pq.write_table(tbl, str(tmp_path / "part-00000.parquet"))

    stats: dict = {}
    near = audio_near_dup_groups(str(tmp_path), stats=stats)
    clusters = near.groupby("cluster_id")["clip_id"].apply(sorted).to_dict()
    assert sorted(clusters.get("a-alaw", [])) == ["a-alaw", "a-pcm", "a-ulaw"]
    assert sorted(clusters.get("sil1", [])) == ["sil1", "sil2"]
    assert len(clusters) == 2, clusters  # b and c stay singletons
    assert stats["n_undecodable"] == 1

    # the EXACT dedup keeps codec variants apart but catches the silences
    exact_stats: dict = {}
    exact = audio_dup_groups(str(tmp_path), stats=exact_stats)
    assert list(exact["rep_clip_id"]) == ["sil1"]
    assert int(exact["n_copies"].iloc[0]) == 2
    assert exact_stats["n_undecodable"] == 1


def test_cusum_daily_revenue_planted_shift(tmp_path):
    """Planted level shift: 40 days at ~100.00/day then 10 days at
    ~800.00/day.  k = overall mean -> the CUSUM must stay low before the
    shift, climb after it, and the alarm (s > 5k) must fire within the
    shifted window and never before it.  Values replay an exact integer
    local recurrence."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import cusum_daily_revenue

    days = list(range(40)) + list(range(40, 50))
    prices = [100.0 + (i % 3) * 0.17 for i in range(40)] + [800.0 + (i % 5) * 0.29 for i in range(10)]
    dates = np.array(days, dtype="datetime64[D]").astype("datetime64[us]")
    tbl = pa.table(
        {
            "o_orderdate": pa.array(dates.astype("datetime64[us]")),
            "o_totalprice": pa.array(prices, pa.float64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "orders.parquet"))

    out = cusum_daily_revenue(str(tmp_path))
    assert len(out) == 50
    cents = np.round(np.array(prices) * 100).astype(np.int64)
    k = int(cents.sum()) // 50
    run, s = 0, []
    for c in cents:
        run = max(0, run + int(c) - k)
        s.append(run)
    s = np.asarray(s)
    np.testing.assert_allclose(out["cusum"].to_numpy(), np.round(s / 100.0, 2))
    alarms = out["alarm"].to_numpy()
    assert not alarms[:40].any(), "false alarm before the shift"
    assert alarms[40:].any(), "shift never detected"


def test_cusum_user_identity_vs_naive(tmp_path):
    """The vectorized prefix identity s = P - cummin(min(P,0)) must equal
    the naive per-user max(0, s + x - k) recurrence on random (seeded)
    data — including negative values — and be invariant to Ray blocking."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import cusum_user_events

    rng = np.random.default_rng(11)
    n = 400
    users = rng.integers(0, 8, n)
    vals = np.round(rng.normal(10.0, 25.0, n), 2)  # negatives included
    ts = np.datetime64("2024-01-01", "us") + rng.permutation(n).astype("timedelta64[s]") * 60
    tbl = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array(ts),
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(["x"] * n, pa.string()),
            "value": pa.array(vals, pa.float64()),
            "props": pa.array([None] * n, pa.string()),
        }
    )
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    pq.write_table(tbl, str(one / "events.parquet"))
    pq.write_table(tbl, str(many / "events.parquet"), row_group_size=13)

    got = cusum_user_events(str(one))
    split = cusum_user_events(str(many))
    pd.testing.assert_frame_equal(got, split)

    df = pd.DataFrame({"u": users, "ts": ts, "eid": range(n),
                       "c": np.round(vals * 100).astype(np.int64)})
    df = df.sort_values(["u", "ts", "eid"]).reset_index(drop=True)
    for u, g in df.groupby("u"):
        k = int(g["c"].sum()) // len(g)
        run, best, peak = 0, None, None
        for _, row in g.iterrows():
            run = max(0, run + int(row["c"]) - k)
            if best is None or run > best:
                best, peak = run, int(row["eid"])
        mine = got[got["user_id"] == u].iloc[0]
        assert mine["n_events"] == len(g)
        assert mine["k"] == round(k / 100.0, 2)
        assert mine["max_cusum"] == round(best / 100.0, 2)
        assert mine["peak_event_id"] == peak


def test_mad_outlier_planted(tmp_path):
    """Hand-checkable MAD: customer 1 has prices [10,10,10,10,100] ->
    med 10, dev [0,0,0,0,90], mad 0 -> EXCLUDED (mad=0 guard).
    Customer 2 has [10,12,14,16,100] -> med 14, dev [4,2,0,2,86],
    mad 2, threshold 6 -> only the 100 flags.  Customer 3 has 4 rows ->
    below the min-5 cutoff."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import mad_outlier_orders

    prices = [10, 10, 10, 10, 100] + [10, 12, 14, 16, 100] + [1, 2, 3, 900]
    custs = [1] * 5 + [2] * 5 + [3] * 4
    tbl = pa.table(
        {
            "o_orderkey": pa.array(range(len(prices)), pa.int64()),
            "o_custkey": pa.array(custs, pa.int64()),
            "o_totalprice": pa.array([float(p) for p in prices], pa.float64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "orders.parquet"))
    out = mad_outlier_orders(str(tmp_path))
    assert len(out) == 1
    r = out.iloc[0]
    assert (int(r["o_orderkey"]), int(r["o_custkey"])) == (9, 2)
    assert (r["o_totalprice"], r["med"], r["mad"]) == (100.0, 14.0, 2.0)


def test_benford_and_corr_planted(tmp_path):
    """Benford: planted digit-exact counts (prices 1.00..9.00 weighted) and
    a boundary price 1000.00 must land in digit 1 (the float-log10 trap).
    Corr: constructed measures with corr +1, -1 and ~0 recover exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import (
        benford_first_digit_prices,
        corr_matrix_lineitem,
    )

    prices = [float(d) for d in range(1, 10) for _ in range(d)] + [1000.00, 999.99]
    pq.write_table(
        pa.table({"o_totalprice": pa.array(prices, pa.float64())}),
        str(tmp_path / "orders.parquet"),
    )
    out = benford_first_digit_prices(str(tmp_path))
    assert list(out["digit"]) == list(range(1, 10))
    want = np.array([d for d in range(1, 10)], dtype=np.int64)
    want[0] += 1  # 1000.00 -> digit 1
    want[8] += 1  # 999.99 -> digit 9
    assert list(out["n_obs"]) == list(want)
    assert (out["chi2"] > 0).all() and out["chi2"].nunique() == 1

    n = 200
    q = np.arange(n, dtype=np.float64)
    tbl = pa.table(
        {
            "l_quantity": pa.array(q),
            "l_extendedprice": pa.array(3.0 * q + 7.0),   # corr +1 with quantity
            "l_discount": pa.array(-2.0 * q + 100.0),      # corr -1 with quantity
            "l_tax": pa.array(np.tile([0.0, 1.0], n // 2)),  # ~0 with the others
        }
    )
    pq.write_table(tbl, str(tmp_path / "lineitem.parquet"))
    c = corr_matrix_lineitem(str(tmp_path))
    m = {(r.col_a, r.col_b): r.corr for r in c.itertuples()}
    assert m[("l_extendedprice", "l_quantity")] == 1.0
    assert m[("l_discount", "l_quantity")] == -1.0
    assert m[("l_discount", "l_extendedprice")] == -1.0
    assert abs(m[("l_quantity", "l_tax")]) < 0.02


def test_key_skew_gini_planted(tmp_path):
    """Hand-checkable Gini: uniform counts -> 0; one dominant key over
    many singletons -> the closed-form value of the sorted-rank sum."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import key_skew_gini_orders

    # uniform: 10 customers x 4 orders each -> gini exactly 0
    custs = [i for i in range(10) for _ in range(4)]
    pq.write_table(
        pa.table({"o_custkey": pa.array(custs, pa.int64())}),
        str(tmp_path / "orders.parquet"),
    )
    out = key_skew_gini_orders(str(tmp_path))
    assert out.iloc[0]["gini"] == 0.0
    assert int(out.iloc[0]["n_keys"]) == 10 and int(out.iloc[0]["max_per_key"]) == 4

    # skewed: 9 singleton customers + one with 91 orders
    custs = list(range(9)) + [99] * 91
    pq.write_table(
        pa.table({"o_custkey": pa.array(custs, pa.int64())}),
        str(tmp_path / "orders.parquet"),
    )
    out = key_skew_gini_orders(str(tmp_path))
    x = np.array([1] * 9 + [91], dtype=np.float64)  # sorted asc
    i = np.arange(1, 11, dtype=np.float64)
    want = round(float(2 * (i * x).sum() / (10 * x.sum()) - 11 / 10), 6)
    assert out.iloc[0]["gini"] == want
    assert int(out.iloc[0]["max_per_key"]) == 91


# --- Pareto skyline / mutual information / cumulative distinct --------------

def test_skyline_kernel_vs_bruteforce():
    """skyline2d against the O(n^2) strict-dominance definition on random
    points with heavy ties and nulls; distributed fold must match the
    single-frame kernel regardless of blocking."""
    from ndap_data_validator_ray.stages.skyline import distributed_skyline2d, skyline2d

    rng = np.random.RandomState(23)
    for trial in range(5):
        n = int(rng.randint(5, 120))
        df = pd.DataFrame(
            {
                "price": rng.choice([1.0, 2.5, 2.5, 3.0, 7.25, np.nan], n),
                "size": pd.array(
                    [None if rng.rand() < 0.08 else int(v) for v in rng.randint(0, 8, n)],
                    dtype="Int64",
                ),
                "id": np.arange(n, dtype=np.int64),
            }
        )
        got = skyline2d(df, "price", "size")
        d = df.dropna(subset=["price", "size"]).reset_index(drop=True)
        keep = []
        for i in range(len(d)):
            p, s = d["price"][i], d["size"][i]
            dominated = any(
                (d["price"][j] <= p and d["size"][j] >= s and (d["price"][j] < p or d["size"][j] > s))
                for j in range(len(d))
            )
            if not dominated:
                keep.append(i)
        want = d.iloc[keep].reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.sort_values("id").reset_index(drop=True),
            want.sort_values("id").reset_index(drop=True),
        )
        dist = distributed_skyline2d(
            ray.data.from_pandas(df).repartition(4), "price", "size"
        )
        pd.testing.assert_frame_equal(
            dist.sort_values("id").reset_index(drop=True),
            want.sort_values("id").reset_index(drop=True),
            check_dtype=False,
        )


def test_event_hour_mutual_info_vs_pandas():
    """The distributed contingency fold equals a plain pandas crosstab
    computation over the same parquet, cell by cell."""
    from ndap_data_validator_ray.pipelines.queries import event_hour_mutual_info

    got = event_hour_mutual_info(SF)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_type", "ts"]).dropna()
    cells = (
        ev.assign(hour=ev["ts"].dt.hour.astype(np.int64))
        .groupby(["event_type", "hour"], as_index=False)
        .size()
        .rename(columns={"size": "cnt"})
    )
    total = float(cells["cnt"].sum())
    rc = cells.groupby("event_type")["cnt"].sum().astype(np.float64)
    cc = cells.groupby("hour")["cnt"].sum().astype(np.float64)
    c = cells["cnt"].to_numpy(dtype=np.float64)
    want = cells.assign(
        cnt=cells["cnt"].astype(np.int64),
        pxy=np.round(c / total, 9),
        pmi=np.round(
            np.log(c * total / (cells["event_type"].map(rc).to_numpy() * cells["hour"].map(cc).to_numpy())),
            9,
        ),
    ).sort_values(["event_type", "hour"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # MI (= sum of pxy-weighted pmi over exact cells) is finite and >= -eps
    assert float((got["pxy"] * got["pmi"]).sum()) > -1e-9


def test_cumulative_new_users_planted(tmp_path):
    """Planted first-appearance pattern: users repeat across days; only
    the FIRST day counts, and the running sum is exact.  Tiny row groups
    force the multi-block path through the bucketed exchange."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import cumulative_new_users_events

    days = ["2024-01-01", "2024-01-02", "2024-01-03"]
    rows = [
        (1, days[0]), (2, days[0]),           # day 1: users 1, 2
        (1, days[1]), (3, days[1]), (2, days[1]),  # day 2: only 3 is new
        (4, days[2]), (1, days[2]),           # day 3: only 4 is new
    ]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [pd.Timestamp(f"{r[1]} 0{i % 10}:30:00") for i, r in enumerate(rows)],
                pa.timestamp("us"),
            ),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"), row_group_size=2)
    out = cumulative_new_users_events(str(tmp_path))
    assert out["day"].tolist() == days
    assert out["new_users"].tolist() == [2, 1, 1]
    assert out["cum_users"].tolist() == [2, 3, 4]


# --- late round-5 additions: fk audit, market basket, stats tests, RFM, EWMA


def test_emit_within_group_pairs_vs_brute():
    """The vectorized repeat/cumsum pair kernel equals the nested-loop
    brute force on random grouped data (varied group sizes incl. 1)."""
    from ndap_data_validator_ray.pipelines.queries import _emit_within_group_pairs

    rng = np.random.default_rng(23)
    for _ in range(8):
        n_groups = int(rng.integers(1, 12))
        keys, vals = [], []
        v = 0
        for g in range(n_groups):
            size = int(rng.integers(1, 7))
            members = sorted(rng.choice(1000, size=size, replace=False) + g * 10000)
            keys += [g] * size
            vals += members
        keys = np.asarray(keys, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        a, b = _emit_within_group_pairs(keys, vals)
        want = []
        for g in np.unique(keys):
            mem = vals[keys == g]
            for i in range(len(mem)):
                for j in range(i + 1, len(mem)):
                    want.append((mem[i], mem[j]))
        got = sorted(zip(a.tolist(), b.tolist()))
        assert got == sorted(want)
    # empty input
    a, b = _emit_within_group_pairs(np.int64([]), np.int64([]))
    assert len(a) == 0 and len(b) == 0


def test_ntile_from_rank_matches_duckdb():
    """_ntile_from_rank replays SQL NTILE exactly for every m in 1..23
    and n in {3, 4, 5} (covers m < n, m % n == 0, and ragged cases)."""
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import _ntile_from_rank

    con = duckdb.connect()
    for m in range(1, 24):
        for n in (3, 4, 5):
            want = con.sql(
                f"SELECT NTILE({n}) OVER (ORDER BY r) AS t FROM range(1, {m + 1}) tbl(r) ORDER BY r"
            ).df()["t"].to_numpy()
            got = _ntile_from_rank(np.arange(1, m + 1, dtype=np.int64), m, n)
            np.testing.assert_array_equal(got, want, err_msg=f"m={m} n={n}")
    con.close()


def _write_star_fixture(tmp_path):
    """Minimal 7-table star fixture with PLANTED referential violations:
    2 lineitems with a dangling partkey, 1 order with a dangling custkey,
    1 event user never in customer plus 1 NULL user_id (NOT EXISTS keeps
    null probe keys), and clean nation edges."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    def w(name, **cols):
        pq.write_table(pa.table(cols), str(tmp_path / f"{name}.parquet"), row_group_size=3)

    w("nation", n_nationkey=pa.array([0, 1], pa.int32()))
    w("customer",
      c_custkey=pa.array([10, 11, 12], pa.int64()),
      c_nationkey=pa.array([0, 1, 1], pa.int32()))
    w("supplier",
      s_suppkey=pa.array([5, 6], pa.int64()),
      s_nationkey=pa.array([0, 1], pa.int32()))
    w("part", p_partkey=pa.array([100, 101, 102], pa.int64()))
    w("orders",
      o_orderkey=pa.array([1, 2, 3, 4], pa.int64()),
      o_custkey=pa.array([10, 11, 99, 12], pa.int64()))  # 99 dangles
    w("lineitem",
      l_orderkey=pa.array([1, 1, 2, 3, 7], pa.int64()),        # 7 dangles
      l_partkey=pa.array([100, 777, 778, 101, 102], pa.int64()),  # 2 dangle
      l_suppkey=pa.array([5, 6, 5, 6, 5], pa.int64()))
    w("events",
      user_id=pa.array([10, 11, 555, None, 12], pa.int64()))  # 555 + NULL dangle


def test_fk_integrity_audit_planted(tmp_path):
    """The all-edges audit reports the exact planted violation counts,
    including the NULL probe key (SQL NOT EXISTS keeps it)."""
    from ndap_data_validator_ray.pipelines.queries import fk_integrity_audit

    _write_star_fixture(tmp_path)
    out = fk_integrity_audit(str(tmp_path))
    got = dict(zip(out["fk"], out["violations"]))
    assert got == {
        "customer.c_nationkey->nation": 0,
        "events.user_id->customer": 2,     # 555 and NULL
        "lineitem.l_orderkey->orders": 1,  # order 7
        "lineitem.l_partkey->part": 2,     # 777, 778
        "lineitem.l_suppkey->supplier": 0,
        "orders.o_custkey->customer": 1,   # cust 99
        "supplier.s_nationkey->nation": 0,
    }
    assert list(out["fk"]) == sorted(out["fk"])  # oracle ORDER BY fk parity


def test_copurchase_lift_planted(tmp_path):
    """Planted baskets with hand-computed lift, duplicate lineitem rows
    (must dedup to DISTINCT order-part pairs), tiny row groups to force
    multi-block exchanges, and the min-support gate."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ndap_data_validator_ray.pipelines.queries as q

    # parts 1,2 co-occur in orders 1,2,3 (support 3); parts 1,3 in order 1
    # only (below support); part 9 alone in order 4.
    rows = [
        (1, 1), (1, 2), (1, 3), (1, 1),  # dup (1,1) must not double-count
        (2, 1), (2, 2),
        (3, 2), (3, 1),
        (4, 9),
    ]
    tbl = pa.table(
        {
            "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
            "l_partkey": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "lineitem.parquet"), row_group_size=2)
    out = q.copurchase_lift_parts(str(tmp_path))
    assert len(out) == 1
    r = out.iloc[0]
    # n_orders=4, cnt(1)=3, cnt(2)=3, pair=3 -> lift = 3*4/(3*3)
    assert (r["part_a"], r["part_b"], r["pair_cnt"], r["cnt_a"], r["cnt_b"]) == (1, 2, 3, 3, 3)
    assert r["lift"] == round(3 * 4 / 9, 6)


def test_chi2_planted_zero_cell(tmp_path):
    """A (status x priority) grid with a structurally EMPTY cell: the
    statistic must include the zero-observed term (obs=0 contributes
    exp), matching the direct full-grid numpy computation."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import chi2_status_priority

    status = ["A"] * 6 + ["B"] * 4
    prio = ["p1", "p1", "p1", "p2", "p2", "p2", "p1", "p1", "p1", "p1"]  # B-p2 empty
    tbl = pa.table(
        {
            "o_orderstatus": pa.array(status, pa.string()),
            "o_orderpriority": pa.array(prio, pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "orders.parquet"), row_group_size=3)
    out = chi2_status_priority(str(tmp_path))
    obs = np.array([[3.0, 3.0], [4.0, 0.0]])
    n = obs.sum()
    exp = obs.sum(1)[:, None] * obs.sum(0)[None, :] / n
    chi2 = ((obs - exp) ** 2 / exp).sum()
    assert out.iloc[0]["n"] == 10
    assert out.iloc[0]["dof"] == 1
    assert out.iloc[0]["chi2"] == round(float(chi2), 6)
    assert out.iloc[0]["cramers_v"] == round(float(np.sqrt(chi2 / n)), 6)


def test_welch_ttest_planted(tmp_path):
    """Welch t / dof match the textbook two-sample formulas on planted
    groups with unequal variance and unequal n."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import welch_ttest_price_returnflag

    a = np.array([10.0, 12.0, 11.0, 13.0, 9.0])
    b = np.array([20.0, 28.0, 24.0, 30.0, 22.0, 26.0, 21.0])
    tbl = pa.table(
        {
            "l_returnflag": pa.array(["A"] * len(a) + ["R"] * len(b), pa.string()),
            "l_extendedprice": pa.array(np.r_[a, b], pa.float64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "lineitem.parquet"), row_group_size=3)
    out = welch_ttest_price_returnflag(str(tmp_path))
    assert len(out) == 1
    row = out.iloc[0]
    va, vb = a.var(ddof=1), b.var(ddof=1)
    sea, seb = va / len(a), vb / len(b)
    t = (a.mean() - b.mean()) / np.sqrt(sea + seb)
    dof = (sea + seb) ** 2 / (sea**2 / (len(a) - 1) + seb**2 / (len(b) - 1))
    assert (row["flag_a"], row["flag_b"], row["n_a"], row["n_b"]) == ("A", "R", 5, 7)
    assert abs(row["t_stat"] - t) < 1e-6
    assert abs(row["welch_dof"] - dof) < 1e-6


def test_rfm_segments_planted(tmp_path):
    """RFM tiles on a planted 10-customer fixture match DuckDB's NTILE
    twin exactly (recency/frequency/monetary each tie-broken on
    custkey), and segment counts fold correctly."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ndap_data_validator_ray.pipelines.queries as q

    rng = np.random.default_rng(7)
    rows = []
    for cust in range(10):
        for k in range(int(rng.integers(1, 5))):
            rows.append(
                (
                    len(rows),
                    cust,
                    np.datetime64("2024-01-01", "us") + np.timedelta64(int(rng.integers(0, 400)), "D"),
                    float(np.round(rng.uniform(10, 5000), 2)),
                )
            )
    tbl = pa.table(
        {
            "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
            "o_custkey": pa.array([r[1] for r in rows], pa.int64()),
            "o_orderdate": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "o_totalprice": pa.array([r[3] for r in rows], pa.float64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "orders.parquet"), row_group_size=3)
    got = q.rfm_segmentation_customers(str(tmp_path))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW orders AS SELECT * FROM read_parquet('{tmp_path}/orders.parquet')")
    want = con.sql(q.REGISTRY["rfm_segmentation_customers"][1]).df()
    con.close()
    pd.testing.assert_frame_equal(got, want)
    assert got["n_customers"].sum() == 10


def test_ewma_planted_spike(tmp_path):
    """EWMA replay on a planted level series with one 5x day: the spike
    flags exactly that day (threshold 25% of the running smooth) and the
    smoothed series follows the alpha=1/8 recurrence."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import ewma_daily_revenue

    prices = [100.0] * 20 + [500.0] + [100.0] * 9
    dates = np.arange(30, dtype=np.int64).astype("datetime64[D]").astype("datetime64[us]")
    tbl = pa.table(
        {
            "o_orderdate": pa.array(dates),
            "o_totalprice": pa.array(prices, pa.float64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "orders.parquet"), row_group_size=4)
    out = ewma_daily_revenue(str(tmp_path))
    assert len(out) == 30
    x = np.round(np.array(prices) * 100).astype(np.int64).astype(np.float64)
    s, prev = [x[0]], x[0]
    spikes = [False]
    for i in range(1, 30):
        spikes.append(abs(x[i] - prev) > 0.25 * prev)
        prev = 0.125 * x[i] + 0.875 * prev
        s.append(prev)
    np.testing.assert_allclose(out["ewma"].to_numpy(), np.round(np.array(s) / 100.0, 2))
    got_spikes = out["spike"].to_numpy()
    np.testing.assert_array_equal(got_spikes, np.array(spikes))
    # up-spike day flags; the drop-back flags persist only while the
    # smooth decays back within 25% of the old level (alpha=1/8 -> a few
    # days), then clear
    assert got_spikes[20] and got_spikes[21]
    assert not got_spikes[:20].any() and not got_spikes[26:].any()


# --- k-core peeling (stages/kcore.py) ----------------------------------------

def _edges_ds(pairs):
    df = pd.DataFrame(pairs, columns=["id_a", "id_b"]).astype(np.int64)
    return ray.data.from_pandas(df).repartition(3)


def test_kcore_planted_clique_survives_chain_peels():
    """4-clique + pendant chain at k=3: only the clique survives, every
    member at core degree 3; the chain (and the attachment point's extra
    degree) peels away."""
    from ndap_data_validator_ray.stages.kcore import k_core

    clique = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    chain = [(4, 10), (10, 11), (11, 12)]
    core, k, rounds = k_core(_edges_ds(clique + chain), k=3)
    assert k == 3 and rounds >= 1
    assert core["node"].tolist() == [1, 2, 3, 4]
    assert core["core_deg"].tolist() == [3, 3, 3, 3]


def test_kcore_empty_core_and_max_rounds():
    """A path graph has an empty 2-core... (every peel exposes new leaves)
    and long paths exceed a tiny round budget -> hard RuntimeError, never
    a silent partial answer."""
    from ndap_data_validator_ray.stages.kcore import k_core

    path = [(i, i + 1) for i in range(12)]
    core, k, rounds = k_core(_edges_ds(path), k=2, max_rounds=24)
    assert core.empty and rounds >= 1
    with pytest.raises(RuntimeError, match="max_rounds"):
        k_core(_edges_ds([(i, i + 1) for i in range(30)]), k=2, max_rounds=3)


def test_kcore_quantile_rule_matches_order_statistic():
    """k_from_degree_quantile reads the EXACT rn-th smallest degree off the
    count-of-counts histogram (rn = (n + 19) // 20, 1-based)."""
    from ndap_data_validator_ray.stages.kcore import k_from_degree_quantile

    # degrees: 3 x 1, 5 x 4, 2 x 9  (n = 10, rn = 1 -> smallest = 1)
    hist = pd.DataFrame({"deg": [1, 4, 9], "n": [3, 5, 2]})
    assert k_from_degree_quantile(hist, lambda n: (n + 19) // 20) == 1
    # rank 4 lands inside the deg=4 run
    assert k_from_degree_quantile(hist, lambda n: 4) == 4
    # rank exactly at the run boundary (3) is still deg=1
    assert k_from_degree_quantile(hist, lambda n: 3) == 1
    assert k_from_degree_quantile(hist, lambda n: 10) == 9


# --- Mann-Whitney U (global tie-averaged ranks) -------------------------------

def test_mannwhitney_matches_pandas_rank_reference():
    """The range-partitioned count-of-counts rank fold equals the direct
    pandas method='average' rank computation (independent of the DuckDB
    oracle's window-function formulation)."""
    from ndap_data_validator_ray.pipelines.queries import mannwhitney_price_returnflag

    got = mannwhitney_price_returnflag(SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"])
    li = li.dropna()
    li = li[li["l_returnflag"].isin(["A", "R"])]
    v = np.round(li["l_extendedprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
    is_a = li["l_returnflag"].to_numpy() == "A"
    ranks = pd.Series(v).rank(method="average").to_numpy()
    na, nb = int(is_a.sum()), int((~is_a).sum())
    nn = na + nb
    ra = float(ranks[is_a].sum())
    u_a = ra - na * (na + 1) / 2.0
    _, t = np.unique(v, return_counts=True)
    ties = float((t.astype(object) ** 3 - t).sum())
    mu = na * nb / 2.0
    var = na * nb / 12.0 * ((nn + 1.0) - ties / (nn * (nn - 1.0)))
    z = (u_a - mu) / np.sqrt(var)
    assert int(got["n_a"].iloc[0]) == na and int(got["n_b"].iloc[0]) == nb
    assert abs(got["u_a"].iloc[0] - u_a) < 1e-6 * max(1.0, abs(u_a))
    assert abs(got["z"].iloc[0] - z) < 1e-6


# --- inter-order gaps ---------------------------------------------------------

def test_inter_order_gaps_match_pandas():
    from ndap_data_validator_ray.pipelines.queries import inter_order_gap_stats

    got = inter_order_gap_stats(SF)
    o = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_custkey", "o_orderdate", "o_orderkey"])
    o = o.dropna().sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
    rows = []
    for ck, g in o.groupby("o_custkey"):
        if len(g) < 4:
            continue
        d = g["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        gp = np.diff(d)
        rows.append((int(ck), len(g), float(np.percentile(gp, 50)), int(gp.max())))
    want = pd.DataFrame(rows, columns=["o_custkey", "n_orders", "median_gap_days", "max_gap_days"])
    want = want.sort_values("o_custkey").reset_index(drop=True)
    assert got["o_custkey"].tolist() == want["o_custkey"].tolist()
    assert got["n_orders"].tolist() == want["n_orders"].tolist()
    np.testing.assert_allclose(got["median_gap_days"], np.round(want["median_gap_days"], 6))
    assert got["max_gap_days"].tolist() == want["max_gap_days"].tolist()


# --- cluster-composition queries (leakage-safe split, keep-best survivor) ----

def _write_planted_docs(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    # clusters by EXACT duplicate text: {0,3,6}, {9,12}, singleton {15}
    docs = pd.DataFrame(
        {
            "doc_id": np.array([0, 3, 6, 9, 12, 15], dtype=np.int64),
            "text": [
                "a b c d e f", "a b c d e f", "a b c d e f",
                "x y z w q", "x y z w q",
                "solo doc words here",
            ],
            "lang": ["en"] * 6,
            "source": ["s"] * 6,
            "n_chars": np.array([10, 99, 99, 5, 5, 7], dtype=np.int64),
        }
    )
    pq.write_table(pa.Table.from_pandas(docs), str(tmp_path / "documents.parquet"),
                   row_group_size=2)
    return docs


def test_cluster_best_survivor_planted(tmp_path):
    """Survivor = max n_chars, doc_id tie-break; member counts per cluster."""
    from ndap_data_validator_ray.pipelines.queries import cluster_best_survivor_documents

    _write_planted_docs(tmp_path)
    out = cluster_best_survivor_documents(str(tmp_path))
    assert out["cluster_rep"].tolist() == [0, 9, 15]
    # {0,3,6}: chars (10, 99, 99) -> 99 tie broken by min doc_id = 3
    assert out["survivor_id"].tolist() == [3, 9, 15]
    assert out["survivor_chars"].tolist() == [99, 5, 7]
    assert out["n_members"].tolist() == [3, 2, 1]


def test_leakage_safe_split_planted(tmp_path):
    """Every near-dup cluster lands whole in ONE split (keyed by rep, not
    doc id), and the counts fold to the md5-threshold assignment."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.pipelines.queries import leakage_safe_split_documents

    _write_planted_docs(tmp_path)
    out = leakage_safe_split_documents(str(tmp_path))
    reps = np.array([0, 9, 15], dtype=np.int64)
    sizes = {0: 3, 9: 2, 15: 1}
    h = md5_lower64_batch(reps.astype(str)) % np.uint64(100)
    split = np.where(h < 80, "train", np.where(h < 90, "val", "test"))
    want_docs, want_clusters = {}, {}
    for r, s in zip(reps, split):
        want_docs[s] = want_docs.get(s, 0) + sizes[int(r)]
        want_clusters[s] = want_clusters.get(s, 0) + 1
    got = dict(zip(out["split"], zip(out["n_docs"], out["n_clusters"])))
    assert got == {s: (want_docs[s], want_clusters[s]) for s in want_docs}
    assert int(out["n_docs"].sum()) == 6 and int(out["n_clusters"].sum()) == 3


# --- sliding distinct + Kaplan-Meier ------------------------------------------

def test_rolling_distinct_users_planted(tmp_path):
    """Trailing 7-day distinct-user windows across a gap: replication to
    window days + per-day dedup equals the brute-force window count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import rolling_distinct_users_events

    base = np.datetime64("2024-01-01T12:00:00", "us")
    day = np.timedelta64(86400_000_000, "us")
    ts = [base, base, base + day, base + 8 * day, base + 8 * day]
    users = [1, 2, 1, 1, 1]
    tbl = pa.table({"ts": pa.array(ts), "user_id": pa.array(users, pa.int64())})
    pq.write_table(tbl, str(tmp_path / "events.parquet"), row_group_size=2)
    out = rolling_distinct_users_events(str(tmp_path))
    got = dict(zip(out["day"], out["users_7d"]))
    # day 1: users {1,2}; day 2 window covers day 1 too: {1,2}; day 9
    # window covers days 3-9 only: {1}
    assert got == {"2024-01-01": 2, "2024-01-02": 2, "2024-01-09": 1}


def test_km_survival_hand_computed(tmp_path):
    """Two events, two censored: S(2) = 1 - 1/4, S(5) = S(2) * (1 - 1/2)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import km_survival_reorder

    d0 = np.datetime64("2024-03-01", "D")

    def d(n):
        return (d0 + np.timedelta64(n, "D")).astype("datetime64[us]")

    orders = pa.table(
        {
            "o_custkey": pa.array([1, 1, 2, 3, 3, 4], pa.int64()),
            "o_orderdate": pa.array([d(0), d(5), d(0), d(2), d(4), d(3)]),
            "o_orderkey": pa.array([10, 11, 20, 30, 31, 40], pa.int64()),
        }
    )
    pq.write_table(orders, str(tmp_path / "orders.parquet"), row_group_size=2)
    out = km_survival_reorder(str(tmp_path))
    assert out["duration_days"].tolist() == [2, 5]
    assert out["d_events"].tolist() == [1, 1]
    assert out["n_risk"].tolist() == [4, 2]
    np.testing.assert_allclose(out["survival"].to_numpy(), [0.75, 0.375])


# --- Z-order layout + ANOVA ----------------------------------------------------

def test_morton_interleave_known_bits():
    from ndap_data_validator_ray.pipelines.queries import _part1by1

    x = np.array([0, 1, 2, 3, 0xFFFF], dtype=np.int64)
    got = _part1by1(x)
    # 0b11 -> 0b0101; 0b10 -> 0b0100; full 16 bits -> alternating 0101... (32 bits)
    assert got.tolist() == [0, 1, 4, 5, 0x55555555]
    # interleave is a bijection on the 16-bit grid: z recovers both coords
    qa = np.arange(0, 65536, 257, dtype=np.int64)
    qb = qa[::-1].copy()
    z = _part1by1(qa) | (_part1by1(qb) << 1)
    assert len(np.unique(z)) == len(z)


def test_zorder_rank_locality(tmp_path):
    """Rows identical on both keys rank adjacently; the curve is a
    bijection (dense ranks 1..n)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import zorder_layout_orders

    rng = np.random.default_rng(5)
    n = 400
    ck = rng.integers(1, 50, n)
    dates = (np.datetime64("2024-01-01", "D") + rng.integers(0, 365, n)).astype("datetime64[us]")
    tbl = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n, dtype=np.int64)),
            "o_custkey": pa.array(ck, pa.int64()),
            "o_orderdate": pa.array(dates),
        }
    )
    pq.write_table(tbl, str(tmp_path / "orders.parquet"), row_group_size=64)
    out = zorder_layout_orders(str(tmp_path))
    assert sorted(out["zrank"].tolist()) == list(range(1, n + 1))
    # same (custkey, date) -> same zval -> contiguous rank run
    df = out.merge(
        pd.DataFrame({"o_orderkey": np.arange(n, dtype=np.int64), "ck": ck,
                      "d": dates.astype("datetime64[D]")}),
        on="o_orderkey",
    )
    for _, g in df.groupby(["ck", "d"]):
        if len(g) > 1:
            r = np.sort(g["zrank"].to_numpy())
            assert (np.diff(r) == 1).all()
            assert g["zval"].nunique() == 1


def test_anova_hand_computed(tmp_path):
    """Scipy-free 3-group check: F from explicit group means/SS."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import anova_price_by_returnflag

    groups = {"A": [1.0, 2.0, 3.0], "N": [2.0, 4.0, 6.0, 8.0], "R": [10.0, 12.0]}
    flags = sum(([k] * len(v) for k, v in groups.items()), [])
    vals = sum(groups.values(), [])
    tbl = pa.table(
        {"l_returnflag": pa.array(flags), "l_extendedprice": pa.array(vals, pa.float64())}
    )
    pq.write_table(tbl, str(tmp_path / "lineitem.parquet"), row_group_size=3)
    out = anova_price_by_returnflag(str(tmp_path))
    xs = np.array(vals)
    grand = xs.mean()
    ssb = sum(len(v) * (np.mean(v) - grand) ** 2 for v in groups.values())
    ssw = sum(((np.array(v) - np.mean(v)) ** 2).sum() for v in groups.values())
    f = (ssb / 2.0) / (ssw / (len(xs) - 3.0))
    assert int(out["k_groups"].iloc[0]) == 3 and int(out["n_rows"].iloc[0]) == 9
    np.testing.assert_allclose(out["f_stat"].iloc[0], round(f, 6))
    np.testing.assert_allclose(out["ss_between"].iloc[0], round(ssb, 2))
    np.testing.assert_allclose(out["ss_within"].iloc[0], round(ssw, 2))


def test_degree_assortativity_star_is_minus_one(tmp_path):
    """A star co-purchase graph (hub part in every order, one distinct
    leaf each) is perfectly disassortative: r = -1 exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import degree_assortativity_copurchase

    tbl = pa.table(
        {
            "l_orderkey": pa.array([1, 1, 2, 2, 3, 3], pa.int64()),
            "l_partkey": pa.array([100, 1, 100, 2, 100, 3], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "lineitem.parquet"), row_group_size=2)
    out = degree_assortativity_copurchase(str(tmp_path))
    assert int(out["m_directed_edges"].iloc[0]) == 6
    np.testing.assert_allclose(out["assortativity"].iloc[0], -1.0)
