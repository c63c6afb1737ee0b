"""Round-5 sixth-wave gates: distributed multi-source BFS hop distances,
the exact-integer embedding covariance grid, blocked Jaro-Winkler record
linkage, Markov conditional entropy, seasonal-naive WMAPE, and the Fano
burstiness factor.  Value parity vs DuckDB is covered by the oracle gate
(scripts/check_oracle.py); these pin algorithmic invariants on planted
inputs."""

import numpy as np
import pandas as pd
import pytest

import ray
import ray.data

SF = "/root/testdata/sf0.001"


# --- distributed BFS ----------------------------------------------------------

def _bfs(edges, sources, rounds):
    from ndap_data_validator_ray.stages.bfs import distributed_bfs_hops

    e = ray.data.from_pandas(
        pd.DataFrame({"id_a": np.array([p[0] for p in edges], dtype=np.int64),
                      "id_b": np.array([p[1] for p in edges], dtype=np.int64)})
    )
    s = ray.data.from_pandas(pd.DataFrame({"node": np.array(sources, dtype=np.int64)}))
    out = distributed_bfs_hops(e, s, rounds=rounds).to_pandas()
    return dict(zip(out["node"].astype(int), out["hops"].astype(int)))


def test_bfs_chain_distances_and_horizon():
    # chain 1-2-3-4-5-6, source 1: hops = position, beyond `rounds` -> -1
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    got = _bfs(edges, [1], rounds=3)
    assert got == {1: 0, 2: 1, 3: 2, 4: 3, 5: -1, 6: -1}


def test_bfs_multi_source_nearest_wins():
    # sources at both ends of a 7-chain: distance to NEAREST source
    edges = [(i, i + 1) for i in range(1, 7)]
    got = _bfs(edges, [1, 7], rounds=3)
    assert got == {1: 0, 2: 1, 3: 2, 4: 3, 5: 2, 6: 1, 7: 0}


def test_bfs_disconnected_component_unreached():
    edges = [(1, 2), (10, 11)]
    got = _bfs(edges, [1], rounds=3)
    assert got == {1: 0, 2: 1, 10: -1, 11: -1}


def test_bfs_source_outside_graph_labels_itself():
    # a source with no edges still appears with hops=0 (seed rows merge
    # into the node set; membership is never tested)
    got = _bfs([(1, 2)], [99], rounds=2)
    assert got == {1: -1, 2: -1, 99: 0}


def test_bfs_duplicate_edges_and_sources_are_idempotent():
    got = _bfs([(1, 2), (1, 2), (2, 1)], [1, 1], rounds=2)
    assert got == {1: 0, 2: 1}


# --- embedding covariance grid --------------------------------------------------

def test_embedding_covariance_matches_direct_numpy():
    """The distributed block-partial fold must equal a single-shot numpy
    computation over the same quantized matrix (exact integers -> exact
    equality on the integer columns; covariance re-derived identically)."""
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import embedding_covariance_grid

    out = embedding_covariance_grid(SF)
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    m = np.stack(emb["embedding"].to_pandas().to_numpy()).astype(np.float64)[:, :16]
    q = np.floor(m * 10000.0 + 0.5).astype(np.int64)
    gram = q.T @ q
    s = q.sum(axis=0)
    iu, ju = np.triu_indices(16)
    assert len(out) == len(iu)
    assert np.array_equal(out["sum_qij"].to_numpy(), gram[iu, ju])
    assert np.array_equal(out["sum_qi"].to_numpy(), s[iu])
    assert (out["n"] == q.shape[0]).all()
    n = float(q.shape[0])
    cov = (gram[iu, ju] - s[iu].astype(np.float64) * s[ju].astype(np.float64) / n) / n / 1e8
    assert np.allclose(out["cov"].to_numpy(), np.round(cov, 9), atol=1e-12)
    # diagonal cells are variances: non-negative
    diag = out[out["dim_i"] == out["dim_j"]]
    assert (diag["cov"].to_numpy() >= 0).all()


# --- blocked record linkage -----------------------------------------------------

def test_blocked_linkage_invariants():
    from ndap_data_validator_ray.pipelines.queries import blocked_linkage_parts

    out = blocked_linkage_parts(SF)
    assert len(out) > 0
    assert (out["id_a"] < out["id_b"]).all()
    assert (out["jw"] >= 0.88).all() and (out["jw"] <= 1.0).all()
    # no duplicate pairs (each pair compared in exactly one block)
    assert not out.duplicated(subset=["id_a", "id_b"]).any()


# --- Markov conditional entropy --------------------------------------------------

def test_markov_entropy_bounds_and_consistency():
    from ndap_data_validator_ray.pipelines.queries import (
        event_transitions,
        markov_conditional_entropy_events,
    )

    h = markov_conditional_entropy_events(SF)
    tr = event_transitions(SF)
    assert len(h) > 0
    for _, row in h.iterrows():
        # 0 <= H <= log2(#next types); totals agree with the transition matrix
        assert 0.0 <= row["h_cond_bits"] <= np.log2(row["n_next_types"]) + 1e-9
        g = tr[tr["from_type"] == row["from_type"]]
        assert int(g["n"].sum()) == int(row["n_out"])
        assert len(g) == int(row["n_next_types"])


# --- seasonal-naive WMAPE ---------------------------------------------------------

def test_seasonal_naive_wmape_internal_consistency():
    from ndap_data_validator_ray.pipelines.queries import seasonal_naive_wmape_revenue

    out = seasonal_naive_wmape_revenue(SF)
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n_days"] > 0 and r["sum_actual_cents"] > 0
    assert r["wmape"] == np.round(float(r["sum_abs_err_cents"]) / float(r["sum_actual_cents"]), 9)


# --- Fano factor -------------------------------------------------------------------

def test_fano_factor_recomputes_from_exact_moments():
    from ndap_data_validator_ray.pipelines.queries import fano_factor_daily_events

    out = fano_factor_daily_events(SF)
    assert len(out) > 0
    n = out["n_days"].to_numpy(np.float64)
    sc = out["sum_count"].to_numpy(np.float64)
    sc2 = out["sum_count2"].to_numpy(np.float64)
    var = (sc2 - sc * sc / n) / n
    mean = sc / n
    assert np.allclose(out["fano"].to_numpy(), np.round(var / mean, 9), atol=1e-12)
    assert (out["fano"] >= 0).all()


# --- label propagation -----------------------------------------------------------

def _write_lp_fixture(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    # orders: 1:{5,7}, 2:{10,7}, 3:{10,7} (duplicate -> weight 2),
    # 4:{7,11}, 5:{5,13}, 6:{20,13}
    ok = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    pk = [5, 7, 10, 7, 10, 7, 7, 11, 5, 13, 20, 13]
    pq.write_table(
        pa.table({"l_orderkey": pa.array(ok, pa.int64()), "l_partkey": pa.array(pk, pa.int64())}),
        str(tmp_path / "lineitem.parquet"),
    )
    parts = [5, 7, 10, 11, 13, 20]
    brands = ["Brand#3", "Brand#9", "Brand#7", "Brand#9", "Brand#9", "Brand#1"]
    pq.write_table(
        pa.table({"p_partkey": pa.array(parts, pa.int64()), "p_name": pa.array(["x y"] * 6), "p_brand": pa.array(brands)}),
        str(tmp_path / "part.parquet"),
    )


def test_label_propagation_planted(tmp_path):
    """Weighted majority (7 adopts brand 7: weight-2 neighbor beats
    weight-1), deterministic tie-break (13 ties 1 vs 3 -> min label 1),
    two-hop spread (11 is labeled only in round 2 via 7), seeds clamped."""
    from ndap_data_validator_ray.pipelines.queries import label_propagation_parts

    _write_lp_fixture(tmp_path)
    out = label_propagation_parts(str(tmp_path))
    got = {int(r.l_partkey): (int(r.brand_id), int(r.seeded)) for r in out.itertuples()}
    assert got == {
        5: (3, 1),
        7: (7, 0),
        10: (7, 1),
        11: (7, 0),
        13: (1, 0),
        20: (1, 1),
    }


# --- FD audit ----------------------------------------------------------------------

def test_fd_audit_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import fd_audit_tables

    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
                "event_type": pa.array(["a", "a", "b", "a", None]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "l_partkey": pa.array([10, 10, 11], pa.int64()),
                "l_suppkey": pa.array([1, 2, 1], pa.int64()),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array([1, 1], pa.int64()),
                "o_orderpriority": pa.array(["1-URGENT", "1-URGENT"]),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = fd_audit_tables(str(tmp_path)).set_index("fd")
    # user 1 has 2 types (violating), user 2 has 1 (the null row drops)
    assert tuple(out.loc["events_user_to_type"]) == (2, 1, 2)
    assert tuple(out.loc["lineitem_part_to_supp"]) == (2, 1, 2)
    assert tuple(out.loc["orders_cust_to_priority"]) == (1, 0, 1)


# --- temporal consistency ------------------------------------------------------------

def test_temporal_consistency_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import temporal_consistency_audit

    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([1, 2, 99], pa.int64()),
                "l_shipdate": pa.array(
                    [np.datetime64("2020-01-01", "us"), np.datetime64("2020-02-10", "us"), np.datetime64("2020-01-01", "us")],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1, 2], pa.int64()),
                "o_orderdate": pa.array(
                    [np.datetime64("2020-01-04", "us"), np.datetime64("2020-02-01", "us")], pa.timestamp("us")
                ),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = temporal_consistency_audit(str(tmp_path)).iloc[0]
    # order 1 shipped 3 days early (violation), order 2 shipped after
    # (fine), orderkey 99 is an orphan (inner attach drops it)
    assert int(out["n_joined"]) == 2
    assert int(out["n_violations"]) == 1
    assert int(out["sum_days_early"]) == 3
    assert int(out["max_days_early"]) == 3
    assert out["violation_rate"] == 0.5


# --- linkage entity clusters ----------------------------------------------------------

def test_linkage_clusters_consistent_with_pairs():
    from ndap_data_validator_ray.pipelines.queries import (
        blocked_linkage_parts,
        linkage_entity_clusters_parts,
    )

    clusters = linkage_entity_clusters_parts(SF)
    rep = dict(zip(clusters["p_partkey"].astype(int), clusters["cluster_rep"].astype(int)))
    pairs = blocked_linkage_parts(SF)
    pairs = pairs[(pairs["id_a"] % 3 == 0) & (pairs["id_b"] % 3 == 0)]
    # every matched pair within the subset must share a cluster; reps are members
    for r in pairs.itertuples():
        assert rep[int(r.id_a)] == rep[int(r.id_b)]
    assert set(clusters["cluster_rep"]).issubset(set(clusters["p_partkey"]))
    assert (clusters["cluster_rep"] <= clusters["p_partkey"]).all()


# --- Gram power iteration -------------------------------------------------------------

def test_gram_power_iteration_points_at_dominant_eigvec():
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import gram_power_iteration_embeddings

    out = gram_power_iteration_embeddings(SF)
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    m = np.stack(emb["embedding"].to_pandas().to_numpy()).astype(np.float64)[:, :16]
    q = np.floor(m * 10000.0 + 0.5)
    gram = q.T @ q
    # exact v1 equality (integer matvec vs numpy float is exact here:
    # values stay far below 2^53)
    assert np.array_equal(out["v1"].to_numpy(np.float64), gram @ np.ones(16))
    # each power step monotonically improves alignment with the true top
    # eigenvector (the fixture's Gram is near-isotropic — absolute
    # convergence in 2 steps is NOT claimed, only the iteration property)
    w, v = np.linalg.eigh(gram)
    top = v[:, -1]

    def cos(x):
        return abs(x @ top) / (np.linalg.norm(x) * np.linalg.norm(top))

    v0 = np.ones(16)
    v1 = gram @ v0
    r2 = out["rel_v2"].to_numpy(np.float64)
    assert cos(v1) >= cos(v0) - 1e-12
    assert cos(r2) >= cos(v1) - 1e-12
    # rel_v2 matches the numpy 2-step iterate direction
    v2 = gram @ v1
    assert np.allclose(r2, v2 / np.max(np.abs(v2)), atol=1e-9)
    assert np.max(np.abs(r2)) == 1.0  # normalized by max|v2|


# --- weighted median --------------------------------------------------------------------

def test_weighted_median_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import weighted_median_price_by_flag

    # flag A: prices 1.00 (w 1), 2.00 (w 1), 3.00 (w 10) -> weighted
    # median 3.00; flag B: 1.00 (w 1), 2.00 (w 1) -> lower median 1.00
    pq.write_table(
        pa.table(
            {
                "l_returnflag": pa.array(["A", "A", "A", "B", "B"]),
                "l_extendedprice": pa.array([1.0, 2.0, 3.0, 1.0, 2.0], pa.float64()),
                "l_quantity": pa.array([1.0, 1.0, 10.0, 1.0, 1.0], pa.float64()),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    out = weighted_median_price_by_flag(str(tmp_path)).set_index("l_returnflag")
    assert int(out.loc["A", "weighted_median_cents"]) == 300
    assert int(out.loc["A", "total_weight"]) == 12
    assert int(out.loc["B", "weighted_median_cents"]) == 100
    assert int(out.loc["B", "total_weight"]) == 2


# --- bootstrap CI -----------------------------------------------------------------------

def test_bootstrap_ci_brackets_sample_mean_and_is_deterministic():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import bootstrap_ci_revenue

    out = bootstrap_ci_revenue(SF).iloc[0]
    con = duckdb.connect()
    true_mean = con.execute(
        f"SELECT AVG(o_totalprice) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()[0]
    assert out["ci_lo_dollars"] <= out["ci_hi_dollars"]
    # a 93.75% multiplier-bootstrap interval at n=600 comfortably
    # brackets the sample mean on this fixture
    assert out["ci_lo_dollars"] <= true_mean <= out["ci_hi_dollars"]
    out2 = bootstrap_ci_revenue(SF).iloc[0]
    assert tuple(out) == tuple(out2)  # md5 weights: fully deterministic


# --- frequent triples --------------------------------------------------------------------

def test_frequent_triples_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import frequent_triples_parts

    # orders: 1:{1,2,3,4}, 2:{1,2,3}, 3:{2,3} (no triple), 4:{1,2,3}
    ok = [1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4]
    pk = [1, 2, 3, 4, 1, 2, 3, 2, 3, 3, 2, 1]
    pq.write_table(
        pa.table({"l_orderkey": pa.array(ok, pa.int64()), "l_partkey": pa.array(pk, pa.int64())}),
        str(tmp_path / "lineitem.parquet"),
    )
    out = frequent_triples_parts(str(tmp_path))
    got = [(int(r.p1), int(r.p2), int(r.p3), int(r.n)) for r in out.itertuples()]
    # (1,2,3) appears in orders 1,2,4; order 1 contributes C(4,3)=4 triples
    assert got == [
        (1, 2, 3, 3),
        (1, 2, 4, 1),
        (1, 3, 4, 1),
        (2, 3, 4, 1),
    ]


# --- k-anonymity ----------------------------------------------------------------------

def test_k_anonymity_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import k_anonymity_audit_customers

    # QI groups: (1,'A') x 12 rows (safe), (1,'B') x 3 (at risk), (2,'A') x 1 (at risk)
    nk = [1] * 12 + [1, 1, 1] + [2]
    seg = ["A"] * 12 + ["B"] * 3 + ["A"]
    pq.write_table(
        pa.table({"c_nationkey": pa.array(nk, pa.int32()), "c_mktsegment": pa.array(seg)}),
        str(tmp_path / "customer.parquet"),
    )
    out = k_anonymity_audit_customers(str(tmp_path)).iloc[0]
    assert int(out["n_groups"]) == 3
    assert int(out["n_rows"]) == 16
    assert int(out["n_groups_at_risk"]) == 2
    assert int(out["n_rows_at_risk"]) == 4
    assert int(out["min_group_size"]) == 1


# --- SCD2 intervals ---------------------------------------------------------------------

def test_scd2_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import scd2_user_type_intervals

    ts = [np.datetime64(f"2020-01-0{d}T00:00:00", "us") for d in [1, 2, 3, 4, 5]]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "event_type": pa.array(["a", "a", "b", "a", "c"]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = scd2_user_type_intervals(str(tmp_path))
    got = [
        (int(r.user_id), r.event_type, r.valid_from, r.valid_to, int(r.n_events_in_run))
        for r in out.itertuples()
    ]
    assert got == [
        (1, "a", "2020-01-01 00:00:00", "2020-01-03 00:00:00", 2),
        (1, "b", "2020-01-03 00:00:00", "2020-01-04 00:00:00", 1),
        (1, "a", "2020-01-04 00:00:00", "", 1),
        (2, "c", "2020-01-05 00:00:00", "", 1),
    ]


# --- join-key overlap --------------------------------------------------------------------

def test_join_key_overlap_consistency():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import join_key_overlap_profile

    out = join_key_overlap_profile(SF).set_index("pair")
    con = duckdb.connect()
    n_users = con.execute(
        f"SELECT COUNT(DISTINCT user_id) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()[0]
    r = out.loc["events_user_vs_customer"]
    assert int(r["n_left"]) == n_users
    assert int(r["n_both"]) <= min(int(r["n_left"]), int(r["n_right"]))
    assert 0.0 <= r["containment_left"] <= 1.0


# --- centroid purity -------------------------------------------------------------------

def test_centroid_purity_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import centroid_purity_embeddings

    # two tight clusters + one defector: vec 5 is labeled 0 but sits on
    # cluster 1's centroid -> impure; everything else pure
    vecs, labels = [], []
    for i in range(4):
        vecs.append([1.0 + 0.001 * i] + [0.0] * 15)
        labels.append(0)
    for i in range(4):
        vecs.append([5.0 + 0.001 * i] + [0.0] * 15)
        labels.append(1)
    vecs.append([5.0] + [0.0] * 15)
    labels.append(0)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "label": pa.array(labels, pa.int32()),
                "embedding": pa.array([[float(x) for x in v] + [0.0] * 48 for v in vecs],
                                      pa.list_(pa.float32())),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    out = centroid_purity_embeddings(str(tmp_path)).set_index("label")
    assert int(out.loc[0, "n_vecs"]) == 5
    assert int(out.loc[0, "n_pure"]) == 4
    assert int(out.loc[1, "n_vecs"]) == 4
    assert int(out.loc[1, "n_pure"]) == 4


def test_centroid_purity_tie_is_impure(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import centroid_purity_embeddings

    # two singleton labels at the same point: each vector is EQUIDISTANT
    # (dist 0) to both centroids -> tie -> not pure, exactly
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([0, 1], pa.int64()),
                "label": pa.array([0, 1], pa.int32()),
                "embedding": pa.array([[1.0] * 64, [1.0] * 64], pa.list_(pa.float32())),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    out = centroid_purity_embeddings(str(tmp_path))
    assert (out["n_pure"] == 0).all()


# --- range partition plan ------------------------------------------------------------------

def test_range_partition_plan_balanced():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import range_partition_plan_orders

    out = range_partition_plan_orders(SF)
    assert len(out) == 15
    assert out["boundary_cents"].is_monotonic_increasing
    con = duckdb.connect()
    tot = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/orders.parquet') WHERE o_totalprice IS NOT NULL"
    ).fetchone()[0]
    # each boundary's cumulative count reaches its target rank and
    # overshoots by at most the duplicate mass at that cents value
    for r in out.itertuples():
        assert int(r.rows_at_or_below) >= (int(r.bound_idx) * tot) // 16


# --- greedy coverage selection ----------------------------------------------------------

def test_greedy_coverage_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import greedy_coverage_selection_documents

    # doc 1 covers {a b c d}, doc 2 {a b}, doc 3 {e f g}, doc 4 {c e}
    # greedy: 1 (gain 4) -> 3 (gain 3) -> 2/4 gain 0 -> min doc_id 2 -> 4
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(["a b c d", "a  b", "e f\ng", "c e"]),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = greedy_coverage_selection_documents(str(tmp_path))
    got = [(int(r.sel_round), int(r.doc_id), int(r.gain), int(r.covered_total)) for r in out.itertuples()]
    assert got[:2] == [(1, 1, 4, 4), (2, 3, 3, 7)]
    assert got[2] == (3, 2, 0, 7)
    assert got[3] == (4, 4, 0, 7)
    assert len(got) == 4  # only 4 docs: round 5 has no candidate


def test_greedy_coverage_monotone_on_fixture():
    from ndap_data_validator_ray.pipelines.queries import greedy_coverage_selection_documents

    out = greedy_coverage_selection_documents(SF)
    assert len(out) == 5
    g = out["gain"].to_numpy()
    assert (g[:-1] >= g[1:]).all()  # submodularity: marginal gains non-increasing
    assert out["covered_total"].is_monotonic_increasing
    assert out["doc_id"].nunique() == 5


# --- seasonal anomaly ranking -----------------------------------------------------------

def test_seasonal_anomaly_exact_ranking():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import seasonal_anomaly_days_revenue

    out = seasonal_anomaly_days_revenue(SF)
    assert len(out) == 10
    # the reported residual recomputes from the exact integer columns
    rec = (
        (out["revenue_cents"].to_numpy(np.float64) * out["dow_n"].to_numpy(np.float64)
         - out["dow_sum_cents"].to_numpy(np.float64))
        / out["dow_n"].to_numpy(np.float64) / 100.0
    )
    assert np.allclose(out["residual_dollars"].to_numpy(), np.round(rec, 6), atol=1e-9)
    # epoch-day mod 7 convention
    days = out["day"].to_numpy().astype("datetime64[D]").astype(np.int64)
    assert np.array_equal(days % 7, out["dow"].to_numpy(np.int64))


# --- exact two-sample KS -----------------------------------------------------------------

def test_ks_exact_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import ks_exact_nchars_sources

    # src0: {1,2,3,4}; src1: {3,4,5,6} -> D = 2/4 = 0.5 at x=2
    pq.write_table(
        pa.table(
            {
                "source": pa.array(["src0"] * 4 + ["src1"] * 4 + ["srcX"]),
                "n_chars": pa.array([1, 2, 3, 4, 3, 4, 5, 6, 999], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = ks_exact_nchars_sources(str(tmp_path)).iloc[0]
    assert int(out["n_a"]) == 4 and int(out["n_b"]) == 4
    assert int(out["at_value"]) == 2
    assert int(out["scaled_d"]) == 8  # |2*4 - 0*4|
    assert out["ks_d"] == 0.5


# --- monthly priority drift ----------------------------------------------------------------

def test_priority_drift_chi2_nonnegative_and_counts():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import priority_mix_drift_monthly

    out = priority_mix_drift_monthly(SF)
    assert (out["chi2"] >= 0).all()
    con = duckdb.connect()
    tot = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/orders.parquet') "
        "WHERE o_orderdate IS NOT NULL AND o_orderpriority IS NOT NULL"
    ).fetchone()[0]
    assert int(out["n_orders"].sum()) == tot


# --- brand homophily -------------------------------------------------------------------

def test_brand_homophily_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import brand_homophily_copurchase

    # orders 1:{1,2} same brand, 2:{3,4} cross brand, 3:{1,2} (dup edge
    # collapses) -> E=2, S=1, ends: brand1 x2 (parts 1,2), brand1... parts
    # 1,2 -> Brand#1; 3 -> Brand#1; 4 -> Brand#2
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([1, 1, 2, 2, 3, 3], pa.int64()),
                "l_partkey": pa.array([1, 2, 3, 4, 1, 2], pa.int64()),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "p_partkey": pa.array([1, 2, 3, 4], pa.int64()),
                "p_brand": pa.array(["Brand#1", "Brand#1", "Brand#1", "Brand#2"]),
            }
        ),
        str(tmp_path / "part.parquet"),
    )
    out = brand_homophily_copurchase(str(tmp_path)).iloc[0]
    # edges (1,2) brand1-brand1 (same), (3,4) brand1-brand2: E=2 S=1
    # ends: brand1 count 3, brand2 count 1 -> T = 9 + 1 = 10
    assert int(out["n_edges"]) == 2
    assert int(out["n_same"]) == 1
    assert int(out["sum_end_sq"]) == 10
    # r = (4*1*2 - 10) / (4*4 - 10) = -2/6
    assert out["homophily_r"] == np.round(-2.0 / 6.0, 9)


# --- percolation -----------------------------------------------------------------------

def test_percolation_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import percolation_thresholds_copurchase

    # pair (1,2) appears in 3 orders (w=3), (2,3) in 2 (w=2), (4,5) in 1
    ok = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    pk = [1, 2, 1, 2, 1, 2, 2, 3, 2, 3, 4, 5]
    pq.write_table(
        pa.table({"l_orderkey": pa.array(ok, pa.int64()), "l_partkey": pa.array(pk, pa.int64())}),
        str(tmp_path / "lineitem.parquet"),
    )
    out = percolation_thresholds_copurchase(str(tmp_path)).set_index("threshold")
    # t=2: edges (1,2) and (2,3) -> one chain component of 3 nodes
    assert tuple(out.loc[2]) == (3, 2, 1, 3)
    # t=3: only (1,2)
    assert tuple(out.loc[3]) == (2, 1, 1, 2)


# --- global transitivity -----------------------------------------------------------------

def test_global_transitivity_consistent_with_local():
    from ndap_data_validator_ray.pipelines.queries import (
        global_transitivity_order_skip,
        order_skip_triangles,
    )

    out = global_transitivity_order_skip(SF).iloc[0]
    tri = order_skip_triangles(SF)
    assert int(out["n_triangles"]) * 3 == int(tri["triangles"].sum())
    assert 0.0 <= out["transitivity"] <= 1.0
    assert int(out["n_wedges"]) >= 3 * int(out["n_triangles"])


# --- systematic sampling ------------------------------------------------------------------

def test_systematic_sample_spacing():
    from ndap_data_validator_ray.pipelines.queries import systematic_sample_orders

    out = systematic_sample_orders(SF)
    r = out["rank"].to_numpy(np.int64)
    assert (r % 97 == 0).all()
    assert np.array_equal(r, np.arange(1, len(r) + 1) * 97)
    # ranks follow the (price, orderkey) total order
    assert out["o_totalprice"].is_monotonic_increasing


# --- user feature matrix --------------------------------------------------------------------

def test_user_feature_matrix_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import user_feature_matrix

    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                "event_type": pa.array(["click", "click", "purchase", "view"]),
                "value": pa.array([1.5, 2.0, 10.0, None], pa.float64()),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1], pa.int64()),
                "c_acctbal": pa.array([99.99], pa.float64()),
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    out = user_feature_matrix(str(tmp_path)).set_index("user_id")
    assert int(out.loc[1, "n_click"]) == 2
    assert int(out.loc[1, "n_purchase"]) == 1
    assert int(out.loc[1, "sum_value_cents"]) == 1350
    assert int(out.loc[1, "has_customer"]) == 1
    assert int(out.loc[1, "acctbal_cents"]) == 9999
    assert int(out.loc[2, "n_view"]) == 1
    assert int(out.loc[2, "has_customer"]) == 0
    assert int(out.loc[2, "acctbal_cents"]) == 0


# --- fulfillment SLA ---------------------------------------------------------------------

def test_fulfillment_sla_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import order_fulfillment_sla

    ts = lambda s: np.datetime64(s, "us")
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([1, 1, 2], pa.int64()),
                "l_shipdate": pa.array([ts("2020-01-10"), ts("2020-02-15"), ts("2020-01-05")],
                                       pa.timestamp("us")),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1, 2], pa.int64()),
                "o_orderdate": pa.array([ts("2020-01-01"), ts("2020-01-01")], pa.timestamp("us")),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = order_fulfillment_sla(str(tmp_path)).iloc[0]
    # order 1: last ship 2020-02-15 -> 45 days (miss); order 2: 4 days (hit)
    assert int(out["n_orders"]) == 2
    assert int(out["n_within_30d"]) == 1
    assert int(out["max_lag_days"]) == 45
    assert int(out["sum_lag_days"]) == 49
    assert out["sla_rate"] == 0.5


# --- supplier HHI ------------------------------------------------------------------------

def test_supplier_hhi_bounds_and_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import supplier_hhi_parts

    pq.write_table(
        pa.table(
            {
                "l_partkey": pa.array([1, 1, 1, 1, 2], pa.int64()),
                "l_suppkey": pa.array([10, 10, 10, 20, 30], pa.int64()),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    out = supplier_hhi_parts(str(tmp_path)).set_index("l_partkey")
    # part 1: shares 3/4 and 1/4 -> HHI = 9/16 + 1/16 = 0.625
    assert out.loc[1, "hhi"] == 0.625
    assert int(out.loc[1, "n_suppliers"]) == 2
    # single-supplier part: HHI exactly 1
    assert out.loc[2, "hhi"] == 1.0


# --- dedup cluster size histogram -----------------------------------------------------------

def test_dedup_histogram_conserves_docs():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import dedup_cluster_size_histogram

    out = dedup_cluster_size_histogram(SF)
    con = duckdb.connect()
    n = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/documents.parquet') WHERE doc_id IS NOT NULL"
    ).fetchone()[0]
    assert int(out["n_docs"].sum()) == n
    assert (out["n_docs"] == out["cluster_size"] * out["n_clusters"]).all()


# --- rich club ---------------------------------------------------------------------------

def test_rich_club_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import rich_club_copurchase

    # star around 1 (deg 4) + triangle 1-2-3: degrees 1:4(with 2,3,4,5),
    # 2:2, 3:2, 4:1, 5:1 -> n=5, rank = 5 - 0 = 5 -> d* = max deg = 4
    # rich set = {1} alone -> 0 edges, denom 0 -> density 0
    ok = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    pk = [1, 2, 1, 3, 1, 4, 1, 5, 2, 3]
    pq.write_table(
        pa.table({"l_orderkey": pa.array(ok, pa.int64()), "l_partkey": pa.array(pk, pa.int64())}),
        str(tmp_path / "lineitem.parquet"),
    )
    out = rich_club_copurchase(str(tmp_path)).iloc[0]
    assert int(out["d_star"]) == 4
    assert int(out["n_rich_nodes"]) == 1
    assert int(out["n_rich_edges"]) == 0
    assert out["density"] == 0.0


# --- Gini mean difference ------------------------------------------------------------------

def test_gmd_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import gini_mean_difference_prices

    # values 1.00, 2.00, 2.00, 4.00 -> pair |diffs| in cents:
    # (100,200)x2=200, (100,200)... enumerate: pairs (1,2)=100,(1,2)=100,
    # (1,4)=300,(2,2)=0,(2,4)=200,(2,4)=200 -> sum=900, n_pairs=6
    pq.write_table(
        pa.table({"l_extendedprice": pa.array([1.0, 2.0, 2.0, 4.0], pa.float64())}),
        str(tmp_path / "lineitem.parquet"),
    )
    out = gini_mean_difference_prices(str(tmp_path)).iloc[0]
    assert int(out["n"]) == 4
    assert out["sum_abs_diff_cents"] == "900"
    assert out["gmd_dollars"] == np.round(900 / 6 / 100.0, 6)


# --- interval coalescing -------------------------------------------------------------------

def test_coalesced_windows_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import coalesced_order_windows

    ts = lambda s: np.datetime64(s, "us")
    # cust 1: orders on day 0, 10, 40 -> windows [0,14],[10,24],[40,54]
    # -> spans [0,24] (24 days) + [40,54] (14 days) = 2 spans, 38 days
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array([1, 1, 1], pa.int64()),
                "o_orderdate": pa.array(
                    [ts("2020-01-01"), ts("2020-01-11"), ts("2020-02-10")], pa.timestamp("us")
                ),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = coalesced_order_windows(str(tmp_path)).iloc[0]
    assert int(out["n_orders"]) == 3
    assert int(out["n_spans"]) == 2
    assert int(out["covered_days"]) == 38


# --- longest streak ------------------------------------------------------------------------

def test_longest_streak_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import longest_order_day_streak

    ts = lambda s: np.datetime64(s, "us")
    dates = ["2020-01-01", "2020-01-02", "2020-01-05", "2020-01-06", "2020-01-07", "2020-03-01"]
    pq.write_table(
        pa.table({"o_orderdate": pa.array([ts(d) for d in dates], pa.timestamp("us"))}),
        str(tmp_path / "orders.parquet"),
    )
    out = longest_order_day_streak(str(tmp_path)).iloc[0]
    assert int(out["n_days"]) == 6
    assert int(out["longest_streak"]) == 3
    assert out["streak_start"] == "2020-01-05"


# --- hashed bag-of-words --------------------------------------------------------------------

def test_hashed_bow_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.functions.hashing import md5_lower64
    from ndap_data_validator_ray.pipelines.queries import hashed_bow_features

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["cat cat dog", ""]),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = hashed_bow_features(str(tmp_path)).set_index("doc_id")
    bcat = md5_lower64("cat") % 16
    bdog = md5_lower64("dog") % 16
    assert int(out.loc[1, f"f{bcat:02d}"]) >= 2  # 3 if dog collides
    assert int(out.loc[1].drop("doc_id", errors="ignore").sum()) == 3
    assert int(out.loc[1, f"f{bdog:02d}"]) >= 1
    assert int(out.loc[2].sum()) == 0  # empty doc -> zero vector, still a row


def test_mobility_matrix_conserves_transitions():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import order_value_mobility_matrix

    out = order_value_mobility_matrix(SF)
    assert (out["from_decile"] >= 0).all() and (out["from_decile"] <= 9).all()
    con = duckdb.connect()
    n_orders, n_cust = con.execute(
        f"SELECT COUNT(*), COUNT(DISTINCT o_custkey) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()
    # transitions = orders - customers (each customer chain of length m
    # yields m-1 transitions)
    assert int(out["n"].sum()) == n_orders - n_cust


# --- view->purchase latency -----------------------------------------------------------------

def test_view_purchase_latency_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import view_to_purchase_latency_quantiles

    ts = lambda s: np.datetime64(s, "us")
    # user 1: view at t0, purchase 100s later; user 2: purchase BEFORE
    # its first view (never converts); user 3: no purchase
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "user_id": pa.array([1, 1, 2, 2, 3], pa.int64()),
                "ts": pa.array(
                    [ts("2020-01-01T00:00:00"), ts("2020-01-01T00:01:40"),
                     ts("2020-01-01T00:00:30"), ts("2020-01-01T00:01:00"),
                     ts("2020-01-01T00:00:00")],
                    pa.timestamp("us"),
                ),
                "event_type": pa.array(["view", "purchase", "purchase", "view", "view"]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = view_to_purchase_latency_quantiles(str(tmp_path)).iloc[0]
    assert int(out["n_converting"]) == 1
    assert out["p50_s"] == 100.0
    assert out["p90_s"] == 100.0


# --- mixture reweighting plan ----------------------------------------------------------------

def test_mixture_plan_equalizes():
    from ndap_data_validator_ray.pipelines.queries import mixture_reweighting_plan

    out = mixture_reweighting_plan(SF)
    # weight x token count is the same (= total/n_sources) for all rows
    target = out["weight"].to_numpy() * out["n_tokens"].to_numpy(np.float64)
    assert np.allclose(target, target[0], rtol=1e-6)
    assert abs(out["token_share"].sum() - 1.0) < 1e-6


# --- similar user pairs ---------------------------------------------------------------------

def test_similar_user_pairs_invariants():
    from ndap_data_validator_ray.pipelines.queries import similar_user_pairs_behavior

    out = similar_user_pairs_behavior(SF)
    assert len(out) == 20
    assert (out["user_a"] < out["user_b"]).all()
    assert (out["cos_sim"] <= 1.0).all() and (out["cos_sim"] >= -1.0).all()
    # descending similarity order
    c = out["cos_sim"].to_numpy()
    assert (c[:-1] >= c[1:] - 1e-12).all()


# --- corpus health report -------------------------------------------------------------------

def test_corpus_health_report_consistency():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import corpus_health_report

    out = corpus_health_report(SF).set_index("metric")["value"]
    con = duckdb.connect()
    n = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/documents.parquet') WHERE doc_id IS NOT NULL"
    ).fetchone()[0]
    assert int(out["n_docs"]) == n
    assert 0 <= int(out["n_duplicate_docs_excess"]) < n
    assert int(out["dominant_lang_docs"]) <= n
    assert int(out["n_tokens"]) > 0


# --- quality vs duplication -----------------------------------------------------------------

def test_quality_vs_duplication_counts_conserve():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import quality_vs_duplication

    out = quality_vs_duplication(SF).iloc[0]
    con = duckdb.connect()
    n = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/documents.parquet') WHERE doc_id IS NOT NULL"
    ).fetchone()[0]
    cells = int(out["n_q_dup"]) + int(out["n_q_uniq"]) + int(out["n_nq_dup"]) + int(out["n_nq_uniq"])
    assert cells == n
    assert out["odds_ratio"] >= 0.0


# --- column entropy profile ------------------------------------------------------------------

def test_column_entropy_bounds():
    from ndap_data_validator_ray.pipelines.queries import column_entropy_profile

    out = column_entropy_profile(SF)
    assert len(out) == 5
    for r in out.itertuples():
        assert 0.0 <= r.entropy_bits <= np.log2(r.n_distinct) + 1e-9


# --- naive gap backtest -----------------------------------------------------------------------

def test_naive_gap_backtest_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import naive_gap_backtest

    ts = lambda s: np.datetime64(s, "us")
    # cust 1 orders on days 0, 10, 15, 30: gaps 10,5,15 -> errs |5-10|=5, |15-5|=10
    dates = ["2020-01-01", "2020-01-11", "2020-01-16", "2020-01-31"]
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array([1, 1, 1, 1], pa.int64()),
                "o_orderdate": pa.array([ts(d) for d in dates], pa.timestamp("us")),
                "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = naive_gap_backtest(str(tmp_path)).iloc[0]
    assert int(out["n_preds"]) == 2
    assert int(out["sum_abs_err_days"]) == 15
    assert out["mae_days"] == 7.5


# --- temporal split leakage -----------------------------------------------------------------

def test_temporal_leakage_conserves_customers():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import temporal_split_leakage

    out = temporal_split_leakage(SF).iloc[0]
    con = duckdb.connect()
    n = con.execute(
        f"SELECT COUNT(DISTINCT o_custkey) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()[0]
    assert int(out["n_train_only"]) + int(out["n_test_only"]) + int(out["n_both"]) == n
    assert 0.0 <= out["leak_rate"] <= 1.0


# --- missingness patterns -------------------------------------------------------------------

def test_missingness_patterns_conserve_rows():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import missingness_pattern_events

    out = missingness_pattern_events(SF)
    con = duckdb.connect()
    n = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/events.parquet') WHERE event_type IS NOT NULL"
    ).fetchone()[0]
    assert int(out["n"].sum()) == n
    assert set(out["pattern"]).issubset({0, 1, 2, 3})


# --- salt plan -------------------------------------------------------------------------------

def test_salt_plan_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import salt_plan_orders

    # users: 1 -> 100 rows (hot), 2..11 -> 10 rows each; mean = 200//11 = 18,
    # thr = 9*18//8 = 20 -> only user 1 qualifies, salt = ceil(100/20) = 5
    uid = [1] * 100 + [u for u in range(2, 12) for _ in range(10)]
    pq.write_table(
        pa.table({"user_id": pa.array(uid, pa.int64())}), str(tmp_path / "events.parquet")
    )
    out = salt_plan_orders(str(tmp_path))
    assert len(out) == 1
    r = out.iloc[0]
    assert int(r["user_id"]) == 1 and int(r["n_rows"]) == 100 and int(r["salt_factor"]) == 5


# --- ER cohesion -----------------------------------------------------------------------------

def test_er_cohesion_bounds():
    from ndap_data_validator_ray.pipelines.queries import er_cluster_cohesion

    out = er_cluster_cohesion(SF).iloc[0]
    assert int(out["n_direct_pairs"]) <= int(out["n_pairs"])
    assert 0.0 <= out["cohesion"] <= 1.0
    if int(out["n_multi_clusters"]):
        # every multi-cluster contributes at least one direct pair (it
        # formed through at least one matching edge)
        assert int(out["n_direct_pairs"]) >= int(out["n_multi_clusters"])


# --- source scorecard -----------------------------------------------------------------------

def test_source_scorecard_consistency():
    from ndap_data_validator_ray.pipelines.queries import (
        corpus_health_report,
        source_scorecard,
    )

    sc = source_scorecard(SF)
    hr = corpus_health_report(SF).set_index("metric")["value"]
    assert int(sc["n_tokens"].sum()) == int(hr["n_tokens"])
    assert abs(sc["token_share"].sum() - 1.0) < 1e-6
    assert (sc["n_quality"] <= sc["n_docs"]).all()
    assert (sc["n_dup_excess"] < sc["n_docs"]).all()


# --- heavy hitter stability ------------------------------------------------------------------

def test_heavy_hitter_stability_bounds():
    from ndap_data_validator_ray.pipelines.queries import heavy_hitter_stability

    out = heavy_hitter_stability(SF).iloc[0]
    assert 0 <= int(out["n_overlap"]) <= 20
    assert 0.0 <= out["jaccard"] <= 1.0


# --- trending parts --------------------------------------------------------------------------

def test_trending_parts_invariants():
    from ndap_data_validator_ray.pipelines.queries import trending_parts_quarterly

    out = trending_parts_quarterly(SF)
    assert len(out) == 10
    assert np.array_equal(out["rank"].to_numpy(), np.arange(1, 11))
    n = out["n"].to_numpy()
    assert (n[:-1] >= n[1:]).all()
    assert ((out["prev_rank"] >= 1) | (out["prev_rank"] == -1)).all()


# --- volatile customers ----------------------------------------------------------------------

def test_volatile_customers_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import volatile_customers

    # cust 1: constant prices -> cv 0; cust 2: high spread; cust 3: only
    # 2 orders (excluded by the >= 5 floor)
    ck = [1] * 5 + [2] * 5 + [3] * 2
    pr = [10.0] * 5 + [1.0, 1.0, 1.0, 1.0, 100.0] + [5.0, 6.0]
    pq.write_table(
        pa.table({"o_custkey": pa.array(ck, pa.int64()), "o_totalprice": pa.array(pr, pa.float64())}),
        str(tmp_path / "orders.parquet"),
    )
    out = volatile_customers(str(tmp_path))
    assert list(out["o_custkey"]) == [2, 1]
    assert out.iloc[0]["cv"] > out.iloc[1]["cv"]
    assert out.iloc[1]["cv"] == 0.0


# --- error-then-purchase sessions -------------------------------------------------------------

def test_error_then_purchase_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import error_then_purchase_sessions

    ts = lambda s: np.datetime64(s, "us")
    # user 1 session A: error -> purchase (recovers); session B (gap >30m):
    # purchase -> error (no recovery); user 2: view only
    rows = [
        (1, 1, "2020-01-01T00:00:00", "error"),
        (2, 1, "2020-01-01T00:05:00", "purchase"),
        (3, 1, "2020-01-01T02:00:00", "purchase"),
        (4, 1, "2020-01-01T02:10:00", "error"),
        (5, 2, "2020-01-01T00:00:00", "view"),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "ts": pa.array([ts(r[2]) for r in rows], pa.timestamp("us")),
                "event_type": pa.array([r[3] for r in rows]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = error_then_purchase_sessions(str(tmp_path)).iloc[0]
    assert int(out["n_sessions"]) == 3
    assert int(out["n_with_error"]) == 2
    assert int(out["n_error_then_purchase"]) == 1
    assert out["recovery_rate"] == 0.5


# --- lines per order P99 -----------------------------------------------------------------------

def test_lines_p99_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import lines_per_order_p99

    # 99 orders with 1 line, 1 order with 50 lines
    ok = list(range(1, 100)) + [100] * 50
    pq.write_table(
        pa.table({"l_orderkey": pa.array(ok, pa.int64())}), str(tmp_path / "lineitem.parquet")
    )
    out = lines_per_order_p99(str(tmp_path)).iloc[0]
    assert int(out["n_orders"]) == 100
    assert int(out["p50_lines"]) == 1
    assert int(out["p99_lines"]) == 1   # rank ceil(99) = 99 -> still 1
    assert int(out["max_lines"]) == 50


# --- winsorized mean -------------------------------------------------------------------------

def test_winsorized_value_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import winsorized_value_by_type

    # 100 values: 98 ones, one 0.00 and one 1000.00 -> P1 clamps the 0 up
    # to 0 (rank 1 = 0.00!), P99 clamps 1000 down to 1.00
    vals = [0.0] + [1.0] * 98 + [1000.0]
    pq.write_table(
        pa.table(
            {
                "event_type": pa.array(["x"] * 100),
                "value": pa.array(vals, pa.float64()),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = winsorized_value_by_type(str(tmp_path)).iloc[0]
    assert int(out["n"]) == 100
    assert int(out["lo_cents"]) == 0     # rank ceil(1) = 1 -> the 0.00 itself
    assert int(out["hi_cents"]) == 100   # rank 99 -> 1.00; the 1000 clamps down
    assert int(out["wsum_cents"]) == 0 + 98 * 100 + 100
    assert out["winsorized_mean"] == np.round((98 * 100 + 100) / 100 / 100.0, 6)


# --- distinctive brand tokens ----------------------------------------------------------------

def test_distinctive_brand_tokens_invariants():
    from ndap_data_validator_ray.pipelines.queries import distinctive_brand_tokens

    out = distinctive_brand_tokens(SF)
    assert len(out) == out["p_brand"].nunique()
    assert (out["score"] > 0).all()
    assert (out["n"] >= 1).all()


# --- brand price positioning -----------------------------------------------------------------

def test_brand_positioning_z_centered():
    from ndap_data_validator_ray.pipelines.queries import brand_price_positioning

    out = brand_price_positioning(SF)
    # count-weighted mean of z-scores is ~0 by construction
    w = out["n_lineitems"].to_numpy(np.float64)
    z = out["z"].to_numpy(np.float64)
    assert abs((w * z).sum() / w.sum()) < 1e-4
    assert (out["mean_price"] > 0).all()


# --- revenue concentration -------------------------------------------------------------------

def test_revenue_concentration_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import revenue_concentration_top1pct

    # 100 customers: one whale (1000.00), 99 x 1.00 -> top 1% (k=1) share
    ck = list(range(1, 101))
    pr = [1000.0] + [1.0] * 99
    pq.write_table(
        pa.table({"o_custkey": pa.array(ck, pa.int64()), "o_totalprice": pa.array(pr, pa.float64())}),
        str(tmp_path / "orders.parquet"),
    )
    out = revenue_concentration_top1pct(str(tmp_path)).iloc[0]
    assert int(out["n_customers"]) == 100
    assert int(out["k_top"]) == 1
    assert int(out["top_revenue_cents"]) == 100000
    assert out["share"] == np.round(100000 / 109900, 9)


# --- user behavior entropy -------------------------------------------------------------------

def test_user_entropy_quantize_bounds():
    from ndap_data_validator_ray.pipelines.queries import user_behavior_entropy_mean

    out = user_behavior_entropy_mean(SF).iloc[0]
    assert int(out["n_users"]) > 0
    # entropy over 5 types is bounded by log2(5)
    assert 0.0 <= out["mean_entropy_bits"] <= np.log2(5) + 1e-9
    assert int(out["sum_entropy_microbits"]) >= 0


# --- PPS systematic sampling -----------------------------------------------------------------

def test_pps_sampling_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import pps_systematic_sample_customers

    # one whale worth 96% of revenue is picked (crosses many steps);
    # total picks ~50 with near-zero-revenue customers mostly skipped
    ck = list(range(1, 101))
    pr = [9600.0] + [4.0] * 99
    pq.write_table(
        pa.table({"o_custkey": pa.array(ck, pa.int64()), "o_totalprice": pa.array(pr, pa.float64())}),
        str(tmp_path / "orders.parquet"),
    )
    out = pps_systematic_sample_customers(str(tmp_path))
    assert 1 in set(out["o_custkey"])       # the whale is certain
    assert len(out) <= 51
    assert out["cum_cents"].is_monotonic_increasing


# numpy reports a divide by zero as a RuntimeWarning; plain "error" would
# also fail on Ray's own ResourceWarnings about its log files and workers
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("prices", [[0.1, 0.2, 0.05], [0.0, 0.0, 0.0]])
def test_pps_sampling_total_under_one_step(tmp_path, prices):
    """A revenue total under 50 cents makes the step 0: the SQL twin's
    cum // 0 is NULL and selects nothing, and so does the engine — with
    no numpy divide-by-zero warning on the way."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import _PPS_SQL, pps_systematic_sample_customers
    from scripts.check_oracle import compare

    path = str(tmp_path / "orders.parquet")
    pq.write_table(
        pa.table({"o_custkey": pa.array([3, 1, 2], pa.int64()), "o_totalprice": pa.array(prices, pa.float64())}),
        path,
    )
    out = pps_systematic_sample_customers(str(tmp_path))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM read_parquet('{path}')")
    sql = con.execute(_PPS_SQL).df()
    assert out.empty and list(out.dtypes) == [np.int64] * 3
    assert compare("pps_systematic_sample_customers", out, sql) == []


# --- dedup survivor quality -------------------------------------------------------------------

def test_dedup_survivor_quality_conserves():
    import duckdb

    from ndap_data_validator_ray.pipelines.queries import dedup_survivor_quality_delta

    out = dedup_survivor_quality_delta(SF).iloc[0]
    con = duckdb.connect()
    n = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/documents.parquet') WHERE doc_id IS NOT NULL"
    ).fetchone()[0]
    assert int(out["n_survivors"]) + int(out["n_dropped"]) == n
    assert int(out["n_survivors_q"]) <= int(out["n_survivors"])
    assert int(out["n_dropped_q"]) <= int(out["n_dropped"])


# --- peak minute ------------------------------------------------------------------------------

def test_peak_minute_planted(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.queries import peak_minute_events

    ts = lambda s: np.datetime64(s, "us")
    stamps = [ts("2020-01-01T00:00:10"), ts("2020-01-01T00:05:01"),
              ts("2020-01-01T00:05:59"), ts("2020-01-01T00:07:00")]
    pq.write_table(
        pa.table({"ts": pa.array(stamps, pa.timestamp("us"))}), str(tmp_path / "events.parquet")
    )
    out = peak_minute_events(str(tmp_path)).iloc[0]
    assert out["peak_minute"] == "2020-01-01 00:05:00"
    assert int(out["n_events"]) == 2
    assert int(out["n_active_minutes"]) == 3
