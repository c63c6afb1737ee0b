"""Gates for the round-5 late additions: distributed triangle counting
(stages/triangles.py) and the exact AllPairs Jaccard set-similarity join
(stages/setsim.py) — planted fixtures + randomized brute-force parity."""

import numpy as np
import pandas as pd
import ray


def _tri_brute(edges: pd.DataFrame) -> pd.DataFrame:
    """Exact per-node triangle counts via diag(A^3)/2 on a dense matrix."""
    nodes = np.unique(np.concatenate([edges["id_a"].to_numpy(), edges["id_b"].to_numpy()]))
    idx = {n: i for i, n in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for u, v in zip(edges["id_a"], edges["id_b"]):
        if u != v:
            a[idx[u], idx[v]] = a[idx[v], idx[u]] = 1
    per_node = np.diag(a @ a @ a) // 2
    keep = per_node > 0
    return pd.DataFrame(
        {"node": nodes[keep].astype(np.int64), "triangles": per_node[keep].astype(np.int64)}
    ).reset_index(drop=True)


def test_triangles_planted():
    """K4 (each corner in C(3,2)=3 triangles) + pendant + disjoint chain."""
    from ndap_data_validator_ray.stages.triangles import distributed_triangle_counts

    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    pendant = [(4, 50)]
    chain = [(100, 101), (101, 102), (102, 103)]
    edges = pd.DataFrame(k4 + pendant + chain, columns=["id_a", "id_b"])
    out = distributed_triangle_counts(ray.data.from_pandas(edges).repartition(3))
    assert out["node"].tolist() == [1, 2, 3, 4]
    assert out["triangles"].tolist() == [3, 3, 3, 3]
    assert out["node"].dtype == np.int64 and out["triangles"].dtype == np.int64


def test_triangles_random_vs_brute():
    """Seeded Erdos-Renyi graphs match diag(A^3)/2 exactly, including with
    duplicate / reversed / self-loop edge rows and split input blocks."""
    from ndap_data_validator_ray.stages.triangles import distributed_triangle_counts

    for seed in (3, 11):
        rng = np.random.default_rng(seed)
        n = 36
        ids = rng.permutation(10_000)[:n].astype(np.int64)  # sparse non-contiguous ids
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.18:
                    rows.append((ids[i], ids[j]))
        edges = pd.DataFrame(rows, columns=["id_a", "id_b"])
        want = _tri_brute(edges).sort_values("node").reset_index(drop=True)
        # noise: reversed duplicates + self loops must not change counts
        noisy = pd.concat(
            [edges, edges.rename(columns={"id_a": "id_b", "id_b": "id_a"}),
             pd.DataFrame({"id_a": ids[:5], "id_b": ids[:5]})],
            ignore_index=True,
        )
        got = distributed_triangle_counts(ray.data.from_pandas(noisy).repartition(4))
        pd.testing.assert_frame_equal(got, want)


def test_triangles_empty_and_triangle_free():
    from ndap_data_validator_ray.stages.triangles import distributed_triangle_counts

    empty = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64), "id_b": pd.Series([], dtype=np.int64)})
    out = distributed_triangle_counts(ray.data.from_pandas(empty))
    assert out.empty and list(out.columns) == ["node", "triangles"]

    chain = pd.DataFrame({"id_a": [1, 2, 3], "id_b": [2, 3, 4]})
    out = distributed_triangle_counts(ray.data.from_pandas(chain))
    assert out.empty


def _jac_brute(sets: dict[int, set], t: float) -> pd.DataFrame:
    ids = sorted(sets)
    rows = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            un = len(sets[a] | sets[b])
            j = len(sets[a] & sets[b]) / un if un else 0.0
            if j >= t:
                rows.append((a, b, j))
    return pd.DataFrame(rows, columns=["id_a", "id_b", "jaccard"])


def test_allpairs_planted():
    from ndap_data_validator_ray.stages.setsim import allpairs_jaccard_join

    sets = {
        1: {10, 11, 12},
        2: {10, 11, 12, 13},   # J(1,2) = 3/4
        3: {99},
        4: {99},               # J(3,4) = 1
        5: {20, 21},
        6: {20, 22},           # J(5,6) = 1/3 -> below 0.6
    }
    rows = pd.DataFrame(
        [(i, t) for i, s in sets.items() for t in s], columns=["sid", "tok"]
    )
    out = allpairs_jaccard_join(
        ray.data.from_pandas(rows).repartition(3), "sid", "tok", threshold=0.6
    )
    assert list(zip(out["id_a"], out["id_b"])) == [(1, 2), (3, 4)]
    assert np.allclose(out["jaccard"].to_numpy(), [0.75, 1.0])


def test_allpairs_random_vs_brute():
    """Prefix filtering must be lossless: randomized sets (skewed token
    frequencies, duplicate input rows) match the brute-force join at two
    thresholds, including exact-boundary Jaccards."""
    from ndap_data_validator_ray.stages.setsim import allpairs_jaccard_join

    rng = np.random.default_rng(7)
    sets: dict[int, set] = {}
    for sid in range(60):
        k = int(rng.integers(1, 7))
        # Zipf-ish token draw: low token ids are hot (stress the df ordering)
        toks = set(int(rng.zipf(1.6)) % 40 for _ in range(k))
        sets[sid * 3 + 1] = toks
    rows = pd.DataFrame(
        [(i, t) for i, s in sets.items() for t in s], columns=["sid", "tok"]
    )
    rows = pd.concat([rows, rows.head(40)], ignore_index=True)  # duplicate rows
    for t in (0.5, 0.8):
        want = _jac_brute(sets, t).sort_values(["id_a", "id_b"]).reset_index(drop=True)
        got = allpairs_jaccard_join(
            ray.data.from_pandas(rows).repartition(5), "sid", "tok", threshold=t
        )
        assert list(zip(got["id_a"], got["id_b"])) == list(zip(want["id_a"], want["id_b"]))
        assert np.allclose(got["jaccard"].to_numpy(), want["jaccard"].to_numpy())


def test_allpairs_as_dataset_matches_pandas():
    from ndap_data_validator_ray.stages.setsim import allpairs_jaccard_join

    rng = np.random.default_rng(23)
    rows = pd.DataFrame(
        {"sid": rng.integers(0, 25, 200).astype(np.int64), "tok": rng.integers(0, 15, 200)}
    )
    df = allpairs_jaccard_join(ray.data.from_pandas(rows), "sid", "tok", threshold=0.6)
    ds = allpairs_jaccard_join(
        ray.data.from_pandas(rows), "sid", "tok", threshold=0.6, as_dataset=True
    )
    got = (
        ds.to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
        .astype({"id_a": np.int64, "id_b": np.int64})
    )
    pd.testing.assert_frame_equal(got, df)


def test_bigram_pmi_planted(tmp_path):
    """Hand-computed PMI on a tiny corpus; min-count filter honored."""
    import pyarrow.parquet as pq
    import pyarrow as pa
    from ndap_data_validator_ray.pipelines.queries import bigram_pmi_documents

    # "x y" appears 5 times (passes min count), tokens once more each at
    # the edges; "y z" appears only once (filtered out)
    docs = ["x y " * 5 + "y z", "solo tokens here"]
    pq.write_table(
        pa.table({"doc_id": [1, 2], "text": docs, "lang": ["en", "en"], "source": ["a", "a"], "n_chars": [1, 1]}),
        str(tmp_path / "documents.parquet"),
    )
    out = bigram_pmi_documents(str(tmp_path))
    assert "y z" not in set(out["bigram"])
    row = out[out["bigram"] == "x y"].iloc[0]
    # doc1 tokens = [x y]*5 + [y z] = 12 (5x, 6y, 1z), doc2 = 3
    n_tok = 15.0
    n_bi = 11.0 + 2.0  # doc1 has 11 adjacent pairs, doc2 has 2
    c_xy, c_x, c_y = 5.0, 5.0, 6.0
    want = np.round(np.log((c_xy * n_tok * n_tok) / ((n_bi * c_x) * c_y)), 6)
    assert row["pmi"] == want and row["cnt"] == 5


def test_event_transitions_block_split(tmp_path):
    """Transition counts are invariant to input block boundaries (a user's
    stream re-coalesces in one reducer) and ties break on event_id."""
    import pyarrow.parquet as pq
    import pyarrow as pa
    from ndap_data_validator_ray.pipelines.queries import event_transitions

    ts = pd.to_datetime("2024-01-01")
    rows = {
        "event_id": [1, 2, 3, 4, 5, 6],
        "ts": [ts, ts, ts + pd.Timedelta("1h"), ts, ts + pd.Timedelta("2h"), ts + pd.Timedelta("3h")],
        "user_id": [7, 7, 7, 9, 9, 9],
        "event_type": ["a", "b", "a", "b", "b", "c"],
        "value": [0.0] * 6,
        "props": ["{}"] * 6,
    }
    # user 7: (ts ties on events 1,2 -> order by event_id) a->b, b->a
    # user 9: b->b, b->c
    pq.write_table(pa.table(rows), str(tmp_path / "events.parquet"))
    out = event_transitions(str(tmp_path))
    got = {(r.from_type, r.to_type): (r.n, r.p) for r in out.itertuples()}
    assert got[("a", "b")] == (1, 1.0)
    assert got[("b", "a")][0] == 1 and got[("b", "b")][0] == 1 and got[("b", "c")][0] == 1
    assert abs(got[("b", "a")][1] - 1 / 3) < 1e-9


def test_interval_overlap_random_vs_brute():
    """Owner-bucket replication emits each overlapping pair exactly once:
    randomized intervals (multi-bucket spans, negative starts, touching
    endpoints) match a brute-force O(n^2) join at two bucket widths."""
    from ndap_data_validator_ray.stages.intervaljoin import interval_overlap_join

    rng = np.random.default_rng(13)
    def mk(n, seed_off):
        r = np.random.default_rng(13 + seed_off)
        s = r.integers(-50, 200, n).astype(np.int64)
        ln = r.integers(0, 40, n).astype(np.int64)  # includes zero-length
        return pd.DataFrame({"id": np.arange(n, dtype=np.int64) + seed_off * 1000, "s": s, "e": s + ln})

    a, b = mk(80, 1), mk(70, 2)
    want = []
    for ra in a.itertuples():
        for rb in b.itertuples():
            if ra.s <= rb.e and rb.s <= ra.e:
                want.append((ra.id, rb.id, min(ra.e, rb.e) - max(ra.s, rb.s)))
    want = pd.DataFrame(want, columns=["id_a", "id_b", "overlap"]).sort_values(
        ["id_a", "id_b"]
    ).reset_index(drop=True).astype(np.int64)
    for width in (7, 25):
        got = interval_overlap_join(
            ray.data.from_pandas(a).repartition(3),
            ray.data.from_pandas(b).repartition(2),
            bucket_width=width,
        )
        pd.testing.assert_frame_equal(got, want)


def test_interval_overlap_edges():
    from ndap_data_validator_ray.stages.intervaljoin import interval_overlap_join

    # touching endpoints overlap (closed intervals, overlap 0); disjoint
    # and degenerate (e < s) intervals do not
    a = pd.DataFrame({"id": [1, 2, 3], "s": [0, 100, 50], "e": [10, 110, 40]})
    b = pd.DataFrame({"id": [7, 8], "s": [10, 200], "e": [20, 210]})
    got = interval_overlap_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b), bucket_width=7
    )
    assert list(zip(got["id_a"], got["id_b"], got["overlap"])) == [(1, 7, 0)]
