"""Round-4 gates: ANN recall floors, md5-twin hashing, distributed
candidate-pair verification."""

import numpy as np
import pandas as pd
import pytest
import ray

SF = "/root/testdata/sf0.001"


# --- oracle-adjacent ANN gates (round-3 verdict item 4) --------------------

def test_knn_lsh_recall_floor():
    """LSH ANN recall@10 vs the oracled exact brute force.  Deterministic
    (seeded hyperplanes, fixed fixture): the 12-table Hamming-2 multiprobe
    defaults measure mean 0.98 / min 0.9 at sf0.001 and sf0.01 — floors
    set at the round-4 verdict item 4 bar (mean >= 0.9)."""
    from ndap_data_validator_ray.pipelines.queries import knn_lsh_recall

    r = knn_lsh_recall(SF)
    assert list(r.columns) == ["query_id", "method", "recall_at_10"]
    assert len(r) == 5
    assert r["recall_at_10"].mean() >= 0.9
    assert r["recall_at_10"].min() >= 0.7


def test_knn_ivf_recall_floor():
    from ndap_data_validator_ray.pipelines.queries import knn_ivf_recall

    r = knn_ivf_recall(SF)
    assert len(r) == 5
    assert r["recall_at_10"].mean() >= 0.6
    assert r["recall_at_10"].min() >= 0.5


def test_lsh_multiprobe_improves_recall():
    """Hamming-1 multiprobe must strictly dominate exact-bucket probing on
    the same tables (same seeds, same data)."""
    from ndap_data_validator_ray.stages.similarity import brute_force_topk, lsh_topk

    rng = np.random.default_rng(7)
    mat = rng.standard_normal((400, 16)).astype(np.float64)
    df = pd.DataFrame({"vec_id": np.arange(400), "embedding": [list(v) for v in mat]})
    ds = ray.data.from_pandas(df)
    qids = np.array([0, 1, 2, 3, 4])

    def recall(multiprobe: int) -> float:
        exact = brute_force_topk(ds, qids, mat[:5], k=5, concurrency=2)
        approx = lsh_topk(
            ds, qids, mat[:5], k=5, n_planes=8, n_tables=4, concurrency=2, multiprobe=multiprobe
        )
        hits = total = 0
        for qi in qids:
            e = set(exact[exact["query_id"] == qi]["neighbor_id"])
            a = set(approx[approx["query_id"] == qi]["neighbor_id"])
            hits += len(e & a)
            total += len(e)
        return hits / total

    assert recall(1) >= recall(0)
    assert recall(1) >= 0.4


# --- md5_lower64: the DuckDB md5_number_lower twin --------------------------

def test_md5_lower64_matches_duckdb():
    import duckdb

    from ndap_data_validator_ray.functions.hashing import md5_lower64, md5_lower64_batch

    toks = ["hello", "", "x", "naïve", "a b", "12345"]
    got = [md5_lower64(t) for t in toks]
    want = [
        duckdb.sql("SELECT md5_number_lower(?)", params=[t]).fetchone()[0] for t in toks
    ]
    assert got == want
    # batch path agrees with the scalar path and honors the memo cache
    cache: dict = {}
    arr = md5_lower64_batch(toks * 3, cache)
    assert arr.tolist() == (got * 3)
    assert set(cache) == set(toks)


def test_fingerprint64_is_md5_twin():
    from ndap_data_validator_ray.functions.hashing import md5_lower64
    from ndap_data_validator_ray.functions.text import fingerprint64

    s = pd.Series(["doc one", None, ""])
    got = fingerprint64(s)
    assert got[0] == np.uint64(md5_lower64("doc one"))
    assert got[1] == got[2] == np.uint64(md5_lower64(""))  # null -> ''


def test_simhash_md5_token_hash_deterministic():
    """The md5 token-hash path must give the same signature regardless of
    batch split / actor (pure function of the text)."""
    from ndap_data_validator_ray.stages.dedup_near import SimHashStage

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["alpha beta gamma", "alpha  beta\tgamma"]})
    stage = SimHashStage("text", "doc_id", token_hash="md5")
    out1 = stage(df)
    out2 = SimHashStage("text", "doc_id", token_hash="md5")(df.iloc[::-1].reset_index(drop=True))
    # whitespace runs collapse identically -> same token stream -> same sig
    assert out1["simhash"].iloc[0] == out1["simhash"].iloc[1]
    assert set(out1["simhash"]) == set(out2["simhash"])


# --- distributed pair verification (round-3 verdict items 1/2) --------------

def test_verify_pairs_distributed_scores_and_dedupes():
    from ndap_data_validator_ray.stages.dedup_near import verify_pairs_distributed

    payload = ray.data.from_pandas(
        pd.DataFrame({"id": np.arange(6, dtype=np.int64), "val": [float(i) for i in range(6)]})
    )
    # duplicate candidate rows must collapse to one scored edge
    cands = ray.data.from_pandas(
        pd.DataFrame(
            {
                "id_a": np.array([0, 0, 1, 2], dtype=np.int64),
                "id_b": np.array([5, 5, 4, 3], dtype=np.int64),
            }
        )
    )

    def scorer(a: pd.Series, b: pd.Series) -> np.ndarray:
        return np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64)

    out = verify_pairs_distributed(cands, payload, "id", "val", scorer, "s")
    out = out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert out[["id_a", "id_b"]].values.tolist() == [[0, 5], [1, 4], [2, 3]]
    assert out["s"].tolist() == [5.0, 5.0, 5.0]
    # int64 ids survive the exchanges exactly (no float upcast)
    assert out["id_a"].dtype == np.int64 and out["id_b"].dtype == np.int64


def test_no_driver_text_dict_in_dedup_near():
    """Regression guard for verdict items 1/2: the near-dup verify legs must
    not materialize a driver-side payload dict from a full-corpus scan."""
    import inspect

    import ndap_data_validator_ray.stages.dedup_near as dn

    src = inspect.getsource(dn)
    assert ".to_dict()" not in src
    assert "_minhash_sigs_for_ids" not in src


# --- persisted IVF index (round-3 verdict item 6) ----------------------------

def test_ivf_index_prunes_files_and_keeps_recall(tmp_path):
    from ndap_data_validator_ray.stages.similarity import (
        brute_force_topk,
        ivf_build_index,
        ivf_query_index,
    )

    rng = np.random.default_rng(3)
    mat = rng.standard_normal((600, 16)).astype(np.float64)
    df = pd.DataFrame({"vec_id": np.arange(600), "embedding": [list(v) for v in mat]})
    ds = ray.data.from_pandas(df).repartition(6)
    idx = str(tmp_path / "ivf")
    ivf_build_index(ds, idx, n_clusters=8, train_sample=600)

    import os

    cell_dirs = [d for d in os.listdir(idx) if d.startswith("cell=")]
    assert len(cell_dirs) >= 6  # corpus actually spread across cells

    qids = np.array([0, 1, 2])
    res, pruned = ivf_query_index(idx, qids, mat[:3], k=5, nprobe=2, concurrency=2)
    # STRICT file subset: nprobe=2 of >=6 cells -> at most 6 of the cell
    # dirs are ever read (union over 3 queries), provably not all of them
    read_cells = {f.split("cell=")[1].split("/")[0] for f in pruned.input_files()}
    assert len(read_cells) < len(cell_dirs)
    assert len(read_cells) <= 6

    # every result's neighbor must come from a probed cell, and recall vs
    # exact stays useful
    exact = brute_force_topk(ds, qids, mat[:3], k=5, concurrency=2)
    hits = total = 0
    for qi in qids:
        e = set(exact[exact["query_id"] == qi]["neighbor_id"])
        a = set(res[res["query_id"] == qi]["neighbor_id"])
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.4

    # the indexed variant agrees with the streaming ivf_topk contract:
    # rank column is 1..k per query
    for qi in qids:
        ranks = res[res["query_id"] == qi]["rank"].tolist()
        assert ranks == list(range(1, len(ranks) + 1))


# --- int64-exact distributed running sum (round-3 ADVICE) --------------------

def test_global_running_sum_int64_exact_past_2_53():
    """Integer inputs accumulate in int64 end-to-end: prefixes beyond
    2^53 (where float64 silently rounds) must stay exact."""
    from ndap_data_validator_ray.stages.sort import global_running_sum

    # first value lands past 2^53 with an ODD prefix; the +2 steps keep
    # every later prefix odd, i.e. unrepresentable in float64
    vals = np.array([2**53 + 1, 2, 2, 2, 2, 2, 2, 2], dtype=np.int64)
    df = pd.DataFrame({"k": np.arange(8, dtype=np.int64), "v": vals})
    ds = ray.data.from_pandas(df).repartition(4)
    out = (
        global_running_sum(ds, ["k"], "v", out="run", n_parts=4)
        .to_pandas()
        .sort_values("k")
    )
    expect = np.cumsum(vals)
    assert out["run"].to_numpy().tolist() == expect.tolist()
    assert out["run"].dtype == np.int64
    # float64 could NOT represent these: proves the int path is live
    assert any(int(np.float64(int(x))) != int(x) for x in expect)


# --- tokenizer parity: engine word_ngrams vs SQL oracle fragment -------------

def test_gram_sql_fragment_matches_engine_on_tricky_whitespace():
    """Round-3 ADVICE: the oracles' old string_split(text, ' ') diverged
    from the engine's any-whitespace str.split() on newlines, runs of
    spaces, and empty text.  The normalized regexp_split fragment must
    agree on exactly those inputs."""
    import duckdb

    from ndap_data_validator_ray.functions.hashing import word_ngrams

    texts = [
        "plain three token doc",
        "double  space",
        "newline\nseparated tokens here",
        "tab\tand\nmix  of runs",
        "",
        "  leading and trailing  ",
        "two tokens",
    ]
    con = duckdb.connect()
    con.execute("CREATE TABLE d AS SELECT * FROM (SELECT unnest(range(7)) AS doc_id)")
    con.execute("ALTER TABLE d ADD COLUMN text VARCHAR")
    for i, t in enumerate(texts):
        con.execute("UPDATE d SET text = ? WHERE doc_id = ?", [t, i])
    rows = con.execute(r"""
        WITH tok AS (
          SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\s+'), x -> x <> '') AS ws FROM d
        )
        SELECT doc_id,
          CASE WHEN len(ws) >= 3
            THEN list_distinct(list_transform(range(1, len(ws) - 1), i -> array_to_string(ws[i:i+2], ' ')))
            WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
            ELSE CAST([] AS VARCHAR[]) END AS g
        FROM tok ORDER BY doc_id
    """).fetchall()
    for (doc_id, g), t in zip(rows, texts):
        assert set(g) == word_ngrams(t, 3), (t, g, word_ngrams(t, 3))


# --- distributed connected components (100 TB dedup clustering) --------------

def test_distributed_cc_chain_star_ring_and_isolated():
    from ndap_data_validator_ray.stages.cc import distributed_connected_components

    # long chain 0-1-2-...-59 with max_rounds=20: naive min-propagation
    # moves the label one hop per round and would need 59 rounds, so
    # convergence inside 20 PROVES the pointer-jump path is live
    # (log2(60) ~ 6).  Plus a star, a ring, and isolated nodes.
    chain = [(i, i + 1) for i in range(59)]
    star = [(1000, 1000 + i) for i in range(1, 8)]
    ring = [(2000 + i, 2000 + (i + 1) % 10) for i in range(10)]
    edges = pd.DataFrame(chain + star + ring, columns=["id_a", "id_b"]).astype(np.int64)
    nodes = pd.DataFrame({"node": np.concatenate([np.arange(60), np.array([3000, 3001])]).astype(np.int64)})
    out = (
        distributed_connected_components(
            ray.data.from_pandas(edges).repartition(4),
            nodes=ray.data.from_pandas(nodes),
            max_rounds=20,
            small_graph_cap=0,  # pin the DISTRIBUTED rounds (pointer-jump proof)
        )
        .to_pandas()
        .sort_values("node")
    )
    lab = dict(zip(out["node"], out["component"]))
    assert all(lab[i] == 0 for i in range(60))            # chain collapses to min
    assert all(lab[1000 + i] == 1000 for i in range(8))   # star
    assert all(lab[2000 + i] == 2000 for i in range(10))  # ring
    assert lab[3000] == 3000 and lab[3001] == 3001        # isolated
    # every node labeled exactly once
    assert len(out) == len(set(out["node"])) == 60 + 8 + 10 + 2


def test_distributed_cc_matches_driver_union_find():
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.dedup_near import connected_components

    rng = np.random.default_rng(11)
    a = rng.integers(0, 200, 150).astype(np.int64)
    b = rng.integers(0, 200, 150).astype(np.int64)
    edges = pd.DataFrame({"id_a": a, "id_b": b})
    got = (
        distributed_connected_components(
            ray.data.from_pandas(edges).repartition(3), small_graph_cap=0
        )  # cap=0: comparing the DISTRIBUTED rounds against union-find
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    want = connected_components(edges).rename(columns={"doc_id": "node", "cluster_id": "component"})
    want = want.sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"node": np.int64, "component": np.int64}),
        want.astype({"node": np.int64, "component": np.int64}),
    )


def test_near_dup_clusters_planted():
    """End-to-end dedup flow: a planted trio of near-identical docs must
    land in ONE cluster with the min doc_id as representative."""
    import ray.data

    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.dedup_near import minhash_lsh_pairs

    base = (
        "the quick brown fox jumps over the lazy dog and then runs far away "
        "into the deep green forest while the hunters sleep soundly at home"
    )
    rows = [{"doc_id": i, "text": f"unique filler document number {i} " + "content " * (10 + i % 7)} for i in range(40)]
    rows += [
        {"doc_id": 100, "text": base},
        {"doc_id": 101, "text": base + " tonight"},
        {"doc_id": 102, "text": base.replace("green", "dark")},
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(3)
    pairs = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, concurrency=2)
    planted = pairs[(pairs["id_a"] >= 100) & (pairs["id_b"] >= 100)]
    assert len(planted) >= 2  # recall found the trio
    comp = (
        distributed_connected_components(
            ray.data.from_pandas(pairs[["id_a", "id_b"]].reset_index(drop=True)).materialize(),
        )
        .to_pandas()
        .set_index("node")["component"]
    )
    assert comp.loc[100] == comp.loc[101] == comp.loc[102] == 100
