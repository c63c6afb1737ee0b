"""Operator-level tests: exact/near dedup, similarity search, multimodal
plumbing, and folder-mode role validation."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def test_exact_dedup_keeps_min_id():
    from ndap_data_validator_ray.stages.dedup import exact_dedup

    df = pd.DataFrame(
        {
            "doc_id": [5, 1, 2, 3, 4, 6],
            "text": ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa"],
        }
    )
    ds = ray.data.from_pandas(df)
    kept = exact_dedup(ds, ["text"], "doc_id").to_pandas().sort_values("doc_id")
    assert sorted(kept["doc_id"]) == [1, 2, 3]
    assert set(kept["text"]) == {"aaa", "bbb", "ccc"}


def test_key_counts_matches_pandas():
    from ndap_data_validator_ray.stages.dedup import duplicate_keys

    rng = np.random.default_rng(2)
    keys = rng.integers(0, 50, 400)
    ds = ray.data.from_pandas(pd.DataFrame({"k": keys}))
    dup = duplicate_keys(ds, "k").to_pandas()
    exp = pd.Series(keys).value_counts()
    exp = exp[exp > 1]
    assert dict(zip(dup["k"], dup["cnt"])) == exp.to_dict()


# ---------------------------------------------------------------------------
# near-dup
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def near_dup_docs():
    base = "the quick brown fox jumps over the lazy dog and runs far away into the woods "
    rows = []
    for i in range(30):
        rows.append((i, f"unique document number {i} about topic {i * 7} " * 4 + "x" * (i % 5)))
    rows.append((100, base * 3))
    rows.append((101, (base * 3).replace("lazy", "sleepy")))  # near-dup of 100
    rows.append((102, base * 3))  # exact dup of 100
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def test_minhash_lsh_finds_planted_pairs(near_dup_docs):
    from ndap_data_validator_ray.stages.dedup_near import connected_components, minhash_lsh_pairs

    ds = ray.data.from_pandas(near_dup_docs)
    pairs = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.6, concurrency=2)
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    assert (100, 102) in found  # exact dup
    assert (100, 101) in found or (101, 102) in found  # near dup
    clusters = connected_components(pairs)
    cl = dict(zip(clusters["doc_id"], clusters["cluster_id"]))
    assert cl[100] == cl[101] == cl[102]


def test_simhash_finds_planted_pairs(near_dup_docs):
    from ndap_data_validator_ray.stages.dedup_near import simhash_near_pairs

    ds = ray.data.from_pandas(near_dup_docs)
    pairs = simhash_near_pairs(ds, "text", "doc_id", max_hamming=3, concurrency=2)
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    assert (100, 102) in found
    # hamming of the exact pair is 0
    row = pairs[(pairs["id_a"] == 100) & (pairs["id_b"] == 102)]
    assert int(row["hamming"].iloc[0]) == 0


def test_ngram_jaccard_verifies(near_dup_docs):
    from ndap_data_validator_ray.stages.dedup_near import ngram_jaccard_pairs

    ds = ray.data.from_pandas(near_dup_docs)
    pairs = ngram_jaccard_pairs(ds, "text", "doc_id", n=3, threshold=0.5)
    found = {tuple(r) for r in pairs[["id_a", "id_b"]].to_numpy()}
    assert (100, 102) in found
    exact = pairs[(pairs["id_a"] == 100) & (pairs["id_b"] == 102)]
    assert float(exact["jaccard"].iloc[0]) == 1.0


# ---------------------------------------------------------------------------
# similarity search
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def emb_dataset():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((300, 16)).astype(np.float64)
    mat[250] = mat[10] * 1.5 + rng.standard_normal(16) * 0.01  # near-dup direction of 10
    df = pd.DataFrame({"vec_id": np.arange(300), "embedding": [list(v) for v in mat]})
    return df, mat


def test_brute_force_topk_matches_numpy(emb_dataset):
    from ndap_data_validator_ray.stages.similarity import brute_force_topk

    df, mat = emb_dataset
    ds = ray.data.from_pandas(df)
    qids = np.array([0, 1, 2])
    out = brute_force_topk(ds, qids, mat[:3], k=5, concurrency=2)
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for qi in qids:
        sims = norm @ norm[qi]
        order = np.lexsort((np.arange(len(sims)), -sims))[:5]
        got = out[out["query_id"] == qi].sort_values("rank")["neighbor_id"].tolist()
        assert got == list(order), (qi, got, list(order))


def test_lsh_topk_recall(emb_dataset):
    from ndap_data_validator_ray.stages.similarity import brute_force_topk, lsh_topk

    df, mat = emb_dataset
    ds = ray.data.from_pandas(df)
    qids = np.array([0, 1, 2, 3, 4])
    exact = brute_force_topk(ds, qids, mat[:5], k=5, concurrency=2)
    approx = lsh_topk(ds, qids, mat[:5], k=5, n_planes=6, n_tables=12, concurrency=2)
    # each query must at least find itself, and recall@5 should be decent
    hits, total = 0, 0
    for qi in qids:
        e = set(exact[exact["query_id"] == qi]["neighbor_id"])
        a = set(approx[approx["query_id"] == qi]["neighbor_id"])
        assert qi in a  # identical vector always collides with itself
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.4, hits / total


def test_embedding_near_duplicates(emb_dataset):
    from ndap_data_validator_ray.stages.similarity import embedding_near_duplicates

    df, _ = emb_dataset
    ds = ray.data.from_pandas(df)
    pairs = embedding_near_duplicates(ds, threshold=0.95, n_planes=8, concurrency=2)
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    assert (10, 250) in found


# ---------------------------------------------------------------------------
# multimodal plumbing (stubbed codecs, real stages)
# ---------------------------------------------------------------------------

def test_image_decode_stage():
    from ndap_data_validator_ray.stages.multimodal import ImageDecodeStage, encode_fake_image, _decode_image

    rng = np.random.default_rng(6)
    imgs = [rng.integers(0, 255, (32, 48, 3), dtype=np.uint8) for _ in range(5)]
    blobs = [encode_fake_image(im) for im in imgs] + [b"corrupt"]
    batch = pa.table({"image": pa.array(blobs, pa.binary())})
    out = ImageDecodeStage(resize_to=(8, 8))(batch)
    assert out["_img_ok"].to_pylist() == [True] * 5 + [False]
    assert out["_img_h"].to_pylist()[:5] == [32] * 5
    thumb = _decode_image(out["_img_thumb"].to_pylist()[0])
    assert thumb.shape == (8, 8, 3)


def test_frame_sample_stage():
    from ndap_data_validator_ray.stages.multimodal import FrameSampleStage, encode_fake_video, _decode_image

    rng = np.random.default_rng(7)
    frames = rng.integers(0, 255, (25, 16, 16, 3), dtype=np.uint8)
    batch = pa.table(
        {
            "clip_id": pa.array(["v1", "v2"], pa.string()),
            "video": pa.array([encode_fake_video(frames), b"junk"], pa.binary()),
        }
    )
    out = FrameSampleStage(stride=10)(batch)
    assert out["clip_id"].to_pylist() == ["v1", "v1", "v1"]
    assert out["frame_idx"].to_pylist() == [0, 10, 20]
    f0 = _decode_image(out["frame"].to_pylist()[0])
    assert np.array_equal(f0, frames[0])


# ---------------------------------------------------------------------------
# folder-mode role validation (reference main.py:880-936 fold semantics)
# ---------------------------------------------------------------------------

def test_validate_files_fold(tmp_path):
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.role_validation import validate_files

    good = pa.table({"period": ["2020", "2021"], "val": ["1", "2"]})
    bad = pa.table({"period": ["2020", "nope"], "val": ["1", "x"]})
    f1, f2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(good, f1)
    pq.write_table(bad, f2)
    roles = {"period": "Time", "val": "Measures"}
    rep = validate_files([f1, f2], roles, {"val": "integer"})
    assert rep["passed"] is False
    by_file = {r["file"]: r for r in rep["files"]}
    assert by_file[f1]["passed"] is True
    assert by_file[f2]["passed"] is False
    assert by_file[f2]["failed_columns"] == ["period", "val"]
    # reference reason strings surface per file
    assert "Non-numeric values detected" in by_file[f2]["per_column"]["val"]["reasons"]


def test_ivf_topk_recall(emb_dataset):
    from ndap_data_validator_ray.stages.similarity import brute_force_topk, ivf_topk

    df, mat = emb_dataset
    ds = ray.data.from_pandas(df)
    qids = np.array([0, 1, 2, 3, 4])
    exact = brute_force_topk(ds, qids, mat[:5], k=5, concurrency=2)
    approx = ivf_topk(ds, qids, mat[:5], k=5, n_clusters=8, nprobe=3, concurrency=2)
    hits, total = 0, 0
    for qi in qids:
        e = set(exact[exact["query_id"] == qi]["neighbor_id"])
        a = set(approx[approx["query_id"] == qi]["neighbor_id"])
        assert qi in a  # the query vector's own cell is always probed
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.5, hits / total


def test_ivf_recall_on_cluster_sorted_input():
    """The IVF quantizer trains on a seeded RANDOM sample — on input sorted
    by cluster label, first-N training (round-2 defect) would only ever see
    cluster 0 and recall on later clusters would collapse."""
    from ndap_data_validator_ray.stages.similarity import brute_force_topk, ivf_topk

    rng = np.random.default_rng(42)
    centers = rng.standard_normal((6, 16)) * 4
    rows = []
    for label in range(6):  # sorted by cluster label on purpose
        pts = centers[label] + rng.standard_normal((80, 16)) * 0.3
        rows.extend((label * 80 + i, list(p)) for i, p in enumerate(pts))
    df = pd.DataFrame(rows, columns=["vec_id", "embedding"])
    mat = np.vstack(df["embedding"].to_numpy())
    ds = ray.data.from_pandas(df).repartition(6)
    # one query per cluster, including the LAST cluster (never in first-N)
    qids = np.array([0, 160, 400])
    exact = brute_force_topk(ds, qids, mat[qids], k=5, concurrency=2)
    approx = ivf_topk(ds, qids, mat[qids], k=5, n_clusters=6, nprobe=2, train_sample=120, concurrency=2)
    for qi in qids:
        e = set(exact[exact["query_id"] == qi]["neighbor_id"])
        a = set(approx[approx["query_id"] == qi]["neighbor_id"])
        assert len(e & a) / len(e) >= 0.6, (qi, e, a)


def test_minhash_hot_bucket_star_edges():
    """>cap identical docs in one band bucket: star edges keep the cluster
    connected (nothing silently dropped), oversized counter stays 0 because
    identical fingerprints collapse to one representative."""
    from ndap_data_validator_ray.stages.dedup_near import connected_components, minhash_lsh_pairs

    rows = [(i, "exactly the same boilerplate sentence repeated " * 3) for i in range(40)]
    rows += [(100 + i, f"totally different document {i} with its own words {i*13}") for i in range(5)]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    stats: dict = {}
    pairs = minhash_lsh_pairs(
        ray.data.from_pandas(df), "text", "doc_id", threshold=0.8, verify_cap=8, stats=stats
    )
    clusters = connected_components(pairs)
    cl = dict(zip(clusters["doc_id"], clusters["cluster_id"]))
    assert len({cl[i] for i in range(40)}) == 1  # all 40 identical docs in one cluster
    assert stats["oversized_buckets"] == 0


def test_minhash_oversized_distinct_bucket_surfaced():
    """>cap DISTINCT-signature docs colliding in a band: the sub-bucket
    split must be surfaced via stats (never a silent empty result)."""
    from ndap_data_validator_ray.stages.dedup_near import minhash_lsh_pairs

    base = "shared boilerplate prefix that dominates every shingle in the document body " * 4
    rows = [(i, base + f"tail{i}") for i in range(60)]  # 60 near-dup, distinct sigs
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    stats: dict = {}
    pairs = minhash_lsh_pairs(
        ray.data.from_pandas(df), "text", "doc_id", threshold=0.7, verify_cap=8, stats=stats
    )
    # either the sub-buckets still recover pairs, or the split is counted —
    # in this construction both hold
    assert stats["oversized_buckets"] >= 1
    assert len(pairs) > 0


def test_simhash_hot_bucket_star_edges():
    from ndap_data_validator_ray.stages.dedup_near import simhash_near_pairs

    rows = [(i, "identical words everywhere always") for i in range(30)]
    rows += [(200, "something else entirely unrelated")]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    stats: dict = {}
    pairs = simhash_near_pairs(
        ray.data.from_pandas(df), "text", "doc_id", max_hamming=3, verify_cap=8, stats=stats
    )
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    # star edges: every identical doc is paired with the min id
    assert all((0, i) in found for i in range(1, 30))
    assert stats["oversized_buckets"] == 0


def test_embedding_near_dup_hot_bucket():
    """>cap vectors in one signature bucket: fine-signature sub-buckets keep
    near-identical vectors together and the event is counted."""
    from ndap_data_validator_ray.stages.similarity import embedding_near_duplicates

    rng = np.random.default_rng(5)
    v = rng.standard_normal(16)
    # 50 tiny perturbations of one vector -> same coarse sig bucket
    mat = v[None, :] + rng.standard_normal((50, 16)) * 0.001
    df = pd.DataFrame({"vec_id": np.arange(50), "embedding": [list(x) for x in mat]})
    stats: dict = {}
    pairs = embedding_near_duplicates(
        ray.data.from_pandas(df), threshold=0.99, n_planes=4, verify_cap=10, stats=stats
    )
    assert stats["oversized_buckets"] >= 1
    assert len(pairs) > 0  # fine sub-buckets still verify the near-identical set


def test_exact_jaccard_pairs_matches_bruteforce():
    from ndap_data_validator_ray.functions import hashing as hs
    from ndap_data_validator_ray.stages.dedup_near import exact_jaccard_pairs

    rng = np.random.default_rng(33)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=20)) for _ in range(40)]
    texts[35] = texts[3] + " extra tail words here"  # planted near-dup
    df = pd.DataFrame({"doc_id": np.arange(40), "text": texts})
    got = exact_jaccard_pairs(ray.data.from_pandas(df).repartition(4), "text", "doc_id", n=3, threshold=0.3, tiles=3)
    grams = {i: hs.word_ngrams(t, 3) for i, t in zip(df["doc_id"], df["text"])}
    exp = []
    for i in range(40):
        for j in range(i + 1, 40):
            s = hs.jaccard(grams[i], grams[j])
            if s >= 0.3:
                exp.append((i, j, s))
    exp_df = pd.DataFrame(exp, columns=["id_a", "id_b", "jaccard"])
    assert len(got) == len(exp_df) and len(got) > 0
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"id_a": "int64", "id_b": "int64"}),
        exp_df.reset_index(drop=True).astype({"id_a": "int64", "id_b": "int64"}),
    )


def test_bucketed_join_matches_pandas():
    from ndap_data_validator_ray.stages.join import bucketed_join

    rng = np.random.default_rng(8)
    left = pd.DataFrame({"k": rng.integers(0, 40, 200), "x": rng.integers(0, 9, 200)})
    right = pd.DataFrame({"k": np.arange(0, 50, 2), "name": [f"n{v}" for v in range(0, 50, 2)]})
    got = (
        bucketed_join(ray.data.from_pandas(left), ray.data.from_pandas(right), on=["k"], how="inner")
        .to_pandas()
        .sort_values(["k", "x"])
        .reset_index(drop=True)
    )
    exp = left.merge(right, on="k", how="inner").sort_values(["k", "x"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "x", "name"]].astype({"k": "int64", "x": "int64"}),
        exp[["k", "x", "name"]].astype({"k": "int64", "x": "int64"}),
    )


def test_coerce_table_transform():
    from ndap_data_validator_ray.pipelines.transform import coerce_table

    df = pd.DataFrame({"a": ["1", "2.5", "x"], "b": ["yes", "no", "?"], "d": ["2020-01-01", "bad", None]})
    out = coerce_table(
        ray.data.from_pandas(df), {"a": "integer", "b": "boolean", "d": "date"}
    ).to_pandas()
    assert out["a"].tolist()[0] == 1 and pd.isna(out["a"]).tolist() == [False, True, True]
    assert out["b"].tolist()[:2] == [True, False] and pd.isna(out["b"][2])
    assert out["d"][0] == pd.Timestamp("2020-01-01") and pd.isna(out["d"][1])


def test_validate_files_corrupt_file_fallback(tmp_path):
    """A broken file in folder mode gets a failed record; healthy files
    still produce real verdicts (main.py:928-936)."""
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.pipelines.role_validation import validate_files

    good = pa.table({"period": ["2020", "2021"], "val": ["1", "2"]})
    f1, f2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(good, f1)
    with open(f2, "wb") as f:
        f.write(b"JUNK")
    rep = validate_files([f1, f2], {"period": "Time", "val": "Measures"}, {"val": "integer"})
    assert rep["passed"] is False
    by_file = {r["file"]: r for r in rep["files"]}
    assert by_file[f1]["passed"] is True and by_file[f1]["per_column"]["val"]["passed"] is True
    assert by_file[f2]["passed"] is False and "error" in by_file[f2]


def test_key_counts_extreme_hot_key_skew():
    """A key with 50k copies (99% of rows) must neither skew a reducer
    beyond its bucket nor miscount: batch partials mean the hot key ships
    as one row per batch, not one per occurrence."""
    from ndap_data_validator_ray.stages.dedup import duplicate_keys

    hot = np.full(50_000, 7, dtype=np.int64)
    cold = np.arange(100, 600, dtype=np.int64)
    keys = np.concatenate([hot, cold, [100]])  # 100 duplicated once too
    ds = ray.data.from_pandas(pd.DataFrame({"k": keys})).repartition(16)
    dup = duplicate_keys(ds, "k").to_pandas()
    got = dict(zip(dup["k"], dup["cnt"]))
    assert got == {7: 50_000, 100: 2}


# ---------------------------------------------------------------------------
# Bloom anti-join + counted exact dedup (round-2 scale paths)
# ---------------------------------------------------------------------------

def test_bloom_filter_no_false_negatives():
    from ndap_data_validator_ray.stages.bloom import BloomFilter

    rng = np.random.default_rng(3)
    present = rng.integers(0, 1 << 40, 5000)
    absent = rng.integers(1 << 41, 1 << 42, 5000)
    bf = BloomFilter.sized_for(len(present), fp_rate=0.01)
    bf.add(present)
    assert bf.contains(present).all()  # never a false negative
    assert bf.contains(absent).mean() < 0.05  # fp rate in the right ballpark
    assert len(bf.contains(np.array([], dtype=np.int64))) == 0


def test_bloom_filter_string_keys():
    from ndap_data_validator_ray.stages.bloom import BloomFilter

    keys = np.array([f"clip-{i:08d}" for i in range(2000)], dtype=object)
    bf = BloomFilter.sized_for(len(keys))
    bf.add(keys)
    assert bf.contains(keys).all()
    other = np.array([f"other-{i}" for i in range(2000)], dtype=object)
    assert bf.contains(other).mean() < 0.05


def test_bucketed_join_anti_matches_pandas():
    from ndap_data_validator_ray.stages.join import bucketed_join

    rng = np.random.default_rng(9)
    left = pd.DataFrame({"k": rng.integers(0, 60, 300), "x": np.arange(300)})
    right = pd.DataFrame({"k": np.arange(0, 60, 3)})
    got = (
        bucketed_join(ray.data.from_pandas(left), ray.data.from_pandas(right), on=["k"], how="anti")
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )
    exp = left[~left["k"].isin(right["k"])].sort_values("x").reset_index(drop=True)
    assert got["k"].dtype == np.int64 and got["x"].dtype == np.int64  # no float64 upcast
    pd.testing.assert_frame_equal(got[["k", "x"]], exp[["k", "x"]])


def test_bucketed_join_anti_null_probe_keys_kept():
    """NOT EXISTS semantics: a null probe key never equals anything (even a
    null build key), so null-keyed probe rows are anti-join output."""
    from ndap_data_validator_ray.stages.join import bucketed_join

    left = pd.DataFrame({"k": pd.array([1, 2, None, 4, None], dtype="Int64"), "x": [10, 20, 30, 40, 50]})
    right = pd.DataFrame({"k": pd.array([2, None], dtype="Int64")})
    got = (
        bucketed_join(ray.data.from_pandas(left), ray.data.from_pandas(right), on=["k"], how="anti")
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )
    assert got["x"].tolist() == [10, 30, 40, 50]  # null-keyed rows 30/50 kept


def test_bloom_anti_join_finds_exact_orphans():
    """End-to-end: definite (bloom-miss) and verified (bloom-hit false
    positives) legs together return exactly the orphan set."""
    from ndap_data_validator_ray.stages.bloom import bloom_anti_join

    rng = np.random.default_rng(11)
    build_keys = rng.choice(np.arange(0, 20_000), size=8000, replace=False)
    probe_keys = np.arange(0, 25_000)  # 5000+ guaranteed orphans
    probe = pd.DataFrame({"pk": probe_keys, "payload": probe_keys * 2})
    build = pd.DataFrame({"bk": build_keys})
    got = (
        bloom_anti_join(
            ray.data.from_pandas(probe).repartition(8),
            ray.data.from_pandas(build).repartition(4),
            probe_on="pk",
            build_on="bk",
            fp_rate=0.05,
        )
        .to_pandas()
        .sort_values("pk")
        .reset_index(drop=True)
    )
    exp = probe[~probe["pk"].isin(build_keys)].sort_values("pk").reset_index(drop=True)
    # both legs (bloom-miss arrow passthrough + bucketed verify) must keep
    # int64 — a float64 verify leg would poison the union schema
    assert got["pk"].dtype == np.int64 and got["payload"].dtype == np.int64
    pd.testing.assert_frame_equal(got, exp)


def test_exact_dedup_counts_matches_pandas():
    from ndap_data_validator_ray.stages.dedup import exact_dedup_counts

    rng = np.random.default_rng(13)
    texts = [f"doc body {i % 37}" for i in range(500)]
    df = pd.DataFrame({"doc_id": rng.permutation(500), "text": texts})
    got = (
        exact_dedup_counts(ray.data.from_pandas(df).repartition(8), ["text"], "doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = (
        df.groupby("text", as_index=False)
        .agg(doc_id=("doc_id", "min"), n_copies=("doc_id", "size"))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["text", "doc_id", "n_copies"]].astype({"doc_id": "int64", "n_copies": "int64"}),
        exp[["text", "doc_id", "n_copies"]].astype({"doc_id": "int64", "n_copies": "int64"}),
    )


def test_native_join_matches_bucketed_join():
    """Keeps BASELINE.md's bucketed-vs-native join equivalence claim from
    rotting: both joins produce identical rows on the revenue-join shape
    (fact pre-aggregated per key >< dimension)."""
    from ndap_data_validator_ray.stages.join import bucketed_join

    rng = np.random.default_rng(21)
    fact = pd.DataFrame({"o_orderkey": rng.integers(0, 500, 2000)})
    fact["revenue"] = rng.random(2000) * 100
    fact = fact.groupby("o_orderkey", as_index=False)["revenue"].sum()
    orders = pd.DataFrame({"o_orderkey": np.arange(0, 600), "o_orderpriority": [f"P{v % 5}" for v in range(600)]})

    bucketed = (
        bucketed_join(ray.data.from_pandas(fact), ray.data.from_pandas(orders), on=["o_orderkey"], how="inner")
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    native = (
        ray.data.from_pandas(fact)
        .join(ray.data.from_pandas(orders), join_type="inner", num_partitions=4, on=("o_orderkey",))
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    cols = ["o_orderkey", "revenue", "o_orderpriority"]
    pd.testing.assert_frame_equal(bucketed[cols], native[cols], check_dtype=False)


def test_arrow_lookup_attach():
    from ndap_data_validator_ray.stages.broadcast import attach_lookup

    df = pd.DataFrame({"k": [1, 2, 3, 99], "x": [10, 20, 30, 40]})
    out = (
        attach_lookup(ray.data.from_pandas(df), {1: "a", 2: "b", 3: "c"}, "k", "name")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["name"].tolist()[:3] == ["a", "b", "c"]
    assert pd.isna(out["name"].iloc[3])  # unmatched key -> null, .map semantics


def test_bucketed_asof_join_matches_pandas():
    """As-of join stage vs a global pandas merge_asof oracle (backward
    direction, per-key, unmatched lefts survive with nulls)."""
    from ndap_data_validator_ray.stages.asof import bucketed_asof_join

    rng = np.random.default_rng(17)
    left = pd.DataFrame(
        {
            "eid": np.arange(400),
            "uid": rng.integers(0, 30, 400),
            "ts": rng.integers(0, 10_000, 400).astype("int64"),
        }
    )
    right = pd.DataFrame(
        {
            "uid2": rng.integers(0, 35, 150),
            "t2": rng.integers(0, 10_000, 150).astype("int64"),
            "payload": np.arange(150),
        }
    )
    got = (
        bucketed_asof_join(
            ray.data.from_pandas(left).repartition(6),
            ray.data.from_pandas(right).repartition(3),
            on="ts", by="uid", right_on="t2", right_by="uid2",
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    exp = pd.merge_asof(
        left.sort_values("ts", kind="stable"),
        right.rename(columns={"uid2": "uid", "t2": "ts"}).sort_values("ts", kind="stable"),
        on="ts", by="uid", direction="backward",
    ).sort_values("eid").reset_index(drop=True)
    assert got["eid"].tolist() == exp["eid"].tolist()
    # payload matches where defined; as-of ts value carried through as t2
    pd.testing.assert_series_equal(got["payload"], exp["payload"], check_dtype=False)
    assert len(got) == len(left)
    # left columns must come back int64 (keys never degrade to float64)
    assert got["eid"].dtype == np.int64
    assert got["uid"].dtype == np.int64
    assert got["ts"].dtype == np.int64


def test_bucketed_asof_join_tie_break_deterministic():
    """Tied right rows on (by, on) must yield the same payload regardless of
    input arrival order — the stage pre-dedups the right side under a
    stable full-payload sort (round-2 verdict item 7)."""
    from ndap_data_validator_ray.stages.asof import bucketed_asof_join

    left = pd.DataFrame({"eid": [0, 1, 2], "uid": [7, 7, 8], "ts": [100, 200, 100]})
    # three right rows tied on (uid=7, t=50) with distinct payloads
    right = pd.DataFrame(
        {"uid2": [7, 7, 7, 8], "t2": [50, 50, 50, 60], "payload": [111, 333, 222, 444]}
    )
    results = []
    for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2], [3, 0, 1, 2]):
        got = (
            bucketed_asof_join(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right.iloc[perm].reset_index(drop=True)).repartition(2),
                on="ts", by="uid", right_on="t2", right_by="uid2",
            )
            .to_pandas()
            .sort_values("eid")
            .reset_index(drop=True)
        )
        results.append(got["payload"].tolist())
    assert all(r == results[0] for r in results[1:])
    assert results[0] == [333, 333, 444]  # keep-last under stable payload sort


def test_bucketed_range_join_matches_pandas():
    from ndap_data_validator_ray.stages.rangejoin import bucketed_range_join

    rng = np.random.default_rng(19)
    left = pd.DataFrame(
        {"lid": np.arange(300), "k": rng.integers(0, 20, 300), "v": rng.integers(0, 1000, 300).astype("int64")}
    )
    right = pd.DataFrame(
        {"k2": rng.integers(0, 25, 80), "lo": rng.integers(0, 900, 80).astype("int64")}
    )
    right["hi"] = right["lo"] + 100
    got = (
        bucketed_range_join(
            ray.data.from_pandas(left).repartition(5),
            ray.data.from_pandas(right).repartition(2),
            on="v", by="k", right_by="k2", right_start="lo", right_end="hi",
        )
        .to_pandas()
        .sort_values(["lid", "lo"])
        .reset_index(drop=True)
    )
    exp = left.merge(right.rename(columns={"k2": "k"}), on="k")
    exp = exp[(exp["v"] > exp["lo"]) & (exp["v"] <= exp["hi"])].sort_values(["lid", "lo"]).reset_index(drop=True)
    cols = ["lid", "k", "v", "lo", "hi"]
    assert all(got[c].dtype == np.int64 for c in cols)  # inner join: no nulls, no upcast
    pd.testing.assert_frame_equal(got[cols], exp[cols])


def test_bucketed_range_join_rejects_column_collision():
    """right_start/right_end resolving to a LEFT column post-merge would
    silently band-filter on the wrong values — must raise instead."""
    import pytest as _pytest

    from ndap_data_validator_ray.stages.rangejoin import bucketed_range_join

    left = pd.DataFrame({"lid": [1], "k": [1], "v": [5], "lo": [0]})
    right = pd.DataFrame({"k2": [1], "lo": [0], "hi": [10]})
    with _pytest.raises(ValueError, match="collide"):
        bucketed_range_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            on="v", by="k", right_by="k2", right_start="lo", right_end="hi",
        )


def test_exact_cosine_topk_pairs_matches_bruteforce(emb_dataset):
    from ndap_data_validator_ray.stages.similarity import exact_cosine_topk_pairs

    df, mat = emb_dataset
    got = exact_cosine_topk_pairs(
        ray.data.from_pandas(df).repartition(4), id_col="vec_id", vec_col="embedding", k=15, tiles=3
    )
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = norm @ norm.T
    ii, jj = np.triu_indices(len(mat), 1)
    order = np.lexsort((jj, ii, -sims[ii, jj]))[:15]
    exp = pd.DataFrame(
        {
            "id_a": ii[order].astype("int64"),
            "id_b": jj[order].astype("int64"),
            "sim": sims[ii, jj][order],
            "rank": np.arange(1, 16, dtype="int64"),
        }
    )
    assert len(got) == 15
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"id_a": "int64", "id_b": "int64", "rank": "int64"}),
        exp,
        check_exact=False,
        rtol=1e-9,
    )
    # the planted near-dup pair (10, 250) must rank first
    assert (got.iloc[0]["id_a"], got.iloc[0]["id_b"]) == (10, 250)


def test_exact_dedup_counts_hashed_equivalent():
    """The 100TB hash-shuffle path returns the same (keep, count) groups
    as the content-shipping path."""
    from ndap_data_validator_ray.stages.dedup import exact_dedup_counts, exact_dedup_counts_hashed

    rng = np.random.default_rng(17)
    texts = [f"document body number {i % 61}" for i in range(400)]
    df = pd.DataFrame({"doc_id": rng.permutation(400), "text": texts})
    ds = ray.data.from_pandas(df).repartition(8)
    want = (
        exact_dedup_counts(ds, ["text"], "doc_id")
        .to_pandas()[["doc_id", "n_copies"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    got = (
        exact_dedup_counts_hashed(ds, ["text"], "doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    pd.testing.assert_frame_equal(got, want)
    assert got["doc_id"].dtype == np.int64  # hash path must not poison dtypes


def test_exact_dedup_counts_hashed_splits_forced_collisions():
    """With a 4-bit hash nearly every distinct content collides; the
    verify pass must still split groups by TRUE content."""
    from ndap_data_validator_ray.stages.dedup import exact_dedup_counts_hashed

    rng = np.random.default_rng(19)
    texts = [f"distinct content {i % 53}" for i in range(300)]
    df = pd.DataFrame({"doc_id": rng.permutation(300), "text": texts})
    ds = ray.data.from_pandas(df).repartition(4)
    got = (
        exact_dedup_counts_hashed(ds, ["text"], "doc_id", hash_bits=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    exp = (
        df.groupby("text", as_index=False)
        .agg(doc_id=("doc_id", "min"), n_copies=("doc_id", "size"))[["doc_id", "n_copies"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    pd.testing.assert_frame_equal(got, exp)


def test_salted_join_equivalent_and_detects_hot_keys():
    """Hot-key salting (probe spray + build replication) must not change
    join results for inner/left/anti, and detect_hot_keys must surface a
    planted hot key."""
    from ndap_data_validator_ray.stages.join import bucketed_join, detect_hot_keys

    rng = np.random.default_rng(23)
    # hot key 7 owns ~40% of the probe side
    keys = np.concatenate([np.full(4000, 7), rng.integers(100, 400, size=6000)])
    rng.shuffle(keys)
    left = pd.DataFrame({"k": keys, "lv": np.arange(len(keys), dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(0, 350, dtype=np.int64),
                          "rv": np.arange(0, 350, dtype=np.int64) * 10})
    lds = ray.data.from_pandas(left).repartition(8)
    rds = ray.data.from_pandas(right).repartition(4)

    hot = detect_hot_keys(lds, "k", min_share=0.1)
    assert hot == [7]

    for how in ("inner", "left", "anti"):
        plain = bucketed_join(lds, rds, ["k"], how=how).to_pandas()
        salted = bucketed_join(
            lds, rds, ["k"], how=how, hot_keys=hot, salt=4
        ).to_pandas()
        sort_cols = [c for c in ("k", "lv") if c in plain.columns]
        pd.testing.assert_frame_equal(
            plain.sort_values(sort_cols).reset_index(drop=True),
            salted.sort_values(sort_cols).reset_index(drop=True),
        )

    with pytest.raises(ValueError):
        bucketed_join(lds, rds, ["k"], how="right", hot_keys=[7])


def test_bucketed_join_null_keys_sql_semantics():
    """SQL equality never matches NULL: null-keyed rows must not pair
    with each other under inner/left/right (DuckDB is the oracle)."""
    import duckdb

    from ndap_data_validator_ray.stages.join import bucketed_join

    left = pd.DataFrame({"k": pd.array([1, 2, None, None, 3], dtype="Int64"),
                         "lv": np.arange(5, dtype=np.int64)})
    right = pd.DataFrame({"k": pd.array([1, None, 3, 4], dtype="Int64"),
                          "rv": np.arange(10, 14, dtype=np.int64)})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how, sql in [
        ("inner", "SELECT l.k, lv, rv FROM l JOIN r USING (k)"),
        ("left", "SELECT l.k, lv, rv FROM l LEFT JOIN r USING (k)"),
        ("right", "SELECT r.k, lv, rv FROM l RIGHT JOIN r USING (k)"),
    ]:
        want = con.sql(sql + " ORDER BY lv NULLS LAST, rv NULLS LAST").df()
        got = bucketed_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right), ["k"], how=how
        ).to_pandas().sort_values(["lv", "rv"], na_position="last").reset_index(drop=True)
        assert len(got) == len(want), (how, len(got), len(want))
        for col in ("lv", "rv"):
            np.testing.assert_array_equal(
                got[col].astype("float64").to_numpy(), want[col].astype("float64").to_numpy(), err_msg=f"{how}.{col}"
            )
