"""Round-3 operator tests: semi/full-outer joins, PII scrubbing,
repetition stats, corpus bigrams, k-means clustering."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data


# ---------------------------------------------------------------------------
# filtering / outer joins
# ---------------------------------------------------------------------------

def _join_fixture():
    left = pd.DataFrame(
        {
            "k": pd.array([1, 2, 2, None, 3, 5], dtype="Int64"),
            "lv": np.arange(6, dtype=np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "k": pd.array([2, 2, None, 3, 4], dtype="Int64"),
            "rv": np.arange(10, 15, dtype=np.int64),
        }
    )
    return left, right


def test_bucketed_join_semi_matches_sql_exists():
    import duckdb

    from ndap_data_validator_ray.stages.join import bucketed_join

    left, right = _join_fixture()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql(
        "SELECT k, lv FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k) ORDER BY lv"
    ).df()
    got = (
        bucketed_join(ray.data.from_pandas(left), ray.data.from_pandas(right), ["k"], how="semi")
        .to_pandas()
        .sort_values("lv")
        .reset_index(drop=True)
    )
    # left multiplicity kept (k=2 appears twice), null probe keys dropped
    assert got["lv"].tolist() == want["lv"].astype(np.int64).tolist() == [1, 2, 4]
    # int64 key dtype survives (no float64 upcast from the bucket merge)
    assert got["k"].dtype == np.int64


def test_bucketed_join_outer_matches_sql_full_outer():
    import duckdb

    from ndap_data_validator_ray.stages.join import bucketed_join

    left, right = _join_fixture()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql(
        "SELECT COALESCE(l.k, r.k) AS k, lv, rv FROM l FULL OUTER JOIN r ON l.k = r.k "
        "ORDER BY lv NULLS LAST, rv NULLS LAST"
    ).df()
    joined = bucketed_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right), ["k"], how="outer"
    )
    # Arrow schema keeps the int64 key type end-to-end
    sch = joined.schema()
    assert dict(zip(sch.names, [str(t) for t in sch.types]))["k"] == "int64"
    got = joined.to_pandas().sort_values(["lv", "rv"], na_position="last").reset_index(drop=True)
    assert len(got) == len(want)
    for col in ("lv", "rv"):
        np.testing.assert_array_equal(
            got[col].astype("float64").to_numpy(),
            want[col].astype("float64").to_numpy(),
            err_msg=col,
        )
    # null-keyed rows from BOTH sides survive unmatched (SQL semantics)
    assert int(got["k"].isna().sum()) == 2


def test_bucketed_join_outer_coalesces_matched_keys():
    from ndap_data_validator_ray.stages.join import bucketed_join

    left = pd.DataFrame({"k": np.array([1, 2], dtype=np.int64), "lv": np.int64([0, 1])})
    right = pd.DataFrame({"k": np.array([2, 9], dtype=np.int64), "rv": np.int64([5, 6])})
    got = (
        bucketed_join(ray.data.from_pandas(left), ray.data.from_pandas(right), ["k"], how="outer")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    # key 9 exists only on the right; the key column must carry it
    assert got["k"].astype("int64").tolist() == [1, 2, 9]


# ---------------------------------------------------------------------------
# PII scrubbing
# ---------------------------------------------------------------------------

def test_redact_pii_planted():
    from ndap_data_validator_ray.functions.text import redact_pii

    s = pd.Series(
        [
            "mail me at first.last+tag@sub.example.co.uk today",
            "see https://a.example.com/p?q=1&r=2 and http://b.io/x",
            "account 123456789 pin 0042 ref 777777",
            "clean text with no pii at all",
            None,
        ]
    )
    out = redact_pii(s)
    assert out["clean_text"].tolist() == [
        "mail me at <EMAIL> today",
        "see <URL> and <URL>",
        "account <ID> pin 0042 ref <ID>",
        "clean text with no pii at all",
        "",
    ]
    assert out["n_emails"].tolist() == [1, 0, 0, 0, 0]
    assert out["n_urls"].tolist() == [0, 2, 0, 0, 0]
    assert out["n_ids"].tolist() == [0, 0, 2, 0, 0]


def test_redact_pii_email_inside_url_counted_once_as_url():
    from ndap_data_validator_ray.functions.text import redact_pii

    out = redact_pii(pd.Series(["go to https://ex.com/u?mail=a@b.co now"]))
    assert out["clean_text"].iloc[0] == "go to <URL> now"
    assert out["n_urls"].iloc[0] == 1 and out["n_emails"].iloc[0] == 0


# ---------------------------------------------------------------------------
# repetition stats / bigrams
# ---------------------------------------------------------------------------

def test_repetition_stats_hand_case():
    from ndap_data_validator_ray.functions.text import repetition_stats

    out = repetition_stats(pd.Series(["a a a b", "", None, "x y z"]))
    assert out["n_tokens"].tolist() == [4, 0, 0, 3]
    assert out["n_distinct"].tolist() == [2, 0, 0, 3]
    np.testing.assert_allclose(out["top_token_frac"].to_numpy(), [0.75, 0.0, 0.0, 1 / 3])
    np.testing.assert_allclose(out["distinct_ratio"].to_numpy(), [0.5, 0.0, 0.0, 1.0])


def test_bigram_counts_no_cross_document_pairs():
    from ndap_data_validator_ray.functions.text import bigram_counts

    out = bigram_counts(pd.Series(["a b", "c d", "", "e"]))
    got = dict(zip(out["bigram"], out["cnt"]))
    # "b c" and "d e" would only exist if doc boundaries leaked
    assert got == {"a b": 1, "c d": 1}


def test_bigram_counts_repeats_within_doc():
    from ndap_data_validator_ray.functions.text import bigram_counts

    out = bigram_counts(pd.Series(["go go go stop"]))
    got = dict(zip(out["bigram"], out["cnt"]))
    assert got == {"go go": 2, "go stop": 1}


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_recovers_planted_clusters():
    from ndap_data_validator_ray.stages.kmeans import kmeans_fit

    rng = np.random.default_rng(7)
    centers = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
    sizes = [120, 80, 50]
    pts = np.concatenate(
        [c + 0.1 * rng.standard_normal((n, 2)) for c, n in zip(centers, sizes)]
    )
    order = rng.permutation(len(pts))
    ds = ray.data.from_pandas(pd.DataFrame({"embedding": list(pts[order])}))
    # deliberately poor-but-distinct init near each true center
    init = centers + np.array([[1.0, 1.0], [-1.0, 0.5], [0.5, -1.0]])
    fit = kmeans_fit(ds, "embedding", init, n_iter=4)
    assert sorted(fit["counts"].tolist()) == sorted(sizes)
    # centroids land on the planted centers
    d = np.linalg.norm(np.sort(fit["centroids"], axis=0) - np.sort(centers, axis=0), axis=1)
    assert (d < 0.2).all()
    assert fit["inertia"] < 0.1 * len(pts)


def test_kmeans_empty_cluster_keeps_centroid():
    from ndap_data_validator_ray.stages.kmeans import kmeans_fit

    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    ds = ray.data.from_pandas(pd.DataFrame({"embedding": list(pts)}))
    far = np.array([100.0, 100.0])
    fit = kmeans_fit(ds, "embedding", np.array([[0.0, 0.0], far]), n_iter=3)
    assert fit["counts"].tolist() == [3, 0]
    np.testing.assert_allclose(fit["centroids"][1], far)


# ---------------------------------------------------------------------------
# centroid assignment (the oracled twin's kernel) vs numpy brute force
# ---------------------------------------------------------------------------

def test_centroid_assign_matches_bruteforce():
    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((40, 8)).astype(np.float32)
    cents = vecs[:4].astype(np.float64)
    cn = cents / np.linalg.norm(cents, axis=1, keepdims=True)
    m = vecs.astype(np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    best = np.argmax(mn @ cn.T, axis=1)
    # brute-force cosine argmax with full-precision math
    sims = (m @ cents.T) / (
        np.linalg.norm(m, axis=1)[:, None] * np.linalg.norm(cents, axis=1)[None, :]
    )
    np.testing.assert_array_equal(best, np.argmax(sims, axis=1))


def test_bucketed_join_null_spray_preserves_semantics():
    """Null keys are sprayed round-robin across buckets (skew relief) —
    results must be identical to SQL for every join variant even when a
    third of the keys are null."""
    import duckdb

    from ndap_data_validator_ray.stages.join import bucketed_join

    rng = np.random.default_rng(5)
    def side(n, name):
        k = rng.integers(0, 20, n).astype("float64")
        k[rng.random(n) < 0.35] = np.nan
        return pd.DataFrame({"k": pd.array(np.where(np.isnan(k), None, k), dtype="Int64"),
                             name: np.arange(n, dtype=np.int64)})

    left, right = side(300, "lv"), side(200, "rv")
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    cases = {
        "inner": "SELECT lv, rv FROM l JOIN r USING (k)",
        "left": "SELECT lv, rv FROM l LEFT JOIN r USING (k)",
        "outer": "SELECT lv, rv FROM l FULL OUTER JOIN r ON l.k = r.k",
        "semi": "SELECT lv, NULL AS rv FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
        "anti": "SELECT lv, NULL AS rv FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
    }
    for how, sql in cases.items():
        want = con.sql(sql + " ORDER BY lv NULLS LAST, rv NULLS LAST").df()
        got = bucketed_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right), ["k"], how=how
        ).to_pandas()
        if "rv" not in got.columns:
            got["rv"] = np.nan
        got = got.sort_values(["lv", "rv"], na_position="last").reset_index(drop=True)
        assert len(got) == len(want), (how, len(got), len(want))
        np.testing.assert_array_equal(
            got["lv"].astype("float64").to_numpy(), want["lv"].astype("float64").to_numpy(), err_msg=how
        )


# ---------------------------------------------------------------------------
# distributed global sort / rank
# ---------------------------------------------------------------------------

def test_global_rank_matches_pandas_with_heavy_duplicates():
    from ndap_data_validator_ray.stages.sort import global_rank

    rng = np.random.default_rng(13)
    n = 2000
    # heavy duplication on the range column (the tie-spanning-boundary case)
    df = pd.DataFrame(
        {
            "v": rng.integers(0, 25, n).astype(np.float64),
            "id": rng.permutation(n).astype(np.int64),
        }
    )
    got = (
        global_rank(ray.data.from_pandas(df), ["v", "id"], out="rank", n_parts=8)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    want = df.sort_values(["v", "id"], ignore_index=True)
    assert got["rank"].tolist() == list(range(1, n + 1))
    np.testing.assert_array_equal(got["v"].to_numpy(), want["v"].to_numpy())
    np.testing.assert_array_equal(got["id"].to_numpy(), want["id"].to_numpy())


def test_global_rank_descending():
    from ndap_data_validator_ray.stages.sort import global_rank

    rng = np.random.default_rng(17)
    df = pd.DataFrame({"v": rng.random(500), "id": np.arange(500, dtype=np.int64)})
    got = (
        global_rank(ray.data.from_pandas(df), ["v", "id"], ascending=[False, True], n_parts=6)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    want = df.sort_values(["v", "id"], ascending=[False, True], ignore_index=True)
    np.testing.assert_array_equal(got["id"].to_numpy(), want["id"].to_numpy())


def test_global_rank_string_keys():
    from ndap_data_validator_ray.stages.sort import global_rank

    rng = np.random.default_rng(19)
    words = np.array(["ant", "bee", "cat", "dog", "eel", "fox"])
    df = pd.DataFrame(
        {"w": words[rng.integers(0, len(words), 300)], "id": np.arange(300, dtype=np.int64)}
    )
    got = (
        global_rank(ray.data.from_pandas(df), ["w", "id"], n_parts=4)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    want = df.sort_values(["w", "id"], ignore_index=True)
    np.testing.assert_array_equal(got["w"].to_numpy(), want["w"].to_numpy())
    np.testing.assert_array_equal(got["id"].to_numpy(), want["id"].to_numpy())


# ---------------------------------------------------------------------------
# SQL NULL-group semantics for bucketed groupbys
# ---------------------------------------------------------------------------

def test_count_by_key_keeps_null_group():
    import duckdb

    from ndap_data_validator_ray.stages.groupby import count_by_key

    df = pd.DataFrame(
        {
            "k": pd.array([1, 1, None, 2, None, None], dtype="Int64"),
            "s": ["a", None, "a", None, "a", None],
        }
    )
    con = duckdb.connect()
    con.register("t", df)
    # int key: SQL keeps NULL as one group
    want = con.sql("SELECT k, COUNT(*) n FROM t GROUP BY k ORDER BY k NULLS LAST").df()
    got = (
        count_by_key(ray.data.from_pandas(df), ["k"], count_col="n")
        .to_pandas()
        .sort_values("k", na_position="last")
        .reset_index(drop=True)
    )
    np.testing.assert_array_equal(
        got["n"].astype("int64").to_numpy(), want["n"].astype("int64").to_numpy()
    )
    # string key: None/NaN both collapse into ONE null group across batches
    want_s = con.sql("SELECT s, COUNT(*) n FROM t GROUP BY s ORDER BY s NULLS LAST").df()
    got_s = (
        count_by_key(ray.data.from_pandas(df), ["s"], count_col="n")
        .to_pandas()
        .sort_values("s", na_position="last")
        .reset_index(drop=True)
    )
    np.testing.assert_array_equal(
        got_s["n"].astype("int64").to_numpy(), want_s["n"].astype("int64").to_numpy()
    )


# ---------------------------------------------------------------------------
# sequence packing
# ---------------------------------------------------------------------------

def test_pack_bins_capacity_and_determinism():
    from ndap_data_validator_ray.stages.packing import pack_bins

    rng = np.random.default_rng(23)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(500, dtype=np.int64),
            "sz": rng.integers(10, 900, 500).astype(np.int64),
        }
    )
    # plant one oversized item
    df.loc[7, "sz"] = 5000
    got = pack_bins(ray.data.from_pandas(df), "doc_id", "sz", capacity=1024).to_pandas()
    assert len(got) == 500 and got["doc_id"].is_unique
    fill = got[got["overflow"] == 0].groupby("bin_id")["sz"].sum()
    assert (fill <= 1024).all()
    over = got[got["overflow"] == 1]
    assert over["doc_id"].tolist() == [7]
    # oversized item owns its bin
    assert (got["bin_id"] == over["bin_id"].iloc[0]).sum() == 1
    # deterministic across runs
    again = pack_bins(ray.data.from_pandas(df), "doc_id", "sz", capacity=1024).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True),
    )
    # packing is reasonably tight: used bins within 1.5x of the lower bound
    lower = int(np.ceil(df.loc[df["sz"] <= 1024, "sz"].sum() / 1024))
    used = got.loc[got["overflow"] == 0, "bin_id"].nunique()
    assert used <= 1.5 * lower + 4  # +4: one partial bin per bucket


# ---------------------------------------------------------------------------
# containment detection (winnowed fingerprints)
# ---------------------------------------------------------------------------

def test_containment_pairs_finds_planted_substring():
    from ndap_data_validator_ray.stages.dedup_near import containment_pairs

    rng = np.random.default_rng(29)
    words = np.array(["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                      "golf", "hotel", "india", "juliet"])
    docs = [" ".join(rng.choice(words, 60)) for _ in range(40)]
    # doc 40 is a verbatim chunk of doc 0 (containment, not symmetric dup)
    docs.append(docs[0][50:260])
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs})
    )
    stats = {}
    out = containment_pairs(ds, "text", "doc_id", k=8, window=16, min_shared=4, stats=stats)
    assert "oversized_fp_groups" in stats
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 40) in pairs


def test_containment_pairs_oversized_groups_surfaced():
    from ndap_data_validator_ray.stages.dedup_near import containment_pairs

    # 80 identical docs -> every fingerprint group exceeds the cap of 8
    docs = ["the same boilerplate text repeated verbatim everywhere again"] * 80
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64), "text": docs})
    )
    stats = {}
    out = containment_pairs(ds, "text", "doc_id", min_shared=1, fp_group_cap=8, stats=stats)
    assert stats["oversized_fp_groups"] > 0  # never silent
    assert len(out) == 0


# ---------------------------------------------------------------------------
# decontamination (broadcast benchmark n-gram filter)
# ---------------------------------------------------------------------------

def _decontam_fixture():
    rng = np.random.default_rng(41)
    # vocabulary large enough that chance trigram overlap is improbable —
    # only the PLANTED spans should contaminate
    words = np.array([f"w{i:03d}" for i in range(400)])
    corpus = [" ".join(rng.choice(words, 40)) for _ in range(30)]
    bench = [" ".join(rng.choice(words, 25)) for _ in range(5)]
    # plant leaks: corpus docs 3 and 7 embed a verbatim benchmark span
    corpus[3] = corpus[3] + " " + " ".join(bench[0].split()[5:15])
    corpus[7] = " ".join(bench[2].split()[0:12]) + " " + corpus[7]
    corpus_ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(30, dtype=np.int64), "text": corpus})
    )
    bench_ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(100, 105, dtype=np.int64), "text": bench})
    )
    return corpus, bench, corpus_ds, bench_ds


def test_benchmark_overlap_finds_planted_leaks():
    from ndap_data_validator_ray.functions.hashing import word_ngrams
    from ndap_data_validator_ray.stages.decontaminate import benchmark_overlap

    corpus, bench, corpus_ds, bench_ds = _decontam_fixture()
    got = benchmark_overlap(corpus_ds, bench_ds, "text", "doc_id", n=3).to_pandas()
    got = got.set_index("doc_id")["n_overlap"]

    # exact single-process twin
    bgrams = set()
    for t in bench:
        bgrams |= word_ngrams(t, 3)
    want = {i: len(word_ngrams(t, 3) & bgrams) for i, t in enumerate(corpus)
            if word_ngrams(t, 3) & bgrams}
    assert dict(got) == want
    assert 3 in want and 7 in want  # the planted leaks are found


def test_decontaminate_removes_only_leaked_docs():
    from ndap_data_validator_ray.functions.hashing import word_ngrams
    from ndap_data_validator_ray.stages.decontaminate import decontaminate

    corpus, bench, corpus_ds, bench_ds = _decontam_fixture()
    clean = decontaminate(corpus_ds, bench_ds, "text", "doc_id", n=3).to_pandas()
    bgrams = set()
    for t in bench:
        bgrams |= word_ngrams(t, 3)
    want_ids = [i for i, t in enumerate(corpus) if not (word_ngrams(t, 3) & bgrams)]
    assert sorted(clean["doc_id"]) == want_ids
    # pass-through keeps all original columns and exact text
    kept = clean.sort_values("doc_id").reset_index(drop=True)
    assert list(kept.columns) == ["doc_id", "text"]
    assert all(kept["text"].to_numpy() == np.array(corpus, dtype=object)[want_ids])


# ---------------------------------------------------------------------------
# BPE vocabulary training (iterative broadcast + pair-count partials)
# ---------------------------------------------------------------------------

def _bpe_reference(texts, n_merges):
    """Independent single-process BPE twin (Sennrich-style)."""
    from collections import Counter

    freqs = Counter()
    for t in texts:
        freqs.update(t.lower().split())
    words = {w: list(w) for w in freqs}
    merges = []
    for rank in range(n_merges):
        pairs = Counter()
        for w, syms in words.items():
            f = freqs[w]
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += f
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        (a, b), c = best
        if c < 2:
            break
        merges.append((rank, a, b, c))
        for w, syms in words.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    return merges


_BPE_CORPUS = [
    "the quick brown fox jumps over the lazy dog",
    "the lazy dog sleeps while the quick fox runs",
    "lower lowest newer newest wider widest",
    "low low low lower lower newest newest newest newest",
    "hugging the puggy bug snugly",
]


def test_bpe_train_matches_reference_twin():
    from ndap_data_validator_ray.stages.bpe import bpe_train

    ds = ray.data.from_pandas(pd.DataFrame({"text": _BPE_CORPUS}))
    got = bpe_train(ds, "text", n_merges=12)
    want = _bpe_reference(_BPE_CORPUS, 12)
    assert list(map(tuple, got.to_records(index=False))) == want


def test_bpe_train_block_order_independent():
    from ndap_data_validator_ray.stages.bpe import bpe_train

    df = pd.DataFrame({"text": _BPE_CORPUS})
    one = bpe_train(ray.data.from_pandas(df), "text", n_merges=8)
    # five single-row blocks in reversed order
    many = bpe_train(
        ray.data.from_pandas([df.iloc[[i]] for i in range(len(df) - 1, -1, -1)]),
        "text",
        n_merges=8,
    )
    pd.testing.assert_frame_equal(one, many)


def test_bpe_encode_counts_tokens_under_merges():
    from ndap_data_validator_ray.stages.bpe import apply_merges, bpe_encode, bpe_train

    ds = ray.data.from_pandas(pd.DataFrame({"text": _BPE_CORPUS}))
    merges = [(r[1], r[2]) for r in bpe_train(ds, "text", n_merges=10).itertuples(index=False)]
    out = bpe_encode(ds, "text", merges).to_pandas().sort_index()
    for t, n in zip(_BPE_CORPUS, out["n_bpe_tokens"]):
        want = sum(len(apply_merges(w, merges)) for w in t.lower().split())
        assert n == want
        assert n < sum(len(w) for w in t.split())  # merges actually compress


# ---------------------------------------------------------------------------
# vectorized Levenshtein + fuzzy entity resolution
# ---------------------------------------------------------------------------

def _lev_ref(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(prev + (ca != cb), dp[j] + 1, dp[j - 1] + 1)
    return dp[len(b)]


def test_levenshtein_batch_matches_scalar_dp():
    from ndap_data_validator_ray.functions.strdist import levenshtein_batch

    rng = np.random.default_rng(13)
    alpha = list("abcde")
    pairs = [("", ""), ("", "abc"), ("abc", ""), ("kitten", "sitting"),
             ("flaw", "lawn"), ("same", "same")]
    pairs += [
        ("".join(rng.choice(alpha, rng.integers(0, 12))),
         "".join(rng.choice(alpha, rng.integers(0, 12))))
        for _ in range(200)
    ]
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    got = levenshtein_batch(a, b)
    want = np.array([_lev_ref(x, y) for x, y in pairs], dtype=np.int64)
    np.testing.assert_array_equal(got, want)


def test_fuzzy_name_pairs_blocked_exact():
    import duckdb

    from ndap_data_validator_ray.stages.fuzzy import fuzzy_name_pairs

    df = pd.DataFrame({"nm": [
        "cold widget", "gold widget", "cold widget", "bold widget",
        "large bolt", "small bolt", "large bolt", "blue rod",
        "glue rod", "lone name",
    ]})
    stats = {}
    got = fuzzy_name_pairs(ray.data.from_pandas(df), "nm", max_dist=2, stats=stats)
    assert stats["oversized_blocks"] == 0
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql("""
        WITH names AS (SELECT nm, CAST(COUNT(*) AS BIGINT) cnt FROM t GROUP BY nm)
        SELECT a.nm name_a, b.nm name_b,
               CAST(levenshtein(a.nm, b.nm) AS BIGINT) dist,
               a.cnt count_a, b.cnt count_b
        FROM names a JOIN names b ON a.nm < b.nm
         AND string_split(a.nm,' ')[-1] = string_split(b.nm,' ')[-1]
        WHERE levenshtein(a.nm, b.nm) <= 2 ORDER BY name_a, name_b
    """).df()
    want["dist"] = want["dist"].astype(np.int64)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["dist"].dtype == np.int64 and got["count_a"].dtype == np.int64
    # sanity: cross-block pair (bolt vs widget) never emitted even if close
    assert not ((got["name_a"] == "large bolt") & (got["name_b"].str.contains("widget"))).any()


def test_fuzzy_name_pairs_oversized_block_surfaced():
    from ndap_data_validator_ray.stages.fuzzy import fuzzy_name_pairs

    # 30 names, all one block ("zz") -> over cap of 10: skipped but COUNTED
    df = pd.DataFrame({"nm": [f"name{i:02d} zz" for i in range(30)]})
    stats = {}
    got = fuzzy_name_pairs(ray.data.from_pandas(df), "nm", max_dist=2,
                           block_cap=10, stats=stats)
    assert stats["oversized_blocks"] == 1
    assert len(got) == 0


# ---------------------------------------------------------------------------
# snapshot reconciliation / cohort retention / Q18 (planted-edge fixtures;
# the sf0.001/sf0.01 oracle gate covers the full-table path)
# ---------------------------------------------------------------------------

def _duck_views(tmp_path, **frames):
    import duckdb

    con = duckdb.connect()
    for name, df in frames.items():
        path = str(tmp_path / f"{name}.parquet")
        df.to_parquet(path)
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM '{path}'")
    return con


def test_reconcile_snapshots_all_four_statuses(tmp_path):
    from ndap_data_validator_ray.pipelines.queries import _RECONCILE_SQL, reconcile_order_snapshots

    # keys hit every %10 class: 9 -> only_in_b, 7 -> only_in_a,
    # 3 -> changed, rest -> unchanged
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, 41, dtype=np.int64),
            "o_totalprice": np.round(np.linspace(10.0, 500.0, 40), 2),
        }
    )
    con = _duck_views(tmp_path, orders=orders)
    want = con.sql(_RECONCILE_SQL).df()
    got = reconcile_order_snapshots(str(tmp_path))
    assert sorted(got["status"]) == ["changed", "only_in_a", "only_in_b", "unchanged"]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    assert got["n"].dtype == np.int64


def test_cohort_retention_monday_boundary(tmp_path):
    from ndap_data_validator_ray.pipelines.queries import _COHORT_SQL, cohort_retention_events

    # 2024-01-07 is a Sunday, 2024-01-08 a Monday: adjacent days land in
    # different Monday-truncated weeks; user 2 has a 3-week gap; user 3 has
    # two events in one week (must dedup to one active cell)
    ts = pd.to_datetime(
        [
            "2024-01-07 23:59:59", "2024-01-08 00:00:00",   # u1: offsets 0,1
            "2024-01-02 12:00:00", "2024-01-23 12:00:00",   # u2: offsets 0,3
            "2024-01-10 01:00:00", "2024-01-10 02:00:00",   # u3: offset 0 once
        ]
    ).astype("datetime64[us]")
    events = pd.DataFrame({"user_id": np.array([1, 1, 2, 2, 3, 3], dtype=np.int64), "ts": ts})
    con = _duck_views(tmp_path, events=events)
    want = con.sql(_COHORT_SQL).df()
    got = cohort_retention_events(str(tmp_path))
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    # u1's Sunday event belongs to the PRIOR week, so u1 and u2 share the
    # 2024-01-01 cohort: u1 active at offsets 0,1 and u2 at 0,3
    c0 = got[got["cohort_week"] == "2024-01-01"]
    assert c0["week_offset"].tolist() == [0, 1, 3]
    assert c0["n_users"].tolist() == [2, 1, 1]
    assert got["week_offset"].dtype == np.int64 and got["n_users"].dtype == np.int64


def test_q18_having_threshold_boundary(tmp_path):
    from ndap_data_validator_ray.pipelines.queries import _TPCH_Q18_SQL, tpch_q18_large_orders

    # order 1 sums to exactly 250 (excluded: strict >), order 2 to 250.5
    # (kept), order 3 well below
    lineitem = pd.DataFrame(
        {
            "l_orderkey": np.array([1, 1, 2, 2, 3], dtype=np.int64),
            "l_quantity": np.array([100.0, 150.0, 200.0, 50.5, 10.0]),
        }
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": np.array([1, 2, 3], dtype=np.int64),
            "o_custkey": np.array([11, 22, 33], dtype=np.int64),
            "o_orderdate": pd.to_datetime(["2024-03-01", "2024-03-02", "2024-03-03"]).date,
        }
    )
    con = _duck_views(tmp_path, lineitem=lineitem, orders=orders)
    want = con.sql(_TPCH_Q18_SQL).df()
    got = tpch_q18_large_orders(str(tmp_path))
    assert got["o_orderkey"].tolist() == [2]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    assert got["o_orderkey"].dtype == np.int64 and got["total_qty"].dtype == np.float64


def test_global_running_sum_matches_sql_window():
    import duckdb

    from ndap_data_validator_ray.stages.sort import global_running_sum

    rng = np.random.RandomState(7)
    n = 500
    # duplicate ts values force first-column ties into one partition;
    # float vals exercise the non-integer path
    df = pd.DataFrame(
        {
            "ts": rng.randint(0, 80, n).astype(np.int64),
            "id": np.arange(n, dtype=np.int64),
            "v": np.round(rng.randn(n), 3),
        }
    )
    got = (
        global_running_sum(
            ray.data.from_pandas(df), order_by=["ts", "id"], val="v", out="run", n_parts=8
        )
        .to_pandas()
        .sort_values(["ts", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        "SELECT ts, id, v, SUM(v) OVER (ORDER BY ts, id ROWS UNBOUNDED PRECEDING) AS run "
        "FROM t ORDER BY ts, id"
    ).df()
    np.testing.assert_allclose(got["run"].to_numpy(), want["run"].to_numpy(), atol=1e-9)


def test_global_running_sum_integer_stays_int64():
    from ndap_data_validator_ray.stages.sort import global_running_sum

    df = pd.DataFrame(
        {
            "ts": np.repeat(np.arange(10, dtype=np.int64), 4),
            "delta": np.tile(np.array([1, 1, -1, -1], dtype=np.int64), 10),
            "id": np.arange(40, dtype=np.int64),
        }
    )
    got = (
        global_running_sum(
            ray.data.from_pandas(df),
            order_by=["ts", "delta", "id"],
            ascending=[True, False, True],
            val="delta",
            out="conc",
            n_parts=4,
        )
        .to_pandas()
        .sort_values(["ts", "id"])
        .reset_index(drop=True)
    )
    assert got["conc"].dtype == np.int64
    # arrivals sort before departures at each ts: conc peaks at 2, ends at 0
    per_ts_max = got.groupby("ts")["conc"].max()
    assert (per_ts_max == 2).all()
    assert got.sort_values(["ts", "id"]).groupby("ts")["conc"].last().eq(0).all()
