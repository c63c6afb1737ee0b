"""Query registry: every operator surfaced as a (Ray pipeline, oracle SQL)
pair over the driver's parquet tables.

Each entry in ``REGISTRY`` maps a name to ``(fn, sql)`` where ``fn(sf_dir)``
runs the Ray Data pipeline and ``sql`` is the DuckDB-equivalent statement
over the pre-registered views (``region nation customer supplier part
orders lineitem events documents embeddings``), or ``None`` for
non-SQL-expressible ops (the driver then records a rows-only check).

Column-name and value conventions (driver compares row-count + schema +
order-insensitive value-hash):
- every computed column is aliased identically on both sides;
- float aggregates are rounded on BOTH sides — ROUND(sum, 2) for sums of
  2-decimal money columns and ROUND(avg, 6) for means — so bit-level
  summation-order differences cannot flip the hash (the true sums are
  multiples of 0.01, far from rounding boundaries);
- timestamps that act as group keys are emitted as formatted strings.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _r2(x):
    return np.round(np.asarray(x, dtype=np.float64), 2)


def _r6(x):
    return np.round(np.asarray(x, dtype=np.float64), 6)


def _r9(x):
    return np.round(np.asarray(x, dtype=np.float64), 9)


# ---------------------------------------------------------------------------
# Column profiling (the reference's A1/A3/A13 stats as one distributed pass)
# ---------------------------------------------------------------------------

def profile_lineitem(sf_dir: str) -> pd.DataFrame:
    """Per-column null counts + numeric min/max + row count, computed as
    per-batch partials merged on the driver (reference A1/A13 semantics,
    validation.py:273 / dead-code :126-133, distributed)."""
    cols = ["l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "l_returnflag", "l_shipdate"]
    num_cols = ["l_quantity", "l_extendedprice", "l_discount"]
    ds = _read(sf_dir, "lineitem", columns=cols)

    def partial(batch: pa.Table) -> pa.Table:
        row: dict[str, Any] = {"n_rows": [batch.num_rows]}
        for c in cols:
            row[f"{c}_nulls"] = [batch[c].null_count]
        for c in num_cols:
            row[f"{c}_min"] = [pc.min(batch[c]).as_py()]
            row[f"{c}_max"] = [pc.max(batch[c]).as_py()]
        return pa.table(row)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = {"n_rows": [int(parts["n_rows"].sum())]}
    for c in cols:
        out[f"{c}_nulls"] = [int(parts[f"{c}_nulls"].sum())]
    for c in num_cols:
        out[f"{c}_min"] = [float(parts[f"{c}_min"].min())]
        out[f"{c}_max"] = [float(parts[f"{c}_max"].max())]
    return pd.DataFrame(out)


# NOTE: every SUM(CASE ...) oracle must be CAST(... AS BIGINT) — DuckDB
# sums integers into HUGEINT, which value-hashes differently from the
# engine's int64 even when the numbers are identical (round-1 lesson).
_PROFILE_SQL = (
    "SELECT COUNT(*) AS n_rows, "
    + ", ".join(
        f"CAST(SUM(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS {c}_nulls"
        for c in ["l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "l_returnflag", "l_shipdate"]
    )
    + ", "
    + ", ".join(
        f"CAST(MIN({c}) AS DOUBLE) AS {c}_min, CAST(MAX({c}) AS DOUBLE) AS {c}_max"
        for c in ["l_quantity", "l_extendedprice", "l_discount"]
    )
    + " FROM lineitem"
)


def distinct_counts_lineitem(sf_dir: str) -> pd.DataFrame:
    """Exact distinct counts, scale-safe: per-batch unique (col, val)
    pairs -> bucketed per-bucket nunique -> sum of bucket partials.  Each
    distinct value lands in exactly ONE bucket, so per-bucket nunique sums
    exactly; the driver only ever sees <= n_buckets x n_cols partial rows,
    never the distinct values themselves (the approximate twin is the HLL
    sketch in the clips report)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    cols = ["l_orderkey", "l_partkey", "l_suppkey"]
    ds = _read(sf_dir, "lineitem", columns=cols)

    def uniq(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [pd.DataFrame({"col": c, "val": batch[c].unique()}) for c in cols], ignore_index=True
        )

    def bucket_nunique(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("col")["val"].nunique()
        return pd.DataFrame({"col": g.index.to_numpy(), "n": g.to_numpy().astype(np.int64)})

    parts = bucketed_groupby(ds, ["col", "val"], uniq, bucket_nunique).to_pandas()
    n = parts.groupby("col")["n"].sum()
    return pd.DataFrame(
        {"orderkeys": [int(n["l_orderkey"])], "partkeys": [int(n["l_partkey"])], "suppkeys": [int(n["l_suppkey"])]}
    )


# ---------------------------------------------------------------------------
# Aggregations (A-series distributed: groupby shuffle over pre-agg partials)
# ---------------------------------------------------------------------------

def tpch_q1(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style pricing summary (filter -> groupby aggregate)."""
    ds = _read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # per-batch combiner: derive + pre-aggregate sums/counts (means
        # are finalized from sums so the partial algebra stays additive)
        b = b[b["l_shipdate"] < pd.Timestamp("2000-01-01")].copy()
        b["disc_price"] = b["l_extendedprice"] * (1 - b["l_discount"])
        b["charge"] = b["disc_price"] * (1 + b["l_tax"])
        return b.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"),
            sum_disc_price=("disc_price", "sum"),
            sum_charge=("charge", "sum"),
            sum_disc=("l_discount", "sum"),
            count_order=("l_quantity", "size"),
        )

    # 6 groups total: each block's partial is <=6 rows, so the driver fold
    # sees O(blocks x 6) rows at ANY scale — a bucket shuffle here costs
    # ~5 s of exchange machinery to move a few hundred rows (measured at
    # sf0.1; bucketed_groupby is for HIGH-cardinality keys)
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
    out["avg_qty"] = _r6(out["sum_qty"] / out["count_order"])
    out["avg_price"] = _r6(out["sum_base_price"] / out["count_order"])
    out["avg_disc"] = _r6(out["sum_disc"] / out["count_order"])
    out = out.drop(columns=["sum_disc"])
    for c in ("sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"):
        out[c] = _r2(out[c])
    return out[
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price",
         "sum_charge", "avg_qty", "avg_price", "avg_disc", "count_order"]
    ]


_TPCH_Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2) AS sum_charge,
       ROUND(AVG(l_quantity), 6) AS avg_qty,
       ROUND(AVG(l_extendedprice), 6) AS avg_price,
       ROUND(AVG(l_discount), 6) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate < TIMESTAMP '2000-01-01'
GROUP BY l_returnflag, l_linestatus
"""


def _orders_priority_agg(ds: "ray.data.Dataset") -> pd.DataFrame:
    out = (
        ds.groupby("o_orderpriority")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum("o_totalprice", alias_name="sum_total"),
            Min("o_totalprice", alias_name="min_total"),
            Max("o_totalprice", alias_name="max_total"),
        )
        .to_pandas()
    )
    out["sum_total"] = _r2(out["sum_total"])
    return out


def orders_priority_stats(sf_dir: str) -> pd.DataFrame:
    return _orders_priority_agg(_read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"]))


def _csv_copy(sf_dir: str, table: str, columns: list[str]) -> str:
    """CSV copy of a parquet table cached under /tmp — the reference's
    native ingest format (main.py:120-125); atomic write, per-sf cache."""
    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    d = os.path.join("/tmp/ndap_csv_cache", os.path.basename(os.path.normpath(sf_dir)))
    path = os.path.join(d, f"{table}.csv")
    if not os.path.exists(path):
        os.makedirs(d, exist_ok=True)
        tbl = pq.read_table(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)
        pacsv.write_csv(tbl, path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def csv_orders_priority_stats(sf_dir: str) -> pd.DataFrame:
    """S1 end-to-end through the CSV reader path (sources/readers.read_table
    with format='csv'): same aggregate, same oracle, CSV ingest."""
    from ndap_data_validator_ray.sources.readers import read_table

    path = _csv_copy(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    return _orders_priority_agg(read_table(path, format="csv"))


_ORDERS_PRIORITY_SQL = """
SELECT o_orderpriority, COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 2) AS sum_total,
       MIN(o_totalprice) AS min_total, MAX(o_totalprice) AS max_total
FROM orders GROUP BY o_orderpriority
"""


def events_by_type(sf_dir: str) -> pd.DataFrame:
    out = (
        _read(sf_dir, "events", columns=["event_type", "value"])
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value", alias_name="sum_value"),
            Min("value", alias_name="min_value"),
            Max("value", alias_name="max_value"),
            Mean("value", alias_name="avg_value"),
        )
        .to_pandas()
    )
    out["sum_value"] = _r2(out["sum_value"])
    out["avg_value"] = _r6(out["avg_value"])
    return out


_EVENTS_BY_TYPE_SQL = """
SELECT event_type, COUNT(*) AS n_events, ROUND(SUM(value), 2) AS sum_value,
       MIN(value) AS min_value, MAX(value) AS max_value, ROUND(AVG(value), 6) AS avg_value
FROM events GROUP BY event_type
"""


def events_hourly_activity(sf_dir: str) -> pd.DataFrame:
    """Streaming-shaped windowed aggregate: tumbling 1h count per user
    (Ray Data has no event-time windows; the window key is computed per
    batch and the count is an ordinary groupby — ray_guide 'streaming').
    """
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # composite (user_id, hour-bucket) int64 key + in-batch pre-agg so
        # the shuffle moves (key, count) partials on ONE key column
        # unit-safe epoch-hour bucket (arrow gives datetime64[us] here)
        hour_bucket = (batch["ts"] - pd.Timestamp(0)) // pd.Timedelta(hours=1)
        key = batch["user_id"].astype("int64") * 1_000_000 + hour_bucket.astype("int64")
        g = key.value_counts()
        return pd.DataFrame({"k": g.index.to_numpy(), "n_events": g.to_numpy()})

    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("k", as_index=False)["n_events"].sum()

    out = bucketed_groupby(ds, ["k"], partial, merge).to_pandas()
    out["user_id"] = (out["k"] // 1_000_000).astype("int64")
    hours = pd.Timestamp(0) + (out["k"] % 1_000_000) * pd.Timedelta(hours=1)
    out["hour"] = hours.dt.strftime("%Y-%m-%d %H:%M:%S")
    return out[["user_id", "hour", "n_events"]].reset_index(drop=True)


_EVENTS_HOURLY_SQL = """
SELECT user_id, strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS hour, COUNT(*) AS n_events
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Joins (broadcast small side; J1/J2-style referential checks)
# ---------------------------------------------------------------------------

def top_revenue_customers(sf_dir: str) -> pd.DataFrame:
    """orders >< customer with the small side broadcast via ray.put (never
    re-shipped per batch), then groupby + top-10 (revenue desc, custkey)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # pre-aggregate inside the batch: the shuffle moves one row per
        # (batch, custkey), not one per order
        return batch.groupby("o_custkey", as_index=False).agg(
            revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("o_custkey", as_index=False).agg(revenue=("revenue", "sum"), n_orders=("n_orders", "sum"))

    out = bucketed_groupby(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]), ["o_custkey"], partial, merge
    ).to_pandas()
    out["revenue"] = _r2(out["revenue"])
    out = out.sort_values(["revenue", "o_custkey"], ascending=[False, True]).head(10)
    # dimension lookup AFTER top-k: 10 rows, driver-side (broadcast-join
    # shape; the small side never rides the shuffle)
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"]).to_pandas()
    out["c_name"] = out["o_custkey"].map(dict(zip(cust["c_custkey"], cust["c_name"])))
    return out[["o_custkey", "c_name", "revenue", "n_orders"]].reset_index(drop=True)


_TOP_REVENUE_SQL = """
SELECT o_custkey, c_name, ROUND(SUM(o_totalprice), 2) AS revenue, COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY o_custkey, c_name
ORDER BY revenue DESC, o_custkey ASC LIMIT 10
"""


def customers_without_orders(sf_dir: str) -> pd.DataFrame:
    """Referential orphan check (J1) as a bounded-memory Bloom anti-join:
    bloom-miss rows are definite orphans (no shuffle), bloom-hit rows are
    verified by the exact bucketed anti join — never an O(keys) driver
    set (stages/bloom.py)."""
    from ndap_data_validator_ray.stages.bloom import bloom_anti_join

    out = bloom_anti_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
        _read(sf_dir, "orders", columns=["o_custkey"]),
        probe_on="c_custkey",
        build_on="o_custkey",
    ).to_pandas()
    if out.empty:
        return pd.DataFrame({"c_custkey": pd.Series([], dtype="int64"), "c_name": pd.Series([], dtype=object)})
    return out.sort_values("c_custkey").reset_index(drop=True)


_CUST_WO_ORDERS_SQL = """
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
ORDER BY c_custkey
"""


def lineitem_orphans(sf_dir: str) -> pd.DataFrame:
    """Referential check: lineitems whose order key has no orders row
    (Bloom prefilter + exact bucketed anti-join verify — stages/bloom.py)."""
    from ndap_data_validator_ray.stages.bloom import bloom_anti_join

    out = bloom_anti_join(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"]),
        _read(sf_dir, "orders", columns=["o_orderkey"]),
        probe_on="l_orderkey",
        build_on="o_orderkey",
    ).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {"l_orderkey": pd.Series([], dtype="int64"), "l_linenumber": pd.Series([], dtype="int32")}
        )
    return out.sort_values(["l_orderkey", "l_linenumber"]).reset_index(drop=True)


_LINEITEM_ORPHANS_SQL = """
SELECT l_orderkey, l_linenumber FROM lineitem l
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey)
ORDER BY l_orderkey, l_linenumber
"""


def customers_without_urgent_orders(sf_dir: str) -> pd.DataFrame:
    """Anti-join against a FILTERED build side (orders with priority
    1-URGENT).  Unlike the natural orphan gates (0 rows on this synthetic
    data), this returns ~13% of customers, so the Bloom verify leg —
    bucketed anti-join of bloom-HIT probe rows — is exercised with real
    false positives and real anti output (round-2 advice item 2)."""
    from ndap_data_validator_ray.stages.bloom import bloom_anti_join

    urgent = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    out = bloom_anti_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
        urgent,
        probe_on="c_custkey",
        build_on="o_custkey",
    ).to_pandas()
    if out.empty:
        return pd.DataFrame({"c_custkey": pd.Series([], dtype="int64"), "c_name": pd.Series([], dtype=object)})
    return out.sort_values("c_custkey").reset_index(drop=True)


_CUST_WO_URGENT_SQL = """
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT')
ORDER BY c_custkey
"""


def customer_counts_by_nation(sf_dir: str) -> pd.DataFrame:
    """Broadcast dim join, Arrow-native (stages/broadcast.ArrowLookup)."""
    from ndap_data_validator_ray.stages.broadcast import attach_lookup

    nat = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    lookup = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    return (
        attach_lookup(
            _read(sf_dir, "customer", columns=["c_nationkey"]), lookup, "c_nationkey", "n_name", keep=["n_name"]
        )
        .groupby("n_name")
        .aggregate(Count(alias_name="n_customers"))
        .to_pandas()
    )


_CUST_BY_NATION_SQL = """
SELECT n_name, COUNT(*) AS n_customers FROM customer JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


# ---------------------------------------------------------------------------
# Uniqueness (A14: hash-partitioned groupby over batch partials)
# ---------------------------------------------------------------------------

def duplicate_order_keys(sf_dir: str) -> pd.DataFrame:
    from ndap_data_validator_ray.stages.dedup import duplicate_keys

    tbl = duplicate_keys(_read(sf_dir, "orders", columns=["o_orderkey"]), "o_orderkey")
    return tbl.to_pandas()


_DUP_ORDERS_SQL = """
SELECT o_orderkey, COUNT(*) AS cnt FROM orders GROUP BY o_orderkey HAVING COUNT(*) > 1 ORDER BY o_orderkey
"""


def duplicate_lineitem_pk(sf_dir: str) -> pd.DataFrame:
    """Composite-key uniqueness: the two-column key is packed into one
    int64 before the shuffle (Ray's multi-key groupby is ~10x slower than
    single-key at this scale) and unpacked on the small result."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        key = batch["l_orderkey"].to_numpy(dtype=np.int64) * (1 << 32) + batch["l_linenumber"].to_numpy(dtype=np.int64)
        vc = pd.Series(key).value_counts()
        return pd.DataFrame({"k": vc.index.to_numpy(), "cnt": vc.to_numpy().astype(np.int64)})

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("k", as_index=False)["cnt"].sum()
        return g[g["cnt"] > 1]  # dup filter inside the reducer: tiny output

    out = bucketed_groupby(ds, ["k"], partial, merge).to_pandas()
    k = out["k"].to_numpy(dtype=np.int64)
    out["l_orderkey"] = k >> 32
    out["l_linenumber"] = (k & 0xFFFFFFFF).astype(np.int32)
    return (
        out[["l_orderkey", "l_linenumber", "cnt"]]
        .sort_values(["l_orderkey", "l_linenumber"])
        .reset_index(drop=True)
    )


_DUP_LINEITEM_SQL = """
SELECT l_orderkey, l_linenumber, COUNT(*) AS cnt FROM lineitem
GROUP BY l_orderkey, l_linenumber HAVING COUNT(*) > 1 ORDER BY l_orderkey, l_linenumber
"""


# ---------------------------------------------------------------------------
# Sort / top-k
# ---------------------------------------------------------------------------

def top_parts_by_price(sf_dir: str) -> pd.DataFrame:
    out = (
        _read(sf_dir, "part", columns=["p_partkey", "p_name", "p_retailprice", "p_size"])
        .map_batches(lambda t: t.filter(pc.greater(t["p_size"], 40)), batch_format="pyarrow")
        .sort(["p_retailprice", "p_partkey"], descending=[True, False])
        .limit(20)
        .to_pandas()
    )
    return out


_TOP_PARTS_SQL = """
SELECT p_partkey, p_name, p_retailprice, p_size FROM part WHERE p_size > 40
ORDER BY p_retailprice DESC, p_partkey ASC LIMIT 20
"""


# ---------------------------------------------------------------------------
# Documents: dedup + text analysis
# ---------------------------------------------------------------------------

def dedup_exact_documents(sf_dir: str) -> pd.DataFrame:
    """Exact content dedup groups: min doc_id + copy count per distinct
    text, through the bucketed two-phase stage (stages/dedup.py — the
    shuffle key is a B-way bucket, never one raw key per document)."""
    from ndap_data_validator_ray.stages.dedup import exact_dedup_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = exact_dedup_counts(ds, ["text"], "doc_id", count_col="n_copies").to_pandas()
    return out[["doc_id", "n_copies"]].sort_values("doc_id").reset_index(drop=True)


_DEDUP_EXACT_SQL = """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies FROM documents GROUP BY text ORDER BY doc_id
"""


def dedup_prefix_documents(sf_dir: str) -> pd.DataFrame:
    """Near-exact dedup on a normalized 40-char prefix key (groups actually
    collide, unlike full-text on this corpus) — through the bucketed
    two-phase dedup stage, honoring the high-cardinality-groupby invariant
    (raw-key ``Dataset.groupby`` is 10-15x slower at this cardinality,
    BASELINE.md)."""
    from ndap_data_validator_ray.stages.dedup import exact_dedup_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_key(batch: pd.DataFrame) -> pd.DataFrame:
        batch["prefix"] = batch["text"].fillna("").str.slice(0, 40)
        return batch[["doc_id", "prefix"]]

    keyed = ds.map_batches(add_key, batch_format="pandas")
    out = exact_dedup_counts(keyed, ["prefix"], "doc_id", count_col="n_docs").to_pandas()
    return out[["prefix", "doc_id", "n_docs"]].sort_values("doc_id").reset_index(drop=True)


_DEDUP_PREFIX_SQL = """
SELECT substr(text, 1, 40) AS prefix, MIN(doc_id) AS doc_id, COUNT(*) AS n_docs
FROM documents GROUP BY 1 ORDER BY doc_id
"""


def doc_stats_by_lang(sf_dir: str) -> pd.DataFrame:
    out = (
        _read(sf_dir, "documents", columns=["lang", "n_chars"])
        .groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Mean("n_chars", alias_name="avg_chars"),
            Min("n_chars", alias_name="min_chars"),
            Max("n_chars", alias_name="max_chars"),
        )
        .to_pandas()
    )
    out["avg_chars"] = _r6(out["avg_chars"])
    return out


_DOC_STATS_SQL = """
SELECT lang, COUNT(*) AS n_docs, ROUND(AVG(n_chars), 6) AS avg_chars,
       MIN(n_chars) AS min_chars, MAX(n_chars) AS max_chars
FROM documents GROUP BY lang
"""


def token_counts_documents(sf_dir: str) -> pd.DataFrame:
    from ndap_data_validator_ray.functions.text import token_count

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": batch["doc_id"], "n_tokens": token_count(batch["text"])})

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


_TOKEN_COUNTS_SQL = r"""
SELECT doc_id, CASE WHEN trim(text) = '' THEN 0
       ELSE array_length(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
FROM documents ORDER BY doc_id
"""


def char_stats_documents(sf_dir: str) -> pd.DataFrame:
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].fillna("")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "len_chars": t.str.len().astype("int64"),
                "n_digits": t.str.count(r"\d").astype("int64"),
                "n_spaces": t.str.count(" ").astype("int64"),
            }
        )

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


_CHAR_STATS_SQL = r"""
SELECT doc_id, length(text) AS len_chars,
       length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS n_digits,
       length(text) - length(replace(text, ' ', '')) AS n_spaces
FROM documents ORDER BY doc_id
"""


def lang_id_documents(sf_dir: str) -> pd.DataFrame:
    """Heuristic language ID, oracled: the DuckDB twin counts per-language
    stopword hits with list_filter over the same word regex and applies
    the same first-max-wins tie-break (SQL generated from the very profile
    tables the engine uses, so they cannot drift apart)."""
    from ndap_data_validator_ray.functions.text import detect_language

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": batch["doc_id"], "detected_lang": detect_language(batch["text"])})

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _lang_id_sql() -> str:
    from ndap_data_validator_ray.functions.text import _LANG_PROFILES

    hit_exprs = []
    for lang, words in _LANG_PROFILES.items():
        lst = ", ".join(f"'{w}'" for w in sorted(words))
        hit_exprs.append(
            f"COALESCE(array_length(list_filter(ws, x -> list_contains([{lst}], x))), 0) AS h_{lang}"
        )
    langs = list(_LANG_PROFILES)
    greatest = "GREATEST(" + ", ".join(f"h_{l}" for l in langs) + ")"
    case = "CASE WHEN " + greatest + " = 0 THEN 'und' "
    # first-max-wins in profile declaration order == the engine's strict->
    case += " ".join(f"WHEN h_{l} = {greatest} THEN '{l}'" for l in langs)
    case += " ELSE 'und' END"
    return f"""
WITH words AS (
  SELECT doc_id, regexp_extract_all(lower(COALESCE(text, '')), '[a-z'']+') AS ws FROM documents
), hits AS (
  SELECT doc_id, {', '.join(hit_exprs)} FROM words
)
SELECT doc_id, {case} AS detected_lang FROM hits ORDER BY doc_id
"""


def quality_scores_documents(sf_dir: str) -> pd.DataFrame:
    """Quality features + scalar score, oracled: every feature ratio and
    the clipped score formula have an exact DuckDB twin (floats rounded
    to 6 on both sides per the module convention)."""
    from ndap_data_validator_ray.functions.text import quality_features, quality_score

    float_cols = [
        "mean_token_len", "punct_ratio", "digit_ratio", "upper_ratio",
        "stopword_ratio", "repetition_ratio", "quality",
    ]

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        f = quality_features(batch["text"])
        f.insert(0, "doc_id", batch["doc_id"].to_numpy())
        f["quality"] = quality_score(batch["text"])
        for c in float_cols:
            f[c] = _r6(f[c])
        return f

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _quality_sql() -> str:
    from ndap_data_validator_ray.functions.text import _LANG_PROFILES

    en = ", ".join(f"'{w}'" for w in sorted(_LANG_PROFILES["en"]))
    return rf"""
WITH base AS (
  SELECT doc_id, COALESCE(text, '') AS t FROM documents
), feat AS (
  SELECT doc_id,
    length(t) AS n_chars,
    list_filter(regexp_split_to_array(trim(t), '\s+'), x -> x <> '') AS toks,
    COALESCE(array_length(regexp_extract_all(t, '[^\w\s]')), 0) AS punct,
    COALESCE(array_length(regexp_extract_all(t, '\d')), 0) AS digits,
    COALESCE(array_length(regexp_extract_all(t, '[A-Z]')), 0) AS uppr,
    regexp_extract_all(lower(t), '[a-z'']+') AS ws
  FROM base
), r AS (
  SELECT doc_id, n_chars,
    COALESCE(array_length(toks), 0) AS n_tokens,
    CAST(GREATEST(n_chars, 1) AS DOUBLE) / GREATEST(COALESCE(array_length(toks), 0), 1) AS mean_token_len,
    CAST(punct AS DOUBLE) / GREATEST(n_chars, 1) AS punct_ratio,
    CAST(digits AS DOUBLE) / GREATEST(n_chars, 1) AS digit_ratio,
    CAST(uppr AS DOUBLE) / GREATEST(n_chars, 1) AS upper_ratio,
    CAST(COALESCE(array_length(list_filter(ws, x -> list_contains([{en}], x))), 0) AS DOUBLE)
      / GREATEST(COALESCE(array_length(ws), 0), 1) AS stopword_ratio,
    1.0 - CAST(COALESCE(array_length(list_distinct(toks)), 0) AS DOUBLE)
      / GREATEST(COALESCE(array_length(toks), 0), 1) AS repetition_ratio
  FROM feat
)
SELECT doc_id, n_chars, n_tokens,
  ROUND(mean_token_len, 6) AS mean_token_len,
  ROUND(punct_ratio, 6) AS punct_ratio,
  ROUND(digit_ratio, 6) AS digit_ratio,
  ROUND(upper_ratio, 6) AS upper_ratio,
  ROUND(stopword_ratio, 6) AS stopword_ratio,
  ROUND(repetition_ratio, 6) AS repetition_ratio,
  ROUND(0.4 * LEAST(GREATEST(n_tokens / 20.0, 0), 1)
      + 0.2 * (1.0 - LEAST(GREATEST(punct_ratio * 3, 0), 1))
      + 0.2 * (1.0 - LEAST(GREATEST(digit_ratio * 3, 0), 1))
      + 0.2 * (1.0 - LEAST(GREATEST((repetition_ratio - 0.3) * 2, 0), 1)), 6) AS quality
FROM r ORDER BY doc_id
"""


def fingerprints_documents(sf_dir: str) -> pd.DataFrame:
    """64-bit content fingerprints (lower-64 MD5, the DuckDB
    ``md5_number_lower`` twin — value-hash oracled since round 4)."""
    from ndap_data_validator_ray.functions.text import fingerprint64

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "fingerprint": fingerprint64(batch["text"]).astype(np.int64)}
        )

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def minhash_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH near-dup candidate pairs (rows-only)."""
    from ndap_data_validator_ray.stages.dedup_near import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, concurrency=(2, 8))
    return out


def simhash_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup pairs within Hamming distance 3, fully DuckDB-
    oracled: token hash is the md5_number_lower twin, and the 4x16-bit
    slice recall is EXACT at Hamming<=3 by pigeonhole, so the distributed
    bucket+verify output equals SQL's all-pairs XOR/bit_count scan."""
    from ndap_data_validator_ray.stages.dedup_near import simhash_near_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = simhash_near_pairs(ds, "text", "doc_id", max_hamming=3, concurrency=(2, 8), token_hash="md5")
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    out["hamming"] = out["hamming"].astype("int64")
    return out


_FINGERPRINTS_SQL = """
SELECT doc_id,
  CAST(CASE WHEN m > 9223372036854775807
            THEN CAST(m AS HUGEINT) - 18446744073709551616
            ELSE CAST(m AS HUGEINT) END AS BIGINT) AS fingerprint
FROM (SELECT doc_id, md5_number_lower(COALESCE(text, '')) AS m FROM documents)
ORDER BY doc_id
"""


_SIMHASH_SQL = r"""
WITH toks AS (
  SELECT doc_id,
    unnest(list_filter(regexp_split_to_array(lower(COALESCE(text, '')), '\s+'), x -> x <> '')) AS tok
  FROM documents
), th AS (
  SELECT doc_id, md5_number_lower(tok) AS h FROM toks
), votes AS (
  SELECT doc_id, b,
    SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM th CROSS JOIN (SELECT unnest(range(64)) AS b) bits
  GROUP BY doc_id, b
), sig_raw AS (
  SELECT doc_id, SUM(CASE WHEN v > 0 THEN CAST(CAST(1 AS UBIGINT) << b AS HUGEINT) ELSE 0 END) AS s
  FROM votes GROUP BY doc_id
), sigs AS (
  SELECT d.doc_id,
    CAST(CASE WHEN COALESCE(s.s, 0) > 9223372036854775807
              THEN COALESCE(s.s, 0) - 18446744073709551616
              ELSE COALESCE(s.s, 0) END AS BIGINT) AS sig
  FROM documents d LEFT JOIN sig_raw s USING (doc_id)
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sig, b.sig)) <= 3
ORDER BY id_a, id_b
"""


def ngram_jaccard_documents(sf_dir: str) -> pd.DataFrame:
    """Word-3-gram Jaccard-verified near-dup pairs (rows-only)."""
    from ndap_data_validator_ray.stages.dedup_near import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "text", "doc_id", n=3, threshold=0.4)


def ngram_jaccard_exact_documents(sf_dir: str) -> pd.DataFrame:
    """EXACT all-pairs word-3-gram Jaccard on a keyed subset (doc_id % 3) —
    the distributed tile-pair triangle join (stages/dedup_near.
    exact_jaccard_pairs), fully DuckDB-oracleable because there is no
    LSH recall gap.  The subset bounds the inherent O(n^2) at bench scale;
    LSH `ngram_jaccard_documents` remains the 100 TB path."""
    from ndap_data_validator_ray.stages.dedup_near import exact_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sub = ds.map_batches(
        lambda t: t.filter(pa.array(t["doc_id"].to_numpy() % 3 == 0)), batch_format="pyarrow"
    )
    out = exact_jaccard_pairs(sub, "text", "doc_id", n=3, threshold=0.5, tiles=4)
    out["jaccard"] = _r6(out["jaccard"])
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


_NGRAM_EXACT_SQL = r"""
WITH sub AS (
  SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\s+'), x -> x <> '') AS ws
  FROM documents WHERE doc_id % 3 = 0
), grams AS (
  SELECT doc_id,
    CASE WHEN len(ws) >= 3
      THEN list_distinct(list_transform(range(1, len(ws) - 1), i -> array_to_string(ws[i:i+2], ' ')))
      WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
      ELSE [''] END AS g
  FROM sub
)
SELECT id_a, id_b, jaccard FROM (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
    ROUND(CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
          / GREATEST(1, len(list_distinct(list_concat(a.g, b.g)))), 6) AS jaccard
  FROM grams a JOIN grams b ON a.doc_id < b.doc_id
) WHERE jaccard >= 0.5 ORDER BY id_a, id_b
"""


# ---------------------------------------------------------------------------
# Embeddings: similarity search
# ---------------------------------------------------------------------------

def _query_vectors(sf_dir: str, n: int = 5) -> tuple[np.ndarray, np.ndarray]:
    # filter BEFORE collecting: only the n query vectors ever reach the
    # driver (the full embeddings table streams through the filter)
    emb = (
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .map_batches(lambda b: b[b["vec_id"] < n], batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")
    )
    return emb["vec_id"].to_numpy(), np.vstack(emb["embedding"].to_numpy()).astype(np.float64)


def knn_embeddings(sf_dir: str) -> pd.DataFrame:
    """Exact cosine top-10 of the first 5 vectors against the corpus.
    Emits ranks (not raw sims) so float summation order can't flip hashes."""
    from ndap_data_validator_ray.stages.similarity import brute_force_topk

    qids, qmat = _query_vectors(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = brute_force_topk(ds, qids, qmat, k=10, concurrency=2)
    return out[["query_id", "neighbor_id", "rank"]]


_KNN_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 5),
scored AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.qe, e.embedding) AS sim
  FROM q CROSS JOIN embeddings e
),
ranked AS (
  SELECT query_id, neighbor_id,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id ASC) AS rank
  FROM scored
)
SELECT query_id, neighbor_id, CAST(rank AS INT) AS rank FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
"""


def knn_hard_negatives(sf_dir: str) -> pd.DataFrame:
    """Hard-negative mining — for each of the first 5 vectors, the exact
    cosine top-10 among vectors with a DIFFERENT ``label`` (contrastive /
    retriever training's negative-sampling stage; the query row excludes
    itself via its own label).  Same actor-pool broadcast-matmul shape as
    ``knn_embeddings`` with a per-query label mask applied before the
    local top-k; emits ranks only, so float summation order can't flip
    the value hash."""
    from ndap_data_validator_ray.stages.similarity import brute_force_topk

    small = (
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
        .map_batches(lambda b: b[b["vec_id"] < 5], batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")
    )
    qids = small["vec_id"].to_numpy(np.int64)
    qmat = np.vstack(small["embedding"].to_numpy()).astype(np.float64)
    qlabels = small["label"].to_numpy()
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    out = brute_force_topk(
        ds, qids, qmat, k=10, concurrency=2, label_col="label", query_labels=qlabels
    )
    return out[["query_id", "neighbor_id", "rank"]]


_HARD_NEG_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe, label AS ql
           FROM embeddings WHERE vec_id < 5),
scored AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.qe, e.embedding) AS sim
  FROM q JOIN embeddings e ON e.label <> q.ql
),
ranked AS (
  SELECT query_id, neighbor_id,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id ASC) AS rank
  FROM scored
)
SELECT query_id, neighbor_id, CAST(rank AS INT) AS rank FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
"""


def knn_embeddings_lsh(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed approximate top-k (rows-only; recall-vs-cost variant)."""
    from ndap_data_validator_ray.stages.similarity import lsh_topk

    qids, qmat = _query_vectors(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return lsh_topk(ds, qids, qmat, k=10, concurrency=2)[["query_id", "neighbor_id", "rank"]]


def _knn_recall_rows(sf_dir: str, approx: pd.DataFrame, method: str) -> pd.DataFrame:
    """Recall@10 of an approximate ANN result against the in-engine exact
    brute-force top-k (itself value-hash oracled via ``knn_embeddings``):
    the oracle-adjacent gate for LSH/IVF, whose bucket contents no SQL can
    reproduce.  One row per query vector."""
    from ndap_data_validator_ray.stages.similarity import brute_force_topk

    qids, qmat = _query_vectors(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    exact = brute_force_topk(ds, qids, qmat, k=10, concurrency=2)
    ex = exact.groupby("query_id")["neighbor_id"].apply(set)
    ap = approx.groupby("query_id")["neighbor_id"].apply(set)
    rows = [
        {
            "query_id": int(q),
            "method": method,
            "recall_at_10": round(len(ex[q] & ap.get(q, set())) / max(1, len(ex[q])), 6),
        }
        for q in sorted(ex.index)
    ]
    return pd.DataFrame(rows)


_KNUTH32 = 2654435761  # Knuth multiplicative hash; exact in int64 SQL arithmetic


def sample_per_source_documents(sf_dir: str) -> pd.DataFrame:
    """Deterministic k-per-group sampling (training-data per-source cap):
    keep the 5 docs with the smallest stable key hash per source — the
    shuffle-free distributed reservoir.  Each block ships at most
    k x n_groups candidate rows (local per-group top-k inside
    map_batches), the driver merges the tiny partials, and reruns pick
    IDENTICAL rows (hash order, no RNG — resume-safe).  Exact-oracled via
    ROW_NUMBER over the same Knuth-hash ordering."""
    k = 5
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy().astype(np.uint64)
        h = (ids * np.uint64(_KNUTH32)) % np.uint64(1 << 32)
        part = pd.DataFrame(
            {"source": batch["source"].to_numpy(), "doc_id": ids.astype(np.int64), "h": h.astype(np.int64)}
        )
        return part.sort_values(["h", "doc_id"]).groupby("source", as_index=False).head(k)

    parts = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    out = (
        parts.sort_values(["h", "doc_id"])
        .groupby("source", as_index=False)
        .head(k)[["source", "doc_id"]]
    )
    return out.sort_values(["source", "doc_id"]).reset_index(drop=True)


_SAMPLE_PER_SOURCE_SQL = f"""
SELECT source, doc_id FROM (
  SELECT source, doc_id,
    ROW_NUMBER() OVER (
      PARTITION BY source ORDER BY (doc_id * {_KNUTH32}) % 4294967296, doc_id
    ) AS rn
  FROM documents
) WHERE rn <= 5 ORDER BY source, doc_id
"""


def incremental_dedup_documents(sf_dir: str) -> pd.DataFrame:
    """Incremental (cross-run) exact dedup: new docs (odd doc_id) are kept
    only if their CONTENT doesn't already exist in the prior corpus (even
    doc_id) — the arriving-shard-vs-existing-corpus shape of a continuous
    ingestion pipeline.  Keys are 64-bit md5 content fingerprints
    (functions/text.fingerprint64 — 8 bytes ride the anti join instead of
    document text), probed through ``stages/bloom.bloom_anti_join``:
    bloom misses short-circuit with no shuffle; only bloom hits pay the
    bucketed exact verify.  Oracle compares on text equality (identical
    modulo md5 collision).  Intra-batch new-vs-new duplicates are
    deliberately kept (NOT EXISTS semantics)."""
    from ndap_data_validator_ray.functions.text import fingerprint64
    from ndap_data_validator_ray.stages.bloom import bloom_anti_join

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "fp": fingerprint64(batch["text"].fillna("").str.slice(0, 40)).astype(np.int64),
            }
        )

    fps = docs.map_batches(fp, batch_format="pandas").materialize()
    new = fps.map_batches(lambda b: b[b["doc_id"] % 2 == 1], batch_format="pandas")
    prior = fps.map_batches(lambda b: b[b["doc_id"] % 2 == 0], batch_format="pandas")
    out = bloom_anti_join(new, prior, "fp", "fp").to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out[["doc_id"]].sort_values("doc_id").reset_index(drop=True)


_INCREMENTAL_DEDUP_SQL = """
SELECT doc_id FROM documents d
WHERE doc_id % 2 = 1
  AND NOT EXISTS (
    SELECT 1 FROM documents p
    WHERE p.doc_id % 2 = 0
      AND substr(COALESCE(p.text, ''), 1, 40) = substr(COALESCE(d.text, ''), 1, 40)
  )
ORDER BY doc_id
"""


def near_dup_clusters_documents(sf_dir: str) -> pd.DataFrame:
    """End-to-end near-dup clustering, the full 100 TB dedup flow: MinHash
    LSH recall → distributed signature verify (no driver payload dict) →
    DISTRIBUTED connected components (stages/cc.py) → per-cluster
    min-doc_id representative.  Emits only clustered docs (component size
    >= 2), with their representative (rows-only: LSH recall is
    engine-defined; the CC stage itself is oracled via
    ``order_chain_components`` and the pair stage via planted tests)."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.dedup_near import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # as_dataset: the verified edge list goes STRAIGHT from the distributed
    # verify reducers into CC's first exchange — no .to_pandas()/from_pandas
    # driver round-trip (round-4 verdict item 1; the edge list is O(corpus)
    # on a dup-heavy crawl).  Materialized once: CC reads it every round.
    edges = (
        minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, concurrency=(2, 8), as_dataset=True)
        .map_batches(lambda b: b[["id_a", "id_b"]], batch_format="pandas")
        .materialize()
    )
    if edges.count() == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64), "cluster_rep": pd.Series([], dtype=np.int64)})
    # small_graph_cap=0: this query IS the 100 TB flow demonstration — the
    # edge list must stay distributed end to end regardless of fixture size
    # (the guarded driver fast path is exercised by semantic_dedup_survivors)
    comp = distributed_connected_components(edges, small_graph_cap=0).to_pandas()
    comp = comp.rename(columns={"node": "doc_id", "component": "cluster_rep"})
    comp["doc_id"] = comp["doc_id"].astype(np.int64)
    comp["cluster_rep"] = comp["cluster_rep"].astype(np.int64)
    return comp.sort_values("doc_id").reset_index(drop=True)


def near_dup_clusters_exact(sf_dir: str) -> pd.DataFrame:
    """End-to-end near-dup clustering with a FULL value oracle (round-4
    verdict item 3): edges are the already-oracled exact word-3-gram
    Jaccard pairs (doc_id % 3 subset, threshold 0.5 — the
    ``ngram_jaccard_exact_documents`` pair set verbatim), components via
    the SAME distributed CC stage the LSH flow uses (stages/cc.py: fused
    min-label + pointer-jump rounds), representative = min doc_id.
    DuckDB recomputes the clusters with a recursive reachability CTE over
    the identical pair set, so the pair-stage -> CC -> rep composition is
    value-pinned end to end, not just planted-fixture-tested."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.dedup_near import exact_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sub = ds.map_batches(
        lambda t: t.filter(pa.array(t["doc_id"].to_numpy() % 3 == 0)), batch_format="pyarrow"
    )
    pairs = exact_jaccard_pairs(sub, "text", "doc_id", n=3, threshold=0.5, tiles=4)
    if pairs.empty:
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype=np.int64), "cluster_rep": pd.Series([], dtype=np.int64)}
        )
    edges = ray.data.from_pandas(pairs[["id_a", "id_b"]].reset_index(drop=True)).materialize()
    # small_graph_cap=0: the point of this query is value-pinning the
    # DISTRIBUTED rounds against the recursive-CTE oracle
    comp = distributed_connected_components(edges, small_graph_cap=0).to_pandas()
    comp = comp.rename(columns={"node": "doc_id", "component": "cluster_rep"})
    comp["doc_id"] = comp["doc_id"].astype(np.int64)
    comp["cluster_rep"] = comp["cluster_rep"].astype(np.int64)
    return comp.sort_values("doc_id").reset_index(drop=True)


_NEAR_DUP_CLUSTERS_EXACT_SQL = """
WITH RECURSIVE sub AS (
  SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents WHERE doc_id % 3 = 0
), grams AS (
  SELECT doc_id,
    CASE WHEN len(ws) >= 3
      THEN list_distinct(list_transform(range(1, len(ws) - 1), i -> array_to_string(ws[i:i+2], ' ')))
      WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
      ELSE [''] END AS g
  FROM sub
), pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM grams a JOIN grams b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
        / GREATEST(1, len(list_distinct(list_concat(a.g, b.g)))) >= 0.5
), edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs UNION ALL SELECT id_b, id_a FROM pairs
), reach AS (
  SELECT u AS node, v AS r FROM edges
  UNION
  SELECT reach.node, e.v FROM reach JOIN edges e ON e.u = reach.r
)
SELECT node AS doc_id, LEAST(node, MIN(r)) AS cluster_rep
FROM reach GROUP BY node ORDER BY doc_id
"""


def order_chain_components(sf_dir: str) -> pd.DataFrame:
    """Distributed connected components (stages/cc.py — the 100 TB
    dedup-clustering path: min-label propagation + pointer jumping, only
    bucketed exchanges, one convergence scalar per round to the driver)
    over a graph SQL can also label: each customer's orders sorted by key
    and chained consecutively, so every component is exactly one
    customer's order set and the min-id label equals
    ``MIN(o_orderkey) OVER (PARTITION BY o_custkey)``.  Chains are up to
    ~40 long — multi-hop propagation is genuinely exercised (pointer
    jumping converges in O(log L) rounds).  Single-order customers are
    isolated nodes fed via ``nodes=``."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def chain_edges(part: pd.DataFrame) -> pd.DataFrame:
        p = part.sort_values(["o_custkey", "o_orderkey"])
        ck = p["o_custkey"].to_numpy()
        ok = p["o_orderkey"].to_numpy().astype(np.int64)
        if len(ok) < 2:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64), "id_b": pd.Series([], dtype=np.int64)})
        same = ck[1:] == ck[:-1]
        return pd.DataFrame({"id_a": ok[:-1][same], "id_b": ok[1:][same]})

    edges = bucketed_groupby(orders, ["o_custkey"], lambda b: b, chain_edges).materialize()
    nodes = orders.map_batches(
        lambda t: pa.table({"node": t["o_orderkey"]}), batch_format="pyarrow"
    )
    # small_graph_cap=0: this is the distributed CC stage's value oracle —
    # the multi-hop rounds themselves are what the SQL pins
    comp = distributed_connected_components(edges, nodes=nodes, small_graph_cap=0).to_pandas()
    comp = comp.rename(columns={"node": "o_orderkey"})
    comp["o_orderkey"] = comp["o_orderkey"].astype("int64")
    comp["component"] = comp["component"].astype("int64")
    return comp.sort_values("o_orderkey").reset_index(drop=True)


_ORDER_CHAIN_CC_SQL = """
SELECT o_orderkey, MIN(o_orderkey) OVER (PARTITION BY o_custkey) AS component
FROM orders ORDER BY o_orderkey
"""


def order_chain_pagerank(sf_dir: str) -> pd.DataFrame:
    """Distributed PageRank (stages/pagerank.py — fixed 5 iterations,
    damping 0.85, two bucketed exchanges per iteration, nothing on the
    driver) over the order-chain graph of every 5th customer.  Fixed
    iterations make the result deterministic, so DuckDB reproduces it
    with five unrolled join+groupby CTEs — a FULL value oracle for an
    iterative distributed algorithm.  Float-exactness note: chain nodes
    have <= 2 in-edges, and two-term float addition is commutative (only
    associativity fails), so both sides agree to the last ulp; the
    engine's per-edge ``damping*rank/deg`` and base ``(1-damping)/n``
    expressions are mirrored verbatim in the SQL."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby
    from ndap_data_validator_ray.stages.pagerank import distributed_pagerank

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]).map_batches(
        lambda t: t.filter(pa.array(t["o_custkey"].to_numpy() % 5 == 0)), batch_format="pyarrow"
    )

    def chain_edges(part: pd.DataFrame) -> pd.DataFrame:
        p = part.sort_values(["o_custkey", "o_orderkey"])
        ck = p["o_custkey"].to_numpy()
        ok = p["o_orderkey"].to_numpy().astype(np.int64)
        if len(ok) < 2:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64), "id_b": pd.Series([], dtype=np.int64)})
        same = ck[1:] == ck[:-1]
        return pd.DataFrame({"id_a": ok[:-1][same], "id_b": ok[1:][same]})

    edges = bucketed_groupby(orders, ["o_custkey"], lambda b: b, chain_edges).materialize()
    out = distributed_pagerank(edges, iters=5, damping=0.85).to_pandas()
    out = out.rename(columns={"node": "o_orderkey"})
    out["o_orderkey"] = out["o_orderkey"].astype(np.int64)
    out["rank"] = _r9(out["rank"])
    return out.sort_values("o_orderkey").reset_index(drop=True)


_PAGERANK_SQL = """
WITH cust AS (
  SELECT o_orderkey, o_custkey FROM orders WHERE o_custkey % 5 = 0
), chain AS (
  SELECT o_orderkey AS u,
         LEAD(o_orderkey) OVER (PARTITION BY o_custkey ORDER BY o_orderkey) AS v
  FROM cust
), pairs AS (SELECT u, v FROM chain WHERE v IS NOT NULL),
edges AS (SELECT u, v FROM pairs UNION SELECT v AS u, u AS v FROM pairs),
deg AS (SELECT u AS node, COUNT(*) AS d FROM edges GROUP BY 1),
n AS (SELECT COUNT(*) AS n FROM deg),
r0 AS (SELECT node, 1.0 / (SELECT n FROM n) AS r FROM deg),
r1 AS (SELECT e.v AS node, (1 - 0.85) / (SELECT n FROM n) + SUM(0.85 * p.r / deg.d) AS r
       FROM edges e JOIN r0 p ON p.node = e.u JOIN deg ON deg.node = e.u GROUP BY e.v),
r2 AS (SELECT e.v AS node, (1 - 0.85) / (SELECT n FROM n) + SUM(0.85 * p.r / deg.d) AS r
       FROM edges e JOIN r1 p ON p.node = e.u JOIN deg ON deg.node = e.u GROUP BY e.v),
r3 AS (SELECT e.v AS node, (1 - 0.85) / (SELECT n FROM n) + SUM(0.85 * p.r / deg.d) AS r
       FROM edges e JOIN r2 p ON p.node = e.u JOIN deg ON deg.node = e.u GROUP BY e.v),
r4 AS (SELECT e.v AS node, (1 - 0.85) / (SELECT n FROM n) + SUM(0.85 * p.r / deg.d) AS r
       FROM edges e JOIN r3 p ON p.node = e.u JOIN deg ON deg.node = e.u GROUP BY e.v),
r5 AS (SELECT e.v AS node, (1 - 0.85) / (SELECT n FROM n) + SUM(0.85 * p.r / deg.d) AS r
       FROM edges e JOIN r4 p ON p.node = e.u JOIN deg ON deg.node = e.u GROUP BY e.v)
SELECT node AS o_orderkey, ROUND(r, 9) AS rank FROM r5 ORDER BY o_orderkey
"""


def knn_embeddings_ivf_indexed(sf_dir: str) -> pd.DataFrame:
    """IVF over a PERSISTED cell-partitioned index (round-3 verdict item
    6): the corpus is written once as hive-partitioned parquet
    (``cell=K/``) under /tmp (cached per corpus CONTENT, not path: the
    cache tag folds in the embeddings file's content address via
    ``state.checkpoint.lineage_id_for`` — a regenerated fixture at the
    same path rebuilds the index instead of silently serving stale
    results), and each query batch reads ONLY its probe cells' files —
    ~nprobe/n_clusters of the corpus never leaves storage (vs
    ``knn_embeddings_ivf``, which streams the full corpus and prunes
    compute-side)."""
    import hashlib as _hl
    import os

    from ndap_data_validator_ray.stages.similarity import ivf_build_index, ivf_query_index
    from ndap_data_validator_ray.state.checkpoint import lineage_id_for

    content = lineage_id_for([os.path.join(sf_dir, "embeddings.parquet")])
    tag = _hl.md5(f"{content}|c16|t2048".encode()).hexdigest()[:12]
    index_dir = f"/tmp/ndap_ivf_index/{tag}"
    if not os.path.exists(os.path.join(index_dir, "centroids.npy")):
        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        ivf_build_index(ds, index_dir, n_clusters=16, train_sample=2048)
    qids, qmat = _query_vectors(sf_dir)
    res, _pruned = ivf_query_index(index_dir, qids, qmat, k=10, nprobe=6, concurrency=2)
    return res[["query_id", "neighbor_id", "rank"]]


def knn_embeddings_pq(sf_dir: str) -> pd.DataFrame:
    """Product-quantization ANN with exact re-rank (rows-only; the
    memory-bound scale path — 64x vector compression, ADC table-gather
    pruning; see stages/similarity.pq_topk)."""
    from ndap_data_validator_ray.stages.similarity import pq_topk

    qids, qmat = _query_vectors(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return pq_topk(ds, qids, qmat, k=10, concurrency=2)[["query_id", "neighbor_id", "rank"]]


def knn_pq_recall(sf_dir: str) -> pd.DataFrame:
    """Per-query recall@10 of the PQ+rerank ANN vs exact brute force
    (rows-only; measured 1.0 at both fixtures with rerank=80 — the
    shortlist recovers everything ADC misorders; floor-tested >= 0.9)."""
    return _knn_recall_rows(sf_dir, knn_embeddings_pq(sf_dir), "pq")


def knn_lsh_recall(sf_dir: str) -> pd.DataFrame:
    """Per-query recall@10 of the LSH ANN vs exact brute force (rows-only;
    gated by tests/test_similarity.py recall floors)."""
    return _knn_recall_rows(sf_dir, knn_embeddings_lsh(sf_dir), "lsh")


def knn_ivf_recall(sf_dir: str) -> pd.DataFrame:
    """Per-query recall@10 of the IVF ANN vs exact brute force (rows-only;
    gated by tests/test_similarity.py recall floors)."""
    return _knn_recall_rows(sf_dir, knn_embeddings_ivf(sf_dir), "ivf")


def embedding_near_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-duplicate pairs at 0.95 (rows-only)."""
    from ndap_data_validator_ray.stages.similarity import embedding_near_duplicates

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_near_duplicates(ds, threshold=0.95, concurrency=2)


def embedding_norms(sf_dir: str) -> pd.DataFrame:
    """L2 norms per vector (rounded to 6), vectorized per batch."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        m = np.vstack(batch["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame({"vec_id": batch["vec_id"], "l2_norm": _r6(np.linalg.norm(m, axis=1))})

    return (
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )


_EMB_NORMS_SQL = """
SELECT vec_id, ROUND(sqrt(list_sum(list_transform(embedding, x -> CAST(x AS DOUBLE) * x))), 6) AS l2_norm
FROM embeddings ORDER BY vec_id
"""


def top_cosine_pairs(sf_dir: str) -> pd.DataFrame:
    """Global top-20 most-similar embedding pairs, EXACT — the distributed
    tile-pair triangle join with per-group local top-k (stages/similarity.
    exact_cosine_topk_pairs); the oracleable exact twin of the LSH near-dup
    path (whose threshold query is empty on this corpus, max cos ~0.51).
    Both sides compute cosine in float64; rank gaps are >=1e-5 so rounding
    to 6 decimals is hash-stable."""
    from ndap_data_validator_ray.stages.similarity import exact_cosine_topk_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = exact_cosine_topk_pairs(ds, id_col="vec_id", vec_col="embedding", k=20, tiles=4)
    return pd.DataFrame(
        {
            "id_a": out["id_a"].astype("int64"),
            "id_b": out["id_b"].astype("int64"),
            "cos_sim": _r6(out["sim"]),
            "rank": out["rank"].astype("int64"),
        }
    )


_TOP_COS_PAIRS_SQL = """
WITH v AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e FROM embeddings
), scored AS (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b, list_cosine_similarity(a.e, b.e) AS s
  FROM v a JOIN v b ON a.vec_id < b.vec_id
)
SELECT id_a, id_b, ROUND(s, 6) AS cos_sim,
       CAST(ROW_NUMBER() OVER (ORDER BY s DESC, id_a, id_b) AS BIGINT) AS rank
FROM scored ORDER BY s DESC, id_a, id_b LIMIT 20
"""


def label_centroid_distances(sf_dir: str) -> pd.DataFrame:
    """Per-label mean vector norm (groupby over vector partial sums)."""
    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = np.vstack(batch["embedding"].to_numpy()).astype(np.float64)
        df = pd.DataFrame({"label": batch["label"].to_numpy(), "s": list(m)})
        g = df.groupby("label")["s"].apply(lambda rows: np.sum(np.vstack(rows), axis=0))
        n = df.groupby("label").size()
        return pd.DataFrame({"label": g.index, "vec_sum": [v.tobytes() for v in g.to_numpy()], "n": n.to_numpy()})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = []
    for label, g in parts.groupby("label"):
        total = np.sum([np.frombuffer(b) for b in g["vec_sum"]], axis=0)
        n = int(g["n"].sum())
        out.append((int(label), n, float(np.round(np.linalg.norm(total / n), 6))))
    return pd.DataFrame(out, columns=["label", "n_vectors", "centroid_norm"]).sort_values("label").reset_index(drop=True)


_LABEL_CENTROID_SQL = """
WITH dims AS (SELECT UNNEST(range(1, 65)) AS i),
unn AS (
  SELECT label, i, SUM(CAST(embedding[i] AS DOUBLE)) AS s, COUNT(*) AS cnt
  FROM embeddings CROSS JOIN dims GROUP BY label, i
)
SELECT label, CAST(MAX(cnt) AS BIGINT) AS n_vectors,
       ROUND(sqrt(SUM((s / cnt) * (s / cnt))), 6) AS centroid_norm
FROM unn GROUP BY label ORDER BY label
"""




def events_sessionization(sf_dir: str) -> pd.DataFrame:
    """Session windows (30-min inactivity gap) per user — the stateful
    ordered-window operator Ray Data lacks natively, expressed as a
    bucketed groupby with per-user in-memory ordering (documented
    partitioning assumption: one user's events fit one reducer)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def sessions(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="stable")
        gap = part["ts"].diff() > pd.Timedelta(minutes=30)
        new_user = part["user_id"].ne(part["user_id"].shift())
        sid = (gap | new_user).cumsum()
        g = part.groupby(sid, sort=False).agg(
            user_id=("user_id", "first"), session_start=("ts", "min"), n_events=("ts", "size")
        )
        g["session_start"] = g["session_start"].dt.strftime("%Y-%m-%d %H:%M:%S")
        return g[["user_id", "session_start", "n_events"]]

    out = bucketed_groupby(ds, ["user_id"], lambda b: b[["user_id", "ts"]], sessions).to_pandas()
    return out.sort_values(["user_id", "session_start"]).reset_index(drop=True)


_SESSIONS_SQL = """
WITH ordered AS (
  SELECT user_id, ts,
         CASE WHEN LAG(ts) OVER w IS NULL
                   OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), numbered AS (
  SELECT user_id, ts,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
  FROM ordered
)
SELECT user_id, strftime(MIN(ts), '%Y-%m-%d %H:%M:%S') AS session_start, COUNT(*) AS n_events
FROM numbered GROUP BY user_id, sid ORDER BY user_id, session_start
"""


# ---------------------------------------------------------------------------
# Multimodal (binary image/video columns; stubbed codecs, real Ray stages)
# ---------------------------------------------------------------------------

def _images_dir(n_rows: int = 240) -> str:
    """Deterministic fake-image table cached under /tmp (no image libs in
    this sandbox; containers are the documented deterministic fakes)."""
    import pyarrow.parquet as pq

    from ndap_data_validator_ray.stages.multimodal import encode_fake_image, encode_fake_video

    d = f"/tmp/ndap_mm_cache/images_{n_rows}"
    if not os.path.exists(os.path.join(d, "part-00000.parquet")):
        os.makedirs(d, exist_ok=True)
        rng = np.random.default_rng(42)
        ids, blobs, vids = [], [], []
        for i in range(n_rows):
            h, w = int(rng.integers(16, 64)), int(rng.integers(16, 64))
            img = rng.integers(0, 255, (h, w, 3), dtype=np.uint8)
            blob = encode_fake_image(img) if i % 10 else b"CORRUPT"
            ids.append(f"img-{i:06d}")
            blobs.append(blob)
            frames = rng.integers(0, 255, (12, 8, 8, 3), dtype=np.uint8)
            vids.append(encode_fake_video(frames))
        tbl = pa.table(
            {
                "img_id": pa.array(ids, pa.string()),
                "image": pa.array(blobs, pa.binary()),
                "video": pa.array(vids, pa.binary()),
            }
        )
        pq.write_table(tbl, os.path.join(d, "part-00000.parquet.tmp"))
        os.replace(os.path.join(d, "part-00000.parquet.tmp"), os.path.join(d, "part-00000.parquet"))
    return d


def image_decode_features(sf_dir: str) -> pd.DataFrame:
    """Actor-pool image decode + feature extraction + thumbnail resize over
    a binary image column (rows-only; codecs are deterministic fakes)."""
    from ndap_data_validator_ray.stages.multimodal import ImageDecodeStage

    d = _images_dir()
    ds = ray.data.read_parquet(os.path.join(d, "part-00000.parquet"), columns=["img_id", "image"])
    out = ds.map_batches(
        ImageDecodeStage,
        fn_constructor_kwargs={"bytes_col": "image", "resize_to": (8, 8)},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    ).to_pandas()
    out = out[["img_id", "_img_ok", "_img_h", "_img_w", "_img_mean"]]
    out["_img_mean"] = np.round(out["_img_mean"].astype(float), 4)
    return out.sort_values("img_id").reset_index(drop=True)


def video_frame_samples(sf_dir: str) -> pd.DataFrame:
    """Actor-pool frame sampling: one output row per sampled frame
    (rows-only; flat-map-shaped stage over binary video blobs)."""
    from ndap_data_validator_ray.stages.multimodal import FrameSampleStage

    d = _images_dir()
    ds = ray.data.read_parquet(os.path.join(d, "part-00000.parquet"), columns=["img_id", "video"])
    out = ds.map_batches(
        FrameSampleStage,
        fn_constructor_kwargs={"bytes_col": "video", "id_col": "img_id", "stride": 5},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    ).to_pandas()
    return out[["img_id", "frame_idx"]].sort_values(["img_id", "frame_idx"]).reset_index(drop=True)




def revenue_by_priority_join(sf_dir: str) -> pd.DataFrame:
    """Large x large join: lineitem revenue joined to orders via the
    explicit bucketed hash join (stages/join.py), fact side pre-aggregated
    per order first so the join input is one row per key."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key
    from ndap_data_validator_ray.stages.join import bucketed_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return pa.table({"o_orderkey": batch["l_orderkey"], "revenue": rev})

    # materialize: the aggregated fact is one row per key (small), and the
    # join would otherwise execute the whole combiner twice (schema pass +
    # shuffle pass — see bucketed_join's performance contract)
    fact = sum_by_key(
        li.map_batches(revenue, batch_format="pyarrow"), ["o_orderkey"], ["revenue"]
    ).materialize()
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = bucketed_join(fact, orders, on=["o_orderkey"], how="inner")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("o_orderpriority", as_index=False).agg(revenue=("revenue", "sum"), n_orders=("revenue", "size"))
        return g

    # 5 groups -> <=5 partial rows per block: fold on the driver (the
    # low-cardinality rule; a groupby exchange here pays seconds of
    # machinery to move a few hundred rows — same conversion as tpch_q1).
    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("o_orderpriority", as_index=False)[["revenue", "n_orders"]].sum()
    out["revenue"] = _r2(out["revenue"])
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


_REVENUE_JOIN_SQL = """
SELECT o_orderpriority, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       COUNT(DISTINCT o_orderkey) AS n_orders
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""




def events_last_order_asof(sf_dir: str) -> pd.DataFrame:
    """As-of join (point-in-time lookup): for every event, the most recent
    order date <= the event's timestamp for the same key — the
    ordered-inequality join Ray Data lacks natively, via the bucketed
    merge_asof stage (stages/asof.py); oracled by DuckDB ASOF LEFT JOIN."""
    from ndap_data_validator_ray.stages.asof import bucketed_asof_join

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    joined = bucketed_asof_join(
        events, orders, on="ts", by="user_id", right_on="o_orderdate", right_by="o_custkey"
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        dates = pd.to_datetime(batch["o_orderdate"])
        # an event before every order of its user has no match: SQL NULL
        # (None), not the NaN that strftime gives for NaT
        last = dates.dt.strftime("%Y-%m-%d").astype(object).where(dates.notna(), None)
        return pd.DataFrame(
            {"event_id": batch["event_id"], "user_id": batch["user_id"], "last_order_date": last}
        )

    out = joined.map_batches(finish, batch_format="pandas").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


_ASOF_SQL = """
SELECT e.event_id, e.user_id, strftime(o.o_orderdate, '%Y-%m-%d') AS last_order_date
FROM events e ASOF LEFT JOIN orders o
  ON e.user_id = o.o_custkey AND e.ts >= CAST(o.o_orderdate AS TIMESTAMP)
ORDER BY event_id
"""


def early_shipments_range_join(sf_dir: str) -> pd.DataFrame:
    """Range (band) join: lineitems shipped within 30 days after their
    order's date, counted per order — the interval join expressed via
    stages/rangejoin.bucketed_range_join + a bucketed count; oracled by
    the equivalent SQL inequality join."""
    import pyarrow.compute as _pc

    from ndap_data_validator_ray.stages.groupby import count_by_key
    from ndap_data_validator_ray.stages.rangejoin import bucketed_range_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_shipdate"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def widen(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"]
        end = _pc.add(d, pa.scalar(30 * 86400 * 1_000_000, pa.duration("us")))
        return pa.table({"o_orderkey": t["o_orderkey"], "o_start": d, "o_end": end})

    joined = bucketed_range_join(
        li,
        orders.map_batches(widen, batch_format="pyarrow"),
        on="l_shipdate",
        by="l_orderkey",
        right_by="o_orderkey",
        right_start="o_start",
        right_end="o_end",
    )
    pairs = joined.map_batches(lambda b: b[["l_orderkey"]], batch_format="pandas")
    out = count_by_key(pairs, ["l_orderkey"], count_col="n_early_ship").to_pandas()
    return out.sort_values("l_orderkey").reset_index(drop=True)


_RANGE_JOIN_SQL = """
SELECT l_orderkey, COUNT(*) AS n_early_ship
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
 AND l_shipdate > o_orderdate AND l_shipdate <= o_orderdate + INTERVAL 30 DAY
GROUP BY 1 ORDER BY 1
"""


def drift_psi_quantity(sf_dir: str) -> pd.DataFrame:
    """Exact PSI between the two lineitem halves (parity split) — the
    oracled exact twin of the drift check's PSI (functions/sketches.psi);
    bins with a zero count in either half are excluded identically on
    both sides."""
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def hist(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        grp = (batch["l_orderkey"].to_numpy(zero_copy_only=False) % 2).astype(np.int64)
        out_g, out_q, out_c = [], [], []
        for g in (0, 1):
            counts = np.bincount(q[grp == g], minlength=51)
            nz = np.flatnonzero(counts)
            out_g.extend([g] * len(nz))
            out_q.extend(nz.tolist())
            out_c.extend(counts[nz].tolist())
        return pa.table(
            {"grp": pa.array(out_g, pa.int64()), "q": pa.array(out_q, pa.int64()), "c": pa.array(out_c, pa.int64())}
        )

    parts = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    pivot = parts.groupby(["grp", "q"])["c"].sum().unstack(fill_value=0)
    c0 = pivot.loc[0].to_numpy(dtype=np.float64)
    c1 = pivot.loc[1].to_numpy(dtype=np.float64)
    p = c0 / c0.sum()
    qq = c1 / c1.sum()
    mask = (c0 > 0) & (c1 > 0)
    psi = float(np.sum((p[mask] - qq[mask]) * np.log(p[mask] / qq[mask])))
    return pd.DataFrame({"psi": [float(np.round(psi, 6))]})


_DRIFT_PSI_SQL = """
WITH h AS (SELECT l_quantity AS q, l_orderkey % 2 AS grp, COUNT(*) AS c FROM lineitem GROUP BY 1, 2),
t AS (SELECT grp, SUM(c) AS tt FROM h GROUP BY 1),
p AS (SELECT q,
        SUM(CASE WHEN grp = 0 THEN c ELSE 0 END) AS c0,
        SUM(CASE WHEN grp = 1 THEN c ELSE 0 END) AS c1
      FROM h GROUP BY 1),
n AS (SELECT (SELECT CAST(tt AS DOUBLE) FROM t WHERE grp = 0) AS n0,
             (SELECT CAST(tt AS DOUBLE) FROM t WHERE grp = 1) AS n1)
SELECT ROUND(SUM((c0 / n0 - c1 / n1) * ln((c0 / n0) / (c1 / n1))), 6) AS psi
FROM p, n WHERE c0 > 0 AND c1 > 0
"""


def knn_embeddings_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF (inverted-file) approximate top-k: coarse k-means quantizer
    trained on a driver sample, centroids broadcast, nprobe-cell search
    (rows-only; the cluster-pruned ANN scale path).  Recall note: this
    fixture's embeddings are near-isotropic, the worst case for a coarse
    quantizer — a round-5 sweep measured mean recall ~0.7 at the default
    6/16 scan fraction and only ~0.76-0.86 even at 2-3x the scan (finer
    quantizers don't help when neighbors scatter across cells), so the
    recall floor stays at the honest 0.6; clustered corpora (the real
    IVF use case) do far better, and ``knn_embeddings_lsh`` (mean 0.98)
    is the high-recall ANN on this corpus."""
    from ndap_data_validator_ray.stages.similarity import ivf_topk

    qids, qmat = _query_vectors(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(ds, qids, qmat, k=10, n_clusters=16, nprobe=6, concurrency=2)[
        ["query_id", "neighbor_id", "rank"]
    ]


def drift_ks_quantity(sf_dir: str) -> pd.DataFrame:
    """Exact KS statistic between two halves of lineitem (split by
    l_orderkey parity) — the DuckDB-oracled exact twin of the drift
    check's t-digest KS (A12, state/baseline.py): distributed bincount
    partials per group -> exact CDFs -> max |F0 - F1| on the driver."""
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def hist(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        grp = (batch["l_orderkey"].to_numpy(zero_copy_only=False) % 2).astype(np.int64)
        out_g, out_q, out_c = [], [], []
        for g in (0, 1):
            counts = np.bincount(q[grp == g], minlength=51)
            nz = np.flatnonzero(counts)
            out_g.extend([g] * len(nz))
            out_q.extend(nz.tolist())
            out_c.extend(counts[nz].tolist())
        return pa.table(
            {"grp": pa.array(out_g, pa.int64()), "q": pa.array(out_q, pa.int64()), "c": pa.array(out_c, pa.int64())}
        )

    parts = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    pivot = parts.groupby(["grp", "q"])["c"].sum().unstack(fill_value=0)  # bounded domain: tiny
    domain = sorted(pivot.columns)
    f0 = np.cumsum([pivot.loc[0].get(q, 0) for q in domain]) / pivot.loc[0].sum()
    f1 = np.cumsum([pivot.loc[1].get(q, 0) for q in domain]) / pivot.loc[1].sum()
    return pd.DataFrame({"ks": [float(np.round(np.max(np.abs(f0 - f1)), 6))]})


_DRIFT_KS_SQL = """
WITH qs AS (SELECT DISTINCT l_quantity AS q FROM lineitem),
g0 AS (SELECT l_quantity AS q, COUNT(*) AS c FROM lineitem WHERE l_orderkey % 2 = 0 GROUP BY 1),
g1 AS (SELECT l_quantity AS q, COUNT(*) AS c FROM lineitem WHERE l_orderkey % 2 = 1 GROUP BY 1),
c0 AS (SELECT qs.q, SUM(COALESCE(g0.c, 0)) OVER (ORDER BY qs.q)
         / (SELECT CAST(SUM(c) AS DOUBLE) FROM g0) AS f FROM qs LEFT JOIN g0 ON qs.q = g0.q),
c1 AS (SELECT qs.q, SUM(COALESCE(g1.c, 0)) OVER (ORDER BY qs.q)
         / (SELECT CAST(SUM(c) AS DOUBLE) FROM g1) AS f FROM qs LEFT JOIN g1 ON qs.q = g1.q)
SELECT ROUND(MAX(ABS(c0.f - c1.f)), 6) AS ks FROM c0 JOIN c1 ON c0.q = c1.q
"""


def subword_token_counts(sf_dir: str) -> pd.DataFrame:
    """BPE-ish sub-word token counts (word/number/punct regex splitter),
    oracled via DuckDB ``regexp_extract_all`` with the same pattern."""
    from ndap_data_validator_ray.functions.text import bpe_ish_token_count

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": batch["doc_id"], "n_subword_tokens": bpe_ish_token_count(batch["text"])})

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def coerce_events_props(sf_dir: str) -> pd.DataFrame:
    """Dtype-coercion transform as a standalone operator (reference
    coerce_dataframe_to_selected_types): cast events columns to selected
    logical dtypes and count resulting nulls per column."""
    from ndap_data_validator_ray.pipelines.transform import coerce_table

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value", "props"])
    coerced = coerce_table(
        ds, {"event_id": "integer", "event_type": "category", "value": "float", "props": "string"}
    )

    def nulls(batch: pa.Table) -> pa.Table:
        return pa.table({c: pa.array([batch[c].null_count], pa.int64()) for c in batch.column_names})

    parts = coerced.map_batches(nulls, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({f"{c}_nulls": [int(parts[c].sum())] for c in parts.columns})




_BOOL_TOKEN_CYCLE = np.array(
    ["true", "T", " yes ", "Y", "1", "false", "No", "0", "", "maybe"], dtype=object
)


def coerce_bool_dates_events(sf_dir: str) -> pd.DataFrame:
    """Boolean + date coercion kernels (M4/M5, reference
    ``_coerce_to_boolean``/``_coerce_to_datetime`` validation.py:60-85)
    over deterministically derived string columns: token-table booleans
    (strip+lower) and date parsing with coerce-to-null, aggregated as
    additive per-batch partials."""
    from ndap_data_validator_ray.functions.coercion import coerce_boolean, coerce_datetime

    ds = _read(sf_dir, "events", columns=["event_id", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        tok = _BOOL_TOKEN_CYCLE[(batch["event_id"] % 10).to_numpy()]
        b, _ = coerce_boolean(pa.array(tok, pa.string()))
        bs = b.to_pandas()
        dmod = (batch["event_id"] % 5).to_numpy()
        dstr = batch["ts"].dt.strftime("%Y-%m-%d").where(pd.Series(dmod < 4, index=batch.index), "not-a-date")
        d, _ = coerce_datetime(pa.array(dstr.to_numpy(), pa.string()), date_only=True)
        dser = d.to_pandas()
        return pd.DataFrame(
            {
                "b_true": [int((bs == True).sum())],  # noqa: E712 - nullable bool
                "b_false": [int((bs == False).sum())],  # noqa: E712
                "b_nulls": [int(bs.isna().sum())],
                "d_nulls": [int(dser.isna().sum())],
                "d_min": [dser.min()],
                "d_max": [dser.max()],
            }
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame(
        {
            "b_true": [int(parts["b_true"].sum())],
            "b_false": [int(parts["b_false"].sum())],
            "b_nulls": [int(parts["b_nulls"].sum())],
            "d_nulls": [int(parts["d_nulls"].sum())],
            "d_min": [pd.to_datetime(parts["d_min"]).min().strftime("%Y-%m-%d")],
            "d_max": [pd.to_datetime(parts["d_max"]).max().strftime("%Y-%m-%d")],
        }
    )


_COERCE_BOOL_DATES_SQL = """
WITH derived AS (
  SELECT CASE event_id % 10
           WHEN 0 THEN 'true' WHEN 1 THEN 'T' WHEN 2 THEN ' yes ' WHEN 3 THEN 'Y'
           WHEN 4 THEN '1' WHEN 5 THEN 'false' WHEN 6 THEN 'No' WHEN 7 THEN '0'
           WHEN 8 THEN '' ELSE 'maybe' END AS tok,
         CASE WHEN event_id % 5 < 4 THEN strftime(ts, '%Y-%m-%d') ELSE 'not-a-date' END AS dstr
  FROM events
), coerced AS (
  SELECT CASE WHEN lower(trim(tok)) IN ('true','t','yes','y','1') THEN TRUE
              WHEN lower(trim(tok)) IN ('false','f','no','n','0') THEN FALSE
              ELSE NULL END AS b,
         TRY_CAST(dstr AS DATE) AS d
  FROM derived
)
SELECT CAST(SUM(CASE WHEN b THEN 1 ELSE 0 END) AS BIGINT) AS b_true,
       CAST(SUM(CASE WHEN NOT b THEN 1 ELSE 0 END) AS BIGINT) AS b_false,
       CAST(SUM(CASE WHEN b IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS b_nulls,
       CAST(SUM(CASE WHEN d IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS d_nulls,
       strftime(MIN(d), '%Y-%m-%d') AS d_min,
       strftime(MAX(d), '%Y-%m-%d') AS d_max
FROM coerced
"""


def infer_roles_lineitem(sf_dir: str) -> pd.DataFrame:
    """Schema-only role/dtype inference (reference guess_role_for_series /
    guess_datatype_option_for_series, validation.py:22-31,189-197): one row
    per column, no data scan (rows-only: engine-defined labels)."""
    from ndap_data_validator_ray.functions.coercion import guess_datatype_option, infer_dataset_roles

    ds = _read(sf_dir, "lineitem")
    roles = infer_dataset_roles(ds)
    sch = ds.schema().base_schema
    rows = [
        {
            "column": f.name,
            "role": roles[f.name][0],
            "measure_type": roles[f.name][1] or "",
            "datatype": guess_datatype_option(f.type),
        }
        for f in sch
    ]
    return pd.DataFrame(rows).sort_values("column").reset_index(drop=True)


# DESCRIBE-based twin of functions/coercion.guess_role + guess_datatype_option
# (reference validation.py:22-31,189-197): the same dtype/name-token CASE
# ladder over DuckDB's view of the identical parquet schema.
_INFER_ROLES_SQL = """
WITH cols AS (
  SELECT column_name AS "column", column_type AS dt FROM (DESCRIBE lineitem)
), c AS (
  SELECT "column", dt,
    (dt = 'DATE' OR dt LIKE 'TIMESTAMP%') AS is_temporal,
    (lower("column") LIKE '%date%' OR lower("column") LIKE '%time%'
     OR lower("column") LIKE '%year%' OR lower("column") LIKE '%month%') AS has_time_token,
    dt IN ('TINYINT','SMALLINT','INTEGER','BIGINT','HUGEINT',
           'UTINYINT','USMALLINT','UINTEGER','UBIGINT') AS is_int,
    dt IN ('FLOAT','REAL','DOUBLE') AS is_float
  FROM cols
)
SELECT "column",
  CASE WHEN is_temporal OR has_time_token THEN 'Time'
       WHEN is_int OR is_float THEN 'Measures'
       ELSE 'Others' END AS role,
  CASE WHEN is_temporal OR has_time_token THEN ''
       WHEN is_int THEN 'integer' WHEN is_float THEN 'float'
       ELSE '' END AS measure_type,
  CASE WHEN dt = 'BOOLEAN' THEN 'boolean'
       WHEN is_int THEN 'integer' WHEN is_float THEN 'float'
       WHEN is_temporal THEN 'datetime'
       ELSE 'string' END AS datatype
FROM c ORDER BY "column"
"""


def time_format_events(sf_dir: str) -> pd.DataFrame:
    """Time-format kernel (M8, the 6 reference patterns) over a derived
    period-string column: per-format counts + invalid count, computed with
    the vectorized regex kernel and checked against DuckDB regexes."""
    from ndap_data_validator_ray.functions import timefmt

    ds = _read(sf_dir, "events", columns=["event_id", "ts"])

    def derive_and_hist(batch: pd.DataFrame) -> pd.DataFrame:
        # deterministic mix of valid/invalid period spellings
        year = batch["ts"].dt.strftime("%Y")
        mon = batch["ts"].dt.strftime("%b-%Y")
        mod = (batch["event_id"] % 10).to_numpy()
        period = year.where(mod < 6, mon)
        period = period.mask(mod == 9, "period-" + batch["event_id"].astype(str))
        hist = timefmt.batch_histogram(pa.array(period.tolist(), pa.string()))
        cols = {"n_invalid": [int(hist[0])]}
        for k, (label, _p, _i) in enumerate(timefmt.TIME_PATTERNS):
            cols[f"n_fmt{k}"] = [int(hist[1 + k])]
        return pd.DataFrame(cols)

    parts = ds.map_batches(derive_and_hist, batch_format="pandas").to_pandas()
    return pd.DataFrame({c: [int(parts[c].sum())] for c in parts.columns})


_TIME_FORMAT_SQL = r"""
WITH derived AS (
  SELECT CASE
           WHEN event_id % 10 = 9 THEN 'period-' || CAST(event_id AS VARCHAR)
           WHEN event_id % 10 < 6 THEN strftime(ts, '%Y')
           ELSE strftime(ts, '%b-%Y')
         END AS period
  FROM events
)
SELECT
  CAST(SUM(CASE WHEN NOT (
        regexp_matches(trim(period), '^\d{4}$')
        OR regexp_matches(trim(period), '^\d{4}-\d{2}$')
        OR regexp_matches(trim(period), '^(?i)(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)-\d{4}$')
        OR regexp_matches(trim(period), '^(?i)(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)-(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec),\s*\d{4}$')
        OR regexp_matches(trim(period), '^(?i)(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) - (?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec),\s*\d{4}$')
        OR regexp_matches(trim(period), '^(?i)(?:0?[1-9]|[12][0-9]|3[01])-(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)-\d{4}$')
      ) THEN 1 ELSE 0 END) AS BIGINT) AS n_invalid,
  CAST(SUM(CASE WHEN regexp_matches(trim(period), '^\d{4}$') THEN 1 ELSE 0 END) AS BIGINT) AS n_fmt0,
  CAST(SUM(CASE WHEN NOT regexp_matches(trim(period), '^\d{4}$')
            AND regexp_matches(trim(period), '^\d{4}-\d{2}$') THEN 1 ELSE 0 END) AS BIGINT) AS n_fmt1,
  CAST(SUM(CASE WHEN regexp_matches(trim(period), '^(?i)(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)-\d{4}$') THEN 1 ELSE 0 END) AS BIGINT) AS n_fmt2,
  CAST(SUM(CASE WHEN regexp_matches(trim(period), '^(?i)(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)-(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec),\s*\d{4}$') THEN 1 ELSE 0 END) AS BIGINT) AS n_fmt3,
  CAST(SUM(CASE WHEN regexp_matches(trim(period), '^(?i)(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) - (?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec),\s*\d{4}$') THEN 1 ELSE 0 END) AS BIGINT) AS n_fmt4,
  CAST(SUM(CASE WHEN NOT regexp_matches(trim(period), '^(?i)(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)-\d{4}$')
            AND regexp_matches(trim(period), '^(?i)(?:0?[1-9]|[12][0-9]|3[01])-(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)-\d{4}$') THEN 1 ELSE 0 END) AS BIGINT) AS n_fmt5
FROM derived
"""




def supplier_stats_by_nation(sf_dir: str) -> pd.DataFrame:
    """Supplier account-balance stats per nation (Arrow-native broadcast
    dim join — stages/broadcast.ArrowLookup)."""
    from ndap_data_validator_ray.stages.broadcast import attach_lookup

    nat = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    lookup = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    out = (
        attach_lookup(
            _read(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"]),
            lookup,
            "s_nationkey",
            "n_name",
            keep=["n_name", "s_acctbal"],
        )
        .groupby("n_name")
        .aggregate(
            Count(alias_name="n_suppliers"),
            Sum("s_acctbal", alias_name="sum_acctbal"),
            Min("s_acctbal", alias_name="min_acctbal"),
            Max("s_acctbal", alias_name="max_acctbal"),
        )
        .to_pandas()
    )
    out["sum_acctbal"] = _r2(out["sum_acctbal"])
    return out


_SUPPLIER_STATS_SQL = """
SELECT n_name, COUNT(*) AS n_suppliers, ROUND(SUM(s_acctbal), 2) AS sum_acctbal,
       MIN(s_acctbal) AS min_acctbal, MAX(s_acctbal) AS max_acctbal
FROM supplier JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name
"""


def customers_by_region(sf_dir: str) -> pd.DataFrame:
    """Two-level dimension chain (region <- nation <- customer) collapsed
    into one broadcast lookup: a star-schema rollup with no shuffle of the
    fact side beyond the tiny groupby."""
    from ndap_data_validator_ray.stages.broadcast import attach_lookup

    region = _read(sf_dir, "region", columns=["r_regionkey", "r_name"]).to_pandas()
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"]).to_pandas()
    n_to_region = {
        int(nk): region.set_index("r_regionkey")["r_name"].get(int(rk))
        for nk, rk in zip(nation["n_nationkey"], nation["n_regionkey"])
    }
    return (
        attach_lookup(
            _read(sf_dir, "customer", columns=["c_nationkey"]), n_to_region, "c_nationkey", "r_name", keep=["r_name"]
        )
        .groupby("r_name")
        .aggregate(Count(alias_name="n_customers"))
        .to_pandas()
    )


_CUST_BY_REGION_SQL = """
SELECT r_name, COUNT(*) AS n_customers
FROM customer JOIN nation ON c_nationkey = n_nationkey JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""




def events_props_json(sf_dir: str) -> pd.DataFrame:
    """JSON scalar extraction (reference uses json loads for rules/state,
    SURVEY §2.9): parse the ``props`` JSON column per batch, aggregate the
    extracted field per event_type."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(batch: pd.DataFrame) -> pd.DataFrame:
        import json as _json

        ks = batch["props"].map(lambda v: _json.loads(v).get("k") if v else None)
        g = pd.DataFrame({"event_type": batch["event_type"], "k": ks}).groupby(
            "event_type", as_index=False
        ).agg(sum_k=("k", "sum"), n=("k", "size"))
        return g

    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    def merge(p: pd.DataFrame) -> pd.DataFrame:
        return p.groupby("event_type", as_index=False).sum()

    out = bucketed_groupby(ds, ["event_type"], extract, merge, n_buckets=8).to_pandas()
    out["sum_k"] = out["sum_k"].astype("int64")
    return out[["event_type", "sum_k", "n"]]


_PROPS_JSON_SQL = """
SELECT event_type, CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       COUNT(*) AS n
FROM events GROUP BY event_type
"""


def quantity_percentiles(sf_dir: str) -> pd.DataFrame:
    """Exact percentiles of a bounded discrete column via a distributed
    counts histogram (the exact twin of the t-digest path): per-batch
    bincount partials -> driver interpolation identical to SQL
    quantile_cont."""
    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])

    def hist(batch: pa.Table) -> pa.Table:
        v = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.bincount(v, minlength=51)
        return pa.table({"q": pa.array(np.arange(len(counts)), pa.int64()), "cnt": pa.array(counts, pa.int64())})

    parts = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    counts = parts.groupby("q")["cnt"].sum().sort_index()
    values = np.repeat(counts.index.to_numpy(dtype=np.float64), counts.to_numpy())  # bounded domain: tiny
    out = {}
    for name, q in (("p25", 0.25), ("p50", 0.5), ("p75", 0.75), ("p90", 0.9), ("p99", 0.99)):
        out[name] = [float(np.round(np.quantile(values, q), 6))]
    return pd.DataFrame(out)


_QUANTITY_PCT_SQL = """
SELECT ROUND(quantile_cont(l_quantity, 0.25), 6) AS p25,
       ROUND(quantile_cont(l_quantity, 0.5), 6) AS p50,
       ROUND(quantile_cont(l_quantity, 0.75), 6) AS p75,
       ROUND(quantile_cont(l_quantity, 0.9), 6) AS p90,
       ROUND(quantile_cont(l_quantity, 0.99), 6) AS p99
FROM lineitem
"""


# ---------------------------------------------------------------------------
# Window functions (stages/window.py): ROW_NUMBER / cumulative / LAG / LEAD /
# rank / rolling frames OVER (PARTITION BY .. ORDER BY ..)
# ---------------------------------------------------------------------------

def orders_running_total(sf_dir: str) -> pd.DataFrame:
    """Per-customer ordered window: row number, running revenue total and
    previous order key over (PARTITION BY o_custkey ORDER BY o_orderdate,
    o_orderkey) — the partitioned window operator Ray Data lacks natively
    (``stages/window.py``; partitioning assumption documented there)."""
    from ndap_data_validator_ray.stages.window import WindowSpec, partitioned_window

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])
    out = partitioned_window(
        ds,
        partition_by=["o_custkey"],
        order_by=["o_orderdate", "o_orderkey"],
        specs=[
            WindowSpec("row_number", out="rn"),
            WindowSpec("cumsum", col="o_totalprice", out="running_total"),
            WindowSpec("lag", col="o_orderkey", out="prev_orderkey"),
        ],
    ).to_pandas()
    # running totals are prefix sums of 2-decimal money values computed in
    # the same ROWS UNBOUNDED PRECEDING order on both sides; round-2 per
    # module convention
    out["running_total"] = _r2(out["running_total"])
    return (
        out[["o_custkey", "o_orderkey", "rn", "running_total", "prev_orderkey"]]
        .sort_values(["o_custkey", "o_orderkey"])
        .reset_index(drop=True)
    )


_RUNNING_TOTAL_SQL = """
SELECT o_custkey, o_orderkey,
       ROW_NUMBER() OVER w AS rn,
       ROUND(SUM(o_totalprice) OVER (PARTITION BY o_custkey
             ORDER BY o_orderdate, o_orderkey ROWS UNBOUNDED PRECEDING), 2) AS running_total,
       LAG(o_orderkey) OVER w AS prev_orderkey
FROM orders
WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
ORDER BY o_custkey, o_orderkey
"""


def events_rolling_stats(sf_dir: str) -> pd.DataFrame:
    """Per-user time-ordered frames: 3-row rolling value sum, event rank by
    timestamp, and the next event id (LEAD) — frame-bounded + ranking specs
    of ``stages/window.py`` (no (user_id, ts) ties in the synth data, so
    ts alone orders deterministically)."""
    from ndap_data_validator_ray.stages.window import WindowSpec, partitioned_window

    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts", "value"])
    out = partitioned_window(
        ds,
        partition_by=["user_id"],
        order_by=["ts"],
        specs=[
            WindowSpec("rolling_sum", col="value", out="value_sum_3", n=3),
            WindowSpec("rank", out="ts_rank"),
            WindowSpec("lead", col="event_id", out="next_event"),
        ],
    ).to_pandas()
    out["value_sum_3"] = _r6(out["value_sum_3"])
    return (
        out[["user_id", "event_id", "ts_rank", "value_sum_3", "next_event"]]
        .sort_values(["user_id", "event_id"])
        .reset_index(drop=True)
    )


_ROLLING_SQL = """
SELECT user_id, event_id,
       RANK() OVER w AS ts_rank,
       ROUND(SUM(value) OVER (PARTITION BY user_id ORDER BY ts
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS value_sum_3,
       LEAD(event_id) OVER w AS next_event
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts)
ORDER BY user_id, event_id
"""


# ---------------------------------------------------------------------------
# Pivot / crosstab: long -> wide with mergeable per-batch partials
# ---------------------------------------------------------------------------

_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def events_pivot_by_type(sf_dir: str) -> pd.DataFrame:
    """Daily event crosstab (one column per event type + value total) —
    pivot expressed as per-batch partial crosstabs summed per day, so the
    shuffle carries one row per (batch, day), never per event."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    n_cols = [f"n_{t}" for t in _EVENT_TYPES]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch["day"] = batch["ts"].dt.strftime("%Y-%m-%d")
        ct = pd.crosstab(batch["day"], batch["event_type"])
        ct = ct.reindex(columns=_EVENT_TYPES, fill_value=0).astype("int64")
        ct.columns = n_cols
        ct["total_value"] = batch.groupby("day")["value"].sum()
        return ct.reset_index()

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("day", as_index=False).sum()

    out = bucketed_groupby(ds, ["day"], partial, merge).to_pandas()
    out["total_value"] = _r2(out["total_value"])
    return out.sort_values("day").reset_index(drop=True)[["day"] + n_cols + ["total_value"]]


_PIVOT_SQL = """
SELECT strftime(ts, '%Y-%m-%d') AS day,
       {cases},
       ROUND(SUM(value), 2) AS total_value
FROM events GROUP BY day ORDER BY day
""".format(
    cases=", ".join(
        f"CAST(SUM(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END) AS BIGINT) AS n_{t}"
        for t in _EVENT_TYPES
    )
)


def orders_collected_by_customer(sf_dir: str) -> pd.DataFrame:
    """Collect / group-concat aggregation (SQL ``string_agg(... ORDER
    BY)``): per-batch partials carry each key's SORTED id list, the
    reducer merges partial lists and emits one ordered string per key —
    mergeable like every other bucketed aggregate (list concat + sort is
    commutative on multisets).  Output size is O(group size) by the
    operator's own semantics; cap upstream if a key can be unbounded."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("o_custkey")["o_orderkey"]
        sizes = g.size()
        return pd.DataFrame(
            {
                "o_custkey": sizes.index.to_numpy(),
                "_ids": g.apply(lambda s: np.sort(s.to_numpy())).to_numpy(),
                "_n": sizes.to_numpy().astype(np.int64),
            }
        )

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("o_custkey")
        ids = g["_ids"].apply(lambda lists: np.sort(np.concatenate(list(lists))))
        return pd.DataFrame(
            {
                "o_custkey": ids.index,
                "order_keys": [",".join(map(str, a)) for a in ids.to_numpy()],
                "n_orders": g["_n"].sum().to_numpy().astype(np.int64),
            }
        )

    out = bucketed_groupby(ds, ["o_custkey"], partial, merge, n_buckets=16).to_pandas()
    return out.sort_values("o_custkey").reset_index(drop=True)


_COLLECT_SQL = """
SELECT o_custkey, string_agg(o_orderkey, ',' ORDER BY o_orderkey) AS order_keys,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders GROUP BY o_custkey ORDER BY o_custkey
"""


def clean_text_documents(sf_dir: str) -> pd.DataFrame:
    """Text normalization (the cleaning step ahead of dedup/tokenization):
    lowercase, strip non-alphanumerics, collapse whitespace — one
    vectorized regex pass per batch, no shuffle.  Character classes are
    spelled out as explicit ASCII sets on BOTH sides because Python's
    ``\\w``/``\\s`` are Unicode-aware while DuckDB's RE2 classes are
    ASCII — the one way these twins could silently drift."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["text"].fillna("").str.lower()
        s = s.str.replace(r"[^a-z0-9 \t\n\r]", " ", regex=True)
        s = s.str.replace(r"[ \t\n\r]+", " ", regex=True).str.strip()
        n = s.str.split(" ").str.len().where(s.str.len() > 0, 0).astype(np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"], "clean_text": s, "n_tokens": n})

    return (
        ds.map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


_CLEAN_TEXT_SQL = r"""
WITH c AS (
  SELECT doc_id,
    trim(regexp_replace(regexp_replace(lower(COALESCE(text,'')), '[^a-z0-9 \t\n\r]', ' ', 'g'), '[ \t\n\r]+', ' ', 'g')) AS clean_text
  FROM documents)
SELECT doc_id, clean_text,
  CAST(CASE WHEN length(clean_text) = 0 THEN 0 ELSE array_length(string_split(clean_text, ' ')) END AS BIGINT) AS n_tokens
FROM c ORDER BY doc_id
"""


def orders_price_ntiles(sf_dir: str) -> pd.DataFrame:
    """Distribution-rank window functions (PERCENT_RANK / CUME_DIST /
    NTILE(4)) over orders within each priority — same hash-partitioned
    reducer layout as the other window queries; NTILE follows SQL's
    first-(m % n)-tiles-get-ceil(m/n) assignment exactly."""
    from ndap_data_validator_ray.stages.window import WindowSpec, partitioned_window

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"])
    win = partitioned_window(
        ds,
        partition_by=["o_orderpriority"],
        order_by=["o_totalprice", "o_orderkey"],
        specs=[
            WindowSpec(kind="percent_rank", out="pr"),
            WindowSpec(kind="cume_dist", out="cd"),
            WindowSpec(kind="ntile", out="nt", n=4),
        ],
    )
    out = win.to_pandas()
    out["pr"] = _r6(out["pr"])
    out["cd"] = _r6(out["cd"])
    return (
        out.sort_values("o_orderkey")
        .reset_index(drop=True)[["o_orderkey", "o_orderpriority", "nt", "pr", "cd"]]
        .astype({"nt": np.int64})
    )


_NTILES_SQL = """
SELECT o_orderkey, o_orderpriority,
       CAST(ntile(4) OVER w AS BIGINT) AS nt,
       ROUND(percent_rank() OVER w, 6) AS pr,
       ROUND(cume_dist() OVER w, 6) AS cd
FROM orders WINDOW w AS (PARTITION BY o_orderpriority ORDER BY o_totalprice, o_orderkey)
ORDER BY o_orderkey
"""


def dedup_hashed_documents(sf_dir: str) -> pd.DataFrame:
    """Exact dedup via the 100 TB hash-shuffle path
    (``exact_dedup_counts_hashed``): the exchange carries (content_hash,
    doc_id) pairs only — document text never rides the shuffle — and
    multi-member hashes are verified against true content in a bounded
    second pass.  Same groups as ``dedup_exact_documents``, proven by the
    shared oracle."""
    from ndap_data_validator_ray.stages.dedup import exact_dedup_counts_hashed

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = exact_dedup_counts_hashed(ds, ["text"], "doc_id").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": np.int64, "n_copies": np.int64}
    )


_DEDUP_HASHED_SQL = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id, CAST(COUNT(*) AS BIGINT) AS n_copies
FROM documents GROUP BY text ORDER BY doc_id
"""


def tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """Top TF-IDF term per document — the keyword-extraction step of a
    training-data pipeline.  Distributed shape: (1) per-batch (doc, term,
    tf) explode (each row is a whole doc, so tf never crosses batches);
    (2) document frequencies via one bucketed count over those pairs;
    (3) df map broadcast once (``ray.put``), second streaming pass scores
    and takes each doc's argmax locally — no per-doc shuffle at all.
    Tie-break: higher score, then lexicographic term, on the UNROUNDED
    score (bit-identical product in both engines, so ties agree)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()

    def doc_terms(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall("[a-z]{2,}")
        lens = toks.str.len().to_numpy()
        pairs = pd.DataFrame(
            {
                "doc_id": np.repeat(batch["doc_id"].to_numpy(), lens),
                "term": np.concatenate([t for t in toks.to_numpy()] or [[]]),
            }
        )
        return pairs.groupby(["doc_id", "term"], as_index=False).size().rename(columns={"size": "tf"})

    from ndap_data_validator_ray.stages.groupby import count_by_key

    # document frequency: doc_terms emits one row per (doc, term), so a
    # row count per term IS the distinct-doc count
    df_tbl = count_by_key(
        ds.map_batches(doc_terms, batch_format="pandas"), ["term"], count_col="df"
    ).to_pandas()
    df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["df"])))

    def score_top(batch: pd.DataFrame) -> pd.DataFrame:
        g = doc_terms(batch)
        if g.empty:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype=np.int64), "term": pd.Series([], dtype=object),
                 "tf": pd.Series([], dtype=np.int64), "score": pd.Series([], dtype=np.float64)}
            )
        dfm = ray.get(df_ref)
        g["score_raw"] = g["tf"].to_numpy() * np.log(n_docs / g["term"].map(dfm).to_numpy())
        g = g.sort_values(["doc_id", "score_raw", "term"], ascending=[True, False, True], kind="stable")
        top = g.groupby("doc_id", as_index=False).first()
        top["score"] = np.round(top["score_raw"], 6)
        return top[["doc_id", "term", "tf", "score"]]

    out = ds.map_batches(score_top, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_TFIDF_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(COALESCE(text,'')), '[a-z]{2,}')) AS term
  FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY term),
n AS (SELECT COUNT(*) AS n_docs FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term, tf.tf,
         ROUND(tf.tf * ln(n.n_docs / df.df), 6) AS score,
         ROW_NUMBER() OVER (PARTITION BY tf.doc_id ORDER BY tf.tf * ln(n.n_docs / df.df) DESC, tf.term) AS rk
  FROM tf JOIN df USING (term) CROSS JOIN n)
SELECT doc_id, term, tf, score FROM scored WHERE rk = 1 ORDER BY doc_id
"""


def _quantile_from_counts(values: np.ndarray, counts: np.ndarray, q: float) -> float:
    """Exact quantile (SQL ``quantile_cont`` / numpy linear interpolation)
    from a (sorted distinct values, counts) histogram — never expands the
    histogram back to rows."""
    n = int(counts.sum())
    if n == 0:
        return float("nan")
    h = (n - 1) * q
    lo_i = int(np.floor(h))
    cum = np.cumsum(counts)
    lo = values[np.searchsorted(cum, lo_i + 1)]
    hi = values[np.searchsorted(cum, min(lo_i + 1, n - 1) + 1)]
    return float(lo + (h - lo_i) * (hi - lo))


def quantiles_by_returnflag(sf_dir: str) -> pd.DataFrame:
    """Per-group EXACT quantiles over a discrete numeric domain
    (l_quantity in 1..50) via mergeable histogram partials: each batch
    emits (group, value, cnt) rows — at most groups x |domain| per batch —
    and the driver interpolates ``quantile_cont`` order stats from the
    merged counts.  The scale shape for exact quantiles when the value
    domain is bounded (t-digest remains the unbounded-domain path,
    ``quantity_percentiles``)."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["l_returnflag", "l_quantity"], as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    hist = sum_by_key(
        ds.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "l_quantity"],
        ["cnt"],
        n_buckets=8,
    ).to_pandas()

    rows = []
    for flag, grp in hist.groupby("l_returnflag"):
        grp = grp.sort_values("l_quantity")
        v, c = grp["l_quantity"].to_numpy(), grp["cnt"].to_numpy()
        rows.append(
            {
                "l_returnflag": flag,
                "q25": round(_quantile_from_counts(v, c, 0.25), 6),
                "q50": round(_quantile_from_counts(v, c, 0.50), 6),
                "q75": round(_quantile_from_counts(v, c, 0.75), 6),
            }
        )
    return pd.DataFrame(rows).sort_values("l_returnflag").reset_index(drop=True)


_QUANTILES_BY_FLAG_SQL = """
SELECT l_returnflag,
       ROUND(quantile_cont(l_quantity, 0.25), 6) AS q25,
       ROUND(quantile_cont(l_quantity, 0.50), 6) AS q50,
       ROUND(quantile_cont(l_quantity, 0.75), 6) AS q75
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def stratified_sample_orders(sf_dir: str) -> pd.DataFrame:
    """Deterministic key-hash sampling (the reproducible alternative to
    ``Dataset.random_sample``): keep orders with ``o_orderkey % 20 == 3``
    (an exact 5% rate per key domain), then per-stratum aggregates.  The
    sample predicate is a pure batch filter — no shuffle, no driver state,
    and reruns/resumes pick the identical rows (checkpoint-safe, unlike
    RNG sampling)."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"])

    def sample_partial(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[batch["o_orderkey"] % 20 == 3]
        g = s.groupby("o_orderpriority", as_index=False).agg(
            n_sampled=("o_orderkey", "size"), sum_price=("o_totalprice", "sum")
        )
        g["n_sampled"] = g["n_sampled"].astype(np.int64)
        return g

    # 5 strata: partials are <=5 rows per block — driver fold, no shuffle
    out = (
        ds.map_batches(sample_partial, batch_format="pandas")
        .to_pandas()
        .groupby("o_orderpriority", as_index=False)[["n_sampled", "sum_price"]]
        .sum()
    )
    out["sum_price"] = _r2(out["sum_price"])
    return out.sort_values("o_orderpriority").reset_index(drop=True)[
        ["o_orderpriority", "n_sampled", "sum_price"]
    ]


_STRATIFIED_SQL = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_sampled,
       ROUND(SUM(o_totalprice), 2) AS sum_price
FROM orders WHERE o_orderkey % 20 = 3
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def chunk_documents(sf_dir: str) -> pd.DataFrame:
    """Sliding-window text chunking (size 200, stride 150) — the standard
    training-data prep step before tokenization/embedding.  Row-expanding
    map (flat_map semantics) done vectorized: one ``str.slice`` pass per
    chunk INDEX (bounded by the longest doc), never a per-row loop; each
    batch explodes independently so the stage streams at any scale."""
    size, stride = 200, 150
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        txt = batch["text"].fillna("")
        ln = txt.str.len().to_numpy(dtype=np.int64)
        n = np.where(ln <= size, 1, np.ceil((ln - size) / stride).astype(np.int64) + 1)
        frames = []
        for k in range(int(n.max()) if len(n) else 0):
            m = n > k
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": batch["doc_id"].to_numpy()[m],
                        "chunk_id": np.int64(k),
                        "chunk": txt[m].str.slice(k * stride, k * stride + size).to_numpy(),
                    }
                )
            )
        if not frames:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "chunk_id": pd.Series([], dtype=np.int64),
                                 "chunk": pd.Series([], dtype=object)})
        return pd.concat(frames, ignore_index=True)

    out = ds.map_batches(explode, batch_format="pandas").to_pandas()
    return out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


_CHUNK_SQL = """
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
       substr(txt, CAST(chunk_id * 150 + 1 AS BIGINT), 200) AS chunk
FROM (
  SELECT doc_id, COALESCE(text, '') AS txt,
         unnest(range(0, CASE WHEN length(COALESCE(text, '')) <= 200 THEN 1
                 ELSE CAST(ceil((length(COALESCE(text, '')) - 200) / 150.0) AS BIGINT) + 1 END)) AS chunk_id
  FROM documents) s
ORDER BY doc_id, chunk_id
"""


def top_parts_per_brand(sf_dir: str) -> pd.DataFrame:
    """Per-group top-k (top-3 parts by retail price within each brand) via
    the partitioned window stage: rank inside the brand's reducer, filter
    rank <= k — never a global sort, and each brand's rows stay whole on
    one reducer (the window contract).  DESC ordering is expressed by
    ranking on the negated price (the stage sorts ascending)."""
    from ndap_data_validator_ray.stages.window import WindowSpec, partitioned_window

    ds = _read(sf_dir, "part", columns=["p_brand", "p_partkey", "p_retailprice"])

    def neg(batch: pd.DataFrame) -> pd.DataFrame:
        batch["_neg_price"] = -batch["p_retailprice"]
        return batch

    win = partitioned_window(
        ds.map_batches(neg, batch_format="pandas"),
        partition_by=["p_brand"],
        order_by=["_neg_price", "p_partkey"],
        specs=[WindowSpec(kind="row_number", out="rk")],
    )
    out = win.filter(lambda r: r["rk"] <= 3).to_pandas()
    out["rk"] = out["rk"].astype(np.int64)
    return (
        out.drop(columns=["_neg_price"])
        .sort_values(["p_brand", "rk"])
        .reset_index(drop=True)[["p_brand", "p_partkey", "p_retailprice", "rk"]]
    )


_TOP_PER_BRAND_SQL = """
SELECT p_brand, p_partkey, p_retailprice, rk FROM (
  SELECT p_brand, p_partkey, p_retailprice,
         CAST(ROW_NUMBER() OVER (PARTITION BY p_brand ORDER BY p_retailprice DESC, p_partkey) AS BIGINT) AS rk
  FROM part) t WHERE rk <= 3 ORDER BY p_brand, rk
"""


def heavy_hitter_parts(sf_dir: str) -> pd.DataFrame:
    """Frequency heavy hitters: all part keys on >= 40 lineitems, via a
    Count-Min candidate filter + exact verify (stages/heavy.py) — the
    sketch prunes the shuffle to candidate keys only; the emitted counts
    are exact, so the oracle is plain GROUP BY .. HAVING."""
    from ndap_data_validator_ray.stages.heavy import heavy_hitters

    ds = _read(sf_dir, "lineitem", columns=["l_partkey"])
    out = heavy_hitters(ds, "l_partkey", threshold=40, count_col="n_lines").to_pandas()
    return out.sort_values("l_partkey").reset_index(drop=True).astype({"n_lines": np.int64})


_HEAVY_HITTERS_SQL = """
SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem GROUP BY l_partkey HAVING COUNT(*) >= 40 ORDER BY l_partkey
"""


def revenue_rollup(sf_dir: str) -> pd.DataFrame:
    """ROLLUP(l_returnflag, l_linestatus) totals: the detail level comes
    from one bucketed combiner pass; both subtotal levels are folded from
    the TINY detail aggregate at the driver (never a second data pass) —
    the scale shape for grouping-set aggregates when the detail
    cardinality is small."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_extendedprice"])

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={"l_extendedprice": "revenue"})

    detail = sum_by_key(
        ds.map_batches(pre, batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        ["revenue"],
        n_buckets=8,
    ).to_pandas()
    lvl1 = detail.groupby("l_returnflag", as_index=False)["revenue"].sum()
    lvl1["l_linestatus"] = None
    total = pd.DataFrame(
        {"l_returnflag": [None], "l_linestatus": [None], "revenue": [detail["revenue"].sum()]}
    )
    out = pd.concat([detail, lvl1, total], ignore_index=True)
    out["revenue"] = _r2(out["revenue"])
    return (
        out[["l_returnflag", "l_linestatus", "revenue"]]
        .sort_values(["l_returnflag", "l_linestatus"], na_position="last")
        .reset_index(drop=True)
    )


_ROLLUP_SQL = """
SELECT l_returnflag, l_linestatus, ROUND(SUM(l_extendedprice), 2) AS revenue
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
ORDER BY l_returnflag NULLS LAST, l_linestatus NULLS LAST
"""


# ---------------------------------------------------------------------------
# Filtering / full-outer joins and set operations (round 3)
# ---------------------------------------------------------------------------

def customers_with_urgent_orders(sf_dir: str) -> pd.DataFrame:
    """Semi join (SQL EXISTS): customers with at least one URGENT order,
    via the bucketed hash join's filtering variant — left multiplicity
    kept, right side reduced to distinct keys inside each bucket, no right
    columns shipped past the reducer."""
    from ndap_data_validator_ray.stages.join import bucketed_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])

    def urgent_keys(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.equal(batch["o_orderpriority"], "1-URGENT"))
        return pa.table({"c_custkey": kept["o_custkey"]})

    out = bucketed_join(
        cust, orders.map_batches(urgent_keys, batch_format="pyarrow"), on=["c_custkey"], how="semi"
    ).to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


_CUST_WITH_URGENT_SQL = """
SELECT c_custkey, c_name FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT')
ORDER BY c_custkey
"""


def user_customer_full_outer(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER join of two aggregates: per-user event counts vs
    per-customer order counts on the shared key — both sides pre-reduced
    with the bucketed combiner so the outer join exchanges one row per
    key, and unmatched keys from EITHER side survive with a 0 count."""
    from ndap_data_validator_ray.stages.groupby import count_by_key
    from ndap_data_validator_ray.stages.join import bucketed_join

    ev = _read(sf_dir, "events", columns=["user_id"]).map_batches(
        lambda b: pa.table({"k": b["user_id"]}), batch_format="pyarrow"
    )
    cu = _read(sf_dir, "orders", columns=["o_custkey"]).map_batches(
        lambda b: pa.table({"k": b["o_custkey"]}), batch_format="pyarrow"
    )
    # both sides are aggregates (one row per key): materialize so the
    # outer join's schema pass doesn't execute each combiner twice
    left = count_by_key(ev, ["k"], count_col="n_events").materialize()
    right = count_by_key(cu, ["k"], count_col="n_orders").materialize()
    out = bucketed_join(left, right, on=["k"], how="outer").to_pandas()
    out["n_events"] = out["n_events"].fillna(0).astype(np.int64)
    out["n_orders"] = out["n_orders"].fillna(0).astype(np.int64)
    return out.sort_values("k").reset_index(drop=True)[["k", "n_events", "n_orders"]]


_FULL_OUTER_SQL = """
WITH e AS (SELECT user_id AS k, CAST(COUNT(*) AS BIGINT) AS n_events FROM events GROUP BY user_id),
     o AS (SELECT o_custkey AS k, CAST(COUNT(*) AS BIGINT) AS n_orders FROM orders GROUP BY o_custkey)
SELECT COALESCE(e.k, o.k) AS k,
       COALESCE(n_events, 0) AS n_events,
       COALESCE(n_orders, 0) AS n_orders
FROM e FULL OUTER JOIN o ON e.k = o.k ORDER BY k
"""


def event_users_customers_setops(sf_dir: str) -> pd.DataFrame:
    """Distinct-key set operations (INTERSECT / EXCEPT both ways) in ONE
    bucketed pass: each side emits (key, has_e, has_c) presence partials,
    the bucket reducer ORs presence per key and counts the three classes,
    and the driver folds one tiny row per bucket."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ev = _read(sf_dir, "events", columns=["user_id"]).map_batches(
        lambda b: pd.DataFrame({"k": b["user_id"].unique(), "has_e": 1, "has_c": 0}),
        batch_format="pandas",
    )
    cu = _read(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        lambda b: pd.DataFrame({"k": b["c_custkey"].unique(), "has_e": 0, "has_c": 1}),
        batch_format="pandas",
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("k", as_index=False)[["has_e", "has_c"]].max()

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        per_key = part.groupby("k")[["has_e", "has_c"]].max()
        both = int((per_key["has_e"] & per_key["has_c"]).sum())
        e_only = int((per_key["has_e"] & ~per_key["has_c"].astype(bool)).sum())
        c_only = int((per_key["has_c"] & ~per_key["has_e"].astype(bool)).sum())
        return pd.DataFrame(
            {"n_intersect": [both], "n_events_only": [e_only], "n_customers_only": [c_only]}
        )

    parts = bucketed_groupby(ev.union(cu), ["k"], partial, merge, n_buckets=16).to_pandas()
    return pd.DataFrame(
        {
            "n_intersect": [np.int64(parts["n_intersect"].sum())],
            "n_events_only": [np.int64(parts["n_events_only"].sum())],
            "n_customers_only": [np.int64(parts["n_customers_only"].sum())],
        }
    )


_SETOPS_SQL = """
SELECT
  CAST((SELECT COUNT(*) FROM (SELECT DISTINCT user_id FROM events
        INTERSECT SELECT DISTINCT c_custkey FROM customer)) AS BIGINT) AS n_intersect,
  CAST((SELECT COUNT(*) FROM (SELECT DISTINCT user_id FROM events
        EXCEPT SELECT DISTINCT c_custkey FROM customer)) AS BIGINT) AS n_events_only,
  CAST((SELECT COUNT(*) FROM (SELECT DISTINCT c_custkey FROM customer
        EXCEPT SELECT DISTINCT user_id FROM events)) AS BIGINT) AS n_customers_only
"""


def tpch_q3_shipping_priority(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 shape: segment-filtered customers BROADCAST into the
    orders scan (dim side never shuffles), date-filtered lineitem revenue
    pre-aggregated per order with the bucketed combiner, one bucketed hash
    join, then a distributed top-10 (per-block local top-k, driver merges
    the tiny partials)."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key
    from ndap_data_validator_ray.stages.join import bucketed_join

    cutoff = pd.Timestamp("1995-03-15")
    bld = (
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
        .map_batches(
            lambda b: pd.DataFrame({"k": b.loc[b["c_mktsegment"] == "BUILDING", "c_custkey"]}),
            batch_format="pandas",
        )
        .to_pandas()["k"]
        .to_numpy()
    )
    bld_ref = ray.put(np.sort(bld))

    def orders_kept(batch: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(bld_ref)
        m = (batch["o_orderdate"] < cutoff) & np.isin(batch["o_custkey"].to_numpy(), keys)
        kept = batch.loc[m, ["o_orderkey", "o_orderdate", "o_orderpriority"]]
        return kept

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(orders_kept, batch_format="pandas")

    def li_revenue(batch: pd.DataFrame) -> pd.DataFrame:
        kept = batch[batch["l_shipdate"] > cutoff]
        return pd.DataFrame(
            {
                "o_orderkey": kept["l_orderkey"],
                "revenue": kept["l_extendedprice"] * (1.0 - kept["l_discount"]),
            }
        )

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
    # materialized: one row per qualifying order; avoids the double
    # execution bucketed_join's schema pass would otherwise trigger
    fact = sum_by_key(
        li.map_batches(li_revenue, batch_format="pandas"), ["o_orderkey"], ["revenue"]
    ).materialize()
    joined = bucketed_join(fact, orders, on=["o_orderkey"], how="inner")

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["revenue", "o_orderkey"], ascending=[False, True]).head(10)

    out = joined.map_batches(local_topk, batch_format="pandas").to_pandas()
    out = out.sort_values(["revenue", "o_orderkey"], ascending=[False, True]).head(10)
    out["revenue"] = _r2(out["revenue"])
    out["o_orderdate"] = pd.to_datetime(out["o_orderdate"]).dt.strftime("%Y-%m-%d")
    return out.reset_index(drop=True)[["o_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]


_TPCH_Q3_SQL = """
SELECT o_orderkey, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate, o_orderpriority
FROM customer JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15'
      AND l_shipdate > DATE '1995-03-15'
GROUP BY o_orderkey, o_orderdate, o_orderpriority
ORDER BY SUM(l_extendedprice * (1 - l_discount)) DESC, o_orderkey LIMIT 10
"""


def tpch_q22_idle_rich_customers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22 shape (scalar subquery + anti join): customers with an
    account balance above the positive-balance average who never placed
    an URGENT order, counted per market segment (plain no-orders is
    vacuous on this fixture — every customer has orders).  The scalar
    average folds from streaming (sum, n) partials; the threshold rides
    the batch closure (broadcast scalar); the no-urgent-orders predicate
    is the Bloom-prefiltered bucketed anti join with a NON-EMPTY verify
    leg; the final per-segment fold is a tiny aggregate."""
    from ndap_data_validator_ray.stages.bloom import bloom_anti_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment", "c_acctbal"])

    def avg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        pos = batch.loc[batch["c_acctbal"] > 0, "c_acctbal"].astype(np.float64)
        return pd.DataFrame({"s": [pos.sum()], "n": [np.int64(len(pos))]})

    parts = cust.map_batches(avg_partial, batch_format="pandas").to_pandas()
    threshold = float(parts["s"].sum() / parts["n"].sum())

    rich = cust.map_batches(
        lambda b, _t=threshold: b[b["c_acctbal"] > _t], batch_format="pandas"
    )
    urgent = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    idle_rich = bloom_anti_join(rich, urgent, probe_on="c_custkey", build_on="o_custkey")

    def seg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("c_mktsegment", as_index=False).agg(
            numcust=("c_custkey", "size"), totacctbal=("c_acctbal", "sum")
        )
        g["numcust"] = g["numcust"].astype(np.int64)
        return g

    out = (
        idle_rich.map_batches(seg_partial, batch_format="pandas")
        .to_pandas()
        .groupby("c_mktsegment", as_index=False)
        .agg(numcust=("numcust", "sum"), totacctbal=("totacctbal", "sum"))
    )
    out["numcust"] = out["numcust"].astype(np.int64)
    out["totacctbal"] = _r2(out["totacctbal"])
    return out.sort_values("c_mktsegment").reset_index(drop=True)


_TPCH_Q22_SQL = """
SELECT c_mktsegment, CAST(COUNT(*) AS BIGINT) AS numcust,
       ROUND(SUM(c_acctbal), 2) AS totacctbal
FROM customer
WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 0)
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey AND o_orderpriority = '1-URGENT')
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


def fuzzy_part_names(sf_dir: str) -> pd.DataFrame:
    """Fuzzy entity resolution on part names: distinct-name pairs within
    2 edits that share a blocking key (last name token) — blocked
    Levenshtein with the vectorized pair-DP kernel, occurrence counts
    from the bucketed two-phase aggregate (stages/fuzzy.py).  Blocking
    is part of the op's semantics and is mirrored in the SQL twin."""
    from ndap_data_validator_ray.stages.fuzzy import fuzzy_name_pairs

    ds = _read(sf_dir, "part", columns=["p_name"])
    out = fuzzy_name_pairs(ds, "p_name", max_dist=2)
    return out


_FUZZY_PART_SQL = """
WITH names AS (
  SELECT p_name, CAST(COUNT(*) AS BIGINT) AS cnt FROM part GROUP BY p_name
)
SELECT a.p_name AS name_a, b.p_name AS name_b,
       CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist,
       a.cnt AS count_a, b.cnt AS count_b
FROM names a JOIN names b
  ON a.p_name < b.p_name
 AND string_split(a.p_name, ' ')[-1] = string_split(b.p_name, ' ')[-1]
WHERE levenshtein(a.p_name, b.p_name) <= 2
ORDER BY name_a, name_b
"""


def tpch_q5_local_supplier_volume(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 shape (six tables): region→nation resolved on the driver
    (tiny), supplier and the nation-filtered customer map broadcast via
    ``ray.put`` (dims never shuffle; at true dim-table scale the customer
    side would swap to a second bucketed join — documented, not needed
    for a dim), both fact scans PRUNE to ASIA rows before the single
    orders⋈lineitem bucketed exchange, and the per-nation fold ships only
    per-batch (nationkey, revenue) partials to the driver."""
    from ndap_data_validator_ray.stages.join import bucketed_join

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    asia_rk = region.loc[region["r_name"] == "ASIA", "r_regionkey"].to_numpy()
    nat = nation[nation["n_regionkey"].isin(asia_rk)]
    nkeys = nat["n_nationkey"].to_numpy()
    name_of = dict(zip(nat["n_nationkey"], nat["n_name"]))

    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sup = sup[sup["s_nationkey"].isin(nkeys)].sort_values("s_suppkey")
    sup_ref = ray.put((sup["s_suppkey"].to_numpy(), sup["s_nationkey"].to_numpy()))

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust[cust["c_nationkey"].isin(nkeys)].sort_values("c_custkey")
    cust_ref = ray.put((cust["c_custkey"].to_numpy(), cust["c_nationkey"].to_numpy()))

    def orders_kept(t: pa.Table) -> pa.Table:
        # Arrow date-window filter first (zero-copy scan), numpy broadcast
        # lookup only on the surviving rows
        ckeys, cnat = ray.get(cust_ref)
        d = t["o_orderdate"]
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo.to_pydatetime()).cast(d.type)),
            pc.less(d, pa.scalar(hi.to_pydatetime()).cast(d.type)),
        )
        kept = t.filter(mask)
        ok = kept["o_custkey"].to_numpy()
        pos = np.clip(np.searchsorted(ckeys, ok), 0, max(len(ckeys) - 1, 0))
        hit = ckeys[pos] == ok if len(ckeys) else np.zeros(len(ok), dtype=bool)
        return pa.table(
            {
                "o_orderkey": pa.array(kept["o_orderkey"].to_numpy()[hit], pa.int64()),
                "c_nationkey": pa.array(cnat[pos[hit]], pa.int64()),
            }
        )

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(orders_kept, batch_format="pyarrow")

    def li_kept(t: pa.Table) -> pa.Table:
        skeys, snat = ray.get(sup_ref)
        lk = t["l_suppkey"].to_numpy()
        pos = np.clip(np.searchsorted(skeys, lk), 0, max(len(skeys) - 1, 0))
        hit = skeys[pos] == lk if len(skeys) else np.zeros(len(lk), dtype=bool)
        rev = (
            t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy())
        )[hit]
        part = pa.table(
            {
                "o_orderkey": pa.array(t["l_orderkey"].to_numpy()[hit], pa.int64()),
                "s_nationkey": pa.array(snat[pos[hit]], pa.int64()),
                "revenue": pa.array(rev, pa.float64()),
            }
        )
        # per-batch Arrow combiner before the exchange
        return part.group_by(["o_orderkey", "s_nationkey"]).aggregate(
            [("revenue", "sum")]
        ).rename_columns(["o_orderkey", "s_nationkey", "revenue"])

    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_kept, batch_format="pyarrow")

    joined = bucketed_join(li, orders, on=["o_orderkey"], how="inner", n_buckets=16)

    def nation_partial(batch: pd.DataFrame) -> pd.DataFrame:
        kept = batch[batch["c_nationkey"] == batch["s_nationkey"]]
        return kept.groupby("s_nationkey", as_index=False)["revenue"].sum()

    parts = joined.map_batches(nation_partial, batch_format="pandas").to_pandas()
    out = parts.groupby("s_nationkey", as_index=False)["revenue"].sum()
    out["n_name"] = out["s_nationkey"].map(name_of)
    out["revenue"] = _r2(out["revenue"])
    return out.sort_values(["revenue", "n_name"], ascending=[False, True]).reset_index(drop=True)[
        ["n_name", "revenue"]
    ]


_TPCH_Q5_SQL = """
SELECT n_name, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
     JOIN lineitem ON l_orderkey = o_orderkey
     JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
     JOIN nation ON s_nationkey = n_nationkey
     JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA' AND o_orderdate >= DATE '1996-01-01'
      AND o_orderdate < DATE '1997-01-01'
GROUP BY n_name ORDER BY revenue DESC, n_name
"""


# ---------------------------------------------------------------------------
# Statistical aggregates / date functions / grouping sets (round 3)
# ---------------------------------------------------------------------------

def linreg_price_qty_by_flag(sf_dir: str) -> pd.DataFrame:
    """Per-group simple linear regression (extendedprice ~ quantity) from
    the SAME mergeable one-pass moment partials as the corr op —
    slope/intercept/r² finalized on the driver from six numbers per
    group, never a second data pass (the distributed OLS building
    block)."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["l_quantity"].astype(np.float64)
        y = batch["l_extendedprice"].astype(np.float64)
        g = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "n": 1,
                "sx": x,
                "sxx": x * x,
                "sy": y,
                "syy": y * y,
                "sxy": x * y,
            }
        )
        return g.groupby("l_returnflag", as_index=False).sum()

    # 3 groups: moment partials are <=3 rows per block — driver fold
    parts = (
        ds.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("l_returnflag", as_index=False)
        .sum()
    )
    n = parts["n"].astype(np.float64)
    ssxy = parts["sxy"] - parts["sx"] * parts["sy"] / n
    ssxx = parts["sxx"] - parts["sx"] ** 2 / n
    ssyy = parts["syy"] - parts["sy"] ** 2 / n
    slope = ssxy / ssxx
    out = pd.DataFrame(
        {
            "l_returnflag": parts["l_returnflag"],
            "n": parts["n"].astype(np.int64),
            "slope": _r6(slope),
            "intercept": _r6((parts["sy"] - slope * parts["sx"]) / n),
            "r2": _r6(ssxy * ssxy / (ssxx * ssyy)),
        }
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


_LINREG_SQL = """
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(regr_slope(l_extendedprice, l_quantity), 6) AS slope,
       ROUND(regr_intercept(l_extendedprice, l_quantity), 6) AS intercept,
       ROUND(regr_r2(l_extendedprice, l_quantity), 6) AS r2
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def outlier_orders_by_priority(sf_dir: str) -> pd.DataFrame:
    """Per-group z-score outlier detection (o_totalprice vs its
    o_orderpriority group): pass 1 folds tiny per-group moment partials
    (n, Σx, Σx²) to the driver, pass 2 re-streams the table with the
    5-row (mean, std) table broadcast in the batch closure and emits
    only rows with |z| > 1.5 — the canonical two-pass anomaly scan (no
    shuffle of row data; threshold 1.5 because the fixture's uniform
    price distribution has no 3-sigma tail, max |z| ~ 1.8)."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"])

    def moment_partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["o_totalprice"].astype(np.float64)
        g = pd.DataFrame(
            {"o_orderpriority": batch["o_orderpriority"], "n": 1, "sx": x, "sxx": x * x}
        )
        return g.groupby("o_orderpriority", as_index=False).sum()

    # 5 groups: moment partials are <=5 rows per block — driver fold
    parts = (
        ds.map_batches(moment_partial, batch_format="pandas")
        .to_pandas()
        .groupby("o_orderpriority", as_index=False)
        .sum()
    )
    n = parts["n"].astype(np.float64)
    mean = parts["sx"] / n
    # sample stddev to match SQL stddev_samp
    std = np.sqrt((parts["sxx"] - parts["sx"] ** 2 / n) / (n - 1))
    stats_ref = ray.put(
        {p: (m, s) for p, m, s in zip(parts["o_orderpriority"], mean, std)}
    )

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        stats = ray.get(stats_ref)
        ms = batch["o_orderpriority"].map({k: v[0] for k, v in stats.items()})
        ss = batch["o_orderpriority"].map({k: v[1] for k, v in stats.items()})
        z = (batch["o_totalprice"].astype(np.float64) - ms) / ss
        m = (np.abs(z) > 1.5).to_numpy()
        kept = batch.loc[m, ["o_orderkey", "o_orderpriority", "o_totalprice"]]
        kept = kept.assign(z=_r6(z[m]))
        return kept.astype(
            {"o_orderkey": np.int64, "o_orderpriority": object,
             "o_totalprice": np.float64, "z": np.float64}
        )

    out = ds.map_batches(flag, batch_format="pandas").to_pandas()
    out["o_totalprice"] = _r2(out["o_totalprice"])
    return out.sort_values("o_orderkey").reset_index(drop=True)


_OUTLIER_SQL = """
WITH s AS (
  SELECT o_orderpriority AS p, AVG(o_totalprice) AS m, stddev_samp(o_totalprice) AS sd,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM orders GROUP BY o_orderpriority
)
SELECT o_orderkey, o_orderpriority, ROUND(o_totalprice, 2) AS o_totalprice,
       ROUND((o_totalprice - s.m) / s.sd, 6) AS z
FROM orders JOIN s ON o_orderpriority = s.p
WHERE ABS((o_totalprice - s.m) / s.sd) > 1.5
ORDER BY o_orderkey
"""


def price_qty_corr_by_flag(sf_dir: str) -> pd.DataFrame:
    """Second-moment statistics per group — stddev, sample covariance and
    Pearson correlation of (quantity, extendedprice) — from mergeable
    per-batch partials (n, sum x, sum x^2, sum y, sum y^2, sum xy): the
    one-pass shape that scales (no mean pre-pass, no re-read)."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["l_quantity"].astype(np.float64)
        y = batch["l_extendedprice"].astype(np.float64)
        g = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "n": 1,
                "sx": x,
                "sxx": x * x,
                "sy": y,
                "syy": y * y,
                "sxy": x * y,
            }
        )
        return g.groupby("l_returnflag", as_index=False).sum()

    # 3 groups: moment partials are <=3 rows per block — driver fold
    parts = (
        ds.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("l_returnflag", as_index=False)
        .sum()
    )
    n = parts["n"].astype(np.float64)
    var_x = (parts["sxx"] - parts["sx"] ** 2 / n) / (n - 1)
    var_y = (parts["syy"] - parts["sy"] ** 2 / n) / (n - 1)
    covar = (parts["sxy"] - parts["sx"] * parts["sy"] / n) / (n - 1)
    out = pd.DataFrame(
        {
            "l_returnflag": parts["l_returnflag"],
            "n": parts["n"].astype(np.int64),
            "qty_std": _r6(np.sqrt(var_x)),
            "price_std": _r2(np.sqrt(var_y)),
            "covar": _r2(covar),
            "corr": _r6(covar / np.sqrt(var_x * var_y)),
        }
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


_CORR_SQL = """
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(stddev_samp(l_quantity), 6) AS qty_std,
       ROUND(stddev_samp(l_extendedprice), 2) AS price_std,
       ROUND(covar_samp(l_quantity, l_extendedprice), 2) AS covar,
       ROUND(corr(l_quantity, l_extendedprice), 6) AS corr
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def monthly_revenue_trend(sf_dir: str) -> pd.DataFrame:
    """Calendar aggregation: month-truncated order dates (DATE_TRUNC
    semantics as a formatted group key), revenue + order counts via the
    bucketed combiner."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "month": batch["o_orderdate"].dt.strftime("%Y-%m"),
                "revenue": batch["o_totalprice"],
                "n_orders": np.int64(1),
            }
        )

    out = sum_by_key(
        ds.map_batches(pre, batch_format="pandas"), ["month"], ["revenue", "n_orders"], n_buckets=16
    ).to_pandas()
    out["revenue"] = _r2(out["revenue"])
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out.sort_values("month").reset_index(drop=True)[["month", "revenue", "n_orders"]]


_MONTHLY_SQL = """
SELECT strftime(o_orderdate, '%Y-%m') AS month,
       ROUND(SUM(o_totalprice), 2) AS revenue,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders GROUP BY month ORDER BY month
"""


def mode_priority_by_status(sf_dir: str) -> pd.DataFrame:
    """Per-group MODE (most frequent value, ties to the smallest): a
    bucketed (status, priority) count — tiny domain — then a driver-side
    argmax with a deterministic tie-break, mirrored by the oracle's
    ROW_NUMBER ordering."""
    from ndap_data_validator_ray.stages.groupby import count_by_key

    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_orderpriority"])
    counts = count_by_key(ds, ["o_orderstatus", "o_orderpriority"], n_buckets=8, count_col="n").to_pandas()
    counts = counts.sort_values(["o_orderstatus", "n", "o_orderpriority"], ascending=[True, False, True])
    out = counts.groupby("o_orderstatus", as_index=False).first()
    out["n"] = out["n"].astype(np.int64)
    return out.rename(columns={"o_orderpriority": "mode_priority"}).reset_index(drop=True)[
        ["o_orderstatus", "mode_priority", "n"]
    ]


_MODE_SQL = """
SELECT o_orderstatus, o_orderpriority AS mode_priority, n FROM (
  SELECT o_orderstatus, o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n,
         ROW_NUMBER() OVER (PARTITION BY o_orderstatus
                            ORDER BY COUNT(*) DESC, o_orderpriority) AS rn
  FROM orders GROUP BY o_orderstatus, o_orderpriority) t
WHERE rn = 1 ORDER BY o_orderstatus
"""


def event_type_entropy(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy of the event_type distribution (a distribution-
    profiling scalar): bucketed counts, entropy folded on the driver from
    the tiny count vector."""
    from ndap_data_validator_ray.stages.groupby import count_by_key

    counts = count_by_key(
        _read(sf_dir, "events", columns=["event_type"]), ["event_type"], n_buckets=4
    ).to_pandas()
    p = counts["cnt"].to_numpy(np.float64) / float(counts["cnt"].sum())
    return pd.DataFrame({"entropy": [float(np.round(-(p * np.log2(p)).sum(), 6))]})


_ENTROPY_SQL = """
SELECT ROUND(SUM(-p * log2(p)), 6) AS entropy FROM (
  SELECT CAST(COUNT(*) AS DOUBLE) / (SELECT COUNT(*) FROM events) AS p
  FROM events GROUP BY event_type) t
"""


def revenue_cube(sf_dir: str) -> pd.DataFrame:
    """CUBE(l_returnflag, l_linestatus): all four grouping sets folded
    from ONE bucketed detail aggregate (same single-pass shape as
    revenue_rollup — subtotals never re-scan the data)."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_extendedprice"])
    detail = sum_by_key(
        ds.map_batches(
            lambda b: b.rename(columns={"l_extendedprice": "revenue"}), batch_format="pandas"
        ),
        ["l_returnflag", "l_linestatus"],
        ["revenue"],
        n_buckets=8,
    ).to_pandas()
    by_flag = detail.groupby("l_returnflag", as_index=False)["revenue"].sum()
    by_flag["l_linestatus"] = None
    by_status = detail.groupby("l_linestatus", as_index=False)["revenue"].sum()
    by_status["l_returnflag"] = None
    total = pd.DataFrame(
        {"l_returnflag": [None], "l_linestatus": [None], "revenue": [detail["revenue"].sum()]}
    )
    out = pd.concat([detail, by_flag, by_status, total], ignore_index=True)
    out["revenue"] = _r2(out["revenue"])
    return (
        out[["l_returnflag", "l_linestatus", "revenue"]]
        .sort_values(["l_returnflag", "l_linestatus"], na_position="last")
        .reset_index(drop=True)
    )


_CUBE_SQL = """
SELECT l_returnflag, l_linestatus, ROUND(SUM(l_extendedprice), 2) AS revenue
FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)
ORDER BY l_returnflag NULLS LAST, l_linestatus NULLS LAST
"""


# ---------------------------------------------------------------------------
# Training-data text ops: PII scrubbing, repetition quality, bigrams (round 3)
# ---------------------------------------------------------------------------

def pii_redact_documents(sf_dir: str) -> pd.DataFrame:
    """PII scrubbing over the documents table: URL / email / long-digit-id
    redaction with per-kind counts (functions/text.redact_pii — three
    compiled-regex vectorized passes, per-row local, no shuffle).  The
    synthetic corpus contains no PII so counts are 0 here; the planted-PII
    path is pinned by tests/test_text_ops_r3.py."""
    from ndap_data_validator_ray.functions.text import redact_pii

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = redact_pii(batch["text"])
        out.insert(0, "doc_id", batch["doc_id"].to_numpy())
        return out

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


_PII_SQL = r"""
WITH t1 AS (
  SELECT doc_id,
         regexp_replace(text, 'https?://[^ \t\n\r]+', '<URL>', 'g') AS s1,
         CAST(COALESCE(len(regexp_extract_all(text, 'https?://[^ \t\n\r]+')), 0) AS BIGINT) AS n_urls
  FROM documents),
t2 AS (
  SELECT doc_id, regexp_replace(s1, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS s2,
         n_urls,
         CAST(COALESCE(len(regexp_extract_all(s1, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')), 0) AS BIGINT) AS n_emails
  FROM t1)
SELECT doc_id,
       regexp_replace(s2, '[0-9]{6,}', '<ID>', 'g') AS clean_text,
       n_urls, n_emails,
       CAST(COALESCE(len(regexp_extract_all(s2, '[0-9]{6,}')), 0) AS BIGINT) AS n_ids
FROM t2 ORDER BY doc_id
"""


def repetition_scores_documents(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition quality per document: token count, distinct
    tokens, top-token fraction and distinct ratio.  Ratios are emitted as
    parts-per-million integers (floor(x * 1e6 + 0.5)) so both sides round
    half-away-from-zero on the identical float64 — immune to the
    np.round-vs-SQL-ROUND half-even discrepancy."""
    from ndap_data_validator_ray.functions.text import repetition_stats

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        st = repetition_stats(batch["text"])
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_tokens": st["n_tokens"],
                "n_distinct": st["n_distinct"],
                "top_token_ppm": np.floor(st["top_token_frac"].to_numpy() * 1e6 + 0.5).astype(np.int64),
                "distinct_ratio_ppm": np.floor(st["distinct_ratio"].to_numpy() * 1e6 + 0.5).astype(np.int64),
            }
        )

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


_REPETITION_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM documents),
cnt AS (SELECT doc_id, term, COUNT(*) AS c FROM toks GROUP BY doc_id, term),
agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens,
               CAST(COUNT(*) AS BIGINT) AS n_distinct, MAX(c) AS mx
        FROM cnt GROUP BY doc_id)
SELECT d.doc_id,
       COALESCE(n_tokens, 0) AS n_tokens,
       COALESCE(n_distinct, 0) AS n_distinct,
       CAST(COALESCE(FLOOR(CAST(mx AS DOUBLE) / n_tokens * 1e6 + 0.5), 0) AS BIGINT) AS top_token_ppm,
       CAST(COALESCE(FLOOR(CAST(n_distinct AS DOUBLE) / n_tokens * 1e6 + 0.5), 0) AS BIGINT) AS distinct_ratio_ppm
FROM documents d LEFT JOIN agg USING (doc_id) ORDER BY d.doc_id
"""


def top_bigrams_documents(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide top-20 adjacent-token bigrams: per-batch boundary-safe
    bigram partials (functions/text.bigram_counts), bucketed exact count,
    per-block local top-k, driver merges the tiny partials.  Ties break
    on the bigram string, deterministically on both sides."""
    from ndap_data_validator_ray.functions.text import bigram_counts
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    parts = _read(sf_dir, "documents", columns=["text"]).map_batches(
        lambda b: bigram_counts(b["text"]), batch_format="pandas"
    )
    counts = sum_by_key(parts, ["bigram"], ["cnt"], n_buckets=16)

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["cnt", "bigram"], ascending=[False, True]).head(20)

    out = counts.map_batches(local_topk, batch_format="pandas").to_pandas()
    out = out.sort_values(["cnt", "bigram"], ascending=[False, True]).head(20)
    out["cnt"] = out["cnt"].astype(np.int64)
    return out.reset_index(drop=True)[["bigram", "cnt"]]


_TOP_BIGRAMS_SQL = """
WITH toks AS (
  SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS arr FROM documents),
bi AS (
  SELECT unnest(list_transform(range(1, len(arr)), i -> arr[i] || ' ' || arr[i + 1])) AS bigram
  FROM toks)
SELECT bigram, CAST(COUNT(*) AS BIGINT) AS cnt
FROM bi GROUP BY bigram ORDER BY cnt DESC, bigram LIMIT 20
"""


def events_time_window_stats(sf_dir: str) -> pd.DataFrame:
    """Time-RANGE window frames (RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
    AND CURRENT ROW): per event, the count and value-sum of the same
    user's events in the trailing hour — the stages/window.py range_*
    kinds (SQL-exact ORDER BY peer semantics, vectorized time-rolling)."""
    from ndap_data_validator_ray.stages.window import WindowSpec, partitioned_window

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    win = partitioned_window(
        ds,
        partition_by=["user_id"],
        order_by=["ts"],
        specs=[
            WindowSpec(kind="range_count", out="n_1h", delta=pd.Timedelta("1h")),
            WindowSpec(kind="range_sum", out="sum_1h", col="value", delta=pd.Timedelta("1h")),
        ],
    ).to_pandas()
    win["sum_1h"] = _r6(win["sum_1h"])
    return win.sort_values("event_id").reset_index(drop=True)[["event_id", "n_1h", "sum_1h"]]


_TIME_WINDOW_SQL = """
SELECT event_id,
       CAST(COUNT(*) OVER w AS BIGINT) AS n_1h,
       ROUND(SUM(value) OVER w, 6) AS sum_1h
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
ORDER BY event_id
"""


def brand_status_grid(sf_dir: str) -> pd.DataFrame:
    """CROSS JOIN as broadcast expansion: the distinct-brand Dataset fans
    out against the tiny broadcast distinct-status list inside
    map_batches — the scale shape for small-side cartesian products (the
    big side streams, the small side ships once)."""
    from ndap_data_validator_ray.stages.groupby import count_by_key

    statuses = np.sort(
        _read(sf_dir, "orders", columns=["o_orderstatus"])
        .map_batches(
            lambda b: pd.DataFrame({"s": b["o_orderstatus"].unique()}), batch_format="pandas"
        )
        .to_pandas()["s"]
        .unique()
    )
    st_ref = ray.put(statuses)
    brands = count_by_key(_read(sf_dir, "part", columns=["p_brand"]), ["p_brand"], n_buckets=8)

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(st_ref)
        return pd.DataFrame(
            {
                "p_brand": np.repeat(batch["p_brand"].to_numpy(), len(st)),
                "o_orderstatus": np.tile(st, len(batch)),
            }
        )

    out = brands.map_batches(expand, batch_format="pandas").to_pandas()
    return out.sort_values(["p_brand", "o_orderstatus"]).reset_index(drop=True)


_CROSS_JOIN_SQL = """
SELECT p_brand, o_orderstatus
FROM (SELECT DISTINCT p_brand FROM part)
CROSS JOIN (SELECT DISTINCT o_orderstatus FROM orders)
ORDER BY p_brand, o_orderstatus
"""


def filter_documents_quality(sf_dir: str) -> pd.DataFrame:
    """Composed quality FILTER over documents (the keep/drop decision of a
    training-data pipeline): length + repetition thresholds, emitting the
    keep flag and a deterministic reason list for dropped docs.  Both
    sides compare the identical float64 ratio against the thresholds, so
    the boundary behaves identically."""
    from ndap_data_validator_ray.functions.text import repetition_stats

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        st = repetition_stats(batch["text"])
        nt = st["n_tokens"].to_numpy()
        frac = st["top_token_frac"].to_numpy()
        short = nt < 20
        rep = frac > 0.13
        reason = np.where(
            short & rep, "too_short,too_repetitive", np.where(short, "too_short", np.where(rep, "too_repetitive", ""))
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "keep": (~(short | rep)).astype(np.int64),
                "reason": reason,
            }
        )

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


_QUALITY_FILTER_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM documents),
cnt AS (SELECT doc_id, term, COUNT(*) AS c FROM toks GROUP BY doc_id, term),
agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens, MAX(c) AS mx FROM cnt GROUP BY doc_id),
j AS (SELECT d.doc_id,
             COALESCE(n_tokens, 0) AS nt,
             COALESCE(CAST(mx AS DOUBLE) / n_tokens, 0.0) AS frac
      FROM documents d LEFT JOIN agg USING (doc_id))
SELECT doc_id,
       CAST(CASE WHEN nt >= 20 AND frac <= 0.13 THEN 1 ELSE 0 END AS BIGINT) AS keep,
       concat_ws(',', CASE WHEN nt < 20 THEN 'too_short' END,
                      CASE WHEN frac > 0.13 THEN 'too_repetitive' END) AS reason
FROM j ORDER BY doc_id
"""


def customer_name_ids(sf_dir: str) -> pd.DataFrame:
    """Structured regex extraction (regexp_extract with a capture group):
    parse the numeric id out of c_name and verify it against c_custkey —
    vectorized str.extract per batch, no shuffle."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        ext = batch["c_name"].str.extract(r"#0*([0-9]+)$", expand=False)
        parsed = pd.to_numeric(ext, errors="coerce").astype("Int64")
        return pd.DataFrame(
            {
                "c_custkey": batch["c_custkey"],
                "name_id": parsed,
                "id_matches_key": (parsed == batch["c_custkey"]).fillna(False).astype(np.int64),
            }
        )

    return (
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )


_NAME_IDS_SQL = """
SELECT c_custkey,
       CAST(regexp_extract(c_name, '#0*([0-9]+)$', 1) AS BIGINT) AS name_id,
       CAST(CASE WHEN CAST(regexp_extract(c_name, '#0*([0-9]+)$', 1) AS BIGINT) = c_custkey
                 THEN 1 ELSE 0 END AS BIGINT) AS id_matches_key
FROM customer ORDER BY c_custkey
"""


def events_value_histogram(sf_dir: str) -> pd.DataFrame:
    """Fixed-width histogram of events.value (bin = floor(value / 50)):
    per-batch bincounts merged with the bucketed combiner — the profiling
    histogram every distribution check builds on (nulls excluded, like
    SQL GROUP BY on the bin expression)."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["value"].dropna()
        b = np.floor(v.to_numpy(np.float64) / 50.0).astype(np.int64)
        g = pd.Series(b).value_counts()
        return pd.DataFrame({"bin": g.index.to_numpy(), "n": g.to_numpy().astype(np.int64)})

    out = sum_by_key(
        _read(sf_dir, "events", columns=["value"]).map_batches(pre, batch_format="pandas"),
        ["bin"],
        ["n"],
        n_buckets=8,
    ).to_pandas()
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("bin").reset_index(drop=True)[["bin", "n"]]


_VALUE_HIST_SQL = """
SELECT CAST(FLOOR(value / 50.0) AS BIGINT) AS bin, CAST(COUNT(*) AS BIGINT) AS n
FROM events WHERE value IS NOT NULL GROUP BY bin ORDER BY bin
"""


def distinct_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-group COUNT(DISTINCT ...) at scale: dedup (event_type, user_id)
    pairs inside each bucket partial, then count per group — distinct
    values never reach the driver, and re-observed pairs collapse in the
    combiner before the exchange."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.drop_duplicates()

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        g = part.drop_duplicates().groupby("event_type").size()
        return pd.DataFrame({"event_type": g.index.to_numpy(), "n_users": g.to_numpy().astype(np.int64)})

    # bucket on user_id so one group's pairs may span buckets; counts are
    # still exact because a (type, user) pair lands in ONE bucket — the
    # per-bucket distinct counts are disjoint and sum on the driver
    parts = bucketed_groupby(ds, ["user_id"], partial, merge, n_buckets=16).to_pandas()
    out = parts.groupby("event_type", as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


_DISTINCT_USERS_SQL = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


def orders_global_rank(sf_dir: str) -> pd.DataFrame:
    """Global ORDER BY / ROW_NUMBER without a single-node sort: the
    range-partitioned distributed sort (stages/sort.global_rank — sample
    boundaries, exact pre-counted prefix offsets, per-range reducers emit
    final ranks in one shuffle)."""
    from ndap_data_validator_ray.stages.sort import global_rank

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    out = global_rank(
        ds, order_by=["o_totalprice", "o_orderkey"], ascending=[False, True], out="rank", n_parts=16
    ).to_pandas()
    out["rank"] = out["rank"].astype(np.int64)
    out["o_totalprice"] = _r2(out["o_totalprice"])
    return out.sort_values("rank").reset_index(drop=True)[["o_orderkey", "o_totalprice", "rank"]]


_GLOBAL_RANK_SQL = """
SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice,
       CAST(ROW_NUMBER() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS rank
FROM orders ORDER BY rank
"""


def part_attrs_unpivot(sf_dir: str) -> pd.DataFrame:
    """UNPIVOT (wide -> long), the inverse of the crosstab: per-batch
    vectorized melt — a pure row-expanding map, no shuffle."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.astype({"p_size": np.float64})
        out = batch.melt(
            id_vars=["p_partkey"],
            value_vars=["p_size", "p_retailprice"],
            var_name="attr",
            value_name="val",
        )
        out["val"] = _r2(out["val"])
        return out

    return (
        _read(sf_dir, "part", columns=["p_partkey", "p_size", "p_retailprice"])
        .map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values(["p_partkey", "attr"])
        .reset_index(drop=True)
    )


_UNPIVOT_SQL = """
SELECT p_partkey, 'p_size' AS attr, ROUND(CAST(p_size AS DOUBLE), 2) AS val FROM part
UNION ALL
SELECT p_partkey, 'p_retailprice' AS attr, ROUND(p_retailprice, 2) AS val FROM part
ORDER BY p_partkey, attr
"""


def pack_documents_bins(sf_dir: str) -> pd.DataFrame:
    """Sequence packing (training-batch assembly): documents packed into
    2048-char bins by best-fit-decreasing inside hash buckets
    (stages/packing.py — only (id, size) metadata moves).  Engine-defined
    bin ids, so rows-only; the capacity/determinism contract is pinned by
    tests."""
    from ndap_data_validator_ray.stages.packing import pack_bins

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = pack_bins(ds, "doc_id", "n_chars", capacity=2048, n_buckets=16).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "n_chars", "bin_id", "overflow"]
    ]


def containment_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """Containment detection (doc-inside-doc duplication that symmetric
    near-dup misses): winnowed rolling-hash fingerprints, fp-bucketed pair
    counting (stages/dedup_near.containment_pairs).  Engine-defined
    fingerprints — rows-only; planted-substring recall pinned by tests."""
    from ndap_data_validator_ray.stages.dedup_near import containment_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    stats: dict = {}
    # k=12-char grams: this corpus's vocabulary is tiny, so shorter grams
    # collide across unrelated docs (k=8 yields ~8k noise pairs; k=12 ~30)
    out = containment_pairs(ds, "text", "doc_id", k=12, window=16, min_shared=6, stats=stats)
    return out


def containment_exact_documents(sf_dir: str) -> pd.DataFrame:
    """EXACT shared-substring containment on a keyed subset (doc_id % 4,
    char-8-grams, >= 100 shared distinct grams): the fully-oracled twin
    of the winnowed ``containment_pairs`` path — same signal the MOSS
    fingerprints SAMPLE, computed exhaustively via the distributed
    tile-pair join (``dedup_near.exact_containment_pairs``).  DuckDB
    recomputes the gram sets with substr/list_intersect."""
    from ndap_data_validator_ray.stages.dedup_near import exact_containment_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        lambda t: t.filter(pa.array(t["doc_id"].to_numpy() % 4 == 0)), batch_format="pyarrow"
    )
    return exact_containment_pairs(ds, "text", "doc_id", k=8, min_shared=100, tiles=4)


_CONTAINMENT_EXACT_SQL = """
WITH sub AS (SELECT doc_id, COALESCE(text, '') AS t FROM documents WHERE doc_id % 4 = 0),
g AS (
  SELECT doc_id,
    CASE WHEN length(t) >= 8
      THEN list_distinct(list_transform(range(1, length(t) - 6), i -> substr(t, i, 8)))
      ELSE [] END AS grams
  FROM sub
)
SELECT id_a, id_b, shared_grams FROM (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         CAST(len(list_intersect(a.grams, b.grams)) AS BIGINT) AS shared_grams
  FROM g a JOIN g b ON a.doc_id < b.doc_id
) WHERE shared_grams >= 100 ORDER BY id_a, id_b
"""


# ---------------------------------------------------------------------------
# Embedding clustering (round 3)
# ---------------------------------------------------------------------------

def _centroid_init(sf_dir: str, k: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic centroid seed: the k vectors with vec_id < k."""
    small = (
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .map_batches(lambda b: b[b["vec_id"] < k], batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")
    )
    ids = small["vec_id"].to_numpy(np.int64)
    mat = np.stack(small["embedding"].to_numpy()).astype(np.float64)
    return ids, mat


def centroid_assign_embeddings(sf_dir: str) -> pd.DataFrame:
    """Nearest-centroid assignment by cosine similarity against a
    deterministic 8-centroid codebook (vec_id < 8), the building block of
    IVF/k-means: the tiny centroid matrix is ray.put once and every batch
    does one matmul + argmax (ties to the lowest centroid id — mirrored
    by the oracle's ROW_NUMBER ordering)."""
    ids, mat = _centroid_init(sf_dir, k=8)
    cn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    ref = ray.put((ids, cn))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        cids, cmat = ray.get(ref)
        m = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        best = np.argmax(m @ cmat.T, axis=1)
        return pd.DataFrame({"vec_id": batch["vec_id"], "centroid_id": cids[best]})

    return (
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .map_batches(assign, batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )


_CENTROID_ASSIGN_SQL = """
WITH c AS (
  SELECT vec_id AS centroid_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS ce
  FROM embeddings WHERE vec_id < 8),
scored AS (
  SELECT e.vec_id, c.centroid_id,
         ROW_NUMBER() OVER (PARTITION BY e.vec_id
                            ORDER BY list_cosine_similarity(
                                list_transform(e.embedding, x -> CAST(x AS DOUBLE)), c.ce) DESC,
                            c.centroid_id) AS rn
  FROM embeddings e CROSS JOIN c)
SELECT vec_id, centroid_id FROM scored WHERE rn = 1 ORDER BY vec_id
"""


def bpe_merges_documents(sf_dir: str) -> pd.DataFrame:
    """Distributed BPE vocabulary training (20 merges) over the documents
    corpus — iterative broadcast + per-batch pre-aggregated pair-count
    partials (stages/bpe.py).  Iterative and engine-defined, so
    rows-only; block-order independence and an exact single-process twin
    are pinned by tests."""
    from ndap_data_validator_ray.stages.bpe import bpe_train

    ds = _read(sf_dir, "documents", columns=["text"])
    return bpe_train(ds, "text", n_merges=20)


def kmeans_embeddings(sf_dir: str) -> pd.DataFrame:
    """Distributed Lloyd's k-means (k=8, 5 iterations, deterministic init
    = vec_id < 8): per-iteration broadcast centroids + per-batch partial
    (sum, count, sse) fold — stages/kmeans.py.  Iterative and
    engine-defined, so rows-only (convergence pinned by tests)."""
    from ndap_data_validator_ray.stages.kmeans import kmeans_fit

    _ids, init = _centroid_init(sf_dir, k=8)
    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    fit = kmeans_fit(ds, "embedding", init, n_iter=5)
    return pd.DataFrame(
        {
            "cluster": np.arange(len(fit["counts"]), dtype=np.int64),
            "n_assigned": fit["counts"].astype(np.int64),
        }
    )


# ---------------------------------------------------------------------------
# Training-data curation: decontamination and mixture sampling
# ---------------------------------------------------------------------------

def decontaminate_documents(sf_dir: str) -> pd.DataFrame:
    """Benchmark n-gram decontamination (the GPT-3-style eval-leak filter):
    docs with ``doc_id % 17 == 0`` act as the held-out benchmark set; the
    output lists every corpus doc sharing ≥1 word-3-gram with it, with the
    count of distinct overlapping grams.  Benchmark grams are collected
    once and broadcast (``ray.put`` → actor ``__init__``); the corpus
    streams through one map_batches with no shuffle
    (stages/decontaminate.py)."""
    from ndap_data_validator_ray.stages.decontaminate import benchmark_overlap

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    bench = docs.map_batches(
        lambda t: t.filter(pa.array(t["doc_id"].to_numpy() % 17 == 0)), batch_format="pyarrow"
    )
    corpus = docs.map_batches(
        lambda t: t.filter(pa.array(t["doc_id"].to_numpy() % 17 != 0)), batch_format="pyarrow"
    )
    out = benchmark_overlap(corpus, bench, "text", "doc_id", n=3, concurrency=(2, 8)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_DECONTAM_SQL = r"""
WITH tok AS (
  SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\s+'), x -> x <> '') AS ws FROM documents
), grams AS (
  SELECT doc_id,
    CASE WHEN len(ws) >= 3
      THEN list_distinct(list_transform(range(1, len(ws) - 1), i -> array_to_string(ws[i:i+2], ' ')))
      WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
      ELSE CAST([] AS VARCHAR[]) END AS g
  FROM tok
), bench AS (
  SELECT DISTINCT unnest(g) AS gram FROM grams WHERE doc_id % 17 = 0
), corpus AS (
  SELECT doc_id, unnest(g) AS gram FROM grams WHERE doc_id % 17 <> 0
)
SELECT c.doc_id, CAST(COUNT(*) AS BIGINT) AS n_overlap
FROM corpus c JOIN bench b ON c.gram = b.gram
GROUP BY c.doc_id ORDER BY c.doc_id
"""


def mixture_sample_documents(sf_dir: str) -> pd.DataFrame:
    """Deterministic per-source mixture sampling (training-data mixing):
    source ``srcK`` is kept at rate ``((K % 4) + 1) / 8`` by a stable
    multiplicative key hash — pure streaming filter, no shuffle, no RNG
    state, identical rows on rerun/resume (same property as
    ``stratified_sample_orders`` but with per-group rates).  Thresholds
    are exact 32-bit integers so SQL and numpy agree bit-for-bit."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy().astype(np.uint64)
        h = (ids * np.uint64(_KNUTH32)) % np.uint64(1 << 32)
        srcnum = pc.cast(pc.utf8_slice_codeunits(batch["source"], 3, 32), pa.int64()).to_numpy()
        thresh = ((srcnum % 4) + 1).astype(np.uint64) * np.uint64(1 << 29)
        return batch.filter(pa.array(h < thresh))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_MIXTURE_SQL = f"""
SELECT doc_id, source FROM documents
WHERE (doc_id * {_KNUTH32}) % 4294967296 <
      ((CAST(substr(source, 4) AS BIGINT) % 4) + 1) * 536870912
ORDER BY doc_id
"""


def train_val_test_split_documents(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split (training-data prep): every doc
    is assigned by ``md5(doc_id) % 100`` — train <80, val 80-89, test
    90+.  Content-stable: the assignment never changes across reruns,
    resume, repartitioning, or corpus growth (a new doc never moves an
    old one), which is the property an incremental 100 TB pipeline needs.
    Pure streaming pass — per-batch (split, lang) count partials fold on
    the driver (<= 3 x langs rows per block).  The md5_number_lower twin
    makes the split FULLY value-oracled, not just determinism-tested."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        h = md5_lower64_batch(batch["doc_id"].astype(str).to_numpy()) % np.uint64(100)
        split = np.where(h < 80, "train", np.where(h < 90, "val", "test"))
        df = pd.DataFrame(
            {"split": split, "lang": batch["lang"].to_numpy(), "n_chars": batch["n_chars"].to_numpy()}
        )
        g = df.groupby(["split", "lang"], as_index=False).agg(
            n_docs=("n_chars", "size"), chars_total=("n_chars", "sum")
        )
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["split", "lang"], as_index=False)[["n_docs", "chars_total"]].sum()
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["chars_total"] = out["chars_total"].astype(np.int64)
    return out.sort_values(["split", "lang"]).reset_index(drop=True)


_TRAIN_SPLIT_SQL = """
SELECT split, lang, CAST(COUNT(*) AS BIGINT) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS chars_total
FROM (
  SELECT lang, n_chars,
    CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 80 THEN 'train'
         WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 90 THEN 'val'
         ELSE 'test' END AS split
  FROM documents
) GROUP BY split, lang ORDER BY split, lang
"""


def shuffled_shard_assignment_documents(sf_dir: str) -> pd.DataFrame:
    """Deterministic global shuffle for training-shard layout: each doc
    gets ``shard = md5(doc_id) % 8`` and a position = rank of its md5
    hash within the shard — a reproducible random permutation (the
    training-data answer to ``random_shuffle``'s nondeterminism: rerun,
    resume, and the oracle all see the same order).  ONE bucketed
    exchange on shard; within-shard ranking is reducer-local, so the
    shard count is the memory knob — each reducer holds corpus/n_shards
    (id, hash) pairs (24 B/doc; a 10^12-doc corpus wants thousands of
    shards, which is also the shard-file layout training wants).  At
    100 TB each shard reducer streams its ordered docs straight to a
    shard file (here: only the assignment is emitted).  Fully
    value-oracled via the md5_number_lower twin."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def hash_batch(batch: pd.DataFrame) -> pd.DataFrame:
        h = md5_lower64_batch(batch["doc_id"].astype(str).to_numpy())
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy().astype(np.int64),
                "shard": (h % np.uint64(8)).astype(np.int64),
                # signed twin of the uint64 hash (the DuckDB BIGINT cast
                # convention) so the rank ORDER BY matches the oracle
                "h": h.astype(np.int64),
            }
        )

    def rank_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["shard", "h", "doc_id"]).reset_index(drop=True)
        out = []
        for shard, sub in g.groupby("shard", sort=False):
            out.append(
                pd.DataFrame(
                    {
                        "doc_id": sub["doc_id"].to_numpy(),
                        "shard": np.full(len(sub), shard, dtype=np.int64),
                        "pos": np.arange(1, len(sub) + 1, dtype=np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    out = bucketed_groupby(
        ds.map_batches(hash_batch, batch_format="pandas"), ["shard"], lambda b: b, rank_shard
    ).to_pandas()
    return out.sort_values(["shard", "pos"]).reset_index(drop=True)


_SHUFFLED_SHARDS_SQL = """
WITH h AS (
  SELECT doc_id,
    CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 8 AS BIGINT) AS shard,
    CAST(CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) > 9223372036854775807
              THEN md5_number_lower(CAST(doc_id AS VARCHAR)) - 18446744073709551616
              ELSE md5_number_lower(CAST(doc_id AS VARCHAR)) END AS BIGINT) AS hs
  FROM documents
)
SELECT doc_id, shard,
       CAST(ROW_NUMBER() OVER (PARTITION BY shard ORDER BY hs, doc_id) AS BIGINT) AS pos
FROM h ORDER BY shard, pos
"""


def events_hourly_gapfilled(sf_dir: str) -> pd.DataFrame:
    """Gap-filled hourly purchase counts (time-series densification —
    resample semantics): sparse per-batch (hour, count) partials fold on
    the driver, then join onto the dense hour calendar spanning
    [min, max] with zero-filled gaps.  The calendar is OUTPUT-sized
    (bounded by the time range, never by row count), so driver-side
    densification is the scale-correct shape; the scan itself streams
    with a column-pruned filter and ships <= hours-per-block rows."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        kept = batch.loc[batch["event_type"] == "purchase", "ts"].dt.floor("h")
        g = kept.value_counts().sort_index()
        return pd.DataFrame({"hour": g.index, "n_events": g.to_numpy().astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({"hour": pd.Series([], dtype="datetime64[us]"),
                             "n_events": pd.Series([], dtype=np.int64)})
    agg = parts.groupby("hour", as_index=False)["n_events"].sum()
    cal = pd.date_range(agg["hour"].min(), agg["hour"].max(), freq="h")
    out = (
        pd.DataFrame({"hour": cal})
        .merge(agg, on="hour", how="left")
        .fillna({"n_events": 0})
    )
    out["n_events"] = out["n_events"].astype(np.int64)
    return out.reset_index(drop=True)


_GAPFILL_SQL = """
WITH bounds AS (
  SELECT date_trunc('hour', MIN(ts)) AS lo, date_trunc('hour', MAX(ts)) AS hi
  FROM events WHERE event_type = 'purchase'
), cal AS (
  SELECT unnest(generate_series((SELECT lo FROM bounds), (SELECT hi FROM bounds),
                INTERVAL 1 HOUR)) AS hour
), agg AS (
  SELECT date_trunc('hour', ts) AS hour, COUNT(*) AS c
  FROM events WHERE event_type = 'purchase' GROUP BY 1
)
SELECT cal.hour, CAST(COALESCE(agg.c, 0) AS BIGINT) AS n_events
FROM cal LEFT JOIN agg ON cal.hour = agg.hour ORDER BY cal.hour
"""


def salted_user_event_revenue(sf_dir: str) -> pd.DataFrame:
    """Skew-salted large join in the DRIVER GATE: per-event rows join the
    events table onto itself aggregated per user (every user's total
    value), with ``detect_hot_keys`` feeding ``bucketed_join(hot_keys=,
    salt=)`` so any user owning >= 1% of events is sprayed across salt
    buckets (probe split, build replicated).  Salting must not change
    results — the oracle is the plain SQL join; this entry puts the skew
    path itself under the per-round value gate (it was previously only
    pytest-covered)."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key
    from ndap_data_validator_ray.stages.join import bucketed_join, detect_hot_keys

    ev = _read(sf_dir, "events", columns=["user_id", "value", "event_type"])
    per_user = sum_by_key(
        ev.map_batches(
            lambda t: pa.table({"user_id": t["user_id"], "user_total": t["value"]}),
            batch_format="pyarrow",
        ),
        ["user_id"],
        ["user_total"],
    ).materialize()
    probe = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")).select(["user_id", "value"]),
        batch_format="pyarrow",
    )
    hot = detect_hot_keys(probe, "user_id", min_share=0.01)
    joined = bucketed_join(probe, per_user, on=["user_id"], how="inner", hot_keys=hot, salt=4)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("user_id", as_index=False).agg(
            purchase_value=("value", "sum"), n_purchases=("value", "size"),
            user_total=("user_total", "first"),
        )

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("user_id", as_index=False).agg(
        purchase_value=("purchase_value", "sum"), n_purchases=("n_purchases", "sum"),
        user_total=("user_total", "first"),
    )
    out["user_id"] = out["user_id"].astype(np.int64)
    out["purchase_value"] = _r2(out["purchase_value"])
    out["user_total"] = _r2(out["user_total"])
    out["n_purchases"] = out["n_purchases"].astype(np.int64)
    return out.sort_values("user_id").reset_index(drop=True)


_SALTED_JOIN_SQL = """
SELECT p.user_id,
       ROUND(SUM(p.value), 2) AS purchase_value,
       CAST(COUNT(*) AS BIGINT) AS n_purchases,
       ROUND(t.user_total, 2) AS user_total
FROM (SELECT user_id, value FROM events WHERE event_type = 'purchase') p
JOIN (SELECT user_id, SUM(value) AS user_total FROM events GROUP BY 1) t
  ON p.user_id = t.user_id
GROUP BY p.user_id, t.user_total ORDER BY p.user_id
"""


def purchase_attribution_events(sf_dir: str) -> pd.DataFrame:
    """Last-touch attribution (marketing-funnel shape): every purchase
    attributes to the same user's most recent prior click within 7 days,
    else stays unattributed — a SELF as-of join of the events table
    (clicks build side, purchases probe side) through the bucketed as-of
    stage, then a driver-side window filter.  Emits per-purchase rows
    with the attributed click timestamp (null when none qualifies)."""
    from ndap_data_validator_ray.stages.asof import bucketed_asof_join

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")).select(["event_id", "user_id", "ts"]),
        batch_format="pyarrow",
    )
    clicks = ev.map_batches(
        lambda t: pa.table(
            {
                "user_id": t.filter(pc.equal(t["event_type"], "click"))["user_id"],
                "click_ts": t.filter(pc.equal(t["event_type"], "click"))["ts"],
            }
        ),
        batch_format="pyarrow",
    )
    joined = bucketed_asof_join(
        purchases, clicks, on="ts", by="user_id", right_on="click_ts", direction="backward"
    ).to_pandas()
    window = pd.Timedelta(days=7)
    too_old = joined["click_ts"].notna() & (joined["ts"] - joined["click_ts"] > window)
    joined.loc[too_old, "click_ts"] = pd.NaT
    out = joined[["event_id", "user_id", "ts", "click_ts"]].copy()
    out["event_id"] = out["event_id"].astype(np.int64)
    out["user_id"] = out["user_id"].astype(np.int64)
    return out.sort_values("event_id").reset_index(drop=True)


_ATTRIBUTION_SQL = """
SELECT p.event_id, p.user_id, p.ts,
       CASE WHEN c.click_ts IS NOT NULL AND p.ts - c.click_ts <= INTERVAL 7 DAY
            THEN c.click_ts ELSE NULL END AS click_ts
FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase') p
ASOF LEFT JOIN (SELECT user_id, ts AS click_ts FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.click_ts
ORDER BY p.event_id
"""


def temperature_mixture_documents(sf_dir: str) -> pd.DataFrame:
    """Temperature-based mixture rebalancing (the alpha-sampling used to
    flatten language/domain skew in LLM training mixes, alpha = 0.5):
    language L is kept at rate ``sqrt(min_count / n_L)`` — the dominant
    language downsamples toward the smallest, rare ones keep everything.
    Two passes: per-batch lang-count partials fold on the driver (5
    groups — the no-shuffle rule), exact integer thresholds broadcast,
    then a pure streaming keep-filter with the stable Knuth hash (no RNG,
    identical rows on rerun/resume).  FULLY value-oracled: IEEE sqrt is
    correctly rounded in both numpy and DuckDB, so the float thresholds
    are bit-identical."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch["lang"].value_counts()
        return pd.DataFrame({"lang": g.index, "n": g.to_numpy().astype(np.int64)})

    counts = (
        ds.map_batches(count_partial, batch_format="pandas")
        .to_pandas()
        .groupby("lang", as_index=False)["n"]
        .sum()
    )
    m = np.float64(counts["n"].min())
    thr = {
        lang: np.int64(np.floor(np.sqrt(m / np.float64(n)) * np.float64(4294967296)))
        for lang, n in zip(counts["lang"], counts["n"])
    }
    thr_ref = ray.put(thr)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(thr_ref)
        h = (batch["doc_id"].to_numpy().astype(np.uint64) * np.uint64(_KNUTH32)) % np.uint64(1 << 32)
        lim = batch["lang"].map(t).to_numpy(dtype=np.uint64)
        return batch[h < lim]

    out = ds.map_batches(keep, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


_TEMPERATURE_MIXTURE_SQL = f"""
WITH counts AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY 1),
mn AS (SELECT MIN(n) AS m FROM counts),
thr AS (
  SELECT lang,
    CAST(FLOOR(sqrt(CAST((SELECT m FROM mn) AS DOUBLE) / CAST(n AS DOUBLE)) * 4294967296) AS BIGINT) AS t
  FROM counts
)
SELECT d.doc_id, d.lang FROM documents d JOIN thr ON d.lang = thr.lang
WHERE (d.doc_id * {_KNUTH32}) % 4294967296 < thr.t
ORDER BY d.doc_id
"""


def tpch_q13_customer_distribution(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 shape: distribution of customers by how many
    non-URGENT orders they placed (zero included).  Composition stress:
    filtered bucketed count-per-custkey → LEFT bucketed join onto the
    customer keys (aggregated side materialized per the schema-probe
    invariant) → tiny final distribution fold via per-batch value_counts
    partials merged on the driver."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby
    from ndap_data_validator_ray.stages.join import bucketed_join

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    filtered = orders.map_batches(
        lambda t: t.filter(pc.not_equal(t["o_orderpriority"], "1-URGENT")).select(["o_custkey"]),
        batch_format="pyarrow",
    )

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("o_custkey", as_index=False).size().rename(columns={"size": "c_count"})
        g["c_count"] = g["c_count"].astype(np.int64)
        return g.rename(columns={"o_custkey": "c_custkey"})

    def count_merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("c_custkey", as_index=False)["c_count"].sum()

    counts = bucketed_groupby(
        filtered, ["c_custkey"], count_partial, count_merge, n_buckets=16
    ).materialize()
    customers = _read(sf_dir, "customer", columns=["c_custkey"])
    joined = bucketed_join(customers, counts, on=["c_custkey"], how="left", n_buckets=16)

    def dist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["c_count"].fillna(0).astype(np.int64).value_counts()
        return pd.DataFrame(
            {"c_count": vc.index.to_numpy(np.int64), "custdist": vc.to_numpy(np.int64)}
        )

    parts = joined.map_batches(dist_partial, batch_format="pandas").to_pandas()
    out = parts.groupby("c_count", as_index=False)["custdist"].sum()
    out["custdist"] = out["custdist"].astype(np.int64)
    return out.sort_values(["custdist", "c_count"], ascending=False).reset_index(drop=True)


_TPCH_Q13_SQL = """
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist FROM (
  SELECT c.c_custkey, CAST(COUNT(o.o_custkey) AS BIGINT) AS c_count
  FROM customer c LEFT OUTER JOIN orders o
    ON c.c_custkey = o.o_custkey AND o.o_orderpriority <> '1-URGENT'
  GROUP BY c.c_custkey
) GROUP BY c_count ORDER BY custdist DESC, c_count DESC
"""


def reconcile_order_snapshots(sf_dir: str) -> pd.DataFrame:
    """Snapshot reconciliation (the data-diff op between two exports of
    the same table): classify every key as only_in_a / only_in_b /
    changed / unchanged via ONE full-outer bucketed join, then fold tiny
    per-batch status counts on the driver.  The two snapshots are
    derived deterministically from orders (B drops keys %10==7, adds
    keys %10==9 that A lacks, and bumps prices on keys %10==3) so the
    SQL twin sees byte-identical inputs."""
    from ndap_data_validator_ray.stages.join import bucketed_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def snap_a(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        keep = k % 10 != 9
        return pa.table({"k": pa.array(k[keep]), "pa": pc.filter(t["o_totalprice"], pa.array(keep))})

    def snap_b(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        keep = k % 10 != 7
        price = t["o_totalprice"].to_numpy().astype(np.float64)
        price = price + np.where(k % 10 == 3, 1.0, 0.0)
        return pa.table({"k": pa.array(k[keep]), "pb": pa.array(price[keep])})

    a = orders.map_batches(snap_a, batch_format="pyarrow")
    b = orders.map_batches(snap_b, batch_format="pyarrow")
    j = bucketed_join(a, b, on=["k"], how="outer", n_buckets=16)

    def classify(batch: pd.DataFrame) -> pd.DataFrame:
        status = np.where(
            batch["pa"].isna(),
            "only_in_b",
            np.where(
                batch["pb"].isna(),
                "only_in_a",
                np.where(batch["pa"] != batch["pb"], "changed", "unchanged"),
            ),
        )
        vc = pd.Series(status).value_counts()
        return pd.DataFrame({"status": vc.index, "n": vc.to_numpy(np.int64)})

    parts = j.map_batches(classify, batch_format="pandas").to_pandas()
    out = parts.groupby("status", as_index=False)["n"].sum()
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("status").reset_index(drop=True)


_RECONCILE_SQL = """
WITH a AS (SELECT o_orderkey AS k, o_totalprice AS pa FROM orders WHERE o_orderkey % 10 <> 9),
b AS (SELECT o_orderkey AS k,
             o_totalprice + CASE WHEN o_orderkey % 10 = 3 THEN 1.0 ELSE 0 END AS pb
      FROM orders WHERE o_orderkey % 10 <> 7)
SELECT status, CAST(COUNT(*) AS BIGINT) AS n FROM (
  SELECT CASE WHEN a.k IS NULL THEN 'only_in_b'
              WHEN b.k IS NULL THEN 'only_in_a'
              WHEN pa <> pb THEN 'changed' ELSE 'unchanged' END AS status
  FROM a FULL OUTER JOIN b ON a.k = b.k
) GROUP BY status ORDER BY status
"""


def cohort_retention_events(sf_dir: str) -> pd.DataFrame:
    """Weekly cohort-retention matrix (cohort = a user's first active
    week; cell = distinct users from that cohort active at each week
    offset).  One bucketed exchange on user_id carrying per-batch
    DEDUPED (user, week) pairs; users are disjoint across buckets so each
    bucket emits exact (cohort, offset) counts and the driver folds the
    tiny low-cardinality matrix.  Weeks are Monday-truncated via epoch-day
    arithmetic ((days + 3) // 7 — 1970-01-01 is a Thursday) to match
    DuckDB's date_trunc('week')."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        days = (batch["ts"] - pd.Timestamp(0)) // pd.Timedelta(days=1)
        w = ((days + 3) // 7).astype("int64")
        return pd.DataFrame(
            {"user_id": batch["user_id"].to_numpy(), "w": w.to_numpy()}
        ).drop_duplicates()

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        uw = part.drop_duplicates()
        cw = uw.groupby("user_id")["w"].min().rename("cw")
        uw = uw.merge(cw, on="user_id")
        uw["week_offset"] = uw["w"] - uw["cw"]
        g = uw.groupby(["cw", "week_offset"]).size().reset_index(name="n_users")
        return g

    parts = bucketed_groupby(ds, ["user_id"], partial, merge, n_buckets=16).to_pandas()
    out = parts.groupby(["cw", "week_offset"], as_index=False)["n_users"].sum()
    week_start = pd.Timestamp(0) + (out["cw"] * 7 - 3) * pd.Timedelta(days=1)
    out["cohort_week"] = week_start.dt.strftime("%Y-%m-%d")
    out["week_offset"] = out["week_offset"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return (
        out[["cohort_week", "week_offset", "n_users"]]
        .sort_values(["cohort_week", "week_offset"])
        .reset_index(drop=True)
    )


_COHORT_SQL = """
WITH uw AS (SELECT DISTINCT user_id, date_trunc('week', ts) AS w FROM events),
c AS (SELECT user_id, MIN(w) AS cw FROM uw GROUP BY 1)
SELECT strftime(c.cw, '%Y-%m-%d') AS cohort_week,
       CAST(date_diff('day', c.cw, uw.w) // 7 AS BIGINT) AS week_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM uw JOIN c ON uw.user_id = c.user_id
GROUP BY 1, 2 ORDER BY 1, 2
"""


def tpch_q18_large_orders(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q18 shape (large-volume orders): a high-cardinality groupby
    with HAVING, joined back to the fact's parent table.  Per-order
    quantity sums ride ONE bucketed exchange (per-batch pre-agg first);
    the HAVING filter shrinks the result to a small key set which is
    broadcast (ray.put once, Arrow index_in per batch) into a streaming
    orders scan — no second shuffle."""
    from ndap_data_validator_ray.stages.broadcast import attach_lookup
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        # Arrow-native pre-agg: the full block never converts to pandas
        return t.group_by("l_orderkey").aggregate([("l_quantity", "sum")]).rename_columns(
            ["l_orderkey", "l_quantity"]
        )

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("l_orderkey", as_index=False)["l_quantity"].sum()
        return g[g["l_quantity"] > 250.0]

    heavy = bucketed_groupby(
        li, ["l_orderkey"], partial, merge, n_buckets=32, partial_format="pyarrow"
    ).to_pandas()
    cols = ["o_orderkey", "o_custkey", "o_orderdate", "total_qty"]
    if heavy.empty:
        return pd.DataFrame({c: pd.Series(dtype="object") for c in cols})
    qty = dict(
        zip(heavy["l_orderkey"].astype("int64"), heavy["l_quantity"].astype(np.float64))
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    tagged = attach_lookup(orders, qty, "o_orderkey", "total_qty")
    out = tagged.map_batches(
        lambda t: t.drop_null(), batch_format="pyarrow"
    ).to_pandas()
    out["o_orderdate"] = pd.to_datetime(out["o_orderdate"]).dt.strftime("%Y-%m-%d")
    out["total_qty"] = _r2(out["total_qty"])
    return (
        out[cols]
        .sort_values(["total_qty", "o_orderkey"], ascending=[False, True])
        .reset_index(drop=True)
    )


_TPCH_Q18_SQL = """
SELECT o_orderkey, o_custkey, strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
       ROUND(SUM(l_quantity), 2) AS total_qty
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
GROUP BY 1, 2, 3
HAVING SUM(l_quantity) > 250
ORDER BY total_qty DESC, o_orderkey
"""


# Broadcast-vs-shuffle switch for Q10's windowed orders side: below the cap
# the window rows are collected into a driver dict and broadcast (ray.put);
# above it they stay distributed and the fact pays a bucketed hash join
# (round-4 verdict item 2 — the fallback the docstring promised now exists).
# ~24 bytes/row -> the default caps driver memory at ~120 MB.
_Q10_BROADCAST_CAP = 5_000_000


def tpch_q10_returned_items(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q10 shape (returned-item revenue, top-20 customers): the
    3-month date window keeps ~4% of orders — a bounded small side, so it
    is broadcast ONCE (ray.put, Arrow index_in per batch — the Q18
    attach_lookup pattern) into a streaming Arrow lineitem scan instead of
    paying a bucketed exchange of the fact.  The scan filters R-flagged
    rows, computes revenue, and tags each row with its window customer (or
    null -> dropped); per-customer sums then ride ONE key-bounded bucketed
    exchange of tiny partials, the distributed top-20 (per-block local
    top-k, driver merge) leaves 20 rows, and customer/nation attributes
    attach from dim-side scans filtered to those keys (dims never
    shuffle).  The window side is GUARDED: its exact row count (metadata
    on the materialized filter output) is checked against
    ``_Q10_BROADCAST_CAP``; above the cap the window never visits the
    driver and the fact joins it through the shared
    ``stages/broadcast.attach_or_join`` stage's bucketed-join path
    (equivalence pinned by ``test_q10_join_fallback``)."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-04-01")

    def window_orders(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"]
        lo_s = pa.scalar(lo.to_pydatetime()).cast(d.type)
        hi_s = pa.scalar(hi.to_pydatetime()).cast(d.type)
        mask = pc.and_(pc.greater_equal(d, lo_s), pc.less(d, hi_s))
        return t.filter(mask).select(["o_orderkey", "o_custkey"])

    win_ds = (
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
        .map_batches(window_orders, batch_format="pyarrow")
        .materialize()
    )
    n_win = win_ds.count()
    cols = ["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"]
    if n_win == 0:
        return pd.DataFrame({c: pd.Series(dtype="object") for c in cols})

    def li_revenue(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t["l_returnflag"], "R"))
        rev = pc.multiply(kept["l_extendedprice"], pc.subtract(pa.scalar(1.0), kept["l_discount"]))
        return pa.table({"l_orderkey": kept["l_orderkey"], "revenue": rev})

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"])
    rev = li.map_batches(li_revenue, batch_format="pyarrow")
    # shared guarded attach (stages/broadcast.attach_or_join): broadcast
    # under the cap, bucketed hash join above it
    fact = attach_or_join(
        rev, win_ds, "l_orderkey", "o_orderkey", ["o_custkey"], cap=_Q10_BROADCAST_CAP
    ).map_batches(lambda b: b[["o_custkey", "revenue"]], batch_format="pandas")
    per_cust = sum_by_key(fact, ["o_custkey"], ["revenue"])

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(revenue=_r2(batch["revenue"]))
        return batch.sort_values(["revenue", "o_custkey"], ascending=[False, True]).head(20)

    top = local_topk(per_cust.map_batches(local_topk, batch_format="pandas").to_pandas())
    keys = np.sort(top["o_custkey"].to_numpy().astype(np.int64))
    cust = (
        _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
        .map_batches(
            lambda b: b[np.isin(b["c_custkey"].to_numpy(), keys)], batch_format="pandas"
        )
        .to_pandas()
    )
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    out = top.merge(cust, left_on="o_custkey", right_on="c_custkey").merge(
        nation, left_on="c_nationkey", right_on="n_nationkey"
    )
    out["c_acctbal"] = _r2(out["c_acctbal"])
    out = out.sort_values(["revenue", "c_custkey"], ascending=[False, True])
    return out[["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"]].reset_index(drop=True)


_TPCH_Q10_SQL = """
SELECT c_custkey, c_name, revenue, ROUND(c_acctbal, 2) AS c_acctbal, n_name
FROM (
  SELECT o.o_custkey, ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
  FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  WHERE o.o_orderdate >= TIMESTAMP '1996-01-01' AND o.o_orderdate < TIMESTAMP '1996-04-01'
    AND l.l_returnflag = 'R'
  GROUP BY 1 ORDER BY revenue DESC, o_custkey LIMIT 20
) t
JOIN customer c ON c.c_custkey = t.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
ORDER BY revenue DESC, c_custkey
"""


def tpch_q6_forecast_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 shape (pure filter aggregation — the simplest possible
    distributed plan): one column-pruned Arrow scan, the whole predicate
    evaluated as compute kernels per batch, ONE float per block to the
    driver.  No shuffle of any kind; at 100 TB this is read-bandwidth
    bound by construction."""
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"]
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(d, pa.scalar(lo.to_pydatetime()).cast(d.type)),
                pc.less(d, pa.scalar(hi.to_pydatetime()).cast(d.type)),
            ),
            pc.and_(
                pc.and_(
                    pc.greater_equal(t["l_discount"], pa.scalar(0.05)),
                    pc.less_equal(t["l_discount"], pa.scalar(0.07)),
                ),
                pc.less(t["l_quantity"], pa.scalar(24.0)),
            ),
        )
        kept = t.filter(mask)
        rev = pc.sum(pc.multiply(kept["l_extendedprice"], kept["l_discount"])).as_py()
        return pa.table({"rev": pa.array([float(rev or 0.0)], pa.float64())})

    parts = (
        _read(sf_dir, "lineitem", columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    return pd.DataFrame({"revenue": _r2([parts["rev"].sum()])})


_TPCH_Q6_SQL = """
SELECT ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue FROM lineitem
WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


def tpch_q4_order_priority(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4 shape (correlated EXISTS semi-join): count Q3-1996 orders,
    per priority, having at least one line shipped >60 days after the
    order date (the fixture has no l_commitdate; the late-shipment
    predicate keeps the correlated order-attribute comparison).  Shape:
    the date-windowed orders side (~4% of orders, orderkey ->
    orderdate,priority) attaches to the lineitem scan via
    ``stages/broadcast.attach_or_join`` (row-count-guarded broadcast vs
    bucketed join — the generalized Q10 guard; both paths
    equivalence-tested); late lines collapse to per-batch DISTINCT
    (orderkey, priority) pairs; ONE bucketed exchange dedupes them
    globally (semi-join multiplicity collapse); the 5-group priority
    count folds on the driver."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    lo, hi = pd.Timestamp("1996-07-01"), pd.Timestamp("1996-10-01")

    def window_orders(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"]
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo.to_pydatetime()).cast(d.type)),
            pc.less(d, pa.scalar(hi.to_pydatetime()).cast(d.type)),
        )
        kept = t.filter(mask)
        odate_ns = kept["o_orderdate"].to_numpy().astype("datetime64[ns]").astype(np.int64)
        return pa.table(
            {
                "o_orderkey": kept["o_orderkey"],
                "odate_ns": pa.array(odate_ns, pa.int64()),
                "o_orderpriority": kept["o_orderpriority"],
            }
        )

    win_ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]).map_batches(
        window_orders, batch_format="pyarrow"
    )
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"]).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "ship_ns": pa.array(
                    t["l_shipdate"].to_numpy().astype("datetime64[ns]").astype(np.int64), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    joined = attach_or_join(li, win_ds, "l_orderkey", "o_orderkey", ["odate_ns", "o_orderpriority"])
    sixty_days_ns = np.int64(60 * 24 * 3600 * 1_000_000_000)

    def late_pairs(b: pd.DataFrame) -> pd.DataFrame:
        late = b[b["ship_ns"].to_numpy() > b["odate_ns"].to_numpy() + sixty_days_ns]
        return late[["l_orderkey", "o_orderpriority"]].drop_duplicates()

    distinct = bucketed_groupby(
        joined.map_batches(late_pairs, batch_format="pandas"),
        ["l_orderkey"],
        lambda b: b.drop_duplicates(subset=["l_orderkey"]),
        lambda g: g.drop_duplicates(subset=["l_orderkey"]),
    ).to_pandas()
    counts = distinct["o_orderpriority"].value_counts().sort_index()
    return pd.DataFrame(
        {"o_orderpriority": counts.index.to_numpy(), "order_count": counts.to_numpy().astype(np.int64)}
    )


_TPCH_Q4_SQL = """
SELECT o_orderpriority, COUNT(*) AS order_count FROM orders o
WHERE o_orderdate >= DATE '1996-07-01' AND o_orderdate < DATE '1996-10-01'
  AND EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
  )
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def tpch_q14_promo_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14 shape (promo revenue %): part is a DIM — its
    (partkey -> is_promo) map broadcasts once as sorted arrays; the
    date-windowed lineitem scan computes both the promo and total revenue
    sums per batch (two floats per block to the driver).  No shuffle."""
    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"]).to_pandas().sort_values("p_partkey")
    pref = ray.put(
        (part["p_partkey"].to_numpy().astype(np.int64), (part["p_type"] == "PROMO").to_numpy())
    )
    lo, hi = pd.Timestamp("1996-03-01"), pd.Timestamp("1996-04-01")

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"]
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo.to_pydatetime()).cast(d.type)),
            pc.less(d, pa.scalar(hi.to_pydatetime()).cast(d.type)),
        )
        kept = t.filter(mask)
        pk = kept["l_partkey"].to_numpy()
        keys, is_promo = ray.get(pref)
        pos = np.clip(np.searchsorted(keys, pk), 0, max(len(keys) - 1, 0))
        hit = keys[pos] == pk if len(keys) else np.zeros(len(pk), dtype=bool)
        rev = (kept["l_extendedprice"].to_numpy() * (1.0 - kept["l_discount"].to_numpy()))[hit]
        promo = is_promo[pos[hit]]
        return pa.table(
            {
                "promo_rev": pa.array([float(rev[promo].sum())], pa.float64()),
                "total_rev": pa.array([float(rev.sum())], pa.float64()),
            }
        )

    parts = (
        _read(sf_dir, "lineitem", columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    total = parts["total_rev"].sum()
    pct = 100.0 * parts["promo_rev"].sum() / total if total else 0.0
    return pd.DataFrame({"promo_pct": _r6([pct])})


_TPCH_Q14_SQL = """
SELECT ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO' THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
             / SUM(l_extendedprice * (1 - l_discount)), 6) AS promo_pct
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE l_shipdate >= DATE '1996-03-01' AND l_shipdate < DATE '1996-04-01'
"""


def tpch_q19_disjunctive_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q19 shape (disjunction of brand/size/quantity conjunctions):
    part attributes broadcast as sorted arrays; each lineitem batch
    evaluates the whole OR-of-ANDs predicate vectorized (brand codes
    compared as small ints) and ships one partial sum to the driver.
    The canonical 'predicate too complex to push down' join becomes a
    broadcast lookup + boolean algebra — no shuffle."""
    part = (
        _read(sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"])
        .to_pandas()
        .sort_values("p_partkey")
    )
    brands = ["Brand#12", "Brand#23", "Brand#34"]
    bcode = part["p_brand"].map({b: i for i, b in enumerate(brands)}).fillna(-1).to_numpy(np.int64)
    pref = ray.put(
        (part["p_partkey"].to_numpy().astype(np.int64), bcode, part["p_size"].to_numpy().astype(np.int64))
    )

    def partial(t: pa.Table) -> pa.Table:
        keys, code, size = ray.get(pref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, max(len(keys) - 1, 0))
        hit = keys[pos] == pk if len(keys) else np.zeros(len(pk), dtype=bool)
        qty = t["l_quantity"].to_numpy()
        c, s = code[pos], size[pos]
        pred = hit & (
            ((c == 0) & (s >= 1) & (s <= 15) & (qty >= 1) & (qty <= 20))
            | ((c == 1) & (s >= 1) & (s <= 20) & (qty >= 5) & (qty <= 30))
            | ((c == 2) & (s >= 1) & (s <= 25) & (qty >= 10) & (qty <= 40))
        )
        rev = (t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy()))[pred]
        return pa.table({"rev": pa.array([float(rev.sum())], pa.float64())})

    parts = (
        _read(sf_dir, "lineitem", columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    return pd.DataFrame({"revenue": _r2([parts["rev"].sum()])})


_TPCH_Q19_SQL = """
SELECT ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 15 AND l_quantity BETWEEN 1 AND 20)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 20 AND l_quantity BETWEEN 5 AND 30)
   OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 25 AND l_quantity BETWEEN 10 AND 40)
"""


def tpch_q16_supplier_counts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q16 shape (COUNT DISTINCT across a join): suppliers per
    (brand, type) over parts of size 1-15, brand != Brand#45, with
    lineitem as the part<->supplier bridge (the fixture has no partsupp
    table).  Shape: part attrs broadcast; the lineitem scan emits
    per-batch DISTINCT (brand, type, suppkey) triples (the combiner that
    makes a distinct-count shuffle-cheap); ONE bucketed exchange on
    (brand, type) dedupes globally and counts."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    part = (
        _read(sf_dir, "part", columns=["p_partkey", "p_brand", "p_type", "p_size"])
        .to_pandas()
        .sort_values("p_partkey")
    )
    part = part[(part["p_size"] >= 1) & (part["p_size"] <= 15) & (part["p_brand"] != "Brand#45")]
    pref = ray.put(
        (
            part["p_partkey"].to_numpy().astype(np.int64),
            part["p_brand"].to_numpy(),
            part["p_type"].to_numpy(),
        )
    )

    def triples(batch: pd.DataFrame) -> pd.DataFrame:
        keys, brand, ptype = ray.get(pref)
        pk = batch["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, max(len(keys) - 1, 0))
        hit = keys[pos] == pk if len(keys) else np.zeros(len(pk), dtype=bool)
        out = pd.DataFrame(
            {
                "p_brand": brand[pos[hit]],
                "p_type": ptype[pos[hit]],
                "l_suppkey": batch["l_suppkey"].to_numpy()[hit].astype(np.int64),
            }
        )
        return out.drop_duplicates()

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates()
        out = d.groupby(["p_brand", "p_type"], as_index=False)["l_suppkey"].nunique()
        return out.rename(columns={"l_suppkey": "supplier_cnt"})

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])
    out = bucketed_groupby(li.map_batches(triples, batch_format="pandas"),
                           ["p_brand", "p_type"], lambda b: b, count_distinct).to_pandas()
    out["supplier_cnt"] = out["supplier_cnt"].astype(np.int64)
    return out.sort_values(
        ["supplier_cnt", "p_brand", "p_type"], ascending=[False, True, True]
    ).reset_index(drop=True)


_TPCH_Q16_SQL = """
SELECT p_brand, p_type, COUNT(DISTINCT l_suppkey) AS supplier_cnt
FROM part JOIN lineitem ON p_partkey = l_partkey
WHERE p_size BETWEEN 1 AND 15 AND p_brand <> 'Brand#45'
GROUP BY p_brand, p_type ORDER BY supplier_cnt DESC, p_brand, p_type
"""


def tpch_q7_volume_shipping(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7 shape (two-nation trade volume by year, six tables):
    supplier dim broadcast; customers resolve through a filtered orders
    scan into an (orderkey -> cust-nation) map that attaches via
    ``stages/broadcast.attach_or_join`` — its EXACT row count picks
    broadcast (bounded here at ~2/25 of orders) vs a bucketed hash join,
    so the map can never outgrow the driver (the generalized Q10 guard;
    both paths equivalence-tested).  The lineitem scan filters on the
    supplier side and folds (supp_nation, cust_nation, year) partials —
    at most a handful of groups per block — on the driver."""
    nation = _read(sf_dir, "nation").to_pandas()
    pair = nation[nation["n_name"].isin(["NATION_18", "NATION_19"])]
    nkeys = pair["n_nationkey"].to_numpy()
    name_of = dict(zip(pair["n_nationkey"], pair["n_name"]))

    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sup = sup[sup["s_nationkey"].isin(nkeys)].sort_values("s_suppkey")
    sref = ray.put((sup["s_suppkey"].to_numpy().astype(np.int64), sup["s_nationkey"].to_numpy().astype(np.int64)))

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust[cust["c_nationkey"].isin(nkeys)].sort_values("c_custkey")
    cref = ray.put((cust["c_custkey"].to_numpy().astype(np.int64), cust["c_nationkey"].to_numpy().astype(np.int64)))

    def orders_map(t: pa.Table) -> pa.Table:
        ck, cn = ray.get(cref)
        ok = t["o_custkey"].to_numpy()
        pos = np.clip(np.searchsorted(ck, ok), 0, max(len(ck) - 1, 0))
        hit = ck[pos] == ok if len(ck) else np.zeros(len(ok), dtype=bool)
        return pa.table(
            {
                "o_orderkey": pa.array(t["o_orderkey"].to_numpy()[hit], pa.int64()),
                "c_nat": pa.array(cn[pos[hit]], pa.int64()),
            }
        )

    omap_ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]).map_batches(
        orders_map, batch_format="pyarrow"
    )
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")

    def supp_side(t: pa.Table) -> pa.Table:
        sk, sn = ray.get(sref)
        d = t["l_shipdate"]
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo.to_pydatetime()).cast(d.type)),
            pc.less(d, pa.scalar(hi.to_pydatetime()).cast(d.type)),
        )
        kept = t.filter(mask)
        lk = kept["l_suppkey"].to_numpy()
        spos = np.clip(np.searchsorted(sk, lk), 0, max(len(sk) - 1, 0))
        shit = sk[spos] == lk if len(sk) else np.zeros(len(lk), dtype=bool)
        year = kept["l_shipdate"].to_numpy().astype("datetime64[Y]").astype(np.int64)[shit] + 1970
        rev = (kept["l_extendedprice"].to_numpy() * (1.0 - kept["l_discount"].to_numpy()))[shit]
        return pa.table(
            {
                "l_orderkey": pa.array(kept["l_orderkey"].to_numpy()[shit], pa.int64()),
                "s_nat": pa.array(sn[spos[shit]], pa.int64()),
                "l_year": pa.array(year, pa.int64()),
                "rev": pa.array(rev, pa.float64()),
            }
        )

    from ndap_data_validator_ray.stages.broadcast import attach_or_join

    fact = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(supp_side, batch_format="pyarrow")
    joined = attach_or_join(fact, omap_ds, "l_orderkey", "o_orderkey", ["c_nat"])

    def fold_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["s_nat"] != b["c_nat"]]  # the two ends must be different nations
        if b.empty:
            return pd.DataFrame({"s_nat": [], "c_nat": [], "l_year": [], "rev": []})
        return b.groupby(["s_nat", "c_nat", "l_year"], as_index=False)["rev"].sum()

    parts = joined.map_batches(fold_partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({"supp_nation": [], "cust_nation": [], "l_year": [], "revenue": []})
    out = parts.groupby(["s_nat", "c_nat", "l_year"], as_index=False)["rev"].sum()
    out["supp_nation"] = out["s_nat"].map(name_of)
    out["cust_nation"] = out["c_nat"].map(name_of)
    out["revenue"] = _r2(out["rev"])
    out["l_year"] = out["l_year"].astype(np.int64)
    return out.sort_values(["supp_nation", "cust_nation", "l_year"]).reset_index(drop=True)[
        ["supp_nation", "cust_nation", "l_year", "revenue"]
    ]


_TPCH_Q7_SQL = """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM supplier s JOIN lineitem l ON s_suppkey = l_suppkey
     JOIN orders o ON o_orderkey = l_orderkey
     JOIN customer c ON c_custkey = o_custkey
     JOIN nation n1 ON s_nationkey = n1.n_nationkey
     JOIN nation n2 ON c_nationkey = n2.n_nationkey
WHERE ((n1.n_name = 'NATION_18' AND n2.n_name = 'NATION_19')
    OR (n1.n_name = 'NATION_19' AND n2.n_name = 'NATION_18'))
  AND l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1998-01-01'
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def tpch_q8_market_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q8 shape (market share, eight logical tables): what fraction
    of ECONOMY-part order volume shipped into NATION_19's region came
    from NATION_18 suppliers, by order year.  Shape: region→nation and
    the part filter resolve on the driver / broadcast; the customer-side
    region filter reduces orders to an (orderkey → orderyear) map that
    attaches via ``attach_or_join`` (row-count-guarded broadcast vs
    bucketed join — the generalized Q10 guard); the lineitem scan applies
    the part + supplier lookups and folds (year, is_target_nation)
    volume partials — 4 floats per block."""
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    n19 = nation.loc[nation["n_name"] == "NATION_19"].iloc[0]
    rkey = int(n19["n_regionkey"])
    region_nations = nation.loc[nation["n_regionkey"] == rkey, "n_nationkey"].to_numpy()
    target_nkey = int(nation.loc[nation["n_name"] == "NATION_18", "n_nationkey"].iloc[0])

    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"]).to_pandas()
    pkeys = np.sort(part.loc[part["p_type"] == "ECONOMY", "p_partkey"].to_numpy().astype(np.int64))
    pref = ray.put(pkeys)

    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]).to_pandas().sort_values("s_suppkey")
    sref = ray.put((sup["s_suppkey"].to_numpy().astype(np.int64), sup["s_nationkey"].to_numpy().astype(np.int64)))

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).to_pandas()
    ckeys = np.sort(cust.loc[cust["c_nationkey"].isin(region_nations), "c_custkey"].to_numpy().astype(np.int64))
    cref = ray.put(ckeys)
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")

    def orders_map(t: pa.Table) -> pa.Table:
        ck = ray.get(cref)
        d = t["o_orderdate"]
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo.to_pydatetime()).cast(d.type)),
            pc.less(d, pa.scalar(hi.to_pydatetime()).cast(d.type)),
        )
        kept = t.filter(mask)
        ok = kept["o_custkey"].to_numpy()
        pos = np.clip(np.searchsorted(ck, ok), 0, max(len(ck) - 1, 0))
        hit = ck[pos] == ok if len(ck) else np.zeros(len(ok), dtype=bool)
        year = kept["o_orderdate"].to_numpy().astype("datetime64[Y]").astype(np.int64)[hit] + 1970
        return pa.table(
            {
                "o_orderkey": pa.array(kept["o_orderkey"].to_numpy()[hit], pa.int64()),
                "y": pa.array(year, pa.int64()),
            }
        )

    omap_ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        orders_map, batch_format="pyarrow"
    )

    def part_supp_side(t: pa.Table) -> pa.Table:
        pk_set = ray.get(pref)
        sk, sn = ray.get(sref)
        pk = t["l_partkey"].to_numpy()
        ppos = np.clip(np.searchsorted(pk_set, pk), 0, max(len(pk_set) - 1, 0))
        phit = pk_set[ppos] == pk if len(pk_set) else np.zeros(len(pk), dtype=bool)
        lk = t["l_suppkey"].to_numpy()[phit]
        spos = np.clip(np.searchsorted(sk, lk), 0, max(len(sk) - 1, 0))
        snat = sn[spos]
        vol = (t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy()))[phit]
        return pa.table(
            {
                "l_orderkey": pa.array(t["l_orderkey"].to_numpy()[phit], pa.int64()),
                "target_vol": pa.array(np.where(snat == target_nkey, vol, 0.0), pa.float64()),
                "total_vol": pa.array(vol, pa.float64()),
            }
        )

    from ndap_data_validator_ray.stages.broadcast import attach_or_join

    fact = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(part_supp_side, batch_format="pyarrow")
    joined = attach_or_join(fact, omap_ds, "l_orderkey", "o_orderkey", ["y"])

    parts = joined.map_batches(
        lambda b: b.groupby("y", as_index=False)[["target_vol", "total_vol"]].sum(),
        batch_format="pandas",
    ).to_pandas()
    if parts.empty:
        return pd.DataFrame({"y": pd.Series([], dtype=np.int64), "share": pd.Series([], dtype=np.float64)})
    out = parts.groupby("y", as_index=False)[["target_vol", "total_vol"]].sum()
    out["share"] = _r6(out["target_vol"] / out["total_vol"])
    out["y"] = out["y"].astype(np.int64)
    return out.sort_values("y").reset_index(drop=True)[["y", "share"]]


_TPCH_Q8_SQL = """
SELECT y, ROUND(SUM(CASE WHEN supp_nat = 'NATION_18' THEN volume ELSE 0 END) / SUM(volume), 6) AS share
FROM (
  SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS y,
         l_extendedprice * (1 - l_discount) AS volume, n1.n_name AS supp_nat
  FROM part JOIN lineitem ON p_partkey = l_partkey
       JOIN supplier s ON s_suppkey = l_suppkey
       JOIN nation n1 ON s.s_nationkey = n1.n_nationkey
       JOIN orders o ON o_orderkey = l_orderkey
       JOIN customer c ON c_custkey = o_custkey
       JOIN nation n2 ON c.c_nationkey = n2.n_nationkey
       JOIN region r ON n2.n_regionkey = r_regionkey
  WHERE r.r_name = (SELECT r2.r_name FROM region r2 JOIN nation n3 ON n3.n_regionkey = r2.r_regionkey
                    WHERE n3.n_name = 'NATION_19')
    AND p_type = 'ECONOMY'
    AND o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1998-01-01'
) GROUP BY y ORDER BY y
"""


def tpch_q15_top_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15 shape (aggregate → global max → join back): supplier(s)
    with the maximum 3-month revenue.  Per-supplier revenue rides one
    bucketed exchange of pre-aggregated partials; the global max is a
    one-float driver fold over per-bucket maxima; the winners (usually
    1 row) attach supplier attributes from a key-filtered dim scan —
    the Q18 HAVING-join-back family with a scalar subquery instead of a
    threshold."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-04-01")

    def rev_rows(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"]
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo.to_pydatetime()).cast(d.type)),
            pc.less(d, pa.scalar(hi.to_pydatetime()).cast(d.type)),
        )
        kept = t.filter(mask)
        rev = pc.multiply(kept["l_extendedprice"], pc.subtract(pa.scalar(1.0), kept["l_discount"]))
        return pa.table({"l_suppkey": kept["l_suppkey"], "total_rev": rev})

    li = _read(sf_dir, "lineitem", columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"])
    per_supp = sum_by_key(li.map_batches(rev_rows, batch_format="pyarrow"), ["l_suppkey"], ["total_rev"]).to_pandas()
    if per_supp.empty:
        return pd.DataFrame({"s_suppkey": [], "s_name": [], "total_rev": []})
    best = per_supp[per_supp["total_rev"] == per_supp["total_rev"].max()]
    keys = np.sort(best["l_suppkey"].to_numpy().astype(np.int64))
    sup = (
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
        .map_batches(lambda b: b[np.isin(b["s_suppkey"].to_numpy(), keys)], batch_format="pandas")
        .to_pandas()
    )
    out = sup.merge(best, left_on="s_suppkey", right_on="l_suppkey")
    out["total_rev"] = _r2(out["total_rev"])
    out["s_suppkey"] = out["s_suppkey"].astype(np.int64)
    return out.sort_values("s_suppkey").reset_index(drop=True)[["s_suppkey", "s_name", "total_rev"]]


_TPCH_Q15_SQL = """
WITH rev AS (
  SELECT l_suppkey, SUM(l_extendedprice * (1 - l_discount)) AS r FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01' GROUP BY 1
)
SELECT s_suppkey, s_name, ROUND(r, 2) AS total_rev
FROM supplier JOIN rev ON s_suppkey = l_suppkey
WHERE r = (SELECT MAX(r) FROM rev) ORDER BY s_suppkey
"""


def tpch_q17_small_quantity_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17 shape (correlated scalar subquery per group): revenue of
    Brand#23 lines whose quantity is below half that PART's average
    quantity.  Two passes over the brand-pruned slice: pass 1 folds
    per-part (sum, count) quantity moments through one bucketed exchange;
    the per-part thresholds broadcast back (sorted arrays); pass 2
    re-scans the same pruned slice and folds the qualifying revenue —
    the decorrelation every engine applies, expressed as
    aggregate→broadcast→rescan."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    part = _read(sf_dir, "part", columns=["p_partkey", "p_brand"]).to_pandas()
    bkeys = np.sort(part.loc[part["p_brand"] == "Brand#23", "p_partkey"].to_numpy().astype(np.int64))
    bref = ray.put(bkeys)

    def brand_rows(t: pa.Table) -> pa.Table:
        ks = ray.get(bref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(ks, pk), 0, max(len(ks) - 1, 0))
        hit = ks[pos] == pk if len(ks) else np.zeros(len(pk), dtype=bool)
        return t.filter(pa.array(hit))

    li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]
    pruned = _read(sf_dir, "lineitem", columns=li_cols).map_batches(brand_rows, batch_format="pyarrow")

    def moments(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": t["l_partkey"],
                "qty_sum": t["l_quantity"],
                "qty_cnt": pa.array(np.ones(len(t), dtype=np.int64)),
            }
        )

    per_part = sum_by_key(
        pruned.map_batches(moments, batch_format="pyarrow"), ["l_partkey"], ["qty_sum", "qty_cnt"]
    ).to_pandas()
    if per_part.empty:
        return pd.DataFrame({"avg_yearly": _r2([0.0])})
    per_part = per_part.sort_values("l_partkey")
    tref = ray.put(
        (
            per_part["l_partkey"].to_numpy().astype(np.int64),
            0.5 * per_part["qty_sum"].to_numpy() / per_part["qty_cnt"].to_numpy(),
        )
    )

    def qualifying_rev(t: pa.Table) -> pa.Table:
        ks, thr = ray.get(tref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(ks, pk), 0, max(len(ks) - 1, 0))
        hit = ks[pos] == pk if len(ks) else np.zeros(len(pk), dtype=bool)
        keep = hit & (t["l_quantity"].to_numpy() < thr[pos])
        return pa.table({"rev": pa.array([float(t["l_extendedprice"].to_numpy()[keep].sum())], pa.float64())})

    parts = pruned.map_batches(qualifying_rev, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({"avg_yearly": _r2([parts["rev"].sum() / 7.0])})


_TPCH_Q17_SQL = """
SELECT ROUND(SUM(l_extendedprice) / 7.0, 2) AS avg_yearly
FROM lineitem l JOIN part p ON p_partkey = l_partkey
WHERE p_brand = 'Brand#23'
  AND l_quantity < (SELECT 0.5 * AVG(l2.l_quantity) FROM lineitem l2 WHERE l2.l_partkey = l.l_partkey)
"""


def embedding_near_dup_exact(sf_dir: str) -> pd.DataFrame:
    """EXACT embedding-cosine near-dup pairs on a keyed subset (vec_id
    even, threshold 0.3 — nonzero on this corpus, whose max cosine is
    ~0.51): the thresholded tile-pair triangle join
    (``similarity.exact_cosine_threshold_pairs``) — the fully-oracled
    exact twin of the hyperplane-LSH ``embedding_near_dup_pairs`` path."""
    from ndap_data_validator_ray.stages.similarity import exact_cosine_threshold_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]).map_batches(
        lambda t: t.filter(pa.array(t["vec_id"].to_numpy() % 2 == 0)), batch_format="pyarrow"
    )
    out = exact_cosine_threshold_pairs(ds, threshold=0.3, tiles=4)
    return pd.DataFrame(
        {
            "id_a": out["id_a"].astype("int64"),
            "id_b": out["id_b"].astype("int64"),
            "cos_sim": _r6(out["sim"]),
        }
    )


_EMB_NEAR_DUP_EXACT_SQL = """
WITH v AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e
  FROM embeddings WHERE vec_id % 2 = 0
)
SELECT id_a, id_b, cos_sim FROM (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b,
         list_cosine_similarity(a.e, b.e) AS raw,
         ROUND(list_cosine_similarity(a.e, b.e), 6) AS cos_sim
  FROM v a JOIN v b ON a.vec_id < b.vec_id
) WHERE raw >= 0.3 ORDER BY id_a, id_b
"""


def peak_concurrent_users_events(sf_dir: str) -> pd.DataFrame:
    """Peak concurrent users per day (interval-overlap / sweep-line op):
    each user's daily activity interval [first ts, last ts] becomes a
    (+1 at start, -1 at end) point pair; a DISTRIBUTED global running sum
    over (ts asc, delta desc) — range-partitioned sort with exact per-range
    prefix sums, `stages/sort.global_running_sum` — yields the concurrency
    at every change point, and per-day maxima fold on the driver.  Ties
    order arrivals before departures so touching intervals count as
    concurrent; intervals never cross midnight by construction so the
    running sum returns to zero at each day boundary."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby
    from ndap_data_validator_ray.stages.sort import global_running_sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = (
            batch.assign(day=batch["ts"].dt.floor("D"))
            .groupby(["user_id", "day"], as_index=False)["ts"]
            .agg(s="min", e="max")
        )
        return g

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(["user_id", "day"], as_index=False).agg(
            s=("s", "min"), e=("e", "max")
        )

    iv = bucketed_groupby(ds, ["user_id"], partial, merge, n_buckets=16)

    def to_points(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "day": np.concatenate([batch["day"], batch["day"]]),
                "ts": np.concatenate([batch["s"], batch["e"]]),
                "delta": np.concatenate(
                    [
                        np.ones(len(batch), dtype=np.int64),
                        -np.ones(len(batch), dtype=np.int64),
                    ]
                ),
            }
        )

    pts = iv.map_batches(to_points, batch_format="pandas")
    run = global_running_sum(
        pts, order_by=["ts", "delta"], ascending=[True, False], val="delta", out="conc"
    )

    def day_max(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("day", as_index=False)["conc"].max()
        return g

    parts = run.map_batches(day_max, batch_format="pandas").to_pandas()
    out = parts.groupby("day", as_index=False)["conc"].max()
    out["day"] = pd.to_datetime(out["day"]).dt.strftime("%Y-%m-%d")
    out["peak_users"] = out["conc"].astype("int64")
    return out[["day", "peak_users"]].sort_values("day").reset_index(drop=True)


_PEAK_CONC_SQL = """
WITH iv AS (
  SELECT user_id, date_trunc('day', ts) AS day, MIN(ts) AS s, MAX(ts) AS e
  FROM events GROUP BY 1, 2
), pts AS (
  SELECT day, s AS ts, 1 AS delta FROM iv
  UNION ALL
  SELECT day, e AS ts, -1 AS delta FROM iv
), run AS (
  SELECT day, SUM(delta) OVER (ORDER BY ts, delta DESC ROWS UNBOUNDED PRECEDING) AS conc
  FROM pts
)
SELECT strftime(day, '%Y-%m-%d') AS day, CAST(MAX(conc) AS BIGINT) AS peak_users
FROM run GROUP BY 1 ORDER BY 1
"""


def funnel_conversion_events(sf_dir: str) -> pd.DataFrame:
    """Ordered funnel conversion (view → click → purchase, each step
    strictly AFTER the previous one and within a 24 h conversion window,
    per user): the sequence-matching analytics op.  Funnel-relevant rows (3 of 5 event types, three
    columns) ride ONE bucketed exchange on user_id; inside a bucket the
    step times resolve with vectorized per-user min/merge chains (no
    per-user Python loop); each bucket emits three counters and the
    driver folds O(n_buckets) rows."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    steps = ["view", "click", "purchase"]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["event_type"].isin(steps)]

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        t1 = (
            part[part["event_type"] == "view"].groupby("user_id")["ts"].min().rename("t1")
        )
        win = pd.Timedelta(hours=24)
        clicks = part[part["event_type"] == "click"].merge(t1, on="user_id")
        ok2 = (clicks["ts"] > clicks["t1"]) & (clicks["ts"] <= clicks["t1"] + win)
        t2 = clicks[ok2].groupby("user_id")["ts"].min().rename("t2")
        buys = part[part["event_type"] == "purchase"].merge(t2, on="user_id")
        ok3 = (buys["ts"] > buys["t2"]) & (buys["ts"] <= buys["t2"] + win)
        t3 = buys[ok3].groupby("user_id")["ts"].min()
        return pd.DataFrame(
            {
                "n_view": [np.int64(len(t1))],
                "n_click": [np.int64(len(t2))],
                "n_purchase": [np.int64(len(t3))],
            }
        )

    parts = bucketed_groupby(ds, ["user_id"], partial, merge, n_buckets=16).to_pandas()
    return pd.DataFrame(
        {
            "step_idx": np.arange(1, 4, dtype=np.int64),
            "step": steps,
            "n_users": [
                np.int64(parts["n_view"].sum()),
                np.int64(parts["n_click"].sum()),
                np.int64(parts["n_purchase"].sum()),
            ],
        }
    )


_FUNNEL_CONV_SQL = """
WITH v AS (SELECT user_id, MIN(ts) AS t1 FROM events WHERE event_type = 'view' GROUP BY user_id),
c AS (SELECT e.user_id, MIN(e.ts) AS t2 FROM events e JOIN v ON e.user_id = v.user_id
      WHERE e.event_type = 'click' AND e.ts > v.t1
        AND e.ts <= v.t1 + INTERVAL '24 hours' GROUP BY e.user_id),
p AS (SELECT e.user_id, MIN(e.ts) AS t3 FROM events e JOIN c ON e.user_id = c.user_id
      WHERE e.event_type = 'purchase' AND e.ts > c.t2
        AND e.ts <= c.t2 + INTERVAL '24 hours' GROUP BY e.user_id)
SELECT * FROM (
  SELECT CAST(1 AS BIGINT) AS step_idx, 'view' AS step, CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n_users
  UNION ALL
  SELECT 2, 'click', CAST((SELECT COUNT(*) FROM c) AS BIGINT)
  UNION ALL
  SELECT 3, 'purchase', CAST((SELECT COUNT(*) FROM p) AS BIGINT)
) ORDER BY step_idx
"""


def compact_latest_events(sf_dir: str) -> pd.DataFrame:
    """CDC/upsert compaction: keep the LATEST event per (user_id,
    event_type), ordered by (ts, event_id) — the keep-latest-by-key
    reduction behind changelog compaction and snapshot builds.  The
    per-batch combiner keeps at most one row per key before the ONE
    bucketed exchange, so shuffle volume is bounded by key cardinality,
    not event volume.  Timestamps are emitted as epoch microseconds so
    both sides hash identically."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"])

    def keep_latest(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.sort_values(["ts", "event_id"])
        return b.groupby(["user_id", "event_type"], as_index=False).tail(1)

    out = bucketed_groupby(
        ds, ["user_id", "event_type"], keep_latest, keep_latest, n_buckets=16
    ).to_pandas()
    out["ts_us"] = out["ts"].astype("datetime64[us]").astype(np.int64)
    out["value"] = _r6(out["value"])
    return (
        out[["user_id", "event_type", "event_id", "ts_us", "value"]]
        .sort_values(["user_id", "event_type"])
        .reset_index(drop=True)
    )


_COMPACT_LATEST_SQL = """
SELECT user_id, event_type, event_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
       ROUND(value, 6) AS value
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                   ORDER BY ts DESC, event_id DESC) AS rn
      FROM events)
WHERE rn = 1 ORDER BY user_id, event_type
"""


def curation_funnel_documents(sf_dir: str) -> pd.DataFrame:
    """END-TO-END curation funnel — the composed keep/drop decision of a
    training-data pipeline, one flag column per stage: quality filter
    (length + repetition thresholds, same semantics as
    ``filter_documents_quality``), exact prefix-40 dedup among quality
    survivors (keep lowest doc_id), and benchmark decontamination (same
    gram rule as ``decontaminate_documents``).  One streaming pass
    computes the per-doc quality + contamination flags (bench grams
    broadcast once), ONE bucketed exchange on the dedup prefix resolves
    group minima — three stages, one shuffle."""
    from ndap_data_validator_ray.functions.hashing import word_ngrams
    from ndap_data_validator_ray.functions.text import repetition_stats
    from ndap_data_validator_ray.stages.decontaminate import collect_gram_set
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    bench = docs.map_batches(
        lambda t: t.filter(pa.array(t["doc_id"].to_numpy() % 17 == 0)), batch_format="pyarrow"
    )
    grams_ref = collect_gram_set(bench, "text", 3)

    def flags(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["doc_id"] % 17 != 0]
        grams = ray.get(grams_ref)
        st = repetition_stats(batch["text"])
        q = (
            (st["n_tokens"].to_numpy() >= 20) & (st["top_token_frac"].to_numpy() <= 0.13)
        ).astype(np.int64)
        c = np.fromiter(
            (len(word_ngrams(t or "", 3) & grams) == 0 for t in batch["text"]),
            dtype=np.int64,
            count=len(batch),
        )
        return pd.DataFrame(
            {
                "prefix": batch["text"].str.slice(0, 40).to_numpy(),
                "doc_id": batch["doc_id"].to_numpy(),
                "q": q,
                "c": c,
            }
        )

    def dedup_merge(part: pd.DataFrame) -> pd.DataFrame:
        part = part.reset_index(drop=True)
        qmask = part["q"] == 1
        mins = part.loc[qmask].groupby("prefix")["doc_id"].min()
        min_for_row = part["prefix"].map(mins)
        d = (qmask & (part["doc_id"] == min_for_row)).astype(np.int64)
        out = part[["doc_id", "q", "c"]].copy()
        out["d"] = d.to_numpy()
        return out

    flagged = bucketed_groupby(
        docs.map_batches(flags, batch_format="pandas"), ["prefix"], lambda b: b, dedup_merge,
        n_buckets=16,
    ).to_pandas()
    out = pd.DataFrame(
        {
            "doc_id": flagged["doc_id"].astype(np.int64),
            "quality_keep": flagged["q"].astype(np.int64),
            "dedup_keep": (flagged["q"] * flagged["d"]).astype(np.int64),
            "final_keep": (flagged["q"] * flagged["d"] * flagged["c"]).astype(np.int64),
        }
    )
    return out.sort_values("doc_id").reset_index(drop=True)


_CURATION_FUNNEL_SQL = r"""
WITH corpus AS (SELECT doc_id, text FROM documents WHERE doc_id % 17 <> 0),
toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM corpus),
cnt AS (SELECT doc_id, term, COUNT(*) AS c FROM toks GROUP BY doc_id, term),
agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens, MAX(c) AS mx FROM cnt GROUP BY doc_id),
q AS (SELECT co.doc_id, co.text,
        CASE WHEN COALESCE(n_tokens, 0) >= 20
              AND COALESCE(CAST(mx AS DOUBLE) / n_tokens, 0.0) <= 0.13 THEN 1 ELSE 0 END AS q
      FROM corpus co LEFT JOIN agg USING (doc_id)),
ded AS (SELECT doc_id, q, text,
        CASE WHEN q = 1 AND doc_id = MIN(CASE WHEN q = 1 THEN doc_id END)
                  OVER (PARTITION BY substr(text, 1, 40)) THEN 1 ELSE 0 END AS d
        FROM q),
allg AS (SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\s+'), x -> x <> '') AS ws FROM documents),
grams AS (SELECT doc_id,
    CASE WHEN len(ws) >= 3
      THEN list_distinct(list_transform(range(1, len(ws) - 1), i -> array_to_string(ws[i:i+2], ' ')))
      WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
      ELSE CAST([] AS VARCHAR[]) END AS g
  FROM allg),
bgrams AS (SELECT DISTINCT unnest(g) AS gram FROM grams WHERE doc_id % 17 = 0),
contaminated AS (
  SELECT DISTINCT c.doc_id
  FROM (SELECT doc_id, unnest(g) AS gram FROM grams WHERE doc_id % 17 <> 0) c
  JOIN bgrams b ON c.gram = b.gram)
SELECT ded.doc_id,
       CAST(q AS BIGINT) AS quality_keep,
       CAST(q * d AS BIGINT) AS dedup_keep,
       CAST(q * d * (CASE WHEN ct.doc_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS final_keep
FROM ded LEFT JOIN contaminated ct ON ded.doc_id = ct.doc_id
ORDER BY ded.doc_id
"""


def tpch_q12_priority_by_flag(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q12 shape (join + conditional aggregation; the fixture has no
    l_shipmode/l_receiptdate, so returnflag stands in for shipmode and the
    date window sits on l_shipdate): 1996-shipped lines pick up their
    order's priority via ``stages/broadcast.attach_or_join`` (row-count
    guarded broadcast vs bucketed join — the orders map is fact-sized, so
    at real SF this takes the join path), each batch folds to per-flag
    (high, low) conditional counts, and the 3-group finish folds on the
    driver (low-cardinality rule: partials are <= 3 rows per block)."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")
    high = {"1-URGENT", "2-HIGH"}

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag", "l_shipdate"]).map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo.to_pydatetime()).cast(t["l_shipdate"].type)),
                pc.less(t["l_shipdate"], pa.scalar(hi.to_pydatetime()).cast(t["l_shipdate"].type)),
            )
        ).select(["l_orderkey", "l_returnflag"]),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = attach_or_join(li, orders, "l_orderkey", "o_orderkey", ["o_orderpriority"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        is_high = b["o_orderpriority"].isin(high).to_numpy().astype(np.int64)
        return (
            pd.DataFrame({"l_returnflag": b["l_returnflag"], "h": is_high, "l": 1 - is_high})
            .groupby("l_returnflag", as_index=False)
            .sum()
        )

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("l_returnflag", as_index=False).sum()
    return pd.DataFrame(
        {
            "l_returnflag": out["l_returnflag"],
            "high_line_count": out["h"].astype(np.int64),
            "low_line_count": out["l"].astype(np.int64),
        }
    ).sort_values("l_returnflag").reset_index(drop=True)


_TPCH_Q12_SQL = """
SELECT l_returnflag,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS BIGINT)
         AS high_line_count,
       CAST(SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS BIGINT)
         AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def tpch_q21_waiting_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q21 shape (EXISTS + NOT EXISTS over the same grouped fact):
    for finished ('F') orders, credit the supplier whose line shipped >60
    days after the order date when at least one OTHER supplier has a line
    in the order (EXISTS) and no other supplier is late (NOT EXISTS) —
    i.e. the order's unique laggard among >=2 suppliers.  The fixture has
    no l_commitdate/l_receiptdate, so lateness is ship-vs-orderdate (the
    Q4 convention).  Shape: the F-orders (orderkey -> orderdate) side
    attaches via the guarded ``attach_or_join``; per-batch partials
    collapse to DISTINCT (orderkey, suppkey, late) rows; ONE bucketed
    exchange on orderkey resolves both quantified predicates group-locally
    (supplier count + late count per order); the per-supplier count folds
    on the driver (supplier is a 100-row dim).  Top 20 by (numwait DESC,
    s_name) — names are unique, so the cut is deterministic."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    sixty_days_ns = np.int64(60 * 24 * 3600 * 1_000_000_000)

    f_orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus", "o_orderdate"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t.filter(pc.equal(t["o_orderstatus"], "F"))["o_orderkey"],
                "odate_ns": pa.array(
                    t.filter(pc.equal(t["o_orderstatus"], "F"))["o_orderdate"]
                    .to_numpy()
                    .astype("datetime64[ns]")
                    .astype(np.int64),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_shipdate"]).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_suppkey": t["l_suppkey"],
                "ship_ns": pa.array(
                    t["l_shipdate"].to_numpy().astype("datetime64[ns]").astype(np.int64), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    joined = attach_or_join(li, f_orders, "l_orderkey", "o_orderkey", ["odate_ns"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        late = (b["ship_ns"].to_numpy() > b["odate_ns"].to_numpy() + sixty_days_ns).astype(np.int64)
        return (
            pd.DataFrame({"l_orderkey": b["l_orderkey"], "l_suppkey": b["l_suppkey"], "late": late})
            .groupby(["l_orderkey", "l_suppkey"], as_index=False)["late"]
            .max()
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby(["l_orderkey", "l_suppkey"], as_index=False)["late"].max()
        stats = per.groupby("l_orderkey").agg(nsupp=("l_suppkey", "size"), nlate=("late", "sum"))
        qual = stats.index[(stats["nsupp"] >= 2) & (stats["nlate"] == 1)]
        hit = per[(per["late"] == 1) & per["l_orderkey"].isin(qual)]
        return hit[["l_suppkey"]]

    waiters = bucketed_groupby(joined, ["l_orderkey"], partial, merge, n_buckets=16).to_pandas()
    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"]).to_pandas()
    counts = waiters.groupby("l_suppkey").size().rename("numwait").reset_index()
    out = counts.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out["numwait"] = out["numwait"].astype(np.int64)
    return (
        out.sort_values(["numwait", "s_name"], ascending=[False, True])
        .head(20)
        .reset_index(drop=True)[["s_name", "numwait"]]
    )


_TPCH_Q21_SQL = """
WITH f AS (
  SELECT l.l_orderkey, l.l_suppkey,
         CASE WHEN l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY THEN 1 ELSE 0 END AS late
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE o.o_orderstatus = 'F'
), per AS (
  SELECT l_orderkey, l_suppkey, MAX(late) AS late FROM f GROUP BY 1, 2
), qual AS (
  SELECT l_orderkey, MIN(CASE WHEN late = 1 THEN l_suppkey END) AS the_supp
  FROM per GROUP BY l_orderkey
  HAVING COUNT(*) >= 2 AND SUM(late) = 1
)
SELECT s_name, COUNT(*) AS numwait
FROM qual JOIN supplier ON s_suppkey = the_supp
GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT 20
"""


def tpch_q9_product_profit(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q9 shape (profit by nation x year; the fixture has no
    partsupp, so profit is revenue l_extendedprice*(1-discount) and the
    part filter is ``p_name LIKE 'red%'`` — the 4-table star remains):
    the red-part key set and the supplier->nation map broadcast once as
    sorted arrays (dims never shuffle); the lineitem scan filters on part
    membership and attaches the nation INSIDE the batch; the fact-sized
    (orderkey -> year) map attaches via the guarded ``attach_or_join``;
    the (25 nations x ~8 years) finish folds on the driver from per-batch
    partials."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join

    part = _read(sf_dir, "part", columns=["p_partkey", "p_name"]).to_pandas()
    red_keys = np.sort(part.loc[part["p_name"].str.startswith("red"), "p_partkey"].to_numpy())
    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]).to_pandas().sort_values("s_suppkey")
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    name_of = dict(zip(nation["n_nationkey"], nation["n_name"]))
    dims_ref = ray.put((red_keys, sup["s_suppkey"].to_numpy(), sup["s_nationkey"].to_numpy()))

    def li_kept(t: pa.Table) -> pa.Table:
        red, skeys, snat = ray.get(dims_ref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(red, pk), 0, max(len(red) - 1, 0))
        hit = red[pos] == pk if len(red) else np.zeros(len(pk), dtype=bool)
        lk = t["l_suppkey"].to_numpy()[hit]
        spos = np.clip(np.searchsorted(skeys, lk), 0, max(len(skeys) - 1, 0))
        amount = (t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy()))[hit]
        return pa.table(
            {
                "l_orderkey": pa.array(t["l_orderkey"].to_numpy()[hit], pa.int64()),
                "nationkey": pa.array(snat[spos], pa.int64()),
                "amount": pa.array(amount, pa.float64()),
            }
        )

    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_kept, batch_format="pyarrow")
    years = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_year": pa.array(
                    t["o_orderdate"].to_numpy().astype("datetime64[Y]").astype(np.int64) + 1970,
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    joined = attach_or_join(li, years, "l_orderkey", "o_orderkey", ["o_year"])

    parts = joined.map_batches(
        lambda b: b.groupby(["nationkey", "o_year"], as_index=False)["amount"].sum(),
        batch_format="pandas",
    ).to_pandas()
    out = parts.groupby(["nationkey", "o_year"], as_index=False)["amount"].sum()
    out["nation"] = out["nationkey"].map(name_of)
    out["profit"] = _r2(out["amount"])
    out["o_year"] = out["o_year"].astype(np.int64)
    return (
        out.sort_values(["nation", "o_year"]).reset_index(drop=True)[["nation", "o_year", "profit"]]
    )


_TPCH_Q9_SQL = """
SELECT n_name AS nation, CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS profit
FROM lineitem
  JOIN part ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
  JOIN orders ON o_orderkey = l_orderkey
WHERE p_name LIKE 'red%'
GROUP BY 1, 2 ORDER BY 1, 2
"""


def semantic_dedup_survivors(sf_dir: str) -> pd.DataFrame:
    """SemDeDup-shaped semantic deduplication with a FULL value oracle:
    partition the embedding space into cells (here the sign pattern of the
    first two dimensions — axis hyperplanes SQL can mirror exactly; at
    100 TB the cells are k-means clusters, thousands of them, and each
    cell-group is bounded by corpus/k), find within-cell cosine>=0.3
    near-dup pairs (one bucketed exchange on cell, float64 matmul
    triangle per cell), label components with the SAME CC stage the LSH
    flow uses (this caller keeps the default ``small_graph_cap`` guard:
    a bounded edge list resolves on the driver and only the O(edges)
    component map broadcasts back over the streaming node scan; above
    the cap the distributed rounds run), and keep ONE survivor per
    cluster (min vec_id) plus every isolated vector.  DuckDB recomputes it with a
    cell-equijoined pair set and a recursive reachability CTE, so the
    partition -> pair -> CC -> keep composition is value-pinned end to
    end.  Cross-cell near-dups are missed BY DESIGN (the SemDeDup
    trade-off) — identically on both sides."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby
    from ndap_data_validator_ray.stages.similarity import _batch_matrix, _normalize

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        m = np.vstack(batch["embedding"].to_numpy())
        cell = (m[:, 0] >= 0).astype(np.int64) * 2 + (m[:, 1] >= 0).astype(np.int64)
        return pd.DataFrame(
            {"vec_id": batch["vec_id"].to_numpy(), "cell": cell, "embedding": batch["embedding"]}
        )

    def cell_pairs(group: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in group.groupby("cell", sort=False):
            g = g.drop_duplicates(subset=["vec_id"])
            ids = g["vec_id"].to_numpy().astype(np.int64)
            if len(ids) < 2:
                continue
            m = _normalize(_batch_matrix(g, "embedding"))
            sims = m @ m.T
            ii, jj = np.triu_indices(len(ids), 1)
            keep = sims[ii, jj] >= 0.3
            out.append(pd.DataFrame({"id_a": ids[ii][keep], "id_b": ids[jj][keep]}))
        if not out:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64), "id_b": pd.Series([], dtype=np.int64)})
        return pd.concat(out, ignore_index=True)

    edges = bucketed_groupby(
        ds.map_batches(tag, batch_format="pandas"), ["cell"], lambda b: b, cell_pairs, n_buckets=8
    ).materialize()
    nodes = ds.map_batches(lambda t: pa.table({"node": t["vec_id"]}), batch_format="pyarrow")
    comp = distributed_connected_components(edges, nodes=nodes).to_pandas()
    keep = comp.loc[comp["node"] == comp["component"], "node"].astype(np.int64)
    return pd.DataFrame({"vec_id": np.sort(keep.to_numpy())})


_SEMANTIC_DEDUP_SQL = """
WITH RECURSIVE v AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e,
         (CASE WHEN embedding[1] >= 0 THEN 2 ELSE 0 END)
       + (CASE WHEN embedding[2] >= 0 THEN 1 ELSE 0 END) AS cell
  FROM embeddings
), pairs AS (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b
  FROM v a JOIN v b ON a.vec_id < b.vec_id AND a.cell = b.cell
  WHERE list_cosine_similarity(a.e, b.e) >= 0.3
), edges AS (
  SELECT id_a AS u, id_b AS w FROM pairs UNION ALL SELECT id_b, id_a FROM pairs
), reach AS (
  SELECT u AS node, w AS r FROM edges
  UNION
  SELECT reach.node, e.w FROM reach JOIN edges e ON e.u = reach.r
), comp AS (
  SELECT node, LEAST(node, MIN(r)) AS component FROM reach GROUP BY node
)
SELECT vec_id FROM v LEFT JOIN comp ON node = vec_id
WHERE component IS NULL OR component = vec_id ORDER BY vec_id
"""


def boilerplate_fraction_documents(sf_dir: str) -> pd.DataFrame:
    """Corpus-level boilerplate detection (the RefinedWeb/Gopher-style
    inter-document repetition filter): for every doc, the fraction of its
    DISTINCT word-3-grams whose document frequency exceeds 5 — grams
    shared by many documents are boilerplate (headers, license blurbs,
    nav chrome).  Shape: pass 1 explodes per-doc distinct grams and
    counts document frequency with ONE bucketed exchange on the gram
    (``stages/groupby.count_by_key``); the DF>5 survivors are the
    boilerplate set — small BY CONSTRUCTION (high-DF grams are the
    distribution's thin head; same driver-size invariant as
    ``decontaminate``'s bench-gram set) — and broadcast once via
    ``ray.put``; pass 2 streams the corpus again and scores each doc
    against the broadcast set.  No driver text, two streaming passes, one
    shuffle."""
    from ndap_data_validator_ray.functions.hashing import word_ngrams
    from ndap_data_validator_ray.stages.groupby import count_by_key

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        grams: list = []
        for i, t in zip(batch["doc_id"], batch["text"]):
            g = word_ngrams(t or "", 3)
            ids.extend([i] * len(g))
            grams.extend(g)
        return pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64), "gram": grams})

    df = count_by_key(
        docs.map_batches(explode, batch_format="pandas"), ["gram"], n_buckets=16,
        partial_format="pandas",
    )
    common = df.map_batches(
        lambda b: b.loc[b["cnt"] > 5, ["gram"]], batch_format="pandas"
    ).to_pandas()
    common_ref = ray.put(frozenset(common["gram"]))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        cset = ray.get(common_ref)
        fracs = np.empty(len(batch), dtype=np.float64)
        for j, t in enumerate(batch["text"]):
            g = word_ngrams(t or "", 3)
            fracs[j] = (sum(x in cset for x in g) / len(g)) if g else 0.0
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(np.int64), "boilerplate_frac": fracs})

    out = docs.map_batches(score, batch_format="pandas").to_pandas()
    out["boilerplate_frac"] = _r6(out["boilerplate_frac"])
    return out.sort_values("doc_id").reset_index(drop=True)


_BOILERPLATE_SQL = """
WITH d AS (
  SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents
), grams AS (
  SELECT doc_id,
    CASE WHEN len(ws) >= 3
      THEN list_distinct(list_transform(range(1, len(ws) - 1), i -> array_to_string(ws[i:i+2], ' ')))
      WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
      ELSE CAST([] AS VARCHAR[]) END AS g
  FROM d
), ex AS (SELECT doc_id, unnest(g) AS gram FROM grams),
df AS (SELECT gram, COUNT(*) AS df FROM ex GROUP BY gram),
common AS (SELECT gram FROM df WHERE df > 5),
per AS (
  SELECT ex.doc_id,
         COUNT(*) AS n,
         SUM(CASE WHEN c.gram IS NOT NULL THEN 1 ELSE 0 END) AS nc
  FROM ex LEFT JOIN common c ON ex.gram = c.gram GROUP BY ex.doc_id
)
SELECT d.doc_id,
       ROUND(COALESCE(CAST(nc AS DOUBLE) / n, 0.0), 6) AS boilerplate_frac
FROM d LEFT JOIN per ON d.doc_id = per.doc_id ORDER BY d.doc_id
"""


def debounce_events(sf_dir: str) -> pd.DataFrame:
    """Streaming time-gap dedup (debounce): keep an event iff the previous
    event of the same (user_id, event_type) — ordered by (ts, event_id) —
    is at least 10 minutes older (or absent).  The continuous-ingestion
    dedup shape for telemetry pipelines: ONE bucketed exchange on user_id
    co-locates each key's history, the in-group kernel is a vectorized
    sort + shift diff (int64 ns, exact), and only kept event ids leave
    the reducers.  Gap-vs-PREVIOUS-event semantics (LAG), which SQL can
    mirror exactly — reset-on-keep debounce is the non-oracleable
    variant and intentionally not this query."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    gap_ns = np.int64(600 * 1_000_000_000)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts"]).map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "ts_ns": pa.array(t["ts"].to_numpy().astype("datetime64[ns]").astype(np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts_ns", "event_id"])
        same = (
            (g["user_id"].to_numpy()[1:] == g["user_id"].to_numpy()[:-1])
            & (g["event_type"].to_numpy()[1:] == g["event_type"].to_numpy()[:-1])
        )
        dt = g["ts_ns"].to_numpy()[1:] - g["ts_ns"].to_numpy()[:-1]
        keep = np.concatenate([[True], ~same | (dt >= gap_ns)])
        return pd.DataFrame({"event_id": g["event_id"].to_numpy()[keep].astype(np.int64)})

    kept = bucketed_groupby(ds, ["user_id"], lambda b: b, merge, n_buckets=16).to_pandas()
    return pd.DataFrame({"event_id": np.sort(kept["event_id"].to_numpy())})


_DEBOUNCE_SQL = """
SELECT event_id FROM (
  SELECT event_id, ts,
         LAG(ts) OVER (PARTITION BY user_id, event_type ORDER BY ts, event_id) AS prev
  FROM events
) WHERE prev IS NULL OR ts - prev >= INTERVAL 600 SECOND ORDER BY event_id
"""


def tpch_q20_dominant_suppliers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q20 shape (nested-aggregation semi-join; the fixture has no
    partsupp, so 'excess availability' becomes dominance: suppliers who
    shipped MORE THAN HALF of some red part's total 1996 quantity — the
    inner per-(part,supplier) aggregate still compares against a scaled
    per-part aggregate, Q20's defining structure).  Shape: red-part keys
    broadcast as a sorted array, the windowed lineitem scan pre-aggregates
    (partkey, suppkey) quantity per batch, ONE bucketed exchange on
    partkey resolves both aggregation levels group-locally, and the
    distinct qualifying suppliers fold on the driver (supplier is a
    100-row dim).  Quantities are integer-valued, so float64 sums are
    exact and the strict > against 0.5*total cannot sit on a rounding
    boundary."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")
    part = _read(sf_dir, "part", columns=["p_partkey", "p_name"]).to_pandas()
    red_ref = ray.put(np.sort(part.loc[part["p_name"].str.startswith("red"), "p_partkey"].to_numpy()))

    def li_partial(t: pa.Table) -> pd.DataFrame:
        red = ray.get(red_ref)
        d = t["l_shipdate"]
        mask = pc.and_(
            pc.greater_equal(d, pa.scalar(lo.to_pydatetime()).cast(d.type)),
            pc.less(d, pa.scalar(hi.to_pydatetime()).cast(d.type)),
        )
        kept = t.filter(mask)
        pk = kept["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(red, pk), 0, max(len(red) - 1, 0))
        hit = red[pos] == pk if len(red) else np.zeros(len(pk), dtype=bool)
        g = pa.table(
            {
                "l_partkey": pa.array(pk[hit], pa.int64()),
                "l_suppkey": pa.array(kept["l_suppkey"].to_numpy()[hit], pa.int64()),
                "qty": pa.array(kept["l_quantity"].to_numpy()[hit].astype(np.float64), pa.float64()),
            }
        )
        agg = g.group_by(["l_partkey", "l_suppkey"]).aggregate([("qty", "sum")])
        return agg.rename_columns(["l_partkey", "l_suppkey", "qty"]).to_pandas()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        ps = g.groupby(["l_partkey", "l_suppkey"], as_index=False)["qty"].sum()
        tot = ps.groupby("l_partkey")["qty"].transform("sum")
        return ps.loc[ps["qty"] > 0.5 * tot, ["l_suppkey"]].drop_duplicates()

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]).map_batches(
        li_partial, batch_format="pyarrow"
    )
    winners = bucketed_groupby(li, ["l_partkey"], lambda b: b, merge, n_buckets=16).to_pandas()
    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"]).to_pandas()
    names = sup.loc[sup["s_suppkey"].isin(set(winners["l_suppkey"])), "s_name"]
    return pd.DataFrame({"s_name": np.sort(names.to_numpy())})


_TPCH_Q20_SQL = """
WITH ps AS (
  SELECT l_partkey, l_suppkey, SUM(l_quantity) AS qty
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE 'red%'
    AND l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
  GROUP BY 1, 2
), tot AS (SELECT l_partkey, SUM(qty) AS t FROM ps GROUP BY 1)
SELECT DISTINCT s_name
FROM ps JOIN tot USING (l_partkey) JOIN supplier ON s_suppkey = l_suppkey
WHERE qty > 0.5 * t ORDER BY s_name
"""


def tpch_q2_min_price_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q2 shape (correlated MIN subquery; the fixture has no
    partsupp/ps_supplycost, so the 'minimum cost' is the minimum
    l_extendedprice ever charged for each red part, and the winning
    supplier is the one on that line — ties broken by min suppkey,
    mirroring Q2's deterministic ORDER BY).  Shape: red-part keys
    broadcast, per-batch partials keep each part's lexicographic-min
    (price, suppkey) candidate, ONE bucketed exchange on partkey
    finalizes the argmin (pure comparisons, no float arithmetic — both
    sides see identical stored values), supplier names join on the
    driver (100-row dim)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    part = _read(sf_dir, "part", columns=["p_partkey", "p_name"]).to_pandas()
    red_ref = ray.put(np.sort(part.loc[part["p_name"].str.startswith("red"), "p_partkey"].to_numpy()))

    def partial(t: pa.Table) -> pd.DataFrame:
        red = ray.get(red_ref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(red, pk), 0, max(len(red) - 1, 0))
        hit = red[pos] == pk if len(red) else np.zeros(len(pk), dtype=bool)
        c = pd.DataFrame(
            {
                "l_partkey": pk[hit],
                "price": t["l_extendedprice"].to_numpy()[hit],
                "l_suppkey": t["l_suppkey"].to_numpy()[hit],
            }
        )
        return (
            c.sort_values(["l_partkey", "price", "l_suppkey"]).drop_duplicates("l_partkey")
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["l_partkey", "price", "l_suppkey"]).drop_duplicates("l_partkey")

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_extendedprice"]).map_batches(
        partial, batch_format="pyarrow"
    )
    best = bucketed_groupby(li, ["l_partkey"], lambda b: b, merge, n_buckets=16).to_pandas()
    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"]).to_pandas()
    out = best.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    return pd.DataFrame(
        {
            "p_partkey": out["l_partkey"].astype(np.int64),
            "s_name": out["s_name"],
            "min_price": _r2(out["price"]),
        }
    ).sort_values("p_partkey").reset_index(drop=True)


_TPCH_Q2_SQL = """
WITH c AS (
  SELECT l_partkey, l_suppkey, l_extendedprice
  FROM lineitem JOIN part ON p_partkey = l_partkey WHERE p_name LIKE 'red%'
), r AS (
  SELECT l_partkey, l_suppkey, l_extendedprice,
         ROW_NUMBER() OVER (PARTITION BY l_partkey ORDER BY l_extendedprice, l_suppkey) AS rn
  FROM c
)
SELECT l_partkey AS p_partkey, s_name, ROUND(l_extendedprice, 2) AS min_price
FROM r JOIN supplier ON s_suppkey = l_suppkey WHERE rn = 1 ORDER BY p_partkey
"""


def tpch_q11_important_parts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q11 shape (GROUP BY + HAVING against a global scalar
    subquery; the fixture has no partsupp, so 'value' is lineitem revenue
    and the threshold is 1.2x the per-part average — the grouped
    aggregate still compares against a scalar aggregate OF the grouped
    aggregate, Q11's defining structure).  Shape: per-part revenue via
    ``sum_by_key`` (ONE bucketed exchange, Arrow per-batch partials),
    materialized once; the scalar (total, n_parts) folds from per-batch
    partials; the filter runs distributed against the broadcast
    threshold.  The 1.2x-average margin is >=34 absolute on ~1e5-scale
    revenues at every fixture (measured), so cross-engine float summation
    order cannot flip a row."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"]).map_batches(
        lambda t: pa.table(
            {
                "l_partkey": t["l_partkey"],
                "rev": pa.array(
                    t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy()), pa.float64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    per = sum_by_key(li, ["l_partkey"], ["rev"], n_buckets=16).materialize()
    scal = per.map_batches(
        lambda b: pd.DataFrame({"s": [b["rev"].sum()], "n": [len(b)]}), batch_format="pandas"
    ).to_pandas()
    thr = 1.2 * (scal["s"].sum() / scal["n"].sum())
    out = per.map_batches(
        lambda b: b[b["rev"].to_numpy() > thr], batch_format="pandas"
    ).to_pandas()
    return pd.DataFrame(
        {"l_partkey": out["l_partkey"].astype(np.int64), "part_rev": _r2(out["rev"])}
    ).sort_values("l_partkey").reset_index(drop=True)


_TPCH_Q11_SQL = """
WITH per AS (
  SELECT l_partkey, SUM(l_extendedprice * (1 - l_discount)) AS rev
  FROM lineitem GROUP BY 1
)
SELECT l_partkey, ROUND(rev, 2) AS part_rev FROM per
WHERE rev > 1.2 * (SELECT AVG(rev) FROM per) ORDER BY l_partkey
"""


def unigram_nll_documents(sf_dir: str) -> pd.DataFrame:
    """Unigram language-model scoring (the CCNet-style LM-quality filter,
    with a unigram model standing in for the 5-gram LM): pass 1 counts
    corpus token frequencies with ONE bucketed exchange
    (``count_by_key``); tokens with count >= 3 form the vocabulary (a
    deterministic DF threshold — top-V would tie-break ambiguously), and
    the (token -> count) map plus the corpus total broadcast once; pass 2
    streams the corpus and scores each doc's mean negative log-likelihood
    ``-ln(cnt/total)`` with out-of-vocabulary tokens floored at 1/total.
    At 100 TB the threshold bounds the broadcast exactly as the
    boilerplate/decontaminate gram sets are bounded.  Empty docs score
    0.0 (no tokens).  Log parity with DuckDB's ``ln`` is already pinned
    by the entropy oracle; per-doc means round to 6."""
    from ndap_data_validator_ray.stages.groupby import count_by_key

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        toks: list = []
        for i, t in zip(batch["doc_id"], batch["text"]):
            ws = (t or "").split()
            ids.extend([i] * len(ws))
            toks.extend(ws)
        return pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64), "tok": toks})

    counts = count_by_key(
        docs.map_batches(explode, batch_format="pandas"), ["tok"], n_buckets=16,
        partial_format="pandas",
    ).to_pandas()
    total = float(counts["cnt"].sum())
    vocab = counts[counts["cnt"] >= 3]
    lm_ref = ray.put((dict(zip(vocab["tok"], vocab["cnt"].astype(np.float64))), total))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        lm, tot = ray.get(lm_ref)
        out = np.empty(len(batch), dtype=np.float64)
        for j, t in enumerate(batch["text"]):
            ws = (t or "").split()
            if not ws:
                out[j] = 0.0
                continue
            nll = np.fromiter((-np.log(lm.get(w, 1.0) / tot) for w in ws), dtype=np.float64, count=len(ws))
            out[j] = nll.mean()
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(np.int64), "avg_nll": out})

    out = docs.map_batches(score, batch_format="pandas").to_pandas()
    out["avg_nll"] = _r6(out["avg_nll"])
    return out.sort_values("doc_id").reset_index(drop=True)


_UNIGRAM_NLL_SQL = """
WITH d AS (
  SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents
), tok AS (SELECT doc_id, unnest(ws) AS tok FROM d),
cnt AS (SELECT tok, COUNT(*) AS c FROM tok GROUP BY tok),
total AS (SELECT CAST(SUM(c) AS DOUBLE) AS t FROM cnt),
scored AS (
  SELECT tok.doc_id,
         AVG(-ln(COALESCE(CASE WHEN cnt.c >= 3 THEN CAST(cnt.c AS DOUBLE) END, 1.0)
                 / (SELECT t FROM total))) AS nll
  FROM tok LEFT JOIN cnt ON tok.tok = cnt.tok GROUP BY tok.doc_id
)
SELECT d.doc_id, ROUND(COALESCE(nll, 0.0), 6) AS avg_nll
FROM d LEFT JOIN scored ON d.doc_id = scored.doc_id ORDER BY d.doc_id
"""


def dsir_importance_documents(sf_dir: str) -> pd.DataFrame:
    """DSIR-style hashed n-gram importance weights (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling"):
    score every raw-corpus doc by how target-like it is under two
    bag-of-hashed-unigram models — here target = the ``lang = 'en'``
    slice, raw = the whole corpus.  Tokens hash into a FIXED 1024-bucket
    feature space via the DuckDB-twin ``md5_lower64 % 1024``, so pass 1
    (joint target/raw bucket counts) emits <= 1024-row per-batch partials
    that fold on the driver with NO shuffle (the low-cardinality rule);
    the two smoothed log-probability vectors (+1 / +B add-one smoothing)
    broadcast as one 8 KiB array and pass 2 streams the corpus scoring
    ``log_iw = sum_tokens ln(p_t[b]) - ln(p_raw[b])`` — the paper's
    log importance weight.  Both passes are single streaming scans; at
    100 TB nothing here grows beyond the 1024-float broadcast.  The
    per-bucket log-ratio is computed with the exact expression the
    oracle uses (two ln's of ratios — bit-identical per bucket); per-doc
    sums round to 6 (summation-order error ~1e-12 on ~1e3-magnitude
    cumsums)."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch

    B = 1024
    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks: list = []
        is_t: list = []
        for t, lg in zip(batch["text"], batch["lang"]):
            ws = (t or "").split()
            toks.extend(ws)
            is_t.extend([lg == "en"] * len(ws))
        if not toks:
            return pd.DataFrame(
                {"b": np.array([], np.int64), "c_all": np.array([], np.int64), "c_t": np.array([], np.int64)}
            )
        b = (md5_lower64_batch(toks) % np.uint64(B)).astype(np.int64)
        m = np.asarray(is_t, dtype=bool)
        c_all = np.bincount(b, minlength=B)
        c_t = np.bincount(b[m], minlength=B)
        nz = c_all > 0
        return pd.DataFrame(
            {"b": np.arange(B, dtype=np.int64)[nz], "c_all": c_all[nz], "c_t": c_t[nz]}
        )

    part = docs.map_batches(counts, batch_format="pandas").to_pandas()
    agg = part.groupby("b", as_index=False)[["c_all", "c_t"]].sum()
    c_all = np.zeros(B, dtype=np.float64)
    c_t = np.zeros(B, dtype=np.float64)
    c_all[agg["b"].to_numpy()] = agg["c_all"].to_numpy(np.float64)
    c_t[agg["b"].to_numpy()] = agg["c_t"].to_numpy(np.float64)
    t_all, t_t = c_all.sum(), c_t.sum()
    lr = np.log((c_t + 1.0) / (t_t + B)) - np.log((c_all + 1.0) / (t_all + B))
    lr_ref = ray.put(lr)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        lrv = ray.get(lr_ref)
        offs = [0]
        toks: list = []
        for t in batch["text"]:
            ws = (t or "").split()
            toks.extend(ws)
            offs.append(len(toks))
        out = np.zeros(len(batch), dtype=np.float64)
        if toks:
            b = (md5_lower64_batch(toks) % np.uint64(B)).astype(np.int64)
            cs = np.concatenate([[0.0], np.cumsum(lrv[b])])
            o = np.asarray(offs, dtype=np.int64)
            out = cs[o[1:]] - cs[o[:-1]]
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(np.int64), "log_iw": out})

    out = docs.map_batches(score, batch_format="pandas").to_pandas()
    out["log_iw"] = _r6(out["log_iw"])
    return out.sort_values("doc_id").reset_index(drop=True)


_DSIR_SQL = """
WITH d AS (
  SELECT doc_id, lang,
         list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents
), tok AS (
  SELECT doc_id, lang, md5_number_lower(unnest(ws)) % 1024 AS b FROM d
), cnt AS (
  SELECT b, COUNT(*) AS c_all, COUNT(*) FILTER (lang = 'en') AS c_t FROM tok GROUP BY b
), tot AS (
  SELECT CAST(SUM(c_all) AS DOUBLE) AS t_all, CAST(SUM(c_t) AS DOUBLE) AS t_t FROM cnt
), ratio AS (
  SELECT b, ln((c_t + 1.0) / ((SELECT t_t FROM tot) + 1024))
          - ln((c_all + 1.0) / ((SELECT t_all FROM tot) + 1024)) AS lr
  FROM cnt
), scored AS (
  SELECT tok.doc_id, SUM(lr) AS liw FROM tok JOIN ratio USING (b) GROUP BY 1
)
SELECT d.doc_id, ROUND(COALESCE(liw, 0.0), 6) AS log_iw
FROM d LEFT JOIN scored ON d.doc_id = scored.doc_id ORDER BY d.doc_id
"""


def weighted_sample_documents(sf_dir: str) -> pd.DataFrame:
    """Weighted sampling WITHOUT replacement via exponential keys
    (Efraimidis & Spirtakis 2006, the streaming/distributed A-ES
    scheme): each doc draws ``key = -ln(u) / w`` with weight
    ``w = n_chars`` and a DETERMINISTIC uniform
    ``u = (md5_lower64(str(doc_id)) + 0.5) / 2^64`` (the md5 twin makes
    the draw replayable by SQL — replacing the usual RNG exactly as the
    split/shard ops do); the k smallest keys are the weighted sample.
    Shape: a single streaming scan keeps a per-batch local top-k
    (<= k rows leave each block — the distributed top-k idiom, NO
    shuffle), the driver merges <= k x blocks rows.  Resume-safe and
    rerun-stable: the sample is a pure function of the data.  Selection
    compares full-precision float64 keys identical on both sides (same
    IEEE ops from the same integers); only the OUTPUT rounds to 6."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch

    K = 50
    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        u = (
            md5_lower64_batch([str(i) for i in ids]).astype(np.float64) + 0.5
        ) / 18446744073709551616.0
        w = np.maximum(batch["n_chars"].to_numpy(np.float64), 1.0)
        key = -np.log(u) / w
        d = pd.DataFrame({"doc_id": ids, "n_chars": batch["n_chars"].to_numpy(np.int64), "key": key})
        return d.sort_values(["key", "doc_id"]).head(K)

    part = docs.map_batches(local_topk, batch_format="pandas").to_pandas()
    out = part.sort_values(["key", "doc_id"]).head(K).reset_index(drop=True)
    return pd.DataFrame(
        {"doc_id": out["doc_id"], "n_chars": out["n_chars"], "priority": _r6(out["key"])}
    )


_WEIGHTED_SAMPLE_SQL = """
WITH k AS (
  SELECT doc_id, n_chars,
         -ln((CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) AS DOUBLE) + 0.5)
             / 18446744073709551616.0)
         / GREATEST(CAST(n_chars AS DOUBLE), 1.0) AS key
  FROM documents
)
SELECT doc_id, n_chars, ROUND(key, 6) AS priority
FROM k ORDER BY key, doc_id LIMIT 50
"""


def lexical_diversity_documents(sf_dir: str) -> pd.DataFrame:
    """Per-doc lexical-diversity features the quality/repetition ops don't
    cover: type-token ratio (distinct tokens / tokens — the classic
    lexical-richness filter; low TTR flags template/spam text) and
    character-level Shannon entropy (low entropy flags gibberish /
    single-char floods; high flags binary-ish noise).  One streaming
    scan, fully vectorized across the batch: tokens explode once and
    distinct-per-doc counts come from ``pd.factorize`` + a packed
    (doc, code) ``np.unique``; char entropy packs (doc << 21 | codepoint)
    — codepoints < 2^21 — so one ``np.unique(return_counts=True)`` yields
    all per-(doc, char) counts and ``np.add.at`` folds ``-p ln p`` per
    doc.  No shuffle, no driver state; per-term IEEE ops match the SQL
    twin exactly (same int->double divisions, same ``ln``), only the
    summation ORDER differs — rounded to 6 per the module convention."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        texts = ["" if t is None else t for t in batch["text"]]
        n = len(texts)
        tok_lists = [t.split() for t in texts]
        n_tok = np.array([len(w) for w in tok_lists], dtype=np.int64)
        distinct = np.zeros(n, dtype=np.int64)
        all_toks = [w for ws in tok_lists for w in ws]
        if all_toks:
            codes = pd.factorize(np.asarray(all_toks, dtype=object))[0].astype(np.int64)
            doc_of_tok = np.repeat(np.arange(n, dtype=np.int64), n_tok)
            width = np.int64(codes.max() + 1)
            distinct = np.bincount(
                np.unique(doc_of_tok * width + codes) // width, minlength=n
            )
        ttr = np.where(n_tok > 0, distinct / np.maximum(n_tok, 1), 0.0)
        ent = np.zeros(n, dtype=np.float64)
        joined = "".join(texts)
        if joined:
            codes_c = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
            lens_c = np.array([len(t) for t in texts], dtype=np.int64)
            doc_of_ch = np.repeat(np.arange(n, dtype=np.int64), lens_c)
            upair, cnts = np.unique((doc_of_ch << 21) | codes_c, return_counts=True)
            udoc = upair >> 21
            p = cnts / lens_c[udoc]
            np.add.at(ent, udoc, -p * np.log(p))
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_tokens": n_tok,
                "distinct_tokens": distinct,
                "ttr": _r6(ttr),
                "char_entropy": _r6(np.abs(ent)),  # -0.0 -> 0.0 for single-char docs
            }
        )

    return (
        docs.map_batches(fn, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


_LEXICAL_DIVERSITY_SQL = """
WITH d AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws,
         string_split(COALESCE(text, ''), '') AS cs
  FROM documents
), tok_stats AS (
  SELECT doc_id, len(ws) AS n_tokens, len(list_distinct(ws)) AS distinct_tokens FROM d
), chcnt AS (
  SELECT doc_id, c, COUNT(*) AS k
  FROM (SELECT doc_id, unnest(cs) AS c FROM d) WHERE c <> '' GROUP BY doc_id, c
), chn AS (
  SELECT doc_id, CAST(SUM(k) AS DOUBLE) AS nc FROM chcnt GROUP BY doc_id
), ent AS (
  SELECT chcnt.doc_id, SUM(-(k / nc) * ln(k / nc)) AS h
  FROM chcnt JOIN chn ON chcnt.doc_id = chn.doc_id GROUP BY chcnt.doc_id
)
SELECT t.doc_id, t.n_tokens, t.distinct_tokens,
       ROUND(CASE WHEN t.n_tokens > 0
                  THEN CAST(t.distinct_tokens AS DOUBLE) / t.n_tokens ELSE 0.0 END, 6) AS ttr,
       ROUND(ABS(COALESCE(h, 0.0)), 6) AS char_entropy
FROM tok_stats t LEFT JOIN ent ON t.doc_id = ent.doc_id ORDER BY t.doc_id
"""


def dup_span_coverage_documents(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr-style duplicated-span coverage (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better", the
    substring-dedup family none of the other dedup ops cover): for every
    doc, the count and fraction of token positions lying inside a
    duplicated n-token substring (n=3 here; the paper's suffix-array
    50-token threshold scaled to the fixture).  Exact semantics: a token
    is covered iff some n-gram window containing it occurs >= 2 times in
    the corpus (incl. twice in the same doc) — precisely the tokens
    ExactSubstr would trim at threshold n, since any duplicated
    substring of length >= n is a union of duplicated n-gram windows.
    Shape (scale-first, NO broadcast — unlike boilerplate's thin-head
    DF>5 set, the DF>=2 gram set is O(corpus) and must never sit on the
    driver): exchange 1 buckets positional (gram, doc, pos) rows by gram
    and emits only occurrences of duplicated grams; exchange 2 buckets
    the hit positions by doc and folds interval coverage with a
    vectorized sorted-gap kernel (sum of min(gap, n) per run); a third
    streaming scan emits per-doc token counts.  Only O(docs) rows reach
    the driver.  Exchange 1 ships gram STRINGS for oracle-exactness; the
    100 TB variant ships ``md5_lower64(gram)`` int64s instead (8 bytes
    vs ~20, collision odds ~n_grams^2 / 2^64 — the dedup_hashed trade,
    documented there)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    N = 3
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        poss: list = []
        grams: list = []
        for i, t in zip(batch["doc_id"], batch["text"]):
            ws = (t or "").split()
            for p in range(len(ws) - N + 1):
                ids.append(i)
                poss.append(p)
                grams.append(" ".join(ws[p : p + N]))
        return pd.DataFrame(
            {
                "gram": grams,
                "doc_id": np.asarray(ids, dtype=np.int64),
                "pos": np.asarray(poss, dtype=np.int64),
            }
        )

    def dup_hits(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("gram")["gram"].transform("size").to_numpy()
        return g.loc[c >= 2, ["doc_id", "pos"]]

    hits = bucketed_groupby(
        docs.map_batches(explode, batch_format="pandas"), ["gram"],
        lambda b: b, dup_hits, n_buckets=16,
    )

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "pos"])
        d = g["doc_id"].to_numpy(np.int64)
        p = g["pos"].to_numpy(np.int64)
        if len(d) == 0:
            return pd.DataFrame(
                {"doc_id": np.array([], np.int64), "dup_tokens": np.array([], np.int64)}
            )
        same = d[1:] == d[:-1]
        contrib = np.concatenate(
            [np.where(same, np.minimum(p[1:] - p[:-1], N), N), [N]]
        )
        codes, uniq = pd.factorize(d)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(uniq, dtype=np.int64),
                "dup_tokens": np.bincount(codes, weights=contrib).astype(np.int64),
            }
        )

    per = bucketed_groupby(hits, ["doc_id"], lambda b: b, cover, n_buckets=16).to_pandas()

    def ntok(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_tokens": np.array(
                    [len((t or "").split()) for t in batch["text"]], dtype=np.int64
                ),
            }
        )

    out = docs.map_batches(ntok, batch_format="pandas").to_pandas()
    out = out.merge(per, on="doc_id", how="left")
    out["dup_tokens"] = out["dup_tokens"].fillna(0).astype(np.int64)
    out["dup_frac"] = _r6(
        np.where(
            out["n_tokens"].to_numpy() > 0,
            out["dup_tokens"].to_numpy() / np.maximum(out["n_tokens"].to_numpy(), 1),
            0.0,
        )
    )
    return out.sort_values("doc_id").reset_index(drop=True)


_DUP_SPAN_SQL = """
WITH d AS (
  SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents
), tok AS (SELECT doc_id, len(ws) AS n_tokens FROM d),
pos AS (
  SELECT doc_id, ws,
         unnest(CASE WHEN len(ws) >= 3 THEN range(1, len(ws) - 1)
                     ELSE CAST([] AS BIGINT[]) END) AS i
  FROM d
), g AS (SELECT doc_id, i, array_to_string(ws[i:i+2], ' ') AS gram FROM pos),
dup AS (SELECT gram FROM g GROUP BY gram HAVING COUNT(*) >= 2),
hits AS (SELECT g.doc_id, g.i FROM g JOIN dup USING (gram)),
cover AS (
  SELECT DISTINCT doc_id, p
  FROM (SELECT doc_id, unnest(range(i, i + 3)) AS p FROM hits)
), per AS (SELECT doc_id, COUNT(*) AS dup_tokens FROM cover GROUP BY doc_id)
SELECT t.doc_id, t.n_tokens, COALESCE(per.dup_tokens, 0) AS dup_tokens,
       ROUND(CASE WHEN t.n_tokens > 0
                  THEN CAST(COALESCE(per.dup_tokens, 0) AS DOUBLE) / t.n_tokens
                  ELSE 0.0 END, 6) AS dup_frac
FROM tok t LEFT JOIN per USING (doc_id) ORDER BY t.doc_id
"""


def zipf_slope_documents(sf_dir: str) -> pd.DataFrame:
    """Corpus vocabulary health check: the Zipf rank-frequency slope
    (natural text sits near -1; heavy template/boilerplate contamination
    flattens it, gibberish steepens it).  Token counts ride ONE bucketed
    exchange (``count_by_key`` — the unigram-LM pass-1 shape); each count
    block then emits a LOCAL top-200 by (count desc, token asc) so only
    <= 200 x blocks rows reach the driver (distributed top-k idiom — the
    full vocabulary never leaves the cluster), plus fixed one-row
    (vocab-size, token-total) partials.  The slope is OLS of ln(count)
    on ln(rank) over the global top-200, computed with the population
    covariance/variance form DuckDB's ``regr_slope`` uses; n=200
    well-conditioned points agree to ~1e-12, rounded to 6."""
    from ndap_data_validator_ray.stages.groupby import count_by_key

    K = 200
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        toks: list = []
        for t in batch["text"]:
            toks.extend((t or "").split())
        return pd.DataFrame({"tok": toks})

    counts = count_by_key(
        docs.map_batches(explode, batch_format="pandas"), ["tok"], n_buckets=16,
        partial_format="pandas",
    ).materialize()

    def local_top(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["cnt", "tok"], ascending=[False, True]).head(K)

    def totals(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"nv": [len(batch)], "tt": [int(batch["cnt"].sum())]})

    top = (
        counts.map_batches(local_top, batch_format="pandas")
        .to_pandas()
        .sort_values(["cnt", "tok"], ascending=[False, True])
        .head(K)
    )
    tot = counts.map_batches(totals, batch_format="pandas").to_pandas()
    x = np.log(np.arange(1, len(top) + 1, dtype=np.float64))
    y = np.log(top["cnt"].to_numpy(np.float64))
    mx, my = x.mean(), y.mean()
    slope = float(((x - mx) * (y - my)).sum() / ((x - mx) ** 2).sum())
    return pd.DataFrame(
        {
            "n_vocab": np.array([tot["nv"].sum()], dtype=np.int64),
            "total_tokens": np.array([tot["tt"].sum()], dtype=np.int64),
            "slope": _r6([slope]),
        }
    )


_ZIPF_SLOPE_SQL = """
WITH d AS (
  SELECT list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents
), tok AS (SELECT unnest(ws) AS tok FROM d),
cnt AS (SELECT tok, COUNT(*) AS c FROM tok GROUP BY tok),
top AS (
  SELECT c, ROW_NUMBER() OVER (ORDER BY c DESC, tok) AS r FROM cnt
  QUALIFY r <= 200
)
SELECT (SELECT COUNT(*) FROM cnt) AS n_vocab,
       (SELECT SUM(c) FROM cnt) AS total_tokens,
       (SELECT ROUND(regr_slope(ln(CAST(c AS DOUBLE)), ln(CAST(r AS DOUBLE))), 6) FROM top) AS slope
"""


def order_skip_triangles(sf_dir: str) -> pd.DataFrame:
    """Distributed per-node triangle counting (stages/triangles.py —
    degree-oriented node-iterator: dedup -> degree attach -> orient ->
    ``np.triu_indices`` wedge emit -> bucketed semi-join closure; every
    wide step a bucketed exchange, only the O(nodes) count fold reaches
    the driver) over a graph SQL can recount: each customer's orders
    sorted by key, edges to the next AND next-next order — every
    consecutive triple closes a triangle, so multi-wedge closure is
    genuinely exercised (~#orders triangles, mixed per-node counts of 1,
    2 and 3).  The DuckDB twin rebuilds the same edge set with LEAD
    windows and recounts triangles with the generic 3-way edge self-join
    — a structural oracle for the whole wedge/closure machinery, not a
    closed-form shortcut."""
    from ndap_data_validator_ray.stages.triangles import distributed_triangle_counts

    return distributed_triangle_counts(_order_skip_edges(sf_dir))


def _order_skip_edges(sf_dir: str) -> "ray.data.Dataset":
    """The shared order-skip graph: per customer, orders sorted by key
    with edges to the next AND next-next order (one bucketed exchange on
    customer; every consecutive triple is a triangle)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def skip_edges(part: pd.DataFrame) -> pd.DataFrame:
        p = part.sort_values(["o_custkey", "o_orderkey"])
        ck = p["o_custkey"].to_numpy()
        ok = p["o_orderkey"].to_numpy().astype(np.int64)
        frames = []
        for skip in (1, 2):
            if len(ok) > skip:
                same = ck[skip:] == ck[:-skip]
                frames.append(pd.DataFrame({"id_a": ok[:-skip][same], "id_b": ok[skip:][same]}))
        if not frames:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype=np.int64), "id_b": pd.Series([], dtype=np.int64)}
            )
        return pd.concat(frames, ignore_index=True)

    return bucketed_groupby(orders, ["o_custkey"], lambda b: b, skip_edges).materialize()


def order_skip_clustering_coeff(sf_dir: str) -> pd.DataFrame:
    """Local clustering coefficient c(v) = 2*T(v) / (deg(v) * (deg(v)-1))
    over the order-skip graph — the graph-quality metric the triangle
    counts are the numerator of (community density / link-spam signal on
    web graphs).  Distributed shape: triangle counts via the
    degree-oriented node-iterator (``stages/triangles.py``), degrees
    straight out of the triangle stage (``return_degrees=True`` — the
    orientation step already holds the (node, deg) fold, so the
    coefficient costs ZERO exchanges beyond the triangle count; it used
    to re-scan the raw edges and re-run the dedup + count exchanges);
    both folds are O(nodes) and merge on the driver (LEFT: deg>=2 nodes
    without triangles keep c = 0).  The division is exact int-to-float
    on both sides; no order-dependent float sums anywhere."""
    from ndap_data_validator_ray.stages.triangles import distributed_triangle_counts

    edges = _order_skip_edges(sf_dir)
    tri, deg = distributed_triangle_counts(edges, return_degrees=True)
    deg = deg.rename(columns={"deg": "degree"})
    out = deg.merge(tri, on="node", how="left")
    out["triangles"] = out["triangles"].fillna(0).astype(np.int64)
    out = out[out["degree"] >= 2].copy()
    d = out["degree"].to_numpy(np.float64)
    t = out["triangles"].to_numpy(np.float64)
    out["coeff"] = _r6((2.0 * t) / (d * (d - 1.0)))
    out["degree"] = out["degree"].astype(np.int64)
    out["node"] = out["node"].astype(np.int64)
    return out.sort_values("node").reset_index(drop=True)[
        ["node", "degree", "triangles", "coeff"]
    ]


_CLUSTERING_COEFF_SQL = """
WITH seq AS (
  SELECT o_orderkey AS k,
         LEAD(o_orderkey, 1) OVER (PARTITION BY o_custkey ORDER BY o_orderkey) AS k1,
         LEAD(o_orderkey, 2) OVER (PARTITION BY o_custkey ORDER BY o_orderkey) AS k2
  FROM orders
), raw AS (
  SELECT k AS u, k1 AS v FROM seq WHERE k1 IS NOT NULL
  UNION ALL
  SELECT k AS u, k2 AS v FROM seq WHERE k2 IS NOT NULL
), e AS (
  SELECT DISTINCT LEAST(u, v) AS u, GREATEST(u, v) AS v FROM raw
), tri AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1
  JOIN e e2 ON e2.u = e1.v
  JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v
), corners AS (
  SELECT a AS node FROM tri
  UNION ALL SELECT b FROM tri
  UNION ALL SELECT c FROM tri
), tcnt AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS triangles FROM corners GROUP BY node
), deg AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS degree
  FROM (SELECT u AS node FROM e UNION ALL SELECT v FROM e) GROUP BY node
)
SELECT d.node, d.degree, COALESCE(t.triangles, 0) AS triangles,
       ROUND((2.0 * CAST(COALESCE(t.triangles, 0) AS DOUBLE))
             / (CAST(d.degree AS DOUBLE) * (CAST(d.degree AS DOUBLE) - 1.0)), 6) AS coeff
FROM deg d LEFT JOIN tcnt t USING (node)
WHERE d.degree >= 2 ORDER BY d.node
"""


_TRIANGLES_SQL = """
WITH seq AS (
  SELECT o_orderkey AS k,
         LEAD(o_orderkey, 1) OVER (PARTITION BY o_custkey ORDER BY o_orderkey) AS k1,
         LEAD(o_orderkey, 2) OVER (PARTITION BY o_custkey ORDER BY o_orderkey) AS k2
  FROM orders
), raw AS (
  SELECT k AS u, k1 AS v FROM seq WHERE k1 IS NOT NULL
  UNION ALL
  SELECT k AS u, k2 AS v FROM seq WHERE k2 IS NOT NULL
), e AS (
  SELECT DISTINCT LEAST(u, v) AS u, GREATEST(u, v) AS v FROM raw
), tri AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1
  JOIN e e2 ON e2.u = e1.v
  JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v
), corners AS (
  SELECT a AS node FROM tri
  UNION ALL SELECT b FROM tri
  UNION ALL SELECT c FROM tri
)
SELECT node, COUNT(*) AS triangles FROM corners GROUP BY node ORDER BY node
"""


def similar_orders_jaccard(sf_dir: str) -> pd.DataFrame:
    """EXACT set-similarity self-join (stages/setsim.py — AllPairs/PPJoin
    prefix filtering over bucketed exchanges): orders as their distinct
    part-id sets, all pairs with Jaccard >= 0.6.  Unlike the
    LSH/MinHash near-dup families this is exact-by-construction — the
    prefix filter only PRUNES (rarest-token prefixes under a global
    (df, token) order), and the distributed verify recomputes true
    Jaccard — so DuckDB's brute-force intersection join is a full value
    oracle for candidate generation + verification end to end."""
    from ndap_data_validator_ray.stages.setsim import allpairs_jaccard_join

    rows = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    out = allpairs_jaccard_join(rows, "l_orderkey", "l_partkey", threshold=0.6)
    out["jaccard"] = _r9(out["jaccard"])
    return out


_SETSIM_SQL = """
WITH s AS (SELECT DISTINCT l_orderkey AS id, l_partkey AS tok FROM lineitem),
sz AS (SELECT id, COUNT(*) AS n FROM s GROUP BY id),
inter AS (
  SELECT a.id AS ia, b.id AS ib, CAST(COUNT(*) AS BIGINT) AS i
  FROM s a JOIN s b ON a.tok = b.tok AND a.id < b.id
  GROUP BY a.id, b.id
)
SELECT ia AS id_a, ib AS id_b,
       ROUND(CAST(i AS DOUBLE) / (na.n + nb.n - i), 9) AS jaccard
FROM inter
JOIN sz na ON na.id = ia
JOIN sz nb ON nb.id = ib
WHERE CAST(i AS DOUBLE) / (na.n + nb.n - i) >= 0.6
ORDER BY id_a, id_b
"""


def bigram_pmi_documents(sf_dir: str) -> pd.DataFrame:
    """Collocation mining: top-20 adjacent-token bigrams by pointwise
    mutual information (min count 5) — the classic corpus-analysis signal
    for multi-word expressions (Church & Hanks 1990).  Distributed shape:
    unigram and bigram counts via two bucketed exchanges (the
    ``top_bigrams_documents`` kernels), totals folded from the aggregated
    partials (cheap block scans), unigram counts attached to the
    count-filtered bigram rows through the guarded
    ``stages/broadcast.attach_or_join`` (vocab broadcast under the cap, a
    bucketed hash join above — the full vocabulary never has to fit on
    the driver), PMI computed per block, local top-k partials merged on
    the driver.  The PMI expression and its association order are
    mirrored VERBATIM in the SQL (left-assoc products, one division)
    so both sides agree before the round-6."""
    from ndap_data_validator_ray.functions.text import bigram_counts
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    texts = _read(sf_dir, "documents", columns=["text"])

    def uni_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.lower().str.findall(r"[a-z0-9]+")
        arrs = [a for a in toks.to_numpy() if len(a)]
        if not arrs:
            return pd.DataFrame({"tok": pd.Series([], dtype=object), "c": pd.Series([], dtype=np.int64)})
        vc = pd.Series(np.concatenate(arrs), dtype=object).value_counts()
        return pd.DataFrame({"tok": vc.index.to_numpy(), "c": vc.to_numpy().astype(np.int64)})

    ucnt = sum_by_key(
        texts.map_batches(uni_partial, batch_format="pandas"), ["tok"], ["c"], n_buckets=16
    ).materialize()
    bcnt = sum_by_key(
        texts.map_batches(lambda b: bigram_counts(b["text"]), batch_format="pandas"),
        ["bigram"],
        ["cnt"],
        n_buckets=16,
    ).materialize()

    def fold_total(ds: "ray.data.Dataset", col: str) -> float:
        parts = ds.map_batches(
            lambda b: pd.DataFrame({"s": [int(b[col].sum())]}), batch_format="pandas"
        ).to_pandas()
        return float(parts["s"].sum())

    n_tok = fold_total(ucnt, "c")
    n_bi = fold_total(bcnt, "cnt")

    def split_filter(b: pd.DataFrame) -> pd.DataFrame:
        kept = b[b["cnt"] >= 5]
        if kept.empty:
            return pd.DataFrame(
                {
                    "bigram": pd.Series([], dtype=object),
                    "cnt": pd.Series([], dtype=np.int64),
                    "l": pd.Series([], dtype=object),
                    "r": pd.Series([], dtype=object),
                }
            )
        sp = kept["bigram"].str.split(" ", n=1, expand=True)
        return pd.DataFrame(
            {"bigram": kept["bigram"].to_numpy(), "cnt": kept["cnt"].to_numpy(), "l": sp[0].to_numpy(), "r": sp[1].to_numpy()}
        )

    filtered = bcnt.map_batches(split_filter, batch_format="pandas").materialize()
    with_ca = attach_or_join(
        filtered,
        ucnt.map_batches(lambda b: b.rename(columns={"tok": "l", "c": "ca"}), batch_format="pandas"),
        on_fact="l",
        on_side="l",
        attach_cols=["ca"],
    )
    with_cb = attach_or_join(
        with_ca,
        ucnt.map_batches(lambda b: b.rename(columns={"tok": "r", "c": "cb"}), batch_format="pandas"),
        on_fact="r",
        on_side="r",
        attach_cols=["cb"],
    )

    def score_topk(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return pd.DataFrame(
                {
                    "bigram": pd.Series([], dtype=object),
                    "cnt": pd.Series([], dtype=np.int64),
                    "pmi": pd.Series([], dtype=np.float64),
                }
            )
        cnt = b["cnt"].to_numpy().astype(np.float64)
        ca = b["ca"].to_numpy().astype(np.float64)
        cb = b["cb"].to_numpy().astype(np.float64)
        # association order mirrored in the SQL: ((cnt*nt)*nt) / ((nb*ca)*cb)
        pmi = _r6(np.log((cnt * n_tok * n_tok) / ((n_bi * ca) * cb)))
        out = pd.DataFrame(
            {"bigram": b["bigram"].to_numpy(), "cnt": b["cnt"].to_numpy().astype(np.int64), "pmi": pmi}
        )
        return out.sort_values(["pmi", "bigram"], ascending=[False, True]).head(20)

    out = with_cb.map_batches(score_topk, batch_format="pandas").to_pandas()
    out = out.sort_values(["pmi", "bigram"], ascending=[False, True]).head(20)
    out["cnt"] = out["cnt"].astype(np.int64)
    return out.reset_index(drop=True)[["bigram", "cnt", "pmi"]]


_BIGRAM_PMI_SQL = """
WITH toks AS (
  SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS arr FROM documents),
uni AS (SELECT unnest(arr) AS tok FROM toks),
ucnt AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS c FROM uni GROUP BY tok),
nt AS (SELECT CAST(COUNT(*) AS DOUBLE) AS v FROM uni),
bi AS (
  SELECT unnest(list_transform(range(1, len(arr)), i -> arr[i] || ' ' || arr[i + 1])) AS bigram
  FROM toks),
bcnt AS (SELECT bigram, CAST(COUNT(*) AS BIGINT) AS cnt FROM bi GROUP BY bigram),
nb AS (SELECT CAST(COUNT(*) AS DOUBLE) AS v FROM bi),
scored AS (
  SELECT b.bigram, b.cnt,
         ROUND(ln((CAST(b.cnt AS DOUBLE) * (SELECT v FROM nt) * (SELECT v FROM nt))
               / (((SELECT v FROM nb) * CAST(ua.c AS DOUBLE)) * CAST(ub.c AS DOUBLE))), 6) AS pmi
  FROM bcnt b
  JOIN ucnt ua ON ua.tok = split_part(b.bigram, ' ', 1)
  JOIN ucnt ub ON ub.tok = split_part(b.bigram, ' ', 2)
  WHERE b.cnt >= 5
)
SELECT bigram, cnt, pmi FROM scored ORDER BY pmi DESC, bigram LIMIT 20
"""


def event_transitions(sf_dir: str) -> pd.DataFrame:
    """First-order Markov transition matrix over per-user event streams:
    count and conditional probability of (event_type -> next event_type),
    ordered by (ts, event_id) within each user.  One bucketed exchange on
    user_id (a user's whole stream lands in one reducer — transitions are
    boundary-safe by construction), vectorized shift kernel per reducer,
    and since the type x type matrix is LOW cardinality the per-reducer
    partials fold on the driver (the repo's low-cardinality groupby rule
    — no second exchange for a few dozen rows)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def transitions(part: pd.DataFrame) -> pd.DataFrame:
        p = part.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = p["user_id"].to_numpy()
        et = p["event_type"].to_numpy()
        if len(p) < 2:
            return pd.DataFrame(
                {"from_type": pd.Series([], dtype=object), "to_type": pd.Series([], dtype=object), "n": pd.Series([], dtype=np.int64)}
            )
        same = uid[1:] == uid[:-1]
        g = (
            pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
            .groupby(["from_type", "to_type"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return g

    parts = bucketed_groupby(ds, ["user_id"], lambda b: b, transitions, n_buckets=32).to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {
                "from_type": pd.Series([], dtype=object),
                "to_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
                "p": pd.Series([], dtype=np.float64),
            }
        )
    out = parts.groupby(["from_type", "to_type"], as_index=False)["n"].sum()
    totals = out.groupby("from_type")["n"].transform("sum")
    out["n"] = out["n"].astype(np.int64)
    out["p"] = _r9(out["n"].to_numpy().astype(np.float64) / totals.to_numpy().astype(np.float64))
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


_EVENT_TRANSITIONS_SQL = """
WITH seq AS (
  SELECT event_type AS ft,
         LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS tt
  FROM events
), tr AS (SELECT ft, tt FROM seq WHERE tt IS NOT NULL)
SELECT ft AS from_type, tt AS to_type, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(CAST(COUNT(*) AS DOUBLE) / CAST(SUM(COUNT(*)) OVER (PARTITION BY ft) AS DOUBLE), 9) AS p
FROM tr GROUP BY ft, tt ORDER BY from_type, to_type
"""


def overlapping_order_windows(sf_dir: str) -> pd.DataFrame:
    """Interval OVERLAP join (stages/intervaljoin.py — temporal bucket
    replication + owner-bucket emit rule, the parallel spatial-join
    pattern): 7-day windows starting at each order date, all overlapping
    (A, B) pairs between two keyed order subsets.  Closed intervals; the
    emitted ``overlap`` is the shared span in days (>= 0).  Bucket width
    = the window length (replication factor <= 2 per interval)."""
    from ndap_data_validator_ray.stages.intervaljoin import interval_overlap_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def windows(mod: int):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            kept = b[b["o_custkey"].to_numpy() % mod == 0]
            s = kept["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
            return pd.DataFrame(
                {"id": kept["o_orderkey"].to_numpy().astype(np.int64), "s": s, "e": s + 7}
            )

        return fn

    left = orders.map_batches(windows(97), batch_format="pandas")
    right = orders.map_batches(windows(89), batch_format="pandas")
    return interval_overlap_join(left, right, bucket_width=7)


_OVERLAP_JOIN_SQL = """
WITH a AS (
  SELECT o_orderkey AS id_a,
         DATEDIFF('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS s_a
  FROM orders WHERE o_custkey % 97 = 0
), b AS (
  SELECT o_orderkey AS id_b,
         DATEDIFF('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS s_b
  FROM orders WHERE o_custkey % 89 = 0
)
SELECT id_a, id_b,
       CAST(LEAST(s_a + 7, s_b + 7) - GREATEST(s_a, s_b) AS BIGINT) AS overlap
FROM a JOIN b ON s_a <= s_b + 7 AND s_b <= s_a + 7
ORDER BY id_a, id_b
"""


def customer_order_p90(sf_dir: str) -> pd.DataFrame:
    """HIGH-cardinality grouped exact percentiles (every customer with
    >= 3 orders gets a p50/p90 of order totals) — the grouped-quantile
    shape ``quantiles_by_returnflag`` can't show (3 groups fold on the
    driver there; here the group domain is the customer key space, so the
    groups THEMSELVES ride a bucketed exchange and each reducer computes
    its customers' percentiles locally).  Linear interpolation matches
    SQL PERCENTILE_CONT bit-for-bit (same v_lo + frac*(v_hi-v_lo) form);
    round-6 on both sides."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def pct(group: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for ck, g in group.groupby("o_custkey", sort=False):
            v = np.sort(g["o_totalprice"].to_numpy().astype(np.float64))
            if len(v) < 3:
                continue
            outs.append((ck, np.percentile(v, 50), np.percentile(v, 90), len(v)))
        if not outs:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series([], dtype=np.int64),
                    "p50": pd.Series([], dtype=np.float64),
                    "p90": pd.Series([], dtype=np.float64),
                    "n_orders": pd.Series([], dtype=np.int64),
                }
            )
        out = pd.DataFrame(outs, columns=["o_custkey", "p50", "p90", "n_orders"])
        out["o_custkey"] = out["o_custkey"].astype(np.int64)
        out["n_orders"] = out["n_orders"].astype(np.int64)
        return out

    out = bucketed_groupby(orders, ["o_custkey"], lambda b: b, pct).to_pandas()
    out["p50"] = _r6(out["p50"])
    out["p90"] = _r6(out["p90"])
    return out.sort_values("o_custkey").reset_index(drop=True)


_CUSTOMER_P90_SQL = """
SELECT o_custkey,
       ROUND(PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY o_totalprice), 6) AS p50,
       ROUND(PERCENTILE_CONT(0.9) WITHIN GROUP (ORDER BY o_totalprice), 6) AS p90,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders GROUP BY o_custkey HAVING COUNT(*) >= 3 ORDER BY o_custkey
"""


def daily_revenue_autocorr(sf_dir: str) -> pd.DataFrame:
    """Time-series health check: lag-1 and lag-7 autocorrelation of the
    daily order-revenue series.  The heavy leg (daily sums over the full
    fact table) is one bucketed exchange on the ~2.4k-day key; the tiny
    aggregated series folds on the driver (the low-cardinality rule) where
    the sequence-lag correlations are two numpy expressions.  Lags are
    over the ORDERED OBSERVED sequence (rows with a lag-k predecessor),
    exactly what the SQL's LAG window computes; correlation is
    normalization-invariant so engine covariance and DuckDB corr() agree
    to float noise, rounded at 6."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        g = pd.DataFrame({"day": d, "rev": b["o_totalprice"].to_numpy()}).groupby(
            "day", as_index=False
        )["rev"].sum()
        return g

    daily = (
        sum_by_key(
            orders.map_batches(day_partial, batch_format="pandas"),
            ["day"],
            ["rev"],
            n_buckets=32,
            partial_format="pandas",
        )
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    x = _r2(daily["rev"])  # 2-decimal money sums: kill summation-order noise

    def ac(k: int) -> float:
        a, b = x[:-k], x[k:]
        am, bm = a.mean(), b.mean()
        denom = np.sqrt(((a - am) ** 2).sum() * ((b - bm) ** 2).sum())
        return float(((a - am) * (b - bm)).sum() / denom) if denom else 0.0

    return pd.DataFrame(
        {
            "n_days": [np.int64(len(x))],
            "ac1": _r6(ac(1)),
            "ac7": _r6(ac(7)),
        }
    )


_DAILY_AUTOCORR_SQL = """
WITH daily AS (
  SELECT CAST(o_orderdate AS DATE) AS day, ROUND(SUM(o_totalprice), 2) AS rev
  FROM orders GROUP BY 1
), seq AS (
  SELECT rev,
         LAG(rev, 1) OVER (ORDER BY day) AS rev1,
         LAG(rev, 7) OVER (ORDER BY day) AS rev7
  FROM daily
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM daily) AS n_days,
       ROUND((SELECT corr(rev, rev1) FROM seq WHERE rev1 IS NOT NULL), 6) AS ac1,
       ROUND((SELECT corr(rev, rev7) FROM seq WHERE rev7 IS NOT NULL), 6) AS ac7
"""


def cms_part_counts(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch with a FULL cross-engine value oracle: the
    repo's production CMS (``functions/sketches.CountMin``, multiply-shift
    hashed — powering the heavy-hitter prefilter) is only oracle-checked
    through its exact second pass; THIS query builds the same depth-4
    sketch with md5-twin bucket hashes (``md5_lower64(key#i) % 1024`` ==
    DuckDB ``md5_number_lower(...)``), so the sketch CELLS and the
    row-wise-min estimates are recomputed verbatim by SQL — the estimate
    values themselves are value-pinned, not just the exact counts.
    Distributed shape (the DSIR rule): the feature space is FIXED
    (4 x 1024 cells), so per-block partials are <= 4096 rows and fold on
    the driver — no shuffle for the sketch; the exact top-20 side is the
    heavy-hitter count exchange.  Emits (l_partkey, exact_cnt, cms_est)
    for the exact top-20 parts; CMS one-sided error guarantees
    cms_est >= exact_cnt."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.groupby import count_by_key

    D, W = 4, 1024
    ds = _read(sf_dir, "lineitem", columns=["l_partkey"])

    def cms_partial(b: pd.DataFrame) -> pd.DataFrame:
        keys, counts = np.unique(b["l_partkey"].to_numpy().astype(np.int64), return_counts=True)
        frames = []
        for i in range(D):
            cols = (md5_lower64_batch([f"{k}#{i}" for k in keys]) % np.uint64(W)).astype(np.int64)
            acc = np.zeros(W, dtype=np.int64)
            np.add.at(acc, cols, counts)
            nz = np.nonzero(acc)[0]
            frames.append(pd.DataFrame({"row": np.full(len(nz), i, dtype=np.int64), "b": nz, "cnt": acc[nz]}))
        return pd.concat(frames, ignore_index=True)

    cms = (
        ds.map_batches(cms_partial, batch_format="pandas")
        .to_pandas()  # <= 4096 rows per block: driver fold, never a shuffle
        .groupby(["row", "b"], as_index=False)["cnt"]
        .sum()
    )
    table = np.zeros((D, W), dtype=np.int64)
    table[cms["row"].to_numpy(), cms["b"].to_numpy()] = cms["cnt"].to_numpy()

    counts = count_by_key(ds, ["l_partkey"], n_buckets=32, count_col="exact_cnt")

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["exact_cnt", "l_partkey"], ascending=[False, True]).head(20)

    top = counts.map_batches(local_topk, batch_format="pandas").to_pandas()
    top = top.sort_values(["exact_cnt", "l_partkey"], ascending=[False, True]).head(20)
    keys = top["l_partkey"].to_numpy().astype(np.int64)
    est = np.full(len(keys), np.iinfo(np.int64).max)
    for i in range(D):
        cols = (md5_lower64_batch([f"{k}#{i}" for k in keys]) % np.uint64(W)).astype(np.int64)
        est = np.minimum(est, table[i, cols])
    out = pd.DataFrame(
        {
            "l_partkey": keys,
            "exact_cnt": top["exact_cnt"].to_numpy().astype(np.int64),
            "cms_est": est.astype(np.int64),
        }
    )
    assert (out["cms_est"] >= out["exact_cnt"]).all()  # CMS one-sided error
    return out.sort_values("l_partkey").reset_index(drop=True)


_CMS_SQL = """
WITH exact AS (
  SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS exact_cnt
  FROM lineitem GROUP BY 1
), top AS (
  SELECT l_partkey, exact_cnt FROM exact ORDER BY exact_cnt DESC, l_partkey LIMIT 20
), cells AS (
  SELECT i,
         CAST(md5_number_lower(CAST(l_partkey AS VARCHAR) || '#' || CAST(i AS VARCHAR)) % 1024 AS BIGINT) AS b,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM lineitem, range(4) t(i) GROUP BY 1, 2
)
SELECT t.l_partkey, t.exact_cnt, MIN(c.cnt) AS cms_est
FROM top t
JOIN range(4) r(i) ON TRUE
JOIN cells c
  ON c.i = r.i
 AND c.b = CAST(md5_number_lower(CAST(t.l_partkey AS VARCHAR) || '#' || CAST(r.i AS VARCHAR)) % 1024 AS BIGINT)
GROUP BY 1, 2 ORDER BY l_partkey
"""


def hll_distinct_users_by_type(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog with a FULL cross-engine value oracle — the CMS twin's
    companion (see ``cms_part_counts``): the production HLL
    (``functions/sketches.HLL``, A11) is only oracle-checked through an
    exact COUNT(DISTINCT) twin; THIS query builds a p=9 (512-register)
    HLL per event_type with the md5-twin hash, so the REGISTERS
    (per-bucket max leading-zero rank) and the Flajolet-style estimate
    are recomputed verbatim by SQL — the estimate values themselves are
    value-pinned.  Cross-engine float determinism: the harmonic sum
    ``sum(2^-rho)`` is kept in EXACT integer arithmetic (``2^56 >> rho``
    summed as HUGEINT / Python int — float addition of 512 powers of two
    spans >53 mantissa bits and would round order-dependently), converted
    to double once; rho uses an exact 6-step binary bit_length (float
    ``log2`` misrounds near powers of two).  Distributed shape: registers
    are mergeable maxes over a FIXED 5x512 space, so per-block partials
    are tiny and fold on the driver (low-cardinality rule) — the sketch
    never shuffles; only the exact COUNT(DISTINCT) twin pays a bucketed
    exchange.  Emits (event_type, n_users, hll_est)."""
    import math

    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch

    M = 512  # registers (p=9); w keeps the remaining 55 hash bits
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def hll_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates()  # registers depend only on distinct pairs
        h = md5_lower64_batch(b["user_id"].astype(str).to_numpy())
        bucket = (h % np.uint64(M)).astype(np.int64)
        w = h >> np.uint64(9)
        bl = np.zeros(len(w), dtype=np.int64)  # exact bit_length of w
        for s in (32, 16, 8, 4, 2, 1):
            big = w >= (np.uint64(1) << np.uint64(s))
            bl[big] += s
            w[big] >>= np.uint64(s)
        bl += (w > 0).astype(np.int64)
        df = pd.DataFrame(
            {"event_type": b["event_type"].to_numpy(), "bucket": bucket, "rho": 56 - bl}
        )
        return df.groupby(["event_type", "bucket"], as_index=False)["rho"].max()

    regs = (
        ds.map_batches(hll_partial, batch_format="pandas")
        .to_pandas()  # <= n_types*512 rows per block: driver fold, no shuffle
        .groupby(["event_type", "bucket"], as_index=False)["rho"]
        .max()
    )
    # alpha_512 * m^2 * 2^56 — identical literal expression in the SQL twin
    alpha_num = 0.7213 / (1.0 + 1.079 / 512.0) * 262144.0 * 72057594037927936.0
    rows = []
    for t, g in regs.groupby("event_type"):
        s_int = (M - len(g)) * (1 << 56) + sum((1 << 56) >> int(r) for r in g["rho"])
        v0 = M - len(g)  # untouched registers
        e_raw = alpha_num / float(s_int)
        est = 512.0 * math.log(512.0 / v0) if (e_raw <= 1280.0 and v0 > 0) else e_raw
        rows.append((t, est))
    est_df = pd.DataFrame(rows, columns=["event_type", "hll_est"])
    est_df["hll_est"] = _r6(est_df["hll_est"])
    out = distinct_users_by_type(sf_dir).merge(est_df, on="event_type")
    return out.sort_values("event_type").reset_index(drop=True)


_HLL_SQL = """
WITH pairs AS (SELECT DISTINCT event_type, user_id FROM events),
h AS (
  SELECT event_type,
         CAST(md5_number_lower(CAST(user_id AS VARCHAR)) % 512 AS BIGINT) AS bucket,
         md5_number_lower(CAST(user_id AS VARCHAR)) // 512 AS w
  FROM pairs
), r AS (
  SELECT event_type, bucket,
         MAX(56 - (CASE WHEN w = 0 THEN 0 ELSE length(bin(w)) END)) AS rho
  FROM h GROUP BY 1, 2
), agg AS (
  SELECT event_type,
         COUNT(*) AS touched,
         SUM(72057594037927936 // (1::BIGINT << CAST(rho AS BIGINT))) AS s_touched
  FROM r GROUP BY 1
), fin AS (
  SELECT event_type,
         CAST(512 - touched AS BIGINT) AS v0,
         (0.7213::DOUBLE / (1.0 + 1.079::DOUBLE / 512.0) * 262144.0 * 72057594037927936.0)
           / CAST(CAST(512 - touched AS HUGEINT) * 72057594037927936::HUGEINT + s_touched AS DOUBLE) AS e_raw
  FROM agg
)
SELECT f.event_type, d.n_users,
       ROUND(CASE WHEN f.e_raw <= 1280.0 AND f.v0 > 0
                  THEN 512.0 * ln(512.0 / f.v0) ELSE f.e_raw END, 6) AS hll_est
FROM fin f
JOIN (SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
      FROM events GROUP BY 1) d USING (event_type)
ORDER BY event_type
"""


def bloom_false_positives_customers(sf_dir: str) -> pd.DataFrame:
    """Bloom filter with a FULL cross-engine value oracle — completing the
    sketch trilogy (``cms_part_counts``, ``hll_distinct_users_by_type``):
    the production Bloom (``stages/bloom.BloomFilter``, powering every
    anti-join) hashes with ``pd.util.hash_array`` so it is only checked
    via NOT-EXISTS equivalence; THIS query builds an md5-twin Bloom
    (k=3 independent hashes ``md5_lower64(key#i) % 4096``) whose BIT
    ARRAY and exact false-positive set DuckDB recomputes verbatim.
    Semantics: build = distinct custkeys of URGENT orders; probe = all
    customers; emit the probe keys that PASS the filter yet are NOT true
    members (the false positives — the exact rows a Bloom prefilter would
    send to its verify leg in vain).  Distributed shape: set-bit
    positions are mergeable ORs over a FIXED 4096-bit space, so per-block
    partials are <= 4096 ints and fold on the driver (no shuffle for the
    filter); the tiny bitmap ships in the probe closure; membership truth
    goes through the production ``bloom_anti_join`` (Bloom prefilter +
    bucketed exact verify), never a driver key set."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.bloom import bloom_anti_join

    M_BITS, K = 4096, 3
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])

    def urgent_keys(t: pa.Table) -> pa.Table:
        k = t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))["o_custkey"]
        return pa.table({"o_custkey": pc.unique(k)})

    # feeds the bit fold AND bloom_anti_join (count + bloom pass + join)
    build = orders.map_batches(urgent_keys, batch_format="pyarrow").materialize()

    def bit_partial(b: pd.DataFrame) -> pd.DataFrame:
        keys = np.unique(b["o_custkey"].to_numpy().astype(np.int64))
        pos: set[int] = set()
        for i in range(K):
            pos.update(
                (md5_lower64_batch([f"{k}#{i}" for k in keys]) % np.uint64(M_BITS)).tolist()
            )
        return pd.DataFrame({"b": np.array(sorted(pos), dtype=np.int64)})

    bits = np.zeros(M_BITS, dtype=bool)
    parts = build.map_batches(bit_partial, batch_format="pandas").to_pandas()
    bits[parts["b"].to_numpy()] = True  # <= 4096 rows/block: driver OR-fold

    def probe(b: pd.DataFrame) -> pd.DataFrame:
        keys = b["c_custkey"].to_numpy().astype(np.int64)
        ok = np.ones(len(keys), dtype=bool)
        for i in range(K):  # bits is 4 KB — rides the task closure
            p = (md5_lower64_batch([f"{k}#{i}" for k in keys]) % np.uint64(M_BITS)).astype(np.int64)
            ok &= bits[p]
        return b.loc[ok, ["c_custkey"]]

    passed = _read(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        probe, batch_format="pandas"
    )
    fp = bloom_anti_join(passed, build, "c_custkey", "o_custkey").to_pandas()
    if "c_custkey" not in fp.columns:  # zero false positives at tiny SF
        fp = pd.DataFrame({"c_custkey": pd.Series([], dtype=np.int64)})
    fp["c_custkey"] = fp["c_custkey"].astype(np.int64)
    return fp.sort_values("c_custkey").reset_index(drop=True)


_BLOOM_FP_SQL = """
WITH build AS (
  SELECT DISTINCT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
), bits AS (
  SELECT DISTINCT
    CAST(md5_number_lower(CAST(o_custkey AS VARCHAR) || '#' || CAST(i AS VARCHAR)) % 4096 AS BIGINT) AS b
  FROM build, range(3) t(i)
), pass AS (
  SELECT c.c_custkey
  FROM customer c, range(3) t(i)
  WHERE CAST(md5_number_lower(CAST(c.c_custkey AS VARCHAR) || '#' || CAST(t.i AS VARCHAR)) % 4096 AS BIGINT)
        IN (SELECT b FROM bits)
  GROUP BY 1 HAVING COUNT(*) = 3
)
SELECT p.c_custkey FROM pass p
WHERE NOT EXISTS (SELECT 1 FROM build b WHERE b.o_custkey = p.c_custkey)
ORDER BY c_custkey
"""


def token_kl_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source distribution shift: KL(P_source || P_corpus) over the
    global top-200 token vocabulary — the domain-mixing diagnostic a
    training-data pipeline runs before weighting sources (a source whose
    token distribution diverges from the corpus gets re-weighted or
    flagged).  Both distributions renormalize over the shared vocab, so
    q > 0 everywhere and absent source tokens contribute 0.
    Distributed shape: (source, token) counts ride ONE bucketed exchange
    bucketed on TOKEN alone (``bucketed_groupby`` with extra ``source``
    rows riding along), so a token's global count is bucket-local; the
    top-200 vocab comes from per-block local top-k (the full vocabulary
    never reaches the driver — the ``zipf_slope`` idiom); only the
    <= 200 x n_sources vocab slice hits the driver for the finalize.
    Float determinism: every KL term is built from exact int counts with
    the identical double formula on both engines — only the 200-term
    summation order differs (~1e-15), absorbed by ROUND(6).  Tokenizes
    with str.split() == list_filter(regexp_split_to_array) (the round-4
    gram-oracle convention)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    K = 200
    docs = _read(sf_dir, "documents", columns=["source", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        srcs: list = []
        toks: list = []
        for s, t in zip(batch["source"], batch["text"]):
            ws = (t or "").split()
            toks.extend(ws)
            srcs.extend([s] * len(ws))
        df = pd.DataFrame({"tok": toks, "source": srcs})
        return df.groupby(["tok", "source"], as_index=False, dropna=False).size().rename(
            columns={"size": "cnt"}
        )

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby(["tok", "source"], as_index=False, dropna=False)["cnt"].sum()

    counts = bucketed_groupby(docs.map_batches(explode, batch_format="pandas"),
                              ["tok"], lambda b: b, merge, n_buckets=16).materialize()

    def local_top(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("tok", as_index=False)["cnt"].sum().rename(columns={"cnt": "ct"})
        return g.sort_values(["ct", "tok"], ascending=[False, True]).head(K)

    vocab_df = (
        counts.map_batches(local_top, batch_format="pandas")
        .to_pandas()
        .sort_values(["ct", "tok"], ascending=[False, True])
        .head(K)
    )
    vocab = set(vocab_df["tok"])  # 200 strings — rides the filter closure

    slice_df = counts.map_batches(
        lambda b: b[b["tok"].isin(vocab)], batch_format="pandas"
    ).to_pandas()  # <= 200 x n_sources rows

    ct = vocab_df.set_index("tok")["ct"].astype(np.int64)
    tot = float(int(ct.sum()))
    rows = []
    for src, g in slice_df.groupby("source"):
        st = float(int(g["cnt"].sum()))
        p = g["cnt"].to_numpy(np.float64) / st
        q = ct.loc[g["tok"]].to_numpy(np.float64) / tot
        rows.append((src, np.int64(st), float((p * np.log(p / q)).sum())))
    out = pd.DataFrame(rows, columns=["source", "vocab_tokens", "kl"])
    out["kl"] = _r6(out["kl"])
    return out.sort_values("source").reset_index(drop=True)


_TOKEN_KL_SQL = r"""
WITH toks AS (
  SELECT source,
         unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS tok
  FROM documents
), counts AS (
  SELECT source, tok, CAST(COUNT(*) AS BIGINT) AS cnt FROM toks GROUP BY 1, 2
), vocab AS (
  SELECT tok, SUM(cnt) AS ct FROM counts GROUP BY 1 ORDER BY ct DESC, tok LIMIT 200
), vtot AS (SELECT SUM(ct) AS tot FROM vocab),
vc AS (SELECT c.source, c.tok, c.cnt, v.ct FROM counts c JOIN vocab v USING (tok)),
stot AS (SELECT source, SUM(cnt) AS st FROM vc GROUP BY 1)
SELECT vc.source,
       CAST(s.st AS BIGINT) AS vocab_tokens,
       ROUND(SUM((vc.cnt::DOUBLE / s.st::DOUBLE)
                 * ln((vc.cnt::DOUBLE / s.st::DOUBLE) / (vc.ct::DOUBLE / t.tot::DOUBLE))), 6) AS kl
FROM vc JOIN stot s USING (source) CROSS JOIN vtot t
GROUP BY 1, 2 ORDER BY source
"""


def key_skew_gini_orders(sf_dir: str) -> pd.DataFrame:
    """Key-skew diagnostic: the Gini coefficient of orders-per-customer —
    the statistic behind this repo's salting/bucketing decisions, as a
    first-class op.  Shape: per-key counts ride one bucketed exchange;
    the COUNT-OF-COUNTS (how many keys occur c times) is a bounded-domain
    second fold, so the Gini's sorted-rank sum collapses to EXACT integer
    block arithmetic (keys tied at count c occupy consecutive ranks:
    sum(i * x_i) over the block = c * (m*B + m(m+1)/2)) — the key list
    itself never sorts and never reaches the driver.  Only the final
    division is float, with the association order mirrored in the SQL."""
    from ndap_data_validator_ray.stages.groupby import count_by_key, sum_by_key

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    counts = count_by_key(orders, ["o_custkey"], n_buckets=16, count_col="c")

    def coc_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["c"].value_counts()
        return pd.DataFrame({"c": vc.index.to_numpy(np.int64), "m": vc.to_numpy(np.int64)})

    coc = (
        sum_by_key(
            counts.map_batches(coc_partial, batch_format="pandas"),
            ["c"],
            ["m"],
            n_buckets=8,
            partial_format="pandas",
        )
        .to_pandas()
        .sort_values("c")
        .reset_index(drop=True)
    )
    c = coc["c"].to_numpy(np.int64)
    m = coc["m"].to_numpy(np.int64)
    n = int(m.sum())
    s = int((c * m).sum())
    b_prev = np.concatenate([[0], np.cumsum(m)[:-1]])
    t = int((c * (m * b_prev + m * (m + 1) // 2)).sum())
    gini = (2.0 * float(t)) / float(n * s) - (float(n) + 1.0) / float(n)
    return pd.DataFrame(
        {
            "n_keys": [np.int64(n)],
            "n_rows": [np.int64(s)],
            "max_per_key": [np.int64(c.max())],
            "gini": [round(gini, 6)],
        }
    )


_KEY_SKEW_SQL = """
WITH k AS (SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS c FROM orders GROUP BY 1),
coc AS (SELECT c, CAST(COUNT(*) AS BIGINT) AS m FROM k GROUP BY c),
o AS (SELECT c, m, SUM(m) OVER (ORDER BY c ROWS UNBOUNDED PRECEDING) - m AS b FROM coc),
t AS (
  SELECT SUM(c * (m * b + m * (m + 1) // 2)) AS tt,
         SUM(c * m) AS s, SUM(m) AS n, MAX(c) AS maxc
  FROM o
)
SELECT CAST(n AS BIGINT) AS n_keys, CAST(s AS BIGINT) AS n_rows,
       CAST(maxc AS BIGINT) AS max_per_key,
       ROUND(2.0 * tt / (n * s) - (n + 1.0) / n, 6) AS gini
FROM t
"""


def benford_first_digit_prices(sf_dir: str) -> pd.DataFrame:
    """Benford's-law conformance of order prices — the classic
    fabricated-data / corruption screen: observed first-significant-digit
    frequencies vs log10(1 + 1/d), with the chi-square statistic.  Digit
    extraction goes through EXACT integer cents and their decimal string
    (never float log10, whose misrounding near powers of ten flips
    digits — the sketch-trilogy bit_length rule's decimal cousin); the
    9-bin histogram is a fixed-space per-batch partial folded on the
    driver (the sketch-family no-shuffle shape).  Per-digit expected
    counts are IEEE twins; the chi-square SUM over 9 addends is the only
    order-dependent float — round-6 per the module convention."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key  # noqa: F401 (shape doc)

    orders = _read(sf_dir, "orders", columns=["o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["o_totalprice"].dropna().to_numpy(np.float64) * 100.0).astype(np.int64)
        cents = cents[cents > 0]
        counts = np.zeros(9, dtype=np.int64)
        if len(cents):
            # leading digit by vectorized integer division (<= 19 passes,
            # each whole-array): exact, no float log10, no per-row loop
            lead = cents.copy()
            while True:
                big = lead >= 10
                if not big.any():
                    break
                lead[big] //= 10
            counts = np.bincount(lead, minlength=10)[1:10]
        return pd.DataFrame({"digit": np.arange(1, 10, dtype=np.int64), "n_obs": counts})

    hist = (
        orders.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("digit", as_index=False)["n_obs"]
        .sum()
        .sort_values("digit")
        .reset_index(drop=True)
    )
    n = float(hist["n_obs"].sum())
    d = hist["digit"].to_numpy(np.float64)
    exp = n * np.log10(1.0 + 1.0 / d)
    chi2 = float(np.sum((hist["n_obs"].to_numpy(np.float64) - exp) ** 2 / exp))
    return pd.DataFrame(
        {
            "digit": hist["digit"].astype(np.int64),
            "n_obs": hist["n_obs"].astype(np.int64),
            "expected": _r6(exp),
            "chi2": _r6(np.full(9, chi2)),
        }
    )


_BENFORD_SQL = """
WITH c AS (
  SELECT CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS cents
  FROM orders WHERE o_totalprice IS NOT NULL
),
lead AS (
  SELECT CAST(LEFT(CAST(cents AS VARCHAR), 1) AS BIGINT) AS digit FROM c WHERE cents > 0
),
obs AS (
  SELECT d.digit, CAST(COUNT(lead.digit) AS BIGINT) AS n_obs
  FROM (SELECT unnest(range(1, 10)) AS digit) d
  LEFT JOIN lead ON lead.digit = d.digit
  GROUP BY d.digit
),
tot AS (SELECT CAST(SUM(n_obs) AS DOUBLE) AS n FROM obs),
e AS (
  SELECT digit, n_obs,
         (SELECT n FROM tot) * log10(1.0 + 1.0 / CAST(digit AS DOUBLE)) AS exp
  FROM obs
),
x AS (
  SELECT ROUND(SUM((CAST(n_obs AS DOUBLE) - exp) * (CAST(n_obs AS DOUBLE) - exp) / exp), 6) AS chi2
  FROM e
)
SELECT digit, n_obs, ROUND(exp, 6) AS expected, (SELECT chi2 FROM x) AS chi2
FROM e ORDER BY digit
"""


def corr_matrix_lineitem(sf_dir: str) -> pd.DataFrame:
    """Pairwise Pearson correlation matrix over lineitem's four numeric
    measures (quantity, extendedprice, discount, tax) — the profiling
    staple next to the per-flag regression/correlation ops.  One
    streaming pass: each batch emits a FIXED 15-scalar moment partial
    (n, 4 sums, 4 sum-of-squares, 6 cross-products — all commutative),
    the driver folds and evaluates the closed form
    (n*Sxy - Sx*Sy) / sqrt((n*Sxx - Sx^2)(n*Syy - Sy^2)) — the sketch
    family's no-shuffle shape with a 15-float 'sketch'.  Rows with ANY
    null among the four columns drop on both sides so every pair shares
    one n.  DuckDB's corr() is a numerically-stable one-pass of the same
    statistic; round-6 absorbs the formulation difference."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = _read(sf_dir, "lineitem", columns=cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=cols)
        m = b[cols].to_numpy(np.float64)
        out = {"n": [float(len(m))]}
        for i, ci in enumerate(cols):
            out[f"s_{ci}"] = [m[:, i].sum()]
            for j, cj in enumerate(cols):
                if j >= i:
                    out[f"s_{ci}_{cj}"] = [(m[:, i] * m[:, j]).sum()]
        return pd.DataFrame(out)

    f = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    n = f["n"]
    rows = []
    for i, ci in enumerate(cols):
        for j, cj in enumerate(cols):
            if j <= i:
                continue
            num = n * f[f"s_{ci}_{cj}"] - f[f"s_{ci}"] * f[f"s_{cj}"]
            va = n * f[f"s_{ci}_{ci}"] - f[f"s_{ci}"] ** 2
            vb = n * f[f"s_{cj}_{cj}"] - f[f"s_{cj}"] ** 2
            den = np.sqrt(va * vb)
            a, b_ = sorted([ci, cj])  # corr is symmetric: canonical name order
            rows.append((a, b_, round(float(num / den), 6) if den > 0 else 0.0))
    return pd.DataFrame(rows, columns=["col_a", "col_b", "corr"]).sort_values(
        ["col_a", "col_b"]
    ).reset_index(drop=True)


_CORR_MATRIX_SQL = """
WITH d AS (
  SELECT l_quantity AS q, l_extendedprice AS e, l_discount AS di, l_tax AS t
  FROM lineitem
  WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
    AND l_discount IS NOT NULL AND l_tax IS NOT NULL
),
c AS (
  SELECT corr(q, e) AS c_qe, corr(q, di) AS c_qd, corr(q, t) AS c_qt,
         corr(e, di) AS c_ed, corr(e, t) AS c_et, corr(di, t) AS c_dt
  FROM d
)
SELECT * FROM (
  SELECT 'l_extendedprice' AS col_a, 'l_quantity' AS col_b, ROUND(c_qe, 6) AS corr FROM c
  UNION ALL SELECT 'l_discount', 'l_quantity', ROUND(c_qd, 6) FROM c
  UNION ALL SELECT 'l_quantity', 'l_tax', ROUND(c_qt, 6) FROM c
  UNION ALL SELECT 'l_discount', 'l_extendedprice', ROUND(c_ed, 6) FROM c
  UNION ALL SELECT 'l_extendedprice', 'l_tax', ROUND(c_et, 6) FROM c
  UNION ALL SELECT 'l_discount', 'l_tax', ROUND(c_dt, 6) FROM c
) ORDER BY col_a, col_b
"""


def mad_outlier_orders(sf_dir: str) -> pd.DataFrame:
    """Robust per-customer outliers: orders whose price deviates from the
    customer's MEDIAN by more than 3x the customer's MAD (median absolute
    deviation) — the robust-statistics sibling of the mean/std
    ``outlier_orders_by_priority`` (medians don't chase the outliers they
    flag).  Both medians AND the flagging run inside ONE bucketed
    exchange on the customer key: a customer's rows are co-located in
    their reducer, so med, dev, mad and the filter are all local —
    exactly one wide step for a two-pass-looking statistic.  Per-element
    float ops (interpolated percentile, abs, 3*mad compare) are IEEE
    twins of quantile_cont; no order-dependent sums, so the strict
    boundary compare agrees bit-for-bit."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for ck, g in group.groupby("o_custkey", sort=False):
            if len(g) < 5:
                continue
            x = g["o_totalprice"].to_numpy(np.float64)
            med = np.percentile(x, 50)
            dev = np.abs(x - med)
            mad = np.percentile(dev, 50)
            if not mad > 0:
                continue
            m = dev > 3.0 * mad
            if not m.any():
                continue
            outs.append(
                pd.DataFrame(
                    {
                        "o_orderkey": g["o_orderkey"].to_numpy(np.int64)[m],
                        "o_custkey": np.int64(ck),
                        "o_totalprice": x[m],
                        "med": med,
                        "mad": mad,
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "o_orderkey": pd.Series([], dtype=np.int64),
                    "o_custkey": pd.Series([], dtype=np.int64),
                    "o_totalprice": pd.Series([], dtype=np.float64),
                    "med": pd.Series([], dtype=np.float64),
                    "mad": pd.Series([], dtype=np.float64),
                }
            )
        return pd.concat(outs, ignore_index=True)

    out = bucketed_groupby(orders, ["o_custkey"], lambda b: b, merge, n_buckets=16).to_pandas()
    out["med"] = _r6(out["med"])
    out["mad"] = _r6(out["mad"])
    return out.sort_values("o_orderkey").reset_index(drop=True)


_MAD_OUTLIER_SQL = """
WITH m AS (
  SELECT o_custkey, quantile_cont(o_totalprice, 0.5) AS med
  FROM orders GROUP BY 1 HAVING COUNT(*) >= 5
),
d AS (
  SELECT o.o_orderkey, o.o_custkey, o.o_totalprice, m.med,
         abs(o.o_totalprice - m.med) AS dev
  FROM orders o JOIN m USING (o_custkey)
),
md AS (SELECT o_custkey, quantile_cont(dev, 0.5) AS mad FROM d GROUP BY 1)
SELECT d.o_orderkey, d.o_custkey, d.o_totalprice,
       ROUND(d.med, 6) AS med, ROUND(md.mad, 6) AS mad
FROM d JOIN md USING (o_custkey)
WHERE md.mad > 0 AND d.dev > 3.0 * md.mad
ORDER BY d.o_orderkey
"""


def cusum_daily_revenue(sf_dir: str) -> pd.DataFrame:
    """CUSUM changepoint scan over the daily order-revenue series — the
    sequential drift-LOCALIZATION op next to the global drift tests
    (KS / PSI): s_i = max(0, s_{i-1} + x_i - k), alarm when s > 5k.
    Distributed shape: daily sums are per-batch Arrow partials folded on
    the driver (the low-cardinality ~2.4k-day rule); the O(days)
    recurrence runs on the driver — a per-KEY CUSUM over a high-card key
    would instead ride a bucketed exchange with per-key vectorized scans
    (the sessionization shape).  Everything is EXACT integer cents
    (round(price*100) per row, integer sums, k = total // n_days), so
    the inherently ORDER-FIXED recurrence is bit-identical to the SQL
    twin — a recursive CTE replays it verbatim, making this genuinely
    sequential op fully value-oracled."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["o_orderdate", "o_totalprice"])
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        cents = np.round(b["o_totalprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
        return pd.DataFrame({"day": d, "cents": cents}).groupby("day", as_index=False)[
            "cents"
        ].sum()

    daily = (
        sum_by_key(
            orders.map_batches(day_partial, batch_format="pandas"),
            ["day"],
            ["cents"],
            n_buckets=32,
            partial_format="pandas",
        )
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    x = daily["cents"].to_numpy(np.int64)
    n = len(x)
    k = int(x.sum()) // n
    s = np.zeros(n, dtype=np.int64)
    run = 0
    for i in range(n):
        run = max(0, run + int(x[i]) - k)
        s[i] = run
    return pd.DataFrame(
        {
            "day": daily["day"].to_numpy(np.int64),
            "revenue": _r2(x / 100.0),
            "cusum": _r2(s / 100.0),
            "alarm": s > 5 * k,
        }
    )


_CUSUM_SQL = """
WITH RECURSIVE d AS (
  SELECT CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS cents
  FROM orders WHERE o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
idx AS (SELECT day, cents, ROW_NUMBER() OVER (ORDER BY day) AS i FROM d),
p AS (SELECT SUM(cents) // COUNT(*) AS k FROM idx),
c AS (
  SELECT i, GREATEST(CAST(0 AS BIGINT), cents - (SELECT k FROM p)) AS s
  FROM idx WHERE i = 1
  UNION ALL
  SELECT idx.i, GREATEST(CAST(0 AS BIGINT), c.s + idx.cents - (SELECT k FROM p))
  FROM c JOIN idx ON idx.i = c.i + 1
)
SELECT CAST(idx.day AS BIGINT) AS day,
       ROUND(CAST(idx.cents AS DOUBLE) / 100, 2) AS revenue,
       ROUND(CAST(c.s AS DOUBLE) / 100, 2) AS cusum,
       c.s > 5 * (SELECT k FROM p) AS alarm
FROM idx JOIN c USING (i) ORDER BY day
"""


def cusum_user_events(sf_dir: str) -> pd.DataFrame:
    """Per-KEY CUSUM — the high-cardinality sibling of
    ``cusum_daily_revenue``: for every user, the maximum of
    s_i = max(0, s_{i-1} + x_i - k_user) over the (ts, event_id)-ordered
    event-value stream (k_user = that user's exact integer mean), with
    where it peaked and an alarm at s > 5k.  The sequential recurrence
    VECTORIZES via the prefix identity s_i = P_i - min(0, min_{j<=i} P_j)
    (P = running sum of x - k), so one bucketed exchange on user_id
    followed by grouped cumsum / cummin — no per-row Python loop, no
    driver state beyond the O(users) summary.  Exact integer cents end
    to end; the SQL twin computes the SAME identity with window
    functions (the recurrence needs no recursion once rewritten)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def slim(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["event_id", "ts", "user_id", "value"])
        return pd.DataFrame(
            {
                "user_id": b["user_id"].to_numpy(np.int64),
                "ts": b["ts"].to_numpy(),
                "event_id": b["event_id"].to_numpy(np.int64),
                "cents": np.round(b["value"].to_numpy(np.float64) * 100.0).astype(np.int64),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(drop=True)
        grp = g.groupby("user_id", sort=False)
        tot = grp["cents"].transform("sum")
        n = grp["cents"].transform("size")
        k = tot // n  # pandas int floor div == DuckDB //
        p = (g["cents"] - k).groupby(g["user_id"], sort=False).cumsum()
        m = np.minimum(p, 0).groupby(g["user_id"], sort=False).cummin()
        s = (p - m).to_numpy(np.int64)
        d = g.assign(_s=s, _k=k.to_numpy(np.int64), _n=n.to_numpy(np.int64))
        # earliest row achieving the per-user max (sort is already
        # (ts, event_id) within user; idxmax takes the first hit)
        peak = d.loc[d.groupby("user_id", sort=False)["_s"].idxmax()]
        return pd.DataFrame(
            {
                "user_id": peak["user_id"].to_numpy(np.int64),
                "n_events": peak["_n"].to_numpy(np.int64),
                "k": _r2(peak["_k"].to_numpy(np.int64) / 100.0),
                "max_cusum": _r2(peak["_s"].to_numpy(np.int64) / 100.0),
                "peak_event_id": peak["event_id"].to_numpy(np.int64),
                "alarm": peak["_s"].to_numpy(np.int64) > 5 * peak["_k"].to_numpy(np.int64),
            }
        )

    out = bucketed_groupby(
        ev.map_batches(slim, batch_format="pandas"), ["user_id"], lambda b: b, merge, n_buckets=16
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


_CUSUM_USER_SQL = """
WITH e AS (
  SELECT user_id, ts, event_id, CAST(ROUND(value * 100.0) AS BIGINT) AS cents
  FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL AND value IS NOT NULL AND event_id IS NOT NULL
),
ku AS (SELECT user_id, SUM(cents) // COUNT(*) AS k, COUNT(*) AS n FROM e GROUP BY 1),
w AS (
  SELECT e.user_id, e.ts, e.event_id, ku.k, ku.n,
         SUM(e.cents - ku.k) OVER (PARTITION BY e.user_id ORDER BY e.ts, e.event_id
             ROWS UNBOUNDED PRECEDING) AS p
  FROM e JOIN ku USING (user_id)
),
s AS (
  SELECT user_id, ts, event_id, k, n,
         p - MIN(LEAST(p, 0)) OVER (PARTITION BY user_id ORDER BY ts, event_id
             ROWS UNBOUNDED PRECEDING) AS s
  FROM w
),
r AS (
  SELECT user_id, k, n, s, ts, event_id,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY s DESC, ts, event_id) AS rn
  FROM s
)
SELECT user_id, CAST(n AS BIGINT) AS n_events,
       ROUND(CAST(k AS DOUBLE) / 100, 2) AS k,
       ROUND(CAST(s AS DOUBLE) / 100, 2) AS max_cusum,
       event_id AS peak_event_id,
       s > 5 * k AS alarm
FROM r WHERE rn = 1 ORDER BY user_id
"""


def tfidf_cosine_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """TF-IDF weighted cosine similarity self-join over char-8-gram
    document vectors (``stages/setsim.weighted_cosine_join`` — the
    weighted sibling of the exact AllPairs Jaccard join): all pairs with
    cosine >= 0.5.  Char grams, not word tokens, because this corpus's
    WORD vocabulary is 31 types at df ~400/500 — word tf-idf is
    degenerate; 8-gram vocabulary is ~10k types at median df 4.  Terms
    with df > 100 (or present in EVERY doc, idf = 0) are cut before
    weighting — the df cut both bounds the inverted-index fanout
    (sum over terms of C(df, 2)) and drops only ~idf-0 mass, the
    standard sparse-similarity scale lever.  Fully distributed: df via
    ``count_by_key``, idf attach via the guarded broadcast-or-join,
    norms + pair partial products + global pair sums all bucketed
    exchanges; only the thresholded pairs reach the driver.  Per-element
    IEEE ops (tf * ln(n/df), w / sqrt(sum w^2), products) are exact SQL
    twins; the SUMS are order-dependent, so both sides threshold the
    ROUND(..., 6) value per the module convention."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import count_by_key
    from ndap_data_validator_ray.stages.setsim import weighted_cosine_join

    K, DF_CAP, TAU, NB = 8, 100, 0.5, 16
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = docs.count()

    def tf_rows(batch: pd.DataFrame) -> pd.DataFrame:
        texts = ["" if t is None else str(t) for t in batch["text"]]
        ids = batch["doc_id"].to_numpy(np.int64)
        grams: list[str] = []
        counts: list[int] = []
        for s in texts:
            m = len(s) - K + 1
            if m > 0:
                grams.extend(s[i : i + K] for i in range(m))
                counts.append(m)
            else:
                counts.append(0)
        if not grams:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=np.int64),
                    "tok": pd.Series([], dtype=object),
                    "tf": pd.Series([], dtype=np.int64),
                }
            )
        codes, uniq = pd.factorize(np.asarray(grams, dtype=object))
        uniq = np.asarray(uniq, dtype=object)
        doc_idx = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        width = np.int64(len(uniq))
        packed, tf = np.unique(doc_idx * width + codes.astype(np.int64), return_counts=True)
        return pd.DataFrame(
            {
                "doc_id": ids[packed // width],
                "tok": uniq[packed % width],
                "tf": tf.astype(np.int64),
            }
        )

    tf = docs.map_batches(tf_rows, batch_format="pandas").materialize()
    dfc = count_by_key(tf, ["tok"], n_buckets=NB, count_col="df")
    dff = dfc.map_batches(
        lambda b: b[(b["df"] <= DF_CAP) & (b["df"] < n_docs)], batch_format="pandas"
    ).materialize()
    weighted = attach_or_join(tf, dff, on_fact="tok", on_side="tok", attach_cols=["df"])

    def weigh(b: pd.DataFrame) -> pd.DataFrame:
        w = b["tf"].to_numpy(np.float64) * np.log(float(n_docs) / b["df"].to_numpy(np.float64))
        return pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy(np.int64), "tok": b["tok"].to_numpy(), "w": w}
        )

    wrows = weighted.map_batches(weigh, batch_format="pandas")
    return weighted_cosine_join(wrows, "doc_id", "tok", "w", threshold=TAU, n_buckets=NB)


_TFIDF_COSINE_SQL = """
WITH d AS (SELECT doc_id, COALESCE(text, '') AS t FROM documents),
tf AS (
  SELECT doc_id, g AS tok, CAST(COUNT(*) AS BIGINT) AS tf FROM (
    SELECT doc_id, unnest(list_transform(range(1, length(t) - 6), i -> substr(t, i, 8))) AS g
    FROM d
  ) GROUP BY doc_id, g
),
nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents),
dft AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY tok
        HAVING COUNT(*) <= 100 AND COUNT(*) < (SELECT COUNT(*) FROM documents)),
w AS (SELECT doc_id, tok,
             CAST(tf AS DOUBLE) * ln((SELECT n FROM nn) / CAST(df AS DOUBLE)) AS w
      FROM tf JOIN dft USING (tok)),
nrm AS (SELECT doc_id, sqrt(SUM(w * w)) AS nr FROM w GROUP BY doc_id),
nw AS (SELECT w.doc_id, tok, w / nr AS nw FROM w JOIN nrm ON w.doc_id = nrm.doc_id),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, ROUND(SUM(a.nw * b.nw), 6) AS cosine
  FROM nw a JOIN nw b ON a.tok = b.tok AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b, cosine FROM pairs WHERE cosine >= 0.5 ORDER BY id_a, id_b
"""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def pareto_skyline_parts(sf_dir: str) -> pd.DataFrame:
    """Pareto skyline over parts: minimize p_retailprice, maximize p_size
    (the 'cheapest big parts' frontier).  Per-block local skylines (a
    lossless pre-filter — skylines are closed under union-then-reduce)
    stream to a driver fold of a few candidate rows; the kernel is one
    lexsort + running max, no per-row Python (stages/skyline.py).  Ties
    on both dimensions all survive, matching the strict-dominance
    NOT EXISTS twin."""
    from ndap_data_validator_ray.stages.skyline import distributed_skyline2d

    ds = _read(sf_dir, "part", columns=["p_partkey", "p_retailprice", "p_size"])
    out = distributed_skyline2d(ds, "p_retailprice", "p_size")
    out = out.sort_values("p_partkey").reset_index(drop=True)
    out["p_size"] = out["p_size"].astype(np.int64)
    return out[["p_partkey", "p_retailprice", "p_size"]]


_SKYLINE_SQL = """
SELECT p.p_partkey, p.p_retailprice, CAST(p.p_size AS BIGINT) AS p_size
FROM part p
WHERE p.p_retailprice IS NOT NULL AND p.p_size IS NOT NULL
  AND NOT EXISTS (
    SELECT 1 FROM part q
    WHERE q.p_retailprice IS NOT NULL AND q.p_size IS NOT NULL
      AND q.p_retailprice <= p.p_retailprice AND q.p_size >= p.p_size
      AND (q.p_retailprice < p.p_retailprice OR q.p_size > p.p_size))
ORDER BY p.p_partkey
"""


def event_hour_mutual_info(sf_dir: str) -> pd.DataFrame:
    """Pointwise mutual information between event_type and hour-of-day:
    Arrow-native per-batch contingency partials (group_by count) fold on
    the driver — the cell domain is n_types x 24, so the exchange is a
    few hundred rows regardless of input size (the low-cardinality
    driver-fold rule).  Every float is a pure per-cell function of exact
    integer counts (one multiply, one divide, one log), so both engines
    compute bit-identical doubles up to libm's log ulp — absorbed by the
    shared ROUND(_, 9) convention.  Counts are cast to float64 BEFORE the
    product (cnt * total overflows int64 at ~10^12 rows)."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch["event_type"]), pc.is_valid(batch["ts"]))
        t = batch.filter(m)
        cells = pa.table({"event_type": t["event_type"], "hour": pc.hour(t["ts"])})
        agg = cells.group_by(["event_type", "hour"]).aggregate([([], "count_all")])
        return agg.rename_columns(["event_type", "hour", "cnt"])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    cells = parts.groupby(["event_type", "hour"], as_index=False)["cnt"].sum()
    total = float(cells["cnt"].sum())
    rc = cells.groupby("event_type")["cnt"].sum().astype(np.float64)
    cc = cells.groupby("hour")["cnt"].sum().astype(np.float64)
    c = cells["cnt"].to_numpy(dtype=np.float64)
    r = cells["event_type"].map(rc).to_numpy(dtype=np.float64)
    m = cells["hour"].map(cc).to_numpy(dtype=np.float64)
    out = pd.DataFrame(
        {
            "event_type": cells["event_type"],
            "hour": cells["hour"].astype(np.int64),
            "cnt": cells["cnt"].astype(np.int64),
            "pxy": _r9(c / total),
            "pmi": _r9(np.log(c * total / (r * m))),
        }
    )
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


_EVENT_HOUR_MI_SQL = """
WITH cells AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
         COUNT(*) AS c
  FROM events WHERE event_type IS NOT NULL AND ts IS NOT NULL
  GROUP BY 1, 2
), tot AS (SELECT CAST(SUM(c) AS DOUBLE) AS n FROM cells),
rm AS (SELECT event_type, CAST(SUM(c) AS DOUBLE) AS rc FROM cells GROUP BY 1),
cm AS (SELECT hour, CAST(SUM(c) AS DOUBLE) AS cc FROM cells GROUP BY 1)
SELECT c.event_type, c.hour, CAST(c.c AS BIGINT) AS cnt,
       ROUND(CAST(c.c AS DOUBLE) / t.n, 9) AS pxy,
       ROUND(LN(CAST(c.c AS DOUBLE) * t.n / (r.rc * m.cc)), 9) AS pmi
FROM cells c CROSS JOIN tot t
JOIN rm r ON r.event_type = c.event_type
JOIN cm m ON m.hour = c.hour
ORDER BY c.event_type, c.hour
"""


def cumulative_new_users_events(sf_dir: str) -> pd.DataFrame:
    """Cumulative distinct users per day (running distinct = cumsum of
    first-appearance counts).  ONE bucketed exchange keyed on user_id
    (high-cardinality): per-batch (user, min day) partials, and the
    bucket merge finishes BOTH aggregations — per-user first day, then
    per-day new-user counts — so only <=n_days rows per bucket reach the
    driver, never the user set.  The driver folds day counts and takes
    the exact integer prefix sum."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=["user_id", "ts"])
        return pd.DataFrame(
            {"user_id": b["user_id"].to_numpy(), "d": b["ts"].dt.normalize().to_numpy()}
        ).groupby("user_id", as_index=False)["d"].min()

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        first = part.groupby("user_id", as_index=False)["d"].min()
        dc = first.groupby("d", as_index=False).size()
        return dc.rename(columns={"size": "new_users"})

    parts = bucketed_groupby(ds, ["user_id"], partial, merge, n_buckets=32).to_pandas()
    days = parts.groupby("d", as_index=False)["new_users"].sum().sort_values("d")
    return pd.DataFrame(
        {
            "day": pd.to_datetime(days["d"]).dt.strftime("%Y-%m-%d"),
            "new_users": days["new_users"].to_numpy(dtype=np.int64),
            "cum_users": days["new_users"].to_numpy(dtype=np.int64).cumsum(),
        }
    ).reset_index(drop=True)


_CUMULATIVE_USERS_SQL = """
WITH fd AS (
  SELECT user_id, MIN(CAST(ts AS DATE)) AS d
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
  GROUP BY 1
), dc AS (SELECT d, CAST(COUNT(*) AS BIGINT) AS new_users FROM fd GROUP BY 1)
SELECT STRFTIME(d, '%Y-%m-%d') AS day, new_users,
       CAST(SUM(new_users) OVER (ORDER BY d) AS BIGINT) AS cum_users
FROM dc ORDER BY day
"""


def fk_integrity_audit(sf_dir: str) -> pd.DataFrame:
    """Whole-schema referential-integrity audit: every FK edge of the
    star schema (plus events.user_id -> customer, which genuinely dangles
    on this data) runs through the Bloom-prefiltered anti-join
    (stages/bloom.py) and reports its violation count — the reference's
    single referential check (J1, utils/validation.py) generalized to an
    all-edges audit.  Per edge the build side folds into one fixed-size
    Bloom broadcast, bloom-MISS probe rows short-circuit as definite
    violations (no shuffle), bloom-HIT rows pay the exact bucketed anti
    verify, and only one integer per edge ever reaches the driver.  Null
    probe keys count as violations (SQL NOT EXISTS semantics).  The
    seven edges are independent pipelines, so they execute concurrently
    in driver threads (sequential execution measured ~30 s of pure
    orchestration at ANY sf; overlapped it is bounded by the slowest
    edge).  Concurrency safety: all Datasets are built on the MAIN
    thread (Ray's lazy path-util imports aren't thread-safe) and the
    anti-joins run in ``mode="task"`` — 7 concurrent actor-mode joins
    try to place ~14 min-1 mark pools and deadlock a small session."""
    import concurrent.futures

    from ndap_data_validator_ray.stages.bloom import bloom_anti_join

    edges = [
        ("customer.c_nationkey->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
        ("events.user_id->customer", "events", "user_id", "customer", "c_custkey"),
        ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem.l_partkey->part", "lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem.l_suppkey->supplier", "lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ("orders.o_custkey->customer", "orders", "o_custkey", "customer", "c_custkey"),
        ("supplier.s_nationkey->nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
    ]
    # main-thread Dataset construction; threads only execute
    reads = [
        (_read(sf_dir, probe_t, columns=[probe_k]), _read(sf_dir, build_t, columns=[build_k]))
        for _, probe_t, probe_k, build_t, build_k in edges
    ]

    def count_edge(i: int) -> int:
        probe, build = reads[i]
        return bloom_anti_join(
            probe, build, probe_on=edges[i][2], build_on=edges[i][4], mode="task"
        ).count()

    with concurrent.futures.ThreadPoolExecutor(max_workers=len(edges)) as pool:
        counts = list(pool.map(count_edge, range(len(edges))))
    return pd.DataFrame(
        {"fk": [e[0] for e in edges], "violations": np.asarray(counts, dtype=np.int64)}
    )


_FK_AUDIT_SQL = """
WITH v AS (
  SELECT 'customer.c_nationkey->nation' AS fk, COUNT(*) AS violations FROM customer c
    WHERE NOT EXISTS (SELECT 1 FROM nation n WHERE n.n_nationkey = c.c_nationkey)
  UNION ALL
  SELECT 'events.user_id->customer', COUNT(*) FROM events e
    WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = e.user_id)
  UNION ALL
  SELECT 'lineitem.l_orderkey->orders', COUNT(*) FROM lineitem l
    WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey)
  UNION ALL
  SELECT 'lineitem.l_partkey->part', COUNT(*) FROM lineitem l
    WHERE NOT EXISTS (SELECT 1 FROM part p WHERE p.p_partkey = l.l_partkey)
  UNION ALL
  SELECT 'lineitem.l_suppkey->supplier', COUNT(*) FROM lineitem l
    WHERE NOT EXISTS (SELECT 1 FROM supplier s WHERE s.s_suppkey = l.l_suppkey)
  UNION ALL
  SELECT 'orders.o_custkey->customer', COUNT(*) FROM orders o
    WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
  UNION ALL
  SELECT 'supplier.s_nationkey->nation', COUNT(*) FROM supplier s
    WHERE NOT EXISTS (SELECT 1 FROM nation n WHERE n.n_nationkey = s.s_nationkey)
)
SELECT fk, CAST(violations AS BIGINT) AS violations FROM v ORDER BY fk
"""


def _emit_within_group_pairs(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All unordered (val_i, val_j) pairs within each key group, fully
    vectorized (no per-group Python loop): rows must arrive sorted by
    (key, val) with vals unique within a key; for each row i the partners
    are the rows i+1..group_end, enumerated via repeat/cumsum index
    arithmetic."""
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=vals.dtype), np.empty(0, dtype=vals.dtype)
    change = np.r_[True, keys[1:] != keys[:-1]]
    starts = np.flatnonzero(change)
    sizes = np.diff(np.r_[starts, n])
    gid = np.cumsum(change) - 1
    group_end = (starts + sizes)[gid]  # one past each row's group
    reps = group_end - np.arange(n) - 1  # partners to the right of row i
    ia = np.repeat(np.arange(n), reps)
    run_start = np.repeat(np.r_[0, np.cumsum(reps)[:-1]], reps)
    jb = ia + 1 + (np.arange(int(reps.sum())) - run_start)
    return vals[ia], vals[jb]


def copurchase_lift_parts(sf_dir: str) -> pd.DataFrame:
    """Market-basket mining: the top-20 part pairs by LIFT among pairs
    co-purchased in >= 3 orders.  Distributed shape (no all-pairs self
    join): (1) one bucketed exchange on l_orderkey co-locates each
    order's distinct parts and the reducer emits pair rows via the
    vectorized repeat/cumsum kernel (order sizes are bounded, so pairs
    per order are O(size^2) with a small constant — never O(parts^2));
    (2) pair counts fold through a second bucketed exchange keyed on the
    pair; (3) per-part order frequencies ride their own keyed exchange;
    (4) only pairs at/above min-support survive to the lift join, which
    goes through stages/broadcast.attach_or_join (broadcast under the
    cap, bucketed join above).  Lift = P(a,b) / (P(a) P(b)) computed in
    the exact same float64 expression as the SQL twin; ties at the
    top-20 boundary are broken by (part_a, part_b)."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby, count_by_key

    min_support = 3
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def distinct_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def emit_pairs(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates().sort_values(["l_orderkey", "l_partkey"])
        a, b = _emit_within_group_pairs(
            part["l_orderkey"].to_numpy(np.int64), part["l_partkey"].to_numpy(np.int64)
        )
        return pd.DataFrame({"part_a": a, "part_b": b})

    pair_rows = bucketed_groupby(li, ["l_orderkey"], distinct_partial, emit_pairs, n_buckets=32)
    pair_cnt = count_by_key(
        pair_rows, ["part_a", "part_b"], n_buckets=32, count_col="pair_cnt",
        partial_format="pandas",
    )
    strong = pair_cnt.map_batches(
        lambda b: b[b["pair_cnt"] >= min_support], batch_format="pandas"
    ).materialize()

    def part_freq_merge(p: pd.DataFrame) -> pd.DataFrame:
        g = p.drop_duplicates().groupby("l_partkey", as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    part_cnt = bucketed_groupby(
        li, ["l_partkey"], distinct_partial, part_freq_merge, n_buckets=32
    ).materialize()

    def order_count_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"l_orderkey": b["l_orderkey"].dropna().unique()})

    def order_count_merge(p: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [p["l_orderkey"].nunique()]})

    n_orders = int(
        bucketed_groupby(li, ["l_orderkey"], order_count_partial, order_count_merge, n_buckets=32)
        .to_pandas()["n"].sum()
    )

    side_a = part_cnt.map_batches(
        lambda b: b.rename(columns={"cnt": "cnt_a"}), batch_format="pandas"
    )
    side_b = part_cnt.map_batches(
        lambda b: b.rename(columns={"cnt": "cnt_b"}), batch_format="pandas"
    )
    scored = attach_or_join(
        attach_or_join(strong, side_a, on_fact="part_a", on_side="l_partkey", attach_cols=["cnt_a"]),
        side_b, on_fact="part_b", on_side="l_partkey", attach_cols=["cnt_b"],
    )
    # survivors are bounded by the support threshold — small by construction
    out = scored.to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "part_a": pd.Series([], dtype="int64"),
                "part_b": pd.Series([], dtype="int64"),
                "pair_cnt": pd.Series([], dtype="int64"),
                "cnt_a": pd.Series([], dtype="int64"),
                "cnt_b": pd.Series([], dtype="int64"),
                "lift": pd.Series([], dtype="float64"),
            }
        )
    # identical float expression to the SQL twin: (cnt * n) as DOUBLE over
    # the exact int64 product cnt_a*cnt_b
    lift = (
        out["pair_cnt"].to_numpy(np.float64) * np.float64(n_orders)
    ) / (out["cnt_a"].to_numpy(np.int64) * out["cnt_b"].to_numpy(np.int64)).astype(np.float64)
    out = out.assign(lift=_r6(lift)).sort_values(
        ["lift", "part_a", "part_b"], ascending=[False, True, True]
    )
    return (
        out.head(20)
        .reset_index(drop=True)[["part_a", "part_b", "pair_cnt", "cnt_a", "cnt_b", "lift"]]
        .astype({"part_a": np.int64, "part_b": np.int64, "pair_cnt": np.int64,
                 "cnt_a": np.int64, "cnt_b": np.int64})
    )


_COPURCHASE_SQL = """
WITH op AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
),
tot AS (SELECT CAST(COUNT(DISTINCT l_orderkey) AS DOUBLE) AS n FROM op),
pcnt AS (SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS cnt FROM op GROUP BY 1),
pairs AS (
  SELECT a.l_partkey AS part_a, b.l_partkey AS part_b, CAST(COUNT(*) AS BIGINT) AS pair_cnt
  FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
)
SELECT part_a, part_b, pair_cnt, ca.cnt AS cnt_a, cb.cnt AS cnt_b,
       ROUND(CAST(pair_cnt AS DOUBLE) * (SELECT n FROM tot)
             / CAST(ca.cnt * cb.cnt AS DOUBLE), 6) AS lift
FROM pairs
JOIN pcnt ca ON ca.l_partkey = part_a
JOIN pcnt cb ON cb.l_partkey = part_b
WHERE pair_cnt >= 3
ORDER BY lift DESC, part_a, part_b
LIMIT 20
"""


def chi2_status_priority(sf_dir: str) -> pd.DataFrame:
    """Chi-square test of independence over the (o_orderstatus x
    o_orderpriority) contingency table, plus Cramer's V effect size.
    The table has <= a few dozen cells, so per-batch crosstab partials
    fold on the driver (the low-cardinality no-shuffle rule); expected
    counts come from exact int64 marginals and the statistic uses the
    same float64 expression as the SQL twin (zero cells included — the
    full observed-marginal grid, not just observed cells)."""
    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_orderpriority"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        g = b.groupby(["o_orderstatus", "o_orderpriority"], as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    cells = (
        ds.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby(["o_orderstatus", "o_orderpriority"], as_index=False)["cnt"].sum()
    )
    grid = cells.pivot_table(
        index="o_orderstatus", columns="o_orderpriority", values="cnt",
        fill_value=0, aggfunc="sum",
    )
    obs = grid.to_numpy(np.int64)
    rn = obs.sum(axis=1).astype(np.int64)  # exact row marginals
    cn = obs.sum(axis=0).astype(np.int64)
    n = int(obs.sum())
    # same op order as SQL: exact BIGINT rn*cn, float division by n
    exp = (rn[:, None] * cn[None, :]).astype(np.float64) / np.float64(n)
    d = obs.astype(np.float64) - exp
    chi2 = float((d * d / exp).sum())
    r, c = obs.shape
    dof = (r - 1) * (c - 1)
    cramers_v = float(np.sqrt(chi2 / (np.float64(n * min(r - 1, c - 1)))))
    return pd.DataFrame(
        {
            "n": np.int64([n]),
            "n_rows_grid": np.int64([r]),
            "n_cols_grid": np.int64([c]),
            "dof": np.int64([dof]),
            "chi2": _r6([chi2]),
            "cramers_v": _r6([cramers_v]),
        }
    )


_CHI2_SQL = """
WITH cells AS (
  SELECT o_orderstatus AS s, o_orderpriority AS p, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM orders WHERE o_orderstatus IS NOT NULL AND o_orderpriority IS NOT NULL
  GROUP BY 1, 2
),
rs AS (SELECT s, CAST(SUM(cnt) AS BIGINT) AS rn FROM cells GROUP BY 1),
cs AS (SELECT p, CAST(SUM(cnt) AS BIGINT) AS cn FROM cells GROUP BY 1),
tot AS (SELECT CAST(SUM(cnt) AS BIGINT) AS n FROM cells),
grid AS (
  SELECT rs.rn, cs.cn, COALESCE(cells.cnt, 0) AS obs,
         CAST(rs.rn * cs.cn AS DOUBLE) / (SELECT n FROM tot) AS e
  FROM rs CROSS JOIN cs
  LEFT JOIN cells ON cells.s = rs.s AND cells.p = cs.p
),
stat AS (SELECT SUM((obs - e) * (obs - e) / e) AS chi2 FROM grid)
SELECT (SELECT n FROM tot) AS n,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM rs) AS n_rows_grid,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM cs) AS n_cols_grid,
       CAST(((SELECT COUNT(*) FROM rs) - 1) * ((SELECT COUNT(*) FROM cs) - 1) AS BIGINT) AS dof,
       ROUND(chi2, 6) AS chi2,
       ROUND(SQRT(chi2 / CAST((SELECT n FROM tot)
             * LEAST((SELECT COUNT(*) FROM rs) - 1, (SELECT COUNT(*) FROM cs) - 1) AS DOUBLE)), 6)
         AS cramers_v
FROM stat
"""


def welch_ttest_price_returnflag(sf_dir: str) -> pd.DataFrame:
    """Welch's unequal-variance t-test of mean l_extendedprice between
    every pair of return flags — the two-sample significance op next to
    the distribution-drift tests (KS / PSI).  One streaming pass folds
    (n, Σx, Σx²) moment partials per flag on the driver (3 groups, the
    low-cardinality rule); t, Welch–Satterthwaite dof and means finalize
    from six numbers per group.  The SQL twin computes the SAME naive
    moment formulas (SUM(x), SUM(x*x)) rather than var_samp, so the only
    cross-engine difference is float summation order, absorbed by the
    6-dp rounding convention."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        x = b["l_extendedprice"].to_numpy(np.float64)
        g = pd.DataFrame({"f": b["l_returnflag"].to_numpy(), "n": 1, "sx": x, "sxx": x * x})
        return g.groupby("f", as_index=False).sum()

    m = (
        ds.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("f", as_index=False)
        .sum()
        .sort_values("f")
        .reset_index(drop=True)
    )
    rows = []
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            a, b = m.iloc[i], m.iloc[j]
            na, nb = float(a["n"]), float(b["n"])
            ma, mb = a["sx"] / na, b["sx"] / nb
            va = (a["sxx"] - a["sx"] * a["sx"] / na) / (na - 1)
            vb = (b["sxx"] - b["sx"] * b["sx"] / nb) / (nb - 1)
            sea, seb = va / na, vb / nb
            t = (ma - mb) / np.sqrt(sea + seb)
            dof = (sea + seb) * (sea + seb) / (sea * sea / (na - 1) + seb * seb / (nb - 1))
            rows.append((a["f"], b["f"], int(na), int(nb), ma, mb, t, dof))
    out = pd.DataFrame(
        rows, columns=["flag_a", "flag_b", "n_a", "n_b", "mean_a", "mean_b", "t_stat", "welch_dof"]
    )
    for c in ["mean_a", "mean_b", "t_stat", "welch_dof"]:
        out[c] = _r6(out[c])
    return out.astype({"n_a": np.int64, "n_b": np.int64}).sort_values(
        ["flag_a", "flag_b"]
    ).reset_index(drop=True)


_WELCH_SQL = """
WITH m AS (
  SELECT l_returnflag AS f, CAST(COUNT(*) AS BIGINT) AS n,
         SUM(l_extendedprice) AS sx,
         SUM(l_extendedprice * l_extendedprice) AS sxx
  FROM lineitem WHERE l_returnflag IS NOT NULL AND l_extendedprice IS NOT NULL
  GROUP BY 1
),
p AS (
  SELECT a.f AS flag_a, b.f AS flag_b, a.n AS n_a, b.n AS n_b,
         a.sx / a.n AS ma, b.sx / b.n AS mb,
         ((a.sxx - a.sx * a.sx / a.n) / (a.n - 1)) / a.n AS sea,
         ((b.sxx - b.sx * b.sx / b.n) / (b.n - 1)) / b.n AS seb
  FROM m a JOIN m b ON a.f < b.f
)
SELECT flag_a, flag_b, n_a, n_b,
       ROUND(ma, 6) AS mean_a, ROUND(mb, 6) AS mean_b,
       ROUND((ma - mb) / SQRT(sea + seb), 6) AS t_stat,
       ROUND((sea + seb) * (sea + seb)
             / (sea * sea / (n_a - 1) + seb * seb / (n_b - 1)), 6) AS welch_dof
FROM p ORDER BY flag_a, flag_b
"""


def _ntile_from_rank(rank: np.ndarray, m: int, n_tiles: int) -> np.ndarray:
    """SQL NTILE(n) from a 1-based global row rank: the first (m % n)
    tiles get ceil(m/n) rows, the rest floor(m/n)."""
    small = m // n_tiles
    nbig = m % n_tiles
    big = small + 1
    cut = nbig * big
    small_safe = max(small, 1)  # m < n_tiles: every rank is its own tile
    return np.where(
        rank <= cut,
        (rank - 1) // big + 1,
        nbig + (rank - cut - 1) // small_safe + 1,
    ).astype(np.int64)


def rfm_segmentation_customers(sf_dir: str) -> pd.DataFrame:
    """RFM customer segmentation: per-customer Recency (last order
    date), Frequency (order count) and Monetary (exact integer-cent
    revenue) quintiles, concatenated into a 'r-f-m' segment label, with
    per-segment customer counts and total monetary.  Distributed shape:
    one bucketed exchange folds the per-customer aggregate; each
    quintile is NTILE arithmetic over a range-partitioned global rank
    (stages/sort.global_rank — boundary sampling + exact per-range
    offsets, never a single-reducer sort); the <=125-segment finish
    folds on the driver.  Monetary is exact int64 cents so rank order —
    and therefore every tile boundary — is bit-identical to the SQL
    twin; all ties break on c_custkey.  Tiles ascend with the metric
    (5 = most recent / most frequent / highest spend)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby
    from ndap_data_validator_ray.stages.sort import global_rank

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["o_custkey", "o_orderdate", "o_totalprice"])
        return pd.DataFrame(
            {
                "o_custkey": b["o_custkey"].to_numpy(np.int64),
                "last_ts": b["o_orderdate"].to_numpy().astype("datetime64[us]").astype(np.int64),
                "freq": np.int64(1),
                "cents": np.round(b["o_totalprice"].to_numpy(np.float64) * 100.0).astype(np.int64),
            }
        ).groupby("o_custkey", as_index=False).agg(
            last_ts=("last_ts", "max"), freq=("freq", "sum"), cents=("cents", "sum")
        )

    def merge(p: pd.DataFrame) -> pd.DataFrame:
        return p.groupby("o_custkey", as_index=False).agg(
            last_ts=("last_ts", "max"), freq=("freq", "sum"), cents=("cents", "sum")
        )

    agg = bucketed_groupby(orders, ["o_custkey"], partial, merge, n_buckets=32).materialize()
    m = agg.count()
    ranked = global_rank(agg, ["last_ts", "o_custkey"], out="r_rank").materialize()
    ranked = global_rank(ranked, ["freq", "o_custkey"], out="f_rank").materialize()
    ranked = global_rank(ranked, ["cents", "o_custkey"], out="m_rank").materialize()

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        r = _ntile_from_rank(b["r_rank"].to_numpy(np.int64), m, 5)
        f = _ntile_from_rank(b["f_rank"].to_numpy(np.int64), m, 5)
        mt = _ntile_from_rank(b["m_rank"].to_numpy(np.int64), m, 5)
        seg = pd.Series(r.astype(str)).str.cat([f.astype(str), mt.astype(str)], sep="-")
        return pd.DataFrame({"segment": seg.to_numpy(), "n_customers": 1, "cents": b["cents"].to_numpy(np.int64)}).groupby(
            "segment", as_index=False
        ).sum()

    # <=125 segments: per-block partials fold on the driver
    parts = ranked.map_batches(finish, batch_format="pandas").to_pandas()
    out = parts.groupby("segment", as_index=False).sum().sort_values("segment")
    return pd.DataFrame(
        {
            "segment": out["segment"].to_numpy(),
            "n_customers": out["n_customers"].to_numpy(np.int64),
            "total_monetary": _r2(out["cents"].to_numpy(np.int64) / 100.0),
        }
    ).reset_index(drop=True)


_RFM_SQL = """
WITH agg AS (
  SELECT o_custkey, MAX(o_orderdate) AS last_dt, CAST(COUNT(*) AS BIGINT) AS freq,
         CAST(SUM(CAST(ROUND(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS cents
  FROM orders
  WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
t AS (
  SELECT cents,
         NTILE(5) OVER (ORDER BY last_dt, o_custkey) AS r,
         NTILE(5) OVER (ORDER BY freq, o_custkey) AS f,
         NTILE(5) OVER (ORDER BY cents, o_custkey) AS m
  FROM agg
)
SELECT CAST(r AS VARCHAR) || '-' || CAST(f AS VARCHAR) || '-' || CAST(m AS VARCHAR) AS segment,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       ROUND(CAST(SUM(cents) AS DOUBLE) / 100, 2) AS total_monetary
FROM t GROUP BY 1 ORDER BY 1
"""


def ewma_daily_revenue(sf_dir: str) -> pd.DataFrame:
    """EWMA smoothing + spike flags over the daily order-revenue series
    — the forecasting-baseline sibling of the CUSUM changepoint scan.
    Daily sums fold as exact integer cents (per-batch Arrow partials,
    low-cardinality driver finish); the O(days) recurrence
    s_i = alpha*x_i + (1-alpha)*s_{i-1} runs on the driver with
    alpha = 0.125 (exact in binary), so every step is the same float64
    op sequence as the SQL recursive-CTE twin and the series is
    bit-identical cross-engine.  A day spikes when |x - s_prev| >
    0.25 * s_prev."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["o_orderdate", "o_totalprice"])
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        cents = np.round(b["o_totalprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
        return pd.DataFrame({"day": d, "cents": cents}).groupby("day", as_index=False)[
            "cents"
        ].sum()

    daily = (
        sum_by_key(
            orders.map_batches(day_partial, batch_format="pandas"),
            ["day"], ["cents"], n_buckets=32, partial_format="pandas",
        )
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    x = daily["cents"].to_numpy(np.int64).astype(np.float64)
    n = len(x)
    s = np.zeros(n, dtype=np.float64)
    dev = np.zeros(n, dtype=np.float64)
    spike = np.zeros(n, dtype=bool)
    prev = x[0] if n else 0.0
    if n:
        s[0] = x[0]
    for i in range(1, n):
        dev[i] = x[i] - prev
        spike[i] = abs(dev[i]) > 0.25 * prev
        s[i] = 0.125 * x[i] + 0.875 * prev
        prev = s[i]
    return pd.DataFrame(
        {
            "day": daily["day"].to_numpy(np.int64),
            "revenue": _r2(x / 100.0),
            "ewma": _r2(s / 100.0),
            "deviation": _r2(dev / 100.0),
            "spike": spike,
        }
    )


_EWMA_SQL = """
WITH RECURSIVE d AS (
  SELECT CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS cents
  FROM orders WHERE o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
idx AS (SELECT day, cents, ROW_NUMBER() OVER (ORDER BY day) AS i FROM d),
e AS (
  SELECT i, CAST(cents AS DOUBLE) AS s, CAST(0 AS DOUBLE) AS dev, FALSE AS spike
  FROM idx WHERE i = 1
  UNION ALL
  SELECT idx.i,
         0.125 * CAST(idx.cents AS DOUBLE) + 0.875 * e.s,
         CAST(idx.cents AS DOUBLE) - e.s,
         ABS(CAST(idx.cents AS DOUBLE) - e.s) > 0.25 * e.s
  FROM e JOIN idx ON idx.i = e.i + 1
)
SELECT CAST(idx.day AS BIGINT) AS day,
       ROUND(CAST(idx.cents AS DOUBLE) / 100, 2) AS revenue,
       ROUND(e.s / 100, 2) AS ewma,
       ROUND(e.dev / 100, 2) AS deviation,
       e.spike AS spike
FROM idx JOIN e USING (i) ORDER BY day
"""


def kmv_distinct_parts_by_flag(sf_dir: str) -> pd.DataFrame:
    """KMV / bottom-k distinct sketch with a FULL cross-engine value
    oracle — the fourth member of the value-oracled sketch family
    (``cms_part_counts`` / ``hll_distinct_users_by_type`` /
    ``bloom_false_positives_customers``): per return flag, keep the k=256
    smallest distinct md5-twin hashes of l_partkey; the estimator is
    ``(k-1) / theta`` where theta is the k-th smallest hash normalized to
    [0,1) (Bar-Yossef et al. 2002).  DuckDB recomputes the SKETCH STATE
    verbatim (ROW_NUMBER over the same hashes), so the estimate itself is
    value-pinned — and when a flag holds fewer than k distinct keys the
    sketch degrades to the EXACT count on both sides (exercised at
    sf0.001, where each flag has < 256 parts; sf0.01+ takes the estimator
    branch).  Float determinism is trivial here: the k-th hash is an
    exact uint64, both engines cast it to double once (single rounding)
    and evaluate the identical one-division expression — no accumulation
    order anywhere.  Distributed shape: bottom-k is a mergeable fold over
    a FIXED k-row space, so per-block partials are <= 3*256 rows and fold
    on the driver (the sketch-family no-shuffle rule); only the exact
    COUNT(DISTINCT) comparison column pays a bucketed exchange (bucketed
    on l_partkey so per-bucket distinct counts are disjoint and sum)."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    K = 256
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_partkey"])

    def sketch_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna().drop_duplicates()
        h = md5_lower64_batch(b["l_partkey"].astype(np.int64).astype(str).to_numpy())
        df = pd.DataFrame({"flag": b["l_returnflag"].to_numpy(), "hv": h}).drop_duplicates()
        return df.groupby("flag", group_keys=False).apply(
            lambda g: g.nsmallest(K, "hv"), include_groups=True
        ).reset_index(drop=True)

    sk = (
        ds.map_batches(sketch_partial, batch_format="pandas")
        .to_pandas()  # <= 3*K rows per block: driver fold, no shuffle
        .drop_duplicates()
        .groupby("flag", group_keys=False)
        .apply(lambda g: g.nsmallest(K, "hv"), include_groups=True)
        .reset_index(drop=True)
    )
    rows = []
    for flag, g in sk.groupby("flag"):
        nd = len(g)
        if nd < K:
            est = float(nd)  # sketch not full -> exact by construction
        else:
            hk = int(g["hv"].max())  # k-th smallest overall
            est = (K - 1.0) * 18446744073709551616.0 / float(hk)
        rows.append((flag, est))
    est_df = pd.DataFrame(rows, columns=["l_returnflag", "kmv_est"])
    est_df["kmv_est"] = _r6(est_df["kmv_est"])

    def exact_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def exact_merge(part: pd.DataFrame) -> pd.DataFrame:
        g = part.drop_duplicates().groupby("l_returnflag").size()
        return pd.DataFrame(
            {"l_returnflag": g.index.to_numpy(), "n_exact": g.to_numpy().astype(np.int64)}
        )

    exact = (
        bucketed_groupby(ds, ["l_partkey"], exact_partial, exact_merge, n_buckets=16)
        .to_pandas()
        .groupby("l_returnflag", as_index=False)["n_exact"]
        .sum()
    )
    exact["n_exact"] = exact["n_exact"].astype(np.int64)
    out = exact.merge(est_df, on="l_returnflag")
    return out.sort_values("l_returnflag").reset_index(drop=True)


_KMV_SQL = """
WITH pairs AS (
  SELECT DISTINCT l_returnflag AS flag, l_partkey
  FROM lineitem WHERE l_returnflag IS NOT NULL AND l_partkey IS NOT NULL
),
h AS (
  SELECT DISTINCT flag, md5_number_lower(CAST(l_partkey AS VARCHAR)) AS hv FROM pairs
),
rk AS (
  SELECT flag, hv, ROW_NUMBER() OVER (PARTITION BY flag ORDER BY hv) AS r FROM h
),
sk AS (
  SELECT flag, CAST(COUNT(*) AS BIGINT) AS nd,
         MAX(CASE WHEN r = 256 THEN hv END) AS hk
  FROM rk WHERE r <= 256 GROUP BY flag
),
ex AS (
  SELECT l_returnflag AS flag, CAST(COUNT(DISTINCT l_partkey) AS BIGINT) AS n_exact
  FROM lineitem WHERE l_returnflag IS NOT NULL AND l_partkey IS NOT NULL GROUP BY 1
)
SELECT s.flag AS l_returnflag, ex.n_exact,
       ROUND(CASE WHEN s.nd < 256 THEN CAST(s.nd AS DOUBLE)
                  ELSE 255.0 * 18446744073709551616.0 / CAST(s.hk AS DOUBLE) END, 6) AS kmv_est
FROM sk s JOIN ex ON ex.flag = s.flag
ORDER BY s.flag
"""


def customer_spend_trend(sf_dir: str) -> pd.DataFrame:
    """Per-customer linear spend trend (OLS slope of order value over
    time) — grouped regression at key cardinality too high for a driver
    fold.  Distributed shape: per-batch Arrow-groupby moment partials
    (n, Σt, Σy, Σt², Σty — all EXACT int64: t is epoch day, y is integer
    cents) ride ONE bucketed exchange on o_custkey (`sum_by_key`), and
    the closed-form slope finalizes vectorized inside the post-exchange
    map — the driver only collects the finished rows.  Cross-engine
    float determinism: both engines cast the five exact integer moments
    to double individually and evaluate the IDENTICAL expression
    ``(n·Σty − Σt·Σy) / (n·Σt² − Σt²)`` — two products, one subtraction,
    one division, no accumulation order anywhere (the int64 sums
    themselves are exact and < 2^53 at any plausible per-customer order
    count).  Degenerate groups (all orders the same day) are excluded by
    an exact INTEGER zero-check of the denominator, never a float
    compare; customers need n >= 5 orders."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def moment_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        t = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        y = np.round(b["o_totalprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
        df = pd.DataFrame(
            {
                "o_custkey": b["o_custkey"].to_numpy(np.int64),
                "n": np.int64(1), "st": t, "sy": y, "stt": t * t, "sty": t * y,
            }
        )
        return df.groupby("o_custkey", as_index=False).sum()

    moments = sum_by_key(
        orders.map_batches(moment_partial, batch_format="pandas"),
        ["o_custkey"], ["n", "st", "sy", "stt", "sty"],
        n_buckets=32, partial_format="pandas",
    )

    def finalize(p: pd.DataFrame) -> pd.DataFrame:
        n = p["n"].to_numpy(np.int64)
        st = p["st"].to_numpy(np.int64)
        sy = p["sy"].to_numpy(np.int64)
        stt = p["stt"].to_numpy(np.int64)
        sty = p["sty"].to_numpy(np.int64)
        keep = (n >= 5) & (n * stt - st * st != 0)  # exact integer guard
        nf, stf, syf = n.astype(np.float64), st.astype(np.float64), sy.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (nf * sty.astype(np.float64) - stf * syf) / (
                nf * stt.astype(np.float64) - stf * stf
            )
        return pd.DataFrame(
            {
                "o_custkey": p["o_custkey"].to_numpy(np.int64)[keep],
                "n_orders": n[keep],
                "slope_cents_per_day": _r6(slope[keep]),
            }
        )

    out = moments.map_batches(finalize, batch_format="pandas").to_pandas()
    return out.sort_values("o_custkey").reset_index(drop=True)


_SPEND_TREND_SQL = """
WITH m AS (
  SELECT o_custkey,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(t) AS BIGINT) AS st, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(t * t) AS BIGINT) AS stt, CAST(SUM(t * y) AS BIGINT) AS sty
  FROM (
    SELECT o_custkey,
           CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT) AS t,
           CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS y
    FROM orders
    WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
  ) GROUP BY 1
)
SELECT o_custkey, n AS n_orders,
       ROUND((CAST(n AS DOUBLE) * CAST(sty AS DOUBLE) - CAST(st AS DOUBLE) * CAST(sy AS DOUBLE))
             / (CAST(n AS DOUBLE) * CAST(stt AS DOUBLE) - CAST(st AS DOUBLE) * CAST(st AS DOUBLE)),
             6) AS slope_cents_per_day
FROM m WHERE n >= 5 AND n * stt - st * st <> 0
ORDER BY o_custkey
"""


def copurchase_kcore_parts(sf_dir: str) -> pd.DataFrame:
    """k-core decomposition of the part co-purchase graph — the density /
    community filter next to the other graph ops (components, PageRank,
    triangles): parts co-occurring in an order are linked, and the k-core
    keeps the maximal subgraph where every part still has >= k co-purchase
    partners.  Engine: ``stages/kcore.k_core`` — synchronized parallel
    peeling, one degree exchange + one guarded degree attach per round,
    nothing graph-sized on the driver; k derives from the initial degree
    distribution as the EXACT 5th-percentile order statistic (1-based rank
    ``(n_nodes + 19) // 20`` — pure integer so the SQL twin reproduces it
    verbatim; computed from a count-of-counts histogram, never a sorted
    node list).  The DuckDB oracle unrolls 24 peeling rounds statically
    (idempotent once converged; the engine asserts convergence within the
    same budget — measured depth 3/5/10 at sf0.001/0.01/0.1).  Edge build:
    per-order distinct parts self-joined inside ONE bucketed exchange on
    l_orderkey (<= C(7,2) pairs per order, vectorized merge per bucket)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby
    from ndap_data_validator_ray.stages.kcore import k_core

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame(
            {
                "id_a": m["l_partkey_x"].to_numpy(np.int64),
                "id_b": m["l_partkey_y"].to_numpy(np.int64),
            }
        ).drop_duplicates()

    edges = bucketed_groupby(li, ["l_orderkey"], partial, pairs).materialize()
    core, k, _rounds = k_core(edges)
    out = core.rename(columns={"node": "l_partkey"})
    return out.assign(k_threshold=np.full(len(out), k, dtype=np.int64))


def _kcore_sql(rounds: int = 24) -> str:
    """Static unrolled peeling twin (see copurchase_kcore_parts): each
    round recomputes degrees and drops edges with a sub-k endpoint; extra
    rounds after convergence are no-ops, so a fixed budget >= the true
    peeling depth is exact."""
    # every CTE is MATERIALIZED: DuckDB inlines plain CTEs, and d{i} is
    # referenced twice per round -> the inlined plan (and the base scan
    # count) would grow EXPONENTIALLY in the round budget
    parts = [
        "WITH li AS MATERIALIZED (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem\n"
        "  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL),\n"
        "e0 AS MATERIALIZED (SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS u,\n"
        "         GREATEST(a.l_partkey, b.l_partkey) AS v\n"
        "       FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey\n"
        "        AND a.l_partkey < b.l_partkey),\n"
        "d0 AS MATERIALIZED (SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM\n"
        "  (SELECT u AS node FROM e0 UNION ALL SELECT v FROM e0) GROUP BY 1),\n"
        "kq AS MATERIALIZED (SELECT deg AS k FROM\n"
        "  (SELECT deg, ROW_NUMBER() OVER (ORDER BY deg) AS rn FROM d0)\n"
        "  WHERE rn = (SELECT (COUNT(*) + 19) // 20 FROM d0))"
    ]
    for i in range(rounds):
        parts.append(
            f"e{i + 1} AS MATERIALIZED (SELECT e.u, e.v FROM e{i} e\n"
            f"  JOIN d{i} a ON a.node = e.u JOIN d{i} b ON b.node = e.v, kq\n"
            f"  WHERE a.deg >= kq.k AND b.deg >= kq.k)"
        )
        parts.append(
            f"d{i + 1} AS MATERIALIZED (SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM\n"
            f"  (SELECT u AS node FROM e{i + 1} UNION ALL SELECT v FROM e{i + 1}) GROUP BY 1)"
        )
    return (
        ",\n".join(parts)
        + f"\nSELECT d.node AS l_partkey, d.deg AS core_deg, CAST(kq.k AS BIGINT) AS k_threshold\n"
        f"FROM d{rounds} d, kq ORDER BY 1"
    )


_KCORE_SQL = _kcore_sql(24)


def mannwhitney_price_returnflag(sf_dir: str) -> pd.DataFrame:
    """Mann–Whitney U rank-sum test of l_extendedprice between return
    flags A and R — the nonparametric two-sample op next to Welch / chi2 /
    KS, and the one that exercises GLOBAL tie-averaged ranking (Welch
    needs only moments; ranks need a total order over the whole column).
    Distributed shape: the shared range partitioner (``stages/sort.
    _RangePlan`` — the global_rank machinery) keeps equal values in ONE
    partition, a count pass gives exact per-partition prefix offsets, and
    each reducer folds its value range to a single partial row of EXACT
    int64 statistics: Σ over group-A rows of (2 × tie-averaged rank)
    (integer because 2·avgrank = 2·rows_before + ties + 1), Σ(t³ − t) for
    the tie correction (Python-int per run — immune to int64 overflow on
    mega-ties), and group counts.  The driver folds n_pids rows with
    Python ints (the SQL twin uses HUGEINT — same unbounded-exact
    posture), then z evaluates ONE float expression from exact integers —
    bit-identical cross-engine (no accumulation order anywhere; prices
    quantized to integer cents on both sides)."""
    from ndap_data_validator_ray.stages.sort import _RangePlan

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        b = b[b["l_returnflag"].isin(["A", "R"])]
        return pd.DataFrame(
            {
                "v": np.round(b["l_extendedprice"].to_numpy(np.float64) * 100.0).astype(np.int64),
                "ga": (b["l_returnflag"].to_numpy() == "A").astype(np.int64),
            }
        )

    x = ds.map_batches(prep, batch_format="pandas").materialize()
    plan = _RangePlan(x, ["v"], None, None, 64)
    if plan.empty:
        return pd.DataFrame(
            {"n_a": pd.Series([], dtype=np.int64), "n_b": pd.Series([], dtype=np.int64),
             "u_a": pd.Series([], dtype=np.float64), "z": pd.Series([], dtype=np.float64)}
        )
    pid_of = plan.make_pid_of()
    n_pids = plan.n_pids

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        c = np.bincount(pid_of(batch), minlength=n_pids)
        return pd.DataFrame({"pid": np.arange(len(c), dtype=np.int64), "n": c.astype(np.int64)})

    counts = plan.fold_partials(count_partial, "n")
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    off_ref = ray.put(offsets)

    def rank_stats(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        offs = ray.get(off_ref)
        v = group["v"].to_numpy(np.int64)
        ga = group["ga"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
        c = np.diff(np.r_[starts, len(v)]).astype(np.int64)
        ca = np.add.reduceat(ga, starts).astype(np.int64)
        tworank = 2 * (offs[pid] + starts.astype(np.int64)) + c + 1
        ties = sum(int(ci) ** 3 - int(ci) for ci in c)  # Python int: no t^3 overflow
        return pd.DataFrame(
            {
                "s2a": [int((ca * tworank).sum())],
                "ties": [ties],
                "na": [int(ga.sum())],
                "n": [len(v)],
            }
        )

    p = plan.shuffle_fold(rank_stats).to_pandas()
    s2a = sum(int(t) for t in p["s2a"])  # Python-int fold (HUGEINT twin)
    ties = sum(int(t) for t in p["ties"])
    na = int(p["na"].sum())
    nn = int(p["n"].sum())
    nb = nn - na
    na_f, nb_f, nn_f = float(na), float(nb), float(nn)
    u_a = float(s2a) / 2.0 - na_f * (na_f + 1.0) / 2.0
    mu = na_f * nb_f / 2.0
    var = na_f * nb_f / 12.0 * ((nn_f + 1.0) - float(ties) / (nn_f * (nn_f - 1.0)))
    z = (u_a - mu) / np.sqrt(var)
    return pd.DataFrame(
        {"n_a": [np.int64(na)], "n_b": [np.int64(nb)],
         "u_a": [round(u_a, 6)], "z": [round(float(z), 6)]}
    )


_MANNWHITNEY_SQL = """
WITH x AS (
  SELECT CAST(ROUND(l_extendedprice * 100.0) AS BIGINT) AS v,
         CASE WHEN l_returnflag = 'A' THEN 1 ELSE 0 END AS ga
  FROM lineitem
  WHERE l_returnflag IN ('A', 'R') AND l_extendedprice IS NOT NULL
),
vc AS (
  SELECT v, CAST(COUNT(*) AS BIGINT) AS c, CAST(SUM(ga) AS BIGINT) AS ca
  FROM x GROUP BY v
),
r AS (
  SELECT c, ca,
         2 * (SUM(c) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - c)
           + c + 1 AS tworank
  FROM vc
),
s AS (
  SELECT CAST(SUM(CAST(ca AS HUGEINT) * CAST(tworank AS HUGEINT)) AS HUGEINT) AS s2a,
         CAST(SUM(CAST(c AS HUGEINT) * c * c - c) AS HUGEINT) AS ties,
         CAST(SUM(ca) AS BIGINT) AS na, CAST(SUM(c - ca) AS BIGINT) AS nb
  FROM r
)
SELECT na AS n_a, nb AS n_b,
  ROUND(CAST(s2a AS DOUBLE) / 2.0 - CAST(na AS DOUBLE) * (CAST(na AS DOUBLE) + 1.0) / 2.0,
        6) AS u_a,
  ROUND((CAST(s2a AS DOUBLE) / 2.0 - CAST(na AS DOUBLE) * (CAST(na AS DOUBLE) + 1.0) / 2.0
         - CAST(na AS DOUBLE) * CAST(nb AS DOUBLE) / 2.0)
        / SQRT(CAST(na AS DOUBLE) * CAST(nb AS DOUBLE) / 12.0 *
               ((CAST(na + nb AS DOUBLE) + 1.0)
                - CAST(ties AS DOUBLE)
                  / (CAST(na + nb AS DOUBLE) * (CAST(na + nb AS DOUBLE) - 1.0)))),
        6) AS z
FROM s
"""


def inter_order_gap_stats(sf_dir: str) -> pd.DataFrame:
    """Per-customer inter-order gap statistics (median / max days between
    consecutive orders) — the LAG-then-aggregate shape: a within-group
    windowed difference feeding a grouped quantile, all inside ONE
    bucketed exchange on o_custkey (each reducer sorts ITS customers by
    (date, orderkey) — a total order, so same-day orders give
    deterministic zero gaps — diffs epoch days, and finalizes exact
    percentiles locally).  Median uses the linear-interpolation form that
    matches SQL PERCENTILE_CONT bit-for-bit (the customer_order_p90
    convention); gaps are exact int64 days, so only the interpolated
    midpoint can be fractional (.5 steps — round-6 on both sides).
    Customers need >= 4 orders (>= 3 gaps)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_orderkey"])

    def gaps(part: pd.DataFrame) -> pd.DataFrame:
        part = part.dropna().sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        rows = []
        for ck, g in part.groupby("o_custkey", sort=False):
            if len(g) < 4:
                continue
            d = g["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
            gp = np.diff(d)
            gs = np.sort(gp)
            # PERCENTILE_CONT(0.5): v_lo + frac * (v_hi - v_lo)
            pos = 0.5 * (len(gs) - 1)
            lo = int(np.floor(pos))
            hi = int(np.ceil(pos))
            med = float(gs[lo]) + (pos - lo) * (float(gs[hi]) - float(gs[lo]))
            rows.append((int(ck), len(g), med, int(gs[-1])))
        if not rows:
            return pd.DataFrame(
                {"o_custkey": pd.Series([], dtype=np.int64),
                 "n_orders": pd.Series([], dtype=np.int64),
                 "median_gap_days": pd.Series([], dtype=np.float64),
                 "max_gap_days": pd.Series([], dtype=np.int64)}
            )
        out = pd.DataFrame(rows, columns=["o_custkey", "n_orders", "median_gap_days", "max_gap_days"])
        out["median_gap_days"] = _r6(out["median_gap_days"])
        return out

    out = (
        bucketed_groupby(orders, ["o_custkey"], lambda b: b.dropna(), gaps)
        .to_pandas()
    )
    out["o_custkey"] = out["o_custkey"].astype(np.int64)
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["max_gap_days"] = out["max_gap_days"].astype(np.int64)
    return out.sort_values("o_custkey").reset_index(drop=True)


_INTER_ORDER_GAP_SQL = """
WITH o AS (
  SELECT o_custkey, CAST(o_orderdate AS DATE) AS d, o_orderkey
  FROM orders
  WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL AND o_orderkey IS NOT NULL
),
g AS (
  SELECT o_custkey,
         CAST(d - LAG(d) OVER (PARTITION BY o_custkey ORDER BY d, o_orderkey) AS BIGINT) AS gap
  FROM o
)
SELECT o_custkey,
       CAST(COUNT(*) + 1 AS BIGINT) AS n_orders,
       ROUND(PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY gap), 6) AS median_gap_days,
       CAST(MAX(gap) AS BIGINT) AS max_gap_days
FROM g
WHERE gap IS NOT NULL
GROUP BY o_custkey
HAVING COUNT(*) >= 3
ORDER BY o_custkey
"""


def _exact_cluster_components(sf_dir: str):
    """Shared near-dup cluster map for the composition queries below: the
    doc_id % 3 subset's exact word-3-gram Jaccard >= 0.5 pair graph (the
    ``ngram_jaccard_exact_documents`` pair set verbatim), components via
    ``stages/cc.py`` with ``nodes=`` the full subset — isolated docs are
    their own cluster, matching the SQL twin's LEFT JOIN onto the
    reachability CTE.  Returns (subset Dataset, components Dataset of
    (node, component)); the cap guard resolves driver-vs-rounds (the
    distributed rounds themselves are value-pinned by
    ``near_dup_clusters_exact``)."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.dedup_near import exact_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    sub = ds.map_batches(
        lambda t: t.filter(pa.array(t["doc_id"].to_numpy() % 3 == 0)), batch_format="pyarrow"
    ).materialize()
    pairs = exact_jaccard_pairs(sub, "text", "doc_id", n=3, threshold=0.5, tiles=4)
    if pairs.empty:
        pairs = pd.DataFrame(
            {"id_a": pd.Series([], dtype=np.int64), "id_b": pd.Series([], dtype=np.int64)}
        )
    edges = ray.data.from_pandas(pairs[["id_a", "id_b"]].reset_index(drop=True))
    comp = distributed_connected_components(
        edges, nodes=sub.select_columns(["doc_id"]), node_col="doc_id"
    )
    return sub, comp


# the shared oracle prefix: subset -> 3-gram sets -> exact-Jaccard pairs ->
# recursive reachability -> per-doc cluster rep (isolated docs = self)
_EXACT_CLUSTER_CTE = """
WITH RECURSIVE sub AS (
  SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents WHERE doc_id % 3 = 0
), grams AS (
  SELECT doc_id,
    CASE WHEN len(ws) >= 3
      THEN list_distinct(list_transform(range(1, len(ws) - 1), i -> array_to_string(ws[i:i+2], ' ')))
      WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
      ELSE [''] END AS g
  FROM sub
), pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM grams a JOIN grams b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
        / GREATEST(1, len(list_distinct(list_concat(a.g, b.g)))) >= 0.5
), edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs UNION ALL SELECT id_b, id_a FROM pairs
), reach AS (
  SELECT u AS node, v AS r FROM edges
  UNION
  SELECT reach.node, e.v FROM reach JOIN edges e ON e.u = reach.r
), rep AS (
  SELECT node AS doc_id, LEAST(node, MIN(r)) AS cluster_rep FROM reach GROUP BY node
), allrep AS (
  SELECT s.doc_id, COALESCE(r.cluster_rep, s.doc_id) AS cluster_rep
  FROM sub s LEFT JOIN rep r USING (doc_id)
)"""


def leakage_safe_split_documents(sf_dir: str) -> pd.DataFrame:
    """GROUP-AWARE train/val/test split — the leakage-safe variant of
    ``train_val_test_split_documents``: near-duplicate documents must
    never straddle a split (a test doc whose near-dup sits in train is
    eval contamination), so the md5 split key is the doc's near-dup
    CLUSTER representative, not the doc id — every cluster lands whole in
    one split by construction.  Composition: the exact-Jaccard pair graph
    -> distributed CC (``_exact_cluster_components``; isolated docs are
    their own singleton cluster) -> ``md5(cluster_rep) % 100`` with the
    80/10/10 thresholds of the plain split.  Distributed shape: the
    per-doc split is a pure function of the component label (one streaming
    pass, <= 3 partial rows per block); the distinct-cluster count per
    split rides ONE bucketed exchange on the component (per-bucket dedup,
    <= 3 rows per bucket to the driver) — the cluster set itself never
    lands on the driver.  Fully value-oracled via the md5_number_lower
    twin on top of the reachability-CTE cluster map."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    _sub, comp = _exact_cluster_components(sf_dir)
    comp = comp.materialize()

    def split_of(component: np.ndarray) -> np.ndarray:
        h = md5_lower64_batch(component.astype(np.int64).astype(str)) % np.uint64(100)
        return np.where(h < 80, "train", np.where(h < 90, "val", "test"))

    def doc_partial(b: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame({"split": split_of(b["component"].to_numpy())})
        g = df.groupby("split").size()
        return pd.DataFrame({"split": g.index.to_numpy(), "n_docs": g.to_numpy(np.int64)})

    docs = (
        comp.map_batches(doc_partial, batch_format="pandas")
        .to_pandas()
        .groupby("split", as_index=False)["n_docs"]
        .sum()
    )

    def comp_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b[["component"]].drop_duplicates()

    def comp_merge(g: pd.DataFrame) -> pd.DataFrame:
        comps = g[["component"]].drop_duplicates()["component"].to_numpy()
        s = pd.Series(split_of(comps)).value_counts()
        return pd.DataFrame({"split": s.index.to_numpy(), "n_clusters": s.to_numpy(np.int64)})

    clusters = (
        bucketed_groupby(comp, ["component"], comp_partial, comp_merge)
        .to_pandas()
        .groupby("split", as_index=False)["n_clusters"]
        .sum()
    )
    out = docs.merge(clusters, on="split")
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["n_clusters"] = out["n_clusters"].astype(np.int64)
    return out.sort_values("split").reset_index(drop=True)


_LEAKAGE_SPLIT_SQL = _EXACT_CLUSTER_CTE + """
SELECT split, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT cluster_rep) AS BIGINT) AS n_clusters
FROM (
  SELECT cluster_rep,
    CASE WHEN md5_number_lower(CAST(cluster_rep AS VARCHAR)) % 100 < 80 THEN 'train'
         WHEN md5_number_lower(CAST(cluster_rep AS VARCHAR)) % 100 < 90 THEN 'val'
         ELSE 'test' END AS split
  FROM allrep
) GROUP BY split ORDER BY split
"""


def cluster_best_survivor_documents(sf_dir: str) -> pd.DataFrame:
    """Quality-ranked dedup survivors — keep-BEST per near-dup cluster
    instead of the curation funnel's keep-lowest-id: the survivor is the
    member with the most content (max n_chars, doc_id as the
    deterministic tie-break), the policy a production corpus dedup
    actually wants (min-id can keep a truncated crawl of a page over the
    full one).  Composition: the shared exact-Jaccard cluster map ->
    n_chars attached via the guarded broadcast/join
    (``stages/broadcast.attach_or_join``) -> per-cluster argmax + member
    count in ONE bucketed exchange on the component (per-batch
    lexicographic-argmax partials — (n_chars DESC, doc_id ASC) —
    are mergeable, the TPC-H Q2 pattern; comparisons only, no float
    arithmetic).  O(clusters) finished rows reach the driver."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    sub, comp = _exact_cluster_components(sf_dir)
    with_chars = attach_or_join(
        comp,
        sub.select_columns(["doc_id", "n_chars"]).map_batches(
            lambda b: b.rename(columns={"doc_id": "node"}), batch_format="pandas"
        ),
        on_fact="node",
        on_side="node",
        attach_cols=["n_chars"],
    )

    def argmax_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(n_members=np.int64(1))
        # lexicographic best: max n_chars, then min doc_id — sort then head
        return (
            b.sort_values(["component", "n_chars", "node"], ascending=[True, False, True])
            .groupby("component", as_index=False)
            .agg(survivor_id=("node", "first"), survivor_chars=("n_chars", "first"),
                 n_members=("n_members", "sum"))
        )

    def argmax_merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(
                ["component", "survivor_chars", "survivor_id"], ascending=[True, False, True]
            )
            .groupby("component", as_index=False)
            .agg(survivor_id=("survivor_id", "first"), survivor_chars=("survivor_chars", "first"),
                 n_members=("n_members", "sum"))
        )

    out = (
        bucketed_groupby(with_chars, ["component"], argmax_partial, argmax_merge)
        .to_pandas()
        .rename(columns={"component": "cluster_rep"})
    )
    for c in ("cluster_rep", "survivor_id", "survivor_chars", "n_members"):
        out[c] = out[c].astype(np.int64)
    return (
        out[["cluster_rep", "survivor_id", "survivor_chars", "n_members"]]
        .sort_values("cluster_rep")
        .reset_index(drop=True)
    )


_CLUSTER_SURVIVOR_SQL = _EXACT_CLUSTER_CTE + """
SELECT cluster_rep, survivor_id, survivor_chars, n_members FROM (
  SELECT a.cluster_rep, d.doc_id AS survivor_id,
         CAST(d.n_chars AS BIGINT) AS survivor_chars,
         CAST(COUNT(*) OVER (PARTITION BY a.cluster_rep) AS BIGINT) AS n_members,
         ROW_NUMBER() OVER (PARTITION BY a.cluster_rep
                            ORDER BY d.n_chars DESC, d.doc_id) AS rn
  FROM allrep a JOIN documents d USING (doc_id)
) WHERE rn = 1 ORDER BY cluster_rep
"""


def rolling_distinct_users_events(sf_dir: str) -> pd.DataFrame:
    """Sliding-window COUNT DISTINCT (7-day rolling active users per day)
    — the window op plain windowed sums can't express (distinct doesn't
    decompose over frames) and the rolling twin of
    ``cumulative_new_users_events``.  Distributed shape: per-batch
    (user, day) dedup, then each pair REPLICATES to the <= 7 window days
    it can serve (day .. day+6 — bounded fan-out, the interval-join
    replication trick), and ONE bucketed exchange on window_day dedups
    (user, window_day) and counts distinct users per day — reducers hold
    one day's user set each, the full user set never assembles anywhere.
    Output days are restricted to OBSERVED event days (folded on the
    driver — bounded by the date range, the low-cardinality rule)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def replicate(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=["user_id", "ts"])
        pairs = pd.DataFrame(
            {
                "user_id": b["user_id"].to_numpy(np.int64),
                "d": b["ts"].dt.normalize().to_numpy().astype("datetime64[D]").astype(np.int64),
            }
        ).drop_duplicates()
        n = len(pairs)
        off = np.repeat(np.arange(7, dtype=np.int64), n)
        return pd.DataFrame(
            {
                "user_id": np.tile(pairs["user_id"].to_numpy(), 7),
                "window_day": np.tile(pairs["d"].to_numpy(), 7) + off,
            }
        ).drop_duplicates()

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        c = g.drop_duplicates().groupby("window_day").size()
        return pd.DataFrame(
            {"window_day": c.index.to_numpy(np.int64), "users_7d": c.to_numpy(np.int64)}
        )

    counts = bucketed_groupby(
        ds.map_batches(replicate, batch_format="pandas"),
        ["window_day"],
        lambda b: b.drop_duplicates(),
        count_distinct,
        n_buckets=32,
    ).to_pandas()
    counts = counts.groupby("window_day", as_index=False)["users_7d"].sum()

    # observed-days fold: per-block distinct days, driver union (bounded
    # by the date range)
    days = (
        ds.map_batches(
            lambda b: pd.DataFrame(
                {
                    "d": np.unique(
                        b.dropna(subset=["user_id", "ts"])["ts"]
                        .dt.normalize()
                        .to_numpy()
                        .astype("datetime64[D]")
                        .astype(np.int64)
                    )
                }
            ),
            batch_format="pandas",
        )
        .to_pandas()["d"]
        .drop_duplicates()
    )
    out = counts[counts["window_day"].isin(set(days.tolist()))].copy()
    out["day"] = pd.to_datetime(out["window_day"].to_numpy().astype("datetime64[D]")).strftime(
        "%Y-%m-%d"
    )
    out["users_7d"] = out["users_7d"].astype(np.int64)
    return out[["day", "users_7d"]].sort_values("day").reset_index(drop=True)


_ROLLING_DISTINCT_SQL = """
WITH e AS (
  SELECT DISTINCT CAST(ts AS DATE) AS d, user_id
  FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
),
days AS (SELECT DISTINCT d FROM e)
SELECT STRFTIME(days.d, '%Y-%m-%d') AS day,
       CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS users_7d
FROM days JOIN e ON e.d BETWEEN days.d - 6 AND days.d
GROUP BY days.d ORDER BY days.d
"""


def km_survival_reorder(sf_dir: str) -> pd.DataFrame:
    """Kaplan–Meier survival curve of time-to-second-order ("how long
    until a new customer reorders"), with right censoring — the
    survival-analysis op next to the retention/attribution family:
    single-order customers are censored at (max order date − first
    order), so naive averaging would bias the curve and KM is the correct
    estimator.  Distributed shape: per-customer (duration, event) rides
    ONE bucketed exchange on custkey (first/second order dates resolve
    reducer-locally); the global censoring horizon is a per-block max
    folded on the driver (one scalar); (t, events, total) count partials
    fold on the driver — bounded by the date RANGE, not by customers (the
    low-cardinality rule) — and the product S(t) = Π(1 − d/n) finalizes
    in ascending-t order.  Cross-engine float determinism: the DuckDB
    twin replays the SAME left-to-right multiply chain via a recursive
    CTE (the EWMA pattern) — one multiplication per step on doubles built
    from exact integers, bit-identical, never EXP(SUM(LN)))."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_orderkey"])

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        return pd.DataFrame({"m": [int(d.max())]}) if len(d) else pd.DataFrame({"m": []})

    mx = orders.map_batches(day_partial, batch_format="pandas").to_pandas()
    horizon = int(mx["m"].max())

    def first_two(part: pd.DataFrame) -> pd.DataFrame:
        p = part.dropna().sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        rows = []
        for ck, g in p.groupby("o_custkey", sort=False):
            d = g["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
            if len(d) >= 2:
                rows.append((int(d[1] - d[0]), 1))
            else:
                rows.append((horizon - int(d[0]), 0))
        out = pd.DataFrame(rows, columns=["t", "ev"])
        return out.groupby(["t", "ev"], as_index=False).size().rename(columns={"size": "n"})

    parts = (
        bucketed_groupby(orders, ["o_custkey"], lambda b: b.dropna(), first_two)
        .to_pandas()
        .groupby(["t", "ev"], as_index=False)["n"]
        .sum()
        .sort_values("t")
    )
    tot = pd.DataFrame(
        {
            "t": parts.groupby("t")["n"].sum().index.to_numpy(np.int64),
            "n_total": parts.groupby("t")["n"].sum().to_numpy(np.int64),
            "d_events": parts[parts["ev"] == 1]
            .set_index("t")["n"]
            .reindex(parts.groupby("t")["n"].sum().index, fill_value=0)
            .to_numpy(np.int64),
        }
    ).sort_values("t")
    total = int(tot["n_total"].sum())
    at_risk = total - (tot["n_total"].cumsum().to_numpy() - tot["n_total"].to_numpy())
    tot["n_risk"] = at_risk.astype(np.int64)
    ev = tot[tot["d_events"] > 0].reset_index(drop=True)
    s = 1.0
    surv = []
    for d_i, n_i in zip(ev["d_events"].to_numpy(), ev["n_risk"].to_numpy()):
        s = s * (1.0 - float(d_i) / float(n_i))  # left-to-right chain = the CTE's
        surv.append(round(s, 6))
    return pd.DataFrame(
        {
            "duration_days": ev["t"].astype(np.int64),
            "d_events": ev["d_events"].astype(np.int64),
            "n_risk": ev["n_risk"].astype(np.int64),
            "survival": pd.Series(surv, dtype=np.float64),
        }
    )


_KM_SQL = """
WITH RECURSIVE o AS (
  SELECT o_custkey, CAST(o_orderdate AS DATE) AS d, o_orderkey
  FROM orders
  WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL AND o_orderkey IS NOT NULL
),
mx AS (SELECT MAX(d) AS m FROM o),
r AS (
  SELECT o_custkey, d,
         ROW_NUMBER() OVER (PARTITION BY o_custkey ORDER BY d, o_orderkey) AS rn
  FROM o
),
f AS (
  SELECT o_custkey, MAX(CASE WHEN rn = 1 THEN d END) AS d1,
         MAX(CASE WHEN rn = 2 THEN d END) AS d2, COUNT(*) AS n
  FROM r WHERE rn <= 2 GROUP BY 1
),
dur AS (
  SELECT CASE WHEN n >= 2 THEN CAST(d2 - d1 AS BIGINT)
              ELSE CAST((SELECT m FROM mx) - d1 AS BIGINT) END AS t,
         CASE WHEN n >= 2 THEN 1 ELSE 0 END AS ev
  FROM f
),
agg AS (
  SELECT t, CAST(SUM(ev) AS BIGINT) AS d_events, CAST(COUNT(*) AS BIGINT) AS n_total
  FROM dur GROUP BY t
),
ord AS (
  SELECT t, d_events,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM dur)
           - (SUM(n_total) OVER (ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              - n_total) AS n_risk
  FROM agg
),
ev AS (
  SELECT t, d_events, n_risk, ROW_NUMBER() OVER (ORDER BY t) AS i
  FROM ord WHERE d_events > 0
),
km AS (
  SELECT i, t, d_events, n_risk,
         1.0 - CAST(d_events AS DOUBLE) / CAST(n_risk AS DOUBLE) AS s
  FROM ev WHERE i = 1
  UNION ALL
  SELECT e.i, e.t, e.d_events, e.n_risk,
         km.s * (1.0 - CAST(e.d_events AS DOUBLE) / CAST(e.n_risk AS DOUBLE))
  FROM km JOIN ev e ON e.i = km.i + 1
)
SELECT t AS duration_days, d_events, n_risk, ROUND(s, 6) AS survival
FROM km ORDER BY t
"""


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of x to the even bit positions (Morton
    helper) — the classic magic-number interleave, unrolled identically in
    the SQL twin (exact int64 bit ops on both sides)."""
    x = x & np.int64(0xFFFF)
    x = (x | (x << 8)) & np.int64(0x00FF00FF)
    x = (x | (x << 4)) & np.int64(0x0F0F0F0F)
    x = (x | (x << 2)) & np.int64(0x33333333)
    x = (x | (x << 1)) & np.int64(0x55555555)
    return x


def zorder_layout_orders(sf_dir: str) -> pd.DataFrame:
    """Z-order (Morton-curve) layout key + global clustering rank over
    orders on (o_custkey, o_orderdate) — the multi-dimensional data-layout
    primitive behind Delta/Iceberg OPTIMIZE ZORDER: rows near each other
    on BOTH keys get nearby ranks, so a range-partitioned rewrite in this
    order gives files that prune on either column.  Distributed shape:
    per-column min/max fold to four driver scalars (one projected pass);
    each row quantizes both keys to a 16-bit grid with EXACT integer
    arithmetic (``((v - lo) * 65535) // span`` — floor division on
    non-negatives, reproduced verbatim in SQL) and interleaves bits with
    the magic-number kernel (``_part1by1`` — no Python loops, six
    vectorized ops per column); the global rank is the range-partitioned
    sort (``stages/sort.global_rank``) on (zval, o_orderkey) — no single
    node sees the full table.  Fully value-oracled: the twin unrolls the
    same bit-spread steps and ranks with ROW_NUMBER."""
    from ndap_data_validator_ray.stages.sort import global_rank

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def mm_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        if not len(b):
            return pd.DataFrame({"c_lo": [], "c_hi": [], "d_lo": [], "d_hi": []})
        c = b["o_custkey"].to_numpy(np.int64)
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        return pd.DataFrame(
            {"c_lo": [c.min()], "c_hi": [c.max()], "d_lo": [d.min()], "d_hi": [d.max()]}
        )

    mm = orders.map_batches(mm_partial, batch_format="pandas").to_pandas()
    c_lo, c_hi = int(mm["c_lo"].min()), int(mm["c_hi"].max())
    d_lo, d_hi = int(mm["d_lo"].min()), int(mm["d_hi"].max())
    c_span, d_span = max(1, c_hi - c_lo), max(1, d_hi - d_lo)

    def zval(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        c = b["o_custkey"].to_numpy(np.int64)
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        qc = ((c - c_lo) * 65535) // c_span
        qd = ((d - d_lo) * 65535) // d_span
        z = _part1by1(qc) | (_part1by1(qd) << 1)
        return pd.DataFrame(
            {"o_orderkey": b["o_orderkey"].to_numpy(np.int64), "zval": z.astype(np.int64)}
        )

    ranked = global_rank(
        orders.map_batches(zval, batch_format="pandas"), ["zval", "o_orderkey"], out="zrank"
    ).to_pandas()
    for col in ("o_orderkey", "zval", "zrank"):
        ranked[col] = ranked[col].astype(np.int64)
    return ranked.sort_values("o_orderkey").reset_index(drop=True)


_ZORDER_SQL = """
WITH o AS (
  SELECT o_orderkey, o_custkey, CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS BIGINT) AS d
  FROM orders
  WHERE o_orderkey IS NOT NULL AND o_custkey IS NOT NULL AND o_orderdate IS NOT NULL
),
mm AS (
  SELECT MIN(o_custkey) AS c_lo, GREATEST(1, MAX(o_custkey) - MIN(o_custkey)) AS c_span,
         MIN(d) AS d_lo, GREATEST(1, MAX(d) - MIN(d)) AS d_span
  FROM o
),
q AS (
  SELECT o_orderkey,
         ((o_custkey - mm.c_lo) * 65535) // mm.c_span AS qc,
         ((d - mm.d_lo) * 65535) // mm.d_span AS qd
  FROM o, mm
),
s1 AS (SELECT o_orderkey, (qc | (qc << 8)) & 16711935 AS xc, (qd | (qd << 8)) & 16711935 AS xd FROM q),
s2 AS (SELECT o_orderkey, (xc | (xc << 4)) & 252645135 AS xc, (xd | (xd << 4)) & 252645135 AS xd FROM s1),
s3 AS (SELECT o_orderkey, (xc | (xc << 2)) & 858993459 AS xc, (xd | (xd << 2)) & 858993459 AS xd FROM s2),
s4 AS (SELECT o_orderkey, (xc | (xc << 1)) & 1431655765 AS xc, (xd | (xd << 1)) & 1431655765 AS xd FROM s3),
z AS (SELECT o_orderkey, CAST(xc | (xd << 1) AS BIGINT) AS zval FROM s4)
SELECT o_orderkey, zval,
       CAST(ROW_NUMBER() OVER (ORDER BY zval, o_orderkey) AS BIGINT) AS zrank
FROM z ORDER BY o_orderkey
"""


def anova_price_by_returnflag(sf_dir: str) -> pd.DataFrame:
    """One-way ANOVA F-test of mean l_extendedprice across ALL return
    flags at once — the k-group generalization of the pairwise Welch
    test.  One streaming pass folds (n, Σx, Σx²) per flag on the driver
    (3 groups, the low-cardinality rule); between/within sums of squares
    and F finalize from nine numbers.  Like Welch, the SQL twin uses the
    SAME naive moment formulas (SUM(x), SUM(x*x)) so the only
    cross-engine difference is float summation order, absorbed by the
    shared round-6 convention."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        x = b["l_extendedprice"].to_numpy(np.float64)
        g = pd.DataFrame({"f": b["l_returnflag"].to_numpy(), "n": 1, "sx": x, "sxx": x * x})
        return g.groupby("f", as_index=False).sum()

    m = (
        ds.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("f", as_index=False)
        .sum()
    )
    n = m["n"].to_numpy(np.float64)
    sx = m["sx"].to_numpy(np.float64)
    sxx = m["sxx"].to_numpy(np.float64)
    k = len(m)
    nn = float(n.sum())
    grand = float(sx.sum()) / nn
    ss_between = float((n * (sx / n - grand) ** 2).sum())
    ss_within = float((sxx - sx * sx / n).sum())
    df1, df2 = float(k - 1), nn - float(k)
    f_stat = (ss_between / df1) / (ss_within / df2)
    return pd.DataFrame(
        {
            "k_groups": [np.int64(k)],
            "n_rows": [np.int64(int(nn))],
            "f_stat": [round(f_stat, 6)],
            "ss_between": [round(ss_between, 2)],
            "ss_within": [round(ss_within, 2)],
        }
    )


_ANOVA_SQL = """
WITH m AS (
  SELECT l_returnflag AS f, CAST(COUNT(*) AS DOUBLE) AS n,
         SUM(l_extendedprice) AS sx, SUM(l_extendedprice * l_extendedprice) AS sxx
  FROM lineitem
  WHERE l_returnflag IS NOT NULL AND l_extendedprice IS NOT NULL
  GROUP BY 1
),
g AS (SELECT SUM(n) AS nn, SUM(sx) / SUM(n) AS grand, COUNT(*) AS k FROM m),
ss AS (
  SELECT (SELECT CAST(k AS BIGINT) FROM g) AS k_groups,
         (SELECT CAST(nn AS BIGINT) FROM g) AS n_rows,
         SUM(n * (sx / n - (SELECT grand FROM g)) * (sx / n - (SELECT grand FROM g))) AS ssb,
         SUM(sxx - sx * sx / n) AS ssw
  FROM m
)
SELECT k_groups, n_rows,
       ROUND((ssb / (k_groups - 1.0)) / (ssw / (n_rows - CAST(k_groups AS DOUBLE))), 6) AS f_stat,
       ROUND(ssb, 2) AS ss_between, ROUND(ssw, 2) AS ss_within
FROM ss
"""


def degree_assortativity_copurchase(sf_dir: str) -> pd.DataFrame:
    """Degree assortativity (Newman 2002) of the part co-purchase graph —
    do high-degree parts co-occur with other high-degree parts?  The
    one-number structural summary next to k-core/triangles/clustering:
    r = Pearson correlation of endpoint degrees over the DIRECTED
    symmetric edge list.  Distributed shape: canonical edge dedup (shared
    with triangles/k-core), ONE degree exchange, guarded degree attach,
    then per-block EXACT int64 moment partials (M, Σd, Σd², Σd·d' —
    emitted symmetrically so one pass covers both orientations) fold on
    the driver with Python ints (the Mann-Whitney posture: Σd·d' is
    bounded by M·maxdeg², which outgrows int64 on mega-hub graphs; the
    SQL twin uses HUGEINT).  r is ONE float expression from four exact
    integers — bit-identical cross-engine."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import (
        bucketed_groupby,
        count_by_key,
        default_n_buckets,
    )
    from ndap_data_validator_ray.stages.triangles import _canonical_distinct_edges

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame(
            {
                "id_a": m["l_partkey_x"].to_numpy(np.int64),
                "id_b": m["l_partkey_y"].to_numpy(np.int64),
            }
        ).drop_duplicates()

    raw = bucketed_groupby(li, ["l_orderkey"], lambda b: b.dropna().drop_duplicates(), pairs)
    e = _canonical_distinct_edges(raw, "id_a", "id_b", default_n_buckets()).materialize()

    deg = count_by_key(
        e.map_batches(
            lambda b: pd.DataFrame(
                {"node": np.concatenate([b["u"].to_numpy(np.int64), b["v"].to_numpy(np.int64)])}
            ),
            batch_format="pandas",
        ),
        ["node"],
        count_col="deg",
    ).materialize()
    with_du = attach_or_join(
        e,
        deg.map_batches(lambda b: b.rename(columns={"node": "u", "deg": "du"}), batch_format="pandas"),
        on_fact="u",
        on_side="u",
        attach_cols=["du"],
    )
    with_dd = attach_or_join(
        with_du,
        deg.map_batches(lambda b: b.rename(columns={"node": "v", "deg": "dv"}), batch_format="pandas"),
        on_fact="v",
        on_side="v",
        attach_cols=["dv"],
    )

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        du = b["du"].to_numpy(np.int64)
        dv = b["dv"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "m": [2 * len(b)],
                "s1": [int((du + dv).sum())],
                "s2": [int((du * du + dv * dv).sum())],
                "s11": [int((2 * du * dv).sum())],
            }
        )

    p = with_dd.map_batches(moments, batch_format="pandas").to_pandas()
    m = sum(int(x) for x in p["m"])
    s1 = sum(int(x) for x in p["s1"])
    s2 = sum(int(x) for x in p["s2"])
    s11 = sum(int(x) for x in p["s11"])
    r = (float(m) * float(s11) - float(s1) * float(s1)) / (
        float(m) * float(s2) - float(s1) * float(s1)
    )
    return pd.DataFrame({"m_directed_edges": [np.int64(m)], "assortativity": [round(r, 6)]})


_ASSORTATIVITY_SQL = """
WITH li AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
),
e0 AS (
  SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS u, GREATEST(a.l_partkey, b.l_partkey) AS v
  FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
d AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
  FROM (SELECT u AS node FROM e0 UNION ALL SELECT v FROM e0) GROUP BY 1
),
j AS (
  SELECT a.deg AS du, b.deg AS dv
  FROM e0 JOIN d a ON a.node = e0.u JOIN d b ON b.node = e0.v
),
s AS (
  SELECT CAST(2 * COUNT(*) AS HUGEINT) AS m,
         CAST(SUM(CAST(du AS HUGEINT) + dv) AS HUGEINT) AS s1,
         CAST(SUM(CAST(du AS HUGEINT) * du + CAST(dv AS HUGEINT) * dv) AS HUGEINT) AS s2,
         CAST(SUM(2 * CAST(du AS HUGEINT) * dv) AS HUGEINT) AS s11
  FROM j
)
SELECT CAST(m AS BIGINT) AS m_directed_edges,
       ROUND((CAST(m AS DOUBLE) * CAST(s11 AS DOUBLE) - CAST(s1 AS DOUBLE) * CAST(s1 AS DOUBLE))
             / (CAST(m AS DOUBLE) * CAST(s2 AS DOUBLE) - CAST(s1 AS DOUBLE) * CAST(s1 AS DOUBLE)),
             6) AS assortativity
FROM s
"""


# ---------------------------------------------------------------------------
# Final-session additions, third wave (round 5)
# ---------------------------------------------------------------------------

def holt_trend_daily_revenue(sf_dir: str) -> pd.DataFrame:
    """Holt double-exponential smoothing (level + trend) over the daily
    order-revenue series — the trend-aware sibling of ``ewma_daily_
    revenue``.  Daily sums fold as exact integer cents (per-batch Arrow
    partials, low-cardinality driver finish); the coupled O(days)
    recurrence l_i = a*x_i + (1-a)*(l+b), b_i = g*(l_i - l) + (1-g)*b runs
    on the driver with a=0.5, g=0.25 (exact in binary), so every step is
    the same float64 op sequence as the recursive-CTE twin — which
    RECOMPUTES the new-level expression inside the trend term (SQL can't
    bind it), identical bits either way.  Init: l_0 = x_0,
    b_0 = x_1 - x_0 (standard Holt warm start)."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["o_orderdate", "o_totalprice"])
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        cents = np.round(b["o_totalprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
        return pd.DataFrame({"day": d, "cents": cents}).groupby("day", as_index=False)[
            "cents"
        ].sum()

    daily = (
        sum_by_key(
            orders.map_batches(day_partial, batch_format="pandas"),
            ["day"], ["cents"], n_buckets=32, partial_format="pandas",
        )
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    x = daily["cents"].to_numpy(np.int64).astype(np.float64)
    n = len(x)
    lvl = np.zeros(n, dtype=np.float64)
    trd = np.zeros(n, dtype=np.float64)
    if n:
        lvl[0] = x[0]
        trd[0] = (x[1] - x[0]) if n > 1 else 0.0
    for i in range(1, n):
        lvl[i] = 0.5 * x[i] + 0.5 * (lvl[i - 1] + trd[i - 1])
        trd[i] = 0.25 * (lvl[i] - lvl[i - 1]) + 0.75 * trd[i - 1]
    return pd.DataFrame(
        {
            "day": daily["day"].to_numpy(np.int64),
            "revenue": _r2(x / 100.0),
            "level": _r2(lvl / 100.0),
            "trend": _r2(trd / 100.0),
        }
    )


_HOLT_SQL = """
WITH RECURSIVE d AS (
  SELECT CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS cents
  FROM orders WHERE o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
idx AS (SELECT day, cents, ROW_NUMBER() OVER (ORDER BY day) AS i FROM d),
h AS (
  SELECT i, CAST(cents AS DOUBLE) AS l,
         (SELECT CAST(cents AS DOUBLE) FROM idx WHERE i = 2) - CAST(cents AS DOUBLE) AS b
  FROM idx WHERE i = 1
  UNION ALL
  SELECT idx.i,
         0.5 * CAST(idx.cents AS DOUBLE) + 0.5 * (h.l + h.b),
         0.25 * ((0.5 * CAST(idx.cents AS DOUBLE) + 0.5 * (h.l + h.b)) - h.l) + 0.75 * h.b
  FROM h JOIN idx ON idx.i = h.i + 1
)
SELECT CAST(idx.day AS BIGINT) AS day,
       ROUND(CAST(idx.cents AS DOUBLE) / 100, 2) AS revenue,
       ROUND(h.l / 100, 2) AS level,
       ROUND(h.b / 100, 2) AS trend
FROM idx JOIN h USING (i) ORDER BY day
"""


def skew_kurtosis_quantity_by_flag(sf_dir: str) -> pd.DataFrame:
    """Grouped 3rd/4th standardized moments (skewness g1 and excess
    kurtosis g2) of l_quantity by return flag — the distribution-shape
    profile next to the mean/stddev stats.  The exact-moment posture
    (Mann-Whitney / assortativity): per-batch int64 power sums
    (q, q², q³, q⁴ — quantities are integral ≤ 50 so q⁴ ≤ 6.25e6 per
    row; the driver folds with Python ints, the twin with HUGEINT), then
    ONE shared float expression per statistic from the five exact
    integers — bit-identical cross-engine, no shuffle (3 flags x 5
    columns per block)."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["l_returnflag", "l_quantity"])
        q = np.round(b["l_quantity"].to_numpy(np.float64)).astype(np.int64)
        df = pd.DataFrame(
            {"flag": b["l_returnflag"].to_numpy(), "q1": q, "q2": q * q, "q3": q**3, "q4": q**4}
        )
        g = df.groupby("flag", as_index=False).agg(
            n=("q1", "size"), s1=("q1", "sum"), s2=("q2", "sum"), s3=("q3", "sum"), s4=("q4", "sum")
        )
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    rows = []
    for flag, g in parts.groupby("flag"):
        n = sum(int(v) for v in g["n"])
        s1 = sum(int(v) for v in g["s1"])
        s2 = sum(int(v) for v in g["s2"])
        s3 = sum(int(v) for v in g["s3"])
        s4 = sum(int(v) for v in g["s4"])
        fn = float(n)
        mean = float(s1) / fn
        s2n = float(s2) / fn
        s3n = float(s3) / fn
        s4n = float(s4) / fn
        e2 = s2n - mean * mean
        e3 = s3n - 3.0 * mean * s2n + 2.0 * mean * mean * mean
        e4 = s4n - 4.0 * mean * s3n + 6.0 * (mean * mean) * s2n - 3.0 * (mean * mean) * (mean * mean)
        import math as _math

        skew = e3 / (e2 * _math.sqrt(e2))
        kurt = e4 / (e2 * e2) - 3.0
        rows.append((flag, np.int64(n), round(mean, 9), round(skew, 9), round(kurt, 9)))
    out = pd.DataFrame(
        rows, columns=["l_returnflag", "n_rows", "mean_qty", "skewness", "kurtosis_excess"]
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


_SKEW_KURT_SQL = """
WITH q AS (
  SELECT l_returnflag AS flag, CAST(CAST(ROUND(l_quantity) AS BIGINT) AS HUGEINT) AS q
  FROM lineitem WHERE l_returnflag IS NOT NULL AND l_quantity IS NOT NULL
),
s AS (
  SELECT flag, CAST(COUNT(*) AS BIGINT) AS n_rows,
         SUM(q) AS s1, SUM(q*q) AS s2, SUM(q*q*q) AS s3, SUM(q*q*q*q) AS s4
  FROM q GROUP BY flag
),
m AS (
  SELECT flag, n_rows,
         CAST(s1 AS DOUBLE)/CAST(n_rows AS DOUBLE) AS mean,
         CAST(s2 AS DOUBLE)/CAST(n_rows AS DOUBLE) AS s2n,
         CAST(s3 AS DOUBLE)/CAST(n_rows AS DOUBLE) AS s3n,
         CAST(s4 AS DOUBLE)/CAST(n_rows AS DOUBLE) AS s4n
  FROM s
),
e AS (
  SELECT flag, n_rows, mean,
         s2n - mean*mean AS e2,
         s3n - 3.0*mean*s2n + 2.0*mean*mean*mean AS e3,
         s4n - 4.0*mean*s3n + 6.0*(mean*mean)*s2n - 3.0*(mean*mean)*(mean*mean) AS e4
  FROM m
)
SELECT flag AS l_returnflag, n_rows,
       ROUND(mean, 9) AS mean_qty,
       ROUND(e3 / (e2 * SQRT(e2)), 9) AS skewness,
       ROUND(e4 / (e2 * e2) - 3.0, 9) AS kurtosis_excess
FROM e ORDER BY l_returnflag
"""


def knn_rrf_fusion(sf_dir: str) -> pd.DataFrame:
    """Reciprocal-rank fusion (Cormack et al. 2009) of two exact retrieval
    legs — cosine top-20 and Euclidean top-20 — into a fused top-10:
    score(d) = Σ_lists 1/(60 + rank_d), missing-from-a-list contributes
    0.0.  The multi-retriever ensembling shape (hybrid search): each leg
    is the broadcast-matmul brute-force stage (one corpus pass per
    metric), fusion touches only 2x20 rank rows per query on the driver.
    Value-oracled: ranks are ints, each 1/(60+r) is the same single
    division on both sides, and the two-term sum is order-safe; fused
    ties break by neighbor_id."""
    from ndap_data_validator_ray.stages.similarity import brute_force_topk

    K_LIST, K_OUT, C = 20, 10, 60.0
    qids, qmat = _query_vectors(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cos = brute_force_topk(ds, qids, qmat, k=K_LIST, concurrency=2)
    l2 = brute_force_topk(ds, qids, qmat, k=K_LIST, concurrency=2, metric="l2")
    cos = cos[["query_id", "neighbor_id", "rank"]].rename(columns={"rank": "rc"})
    l2 = l2[["query_id", "neighbor_id", "rank"]].rename(columns={"rank": "rl"})
    m = cos.merge(l2, on=["query_id", "neighbor_id"], how="outer")
    rc = m["rc"].to_numpy(np.float64)
    rl = m["rl"].to_numpy(np.float64)
    score = np.where(np.isnan(rc), 0.0, 1.0 / (C + rc)) + np.where(
        np.isnan(rl), 0.0, 1.0 / (C + rl)
    )
    m = m.assign(score=score)
    out = []
    for qid, g in m.groupby("query_id"):
        g = g.sort_values(["score", "neighbor_id"], ascending=[False, True]).head(K_OUT)
        for rank, (_, r) in enumerate(g.iterrows(), 1):
            out.append((qid, int(r["neighbor_id"]), rank, round(float(r["score"]), 9)))
    return pd.DataFrame(out, columns=["query_id", "neighbor_id", "fused_rank", "rrf_score"])


_RRF_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 5),
cs AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         ROW_NUMBER() OVER (PARTITION BY q.query_id
                            ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) AS rc
  FROM q CROSS JOIN embeddings e
),
l2 AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         ROW_NUMBER() OVER (PARTITION BY q.query_id
                            ORDER BY list_distance(q.qe, e.embedding) ASC, e.vec_id) AS rl
  FROM q CROSS JOIN embeddings e
),
fused AS (
  SELECT COALESCE(c.query_id, l.query_id) AS query_id,
         COALESCE(c.neighbor_id, l.neighbor_id) AS neighbor_id,
         COALESCE(1.0 / (60.0 + CAST(c.rc AS DOUBLE)), 0.0)
           + COALESCE(1.0 / (60.0 + CAST(l.rl AS DOUBLE)), 0.0) AS score
  FROM (SELECT * FROM cs WHERE rc <= 20) c
  FULL OUTER JOIN (SELECT * FROM l2 WHERE rl <= 20) l
    ON c.query_id = l.query_id AND c.neighbor_id = l.neighbor_id
),
r AS (
  SELECT query_id, neighbor_id, score,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY score DESC, neighbor_id) AS fused_rank
  FROM fused
)
SELECT query_id, neighbor_id, CAST(fused_rank AS INT) AS fused_rank, ROUND(score, 9) AS rrf_score
FROM r WHERE fused_rank <= 10 ORDER BY query_id, fused_rank
"""


def token_freq_spectrum_documents(sf_dir: str) -> pd.DataFrame:
    """Token frequency-of-frequencies spectrum — the 20 SMALLEST distinct
    frequencies with their type counts and vocabulary shares, the
    corpus-health companion of the Zipf slope (on natural corpora the
    first row is the hapax/OOV-pressure diagnostic; the synthetic fixture
    vocabulary is tiny and template-heavy, so the smallest frequencies
    start higher — which is exactly what the spectrum is for).  Token
    counts ride the zipf/unigram-LM exchange (count_by_key); each count
    block emits a LOCAL (freq, n_types) histogram — bounded by the
    block's distinct count values, O(sqrt(block tokens)) — plus a one-row
    vocab partial, so the full vocabulary never reaches the driver; the
    driver folds histograms and keeps the 20 smallest frequencies.
    Tokenization is the engine str.split() convention, mirrored by the
    regexp_split_to_array + list_filter twin (never string_split)."""
    from ndap_data_validator_ray.stages.groupby import count_by_key

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        toks: list = []
        for t in batch["text"]:
            toks.extend((t or "").split())
        return pd.DataFrame({"tok": toks})

    counts = count_by_key(
        docs.map_batches(explode, batch_format="pandas"), ["tok"], n_buckets=16,
        partial_format="pandas",
    ).materialize()

    def spectrum(batch: pd.DataFrame) -> pd.DataFrame:
        # count_by_key can emit empty schema-less blocks; always emit a row
        # so every output block carries the (freq, n_types) schema
        c = batch["cnt"].to_numpy(np.int64) if "cnt" in batch.columns else np.array([], np.int64)
        u, k = np.unique(c, return_counts=True)
        if not len(u):
            u, k = np.array([1]), np.array([0])
        return pd.DataFrame({"freq": u.astype(np.int64), "n_types": k.astype(np.int64)})

    def vocab(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"nv": [len(batch) if "cnt" in batch.columns else 0]})

    spec = counts.map_batches(spectrum, batch_format="pandas").to_pandas()
    nv = int(counts.map_batches(vocab, batch_format="pandas").to_pandas()["nv"].sum())
    spec = spec[spec["n_types"] > 0]
    out = (
        spec.groupby("freq", as_index=False)["n_types"].sum().sort_values("freq").head(20)
    )
    share = np.round(out["n_types"].to_numpy(np.float64) / float(nv), 9)
    return pd.DataFrame(
        {
            "freq": out["freq"].to_numpy(np.int64),
            "n_types": out["n_types"].to_numpy(np.int64),
            "type_share": share,
        }
    ).reset_index(drop=True)


_TOKEN_SPECTRUM_SQL = r"""
WITH toks AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS tok
  FROM documents
),
tc AS (SELECT tok, COUNT(*) AS cnt FROM toks GROUP BY tok),
v AS (SELECT COUNT(*) AS nv FROM tc)
SELECT CAST(cnt AS BIGINT) AS freq, CAST(COUNT(*) AS BIGINT) AS n_types,
       ROUND(CAST(COUNT(*) AS DOUBLE) / CAST((SELECT nv FROM v) AS DOUBLE), 9) AS type_share
FROM tc GROUP BY cnt ORDER BY freq LIMIT 20
"""


def ztest_finished_share_priority(sf_dir: str) -> pd.DataFrame:
    """Two-proportion z-test (pooled): is the share of finished ('F')
    orders different between 1-URGENT and 5-LOW priorities?  The A/B-test
    primitive next to chi2/Welch/Mann-Whitney.  All four counts are exact
    int64 per-batch partials folded on the driver (2 groups — the
    no-shuffle low-cardinality rule); z is ONE shared float expression
    from the exact integers, bit-identical cross-engine."""
    import math as _math

    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_orderstatus"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["o_orderpriority", "o_orderstatus"])
        b = b[b["o_orderpriority"].isin(["1-URGENT", "5-LOW"])]
        return pd.DataFrame(
            {
                "grp": b["o_orderpriority"].to_numpy(),
                "n": np.ones(len(b), dtype=np.int64),
                "f": (b["o_orderstatus"].to_numpy() == "F").astype(np.int64),
            }
        ).groupby("grp", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    fold = parts.groupby("grp")[["n", "f"]].sum()
    n1, f1 = int(fold.loc["1-URGENT", "n"]), int(fold.loc["1-URGENT", "f"])
    n2, f2 = int(fold.loc["5-LOW", "n"]), int(fold.loc["5-LOW", "f"])
    p1 = float(f1) / float(n1)
    p2 = float(f2) / float(n2)
    pp = float(f1 + f2) / float(n1 + n2)
    z = (p1 - p2) / _math.sqrt(pp * (1.0 - pp) * (1.0 / float(n1) + 1.0 / float(n2)))
    return pd.DataFrame(
        {
            "n_urgent": [np.int64(n1)],
            "finished_urgent": [np.int64(f1)],
            "n_low": [np.int64(n2)],
            "finished_low": [np.int64(f2)],
            "p_urgent": [round(p1, 9)],
            "p_low": [round(p2, 9)],
            "z_score": [round(z, 9)],
        }
    )


_ZTEST_SQL = """
WITH c AS (
  SELECT CAST(SUM(CASE WHEN o_orderpriority='1-URGENT' THEN 1 ELSE 0 END) AS BIGINT) AS n1,
         CAST(SUM(CASE WHEN o_orderpriority='1-URGENT' AND o_orderstatus='F' THEN 1 ELSE 0 END) AS BIGINT) AS f1,
         CAST(SUM(CASE WHEN o_orderpriority='5-LOW' THEN 1 ELSE 0 END) AS BIGINT) AS n2,
         CAST(SUM(CASE WHEN o_orderpriority='5-LOW' AND o_orderstatus='F' THEN 1 ELSE 0 END) AS BIGINT) AS f2
  FROM orders WHERE o_orderpriority IS NOT NULL AND o_orderstatus IS NOT NULL
),
m AS (
  SELECT n1, f1, n2, f2,
         CAST(f1 AS DOUBLE)/CAST(n1 AS DOUBLE) AS p1,
         CAST(f2 AS DOUBLE)/CAST(n2 AS DOUBLE) AS p2,
         CAST(f1+f2 AS DOUBLE)/CAST(n1+n2 AS DOUBLE) AS pp
  FROM c
)
SELECT n1 AS n_urgent, f1 AS finished_urgent, n2 AS n_low, f2 AS finished_low,
       ROUND(p1, 9) AS p_urgent, ROUND(p2, 9) AS p_low,
       ROUND((p1 - p2) / SQRT(pp*(1.0-pp)*(1.0/CAST(n1 AS DOUBLE)+1.0/CAST(n2 AS DOUBLE))), 9) AS z_score
FROM m
"""


def vocab_growth_documents(sf_dir: str) -> pd.DataFrame:
    """Heaps'-law vocabulary growth — V(n) ~ K * n^beta over the corpus in
    doc_id order (natural text sits near beta ~ 0.5-0.7; template spam
    flattens it, OCR noise pushes it toward 1).  The curve needs a GLOBAL
    prefix sum of per-doc token counts and per-doc NEW-vocabulary counts;
    "new" is order-dependent, but min(first doc that contains the token)
    makes it order-FREE and shuffleable: token -> min(doc_id) rides one
    bucketed exchange (per-batch min partials, per-bucket min merge), and
    each bucket folds its tokens to (first_doc, n_new) rows.  Those union
    with the per-doc (doc_id, n_tokens) rows and ride the shared range
    partitioner (``stages/sort._RangePlan``): a fixed-size count pass
    gives exact per-partition offsets for BOTH running sums and the doc
    rank, then each reducer emits only its rank-checkpoint rows (rank %
    step == 0, step = ceil(n_docs/200)) — <= 200 exact-int points reach
    the driver, the full vocabulary and the full curve never do.  The
    slope is OLS of ln(cum_vocab) on ln(cum_tokens) in DuckDB's
    ``regr_slope`` population form (the ``zipf_slope_documents``
    convention: <= 200 well-conditioned points agree to ~1e-12, round 6)."""
    import math as _math

    from ndap_data_validator_ray.stages.groupby import bucketed_groupby
    from ndap_data_validator_ray.stages.sort import _RangePlan

    K = 200
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out_cols = ["n_docs", "total_tokens", "n_vocab", "n_points", "heaps_slope"]

    def doc_rows(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        nt = np.fromiter(
            (len((t or "").split()) for t in batch["text"]), dtype=np.int64, count=n
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "ntok": nt,
                "nnew": np.zeros(n, np.int64),
                "isdoc": np.ones(n, np.int64),
            }
        )

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        e = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "tok": batch["text"].fillna("").str.split(),
            }
        ).explode("tok")
        e = e.dropna(subset=["tok"])
        return pd.DataFrame(
            {"tok": e["tok"].to_numpy(), "doc_id": e["doc_id"].to_numpy(np.int64)}
        )

    def fd_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("tok", as_index=False)["doc_id"].min()

    def fd_merge(part: pd.DataFrame) -> pd.DataFrame:
        cnt = part.groupby("tok")["doc_id"].min().value_counts()
        n = len(cnt)
        return pd.DataFrame(
            {
                "doc_id": cnt.index.to_numpy(np.int64),
                "ntok": np.zeros(n, np.int64),
                "nnew": cnt.to_numpy(np.int64),
                "isdoc": np.zeros(n, np.int64),
            }
        )

    nv = bucketed_groupby(
        docs.map_batches(explode, batch_format="pandas"), ["tok"], fd_partial, fd_merge,
        n_buckets=16,
    )
    u = docs.map_batches(doc_rows, batch_format="pandas").union(nv).materialize()

    plan = _RangePlan(u, ["doc_id"], None, None, 64)
    if plan.empty:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in out_cols[:4]}).assign(
            heaps_slope=pd.Series([], dtype=np.float64)
        )
    pid_of = plan.make_pid_of()
    n_pids = plan.n_pids

    def sums_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "pid": pid_of(batch),
                "snt": batch["ntok"].to_numpy(np.int64),
                "snv": batch["nnew"].to_numpy(np.int64),
                "nd": batch["isdoc"].to_numpy(np.int64),
            }
        )
        return df.groupby("pid", as_index=False).sum()

    fold = (
        u.map_batches(sums_partial, batch_format="pandas")
        .to_pandas()  # <= n_pids rows per block: fixed-size driver fold
        .groupby("pid")
        .sum()
        .reindex(range(n_pids), fill_value=0)
    )
    snt = fold["snt"].to_numpy(np.int64)
    snv = fold["snv"].to_numpy(np.int64)
    nd = fold["nd"].to_numpy(np.int64)
    n_docs, total_tokens, n_vocab = int(nd.sum()), int(snt.sum()), int(snv.sum())
    step = max(1, _math.ceil(n_docs / K))
    offs_ref = ray.put(
        (
            np.concatenate([[0], np.cumsum(snt)[:-1]]).astype(np.int64),
            np.concatenate([[0], np.cumsum(snv)[:-1]]).astype(np.int64),
            np.concatenate([[0], np.cumsum(nd)[:-1]]).astype(np.int64),
            step,
        )
    )

    def ck_fold(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        ot, ov, od, stp = ray.get(offs_ref)
        g = group.groupby("doc_id", sort=True).agg(nt=("ntok", "sum"), nv=("nnew", "sum"))
        cumt = ot[pid] + np.cumsum(g["nt"].to_numpy(np.int64))
        cumv = ov[pid] + np.cumsum(g["nv"].to_numpy(np.int64))
        r = od[pid] + 1 + np.arange(len(g), dtype=np.int64)
        keep = (r % stp == 0) & (cumt > 0) & (cumv > 0)
        return pd.DataFrame({"r": r[keep], "cumt": cumt[keep], "cumv": cumv[keep]})

    ck = plan.shuffle_fold(ck_fold).to_pandas().sort_values("r")
    x = np.log(ck["cumt"].to_numpy(np.float64))
    y = np.log(ck["cumv"].to_numpy(np.float64))
    mx, my = x.mean(), y.mean()
    slope = float(((x - mx) * (y - my)).sum() / ((x - mx) ** 2).sum())
    return pd.DataFrame(
        {
            "n_docs": [np.int64(n_docs)],
            "total_tokens": [np.int64(total_tokens)],
            "n_vocab": [np.int64(n_vocab)],
            "n_points": [np.int64(len(ck))],
            "heaps_slope": _r6([slope]),
        }
    )


_VOCAB_GROWTH_SQL = """
WITH d AS (
  SELECT doc_id, list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents
),
nt AS (SELECT doc_id, CAST(len(ws) AS BIGINT) AS ntok FROM d),
tok AS (SELECT doc_id, unnest(ws) AS tok FROM d),
fd AS (SELECT tok, MIN(doc_id) AS fdoc FROM tok GROUP BY tok),
nv AS (SELECT fdoc AS doc_id, CAST(COUNT(*) AS BIGINT) AS nnew FROM fd GROUP BY fdoc),
st AS (SELECT GREATEST(1, CAST(CEIL(COUNT(*) / 200.0) AS BIGINT)) AS step FROM nt),
series AS (
  SELECT SUM(nt.ntok) OVER w AS cumt,
         SUM(COALESCE(nv.nnew, 0)) OVER w AS cumv,
         ROW_NUMBER() OVER (ORDER BY nt.doc_id) AS r
  FROM nt LEFT JOIN nv USING (doc_id)
  WINDOW w AS (ORDER BY nt.doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
),
ck AS (SELECT * FROM series, st WHERE r % st.step = 0 AND cumt > 0 AND cumv > 0)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM nt) AS n_docs,
       (SELECT CAST(COALESCE(SUM(ntok), 0) AS BIGINT) FROM nt) AS total_tokens,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM fd) AS n_vocab,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ck) AS n_points,
       (SELECT ROUND(regr_slope(ln(CAST(cumv AS DOUBLE)), ln(CAST(cumt AS DOUBLE))), 6) FROM ck) AS heaps_slope
"""


def spearman_price_quantity(sf_dir: str) -> pd.DataFrame:
    """Spearman rank correlation between l_quantity and l_extendedprice —
    the nonparametric sibling of ``price_qty_corr_by_flag``, and the op
    that needs TWO global tie-averaged rankings joined back per row
    (Mann–Whitney needs one ranking folded per group; Spearman needs
    rho = Pearson over (rank_x, rank_y) pairs).  Distributed shape: two
    CHAINED range exchanges on the shared partitioner
    (``stages/sort._RangePlan``) — pass A ranks quantity and emits
    (price, 2*avgrank_q) rows (2x keeps tie-averaged ranks exact int64:
    2*avgrank = 2*rows_before + ties + 1), pass B ranks price and folds
    each partition to ONE row of exact moment partials (n, Σt1, Σt2,
    Σt1², Σt2², Σt1t2) accumulated as PYTHON ints (products reach
    (2n)²·rows — past int64 at warehouse scale; the SQL twin uses
    HUGEINT, the same unbounded-exact posture).  The driver folds n_pids
    rows and evaluates rho as ONE float expression from exact integers —
    bit-identical cross-engine (both sides quantize to integer cents, so
    the tie structure is identical by construction)."""
    import math as _math

    from ndap_data_validator_ray.stages.sort import _RangePlan

    ds = _read(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice"])
    empty = pd.DataFrame(
        {"n_rows": pd.Series([], dtype=np.int64), "spearman_rho": pd.Series([], dtype=np.float64)}
    )

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        return pd.DataFrame(
            {
                "vq": np.round(b["l_quantity"].to_numpy(np.float64) * 100.0).astype(np.int64),
                "vp": np.round(b["l_extendedprice"].to_numpy(np.float64) * 100.0).astype(np.int64),
            }
        )

    def tworanks(v: np.ndarray, offset: int) -> np.ndarray:
        """Per-row 2x tie-averaged rank of a SORTED int64 array whose
        global prefix offset is ``offset`` (equal values never straddle
        partitions — the range-partitioner contract)."""
        starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
        c = np.diff(np.r_[starts, len(v)]).astype(np.int64)
        tr = 2 * (offset + starts.astype(np.int64)) + c + 1
        return np.repeat(tr, c)

    x = ds.map_batches(prep, batch_format="pandas").materialize()
    plan_q = _RangePlan(x, ["vq"], None, None, 64)
    if plan_q.empty:
        return empty
    pid_q, n_q = plan_q.make_pid_of(), plan_q.n_pids

    def count_q(batch: pd.DataFrame) -> pd.DataFrame:
        c = np.bincount(pid_q(batch), minlength=n_q)
        return pd.DataFrame({"pid": np.arange(len(c), dtype=np.int64), "n": c.astype(np.int64)})

    off_q = np.concatenate([[0], np.cumsum(plan_q.fold_partials(count_q, "n"))[:-1]]).astype(
        np.int64
    )
    offq_ref = ray.put(off_q)

    def attach_t1(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        offs = ray.get(offq_ref)
        return pd.DataFrame(
            {
                "vp": group["vp"].to_numpy(np.int64),
                "t1": tworanks(group["vq"].to_numpy(np.int64), int(offs[pid])),
            }
        )

    y = plan_q.shuffle_fold(attach_t1).materialize()
    plan_p = _RangePlan(y, ["vp"], None, None, 64)
    if plan_p.empty:
        return empty
    pid_p, n_p = plan_p.make_pid_of(), plan_p.n_pids

    def count_p(batch: pd.DataFrame) -> pd.DataFrame:
        c = np.bincount(pid_p(batch), minlength=n_p)
        return pd.DataFrame({"pid": np.arange(len(c), dtype=np.int64), "n": c.astype(np.int64)})

    off_p = np.concatenate([[0], np.cumsum(plan_p.fold_partials(count_p, "n"))[:-1]]).astype(
        np.int64
    )
    offp_ref = ray.put(off_p)

    def moments(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        offs = ray.get(offp_ref)
        t1 = group["t1"].to_numpy(np.int64).tolist()
        t2 = tworanks(group["vp"].to_numpy(np.int64), int(offs[pid])).tolist()
        return pd.DataFrame(
            {
                "n": [len(t1)],
                "s1": [sum(t1)],
                "s2": [sum(t2)],
                "s11": [sum(a * a for a in t1)],  # Python int: no (2n)^2 overflow
                "s22": [sum(b * b for b in t2)],
                "s12": [sum(a * b for a, b in zip(t1, t2))],
            }
        )

    p = plan_p.shuffle_fold(moments).to_pandas()
    n = sum(int(v) for v in p["n"])
    s1 = sum(int(v) for v in p["s1"])  # Python-int fold (HUGEINT twin)
    s2 = sum(int(v) for v in p["s2"])
    s11 = sum(int(v) for v in p["s11"])
    s22 = sum(int(v) for v in p["s22"])
    s12 = sum(int(v) for v in p["s12"])
    rho = float(n * s12 - s1 * s2) / _math.sqrt(
        float(n * s11 - s1 * s1) * float(n * s22 - s2 * s2)
    )
    return pd.DataFrame({"n_rows": [np.int64(n)], "spearman_rho": [round(rho, 6)]})


_SPEARMAN_SQL = """
WITH x AS (
  SELECT CAST(ROUND(l_quantity * 100.0) AS BIGINT) AS vq,
         CAST(ROUND(l_extendedprice * 100.0) AS BIGINT) AS vp
  FROM lineitem WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
),
r AS (
  SELECT CAST(2 * RANK() OVER (ORDER BY vq) + COUNT(*) OVER (PARTITION BY vq) - 1 AS HUGEINT) AS t1,
         CAST(2 * RANK() OVER (ORDER BY vp) + COUNT(*) OVER (PARTITION BY vp) - 1 AS HUGEINT) AS t2
  FROM x
),
s AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(t1) AS s1, SUM(t2) AS s2,
         SUM(t1 * t1) AS s11, SUM(t2 * t2) AS s22, SUM(t1 * t2) AS s12
  FROM r
)
SELECT CAST(n AS BIGINT) AS n_rows,
       ROUND(CAST(n * s12 - s1 * s2 AS DOUBLE)
             / SQRT(CAST(n * s11 - s1 * s1 AS DOUBLE) * CAST(n * s22 - s2 * s2 AS DOUBLE)),
             6) AS spearman_rho
FROM s
"""


def source_minhash_similarity(sf_dir: str) -> pd.DataFrame:
    """Corpus-level source-pair similarity matrix — MinHash-estimated
    token-set Jaccard between every pair of sources, next to the EXACT
    Jaccard it estimates (the mixture-design diagnostic: which crawl
    sources are near-duplicates of each other BEFORE paying per-doc
    near-dup).  Sketch leg: a 32-slot per-source MinHash signature where
    slot i's hash is the md5 twin of ``"<i>|<token>"`` — min over a
    source's distinct tokens per slot is a FIXED-space mergeable fold
    (<= sources x 32 rows per block, driver fold, NO shuffle — the
    sketch-family rule), and because both engines evaluate the identical
    md5 mins the ESTIMATE itself is value-pinned, not just bounded
    (the ``kmv``/``hll``/``cms`` posture).  Exact leg: distinct
    (source, token) rows ride ONE bucketed exchange on token; each
    reducer folds its vocabulary slice to a sources x sources
    co-occurrence outer product (``M.T @ M`` over the membership matrix
    — pairs never enumerate per token), and the <= sources^2-row partials
    sum on the driver.  Jaccard finalizes as one exact-int division per
    pair on both sides."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    NS = 32
    docs = _read(sf_dir, "documents", columns=["source", "text"])

    def tok_rows(batch: pd.DataFrame) -> pd.DataFrame:
        e = (
            pd.DataFrame(
                {"source": batch["source"], "tok": batch["text"].fillna("").str.split()}
            )
            .explode("tok")
            .dropna(subset=["tok"])
            .drop_duplicates()
        )
        return e.reset_index(drop=True)

    toks = docs.map_batches(tok_rows, batch_format="pandas").materialize()

    def sig_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop_duplicates()
        tarr = b["tok"].to_numpy()
        src = b["source"].to_numpy()
        frames = []
        for s in range(NS):
            h = md5_lower64_batch([f"{s}|{t}" for t in tarr])
            frames.append(
                pd.DataFrame({"source": src, "s": np.int64(s), "mh": h})
                .groupby(["source", "s"], as_index=False)["mh"]
                .min()
            )
        return pd.concat(frames, ignore_index=True)

    sig = (
        toks.map_batches(sig_partial, batch_format="pandas")
        .to_pandas()  # <= sources*32 rows per block: fixed-space driver fold
        .groupby(["source", "s"])["mh"]
        .min()
        .unstack("s")
        .sort_index()
    )

    def ex_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates()

    def ex_merge(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates()
        piv = pd.crosstab(part["tok"], part["source"]).clip(upper=1)
        m = piv.to_numpy(np.int64)
        inter = m.T @ m
        cols = list(piv.columns)
        ia, ib = np.triu_indices(len(cols), k=0)  # diag rows carry set sizes
        return pd.DataFrame(
            {
                "sa": [cols[i] for i in ia],
                "sb": [cols[j] for j in ib],
                "cnt": inter[ia, ib].astype(np.int64),
            }
        )

    agg = (
        bucketed_groupby(toks, ["tok"], ex_partial, ex_merge, n_buckets=16)
        .to_pandas()  # <= sources^2 rows per bucket: driver fold
        .groupby(["sa", "sb"])["cnt"]
        .sum()
    )
    sizes = {s: int(agg.get((s, s), 0)) for s in sig.index}
    mat = sig.to_numpy()
    srcs = list(sig.index)
    rows = []
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            a, b = srcs[i], srcs[j]
            inter = int(agg.get((a, b), agg.get((b, a), 0)))
            union = sizes[a] + sizes[b] - inter
            est = float((mat[i] == mat[j]).sum()) / float(NS)
            rows.append(
                (a, b, np.int64(inter), np.int64(union),
                 round(float(inter) / float(union), 6), round(est, 6))
            )
    return pd.DataFrame(
        rows,
        columns=["source_a", "source_b", "n_inter", "n_union", "exact_jaccard", "est_jaccard"],
    ).sort_values(["source_a", "source_b"]).reset_index(drop=True)


_SOURCE_MINHASH_SQL = """
WITH d AS (
  SELECT source, list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> '') AS ws
  FROM documents
),
tok AS (SELECT DISTINCT source, unnest(ws) AS tok FROM d),
slots AS (SELECT CAST(range AS BIGINT) AS s FROM range(32)),
sig AS (
  SELECT source, s, MIN(md5_number_lower(CAST(s AS VARCHAR) || '|' || tok)) AS mh
  FROM tok, slots GROUP BY source, s
),
est AS (
  SELECT a.source AS source_a, b.source AS source_b,
         SUM(CASE WHEN a.mh = b.mh THEN 1 ELSE 0 END) / 32.0 AS est_j
  FROM sig a JOIN sig b ON a.s = b.s AND a.source < b.source
  GROUP BY 1, 2
),
ex AS (
  SELECT a.source AS source_a, b.source AS source_b, CAST(COUNT(*) AS BIGINT) AS inter
  FROM tok a JOIN tok b ON a.tok = b.tok AND a.source < b.source
  GROUP BY 1, 2
),
sz AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY source)
SELECT e.source_a, e.source_b,
       COALESCE(x.inter, 0) AS n_inter,
       sa.n + sb.n - COALESCE(x.inter, 0) AS n_union,
       ROUND(CAST(COALESCE(x.inter, 0) AS DOUBLE)
             / CAST(sa.n + sb.n - COALESCE(x.inter, 0) AS DOUBLE), 6) AS exact_jaccard,
       ROUND(e.est_j, 6) AS est_jaccard
FROM est e
LEFT JOIN ex x ON x.source_a = e.source_a AND x.source_b = e.source_b
JOIN sz sa ON sa.source = e.source_a
JOIN sz sb ON sb.source = e.source_b
ORDER BY e.source_a, e.source_b
"""


def kmv_user_overlap_event_types(sf_dir: str) -> pd.DataFrame:
    """KMV set-OPERATION estimates — |click users ∩ purchase users| and
    their Jaccard from bottom-k sketches (the audience-overlap question
    ``kmv_distinct_parts_by_flag`` can't answer: intersections need the
    union sketch + membership flags, not per-set counts).  Sketch leg:
    per-batch per-user flag partials (a=clicked, b=purchased) hash
    through the md5 twin and keep three local bottom-k=128 sets (A rows,
    B rows, all rows) — <= 3k rows per block, flags OR-merge on the
    driver (a hash in any TRUE bottom-k survives every local cut it
    appears in, so the fold is lossless; the sketch-family no-shuffle
    rule).  Estimators: (k-1)/theta per set (the KMV query's convention,
    exact-count degradation when nd < k), Jaccard = both-flagged fraction
    of the union's bottom-m (m = min(k, nd)), intersection = J x union
    estimate — every branch recomputed verbatim by DuckDB from the same
    md5 hashes, so all five estimates are value-pinned.  Exact
    comparison counts ride ONE bucketed exchange on user_id (per-bucket
    flag OR + three sums)."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    K = 128
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def prep(bt: pd.DataFrame) -> pd.DataFrame:
        bt = bt.dropna(subset=["user_id"])
        bt = bt[bt["event_type"].isin(["click", "purchase"])]
        return (
            bt.assign(
                a=(bt["event_type"] == "click").astype(np.int64),
                b=(bt["event_type"] == "purchase").astype(np.int64),
                user_id=bt["user_id"].astype(np.int64),
            )
            .groupby("user_id", as_index=False)[["a", "b"]]
            .max()
        )

    users = ds.map_batches(prep, batch_format="pandas").materialize()

    def sk_partial(bt: pd.DataFrame) -> pd.DataFrame:
        bt = bt.groupby("user_id", as_index=False)[["a", "b"]].max()
        hv = md5_lower64_batch(bt["user_id"].astype(np.int64).astype(str).to_numpy())
        df = pd.DataFrame({"hv": hv, "a": bt["a"].to_numpy(), "b": bt["b"].to_numpy()})
        keep = pd.concat(
            [
                df[df["a"] == 1].nsmallest(K, "hv"),
                df[df["b"] == 1].nsmallest(K, "hv"),
                df.nsmallest(K, "hv"),
            ]
        )
        return keep.drop_duplicates(subset=["hv"])

    sk = (
        users.map_batches(sk_partial, batch_format="pandas")
        .to_pandas()  # <= 3k rows per block: fixed-space driver fold
        .groupby("hv", as_index=False)[["a", "b"]]
        .max()
        .sort_values("hv")
    )

    def kmv_est(hvs: np.ndarray) -> float:
        nd = len(hvs)
        if nd < K:
            return float(nd)
        return (K - 1.0) * 18446744073709551616.0 / float(np.sort(hvs)[K - 1])

    est_a = kmv_est(sk.loc[sk["a"] == 1, "hv"].to_numpy())
    est_b = kmv_est(sk.loc[sk["b"] == 1, "hv"].to_numpy())
    est_u = kmv_est(sk["hv"].to_numpy())
    m = min(K, len(sk))
    bottom = sk.head(m)
    c = int(((bottom["a"] == 1) & (bottom["b"] == 1)).sum())
    est_j = float(c) / float(m) if m else 0.0
    est_i = est_j * est_u

    def ex_merge(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("user_id")[["a", "b"]].max()
        return pd.DataFrame(
            {
                "na": [np.int64(g["a"].sum())],
                "nb": [np.int64(g["b"].sum())],
                "nboth": [np.int64(((g["a"] == 1) & (g["b"] == 1)).sum())],
            }
        )

    ex = bucketed_groupby(users, ["user_id"], lambda b: b, ex_merge, n_buckets=16).to_pandas()
    return pd.DataFrame(
        {
            "n_click_exact": [np.int64(ex["na"].sum())],
            "n_purchase_exact": [np.int64(ex["nb"].sum())],
            "n_both_exact": [np.int64(ex["nboth"].sum())],
            "est_click": _r6([est_a]),
            "est_purchase": _r6([est_b]),
            "est_union": _r6([est_u]),
            "est_inter": _r6([est_i]),
            "est_jaccard": _r6([est_j]),
        }
    )


_KMV_OVERLAP_SQL = """
WITH u AS (
  SELECT user_id,
         MAX(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS a,
         MAX(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS b
  FROM events
  WHERE user_id IS NOT NULL AND event_type IN ('click', 'purchase')
  GROUP BY user_id
),
f AS (SELECT md5_number_lower(CAST(user_id AS VARCHAR)) AS hv, a, b FROM u),
ru AS (SELECT hv, a, b, ROW_NUMBER() OVER (ORDER BY hv) AS r FROM f),
sa AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS nd, MAX(CASE WHEN r2 = 128 THEN hv END) AS hk
  FROM (SELECT hv, ROW_NUMBER() OVER (ORDER BY hv) AS r2 FROM f WHERE a = 1) WHERE r2 <= 128
),
sb AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS nd, MAX(CASE WHEN r2 = 128 THEN hv END) AS hk
  FROM (SELECT hv, ROW_NUMBER() OVER (ORDER BY hv) AS r2 FROM f WHERE b = 1) WHERE r2 <= 128
),
su AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS nd, MAX(CASE WHEN r = 128 THEN hv END) AS hk,
         CAST(SUM(a * b) AS BIGINT) AS c
  FROM ru WHERE r <= 128
),
est AS (
  SELECT
    (SELECT CASE WHEN nd < 128 THEN CAST(nd AS DOUBLE)
                 ELSE 127.0 * 18446744073709551616.0 / CAST(hk AS DOUBLE) END FROM sa) AS ea,
    (SELECT CASE WHEN nd < 128 THEN CAST(nd AS DOUBLE)
                 ELSE 127.0 * 18446744073709551616.0 / CAST(hk AS DOUBLE) END FROM sb) AS eb,
    (SELECT CASE WHEN nd < 128 THEN CAST(nd AS DOUBLE)
                 ELSE 127.0 * 18446744073709551616.0 / CAST(hk AS DOUBLE) END FROM su) AS eu,
    (SELECT CASE WHEN nd = 0 THEN 0.0 ELSE CAST(c AS DOUBLE) / CAST(nd AS DOUBLE) END FROM su) AS ej
)
SELECT
  (SELECT CAST(SUM(a) AS BIGINT) FROM u) AS n_click_exact,
  (SELECT CAST(SUM(b) AS BIGINT) FROM u) AS n_purchase_exact,
  (SELECT CAST(SUM(a * b) AS BIGINT) FROM u) AS n_both_exact,
  ROUND(ea, 6) AS est_click, ROUND(eb, 6) AS est_purchase, ROUND(eu, 6) AS est_union,
  ROUND(ej * eu, 6) AS est_inter, ROUND(ej, 6) AS est_jaccard
FROM est
"""


def embedding_quantization_stats(sf_dir: str) -> pd.DataFrame:
    """Scalar quantization audit for the embedding column — the
    compression step an ANN index takes before PQ: per-dimension affine
    mapping to 255 codes (0..254), then per-label code distribution and
    worst-case reconstruction error.  Two-pass distributed shape: pass 1
    folds per-dimension (min, max) from fixed 64-row block partials
    (min/max are order-free — NO shuffle, the sketch-family rule); pass 2
    broadcasts the 64-entry scale table in the closure and folds
    per-label partials of EXACT integers (code sums / squares /
    saturation counts) plus an order-free float MAX of |x - dequant(x)|.
    Cross-engine determinism: both engines evaluate the identical
    elementwise expression chain (cast-to-double, one-rounding scale
    division, ``floor(v + 0.5)`` — never banker's rounding, which numpy
    and SQL disagree on), integer stats are exact, and the only float
    aggregate is MAX — no accumulation order anywhere (round 9)."""
    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])

    def mm_partial(bt: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(bt["embedding"].to_numpy()).astype(np.float64)
        d = m.shape[1]
        return pd.DataFrame(
            {"dim": np.arange(d, dtype=np.int64), "mn": m.min(axis=0), "mx": m.max(axis=0)}
        )

    x = ds.map_batches(mm_partial, batch_format="pandas").to_pandas().groupby("dim")
    mn = x["mn"].min().to_numpy(np.float64)
    mx = x["mx"].max().to_numpy(np.float64)
    live = mx > mn
    scale = np.where(live, (mx - mn) / 254.0, 1.0)

    def q_partial(bt: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(bt["embedding"].to_numpy()).astype(np.float64)
        v = (m - mn) / scale
        q0 = np.clip(np.floor(v + 0.5), 0.0, 254.0)
        q0 = np.where(live, q0, 127.0)
        err = np.where(live, np.abs(m - (mn + q0 * scale)), 0.0)
        qi = q0.astype(np.int64)
        df = pd.DataFrame(
            {
                "label": bt["label"].to_numpy(np.int64).repeat(m.shape[1]),
                "qi": qi.ravel(),
                "qi2": (qi * qi).ravel(),
                "is0": (qi == 0).ravel().astype(np.int64),
                "is254": (qi == 254).ravel().astype(np.int64),
                "err": err.ravel(),
            }
        )
        g = df.groupby("label")
        return pd.DataFrame(
            {
                "label": g.size().index.to_numpy(np.int64),
                "n_vals": g.size().to_numpy(np.int64),
                "sum_code": g["qi"].sum().to_numpy(np.int64),
                "sum_code2": g["qi2"].sum().to_numpy(np.int64),
                "n_min_code": g["is0"].sum().to_numpy(np.int64),
                "n_max_code": g["is254"].sum().to_numpy(np.int64),
                "max_abs_err": g["err"].max().to_numpy(np.float64),
            }
        )

    p = ds.map_batches(q_partial, batch_format="pandas").to_pandas()  # <= labels rows/block
    g = p.groupby("label")
    out = pd.DataFrame(
        {
            "label": g.size().index.to_numpy(np.int64),
            "n_vals": g["n_vals"].sum().to_numpy(np.int64),
            "sum_code": g["sum_code"].sum().to_numpy(np.int64),
            "sum_code2": g["sum_code2"].sum().to_numpy(np.int64),
            "n_min_code": g["n_min_code"].sum().to_numpy(np.int64),
            "n_max_code": g["n_max_code"].sum().to_numpy(np.int64),
            "max_abs_err": _r9(g["max_abs_err"].max().to_numpy(np.float64)),
        }
    )
    return out.sort_values("label").reset_index(drop=True)


_EMB_QUANT_SQL = """
WITH x AS (
  SELECT CAST(label AS BIGINT) AS label, d.s AS dim,
         CAST(embedding[CAST(d.s AS INTEGER) + 1] AS DOUBLE) AS x
  FROM embeddings, (SELECT CAST(range AS BIGINT) AS s FROM range(64)) d
  WHERE embedding IS NOT NULL
),
mm AS (SELECT dim, MIN(x) AS mn, MAX(x) AS mx FROM x GROUP BY dim),
q AS (
  SELECT label,
         CASE WHEN mx > mn
              THEN LEAST(254.0, GREATEST(0.0, FLOOR((x.x - mn) / ((mx - mn) / 254.0) + 0.5)))
              ELSE 127.0 END AS q0,
         x.x AS x, mn, mx
  FROM x JOIN mm USING (dim)
),
e AS (
  SELECT label, CAST(q0 AS BIGINT) AS qi,
         CASE WHEN mx > mn THEN ABS(x - (mn + q0 * ((mx - mn) / 254.0))) ELSE 0.0 END AS err
  FROM q
)
SELECT label, CAST(COUNT(*) AS BIGINT) AS n_vals,
       CAST(SUM(qi) AS BIGINT) AS sum_code, CAST(SUM(qi * qi) AS BIGINT) AS sum_code2,
       CAST(SUM(CASE WHEN qi = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_min_code,
       CAST(SUM(CASE WHEN qi = 254 THEN 1 ELSE 0 END) AS BIGINT) AS n_max_code,
       ROUND(MAX(err), 9) AS max_abs_err
FROM e GROUP BY label ORDER BY label
"""


def ams_f2_user_events(sf_dir: str) -> pd.DataFrame:
    """AMS / Tug-of-War sketch of the second frequency moment F2 =
    Σ f(user)² over events — the self-join-size estimator that prices a
    user-key join BEFORE running it (skew planner input), and the fifth
    member of the value-oracled sketch family.  16 estimators share ONE
    md5-twin hash per user: estimator i's sign is bit i of the hash, and
    its partial is just Σ±1 over event rows — a FIXED 16-int mergeable
    vector per block (driver fold, NO shuffle; the sketch-family rule).
    Each estimate is zi² (exact integers end to end — squared as Python
    ints / HUGEINT, so no overflow at any scale), summarized by the LOWER
    median (8th smallest of 16 — an exact order statistic on both
    engines; interpolated median would average two ints in float) and the
    exact-int mean divided once.  The exact F2 comparison column pays the
    only exchange (bucketed on user_id: per-bucket counts are complete,
    Σc² sums across buckets)."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    NI = 16
    ds = _read(sf_dir, "events", columns=["user_id"])

    def sign_partial(bt: pd.DataFrame) -> pd.DataFrame:
        u = bt["user_id"].dropna().astype(np.int64)
        h = md5_lower64_batch(u.astype(str).to_numpy())
        bits = ((h[:, None] >> np.arange(NI, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)
        z = (2 * bits - 1).sum(axis=0)  # Σ ±1 per estimator
        return pd.DataFrame({"i": np.arange(NI, dtype=np.int64), "z": z})

    z = (
        ds.map_batches(sign_partial, batch_format="pandas")
        .to_pandas()  # 16 rows per block: fixed-space driver fold
        .groupby("i")["z"]
        .sum()
        .reindex(range(NI), fill_value=0)
        .to_numpy(np.int64)
    )
    est = sorted(int(v) * int(v) for v in z)  # Python ints: no z² overflow
    est_median = est[NI // 2 - 1]  # lower median (exact order statistic)
    est_mean = float(sum(est)) / float(NI)

    def ex_merge(part: pd.DataFrame) -> pd.DataFrame:
        c = part.groupby("user_id").size().to_numpy(np.int64)
        return pd.DataFrame({"f2": [sum(int(v) * int(v) for v in c)]})

    ex = bucketed_groupby(
        ds.map_batches(lambda b: b.dropna(), batch_format="pandas"),
        ["user_id"], lambda b: b, ex_merge, n_buckets=16,
    ).to_pandas()
    return pd.DataFrame(
        {
            "f2_exact": [np.int64(sum(int(v) for v in ex["f2"]))],
            "f2_est_median": [np.int64(est_median)],
            "f2_est_mean": _r6([est_mean]),
        }
    )


_AMS_F2_SQL = """
WITH e AS (
  SELECT md5_number_lower(CAST(user_id AS VARCHAR)) AS h
  FROM events WHERE user_id IS NOT NULL
),
i AS (SELECT CAST(range AS BIGINT) AS i FROM range(16)),
z AS (
  SELECT i, CAST(SUM(CASE WHEN (h >> CAST(i AS INTEGER)) & 1 = 1 THEN 1 ELSE -1 END)
                 AS BIGINT) AS zi
  FROM e, i GROUP BY i
),
est AS (
  SELECT CAST(zi AS HUGEINT) * zi AS e2,
         ROW_NUMBER() OVER (ORDER BY CAST(zi AS HUGEINT) * zi) AS r
  FROM z
),
ex AS (
  SELECT CAST(SUM(CAST(c AS HUGEINT) * c) AS HUGEINT) AS f2
  FROM (SELECT COUNT(*) AS c FROM events WHERE user_id IS NOT NULL GROUP BY user_id)
)
SELECT (SELECT CAST(f2 AS BIGINT) FROM ex) AS f2_exact,
       (SELECT CAST(e2 AS BIGINT) FROM est WHERE r = 8) AS f2_est_median,
       (SELECT ROUND(CAST(SUM(e2) AS DOUBLE) / 16.0, 6) FROM est) AS f2_est_mean
"""


def session_paths_events(sf_dir: str) -> pd.DataFrame:
    """Top session-opening paths — the first three event types of every
    30-minute-gap session, joined ``a>b>c`` and counted corpus-wide (the
    sequence-mining question behind onboarding/funnel design; the
    sessionization twin that consumes the ORDER inside the session, not
    just its bounds).  Distributed shape: ONE bucketed exchange on
    user_id (sessions are user-local — the documented sessionization
    partitioning assumption); each reducer rebuilds its users' sessions
    with the same 30-min rule, takes the first 3 events by the total
    order (ts, event_id — deterministic under same-timestamp ties, which
    the plain sessionization query never has to break), and folds ITS
    path counts locally, so blocks carry <= |event_types|³ + smaller
    partial rows — the driver folds path counts, never rows.  Top 20 by
    (count desc, path asc)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def paths(part: pd.DataFrame) -> pd.DataFrame:
        part = part.dropna().sort_values(["user_id", "ts", "event_id"], kind="stable")
        gap = part["ts"].diff() > pd.Timedelta(minutes=30)
        new_user = part["user_id"].ne(part["user_id"].shift())
        sid = (gap | new_user).cumsum()
        head = part.groupby(sid, sort=False).head(3)
        p = head.groupby(sid.loc[head.index], sort=False)["event_type"].agg(">".join)
        cnt = p.value_counts()
        return pd.DataFrame(
            {"path": cnt.index.to_numpy(), "cnt": cnt.to_numpy(np.int64)}
        )

    out = (
        bucketed_groupby(ds, ["user_id"], lambda b: b, paths).to_pandas()
        .groupby("path", as_index=False)["cnt"]
        .sum()
    )
    out["cnt"] = out["cnt"].astype(np.int64)
    out = out.sort_values(["cnt", "path"], ascending=[False, True]).head(20)
    return out.reset_index(drop=True)


_SESSION_PATHS_SQL = """
WITH ordered AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN LAG(ts) OVER w IS NULL
                   OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s
  FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL AND event_id IS NOT NULL
        AND event_type IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
numbered AS (
  SELECT user_id, ts, event_id, event_type,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS sid
  FROM ordered
),
ranked AS (
  SELECT user_id, sid, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id, sid ORDER BY ts, event_id) AS r
  FROM numbered
),
p AS (
  SELECT STRING_AGG(event_type, '>' ORDER BY r) AS path
  FROM ranked WHERE r <= 3 GROUP BY user_id, sid
)
SELECT path, CAST(COUNT(*) AS BIGINT) AS cnt
FROM p GROUP BY path
ORDER BY cnt DESC, path
LIMIT 20
"""


def hits_copurchase_parts(sf_dir: str) -> pd.DataFrame:
    """HITS hubs/authorities on the bipartite customer-part purchase
    graph — the link-analysis sibling of ``order_chain_pagerank``, in
    EXACT integer arithmetic: two full unnormalized iterations from the
    all-ones hub start (auth1 = per-part customer degree, hub1 = sum of
    neighbor authorities, auth2 = sum of neighbor hubs).  Skipping the
    per-round normalization keeps every value an exact int64 (sums of
    counts — order-independent, so the DuckDB HUGEINT twin matches
    verbatim where float HITS could not), bounded by deg^3 << 2^63 at
    any realistic catalog skew.  Shape: edges deduped via one bucketed
    exchange, each half-iteration is one bucketed join + one bucketed
    sum — the orders side attaches through the broadcast-vs-shuffle
    guard.  Output: top 50 parts by final authority."""
    from ndap_data_validator_ray.stages import broadcast as _bc
    from ndap_data_validator_ray.stages.groupby import count_by_key, sum_by_key
    from ndap_data_validator_ray.stages.join import bucketed_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"]).map_batches(
        lambda t: pa.table({"o_orderkey": t["l_orderkey"], "l_partkey": t["l_partkey"]}),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    fact = _bc.attach_or_join(li, orders, "o_orderkey", "o_orderkey", ["o_custkey"])
    edges = (
        count_by_key(fact, ["o_custkey", "l_partkey"], n_buckets=32)
        .map_batches(
            lambda t: pa.table({"o_custkey": t["o_custkey"], "l_partkey": t["l_partkey"]}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    auth1 = count_by_key(edges, ["l_partkey"], n_buckets=32, count_col="auth1").materialize()
    hub1 = (
        sum_by_key(bucketed_join(edges, auth1, on=["l_partkey"]), ["o_custkey"], ["auth1"], n_buckets=32)
        .map_batches(
            lambda t: pa.table({"o_custkey": t["o_custkey"], "hub1": t["auth1"]}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    auth2 = sum_by_key(
        bucketed_join(edges, hub1, on=["o_custkey"]), ["l_partkey"], ["hub1"], n_buckets=32
    ).map_batches(
        lambda t: pa.table({"l_partkey": t["l_partkey"], "auth2": t["hub1"]}),
        batch_format="pyarrow",
    )
    top = (
        auth2.sort(["auth2", "l_partkey"], descending=[True, False]).limit(50).to_pandas()
    )
    keys = set(top["l_partkey"].tolist())
    deg = auth1.map_batches(
        lambda b: b[b["l_partkey"].isin(keys)], batch_format="pandas"
    ).to_pandas()
    out = top.merge(deg, on="l_partkey")
    for c in ("l_partkey", "auth1", "auth2"):
        out[c] = out[c].astype(np.int64)
    return (
        out[["l_partkey", "auth1", "auth2"]]
        .sort_values(["auth2", "l_partkey"], ascending=[False, True])
        .reset_index(drop=True)
    )


_HITS_SQL = """
WITH edges AS (
  SELECT DISTINCT o_custkey AS c, l_partkey AS p
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
),
a1 AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS auth1 FROM edges GROUP BY p),
h1 AS (SELECT c, CAST(SUM(auth1) AS BIGINT) AS hub1 FROM edges JOIN a1 USING (p) GROUP BY c),
a2 AS (SELECT p, CAST(SUM(hub1) AS BIGINT) AS auth2 FROM edges JOIN h1 USING (c) GROUP BY p)
SELECT p AS l_partkey, a1.auth1 AS auth1, a2.auth2 AS auth2
FROM a2 JOIN a1 USING (p)
ORDER BY auth2 DESC, l_partkey LIMIT 50
"""


def theil_sen_daily_revenue(sf_dir: str) -> pd.DataFrame:
    """Theil-Sen robust trend of the daily order-revenue series: the
    median over all O(days^2) pairwise slopes, plus the median-residual
    intercept — the outlier-proof sibling of the OLS
    ``customer_spend_trend``.  Daily sums fold as exact integer cents
    through one bucketed exchange; the pairwise stage is driver-local
    because the series length is CALENDAR-bounded (days, not rows — the
    same O(days) argument as the EWMA/CUSUM scans), so it never grows
    with data volume.  Cross-engine float exactness: each slope is the
    same two-int division on both sides, and the median is pinned to the
    explicit two-middle-order-statistics form ``(lo + hi) / 2.0`` (an
    interpolating MEDIAN() could differ in the last ulp; the SQL twin
    selects rn IN ((n+1)//2, (n+2)//2) and averages, exactly as here)."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def day_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["o_orderdate", "o_totalprice"])
        d = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        cents = np.round(b["o_totalprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
        return pd.DataFrame({"day": d, "cents": cents}).groupby("day", as_index=False)[
            "cents"
        ].sum()

    daily = (
        sum_by_key(
            orders.map_batches(day_partial, batch_format="pandas"),
            ["day"], ["cents"], n_buckets=32, partial_format="pandas",
        )
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    d = daily["day"].to_numpy(np.int64)
    c = daily["cents"].to_numpy(np.int64)
    i, j = np.triu_indices(len(d), k=1)

    def _median_pinned(x: np.ndarray) -> float:
        x = np.sort(x)
        n = len(x)
        lo = x[(n - 1) // 2]
        hi = x[n // 2]
        return float((lo + hi) / 2.0)

    slopes = (c[j] - c[i]).astype(np.float64) / (d[j] - d[i]).astype(np.float64)
    slope = _median_pinned(slopes)
    intercept = _median_pinned(c.astype(np.float64) - slope * d.astype(np.float64))
    return pd.DataFrame(
        {
            "n_days": [np.int64(len(d))],
            "n_pairs": [np.int64(len(slopes))],
            "slope_cents_per_day": _r9([slope]),
            "intercept_cents": _r6([intercept]),
        }
    )


_THEILSEN_SQL = """
WITH d AS (
  SELECT CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS day,
         CAST(SUM(CAST(ROUND(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS cents
  FROM orders WHERE o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
slopes AS (
  SELECT CAST(b.cents - a.cents AS DOUBLE) / CAST(b.day - a.day AS DOUBLE) AS s
  FROM d a JOIN d b ON b.day > a.day
),
sr AS (SELECT s, ROW_NUMBER() OVER (ORDER BY s) AS rn, COUNT(*) OVER () AS n FROM slopes),
slope AS (
  SELECT (MIN(s) + MAX(s)) / 2.0 AS slope FROM sr WHERE rn IN ((n + 1) // 2, (n + 2) // 2)
),
resid AS (
  SELECT CAST(d.cents AS DOUBLE) - slope.slope * CAST(d.day AS DOUBLE) AS r FROM d, slope
),
rr AS (SELECT r, ROW_NUMBER() OVER (ORDER BY r) AS rn, COUNT(*) OVER () AS n FROM resid),
icept AS (
  SELECT (MIN(r) + MAX(r)) / 2.0 AS icept FROM rr WHERE rn IN ((n + 1) // 2, (n + 2) // 2)
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM d) AS n_days,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM slopes) AS n_pairs,
       ROUND(slope.slope, 9) AS slope_cents_per_day,
       ROUND(icept.icept, 6) AS intercept_cents
FROM slope, icept
"""


def jaro_winkler_adjacent_parts(sf_dir: str) -> pd.DataFrame:
    """Jaro-Winkler similarity of each part's name against the next
    part's (key-shifted self-join through the bucketed exchange, then
    the vectorized pair kernel) — the typo-tolerant record-linkage
    scalar next to ``fuzzy_part_names``'s Levenshtein.  The kernel
    (functions/strdist.jaro_winkler_batch) is bit-identical to DuckDB's
    ``jaro_winkler_similarity`` builtin (fuzz-gated in
    tests/test_new_ops_r5d.py), which makes this a FULL value oracle for
    a nontrivial string-similarity kernel; the deterministic pair set
    (partkey -> partkey+1) keeps the row set threshold-free so float
    boundaries can never flip membership."""
    from ndap_data_validator_ray.functions.strdist import jaro_winkler_batch
    from ndap_data_validator_ray.stages.join import bucketed_join

    part = _read(sf_dir, "part", columns=["p_partkey", "p_name"])
    left = part.map_batches(
        lambda t: pa.table(
            {"jk": t["p_partkey"], "p_partkey": t["p_partkey"], "p_name": t["p_name"]}
        ),
        batch_format="pyarrow",
    )
    right = part.map_batches(
        lambda t: pa.table(
            {"jk": pc.subtract(t["p_partkey"], pa.scalar(1, pa.int64())), "name_b": t["p_name"]}
        ),
        batch_format="pyarrow",
    )

    def score(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "p_partkey": b["p_partkey"].to_numpy(np.int64),
                "jw": _r9(jaro_winkler_batch(b["p_name"].tolist(), b["name_b"].tolist())),
            }
        )

    out = (
        bucketed_join(left, right, on=["jk"], n_buckets=16)
        .map_batches(score, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("p_partkey").reset_index(drop=True)


_JW_SQL = """
SELECT a.p_partkey, ROUND(jaro_winkler_similarity(a.p_name, b.p_name), 9) AS jw
FROM part a JOIN part b ON b.p_partkey = a.p_partkey + 1
ORDER BY a.p_partkey
"""


def trimmed_mean_price_by_flag(sf_dir: str) -> pd.DataFrame:
    """5%-two-sided trimmed mean of l_extendedprice per returnflag — the
    robust-aggregation sibling of ``mad_outlier_orders``, computed
    EXACTLY at any scale without sorting rows: one bucketed exchange
    builds the per-(flag, integer-cents) count histogram (the kcore
    order-statistic trick — histogram size is bounded by the PRICE
    DOMAIN, never row count), then the driver folds trim boundaries and
    the kept sum from cumulative counts in pure Python ints (no int64
    overflow at 10^12 rows).  trim = n//20 rows off each end; groups
    with n < 20 trim nothing (plain mean).  Cut values are emitted in
    integer cents (zero float risk); the mean mirrors the SQL division
    expression verbatim."""
    from ndap_data_validator_ray.stages.groupby import sum_by_key

    li = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["l_returnflag", "l_extendedprice"])
        cents = np.round(b["l_extendedprice"].to_numpy(np.float64) * 100.0).astype(np.int64)
        g = (
            pd.DataFrame({"l_returnflag": b["l_returnflag"].to_numpy(), "c": cents})
            .groupby(["l_returnflag", "c"], as_index=False)
            .size()
        )
        return g.rename(columns={"size": "cnt"})

    hist = sum_by_key(
        li.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "c"], ["cnt"], n_buckets=32, partial_format="pandas",
    ).to_pandas()

    rows = []
    for f, g in hist.groupby("l_returnflag", sort=True):
        g = g.sort_values("c")
        c = [int(x) for x in g["c"].tolist()]
        cnt = [int(x) for x in g["cnt"].tolist()]
        n = sum(cnt)
        t = n // 20
        total = sum(v * k for v, k in zip(c, cnt))
        # exact trim folds off the cumulative histogram: full cells below
        # the boundary, then the boundary cell's partial count
        def edge_sum(vals, counts, trim):
            s = 0
            cum = 0
            for v, k in zip(vals, counts):
                if cum + k <= trim:
                    s += v * k
                    cum += k
                    continue
                s += v * (trim - cum)
                break
            return s
        bottom = edge_sum(c, cnt, t)
        top = edge_sum(c[::-1], cnt[::-1], t)
        kept_n = n - 2 * t
        kept_sum = total - bottom - top
        # smallest / largest KEPT value off the cumulative ranks
        cum = 0
        lo_cut = hi_cut = None
        for v, k in zip(c, cnt):
            if lo_cut is None and cum + k >= t + 1:
                lo_cut = v
            cum += k
            if cum >= n - t:
                hi_cut = v
                break
        rows.append(
            {
                "l_returnflag": f,
                "n_kept": np.int64(kept_n),
                "lo_cut_cents": np.int64(lo_cut),
                "hi_cut_cents": np.int64(hi_cut),
                "trimmed_mean": float(np.round(float(kept_sum) / (100.0 * kept_n), 9)),
            }
        )
    return pd.DataFrame(rows).sort_values("l_returnflag").reset_index(drop=True)


_TRIMMED_MEAN_SQL = """
WITH v AS (
  SELECT l_returnflag, CAST(ROUND(l_extendedprice * 100.0) AS BIGINT) AS c
  FROM lineitem WHERE l_returnflag IS NOT NULL AND l_extendedprice IS NOT NULL
),
r AS (
  SELECT l_returnflag, c,
         ROW_NUMBER() OVER (PARTITION BY l_returnflag ORDER BY c) AS rn,
         COUNT(*) OVER (PARTITION BY l_returnflag) AS n
  FROM v
)
SELECT l_returnflag,
       CAST(COUNT(*) AS BIGINT) AS n_kept,
       CAST(MIN(c) AS BIGINT) AS lo_cut_cents,
       CAST(MAX(c) AS BIGINT) AS hi_cut_cents,
       ROUND(CAST(SUM(c) AS DOUBLE) / (100.0 * COUNT(*)), 9) AS trimmed_mean
FROM r WHERE rn > n // 20 AND rn <= n - n // 20
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def hll_rollup_weekly_users(sf_dir: str) -> pd.DataFrame:
    """HLL sketch ROLLUP: per-day p=7 (128-register) md5-twin sketches of
    distinct event users, merged to Monday-truncated epoch weeks (the
    repo's ``(days + 3) // 7`` convention) by register-wise MAX — the
    sketch-reuse pattern a 100 TB metrics store needs (day sketches are
    built once; every coarser rollup level folds registers, never
    rescanning rows).  Register max is associative, so the merged week
    registers equal a direct week build — which is exactly what the SQL
    twin computes, value-pinning the LOSSLESSNESS of the rollup, not
    just the estimate.  Same determinism rules as
    ``hll_distinct_users_by_type``: exact-integer harmonic sum
    (``2^58 >> rho`` as Python int/HUGEIT — float powers of two would
    round order-dependently), 6-step binary bit_length, small-range
    branch at e_raw <= 2.5m with v0 > 0.  Distributed shape: per-block
    partials are <= days x 128 rows (calendar-bounded), driver-folded —
    the sketch never shuffles; only the exact COUNT(DISTINCT) comparison
    pays exchanges."""
    import math

    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch
    from ndap_data_validator_ray.stages.groupby import count_by_key

    M = 128
    ds = _read(sf_dir, "events", columns=["ts", "user_id"])

    def hll_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["ts", "user_id"])
        day = b["ts"].to_numpy().astype("datetime64[D]")
        b = pd.DataFrame({"day": day, "user_id": b["user_id"].to_numpy()}).drop_duplicates()
        h = md5_lower64_batch(b["user_id"].astype(str).to_numpy())
        bucket = (h % np.uint64(M)).astype(np.int64)
        w = h >> np.uint64(7)
        bl = np.zeros(len(w), dtype=np.int64)  # exact bit_length of the 57-bit w
        for s in (32, 16, 8, 4, 2, 1):
            big = w >= (np.uint64(1) << np.uint64(s))
            bl[big] += s
            w[big] >>= np.uint64(s)
        bl += (w > 0).astype(np.int64)
        df = pd.DataFrame({"day": b["day"].to_numpy(), "bucket": bucket, "rho": 58 - bl})
        return df.groupby(["day", "bucket"], as_index=False)["rho"].max()

    day_regs = (
        ds.map_batches(hll_partial, batch_format="pandas")
        .to_pandas()  # <= days*128 rows per block (calendar-bounded): driver fold
        .groupby(["day", "bucket"], as_index=False)["rho"]
        .max()
    )
    ed = day_regs["day"].to_numpy().astype("datetime64[D]").astype(np.int64)
    day_regs["week"] = (ed + 3) // 7  # Monday-truncated epoch week
    n_days = day_regs.groupby("week")["day"].nunique()
    # THE ROLLUP: week registers = register-wise max over the week's days
    week_regs = day_regs.groupby(["week", "bucket"], as_index=False)["rho"].max()
    alpha_num = 0.7213 / (1.0 + 1.079 / 128.0) * 16384.0 * 288230376151711744.0
    rows = []
    for m, g in week_regs.groupby("week"):
        s_int = (M - len(g)) * (1 << 58) + sum((1 << 58) >> int(r) for r in g["rho"])
        v0 = M - len(g)
        e_raw = alpha_num / float(s_int)
        est = 128.0 * math.log(128.0 / v0) if (e_raw <= 320.0 and v0 > 0) else e_raw
        rows.append((int(m), int(n_days.loc[m]), est))
    est_df = pd.DataFrame(rows, columns=["week", "n_days", "hll_est"])
    est_df["hll_est"] = _r6(est_df["hll_est"])

    def week_partial(t: "pa.Table") -> "pa.Table":
        t = t.drop_null()
        ed = t["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        return pa.table(
            {"week": pa.array((ed + 3) // 7, pa.int64()), "user_id": t["user_id"]}
        )

    pairs = count_by_key(
        ds.map_batches(week_partial, batch_format="pyarrow"), ["week", "user_id"], n_buckets=32
    )
    exact = (
        count_by_key(
            pairs.map_batches(
                lambda t: pa.table({"week": t["week"]}), batch_format="pyarrow"
            ),
            ["week"], n_buckets=8, count_col="n_users",
        )
        .to_pandas()
    )
    out = exact.merge(est_df, on="week")
    out["week"] = out["week"].astype(np.int64)
    out["n_users"] = out["n_users"].astype(np.int64)
    out["n_days"] = out["n_days"].astype(np.int64)
    return out[["week", "n_days", "n_users", "hll_est"]].sort_values("week").reset_index(drop=True)


_HLL_ROLLUP_SQL = """
WITH pairs AS (
  SELECT DISTINCT ((CAST(ts AS DATE) - DATE '1970-01-01') + 3) // 7 AS week, user_id
  FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
),
h AS (
  SELECT week,
         CAST(md5_number_lower(CAST(user_id AS VARCHAR)) % 128 AS BIGINT) AS bucket,
         md5_number_lower(CAST(user_id AS VARCHAR)) // 128 AS w
  FROM pairs
), r AS (
  SELECT week, bucket,
         MAX(58 - (CASE WHEN w = 0 THEN 0 ELSE length(bin(w)) END)) AS rho
  FROM h GROUP BY 1, 2
), agg AS (
  SELECT week, COUNT(*) AS touched,
         SUM(CAST(288230376151711744 AS HUGEINT) >> rho) AS s_touched
  FROM r GROUP BY 1
), fin AS (
  SELECT week,
         CAST(128 - touched AS BIGINT) AS v0,
         (0.7213::DOUBLE / (1.0 + 1.079::DOUBLE / 128.0) * 16384.0 * 288230376151711744.0)
           / CAST(CAST(128 - touched AS HUGEINT) * 288230376151711744::HUGEINT + s_touched AS DOUBLE) AS e_raw
  FROM agg
)
SELECT CAST(f.week AS BIGINT) AS week, nd.n_days, d.n_users,
       ROUND(CASE WHEN f.e_raw <= 320.0 AND f.v0 > 0
                  THEN 128.0 * ln(128.0 / f.v0) ELSE f.e_raw END, 6) AS hll_est
FROM fin f
JOIN (SELECT ((CAST(ts AS DATE) - DATE '1970-01-01') + 3) // 7 AS week,
             CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
      FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL GROUP BY 1) d USING (week)
JOIN (SELECT ((CAST(ts AS DATE) - DATE '1970-01-01') + 3) // 7 AS week,
             CAST(COUNT(DISTINCT CAST(ts AS DATE)) AS BIGINT) AS n_days
      FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL GROUP BY 1) nd USING (week)
ORDER BY week
"""


def sprt_urgent_share_orders(sf_dir: str) -> pd.DataFrame:
    """Wald SPRT (sequential probability ratio test) over the ordered
    order stream — the streaming-decision family: is the URGENT share
    above or below 20%?  The log-likelihood walk is INTEGER-scaled
    (+4 per urgent, -1 otherwise — zero drift exactly at p = 0.2, so
    the walk is a martingale under H0's boundary and the crossing is a
    genuine sequential decision, not a foregone conclusion), stopping at
    |score| >= 200.  Distributed shape: the walk is the range-partitioned
    exact-int64 running sum (`stages/sort.global_running_sum` — nothing
    driver-side), the first crossing is a distributed sort-limit over
    crossing rows only, and the stopping rank is one counting scan.
    Emits (decision, n_seen, boundary, score) — all exact ints/strings,
    no float anywhere."""
    from ndap_data_validator_ray.stages.sort import global_running_sum

    T = 200
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def inc(t: "pa.Table") -> "pa.Table":
        urgent = pc.equal(t["o_orderpriority"], "1-URGENT")
        x = pc.if_else(urgent, pa.scalar(4, pa.int64()), pa.scalar(-1, pa.int64()))
        return pa.table({"o_orderkey": t["o_orderkey"], "x": x})

    ds = orders.map_batches(inc, batch_format="pyarrow")
    run = global_running_sum(ds, ["o_orderkey"], "x", out="s").materialize()
    crossed = run.map_batches(
        lambda b: b[np.abs(b["s"].to_numpy(np.int64)) >= T][["o_orderkey", "s"]],
        batch_format="pandas",
    )
    first = crossed.sort("o_orderkey").limit(1).to_pandas()
    if len(first):
        key = int(first["o_orderkey"].iloc[0])
        score = int(first["s"].iloc[0])
        decision = "accept_h1" if score > 0 else "accept_h0"
        n_seen = int(
            run.map_batches(
                lambda b: pd.DataFrame(
                    {"n": [int((b["o_orderkey"].to_numpy(np.int64) <= key).sum())]}
                ),
                batch_format="pandas",
            )
            .to_pandas()["n"]
            .sum()
        )
    else:
        decision = "no_decision"
        n_seen = run.count()
        tail = run.map_batches(
            lambda b: pd.DataFrame(
                {
                    "k": [b["o_orderkey"].to_numpy(np.int64).max()],
                    "s": [b.loc[b["o_orderkey"].idxmax(), "s"]],
                }
            )
            if len(b)
            else pd.DataFrame({"k": pd.Series([], dtype=np.int64), "s": pd.Series([], dtype=np.int64)}),
            batch_format="pandas",
        ).to_pandas()
        score = int(tail.loc[tail["k"].idxmax(), "s"]) if len(tail) else 0
    return pd.DataFrame(
        {
            "decision": [decision],
            "n_seen": [np.int64(n_seen)],
            "boundary": [np.int64(T)],
            "score": [np.int64(score)],
        }
    )


_SPRT_SQL = """
WITH w AS (
  SELECT o_orderkey,
         CASE WHEN o_orderpriority = '1-URGENT' THEN 4 ELSE -1 END AS x
  FROM orders
),
r AS (
  SELECT o_orderkey,
         SUM(x) OVER (ORDER BY o_orderkey ROWS UNBOUNDED PRECEDING) AS s,
         ROW_NUMBER() OVER (ORDER BY o_orderkey) AS rn
  FROM w
),
c AS (SELECT s, rn FROM r WHERE ABS(s) >= 200 ORDER BY rn LIMIT 1)
SELECT CASE WHEN (SELECT COUNT(*) FROM c) = 0 THEN 'no_decision'
            WHEN (SELECT s FROM c) > 0 THEN 'accept_h1'
            ELSE 'accept_h0' END AS decision,
       CAST(COALESCE((SELECT rn FROM c), (SELECT COUNT(*) FROM r)) AS BIGINT) AS n_seen,
       CAST(200 AS BIGINT) AS boundary,
       CAST(COALESCE((SELECT s FROM c),
                     (SELECT s FROM r ORDER BY rn DESC LIMIT 1)) AS BIGINT) AS score
"""


def seed_part_distance_copurchase(sf_dir: str) -> pd.DataFrame:
    """Multi-source BFS hop distances (stages/bfs.py — fixed-round
    Bellman-Ford relaxation, one bucketed exchange per round, the cc.py
    fused-gather exchange layout) over the part co-purchase graph: every
    part is labeled with its distance to the nearest SEED part
    (p_partkey % 97 == 0) within 3 hops, else -1 — the seed-proximity
    primitive behind crawl curation (keep documents within k hops of
    trusted seeds).  Fixed rounds make the result deterministic, so the
    DuckDB twin unrolls 3 relaxation rounds as min-join CTEs (every CTE
    MATERIALIZED — the kcore-oracle lesson: d{i} is referenced twice per
    round and plain CTEs inline the chain exponentially).  Edge build:
    the kcore query's one-exchange per-order self-join.  Sources derive
    from the edge endpoints (not the part table), so both engines label
    the identical node set."""
    from ndap_data_validator_ray.stages.bfs import distributed_bfs_hops
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame(
            {
                "id_a": m["l_partkey_x"].to_numpy(np.int64),
                "id_b": m["l_partkey_y"].to_numpy(np.int64),
            }
        ).drop_duplicates()

    edges = bucketed_groupby(li, ["l_orderkey"], partial, pairs).materialize()

    def seed_nodes(b: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(
            np.concatenate([b["id_a"].to_numpy(np.int64), b["id_b"].to_numpy(np.int64)])
        )
        return pd.DataFrame({"node": u[u % 97 == 0]})

    sources = edges.map_batches(seed_nodes, batch_format="pandas")
    out = distributed_bfs_hops(edges, sources, rounds=3).to_pandas()
    out = out.rename(columns={"node": "l_partkey"})
    out["l_partkey"] = out["l_partkey"].astype(np.int64)
    out["hops"] = out["hops"].astype(np.int64)
    return out.sort_values("l_partkey").reset_index(drop=True)


def _bfs_seed_sql(rounds: int = 3) -> str:
    sent = 1 << 40
    parts = [
        "WITH li AS MATERIALIZED (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem\n"
        "  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL),\n"
        "p AS MATERIALIZED (SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS u,\n"
        "       GREATEST(a.l_partkey, b.l_partkey) AS v\n"
        "     FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),\n"
        "e AS MATERIALIZED (SELECT u, v FROM p UNION ALL SELECT v, u FROM p),\n"
        f"d0 AS MATERIALIZED (SELECT u AS node,\n"
        f"  CAST(CASE WHEN u % 97 = 0 THEN 0 ELSE {sent} END AS BIGINT) AS dist\n"
        "  FROM (SELECT DISTINCT u FROM e))"
    ]
    for i in range(rounds):
        parts.append(
            f"d{i + 1} AS MATERIALIZED (SELECT d.node, LEAST(d.dist, COALESCE(pr.pd, d.dist)) AS dist\n"
            f"  FROM d{i} d LEFT JOIN (SELECT e.v AS node, MIN(du.dist + 1) AS pd\n"
            f"    FROM e JOIN d{i} du ON du.node = e.u WHERE du.dist < {sent}\n"
            f"    GROUP BY e.v) pr ON pr.node = d.node)"
        )
    return (
        ",\n".join(parts)
        + f"\nSELECT node AS l_partkey, CAST(CASE WHEN dist >= {sent} THEN -1 ELSE dist END AS BIGINT) AS hops\n"
        f"FROM d{rounds} ORDER BY 1"
    )


_BFS_SEED_SQL = _bfs_seed_sql(3)


def embedding_covariance_grid(sf_dir: str) -> pd.DataFrame:
    """Exact covariance grid over the first 16 embedding dimensions — the
    distributed Gram-matrix fold behind PCA / whitening / feature
    decorrelation at corpus scale.  Per block: quantize to integers with
    the repo's cross-engine rounding (``floor(x * 1e4 + 0.5)`` — never
    banker's rounding) and emit the EXACT int64 moment partial
    ``(n, col sums, upper-triangular X^T X)`` as 136 rows — order-free,
    mergeable, O(d^2) per block regardless of row count, so the driver
    fold sees 136 x blocks rows at any scale (the profile_lineitem
    pattern at Gram width).  int64 headroom: |q| <= ~1e5, q_i*q_j <= 1e10,
    ~1e9 rows before a cell sum nears 2^63 — beyond that the fold's dtype
    widens to Python ints, nothing else changes.  Covariance finalizes as
    ONE shared float expression from exact integers (bit-identical in
    DuckDB, which recomputes the same quantized sums via list indexing)."""
    dims = 16
    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    iu, ju = np.triu_indices(dims)

    def partial(bt: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(bt["embedding"].to_numpy()).astype(np.float64)[:, :dims]
        q = np.floor(m * 10000.0 + 0.5).astype(np.int64)
        gram = q.T @ q
        s = q.sum(axis=0)
        return pd.DataFrame(
            {
                "dim_i": iu.astype(np.int64),
                "dim_j": ju.astype(np.int64),
                "n": np.full(len(iu), q.shape[0], dtype=np.int64),
                "sum_qi": s[iu],
                "sum_qj": s[ju],
                "sum_qij": gram[iu, ju],
            }
        )

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    f = p.groupby(["dim_i", "dim_j"], as_index=False).sum()
    n = f["n"].to_numpy(np.float64)
    sx = f["sum_qi"].to_numpy(np.float64)
    sy = f["sum_qj"].to_numpy(np.float64)
    sxy = f["sum_qij"].to_numpy(np.float64)
    f["cov"] = _r9((sxy - sx * sy / n) / n / 100000000.0)
    for c in ["dim_i", "dim_j", "n", "sum_qi", "sum_qj", "sum_qij"]:
        f[c] = f[c].astype(np.int64)
    return f.sort_values(["dim_i", "dim_j"]).reset_index(drop=True)


_EMB_COV_SQL = """
WITH q AS MATERIALIZED (
  SELECT vec_id, i - 1 AS dim,
    CAST(FLOOR(CAST(embedding[i] AS DOUBLE) * 10000 + 0.5) AS BIGINT) AS qv
  FROM embeddings, range(1, 17) t(i))
SELECT a.dim AS dim_i, b.dim AS dim_j, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(a.qv) AS BIGINT) AS sum_qi, CAST(SUM(b.qv) AS BIGINT) AS sum_qj,
  CAST(SUM(a.qv * b.qv) AS BIGINT) AS sum_qij,
  ROUND((CAST(SUM(a.qv * b.qv) AS DOUBLE)
         - CAST(SUM(a.qv) AS DOUBLE) * CAST(SUM(b.qv) AS DOUBLE) / COUNT(*))
        / COUNT(*) / 100000000.0, 9) AS cov
FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.dim <= b.dim
GROUP BY 1, 2 ORDER BY 1, 2
"""


def _blocked_part_pairs(ds: "ray.data.Dataset", threshold: float = 0.88) -> "ray.data.Dataset":
    """Shared blocked-linkage pair stage: (p_brand, first name token)
    blocking key, in-block all-pairs Jaro-Winkler gate.  ONE bucketed
    exchange; quadratic work only WITHIN a block."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        return b.assign(blk=b["p_name"].str.split(" ").str[0])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        from ndap_data_validator_ray.functions.strdist import jaro_winkler_batch

        m = g.merge(g, on=["p_brand", "blk"])
        m = m[m["p_partkey_x"] < m["p_partkey_y"]]
        if not len(m):
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=np.int64),
                    "id_b": pd.Series([], dtype=np.int64),
                    "jw": pd.Series([], dtype=np.float64),
                }
            )
        jw = jaro_winkler_batch(m["p_name_x"].tolist(), m["p_name_y"].tolist())
        keep = jw >= threshold
        return pd.DataFrame(
            {
                "id_a": m["p_partkey_x"].to_numpy(np.int64)[keep],
                "id_b": m["p_partkey_y"].to_numpy(np.int64)[keep],
                "jw": _r9(jw[keep]),
            }
        )

    return bucketed_groupby(ds, ["p_brand", "blk"], partial, pairs)


def blocked_linkage_parts(sf_dir: str) -> pd.DataFrame:
    """Blocked record linkage over part names — the entity-resolution
    shape (blocking key -> in-block all-pairs -> string-similarity gate)
    that jaro_winkler_adjacent_parts' sorted-neighborhood pass
    approximates: block on (p_brand, first name token), compare every
    in-block pair with the Jaro-Winkler kernel (functions/strdist —
    bit-identical to DuckDB's builtin, fuzz-gated), keep pairs >= 0.88.
    ONE bucketed exchange on the composite block key; in-block pairs are
    a vectorized self-merge (quadratic only WITHIN a block — that's the
    point of blocking; block sizes are bounded by brand x adjective
    cardinality, never corpus size)."""
    ds = _read(sf_dir, "part", columns=["p_partkey", "p_name", "p_brand"])
    out = _blocked_part_pairs(ds, threshold=0.88).to_pandas()
    out["id_a"] = out["id_a"].astype(np.int64)
    out["id_b"] = out["id_b"].astype(np.int64)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


_BLOCKED_LINKAGE_SQL = """
WITH b AS (
  SELECT p_partkey, p_name, p_brand, split_part(p_name, ' ', 1) AS blk
  FROM part
  WHERE p_partkey IS NOT NULL AND p_name IS NOT NULL AND p_brand IS NOT NULL
)
SELECT a.p_partkey AS id_a, c.p_partkey AS id_b,
       ROUND(jaro_winkler_similarity(a.p_name, c.p_name), 9) AS jw
FROM b a JOIN b c
  ON a.p_brand = c.p_brand AND a.blk = c.blk AND a.p_partkey < c.p_partkey
WHERE jaro_winkler_similarity(a.p_name, c.p_name) >= 0.88
ORDER BY 1, 2
"""


def markov_conditional_entropy_events(sf_dir: str) -> pd.DataFrame:
    """Per-state conditional entropy of the event-type Markov chain —
    the predictability read on event_transitions' matrix: for each
    current type, H(next | cur) in bits over the empirical next-type
    distribution.  Same distributed shape as event_transitions (ONE
    bucketed exchange on user_id, vectorized shift kernel, low-cardinality
    driver fold of the type x type counts); the entropy finalizes from
    exact integer counts with <= n_types float terms per row (round 9 —
    the event_type_entropy convention)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def transitions(part: pd.DataFrame) -> pd.DataFrame:
        p = part.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = p["user_id"].to_numpy()
        et = p["event_type"].to_numpy()
        if len(p) < 2:
            return pd.DataFrame(
                {
                    "from_type": pd.Series([], dtype=object),
                    "to_type": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        same = uid[1:] == uid[:-1]
        return (
            pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
            .groupby(["from_type", "to_type"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    parts = bucketed_groupby(ds, ["user_id"], lambda b: b, transitions, n_buckets=32).to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {
                "from_type": pd.Series([], dtype=object),
                "n_out": pd.Series([], dtype=np.int64),
                "n_next_types": pd.Series([], dtype=np.int64),
                "h_cond_bits": pd.Series([], dtype=np.float64),
            }
        )
    c = parts.groupby(["from_type", "to_type"], as_index=False)["n"].sum()
    rows = []
    for ft, g in c.groupby("from_type"):
        nvec = g["n"].to_numpy(np.float64)
        tot = nvec.sum()
        pvec = nvec / tot
        rows.append((ft, int(tot), len(g), float(-np.sum(pvec * np.log2(pvec)))))
    out = pd.DataFrame(rows, columns=["from_type", "n_out", "n_next_types", "h_cond_bits"])
    out["n_out"] = out["n_out"].astype(np.int64)
    out["n_next_types"] = out["n_next_types"].astype(np.int64)
    out["h_cond_bits"] = _r9(out["h_cond_bits"])
    return out.sort_values("from_type").reset_index(drop=True)


_MARKOV_ENTROPY_SQL = """
WITH seq AS (
  SELECT event_type AS ft,
         LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS tt
  FROM events
), tr AS (SELECT ft, tt FROM seq WHERE tt IS NOT NULL),
c AS (SELECT ft, tt, COUNT(*) AS n FROM tr GROUP BY 1, 2),
c2 AS (SELECT ft, tt, n, SUM(n) OVER (PARTITION BY ft) AS tot FROM c)
SELECT ft AS from_type, CAST(MAX(tot) AS BIGINT) AS n_out,
       CAST(COUNT(*) AS BIGINT) AS n_next_types,
       ROUND(-SUM((CAST(n AS DOUBLE) / CAST(tot AS DOUBLE))
                  * log2(CAST(n AS DOUBLE) / CAST(tot AS DOUBLE))), 9) AS h_cond_bits
FROM c2 GROUP BY ft ORDER BY from_type
"""


def seasonal_naive_wmape_revenue(sf_dir: str) -> pd.DataFrame:
    """Seasonal-naive forecast audit on daily revenue: predict day d with
    day d-7 (calendar lag — missing days drop out, never positional LAG)
    and score with WMAPE = sum|actual - pred| / sum(actual).  Chosen over
    plain MAPE because both sums are EXACT integer cents (per-row
    ``floor(price * 100 + 0.5)``, the cross-engine quantization), so the
    only float op is one final division — bit-identical in DuckDB, no
    accumulation-order exposure at all (unlike the per-day float ratios
    MAPE would sum).  Distributed shape: per-block (day, cents) partials
    fold on the driver (<= ~2.4k days at any SF — the low-cardinality
    rule) and the lag-join runs on that bounded series."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        day = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        g = pd.DataFrame({"day": day, "rev": cents}).groupby("day", as_index=False)["rev"].sum()
        return g

    p = orders.map_batches(partial, batch_format="pandas").to_pandas()
    d = p.groupby("day", as_index=False)["rev"].sum()
    prev = d.rename(columns={"day": "pday", "rev": "pred"})
    prev["day"] = prev["pday"] + 7
    j = d.merge(prev[["day", "pred"]], on="day", how="inner")
    sae = int(np.abs(j["rev"].to_numpy(np.int64) - j["pred"].to_numpy(np.int64)).sum())
    sa = int(j["rev"].to_numpy(np.int64).sum())
    return pd.DataFrame(
        {
            "n_days": [np.int64(len(j))],
            "sum_abs_err_cents": [np.int64(sae)],
            "sum_actual_cents": [np.int64(sa)],
            "wmape": [np.float64(np.round(float(sae) / float(sa), 9)) if sa else np.float64(0.0)],
        }
    )


_SEASONAL_NAIVE_SQL = """
WITH d AS (
  SELECT CAST(o_orderdate AS DATE) AS day,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS rev
  FROM orders
  WHERE o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
j AS (
  SELECT a.day, a.rev AS actual, b.rev AS pred
  FROM d a JOIN d b ON b.day = a.day - INTERVAL 7 DAY
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_days,
       CAST(SUM(ABS(actual - pred)) AS BIGINT) AS sum_abs_err_cents,
       CAST(SUM(actual) AS BIGINT) AS sum_actual_cents,
       ROUND(CAST(SUM(ABS(actual - pred)) AS DOUBLE) / CAST(SUM(actual) AS DOUBLE), 9) AS wmape
FROM j
"""


def fano_factor_daily_events(sf_dir: str) -> pd.DataFrame:
    """Burstiness (Fano factor = population variance / mean of daily
    counts) per event type — the overdispersion read next to the
    key-skew Gini: Poisson arrivals give ~1, bursty types exceed it.
    Distributed shape: per-block (type, day) count partials fold on the
    driver (type x day is bounded — the low-cardinality rule); moments
    are EXACT integers and the Fano finalizes as ONE shared float
    expression (the exact-moment convention — no accumulation order)."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        day = b["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        g = (
            pd.DataFrame({"event_type": b["event_type"].to_numpy(), "day": day})
            .groupby(["event_type", "day"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return g

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    d = p.groupby(["event_type", "day"], as_index=False)["n"].sum()
    rows = []
    for et, g in d.groupby("event_type"):
        c = g["n"].to_numpy(np.int64)
        nd = len(c)
        sc = int(c.sum())
        sc2 = int((c * c).sum())
        mean = float(sc) / nd
        var = (float(sc2) - float(sc) * float(sc) / nd) / nd
        rows.append((et, nd, sc, sc2, var / mean))
    out = pd.DataFrame(
        rows, columns=["event_type", "n_days", "sum_count", "sum_count2", "fano"]
    )
    for c in ["n_days", "sum_count", "sum_count2"]:
        out[c] = out[c].astype(np.int64)
    out["fano"] = _r9(out["fano"])
    return out.sort_values("event_type").reset_index(drop=True)


_FANO_SQL = """
WITH d AS (
  SELECT event_type, CAST(ts AS DATE) AS day, CAST(COUNT(*) AS BIGINT) AS n
  FROM events
  WHERE ts IS NOT NULL AND event_type IS NOT NULL
  GROUP BY 1, 2
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_days,
       CAST(SUM(n) AS BIGINT) AS sum_count,
       CAST(SUM(n * n) AS BIGINT) AS sum_count2,
       ROUND(((CAST(SUM(n * n) AS DOUBLE) - CAST(SUM(n) AS DOUBLE) * CAST(SUM(n) AS DOUBLE) / COUNT(*)) / COUNT(*))
             / (CAST(SUM(n) AS DOUBLE) / COUNT(*)), 9) AS fano
FROM d GROUP BY event_type ORDER BY event_type
"""


def linkage_entity_clusters_parts(sf_dir: str) -> pd.DataFrame:
    """End-to-end entity resolution: blocked Jaro-Winkler linkage pairs
    (shared `_blocked_part_pairs` stage, every 3rd part) -> connected
    components (stages/cc.py) -> min-id cluster representative, with
    singletons labeled self via ``nodes=`` — the block/match/cluster
    composition a dedup-by-name pipeline runs at catalog scale.  CC takes
    its guarded path (driver union-find under the cap, distributed rounds
    above — the distributed rounds are value-pinned by
    order_chain_components / near_dup_clusters_exact).  DuckDB recomputes
    the clusters with a recursive reachability CTE over the identical
    pair set."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components

    part = _read(sf_dir, "part", columns=["p_partkey", "p_name", "p_brand"])
    sub = part.map_batches(
        lambda t: t.filter(pa.array(t["p_partkey"].to_numpy() % 3 == 0)), batch_format="pyarrow"
    )
    pairs = _blocked_part_pairs(sub, threshold=0.88).materialize()
    nodes = sub.map_batches(lambda t: pa.table({"node": t["p_partkey"]}), batch_format="pyarrow")
    comp = distributed_connected_components(pairs, nodes=nodes).to_pandas()
    comp = comp.rename(columns={"node": "p_partkey", "component": "cluster_rep"})
    comp["p_partkey"] = comp["p_partkey"].astype(np.int64)
    comp["cluster_rep"] = comp["cluster_rep"].astype(np.int64)
    return comp.sort_values("p_partkey").reset_index(drop=True)


_LINKAGE_CLUSTERS_SQL = """
WITH RECURSIVE b AS (
  SELECT p_partkey, p_name, p_brand, split_part(p_name, ' ', 1) AS blk
  FROM part
  WHERE p_partkey % 3 = 0 AND p_partkey IS NOT NULL
    AND p_name IS NOT NULL AND p_brand IS NOT NULL
), pr AS MATERIALIZED (
  SELECT a.p_partkey AS id_a, c.p_partkey AS id_b
  FROM b a JOIN b c
    ON a.p_brand = c.p_brand AND a.blk = c.blk AND a.p_partkey < c.p_partkey
  WHERE jaro_winkler_similarity(a.p_name, c.p_name) >= 0.88
), ed AS (
  SELECT id_a AS u, id_b AS v FROM pr UNION ALL SELECT id_b, id_a FROM pr
), reach AS (
  SELECT u AS node, v AS r FROM ed
  UNION
  SELECT reach.node, e.v FROM reach JOIN ed e ON e.u = reach.r
), comp AS (
  SELECT node, LEAST(node, MIN(r)) AS rep FROM reach GROUP BY node
)
SELECT b.p_partkey, COALESCE(c.rep, b.p_partkey) AS cluster_rep
FROM b LEFT JOIN comp c ON c.node = b.p_partkey
ORDER BY 1
"""


def fd_audit_tables(sf_dir: str) -> pd.DataFrame:
    """Functional-dependency audit — the schema-discovery / data-quality
    profiling op (does LHS determine RHS?) over three candidate FDs:
    lineitem l_partkey -> l_suppkey, orders o_custkey -> o_orderpriority,
    events user_id -> event_type.  Per FD: per-batch distinct (lhs, rhs)
    pairs -> ONE bucketed exchange on lhs (each lhs lands whole in one
    reducer, so per-reducer nunique partials sum exactly — the
    distinct_counts_lineitem contract) -> per-bucket (n_lhs, n_violating,
    max fan-out) partials -> driver fold of <= n_buckets rows.  The LHS
    key space never assembles anywhere."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    specs = [
        ("events_user_to_type", "events", "user_id", "event_type"),
        ("lineitem_part_to_supp", "lineitem", "l_partkey", "l_suppkey"),
        ("orders_cust_to_priority", "orders", "o_custkey", "o_orderpriority"),
    ]
    rows = []
    for fd, table, lhs, rhs in specs:
        ds = _read(sf_dir, table, columns=[lhs, rhs])

        def partial(b: pd.DataFrame, lhs=lhs, rhs=rhs) -> pd.DataFrame:
            return b.dropna().drop_duplicates()

        def merge(g: pd.DataFrame, lhs=lhs, rhs=rhs) -> pd.DataFrame:
            k = g.drop_duplicates().groupby(lhs)[rhs].nunique()
            return pd.DataFrame(
                {
                    "n_lhs": [np.int64(len(k))],
                    "n_violating_lhs": [np.int64(int((k > 1).sum()))],
                    "max_rhs_per_lhs": [np.int64(int(k.max())) if len(k) else np.int64(0)],
                }
            )

        p = bucketed_groupby(ds, [lhs], partial, merge).to_pandas()
        rows.append(
            (
                fd,
                int(p["n_lhs"].sum()),
                int(p["n_violating_lhs"].sum()),
                int(p["max_rhs_per_lhs"].max()) if len(p) else 0,
            )
        )
    out = pd.DataFrame(rows, columns=["fd", "n_lhs", "n_violating_lhs", "max_rhs_per_lhs"])
    for c in ["n_lhs", "n_violating_lhs", "max_rhs_per_lhs"]:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("fd").reset_index(drop=True)


_FD_AUDIT_SQL = """
WITH f1 AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_lhs,
         CAST(SUM(CASE WHEN k > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_violating_lhs,
         CAST(MAX(k) AS BIGINT) AS max_rhs_per_lhs
  FROM (SELECT user_id, COUNT(DISTINCT event_type) AS k FROM events
        WHERE user_id IS NOT NULL AND event_type IS NOT NULL GROUP BY 1)
), f2 AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_lhs,
         CAST(SUM(CASE WHEN k > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_violating_lhs,
         CAST(MAX(k) AS BIGINT) AS max_rhs_per_lhs
  FROM (SELECT l_partkey, COUNT(DISTINCT l_suppkey) AS k FROM lineitem
        WHERE l_partkey IS NOT NULL AND l_suppkey IS NOT NULL GROUP BY 1)
), f3 AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_lhs,
         CAST(SUM(CASE WHEN k > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_violating_lhs,
         CAST(MAX(k) AS BIGINT) AS max_rhs_per_lhs
  FROM (SELECT o_custkey, COUNT(DISTINCT o_orderpriority) AS k FROM orders
        WHERE o_custkey IS NOT NULL AND o_orderpriority IS NOT NULL GROUP BY 1)
)
SELECT 'events_user_to_type' AS fd, * FROM f1
UNION ALL SELECT 'lineitem_part_to_supp', * FROM f2
UNION ALL SELECT 'orders_cust_to_priority', * FROM f3
ORDER BY fd
"""


def temporal_consistency_audit(sf_dir: str) -> pd.DataFrame:
    """Cross-table temporal-order audit (the referential family's time
    axis): line items shipped BEFORE their order was placed.  The orders
    (key, date) side goes through the guarded broadcast-vs-shuffle attach
    (`stages/broadcast.attach_or_join` — the Q10 pattern: ray.put once
    under the cap, bucketed join above); violation stats fold from
    per-batch EXACT integer partials (counts + day-margin sum/max on
    epoch-day arithmetic), one row per block to the driver."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: b.dropna().rename(columns={"o_orderkey": "l_orderkey"}), batch_format="pandas"
    )
    joined = attach_or_join(
        li.map_batches(lambda b: b.dropna(), batch_format="pandas"),
        orders,
        on_fact="l_orderkey",
        on_side="l_orderkey",
        attach_cols=["o_orderdate"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ship = b["l_shipdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        ordd = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        early = ordd - ship
        viol = early > 0
        return pd.DataFrame(
            {
                "n_joined": [np.int64(len(b))],
                "n_violations": [np.int64(int(viol.sum()))],
                "sum_days_early": [np.int64(int(early[viol].sum()))],
                "max_days_early": [np.int64(int(early[viol].max())) if viol.any() else np.int64(0)],
            }
        )

    p = joined.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(p["n_joined"].sum())
    nv = int(p["n_violations"].sum())
    return pd.DataFrame(
        {
            "n_joined": [np.int64(n)],
            "n_violations": [np.int64(nv)],
            "sum_days_early": [np.int64(int(p["sum_days_early"].sum()))],
            "max_days_early": [np.int64(int(p["max_days_early"].max())) if len(p) else np.int64(0)],
            "violation_rate": [np.float64(np.round(float(nv) / float(n), 9)) if n else np.float64(0.0)],
        }
    )


_TEMPORAL_AUDIT_SQL = """
WITH j AS (
  SELECT datediff('day', l.l_shipdate, o.o_orderdate) AS early
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE l.l_shipdate IS NOT NULL AND o.o_orderdate IS NOT NULL
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_joined,
       CAST(SUM(CASE WHEN early > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_violations,
       CAST(COALESCE(SUM(CASE WHEN early > 0 THEN early END), 0) AS BIGINT) AS sum_days_early,
       CAST(COALESCE(MAX(CASE WHEN early > 0 THEN early END), 0) AS BIGINT) AS max_days_early,
       ROUND(CAST(SUM(CASE WHEN early > 0 THEN 1 ELSE 0 END) AS DOUBLE) / COUNT(*), 9) AS violation_rate
FROM j
"""


def label_propagation_parts(sf_dir: str) -> pd.DataFrame:
    """Semi-supervised label propagation over the part co-purchase graph
    — the seed-expansion labeler behind weak supervision at corpus scale:
    every 5th part keeps its brand as a clamped seed label; for two
    synchronized rounds, each unlabeled node adopts the majority label of
    its labeled neighbors, weighted by co-purchase multiplicity, ties
    broken by (count DESC, label ASC) — fully deterministic, so the
    DuckDB twin unrolls both rounds (gather-count CTE + ROW_NUMBER argmax
    + clamped union, all MATERIALIZED).  Distributed shape: per round TWO
    bucketed exchanges — a gather keyed on the edge tail (edge rows +
    label rows share the cc.py homogeneous int64 layout) emitting one
    proposal per labeled-tail edge, then a vote keyed on the head where
    label rows clamp and proposal rows count+argmax; labels settle
    (materialize) between rounds.  Seed brands attach via the guarded
    broadcast (`attach_or_join`)."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import (
        bucketed_groupby,
        default_n_buckets,
        exchange,
        hash_partitioner,
    )

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def lpartial(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def lpairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame(
            {
                "id_a": m["l_partkey_x"].to_numpy(np.int64),
                "id_b": m["l_partkey_y"].to_numpy(np.int64),
            }
        )

    edges = bucketed_groupby(li, ["l_orderkey"], lpartial, lpairs)
    sym = edges.map_batches(
        lambda b: pd.DataFrame(
            {
                "u": np.concatenate([b["id_a"].to_numpy(np.int64), b["id_b"].to_numpy(np.int64)]),
                "v": np.concatenate([b["id_b"].to_numpy(np.int64), b["id_a"].to_numpy(np.int64)]),
            }
        ),
        batch_format="pandas",
    ).materialize()
    nb = int(min(default_n_buckets(), max(8, sym.count() // 100_000 + 8)))

    seed_nodes = sym.map_batches(
        lambda b: pd.DataFrame({"node": np.unique(b["u"].to_numpy(np.int64))}),
        batch_format="pandas",
    ).map_batches(
        lambda b: b[b["node"] % 5 == 0], batch_format="pandas"
    )
    brands = _read(sf_dir, "part", columns=["p_partkey", "p_brand"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "p_partkey": b["p_partkey"].to_numpy(np.int64),
                "lbl": b["p_brand"].str.split("#").str[1].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    labels = (
        attach_or_join(seed_nodes, brands, on_fact="node", on_side="p_partkey", attach_cols=["lbl"])
        .map_batches(
            # volume-only dedup: a node can appear in several sym blocks;
            # CORRECTNESS does not rely on this — every reducer that
            # consumes label rows dedups per node inside its bucket (a
            # node's rows always share one bucket)
            lambda b: b[["node", "lbl"]].drop_duplicates("node"),
            batch_format="pandas",
        )
        .materialize()
    )

    def edge_leg(b: pd.DataFrame) -> pd.DataFrame:
        k = b["u"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "k": k,
                "val": b["v"].to_numpy(np.int64),
                "lbl": np.full(len(k), -1, dtype=np.int64),
                "side": np.zeros(len(k), dtype=np.int64),
            }
        )

    def label_leg(b: pd.DataFrame) -> pd.DataFrame:
        k = b["node"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "k": k,
                "val": np.full(len(k), -1, dtype=np.int64),
                "lbl": b["lbl"].to_numpy(np.int64),
                "side": np.ones(len(k), dtype=np.int64),
            }
        )

    def gather(g: pd.DataFrame, _pid: int) -> pd.DataFrame:
        lut = g.loc[g["side"] == 1].drop_duplicates("k").set_index("k")["lbl"]
        ef = g[g["side"] == 0]
        lb = ef["k"].map(lut)
        keep = lb.notna().to_numpy()
        return pd.DataFrame(
            {
                "node": ef["val"].to_numpy()[keep],
                "lbl": lb[keep].astype(np.int64).to_numpy(),
                "side": np.zeros(int(keep.sum()), dtype=np.int64),
            }
        )

    def vote(g: pd.DataFrame, _pid: int) -> pd.DataFrame:
        cur = g.loc[g["side"] == 1, ["node", "lbl"]].drop_duplicates("node")
        props = g[g["side"] == 0]
        props = props[~props["node"].isin(cur["node"])]
        if len(props):
            c = props.groupby(["node", "lbl"], as_index=False).size()
            c = c.sort_values(["node", "size", "lbl"], ascending=[True, False, True])
            win = c.drop_duplicates("node")[["node", "lbl"]]
            return pd.concat([cur, win], ignore_index=True)
        return cur.reset_index(drop=True)

    for _round in range(2):
        proposals = exchange(
            [
                sym.map_batches(edge_leg, batch_format="pandas"),
                labels.map_batches(label_leg, batch_format="pandas"),
            ],
            hash_partitioner(["k"], nb),
            gather,
        )
        current = labels.map_batches(
            lambda b: b.assign(side=np.ones(len(b), dtype=np.int64)), batch_format="pandas"
        )
        labels = (
            exchange([proposals, current], hash_partitioner(["node"], nb), vote)
            .repartition(min(nb, 32))
            .materialize()
        )

    out = labels.to_pandas().rename(columns={"node": "l_partkey", "lbl": "brand_id"})
    out["l_partkey"] = out["l_partkey"].astype(np.int64)
    out["brand_id"] = out["brand_id"].astype(np.int64)
    out["seeded"] = (out["l_partkey"] % 5 == 0).astype(np.int64)
    return out.sort_values("l_partkey").reset_index(drop=True)


_LABEL_PROP_SQL = """
WITH li AS MATERIALIZED (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL),
p2 AS MATERIALIZED (SELECT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
e AS MATERIALIZED (SELECT u, v FROM p2 UNION ALL SELECT v, u FROM p2),
nodes AS MATERIALIZED (SELECT DISTINCT u AS node FROM e),
l0 AS MATERIALIZED (
  SELECT n.node, CAST(split_part(p.p_brand, '#', 2) AS BIGINT) AS lbl
  FROM nodes n JOIN part p ON p.p_partkey = n.node
  WHERE n.node % 5 = 0),
g1 AS MATERIALIZED (SELECT e.v AS node, l.lbl, COUNT(*) AS c
  FROM e JOIN l0 l ON l.node = e.u GROUP BY 1, 2),
a1 AS MATERIALIZED (SELECT node, lbl FROM (
  SELECT node, lbl, ROW_NUMBER() OVER (PARTITION BY node ORDER BY c DESC, lbl) AS rn
  FROM g1) WHERE rn = 1),
l1 AS MATERIALIZED (SELECT * FROM l0 UNION ALL
  SELECT a.node, a.lbl FROM a1 a WHERE NOT EXISTS (SELECT 1 FROM l0 WHERE l0.node = a.node)),
g2 AS MATERIALIZED (SELECT e.v AS node, l.lbl, COUNT(*) AS c
  FROM e JOIN l1 l ON l.node = e.u GROUP BY 1, 2),
a2 AS MATERIALIZED (SELECT node, lbl FROM (
  SELECT node, lbl, ROW_NUMBER() OVER (PARTITION BY node ORDER BY c DESC, lbl) AS rn
  FROM g2) WHERE rn = 1),
l2 AS MATERIALIZED (SELECT * FROM l1 UNION ALL
  SELECT a.node, a.lbl FROM a2 a WHERE NOT EXISTS (SELECT 1 FROM l1 WHERE l1.node = a.node))
SELECT node AS l_partkey, lbl AS brand_id,
       CAST(CASE WHEN node % 5 = 0 THEN 1 ELSE 0 END AS BIGINT) AS seeded
FROM l2 ORDER BY 1
"""


def gram_power_iteration_embeddings(sf_dir: str) -> pd.DataFrame:
    """Dominant-direction estimate of the (uncentered) second-moment /
    Gram matrix of the first 16 embedding dimensions via TWO unnormalized
    integer power-iteration steps — the integer-HITS trick applied to
    PCA: quantized int64 Gram cells fold from the same exact block
    partials as embedding_covariance_grid, then v1 = A·1 and v2 = A·v1
    evaluate in EXACT Python-int arithmetic on the driver (A is 16 x 16 —
    driver-side by design; the distributed work is the Gram fold).  v2
    entries reach ~1e26 so they ship as the ratio rel_v2 = v2 / max|v2|
    (one HUGEINT->DOUBLE cast + one division, bit-identical cross-engine)
    plus the exact BIGINT v1.  DuckDB reproduces both matvecs with
    HUGEINT join+sum CTEs over the identical quantized cells.  Two steps
    are what HUGEINT headroom allows (v3 would pass 1.7e38); a numpy test
    pins that each step monotonically improves top-eigenvector alignment
    (the fixture's Gram is near-isotropic, so 2-step convergence is not
    claimed — the op is DEFINED as the 2-step estimate)."""
    dims = 16
    ds = _read(sf_dir, "embeddings", columns=["embedding"])

    def partial(bt: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(bt["embedding"].to_numpy()).astype(np.float64)[:, :dims]
        q = np.floor(m * 10000.0 + 0.5).astype(np.int64)
        gram = q.T @ q
        ii, jj = np.meshgrid(np.arange(dims), np.arange(dims), indexing="ij")
        return pd.DataFrame(
            {"i": ii.ravel().astype(np.int64), "j": jj.ravel().astype(np.int64), "s": gram.ravel()}
        )

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    f = p.groupby(["i", "j"], as_index=False)["s"].sum()
    a = [[0] * dims for _ in range(dims)]
    for r in f.itertuples():
        a[int(r.i)][int(r.j)] = int(r.s)
    v1 = [sum(a[i][j] for j in range(dims)) for i in range(dims)]
    v2 = [sum(a[i][j] * v1[j] for j in range(dims)) for i in range(dims)]
    vmax = max(abs(x) for x in v2)
    return pd.DataFrame(
        {
            "dim": np.arange(dims, dtype=np.int64),
            "v1": np.array(v1, dtype=np.int64),
            "rel_v2": _r9([float(x) / float(vmax) for x in v2]),
        }
    )


_GRAM_POWER_SQL = """
WITH q AS MATERIALIZED (
  SELECT vec_id, i - 1 AS dim,
    CAST(FLOOR(CAST(embedding[i] AS DOUBLE) * 10000 + 0.5) AS BIGINT) AS qv
  FROM embeddings, range(1, 17) t(i)),
g AS MATERIALIZED (
  SELECT a.dim AS i, b.dim AS j, SUM(CAST(a.qv AS HUGEINT) * b.qv) AS s
  FROM q a JOIN q b ON a.vec_id = b.vec_id GROUP BY 1, 2),
v1 AS MATERIALIZED (SELECT i, SUM(s) AS v FROM g GROUP BY i),
v2 AS MATERIALIZED (
  SELECT g.i, SUM(g.s * v1.v) AS v FROM g JOIN v1 ON v1.i = g.j GROUP BY g.i),
vm AS (SELECT MAX(ABS(v)) AS m FROM v2)
SELECT v2.i AS dim, CAST(v1.v AS BIGINT) AS v1,
       ROUND(CAST(v2.v AS DOUBLE) / CAST(vm.m AS DOUBLE), 9) AS rel_v2
FROM v2 JOIN v1 ON v1.i = v2.i, vm ORDER BY dim
"""


def weighted_median_price_by_flag(sf_dir: str) -> pd.DataFrame:
    """Exact quantity-weighted lower median of l_extendedprice per return
    flag — the weighted order statistic behind sampling-weight
    calibration, computed with the trimmed-mean histogram trick: ONE
    bucketed exchange builds the (flag, integer-cents) weight histogram
    (bounded by the price DOMAIN, never row count); the driver folds the
    histogram, cumulative-sums exact integer weights in cents order, and
    picks the smallest cents with 2·cumw >= totw — pure integers, no
    interpolation, reproduced verbatim by the SQL window twin."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice", "l_quantity"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        return pd.DataFrame(
            {
                "flag": b["l_returnflag"].to_numpy(),
                "cents": np.floor(b["l_extendedprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(
                    np.int64
                ),
                "w": np.floor(b["l_quantity"].to_numpy(np.float64) + 0.5).astype(np.int64),
            }
        ).groupby(["flag", "cents"], as_index=False)["w"].sum()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["flag", "cents"], as_index=False)["w"].sum()

    h = bucketed_groupby(ds, ["flag", "cents"], partial, merge).to_pandas()
    rows = []
    for flag, g in h.groupby("flag"):
        g = g.sort_values("cents")
        w = g["w"].to_numpy(np.int64)
        tot = int(w.sum())
        cum = np.cumsum(w)
        med = int(g["cents"].to_numpy(np.int64)[np.searchsorted(2 * cum, tot)])
        rows.append((flag, med, tot))
    out = pd.DataFrame(rows, columns=["l_returnflag", "weighted_median_cents", "total_weight"])
    out["weighted_median_cents"] = out["weighted_median_cents"].astype(np.int64)
    out["total_weight"] = out["total_weight"].astype(np.int64)
    return out.sort_values("l_returnflag").reset_index(drop=True)


_WEIGHTED_MEDIAN_SQL = """
WITH h AS (
  SELECT l_returnflag AS flag,
         CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents,
         SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS w
  FROM lineitem
  WHERE l_returnflag IS NOT NULL AND l_extendedprice IS NOT NULL AND l_quantity IS NOT NULL
  GROUP BY 1, 2
),
c AS (
  SELECT flag, cents, w,
         SUM(w) OVER (PARTITION BY flag ORDER BY cents) AS cw,
         SUM(w) OVER (PARTITION BY flag) AS tw
  FROM h
)
SELECT flag AS l_returnflag,
       CAST(MIN(CASE WHEN 2 * cw >= tw THEN cents END) AS BIGINT) AS weighted_median_cents,
       CAST(MAX(tw) AS BIGINT) AS total_weight
FROM c GROUP BY flag ORDER BY 1
"""


def bootstrap_ci_revenue(sf_dir: str) -> pd.DataFrame:
    """Multiplier-bootstrap confidence interval for mean order revenue —
    distributed uncertainty quantification with a FULL value oracle: 32
    replicates reweight every order with the deterministic integer
    multiplier ``md5(orderkey:b) % 3`` (mean-1 integer weights — the
    md5-twin trick, so DuckDB reproduces every draw verbatim; a classic
    exponential/Poisson multiplier would need per-row ``ln`` floats whose
    libm ulps can flip a floor cross-engine).  Per block: 32 EXACT int64
    partial rows (b, Σw, Σw·cents) — mergeable, order-free, O(32) per
    block; the driver folds 32 rows, each replicate mean is one shared
    float expression in dollars (round 6 — a cent-scale mean at round 9
    would exceed double precision), and the CI is the 2nd/31st order
    statistic of the replicate means under the total order (mean, b).
    Multiplier weights have variance 2/3, documented — the interval is
    the replicate-distribution percentile, not a variance-rescaled one."""
    n_rep = 32
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        b = b.dropna()
        keys = b["o_orderkey"].to_numpy(np.int64)
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        # one md5 per (row, replicate): C-backed hashlib over prebuilt
        # byte keys (the md5-twin convention, md5_lower64 semantics)
        rows = {"b": np.arange(n_rep, dtype=np.int64), "sw": np.zeros(n_rep, dtype=np.int64),
                "swx": np.zeros(n_rep, dtype=np.int64), "n": np.full(n_rep, len(keys), dtype=np.int64)}
        for rep in range(n_rep):
            w = np.fromiter(
                (
                    int.from_bytes(hashlib.md5(f"{k}:{rep}".encode()).digest()[8:16], "little") % 3
                    for k in keys
                ),
                dtype=np.int64,
                count=len(keys),
            )
            rows["sw"][rep] = int(w.sum())
            rows["swx"][rep] = int((w * cents).sum())
        return pd.DataFrame(rows)

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    f = p.groupby("b", as_index=False).sum()
    means = np.round(
        f["swx"].to_numpy(np.float64) / f["sw"].to_numpy(np.float64) / 100.0, 6
    )
    order = np.lexsort((f["b"].to_numpy(), means))
    lo, hi = float(means[order[1]]), float(means[order[n_rep - 2]])
    n_orders = int(p.loc[p["b"] == 0, "n"].sum())
    return pd.DataFrame(
        {
            "n_orders": [np.int64(n_orders)],
            "n_replicates": [np.int64(n_rep)],
            "ci_lo_dollars": [np.float64(lo)],
            "ci_hi_dollars": [np.float64(hi)],
        }
    )


_BOOTSTRAP_CI_SQL = """
WITH o AS (
  SELECT o_orderkey, CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders WHERE o_orderkey IS NOT NULL AND o_totalprice IS NOT NULL
),
d AS (
  SELECT r.b, md5_number_lower(CONCAT(o.o_orderkey, ':', r.b)) % 3 AS w, o.cents
  FROM o, (SELECT range AS b FROM range(0, 32)) r
),
m AS (
  SELECT b, ROUND(CAST(SUM(w * cents) AS DOUBLE) / CAST(SUM(w) AS DOUBLE) / 100.0, 6) AS mean
  FROM d GROUP BY b
),
r AS (SELECT mean, ROW_NUMBER() OVER (ORDER BY mean, b) AS rn FROM m)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM o) AS n_orders,
       CAST(32 AS BIGINT) AS n_replicates,
       (SELECT mean FROM r WHERE rn = 2) AS ci_lo_dollars,
       (SELECT mean FROM r WHERE rn = 31) AS ci_hi_dollars
"""


def frequent_triples_parts(sf_dir: str) -> pd.DataFrame:
    """Market-basket mining at k=3: the 20 most frequent part TRIPLES
    co-occurring in an order (the lift query's pair analysis one level
    up).  Distributed shape: per-order distinct parts land whole in ONE
    bucketed exchange on l_orderkey; each reducer emits sorted in-order
    triples vectorized (C(n,3) bounded by per-order line count, never
    corpus size); a second bucketed exchange on the triple counts; each
    count bucket keeps a LOCAL top-20 under the total order (n DESC, p1,
    p2, p3) and the driver folds <= 20 x n_buckets rows — ties at the
    cut are impossible to mis-order because the tie-break is total."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def dedup(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def triples(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates().sort_values(["l_orderkey", "l_partkey"])
        out_a, out_b, out_c = [], [], []
        for _, grp in g.groupby("l_orderkey", sort=False):
            pk = grp["l_partkey"].to_numpy(np.int64)
            n = len(pk)
            if n < 3:
                continue
            ia, ib, ic = np.array(
                [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
            ).T
            out_a.append(pk[ia])
            out_b.append(pk[ib])
            out_c.append(pk[ic])
        if not out_a:
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64) for c in ["p1", "p2", "p3"]}
            )
        return pd.DataFrame(
            {
                "p1": np.concatenate(out_a),
                "p2": np.concatenate(out_b),
                "p3": np.concatenate(out_c),
            }
        )

    trip = bucketed_groupby(li, ["l_orderkey"], dedup, triples)

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(["p1", "p2", "p3"], as_index=False).size().rename(columns={"size": "n"})

    def count_top(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["p1", "p2", "p3"], as_index=False)["n"].sum()
        c = c.sort_values(["n", "p1", "p2", "p3"], ascending=[False, True, True, True])
        return c.head(20)

    parts = bucketed_groupby(trip, ["p1", "p2", "p3"], count_partial, count_top).to_pandas()
    out = parts.sort_values(["n", "p1", "p2", "p3"], ascending=[False, True, True, True]).head(20)
    for c in ["p1", "p2", "p3", "n"]:
        out[c] = out[c].astype(np.int64)
    return out.reset_index(drop=True)


_FREQ_TRIPLES_SQL = """
WITH li AS MATERIALIZED (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
)
SELECT a.l_partkey AS p1, b.l_partkey AS p2, c.l_partkey AS p3,
       CAST(COUNT(*) AS BIGINT) AS n
FROM li a
JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
JOIN li c ON a.l_orderkey = c.l_orderkey AND b.l_partkey < c.l_partkey
GROUP BY 1, 2, 3
ORDER BY n DESC, p1, p2, p3
LIMIT 20
"""


def k_anonymity_audit_customers(sf_dir: str) -> pd.DataFrame:
    """k-anonymity audit over the quasi-identifier pair (c_nationkey,
    c_mktsegment) at k=10 — the privacy-release gate a training-data
    pipeline runs before publishing user-derived tables: rows whose QI
    combination matches fewer than k records are re-identifiable.
    Distributed shape: ONE bucketed exchange on the QI combo (each combo
    lands whole in one reducer — the FD-audit contract), per-bucket
    (n_groups, n_rows, at-risk counts, min size) partials, driver fold of
    <= n_buckets rows.  The QI group list never assembles anywhere."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    k = 10
    ds = _read(sf_dir, "customer", columns=["c_nationkey", "c_mktsegment"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.dropna()
            .groupby(["c_nationkey", "c_mktsegment"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["c_nationkey", "c_mktsegment"], as_index=False)["n"].sum()
        sizes = c["n"].to_numpy(np.int64)
        risk = sizes < k
        return pd.DataFrame(
            {
                "n_groups": [np.int64(len(c))],
                "n_rows": [np.int64(int(sizes.sum()))],
                "n_groups_at_risk": [np.int64(int(risk.sum()))],
                "n_rows_at_risk": [np.int64(int(sizes[risk].sum()))],
                "min_group_size": [np.int64(int(sizes.min())) if len(sizes) else np.int64(0)],
            }
        )

    p = bucketed_groupby(ds, ["c_nationkey", "c_mktsegment"], partial, merge).to_pandas()
    return pd.DataFrame(
        {
            "k": [np.int64(k)],
            "n_groups": [np.int64(int(p["n_groups"].sum()))],
            "n_rows": [np.int64(int(p["n_rows"].sum()))],
            "n_groups_at_risk": [np.int64(int(p["n_groups_at_risk"].sum()))],
            "n_rows_at_risk": [np.int64(int(p["n_rows_at_risk"].sum()))],
            "min_group_size": [np.int64(int(p["min_group_size"].min())) if len(p) else np.int64(0)],
        }
    )


_K_ANON_SQL = """
WITH g AS (
  SELECT c_nationkey, c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n
  FROM customer
  WHERE c_nationkey IS NOT NULL AND c_mktsegment IS NOT NULL
  GROUP BY 1, 2
)
SELECT CAST(10 AS BIGINT) AS k,
       CAST(COUNT(*) AS BIGINT) AS n_groups,
       CAST(SUM(n) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN n < 10 THEN 1 ELSE 0 END) AS BIGINT) AS n_groups_at_risk,
       CAST(COALESCE(SUM(CASE WHEN n < 10 THEN n END), 0) AS BIGINT) AS n_rows_at_risk,
       CAST(MIN(n) AS BIGINT) AS min_group_size
FROM g
"""


def scd2_user_type_intervals(sf_dir: str) -> pd.DataFrame:
    """Slowly-changing-dimension (SCD2) interval build from the event
    stream: collapse each user's consecutive runs of the same event_type
    into (valid_from, valid_to) rows — the history-table materialization
    an ETL layer derives from CDC streams.  ONE bucketed exchange on
    user_id; each reducer sorts its users under the total order (ts,
    event_id), marks run starts vectorized, and emits one row per run
    with valid_to = the next run's start ('' for the open run).
    Timestamps are emitted as formatted strings (the registry's
    timestamp-value convention)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def runs(part: pd.DataFrame) -> pd.DataFrame:
        p = part.dropna().sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        if not len(p):
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "event_type": pd.Series([], dtype=object),
                    "valid_from": pd.Series([], dtype=object),
                    "valid_to": pd.Series([], dtype=object),
                    "n_events_in_run": pd.Series([], dtype=np.int64),
                }
            )
        uid = p["user_id"].to_numpy(np.int64)
        et = p["event_type"].to_numpy()
        new_user = np.ones(len(p), dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        is_start = new_user.copy()
        is_start[1:] |= et[1:] != et[:-1]
        run_id = np.cumsum(is_start)
        d = p.assign(_run=run_id)
        r = d.groupby("_run", as_index=False).agg(
            user_id=("user_id", "first"),
            event_type=("event_type", "first"),
            vfrom=("ts", "first"),
            n_events_in_run=("ts", "size"),
        )
        vto = r.groupby("user_id")["vfrom"].shift(-1)
        return pd.DataFrame(
            {
                "user_id": r["user_id"].to_numpy(np.int64),
                "event_type": r["event_type"].to_numpy(),
                "valid_from": r["vfrom"].dt.strftime("%Y-%m-%d %H:%M:%S").to_numpy(),
                "valid_to": vto.dt.strftime("%Y-%m-%d %H:%M:%S").fillna("").to_numpy(),
                "n_events_in_run": r["n_events_in_run"].to_numpy(np.int64),
            }
        )

    out = bucketed_groupby(ds, ["user_id"], lambda b: b.dropna(), runs).to_pandas()
    out["user_id"] = out["user_id"].astype(np.int64)
    out["n_events_in_run"] = out["n_events_in_run"].astype(np.int64)
    return out.sort_values(["user_id", "valid_from", "event_type"]).reset_index(drop=True)


_SCD2_SQL = """
WITH s AS (
  SELECT user_id, event_type, ts, event_id,
         LAG(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pt
  FROM events
  WHERE user_id IS NOT NULL AND event_type IS NOT NULL AND ts IS NOT NULL AND event_id IS NOT NULL
),
m AS (
  SELECT user_id, event_type, ts, event_id,
         CASE WHEN pt IS NULL OR pt <> event_type THEN 1 ELSE 0 END AS is_start
  FROM s
),
g AS (
  SELECT user_id, event_type, ts,
         SUM(is_start) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS run
  FROM m
),
r AS (
  SELECT user_id, run, MIN(event_type) AS event_type, MIN(ts) AS vfrom,
         CAST(COUNT(*) AS BIGINT) AS n_events_in_run
  FROM g GROUP BY user_id, run
)
SELECT user_id, event_type,
       strftime(vfrom, '%Y-%m-%d %H:%M:%S') AS valid_from,
       COALESCE(strftime(LEAD(vfrom) OVER (PARTITION BY user_id ORDER BY run),
                         '%Y-%m-%d %H:%M:%S'), '') AS valid_to,
       n_events_in_run
FROM r ORDER BY user_id, valid_from, event_type
"""


def join_key_overlap_profile(sf_dir: str) -> pd.DataFrame:
    """Join-key overlap profile — the pre-join audit a query planner (or
    a data-contract check) wants before shipping a shuffle: for each
    candidate key pair, the distinct counts on both sides, the exact
    intersection size, and the containment ratios.  Distributed shape
    (the KMV exact-leg pattern): per-batch distinct keys per side tagged
    with a side BIT, ONE bucketed exchange on the key value, per-bucket
    partials fold OR'd bits per key into three counts — no distinct-key
    set ever assembles on the driver."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    specs = [
        ("events_user_vs_customer", "events", "user_id", "customer", "c_custkey"),
        ("orders_cust_vs_customer", "orders", "o_custkey", "customer", "c_custkey"),
    ]
    rows = []
    for name, lt, lk, rt, rk in specs:
        left = _read(sf_dir, lt, columns=[lk]).map_batches(
            lambda b, lk=lk: pd.DataFrame(
                {"key": np.unique(b[lk].dropna().to_numpy(np.int64)), "bit": np.int64(1)}
            ),
            batch_format="pandas",
        )
        right = _read(sf_dir, rt, columns=[rk]).map_batches(
            lambda b, rk=rk: pd.DataFrame(
                {"key": np.unique(b[rk].dropna().to_numpy(np.int64)), "bit": np.int64(2)}
            ),
            batch_format="pandas",
        )

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            m = g.groupby("key")["bit"].agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
            v = m.to_numpy(np.int64)
            return pd.DataFrame(
                {
                    "n_left": [np.int64(int(((v & 1) > 0).sum()))],
                    "n_right": [np.int64(int(((v & 2) > 0).sum()))],
                    "n_both": [np.int64(int((v == 3).sum()))],
                }
            )

        p = bucketed_groupby(left.union(right), ["key"], lambda b: b, merge).to_pandas()
        nl, nr, nb = int(p["n_left"].sum()), int(p["n_right"].sum()), int(p["n_both"].sum())
        rows.append(
            (
                name,
                nl,
                nr,
                nb,
                float(np.round(float(nb) / float(nl), 9)) if nl else 0.0,
                float(np.round(float(nb) / float(nr), 9)) if nr else 0.0,
            )
        )
    out = pd.DataFrame(
        rows,
        columns=["pair", "n_left", "n_right", "n_both", "containment_left", "containment_right"],
    )
    for c in ["n_left", "n_right", "n_both"]:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("pair").reset_index(drop=True)


_JOIN_OVERLAP_SQL = """
WITH e AS (SELECT DISTINCT user_id AS k FROM events WHERE user_id IS NOT NULL),
c AS (SELECT DISTINCT c_custkey AS k FROM customer WHERE c_custkey IS NOT NULL),
o AS (SELECT DISTINCT o_custkey AS k FROM orders WHERE o_custkey IS NOT NULL),
p1 AS (
  SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM e) AS n_left,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM c) AS n_right,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM e JOIN c ON c.k = e.k) AS n_both
),
p2 AS (
  SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM o) AS n_left,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM c) AS n_right,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM o JOIN c ON c.k = o.k) AS n_both
)
SELECT 'events_user_vs_customer' AS pair, n_left, n_right, n_both,
       ROUND(CAST(n_both AS DOUBLE) / n_left, 9) AS containment_left,
       ROUND(CAST(n_both AS DOUBLE) / n_right, 9) AS containment_right
FROM p1
UNION ALL
SELECT 'orders_cust_vs_customer', n_left, n_right, n_both,
       ROUND(CAST(n_both AS DOUBLE) / n_left, 9),
       ROUND(CAST(n_both AS DOUBLE) / n_right, 9)
FROM p2
ORDER BY pair
"""


def centroid_purity_embeddings(sf_dir: str) -> pd.DataFrame:
    """Exact centroid-purity audit of the labeled embedding space — the
    clustering-quality read (is each vector strictly nearest its own
    label's centroid?) made EXACT with integer cross-multiplication:
    centroids are the rational Σq/n, so squared distance to label l has
    the integer numerator A_l = Σ_d (q_d·n_l − S_l[d])² over denominator
    n_l², and "own strictly nearest" is the pure-integer test
    A_own·n_c² < A_c·n_own² for every other label c (ties → not pure —
    no float anywhere, no tolerance).  Distributed shape: per-label
    (n, Σq per dim) fold from block partials (the covariance-grid
    pattern, 10×16 ints); the 10-centroid table broadcasts in the
    closure and each block scores its rows vectorized (difference terms
    in int64 — safe to n_l ~ 1.8e14 rows — squared/summed in Python-int
    object math, the repo's HUGEINT-twin posture).  First 16 dims (keeps
    the SQL twin's unnest bounded)."""
    dims = 16
    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])

    def mom_partial(bt: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(bt["embedding"].to_numpy()).astype(np.float64)[:, :dims]
        q = np.floor(m * 10000.0 + 0.5).astype(np.int64)
        lab = bt["label"].to_numpy(np.int64)
        out = []
        for l in np.unique(lab):
            sel = lab == l
            out.append(
                pd.DataFrame(
                    {
                        "label": np.full(dims, l, dtype=np.int64),
                        "dim": np.arange(dims, dtype=np.int64),
                        "s": q[sel].sum(axis=0),
                        "n": np.full(dims, int(sel.sum()), dtype=np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    mom = ds.map_batches(mom_partial, batch_format="pandas").to_pandas()
    f = mom.groupby(["label", "dim"], as_index=False).sum()
    labels = np.sort(f["label"].unique())
    cent_s = {int(l): f[f["label"] == l].sort_values("dim")["s"].to_numpy(np.int64) for l in labels}
    cent_n = {int(l): int(f[f["label"] == l]["n"].iloc[0]) for l in labels}
    ref = ray.put((labels.astype(np.int64), cent_s, cent_n))

    def purity_partial(bt: pd.DataFrame) -> pd.DataFrame:
        labs, cs, cn = ray.get(ref)
        m = np.stack(bt["embedding"].to_numpy()).astype(np.float64)[:, :dims]
        q = np.floor(m * 10000.0 + 0.5).astype(np.int64)
        own = bt["label"].to_numpy(np.int64)
        # A[l] per row: exact Python-int numerators (object math after the
        # int64-safe difference step)
        nums = {}
        for l in labs:
            d = q * cn[int(l)] - cs[int(l)][None, :]
            nums[int(l)] = (d.astype(object) ** 2).sum(axis=1)
        pure = np.ones(len(q), dtype=np.int64)
        for i in range(len(q)):
            lo = int(own[i])
            a_own = nums[lo][i]
            n_own2 = cn[lo] * cn[lo]
            for l in labs:
                lc = int(l)
                if lc == lo:
                    continue
                if not (a_own * cn[lc] * cn[lc] < nums[lc][i] * n_own2):
                    pure[i] = 0
                    break
        g = pd.DataFrame({"label": own, "pure": pure}).groupby("label", as_index=False).agg(
            n_vecs=("pure", "size"), n_pure=("pure", "sum")
        )
        return g

    p = ds.map_batches(purity_partial, batch_format="pandas").to_pandas()
    out = p.groupby("label", as_index=False).sum()
    out["label"] = out["label"].astype(np.int64)
    out["n_vecs"] = out["n_vecs"].astype(np.int64)
    out["n_pure"] = out["n_pure"].astype(np.int64)
    out["purity"] = _r9(out["n_pure"].to_numpy(np.float64) / out["n_vecs"].to_numpy(np.float64))
    return out.sort_values("label").reset_index(drop=True)


_CENTROID_PURITY_SQL = """
WITH q AS MATERIALIZED (
  SELECT vec_id, label, i - 1 AS dim,
    CAST(FLOOR(CAST(embedding[i] AS DOUBLE) * 10000 + 0.5) AS BIGINT) AS qv
  FROM embeddings, range(1, 17) t(i)),
cn AS MATERIALIZED (SELECT label, CAST(COUNT(*) AS BIGINT) AS n FROM embeddings GROUP BY 1),
cs AS MATERIALIZED (SELECT label, dim, CAST(SUM(qv) AS BIGINT) AS s FROM q GROUP BY 1, 2),
a AS MATERIALIZED (
  SELECT q.vec_id, q.label AS own, cs.label AS cand,
         SUM((CAST(q.qv AS HUGEINT) * cn.n - cs.s) * (CAST(q.qv AS HUGEINT) * cn.n - cs.s)) AS num,
         MAX(cn.n) AS n_c
  FROM q JOIN cs ON cs.dim = q.dim JOIN cn ON cn.label = cs.label
  GROUP BY 1, 2, 3),
p AS (
  SELECT o.vec_id, o.own,
         CASE WHEN BOOL_AND(c.cand = o.own OR o.num * c.n_c * c.n_c < c.num * o.n_c * o.n_c)
              THEN 1 ELSE 0 END AS pure
  FROM (SELECT * FROM a WHERE cand = own) o
  JOIN a c ON c.vec_id = o.vec_id
  GROUP BY o.vec_id, o.own, o.num, o.n_c)
SELECT own AS label, CAST(COUNT(*) AS BIGINT) AS n_vecs,
       CAST(SUM(pure) AS BIGINT) AS n_pure,
       ROUND(CAST(SUM(pure) AS DOUBLE) / COUNT(*), 9) AS purity
FROM p GROUP BY own ORDER BY label
"""


def range_partition_plan_orders(sf_dir: str) -> pd.DataFrame:
    """Balanced range-partition plan for o_totalprice — the boundary
    table a skew-aware repartition/sort writes before shuffling (the
    `stages/sort._RangePlan` idea surfaced as an auditable artifact):
    15 split points for 16 partitions as EXACT order statistics at
    1-based ranks (i·n)//16, computed from the (integer-cents, count)
    histogram — the exchange is bounded by the price DOMAIN, never row
    count, and the driver folds the histogram and cumulative-sums exact
    integers (the weighted-median machinery at multiple ranks)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame({"cents": cents}).groupby("cents", as_index=False).size().rename(
            columns={"size": "n"}
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("cents", as_index=False)["n"].sum()

    h = bucketed_groupby(ds, ["cents"], partial, merge).to_pandas().sort_values("cents")
    cents = h["cents"].to_numpy(np.int64)
    cum = np.cumsum(h["n"].to_numpy(np.int64))
    tot = int(cum[-1]) if len(cum) else 0
    rows = []
    for i in range(1, 16):
        rank = (i * tot) // 16
        idx = int(np.searchsorted(cum, rank))
        rows.append((i, int(cents[idx]), int(cum[idx])))
    out = pd.DataFrame(rows, columns=["bound_idx", "boundary_cents", "rows_at_or_below"])
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


_RANGE_PLAN_SQL = """
WITH h AS (
  SELECT CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM orders WHERE o_totalprice IS NOT NULL GROUP BY 1
),
c AS (
  SELECT cents, SUM(n) OVER (ORDER BY cents) AS cw,
         SUM(n) OVER () AS tot
  FROM h
),
r AS (SELECT range AS i FROM range(1, 16)),
b AS (
  SELECT r.i AS bound_idx, MIN(c.cents) AS boundary_cents
  FROM r JOIN c ON c.cw >= (r.i * c.tot) // 16
  GROUP BY r.i
)
SELECT b.bound_idx, CAST(b.boundary_cents AS BIGINT) AS boundary_cents,
       CAST(c.cw AS BIGINT) AS rows_at_or_below
FROM b JOIN c ON c.cents = b.boundary_cents
ORDER BY bound_idx
"""


def greedy_coverage_selection_documents(sf_dir: str) -> pd.DataFrame:
    """Greedy facility-location data selection (maximize token coverage
    with k=5 documents) — the coverage-driven curation pick behind
    "select the smallest set that spans the vocabulary", value-oracled
    despite being ITERATIVE: each round is deterministic (argmax marginal
    gain, ties to the smaller doc_id), so DuckDB unrolls five rounds of
    gain-count + argmax + covered-union CTEs verbatim.  Distributed
    shape per round: the covered-token set (bounded by the vocab of the
    <= k docs selected so far) broadcasts via ``ray.put``; each block
    tokenizes ITS docs (a doc's tokens never span blocks), computes local
    gains, and emits only its block WINNER row (doc_id, gain, uncovered
    token list) — argmax is max-stable, so the driver folds one row per
    block, never per doc.  k passes over the corpus, zero shuffles."""
    k = 5
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    selected: list[int] = []
    covered: set = set()
    rows = []
    for rnd in range(1, k + 1):
        ref = ray.put((covered, set(selected)))

        def best(b: pd.DataFrame, ref=ref) -> pd.DataFrame:
            cov, sel = ray.get(ref)
            win = None
            for did, txt in zip(b["doc_id"].to_numpy(np.int64), b["text"].fillna("")):
                if int(did) in sel:
                    continue
                toks = set(txt.split()) - cov
                g = len(toks)
                if win is None or (g, -int(did)) > (win[1], -win[0]):
                    win = (int(did), g, toks)
            if win is None:
                return pd.DataFrame(
                    {"doc_id": pd.Series([], dtype=np.int64),
                     "gain": pd.Series([], dtype=np.int64),
                     "toks": pd.Series([], dtype=object)}
                )
            return pd.DataFrame(
                {"doc_id": [np.int64(win[0])], "gain": [np.int64(win[1])],
                 "toks": [" ".join(sorted(win[2]))]}
            )

        p = ds.map_batches(best, batch_format="pandas").to_pandas()
        if p.empty:
            break
        p = p.sort_values(["gain", "doc_id"], ascending=[False, True])
        w = p.iloc[0]
        new_toks = set(str(w["toks"]).split()) if str(w["toks"]) else set()
        covered |= new_toks
        selected.append(int(w["doc_id"]))
        rows.append((rnd, int(w["doc_id"]), int(w["gain"]), len(covered)))
    out = pd.DataFrame(rows, columns=["sel_round", "doc_id", "gain", "covered_total"])
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def _greedy_coverage_sql(k: int = 5) -> str:
    parts = [
        "WITH toks AS MATERIALIZED (\n"
        "  SELECT doc_id, UNNEST(list_distinct(list_filter(\n"
        "    regexp_split_to_array(COALESCE(text, ''), '\\s+'), x -> x <> ''))) AS tok\n"
        "  FROM documents),\n"
        "d AS MATERIALIZED (SELECT doc_id FROM documents)"
    ]
    sel_union = []
    for r in range(1, k + 1):
        prev_cov = f"AND t.tok NOT IN (SELECT tok FROM c{r - 1})" if r > 1 else ""
        not_sel = (
            f"WHERE d.doc_id NOT IN ({', '.join(f'(SELECT doc_id FROM s{i})' for i in range(1, r))})"
            if r > 1
            else ""
        )
        parts.append(
            f"g{r} AS MATERIALIZED (SELECT d.doc_id, CAST(COUNT(t.tok) AS BIGINT) AS gain\n"
            f"  FROM d LEFT JOIN toks t ON t.doc_id = d.doc_id {prev_cov}\n"
            f"  {not_sel} GROUP BY 1)"
        )
        parts.append(
            f"s{r} AS MATERIALIZED (SELECT doc_id, gain FROM g{r} ORDER BY gain DESC, doc_id LIMIT 1)"
        )
        if r == 1:
            parts.append(
                "c1 AS MATERIALIZED (SELECT DISTINCT tok FROM toks WHERE doc_id = (SELECT doc_id FROM s1))"
            )
        else:
            parts.append(
                f"c{r} AS MATERIALIZED (SELECT tok FROM c{r - 1} UNION\n"
                f"  SELECT tok FROM toks WHERE doc_id = (SELECT doc_id FROM s{r}))"
            )
        sel_union.append(
            f"SELECT CAST({r} AS BIGINT) AS sel_round, doc_id, gain,\n"
            f"  (SELECT CAST(COUNT(*) AS BIGINT) FROM c{r}) AS covered_total FROM s{r}"
        )
    return ",\n".join(parts) + "\n" + "\nUNION ALL ".join(sel_union) + "\nORDER BY sel_round"


_GREEDY_COVERAGE_SQL = _greedy_coverage_sql(5)


def seasonal_anomaly_days_revenue(sf_dir: str) -> pd.DataFrame:
    """Top-10 seasonally-adjusted revenue anomalies — STL-lite residual
    ranking with EXACT arithmetic end to end: daily integer-cent sums
    fold on the driver (calendar-bounded), the day-of-week baseline is
    the rational S_d/n_d, and residual magnitudes compare across
    different denominators via the common-scale trick: scaled_i =
    (c_i·n_d − S_d) · (P/n_d) with P = Π n_dow (an exact integer since
    P/n_d divides evenly) — so the top-10 ranking (|scaled| DESC, day)
    is a pure-integer total order, no float ever enters the sort.  The
    reported residual_dollars is one shared float expression.  Day of
    week is epoch-day mod 7 on BOTH sides (never a locale-dependent
    DOW function)."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        day = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame({"day": day, "rev": cents}).groupby("day", as_index=False)["rev"].sum()

    p = orders.map_batches(partial, batch_format="pandas").to_pandas()
    d = p.groupby("day", as_index=False)["rev"].sum()
    d["dow"] = d["day"].to_numpy(np.int64) % 7
    g = d.groupby("dow").agg(s=("rev", "sum"), n=("rev", "size"))
    s_map = {int(i): int(v) for i, v in g["s"].items()}
    n_map = {int(i): int(v) for i, v in g["n"].items()}
    prod = 1
    for v in n_map.values():
        prod *= v
    recs = []
    for r in d.itertuples():
        day, rev, dow = int(r.day), int(r.rev), int(r.dow)
        nd, sd = n_map[dow], s_map[dow]
        scaled = (rev * nd - sd) * (prod // nd)
        recs.append((day, dow, rev, nd, sd, scaled))
    recs.sort(key=lambda t: (-abs(t[5]), t[0]))
    top = recs[:10]
    return pd.DataFrame(
        {
            "day": [np.datetime_as_string(np.int64(t[0]).astype("datetime64[D]"), unit="D") for t in top],
            "dow": [np.int64(t[1]) for t in top],
            "revenue_cents": [np.int64(t[2]) for t in top],
            "dow_n": [np.int64(t[3]) for t in top],
            "dow_sum_cents": [np.int64(t[4]) for t in top],
            "residual_dollars": [
                np.float64(np.round(float(t[2] * t[3] - t[4]) / t[3] / 100.0, 6)) for t in top
            ],
        }
    )


_SEASONAL_ANOMALY_SQL = """
WITH d AS (
  SELECT CAST(o_orderdate AS DATE) AS day,
         SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS rev
  FROM orders WHERE o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
e AS (SELECT day, rev, datediff('day', DATE '1970-01-01', day) % 7 AS dow FROM d),
g AS (SELECT dow, CAST(SUM(rev) AS BIGINT) AS s, CAST(COUNT(*) AS BIGINT) AS n FROM e GROUP BY 1),
p AS (
  SELECT CAST(MAX(CASE WHEN dow = 0 THEN n END) AS HUGEINT)
       * MAX(CASE WHEN dow = 1 THEN n END) * MAX(CASE WHEN dow = 2 THEN n END)
       * MAX(CASE WHEN dow = 3 THEN n END) * MAX(CASE WHEN dow = 4 THEN n END)
       * MAX(CASE WHEN dow = 5 THEN n END) * MAX(CASE WHEN dow = 6 THEN n END) AS prod
  FROM g
),
r AS (
  SELECT e.day, e.dow, e.rev, g.n, g.s,
         (CAST(e.rev AS HUGEINT) * g.n - g.s) * (p.prod // g.n) AS scaled
  FROM e JOIN g ON g.dow = e.dow, p
)
SELECT strftime(day, '%Y-%m-%d') AS day, CAST(dow AS BIGINT) AS dow,
       rev AS revenue_cents, n AS dow_n, s AS dow_sum_cents,
       ROUND(CAST(rev * n - s AS DOUBLE) / n / 100.0, 6) AS residual_dollars
FROM r
ORDER BY ABS(scaled) DESC, day
LIMIT 10
"""


def ks_exact_nchars_sources(sf_dir: str) -> pd.DataFrame:
    """EXACT two-sample Kolmogorov-Smirnov distance between src0's and
    src1's document-length distributions — the cross-source distribution
    drift gate, with the KS statistic as a pure-integer total order:
    D = max_x |F_a(x) − F_b(x)| compares via the cross-multiplied
    |cumA·n_b − cumB·n_a| (never a float CDF), argmax ties to the
    smallest x.  Distributed shape: per-block (source, n_chars) count
    partials fold on the driver (n_chars DOMAIN-bounded — the
    low-cardinality rule); the scan reads two columns only."""
    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        b = b[b["source"].isin(["src0", "src1"])]
        return (
            b.groupby(["source", "n_chars"], as_index=False).size().rename(columns={"size": "n"})
        )

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    h = p.groupby(["source", "n_chars"], as_index=False)["n"].sum()
    piv = h.pivot_table(index="n_chars", columns="source", values="n", fill_value=0).sort_index()
    ca = piv.get("src0", pd.Series(0, index=piv.index)).to_numpy(np.int64)
    cb = piv.get("src1", pd.Series(0, index=piv.index)).to_numpy(np.int64)
    vals = piv.index.to_numpy(np.int64)
    na, nb = int(ca.sum()), int(cb.sum())
    fa, fb = np.cumsum(ca), np.cumsum(cb)
    scaled = np.abs(fa.astype(object) * nb - fb.astype(object) * na)
    best = 0
    for i in range(1, len(vals)):
        if scaled[i] > scaled[best]:
            best = i
    return pd.DataFrame(
        {
            "n_a": [np.int64(na)],
            "n_b": [np.int64(nb)],
            "at_value": [np.int64(int(vals[best]))],
            "scaled_d": [np.int64(int(scaled[best]))],
            "ks_d": [np.float64(np.round(float(int(scaled[best])) / (na * nb), 9))],
        }
    )


_KS_SOURCES_SQL = """
WITH ab AS (
  SELECT source, n_chars FROM documents
  WHERE source IN ('src0', 'src1') AND n_chars IS NOT NULL
),
h AS (
  SELECT n_chars AS v,
         CAST(SUM(CASE WHEN source = 'src0' THEN 1 ELSE 0 END) AS BIGINT) AS ca,
         CAST(SUM(CASE WHEN source = 'src1' THEN 1 ELSE 0 END) AS BIGINT) AS cb
  FROM ab GROUP BY 1
),
c AS (
  SELECT v, SUM(ca) OVER (ORDER BY v) AS fa, SUM(cb) OVER (ORDER BY v) AS fb,
         (SELECT SUM(ca) FROM h) AS na, (SELECT SUM(cb) FROM h) AS nb
  FROM h
),
s AS (SELECT v, ABS(fa * nb - fb * na) AS scaled, na, nb FROM c)
SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
       CAST(v AS BIGINT) AS at_value, CAST(scaled AS BIGINT) AS scaled_d,
       ROUND(CAST(scaled AS DOUBLE) / (na * nb), 9) AS ks_d
FROM s ORDER BY scaled DESC, v LIMIT 1
"""


def priority_mix_drift_monthly(sf_dir: str) -> pd.DataFrame:
    """Monthly order-priority mix drift: per month, the chi-square
    statistic of the month's priority distribution against the GLOBAL
    mix — the segmented-drift monitor next to the static chi2 and the
    CUSUM changepoints.  Distributed shape: per-block (month, priority)
    count partials fold on the driver (months x priorities is calendar x
    enum bounded); expected counts and chi2 finalize from exact integers
    with the _CHI2_SQL expression conventions (round 6)."""
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_orderpriority"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        m = b["o_orderdate"].dt.strftime("%Y-%m")
        return (
            pd.DataFrame({"month": m.to_numpy(), "p": b["o_orderpriority"].to_numpy()})
            .groupby(["month", "p"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cells = p.groupby(["month", "p"], as_index=False)["n"].sum()
    col = cells.groupby("p")["n"].sum()
    n_tot = int(cells["n"].sum())
    rows = []
    for month, g in cells.groupby("month"):
        nm = int(g["n"].sum())
        chi2 = 0.0
        for pr in col.index:  # full grid: absent cells are obs=0
            obs = int(g.loc[g["p"] == pr, "n"].sum())
            e = float(nm * int(col[pr])) / n_tot
            chi2 += (obs - e) * (obs - e) / e
        rows.append((month, nm, chi2))
    out = pd.DataFrame(rows, columns=["month", "n_orders", "chi2"])
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["chi2"] = _r6(out["chi2"])
    return out.sort_values("month").reset_index(drop=True)


_PRIORITY_DRIFT_SQL = """
WITH cells AS (
  SELECT strftime(o_orderdate, '%Y-%m') AS month, o_orderpriority AS p,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM orders WHERE o_orderdate IS NOT NULL AND o_orderpriority IS NOT NULL
  GROUP BY 1, 2
),
ms AS (SELECT month, CAST(SUM(cnt) AS BIGINT) AS nm FROM cells GROUP BY 1),
cs AS (SELECT p, CAST(SUM(cnt) AS BIGINT) AS cn FROM cells GROUP BY 1),
tot AS (SELECT CAST(SUM(cnt) AS BIGINT) AS n FROM cells),
grid AS (
  SELECT ms.month, ms.nm, COALESCE(cells.cnt, 0) AS obs,
         CAST(ms.nm * cs.cn AS DOUBLE) / (SELECT n FROM tot) AS e
  FROM ms CROSS JOIN cs
  LEFT JOIN cells ON cells.month = ms.month AND cells.p = cs.p
)
SELECT month, MAX(nm) AS n_orders, ROUND(SUM((obs - e) * (obs - e) / e), 6) AS chi2
FROM grid GROUP BY month ORDER BY month
"""


def brand_homophily_copurchase(sf_dir: str) -> pd.DataFrame:
    """Categorical (Newman) assortativity of the co-purchase graph by
    BRAND — do parts co-sell within their brand? — with the statistic as
    a ratio of EXACT integers: with E distinct edges, S same-brand edges
    and T = Σ_brand (edge-end count)², r = (4SE − T)/(4E² − T) (the
    e_ii/a_i² formula cleared of denominators).  Distributed shape:
    per-order pairs in one l_orderkey exchange, GLOBAL edge dedup in a
    second (id_a, id_b) exchange, brand ids attached twice via the
    guarded broadcast; per-block partials are (n, same, per-brand end
    counts) — brand cardinality-bounded — and the driver folds exact
    ints (the degree-assortativity posture, categorical flavor)."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def dedup(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame(
            {
                "id_a": m["l_partkey_x"].to_numpy(np.int64),
                "id_b": m["l_partkey_y"].to_numpy(np.int64),
            }
        ).drop_duplicates()

    raw = bucketed_groupby(li, ["l_orderkey"], dedup, pairs)
    edges = bucketed_groupby(raw, ["id_a", "id_b"], lambda b: b.drop_duplicates(),
                             lambda g: g.drop_duplicates())
    brands = _read(sf_dir, "part", columns=["p_partkey", "p_brand"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "p_partkey": b["p_partkey"].to_numpy(np.int64),
                "brand": b["p_brand"].str.split("#").str[1].astype(np.int64),
            }
        ),
        batch_format="pandas",
    ).materialize()
    e1 = attach_or_join(
        edges.map_batches(lambda b: b.rename(columns={"id_a": "p_partkey"}), batch_format="pandas"),
        brands, on_fact="p_partkey", on_side="p_partkey", attach_cols=["brand"],
    ).map_batches(
        lambda b: b.rename(columns={"brand": "brand_a", "p_partkey": "id_a", "id_b": "p_partkey"}),
        batch_format="pandas",
    )
    e2 = attach_or_join(e1, brands, on_fact="p_partkey", on_side="p_partkey", attach_cols=["brand"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ba = b["brand_a"].to_numpy(np.int64)
        bb = b["brand"].to_numpy(np.int64)
        ends = pd.Series(np.concatenate([ba, bb])).value_counts()
        out = pd.DataFrame(
            {"brand": ends.index.to_numpy(np.int64), "cnt": ends.to_numpy(np.int64)}
        )
        out["n_edges"] = np.int64(0)
        out["n_same"] = np.int64(0)
        head = pd.DataFrame(
            {"brand": [np.int64(-1)], "cnt": [np.int64(0)],
             "n_edges": [np.int64(len(b))], "n_same": [np.int64(int((ba == bb).sum()))]}
        )
        return pd.concat([head, out], ignore_index=True)

    p = e2.map_batches(partial, batch_format="pandas").to_pandas()
    E = int(p["n_edges"].sum())
    S = int(p["n_same"].sum())
    ends = p[p["brand"] >= 0].groupby("brand")["cnt"].sum()
    T = int(sum(int(c) * int(c) for c in ends.to_numpy()))
    r = float(4 * S * E - T) / float(4 * E * E - T) if (4 * E * E - T) else 0.0
    return pd.DataFrame(
        {
            "n_edges": [np.int64(E)],
            "n_same": [np.int64(S)],
            "sum_end_sq": [np.int64(T)],
            "homophily_r": [np.float64(np.round(r, 9))],
        }
    )


_BRAND_HOMOPHILY_SQL = """
WITH li AS MATERIALIZED (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
),
e0 AS MATERIALIZED (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
eb AS MATERIALIZED (
  SELECT CAST(split_part(pa.p_brand, '#', 2) AS BIGINT) AS ba,
         CAST(split_part(pb.p_brand, '#', 2) AS BIGINT) AS bb
  FROM e0 JOIN part pa ON pa.p_partkey = e0.u JOIN part pb ON pb.p_partkey = e0.v
),
tot AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS e,
         CAST(SUM(CASE WHEN ba = bb THEN 1 ELSE 0 END) AS BIGINT) AS s
  FROM eb
),
ends AS (
  SELECT brand, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM (SELECT ba AS brand FROM eb UNION ALL SELECT bb FROM eb)
  GROUP BY 1
),
t AS (SELECT CAST(SUM(cnt * cnt) AS BIGINT) AS t FROM ends)
SELECT tot.e AS n_edges, tot.s AS n_same, t.t AS sum_end_sq,
       ROUND(CAST(4 * tot.s * tot.e - t.t AS DOUBLE)
             / CAST(4 * tot.e * tot.e - t.t AS DOUBLE), 9) AS homophily_r
FROM tot, t
"""


def percolation_thresholds_copurchase(sf_dir: str) -> pd.DataFrame:
    """Weight-threshold percolation of the co-purchase graph: keep only
    edges whose co-order multiplicity reaches t ∈ {2, 3} and report the
    surviving component structure — the graph-robustness / confidence
    sweep a noisy-edge pipeline runs before trusting link clusters.
    Distributed shape: ONE exchange computes per-pair multiplicities;
    per threshold, the filtered edges feed `stages/cc.py` (guarded
    path) and the component stats fold as per-bucket partials
    (n_components, max size, n_nodes — each component lands whole in one
    bucket).  DuckDB recomputes each threshold with a recursive
    reachability CTE (components stay small once t >= 2 — measured max
    1.9k nodes at sf0.01 — so the closure is bounded; t=1 would explode
    and is deliberately excluded)."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def dedup(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame(
            {
                "id_a": m["l_partkey_x"].to_numpy(np.int64),
                "id_b": m["l_partkey_y"].to_numpy(np.int64),
            }
        )

    raw = bucketed_groupby(li, ["l_orderkey"], dedup, pairs)
    weighted = bucketed_groupby(
        raw,
        ["id_a", "id_b"],
        lambda b: b.groupby(["id_a", "id_b"], as_index=False).size().rename(columns={"size": "w"}),
        lambda g: g.groupby(["id_a", "id_b"], as_index=False)["w"].sum(),
    ).materialize()

    rows = []
    for t in (2, 3):
        et = weighted.map_batches(
            lambda b, t=t: b[b["w"] >= t][["id_a", "id_b"]], batch_format="pandas"
        ).materialize()
        n_edges = et.count()
        comp = distributed_connected_components(et)

        def stats(g: pd.DataFrame) -> pd.DataFrame:
            sizes = g.groupby("component").size()
            return pd.DataFrame(
                {
                    "n_nodes": [np.int64(len(g))],
                    "n_components": [np.int64(len(sizes))],
                    "max_component_size": [np.int64(int(sizes.max())) if len(sizes) else np.int64(0)],
                }
            )

        p = bucketed_groupby(comp, ["component"], lambda b: b, stats).to_pandas()
        rows.append(
            (
                t,
                int(p["n_nodes"].sum()),
                int(n_edges),
                int(p["n_components"].sum()),
                int(p["max_component_size"].max()) if len(p) else 0,
            )
        )
    out = pd.DataFrame(
        rows, columns=["threshold", "n_nodes", "n_edges", "n_components", "max_component_size"]
    )
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def _percolation_sql() -> str:
    def one(t: int) -> str:
        return f"""
sel{t} AS (
  WITH RECURSIVE et AS (SELECT u, v FROM pw WHERE w >= {t}),
  ed AS (SELECT u, v FROM et UNION ALL SELECT v, u FROM et),
  reach AS (
    SELECT u AS node, v AS r FROM ed
    UNION
    SELECT reach.node, e.v FROM reach JOIN ed e ON e.u = reach.r
  ),
  comp AS (SELECT node, LEAST(node, MIN(r)) AS rep FROM reach GROUP BY node),
  sizes AS (SELECT rep, COUNT(*) AS sz FROM comp GROUP BY rep)
  SELECT CAST({t} AS BIGINT) AS threshold,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM comp) AS n_nodes,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM et) AS n_edges,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM sizes) AS n_components,
         (SELECT CAST(COALESCE(MAX(sz), 0) AS BIGINT) FROM sizes) AS max_component_size
)"""

    return (
        "WITH li AS MATERIALIZED (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem\n"
        "  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL),\n"
        "pw AS MATERIALIZED (SELECT a.l_partkey AS u, b.l_partkey AS v, COUNT(*) AS w\n"
        "  FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey\n"
        "  GROUP BY 1, 2),\n"
        + one(2).strip().rstrip(")") + "),\n"
        + one(3).strip().rstrip(")") + ")\n"
        + "SELECT * FROM sel2 UNION ALL SELECT * FROM sel3 ORDER BY threshold"
    )


_PERCOLATION_SQL = _percolation_sql()


def global_transitivity_order_skip(sf_dir: str) -> pd.DataFrame:
    """Global transitivity (3·triangles / wedges) of the order-skip graph
    — the whole-graph clustering summary next to the per-node local
    coefficient: both moments come out of ONE triangle pass
    (stages/triangles with ``return_degrees=True`` — the degree fold the
    orientation step already computed), wedges = Σ C(deg, 2) in exact
    integers, and the ratio is one shared float division.  Total
    triangle count = Σ per-node counts / 3 (each triangle counted at
    each corner — the division is exact by construction)."""
    from ndap_data_validator_ray.stages.triangles import distributed_triangle_counts

    tri, deg = distributed_triangle_counts(_order_skip_edges(sf_dir), return_degrees=True)
    t3 = int(tri["triangles"].sum()) if len(tri) else 0
    assert t3 % 3 == 0
    n_tri = t3 // 3
    d = deg["deg"].to_numpy(np.int64)
    wedges = int((d * (d - 1) // 2).sum())
    return pd.DataFrame(
        {
            "n_triangles": [np.int64(n_tri)],
            "n_wedges": [np.int64(wedges)],
            "transitivity": [
                np.float64(np.round(float(3 * n_tri) / float(wedges), 9)) if wedges else np.float64(0.0)
            ],
        }
    )


_GLOBAL_TRANSITIVITY_SQL = """
WITH seq AS (
  SELECT o_orderkey AS u,
         LEAD(o_orderkey, 1) OVER w AS n1,
         LEAD(o_orderkey, 2) OVER w AS n2
  FROM orders
  WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderkey)
),
raw AS (
  SELECT u, n1 AS v FROM seq WHERE n1 IS NOT NULL
  UNION ALL SELECT u, n2 FROM seq WHERE n2 IS NOT NULL
),
e AS MATERIALIZED (
  SELECT DISTINCT LEAST(u, v) AS a, GREATEST(u, v) AS b FROM raw
),
tri AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS t
  FROM e e1 JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
           JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
),
deg AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS d
  FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e) GROUP BY 1
),
w AS (SELECT CAST(SUM(d * (d - 1) // 2) AS BIGINT) AS wedges FROM deg)
SELECT tri.t AS n_triangles, w.wedges AS n_wedges,
       ROUND(CAST(3 * tri.t AS DOUBLE) / CAST(w.wedges AS DOUBLE), 9) AS transitivity
FROM tri, w
"""


def systematic_sample_orders(sf_dir: str) -> pd.DataFrame:
    """Systematic (every k-th) sampling under a GLOBAL total order — the
    deterministic thinning pass that needs the distributed rank, not a
    hash rule: rank all orders by (o_totalprice, o_orderkey) with the
    range-partitioned ``stages/sort.global_rank`` (no single node sees
    the table) and keep rank % 97 == 0.  Unlike the md5 keep-rules
    (stratified/shuffled-shard queries), the kept set here depends on
    the whole ordering — the classic equal-spaced design."""
    from ndap_data_validator_ray.stages.sort import global_rank

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"]).map_batches(
        lambda b: b.dropna(), batch_format="pandas"
    )
    ranked = global_rank(orders, ["o_totalprice", "o_orderkey"], out="rank")
    kept = ranked.map_batches(
        lambda b: b[b["rank"].to_numpy(np.int64) % 97 == 0], batch_format="pandas"
    ).to_pandas()
    out = pd.DataFrame(
        {
            "o_orderkey": kept["o_orderkey"].astype(np.int64),
            "o_totalprice": _r2(kept["o_totalprice"]),
            "rank": kept["rank"].astype(np.int64),
        }
    )
    return out.sort_values("rank").reset_index(drop=True)


_SYSTEMATIC_SAMPLE_SQL = """
WITH r AS (
  SELECT o_orderkey, o_totalprice,
         ROW_NUMBER() OVER (ORDER BY o_totalprice, o_orderkey) AS rank
  FROM orders WHERE o_orderkey IS NOT NULL AND o_totalprice IS NOT NULL
)
SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank % 97 = 0 ORDER BY rank
"""


def user_feature_matrix(sf_dir: str) -> pd.DataFrame:
    """Feature-store materialization: one wide training-feature row per
    user — per-type event counts (pivot), total event value, and the
    account balance attached from the customer dimension (LEFT semantics:
    users without a customer row keep has_customer = 0 and balance 0).
    Distributed shape: per-batch (user, type) count + value partials ride
    ONE bucketed exchange on user_id where the pivot finalizes; the
    customer (key, balance) side goes through the guarded broadcast
    (`attach_or_join` posture, hand-rolled LEFT because the guard is
    inner) — at dimension scale the same lookup rides a bucketed join.
    Money sums quantize to exact integer cents (the registry rounding
    convention handles the emitted dollars)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    types = ["click", "error", "purchase", "signup", "view"]
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["user_id", "event_type"])
        cents = np.floor(b["value"].fillna(0.0).to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        g = (
            pd.DataFrame({"user_id": b["user_id"].to_numpy(np.int64),
                          "event_type": b["event_type"].to_numpy(), "cents": cents})
            .groupby(["user_id", "event_type"], as_index=False)
            .agg(n=("cents", "size"), cents=("cents", "sum"))
        )
        return g

    def pivot(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby(["user_id", "event_type"], as_index=False).sum()
        out = {"user_id": np.sort(f["user_id"].unique())}
        idx = pd.Index(out["user_id"])
        for t in types:
            sub = f[f["event_type"] == t].set_index("user_id")
            out[f"n_{t}"] = sub["n"].reindex(idx, fill_value=0).to_numpy(np.int64)
        cents = f.groupby("user_id")["cents"].sum().reindex(idx, fill_value=0)
        out["sum_value_cents"] = cents.to_numpy(np.int64)
        return pd.DataFrame(out)

    feats = bucketed_groupby(ds, ["user_id"], partial, pivot)
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"]).map_batches(
        lambda b: b.dropna(), batch_format="pandas"
    ).materialize()
    s = cust.to_pandas().sort_values("c_custkey")
    keys = s["c_custkey"].to_numpy(np.int64)
    bals = np.floor(s["c_acctbal"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
    ref = ray.put((keys, bals))

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        ks, vs = ray.get(ref)
        u = b["user_id"].to_numpy(np.int64)
        pos = np.clip(np.searchsorted(ks, u), 0, max(len(ks) - 1, 0))
        hit = (ks[pos] == u) if len(ks) else np.zeros(len(u), dtype=bool)
        b = b.copy()
        b["has_customer"] = hit.astype(np.int64)
        b["acctbal_cents"] = np.where(hit, vs[pos] if len(ks) else 0, 0).astype(np.int64)
        return b

    out = feats.map_batches(attach, batch_format="pandas").to_pandas()
    out["user_id"] = out["user_id"].astype(np.int64)
    return out.sort_values("user_id").reset_index(drop=True)


_USER_FEATURES_SQL = """
WITH e AS (
  SELECT user_id, event_type,
         CAST(FLOOR(COALESCE(value, 0) * 100 + 0.5) AS BIGINT) AS cents
  FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL
),
f AS (
  SELECT user_id,
         CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
         CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
         CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
         CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
         CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view,
         CAST(SUM(cents) AS BIGINT) AS sum_value_cents
  FROM e GROUP BY 1
)
SELECT f.user_id, f.n_click, f.n_error, f.n_purchase, f.n_signup, f.n_view,
       f.sum_value_cents,
       CAST(CASE WHEN c.c_custkey IS NULL THEN 0 ELSE 1 END AS BIGINT) AS has_customer,
       CAST(CASE WHEN c.c_custkey IS NULL THEN 0
            ELSE FLOOR(c.c_acctbal * 100 + 0.5) END AS BIGINT) AS acctbal_cents
FROM f LEFT JOIN customer c ON c.c_custkey = f.user_id AND c.c_acctbal IS NOT NULL
ORDER BY f.user_id
"""


def order_fulfillment_sla(sf_dir: str) -> pd.DataFrame:
    """Order fulfillment SLA audit: share of orders whose LAST line item
    shipped within 30 days of the order date — the cross-table temporal
    aggregate (per-order max, then a dimension-date compare) next to the
    row-level temporal_consistency_audit.  ONE bucketed exchange on
    l_orderkey folds each order's max ship date; the order-date side
    attaches via the guarded broadcast; counts are exact integers and
    the rate is one shared float division."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        d = b.assign(ship=b["l_shipdate"].to_numpy().astype("datetime64[D]").astype(np.int64))
        return d.groupby("l_orderkey", as_index=False)["ship"].max()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("l_orderkey", as_index=False)["ship"].max()

    mx = bucketed_groupby(li, ["l_orderkey"], partial, merge)
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: b.dropna().assign(
            odate=lambda x: x["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        )[["o_orderkey", "odate"]].rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas",
    )
    joined = attach_or_join(mx, orders, on_fact="l_orderkey", on_side="l_orderkey",
                            attach_cols=["odate"])

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        lag = b["ship"].to_numpy(np.int64) - b["odate"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n_orders": [np.int64(len(b))],
                "n_within_30d": [np.int64(int((lag <= 30).sum()))],
                "max_lag_days": [np.int64(int(lag.max())) if len(b) else np.int64(0)],
                "sum_lag_days": [np.int64(int(lag.sum()))],
            }
        )

    p = joined.map_batches(stats, batch_format="pandas").to_pandas()
    n = int(p["n_orders"].sum())
    w = int(p["n_within_30d"].sum())
    return pd.DataFrame(
        {
            "n_orders": [np.int64(n)],
            "n_within_30d": [np.int64(w)],
            "max_lag_days": [np.int64(int(p["max_lag_days"].max())) if len(p) else np.int64(0)],
            "sum_lag_days": [np.int64(int(p["sum_lag_days"].sum()))],
            "sla_rate": [np.float64(np.round(float(w) / float(n), 9)) if n else np.float64(0.0)],
        }
    )


_SLA_SQL = """
WITH m AS (
  SELECT l_orderkey, MAX(CAST(l_shipdate AS DATE)) AS ship
  FROM lineitem WHERE l_orderkey IS NOT NULL AND l_shipdate IS NOT NULL
  GROUP BY 1
),
j AS (
  SELECT datediff('day', CAST(o.o_orderdate AS DATE), m.ship) AS lag
  FROM m JOIN orders o ON o.o_orderkey = m.l_orderkey
  WHERE o.o_orderdate IS NOT NULL
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CASE WHEN lag <= 30 THEN 1 ELSE 0 END) AS BIGINT) AS n_within_30d,
       CAST(MAX(lag) AS BIGINT) AS max_lag_days,
       CAST(SUM(lag) AS BIGINT) AS sum_lag_days,
       ROUND(CAST(SUM(CASE WHEN lag <= 30 THEN 1 ELSE 0 END) AS DOUBLE) / COUNT(*), 9) AS sla_rate
FROM j
"""


def supplier_hhi_parts(sf_dir: str) -> pd.DataFrame:
    """Supplier concentration per part (Herfindahl-Hirschman index of
    supplier line-item shares) — the sourcing-risk profile, exact:
    HHI = Σ c_s² / (Σ c_s)² from integer counts, one shared float
    division per part.  ONE bucketed exchange on l_partkey (each part's
    supplier histogram lands whole in one reducer — per-reducer exact
    fold, O(parts) output rows, supplier sets never on the driver)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.dropna()
            .groupby(["l_partkey", "l_suppkey"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["l_partkey", "l_suppkey"], as_index=False)["n"].sum()
        agg = c.groupby("l_partkey").agg(
            n_lineitems=("n", "sum"),
            n_suppliers=("n", "size"),
            sq=("n", lambda s: int((s.to_numpy(np.int64) ** 2).sum())),
        )
        tot = agg["n_lineitems"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "l_partkey": agg.index.to_numpy(np.int64),
                "n_lineitems": tot,
                "n_suppliers": agg["n_suppliers"].to_numpy(np.int64),
                "hhi": _r9(agg["sq"].to_numpy(np.float64) / (tot.astype(np.float64) * tot.astype(np.float64))),
            }
        )

    out = bucketed_groupby(li, ["l_partkey"], partial, merge).to_pandas()
    out["l_partkey"] = out["l_partkey"].astype(np.int64)
    out["n_lineitems"] = out["n_lineitems"].astype(np.int64)
    out["n_suppliers"] = out["n_suppliers"].astype(np.int64)
    return out.sort_values("l_partkey").reset_index(drop=True)


_SUPPLIER_HHI_SQL = """
WITH c AS (
  SELECT l_partkey, l_suppkey, CAST(COUNT(*) AS BIGINT) AS n
  FROM lineitem WHERE l_partkey IS NOT NULL AND l_suppkey IS NOT NULL
  GROUP BY 1, 2
)
SELECT l_partkey, CAST(SUM(n) AS BIGINT) AS n_lineitems,
       CAST(COUNT(*) AS BIGINT) AS n_suppliers,
       ROUND(CAST(SUM(n * n) AS DOUBLE)
             / (CAST(SUM(n) AS DOUBLE) * CAST(SUM(n) AS DOUBLE)), 9) AS hhi
FROM c GROUP BY l_partkey ORDER BY l_partkey
"""


def dedup_cluster_size_histogram(sf_dir: str) -> pd.DataFrame:
    """Duplicate-cluster size distribution of the exact prefix-40 dedup
    (how much of the corpus sits in 2x, 3x, ... duplicate groups) — the
    dedup telemetry a curation run reports next to the survivor set.
    Two bounded exchanges: prefix groups count in one (each prefix lands
    whole per reducer), the (size, n_clusters) histogram folds from
    per-bucket partials (size domain is tiny) on the driver."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        p = b.dropna(subset=["doc_id"])
        return pd.DataFrame(
            {"prefix": p["text"].fillna("").str.slice(0, 40).to_numpy(), "n": np.int64(1)}
        ).groupby("prefix", as_index=False)["n"].sum()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("prefix")["n"].sum()
        h = sizes.value_counts()
        return pd.DataFrame(
            {"cluster_size": h.index.to_numpy(np.int64), "n_clusters": h.to_numpy(np.int64)}
        )

    p = bucketed_groupby(ds, ["prefix"], partial, merge).to_pandas()
    out = p.groupby("cluster_size", as_index=False)["n_clusters"].sum()
    out["cluster_size"] = out["cluster_size"].astype(np.int64)
    out["n_clusters"] = out["n_clusters"].astype(np.int64)
    out["n_docs"] = (out["cluster_size"] * out["n_clusters"]).astype(np.int64)
    return out.sort_values("cluster_size").reset_index(drop=True)


_DEDUP_HIST_SQL = """
WITH g AS (
  SELECT substr(COALESCE(text, ''), 1, 40) AS prefix, CAST(COUNT(*) AS BIGINT) AS sz
  FROM documents WHERE doc_id IS NOT NULL
  GROUP BY 1
)
SELECT sz AS cluster_size, CAST(COUNT(*) AS BIGINT) AS n_clusters,
       CAST(sz * COUNT(*) AS BIGINT) AS n_docs
FROM g GROUP BY sz ORDER BY cluster_size
"""


def rich_club_copurchase(sf_dir: str) -> pd.DataFrame:
    """Rich-club coefficient of the co-purchase graph: edge density among
    the top-degree nodes (do the hubs trade with each other?).  The
    degree cutoff d* is the EXACT ascending order statistic at 1-based
    rank max(1, n − n//20) — computed from a count-of-counts histogram
    (the kcore order-statistic trick, never a sorted node list); the
    rich set is every node with deg >= d* (ties included —
    deterministic).  Distributed shape: canonical edge dedup + ONE
    degree exchange; both endpoints' degrees attach via the guarded
    broadcast (bucketed join at hub-graph scale) and the rich-edge count
    folds exact; density = one shared float division."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def dedup(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().drop_duplicates()

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame(
            {
                "id_a": m["l_partkey_x"].to_numpy(np.int64),
                "id_b": m["l_partkey_y"].to_numpy(np.int64),
            }
        ).drop_duplicates()

    raw = bucketed_groupby(li, ["l_orderkey"], dedup, pairs)
    edges = bucketed_groupby(
        raw, ["id_a", "id_b"], lambda b: b.drop_duplicates(), lambda g: g.drop_duplicates()
    ).materialize()
    deg = bucketed_groupby(
        edges.map_batches(
            lambda b: pd.DataFrame(
                {"node": np.concatenate([b["id_a"].to_numpy(np.int64), b["id_b"].to_numpy(np.int64)])}
            ),
            batch_format="pandas",
        ),
        ["node"],
        lambda b: b.groupby("node", as_index=False).size().rename(columns={"size": "deg"}),
        lambda g: g.groupby("node", as_index=False)["deg"].sum(),
    ).materialize()

    # d* from the count-of-counts histogram (per-block partials -> driver)
    hist = deg.map_batches(
        lambda b: b.groupby("deg", as_index=False).size().rename(columns={"size": "n"}),
        batch_format="pandas",
    ).to_pandas().groupby("deg", as_index=False)["n"].sum().sort_values("deg")
    n_nodes = int(hist["n"].sum())
    rank = max(1, n_nodes - n_nodes // 20)
    cum = np.cumsum(hist["n"].to_numpy(np.int64))
    d_star = int(hist["deg"].to_numpy(np.int64)[np.searchsorted(cum, rank)])

    rich = deg.map_batches(
        lambda b, d=d_star: b[b["deg"].to_numpy(np.int64) >= d], batch_format="pandas"
    ).materialize()
    n_rich = rich.count()
    e1 = attach_or_join(
        edges.map_batches(lambda b: b.rename(columns={"id_a": "node"}), batch_format="pandas"),
        rich, on_fact="node", on_side="node", attach_cols=["deg"],
    ).map_batches(
        lambda b: b.rename(columns={"node": "id_a", "id_b": "node"})[["id_a", "node"]],
        batch_format="pandas",
    )
    e2 = attach_or_join(e1, rich, on_fact="node", on_side="node", attach_cols=["deg"])
    n_rich_edges = e2.count()
    denom = n_rich * (n_rich - 1) // 2
    return pd.DataFrame(
        {
            "d_star": [np.int64(d_star)],
            "n_rich_nodes": [np.int64(n_rich)],
            "n_rich_edges": [np.int64(n_rich_edges)],
            "density": [
                np.float64(np.round(float(n_rich_edges) / float(denom), 9)) if denom else np.float64(0.0)
            ],
        }
    )


_RICH_CLUB_SQL = """
WITH li AS MATERIALIZED (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
),
e AS MATERIALIZED (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
deg AS MATERIALIZED (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS d
  FROM (SELECT u AS node FROM e UNION ALL SELECT v FROM e) GROUP BY 1
),
ds AS (
  SELECT d AS d_star FROM (SELECT d, ROW_NUMBER() OVER (ORDER BY d) AS rn FROM deg)
  WHERE rn = GREATEST(1, (SELECT COUNT(*) FROM deg) - (SELECT COUNT(*) FROM deg) // 20)
),
rich AS (SELECT node FROM deg, ds WHERE deg.d >= ds.d_star),
re AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS m FROM e
  JOIN rich r1 ON r1.node = e.u JOIN rich r2 ON r2.node = e.v
),
k AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM rich)
SELECT (SELECT CAST(d_star AS BIGINT) FROM ds) AS d_star,
       k.k AS n_rich_nodes, re.m AS n_rich_edges,
       ROUND(CAST(re.m AS DOUBLE) / CAST(k.k * (k.k - 1) // 2 AS DOUBLE), 9) AS density
FROM k, re
"""


def gini_mean_difference_prices(sf_dir: str) -> pd.DataFrame:
    """Gini mean difference of l_extendedprice (mean |x_i − x_j| over all
    pairs) — the robust dispersion scalar, EXACT at any scale via the
    sorted-histogram identity: for a value v with count c and cumulative
    count F before it, its contribution to Σ|x_i − x_j| (each unordered
    pair once) is v·c·(2F + c − n) — pure integers on the integer-cents
    histogram, so the only float is the final normalization by
    n(n−1)/2.  ONE bucketed exchange bounded by the price DOMAIN (the
    weighted-median machinery), Python-int driver fold (the n² cent sum
    outgrows int64 at warehouse scale — HUGEINT twin)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        cents = np.floor(b["l_extendedprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame({"cents": cents}).groupby("cents", as_index=False).size().rename(
            columns={"size": "n"}
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("cents", as_index=False)["n"].sum()

    h = bucketed_groupby(ds, ["cents"], partial, merge).to_pandas().sort_values("cents")
    vals = h["cents"].to_numpy(np.int64)
    cnts = h["n"].to_numpy(np.int64)
    n = int(cnts.sum())
    total = 0
    f = 0
    for v, c in zip(vals, cnts):
        v, c = int(v), int(c)
        total += v * c * (2 * f + c - n)
        f += c
    n_pairs = n * (n - 1) // 2
    return pd.DataFrame(
        {
            "n": [np.int64(n)],
            "sum_abs_diff_cents": [str(total)],
            "gmd_dollars": [
                np.float64(np.round(float(total) / float(n_pairs) / 100.0, 6)) if n_pairs else np.float64(0.0)
            ],
        }
    )


_GMD_SQL = """
WITH h AS (
  SELECT CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS v,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM lineitem WHERE l_extendedprice IS NOT NULL GROUP BY 1
),
c AS (
  SELECT v, c,
         COALESCE(SUM(c) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS f,
         SUM(c) OVER () AS n
  FROM h
),
s AS (
  SELECT MAX(n) AS n,
         SUM(CAST(v AS HUGEINT) * c * (2 * f + c - n)) AS total
  FROM c
)
SELECT CAST(n AS BIGINT) AS n,
       CAST(total AS VARCHAR) AS sum_abs_diff_cents,
       ROUND(CAST(total AS DOUBLE) / CAST(n * (n - 1) // 2 AS DOUBLE) / 100.0, 6) AS gmd_dollars
FROM s
"""


def coalesced_order_windows(sf_dir: str) -> pd.DataFrame:
    """Interval coalescing (the SQL gaps-and-islands merge): each order
    opens a 14-day activity window; per customer, overlapping/touching
    windows merge into maximal spans — the session-building primitive at
    interval granularity (overlapping_order_windows finds PAIRS; this
    merges them).  ONE bucketed exchange on o_custkey: each reducer
    sorts its customers' windows and merges with the vectorized
    running-max rule (a window starts a new span iff its start exceeds
    the running max end of everything before it); output is the
    per-customer span summary in exact integer days."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def spans(part: pd.DataFrame) -> pd.DataFrame:
        p = part.dropna().copy()
        p["s"] = p["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        p["e"] = p["s"] + 14
        p = p.sort_values(["o_custkey", "s", "e"])
        rows = []
        for ck, g in p.groupby("o_custkey", sort=False):
            s = g["s"].to_numpy(np.int64)
            e = g["e"].to_numpy(np.int64)
            run_max = np.maximum.accumulate(e)
            new_span = np.ones(len(s), dtype=bool)
            new_span[1:] = s[1:] > run_max[:-1]
            span_id = np.cumsum(new_span)
            n_spans = int(span_id[-1])
            covered = 0
            for sid in range(1, n_spans + 1):
                sel = span_id == sid
                covered += int(run_max[sel][-1] - s[sel][0])
            rows.append((int(ck), len(s), n_spans, covered))
        if not rows:
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64)
                 for c in ["o_custkey", "n_orders", "n_spans", "covered_days"]}
            )
        out = pd.DataFrame(rows, columns=["o_custkey", "n_orders", "n_spans", "covered_days"])
        return out.astype(np.int64)

    out = bucketed_groupby(orders, ["o_custkey"], lambda b: b.dropna(), spans).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("o_custkey").reset_index(drop=True)


_COALESCE_WINDOWS_SQL = """
WITH w AS (
  SELECT o_custkey, CAST(o_orderdate AS DATE) AS s,
         CAST(o_orderdate AS DATE) + INTERVAL 14 DAY AS e
  FROM orders WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL
),
m AS (
  SELECT o_custkey, s, e,
         MAX(e) OVER (PARTITION BY o_custkey ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_max
  FROM w
),
t AS (
  SELECT o_custkey, s, e,
         CASE WHEN prev_max IS NULL OR s > CAST(prev_max AS DATE) THEN 1 ELSE 0 END AS is_new
  FROM m
),
g AS (
  SELECT o_custkey, s, e,
         SUM(is_new) OVER (PARTITION BY o_custkey ORDER BY s, e
                           ROWS UNBOUNDED PRECEDING) AS span_id
  FROM t
),
sp AS (
  SELECT o_custkey, span_id,
         datediff('day', MIN(s), MAX(CAST(e AS DATE))) AS span_days
  FROM g GROUP BY 1, 2
)
SELECT o_custkey,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM w w2 WHERE w2.o_custkey = sp.o_custkey) AS n_orders,
       CAST(COUNT(*) AS BIGINT) AS n_spans,
       CAST(SUM(span_days) AS BIGINT) AS covered_days
FROM sp GROUP BY o_custkey ORDER BY o_custkey
"""


def longest_order_day_streak(sf_dir: str) -> pd.DataFrame:
    """Longest run of consecutive calendar days with at least one order —
    the gaps-and-islands scalar over the whole stream.  Distributed
    shape: per-block distinct days fold on the driver (calendar-bounded,
    the daily-series rule); the streak scan is a vectorized diff over
    the sorted bounded day list.  DuckDB reproduces it with the classic
    day − ROW_NUMBER island key."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        day = np.unique(b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64))
        return pd.DataFrame({"day": day})

    p = orders.map_batches(partial, batch_format="pandas").to_pandas()
    days = np.unique(p["day"].to_numpy(np.int64))
    if not len(days):
        return pd.DataFrame({"n_days": [np.int64(0)], "longest_streak": [np.int64(0)],
                             "streak_start": [""]})
    breaks = np.nonzero(np.diff(days) != 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(days) - 1]])
    lengths = ends - starts + 1
    best = int(np.argmax(lengths))  # first maximal streak (ties -> earliest)
    return pd.DataFrame(
        {
            "n_days": [np.int64(len(days))],
            "longest_streak": [np.int64(int(lengths[best]))],
            "streak_start": [
                np.datetime_as_string(days[starts[best]].astype("datetime64[D]"), unit="D")
            ],
        }
    )


_STREAK_SQL = """
WITH d AS (
  SELECT DISTINCT CAST(o_orderdate AS DATE) AS day
  FROM orders WHERE o_orderdate IS NOT NULL
),
i AS (
  SELECT day, day - CAST(ROW_NUMBER() OVER (ORDER BY day) AS INTEGER) AS island
  FROM d
),
s AS (
  SELECT island, CAST(COUNT(*) AS BIGINT) AS len, MIN(day) AS start
  FROM i GROUP BY island
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM d) AS n_days,
       len AS longest_streak,
       strftime(start, '%Y-%m-%d') AS streak_start
FROM s ORDER BY len DESC, start LIMIT 1
"""


def hashed_bow_features(sf_dir: str) -> pd.DataFrame:
    """Hashing-trick featurization: each document becomes a 16-bucket
    hashed bag-of-words count vector (the fixed-width text feature map a
    downstream trainer consumes without a vocabulary) — buckets keyed by
    ``md5_lower64(token) % 16`` so DuckDB recomputes every feature
    verbatim via ``md5_number_lower``.  Streaming one-pass shape: a doc's
    tokens never leave its block (tokenize + hash + bincount per row,
    vectorized via the batch-level md5 memo); no shuffle, no vocabulary,
    O(16) ints per doc."""
    from ndap_data_validator_ray.functions.hashing import md5_lower64_batch

    n_buckets = 16
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def feats(b: pd.DataFrame) -> pd.DataFrame:
        out = np.zeros((len(b), n_buckets), dtype=np.int64)
        texts = b["text"].fillna("").tolist()
        toks_per_doc = [t.split() for t in texts]
        flat = [tok for toks in toks_per_doc for tok in toks]
        if flat:
            h = (md5_lower64_batch(flat) % n_buckets).astype(np.int64)
            row_id = np.repeat(
                np.arange(len(b)), np.fromiter((len(t) for t in toks_per_doc), dtype=np.int64)
            )
            np.add.at(out, (row_id, h), 1)
        cols = {"doc_id": b["doc_id"].to_numpy(np.int64)}
        for k in range(n_buckets):
            cols[f"f{k:02d}"] = out[:, k]
        return pd.DataFrame(cols)

    out = ds.map_batches(feats, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


_HASHED_BOW_SQL = (
    "WITH t AS (\n"
    "  SELECT doc_id, UNNEST(list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'),\n"
    "                                    x -> x <> '')) AS tok\n"
    "  FROM documents\n"
    "),\n"
    "h AS (SELECT doc_id, md5_number_lower(tok) % 16 AS b FROM t)\n"
    "SELECT d.doc_id,\n"
    + ",\n".join(
        f"  CAST(COALESCE(SUM(CASE WHEN h.b = {k} THEN 1 END), 0) AS BIGINT) AS f{k:02d}"
        for k in range(16)
    )
    + "\nFROM documents d LEFT JOIN h ON h.doc_id = d.doc_id\n"
    "GROUP BY d.doc_id ORDER BY d.doc_id"
)


def order_value_mobility_matrix(sf_dir: str) -> pd.DataFrame:
    """Order-value decile mobility: the 10x10 transition matrix between
    the value deciles of a customer's consecutive orders — the customer-
    trajectory summary composing two distributed primitives: the
    range-partitioned GLOBAL rank (decile = (10·(rank−1))//n from
    ROW_NUMBER over (cents, orderkey) — deterministic under ties, unlike
    NTILE) and the per-customer LAG inside ONE o_custkey exchange
    (consecutive by date, then orderkey).  The 100-cell count fold is
    exact integers (low-cardinality driver rule)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby
    from ndap_data_validator_ray.stages.sort import global_rank

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    ).map_batches(
        lambda b: b.dropna().assign(
            cents=lambda x: np.floor(x["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(
                np.int64
            )
        ),
        batch_format="pandas",
    )
    ranked = global_rank(orders, ["cents", "o_orderkey"], out="rank").materialize()
    n = ranked.count()

    def decile(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["dec"] = (10 * (b["rank"].to_numpy(np.int64) - 1)) // n
        return b[["o_custkey", "o_orderdate", "o_orderkey", "dec"]]

    dd = ranked.map_batches(decile, batch_format="pandas")

    def transitions(part: pd.DataFrame) -> pd.DataFrame:
        p = part.sort_values(["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort")
        ck = p["o_custkey"].to_numpy(np.int64)
        dc = p["dec"].to_numpy(np.int64)
        if len(p) < 2:
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64) for c in ["from_decile", "to_decile", "n"]}
            )
        same = ck[1:] == ck[:-1]
        g = (
            pd.DataFrame({"from_decile": dc[:-1][same], "to_decile": dc[1:][same]})
            .groupby(["from_decile", "to_decile"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return g

    parts = bucketed_groupby(dd, ["o_custkey"], lambda b: b, transitions).to_pandas()
    out = parts.groupby(["from_decile", "to_decile"], as_index=False)["n"].sum()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["from_decile", "to_decile"]).reset_index(drop=True)


_MOBILITY_SQL = """
WITH o AS (
  SELECT o_orderkey, o_custkey, o_orderdate,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
  WHERE o_orderkey IS NOT NULL AND o_custkey IS NOT NULL
    AND o_orderdate IS NOT NULL AND o_totalprice IS NOT NULL
),
r AS (
  SELECT o_custkey, o_orderdate, o_orderkey,
         (10 * (ROW_NUMBER() OVER (ORDER BY cents, o_orderkey) - 1))
           // (SELECT COUNT(*) FROM o) AS dec
  FROM o
),
s AS (
  SELECT dec,
         LEAD(dec) OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey) AS nxt
  FROM r
)
SELECT CAST(dec AS BIGINT) AS from_decile, CAST(nxt AS BIGINT) AS to_decile,
       CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE nxt IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


def view_to_purchase_latency_quantiles(sf_dir: str) -> pd.DataFrame:
    """Funnel latency distribution: per user, seconds from FIRST view to
    FIRST subsequent purchase; P50/P90 over converting users — the
    time-to-convert read behind funnel_conversion_events' counts.  ONE
    bucketed exchange on user_id (first-view/first-purchase are per-user
    scans under the total order (ts, event_id)); per-user latencies are
    exact integer seconds, folded on the driver (O(users) rows at
    fixture scale; the percentile uses the PERCENTILE_CONT-bit-exact
    interpolation convention)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def lat(part: pd.DataFrame) -> pd.DataFrame:
        p = part.dropna().sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        rows = []
        for uid, g in p.groupby("user_id", sort=False):
            et = g["event_type"].to_numpy()
            t = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            vi = np.nonzero(et == "view")[0]
            if not len(vi):
                continue
            first_view = vi[0]
            pi = np.nonzero((et == "purchase") & (np.arange(len(et)) > first_view))[0]
            if not len(pi):
                continue
            rows.append((int(t[pi[0]] - t[first_view]) // 1_000_000,))
        return pd.DataFrame(rows, columns=["lat_s"]) if rows else pd.DataFrame(
            {"lat_s": pd.Series([], dtype=np.int64)}
        )

    lats = bucketed_groupby(ds, ["user_id"], lambda b: b.dropna(), lat).to_pandas()
    v = np.sort(lats["lat_s"].to_numpy(np.int64))
    if not len(v):
        return pd.DataFrame({"n_converting": [np.int64(0)], "p50_s": [np.float64(0.0)],
                             "p90_s": [np.float64(0.0)]})

    def pct(q: float) -> float:
        pos = q * (len(v) - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        return float(v[lo]) + (pos - lo) * (float(v[hi]) - float(v[lo]))

    return pd.DataFrame(
        {
            "n_converting": [np.int64(len(v))],
            "p50_s": [np.float64(np.round(pct(0.5), 6))],
            "p90_s": [np.float64(np.round(pct(0.9), 6))],
        }
    )


_VIEW_PURCHASE_LATENCY_SQL = """
WITH e AS (
  SELECT user_id, event_type, ts, event_id
  FROM events
  WHERE user_id IS NOT NULL AND event_type IS NOT NULL AND ts IS NOT NULL AND event_id IS NOT NULL
),
fv AS (
  SELECT user_id, MIN(struct_pack(ts := ts, event_id := event_id)) AS first_view
  FROM e WHERE event_type = 'view' GROUP BY 1
),
fp AS (
  SELECT e.user_id, MIN(e.ts) AS pts
  FROM e JOIN fv ON fv.user_id = e.user_id
  WHERE e.event_type = 'purchase'
    AND (e.ts > fv.first_view.ts OR (e.ts = fv.first_view.ts AND e.event_id > fv.first_view.event_id))
  GROUP BY 1
),
l AS (
  SELECT CAST(datediff('microsecond', fv.first_view.ts, fp.pts) // 1000000 AS BIGINT) AS lat_s
  FROM fv JOIN fp ON fp.user_id = fv.user_id
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_converting,
       ROUND(PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY lat_s), 6) AS p50_s,
       ROUND(PERCENTILE_CONT(0.9) WITHIN GROUP (ORDER BY lat_s), 6) AS p90_s
FROM l
"""


def mixture_reweighting_plan(sf_dir: str) -> pd.DataFrame:
    """Mixture reweighting plan: per-source sampling weights that would
    equalize token mass across sources (weight_s = target/actual with
    target = total/n_sources) — the knob-setting artifact a mixture
    builder consumes (temperature_mixture applies a policy; this derives
    one).  ONE streaming pass: per-block (source, token-count) partials
    fold on the driver (source cardinality-bounded); weights are single
    shared float expressions over exact integers."""
    from ndap_data_validator_ray.functions.text import token_count

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["source"])
        return pd.DataFrame(
            {"source": b["source"].to_numpy(), "toks": token_count(b["text"]).astype(np.int64)}
        ).groupby("source", as_index=False)["toks"].sum()

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = p.groupby("source", as_index=False)["toks"].sum()
    total = int(g["toks"].sum())
    ns = len(g)
    toks = g["toks"].to_numpy(np.int64)
    out = pd.DataFrame(
        {
            "source": g["source"],
            "n_tokens": toks,
            "token_share": _r9(toks.astype(np.float64) / total),
            "weight": _r9((float(total) / ns) / toks.astype(np.float64)),
        }
    )
    out["n_tokens"] = out["n_tokens"].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


_MIXTURE_PLAN_SQL = r"""
WITH t AS (
  SELECT source,
         CAST(SUM(CASE WHEN trim(COALESCE(text, '')) = '' THEN 0
              ELSE array_length(regexp_split_to_array(trim(text), '\s+')) END) AS BIGINT) AS n_tokens
  FROM documents WHERE source IS NOT NULL
  GROUP BY 1
)
SELECT source, n_tokens,
       ROUND(CAST(n_tokens AS DOUBLE) / (SELECT SUM(n_tokens) FROM t), 9) AS token_share,
       ROUND((CAST((SELECT SUM(n_tokens) FROM t) AS DOUBLE) / (SELECT COUNT(*) FROM t))
             / CAST(n_tokens AS DOUBLE), 9) AS weight
FROM t ORDER BY source
"""


def similar_user_pairs_behavior(sf_dir: str) -> pd.DataFrame:
    """Top-20 behaviorally-similar user pairs by cosine of their
    event-type count vectors — collaborative-filtering-style entity
    similarity with a DETERMINISTIC cross-engine ranking: the count
    vectors are exact integers, so cos = dot/sqrt(|a|²·|b|²) is ONE
    shared float expression per pair (bit-identical in DuckDB) and the
    sort (cos DESC, user_a, user_b) is total.  Distributed shape: the
    per-user 5-vector folds from block partials (users x types bounded
    at fixture scale — the corr_matrix driver-fold class, documented);
    the all-pairs scoring is vectorized numpy on the bounded vector
    table."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    types = ["click", "error", "purchase", "signup", "view"]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        return b.groupby(["user_id", "event_type"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    f = p.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
    users = np.sort(f["user_id"].unique())
    m = np.zeros((len(users), len(types)), dtype=np.int64)
    uidx = {int(u): i for i, u in enumerate(users)}
    tidx = {t: j for j, t in enumerate(types)}
    for r in f.itertuples():
        if r.event_type in tidx:
            m[uidx[int(r.user_id)], tidx[r.event_type]] = int(r.n)
    dots = m @ m.T
    norms2 = (m * m).sum(axis=1)
    iu, ju = np.triu_indices(len(users), k=1)
    cos = dots[iu, ju].astype(np.float64) / np.sqrt(
        norms2[iu].astype(np.float64) * norms2[ju].astype(np.float64)
    )
    df = pd.DataFrame(
        {
            "user_a": users[iu].astype(np.int64),
            "user_b": users[ju].astype(np.int64),
            "cos_sim": cos,
        }
    )
    df = df.sort_values(["cos_sim", "user_a", "user_b"], ascending=[False, True, True]).head(20)
    df["cos_sim"] = _r9(df["cos_sim"])
    return df.reset_index(drop=True)


_SIMILAR_USERS_SQL = """
WITH f AS (
  SELECT user_id,
         CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS c1,
         CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS c2,
         CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS c3,
         CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS c4,
         CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS c5
  FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL
  GROUP BY 1
),
p AS (
  SELECT a.user_id AS user_a, b.user_id AS user_b,
         CAST(a.c1 * b.c1 + a.c2 * b.c2 + a.c3 * b.c3 + a.c4 * b.c4 + a.c5 * b.c5 AS DOUBLE)
         / SQRT(CAST(a.c1 * a.c1 + a.c2 * a.c2 + a.c3 * a.c3 + a.c4 * a.c4 + a.c5 * a.c5 AS DOUBLE)
                * CAST(b.c1 * b.c1 + b.c2 * b.c2 + b.c3 * b.c3 + b.c4 * b.c4 + b.c5 * b.c5 AS DOUBLE)
               ) AS cos_sim
  FROM f a JOIN f b ON a.user_id < b.user_id
)
SELECT user_a, user_b, ROUND(cos_sim, 9) AS cos_sim
FROM p ORDER BY cos_sim DESC, user_a, user_b LIMIT 20
"""


def corpus_health_report(sf_dir: str) -> pd.DataFrame:
    """One-pass corpus health report — the summary artifact a curation
    run publishes, composing the registry's oracled building blocks into
    a (metric, value) table: doc/token totals, empty and short docs,
    exact prefix-duplicate mass, dominant-language share, and distinct
    sources.  ONE streaming pass computes every per-block partial except
    the duplicate mass, which pays the registry's standard prefix
    exchange; all values are exact integers."""
    from ndap_data_validator_ray.functions.text import token_count
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang", "source"]).materialize()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["doc_id"])
        txt = b["text"].fillna("")
        toks = token_count(b["text"]).astype(np.int64)
        langs = b["lang"].fillna("").to_numpy()
        rows = [
            ("n_docs", len(b)),
            ("n_tokens", int(toks.sum())),
            ("n_empty_docs", int((txt.str.strip() == "").sum())),
            ("n_short_docs_lt20tok", int((toks < 20).sum())),
        ]
        lc = pd.Series(langs).value_counts()
        for lg, c in lc.items():
            rows.append((f"lang:{lg}", int(c)))
        return pd.DataFrame(rows, columns=["metric", "value"])

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = p.groupby("metric")["value"].sum()

    # distinct sources exactly (sources are few; distinct per block then set-fold)
    def srcs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"source": b["source"].dropna().unique()})

    n_sources = int(ds.map_batches(srcs, batch_format="pandas").to_pandas()["source"].nunique())

    def dup_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b.dropna(subset=["doc_id"])
        return pd.DataFrame(
            {"prefix": d["text"].fillna("").str.slice(0, 40).to_numpy(), "n": np.int64(1)}
        ).groupby("prefix", as_index=False)["n"].sum()

    def dup_merge(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("prefix")["n"].sum()
        return pd.DataFrame(
            {"dups": [np.int64(int((sizes[sizes > 1]).sum() - (sizes > 1).sum()))]}
        )

    dup_rows = int(
        bucketed_groupby(ds, ["prefix"], dup_partial, dup_merge).to_pandas()["dups"].sum()
    )

    langs = {k: v for k, v in agg.items() if k.startswith("lang:")}
    dom_lang, dom_n = ("", 0)
    if langs:
        dom_lang = min([k for k, v in langs.items() if v == max(langs.values())])
        dom_n = int(langs[dom_lang])
    rows = [
        ("dominant_lang_docs", dom_n),
        ("n_distinct_sources", n_sources),
        ("n_docs", int(agg.get("n_docs", 0))),
        ("n_duplicate_docs_excess", dup_rows),
        ("n_empty_docs", int(agg.get("n_empty_docs", 0))),
        ("n_short_docs_lt20tok", int(agg.get("n_short_docs_lt20tok", 0))),
        ("n_tokens", int(agg.get("n_tokens", 0))),
    ]
    out = pd.DataFrame(rows, columns=["metric", "value"])
    out["value"] = out["value"].astype(np.int64)
    return out.sort_values("metric").reset_index(drop=True)


_CORPUS_HEALTH_SQL = r"""
WITH d AS (
  SELECT doc_id, COALESCE(text, '') AS text, lang, source
  FROM documents WHERE doc_id IS NOT NULL
),
tok AS (
  SELECT CASE WHEN trim(text) = '' THEN 0
         ELSE array_length(regexp_split_to_array(trim(text), '\s+')) END AS n_tok,
         text, lang, source
  FROM d
),
dup AS (
  SELECT CAST(SUM(c - 1) AS BIGINT) AS excess
  FROM (SELECT substr(text, 1, 40) AS p, COUNT(*) AS c FROM d GROUP BY 1 HAVING COUNT(*) > 1)
),
doml AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n FROM d
  GROUP BY COALESCE(lang, '') ORDER BY n DESC, COALESCE(lang, '') LIMIT 1
)
SELECT 'dominant_lang_docs' AS metric, (SELECT n FROM doml) AS value
UNION ALL SELECT 'n_distinct_sources', (SELECT CAST(COUNT(DISTINCT source) AS BIGINT) FROM d WHERE source IS NOT NULL)
UNION ALL SELECT 'n_docs', (SELECT CAST(COUNT(*) AS BIGINT) FROM d)
UNION ALL SELECT 'n_duplicate_docs_excess', (SELECT COALESCE(excess, 0) FROM dup)
UNION ALL SELECT 'n_empty_docs', (SELECT CAST(SUM(CASE WHEN trim(text) = '' THEN 1 ELSE 0 END) AS BIGINT) FROM d)
UNION ALL SELECT 'n_short_docs_lt20tok', (SELECT CAST(SUM(CASE WHEN n_tok < 20 THEN 1 ELSE 0 END) AS BIGINT) FROM tok)
UNION ALL SELECT 'n_tokens', (SELECT CAST(SUM(n_tok) AS BIGINT) FROM tok)
ORDER BY metric
"""


def quality_vs_duplication(sf_dir: str) -> pd.DataFrame:
    """Signal-correlation audit: are duplicated documents lower quality?
    The 2x2 contingency of the curation funnel's quality flag (token
    count >= 20 AND top-token fraction <= 0.13, the funnel rule
    verbatim) against prefix-40 duplicate membership (cluster size >= 2),
    plus the exact-integer odds ratio.  ONE bucketed exchange on the
    prefix: reducers see each cluster whole, flag dup membership, and
    emit 2x2 count partials — the driver folds four integers."""
    from ndap_data_validator_ray.functions.text import repetition_stats
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["doc_id"])
        st = repetition_stats(b["text"])
        q = (
            (st["n_tokens"].to_numpy() >= 20) & (st["top_token_frac"].to_numpy() <= 0.13)
        ).astype(np.int64)
        return pd.DataFrame(
            {"prefix": b["text"].fillna("").str.slice(0, 40).to_numpy(), "q": q}
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("prefix")["q"].transform("size")
        dup = (sizes >= 2).to_numpy()
        q = g["q"].to_numpy(np.int64) == 1
        return pd.DataFrame(
            {
                "n_q_dup": [np.int64(int((q & dup).sum()))],
                "n_q_uniq": [np.int64(int((q & ~dup).sum()))],
                "n_nq_dup": [np.int64(int((~q & dup).sum()))],
                "n_nq_uniq": [np.int64(int((~q & ~dup).sum()))],
            }
        )

    p = bucketed_groupby(ds, ["prefix"], flags, fold).to_pandas()
    a = int(p["n_q_dup"].sum())
    b_ = int(p["n_q_uniq"].sum())
    c = int(p["n_nq_dup"].sum())
    d = int(p["n_nq_uniq"].sum())
    orr = float(a * d) / float(b_ * c) if b_ * c else 0.0
    return pd.DataFrame(
        {
            "n_q_dup": [np.int64(a)],
            "n_q_uniq": [np.int64(b_)],
            "n_nq_dup": [np.int64(c)],
            "n_nq_uniq": [np.int64(d)],
            "odds_ratio": [np.float64(np.round(orr, 6))],
        }
    )


_QUALITY_DUP_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents WHERE doc_id IS NOT NULL
),
cnt AS (SELECT doc_id, term, COUNT(*) AS c FROM toks GROUP BY doc_id, term),
agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens, MAX(c) AS mx FROM cnt GROUP BY doc_id),
f AS (
  SELECT d.doc_id,
         CASE WHEN COALESCE(n_tokens, 0) >= 20
               AND COALESCE(CAST(mx AS DOUBLE) / n_tokens, 0.0) <= 0.13 THEN 1 ELSE 0 END AS q,
         CASE WHEN COUNT(*) OVER (PARTITION BY substr(COALESCE(d.text, ''), 1, 40)) >= 2
              THEN 1 ELSE 0 END AS dup
  FROM documents d LEFT JOIN agg USING (doc_id)
  WHERE d.doc_id IS NOT NULL
),
s AS (
  SELECT CAST(SUM(CASE WHEN q = 1 AND dup = 1 THEN 1 ELSE 0 END) AS BIGINT) AS a,
         CAST(SUM(CASE WHEN q = 1 AND dup = 0 THEN 1 ELSE 0 END) AS BIGINT) AS b,
         CAST(SUM(CASE WHEN q = 0 AND dup = 1 THEN 1 ELSE 0 END) AS BIGINT) AS c,
         CAST(SUM(CASE WHEN q = 0 AND dup = 0 THEN 1 ELSE 0 END) AS BIGINT) AS d
  FROM f
)
SELECT a AS n_q_dup, b AS n_q_uniq, c AS n_nq_dup, d AS n_nq_uniq,
       CASE WHEN b * c = 0 THEN 0.0
            ELSE ROUND(CAST(a * d AS DOUBLE) / CAST(b * c AS DOUBLE), 6) END AS odds_ratio
FROM s
"""


def column_entropy_profile(sf_dir: str) -> pd.DataFrame:
    """Categorical-column entropy profile across tables — the schema-
    level information audit (how many effective values does each enum
    column carry?): per column, row count, distinct count, and Shannon
    entropy in bits from exact integer counts (<= a few dozen float
    terms per column, round 9 — the event_type_entropy convention).
    Each column is one projected streaming pass with a cardinality-
    bounded driver fold; no shuffles."""
    specs = [
        ("documents.lang", "documents", "lang"),
        ("events.event_type", "events", "event_type"),
        ("lineitem.l_returnflag", "lineitem", "l_returnflag"),
        ("orders.o_orderpriority", "orders", "o_orderpriority"),
        ("orders.o_orderstatus", "orders", "o_orderstatus"),
    ]
    rows = []
    for name, table, col in specs:
        ds = _read(sf_dir, table, columns=[col])

        def partial(b: pd.DataFrame, col=col) -> pd.DataFrame:
            v = b[col].dropna()
            g = v.value_counts()
            return pd.DataFrame({"val": g.index.to_numpy(), "n": g.to_numpy().astype(np.int64)})

        p = ds.map_batches(partial, batch_format="pandas").to_pandas()
        g = p.groupby("val")["n"].sum()
        n = int(g.sum())
        pr = g.to_numpy(np.float64) / n
        h = float(-np.sum(pr * np.log2(pr))) if n else 0.0
        rows.append((name, n, len(g), np.round(h, 9)))
    out = pd.DataFrame(rows, columns=["column", "n_rows", "n_distinct", "entropy_bits"])
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["n_distinct"] = out["n_distinct"].astype(np.int64)
    out["entropy_bits"] = out["entropy_bits"].astype(np.float64)
    return out.sort_values("column").reset_index(drop=True)


_COLUMN_ENTROPY_SQL = """
WITH e1 AS (
  SELECT 'documents.lang' AS col, CAST(COUNT(*) AS BIGINT) AS n FROM documents WHERE lang IS NOT NULL GROUP BY lang
), e2 AS (
  SELECT 'events.event_type', CAST(COUNT(*) AS BIGINT) FROM events WHERE event_type IS NOT NULL GROUP BY event_type
), e3 AS (
  SELECT 'lineitem.l_returnflag', CAST(COUNT(*) AS BIGINT) FROM lineitem WHERE l_returnflag IS NOT NULL GROUP BY l_returnflag
), e4 AS (
  SELECT 'orders.o_orderpriority', CAST(COUNT(*) AS BIGINT) FROM orders WHERE o_orderpriority IS NOT NULL GROUP BY o_orderpriority
), e5 AS (
  SELECT 'orders.o_orderstatus', CAST(COUNT(*) AS BIGINT) FROM orders WHERE o_orderstatus IS NOT NULL GROUP BY o_orderstatus
),
u AS (
  SELECT * FROM e1 UNION ALL SELECT * FROM e2 UNION ALL SELECT * FROM e3
  UNION ALL SELECT * FROM e4 UNION ALL SELECT * FROM e5
),
t AS (SELECT col, n, SUM(n) OVER (PARTITION BY col) AS tot FROM u)
SELECT col AS "column", CAST(MAX(tot) AS BIGINT) AS n_rows,
       CAST(COUNT(*) AS BIGINT) AS n_distinct,
       ROUND(-SUM((CAST(n AS DOUBLE) / CAST(tot AS DOUBLE))
                  * log2(CAST(n AS DOUBLE) / CAST(tot AS DOUBLE))), 9) AS entropy_bits
FROM t GROUP BY col ORDER BY col
"""


def naive_gap_backtest(sf_dir: str) -> pd.DataFrame:
    """Backtest of the naive next-order forecast (predict the next
    inter-order gap with the previous gap): MAE over every order with
    two predecessors — the forecast-audit counterpart of
    inter_order_gap_stats, EXACT integers end to end (errors are
    |gap_i − gap_{i−1}| in whole days).  ONE bucketed exchange on
    o_custkey; the driver folds (n, Σ|err|) partials."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_orderkey"])

    def errs(part: pd.DataFrame) -> pd.DataFrame:
        p = part.dropna().sort_values(["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort")
        ck = p["o_custkey"].to_numpy(np.int64)
        d = p["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        n_preds = 0
        sae = 0
        for _, idx in pd.Series(np.arange(len(p))).groupby(ck, sort=False):
            di = d[idx.to_numpy()]
            if len(di) < 3:
                continue
            gaps = np.diff(di)
            err = np.abs(np.diff(gaps))
            n_preds += len(err)
            sae += int(err.sum())
        return pd.DataFrame({"n_preds": [np.int64(n_preds)], "sae": [np.int64(sae)]})

    p = bucketed_groupby(orders, ["o_custkey"], lambda b: b.dropna(), errs).to_pandas()
    n = int(p["n_preds"].sum())
    sae = int(p["sae"].sum())
    return pd.DataFrame(
        {
            "n_preds": [np.int64(n)],
            "sum_abs_err_days": [np.int64(sae)],
            "mae_days": [np.float64(np.round(float(sae) / n, 6)) if n else np.float64(0.0)],
        }
    )


_GAP_BACKTEST_SQL = """
WITH o AS (
  SELECT o_custkey, CAST(o_orderdate AS DATE) AS d, o_orderkey
  FROM orders WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL AND o_orderkey IS NOT NULL
),
g AS (
  SELECT o_custkey,
         CAST(d - LAG(d) OVER w AS BIGINT) AS gap,
         CAST(LAG(d) OVER w - LAG(d, 2) OVER w AS BIGINT) AS prev_gap
  FROM o WINDOW w AS (PARTITION BY o_custkey ORDER BY d, o_orderkey)
),
e AS (SELECT ABS(gap - prev_gap) AS err FROM g WHERE gap IS NOT NULL AND prev_gap IS NOT NULL)
SELECT CAST(COUNT(*) AS BIGINT) AS n_preds,
       CAST(COALESCE(SUM(err), 0) AS BIGINT) AS sum_abs_err_days,
       CASE WHEN COUNT(*) = 0 THEN 0.0
            ELSE ROUND(CAST(SUM(err) AS DOUBLE) / COUNT(*), 6) END AS mae_days
FROM e
"""


def temporal_split_leakage(sf_dir: str) -> pd.DataFrame:
    """Temporal-split leakage audit: split orders at 1999-01-01 into
    train (before) / test (at or after) and count the entity overlap —
    customers present on BOTH sides of the cut are the leakage channel a
    time-based eval split must account for (the temporal cousin of the
    near-dup leakage_safe_split).  ONE bucketed exchange on o_custkey
    OR-folds a side bitmask per customer (the join-key-overlap pattern);
    order counts are streaming partials; all integers exact, rates one
    shared division."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    cut = np.datetime64("1999-01-01").astype("datetime64[D]").astype(np.int64)
    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        day = b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        bit = np.where(day < cut, 1, 2).astype(np.int64)
        g = pd.DataFrame({"o_custkey": b["o_custkey"].to_numpy(np.int64), "bit": bit})
        return g.groupby("o_custkey", as_index=False)["bit"].agg(
            lambda s: int(np.bitwise_or.reduce(s.to_numpy()))
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("o_custkey")["bit"].agg(lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        v = m.to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n_train_only": [np.int64(int((v == 1).sum()))],
                "n_test_only": [np.int64(int((v == 2).sum()))],
                "n_both": [np.int64(int((v == 3).sum()))],
            }
        )

    p = bucketed_groupby(ds, ["o_custkey"], partial, merge).to_pandas()
    tr = int(p["n_train_only"].sum())
    te = int(p["n_test_only"].sum())
    bo = int(p["n_both"].sum())
    tot = tr + te + bo
    return pd.DataFrame(
        {
            "n_train_only": [np.int64(tr)],
            "n_test_only": [np.int64(te)],
            "n_both": [np.int64(bo)],
            "leak_rate": [np.float64(np.round(float(bo) / tot, 9)) if tot else np.float64(0.0)],
        }
    )


_TEMPORAL_LEAK_SQL = """
WITH c AS (
  SELECT o_custkey,
         MAX(CASE WHEN o_orderdate < TIMESTAMP '1999-01-01' THEN 1 ELSE 0 END) AS tr,
         MAX(CASE WHEN o_orderdate >= TIMESTAMP '1999-01-01' THEN 1 ELSE 0 END) AS te
  FROM orders WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL
  GROUP BY 1
)
SELECT CAST(SUM(CASE WHEN tr = 1 AND te = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_train_only,
       CAST(SUM(CASE WHEN tr = 0 AND te = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_test_only,
       CAST(SUM(CASE WHEN tr = 1 AND te = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_both,
       ROUND(CAST(SUM(CASE WHEN tr = 1 AND te = 1 THEN 1 ELSE 0 END) AS DOUBLE) / COUNT(*), 9) AS leak_rate
FROM c
"""


def missingness_pattern_events(sf_dir: str) -> pd.DataFrame:
    """Missingness-pattern histogram for the events table: the bitmask of
    which nullable columns (value, props) are NULL per row — the
    data-quality fingerprint that distinguishes "values missing at
    random" from structured gaps (e.g. every error event lacking a
    value).  Streaming pass with a 4-row driver fold per block, broken
    out per event_type so the structure is visible; exact integers."""
    ds = _read(sf_dir, "events", columns=["event_type", "value", "props"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["event_type"])
        mask = (
            b["value"].isna().to_numpy().astype(np.int64)
            + 2 * b["props"].isna().to_numpy().astype(np.int64)
        )
        return (
            pd.DataFrame({"event_type": b["event_type"].to_numpy(), "pattern": mask})
            .groupby(["event_type", "pattern"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = p.groupby(["event_type", "pattern"], as_index=False)["n"].sum()
    out["pattern"] = out["pattern"].astype(np.int64)
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["event_type", "pattern"]).reset_index(drop=True)


_MISSINGNESS_SQL = """
SELECT event_type,
       CAST(CASE WHEN value IS NULL THEN 1 ELSE 0 END
            + 2 * CASE WHEN props IS NULL THEN 1 ELSE 0 END AS BIGINT) AS pattern,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events WHERE event_type IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


def salt_plan_orders(sf_dir: str) -> pd.DataFrame:
    """Skew-salting plan for a hypothetical join on events.user_id — the
    planner artifact `salted_user_event_revenue` consumes implicitly,
    made explicit: per-key row counts above the hot threshold (9/8 x
    mean rows-per-key, integer arithmetic — chosen so the near-uniform
    fixture still surfaces a hot tail at every SF) get a salt factor
    ceil(count / threshold) — pure integer arithmetic, so the
    plan is exactly reproducible.  ONE bucketed count exchange; the plan
    output is O(hot keys), never the key space."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().groupby("user_id", as_index=False).size().rename(columns={"size": "n"})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", as_index=False)["n"].sum()

    h = bucketed_groupby(ds, ["user_id"], partial, merge).to_pandas()
    total = int(h["n"].sum())
    n_keys = len(h)
    thr = (9 * (total // n_keys)) // 8 if n_keys else 0
    hot = h[h["n"].to_numpy(np.int64) > thr].copy()
    hot["salt_factor"] = (
        (hot["n"].to_numpy(np.int64) + thr - 1) // max(thr, 1)
    ).astype(np.int64)
    out = pd.DataFrame(
        {
            "user_id": hot["user_id"].astype(np.int64),
            "n_rows": hot["n"].astype(np.int64),
            "salt_factor": hot["salt_factor"],
        }
    )
    return out.sort_values("user_id").reset_index(drop=True)


_SALT_PLAN_SQL = """
WITH h AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n
  FROM events WHERE user_id IS NOT NULL GROUP BY 1
),
t AS (SELECT (9 * (CAST(SUM(n) AS BIGINT) // COUNT(*))) // 8 AS thr FROM h)
SELECT user_id, n AS n_rows,
       CAST((n + t.thr - 1) // GREATEST(t.thr, 1) AS BIGINT) AS salt_factor
FROM h, t WHERE n > t.thr
ORDER BY user_id
"""


def er_cluster_cohesion(sf_dir: str) -> pd.DataFrame:
    """Cohesion audit of the entity-resolution clusters: transitive
    closure admits member pairs that never directly matched, so report
    the fraction of within-cluster pairs with a DIRECT Jaro-Winkler
    match (the linkage threshold 0.88) — the ER precision proxy.
    Composition: the oracled cluster map (`linkage_entity_clusters_
    parts` machinery), per-cluster member gathering in ONE bucketed
    exchange on the representative (clusters land whole), vectorized
    in-cluster pair JW scoring per reducer (bounded by cluster size —
    the blocking guarantee); exact integer pair counts, one shared
    division."""
    from ndap_data_validator_ray.stages.cc import distributed_connected_components
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    part = _read(sf_dir, "part", columns=["p_partkey", "p_name", "p_brand"])
    sub = part.map_batches(
        lambda t: t.filter(pa.array(t["p_partkey"].to_numpy() % 3 == 0)), batch_format="pyarrow"
    ).materialize()
    pairs = _blocked_part_pairs(sub, threshold=0.88).materialize()
    nodes = sub.map_batches(lambda t: pa.table({"node": t["p_partkey"]}), batch_format="pyarrow")
    comp = distributed_connected_components(pairs, nodes=nodes).materialize()

    # attach names to members, gather per cluster rep
    names = sub.map_batches(
        lambda b: pd.DataFrame(
            {"node": b["p_partkey"].to_numpy(np.int64), "p_name": b["p_name"].to_numpy()}
        ),
        batch_format="pandas",
    )
    from ndap_data_validator_ray.stages.broadcast import attach_or_join

    labeled = attach_or_join(comp, names, on_fact="node", on_side="node", attach_cols=["p_name"])

    def cohesion(g: pd.DataFrame) -> pd.DataFrame:
        from ndap_data_validator_ray.functions.strdist import jaro_winkler_batch

        n_pairs = 0
        n_direct = 0
        n_multi = 0
        for _, c in g.groupby("component"):
            if len(c) < 2:
                continue
            n_multi += 1
            nm = c.sort_values("node")["p_name"].tolist()
            ia, ib = np.triu_indices(len(nm), k=1)
            jw = jaro_winkler_batch([nm[i] for i in ia], [nm[j] for j in ib])
            n_pairs += len(jw)
            n_direct += int((jw >= 0.88).sum())
        return pd.DataFrame(
            {
                "n_multi_clusters": [np.int64(n_multi)],
                "n_pairs": [np.int64(n_pairs)],
                "n_direct_pairs": [np.int64(n_direct)],
            }
        )

    p = bucketed_groupby(labeled, ["component"], lambda b: b, cohesion).to_pandas()
    np_, nd, nm = int(p["n_pairs"].sum()), int(p["n_direct_pairs"].sum()), int(p["n_multi_clusters"].sum())
    return pd.DataFrame(
        {
            "n_multi_clusters": [np.int64(nm)],
            "n_pairs": [np.int64(np_)],
            "n_direct_pairs": [np.int64(nd)],
            "cohesion": [np.float64(np.round(float(nd) / np_, 9)) if np_ else np.float64(0.0)],
        }
    )


_ER_COHESION_SQL = """
WITH RECURSIVE b AS (
  SELECT p_partkey, p_name, p_brand, split_part(p_name, ' ', 1) AS blk
  FROM part
  WHERE p_partkey % 3 = 0 AND p_partkey IS NOT NULL
    AND p_name IS NOT NULL AND p_brand IS NOT NULL
), pr AS MATERIALIZED (
  SELECT a.p_partkey AS id_a, c.p_partkey AS id_b
  FROM b a JOIN b c
    ON a.p_brand = c.p_brand AND a.blk = c.blk AND a.p_partkey < c.p_partkey
  WHERE jaro_winkler_similarity(a.p_name, c.p_name) >= 0.88
), ed AS (
  SELECT id_a AS u, id_b AS v FROM pr UNION ALL SELECT id_b, id_a FROM pr
), reach AS (
  SELECT u AS node, v AS r FROM ed
  UNION
  SELECT reach.node, e.v FROM reach JOIN ed e ON e.u = reach.r
), comp AS (
  SELECT node, LEAST(node, MIN(r)) AS rep FROM reach GROUP BY node
),
mem AS (
  SELECT b.p_partkey AS node, COALESCE(c.rep, b.p_partkey) AS rep, b.p_name
  FROM b LEFT JOIN comp c ON c.node = b.p_partkey
),
sizes AS (SELECT rep, COUNT(*) AS sz FROM mem GROUP BY rep),
cl AS (SELECT rep FROM sizes WHERE sz >= 2),
pairs AS (
  SELECT m1.rep, m1.p_name AS na, m2.p_name AS nb
  FROM mem m1 JOIN mem m2 ON m2.rep = m1.rep AND m1.node < m2.node
  JOIN cl ON cl.rep = m1.rep
),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
         CAST(SUM(CASE WHEN jaro_winkler_similarity(na, nb) >= 0.88 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_direct
  FROM pairs
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM cl) AS n_multi_clusters,
       s.n_pairs, s.n_direct AS n_direct_pairs,
       CASE WHEN s.n_pairs = 0 THEN 0.0
            ELSE ROUND(CAST(s.n_direct AS DOUBLE) / s.n_pairs, 9) END AS cohesion
FROM s
"""


def source_scorecard(sf_dir: str) -> pd.DataFrame:
    """Per-source curation scorecard — the health report broken out by
    provenance, the table a mixture owner actually reads: per source,
    docs, tokens, quality passes (funnel rule verbatim), within-source
    prefix-duplicate excess, and corpus token share.  One streaming pass
    folds everything except the duplicate excess, which rides ONE
    bucketed exchange on (source, prefix); all counts exact, shares one
    shared division."""
    from ndap_data_validator_ray.functions.text import repetition_stats, token_count
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"]).materialize()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["doc_id", "source"])
        st = repetition_stats(b["text"])
        q = (
            (st["n_tokens"].to_numpy() >= 20) & (st["top_token_frac"].to_numpy() <= 0.13)
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "source": b["source"].to_numpy(),
                    "n_docs": np.int64(1),
                    "n_tokens": token_count(b["text"]).astype(np.int64),
                    "n_quality": q,
                }
            )
            .groupby("source", as_index=False)
            .sum()
        )

    base = ds.map_batches(partial, batch_format="pandas").to_pandas()
    base = base.groupby("source", as_index=False).sum()

    def dup_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b.dropna(subset=["doc_id", "source"])
        return pd.DataFrame(
            {
                "source": d["source"].to_numpy(),
                "prefix": d["text"].fillna("").str.slice(0, 40).to_numpy(),
                "n": np.int64(1),
            }
        ).groupby(["source", "prefix"], as_index=False)["n"].sum()

    def dup_merge(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby(["source", "prefix"])["n"].sum().reset_index()
        sizes = sizes[sizes["n"] > 1]
        agg = sizes.groupby("source")["n"].agg(lambda s: int((s - 1).sum()))
        return pd.DataFrame({"source": agg.index.to_numpy(), "dups": agg.to_numpy(np.int64)})

    dups = (
        bucketed_groupby(ds, ["source", "prefix"], dup_partial, dup_merge)
        .to_pandas()
        .groupby("source", as_index=False)["dups"]
        .sum()
    )
    out = base.merge(dups, on="source", how="left")
    out["dups"] = out["dups"].fillna(0).astype(np.int64)
    total_toks = int(out["n_tokens"].sum())
    out = pd.DataFrame(
        {
            "source": out["source"],
            "n_docs": out["n_docs"].astype(np.int64),
            "n_tokens": out["n_tokens"].astype(np.int64),
            "n_quality": out["n_quality"].astype(np.int64),
            "n_dup_excess": out["dups"],
            "token_share": _r9(out["n_tokens"].to_numpy(np.float64) / total_toks),
        }
    )
    return out.sort_values("source").reset_index(drop=True)


_SOURCE_SCORECARD_SQL = r"""
WITH d AS (
  SELECT doc_id, COALESCE(text, '') AS text, source
  FROM documents WHERE doc_id IS NOT NULL AND source IS NOT NULL
),
toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM d
),
cnt AS (SELECT doc_id, term, COUNT(*) AS c FROM toks GROUP BY doc_id, term),
agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_terms, MAX(c) AS mx FROM cnt GROUP BY doc_id),
q AS (
  SELECT d.source, d.doc_id,
         CASE WHEN trim(d.text) = '' THEN 0
              ELSE array_length(regexp_split_to_array(trim(d.text), '\s+')) END AS n_tok,
         CASE WHEN COALESCE(a.n_terms, 0) >= 20
               AND COALESCE(CAST(a.mx AS DOUBLE) / a.n_terms, 0.0) <= 0.13 THEN 1 ELSE 0 END AS qf
  FROM d LEFT JOIN agg a USING (doc_id)
),
base AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(n_tok) AS BIGINT) AS n_tokens,
         CAST(SUM(qf) AS BIGINT) AS n_quality
  FROM q GROUP BY 1
),
dups AS (
  SELECT source, CAST(SUM(c - 1) AS BIGINT) AS n_dup_excess
  FROM (SELECT source, substr(text, 1, 40) AS p, COUNT(*) AS c FROM d GROUP BY 1, 2
        HAVING COUNT(*) > 1)
  GROUP BY 1
)
SELECT b.source, b.n_docs, b.n_tokens, b.n_quality,
       COALESCE(dups.n_dup_excess, 0) AS n_dup_excess,
       ROUND(CAST(b.n_tokens AS DOUBLE) / (SELECT SUM(n_tokens) FROM base), 9) AS token_share
FROM base b LEFT JOIN dups USING (source)
ORDER BY source
"""


def heavy_hitter_stability(sf_dir: str) -> pd.DataFrame:
    """Heavy-hitter STABILITY check: the top-20 part keys by line-item
    count computed independently on the two orderkey-parity halves of
    the data, reported as the overlap of the two top sets — the
    split-half validation a sketch consumer runs before trusting a
    heavy-hitter list.  Per half: pre-aggregated count partials ride one
    bucketed exchange with per-bucket local top-20 under the total order
    (n DESC, key) — the frequent-triples fold at k=1; overlap is exact
    set arithmetic on the driver's 2 x 20 rows."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def topk(par: int) -> pd.DataFrame:
        def partial(b: pd.DataFrame, par=par) -> pd.DataFrame:
            b = b.dropna()
            b = b[b["l_orderkey"].to_numpy(np.int64) % 2 == par]
            return b.groupby("l_partkey", as_index=False).size().rename(columns={"size": "n"})

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            c = g.groupby("l_partkey", as_index=False)["n"].sum()
            return c.sort_values(["n", "l_partkey"], ascending=[False, True]).head(20)

        p = bucketed_groupby(li, ["l_partkey"], partial, merge).to_pandas()
        return p.sort_values(["n", "l_partkey"], ascending=[False, True]).head(20)

    a = topk(0)
    b = topk(1)
    inter = len(set(a["l_partkey"].astype(int)) & set(b["l_partkey"].astype(int)))
    return pd.DataFrame(
        {
            "k": [np.int64(20)],
            "n_overlap": [np.int64(inter)],
            "jaccard": [np.float64(np.round(inter / (40 - inter), 9))],
        }
    )


_HH_STABILITY_SQL = """
WITH a AS (
  SELECT l_partkey FROM (
    SELECT l_partkey, COUNT(*) AS n FROM lineitem
    WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL AND l_orderkey % 2 = 0
    GROUP BY 1 ORDER BY n DESC, l_partkey LIMIT 20)
),
b AS (
  SELECT l_partkey FROM (
    SELECT l_partkey, COUNT(*) AS n FROM lineitem
    WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL AND l_orderkey % 2 = 1
    GROUP BY 1 ORDER BY n DESC, l_partkey LIMIT 20)
),
i AS (SELECT CAST(COUNT(*) AS BIGINT) AS m FROM a JOIN b USING (l_partkey))
SELECT CAST(20 AS BIGINT) AS k, i.m AS n_overlap,
       ROUND(CAST(i.m AS DOUBLE) / (40 - i.m), 9) AS jaccard
FROM i
"""


def trending_parts_quarterly(sf_dir: str) -> pd.DataFrame:
    """Trending-item analytics: top-10 parts by line-item count in the
    LAST calendar quarter present in the data, each with its rank delta
    vs the previous quarter (absent last quarter -> previous rank NULL
    semantics, emitted as -1) — the rank-movement table a merchandising
    dashboard shows.  ONE bucketed exchange on (quarter, part) with
    per-bucket local top-k is wrong here because ranks need the FULL
    per-quarter ordering; instead counts fold per bucket and the two
    relevant quarters' count vectors (part-domain bounded) rank on the
    driver under the total order (n DESC, partkey) — deterministic ties,
    exact integers."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey", "l_shipdate"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        d = b["l_shipdate"].dt
        q = d.year.to_numpy(np.int64) * 10 + ((d.month.to_numpy(np.int64) - 1) // 3 + 1)
        return (
            pd.DataFrame({"q": q, "l_partkey": b["l_partkey"].to_numpy(np.int64)})
            .groupby(["q", "l_partkey"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["q", "l_partkey"], as_index=False)["n"].sum()

    c = bucketed_groupby(li, ["q", "l_partkey"], partial, merge).to_pandas()
    qmax = int(c["q"].max())
    qprev = qmax - 1 if qmax % 10 != 1 else (qmax // 10 - 1) * 10 + 4

    def ranks(qv: int) -> pd.DataFrame:
        g = c[c["q"] == qv].sort_values(["n", "l_partkey"], ascending=[False, True])
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["l_partkey", "n", "rank"]]

    cur = ranks(qmax).head(10)
    prev = ranks(qprev).rename(columns={"rank": "prev_rank"})[["l_partkey", "prev_rank"]]
    out = cur.merge(prev, on="l_partkey", how="left")
    out["prev_rank"] = out["prev_rank"].fillna(-1).astype(np.int64)
    out["l_partkey"] = out["l_partkey"].astype(np.int64)
    out["n"] = out["n"].astype(np.int64)
    out["rank"] = out["rank"].astype(np.int64)
    return out.sort_values("rank").reset_index(drop=True)


_TRENDING_SQL = """
WITH c AS (
  SELECT CAST(year(l_shipdate) * 10 + ((month(l_shipdate) - 1) // 3 + 1) AS BIGINT) AS q,
         l_partkey, CAST(COUNT(*) AS BIGINT) AS n
  FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL AND l_shipdate IS NOT NULL
  GROUP BY 1, 2
),
qm AS (SELECT MAX(q) AS qmax FROM c),
qp AS (SELECT CASE WHEN qmax % 10 <> 1 THEN qmax - 1 ELSE (qmax // 10 - 1) * 10 + 4 END AS qprev
       FROM qm),
cur AS (
  SELECT l_partkey, n, CAST(ROW_NUMBER() OVER (ORDER BY n DESC, l_partkey) AS BIGINT) AS rank
  FROM c, qm WHERE c.q = qm.qmax
),
prev AS (
  SELECT l_partkey, CAST(ROW_NUMBER() OVER (ORDER BY n DESC, l_partkey) AS BIGINT) AS prev_rank
  FROM c, qp WHERE c.q = qp.qprev
)
SELECT cur.l_partkey, cur.n, cur.rank, COALESCE(prev.prev_rank, -1) AS prev_rank
FROM cur LEFT JOIN prev USING (l_partkey)
WHERE cur.rank <= 10
ORDER BY cur.rank
"""


def volatile_customers(sf_dir: str) -> pd.DataFrame:
    """Top-20 customers by order-value coefficient of variation (sd/mean
    over >= 5 orders) — the volatility screen next to RFM, with a
    deterministic cross-engine ranking: per-customer moments are exact
    integer cents (one `sum_by_key`-shaped exchange), CV is ONE shared
    float expression per customer (population sd), and the sort
    (cv DESC, custkey) is total."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        g = pd.DataFrame(
            {"o_custkey": b["o_custkey"].to_numpy(np.int64), "n": np.int64(1), "s": cents,
             "s2": cents * cents}
        )
        return g.groupby("o_custkey", as_index=False).sum()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby("o_custkey", as_index=False).sum()
        f = f[f["n"] >= 5]
        n = f["n"].to_numpy(np.float64)
        s = f["s"].to_numpy(np.float64)
        s2 = f["s2"].to_numpy(np.float64)
        cv = np.sqrt((s2 - s * s / n) / n) / (s / n)
        out = pd.DataFrame(
            {
                "o_custkey": f["o_custkey"].to_numpy(np.int64),
                "n_orders": f["n"].to_numpy(np.int64),
                "cv": cv,
            }
        )
        return out.sort_values(["cv", "o_custkey"], ascending=[False, True]).head(20)

    p = bucketed_groupby(orders, ["o_custkey"], partial, merge).to_pandas()
    out = p.sort_values(["cv", "o_custkey"], ascending=[False, True]).head(20)
    out["cv"] = _r9(out["cv"])
    out["o_custkey"] = out["o_custkey"].astype(np.int64)
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out.reset_index(drop=True)


_VOLATILE_SQL = """
WITH m AS (
  SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS s,
         CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                  * CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS s2
  FROM orders WHERE o_custkey IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1 HAVING COUNT(*) >= 5
),
v AS (
  SELECT o_custkey, n AS n_orders,
         SQRT((CAST(s2 AS DOUBLE) - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / n) / n)
         / (CAST(s AS DOUBLE) / n) AS cv
  FROM m
)
SELECT o_custkey, n_orders, ROUND(cv, 9) AS cv
FROM v ORDER BY cv DESC, o_custkey LIMIT 20
"""


def error_then_purchase_sessions(sf_dir: str) -> pd.DataFrame:
    """Conditional session outcome: of the 30-minute-gap sessions that
    contain an error event, how many still convert (a purchase STRICTLY
    AFTER the first error under the total order (ts, event_id))? — the
    resilience read a funnel owner wants next to the raw conversion
    counts.  ONE bucketed exchange on user_id (sessions are user-local,
    the documented sessionization assumption); reducers rebuild sessions
    with the shared 30-min rule and fold exact session counts; the rate
    is one shared division."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def flags(part: pd.DataFrame) -> pd.DataFrame:
        part = part.dropna().sort_values(["user_id", "ts", "event_id"], kind="stable")
        gap = part["ts"].diff() > pd.Timedelta(minutes=30)
        new_user = part["user_id"].ne(part["user_id"].shift())
        sid = (gap | new_user).cumsum()
        n_sessions = 0
        n_err = 0
        n_etp = 0
        for _, g in part.groupby(sid, sort=False):
            n_sessions += 1
            et = g["event_type"].to_numpy()
            ei = np.nonzero(et == "error")[0]
            if not len(ei):
                continue
            n_err += 1
            if (et[ei[0] + 1:] == "purchase").any():
                n_etp += 1
        return pd.DataFrame(
            {
                "n_sessions": [np.int64(n_sessions)],
                "n_with_error": [np.int64(n_err)],
                "n_error_then_purchase": [np.int64(n_etp)],
            }
        )

    p = bucketed_groupby(ds, ["user_id"], lambda b: b.dropna(), flags).to_pandas()
    ns = int(p["n_sessions"].sum())
    ne = int(p["n_with_error"].sum())
    np_ = int(p["n_error_then_purchase"].sum())
    return pd.DataFrame(
        {
            "n_sessions": [np.int64(ns)],
            "n_with_error": [np.int64(ne)],
            "n_error_then_purchase": [np.int64(np_)],
            "recovery_rate": [np.float64(np.round(float(np_) / ne, 9)) if ne else np.float64(0.0)],
        }
    )


_ERROR_PURCHASE_SQL = """
WITH s AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
              OR LAG(ts) OVER w IS NULL THEN 1 ELSE 0 END AS is_new
  FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL AND event_id IS NOT NULL AND event_type IS NOT NULL
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
g AS (
  SELECT user_id, ts, event_id, event_type,
         SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM s
),
fe AS (
  SELECT user_id, sid, MIN(struct_pack(ts := ts, event_id := event_id)) AS first_err
  FROM g WHERE event_type = 'error' GROUP BY 1, 2
),
conv AS (
  SELECT fe.user_id, fe.sid,
         MAX(CASE WHEN g.event_type = 'purchase'
                   AND (g.ts > fe.first_err.ts
                        OR (g.ts = fe.first_err.ts AND g.event_id > fe.first_err.event_id))
                  THEN 1 ELSE 0 END) AS etp
  FROM fe JOIN g ON g.user_id = fe.user_id AND g.sid = fe.sid
  GROUP BY 1, 2
),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM (SELECT DISTINCT user_id, sid FROM g))
SELECT tot.n AS n_sessions,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM fe) AS n_with_error,
       (SELECT CAST(COALESCE(SUM(etp), 0) AS BIGINT) FROM conv) AS n_error_then_purchase,
       CASE WHEN (SELECT COUNT(*) FROM fe) = 0 THEN 0.0
            ELSE ROUND((SELECT CAST(SUM(etp) AS DOUBLE) FROM conv)
                       / (SELECT COUNT(*) FROM fe), 9) END AS recovery_rate
FROM tot
"""


def lines_per_order_p99(sf_dir: str) -> pd.DataFrame:
    """Tail profile of order width: the exact P50/P99 of line items per
    order via a count-of-counts histogram — the planner input for
    per-order explode stages (the kcore order-statistic trick on a
    derived count).  ONE bucketed count exchange on l_orderkey, then the
    (width, n_orders) histogram folds on the driver (width domain tiny);
    percentiles are exact 1-based order statistics at rank
    ceil(q · n) — pure integers, no interpolation."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_orderkey"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna().groupby("l_orderkey", as_index=False).size().rename(columns={"size": "w"})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        w = g.groupby("l_orderkey")["w"].sum()
        h = w.value_counts()
        return pd.DataFrame({"w": h.index.to_numpy(np.int64), "n": h.to_numpy(np.int64)})

    h = (
        bucketed_groupby(li, ["l_orderkey"], partial, merge)
        .to_pandas()
        .groupby("w", as_index=False)["n"]
        .sum()
        .sort_values("w")
    )
    n = int(h["n"].sum())
    cum = np.cumsum(h["n"].to_numpy(np.int64))
    ws = h["w"].to_numpy(np.int64)

    def ostat(q_num: int, q_den: int) -> int:
        rank = -(-q_num * n // q_den)  # ceil(q * n) in integers
        return int(ws[np.searchsorted(cum, rank)])

    return pd.DataFrame(
        {
            "n_orders": [np.int64(n)],
            "p50_lines": [np.int64(ostat(1, 2))],
            "p99_lines": [np.int64(ostat(99, 100))],
            "max_lines": [np.int64(int(ws[-1])) if len(ws) else np.int64(0)],
        }
    )


_LINES_P99_SQL = """
WITH w AS (
  SELECT l_orderkey, CAST(COUNT(*) AS BIGINT) AS w
  FROM lineitem WHERE l_orderkey IS NOT NULL GROUP BY 1
),
r AS (SELECT w, ROW_NUMBER() OVER (ORDER BY w) AS rn, COUNT(*) OVER () AS n FROM w)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM w) AS n_orders,
       (SELECT CAST(w AS BIGINT) FROM r WHERE rn = (n + 1) // 2 LIMIT 1) AS p50_lines,
       (SELECT CAST(w AS BIGINT) FROM r WHERE rn = (99 * n + 99) // 100 LIMIT 1) AS p99_lines,
       (SELECT CAST(MAX(w) AS BIGINT) FROM w) AS max_lines
"""


def winsorized_value_by_type(sf_dir: str) -> pd.DataFrame:
    """Winsorized mean of event value per type — the robust aggregate
    that CLAMPS the tails instead of dropping them (the trimmed-mean
    sibling), exact end to end: per type, the P1/P99 clamp bounds are
    integer order statistics from the (type, cents) histogram (rank
    ceil(q·n), the kcore trick), the winsorized SUM replaces each tail
    value by its bound in exact integer cents, and the mean is one
    shared float division.  ONE bucketed exchange bounded by the value
    DOMAIN per type."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        cents = np.floor(b["value"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        return (
            pd.DataFrame({"event_type": b["event_type"].to_numpy(), "cents": cents})
            .groupby(["event_type", "cents"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["event_type", "cents"], as_index=False)["n"].sum()

    h = bucketed_groupby(ds, ["event_type", "cents"], partial, merge).to_pandas()
    rows = []
    for et, g in h.groupby("event_type"):
        g = g.sort_values("cents")
        c = g["cents"].to_numpy(np.int64)
        cnt = g["n"].to_numpy(np.int64)
        n = int(cnt.sum())
        cum = np.cumsum(cnt)
        lo = int(c[np.searchsorted(cum, -(-1 * n // 100))])
        hi = int(c[np.searchsorted(cum, -(-99 * n // 100))])
        clamped = np.clip(c, lo, hi)
        wsum = int((clamped * cnt).sum())
        rows.append((et, n, lo, hi, wsum))
    out = pd.DataFrame(rows, columns=["event_type", "n", "lo_cents", "hi_cents", "wsum_cents"])
    for col in ["n", "lo_cents", "hi_cents", "wsum_cents"]:
        out[col] = out[col].astype(np.int64)
    out["winsorized_mean"] = _r6(
        out["wsum_cents"].to_numpy(np.float64) / out["n"].to_numpy(np.float64) / 100.0
    )
    return out.sort_values("event_type").reset_index(drop=True)


_WINSORIZED_SQL = """
WITH v AS (
  SELECT event_type, CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL
),
r AS (
  SELECT event_type, cents,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY cents) AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM v
),
b AS (
  SELECT event_type, MAX(n) AS n,
         MAX(CASE WHEN rn = (1 * n + 99) // 100 THEN cents END) AS lo,
         MAX(CASE WHEN rn = (99 * n + 99) // 100 THEN cents END) AS hi
  FROM r GROUP BY event_type
)
SELECT v.event_type, CAST(b.n AS BIGINT) AS n,
       CAST(b.lo AS BIGINT) AS lo_cents, CAST(b.hi AS BIGINT) AS hi_cents,
       CAST(SUM(LEAST(GREATEST(v.cents, b.lo), b.hi)) AS BIGINT) AS wsum_cents,
       ROUND(CAST(SUM(LEAST(GREATEST(v.cents, b.lo), b.hi)) AS DOUBLE) / b.n / 100.0, 6)
         AS winsorized_mean
FROM v JOIN b USING (event_type)
GROUP BY v.event_type, b.n, b.lo, b.hi
ORDER BY v.event_type
"""


def distinctive_brand_tokens(sf_dir: str) -> pd.DataFrame:
    """Most distinctive part-name token per brand — grouped TF-IDF-lite
    over the catalog (which adjective/noun does each brand over-use?):
    score = in-brand count x total-token-count / brand-size /
    corpus-count of the token, one shared float expression from four
    exact integers, top-1 per brand under (score DESC, token ASC).
    Distributed shape: (brand, token) counts ride ONE bucketed exchange
    on token (corpus counts need the token co-located), brand totals
    fold as partials; the final per-brand argmax folds brand-bounded
    rows on the driver."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "part", columns=["p_name", "p_brand"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        toks = b["p_name"].str.split(" ")
        flat = pd.DataFrame(
            {
                "p_brand": b["p_brand"].to_numpy().repeat(toks.str.len().to_numpy()),
                "tok": np.concatenate(toks.to_numpy()),
            }
        )
        return flat.groupby(["p_brand", "tok"], as_index=False).size().rename(columns={"size": "n"})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["p_brand", "tok"], as_index=False)["n"].sum()

    bt = bucketed_groupby(ds, ["tok"], partial, merge).to_pandas()
    bt = bt.groupby(["p_brand", "tok"], as_index=False)["n"].sum()
    tot = int(bt["n"].sum())
    tok_tot = bt.groupby("tok")["n"].sum()
    brand_tot = bt.groupby("p_brand")["n"].sum()
    bt["score"] = (
        bt["n"].to_numpy(np.float64) * tot
        / brand_tot.loc[bt["p_brand"]].to_numpy(np.float64)
        / tok_tot.loc[bt["tok"]].to_numpy(np.float64)
    )
    bt = bt.sort_values(["p_brand", "score", "tok"], ascending=[True, False, True])
    out = bt.drop_duplicates("p_brand")[["p_brand", "tok", "n", "score"]]
    out["n"] = out["n"].astype(np.int64)
    out["score"] = _r9(out["score"])
    return out.sort_values("p_brand").reset_index(drop=True)


_DISTINCTIVE_TOKENS_SQL = """
WITH t AS (
  SELECT p_brand, UNNEST(string_split(p_name, ' ')) AS tok
  FROM part WHERE p_name IS NOT NULL AND p_brand IS NOT NULL
),
bt AS (SELECT p_brand, tok, CAST(COUNT(*) AS BIGINT) AS n FROM t GROUP BY 1, 2),
tt AS (SELECT tok, CAST(SUM(n) AS BIGINT) AS tn FROM bt GROUP BY 1),
brt AS (SELECT p_brand, CAST(SUM(n) AS BIGINT) AS bn FROM bt GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS g FROM bt),
s AS (
  SELECT bt.p_brand, bt.tok, bt.n,
         CAST(bt.n AS DOUBLE) * tot.g / CAST(brt.bn AS DOUBLE) / CAST(tt.tn AS DOUBLE) AS score
  FROM bt JOIN tt USING (tok) JOIN brt USING (p_brand), tot
),
rk AS (
  SELECT p_brand, tok, n, score,
         ROW_NUMBER() OVER (PARTITION BY p_brand ORDER BY score DESC, tok) AS rn
  FROM s
)
SELECT p_brand, tok, n, ROUND(score, 9) AS score
FROM rk WHERE rn = 1 ORDER BY p_brand
"""


def brand_price_positioning(sf_dir: str) -> pd.DataFrame:
    """Brand price positioning: each brand's mean line-item price as a
    z-score against the global distribution — the assortment-strategy
    read (premium vs value brands), exact-moment style: per-brand and
    global (n, Σcents, Σcents²) fold from ONE bucketed exchange on
    l_partkey -> brand attach (guarded broadcast) -> low-cardinality
    brand fold; z = (brand_mean − global_mean) / global_sd is one shared
    float expression from exact integers."""
    from ndap_data_validator_ray.stages.broadcast import attach_or_join
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice"]).map_batches(
        lambda b: b.dropna().assign(
            cents=lambda x: np.floor(
                x["l_extendedprice"].to_numpy(np.float64) * 100.0 + 0.5
            ).astype(np.int64)
        )[["l_partkey", "cents"]],
        batch_format="pandas",
    )
    brands = _read(sf_dir, "part", columns=["p_partkey", "p_brand"]).map_batches(
        lambda b: b.dropna().rename(columns={"p_partkey": "l_partkey"}), batch_format="pandas"
    )
    j = attach_or_join(li, brands, on_fact="l_partkey", on_side="l_partkey",
                       attach_cols=["p_brand"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # per-brand (n, s) rows + one global-moment row carrying s2:
        # cents² sums outgrow int64 at warehouse scale, so s2 stays
        # per-block int64 (safe) and folds in PYTHON ints on the driver
        # (the HUGEINT-twin posture)
        c = b["cents"].to_numpy(np.int64)
        g = pd.DataFrame({"p_brand": b["p_brand"].to_numpy(), "n": np.int64(1), "s": c})
        out = g.groupby("p_brand", as_index=False).sum()
        out["s2"] = np.int64(0)
        head = pd.DataFrame(
            {"p_brand": ["\x00global"], "n": [np.int64(len(c))],
             "s": [np.int64(int(c.sum()))], "s2": [np.int64(int((c * c).sum()))]}
        )
        return pd.concat([head, out], ignore_index=True)

    p = j.map_batches(partial, batch_format="pandas").to_pandas()
    gmask = p["p_brand"] == "\x00global"
    gn = int(p.loc[gmask, "n"].sum())
    gs = int(p.loc[gmask, "s"].sum())
    gs2 = sum(int(x) for x in p.loc[gmask, "s2"])
    f = p[~gmask].groupby("p_brand", as_index=False)[["n", "s"]].sum()
    gmean = float(gs) / gn
    gsd = float(np.sqrt((float(gs2) - float(gs) * float(gs) / gn) / gn))
    bmean = f["s"].to_numpy(np.float64) / f["n"].to_numpy(np.float64)
    out = pd.DataFrame(
        {
            "p_brand": f["p_brand"],
            "n_lineitems": f["n"].astype(np.int64),
            "mean_price": _r6(bmean / 100.0),
            "z": _r6((bmean - gmean) / gsd),
        }
    )
    return out.sort_values("p_brand").reset_index(drop=True)


_BRAND_POSITIONING_SQL = """
WITH li AS (
  SELECT l.l_partkey, p.p_brand,
         CAST(FLOOR(l.l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  WHERE l.l_partkey IS NOT NULL AND l.l_extendedprice IS NOT NULL
    AND p.p_brand IS NOT NULL
),
b AS (
  SELECT p_brand, CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(cents) AS BIGINT) AS s
  FROM li GROUP BY 1
),
g AS (
  -- gs2 stays HUGEINT (a BIGINT cast would overflow at warehouse scale)
  SELECT CAST(COUNT(*) AS BIGINT) AS gn, CAST(SUM(cents) AS BIGINT) AS gs,
         SUM(CAST(cents AS HUGEINT) * cents) AS gs2
  FROM li
)
SELECT b.p_brand, b.n AS n_lineitems,
       ROUND(CAST(b.s AS DOUBLE) / b.n / 100.0, 6) AS mean_price,
       ROUND((CAST(b.s AS DOUBLE) / b.n - CAST(g.gs AS DOUBLE) / g.gn)
             / SQRT((CAST(g.gs2 AS DOUBLE) - CAST(g.gs AS DOUBLE) * CAST(g.gs AS DOUBLE) / g.gn) / g.gn), 6) AS z
FROM b, g ORDER BY p_brand
"""


def revenue_concentration_top1pct(sf_dir: str) -> pd.DataFrame:
    """Revenue concentration: the share of total revenue carried by the
    top 1% of customers (one Lorenz-curve point) — exact integers end to
    end: per-customer totals fold in ONE o_custkey exchange, the top
    ceil(n/100) customer totals are picked under the total order
    (revenue DESC, custkey ASC), and the share is one division.  The
    per-customer total list is entity-bounded (the corr_matrix driver-
    fold class — at warehouse scale the top-k pick moves to the local
    top-k partial pattern with k = ceil(n/100))."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame({"o_custkey": b["o_custkey"].to_numpy(np.int64), "rev": cents}).groupby(
            "o_custkey", as_index=False
        )["rev"].sum()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("o_custkey", as_index=False)["rev"].sum()

    c = bucketed_groupby(orders, ["o_custkey"], partial, merge).to_pandas()
    c = c.sort_values(["rev", "o_custkey"], ascending=[False, True])
    n = len(c)
    k = -(-n // 100)  # ceil(n / 100)
    top = int(c["rev"].to_numpy(np.int64)[:k].sum())
    tot = int(c["rev"].sum())
    return pd.DataFrame(
        {
            "n_customers": [np.int64(n)],
            "k_top": [np.int64(k)],
            "top_revenue_cents": [np.int64(top)],
            "total_revenue_cents": [np.int64(tot)],
            "share": [np.float64(np.round(float(top) / float(tot), 9)) if tot else np.float64(0.0)],
        }
    )


_CONCENTRATION_SQL = """
WITH c AS (
  SELECT o_custkey, CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS rev
  FROM orders WHERE o_custkey IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
r AS (
  SELECT rev, ROW_NUMBER() OVER (ORDER BY rev DESC, o_custkey) AS rn,
         COUNT(*) OVER () AS n
  FROM c
),
s AS (
  SELECT MAX(n) AS n, (MAX(n) + 99) // 100 AS k,
         CAST(SUM(CASE WHEN rn <= (n + 99) // 100 THEN rev ELSE 0 END) AS BIGINT) AS top,
         CAST(SUM(rev) AS BIGINT) AS tot
  FROM r
)
SELECT CAST(n AS BIGINT) AS n_customers, CAST(k AS BIGINT) AS k_top,
       top AS top_revenue_cents, tot AS total_revenue_cents,
       ROUND(CAST(top AS DOUBLE) / CAST(tot AS DOUBLE), 9) AS share
FROM s
"""


def user_behavior_entropy_mean(sf_dir: str) -> pd.DataFrame:
    """Mean behavioral diversity: average per-user Shannon entropy of the
    event-type mix — an order-dependent float aggregate made EXACT by
    the quantize-then-sum trick: each user's entropy (<= n_types float
    terms, which SQL may sum in a different order, so last-ulp
    divergence is possible) is first ROUNDED to the 1e-6 grid — mapping
    ulp-apart values to the same cell with ~1e-10 residual risk — then
    quantized to integer micro-bits (floor(h6·1e6 + 0.5)); the
    cross-user aggregate is a pure integer sum with NO accumulation-
    order exposure at any user count.  ONE bucketed exchange on
    user_id; per-bucket integer partials."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        return b.groupby(["user_id", "event_type"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        hq_sum = 0
        n_users = 0
        for _, u in f.groupby("user_id"):
            cnt = u["n"].to_numpy(np.float64)
            tot = cnt.sum()
            p = cnt / tot
            h = float(np.round(-np.sum(p * np.log2(p)), 6))
            hq_sum += int(np.floor(h * 1e6 + 0.5))
            n_users += 1
        return pd.DataFrame(
            {"n_users": [np.int64(n_users)], "hq_sum": [np.int64(hq_sum)]}
        )

    p = bucketed_groupby(ds, ["user_id"], partial, merge).to_pandas()
    n = int(p["n_users"].sum())
    hq = int(p["hq_sum"].sum())
    return pd.DataFrame(
        {
            "n_users": [np.int64(n)],
            "sum_entropy_microbits": [np.int64(hq)],
            "mean_entropy_bits": [
                np.float64(np.round(float(hq) / 1e6 / n, 9)) if n else np.float64(0.0)
            ],
        }
    )


_USER_ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
  FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL
  GROUP BY 1, 2
),
t AS (SELECT user_id, n, SUM(n) OVER (PARTITION BY user_id) AS tot FROM c),
h AS (
  SELECT user_id,
         -SUM((CAST(n AS DOUBLE) / CAST(tot AS DOUBLE))
              * log2(CAST(n AS DOUBLE) / CAST(tot AS DOUBLE))) AS hbits
  FROM t GROUP BY user_id
),
q AS (SELECT CAST(FLOOR(ROUND(hbits, 6) * 1000000 + 0.5) AS BIGINT) AS hq FROM h)
SELECT CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(hq) AS BIGINT) AS sum_entropy_microbits,
       ROUND(CAST(SUM(hq) AS DOUBLE) / 1000000 / COUNT(*), 9) AS mean_entropy_bits
FROM q
"""


def pps_systematic_sample_customers(sf_dir: str) -> pd.DataFrame:
    """Probability-proportional-to-size systematic sampling: walk the
    customer list in custkey order accumulating revenue and pick every
    customer whose cumulative revenue crosses a multiple of
    step = total // 50 — the classic PPS design (big spenders are
    near-certain picks, small ones proportionally likely), fully
    deterministic in EXACT integer cents: a customer is selected iff
    floor(cum/step) > floor((cum − rev)/step).  Per-customer totals fold
    in ONE exchange; the ordered cumulative walk runs on the
    entity-bounded total list (at warehouse scale it becomes the
    range-partitioned running sum — the peak_concurrent machinery)."""
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame({"o_custkey": b["o_custkey"].to_numpy(np.int64), "rev": cents}).groupby(
            "o_custkey", as_index=False
        )["rev"].sum()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("o_custkey", as_index=False)["rev"].sum()

    c = bucketed_groupby(orders, ["o_custkey"], partial, merge).to_pandas()
    c = c.sort_values("o_custkey").reset_index(drop=True)
    rev = c["rev"].to_numpy(np.int64)
    cum = np.cumsum(rev)
    tot = int(cum[-1]) if len(cum) else 0
    # a total under 50 cents gives step 0: the twin's cum // 0 is NULL and
    # selects nothing, so return the empty frame rather than divide by 0
    step = tot // 50
    keep = (cum // step) > ((cum - rev) // step) if step else np.zeros(len(c), dtype=bool)
    out = pd.DataFrame(
        {
            "o_custkey": c["o_custkey"].to_numpy(np.int64)[keep],
            "rev_cents": rev[keep],
            "cum_cents": cum[keep],
        }
    )
    for col in out.columns:
        out[col] = out[col].astype(np.int64)
    return out.reset_index(drop=True)


_PPS_SQL = """
WITH c AS (
  SELECT o_custkey, CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS rev
  FROM orders WHERE o_custkey IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
),
w AS (
  SELECT o_custkey, rev,
         SUM(rev) OVER (ORDER BY o_custkey ROWS UNBOUNDED PRECEDING) AS cum,
         SUM(rev) OVER () AS tot
  FROM c
),
s AS (SELECT o_custkey, rev, cum, tot // 50 AS step FROM w)
SELECT o_custkey, CAST(rev AS BIGINT) AS rev_cents, CAST(cum AS BIGINT) AS cum_cents
FROM s WHERE cum // step > (cum - rev) // step
ORDER BY o_custkey
"""


def dedup_survivor_quality_delta(sf_dir: str) -> pd.DataFrame:
    """Does dedup keep the right docs?  Quality pass-rate of prefix-dedup
    SURVIVORS (keep-lowest-doc_id per prefix-40 group) vs the DROPPED
    duplicates — the curation-policy audit that catches a dedup rule
    which systematically discards the better copy.  ONE bucketed
    exchange on the prefix (clusters land whole; survivors resolve
    in-reducer); quality is the funnel rule verbatim; four exact-integer
    counts and two shared divisions."""
    from ndap_data_validator_ray.functions.text import repetition_stats
    from ndap_data_validator_ray.stages.groupby import bucketed_groupby

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["doc_id"])
        st = repetition_stats(b["text"])
        q = (
            (st["n_tokens"].to_numpy() >= 20) & (st["top_token_frac"].to_numpy() <= 0.13)
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "prefix": b["text"].fillna("").str.slice(0, 40).to_numpy(),
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "q": q,
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        keep = g.groupby("prefix")["doc_id"].transform("min") == g["doc_id"]
        q = g["q"].to_numpy(np.int64) == 1
        k = keep.to_numpy()
        return pd.DataFrame(
            {
                "n_survivors": [np.int64(int(k.sum()))],
                "n_survivors_q": [np.int64(int((k & q).sum()))],
                "n_dropped": [np.int64(int((~k).sum()))],
                "n_dropped_q": [np.int64(int((~k & q).sum()))],
            }
        )

    p = bucketed_groupby(ds, ["prefix"], flags, fold).to_pandas()
    ns = int(p["n_survivors"].sum())
    nsq = int(p["n_survivors_q"].sum())
    nd = int(p["n_dropped"].sum())
    ndq = int(p["n_dropped_q"].sum())
    return pd.DataFrame(
        {
            "n_survivors": [np.int64(ns)],
            "n_survivors_q": [np.int64(nsq)],
            "n_dropped": [np.int64(nd)],
            "n_dropped_q": [np.int64(ndq)],
            "survivor_q_rate": [np.float64(np.round(float(nsq) / ns, 9)) if ns else np.float64(0.0)],
            "dropped_q_rate": [np.float64(np.round(float(ndq) / nd, 9)) if nd else np.float64(0.0)],
        }
    )


_SURVIVOR_QUALITY_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents WHERE doc_id IS NOT NULL
),
cnt AS (SELECT doc_id, term, COUNT(*) AS c FROM toks GROUP BY doc_id, term),
agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens, MAX(c) AS mx FROM cnt GROUP BY doc_id),
f AS (
  SELECT d.doc_id,
         CASE WHEN COALESCE(n_tokens, 0) >= 20
               AND COALESCE(CAST(mx AS DOUBLE) / n_tokens, 0.0) <= 0.13 THEN 1 ELSE 0 END AS q,
         CASE WHEN d.doc_id = MIN(d.doc_id) OVER (PARTITION BY substr(COALESCE(d.text, ''), 1, 40))
              THEN 1 ELSE 0 END AS keep
  FROM documents d LEFT JOIN agg USING (doc_id)
  WHERE d.doc_id IS NOT NULL
),
s AS (
  SELECT CAST(SUM(keep) AS BIGINT) AS ns,
         CAST(SUM(keep * q) AS BIGINT) AS nsq,
         CAST(SUM(1 - keep) AS BIGINT) AS nd,
         CAST(SUM((1 - keep) * q) AS BIGINT) AS ndq
  FROM f
)
SELECT ns AS n_survivors, nsq AS n_survivors_q, nd AS n_dropped, ndq AS n_dropped_q,
       ROUND(CAST(nsq AS DOUBLE) / ns, 9) AS survivor_q_rate,
       CASE WHEN nd = 0 THEN 0.0 ELSE ROUND(CAST(ndq AS DOUBLE) / nd, 9) END AS dropped_q_rate
FROM s
"""


def peak_minute_events(sf_dir: str) -> pd.DataFrame:
    """Burst detection at minute resolution: the busiest 1-minute window
    (on minute boundaries) in the event stream, ties to the earliest
    minute — the rate-limit/capacity read next to the hourly activity
    profile.  Per-block minute-count partials fold on the driver
    (minutes bounded by the time RANGE, the calendar rule); exact
    integers, deterministic argmax."""
    ds = _read(sf_dir, "events", columns=["ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna()
        m = b["ts"].to_numpy().astype("datetime64[m]").astype(np.int64)
        g = pd.DataFrame({"minute": m}).groupby("minute", as_index=False).size().rename(
            columns={"size": "n"}
        )
        return g

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = p.groupby("minute", as_index=False)["n"].sum().sort_values(["n", "minute"],
                                                                   ascending=[False, True])
    top = g.iloc[0]
    return pd.DataFrame(
        {
            "peak_minute": [
                np.datetime_as_string(np.int64(top["minute"]).astype("datetime64[m]"), unit="m").replace("T", " ") + ":00"
            ],
            "n_events": [np.int64(int(top["n"]))],
            "n_active_minutes": [np.int64(len(g))],
        }
    )


_PEAK_MINUTE_SQL = """
WITH m AS (
  SELECT date_trunc('minute', ts) AS minute, CAST(COUNT(*) AS BIGINT) AS n
  FROM events WHERE ts IS NOT NULL GROUP BY 1
)
SELECT strftime((SELECT minute FROM m ORDER BY n DESC, minute LIMIT 1), '%Y-%m-%d %H:%M:%S')
         AS peak_minute,
       (SELECT n FROM m ORDER BY n DESC, minute LIMIT 1) AS n_events,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM m) AS n_active_minutes
"""


REGISTRY: dict[str, tuple[Callable[[str], Any], str | None]] = {
    "seed_part_distance_copurchase": (seed_part_distance_copurchase, _BFS_SEED_SQL),
    "dedup_survivor_quality_delta": (dedup_survivor_quality_delta, _SURVIVOR_QUALITY_SQL),
    "peak_minute_events": (peak_minute_events, _PEAK_MINUTE_SQL),
    "pps_systematic_sample_customers": (pps_systematic_sample_customers, _PPS_SQL),
    "revenue_concentration_top1pct": (revenue_concentration_top1pct, _CONCENTRATION_SQL),
    "user_behavior_entropy_mean": (user_behavior_entropy_mean, _USER_ENTROPY_SQL),
    "brand_price_positioning": (brand_price_positioning, _BRAND_POSITIONING_SQL),
    "winsorized_value_by_type": (winsorized_value_by_type, _WINSORIZED_SQL),
    "distinctive_brand_tokens": (distinctive_brand_tokens, _DISTINCTIVE_TOKENS_SQL),
    "error_then_purchase_sessions": (error_then_purchase_sessions, _ERROR_PURCHASE_SQL),
    "lines_per_order_p99": (lines_per_order_p99, _LINES_P99_SQL),
    "trending_parts_quarterly": (trending_parts_quarterly, _TRENDING_SQL),
    "volatile_customers": (volatile_customers, _VOLATILE_SQL),
    "source_scorecard": (source_scorecard, _SOURCE_SCORECARD_SQL),
    "heavy_hitter_stability": (heavy_hitter_stability, _HH_STABILITY_SQL),
    "salt_plan_orders": (salt_plan_orders, _SALT_PLAN_SQL),
    "er_cluster_cohesion": (er_cluster_cohesion, _ER_COHESION_SQL),
    "temporal_split_leakage": (temporal_split_leakage, _TEMPORAL_LEAK_SQL),
    "missingness_pattern_events": (missingness_pattern_events, _MISSINGNESS_SQL),
    "quality_vs_duplication": (quality_vs_duplication, _QUALITY_DUP_SQL),
    "column_entropy_profile": (column_entropy_profile, _COLUMN_ENTROPY_SQL),
    "naive_gap_backtest": (naive_gap_backtest, _GAP_BACKTEST_SQL),
    "similar_user_pairs_behavior": (similar_user_pairs_behavior, _SIMILAR_USERS_SQL),
    "corpus_health_report": (corpus_health_report, _CORPUS_HEALTH_SQL),
    "view_to_purchase_latency_quantiles": (view_to_purchase_latency_quantiles, _VIEW_PURCHASE_LATENCY_SQL),
    "mixture_reweighting_plan": (mixture_reweighting_plan, _MIXTURE_PLAN_SQL),
    "hashed_bow_features": (hashed_bow_features, _HASHED_BOW_SQL),
    "order_value_mobility_matrix": (order_value_mobility_matrix, _MOBILITY_SQL),
    "coalesced_order_windows": (coalesced_order_windows, _COALESCE_WINDOWS_SQL),
    "longest_order_day_streak": (longest_order_day_streak, _STREAK_SQL),
    "rich_club_copurchase": (rich_club_copurchase, _RICH_CLUB_SQL),
    "gini_mean_difference_prices": (gini_mean_difference_prices, _GMD_SQL),
    "order_fulfillment_sla": (order_fulfillment_sla, _SLA_SQL),
    "supplier_hhi_parts": (supplier_hhi_parts, _SUPPLIER_HHI_SQL),
    "dedup_cluster_size_histogram": (dedup_cluster_size_histogram, _DEDUP_HIST_SQL),
    "user_feature_matrix": (user_feature_matrix, _USER_FEATURES_SQL),
    "global_transitivity_order_skip": (global_transitivity_order_skip, _GLOBAL_TRANSITIVITY_SQL),
    "systematic_sample_orders": (systematic_sample_orders, _SYSTEMATIC_SAMPLE_SQL),
    "brand_homophily_copurchase": (brand_homophily_copurchase, _BRAND_HOMOPHILY_SQL),
    "percolation_thresholds_copurchase": (percolation_thresholds_copurchase, _PERCOLATION_SQL),
    "ks_exact_nchars_sources": (ks_exact_nchars_sources, _KS_SOURCES_SQL),
    "priority_mix_drift_monthly": (priority_mix_drift_monthly, _PRIORITY_DRIFT_SQL),
    "greedy_coverage_selection_documents": (greedy_coverage_selection_documents, _GREEDY_COVERAGE_SQL),
    "seasonal_anomaly_days_revenue": (seasonal_anomaly_days_revenue, _SEASONAL_ANOMALY_SQL),
    "centroid_purity_embeddings": (centroid_purity_embeddings, _CENTROID_PURITY_SQL),
    "range_partition_plan_orders": (range_partition_plan_orders, _RANGE_PLAN_SQL),
    "k_anonymity_audit_customers": (k_anonymity_audit_customers, _K_ANON_SQL),
    "scd2_user_type_intervals": (scd2_user_type_intervals, _SCD2_SQL),
    "join_key_overlap_profile": (join_key_overlap_profile, _JOIN_OVERLAP_SQL),
    "bootstrap_ci_revenue": (bootstrap_ci_revenue, _BOOTSTRAP_CI_SQL),
    "frequent_triples_parts": (frequent_triples_parts, _FREQ_TRIPLES_SQL),
    "gram_power_iteration_embeddings": (gram_power_iteration_embeddings, _GRAM_POWER_SQL),
    "weighted_median_price_by_flag": (weighted_median_price_by_flag, _WEIGHTED_MEDIAN_SQL),
    "linkage_entity_clusters_parts": (linkage_entity_clusters_parts, _LINKAGE_CLUSTERS_SQL),
    "fd_audit_tables": (fd_audit_tables, _FD_AUDIT_SQL),
    "temporal_consistency_audit": (temporal_consistency_audit, _TEMPORAL_AUDIT_SQL),
    "label_propagation_parts": (label_propagation_parts, _LABEL_PROP_SQL),
    "embedding_covariance_grid": (embedding_covariance_grid, _EMB_COV_SQL),
    "blocked_linkage_parts": (blocked_linkage_parts, _BLOCKED_LINKAGE_SQL),
    "markov_conditional_entropy_events": (markov_conditional_entropy_events, _MARKOV_ENTROPY_SQL),
    "seasonal_naive_wmape_revenue": (seasonal_naive_wmape_revenue, _SEASONAL_NAIVE_SQL),
    "fano_factor_daily_events": (fano_factor_daily_events, _FANO_SQL),
    "hll_rollup_weekly_users": (hll_rollup_weekly_users, _HLL_ROLLUP_SQL),
    "sprt_urgent_share_orders": (sprt_urgent_share_orders, _SPRT_SQL),
    "hits_copurchase_parts": (hits_copurchase_parts, _HITS_SQL),
    "theil_sen_daily_revenue": (theil_sen_daily_revenue, _THEILSEN_SQL),
    "jaro_winkler_adjacent_parts": (jaro_winkler_adjacent_parts, _JW_SQL),
    "trimmed_mean_price_by_flag": (trimmed_mean_price_by_flag, _TRIMMED_MEAN_SQL),
    "ams_f2_user_events": (ams_f2_user_events, _AMS_F2_SQL),
    "session_paths_events": (session_paths_events, _SESSION_PATHS_SQL),
    "vocab_growth_documents": (vocab_growth_documents, _VOCAB_GROWTH_SQL),
    "spearman_price_quantity": (spearman_price_quantity, _SPEARMAN_SQL),
    "source_minhash_similarity": (source_minhash_similarity, _SOURCE_MINHASH_SQL),
    "kmv_user_overlap_event_types": (kmv_user_overlap_event_types, _KMV_OVERLAP_SQL),
    "embedding_quantization_stats": (embedding_quantization_stats, _EMB_QUANT_SQL),
    "holt_trend_daily_revenue": (holt_trend_daily_revenue, _HOLT_SQL),
    "skew_kurtosis_quantity_by_flag": (skew_kurtosis_quantity_by_flag, _SKEW_KURT_SQL),
    "knn_rrf_fusion": (knn_rrf_fusion, _RRF_SQL),
    "token_freq_spectrum_documents": (token_freq_spectrum_documents, _TOKEN_SPECTRUM_SQL),
    "ztest_finished_share_priority": (ztest_finished_share_priority, _ZTEST_SQL),
    "copurchase_kcore_parts": (copurchase_kcore_parts, _KCORE_SQL),
    "degree_assortativity_copurchase": (degree_assortativity_copurchase, _ASSORTATIVITY_SQL),
    "zorder_layout_orders": (zorder_layout_orders, _ZORDER_SQL),
    "anova_price_by_returnflag": (anova_price_by_returnflag, _ANOVA_SQL),
    "rolling_distinct_users_events": (rolling_distinct_users_events, _ROLLING_DISTINCT_SQL),
    "km_survival_reorder": (km_survival_reorder, _KM_SQL),
    "leakage_safe_split_documents": (leakage_safe_split_documents, _LEAKAGE_SPLIT_SQL),
    "cluster_best_survivor_documents": (cluster_best_survivor_documents, _CLUSTER_SURVIVOR_SQL),
    "mannwhitney_price_returnflag": (mannwhitney_price_returnflag, _MANNWHITNEY_SQL),
    "inter_order_gap_stats": (inter_order_gap_stats, _INTER_ORDER_GAP_SQL),
    "kmv_distinct_parts_by_flag": (kmv_distinct_parts_by_flag, _KMV_SQL),
    "customer_spend_trend": (customer_spend_trend, _SPEND_TREND_SQL),
    "fk_integrity_audit": (fk_integrity_audit, _FK_AUDIT_SQL),
    "copurchase_lift_parts": (copurchase_lift_parts, _COPURCHASE_SQL),
    "chi2_status_priority": (chi2_status_priority, _CHI2_SQL),
    "welch_ttest_price_returnflag": (welch_ttest_price_returnflag, _WELCH_SQL),
    "rfm_segmentation_customers": (rfm_segmentation_customers, _RFM_SQL),
    "ewma_daily_revenue": (ewma_daily_revenue, _EWMA_SQL),
    "pareto_skyline_parts": (pareto_skyline_parts, _SKYLINE_SQL),
    "event_hour_mutual_info": (event_hour_mutual_info, _EVENT_HOUR_MI_SQL),
    "cumulative_new_users_events": (cumulative_new_users_events, _CUMULATIVE_USERS_SQL),
    "profile_lineitem": (profile_lineitem, _PROFILE_SQL),
    "distinct_counts_lineitem": (distinct_counts_lineitem,
        "SELECT COUNT(DISTINCT l_orderkey) AS orderkeys, COUNT(DISTINCT l_partkey) AS partkeys, "
        "COUNT(DISTINCT l_suppkey) AS suppkeys FROM lineitem"),
    "tpch_q1": (tpch_q1, _TPCH_Q1_SQL),
    "orders_priority_stats": (orders_priority_stats, _ORDERS_PRIORITY_SQL),
    "csv_orders_priority_stats": (csv_orders_priority_stats, _ORDERS_PRIORITY_SQL),
    "coerce_bool_dates_events": (coerce_bool_dates_events, _COERCE_BOOL_DATES_SQL),
    "infer_roles_lineitem": (infer_roles_lineitem, _INFER_ROLES_SQL),
    "events_by_type": (events_by_type, _EVENTS_BY_TYPE_SQL),
    "events_hourly_activity": (events_hourly_activity, _EVENTS_HOURLY_SQL),
    "events_sessionization": (events_sessionization, _SESSIONS_SQL),
    "time_format_events": (time_format_events, _TIME_FORMAT_SQL),
    "events_props_json": (events_props_json, _PROPS_JSON_SQL),
    "quantity_percentiles": (quantity_percentiles, _QUANTITY_PCT_SQL),
    "top_revenue_customers": (top_revenue_customers, _TOP_REVENUE_SQL),
    "customers_without_orders": (customers_without_orders, _CUST_WO_ORDERS_SQL),
    "customers_without_urgent_orders": (customers_without_urgent_orders, _CUST_WO_URGENT_SQL),
    "lineitem_orphans": (lineitem_orphans, _LINEITEM_ORPHANS_SQL),
    "customer_counts_by_nation": (customer_counts_by_nation, _CUST_BY_NATION_SQL),
    "supplier_stats_by_nation": (supplier_stats_by_nation, _SUPPLIER_STATS_SQL),
    "customers_by_region": (customers_by_region, _CUST_BY_REGION_SQL),
    "revenue_by_priority_join": (revenue_by_priority_join, _REVENUE_JOIN_SQL),
    "duplicate_order_keys": (duplicate_order_keys, _DUP_ORDERS_SQL),
    "duplicate_lineitem_pk": (duplicate_lineitem_pk, _DUP_LINEITEM_SQL),
    "top_parts_by_price": (top_parts_by_price, _TOP_PARTS_SQL),
    "dedup_exact_documents": (dedup_exact_documents, _DEDUP_EXACT_SQL),
    "dedup_prefix_documents": (dedup_prefix_documents, _DEDUP_PREFIX_SQL),
    "doc_stats_by_lang": (doc_stats_by_lang, _DOC_STATS_SQL),
    "token_counts_documents": (token_counts_documents, _TOKEN_COUNTS_SQL),
    "char_stats_documents": (char_stats_documents, _CHAR_STATS_SQL),
    "lang_id_documents": (lang_id_documents, _lang_id_sql()),
    "quality_scores_documents": (quality_scores_documents, _quality_sql()),
    "fingerprints_documents": (fingerprints_documents, _FINGERPRINTS_SQL),
    "minhash_pairs_documents": (minhash_pairs_documents, None),
    "simhash_pairs_documents": (simhash_pairs_documents, _SIMHASH_SQL),
    "ngram_jaccard_documents": (ngram_jaccard_documents, None),
    "ngram_jaccard_exact_documents": (ngram_jaccard_exact_documents, _NGRAM_EXACT_SQL),
    "knn_embeddings": (knn_embeddings, _KNN_SQL),
    "knn_hard_negatives": (knn_hard_negatives, _HARD_NEG_SQL),
    "knn_embeddings_lsh": (knn_embeddings_lsh, None),
    "knn_embeddings_ivf": (knn_embeddings_ivf, None),
    "knn_embeddings_ivf_indexed": (knn_embeddings_ivf_indexed, None),
    "order_chain_components": (order_chain_components, _ORDER_CHAIN_CC_SQL),
    "order_chain_pagerank": (order_chain_pagerank, _PAGERANK_SQL),
    "order_skip_triangles": (order_skip_triangles, _TRIANGLES_SQL),
    "order_skip_clustering_coeff": (order_skip_clustering_coeff, _CLUSTERING_COEFF_SQL),
    "similar_orders_jaccard": (similar_orders_jaccard, _SETSIM_SQL),
    "tfidf_cosine_pairs_documents": (tfidf_cosine_pairs_documents, _TFIDF_COSINE_SQL),
    "bigram_pmi_documents": (bigram_pmi_documents, _BIGRAM_PMI_SQL),
    "event_transitions": (event_transitions, _EVENT_TRANSITIONS_SQL),
    "overlapping_order_windows": (overlapping_order_windows, _OVERLAP_JOIN_SQL),
    "customer_order_p90": (customer_order_p90, _CUSTOMER_P90_SQL),
    "daily_revenue_autocorr": (daily_revenue_autocorr, _DAILY_AUTOCORR_SQL),
    "cusum_daily_revenue": (cusum_daily_revenue, _CUSUM_SQL),
    "cusum_user_events": (cusum_user_events, _CUSUM_USER_SQL),
    "mad_outlier_orders": (mad_outlier_orders, _MAD_OUTLIER_SQL),
    "benford_first_digit_prices": (benford_first_digit_prices, _BENFORD_SQL),
    "corr_matrix_lineitem": (corr_matrix_lineitem, _CORR_MATRIX_SQL),
    "key_skew_gini_orders": (key_skew_gini_orders, _KEY_SKEW_SQL),
    "cms_part_counts": (cms_part_counts, _CMS_SQL),
    "hll_distinct_users_by_type": (hll_distinct_users_by_type, _HLL_SQL),
    "bloom_false_positives_customers": (bloom_false_positives_customers, _BLOOM_FP_SQL),
    "token_kl_by_source": (token_kl_by_source, _TOKEN_KL_SQL),
    "events_hourly_gapfilled": (events_hourly_gapfilled, _GAPFILL_SQL),
    "near_dup_clusters_documents": (near_dup_clusters_documents, None),
    "near_dup_clusters_exact": (near_dup_clusters_exact, _NEAR_DUP_CLUSTERS_EXACT_SQL),
    "sample_per_source_documents": (sample_per_source_documents, _SAMPLE_PER_SOURCE_SQL),
    "incremental_dedup_documents": (incremental_dedup_documents, _INCREMENTAL_DEDUP_SQL),
    "knn_lsh_recall": (knn_lsh_recall, None),
    "knn_ivf_recall": (knn_ivf_recall, None),
    "knn_embeddings_pq": (knn_embeddings_pq, None),
    "knn_pq_recall": (knn_pq_recall, None),
    "subword_token_counts": (subword_token_counts,
        r"SELECT doc_id, COALESCE(array_length(regexp_extract_all(text, "
        r"'[A-Za-z]+|\d+|[^\sA-Za-z\d]')), 0) AS n_subword_tokens "
        r"FROM documents ORDER BY doc_id"),
    "drift_ks_quantity": (drift_ks_quantity, _DRIFT_KS_SQL),
    "events_last_order_asof": (events_last_order_asof, _ASOF_SQL),
    "early_shipments_range_join": (early_shipments_range_join, _RANGE_JOIN_SQL),
    "drift_psi_quantity": (drift_psi_quantity, _DRIFT_PSI_SQL),
    "embedding_near_dup_pairs": (embedding_near_dup_pairs, None),
    "embedding_norms": (embedding_norms, _EMB_NORMS_SQL),
    "top_cosine_pairs": (top_cosine_pairs, _TOP_COS_PAIRS_SQL),
    "label_centroid_distances": (label_centroid_distances, _LABEL_CENTROID_SQL),
    "image_decode_features": (image_decode_features, None),
    "video_frame_samples": (video_frame_samples, None),
    "orders_running_total": (orders_running_total, _RUNNING_TOTAL_SQL),
    "events_rolling_stats": (events_rolling_stats, _ROLLING_SQL),
    "events_pivot_by_type": (events_pivot_by_type, _PIVOT_SQL),
    "heavy_hitter_parts": (heavy_hitter_parts, _HEAVY_HITTERS_SQL),
    "top_parts_per_brand": (top_parts_per_brand, _TOP_PER_BRAND_SQL),
    "chunk_documents": (chunk_documents, _CHUNK_SQL),
    "stratified_sample_orders": (stratified_sample_orders, _STRATIFIED_SQL),
    "quantiles_by_returnflag": (quantiles_by_returnflag, _QUANTILES_BY_FLAG_SQL),
    "tfidf_top_terms": (tfidf_top_terms, _TFIDF_SQL),
    "dedup_hashed_documents": (dedup_hashed_documents, _DEDUP_HASHED_SQL),
    "orders_price_ntiles": (orders_price_ntiles, _NTILES_SQL),
    "clean_text_documents": (clean_text_documents, _CLEAN_TEXT_SQL),
    "orders_collected_by_customer": (orders_collected_by_customer, _COLLECT_SQL),
    "revenue_rollup": (revenue_rollup, _ROLLUP_SQL),
    "customers_with_urgent_orders": (customers_with_urgent_orders, _CUST_WITH_URGENT_SQL),
    "user_customer_full_outer": (user_customer_full_outer, _FULL_OUTER_SQL),
    "event_users_customers_setops": (event_users_customers_setops, _SETOPS_SQL),
    "tpch_q3_shipping_priority": (tpch_q3_shipping_priority, _TPCH_Q3_SQL),
    "tpch_q13_customer_distribution": (tpch_q13_customer_distribution, _TPCH_Q13_SQL),
    "tpch_q5_local_supplier_volume": (tpch_q5_local_supplier_volume, _TPCH_Q5_SQL),
    "linreg_price_qty_by_flag": (linreg_price_qty_by_flag, _LINREG_SQL),
    "bpe_merges_documents": (bpe_merges_documents, None),
    "fuzzy_part_names": (fuzzy_part_names, _FUZZY_PART_SQL),
    "outlier_orders_by_priority": (outlier_orders_by_priority, _OUTLIER_SQL),
    "curation_funnel_documents": (curation_funnel_documents, _CURATION_FUNNEL_SQL),
    "tpch_q22_idle_rich_customers": (tpch_q22_idle_rich_customers, _TPCH_Q22_SQL),
    "compact_latest_events": (compact_latest_events, _COMPACT_LATEST_SQL),
    "funnel_conversion_events": (funnel_conversion_events, _FUNNEL_CONV_SQL),
    "reconcile_order_snapshots": (reconcile_order_snapshots, _RECONCILE_SQL),
    "cohort_retention_events": (cohort_retention_events, _COHORT_SQL),
    "tpch_q18_large_orders": (tpch_q18_large_orders, _TPCH_Q18_SQL),
    "tpch_q10_returned_items": (tpch_q10_returned_items, _TPCH_Q10_SQL),
    "tpch_q4_order_priority": (tpch_q4_order_priority, _TPCH_Q4_SQL),
    "tpch_q6_forecast_revenue": (tpch_q6_forecast_revenue, _TPCH_Q6_SQL),
    "tpch_q7_volume_shipping": (tpch_q7_volume_shipping, _TPCH_Q7_SQL),
    "tpch_q8_market_share": (tpch_q8_market_share, _TPCH_Q8_SQL),
    "tpch_q14_promo_revenue": (tpch_q14_promo_revenue, _TPCH_Q14_SQL),
    "tpch_q15_top_supplier": (tpch_q15_top_supplier, _TPCH_Q15_SQL),
    "tpch_q17_small_quantity_revenue": (tpch_q17_small_quantity_revenue, _TPCH_Q17_SQL),
    "tpch_q16_supplier_counts": (tpch_q16_supplier_counts, _TPCH_Q16_SQL),
    "tpch_q19_disjunctive_revenue": (tpch_q19_disjunctive_revenue, _TPCH_Q19_SQL),
    "tpch_q12_priority_by_flag": (tpch_q12_priority_by_flag, _TPCH_Q12_SQL),
    "tpch_q21_waiting_supplier": (tpch_q21_waiting_supplier, _TPCH_Q21_SQL),
    "tpch_q9_product_profit": (tpch_q9_product_profit, _TPCH_Q9_SQL),
    "semantic_dedup_survivors": (semantic_dedup_survivors, _SEMANTIC_DEDUP_SQL),
    "boilerplate_fraction_documents": (boilerplate_fraction_documents, _BOILERPLATE_SQL),
    "debounce_events": (debounce_events, _DEBOUNCE_SQL),
    "tpch_q20_dominant_suppliers": (tpch_q20_dominant_suppliers, _TPCH_Q20_SQL),
    "tpch_q2_min_price_supplier": (tpch_q2_min_price_supplier, _TPCH_Q2_SQL),
    "tpch_q11_important_parts": (tpch_q11_important_parts, _TPCH_Q11_SQL),
    "unigram_nll_documents": (unigram_nll_documents, _UNIGRAM_NLL_SQL),
    "dsir_importance_documents": (dsir_importance_documents, _DSIR_SQL),
    "weighted_sample_documents": (weighted_sample_documents, _WEIGHTED_SAMPLE_SQL),
    "lexical_diversity_documents": (lexical_diversity_documents, _LEXICAL_DIVERSITY_SQL),
    "zipf_slope_documents": (zipf_slope_documents, _ZIPF_SLOPE_SQL),
    "dup_span_coverage_documents": (dup_span_coverage_documents, _DUP_SPAN_SQL),
    "embedding_near_dup_exact": (embedding_near_dup_exact, _EMB_NEAR_DUP_EXACT_SQL),
    "train_val_test_split_documents": (train_val_test_split_documents, _TRAIN_SPLIT_SQL),
    "shuffled_shard_assignment_documents": (shuffled_shard_assignment_documents, _SHUFFLED_SHARDS_SQL),
    "peak_concurrent_users_events": (peak_concurrent_users_events, _PEAK_CONC_SQL),
    "decontaminate_documents": (decontaminate_documents, _DECONTAM_SQL),
    "mixture_sample_documents": (mixture_sample_documents, _MIXTURE_SQL),
    "temperature_mixture_documents": (temperature_mixture_documents, _TEMPERATURE_MIXTURE_SQL),
    "purchase_attribution_events": (purchase_attribution_events, _ATTRIBUTION_SQL),
    "salted_user_event_revenue": (salted_user_event_revenue, _SALTED_JOIN_SQL),
    "price_qty_corr_by_flag": (price_qty_corr_by_flag, _CORR_SQL),
    "monthly_revenue_trend": (monthly_revenue_trend, _MONTHLY_SQL),
    "mode_priority_by_status": (mode_priority_by_status, _MODE_SQL),
    "event_type_entropy": (event_type_entropy, _ENTROPY_SQL),
    "revenue_cube": (revenue_cube, _CUBE_SQL),
    "pii_redact_documents": (pii_redact_documents, _PII_SQL),
    "repetition_scores_documents": (repetition_scores_documents, _REPETITION_SQL),
    "top_bigrams_documents": (top_bigrams_documents, _TOP_BIGRAMS_SQL),
    "centroid_assign_embeddings": (centroid_assign_embeddings, _CENTROID_ASSIGN_SQL),
    "kmeans_embeddings": (kmeans_embeddings, None),
    "events_time_window_stats": (events_time_window_stats, _TIME_WINDOW_SQL),
    "brand_status_grid": (brand_status_grid, _CROSS_JOIN_SQL),
    "filter_documents_quality": (filter_documents_quality, _QUALITY_FILTER_SQL),
    "customer_name_ids": (customer_name_ids, _NAME_IDS_SQL),
    "orders_global_rank": (orders_global_rank, _GLOBAL_RANK_SQL),
    "part_attrs_unpivot": (part_attrs_unpivot, _UNPIVOT_SQL),
    "pack_documents_bins": (pack_documents_bins, None),
    "containment_pairs_documents": (containment_pairs_documents, None),
    "containment_exact_documents": (containment_exact_documents, _CONTAINMENT_EXACT_SQL),
    "events_value_histogram": (events_value_histogram, _VALUE_HIST_SQL),
    "distinct_users_by_type": (distinct_users_by_type, _DISTINCT_USERS_SQL),
    "coerce_events_props": (coerce_events_props,
        "SELECT CAST(SUM(CASE WHEN event_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS event_id_nulls, "
        "CAST(SUM(CASE WHEN event_type IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS event_type_nulls, "
        "CAST(SUM(CASE WHEN value IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS value_nulls, "
        "CAST(SUM(CASE WHEN props IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS props_nulls FROM events"),
}
