"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed writes
byte-identical files, so each run (and each round inside a run) builds its
inputs fresh from ``--seed`` and never reuses a cache.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# ---------------------------------------------------------------------------
# clips table (clips_validate, clips_delta)
# ---------------------------------------------------------------------------


def write_clips(out_dir: str, seed: int, n_rows: int, n_files: int):
    """Clip shards written by the engine's own writer
    (``sources.synthetic.write_clips_dataset``), so the goldens it plants are
    the ones ``tests/test_clip_pipeline.py`` checks.  Called before
    ``ray.init``, so the shards are written serially in this process.
    Returns the goldens."""
    from ndap_data_validator_ray.sources.synthetic import ClipTableSpec, write_clips_dataset

    spec = ClipTableSpec(n_rows=n_rows, seed=seed, n_files=n_files, hot_dup_copies=max(10, n_rows // 100))
    return write_clips_dataset(out_dir, spec, overwrite=True)


# ---------------------------------------------------------------------------
# role-typed string files (roles_folder)
# ---------------------------------------------------------------------------

ROLES = {
    "state": "Location",
    "period": "Time",
    "value_int": "Measures",
    "value_float": "Measures",
    "notes": "Others",
}
MEASURE_TYPES = {"value_int": "integer", "value_float": "float"}

_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _periods(rng: np.random.Generator, n: int, fmt: str) -> np.ndarray:
    years = rng.integers(2001, 2024, n)
    months = rng.integers(0, 12, n)
    if fmt == "YYYY":
        return np.array([str(y) for y in years], dtype=object)
    if fmt == "YYYY-MM":
        return np.array([f"{y}-{m + 1:02d}" for y, m in zip(years, months)], dtype=object)
    return np.array([f"{_MONTHS[m]}-{y}" for y, m in zip(years, months)], dtype=object)


def write_role_files(out_dir: str, seed: int, n_files: int, n_rows: int) -> list[str]:
    """``n_files`` all-string parquet files under the five-role layout.

    File ``k`` uses one majority time format (at least 97% of its rows, so
    the majority is unique and the reference's order-dependent tie-break
    never decides a verdict).  Files are dirty in rotation: ``k % 4 == 1``
    carries a minority time format, ``k % 4 == 2`` injected non-numeric
    measures, ``k % 4 == 3`` null locations and a few invalid periods."""
    os.makedirs(out_dir, exist_ok=True)
    formats = ["YYYY", "YYYY-MM", "MMM-YYYY"]
    paths = []
    for k in range(n_files):
        rng = np.random.default_rng([seed, k])
        major = formats[k % len(formats)]
        state = np.array([f"S{v:02d}" for v in rng.integers(0, 36, n_rows)], dtype=object)
        period = _periods(rng, n_rows, major)
        value_int = np.array([str(v) for v in rng.integers(-5000, 5000, n_rows)], dtype=object)
        value_float = np.array([f"{v:.3f}" for v in rng.normal(100.0, 40.0, n_rows)], dtype=object)
        notes = np.array([f"note {v} batch {k}" for v in rng.integers(0, 10**6, n_rows)], dtype=object)
        dirty = rng.choice(n_rows, size=max(1, n_rows // 100), replace=False)
        if k % 4 == 1:
            minor = formats[(k + 1) % len(formats)]
            period[dirty] = _periods(rng, len(dirty), minor)
        elif k % 4 == 2:
            half = len(dirty) // 2
            value_int[dirty[:half]] = np.where(np.arange(half) % 2 == 0, "n/a", "2.5")
            value_float[dirty[half:]] = "junk"
        elif k % 4 == 3:
            state[dirty] = None
            period[dirty[:3]] = "not-a-period"
        tbl = pa.table(
            {
                "state": pa.array(state, pa.string()),
                "period": pa.array(period, pa.string()),
                "value_int": pa.array(value_int, pa.string()),
                "value_float": pa.array(value_float, pa.string()),
                "notes": pa.array(notes, pa.string()),
            }
        )
        path = os.path.join(out_dir, f"file-{k:03d}.parquet")
        pq.write_table(tbl, path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# TPC-H-shaped tables + events stream (query_mix)
# ---------------------------------------------------------------------------

_PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], dtype=object)
_EVENT_TYPES = np.array(["view", "click", "cart", "purchase"], dtype=object)
_EPOCH = np.datetime64("1992-01-01T00:00:00", "us")
_DAY_US = 86_400 * 1_000_000


def write_query_tables(sf_dir: str, seed: int, n_orders: int, n_events: int) -> dict[str, int]:
    """``orders``, ``lineitem`` and ``events`` with the columns, types and
    key relationships of the TPC-H-ish test tables the six ``query_mix``
    queries read.  ``lineitem`` has 1-7 lines per order plus ~0.5% repeated
    ``(l_orderkey, l_linenumber)`` pairs.  Returns row counts."""
    os.makedirs(sf_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    n_cust = max(10, n_orders // 10)

    okey = np.sort(rng.choice(np.arange(1, 4 * n_orders + 1), size=n_orders, replace=False)).astype(np.int64)
    odate_days = rng.integers(0, 2405, n_orders)  # 1992-01-01 .. 1998-08-02
    custkey = rng.integers(0, n_cust, n_orders)
    custkey[: n_cust // 10] = np.arange(n_cust // 10)  # every event user has an order
    orders = pa.table(
        {
            "o_orderkey": pa.array(okey, pa.int64()),
            "o_custkey": pa.array(custkey, pa.int64()),
            "o_orderstatus": pa.array(rng.choice(np.array(["F", "O", "P"], dtype=object), n_orders), pa.string()),
            "o_totalprice": pa.array(np.round(rng.uniform(900.0, 500_000.0, n_orders), 2), pa.float64()),
            "o_orderdate": pa.array(_EPOCH + odate_days * _DAY_US, pa.timestamp("us")),
            "o_orderpriority": pa.array(rng.choice(_PRIORITIES, n_orders), pa.string()),
        }
    )

    lines = rng.integers(1, 8, n_orders)
    l_okey = np.repeat(okey, lines)
    l_lnum = np.concatenate([np.arange(1, k + 1) for k in lines]).astype(np.int32)
    l_odays = np.repeat(odate_days, lines)
    n_li = len(l_okey)
    dup = rng.choice(n_li, size=max(1, n_li // 200), replace=False)
    l_okey = np.concatenate([l_okey, l_okey[dup]])
    l_lnum = np.concatenate([l_lnum, l_lnum[dup]])
    l_odays = np.concatenate([l_odays, l_odays[dup]])
    n_li = len(l_okey)
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    price = np.round(rng.uniform(900.0, 2100.0, n_li), 2)
    ship_days = l_odays + rng.integers(1, 122, n_li)
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(l_okey, pa.int64()),
            "l_partkey": pa.array(rng.integers(1, 20_001, n_li), pa.int64()),
            "l_suppkey": pa.array(rng.integers(1, 1_001, n_li), pa.int64()),
            "l_linenumber": pa.array(l_lnum, pa.int32()),
            "l_quantity": pa.array(qty, pa.float64()),
            "l_extendedprice": pa.array(np.round(qty * price, 2), pa.float64()),
            "l_discount": pa.array(rng.integers(0, 11, n_li) / 100.0, pa.float64()),
            "l_tax": pa.array(rng.integers(0, 9, n_li) / 100.0, pa.float64()),
            "l_returnflag": pa.array(rng.choice(np.array(["A", "N", "R"], dtype=object), n_li), pa.string()),
            "l_linestatus": pa.array(np.where(ship_days > 2360, "O", "F").astype(object), pa.string()),
            "l_shipdate": pa.array(_EPOCH + ship_days * _DAY_US, pa.timestamp("us")),
        }
    )

    # as in the repo's test tables, events fall in one month after every
    # order, and their users are the first tenth of the customers, each of
    # whom has orders; bursts give sessions of several events
    n_users = max(1, n_cust // 10)
    burst_start = rng.integers(0, 30 * _DAY_US, n_events // 4 + 1)
    burst = rng.integers(0, len(burst_start), n_events)
    ts = np.datetime64("2024-01-01T00:00:00", "us") + burst_start[burst] + rng.integers(0, 3_600_000_000, n_events)
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n_events, dtype=np.int64), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(burst % n_users, pa.int64()),
            "event_type": pa.array(rng.choice(_EVENT_TYPES, n_events), pa.string()),
            "value": pa.array(np.round(rng.exponential(20.0, n_events), 2), pa.float64()),
            "props": pa.array([f'{{"k":{v}}}' for v in rng.integers(0, 100, n_events)], pa.string()),
        }
    )
    for name, tbl in (("orders", orders), ("lineitem", lineitem), ("events", events)):
        pq.write_table(tbl, os.path.join(sf_dir, f"{name}.parquet"))
    return {"orders": orders.num_rows, "lineitem": lineitem.num_rows, "events": events.num_rows}
