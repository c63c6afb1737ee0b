"""Local replica of the driver's correctness gate: run every REGISTRY query
with Ray and its oracle SQL with DuckDB on the same sf dir; compare
row-count, column names, and order-insensitive values.

Usage: python scripts/check_oracle.py [--json OUT.json] [sf_dir] [query ...]

``--json`` archives the full result (per-query status, rows, wall time)
— committed per round as ORACLE_LOCAL_r{N}.json so the queries outside
the driver's sampled gate carry durable evidence (round-3 verdict item
9).  The archive is rewritten after every query, so a run that dies
part-way (a Ray core crash) keeps every entry that completed.

Ray starts with one CPU per core this process may run on.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(obj, ray.data.Dataset):
            return obj.to_pandas()
    except ImportError:
        pass
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df.columns = [str(c) for c in df.columns]
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = np.round(df[c].astype(np.float64), 9)
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(map(str, ray_df.columns)) != sorted(map(str, sql_df.columns)):
        problems.append(f"columns differ: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"row counts differ: ray={len(ray_df)} sql={len(sql_df)}")
    a, b = normalize(ray_df), normalize(sql_df)
    if len(a) == len(b):
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False, rtol=1e-6, atol=1e-9)
        except AssertionError as e:
            problems.append(f"values differ: {str(e).splitlines()[-1][:200]}")
    return problems


def write_archive(json_out: str, sf_dir: str, results: dict[str, dict], failures: int) -> None:
    """Write the ``--json`` archive (temp + rename: a reader never sees a
    half-written file)."""
    import json

    summary = {
        "sf_dir": sf_dir,
        "total": len(results),
        "match": sum(1 for r in results.values() if r["status"] == "match"),
        "rows_only": sum(1 for r in results.values() if r["status"] == "rows_only"),
        "failures": failures,
        "queries": results,
    }
    with open(json_out + ".tmp", "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    os.replace(json_out + ".tmp", json_out)


def main() -> int:
    argv = sys.argv[1:]
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=len(os.sched_getaffinity(0)), include_dashboard=False, logging_level="ERROR"
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ndap_data_validator_ray.pipelines.queries import REGISTRY

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    failures = 0
    results: dict[str, dict] = {}
    for name, (fn, sql) in REGISTRY.items():
        if only and name not in only:
            continue
        if json_out and results:
            write_archive(json_out, sf_dir, results, failures)
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL {name}: ray error: {type(exc).__name__}: {exc}")
            results[name] = {"status": "fail", "err": f"ray error: {type(exc).__name__}: {exc}"}
            failures += 1
            continue
        dt = time.time() - t0
        if sql is None:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows, {dt:.1f}s)")
            results[name] = {"status": "rows_only", "rows": int(len(ray_df)), "sec": round(dt, 2)}
            continue
        try:
            sql_df = con.execute(sql).df()
        except Exception as exc:
            print(f"FAIL {name}: sql error: {exc}")
            results[name] = {"status": "fail", "err": f"sql error: {exc}"}
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
            results[name] = {"status": "fail", "err": "; ".join(problems)[:400]}
        else:
            print(f"OK   {name}: {len(ray_df)} rows match ({dt:.1f}s)")
            results[name] = {"status": "match", "rows": int(len(ray_df)), "sec": round(dt, 2)}
    print(f"\n{failures} failures")
    if json_out:
        write_archive(json_out, sf_dir, results, failures)
        print(f"wrote {json_out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
