"""Partitioned window-function stage: every spec kind vs a pandas oracle
computed with plain per-partition sorts, plus dtype / collision contracts."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from ndap_data_validator_ray.stages import groupby
from ndap_data_validator_ray.stages.window import WindowSpec, partitioned_window


def _partitions(monkeypatch, n: int) -> None:
    """Run every exchange with ``n`` reduce tasks, hence ``n`` partitions."""
    monkeypatch.setattr(groupby, "_reduce_tasks", lambda _in_bytes: n)


def _fixture(n_parts=7, rows_per=23, seed=11) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    n = n_parts * rows_per
    df = pd.DataFrame(
        {
            "pk": rng.integers(0, n_parts, n),
            "ord": rng.permutation(n),  # unique -> deterministic order
            "ival": rng.integers(-100, 100, n),
            "fval": rng.normal(size=n).round(6),
        }
    )
    return df.sample(frac=1.0, random_state=3).reset_index(drop=True)  # shuffle input order


def _oracle(df: pd.DataFrame) -> pd.DataFrame:
    out = df.sort_values(["pk", "ord"], ignore_index=True)
    g = out.groupby("pk", sort=False)
    out["rn"] = g.cumcount() + 1
    out["rnk"] = g["ord"].rank(method="min").astype("int64")
    out["lag_i"] = g["ival"].shift(1).astype("Int64")
    out["lead_i"] = g["ival"].shift(-1).astype("Int64")
    out["cs"] = g["fval"].cumsum()
    out["cm"] = g["ival"].cummax()
    out["rs3"] = g["fval"].rolling(3, min_periods=1).sum().droplevel(0)
    out["rm2"] = g["fval"].rolling(2, min_periods=1).mean().droplevel(0)
    return out


SPECS = [
    WindowSpec("row_number", out="rn"),
    WindowSpec("rank", out="rnk"),
    WindowSpec("lag", col="ival", out="lag_i"),
    WindowSpec("lead", col="ival", out="lead_i"),
    WindowSpec("cumsum", col="fval", out="cs"),
    WindowSpec("cummax", col="ival", out="cm"),
    WindowSpec("rolling_sum", col="fval", out="rs3", n=3),
    WindowSpec("rolling_mean", col="fval", out="rm2", n=2),
]


def test_all_kinds_match_pandas_oracle(monkeypatch):
    _partitions(monkeypatch, 5)
    df = _fixture()
    got = (
        partitioned_window(ray.data.from_pandas(df), ["pk"], ["ord"], SPECS)
        .to_pandas()
        .sort_values(["pk", "ord"], ignore_index=True)
    )
    exp = _oracle(df)
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)


def test_integer_dtypes_survive_lag_lead(monkeypatch):
    _partitions(monkeypatch, 2)
    df = _fixture(n_parts=3, rows_per=5)
    got = partitioned_window(
        ray.data.from_pandas(df), ["pk"], ["ord"],
        [WindowSpec("lag", col="ival", out="lag_i"),
         WindowSpec("lead", col="ival", out="lead_i")],
    ).to_pandas()
    # key/payload ints stay int64; lag/lead ints become nullable Int64 (SQL
    # NULL edges), never float64
    assert got["pk"].dtype == np.int64 and got["ival"].dtype == np.int64
    assert str(got["lag_i"].dtype) == "Int64" and str(got["lead_i"].dtype) == "Int64"


def test_multi_column_partition_and_order(monkeypatch):
    _partitions(monkeypatch, 3)
    rng = np.random.default_rng(4)
    df = pd.DataFrame(
        {
            "a": rng.integers(0, 3, 60),
            "b": rng.integers(0, 2, 60),
            "t1": rng.integers(0, 5, 60),
            "t2": rng.permutation(60),
            "v": rng.normal(size=60),
        }
    )
    got = (
        partitioned_window(
            ray.data.from_pandas(df), ["a", "b"], ["t1", "t2"],
            [WindowSpec("row_number", out="rn"),
             WindowSpec("rank", out="rnk"),
             WindowSpec("cumsum", col="v", out="cs")],
        )
        .to_pandas()
        .sort_values(["a", "b", "t1", "t2"], ignore_index=True)
    )
    exp = df.sort_values(["a", "b", "t1", "t2"], ignore_index=True)
    g = exp.groupby(["a", "b"], sort=False)
    exp["rn"] = g.cumcount() + 1
    key = pd.Series(list(zip(exp["t1"], exp["t2"])), index=exp.index)
    exp["rnk"] = key.groupby([exp["a"], exp["b"]], sort=False).rank(method="min").astype("int64")
    exp["cs"] = g["v"].cumsum()
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)


def test_rank_ties_follow_sql_min_rank(monkeypatch):
    _partitions(monkeypatch, 1)
    # duplicate ORDER BY values inside one partition: RANK() leaves gaps
    df = pd.DataFrame({"pk": [1] * 5, "ord": [10, 10, 20, 20, 30], "row": range(5)})
    got = (
        partitioned_window(
            ray.data.from_pandas(df), ["pk"], ["ord"],
            [WindowSpec("rank", out="rnk"), WindowSpec("dense_rank", out="drnk")],
        )
        .to_pandas()
        .sort_values(["ord", "row"], ignore_index=True)
    )
    assert got["rnk"].tolist() == [1, 1, 3, 3, 5]
    assert got["drnk"].tolist() == [1, 1, 2, 2, 3]


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown window kind"):
        WindowSpec("median", out="x")
    with pytest.raises(ValueError, match="needs col="):
        WindowSpec("lag", out="x")
    with pytest.raises(ValueError, match="collides"):
        partitioned_window(
            ray.data.from_pandas(pd.DataFrame({"pk": [1], "ord": [1]})),
            ["pk"], ["ord"], [WindowSpec("row_number", out="ord")],
        )
    with pytest.raises(ValueError, match="partition_by"):
        partitioned_window(
            ray.data.from_pandas(pd.DataFrame({"ord": [1]})),
            [], ["ord"], [WindowSpec("row_number", out="rn")],
        )


def test_distribution_rank_kinds_match_duckdb():
    """percent_rank / cume_dist / ntile (incl. partitions smaller than n
    and ties) agree with SQL window semantics."""
    import duckdb

    from ndap_data_validator_ray.stages.window import WindowSpec, _apply_specs

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {"grp": rng.integers(0, 5, 300), "v": rng.integers(0, 20, 300).astype(float),
         "id": np.arange(300)}
    )
    df.loc[df["grp"] == 4, "grp"] = 0  # tiny partition variety + ties via int v
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        """SELECT grp, id, percent_rank() OVER w AS pr, cume_dist() OVER w AS cd,
           CAST(ntile(4) OVER w AS BIGINT) AS nt
           FROM t WINDOW w AS (PARTITION BY grp ORDER BY v, id) ORDER BY grp, v, id"""
    ).df()
    got = _apply_specs(
        df.copy(), ["grp"], ["v", "id"],
        [WindowSpec(kind="percent_rank", out="pr"), WindowSpec(kind="cume_dist", out="cd"),
         WindowSpec(kind="ntile", out="nt", n=4)],
    )[["grp", "id", "pr", "cd", "nt"]].reset_index(drop=True)
    assert np.allclose(got[["pr", "cd"]], want[["pr", "cd"]], atol=1e-12)
    np.testing.assert_array_equal(got["nt"].to_numpy(), want["nt"].to_numpy())


def test_range_window_matches_duckdb_including_ties():
    """Time-RANGE frames: SQL CURRENT ROW means 'last ORDER BY peer', so
    tied timestamps must all see the full tie group."""
    import duckdb

    from ndap_data_validator_ray.stages.window import WindowSpec, partitioned_window

    rng = np.random.default_rng(3)
    n = 400
    df = pd.DataFrame(
        {
            "u": rng.integers(0, 10, n),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 36000, n), unit="s"),
            "v": np.round(rng.random(n), 3),
        }
    )
    # plant exact-duplicate timestamps inside one partition (the tie case)
    df.loc[1, ["u", "ts"]] = df.loc[0, ["u", "ts"]]
    df.loc[2, ["u", "ts"]] = df.loc[0, ["u", "ts"]]
    out = partitioned_window(
        ray.data.from_pandas(df),
        ["u"],
        ["ts"],
        [
            WindowSpec(kind="range_count", out="n_1h", delta=pd.Timedelta("1h")),
            WindowSpec(kind="range_sum", out="s_1h", col="v", delta=pd.Timedelta("1h")),
            WindowSpec(kind="range_mean", out="m_1h", col="v", delta=pd.Timedelta("1h")),
        ],
    ).to_pandas()
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        """
        SELECT u, ts, v,
               CAST(COUNT(*) OVER w AS BIGINT) AS n_1h,
               SUM(v) OVER w AS s_1h,
               AVG(v) OVER w AS m_1h
        FROM t WINDOW w AS (PARTITION BY u ORDER BY ts
                            RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
        ORDER BY u, ts, v"""
    ).df()
    got = out.sort_values(["u", "ts", "v"]).reset_index(drop=True)
    want = want.sort_values(["u", "ts", "v"]).reset_index(drop=True)
    np.testing.assert_array_equal(got["n_1h"].to_numpy(), want["n_1h"].to_numpy())
    np.testing.assert_allclose(got["s_1h"].to_numpy(), want["s_1h"].to_numpy(), rtol=1e-9)
    np.testing.assert_allclose(got["m_1h"].to_numpy(), want["m_1h"].to_numpy(), rtol=1e-9)
