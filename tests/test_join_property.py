"""Property test: every bucketed_join variant matches DuckDB on random
small inputs (random keys incl. nulls and duplicates, random sizes,
and 1, 3 or 8 exchange partitions) — the join-family analogue of the coercion kernels' pandas-oracle
hypothesis tests (SURVEY.md §5)."""

from unittest import mock

import duckdb
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data

from ndap_data_validator_ray.stages import groupby
from ndap_data_validator_ray.stages.join import bucketed_join

_keys = st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=0, max_size=25)

_SQL = {
    "inner": "SELECT lv, rv FROM l JOIN r ON l.k = r.k",
    "left": "SELECT lv, rv FROM l LEFT JOIN r ON l.k = r.k",
    "right": "SELECT lv, rv FROM l RIGHT JOIN r ON l.k = r.k",
    "outer": "SELECT lv, rv FROM l FULL OUTER JOIN r ON l.k = r.k",
    "semi": "SELECT lv, CAST(NULL AS BIGINT) AS rv FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
    "anti": "SELECT lv, CAST(NULL AS BIGINT) AS rv FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
}


@settings(max_examples=30, deadline=None)
@given(
    lk=_keys,
    rk=_keys,
    how=st.sampled_from(list(_SQL)),
    n_tasks=st.sampled_from([1, 3, 8]),
)
def test_bucketed_join_matches_duckdb_property(lk, rk, how, n_tasks):
    left = pd.DataFrame(
        {"k": pd.array(lk, dtype="Int64"), "lv": np.arange(len(lk), dtype=np.int64)}
    )
    right = pd.DataFrame(
        {"k": pd.array(rk, dtype="Int64"), "rv": np.arange(len(rk), dtype=np.int64)}
    )
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql(_SQL[how] + " ORDER BY lv NULLS LAST, rv NULLS LAST").df()
    with mock.patch.object(groupby, "_reduce_tasks", lambda _in_bytes: n_tasks):
        got = bucketed_join(ray.data.from_pandas(left), ray.data.from_pandas(right), ["k"], how=how).to_pandas()
    if len(want) == 0:
        # Ray's to_pandas drops the columns of an empty result
        assert len(got) == 0
        return
    if "rv" not in got.columns:
        got["rv"] = np.nan
    got = got.sort_values(["lv", "rv"], na_position="last").reset_index(drop=True)
    assert len(got) == len(want), (how, len(got), len(want))
    for col in ("lv", "rv"):
        np.testing.assert_array_equal(
            got[col].astype("float64").to_numpy(),
            want[col].astype("float64").to_numpy(),
            err_msg=f"{how}.{col}",
        )
