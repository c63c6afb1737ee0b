"""Report-shape conformance: the distributed ValidateBatch + finalize path
must reproduce the reference report (validation.py:240-357) — identical
reason strings, verdicts, counts — and be invariant to batch splits.
Fixture mirrors FIXTURES.md F2 (roles_csv)."""

import pandas as pd
import pyarrow as pa
import pytest

from ndap_data_validator_ray.report import TableStats, finalize_report
from ndap_data_validator_ray.schema import schema_from_roles
from ndap_data_validator_ray.stages.validate import ValidateBatch
from ndap_data_validator_ray.functions.sketches import deserialize
from tests.oracle_reference import oracle_validate

ROLES = {
    "state": "Location",
    "period": "Time",
    "value_int": "Measures",
    "value_float": "Measures",
    "notes": "Others",
}
MEASURE_TYPES = {"value_int": "integer", "value_float": "float"}


def _f2_table(variant: str) -> pd.DataFrame:
    n = 40
    base = {
        "state": [f"S{i % 5}" for i in range(n)],
        "period": ["2020"] * n,
        "value_int": [str(i) for i in range(n)],
        "value_float": [f"{i}.5" for i in range(n)],
        "notes": [f"note {i}" for i in range(n)],
    }
    df = pd.DataFrame(base, dtype=object)
    if variant == "null_location":
        df.loc[3, "state"] = None
        df.loc[17, "state"] = None
    elif variant == "mixed_time":
        df.loc[5, "period"] = "Jan-2020"
    elif variant == "invalid_time":
        df.loc[5, "period"] = "not-a-period"
        df.loc[9, "period"] = ""
    elif variant == "bad_int":
        df.loc[2, "value_int"] = "2.5"
        df.loc[4, "value_int"] = "junk"
    elif variant == "bad_float":
        df.loc[2, "value_float"] = "junk"
    elif variant == "null_time":
        df.loc[1, "period"] = None
    return df


def _engine_report(df: pd.DataFrame, roles=ROLES, mtypes=MEASURE_TYPES, batch_sizes=(None,)):
    schema = schema_from_roles(roles, mtypes)
    reports = []
    for bs in batch_sizes:
        vb = ValidateBatch(schema)
        total = TableStats()
        if bs is None:
            chunks = [df]
        else:
            chunks = [df.iloc[i : i + bs] for i in range(0, len(df), bs)]
        blobs = []
        for c in chunks:
            out = vb(pa.Table.from_pandas(c, preserve_index=False))
            for row in out.to_pylist():
                if row["record_type"] == "stats":
                    blobs.append(row["stats_blob"])
        for b in sorted(blobs):
            total = total.merge(deserialize(b))
        reports.append(finalize_report(schema, total))
    return reports


VARIANTS = ["clean", "null_location", "mixed_time", "invalid_time", "bad_int", "bad_float", "null_time"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_reference_parity(variant):
    df = _f2_table(variant)
    expect = oracle_validate(df, ROLES, MEASURE_TYPES)
    (got,) = _engine_report(df)
    assert got["failed_columns"] == expect["failed_columns"]
    assert got["missing_roles"] == expect["missing_roles"]
    assert got["passed"] == expect["passed"]
    for col, exp in expect["per_column"].items():
        g = got["per_column"][col]
        for k in ("role", "nulls", "conversion_errors", "passed", "reasons"):
            assert g[k] == exp[k], (variant, col, k, g[k], exp[k])


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_split_invariance(variant):
    """Verdicts identical whether the table is one batch or many
    (SURVEY.md §5.3: merge(partials) == whole-table exact)."""
    df = _f2_table(variant)
    whole, in_7s, in_3s = _engine_report(df, batch_sizes=(None, 7, 3))
    for a in (in_7s, in_3s):
        assert a == whole


def test_missing_roles():
    df = _f2_table("clean")[["state", "notes"]]
    roles = {"state": "Location", "notes": "Others"}
    expect = oracle_validate(df, roles, {})
    (got,) = _engine_report(df, roles=roles, mtypes={})
    assert got["missing_roles"] == expect["missing_roles"] == ["Measures", "Time"]
    assert got["passed"] is False


def test_row_order_invariance():
    df = _f2_table("mixed_time")
    shuffled = df.sample(frac=1.0, random_state=5).reset_index(drop=True)
    (a,) = _engine_report(df)
    (b,) = _engine_report(shuffled)
    assert a == b


def _even_only_kernel(arr):
    """Module-level custom kernel: odd values are violations."""
    import numpy as np
    import pyarrow.compute as pc

    vals = pc.cast(arr, "float64").to_numpy(zero_copy_only=False)
    with np.errstate(invalid="ignore"):
        return ~np.isnan(vals) & (np.mod(vals, 2) != 0)


def test_custom_check_plugin():
    """SURVEY.md §2.11: plugin check = batch kernel -> mask; engine handles
    counting, merge, verdict and violation rows."""
    import pandas as pd

    from ndap_data_validator_ray.schema import ColumnSpec, CustomCheck, TableSchema

    schema = TableSchema(
        columns=(
            ColumnSpec(
                "v",
                role="Measures",
                measure_type="integer",
                custom=(CustomCheck("even_only", _even_only_kernel, "Odd values detected ({n} rows)"),),
            ),
        ),
        enforce_role_coverage=False,
    )
    df = pd.DataFrame({"v": ["2", "4", "5", "7", "8"]})
    # run through the real batch path, split into batches of 2
    vb = ValidateBatch(schema, key_column=None)
    total = TableStats()
    blobs = []
    for i in range(0, len(df), 2):
        out = vb(pa.Table.from_pandas(df.iloc[i : i + 2], preserve_index=False))
        for row in out.to_pylist():
            if row["record_type"] == "stats":
                blobs.append(row["stats_blob"])
    for b in sorted(blobs):
        total = total.merge(deserialize(b))
    rep = finalize_report(schema, total)
    assert rep["per_column"]["v"]["passed"] is False
    assert "Odd values detected (2 rows)" in rep["per_column"]["v"]["reasons"]


_MERGE_BLOB = """
import hashlib
from ndap_data_validator_ray.functions.sketches import serialize
from ndap_data_validator_ray.report import ColumnStats, TableStats

def part(names, checks, rows):
    cols = {n: ColumnStats(rows=rows, nulls=i, custom_counts={c: i + j for j, c in enumerate(checks)})
            for i, n in enumerate(names)}
    return TableStats(columns=cols, rows=rows)

a = part([f"col_{i}" for i in range(0, 24)], [f"check_{i}" for i in range(0, 12)], 5)
b = part([f"col_{i}" for i in range(12, 36)], [f"check_{i}" for i in range(6, 18)], 7)
print(hashlib.sha256(serialize(a.merge(b).merge(a))).hexdigest())
"""


def test_merged_stats_blob_does_not_depend_on_the_hash_seed():
    """Merged stats blobs are byte-identical across interpreter runs with
    different string hash seeds (set iteration order would change them)."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digests = {
        subprocess.run(
            [sys.executable, "-c", _MERGE_BLOB], cwd=repo, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": repo, "PYTHONHASHSEED": seed},
        ).stdout.strip()
        for seed in ("1", "2")
    }
    assert len(digests) == 1
