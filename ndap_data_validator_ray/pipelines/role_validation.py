"""Reference-parity role-based validation over arbitrary tables.

The distributed equivalent of the reference's validate step
(``main.py:835-1130``): given a table + per-column role assignment + named
rule schema, produce the exact report shape of
``validate_dataframe_by_roles`` (``validation.py:240-357``) —
``{per_column: {role, nulls, conversion_errors, passed, reasons},
failed_columns, missing_roles, passed}`` with byte-identical reason
strings — except computed as one streaming ``map_batches`` pass with
mergeable partials instead of whole-file pandas.

Also implements the reference's folder mode (``main.py:880-936``): many
files validated independently under ONE role assignment, with the
per-file fold semantics (overall pass = all files pass; a failing or
erroring file yields a per-file failed record, never a job abort).  Each
file is one partition of the same pass the clips pipeline runs: the
partition read, per-block stats compaction, per-partition stats fold and
per-partition fallback are ``stages/validate.py``'s.
"""

from __future__ import annotations

from typing import Any

import ray.data

from ndap_data_validator_ray.report import TableStats, finalize_report
from ndap_data_validator_ray.schema import TableSchema, schema_from_roles
from ndap_data_validator_ray.stages.validate import (
    ValidateBatch,
    compact_stats,
    partition_stats,
    read_partitions,
    run_with_fallback,
)


def _stats_by_partition(ds: "ray.data.Dataset", tschema: TableSchema) -> dict[int, TableStats]:
    # the report reads only the stats rows, so no violation row is emitted
    union = ds.map_batches(ValidateBatch(tschema, violation_cap=0), batch_format="pyarrow").map_batches(
        compact_stats, batch_size=None, batch_format="pyarrow"
    )
    return partition_stats(union.to_pandas())  # small: one stats row per block


def validate_dataset(
    ds: "ray.data.Dataset",
    role_selection: dict[str, str],
    measure_type_selection: dict[str, str] | None = None,
    rule_schema: str | None = None,
    schema: TableSchema | None = None,
) -> dict[str, Any]:
    """Single-table validation: one streaming pass, verdict on the driver."""
    tschema = schema or schema_from_roles(role_selection, measure_type_selection, rule_schema)
    stats = _stats_by_partition(ds, tschema)
    total = TableStats()
    for pid in sorted(stats):
        total = total.merge(stats[pid])
    return finalize_report(tschema, total)


def validate_files(
    files: list[str],
    role_selection: dict[str, str],
    measure_type_selection: dict[str, str] | None = None,
    rule_schema: str | None = None,
) -> dict[str, Any]:
    """Folder mode (reference ``main.py:880-936``): per-file reports under
    one role assignment + the overall fold — computed in ONE pipeline pass
    over all files (the reference loops files serially), partitioned by
    file for the per-file verdicts.  Local paths and URIs both work; each
    report's ``"file"`` is the caller's path string."""
    tschema = schema_from_roles(role_selection, measure_type_selection, rule_schema)
    files = sorted(files)  # deterministic file ordering (main.py:660)
    stats, file_errors = run_with_fallback(
        lambda parts, _pid: _stats_by_partition(read_partitions(parts), tschema),
        {pid: [f] for pid, f in enumerate(files)},
    )

    results: list[dict[str, Any]] = []
    for pid, f in enumerate(files):
        st = stats.get(pid)
        if st is None:
            # file produced no batches (empty/unreadable): failed record,
            # run continues (reference main.py:928-936 semantics)
            results.append(
                {
                    "file": f,
                    "passed": False,
                    "error": file_errors.get(pid, "no data"),
                    "failed_columns": [],
                    "rows": 0,
                }
            )
            continue
        rep = finalize_report(tschema, st)
        rep["file"] = f
        results.append(rep)
    return {"files": results, "passed": all(bool(r["passed"]) for r in results)}
