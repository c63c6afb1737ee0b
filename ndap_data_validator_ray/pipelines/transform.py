"""Standalone coercion transform — the reference's dtype coercion as a
usable dataset operator (not just a validation-internal kernel).

Reference counterpart: ``coerce_dataframe_to_selected_types``
(``validation.py:93-123``, the explicit-dtype path); role-driven coercion
runs inside the validation stage (``functions/coercion.coerce_by_role``).  The reference
never persists coerced data (publish uploads original bytes verbatim,
``main.py:1396``); this operator exists for pipelines that *do* want the
typed table, streaming batch-by-batch instead of whole-file pandas.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ndap_data_validator_ray.functions import coercion as co

_DTYPE_KERNELS = {
    "string": lambda a: co.coerce_string(a),
    "integer": lambda a: co.coerce_integer(a),
    "float": lambda a: co.coerce_float(a),
    "boolean": lambda a: co.coerce_boolean(a),
    "date": lambda a: co.coerce_datetime(a, date_only=True),
    "datetime": lambda a: co.coerce_datetime(a, date_only=False),
    "category": lambda a: co.coerce_category(a),
}


def coerce_table(ds: "ray.data.Dataset", dtype_selection: dict[str, str]) -> "ray.data.Dataset":
    """Coerce columns to the selected logical dtypes (reference
    ``coerce_dataframe_to_selected_types`` semantics: unknown dtype ->
    string; coercion failures become nulls, never errors)."""

    def fn(batch: pa.Table) -> pa.Table:
        cols = {}
        for name in batch.column_names:
            desired = dtype_selection.get(name, "string")
            kernel = _DTYPE_KERNELS.get(desired, _DTYPE_KERNELS["string"])
            cols[name], _errs = kernel(batch[name])
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")
