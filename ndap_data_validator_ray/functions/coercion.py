"""Role-driven coercion kernels over Arrow arrays (reference parity).

Reimplements the semantics of the reference's per-column pandas coercers
(``/root/reference/utils/validation.py:34-90`` and the role dispatcher
``:200-231``) as batch kernels: each takes a ``pyarrow.Array``/ChunkedArray
and returns ``(converted_array, n_conversion_errors)`` for that batch.

Coercion contract (documented per SURVEY.md §7.3):

- numeric and datetime parsing delegate to pandas' vectorized C parsers
  (``pd.to_numeric`` / ``pd.to_datetime`` with coerce semantics) on the
  column buffer, because the reference's accept/reject set *is* pandas' —
  this pins exact parity on edge cases (whitespace, scientific notation,
  inf/nan spellings) that ``pyarrow.compute`` casts reject differently;
- everything else (string, boolean token table, category) is pure
  ``pyarrow.compute``;
- error accounting: ``errors = nulls_after - nulls_before`` per batch.
  Coercion can only add nulls, so per-batch sums equal the reference's
  whole-column diff; the reference's clamp-at-zero (validation.py:50) is
  applied once at finalize, matching its once-per-column clamping.

These kernels never drop rows (the reference nulls + counts, it never
filters — SURVEY.md §2.3).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_TRUE_TOKENS = ["true", "t", "yes", "y", "1"]
_FALSE_TOKENS = ["false", "f", "no", "n", "0"]

_TIME_NAME_TOKENS = ("date", "time", "year", "month")


def guess_datatype_option(t: pa.DataType) -> str:
    """Reference ``guess_datatype_option_for_series`` (validation.py:22-31),
    dtype-driven on the Arrow type: anything not numeric/bool/temporal
    falls back to string.  Schema-only — never scans data."""
    if pa.types.is_boolean(t):
        return "boolean"
    if pa.types.is_integer(t):
        return "integer"
    if pa.types.is_floating(t):
        return "float"
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return "datetime"
    return "string"


def guess_role(t: pa.DataType, column_name: str = "") -> tuple[str, str | None]:
    """Reference ``guess_role_for_series`` (validation.py:189-197): Time by
    temporal dtype or name token (date/time/year/month), Measures by
    numeric dtype (with measure type), else Others."""
    name = (column_name or "").lower()
    if pa.types.is_timestamp(t) or pa.types.is_date(t) or any(tok in name for tok in _TIME_NAME_TOKENS):
        return "Time", None
    if pa.types.is_integer(t):
        return "Measures", "integer"
    if pa.types.is_floating(t):
        return "Measures", "float"
    return "Others", None


def infer_dataset_roles(ds) -> dict[str, tuple[str, str | None]]:
    """Role/measure-type inference for every column of a Dataset from its
    schema alone (no data scan — parquet metadata carries the types; the
    reference did this per-series on a loaded DataFrame).  Handles both
    Arrow-backed and pandas-backed (PandasBlockSchema) datasets."""
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return {f.name: guess_role(f.type, f.name) for f in base}
    out = {}
    for name, typ in zip(sch.names, sch.types):
        if not isinstance(typ, pa.DataType):
            npt = np.dtype(typ)
            typ = pa.string() if npt == np.dtype(object) else pa.from_numpy_dtype(npt)
        out[name] = guess_role(typ, name)
    return out


def _as_array(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    if isinstance(arr, pa.ChunkedArray):
        return arr.combine_chunks()
    return arr


def null_count(arr: pa.Array | pa.ChunkedArray) -> int:
    return int(arr.null_count)


def coerce_string(arr: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, int]:
    """Reference ``_coerce_to_string`` (validation.py:34-37): never errors."""
    arr = _as_array(arr)
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        return arr, 0
    return pc.cast(arr, pa.string()), 0


def _to_numeric_pandas(arr: pa.Array) -> np.ndarray:
    """pandas ``to_numeric(errors="coerce")`` on an Arrow column -> float64
    ndarray with NaN for unparseable/null. Vectorized C parse."""
    if pa.types.is_floating(arr.type) or pa.types.is_integer(arr.type):
        return arr.to_numpy(zero_copy_only=False).astype(np.float64)
    if pa.types.is_boolean(arr.type):
        return arr.to_numpy(zero_copy_only=False).astype(np.float64)
    ser = pd.Series(arr.to_numpy(zero_copy_only=False))
    return pd.to_numeric(ser, errors="coerce").to_numpy(dtype=np.float64, na_value=np.nan)


def coerce_integer(arr: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, int]:
    """Reference ``_coerce_to_integer`` (validation.py:40-50): parse numeric,
    null-and-count fractional values, errors = new nulls."""
    arr = _as_array(arr)
    before = arr.null_count
    vals = _to_numeric_pandas(arr)
    with np.errstate(invalid="ignore"):
        # inf % 1 -> nan != 0 -> counted fractional, matching pandas' inf
        # behavior in the reference expression (validation.py:43)
        fractional = ~np.isnan(vals) & (np.mod(vals, 1.0) != 0)
        # values outside int64 range: the reference CRASHES here
        # (astype("Int64") raises on e.g. 9.2e18); the engine treats them
        # as conversion errors instead — documented intentional deviation
        out_of_range = ~np.isnan(vals) & ((vals < -(2.0**63)) | (vals >= 2.0**63))
    vals[fractional | out_of_range] = np.nan
    mask = np.isnan(vals)
    out = pa.array(np.where(mask, 0, vals).astype(np.int64), pa.int64(), mask=mask)
    return out, int(mask.sum()) - int(before)


def coerce_float(arr: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, int]:
    """Reference ``_coerce_to_float`` (validation.py:53-57)."""
    arr = _as_array(arr)
    before = arr.null_count
    vals = _to_numeric_pandas(arr)
    mask = np.isnan(vals)
    out = pa.array(vals, pa.float64(), mask=mask)
    return out, int(mask.sum()) - int(before)


def coerce_boolean(arr: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, int]:
    """Reference ``_coerce_to_boolean`` (validation.py:60-76): strip+lower,
    token tables {true,t,yes,y,1}/{false,f,no,n,0}, else null+error."""
    arr = _as_array(arr)
    before = arr.null_count
    s, _ = coerce_string(arr)
    norm = pc.utf8_lower(pc.utf8_trim_whitespace(s))
    is_true = pc.is_in(norm, value_set=pa.array(_TRUE_TOKENS))
    is_false = pc.is_in(norm, value_set=pa.array(_FALSE_TOKENS))
    valid = pc.and_(pc.is_valid(norm), pc.or_(is_true, is_false))
    out = pc.if_else(valid, is_true, pa.scalar(None, pa.bool_()))
    return out, int(out.null_count) - int(before)


def coerce_datetime(arr: pa.Array | pa.ChunkedArray, date_only: bool = False) -> tuple[pa.Array, int]:
    """Reference ``_coerce_to_datetime`` (validation.py:79-85): pandas
    inferred parse with coerce; optional normalize to midnight."""
    arr = _as_array(arr)
    before = arr.null_count
    if pa.types.is_timestamp(arr.type):
        ts = pd.Series(arr.to_pandas())
    else:
        ser = pd.Series(arr.to_numpy(zero_copy_only=False))
        ts = pd.to_datetime(ser, errors="coerce")
    errors = int(ts.isna().sum()) - int(before)
    if date_only:
        ts = ts.dt.normalize()
    return pa.Array.from_pandas(ts, type=pa.timestamp("us")), errors


def coerce_category(arr: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, int]:
    """Reference ``_coerce_to_category`` (validation.py:88-90): dictionary
    encoding, never errors."""
    s, _ = coerce_string(arr)
    return pc.dictionary_encode(s), 0


def coerce_by_role(
    arr: pa.Array | pa.ChunkedArray, role: str, measure_type: str | None
) -> tuple[pa.Array, int]:
    """Reference role dispatcher (validation.py:200-231), minus the Time
    special case: Time columns coerce to string here; their conversion-error
    count comes from the time-format kernel (functions/timefmt.py), exactly
    as validation.py:215-217 sources it from ``_count_time_format_errors``.
    """
    arr_t = arr.type if not isinstance(arr, pa.ChunkedArray) else arr.type
    if pa.types.is_binary(arr_t) or pa.types.is_large_binary(arr_t):
        # opaque payloads (audio bytes) pass through untouched — validated
        # by the decoder stage, never string-coerced (SURVEY.md §1.3)
        return _as_array(arr), 0
    if role == "Location" or role == "Time":
        return coerce_string(arr)
    if role == "Measures":
        if (measure_type or "float") == "integer":
            return coerce_integer(arr)
        return coerce_float(arr)
    return coerce_category(arr)
