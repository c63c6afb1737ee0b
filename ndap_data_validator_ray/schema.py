"""Logical schema: per-column roles + declarative constraint bundles.

Generalizes the reference's two config surfaces into one object:

- per-column role assignment (reference: wizard form, ``main.py:846-851``;
  roles ``validation.py:137-142``, measure subtype ``validation.py:144``)
- named rule schemas — per-role flag bundles ``{notNull, mandatory,
  numericOnly}`` (reference: ``utils/validation_rules.json:4-16``, default
  schema "National" with fallback ``validation.py:251``)

plus the target-only constraints from BASELINE.json:6 (unique, domain,
range, referential, audio consistency, drift) that the reference lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ROLE_OPTIONS = ["Location", "Time", "Measures", "Others"]
MEASURE_TYPES = ["integer", "float"]

# Reference rule bundles (validation_rules.json:4-16). Both named schemas
# currently carry identical flags; kept as two entries for config parity.
_ROLE_FLAGS = {
    "Location": {"notNull": True, "mandatory": False, "numericOnly": False},
    "Measures": {"notNull": False, "mandatory": True, "numericOnly": True},
    "Time": {"notNull": True, "mandatory": True, "numericOnly": False},
    "Others": {"notNull": False, "mandatory": False, "numericOnly": False},
}
RULE_SCHEMAS: dict[str, dict[str, dict[str, bool]]] = {
    "Global": {r: dict(f) for r, f in _ROLE_FLAGS.items()},
    "National": {r: dict(f) for r, f in _ROLE_FLAGS.items()},
}
DEFAULT_RULE_SCHEMA = "National"

# Roles hard-required regardless of the rule schema (validation.py:345-348)
HARD_REQUIRED_ROLES = ("Time", "Measures")

# Reference's literal reason strings (validation.py:289,292,318-321,327) —
# byte-exact, including the trailing space in the time-format message.
REASON_NON_NUMERIC = "Non-numeric values detected"
REASON_NO_NULLS = "No Nulls allowed"
REASON_INVALID_TIME = (
    "Invalid time format; allowed: 'YYYY', 'YYYY-YY', 'MMM-YYYY', "
    "'MMM-MMM, YYYY', 'MMM - MMM, YYYY' "
)
REASON_INCONSISTENT_TIME = "Inconsistent time formats across rows"


@dataclass(frozen=True)
class CustomCheck:
    """User-extension point (SURVEY.md §2.11): a check is a vectorized
    batch kernel returning a per-row violation mask; counting, violation-row
    emission, merging and verdict assembly are handled by the engine (the
    AggregateFnV2-shaped partial/merge/finalize contract).  ``kernel`` must
    be a module-level callable (it is shipped to workers inside the schema
    closure)."""

    name: str
    kernel: Callable  # (pyarrow.Array) -> np.ndarray[bool] violation mask
    reason: str  # verdict reason template; "{n}" formats the count


@dataclass(frozen=True)
class ColumnSpec:
    """One column's logical type + constraints.

    ``role``/``measure_type`` drive the reference-parity coercion path
    (validation.py:200-231).  The remaining fields are target-only
    constraints; ``None``/False means "not checked".
    """

    name: str
    role: str = "Others"
    measure_type: str | None = None  # for Measures; default float (main.py:850-851)
    not_null: bool | None = None  # None -> derive from role flags
    not_empty: bool = False  # referential-style: empty string counts as orphan
    unique: bool = False
    domain: tuple[str, ...] | None = None  # allowed categorical values
    range_min: float | None = None
    range_max: float | None = None
    drift: bool = False  # compare t-digest vs baseline snapshot
    track_cardinality: bool = False  # HLL sketch
    track_quantiles: bool = False  # t-digest sketch
    custom: tuple = ()  # tuple[CustomCheck, ...] plugin checks


@dataclass(frozen=True)
class TableSchema:
    """Schema for one logical table + the named rule bundle to apply."""

    columns: tuple[ColumnSpec, ...]
    rule_schema: str = DEFAULT_RULE_SCHEMA
    # The reference hard-requires >=1 Time and >=1 Measures column
    # (validation.py:345-348).  That invariant belongs to the tabular
    # conformance profile (SURVEY.md §2.11); constraint-driven schemas like
    # the clips table opt out.
    enforce_role_coverage: bool = True

    def role_selection(self) -> dict[str, str]:
        return {c.name: c.role for c in self.columns}

    def col(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def role_flags(self, role: str) -> dict[str, bool]:
        schema = RULE_SCHEMAS.get(self.rule_schema) or RULE_SCHEMAS[DEFAULT_RULE_SCHEMA]
        return schema.get(role, {"notNull": False, "mandatory": False, "numericOnly": False})

    def missing_roles(self) -> list[str]:
        """Mandatory-role coverage check (validation.py:341-350): schema-level,
        no data scan needed."""
        if not self.enforce_role_coverage:
            return []
        schema = RULE_SCHEMAS.get(self.rule_schema) or RULE_SCHEMAS[DEFAULT_RULE_SCHEMA]
        required = [r for r, f in schema.items() if f.get("mandatory")]
        for hard in HARD_REQUIRED_ROLES:
            if hard not in required:
                required.append(hard)
        assigned = {c.role for c in self.columns}
        return [r for r in required if r not in assigned]


def clips_table_schema(drift: bool = False) -> TableSchema:
    """The flagship schema for the audio clip + transcript table
    (BASELINE.json:15): full constraint suite from BASELINE.json:6."""
    from ndap_data_validator_ray.sources.synthetic import ALLOWED_CODECS

    return TableSchema(
        columns=(
            ColumnSpec("clip_id", role="Location", not_null=True, unique=True, track_cardinality=True),
            ColumnSpec("bytes", role="Others", not_null=True),
            ColumnSpec(
                "sr_hz", role="Measures", measure_type="integer", not_null=True,
                range_min=1, range_max=384_000, track_quantiles=True, drift=drift,
            ),
            ColumnSpec(
                "dur_ms", role="Measures", measure_type="integer", not_null=True,
                range_min=1, range_max=None, track_quantiles=True, drift=drift,
            ),
            ColumnSpec("codec", role="Others", not_null=True, domain=tuple(ALLOWED_CODECS), track_cardinality=True),
            # clip->transcript pairing (J1): with pairs in one row the
            # referential check is a null/empty consistency check, no shuffle
            # (SURVEY.md §2.5)
            ColumnSpec("transcript", role="Others", not_null=True, not_empty=True),
        ),
        rule_schema=DEFAULT_RULE_SCHEMA,
        enforce_role_coverage=False,
    )


def schema_from_roles(
    role_selection: dict[str, str],
    measure_type_selection: dict[str, str] | None = None,
    rule_schema: str | None = None,
) -> TableSchema:
    """Build a TableSchema exactly the way the reference's wizard does:
    default role "Others" (main.py:849), default measure type "float"
    (main.py:850-851)."""
    mts = measure_type_selection or {}
    cols = tuple(
        ColumnSpec(
            name=name,
            role=role if role in ROLE_OPTIONS else "Others",
            measure_type=(mts.get(name, "float") if role == "Measures" else None),
        )
        for name, role in role_selection.items()
    )
    return TableSchema(columns=cols, rule_schema=rule_schema or DEFAULT_RULE_SCHEMA)


def load_rule_schemas(path: str) -> str:
    """Load named rule-schema bundles from a JSON file with the reference's
    layout (``utils/validation_rules.json``: {version, defaultSchema,
    schemas: {name: {role: {notNull, mandatory, numericOnly}}}}) into the
    process-wide registry.  Unlike the reference — which re-reads the file
    on every validate call (validation.py:234-237) — this is loaded once on
    the driver and shipped to workers inside the TableSchema closure.
    Returns the default schema name."""
    import json as _json

    with open(path) as f:
        raw = _json.load(f)
    for name, roles in (raw.get("schemas") or {}).items():
        RULE_SCHEMAS[name] = {
            role: {
                "notNull": bool(flags.get("notNull", False)),
                "mandatory": bool(flags.get("mandatory", False)),
                "numericOnly": bool(flags.get("numericOnly", False)),
            }
            for role, flags in roles.items()
            if isinstance(flags, dict)
        }
    return raw.get("defaultSchema") or DEFAULT_RULE_SCHEMA
