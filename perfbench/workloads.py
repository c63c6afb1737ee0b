"""The four benchmark workloads.

A workload is built from a work directory and a seed (building it writes
the inputs).  Its ``job(i)`` is one timed job, which drives the engine only
through ``pipelines.clip_validation.validate_clips``,
``pipelines.role_validation.validate_files`` or ``pipelines.queries.REGISTRY``;
everything else it offers runs outside the timed region.
"""

from __future__ import annotations

import collections
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from perfbench import gen, spans

CLIP_ROWS = 1600
CLIP_FILES = 16
ROLE_FILES = 16
ROLE_ROWS = 5000
QUERY_ORDERS = 6000
QUERY_EVENTS = 4000

# checks whose planted rows equal the goldens exactly (tests/test_clip_pipeline.py)
_EXACT_CLIP_CHECKS = {
    "audio_decode": "V3_corrupt_bytes",
    "audio_sr_consistency": "V4_sr_mismatch",
    "domain": "V6_codec_domain",
    "audio_silence": "V8_silent_audio",
    "audio_clipping": "V9_clipped_audio",
}


class Workload:
    n_rows = 0  # input rows of one job

    def warm_up(self) -> list[str]:
        """Untimed first job; returns its output problems."""
        return self.check("W", self.job("W"))

    def before(self, i) -> None:
        """Untimed preparation for job i."""

    def after(self, i) -> None:
        """Untimed clean-up after job i."""

    def job(self, i):
        raise NotImplementedError

    def check(self, i, out) -> list[str]:
        """Job i's output against an independent reference; [] when correct."""
        raise NotImplementedError


class ClipsValidate(Workload):
    """Full ``validate_clips`` (task mode, full decode, no resume) per job."""

    def __init__(self, work: str, seed: int):
        from ndap_data_validator_ray.sources.synthetic import clip_files

        self.data = os.path.join(work, "clips")
        self.out = os.path.join(work, "out")
        goldens = gen.write_clips(self.data, seed, CLIP_ROWS, CLIP_FILES)
        files = clip_files(self.data)
        # independent references: duplicate keys straight from the shards,
        # and the goldens only for checks whose planted rows are exact
        ids = pa.concat_arrays([pq.read_table(f, columns=["clip_id"])["clip_id"].combine_chunks() for f in files])
        self.n_rows = len(ids)
        counts = pc.value_counts(ids)
        self.ref_dups = {
            k: c for k, c in zip(counts.field("values").to_pylist(), counts.field("counts").to_pylist()) if c > 1
        }
        self.ref_exact = {check: set(goldens.violations[kind]) for check, kind in _EXACT_CLIP_CHECKS.items()}

    def _cfg(self, run_id: str, resume: bool):
        from ndap_data_validator_ray.pipelines.clip_validation import ClipRunConfig

        return ClipRunConfig(out_dir=self.out, run_id=run_id, audio_concurrency=None, full_decode=True, resume=resume)

    def _run(self, run_id: str, resume: bool) -> dict:
        from ndap_data_validator_ray.pipelines.clip_validation import validate_clips

        return validate_clips(self.data, self._cfg(run_id, resume))

    def job(self, i) -> dict:
        return self._run(f"J{i}", resume=False)

    def after(self, i) -> None:
        shutil.rmtree(os.path.join(self.out, f"run-J{i}"), ignore_errors=True)

    def check(self, i, report: dict) -> list[str]:
        run_dir = os.path.join(self.out, f"run-J{i}")
        problems = []
        if report.get("rows") != self.n_rows:
            problems.append(f"rows {report.get('rows')} != {self.n_rows}")
        dup = pq.read_table(os.path.join(run_dir, "unique_violations.parquet"))
        got = dict(zip(dup["clip_id"].to_pylist(), dup["cnt"].to_pylist()))
        if got != self.ref_dups:
            problems.append(f"duplicate keys: {len(got)} reported, {len(self.ref_dups)} in the shards")
        union = pads.dataset(os.path.join(run_dir, "union"), format="parquet").to_table(
            columns=["record_type", "check", "key"]
        )
        viol = union.filter(pc.equal(union["record_type"], "violation"))
        keys = collections.defaultdict(set)
        for check, key in zip(viol["check"].to_pylist(), viol["key"].to_pylist()):
            keys[check].add(key)
        counts = report.get("violation_counts", {})
        for check, expect in self.ref_exact.items():
            if keys[check] != expect or counts.get(check, 0) != len(expect):
                problems.append(f"{check}: {len(keys[check])} rows / count {counts.get(check, 0)}, expected {len(expect)}")
        return problems


class ClipsDelta(ClipsValidate):
    """``validate_clips(resume=True)`` after one full run; before each job
    one partition's manifest is removed, a different one each time."""

    def warm_up(self) -> list[str]:
        self.full = ClipsValidate.job(self, "W")
        problems = ClipsValidate.check(self, "W", self.full)
        self.before("W")
        return problems + self.check("W", self.job("W"))

    def _pid(self, i) -> int:
        return CLIP_FILES - 1 if i == "W" else i % CLIP_FILES

    def before(self, i) -> None:
        os.remove(os.path.join(self.out, "checkpoints", f"partition-{self._pid(i):05d}.json"))

    def job(self, i) -> dict:
        return self._run(f"D{i}", resume=True)

    def after(self, i) -> None:
        shutil.rmtree(os.path.join(self.out, f"run-D{i}"), ignore_errors=True)

    def check(self, i, report: dict) -> list[str]:
        problems = []
        pid = self._pid(i)
        if report["partitions"]["validated_this_run"] != [pid]:
            problems.append(f"re-validated {report['partitions']['validated_this_run']}, expected [{pid}]")
        for key in ("violation_counts", "per_column"):
            if report.get(key) != self.full.get(key):
                problems.append(f"{key} differs from the full run")
        return problems


class RolesFolder(Workload):
    """``validate_files`` (folder mode) over seeded all-string files."""

    def __init__(self, work: str, seed: int):
        from tests.oracle_reference import oracle_validate

        self.files = sorted(gen.write_role_files(os.path.join(work, "roles"), seed, ROLE_FILES, ROLE_ROWS))
        self.n_rows = ROLE_FILES * ROLE_ROWS
        self.refs = [
            oracle_validate(pq.read_table(f).to_pandas(), gen.ROLES, gen.MEASURE_TYPES) for f in self.files
        ]

    def warm_up(self) -> list[str]:
        # the next two jobs of a session are often slow as well (0.6-2.9 s
        # against about 0.3 s for the jobs after them), so three jobs warm up
        return [p for k in range(3) for p in self.check(f"W{k}", self.job(f"W{k}"))]

    def job(self, i) -> dict:
        from ndap_data_validator_ray.pipelines.role_validation import validate_files

        return validate_files(self.files, gen.ROLES, gen.MEASURE_TYPES)

    def check(self, i, report: dict) -> list[str]:
        problems = []
        if len(report["files"]) != len(self.files):
            return [f"{len(report['files'])} file reports for {len(self.files)} files"]
        for path, got, ref in zip(self.files, report["files"], self.refs):
            name = os.path.basename(path)
            if got.get("file") != path:
                problems.append(f"{name}: report for {got.get('file')}")
                continue
            for key in ("failed_columns", "missing_roles", "passed"):
                if got.get(key) != ref[key]:
                    problems.append(f"{name}: {key} {got.get(key)} != {ref[key]}")
            for col, exp in ref["per_column"].items():
                g = got["per_column"].get(col, {})
                diff = [k for k in exp if g.get(k) != exp[k]]
                if diff:
                    problems.append(f"{name}.{col}: {diff} differ")
        if report["passed"] != all(r["passed"] for r in self.refs):
            problems.append("overall verdict differs")
        return problems


QUERY_NAMES = [
    "tpch_q1",
    "duplicate_lineitem_pk",
    "revenue_by_priority_join",
    "events_sessionization",
    "events_last_order_asof",
    "tpch_q18_large_orders",
]
_QUERY_TABLES = {
    "tpch_q1": ("lineitem",),
    "duplicate_lineitem_pk": ("lineitem",),
    "revenue_by_priority_join": ("lineitem", "orders"),
    "events_sessionization": ("events",),
    "events_last_order_asof": ("events", "orders"),
    "tpch_q18_large_orders": ("lineitem", "orders"),
}


class QueryMix(Workload):
    """One job is one pass of six ``REGISTRY`` queries in a fixed order.
    Each result is compared with the entry's SQL run in DuckDB."""

    def __init__(self, work: str, seed: int):
        import duckdb

        self.sf_dir = os.path.join(work, "tables")
        counts = gen.write_query_tables(self.sf_dir, seed, QUERY_ORDERS, QUERY_EVENTS)
        self.n_rows = sum(counts[t] for q in QUERY_NAMES for t in _QUERY_TABLES[q])
        from ndap_data_validator_ray.pipelines.queries import REGISTRY

        self.registry = REGISTRY
        con = duckdb.connect()
        try:
            for t in counts:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{os.path.join(self.sf_dir, t)}.parquet')")
            self.refs = {q: con.execute(REGISTRY[q][1]).df() for q in QUERY_NAMES}
        finally:
            con.close()

    def job(self, i) -> dict:
        from scripts.check_oracle import to_pandas

        out = {}
        rec = spans.recorder()
        for name in QUERY_NAMES:
            span = rec.begin(f"pipelines.queries.{name}") if rec else None
            try:
                out[name] = to_pandas(self.registry[name][0](self.sf_dir))
            finally:
                if span is not None:
                    rec.end(span)
        return out

    def check(self, i, results: dict) -> list[str]:
        from scripts.check_oracle import compare

        return [f"{name}: {p}" for name, df in results.items() for p in compare(name, df, self.refs[name])]


WORKLOADS = {
    "clips_validate": ClipsValidate,
    "clips_delta": ClipsDelta,
    "roles_folder": RolesFolder,
    "query_mix": QueryMix,
}
