"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``ROUNDS`` rounds, each a fresh driver process (``perfbench.round``)
with its own Ray session, after ``ray stop --force``.  Each round sets up
(imports, inputs from the seed, ``ray.init``, untimed warm-up jobs) and
then measures ``S / ROUNDS`` seconds of jobs in a closed loop with one
client.  The last line of stdout is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics, measured in
the rounds after the first with spans on and compared with round 1 for the tracing
overhead.  Work files live under ``.perfbench_work/`` in the checkout and
are deleted at the end.  NOTES.md records the design.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench.round import JOB_TIMEOUT_S  # noqa: E402

ROUNDS = 2
# a round's fixed cost besides its jobs: imports, inputs, ray.init, warm-up
# and shutdown take 8-13 s; a round that outlives this allowance plus its
# share of --seconds plus one job timeout is killed
ROUND_ALLOWANCE_S = 25
WORKLOADS = ("clips_validate", "clips_delta", "roles_folder", "query_mix")
QUERIES = (
    "tpch_q1",
    "duplicate_lineitem_pk",
    "revenue_by_priority_join",
    "events_sessionization",
    "events_last_order_asof",
    "tpch_q18_large_orders",
)

# per-layer metric -> (span name, quantity, unit).  Quantities: "self" is
# span time minus child spans summed over processes; "incl" is the span's
# own duration (outermost span of that name); "calls" a call count; "mean"
# incl / calls; any other key is a counter the span recorded.  All except
# "mean" are per timed job.
LAYER_METRICS = {
    "functions.audio_codec.busy_s": ("functions.audio_codec", "self", "s"),
    "stages.audio.busy_s": ("stages.audio", "self", "s"),
    "stages.audio.rows": ("stages.audio", "rows", "count"),
    "stages.validate.busy_s": ("stages.validate", "self", "s"),
    "stages.validate.rows": ("stages.validate", "rows", "count"),
    "stages.validate.violation_rows": ("stages.validate", "violation_rows", "count"),
    "functions.coercion.busy_s": ("functions.coercion", "self", "s"),
    "functions.coercion.values": ("functions.coercion", "values", "count"),
    "functions.timefmt.busy_s": ("functions.timefmt", "self", "s"),
    "functions.sketches.busy_s": ("functions.sketches", "self", "s"),
    "functions.sketches.blob_bytes": ("functions.sketches", "blob_bytes", "bytes"),
    "report.merge_s": ("report.merge", "incl", "s"),
    "report.merges": ("report.merge", "calls", "count"),
    "report.finalize_s": ("report.finalize", "incl", "s"),
    "state.checkpoint.load_s": ("state.checkpoint.load", "incl", "s"),
    "state.checkpoint.loads": ("state.checkpoint.load", "calls", "count"),
    "state.checkpoint.lineage_s": ("state.checkpoint.lineage", "incl", "s"),
    "state.checkpoint.write_s": ("state.checkpoint.write", "incl", "s"),
    "state.checkpoint.writes": ("state.checkpoint.write", "calls", "count"),
    "stages.dedup.wall_s": ("stages.dedup", "incl", "s"),
    "stages.dedup.dup_keys": ("stages.dedup", "dup_keys", "count"),
    "pipelines.exchanges": ("pipelines.exchange", "calls", "count"),
    "pipelines.executions": ("pipelines.execute", "calls", "count"),
    "pipelines.execute_s": ("pipelines.execute", "incl", "s"),
    "pipelines.driver_rows": ("pipelines.execute", "driver_rows", "count"),
    "sources.list_s": ("sources.list", "incl", "s"),
    **{f"pipelines.queries.{q}.wall_s": (f"pipelines.queries.{q}", "mean", "s") for q in QUERIES},
}
# spans that time the driver waiting on Ray, not work done by a layer
_WAIT_SPANS = ("pipelines.", "stages.dedup")


def _ray_stop() -> None:
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=60,
        check=False,
    )


def _run_round(root: str, work: str, args, k: int, traced: bool) -> dict:
    result_path = os.path.join(work, f"round-{k}.json")
    cmd = [
        sys.executable, "-m", "perfbench.round",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds / ROUNDS),
        "--trace", "1" if traced else "0",
        "--work", os.path.join(work, f"r{k}"),
        "--result", result_path,
    ]  # fmt: skip
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    timeout = ROUND_ALLOWANCE_S + args.seconds / ROUNDS + JOB_TIMEOUT_S
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=timeout, check=False)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    if os.path.exists(result_path):
        with open(result_path) as fh:
            res = json.load(fh)
    else:
        res = {"jobs": [], "problems": [], "setup": {}}
    if code != 0:
        if not res.get("timed_out"):
            res["problems"].append(f"round {k} exited with {code}")
        _ray_stop()
    if "t_first_job" in res:
        res["setup_s"] = res["t_first_job"] - t_spawn
    return res


def _median_of(rounds: list[dict], key) -> float:
    vals = [key(r) for r in rounds]
    vals = [v for v in vals if v is not None]
    return statistics.median(vals) if vals else 0.0


def _end_to_end(rounds: list[dict]) -> dict:
    jobs = [j for r in rounds for j in r["jobs"]]
    walls = [j["wall"] for j in jobs]
    return {
        "setup_s": {"value": _median_of(rounds, lambda r: r.get("setup_s")), "unit": "s"},
        "wall_s": {"value": statistics.median(walls) if walls else 0.0, "unit": "s"},
        "rows_per_s": {"value": sum(j["rows"] for j in jobs) / sum(walls) if jobs else 0.0, "unit": "rows/s"},
        "driver_peak_rss_mb": {"value": _median_of(rounds, lambda r: r.get("rss_mb")), "unit": "MB"},
    }


def _per_layer(rounds: list[dict]) -> dict:
    plain = [r for r in rounds if not r.get("traced")]
    traced = [r for r in rounds if r.get("traced") and "layers" in r]
    n_jobs = sum(len(r["jobs"]) for r in traced)
    totals: dict[str, dict[str, float]] = {}
    for r in traced:
        for name, agg in r["layers"].items():
            into = totals.setdefault(name, {})
            for key, val in agg.items():
                into[key] = into.get(key, 0) + val
    metrics = {}
    for metric, (span, qty, unit) in LAYER_METRICS.items():
        agg = totals.get(span, {})
        if qty == "mean":
            value = agg.get("incl", 0.0) / agg["calls"] if agg.get("calls") else 0.0
        else:
            value = agg.get(qty, 0) / n_jobs if n_jobs else 0.0
        metrics[metric] = {"value": value, "unit": unit}
    for part in ("imports_s", "inputs_s", "ray_init_s", "warmup_s"):
        metrics[f"setup.{part}"] = {"value": _median_of(rounds, lambda r: r["setup"].get(part)), "unit": "s"}
    traced_wall = statistics.median([j["wall"] for r in traced for j in r["jobs"]] or [0.0])
    plain_wall = statistics.median([j["wall"] for r in plain for j in r["jobs"]] or [0.0])
    busy = sum(a["self"] for name, a in totals.items() if not name.startswith(_WAIT_SPANS))
    metrics["trace.overhead"] = {"value": traced_wall / plain_wall if plain_wall else 0.0, "unit": "ratio"}
    metrics["trace.busy_share"] = {
        "value": busy / n_jobs / traced_wall if n_jobs and traced_wall else 0.0,
        "unit": "ratio",
    }
    metrics["trace.jobs"] = {"value": n_jobs, "unit": "count"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("ndap_data_validator_ray/__init__.py", "tests/oracle_reference.py", "scripts/check_oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a full checkout", file=sys.stderr)
            return 2

    work = os.path.join(ROOT, ".perfbench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    _ray_stop()
    rounds = []
    try:
        for k in range(ROUNDS):
            res = _run_round(ROOT, work, args, k, traced=bool(args.trace) and k > 0)
            rounds.append(res)
            if res["problems"] or any(j["error"] for j in res["jobs"]):
                break  # the run has failed already; more rounds add nothing
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = [j for r in rounds for j in r["jobs"]]
    failed = sum(1 for j in jobs if j["error"] or j["problems"])
    warm_failed = sum(1 for r in rounds if r["problems"])
    for r in rounds:
        for p in r["problems"]:
            print(f"perfbench: {p}", file=sys.stderr)
    for j in jobs:
        for p in ([j["error"]] if j["error"] else []) + j["problems"]:
            print(f"perfbench: job {j['i']}: {p}", file=sys.stderr)
    out = {
        "correct": failed == 0 and warm_failed == 0 and len(rounds) == ROUNDS,
        "attempted": len(jobs) + len(rounds),
        "failed": failed + warm_failed,
        "metrics": _per_layer(rounds) if args.trace else _end_to_end(rounds),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
