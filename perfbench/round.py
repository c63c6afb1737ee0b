"""One benchmark round: a fresh driver process with its own Ray session.

    python3 -m perfbench.round --workload W --seed N --seconds S --trace 0|1 \
        --work DIR --result FILE

Set-up (imports, inputs from the seed, ``ray.init``, untimed warm-up jobs),
then a closed loop with one client: job i+1 is issued only after job i
returns, until the summed job wall time reaches ``--seconds``.  Outputs are checked between jobs, outside the
timed region.  The result is written to ``--result`` as JSON.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

# Ray session shape: 4 logical CPUs whatever the core count.  Several stages
# keep actor-pool minimums of 2, and at num_cpus=1 the broadcast actor of
# tpch_q18_large_orders holds the only CPU and the query hangs (NOTES.md).
NUM_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
JOB_TIMEOUT_S = 30.0
# Keep idle workers for the whole session.  Ray's default kills idle workers
# above the CPU count after 1 s, so a job that follows an actor-heavy one
# (tpch_q18_large_orders) pays worker start-up again: duplicate_lineitem_pk
# then takes 0.35 s or 1.7 s by chance.  A long-lived cluster keeps its pool.
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000}


class Watchdog(threading.Thread):
    """Ends the process if one job runs past ``JOB_TIMEOUT_S``; the job is
    recorded as failed in the result file first."""

    def __init__(self, on_timeout):
        super().__init__(daemon=True)
        self.on_timeout = on_timeout
        self.deadline = None
        self.label = None

    def arm(self, label) -> None:
        self.label = label
        self.deadline = time.perf_counter() + JOB_TIMEOUT_S

    def disarm(self) -> None:
        self.deadline = None

    def run(self) -> None:
        while True:
            time.sleep(0.25)
            deadline = self.deadline
            if deadline is not None and time.perf_counter() > deadline:
                self.on_timeout(self.label)
                os._exit(3)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    result = {"workload": args.workload, "traced": bool(args.trace), "setup": {}, "jobs": [], "problems": []}

    def write_result() -> None:
        with open(args.result + ".tmp", "w") as fh:
            json.dump(result, fh)
        os.replace(args.result + ".tmp", args.result)

    def on_timeout(label) -> None:
        result["jobs"].append({"i": label, "wall": JOB_TIMEOUT_S, "rows": 0, "error": "timeout", "problems": []})
        result["timed_out"] = True
        write_result()

    import ray
    from ray.data import DataContext

    from perfbench import spans
    from perfbench.workloads import WORKLOADS

    result["setup"]["imports_s"] = time.perf_counter() - T_START

    t = time.perf_counter()
    os.makedirs(args.work, exist_ok=True)
    wl = WORKLOADS[args.workload](args.work, args.seed)
    result["setup"]["inputs_s"] = time.perf_counter() - t

    t = time.perf_counter()
    runtime_env = {}
    trace_dir = os.path.join(args.work, "trace")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        os.environ[spans.TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.spans.worker_setup"
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env=runtime_env or None,
        _system_config=RAY_SYSTEM_CONFIG,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    result["setup"]["ray_init_s"] = time.perf_counter() - t

    driver_rec = None
    if args.trace:
        driver_rec = spans.Recorder()
        spans.install(driver_rec, driver=True)

    watchdog = Watchdog(on_timeout)
    watchdog.start()
    try:
        t = time.perf_counter()
        watchdog.arm("warm-up")
        result["problems"] += [f"warm-up: {p}" for p in wl.warm_up()]
        watchdog.disarm()
        result["setup"]["warmup_s"] = time.perf_counter() - t

        intervals = []
        busy = 0.0
        i = 0
        result["t_first_job"] = time.perf_counter()
        while busy < args.seconds:
            wl.before(i)
            watchdog.arm(i)
            t0 = time.perf_counter()
            err, out = None, None
            try:
                out = wl.job(i)
            except Exception as exc:  # a failing job is counted, the loop goes on
                err = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
            t1 = time.perf_counter()
            watchdog.disarm()
            intervals.append((t0, t1))
            busy += t1 - t0
            problems = []
            if err is None:
                try:
                    problems = wl.check(i, out)
                except Exception as exc:  # a check that cannot read the output fails the job
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            result["jobs"].append({"i": i, "wall": t1 - t0, "rows": wl.n_rows, "error": err, "problems": problems})
            wl.after(i)
            if err is not None:
                break  # a raising job may raise again at once; one failure decides the run
            i += 1
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            procs = [driver_rec.spans] + spans.load_worker_spans(trace_dir)
            result["layers"] = spans.summarize(procs, intervals)
    finally:
        watchdog.disarm()
        ray.shutdown()
    write_result()
    return 0


if __name__ == "__main__":
    sys.exit(main())
