"""The shared exchange (stages/groupby.exchange / cogroup): key
co-location across batch dtypes, the SQL NULL group, empty legs,
partition ids that callers derive results from, and the Ray-core
split/merge itself (no Ray Data shuffle, pid order, error handling)."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from ndap_data_validator_ray.stages import groupby
from ndap_data_validator_ray.stages.asof import bucketed_asof_join
from ndap_data_validator_ray.stages.groupby import exchange, hash_partitioner, sum_by_key
from ndap_data_validator_ray.stages.join import bucketed_join
from ndap_data_validator_ray.stages.packing import pack_bins
from scripts.check_oracle import compare


def test_int_and_float_batches_of_one_key_reach_one_reducer():
    # a nullable int key arrives as int64 in null-free batches and as
    # float64 where a null forced the upcast
    ds = ray.data.from_pandas(
        [
            pd.DataFrame({"k": np.array([1, 2, 3], dtype=np.int64), "v": [1, 2, 3]}),
            pd.DataFrame({"k": np.array([1.0, np.nan, 2.0]), "v": [4, 5, 6]}),
        ]
    )

    def reduce(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        return pd.DataFrame({"k": group["k"].astype(np.float64), "v": group["v"], "pid": pid})

    out = exchange(ds, hash_partitioner(["k"]), reduce).to_pandas()
    assert sorted(out["v"]) == [1, 2, 3, 4, 5, 6]
    pids = out.dropna(subset=["k"]).groupby("k")["pid"].nunique()
    assert pids.to_dict() == {1.0: 1, 2.0: 1, 3.0: 1}


@pytest.mark.parametrize("partial_format", ["pyarrow", "pandas"])
@pytest.mark.parametrize("keys", [[1, None, 2, None, 1], ["a", None, "b", None, "a"]])
def test_sum_by_key_null_keys_form_one_group(partial_format, keys):
    blocks = [pa.table({"k": keys[:3], "v": [1, 2, 3]}), pa.table({"k": keys[3:], "v": [4, 5]})]
    out = sum_by_key(
        ray.data.from_arrow(blocks), ["k"], ["v"], partial_format=partial_format
    ).to_pandas()
    assert len(out) == 3
    assert out.loc[out["k"].isna(), "v"].tolist() == [6]
    assert sorted(out.loc[out["k"].notna(), "v"]) == [3, 6]


def _collect(ds) -> pd.DataFrame:
    """Rows of ``ds`` with the columns of its schema, also when it has no
    rows (Ray's ``to_pandas`` drops the columns of an empty Dataset)."""
    ds = ds.materialize()
    out = ds.to_pandas()
    return out if len(out.columns) else ds.schema().base_schema.empty_table().to_pandas()


_LEFT = pa.table({"k": pa.array([1, 2, None, 4], pa.int64()), "a": ["w", "x", "y", "z"]})
_RIGHT = pa.table({"k": pa.array([1, 4, 4], pa.int64()), "b": pa.array([10, 40, 41], pa.int64())})
_JOIN_SQL = {
    "inner": "SELECT l.k, l.a, r.b FROM l JOIN r ON l.k = r.k",
    "left": "SELECT l.k, l.a, r.b FROM l LEFT JOIN r ON l.k = r.k",
    "anti": "SELECT l.k, l.a FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
}


@pytest.mark.parametrize("empty", ["left", "right"])
@pytest.mark.parametrize("how", ["inner", "left", "anti"])
def test_join_with_an_empty_leg_matches_sql(how, empty):
    l = _LEFT.slice(0, 0) if empty == "left" else _LEFT
    r = _RIGHT.slice(0, 0) if empty == "right" else _RIGHT
    got = bucketed_join(ray.data.from_arrow(l), ray.data.from_arrow(r), on=["k"], how=how)
    con = duckdb.connect()
    con.register("l", l)
    con.register("r", r)
    want = con.execute(_JOIN_SQL[how]).fetchdf()
    assert compare(how, _collect(got), want) == []


@pytest.mark.parametrize("empty", ["left", "right"])
def test_asof_with_an_empty_leg_matches_sql(empty):
    ev = pa.table({"event_id": pa.array([1, 2, 3], pa.int64()), "user_id": pa.array([7, 7, 8], pa.int64()),
                   "ts": pa.array([5, 9, 4], pa.int64())})
    od = pa.table({"o_custkey": pa.array([7, 8], pa.int64()), "o_date": pa.array([6, 1], pa.int64())})
    ev = ev.slice(0, 0) if empty == "left" else ev
    od = od.slice(0, 0) if empty == "right" else od
    got = bucketed_asof_join(
        ray.data.from_arrow(ev), ray.data.from_arrow(od), on="ts", by="user_id",
        right_on="o_date", right_by="o_custkey",
    )
    con = duckdb.connect()
    con.register("ev", ev)
    con.register("od", od)
    want = con.execute(
        "SELECT e.event_id, e.user_id, e.ts, o.o_date FROM ev e ASOF LEFT JOIN od o "
        "ON e.user_id = o.o_custkey AND e.ts >= o.o_date"
    ).fetchdf()
    assert compare("asof", _collect(got), want) == []


def test_pack_bins_ids_are_pinned(monkeypatch):
    """bin_id = bucket * 2^40 + local bin over a fixed 16 buckets.  These
    values are the ones ``pack_bins(n_buckets=16)`` gave before the
    exchange owned the domain (the count ``pack_documents_bins`` used):
    the bins must not depend on how many reduce tasks the cluster runs."""
    ids = np.arange(30, dtype=np.int64)
    sizes = ids * 37 % 53 + 5
    sizes[7] = 150  # larger than the capacity: own bin, overflow=1
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": ids, "n_tok": sizes}))
    bucket_local = [
        (0, 0), (6, 0), (5, 0), (13, 0), (12, 0), (0, 0), (2, 1), (1, 0), (14, 0), (12, 1),
        (2, 0), (0, 0), (11, 0), (1, 1), (12, 0), (12, 1), (10, 0), (2, 1), (14, 0), (4, 0),
        (11, 0), (13, 0), (7, 0), (2, 0), (10, 0), (2, 0), (12, 1), (6, 0), (9, 0), (12, 1),
    ]
    for n_tasks in (1, 4, 32):
        monkeypatch.setattr(groupby, "_reduce_tasks", lambda _in_bytes: n_tasks)
        out = pack_bins(ds, "doc_id", "n_tok", capacity=100).to_pandas().sort_values("doc_id")
        assert out["bin_id"].tolist() == [b * (1 << 40) + local for b, local in bucket_local], n_tasks
        assert out["overflow"].tolist() == [int(i == 7) for i in ids]


def test_events_last_order_asof_unmatched_event_is_null(tmp_path):
    from ndap_data_validator_ray.pipelines.queries import _ASOF_SQL, events_last_order_asof

    ts = pd.to_datetime(["2024-01-01", "2024-03-01", "2024-02-15"]).astype("datetime64[us]")
    events = pa.table({"event_id": pa.array([1, 2, 3], pa.int64()), "ts": pa.array(ts),
                       "user_id": pa.array([5, 5, 6], pa.int64())})
    od = pd.to_datetime(["2024-02-01", "2024-02-10", "2024-01-20"]).astype("datetime64[us]")
    orders = pa.table({"o_custkey": pa.array([5, 5, 6], pa.int64()), "o_orderdate": pa.array(od)})
    pq.write_table(events, os.path.join(tmp_path, "events.parquet"))
    pq.write_table(orders, os.path.join(tmp_path, "orders.parquet"))

    got = events_last_order_asof(str(tmp_path))
    # event 1 is earlier than every order of user 5
    assert got.loc[got["event_id"] == 1, "last_order_date"].tolist() == [None]
    con = duckdb.connect()
    con.register("events", events)
    con.register("orders", orders)
    assert compare("events_last_order_asof", got, con.execute(_ASOF_SQL).fetchdf()) == []


@pytest.fixture
def no_ray_data_shuffle(monkeypatch):
    """Make every Ray Data shuffle entry point raise."""

    def refuse(*_a, **_k):
        raise AssertionError("Ray Data shuffle called")

    for name in ("groupby", "sort", "repartition"):
        monkeypatch.setattr(ray.data.Dataset, name, refuse)


def test_keyed_stages_run_without_a_ray_data_shuffle(no_ray_data_shuffle):
    from ndap_data_validator_ray.stages.sort import global_rank

    con = duckdb.connect()
    rng = np.random.RandomState(5)
    facts = pa.table({"k": pa.array(rng.randint(0, 40, 600), pa.int64()), "v": pa.array(rng.randint(0, 9, 600), pa.int64())})
    con.register("facts", facts)
    blocks = [facts.slice(i, 100) for i in range(0, 600, 100)]

    got = sum_by_key(ray.data.from_arrow(blocks), ["k"], ["v"]).to_pandas()
    want = con.execute("SELECT k, SUM(v) AS v FROM facts GROUP BY k").fetchdf()
    assert compare("sum_by_key", got, want) == []

    con.register("l", _LEFT)
    con.register("r", _RIGHT)
    for how, sql in _JOIN_SQL.items():
        got = bucketed_join(ray.data.from_arrow(_LEFT), ray.data.from_arrow(_RIGHT), on=["k"], how=how)
        assert compare(how, _collect(got), con.execute(sql).fetchdf()) == [], how

    ev = pa.table({"event_id": pa.array([1, 2, 3, 4], pa.int64()), "user_id": pa.array([7, 7, 8, 9], pa.int64()),
                   "ts": pa.array([5, 9, 4, 3], pa.int64())})
    od = pa.table({"o_custkey": pa.array([7, 7, 8], pa.int64()), "o_date": pa.array([6, 2, 1], pa.int64())})
    con.register("ev", ev)
    con.register("od", od)
    got = bucketed_asof_join(
        ray.data.from_arrow(ev), ray.data.from_arrow(od), on="ts", by="user_id",
        right_on="o_date", right_by="o_custkey",
    ).to_pandas()
    want = con.execute(
        "SELECT e.event_id, e.user_id, e.ts, o.o_date FROM ev e ASOF LEFT JOIN od o "
        "ON e.user_id = o.o_custkey AND e.ts >= o.o_date"
    ).fetchdf()
    assert compare("asof", got, want) == []

    ranked = global_rank(ray.data.from_arrow(blocks), ["k", "v"], n_parts=8).to_pandas()
    ranked = ranked.sort_values("rank", ignore_index=True)
    want = con.execute("SELECT k, v, ROW_NUMBER() OVER (ORDER BY k, v) AS rank FROM facts ORDER BY rank").fetchdf()
    assert ranked["rank"].tolist() == want["rank"].tolist()
    assert ranked[["k", "v"]].values.tolist() == want[["k", "v"]].values.tolist()


def test_fewer_reduce_tasks_than_partitions_keep_pid_order():
    """A fixed domain of 16 partitions on a small input runs as one reduce
    task per CPU; each task still calls the reducer once per non-empty
    pid, in ascending pid, with its rows in leg/block/row order."""
    n = 16
    legs = [
        ray.data.from_pandas([pd.DataFrame({"p": (np.arange(40) * 7 + 3 * b + leg) % n, "leg": leg, "b": b,
                                            "row": np.arange(40)}) for b in range(3)])
        for leg in range(2)
    ]

    def reduce(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        assert (group["p"] == pid).all()
        order = list(zip(group["leg"], group["b"], group["row"]))
        return pd.DataFrame({"pid": [pid], "rows": [len(group)], "ordered": [order == sorted(order)]})

    out_ds = exchange(legs, lambda b, _n: b["p"].to_numpy(), reduce, n_partitions=n)
    cpus = int(ray.cluster_resources()["CPU"])
    assert cpus < n
    assert out_ds.num_blocks() == cpus
    out = out_ds.to_pandas()
    assert out["pid"].tolist() == list(range(n))
    assert out["rows"].sum() == 240 and out["ordered"].all()


@pytest.mark.parametrize("n_tasks", [None, 3])
def test_the_exchange_owns_the_domain_one_reducer_call_per_task(monkeypatch, n_tasks):
    """With ``n_partitions`` unset the domain is the reduce-task count R:
    each task owns one pid, calls ``reduce`` once, and yields one block."""
    if n_tasks is None:
        n_tasks = min(int(ray.cluster_resources()["CPU"]), groupby.EXCHANGE_FLOOR_TASKS)  # R of a small input
    else:
        monkeypatch.setattr(groupby, "_reduce_tasks", lambda _in_bytes: n_tasks)
    ds = ray.data.from_pandas([pd.DataFrame({"k": np.arange(b, 300, 3)}) for b in range(3)])

    def reduce(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        return pd.DataFrame({"pid": [pid], "rows": [len(group)], "keys": [group["k"].nunique()]})

    out_ds = exchange(ds, hash_partitioner(["k"]), reduce)
    assert out_ds.num_blocks() == n_tasks
    out = out_ds.to_pandas()
    assert out["pid"].tolist() == list(range(n_tasks))
    assert out["rows"].sum() == 300 and out["keys"].sum() == 300


@pytest.mark.parametrize(
    "cpus, in_bytes, want",
    [
        (1, 1 << 30, 16),  # past the CPUs only at 64 MiB per task
        (4, 1 << 20, 4),
        (4, 1 << 30, 16),
        (32, 1 << 20, 8),  # a small input stays at the floor
        (32, 40 << 20, 10),  # one task per 4 MiB up to the CPUs
        (32, 1 << 30, 32),
        (32, 4 << 30, 64),
        (32, 100 << 30, 96),  # default_n_buckets() caps it
    ],
)
def test_reduce_tasks_follow_the_input_not_the_cluster(monkeypatch, cpus, in_bytes, want):
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(cpus)})
    assert groupby._reduce_tasks(in_bytes) == want


_HOT_LEFT = pa.table({"k": pa.array([7] * 40 + [9] * 12 + [1, 2, 3, None, 5], pa.int64()),
                      "lv": pa.array(np.arange(57), pa.int64())})
_HOT_RIGHT = pa.table({"k": pa.array([7, 7, 1, 3, 3, 4], pa.int64()), "rv": pa.array([70, 71, 10, 30, 31, 40], pa.int64())})


@pytest.mark.parametrize("n_tasks", [1, 3])
@pytest.mark.parametrize("how", ["inner", "left", "anti"])
def test_salt_wider_than_the_domain_keeps_the_join_exact(monkeypatch, how, n_tasks):
    """Eight salt offsets over 1 or 3 partitions put several replicas of a
    hot key's build rows in one partition; each probe row must still meet
    exactly one replica."""
    monkeypatch.setattr(groupby, "_reduce_tasks", lambda _in_bytes: n_tasks)
    left = ray.data.from_arrow([_HOT_LEFT.slice(0, 30), _HOT_LEFT.slice(30)])
    right = ray.data.from_arrow(_HOT_RIGHT)
    salted = _collect(bucketed_join(left, right, on=["k"], how=how, hot_keys=[7, 9], salt=8))
    plain = _collect(bucketed_join(left, right, on=["k"], how=how))
    con = duckdb.connect()
    con.register("l", _HOT_LEFT)
    con.register("r", _HOT_RIGHT)
    want = con.execute(_JOIN_SQL[how].replace("l.a", "l.lv").replace("r.b", "r.rv")).fetchdf()
    assert compare(how, salted, want) == []
    assert compare(how, plain, want) == []


def test_a_failing_reducer_raises_after_every_task_finished(tmp_path):
    marker = tmp_path / "slow_reducer_done"

    def reduce(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        if pid == 0:
            raise KeyError("reducer failed")
        if pid == 15:
            time.sleep(1.0)
            marker.write_text("done")
        return group

    ds = ray.data.from_pandas(pd.DataFrame({"p": np.arange(16)}))
    with pytest.raises(KeyError):
        exchange(ds, lambda b, _n: b["p"].to_numpy(), reduce, n_partitions=16)
    assert marker.exists()


def test_a_leg_of_only_zero_row_blocks_is_skipped():
    keyed = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3], "v": [1, 2, 3]}))
    # zero-row blocks with no columns: partitioning them would KeyError
    empty = keyed.map_batches(lambda b: pd.DataFrame(), batch_format="pandas")
    part = hash_partitioner(["k"])

    def reduce(group: pd.DataFrame, pid: int) -> pd.DataFrame:
        return group

    out = exchange([empty, keyed], part, reduce).to_pandas()
    assert sorted(out["v"]) == [1, 2, 3]
    assert exchange(empty, part, reduce).count() == 0


_Q18_ONE_CPU = """
import sys
import numpy as np, pandas as pd, ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ndap_data_validator_ray.pipelines.queries import tpch_q18_large_orders
out = tpch_q18_large_orders(sys.argv[1])
print(out["o_orderkey"].tolist())
ray.shutdown()
"""


def test_q18_completes_on_one_cpu(tmp_path):
    """The broadcast lookup is a task map: on a one-CPU cluster nothing
    holds the only CPU while the scan waits for it."""
    pd.DataFrame({"l_orderkey": np.array([1, 1, 2, 3], dtype=np.int64),
                  "l_quantity": [200.0, 100.0, 20.0, 260.0]}).to_parquet(tmp_path / "lineitem.parquet")
    pd.DataFrame({"o_orderkey": np.array([1, 2, 3], dtype=np.int64), "o_custkey": np.array([4, 5, 6], dtype=np.int64),
                  "o_orderdate": pd.to_datetime(["2024-01-01", "2024-01-02", "2024-01-03"]).date}
                 ).to_parquet(tmp_path / "orders.parquet")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": repo}
    env.pop("RAY_ADDRESS", None)
    # own process group, so a hung run's Ray processes die with it
    proc = subprocess.Popen([sys.executable, "-c", textwrap.dedent(_Q18_ONE_CPU), str(tmp_path)], cwd=repo, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("tpch_q18_large_orders did not finish in 60 s on one CPU")
    assert proc.returncode == 0, err[-2000:]
    assert out.strip().splitlines()[-1] == "[1, 3]"


def test_only_sort_packing_and_curation_fix_a_partition_count():
    """The exchange picks the partition count.  ``curate_documents`` keeps
    ``n_buckets`` because its bucket id names persisted output, the range
    sort passes ``n_partitions`` because its pids are sampled ranges, and
    packing because its bucket id is part of every bin id; no other stage
    or pipeline chooses one."""
    import ast
    import importlib
    import inspect
    import pkgutil

    import ndap_data_validator_ray.pipelines as pipelines
    import ndap_data_validator_ray.stages as stages

    with_knob, fixing = set(), set()
    for pkg in (stages, pipelines):
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{pkg.__name__}.{info.name}")
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    if "n_buckets" in inspect.signature(fn).parameters:
                        with_knob.add(name)
            for node in ast.walk(ast.parse(inspect.getsource(mod))):
                for k in node.keywords if isinstance(node, ast.Call) else ():
                    if k.arg == "n_partitions":
                        fixing.add(info.name)
    assert with_knob == {"curate_documents"}
    assert fixing == {"sort", "curation", "packing"}
