"""Benchmark: time to a verified hop-constrained cycle cover.

Run from the repository root::

    python3 perfbench/run.py --workload table3 --seed 0 --seconds 10 \
        --trace 0

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line before
it records the inputs (n, m, components), a digest of every cover, the
raw median check time and the median speed reading (``speed.py``).
See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# Spark task slots: up to 3, leaving a core for the driver, JIT and GC.
CORES = max(1, min(3, len(os.sched_getaffinity(0)) - 1))
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 32
SETUP_REPEATS = 3


def pin_environment() -> None:
    """Spark settings owned by the benchmark, not inherited from the test
    fixture or the table jobs. Executor Python workers inherit
    ``PYTHONPATH`` from the JVM, which inherits it from here; with only
    ``sys.path`` set, ``applyInPandas`` cannot import ``repro``."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(BUILD / "spark")
    jvm_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"  # no /tmp writes
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '{jvm_opts}' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell")
    sys.path.insert(0, str(ROOT / "src"))


def start_session():
    from pyspark.sql import SparkSession
    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .config("spark.sql.autoBroadcastJoinThreshold", -1)
             .config("spark.ui.retainedJobs", 100_000)
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


# -- processes -------------------------------------------------------------
def descendants() -> list[int]:
    """Pids of every live process below this one."""
    kids: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            ppid = int((d / "stat").read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d.name))
    out, todo = [], [os.getpid()]
    while todo:
        for child in kids.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _status(pid: int) -> dict[str, str]:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return {}
    return {k: v.strip() for k, v in
            (line.split(":", 1) for line in text.splitlines() if ":" in line)}


def peak_rss_mb() -> tuple[float, float]:
    """Largest VmHWM (MiB) among this run's Python processes (driver and
    Spark Python workers), and the JVM's."""
    py = jvm = 0.0
    for pid in [os.getpid(), *descendants()]:
        st = _status(pid)
        if "VmHWM" not in st:
            continue
        mb = int(st["VmHWM"].split()[0]) / 1024
        if st["Name"].startswith("python"):
            py = max(py, mb)
        elif st["Name"] == "java":
            jvm = max(jvm, mb)
    return py, jvm


def shutdown(spark) -> None:
    """Stop the session, the JVM and its Python workers; wait for all."""
    from pyspark import SparkContext
    procs = descendants()
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = SparkContext._jvm = None
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=60)
    deadline = time.monotonic() + 30
    while procs and time.monotonic() < deadline:
        procs = [p for p in procs
                 if _status(p).get("State", "Z").split()[0] != "Z"]
        time.sleep(0.1)
    for p in procs:
        os.kill(p, 9)


# -- the run ---------------------------------------------------------------
def traced_iteration(spark, wl, frames, gate):
    """One iteration with the Spark layers traced, then an in-process
    replay of every kernel; the replay must reproduce the Spark run's
    cover and ops exactly."""
    from bench import iterate
    from repro.tables.table3 import DEFAULT_BUDGETS
    from spans import Tracer, patched, replay, spark_layers
    from workloads import K

    tracer = Tracer(spark)
    with patched(spark_layers(tracer)):
        traced = iterate(spark, wl, frames, gate, tracer)
    replay_ok = True
    for r in traced["runs"]:
        if r["info"]:
            sizes = r["comp_edges"].groupBy("comp").count()
            r["info"]["largest_comp_edges"] = int(
                sizes.agg({"count": "max"}).collect()[0][0] or 0)
        res = r["result"]
        cover, ops = replay(tracer, r["comp_edges"].toPandas(),
                            r["algorithm"], K, DEFAULT_BUDGETS[r["algorithm"]])
        if cover != {int(v) for v in res.cover} or ops != res.ops:
            replay_ok = False
            gate.errors.append(
                f"{r['dataset']}/{res.algorithm}: replay gave {len(cover)} "
                f"vertices and {ops} ops, Spark gave {res.size} and "
                f"{res.ops}")
    return tracer, traced, replay_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="size multiplier of every generator (1 = bench)")
    args = ap.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run it "
              "from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    pin_environment()
    from bench import (Gate, end_to_end, iterate, per_layer, setup,
                       summed_medians, verify)
    from speed import Speed
    from workloads import WORKLOADS, describe
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    setups, spark = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if spark is not None:
                spark.stop()
            spark, pdfs, frames, times = setup(start_session, wl.name,
                                               args.seed, args.scale)
            setups.append(times)
        inputs = {name: describe(pdf) for name, pdf in pdfs.items()}
        gate, speed = Gate(), Speed()
        samples = []
        if args.trace:
            # The untraced iteration after the traced one gives the
            # tracing overhead.
            tracer, traced, replay_ok = traced_iteration(spark, wl, frames,
                                                         gate)
            samples.append(iterate(spark, wl, frames, gate))
            checked = verify(frames, samples[0], gate, speed)
            metrics = per_layer(tracer, traced, samples[0],
                                checked["core_verify"], setups, CORES,
                                peak_rss_mb()[1], replay_ok)
            BUILD.mkdir(parents=True, exist_ok=True)
            (BUILD / f"spans_{wl.name}_{args.seed}.json").write_text(
                json.dumps([s.to_json() for s in tracer.spans], indent=1))
        else:
            # Iterations until --seconds have passed and at least the
            # workload's count have run; then the checks, in rounds.
            t_end = time.perf_counter() + args.seconds
            while (len(samples) < wl.iterations
                   or time.perf_counter() < t_end):
                samples.append(iterate(spark, wl, frames, gate))
            checked = verify(frames, samples[-1], gate, speed)
            metrics = end_to_end(setups, samples, checked,
                                 peak_rss_mb()[0])
    finally:
        if spark is not None:
            shutdown(spark)
    if set(metrics) != set(units):
        gate.errors.append("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for e in gate.errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "scale": args.scale, "iterations": len(samples),
                      "inputs": inputs, "digests": gate.digests,
                      "raw_verify_s": summed_medians([checked],
                                                     "verify_raw"),
                      "probe_s": statistics.median(speed.readings)}))
    print(json.dumps({
        "correct": gate.failed == 0 and not gate.errors,
        "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
