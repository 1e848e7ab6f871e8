"""The one local SparkSession config, shared by the test fixture and the
table jobs.

Master and driver memory are read at JVM launch, not from a SparkConf, so
:func:`spark_session` puts them in ``PYSPARK_SUBMIT_ARGS`` before it builds
the first session; an explicit ``PYSPARK_SUBMIT_ARGS``, ``SPARK_MASTER`` or
``SPARK_DRIVER_MEM`` wins. Broadcast joins are disabled so the joins
exercise the shuffle path at these sizes. ``perfbench/`` pins its own
environment and does not use this module.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

SHUFFLE_PARTITIONS = 32


def driver_memory() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. The cgroup read is best-effort: a sandboxed
    sysfs may not pass the host limit through. An unbounded value
    (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit) is
    treated as absent so the JVM is never handed an impossible heap.
    ``_SPARK_DRIVER_MEM_SRC`` records where the value came from.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def spark_session(app: str) -> SparkSession:
    """Build (or reuse) the local session named ``app``."""
    os.environ.setdefault("SPARK_DRIVER_MEM", driver_memory())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    return (SparkSession.builder.appName(app)
            .config("spark.sql.shuffle.partitions",
                    os.environ.get("SPARK_SHUFFLE_PARTITIONS",
                                   str(SHUFFLE_PARTITIONS)))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate())
