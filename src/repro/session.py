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
    """The Spark driver heap: ``SPARK_DRIVER_MEM`` if set, else half of
    the machine's ``MemTotal`` (``/proc/meminfo``) clamped to 2–8g, the
    same rule as the tier-1 test command; 2g if it cannot be read."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f
                       if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // (2 << 20)))}g"


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
            .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate())
