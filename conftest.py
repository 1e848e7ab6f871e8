import os
import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, configured
    by :func:`repro.session.spark_session` like the table jobs.

    ``repro`` is imported here, not at module level, so suites that never
    ask for Spark (``perfbench/``) load this file without ``src`` on the
    path.
    """
    from repro.session import spark_session

    s = spark_session("repro")
    # One stderr line with the session's resources.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
