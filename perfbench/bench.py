"""Set-up, a cover iteration, the check rounds, and the metrics built from
them."""
from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from contextlib import nullcontext

from repro.core.engine import OpBudget
from repro.core.verify import check_feasible, check_minimal
from repro.dist.pipeline import prepare_graph, run_cover, single_group
from repro.dist.verify import distributed_check_cover
from repro.graph.csr import CSRGraph
from repro.graph.schema import edges_df
from repro.tables.table3 import DEFAULT_BUDGETS

from speed import Speed
from workloads import K, make_inputs

# A run checks its covers in at least this many rounds and for at least
# this long: single pure-Python checks on a shared machine vary by up to 2x
# from one repetition to the next.
MIN_VERIFY_REPS = 3
MIN_VERIFY_S = 4.0


def digest(cover) -> str:
    ids = ",".join(str(v) for v in sorted(int(x) for x in cover))
    return hashlib.sha256(ids.encode()).hexdigest()[:16]


class Gate:
    """Counts cover computations and the ones that failed.

    A failure is a DNF, an exception, an infeasible cover, a non-minimal
    cover where minimality is checked, or a cover whose digest differs
    from the one an earlier iteration produced on the same input."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def record(self, key: str, ok: bool, why: str, cover=None) -> None:
        self.attempted += 1
        if cover is not None:
            d = digest(cover)
            if self.digests.setdefault(key, d) != d:
                ok, why = False, "cover changed between iterations"
        if not ok:
            self.failed += 1
            self.errors.append(f"{key}: {why}")


def setup(start_session, workload: str, seed: int, scale: float):
    """Start a session, generate the inputs and load each into a
    checkpointed edge frame. Returns ``(spark, pdfs, frames, times)``."""
    t0 = time.perf_counter()
    spark = start_session()
    t1 = time.perf_counter()
    pdfs = make_inputs(workload, seed, scale)
    t2 = time.perf_counter()
    frames = {name: edges_df(spark, pdf).localCheckpoint(eager=True)
              for name, pdf in pdfs.items()}
    t3 = time.perf_counter()
    return spark, pdfs, frames, {"session_s": t1 - t0, "graphgen_s": t2 - t1,
                                 "load_s": t3 - t2, "total_s": t3 - t0}


def _covers(spark, wl, name, edges, span) -> tuple[list[dict], float]:
    """Every cover the workload asks for on one dataset, and the wall time
    from the loaded edge frame to the last of them."""
    t0 = time.perf_counter()
    if wl.mode == "pipeline":
        with span("pipeline.prepare"):
            comp_edges, info = prepare_graph(spark, edges, K)
    else:
        comp_edges, info = single_group(edges), {}
    runs = []
    for algo in wl.algorithms[name]:
        t = time.perf_counter()
        with span("kernels"):
            res = run_cover(comp_edges, algo, K,
                            op_budget=DEFAULT_BUDGETS[algo])
        runs.append({"algorithm": algo, "wall_s": time.perf_counter() - t,
                     "result": res, "comp_edges": comp_edges, "info": info})
    return runs, time.perf_counter() - t0


def _verify(g, runs, core_log) -> dict:
    """``{algorithm: (feasible, minimal)}`` from the exact checkers."""
    checks = {}
    for r in runs:
        cover = r["result"].cover
        bf, bm = OpBudget(), OpBudget()
        t0 = time.perf_counter()
        feasible = check_feasible(g, cover, K, budget=bf)[0]
        t1 = time.perf_counter()
        minimal = check_minimal(g, cover, K, budget=bm)[0]
        t2 = time.perf_counter()
        checks[r["algorithm"]] = (feasible, minimal)
        core_log.append({"feasible_s": t1 - t0, "feasible_ops": bf.spent,
                         "minimal_s": t2 - t1, "minimal_ops": bm.spent})
    return checks


def _dist_verify(spark, edges, cover, span) -> bool:
    with span("dist_verify"):
        cov = spark.createDataFrame([(int(v),) for v in cover] or [(-1,)],
                                    "v BIGINT")
        return distributed_check_cover(spark, edges, cov, K)


def iterate(spark, wl, frames: dict, gate: Gate, tracer=None) -> dict:
    """Cover every dataset once. ``cover_by`` maps each dataset to its
    cover time; ``cover_s`` and ``cover_size`` (TDB++) are summed over
    datasets. A cover that did not finish, or differs from the one an
    earlier iteration produced, fails here; ``verify`` checks the rest. A
    traced iteration also runs ``distributed_check_cover`` on the TDB++
    cover of the workload's ``dist_check`` dataset."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    out = {"cover_s": 0.0, "cover_size": 0, "cover_by": {}, "runs": []}
    for name, edges in frames.items():
        try:
            runs, cover_s = _covers(spark, wl, name, edges, span)
            if tracer and name == wl.dist_check:
                tdb = runs[0]["result"]
                gate.record(f"{name}/{tdb.algorithm}/dist_verify",
                            _dist_verify(spark, edges, tdb.cover, span),
                            "infeasible by distributed_check_cover")
        except Exception:  # a failed cover is counted, the run goes on
            for algo in wl.algorithms[name]:
                gate.record(f"{name}/{algo}", False, traceback.format_exc())
            continue
        out["cover_by"][name] = [cover_s]
        out["cover_s"] += cover_s
        out["cover_size"] += runs[0]["result"].size
        for r in runs:
            res = r["result"]
            r["dataset"] = name
            gate.record(f"{name}/{res.algorithm}", res.finished,
                        "did not finish", res.cover)
        out["runs"] += runs
    return out


def verify(frames: dict, sample: dict, gate: Gate, speed: Speed) -> dict:
    """Check the covers of one iteration in rounds, with the exact
    checkers. Every iteration's covers equal the first's (``Gate``
    compares digests), so one iteration's check stands for all.

    A round checks every dataset's covers once; rounds repeat at least
    ``MIN_VERIFY_REPS`` times and for at least ``MIN_VERIFY_S``, and must
    all reach the same verdict. ``verify_raw`` maps each dataset to its
    check time per round, ``verify_by`` to the same times at the
    reference speed: each cover's check is bracketed by ``speed``
    readings. ``core_verify`` logs the first round's checkers."""
    out = {"verify_raw": {}, "verify_by": {}, "core_verify": []}
    todo = {}  # dataset -> (runs, CSR graph) of the covers to check
    for r in sample["runs"]:
        name = r["dataset"]
        if name not in todo:
            # The graph is collected untimed: verify_s is the checkers'
            # time, without a Spark job's start-up noise.
            todo[name] = [], CSRGraph.from_edges(frames[name].toPandas())
        todo[name][0].append(r)
    verdicts = {name: [] for name in todo}
    rounds, spent = 0, 0.0
    before = speed.read()
    while todo and (rounds < MIN_VERIFY_REPS or spent < MIN_VERIFY_S):
        rounds += 1
        for name, (runs, g) in todo.items():
            log = [] if verdicts[name] else out["core_verify"]
            checks, raw, scaled = {}, 0.0, 0.0
            for r in runs:
                t0 = time.perf_counter()
                checks.update(_verify(g, [r], log))
                dt = time.perf_counter() - t0
                after = speed.read()
                raw += dt
                scaled += speed.scale(dt, before, after)
                before = after
            verdicts[name].append(checks)
            out["verify_raw"].setdefault(name, []).append(raw)
            out["verify_by"].setdefault(name, []).append(scaled)
            spent += raw
    for name, (runs, _) in todo.items():
        checks = verdicts[name][0]
        if any(v != checks for v in verdicts[name]):
            gate.errors.append(f"{name}: verdicts differ between "
                               "repetitions of one check")
        for r in runs:
            feasible, minimal = checks[r["algorithm"]]
            gate.record(f"{name}/{r['result'].algorithm}/check",
                        feasible and minimal,
                        "infeasible" if not feasible else "not minimal")
    return out


def summed_medians(samples: list, key: str) -> float:
    """Per dataset the median of its times under ``key`` over ``samples``
    (iterations, or verify rounds), summed over datasets."""
    by: dict[str, list[float]] = {}
    for s in samples:
        for name, times in s[key].items():
            by.setdefault(name, []).extend(times)
    return sum(statistics.median(t) for t in by.values())


def end_to_end(setups: list, samples: list, checked: dict,
               py_rss_mb: float) -> dict:
    """``setup_s`` is the median set-up (the higher middle one of an even
    count). ``cover_s`` is the ``summed_medians`` of the cover times in
    wall seconds, ``verify_s`` that of the check times at the reference
    speed."""
    return {
        "setup_s": statistics.median_high(s["total_s"] for s in setups),
        "cover_s": summed_medians(samples, "cover_by"),
        "verify_s": summed_medians([checked], "verify_by"),
        "cover_size": statistics.median_high(s["cover_size"]
                                             for s in samples),
        "peak_rss_mb": py_rss_mb,
    }


def per_layer(tracer, traced: dict, untraced: dict, core: list,
              setups: list, cores: int, jvm_rss_mb: float,
              replay_ok: bool) -> dict:
    """Per-layer metrics of one traced iteration (0 where a layer did not
    run on this workload)."""
    T, st = tracer, tracer.stats
    runs = traced["runs"]

    def med(key):
        return statistics.median(s[key] for s in setups)

    def wall(algo):
        return sum(r["wall_s"] for r in runs if r["algorithm"] == algo)

    def ratio(a, b):
        return a / b if b else 0.0

    busy = sum(r["result"].seconds for r in runs)
    kern_wall = sum(r["wall_s"] for r in runs)
    n_comp = [r["result"].extra["n_components"] for r in runs]
    prepared = [r["info"] for r in runs if r["info"]]
    tarjans = T.named("tarjan")
    khop_in = T.attr_sum("khop", "rows_in")
    bfs, blk, fc = st["bfs_filter"], st["blocks"], st["find_cycle"]
    return {
        "setup.session_s": med("session_s"),
        "setup.graphgen_s": med("graphgen_s"),
        "setup.load_s": med("load_s"),
        "setup.first_s": setups[0]["total_s"],
        "schema.normalize_s": T.total_s("schema.normalize"),
        "schema.rows_in": T.attr_sum("schema.normalize", "rows_in"),
        "schema.rows_out": T.attr_sum("schema.normalize", "rows_out"),
        "trim.s": T.total_s("trim"),
        "trim.jobs": T.total_jobs("trim"),
        "trim.rows_in": T.attr_sum("trim", "rows_in"),
        "trim.rows_out": T.attr_sum("trim", "rows_out"),
        "scc.s": T.total_s("scc"),
        "scc.jobs": T.total_jobs("scc"),
        "scc.components": T.attr_sum("scc", "components"),
        "scc.residual_vertices": T.attr_sum("scc", "residual_vertices"),
        "khop.s": T.total_s("khop"),
        "khop.jobs": T.total_jobs("khop"),
        "khop.rows_in": khop_in,
        "khop.rows_out": T.attr_sum("khop", "rows_out"),
        "khop.kept_frac": ratio(T.attr_sum("khop", "rows_out"), khop_in),
        "pipeline.prepare_s": T.total_s("pipeline.prepare"),
        "pipeline.self_s": sum(s.seconds - s.child_s
                               for s in T.named("pipeline.prepare")),
        "pipeline.largest_comp_frac": max(
            (ratio(i["largest_comp_edges"], i["m_partitioned"])
             for i in prepared), default=0.0),
        "kernels.wall_s": kern_wall,
        "kernels.busy_s": busy,
        "kernels.components": sum(n_comp),
        "kernels.parallel_eff": ratio(busy, sum(
            r["wall_s"] * max(1, min(cores, c)) for r, c in zip(runs, n_comp))),
        "run_cover.tdbpp_s": wall("tdb++"),
        "run_cover.bur_plus_s": wall("bur+"),
        "run_cover.darc_dv_s": wall("darc-dv"),
        "csr.build_s": T.total_s("csr.build"),
        "tarjan.s": T.total_s("tarjan"),
        "tarjan.kept_frac": ratio(sum(s.attrs["kept"] for s in tarjans),
                                  sum(s.attrs["total"] for s in tarjans)),
        "bulk_bfs.s": T.total_s("bulk_bfs"),
        "bulk_bfs.edges_in": T.attr_sum("bulk_bfs", "edges_in"),
        "bulk_bfs.edges_kept": T.attr_sum("bulk_bfs", "edges_kept"),
        "top_down.s": T.total_s("top_down"),
        "top_down.ops": T.attr_sum("top_down", "ops"),
        "bfs_filter.calls": bfs.calls,
        "bfs_filter.s": bfs.seconds,
        "bfs_filter.ops": bfs.ops,
        "bfs_filter.pruned_frac": ratio(bfs.hits, bfs.calls),
        "blocks.calls": blk.calls,
        "blocks.s": blk.seconds,
        "blocks.ops": blk.ops,
        "blocks.cycles_found": blk.hits,
        "find_cycle.calls": fc.calls,
        "find_cycle.s": fc.seconds,
        "find_cycle.ops": fc.ops,
        "bur_plus.greedy_s": T.total_s("bur_plus.greedy"),
        "bur_plus.prune_s": T.total_s("minimal.prune", parent="bur_plus"),
        "darc.s": T.total_s("darc"),
        "darc.ops": T.attr_sum("darc", "ops"),
        "dist_verify.s": T.total_s("dist_verify"),
        "dist_verify.jobs": T.total_jobs("dist_verify"),
        "dist_verify.residual_rows": T.attr_sum("khop", "rows_in",
                                                parent="dist_verify"),
        "dist_verify.survivor_rows": T.attr_sum("dist_verify.exact",
                                                "survivor_rows"),
        "dist_verify.exact_fallback": len(T.named("dist_verify.exact")),
        "core_verify.feasible_s": sum(c["feasible_s"] for c in core),
        "core_verify.feasible_ops": sum(c["feasible_ops"] for c in core),
        "core_verify.minimal_s": sum(c["minimal_s"] for c in core),
        "core_verify.minimal_ops": sum(c["minimal_ops"] for c in core),
        "spark.jvm_peak_rss_mb": jvm_rss_mb,
        "trace.overhead_s": traced["cover_s"] - untraced["cover_s"],
        "trace.replay_match": float(replay_ok),
    }
