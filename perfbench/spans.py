"""Per-layer tracing from outside the program.

Spans are recorded by wrapping the names that ``repro.dist.pipeline``,
``repro.dist.verify`` and ``repro.dist.kernels`` import, so ``src/`` holds
no tracing code. Two rules make the Spark spans mean what they say:

* a wrapped layer that returns a DataFrame has its output checkpointed
  eagerly *inside* its span, otherwise the span measures only planning
  and the work lands in whichever layer runs the next action;
* every span gets its own Spark job group, so ``getJobIdsForGroup``
  counts only the jobs that span ran itself.

Kernels run inside Spark Python workers, which import ``repro`` afresh and
never see these wrappers. The traced run therefore replays each
component's kernel in-process with ``solve_component`` and the search
functions wrapped; ops per sub-layer are ``budget.spent`` differences.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.core.bottom_up as bottom_up_mod
import repro.core.minimal as minimal_mod
import repro.core.top_down as top_down_mod
import repro.dist.kernels as kernels_mod
import repro.dist.pipeline as pipeline_mod
import repro.dist.verify as verify_mod
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass
class Span:
    name: str
    parent: "Span | None"
    group: str             # Spark job group of this span
    start: float
    end: float = 0.0
    jobs: int = 0          # jobs run in this span's own job group
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0   # time covered by direct children

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name,
                "parent": self.parent.name if self.parent else None,
                "start": self.start, "end": self.end, "jobs": self.jobs,
                **self.attrs}


@dataclass
class Stat:
    """Aggregate of a hot kernel function (too many calls for spans)."""

    calls: int = 0
    seconds: float = 0.0
    ops: int = 0
    hits: int = 0          # calls with the layer's "positive" outcome


class Tracer:
    """Spans and kernel stats of one traced iteration."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: list[Span] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[Span] = []
        self._groups = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._groups += 1
        group = f"perfbench-{self._groups}"
        self.sc.setJobGroup(group, name)
        s = Span(name, parent, group, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            s.jobs = len(self.sc.statusTracker().getJobIdsForGroup(group))
            if parent is not None:
                parent.child_s += s.seconds
                self.sc.setJobGroup(parent.group, parent.name)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    # -- aggregation ------------------------------------------------------
    def named(self, name: str, parent: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and (parent is None or (s.parent and s.parent.name == parent))]

    def total_s(self, name: str, parent: str | None = None) -> float:
        return sum(s.seconds for s in self.named(name, parent))

    def total_jobs(self, name: str) -> int:
        """Jobs of every ``name`` span including its descendants."""
        def below(span: Span) -> int:
            return span.jobs + sum(below(c) for c in self.spans
                                   if c.parent is span)
        return sum(below(s) for s in self.named(name))

    def attr_sum(self, name: str, key: str, parent: str | None = None
                 ) -> float:
        return sum(s.attrs.get(key, 0) for s in self.named(name, parent))


# -- Spark layers ---------------------------------------------------------
def _frame_layer(tracer: Tracer, name: str, fn, frame_arg: int, post=None):
    """Wrap a DataFrame-returning layer: count in, materialize, count out."""
    def wrapped(*args, **kwargs):
        rows_in = args[frame_arg].count()
        with tracer.span(name) as s:
            out = fn(*args, **kwargs).localCheckpoint(eager=True)
        s.attrs.update(rows_in=rows_in, rows_out=out.count())
        if post is not None:
            s.attrs.update(post(out))
        return out
    return wrapped


def _scc_post(out: DataFrame) -> dict:
    comps = out.groupBy("comp").count()
    return {"components": comps.where(F.col("count") > 1).count(),
            "residual_vertices": out.where(F.col("comp") == -1).count()}


def _call_layer(tracer: Tracer, name: str, fn, post=None):
    """Wrap a layer that returns driver-side values."""
    def wrapped(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
        if post is not None:
            s.attrs.update(post(args, out))
        return out
    return wrapped


def _stat_layer(stats: dict, name: str, fn, hit):
    """Wrap a hot search function: calls, seconds, ops and hit count.

    ``budget`` is the sixth positional argument of every search kernel."""
    def wrapped(*args, **kwargs):
        budget = args[5] if len(args) > 5 else kwargs["budget"]
        before = budget.spent
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            st = stats[name]
            st.calls += 1
            st.seconds += time.perf_counter() - t0
            st.ops += budget.spent - before
        st.hits += bool(hit(out))
        return out
    return wrapped


@contextmanager
def patched(replacements):
    """Temporarily set ``(module, attribute, value)`` triples."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def spark_layers(tracer: Tracer):
    """Replacements that trace the driver-side Spark layers."""
    t, P, V = tracer, pipeline_mod, verify_mod
    return [
        (P, "normalize_edges",
         _frame_layer(t, "schema.normalize", P.normalize_edges, 0)),
        (P, "trim", _frame_layer(t, "trim", P.trim, 0)),
        (P, "scc", _frame_layer(t, "scc", P.scc, 1, _scc_post)),
        (P, "prefilter_edges",
         _frame_layer(t, "khop", P.prefilter_edges, 0)),
        (V, "normalize_edges",
         _frame_layer(t, "schema.normalize", V.normalize_edges, 0)),
        (V, "remove_cover",
         _frame_layer(t, "dist_verify.remove_cover", V.remove_cover, 0)),
        (V, "trim", _frame_layer(t, "trim", V.trim, 0)),
        (V, "prefilter_edges",
         _frame_layer(t, "khop", V.prefilter_edges, 0)),
        (V, "check_feasible",
         _call_layer(t, "dist_verify.exact", V.check_feasible,
                     lambda args, out: {"survivor_rows": args[0].m})),
    ]


# -- in-process kernel replay ---------------------------------------------
def kernel_layers(tracer: Tracer):
    """Replacements that trace the kernel layers during a replay."""
    t, st, K = tracer, tracer.stats, kernels_mod

    class _CSR:  # times CSR builds without touching the real class
        from_edges = staticmethod(_call_layer(t, "csr.build",
                                              K.CSRGraph.from_edges))

    def kept_frac(args, mask):
        return {"kept": int(mask.sum()), "total": int(mask.size)}

    def edges(args, g):
        return {"edges_in": args[0].m, "edges_kept": g.m}

    def ops(args, res):
        return {"ops": res.ops}

    return [
        (K, "CSRGraph", _CSR),
        (K, "nontrivial_scc_mask",
         _call_layer(t, "tarjan", K.nontrivial_scc_mask, kept_frac)),
        (K, "restrict_to_short_walk_edges",
         _call_layer(t, "bulk_bfs", K.restrict_to_short_walk_edges, edges)),
        (K, "top_down", _call_layer(t, "top_down", K.top_down, ops)),
        (K, "bur_plus", _call_layer(t, "bur_plus", K.bur_plus, ops)),
        (K, "darc_dv", _call_layer(t, "darc", K.darc_dv, ops)),
        (minimal_mod, "bottom_up",
         _call_layer(t, "bur_plus.greedy", minimal_mod.bottom_up)),
        (minimal_mod, "find_minimal_cover",
         _call_layer(t, "minimal.prune", minimal_mod.find_minimal_cover)),
        (top_down_mod, "bfs_filter",
         _stat_layer(st, "bfs_filter", top_down_mod.bfs_filter,
                     lambda keep: not keep)),
        (top_down_mod, "node_necessary",
         _stat_layer(st, "blocks", top_down_mod.node_necessary,
                     lambda cyc: cyc is not None)),
        (minimal_mod, "find_cycle",
         _stat_layer(st, "find_cycle", minimal_mod.find_cycle,
                     lambda cyc: cyc is not None)),
        (bottom_up_mod, "find_cycle",
         _stat_layer(st, "find_cycle", bottom_up_mod.find_cycle,
                     lambda cyc: cyc is not None)),
    ]


def replay(tracer: Tracer, comp_pdf, algorithm: str, k: int,
           op_budget: int | None) -> tuple[set[int], int]:
    """Re-run every component's kernel in-process, traced.

    Returns the union of the component covers and the summed ops, which
    the caller compares with what the Spark run returned."""
    cover: set[int] = set()
    ops = 0
    with patched(kernel_layers(tracer)):
        for _, pdf in comp_pdf.groupby("comp", sort=True):
            out = kernels_mod.solve_component(
                pdf.reset_index(drop=True), algorithm=algorithm, k=k,
                op_budget=op_budget)
            stats = out[out.vertex.isna()]
            cover.update(int(v) for v in out[out.vertex.notna()].vertex)
            ops += int(stats.ops.sum())
    return cover, ops
