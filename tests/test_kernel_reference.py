"""Recorded outcomes of the top-down, bottom-up, DARC-DV and verifier
kernels.

``kernel_reference.json`` was recorded from the searches over numpy
workspace arrays and masks, before they moved onto Python lists; the
DARC-DV entries were added when DARC-DV moved onto the split graph, and
the TDB++ and ``feasible``/``feasible_short`` op counts were re-recorded
when the BFS filter became bidirectional and started running in front of
the feasibility sweep (every cover, verdict and witness stayed). Any
change to a DFS/BFS visiting order, the block certificates or the op
accounting shows up here as a different cover, witness, verdict, op
count or DARC state size. Regenerate it only for a change that means to
move them::

    PYTHONPATH=src:. python3 tests/test_kernel_reference.py
"""
import json
from pathlib import Path

import pytest

from repro.core.bottom_up import bottom_up
from repro.core.darc import darc_dv
from repro.core.engine import OpBudget
from repro.core.minimal import bur_plus
from repro.core.top_down import TECHNIQUES, top_down
from repro.core.verify import check_feasible, check_minimal
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph

DATA = Path(__file__).with_name("kernel_reference.json")
KINDS = ("uniform", "powerlaw")
SEEDS = range(12)


def _reference_graph(kind, seed):
    if kind == "uniform":
        edges = uniform_digraph(13, 40, reciprocity=0.4, seed=seed)
    else:
        edges = powerlaw_digraph(30, 110, reciprocity=0.4, seed=seed)
    return CSRGraph.from_edges(edges)


def _key(kind, seed, k, allow2):
    return f"{kind}/{seed}/{k}/{int(allow2)}"


def _cover(res):
    assert res.finished
    return [sorted(int(v) for v in res.cover), res.ops]


def darc_outcome(res):
    """DARC-DV's cover, ops and S/U/projection sizes."""
    return _cover(res) + [res.extra["units_in_S"],
                          res.extra["recorded_cycles"],
                          res.extra["projected_size"]]


def outcome(g, k, allow2):
    """Cover and ops of every TDB technique, BUR and BUR+; verdict,
    witness and ops of the verifiers on the TDB++ cover, on that cover
    without its smallest label, and (minimality) on BUR's cover; cover,
    ops and state sizes of DARC-DV."""
    out = {tech: _cover(top_down(g, k, technique=tech,
                                 allow_two_cycles=allow2))
           for tech in TECHNIQUES}
    out["bur"] = _cover(bottom_up(g, k, allow_two_cycles=allow2))
    out["bur+"] = _cover(bur_plus(g, k, allow_two_cycles=allow2))
    cover = out["tdb++"][0]
    for name, check, labels in (
            ("feasible", check_feasible, cover),
            ("feasible_short", check_feasible, cover[1:]),
            ("minimal", check_minimal, cover),
            ("minimal_bur", check_minimal, out["bur"][0])):
        budget = OpBudget()
        ok, found = check(g, labels, k, allow_two_cycles=allow2,
                          budget=budget)
        out[name] = [bool(ok), [int(v) for v in found], budget.spent]
    out["darc-dv"] = darc_outcome(darc_dv(g, k, allow_two_cycles=allow2))
    return out


def record() -> dict:
    return {_key(kind, seed, k, allow2):
            outcome(_reference_graph(kind, seed), k, allow2)
            for kind in KINDS for seed in SEEDS
            for k in (3, 4, 5) for allow2 in (False, True)}


@pytest.fixture(scope="module")
def reference():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_matches_recorded_reference(reference, kind, seed):
    g = _reference_graph(kind, seed)
    for k in (3, 4, 5):
        for allow2 in (False, True):
            assert outcome(g, k, allow2) == \
                reference[_key(kind, seed, k, allow2)], (k, allow2)


if __name__ == "__main__":
    rec = record()
    DATA.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(val, separators=(',', ':'))}"
        for key, val in rec.items()) + "\n}\n")
