"""Op budgets and workspace stamping."""
import pytest

from repro.core.engine import OpBudget, OpBudgetExceeded, Workspace


def test_unlimited_budget_never_raises():
    b = OpBudget(None)
    b.spend(10**9)
    assert b.spent == 10**9


def test_budget_raises_at_limit():
    b = OpBudget(10)
    b.spend(9)
    with pytest.raises(OpBudgetExceeded) as e:
        b.spend(5)
    assert e.value.spent == 14
    assert e.value.limit == 10


def test_workspace_epochs_distinct():
    ws = Workspace(5)
    a = ws.new_epoch()
    b = ws.new_epoch()
    assert a != b


def test_workspace_shapes():
    ws = Workspace(7)
    for field in (ws.block, ws.block_stamp, ws.in_stack, ws.dist,
                  ws.dist_stamp):
        assert len(field) == 7
    assert ws.in_stack == [False] * 7
    assert len(ws.queue) >= 7


def test_workspace_zero_vertices():
    ws = Workspace(0)
    assert len(ws.queue) == 1  # never empty, BFS guards on it


def test_stamping_invalidates_blocks():
    ws = Workspace(3)
    e1 = ws.new_epoch()
    ws.block[1] = 42
    ws.block_stamp[1] = e1
    e2 = ws.new_epoch()
    assert ws.block_stamp[1] != e2  # stale for the new epoch
    assert all(stamp <= e2 for stamp in ws.block_stamp)
