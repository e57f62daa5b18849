import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hymac.priority import escalation_table
from hymac.simulator import _group_actives
from planner_oracle import escalated_probability


def _row(alpha, p_inl, n_rho):
    return escalation_table([(alpha, p_inl)], n_rho)[0]


def test_virtual_class_merges_hierarchy_and_escalation():
    # a fresh class-3 device and a class-1 device with two failures
    # contend as one virtual class, rho = q - 1 + d = 2
    q = np.array([3, 1, 1])
    d = np.array([0, 2, 0])
    ids, counts, probs = _group_actives(np.arange(3), q, d, _row(1.0, 0.1, 5))
    assert ids.tolist() == [2, 0, 1]
    assert counts.tolist() == [1, 2]
    assert probs.tolist() == [escalated_probability(0, 1.0, 0.1),
                              escalated_probability(2, 1.0, 0.1)]


def test_escalation_examples():
    # a class-q device with d failures contends at rho = q - 1 + d;
    # one failure doubles the probability at alpha = 1
    row = _row(1.0, 0.1, 3)
    assert row[1 - 1 + 0] == pytest.approx(0.1)
    assert row[1 - 1 + 1] == pytest.approx(0.2)
    assert row[1 - 1 + 2] == pytest.approx(0.4)
    # class hierarchy alone
    assert row[2 - 1 + 0] == pytest.approx(0.2)
    assert row[3 - 1 + 0] == pytest.approx(0.4)
    # a success resets d: class 2 falls back from rho = 4 to rho = 1
    row = _row(1.0, 0.01, 5)
    assert row[2 - 1 + 3] == pytest.approx(0.16)
    assert row[2 - 1 + 0] == pytest.approx(0.02)


def test_cap_at_one():
    assert _row(1.0, 0.5, 11)[10] == 1.0
    assert _row(5.0, 1.0, 1)[0] == 1.0
    # a capped probability stays a probability
    assert _row(4.0, 0.9, 51)[50] == 1.0


def test_overflowing_escalation_is_capped():
    # 6.0 ** 397 exceeds the largest float
    assert _row(5.0, 0.1, 398)[397] == 1.0
    assert _row(0.5, 1e-6, 10_001)[10_000] == 1.0
    tiny = _row(5.0, 1e-300, 397)
    for rho in range(397):
        assert tiny[rho] == min(1.0, (1.0 + 5.0) ** rho * 1e-300)


def test_argument_validation():
    # a bad cell raises, even where the table has no column to fill
    for bad, key in (((1.0, 0.0), "p_inl"), ((1.0, 1.5), "p_inl"), ((1.0, math.nan), "p_inl"),
                     ((0.0, 0.1), "alpha"), ((-1.0, 0.1), "alpha"),
                     ((math.nan, 0.1), "alpha"), ((math.inf, 0.1), "alpha")):
        for n_rho in (0, 5):
            with pytest.raises(ValueError, match=key):
                escalation_table([(1.0, 0.1), bad], n_rho)


@given(alpha=st.floats(0.01, 10.0), p_inl=st.floats(0.001, 1.0))
def test_probability_bounds_and_monotonicity(alpha, p_inl):
    row = _row(alpha, p_inl, 41)
    assert np.all((0.0 < row) & (row <= 1.0))
    assert np.all(np.diff(row) >= 0.0)
    assert np.array_equal(row, [escalated_probability(rho, alpha, p_inl)
                                for rho in range(41)])


@given(cells=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10)),
                     min_size=1, max_size=20),
       alpha=st.floats(0.01, 10.0), p_inl=st.floats(0.001, 1.0))
def test_equivalent_cells_share_probability(cells, alpha, p_inl):
    # devices of equal q - 1 + d form one contention group at its probability
    q, d = (np.array(col) for col in zip(*cells))
    ids, counts, probs = _group_actives(np.arange(len(cells)), q, d,
                                        _row(alpha, p_inl, 15))
    members = np.split(ids, np.cumsum(counts)[:-1])
    assert sorted(int(m) for grp in members for m in grp) == list(range(len(cells)))
    group_rho = []
    for grp, n, p in zip(members, counts, probs):
        rho = {int(q[m] - 1 + d[m]) for m in grp}
        assert len(grp) == n and len(rho) == 1
        group_rho.append(rho.pop())
        assert p == escalated_probability(group_rho[-1], alpha, p_inl)
    assert group_rho == sorted(set(group_rho))
