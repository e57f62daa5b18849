import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hymac.priority import escalated_probability
from hymac.simulator import _group_actives


def test_virtual_class_merges_hierarchy_and_escalation():
    # a fresh class-3 device and a class-1 device with two failures
    # contend as one virtual class, rho = q - 1 + d = 2
    q = np.array([3, 1, 1])
    d = np.array([0, 2, 0])
    members, counts, probs = _group_actives(np.arange(3), q, d, 1.0, 0.1)
    assert [m.tolist() for m in members] == [[2], [0, 1]]
    assert counts.tolist() == [1, 2]
    assert probs.tolist() == [escalated_probability(0, 1.0, 0.1),
                              escalated_probability(2, 1.0, 0.1)]


def test_escalation_examples():
    # a class-q device with d failures contends at rho = q - 1 + d;
    # one failure doubles the probability at alpha = 1
    assert escalated_probability(1 - 1 + 0, 1.0, 0.1) == pytest.approx(0.1)
    assert escalated_probability(1 - 1 + 1, 1.0, 0.1) == pytest.approx(0.2)
    assert escalated_probability(1 - 1 + 2, 1.0, 0.1) == pytest.approx(0.4)
    # class hierarchy alone
    assert escalated_probability(2 - 1 + 0, 1.0, 0.1) == pytest.approx(0.2)
    assert escalated_probability(3 - 1 + 0, 1.0, 0.1) == pytest.approx(0.4)
    # a success resets d: class 2 falls back from rho = 4 to rho = 1
    assert escalated_probability(2 - 1 + 3, 1.0, 0.01) == pytest.approx(0.16)
    assert escalated_probability(2 - 1 + 0, 1.0, 0.01) == pytest.approx(0.02)


def test_cap_at_one():
    assert escalated_probability(10, 1.0, 0.5) == 1.0
    assert escalated_probability(0, 5.0, 1.0) == 1.0
    # a capped probability stays a probability
    assert escalated_probability(50, 4.0, 0.9) == 1.0


def test_overflowing_escalation_is_capped():
    # 6.0 ** 397 exceeds the largest float
    assert escalated_probability(397, 5.0, 0.1) == 1.0
    assert escalated_probability(10_000, 0.5, 1e-6) == 1.0
    for rho in range(397):
        assert escalated_probability(rho, 5.0, 1e-300) == \
            min(1.0, (1.0 + 5.0) ** rho * 1e-300)


def test_argument_validation():
    with pytest.raises(ValueError):
        escalated_probability(0, 1.0, 0.0)
    with pytest.raises(ValueError):
        escalated_probability(0, 1.0, 1.5)
    with pytest.raises(ValueError):
        escalated_probability(0, 0.0, 0.1)
    with pytest.raises(ValueError):
        escalated_probability(-1, 1.0, 0.1)  # class 0: q - 1 + d < 0


@given(rho=st.integers(0, 40), alpha=st.floats(0.01, 10.0),
       p_inl=st.floats(0.001, 1.0))
def test_probability_bounds_and_monotonicity(rho, alpha, p_inl):
    p = escalated_probability(rho, alpha, p_inl)
    assert 0.0 < p <= 1.0
    assert p >= escalated_probability(max(0, rho - 1), alpha, p_inl)


@given(cells=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10)),
                     min_size=1, max_size=20),
       alpha=st.floats(0.01, 10.0), p_inl=st.floats(0.001, 1.0))
def test_equivalent_cells_share_probability(cells, alpha, p_inl):
    # devices of equal q - 1 + d form one contention group at its probability
    q, d = (np.array(col) for col in zip(*cells))
    members, counts, probs = _group_actives(np.arange(len(cells)), q, d,
                                            alpha, p_inl)
    assert sorted(int(m) for grp in members for m in grp) == list(range(len(cells)))
    group_rho = []
    for grp, n, p in zip(members, counts, probs):
        rho = {int(q[m] - 1 + d[m]) for m in grp}
        assert len(grp) == n and len(rho) == 1
        group_rho.append(rho.pop())
        assert p == escalated_probability(group_rho[-1], alpha, p_inl)
    assert group_rho == sorted(set(group_rho))
