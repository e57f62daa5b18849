import pytest
from hypothesis import given
from hypothesis import strategies as st

from hymac.priority import (
    ContentionIdentity,
    contending_probability,
    escalated_probability,
    reset_after_success,
    virtual_class,
)


def test_virtual_class_merges_hierarchy_and_escalation():
    # a fresh class-3 device and a class-1 device with two failures
    # contend with the same probability
    assert virtual_class(3, 0) == virtual_class(1, 2) == 2
    assert virtual_class(1, 0) == 0


def test_escalation_examples():
    # one failure doubles the probability at alpha = 1
    assert contending_probability(1, 0, 1.0, 0.1) == pytest.approx(0.1)
    assert contending_probability(1, 1, 1.0, 0.1) == pytest.approx(0.2)
    assert contending_probability(1, 2, 1.0, 0.1) == pytest.approx(0.4)
    # class hierarchy alone
    assert contending_probability(2, 0, 1.0, 0.1) == pytest.approx(0.2)
    assert contending_probability(3, 0, 1.0, 0.1) == pytest.approx(0.4)


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
        escalated_probability(-1, 1.0, 0.1)
    with pytest.raises(ValueError):
        contending_probability(0, 0, 1.0, 0.1)


def test_identity_reset():
    ident = ContentionIdentity(q=2, d=3)
    assert ident.virtual_class == 4
    fresh = reset_after_success(ident)
    assert fresh.q == 2 and fresh.d == 0 and fresh.virtual_class == 1


@given(rho=st.integers(0, 40), alpha=st.floats(0.01, 10.0),
       p_inl=st.floats(0.001, 1.0))
def test_probability_bounds_and_monotonicity(rho, alpha, p_inl):
    p = escalated_probability(rho, alpha, p_inl)
    assert 0.0 < p <= 1.0
    assert p >= escalated_probability(max(0, rho - 1), alpha, p_inl)


@given(q=st.integers(1, 5), d=st.integers(0, 10), alpha=st.floats(0.01, 10.0),
       p_inl=st.floats(0.001, 1.0))
def test_equivalent_cells_share_probability(q, d, alpha, p_inl):
    rho = virtual_class(q, d)
    assert contending_probability(q, d, alpha, p_inl) == \
        escalated_probability(rho, alpha, p_inl)
