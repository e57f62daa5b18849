"""Hierarchical and incremental contending-probability rules.

A device of class q that lost contention in d consecutive frames sits in
virtual class rho = q + d - 1 and contends with probability
min(1, (1 + alpha)^rho * p_inl).  The cap is a min, not the printed max:
probabilities cannot exceed one, and preliminary class probabilities must
stay ordered p_1 < p_2 < ... < p_Q below the cap.
"""

from __future__ import annotations


def escalated_probability(rho: int, alpha: float, p_inl: float) -> float:
    """Contending probability of virtual class rho, capped at one."""
    if not 0.0 < p_inl <= 1.0:
        raise ValueError("p_inl must lie in (0, 1]")
    if not alpha > 0:  # nan too
        raise ValueError("alpha must be strictly positive")
    if rho < 0:
        raise ValueError("virtual class must be >= 0")
    try:
        scale = (1.0 + alpha) ** rho
    except OverflowError:  # far above the cap, e.g. alpha = 5 from rho = 397
        return 1.0
    return min(1.0, scale * p_inl)
