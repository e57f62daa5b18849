"""Hierarchical and incremental contending-probability rules.

A device of class q that lost contention in d consecutive frames sits in
virtual class rho = q + d - 1 and contends with probability
min(1, (1 + alpha)^rho * p_inl).  The cap is a min, not the printed max:
probabilities cannot exceed one, and preliminary class probabilities must
stay ordered p_1 < p_2 < ... < p_Q below the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ContentionIdentity:
    q: int  # priority class, 1..Q
    d: int = 0  # consecutive frames lost in contention

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("class index must be >= 1")
        if self.d < 0:
            raise ValueError("failure count must be >= 0")

    @property
    def virtual_class(self) -> int:
        return self.q + self.d - 1


def virtual_class(q: int, d: int) -> int:
    return q + d - 1


def escalated_probability(rho: int, alpha: float, p_inl: float) -> float:
    """Contending probability of virtual class rho, capped at one."""
    if not 0.0 < p_inl <= 1.0:
        raise ValueError("p_inl must lie in (0, 1]")
    if alpha <= 0:
        raise ValueError("alpha must be strictly positive")
    if rho < 0:
        raise ValueError("virtual class must be >= 0")
    try:
        scale = (1.0 + alpha) ** rho
    except OverflowError:  # far above the cap, e.g. alpha = 5 from rho = 397
        return 1.0
    return min(1.0, scale * p_inl)


def contending_probability(q: int, d: int, alpha: float, p_inl: float) -> float:
    """Per-slot contending probability of a class-q device with d failures."""
    if q < 1 or d < 0:
        raise ValueError("need q >= 1 and d >= 0")
    return escalated_probability(virtual_class(q, d), alpha, p_inl)


def reset_after_success(identity: ContentionIdentity) -> ContentionIdentity:
    """Return the identity to its preliminary class level after a delivery."""
    return replace(identity, d=0)
