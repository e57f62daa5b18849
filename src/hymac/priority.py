"""Hierarchical and incremental contending-probability rules.

A device of class q that lost contention in d consecutive frames sits in
virtual class rho = q + d - 1 and contends with probability
min(1, (1 + alpha)^rho * p_inl).  The cap is a min, not the printed max:
probabilities cannot exceed one, and preliminary class probabilities must
stay ordered p_1 < p_2 < ... < p_Q below the cap.
"""

from __future__ import annotations

import math

import numpy as np


def _powers(base: float, n: int) -> list[float]:
    """``base ** rho`` for rho < n as Python computes it, inf once it
    overflows (from then on every power does, as base > 1)."""
    out = []
    for rho in range(n):
        try:
            out.append(base ** rho)
        except OverflowError:  # e.g. alpha = 5 from rho = 397
            return out + [math.inf] * (n - rho)
    return out


def escalation_table(cells: list, n_rho: int) -> np.ndarray:
    """The contending probability of every (alpha, p_inl) cell (rows) and
    virtual class rho < n_rho (columns), from one Python
    ``(1 + alpha) ** rho`` per distinct alpha and rho.  Not `np.power`:
    it differs from Python's ``**`` in the last bit for some arguments
    (34,916 entries of a 9,000-cell by 420 table under numpy 2.4.6).
    A cell needs a finite alpha > 0 and p_inl in (0, 1]."""
    row: dict[float, int] = {}  # each distinct alpha's row of powers
    for a, p in cells:
        if not 0.0 < p <= 1.0:  # nan too
            raise ValueError(f"p_inl must lie in (0, 1], got {p!r}")
        if not 0.0 < a < math.inf:
            raise ValueError(f"alpha must be finite and strictly positive, got {a!r}")
        row.setdefault(a, len(row))
    scale = np.array([_powers(1.0 + a, n_rho) for a in row]).reshape(len(row), n_rho)
    p_inl = np.array([p for _, p in cells], dtype=float)
    scaled = scale[np.array([row[a] for a, _ in cells], dtype=np.intp)] * p_inl[:, None]
    return np.minimum(1.0, scaled)
