"""The race's gap laws in the row layout, one row of group counts per
winner.

This is the form `hymac.simulator._gap_laws` replaced, which lays the
counts out (group, winner); the tests keep it as the reference that the
new laws must match bit for bit after the first success (the law of the
first gap is held to `slot_law_rows` and the exact pmf).  It shares
`slot_law_rows`, the one slot law, and `ordered_sum`, the one order of a
sum over groups, with the package.
"""

from __future__ import annotations

import numpy as np

from hymac.analytics import ordered_sum, slot_law_rows
from hymac.simulator import _Gaps


def _left_after(counts: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The group counts left after each winner of ``groups`` in turn, one
    row per winner."""
    won = np.zeros((len(groups), len(counts)), dtype=np.int64)
    won[np.arange(len(groups)), groups] = 1
    return counts - np.cumsum(won, axis=0)


def _row_slot_laws(probs: np.ndarray, rows: np.ndarray):
    """(P(idle), P(success), P(collision)) of each row of group counts:
    P(success) sums the lone-transmitter terms, at most P(busy); a lone
    contender cannot collide."""
    p_idle, p_busy, terms = slot_law_rows(probs, rows)
    p_lone = np.minimum(ordered_sum(terms), p_busy)
    return p_idle, p_lone, np.where(rows.sum(axis=-1) > 1, p_busy - p_lone, 0.0)


def _race_laws(probs: np.ndarray, rows: np.ndarray) -> _Gaps:
    """`_Gaps` of each row of group counts (`_row_slot_laws`): P(success) of
    a slot, P(idle | no success) and the mean transmitters of a collision,
    E[X; X >= 2] / P(collision) with E[X; X >= 2] = E[X] - P(success)."""
    p_idle, p_lone, p_coll = _row_slot_laws(probs, rows)
    hit = ordered_sum(rows * probs) - p_lone
    return _Gaps(p_lone, p_idle / (p_idle + p_coll), hit / np.where(p_coll > 0.0, p_coll, np.inf))
