"""Closed-form contention model for the slotted p-persistent access period.

Slot-level success/collision probabilities, expected collisions and idle
time per successful contention, the expected contention-period duration,
per-class success shares, and the Hessian of the large-population
asymptotic form of the contention duration.

The slot law and the cost of one success have one implementation each,
row-wise over a batch of mixtures (`slot_law_rows`, `_attempt_rows` and
its priced form `expected_tcop`), for the planner's cells.  There are no
scalar forms: a mixture priced alone is a one-row call and gets the same
bits as in a batch.

Products of many (1 - p) factors are evaluated in log space so mixtures
with thousands of devices do not underflow.  The single-transmitter
probability includes the p factor of each candidate transmitter (the
probabilistically correct form, cross-checked against exhaustive
enumeration in the test suite).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .domain import TimingConstants


class DegenerateMixtureError(ValueError):
    """No device can ever transmit (or the channel can never be busy)."""


class DivergentExpectationError(ArithmeticError):
    """A success is impossible, so waiting times have no finite mean."""


def ordered_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along ``axis``, strictly in order; 0.0 over an empty axis."""
    axis %= x.ndim
    if x.size <= 32 * x.shape[axis]:  # few sums: accumulate each
        if x.shape[axis] == 0:
            return np.zeros(x.shape[:axis] + x.shape[axis + 1:])
        return np.add.accumulate(x, axis=axis)[(slice(None),) * axis + (-1, ...)]
    # many: a step at a time for all of them, over a contiguous copy with
    # ``axis`` first, from -0.0, which changes no sum, nor a zero's sign
    x = x.transpose((axis, *range(axis), *range(axis + 1, x.ndim)))
    return np.add.reduce(np.ascontiguousarray(x), axis=0, initial=-0.0)


def slot_law_rows(prob: np.ndarray, counts: np.ndarray, axis: int = -1):
    """Law of a slot for mixtures given as rows of two arrays (1-D arrays
    are one mixture), or with ``axis`` = 0 as columns; ``prob`` may be
    broadcast against ``counts``: each of ``counts[i]`` devices transmits
    with probability ``prob[i]``.  Returns per mixture P(idle) =
    prod (1-p)^n, P(busy) without cancellation, and per entry the
    lone-transmitter term n*p*(1-p)^(n-1) * prod_other (1-p)^n, whose sum
    is P(success).  A zero count adds nothing.  An entry with p = 1 keeps
    every slot busy and has a lone transmitter only as the single such
    device."""
    beside = (None,) if axis == 0 else (..., None)  # a mixture's value by its entries
    log_stay = np.log1p(-prob * (prob < 1.0))  # 0 where p = 1
    log_idle = ordered_sum(counts * log_stay, axis)
    terms = counts * prob * np.exp(log_idle[beside] - log_stay)
    sure = prob >= 1.0
    if np.count_nonzero(sure):  # mixtures with a p = 1 device are never idle
        certain = (counts > 0) & sure
        zeros = certain.sum(axis=axis)
        terms = terms * np.where(certain, (counts == 1.0) & (zeros == 1)[beside],
                                 (zeros == 0)[beside])
        log_idle = np.where(zeros > 0, -np.inf, log_idle)
    return np.exp(log_idle), -np.expm1(log_idle), terms


# The wait for one successful contention: P(busy), P(success | busy), the
# mean collisions and idle time before the success, and its mean cost (us).
_Wait = namedtuple("_Wait", "p_busy p_succ e_nc e_idle e_attempt")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _attempt_rows(prob: np.ndarray, counts: np.ndarray, delta_idle_us: float,
                  delta_coll_us: float = 0.0, delta_succ_us: float = 0.0):
    """(`_Wait`, lone-transmitter terms) of each row's mixture, with idle
    slots of ``delta_idle_us``, collisions of ``delta_coll_us`` and the
    success of ``delta_succ_us``.  Where the channel is never busy or
    never succeeds, the waits hold whatever the divisions give."""
    p_idle, p_busy, terms = slot_law_rows(prob, counts)
    p_succ = np.minimum(1.0, ordered_sum(terms) / p_busy)
    e_nc = 1.0 / p_succ - 1.0
    e_idle = delta_idle_us * p_idle / p_busy
    e_attempt = (e_nc + 1.0) * e_idle + e_nc * delta_coll_us + delta_succ_us
    return _Wait(p_busy, p_succ, e_nc, e_idle, e_attempt), terms


def expected_tcop(prob: np.ndarray, counts: np.ndarray, tc: TimingConstants):
    """Row-wise expected cost (us) of one successful contention, and the
    lone-transmitter terms.  The cost is nan where the channel is never
    busy or never succeeds; m successes take m times it on average."""
    wait, terms = _attempt_rows(prob, counts, tc.delta_idle_us,
                                tc.delta_coll_us, tc.delta_succ_us)
    undefined = (wait.p_busy <= 0.0) | (wait.p_succ <= 0.0)
    return np.where(undefined, np.nan, wait.e_attempt), terms


def success_shares(terms: list[float]) -> list[float]:
    """Probability that each entry owns the lone transmitter, given a
    successful slot, from the entries' lone-transmitter terms (`slot_law_rows`)."""
    total = sum(terms)
    if total <= 0.0:
        raise DegenerateMixtureError("no entry can produce a lone transmitter")
    return [t / total for t in terms]


# Large-population asymptotics: every active device is mapped onto one
# effective contending probability x = (1 + alpha) * p_inl over l_total
# devices.  Values grow like (1 - x)^(-l_total), so the evaluation runs
# in arbitrary precision and only the final cast may overflow to inf.
# mpmath is imported inside the functions that use it, so importing hymac
# (and every `hymac run`) does not load it.

_ASYM_DPS = 60


def _asym_mp(alpha, p_inl, l_total):
    """The checked arguments of the asymptotic forms, in arbitrary
    precision: x = (1 + alpha) * p_inl, L = l_total, 1 / (L x) and
    v = (L x)^-1 (1 - x)^-(L-1)."""
    import mpmath as mp

    if l_total < 1:
        raise ValueError("population must be at least one device")
    x = (mp.mpf(1) + mp.mpf(alpha)) * mp.mpf(p_inl)
    if x > 1:
        raise ValueError("(1 + alpha) * p_inl must not exceed one")
    if x >= 1:
        raise DivergentExpectationError("effective probability one never succeeds")
    big_l = mp.mpf(l_total)
    inv_lx = 1 / (big_l * x)
    return x, big_l, inv_lx, inv_lx * (1 - x) ** (-(big_l - 1))


def _to_float(val) -> float:
    """An mpmath value as a float; beyond double range, a signed inf."""
    try:
        return float(val)
    except OverflowError:
        return math.inf if val > 0 else -math.inf


def _hessian_mp(m, alpha, p_inl, l_total, tc: TimingConstants):
    """Analytic Hessian of the asymptotic contention duration with
    respect to (m, p_inl, alpha), as an mpmath matrix."""
    import mpmath as mp

    x, big_l, _, v = _asym_mp(alpha, p_inl, l_total)
    rise = 1 + mp.mpf(alpha)  # dx / dp_inl
    p = mp.mpf(p_inl)
    d_i, d_c = mp.mpf(tc.delta_idle_us), mp.mpf(tc.delta_coll_us)
    c1 = (big_l - 1) / (1 - x) - 1 / x
    # first and second derivatives of the per-success cost with respect to x
    h1 = -d_i / (big_l * x ** 2) + d_c * (v * c1 + 1 / (big_l * x ** 2))
    h2 = (2 * d_i / (big_l * x ** 3)
          + d_c * (v * (c1 ** 2 + (big_l - 1) / (1 - x) ** 2 + 1 / x ** 2)
                   - 2 / (big_l * x ** 3)))
    big_m = mp.mpf(m)
    hess = mp.matrix(3, 3)  # zeros, so hess[0, 0] = 0
    hess[0, 1] = hess[1, 0] = h1 * rise
    hess[0, 2] = hess[2, 0] = h1 * p
    hess[1, 1] = big_m * h2 * rise ** 2
    hess[2, 2] = big_m * h2 * p ** 2
    hess[1, 2] = hess[2, 1] = big_m * (h2 * p * rise + h1)
    return hess


def tcop_hessian(m: int, alpha: float, p_inl: float, l_total: int,
                 tc: TimingConstants, normalize: bool = False) -> np.ndarray:
    """Hessian of the asymptotic contention duration for m successes,
    m times the per-success cost, in the axis order (m, p_inl, alpha).

    With normalize=True the matrix is divided by its trace before the
    cast to float, which keeps the entries representable even where the
    raw values overflow double precision.
    """
    if m < 0:
        raise ValueError("number of successes must be nonnegative")
    import mpmath as mp

    with mp.workdps(_ASYM_DPS):
        hess = _hessian_mp(m, alpha, p_inl, l_total, tc)
        if normalize:
            trace = hess[0, 0] + hess[1, 1] + hess[2, 2]
            if trace > 0:
                hess = hess / trace
        return np.array([[_to_float(hess[i, j]) for j in range(3)] for i in range(3)])
