"""Closed-form contention model for the slotted p-persistent access period.

Slot-level success/collision probabilities, expected collisions and idle
time per successful contention, the expected contention-period duration,
per-class success shares, and the large-population asymptotic form of the
contention duration together with its Hessian.

The slot law and the cost of one success have one implementation each,
row-wise over a batch of mixtures (`slot_law_rows`, `_attempt_rows`), for
the planner's cells.  Every scalar form is a one-row call of them, so a
mixture priced alone gets the same bits as in a batch.

Products of many (1 - p) factors are evaluated in log space so mixtures
with thousands of devices do not underflow.  The single-transmitter
probability includes the p factor of each candidate transmitter (the
probabilistically correct form, cross-checked against exhaustive
enumeration in the test suite).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .domain import TimingConstants


class DegenerateMixtureError(ValueError):
    """No device can ever transmit (or the channel can never be busy)."""


class DivergentExpectationError(ArithmeticError):
    """A success is impossible, so waiting times have no finite mean."""


@dataclass(frozen=True)
class ContentionMixture:
    """Occupied virtual classes: (contending probability, device count).

    Counts may be fractional; the optimizer propagates expected values.
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ent = []
        for p, n in self.entries:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"contending probability {p} outside (0, 1]")
            if n < 0:
                raise ValueError("device count must be nonnegative")
            if n > 0:
                ent.append((float(p), float(n)))
        object.__setattr__(self, "entries", tuple(ent))

    def row(self) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, counts): the mixture as one row for the row forms."""
        pairs = np.array(self.entries, dtype=float).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]


@dataclass(frozen=True)
class CopExpectation:
    """Expected per-success contention cost and total contention duration."""

    e_attempt_us: float
    e_tcop_us: float


def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis, strictly left to right; 0.0 over an empty axis."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.add.accumulate(x, axis=-1)[..., -1]


def slot_law_rows(prob: np.ndarray, counts: np.ndarray):
    """Law of a slot for mixtures given as rows of two equally shaped
    arrays (1-D arrays are one mixture): each of ``counts[i]`` devices
    transmits with probability ``prob[i]``.  Returns per row P(idle) =
    prod (1-p)^n, P(busy) without cancellation, and per entry the
    lone-transmitter term n*p*(1-p)^(n-1) * prod_other (1-p)^n, whose sum
    is P(success).  A zero count adds nothing.  An entry with p = 1 keeps
    every slot busy and has a lone transmitter only as the single such
    device."""
    log_stay = np.log1p(-prob * (prob < 1.0))  # 0 where p = 1
    log_idle = ordered_sum(counts * log_stay)
    terms = counts * prob * np.exp(log_idle[..., None] - log_stay)
    certain = (counts > 0) & (prob >= 1.0)
    if certain.any():  # rows with a p = 1 device are never idle
        zeros = certain.sum(axis=-1)
        terms = terms * np.where(certain, (counts == 1.0) & (zeros == 1)[..., None],
                                 (zeros == 0)[..., None])
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


def expected_attempt_rows(prob: np.ndarray, counts: np.ndarray,
                          tc: TimingConstants):
    """Row-wise ``expected_tcop(1, mix, tc).e_attempt_us`` and the
    lone-transmitter terms; the cost is nan where `expected_tcop` raises."""
    wait, terms = _attempt_rows(prob, counts, tc.delta_idle_us,
                                tc.delta_coll_us, tc.delta_succ_us)
    undefined = (wait.p_busy <= 0.0) | (wait.p_succ <= 0.0)
    return np.where(undefined, np.nan, wait.e_attempt), terms


def _wait(mix: ContentionMixture, delta_idle_us: float = 0.0,
          delta_coll_us: float = 0.0, delta_succ_us: float = 0.0,
          divergent: bool = True) -> _Wait:
    """`_attempt_rows` of one mixture, as floats.  Raises
    `DegenerateMixtureError` where the channel is never busy and, with
    ``divergent``, `DivergentExpectationError` where it never succeeds."""
    rows, _ = _attempt_rows(*mix.row(), delta_idle_us, delta_coll_us, delta_succ_us)
    wait = _Wait(*map(float, rows))
    if wait.p_busy <= 0.0:
        raise DegenerateMixtureError("no device can transmit in this mixture")
    if divergent and wait.p_succ <= 0.0:
        raise DivergentExpectationError(
            "success probability is zero; collisions never terminate")
    return wait


def prob_no_transmission(mix: ContentionMixture) -> float:
    """P(no device transmits in a slot) = prod (1 - p)^n."""
    return float(slot_law_rows(*mix.row())[0])


def prob_single_transmission(mix: ContentionMixture) -> float:
    """Unconditional P(exactly one device transmits in a slot)."""
    return float(ordered_sum(slot_law_rows(*mix.row())[2]))


def prob_success_given_busy(mix: ContentionMixture) -> float:
    """P(exactly one transmitter | at least one transmitter)."""
    return _wait(mix, divergent=False).p_succ


def expected_collisions(mix: ContentionMixture) -> float:
    """Mean number of collisions preceding one successful contention."""
    return _wait(mix).e_nc


def expected_idle(mix: ContentionMixture, delta_idle_us: float) -> float:
    """Mean idle time preceding one busy slot."""
    return _wait(mix, delta_idle_us, divergent=False).e_idle


def expected_tcop(m: int, mix: ContentionMixture, tc: TimingConstants) -> CopExpectation:
    """Expected contention-period duration for m successful contentions."""
    if m < 0:
        raise ValueError("number of successes must be nonnegative")
    if m == 0:
        return CopExpectation(0.0, 0.0)
    e_attempt = _wait(mix, tc.delta_idle_us, tc.delta_coll_us, tc.delta_succ_us).e_attempt
    return CopExpectation(e_attempt_us=e_attempt, e_tcop_us=m * e_attempt)


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

_ASYM_DPS = 60


def _asym_mp(alpha, p_inl, l_total):
    """The checked arguments of the asymptotic forms, in arbitrary
    precision: x = (1 + alpha) * p_inl, L = l_total, 1 / (L x) and
    v = (L x)^-1 (1 - x)^-(L-1)."""
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


def _asym_attempt_mp(alpha, p_inl, l_total, tc: TimingConstants):
    _, _, inv_lx, v = _asym_mp(alpha, p_inl, l_total)
    return (tc.delta_idle_us * inv_lx
            + tc.delta_coll_us * (v - inv_lx - 1)
            + tc.delta_succ_us)


def asymptotic_tcop(m: int, alpha: float, p_inl: float, l_total: int,
                    tc: TimingConstants) -> float:
    """Asymptotic expected contention duration for m successes (us)."""
    if m < 0:
        raise ValueError("number of successes must be nonnegative")
    if m == 0:
        return 0.0
    with mp.workdps(_ASYM_DPS):
        return _to_float(m * _asym_attempt_mp(alpha, p_inl, l_total, tc))


def _hessian_mp(m, alpha, p_inl, l_total, tc: TimingConstants):
    """Analytic Hessian of the asymptotic contention duration with
    respect to (m, p_inl, alpha), as an mpmath matrix."""
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
    """Hessian of asymptotic_tcop in the axis order (m, p_inl, alpha).

    With normalize=True the matrix is divided by its trace before the
    cast to float, which keeps the entries representable even where the
    raw values overflow double precision.
    """
    if m < 0:
        raise ValueError("number of successes must be nonnegative")
    with mp.workdps(_ASYM_DPS):
        hess = _hessian_mp(m, alpha, p_inl, l_total, tc)
        if normalize:
            trace = hess[0, 0] + hess[1, 1] + hess[2, 2]
            if trace > 0:
                hess = hess / trace
        return np.array([[_to_float(hess[i, j]) for j in range(3)] for i in range(3)])
