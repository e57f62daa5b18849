"""Closed-form contention model for the slotted p-persistent access period.

Slot-level success/collision probabilities, expected collisions and idle
time per successful contention, the expected contention-period duration,
per-class success shares, and the large-population asymptotic form of the
contention duration together with its Hessian.

Products of many (1 - p) factors are evaluated in log space so mixtures
with thousands of devices do not underflow.  The single-transmitter
probability includes the p factor of each candidate transmitter (the
probabilistically correct form, cross-checked against exhaustive
enumeration in the test suite).
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class CopExpectation:
    """Expected per-success contention cost and total contention duration."""

    e_attempt_us: float
    e_tcop_us: float


def slot_law(probs, counts) -> tuple[float, float, list[float]]:
    """Law of a slot in which each of ``counts[i]`` devices transmits with
    probability ``probs[i]``: P(idle) = prod (1-p)^n, P(busy) without
    cancellation, and per entry the lone-transmitter term
    n*p*(1-p)^(n-1) * prod_other (1-p)^n, whose sum is P(success).

    A zero count adds nothing.  An entry with p = 1 keeps every slot busy
    and has a lone transmitter only as the single such device.  The
    planner's closed forms and the simulator's slot engine both use it.
    """
    log_stay = [math.log1p(-p) if p < 1.0 else 0.0 for p in probs]
    log_sum, zeros = 0.0, 0
    for p, n, stay in zip(probs, counts, log_stay):
        if n > 0 and p >= 1.0:
            zeros += 1
        elif n > 0:
            log_sum += n * stay
    terms = []
    for p, n, stay in zip(probs, counts, log_stay):
        lone = n > 0 and (zeros == 0 or zeros == 1 and n == 1 and p >= 1.0)
        terms.append(n * p * math.exp(log_sum - stay) if lone else 0.0)
    if zeros:
        return 0.0, 1.0, terms
    return math.exp(log_sum), -math.expm1(log_sum), terms


def _mixture_law(mix: ContentionMixture) -> tuple[float, float, list[float]]:
    return slot_law([p for p, _ in mix.entries], [n for _, n in mix.entries])


def prob_no_transmission(mix: ContentionMixture) -> float:
    """P(no device transmits in a slot) = prod (1 - p)^n."""
    return _mixture_law(mix)[0]


def prob_single_transmission(mix: ContentionMixture) -> float:
    """Unconditional P(exactly one device transmits in a slot)."""
    return sum(_mixture_law(mix)[2])


def prob_success_given_busy(mix: ContentionMixture) -> float:
    """P(exactly one transmitter | at least one transmitter)."""
    _, busy, terms = _mixture_law(mix)
    if busy <= 0.0:
        raise DegenerateMixtureError("no device can transmit in this mixture")
    return min(1.0, sum(terms) / busy)


def expected_collisions(mix: ContentionMixture) -> float:
    """Mean number of collisions preceding one successful contention."""
    p_succ = prob_success_given_busy(mix)
    if p_succ <= 0.0:
        raise DivergentExpectationError(
            "success probability is zero; collisions never terminate")
    return 1.0 / p_succ - 1.0


def expected_idle(mix: ContentionMixture, delta_idle_us: float) -> float:
    """Mean idle time preceding one busy slot."""
    p_idle, busy, _ = _mixture_law(mix)
    if busy <= 0.0:
        raise DegenerateMixtureError("channel can never become busy")
    return delta_idle_us * p_idle / busy


def expected_tcop(m: int, mix: ContentionMixture, tc: TimingConstants) -> CopExpectation:
    """Expected contention-period duration for m successful contentions."""
    if m < 0:
        raise ValueError("number of successes must be nonnegative")
    if m == 0:
        return CopExpectation(0.0, 0.0)
    e_nc = expected_collisions(mix)
    e_idle = expected_idle(mix, tc.delta_idle_us)
    e_attempt = (e_nc + 1.0) * e_idle + e_nc * tc.delta_coll_us + tc.delta_succ_us
    return CopExpectation(e_attempt_us=e_attempt, e_tcop_us=m * e_attempt)


def success_shares(terms: list[float]) -> list[float]:
    """Probability that each entry owns the lone transmitter, given a
    successful slot, from the entries' lone-transmitter terms (`slot_law`)."""
    total = sum(terms)
    if total <= 0.0:
        raise DegenerateMixtureError("no entry can produce a lone transmitter")
    return [t / total for t in terms]


# Row-wise forms for a batch of mixtures: one mixture per row of two equally
# shaped (contending probability, device count) arrays, where a zero count
# marks an absent entry.  They repeat the scalar arithmetic above step by
# step and add along a row from left to right, as the scalar sums do, so
# they differ from the scalar forms only by the last-digit differences
# between numpy's and the math module's exp, expm1 and log1p.

def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis, strictly left to right."""
    return np.add.accumulate(x, axis=-1)[..., -1]


def _lone_transmitter_rows(prob: np.ndarray, counts: np.ndarray):
    """Row-wise `slot_law`: returns (terms, p_idle, p_busy)."""
    present = counts > 0
    certain = present & (prob >= 1.0)
    zeros = certain.sum(axis=-1)[..., None]
    log_stay = np.log1p(-prob, out=np.zeros_like(prob), where=prob < 1.0)
    log_sum = ordered_sum(counts * log_stay)
    lone_log = np.where(certain, log_sum[..., None], log_sum[..., None] - log_stay)
    alone = np.where(certain, (counts == 1.0) & (zeros == 1), zeros == 0)
    terms = np.where(present & alone, counts * prob * np.exp(lone_log), 0.0)
    uncapped = zeros[..., 0] == 0
    p_idle = np.where(uncapped, np.exp(log_sum), 0.0)
    p_busy = np.where(uncapped, -np.expm1(log_sum), 1.0)
    return terms, p_idle, p_busy


def expected_attempt_rows(prob: np.ndarray, counts: np.ndarray,
                          tc: TimingConstants):
    """Row-wise ``expected_tcop(1, mix, tc).e_attempt_us``.

    Returns (e_attempt_us, terms): the cost is nan where the scalar form
    raises `DegenerateMixtureError` or `DivergentExpectationError`; terms
    are the lone-transmitter terms that `success_shares` normalizes.
    """
    terms, p_idle, p_busy = _lone_transmitter_rows(prob, counts)
    p_lone = ordered_sum(terms)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_succ = np.minimum(1.0, p_lone / p_busy)
        e_nc = 1.0 / p_succ - 1.0
        e_idle = tc.delta_idle_us * p_idle / p_busy
        e_attempt = (e_nc + 1.0) * e_idle + e_nc * tc.delta_coll_us + tc.delta_succ_us
    undefined = (p_busy <= 0.0) | (p_succ <= 0.0)
    return np.where(undefined, np.nan, e_attempt), terms


# Large-population asymptotics: every active device is mapped onto one
# effective contending probability x = (1 + alpha) * p_inl over l_total
# devices.  Values grow like (1 - x)^(-l_total), so the evaluation runs
# in arbitrary precision and only the final cast may overflow to inf.

_ASYM_DPS = 60


def _asym_attempt_mp(alpha, p_inl, l_total, tc: TimingConstants):
    x = (mp.mpf(1) + mp.mpf(alpha)) * mp.mpf(p_inl)
    if x > 1:
        raise ValueError("(1 + alpha) * p_inl must not exceed one")
    if x >= 1:
        raise DivergentExpectationError("effective probability one never succeeds")
    big_l = mp.mpf(l_total)
    inv_lx = 1 / (big_l * x)
    v = inv_lx * (1 - x) ** (-(big_l - 1))
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
    if l_total < 1:
        raise ValueError("population must be at least one device")
    with mp.workdps(_ASYM_DPS):
        val = m * _asym_attempt_mp(alpha, p_inl, l_total, tc)
        try:
            return float(val)
        except OverflowError:
            return math.inf


def _hessian_mp(m, alpha, p_inl, l_total, tc: TimingConstants):
    """Analytic Hessian of the asymptotic contention duration with
    respect to (m, p_inl, alpha), as an mpmath matrix."""
    one = mp.mpf(1)
    a = mp.mpf(alpha)
    p = mp.mpf(p_inl)
    big_l = mp.mpf(l_total)
    d_i = mp.mpf(tc.delta_idle_us)
    d_c = mp.mpf(tc.delta_coll_us)
    x = (one + a) * p
    if x > 1:
        raise ValueError("(1 + alpha) * p_inl must not exceed one")
    if x >= 1:
        raise DivergentExpectationError("effective probability one never succeeds")
    v = (big_l * x) ** -1 * (1 - x) ** (-(big_l - 1))
    c1 = (big_l - 1) / (1 - x) - 1 / x
    # first and second derivatives of the per-success cost with respect to x
    h1 = -d_i / (big_l * x ** 2) + d_c * (v * c1 + 1 / (big_l * x ** 2))
    h2 = (2 * d_i / (big_l * x ** 3)
          + d_c * (v * (c1 ** 2 + (big_l - 1) / (1 - x) ** 2 + 1 / x ** 2)
                   - 2 / (big_l * x ** 3)))
    big_m = mp.mpf(m)
    hess = mp.matrix(3, 3)
    hess[0, 0] = mp.mpf(0)
    hess[0, 1] = hess[1, 0] = h1 * (one + a)
    hess[0, 2] = hess[2, 0] = h1 * p
    hess[1, 1] = big_m * h2 * (one + a) ** 2
    hess[2, 2] = big_m * h2 * p ** 2
    hess[1, 2] = hess[2, 1] = big_m * (h2 * p * (one + a) + h1)
    return hess


def tcop_hessian(m: int, alpha: float, p_inl: float, l_total: int,
                 tc: TimingConstants, normalize: bool = False) -> np.ndarray:
    """Hessian of asymptotic_tcop in the axis order (m, p_inl, alpha).

    With normalize=True the matrix is divided by its trace before the
    cast to float, which keeps the entries representable even where the
    raw values overflow double precision.
    """
    with mp.workdps(_ASYM_DPS):
        hess = _hessian_mp(m, alpha, p_inl, l_total, tc)
        if normalize:
            trace = hess[0, 0] + hess[1, 1] + hess[2, 2]
            if trace > 0:
                hess = hess / trace
        out = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                try:
                    out[i, j] = float(hess[i, j])
                except OverflowError:
                    out[i, j] = math.copysign(math.inf, 1 if hess[i, j] > 0 else -1)
    return out
