import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hymac import analytics
from hymac.analytics import (
    DivergentExpectationError,
    _attempt_rows,
    expected_tcop,
    ordered_sum,
    slot_law_rows,
    success_shares,
    tcop_hessian,
)
from hymac.domain import TimingConstants
from planner_oracle import expected_new_arrivals

# ---------------------------------------------------------------------------
# independent oracles


def transmitter_distribution(entries):
    """Exact pmf of the number of simultaneous transmitters, via direct
    binomial convolution (independent of the log-space closed forms)."""
    dist = np.array([1.0])
    for p, n in entries:
        pmf = np.array([math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
                        for k in range(n + 1)])
        dist = np.convolve(dist, pmf)
    return dist


def geometric_mean_failures(p_succ):
    """E[failures before first success] by accelerated series summation."""
    with mp.workdps(40):
        p = mp.mpf(p_succ)
        return float(mp.nsum(lambda j: j * (1 - p) ** j * p, [1, mp.inf]))


def mean_idle_series(p0, delta):
    """E[idle time before a busy slot] by accelerated series summation."""
    with mp.workdps(40):
        r = mp.mpf(p0)
        return float(delta * mp.nsum(lambda j: j * r ** j * (1 - r), [1, mp.inf]))


def random_mixtures(count, seed, max_classes=4, max_devices=20):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n_classes = int(rng.integers(1, max_classes + 1))
        sizes = []
        left = max_devices
        for c in range(n_classes):
            hi = max(1, left - (n_classes - c - 1))
            size = int(rng.integers(1, hi + 1))
            sizes.append(size)
            left -= size
        probs = rng.uniform(0.01, 0.99, size=n_classes)
        out.append(tuple(zip(probs.tolist(), sizes)))
    return out


def one_row(entries, delta_idle_us=0.0):
    """A mixture of (probability, count) pairs through the row forms as one
    row: P(no transmitter), P(exactly one transmitter) and the wait for
    one success (`analytics._attempt_rows`, idle slots of
    ``delta_idle_us``), all as floats."""
    prob, counts = np.array(entries, dtype=float).reshape(-1, 2).T
    p_idle, _, terms = slot_law_rows(prob, counts)
    wait, _ = _attempt_rows(prob, counts, delta_idle_us)
    return float(p_idle), float(ordered_sum(terms)), type(wait)(*map(float, wait))


def cost(entries, tc) -> float:
    """`expected_tcop` of one mixture: the mean cost of one success (us)."""
    prob, counts = np.array(entries, dtype=float).reshape(-1, 2).T
    return float(expected_tcop(prob, counts, tc)[0])


# ---------------------------------------------------------------------------
# slot probabilities


def test_single_entry_hand_example():
    p_idle, p_one, _ = one_row(((0.3, 3),))
    assert p_idle == pytest.approx(0.7 ** 3, abs=1e-15)
    assert p_one == pytest.approx(3 * 0.3 * 0.7 ** 2, abs=1e-15)


def test_two_entry_hand_example():
    p_idle, p_one, wait = one_row(((0.3, 3), (0.6, 2)))
    p0 = 0.7 ** 3 * 0.4 ** 2
    p1 = 3 * 0.3 * 0.7 ** 2 * 0.4 ** 2 + 2 * 0.6 * 0.4 * 0.7 ** 3
    assert p_idle == pytest.approx(p0, abs=1e-15)
    assert p_one == pytest.approx(p1, abs=1e-15)
    assert wait.p_succ == pytest.approx(p1 / (1 - p0), abs=1e-14)


def test_enumeration_oracle_sample(tc):
    for entries in random_mixtures(50, seed=421):
        p_idle, p_one, wait = one_row(entries, tc.delta_idle_us)
        dist = transmitter_distribution(entries)
        p0, p1 = float(dist[0]), float(dist[1]) if len(dist) > 1 else 0.0
        assert p_idle == pytest.approx(p0, abs=1e-9)
        assert p_one == pytest.approx(p1, abs=1e-9)
        p_succ = p1 / (1.0 - p0)
        assert wait.p_succ == pytest.approx(p_succ, abs=1e-9)
        assert wait.e_nc == pytest.approx(
            geometric_mean_failures(p_succ), rel=1e-9, abs=1e-9)
        assert wait.e_idle == pytest.approx(
            mean_idle_series(p0, tc.delta_idle_us), rel=1e-9, abs=1e-9)


def test_slot_law_skips_empty_entries():
    # a drained group keeps its place in the simulator's arrays, at count 0
    p_idle, p_busy, terms = slot_law_rows(np.array([0.3, 1.0, 0.6]),
                                          np.array([3.0, 0.0, 2.0]))
    p0, p1, _ = one_row(((0.3, 3), (0.6, 2)))
    assert p_idle == p0
    assert p_busy == pytest.approx(1.0 - p0, abs=1e-15)
    assert terms[1] == 0.0
    assert sum(terms) == p1
    p_idle, p_busy, terms = slot_law_rows(np.array([0.5]), np.array([0.0]))
    assert (p_idle, p_busy, terms.tolist()) == (1.0, 0.0, [0.0])


_probs = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
_counts = st.one_of(st.just(0.0), st.just(1.0), st.integers(0, 2000).map(float),
                    st.floats(0.0, 2000.0))


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(_probs, _counts), max_size=8),
                     min_size=1, max_size=6),
       pad=_probs)
def test_rows_match_one_row_calls(rows, pad):
    """Each row of a batch, padded to the batch width with zero counts,
    against one-row calls on that row alone, bit for bit: the slot law and
    the per-success cost (nan where no success can happen), both with the
    padding and with every zero-count entry dropped.  The batch as the
    columns of (entry, mixture) arrays (``axis=0``) gives the same bits."""
    tc = TimingConstants()
    width = max(len(row) for row in rows)
    padded = [row + [(pad, 0.0)] * (width - len(row)) for row in rows]
    prob = np.array([[p for p, _ in row] for row in padded]).reshape(len(rows), width)
    counts = np.array([[n for _, n in row] for row in padded]).reshape(len(rows), width)
    p_idle, p_busy, terms = slot_law_rows(prob, counts)
    e_attempt, cost_terms = expected_tcop(prob, counts, tc)
    assert np.array_equal(cost_terms, terms)
    by_column = slot_law_rows(prob.T, counts.T, axis=0)
    assert all(map(_same_bits, (p_idle, p_busy, terms), (*by_column[:2], by_column[2].T)))
    for i, row in enumerate(padded):
        idle, busy, row_terms = slot_law_rows(prob[i], counts[i])
        assert (idle, busy, row_terms.tolist()) == (p_idle[i], p_busy[i], terms[i].tolist())
        assert np.array_equal(expected_tcop(prob[i], counts[i], tc)[0], e_attempt[i],
                              equal_nan=True)
        kept = np.array([(p, n) for p, n in row if n > 0]).reshape(-1, 2).T
        idle, _, kept_terms = slot_law_rows(*kept)
        assert (idle, ordered_sum(kept_terms)) == (p_idle[i], ordered_sum(terms[i]))
        assert np.array_equal(expected_tcop(*kept, tc)[0], e_attempt[i], equal_nan=True)


def test_ordered_sum_runs_left_to_right():
    # as Python's sum: each 1e-16 is lost against 1.0 (np.sum pairs them up)
    tiny = np.array([1.0] + [1e-16] * 16)
    assert ordered_sum(tiny) == sum(tiny.tolist()) == 1.0
    assert ordered_sum(np.tile(tiny, (2, 1))).tolist() == [1.0, 1.0]
    assert ordered_sum(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert ordered_sum(np.zeros(0)) == 0.0
    p_idle, p_busy, terms = slot_law_rows(np.zeros(0), np.zeros(0))
    assert (p_idle, p_busy, terms.tolist()) == (1.0, 0.0, [])


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(0, 12), min_size=1, max_size=3), axis=st.integers(0, 2),
       seed=st.integers(0, 2**16))
def test_ordered_sum_is_an_accumulation(shape, axis, seed):
    """Every layout and axis, with few sums (accumulated each) or many (a
    step at a time for all of them), to the bit, with the sign of a zero
    sum: -0.0 only where every entry is -0.0."""
    axis = axis % len(shape)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    x[rng.random(shape) < 0.3] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    want = (np.add.accumulate(x, axis=axis).take(-1, axis=axis) if shape[axis]
            else np.zeros(np.delete(shape, axis)))
    assert _same_bits(ordered_sum(x, axis), want)
    assert _same_bits(ordered_sum(np.asfortranarray(x), axis), want)


def test_probability_conservation():
    for entries in random_mixtures(50, seed=99):
        p0, p1, wait = one_row(entries)
        p_many = (1 - p0) * (1 - wait.p_succ)
        assert p0 + p1 + p_many == pytest.approx(1.0, abs=1e-12)


def test_success_shares_sum_to_one():
    for entries in random_mixtures(50, seed=7):
        prob, counts = np.array(entries).T
        shares = success_shares(slot_law_rows(prob, counts)[2].tolist())
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)
        assert all(s >= 0 for s in shares)


def test_no_underflow_for_large_populations():
    p_idle, _, wait = one_row(((0.1, 50_000.0),))
    assert p_idle == 0.0  # below double-precision range
    # conditional success still well-defined via log-space evaluation
    assert 0.0 <= wait.p_succ <= 1.0


def test_certain_transmitter_edge_cases(tc):
    p_idle, p_one, wait = one_row(((1.0, 1),), 10.0)
    assert (p_idle, p_one, wait.p_succ) == (0.0, 1.0, 1.0)
    assert (wait.e_nc, wait.e_idle) == (0.0, 0.0)

    _, p_one, wait = one_row(((1.0, 2),))
    assert (p_one, wait.p_succ) == (0.0, 0.0)
    # the simulator's view of the same slots: a p = 1 device is never idle
    for n, lone in ((1.0, 1.0), (2.0, 0.0)):
        p_idle, p_busy, terms = slot_law_rows(np.array([1.0]), np.array([n]))
        assert (p_idle, p_busy, terms.tolist()) == (0.0, 1.0, [lone])
    # a p = 1 pair never succeeds: one success has no finite cost
    assert math.isnan(cost(((1.0, 2),), tc))


def test_empty_mixture_is_degenerate(tc):
    for entries in (((0.5, 0.0),), ()):
        p_idle, p_busy, _ = slot_law_rows(*np.array(entries, dtype=float).reshape(-1, 2).T)
        assert (p_idle, p_busy) == (1.0, 0.0)  # never busy
        assert math.isnan(cost(entries, tc))


def test_fractional_counts_accepted(tc):
    p_idle, _, _ = one_row(((0.1, 12.5),))
    assert p_idle == pytest.approx(0.9 ** 12.5, abs=1e-12)
    assert 3 * cost(((0.1, 12.5),), tc) > 0


# ---------------------------------------------------------------------------
# contention-period expectation


def test_expected_tcop_structure(tc):
    _, _, wait = one_row(((0.1, 10),), tc.delta_idle_us)
    attempt = ((wait.e_nc + 1) * wait.e_idle + wait.e_nc * tc.delta_coll_us
               + tc.delta_succ_us)
    assert cost(((0.1, 10),), tc) == pytest.approx(attempt, rel=1e-12)


def test_monte_carlo_slot_frequencies(tc, rng):
    entries = ((0.05, 12), (0.15, 4))
    p_idle, p_one, _ = one_row(entries)
    n_slots = 60_000
    counts = np.array([n for _, n in entries])
    probs = np.array([p for p, _ in entries])
    draws = rng.binomial(counts[:, None], probs[:, None], size=(2, n_slots)).sum(axis=0)
    p0_hat = np.mean(draws == 0)
    p1_hat = np.mean(draws == 1)
    for hat, ref in ((p0_hat, p_idle), (p1_hat, p_one)):
        se = math.sqrt(ref * (1 - ref) / n_slots)
        assert abs(hat - ref) < 3.5 * se


# ---------------------------------------------------------------------------
# arrivals


def test_expected_new_arrivals(tc):
    # lambda = 1/s over a 1 s frame: probability 1 - e^-1 per empty device
    got = expected_new_arrivals(100.0, 1.0, tc.t_frame_us)
    assert got == pytest.approx(100.0 * (1 - math.exp(-1)), rel=1e-12)
    assert expected_new_arrivals(50.0, 0.0, tc.t_frame_us) == 0.0
    with pytest.raises(ValueError):
        expected_new_arrivals(-1.0, 1.0, tc.t_frame_us)
    with pytest.raises(ValueError):
        expected_new_arrivals(1.0, -1.0, tc.t_frame_us)


# ---------------------------------------------------------------------------
# asymptotic form and curvature


def _asym_attempt_mp(alpha, p_inl, l_total, tc: TimingConstants):
    """The asymptotic cost of one success (us) in arbitrary precision, h(x)
    at x = (1 + alpha) * p_inl: the function `tcop_hessian` differentiates,
    m times over."""
    _, _, inv_lx, v = analytics._asym_mp(alpha, p_inl, l_total)
    return (tc.delta_idle_us * inv_lx
            + tc.delta_coll_us * (v - inv_lx - 1)
            + tc.delta_succ_us)


def test_asymptotic_matches_exact_single_class(tc):
    # a homogeneous population at the effective probability (1+alpha)*p_inl;
    # the asymptotic form deviates from the exact expectation by exactly
    # m*(delta_coll - delta_idle)/L, which vanishes for large populations
    alpha, p_inl, m = 1.0, 1e-4, 100
    for big_l in (10_000, 100_000):
        x = (1 + alpha) * p_inl
        exact = m * cost(((x, big_l),), tc)
        with mp.workdps(analytics._ASYM_DPS):
            asym = float(m * _asym_attempt_mp(alpha, p_inl, big_l, tc))
        assert asym == pytest.approx(exact, rel=1e-2)
        gap = m * (tc.delta_coll_us - tc.delta_idle_us) / big_l
        # loose tolerance: the gap sits near the last representable digits
        assert exact - asym == pytest.approx(gap, rel=1e-2)


def test_asymptotic_validation(tc):
    # the Hessian rejects a negative winner count, an empty population and
    # an effective probability above one
    for m, big_l in ((-1, 100), (100, 0), (100, -5)):
        with pytest.raises(ValueError):
            tcop_hessian(m, 1.0, 0.1, big_l, tc)
    with pytest.raises(ValueError):
        tcop_hessian(100, 5.0, 0.5, 100, tc)


def test_asymptotic_overflow_maps_to_inf(tc):
    # past double range a raw entry is a signed inf, and at effective
    # probability one no success ever comes
    hess = tcop_hessian(1, 1.0, 0.4, 100_000, tc)
    assert hess[1, 1] == math.inf and hess[0, 0] == 0.0
    with pytest.raises(DivergentExpectationError):
        tcop_hessian(1, 1.0, 0.5, 100_000, tc)


def _fd_hessian_mp(m, alpha, p_inl, big_l, tc):
    """Central finite differences of the asymptotic duration in arbitrary
    precision, axis order (m, p_inl, alpha)."""
    def f(mm, pp, aa):
        return mm * _asym_attempt_mp(aa, pp, big_l, tc)

    x = [mp.mpf(m), mp.mpf(p_inl), mp.mpf(alpha)]
    h = [xi * mp.mpf("1e-12") for xi in x]
    hess = mp.matrix(3, 3)
    f0 = f(*x)
    for i in range(3):
        xp, xm = list(x), list(x)
        xp[i] += h[i]
        xm[i] -= h[i]
        hess[i, i] = (f(*xp) - 2 * f0 + f(*xm)) / h[i] ** 2
        for j in range(i + 1, 3):
            xpp, xpm, xmp, xmm = list(x), list(x), list(x), list(x)
            xpp[i] += h[i]; xpp[j] += h[j]
            xpm[i] += h[i]; xpm[j] -= h[j]
            xmp[i] -= h[i]; xmp[j] += h[j]
            xmm[i] -= h[i]; xmm[j] -= h[j]
            hess[i, j] = hess[j, i] = \
                (f(*xpp) - f(*xpm) - f(*xmp) + f(*xmm)) / (4 * h[i] * h[j])
    return hess


@pytest.mark.parametrize("m,alpha,p_inl,big_l", [
    (100, 1.0, 0.001, 100_000),
    (250, 0.5, 0.002, 100_000),
    (50, 2.0, 0.0005, 100_000),
    (10, 1.0, 0.01, 1_000),
])
def test_hessian_matches_finite_differences(tc, m, alpha, p_inl, big_l):
    with mp.workdps(80):
        fd = _fd_hessian_mp(m, alpha, p_inl, big_l, tc)
        an = analytics._hessian_mp(m, alpha, p_inl, big_l, tc)
        scale = max(abs(an[i, j]) for i in range(3) for j in range(3))
        for i in range(3):
            for j in range(3):
                denom = max(abs(an[i, j]), mp.mpf("1e-12") * scale)
                assert abs(fd[i, j] - an[i, j]) / denom < mp.mpf("1e-4")


def test_hessian_shape_and_symmetry(tc):
    hess = tcop_hessian(100, 1.0, 0.001, 100_000, tc)
    assert hess.shape == (3, 3)
    assert hess[0, 0] == 0.0
    assert np.allclose(hess, hess.T)


def test_hessian_normalization_keeps_finite_entries(tc):
    # raw entries overflow double precision here; normalized ones do not
    raw = tcop_hessian(100, 1.0, 0.4, 100_000, tc)
    assert np.isinf(raw).any()
    norm = tcop_hessian(100, 1.0, 0.4, 100_000, tc, normalize=True)
    assert np.isfinite(norm).all()
    assert np.trace(norm) == pytest.approx(1.0, rel=1e-12)


def test_hessian_positive_semidefinite_where_cost_decreases(tc):
    # left of the minimum of the per-attempt cost h(x), x = (1 + alpha) *
    # p_inl (x* ~ 6.6e-6 at L = 1e5), h' < 0 and the curvature dominates
    # the cross term: at fixed m the (p_inl, alpha) block is positive
    # definite, decided by exact signs on the arbitrary-precision matrix
    for (m, alpha, p_inl) in [(100, 1.0, 1e-6), (400, 5.0, 1e-7),
                              (1, 0.5, 4e-6), (250, 2.0, 1e-10)]:
        with mp.workdps(analytics._ASYM_DPS):
            hess = analytics._hessian_mp(m, alpha, p_inl, 100_000, tc)
            assert hess[0, 1] < 0  # (1 + alpha) * h'(x): cost decreases
            assert hess[1, 1] > 0
            assert hess[1, 1] * hess[2, 2] - hess[1, 2] ** 2 > 0


def test_hessian_cross_term_breaks_joint_convexity(tc):
    # where the per-attempt cost increases in x, the mixed p_inl/alpha
    # derivative picks up a first-order term and the matrix is indefinite
    hess = tcop_hessian(1, 0.5, 0.19, 100_000, tc, normalize=True)
    eig = np.linalg.eigvalsh(hess)
    assert eig.min() < -1e-8 * abs(np.trace(hess))
