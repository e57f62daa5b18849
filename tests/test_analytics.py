import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hymac import analytics
from hymac.analytics import (
    ContentionMixture,
    DegenerateMixtureError,
    DivergentExpectationError,
    asymptotic_tcop,
    expected_attempt_rows,
    expected_collisions,
    expected_idle,
    expected_tcop,
    ordered_sum,
    prob_no_transmission,
    prob_single_transmission,
    prob_success_given_busy,
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


# ---------------------------------------------------------------------------
# slot probabilities


def test_single_entry_hand_example():
    mix = ContentionMixture(((0.3, 3),))
    assert prob_no_transmission(mix) == pytest.approx(0.7 ** 3, abs=1e-15)
    assert prob_single_transmission(mix) == pytest.approx(3 * 0.3 * 0.7 ** 2, abs=1e-15)


def test_two_entry_hand_example():
    mix = ContentionMixture(((0.3, 3), (0.6, 2)))
    p0 = 0.7 ** 3 * 0.4 ** 2
    p1 = 3 * 0.3 * 0.7 ** 2 * 0.4 ** 2 + 2 * 0.6 * 0.4 * 0.7 ** 3
    assert prob_no_transmission(mix) == pytest.approx(p0, abs=1e-15)
    assert prob_single_transmission(mix) == pytest.approx(p1, abs=1e-15)
    assert prob_success_given_busy(mix) == pytest.approx(p1 / (1 - p0), abs=1e-14)


def test_enumeration_oracle_sample(tc):
    for entries in random_mixtures(50, seed=421):
        mix = ContentionMixture(entries)
        dist = transmitter_distribution(entries)
        p0, p1 = float(dist[0]), float(dist[1]) if len(dist) > 1 else 0.0
        assert prob_no_transmission(mix) == pytest.approx(p0, abs=1e-9)
        assert prob_single_transmission(mix) == pytest.approx(p1, abs=1e-9)
        p_succ = p1 / (1.0 - p0)
        assert prob_success_given_busy(mix) == pytest.approx(p_succ, abs=1e-9)
        assert expected_collisions(mix) == pytest.approx(
            geometric_mean_failures(p_succ), rel=1e-9, abs=1e-9)
        assert expected_idle(mix, tc.delta_idle_us) == pytest.approx(
            mean_idle_series(p0, tc.delta_idle_us), rel=1e-9, abs=1e-9)


def test_slot_law_skips_empty_entries():
    # a drained group keeps its place in the simulator's arrays, at count 0
    p_idle, p_busy, terms = slot_law_rows(np.array([0.3, 1.0, 0.6]),
                                          np.array([3.0, 0.0, 2.0]))
    mix = ContentionMixture(((0.3, 3), (0.6, 2)))
    assert p_idle == prob_no_transmission(mix)
    assert p_busy == pytest.approx(1.0 - prob_no_transmission(mix), abs=1e-15)
    assert terms[1] == 0.0
    assert sum(terms) == prob_single_transmission(mix)
    p_idle, p_busy, terms = slot_law_rows(np.array([0.5]), np.array([0.0]))
    assert (p_idle, p_busy, terms.tolist()) == (1.0, 0.0, [0.0])


_probs = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
_counts = st.one_of(st.just(0.0), st.just(1.0), st.integers(0, 2000).map(float),
                    st.floats(0.0, 2000.0))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(_probs, _counts), max_size=8),
                     min_size=1, max_size=6),
       pad=_probs)
def test_rows_match_one_row_calls(rows, pad):
    """Each row of a batch, padded to the batch width with zero counts,
    against the scalar forms on that row alone, bit for bit: the slot law
    (a one-row `slot_law_rows` keeps the padding, `ContentionMixture` drops
    it) and the per-success cost (nan where `expected_tcop` raises)."""
    tc = TimingConstants()
    width = max(len(row) for row in rows)
    padded = [row + [(pad, 0.0)] * (width - len(row)) for row in rows]
    prob = np.array([[p for p, _ in row] for row in padded]).reshape(len(rows), width)
    counts = np.array([[n for _, n in row] for row in padded]).reshape(len(rows), width)
    p_idle, p_busy, terms = slot_law_rows(prob, counts)
    e_attempt, cost_terms = expected_attempt_rows(prob, counts, tc)
    assert np.array_equal(cost_terms, terms)
    for i, row in enumerate(padded):
        idle, busy, row_terms = slot_law_rows(prob[i], counts[i])
        assert (idle, busy, row_terms.tolist()) == (p_idle[i], p_busy[i], terms[i].tolist())
        mix = ContentionMixture(tuple(row))
        assert prob_no_transmission(mix) == p_idle[i]
        assert prob_single_transmission(mix) == ordered_sum(terms[i])
        try:
            want = expected_tcop(1, mix, tc).e_attempt_us
        except (DegenerateMixtureError, DivergentExpectationError):
            want = math.nan
        assert np.array_equal(e_attempt[i], want, equal_nan=True)


def test_ordered_sum_runs_left_to_right():
    # as Python's sum: each 1e-16 is lost against 1.0 (np.sum pairs them up)
    tiny = np.array([1.0] + [1e-16] * 16)
    assert ordered_sum(tiny) == sum(tiny.tolist()) == 1.0
    assert ordered_sum(np.tile(tiny, (2, 1))).tolist() == [1.0, 1.0]
    assert ordered_sum(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert ordered_sum(np.zeros(0)) == 0.0
    p_idle, p_busy, terms = slot_law_rows(np.zeros(0), np.zeros(0))
    assert (p_idle, p_busy, terms.tolist()) == (1.0, 0.0, [])


def test_probability_conservation():
    for entries in random_mixtures(50, seed=99):
        mix = ContentionMixture(entries)
        p0 = prob_no_transmission(mix)
        p1 = prob_single_transmission(mix)
        p_many = (1 - p0) * (1 - prob_success_given_busy(mix))
        assert p0 + p1 + p_many == pytest.approx(1.0, abs=1e-12)


def test_success_shares_sum_to_one():
    for entries in random_mixtures(50, seed=7):
        prob, counts = np.array(entries).T
        shares = success_shares(slot_law_rows(prob, counts)[2].tolist())
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)
        assert all(s >= 0 for s in shares)


def test_no_underflow_for_large_populations():
    mix = ContentionMixture(((0.1, 50_000.0),))
    assert prob_no_transmission(mix) == 0.0  # below double-precision range
    # conditional success still well-defined via log-space evaluation
    assert 0.0 <= prob_success_given_busy(mix) <= 1.0


def test_certain_transmitter_edge_cases():
    solo = ContentionMixture(((1.0, 1),))
    assert prob_no_transmission(solo) == 0.0
    assert prob_single_transmission(solo) == 1.0
    assert prob_success_given_busy(solo) == 1.0
    assert expected_collisions(solo) == 0.0
    assert expected_idle(solo, 10.0) == 0.0

    pair = ContentionMixture(((1.0, 2),))
    assert prob_single_transmission(pair) == 0.0
    # the simulator's view of the same slots: a p = 1 device is never idle
    for n, lone in ((1.0, 1.0), (2.0, 0.0)):
        p_idle, p_busy, terms = slot_law_rows(np.array([1.0]), np.array([n]))
        assert (p_idle, p_busy, terms.tolist()) == (0.0, 1.0, [lone])
    with pytest.raises(DivergentExpectationError):
        expected_collisions(pair)


def test_empty_mixture_is_degenerate():
    mix = ContentionMixture(((0.5, 0.0),))
    assert prob_no_transmission(mix) == 1.0
    with pytest.raises(DegenerateMixtureError):
        prob_success_given_busy(mix)
    with pytest.raises(DegenerateMixtureError):
        expected_idle(mix, 10.0)


def test_fractional_counts_accepted(tc):
    mix = ContentionMixture(((0.1, 12.5),))
    assert prob_no_transmission(mix) == pytest.approx(0.9 ** 12.5, abs=1e-12)
    assert expected_tcop(3, mix, tc).e_tcop_us > 0


# ---------------------------------------------------------------------------
# contention-period expectation


def test_expected_tcop_structure(tc):
    mix = ContentionMixture(((0.1, 10),))
    exp = expected_tcop(5, mix, tc)
    e_nc = expected_collisions(mix)
    e_idle = expected_idle(mix, tc.delta_idle_us)
    attempt = (e_nc + 1) * e_idle + e_nc * tc.delta_coll_us + tc.delta_succ_us
    assert exp.e_attempt_us == pytest.approx(attempt, rel=1e-12)
    assert exp.e_tcop_us == pytest.approx(5 * attempt, rel=1e-12)


def test_expected_tcop_linear_in_m(tc):
    mix = ContentionMixture(((0.2, 8), (0.4, 3)))
    one = expected_tcop(1, mix, tc).e_tcop_us
    for m in (2, 7, 50):
        assert expected_tcop(m, mix, tc).e_tcop_us == pytest.approx(m * one, rel=1e-12)
    assert expected_tcop(0, mix, tc).e_tcop_us == 0.0
    with pytest.raises(ValueError):
        expected_tcop(-1, mix, tc)


def test_monte_carlo_slot_frequencies(tc, rng):
    entries = ((0.05, 12), (0.15, 4))
    mix = ContentionMixture(entries)
    n_slots = 60_000
    counts = np.array([n for _, n in entries])
    probs = np.array([p for p, _ in entries])
    draws = rng.binomial(counts[:, None], probs[:, None], size=(2, n_slots)).sum(axis=0)
    p0_hat = np.mean(draws == 0)
    p1_hat = np.mean(draws == 1)
    for hat, ref in ((p0_hat, prob_no_transmission(mix)),
                     (p1_hat, prob_single_transmission(mix))):
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


def test_asymptotic_matches_exact_single_class(tc):
    # a homogeneous population at the effective probability (1+alpha)*p_inl;
    # the asymptotic form deviates from the exact expectation by exactly
    # m*(delta_coll - delta_idle)/L, which vanishes for large populations
    alpha, p_inl, m = 1.0, 1e-4, 100
    for big_l in (10_000, 100_000):
        x = (1 + alpha) * p_inl
        exact = expected_tcop(m, ContentionMixture(((x, big_l),)), tc).e_tcop_us
        asym = asymptotic_tcop(m, alpha, p_inl, big_l, tc)
        assert asym == pytest.approx(exact, rel=1e-2)
        gap = m * (tc.delta_coll_us - tc.delta_idle_us) / big_l
        # loose tolerance: the gap sits near the last representable digits
        assert exact - asym == pytest.approx(gap, rel=1e-2)


def test_asymptotic_validation(tc):
    assert asymptotic_tcop(0, 1.0, 0.1, 100, tc) == 0.0
    with pytest.raises(ValueError):
        asymptotic_tcop(1, 5.0, 0.5, 100, tc)  # effective probability > 1
    with pytest.raises(ValueError):
        asymptotic_tcop(-1, 1.0, 0.1, 100, tc)
    with pytest.raises(ValueError):
        asymptotic_tcop(1, 1.0, 0.1, 0, tc)
    # the Hessian rejects the same arguments
    for m, big_l in ((-1, 100), (100, 0), (100, -5)):
        with pytest.raises(ValueError):
            tcop_hessian(m, 1.0, 0.1, big_l, tc)
    with pytest.raises(ValueError):
        tcop_hessian(100, 5.0, 0.5, 100, tc)


def test_asymptotic_overflow_maps_to_inf(tc):
    assert asymptotic_tcop(1, 1.0, 0.4, 100_000, tc) == math.inf
    with pytest.raises(DivergentExpectationError):
        asymptotic_tcop(1, 1.0, 0.5, 100_000, tc)  # effective probability one


def _fd_hessian_mp(m, alpha, p_inl, big_l, tc):
    """Central finite differences of the asymptotic duration in arbitrary
    precision, axis order (m, p_inl, alpha)."""
    def f(mm, pp, aa):
        return mm * analytics._asym_attempt_mp(aa, pp, big_l, tc)

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
