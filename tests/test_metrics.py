import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csv_oracle
from hymac import metrics
from hymac.domain import ClassConfig, TimingConstants
from hymac.metrics import (
    DEVICE_CSV_SCHEMA,
    FRAME_CSV_SCHEMA,
    EnergyBreakdown,
    channel_utility_of,
    energy_ledger,
    energy_series,
    mean_frame_energy,
    merge_reports,
    write_device_csv,
    write_frame_csv,
)
from hymac.optimizer import plan_for
from hymac.simulator import FrameSummary, SimReport, run_csma, run_hybrid, run_tdma


def make_summary(**kw):
    base = dict(frame=0, n_active=0, m_realized=0, t_cop_us=0.0, n_idle_slots=0,
                n_collisions=0, coll_tx_time_us=0.0, listen_time_us=0.0,
                winner_wait_time_us=0.0)
    base.update(kw)
    return FrameSummary(**base)


def make_report(tc, cfg, variant="hybrid", frames=(), **arrays):
    k = cfg.total_devices
    rep = SimReport(variant=variant, seed=0, frames=len(frames), tc=tc, cfg=cfg)
    for column, values in zip(rep.columns, zip(*frames)):
        column[:] = values
    for name in ("generated", "dropped", "delivered", "delay_frames_sum"):
        setattr(rep, name, np.asarray(arrays.get(name, np.zeros(k, dtype=int))))
    return rep


def one_frame_energy(tc, k: int, variant: str, **kw) -> EnergyBreakdown:
    """The ledger of a one-frame report of ``k`` devices whose frame has
    the counters ``kw`` (`make_summary`)."""
    cfg = ClassConfig(class_sizes=(k,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    return energy_series(make_report(tc, cfg, variant, [make_summary(**kw)]))[0]


@pytest.fixture
def cfg1200():
    return ClassConfig(class_sizes=(1200,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)


def test_notification_energy_example(tc, cfg1200):
    # 1200 receivers for a 10 us broadcast at 1 W
    e = one_frame_energy(tc, 1200, "hybrid")
    assert e.e_np == pytest.approx(12e-3)
    assert e.e_ap == 0.0 and e.e_cop == 0.0 and e.e_top == 0.0


def test_energy_identities():
    e = EnergyBreakdown(e_np=1.0, e_cop=2.0, e_ap=3.0, e_s=4.0, e_in=5.0)
    assert e.e_top == pytest.approx(9.0)
    assert e.e_frame == pytest.approx(1 + 2 + 3 + 9)


def test_hybrid_energy_hand_computed(tc):
    e = one_frame_energy(tc, 100, "hybrid", n_active=10, m_realized=2,
                         coll_tx_time_us=3 * 29.7, listen_time_us=500.0,
                         winner_wait_time_us=100.0, n_collisions=1)
    assert e.e_np == pytest.approx(100 * 1.0 * 10.0 * 1e-6)
    assert e.e_ap == pytest.approx(10 * 1.0 * 10.0 * 1e-6)
    # contention: collision transmissions and two request handshakes at
    # tx power, listeners and waiting winners at idle power
    tx_us = 3 * 29.7 + 2 * tc.delta_succ_us
    assert e.e_cop == pytest.approx((1.5 * tx_us + 0.5 * 600.0) * 1e-6)
    assert e.e_s == pytest.approx(1.5 * 2000.0 * 2 * 1e-6)
    assert e.e_in == pytest.approx(0.5 * 2000.0 * 8 * 2 * 1e-6)


def test_tdma_energy(tc):
    e = one_frame_energy(tc, 600, "tdma", m_realized=300, tdma_idle_slots=200)
    assert e.e_s == pytest.approx(1.5 * 2000.0 * 300 * 1e-6)
    assert e.e_in == pytest.approx(0.5 * 2000.0 * 200 * 1e-6)
    assert e.e_np == 0.0 and e.e_cop == 0.0


def test_energy_variant_validation(tc):
    with pytest.raises(ValueError):
        one_frame_energy(tc, 10, "wat")


def test_channel_utility_of(tc, cfg1200):
    frames = [make_summary(frame=i, m_realized=m) for i, m in enumerate((200, 300))]
    rep = make_report(tc, cfg1200, frames=frames)
    assert channel_utility_of(rep) == pytest.approx(0.5 * (0.4 + 0.6))
    assert channel_utility_of(make_report(tc, cfg1200)) == 0.0


def device_rows(rep, path):
    write_device_csv(rep, path)
    return list(csv.DictReader(path.read_text().splitlines()[1:]))


def test_ratio_metrics(tc, tmp_path):
    cfg = ClassConfig(class_sizes=(2, 1), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    rep = make_report(tc, cfg,
                      generated=np.array([10, 5, 4]),
                      dropped=np.array([2, 0, 1]),
                      delivered=np.array([8, 5, 3]),
                      delay_frames_sum=np.array([16, 5, 3]))
    merged = merge_reports([rep])
    assert merged["drop_ratio"] == pytest.approx(3 / 19)
    assert merged["avg_delay_frames"] == pytest.approx(24 / 16)
    rows = device_rows(rep, tmp_path / "devices.csv")
    assert float(rows[0]["drop_ratio"]) == pytest.approx(0.2)
    assert float(rows[1]["avg_delay_frames"]) == pytest.approx(1.0)


def test_undefined_ratios(tc, tmp_path):
    # no packet generated or delivered: both ratios are left out, not 0
    rep = make_report(tc, ClassConfig((3, 1), 0.1, 1.0, 1.0))
    merged = merge_reports([rep])
    assert "drop_ratio" not in merged and "avg_delay_frames" not in merged
    rows = device_rows(rep, tmp_path / "devices.csv")
    assert [(r["drop_ratio"], r["avg_delay_frames"]) for r in rows] == [("", "")] * 4


def test_csv_export_roundtrip(tc, tmp_path, small_cfg):
    plan = plan_for(small_cfg, tc, 5, 1.0, 0.05)
    rep = run_hybrid(small_cfg, tc, plan, 5, seed=7)
    fpath, dpath = tmp_path / "frames.csv", tmp_path / "devices.csv"
    write_frame_csv(rep, fpath)
    write_device_csv(rep, dpath)

    flines = fpath.read_text().splitlines()
    assert flines[0] == f"# {FRAME_CSV_SCHEMA}"
    frows = list(csv.reader(flines[1:]))
    assert frows[0][:3] == ["frame", "n_active", "m"]
    assert len(frows) == 1 + 5
    for row in frows[1:]:
        assert int(row[2]) >= 0
        assert float(row[9]) > 0  # e_frame always includes notification cost

    dlines = dpath.read_text().splitlines()
    assert dlines[0] == f"# {DEVICE_CSV_SCHEMA}"
    drows = list(csv.reader(dlines[1:]))
    assert len(drows) == 1 + small_cfg.total_devices


def _csv_reports(variant: str, sizes: tuple[int, ...], lam: float, p_inl: float,
                 frames: int) -> list[SimReport]:
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=sizes, p_inl=p_inl, alpha=1.0, arrival_rate=lam)
    if variant == "hybrid":
        plan = plan_for(cfg, tc, frames, 1.0, p_inl)
        return [run_hybrid(cfg, tc, plan, frames, seed=s) for s in (1, 2)]
    if variant == "csma":
        return [run_csma(cfg, tc, p_inl, frames, seed=s) for s in (1, 2)]
    return [run_tdma(cfg, tc, frames, seed=s) for s in (1, 2)]


@pytest.mark.parametrize("variant", ["hybrid", "csma", "tdma"])
@pytest.mark.parametrize("sizes, lam, p_inl, frames", [
    ((0,), 1.0, 0.1, 3),                  # K = 0: header lines only
    ((20, 5), 0.05, 0.05, 4),             # devices that generated or delivered nothing
    ((30, 10), 0.2, 0.05, 20),            # the README layout
    ((1180, 10, 10), 1.0, 5e-4, 3),       # the benchmark layout, 1200 devices
], ids=["k0", "sparse", "readme", "k1200"])
def test_csv_writers_match_the_csv_writer_reference(tmp_path, variant, sizes, lam, p_inl,
                                                    frames):
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    for rep in _csv_reports(variant, sizes, lam, p_inl, frames):
        for write, write_ref in ((write_frame_csv, csv_oracle.write_frame_csv),
                                 (write_device_csv, csv_oracle.write_device_csv)):
            write(rep, ours)
            write_ref(rep, ref)
            assert ours.read_bytes() == ref.read_bytes(), (write.__name__, rep.seed)


def _edge_reports(tc):
    """Reports whose CSV rows the writers group: edge counters, device rows
    that repeat heavily, device rows that are all distinct, an empty
    network, two rows whose sort keys collide, and frame rows that repeat,
    one with ``t_cop_us`` -0.0 beside rows with 0.0."""
    i = np.arange(1200)
    # generated = 0, delivered = 0, ratios that need all nine digits,
    # counters past 2**32, and zero ratios of both signs (0 / 5 and 0 / -4)
    yield make_report(tc, ClassConfig((3, 2, 3), 0.1, 1.0, 1.0),
                      generated=np.array([0, 3, 7, 0, 2**40, 9, 5, -4]),
                      dropped=np.array([0, 1, 2, 0, 2**33 + 1, 9, 0, 0]),
                      delivered=np.array([0, 0, 5, 0, 2**39 - 3, 0, 0, 0]),
                      delay_frames_sum=np.array([0, 0, 11, 0, 2**45 + 7, 0, 0, 0]))
    # 25 distinct device rows among 1200
    yield make_report(tc, ClassConfig((1180, 10, 10), 0.1, 1.0, 1.0),
                      generated=40 + i % 3, dropped=39 + i % 3 - i % 2,
                      delivered=i % 2, delay_frames_sum=(i % 2) * (1 + i % 4))
    # every device row distinct
    yield make_report(tc, ClassConfig((200, 100), 0.1, 1.0, 1.0),
                      generated=i[:300] + 1, dropped=i[:300] % 7, delivered=i[:300] % 5,
                      delay_frames_sum=3 * i[:300] + 1)
    # header lines only
    yield make_report(tc, ClassConfig((0,), 0.1, 1.0, 1.0))
    # two unequal rows whose mixed sort key is the same: delivered one
    # higher, and the delay sum lower by the multiplier, wrapped
    yield make_report(tc, ClassConfig((2,), 0.1, 1.0, 1.0),
                      generated=np.array([5, 5]), dropped=np.array([1, 1]),
                      delivered=np.array([1, 2]),
                      delay_frames_sum=np.array([0, -int(metrics._MIX) % 2**64]))
    busy = dict(n_active=7, m_realized=2, t_cop_us=412.5, coll_tx_time_us=30.25,
                listen_time_us=1e3 / 3, winner_wait_time_us=12.0)
    frames = [make_summary(frame=f, t_cop_us=-0.0 if f == 5 else 0.0, n_active=f % 2)
              if f % 3 else make_summary(frame=f, **busy) for f in range(40)]
    for variant in ("hybrid", "csma", "tdma"):
        yield make_report(tc, ClassConfig((4, 3), 0.1, 1.0, 1.0), variant, frames)


def test_device_csv_matches_the_reference_on_edge_counters(tc, tmp_path):
    # both writers, byte for byte against the `csv.writer` reference
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    for case, rep in enumerate(_edge_reports(tc)):
        for write, write_ref in ((write_frame_csv, csv_oracle.write_frame_csv),
                                 (write_device_csv, csv_oracle.write_device_csv)):
            write(rep, ours)
            write_ref(rep, ref)
            assert ours.read_bytes() == ref.read_bytes(), (write.__name__, case)
    # frames 1 and 5 differ only in the sign of a zero: each keeps its text
    write_frame_csv(rep, ours)
    assert b"\r\n2,1,0,0," in ours.read_bytes() and b"\r\n6,1,0,-0," in ours.read_bytes()


def test_energy_series_matches_mean(tc, small_cfg):
    plan = plan_for(small_cfg, tc, 5, 1.0, 0.05)
    rep = run_hybrid(small_cfg, tc, plan, 5, seed=7)
    series = energy_series(rep)
    assert len(series) == 5
    assert mean_frame_energy(rep) == sum(e.e_frame for e in series) / 5


def test_merge_reports(tc, small_cfg):
    plan = plan_for(small_cfg, tc, 5, 1.0, 0.05)
    reps = [run_hybrid(small_cfg, tc, plan, 5, seed=s) for s in (1, 2, 3)]
    merged = merge_reports(reps)
    assert merged["runs"] == 3
    assert merged["generated"] == sum(r.generated.sum() for r in reps)
    assert 0.0 <= merged["utility_mean"] <= 1.0
    with pytest.raises(ValueError):
        merge_reports([])


# The column ledger against the scalar ledger of `csv_oracle`: zeros, counts
# up to 1e6 (m may pass n_active, where e_in is clipped to 0) and times up
# to 1e300, where every product and sum stays finite.  The timings and powers
# are drawn too: the default ones are so round that a product regrouped or
# a sum split would often give the same float
def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_counts = st.one_of(st.sampled_from([0, 1, 10**6]), st.integers(0, 10**6))
_times = st.one_of(st.sampled_from([0.0, 5e-324, 1e300]), _finite(0.0, 1e300))
_timings = st.builds(
    TimingConstants, t_frame_us=_finite(1e5, 1e7), t_r_us=_finite(1.0, 1e4),
    **{name: _finite(0.1, 100.0) for name in (
        "t_req_us", "t_nof_us", "t_anc_us", "t_ack_us", "sifs_us", "bifs_us")},
    **{name: _finite(1e-3, 10.0) for name in ("p_tx_w", "p_rx_w", "p_idle_w")})


@st.composite
def frame_lists(draw):
    rows = draw(st.lists(st.tuples(_counts, _counts, st.booleans(), _times, _counts, _counts,
                                   _times, _times, _times, _counts), max_size=20))
    # m passes n_active only where drawn so
    return [FrameSummary(i, n, m if over else min(m, n), *rest)
            for i, (n, m, over, *rest) in enumerate(rows)]


@example(tc=TimingConstants(), variant="hybrid", k=0, runs=[[]])
@example(tc=TimingConstants(), variant="csma", k=1, runs=[[], []])
@example(tc=TimingConstants(), variant="tdma", k=5, runs=[[]])
@settings(max_examples=60, deadline=None)
@given(tc=_timings,
       variant=st.sampled_from(["hybrid", "csma", "tdma"]), k=st.integers(0, 3000),
       runs=st.lists(frame_lists(), min_size=1, max_size=3))
def test_column_ledger_matches_the_scalar_ledger_to_the_bit(tc, variant, k, runs):
    cfg = ClassConfig(class_sizes=(k,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    reports = [make_report(tc, cfg, variant, frames) for frames in runs]
    for rep in reports:
        ledger = energy_ledger(rep)
        ref = csv_oracle.energy_series(rep)
        for name in ("e_np", "e_cop", "e_ap", "e_s", "e_in", "e_top", "e_frame"):
            column = getattr(ledger, name)
            assert column.dtype == np.float64 and column.shape == (len(ref),)
            assert column.tolist() == [getattr(e, name) for e in ref], name
        assert energy_series(rep) == ref
        assert mean_frame_energy(rep) == csv_oracle.mean_frame_energy(rep)
    assert merge_reports(reports)["energy_per_frame_j"] == float(
        np.mean([csv_oracle.mean_frame_energy(r) for r in reports]))
