import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovermotion.cli import PRESET_NAMES, ROTATION_PRESETS, preset_path
from rovermotion.config import BodyTwist, LocomotionMode, RoverConfig
from rovermotion.errors import DataError
from rovermotion.kinematics import ProfileSegment
from rovermotion.metrics import (
    RATIO_CLAMP,
    _median,
    angular_speed_efficiency,
    clamp_ratio,
    cost_of_transport,
    encoder_speed,
    energy_vs_yaw,
    longitudinal_slip,
    mean_cot,
)
from rovermotion.telemetry import TELEMETRY_HEADER, Telemetry
from rovermotion.terrain import (
    Scenario,
    TerrainParams,
    load_scenario,
    simulate_traverse,
)

CFG = RoverConfig()


def make_record(t, power, v, heading=0.0):
    """One telemetry row, in TELEMETRY_HEADER order."""
    row = dict.fromkeys(TELEMETRY_HEADER, 0.0)
    row.update(t=t, x=v * t, heading=heading, marker_x=v * t, odo_vx=v, cmd_vx=v)
    for wheel in ("fl", "fr", "rl", "rr"):
        row[f"v_drive_{wheel}"] = row[f"v_steer_{wheel}"] = 24.0
        row[f"speed_{wheel}"] = v / 0.15
    # one drive carries the whole electrical load, which is all the
    # aggregate metrics care about
    row["i_drive_fl"] = power / 24.0
    return list(row.values())


class TestCostOfTransport:
    def test_flat_campaign_value(self):
        # 54.4 W at 6 cm/s on the 84 kg breadboard
        assert cost_of_transport(54.4, 84.0, 9.81, 0.06) == pytest.approx(
            1.100, abs=0.001
        )

    def test_dimensionless_scaling(self):
        base = cost_of_transport(100.0, 84.0, 9.81, 0.06)
        assert cost_of_transport(200.0, 84.0, 9.81, 0.06) == pytest.approx(2 * base)
        assert cost_of_transport(100.0, 84.0, 9.81, 0.12) == pytest.approx(base / 2)

    def test_zero_velocity_undefined(self):
        with pytest.raises(DataError, match="undefined at zero velocity"):
            cost_of_transport(10.0, 84.0, 9.81, 0.0)

    @pytest.mark.parametrize("mass, v, product", [
        (5e-324, 0.03, "0.0"),  # m g v rounds to 0
        (5e-324, 0.06, "5e-324"),  # P / (m g v) overflows
        (1e308, 0.06, "inf"),
    ])
    def test_m_g_v_must_be_a_positive_finite_number(self, mass, v, product):
        message = rf"^P / \(m g v\) = 10.0 / {product} is not finite$"
        with pytest.raises(DataError, match=message):
            cost_of_transport(10.0, mass, 9.81, v)

    def test_non_positive_mass_rejected(self):
        with pytest.raises(DataError, match=r"^P / \(m g v\) = 10.0 / 0.0 is not finite"):
            cost_of_transport(10.0, 0.0, 9.81, 0.06)


class TestMeanCot:
    def test_constant_series(self):
        records = [make_record(0.1 * k, 54.4, 0.06) for k in range(100)]
        report = mean_cot(Telemetry(records), CFG)
        assert report.cost_of_transport == pytest.approx(1.100, abs=1e-9 + 0.001)
        assert report.mean_power == pytest.approx(54.4)
        assert report.mean_velocity == pytest.approx(0.06)

    def test_time_weighting(self):
        # a long cheap stretch and a short expensive one, uneven sampling
        records = [
            make_record(0.0, 10.0, 0.05),
            make_record(9.0, 10.0, 0.05),
            make_record(9.0 + 1e-9, 100.0, 0.05),
            make_record(10.0, 100.0, 0.05),
        ]
        report = mean_cot(Telemetry(records), CFG)
        assert report.mean_power == pytest.approx(19.0, abs=1e-3)

    def test_insufficient_samples(self):
        with pytest.raises(DataError, match="insufficient samples"):
            mean_cot(Telemetry([make_record(0.0, 10.0, 0.05)]), CFG)

    def test_stationary_series_undefined(self):
        records = [make_record(0.1 * k, 5.0, 0.0) for k in range(10)]
        with pytest.raises(DataError, match="zero velocity"):
            mean_cot(Telemetry(records), CFG)


class TestEnergyVsYaw:
    def test_empty(self):
        assert energy_vs_yaw(Telemetry.empty()).shape == (0, 2)

    def test_constant_rotation(self):
        # 10 W while yawing 0.1 rad/s: energy should be linear in yaw
        records = [
            make_record(0.1 * k, 10.0, 0.0, heading=0.01 * k) for k in range(101)
        ]
        curve = energy_vs_yaw(Telemetry(records))
        yaw_deg, energy = curve[-1]
        assert yaw_deg == pytest.approx(math.degrees(1.0))
        assert energy == pytest.approx(100.0)
        mid_yaw, mid_energy = curve[50]
        assert mid_energy / energy == pytest.approx(mid_yaw / yaw_deg, abs=1e-9)

    def test_reposition_shows_as_basal_offset(self):
        scenario = Scenario(
            profile=[
                ProfileSegment(20.0, BodyTwist(0, 0, 0.05), LocomotionMode.POINT_TURN)
            ]
        )
        curve = energy_vs_yaw(simulate_traverse(scenario))
        at_zero = max(e for yaw, e in curve if yaw < 1e-9)
        assert at_zero == pytest.approx(159.2, abs=0.5)

    def test_yaw_accumulates_magnitude(self):
        # reversing rotation still accumulates |yaw|
        headings = [0.0, 0.1, 0.2, 0.1, 0.0]
        records = [
            make_record(float(k), 10.0, 0.0, heading=h)
            for k, h in enumerate(headings)
        ]
        curve = energy_vs_yaw(Telemetry(records))
        assert curve[-1][0] == pytest.approx(math.degrees(0.4))


class TestAngularSpeedEfficiency:
    def test_constant_deficit(self):
        t = np.arange(0.0, 20.0, 0.1)
        gt = 0.075 * t  # true yaw rate is 75% of odometry
        odo = np.full_like(t, 0.1)
        series = angular_speed_efficiency(t, gt, odo)
        ratios = series[~np.isnan(series)]
        assert len(ratios) == len(t)
        assert np.mean(ratios) == pytest.approx(0.75, abs=1e-9)

    def test_gaps_below_threshold(self):
        t = np.arange(0.0, 5.0, 0.1)
        odo = np.where(t < 2.0, 0.1, 0.0)
        series = angular_speed_efficiency(t, 0.075 * t, odo)
        assert np.isnan(series).any()
        assert np.isnan(series[t >= 2.0]).all()

    def test_wrapped_heading_is_unwrapped(self):
        t = np.arange(0.0, 100.0, 0.1)
        gt = np.mod(0.1 * t + math.pi, math.tau) - math.pi  # wraps several times
        series = angular_speed_efficiency(t, gt, np.full_like(t, 0.1))
        ratios = series[~np.isnan(series)]
        assert np.mean(ratios) == pytest.approx(1.0, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="time-aligned"):
            angular_speed_efficiency(np.arange(4.0), np.arange(4.0), np.arange(3.0))

    def test_too_short(self):
        with pytest.raises(DataError, match="insufficient"):
            angular_speed_efficiency(np.arange(2.0), np.arange(2.0), np.arange(2.0))

    def test_window_longer_than_the_series(self):
        t = np.arange(0.0, 1.0, 0.1)  # 10 samples 0.1 s apart
        odo = np.full_like(t, 0.1)
        series = angular_speed_efficiency(t, 0.075 * t, odo, smoothing_window_s=0.95)
        assert np.mean(series) == pytest.approx(0.75)
        for window in (1.05, 1e308):  # 1e308 / 0.1 overflows to inf
            with pytest.raises(DataError, match="window longer than the series"):
                angular_speed_efficiency(t, 0.075 * t, odo, smoothing_window_s=window)


class TestLongitudinalSlip:
    def test_basic_ratio(self):
        out = longitudinal_slip(np.array([0.06]), np.array([0.057]))
        assert out[0] == pytest.approx(0.05)

    def test_overrun_is_negative(self):
        # mocap faster than the encoders, e.g. rolling downhill
        out = longitudinal_slip(np.array([0.05]), np.array([0.055]))
        assert out[0] == pytest.approx(-0.1)

    def test_stationary_gap(self):
        out = longitudinal_slip(np.array([0.0, 0.06]), np.array([0.0, 0.06]))
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="time-aligned"):
            longitudinal_slip(np.arange(3.0), np.arange(4.0))


@settings(max_examples=100, deadline=None)
@given(
    power=st.floats(0.1, 1e4),
    v=st.floats(1e-3, 1.0),
    scale=st.floats(0.1, 10.0),
)
def test_cot_homogeneity_property(power, v, scale):
    base = cost_of_transport(power, 84.0, 9.81, v)
    scaled = cost_of_transport(power * scale, 84.0, 9.81, v * scale)
    assert math.isclose(scaled, base, rel_tol=1e-12)


@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_clamp_ratio_property(value):
    clamped = clamp_ratio(value)
    assert -RATIO_CLAMP <= clamped <= RATIO_CLAMP
    if abs(value) <= RATIO_CLAMP:
        assert clamped == value


def bits(values):
    """The bit patterns of float64 values, so that -0.0 and NaNs compare exactly."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


class TestMedian:
    """_median is np.median bit for bit; np.median is the oracle here only."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 100, 101])
    def test_random_lengths(self, n):
        rng = np.random.default_rng(n)
        for values in (
            rng.normal(size=n),
            np.round(rng.normal(size=n), 1),  # ties, and -0.0 among them
            rng.integers(-2, 3, n) * 0.0,  # only signed zeros
            np.full(n, 1e308) * rng.choice([-1.0, 1.0], n),  # sums that overflow
        ):
            with np.errstate(over="ignore"):
                assert bits(_median(values)) == bits(np.median(values))

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_nan_propagates(self, n):
        values = np.arange(n, dtype=float)
        for where in range(n):
            with_nan = values.copy()
            with_nan[where] = math.nan
            assert math.isnan(_median(with_nan))
            assert bits(_median(with_nan)) == bits(np.median(with_nan))

    def test_even_length_is_the_mean_of_the_middle_pair(self):
        assert _median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5
        assert _median(np.array([0.1, 0.2])) == (0.1 + 0.2) / 2


def hypot_loop(telemetry):
    """encoder_speed as one math.hypot per sample: the reference."""
    return np.array(
        [
            math.hypot(vx, vy)
            for vx, vy in zip(
                telemetry.column("odo_vx").tolist(), telemetry.column("odo_vy").tolist()
            )
        ]
    )


def assert_matches_hypot_loop(telemetry):
    assert np.array_equal(bits(encoder_speed(telemetry)), bits(hypot_loop(telemetry)))


NOISY_MISSION = """\
name = noisy_mission
terrain.slope_deg = 8
terrain.noise_std = 0.03
terrain.rng_seed = 5
[profile]
duration_s,vx,vy,wz,mode
4,0.05,0,0.02,skid_steer
3,0.04,-0.03,0,crab
5,0.06,0,0.03,ackermann
4,0,0,0.07,point_turn
3,-0.02,0.05,0,crab
"""


class TestEncoderSpeed:
    """encoder_speed gives the per-sample math.hypot loop bit for bit."""

    @pytest.mark.parametrize("preset", PRESET_NAMES + ROTATION_PRESETS)
    def test_presets(self, preset):
        telemetry = simulate_traverse(load_scenario(preset_path(preset)))
        assert_matches_hypot_loop(telemetry)

    def test_noisy_mission(self, tmp_path):
        path = tmp_path / "mission.scn"
        path.write_text(NOISY_MISSION)
        telemetry = simulate_traverse(load_scenario(path))
        vx, vy = telemetry.column("odo_vx"), telemetry.column("odo_vy")
        assert np.count_nonzero((vx != 0) & (vy != 0)) > 100
        assert_matches_hypot_loop(telemetry)

    def test_random_and_special_values(self):
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                    0.3, -1.5, 1e300, -1.7976931348623157e308, math.inf, -math.inf,
                    math.nan]
        pairs = np.array(list(itertools.product(specials, repeat=2)))
        rng = np.random.default_rng(11)
        wide = rng.normal(size=(3000, 2)) * 10.0 ** rng.integers(-320, 300, (3000, 2))
        wide[::3, 0] = 0.0
        wide[1::3, 1] = -0.0
        pairs = np.concatenate((pairs, wide, rng.normal(size=(3000, 2))))
        values = np.zeros((len(pairs), 36))
        values[:, 6:8] = pairs
        telemetry = Telemetry(values)
        assert_matches_hypot_loop(telemetry)
