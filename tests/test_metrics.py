import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovermotion.config import BodyTwist, LocomotionMode, RoverConfig
from rovermotion.kinematics import ProfileSegment
from rovermotion.metrics import (
    RATIO_CLAMP,
    MetricsError,
    angular_speed_efficiency,
    clamp_ratio,
    cost_of_transport,
    energy_vs_yaw,
    longitudinal_slip,
    mean_cot,
)
from rovermotion.telemetry import Telemetry, TelemetryRecord
from rovermotion.terrain import Scenario, TerrainParams, simulate_traverse

CFG = RoverConfig()


def make_record(t, power, v, heading=0.0):
    # one drive carries the whole electrical load, which is all the
    # aggregate metrics care about
    return TelemetryRecord(
        t=t,
        pose=(v * t, 0.0, heading),
        marker=(v * t, 0.0),
        odo_twist=BodyTwist(v, 0.0, 0.0),
        commanded_twist=BodyTwist(v, 0.0, 0.0),
        drive_voltage=(24.0,) * 4,
        drive_current=(power / 24.0, 0.0, 0.0, 0.0),
        steer_voltage=(24.0,) * 4,
        steer_current=(0.0,) * 4,
        drive_speeds=(v / 0.15,) * 4,
        steering_angles=(0.0,) * 4,
    )


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
        with pytest.raises(MetricsError, match="undefined at zero velocity"):
            cost_of_transport(10.0, 84.0, 9.81, 0.0)

    def test_non_positive_mass_rejected(self):
        with pytest.raises(MetricsError, match="mass or gravity"):
            cost_of_transport(10.0, 0.0, 9.81, 0.06)


class TestMeanCot:
    def test_constant_series(self):
        records = [make_record(0.1 * k, 54.4, 0.06) for k in range(100)]
        report = mean_cot(Telemetry.from_records(records), CFG, mode="nominal")
        assert report.cost_of_transport == pytest.approx(1.100, abs=1e-9 + 0.001)
        assert report.mean_power == pytest.approx(54.4)
        assert report.mean_velocity == pytest.approx(0.06)
        assert report.mode == "nominal"

    def test_time_weighting(self):
        # a long cheap stretch and a short expensive one, uneven sampling
        records = [
            make_record(0.0, 10.0, 0.05),
            make_record(9.0, 10.0, 0.05),
            make_record(9.0 + 1e-9, 100.0, 0.05),
            make_record(10.0, 100.0, 0.05),
        ]
        report = mean_cot(Telemetry.from_records(records), CFG)
        assert report.mean_power == pytest.approx(19.0, abs=1e-3)

    def test_insufficient_samples(self):
        with pytest.raises(MetricsError, match="insufficient samples"):
            mean_cot(Telemetry.from_records([make_record(0.0, 10.0, 0.05)]), CFG)

    def test_stationary_series_undefined(self):
        records = [make_record(0.1 * k, 5.0, 0.0) for k in range(10)]
        with pytest.raises(MetricsError, match="zero velocity"):
            mean_cot(Telemetry.from_records(records), CFG)


class TestEnergyVsYaw:
    def test_empty(self):
        assert energy_vs_yaw(Telemetry.empty()).points == []

    def test_constant_rotation(self):
        # 10 W while yawing 0.1 rad/s: energy should be linear in yaw
        records = [
            make_record(0.1 * k, 10.0, 0.0, heading=0.01 * k) for k in range(101)
        ]
        curve = energy_vs_yaw(Telemetry.from_records(records), mode="point_turn")
        yaw_deg, energy = curve.points[-1]
        assert yaw_deg == pytest.approx(math.degrees(1.0))
        assert energy == pytest.approx(100.0)
        mid_yaw, mid_energy = curve.points[50]
        assert mid_energy / energy == pytest.approx(mid_yaw / yaw_deg, abs=1e-9)

    def test_reposition_shows_as_basal_offset(self):
        scenario = Scenario(
            profile=[
                ProfileSegment(20.0, BodyTwist(0, 0, 0.05), LocomotionMode.POINT_TURN)
            ]
        )
        curve = energy_vs_yaw(simulate_traverse(scenario))
        at_zero = max(e for yaw, e in curve.points if yaw < 1e-9)
        assert at_zero == pytest.approx(159.2, abs=0.5)

    def test_yaw_accumulates_magnitude(self):
        # reversing rotation still accumulates |yaw|
        headings = [0.0, 0.1, 0.2, 0.1, 0.0]
        records = [
            make_record(float(k), 10.0, 0.0, heading=h)
            for k, h in enumerate(headings)
        ]
        curve = energy_vs_yaw(Telemetry.from_records(records))
        assert curve.points[-1][0] == pytest.approx(math.degrees(0.4))


class TestAngularSpeedEfficiency:
    def test_constant_deficit(self):
        t = np.arange(0.0, 20.0, 0.1)
        gt = 0.075 * t  # true yaw rate is 75% of odometry
        odo = np.full_like(t, 0.1)
        series = angular_speed_efficiency(t, gt, odo)
        ratios = [r for _, r in series if r is not None]
        assert len(ratios) == len(t)
        assert np.mean(ratios) == pytest.approx(0.75, abs=1e-9)

    def test_gaps_below_threshold(self):
        t = np.arange(0.0, 5.0, 0.1)
        odo = np.where(t < 2.0, 0.1, 0.0)
        series = angular_speed_efficiency(t, 0.075 * t, odo)
        assert any(r is None for _, r in series)
        assert all(r is None for tt, r in series if tt >= 2.0)

    def test_wrapped_heading_is_unwrapped(self):
        t = np.arange(0.0, 100.0, 0.1)
        gt = np.mod(0.1 * t + math.pi, math.tau) - math.pi  # wraps several times
        series = angular_speed_efficiency(t, gt, np.full_like(t, 0.1))
        ratios = [r for _, r in series if r is not None]
        assert np.mean(ratios) == pytest.approx(1.0, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError, match="time-aligned"):
            angular_speed_efficiency(np.arange(4.0), np.arange(4.0), np.arange(3.0))

    def test_too_short(self):
        with pytest.raises(MetricsError, match="insufficient"):
            angular_speed_efficiency(np.arange(2.0), np.arange(2.0), np.arange(2.0))


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
        assert out[0] is None
        assert out[1] == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError, match="time-aligned"):
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
