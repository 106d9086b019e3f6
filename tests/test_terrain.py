import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rovermotion.cli import preset_path
from rovermotion.config import BodyTwist, LocomotionMode, RoverConfig
from rovermotion.errors import DataError
from rovermotion.kinematics import ProfileSegment, inverse_kinematics
from rovermotion.telemetry import BUS_VOLTAGE, FIELD_COLUMNS
from rovermotion.terrain import (
    MAX_ROWS,
    PowerModelParams,
    Scenario,
    TerrainParams,
    apply_slip,
    calibrate_power,
    drive_power,
    load_scenario,
    model_cot,
    reposition_between,
    simulate_traverse,
)

CFG = RoverConfig()
POWER = PowerModelParams()
FLAT = TerrainParams()

# flat-ground rows of the breadboard test campaign, (slope_deg, v, cot)
FLAT_ROWS = [(0.0, 0.03, 0.646), (0.0, 0.06, 1.10), (0.0, 0.08, 1.39)]


class TestValidation:
    def test_defaults_valid(self):
        TerrainParams()
        PowerModelParams()

    def test_steep_slope_rejected(self):
        with pytest.raises(DataError, match="slope"):
            TerrainParams(slope_deg=90.0)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(DataError, match="point_turn_efficiency"):
            TerrainParams(point_turn_efficiency=0.0)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(DataError, match="rolling_resistance"):
            replace(POWER, rolling_resistance_coeff=-0.1)

    @pytest.mark.parametrize("name", [
        "slope_deg", "skid_rotation_efficiency", "point_turn_efficiency",
        "longitudinal_slip_ratio", "noise_std"])
    def test_nan_terrain_rejected(self, name):
        with pytest.raises(DataError):
            replace(FLAT, **{name: math.nan})

    @pytest.mark.parametrize("name", [
        "idle_power_per_drive", "rolling_resistance_coeff", "drivetrain_efficiency",
        "steering_hold_power", "steering_move_power", "speed_quadratic_coeff",
        "lateral_friction_coeff"])
    def test_nan_power_rejected(self, name):
        with pytest.raises(DataError):
            replace(POWER, **{name: math.nan})


class TestApplySlip:
    def test_skid_yaw_scaled(self):
        out = apply_slip(BodyTwist(0.06, 0, 0.1), LocomotionMode.SKID_STEER, FLAT)
        assert out.vx == pytest.approx(0.06 * 0.95)
        assert out.wz == pytest.approx(0.1 * 0.75)

    def test_point_turn_yaw_unscaled(self):
        out = apply_slip(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN, FLAT)
        assert out.wz == pytest.approx(0.1)


def ik_power(twist: BodyTwist, mode: LocomotionMode, terrain=FLAT, power=POWER) -> float:
    """The four drives' power, in W, for a segment of `twist` in `mode`."""
    return float(drive_power(*inverse_kinematics(twist, mode, CFG), terrain, CFG, power).sum())


class TestDrivePower:
    def test_flat_straight_matches_campaign(self):
        # the calibrated model reproduces ~54.4 W at 6 cm/s on flat ground
        drives = drive_power(
            *inverse_kinematics(BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER, CFG),
            FLAT, CFG, POWER)
        assert drives.sum() == pytest.approx(54.14, abs=0.01)
        assert drives.sum() == pytest.approx(54.4, abs=0.5)
        assert drives.shape == (4,)
        assert max(drives) == pytest.approx(min(drives))

    def test_consistent_with_model_cot(self):
        mg = CFG.mass * CFG.gravity
        for v in (0.03, 0.06, 0.08):
            total = ik_power(BodyTwist(v, 0, 0), LocomotionMode.SKID_STEER)
            assert total / (mg * v) == pytest.approx(model_cot(POWER, CFG, 0.0, v))

    def test_gravity_term_is_exact_slope_increment(self):
        # with rolling resistance off, slope adds exactly mg v sin(theta) / eta
        power = replace(POWER, rolling_resistance_coeff=0.0)
        straight = BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER
        flat_total = ik_power(*straight, power=power)
        slope_total = ik_power(*straight, TerrainParams(slope_deg=15.0), power)
        expected = (
            CFG.mass * CFG.gravity * 0.06 * math.sin(math.radians(15.0))
        )
        assert slope_total - flat_total == pytest.approx(expected, rel=1e-12)

    def test_skid_rotation_costs_more_per_achieved_yaw(self):
        # scrub drag plus the yaw deficit make skid rotation the steeper slope
        skid_total = ik_power(BodyTwist(0, 0, 0.05), LocomotionMode.SKID_STEER)
        pt_total = ik_power(BodyTwist(0, 0, 0.05), LocomotionMode.POINT_TURN)
        skid_rate = 0.05 * FLAT.skid_rotation_efficiency
        pt_rate = 0.05 * FLAT.point_turn_efficiency
        assert skid_total / skid_rate > pt_total / pt_rate

    def test_steering_power_states(self):
        # the steering units draw hold power while the rover drives
        power = replace(POWER, steering_hold_power=1.5)
        profile = [ProfileSegment(0.1, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)]
        telemetry = simulate_traverse(Scenario(profile=profile, power=power))
        steer = telemetry.values[:, FIELD_COLUMNS["steer_current"]]
        assert (steer == 1.5 / BUS_VOLTAGE).all()


def ik_angles(twist: BodyTwist, mode: LocomotionMode) -> list[float]:
    """The steering angles a segment of `twist` in `mode` slews to."""
    return inverse_kinematics(twist, mode, CFG)[1].tolist()


SKID = ik_angles(BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
POINT_TURN = ik_angles(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN)


class TestReposition:
    def test_neutral_to_point_turn(self):
        energy, duration = reposition_between(SKID, POINT_TURN, CFG, POWER)
        # widest slew is the folded front-left angle, ~49.74 deg at 10 deg/s
        assert duration == pytest.approx(4.974, abs=0.001)
        assert energy == pytest.approx(4 * POWER.steering_move_power * duration)
        assert energy == pytest.approx(159.16, abs=0.01)

    def test_matches_the_simulated_phase(self):
        # crab at atan2(0.03, 0.05), then point turn: FL and RR slew ~80.7 deg,
        # FR and RL ~18.8 deg, so units arrive at different times
        crab = BodyTwist(0.05, 0.03, 0)
        profile = [
            ProfileSegment(2.0, crab, LocomotionMode.CRAB),
            ProfileSegment(2.0, BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN),
        ]
        # with idle power, each drive draws it for the whole phase, 4 * 5 W * 8.07 s
        for idle, expected in [(0.0, 159.16), (5.0, 320.56)]:
            power = replace(POWER, idle_power_per_drive=idle)
            telemetry = simulate_traverse(Scenario(profile=profile, power=power))
            still = ~telemetry.values[:, FIELD_COLUMNS["commanded_twist"]].any(axis=1)
            phase = still & (np.cumsum(~still) > 0)  # the still rows after the crab
            # each row holds for a step
            simulated = telemetry.total_power[phase].sum() * 0.01
            energy, duration = reposition_between(
                ik_angles(crab, LocomotionMode.CRAB), POINT_TURN, CFG, power
            )
            assert energy == pytest.approx(expected, abs=0.01)
            # the phase rounds up to whole steps: at most a step of every unit
            assert energy == pytest.approx(
                simulated, abs=4 * (power.steering_move_power + idle) * 0.01)
            assert duration == pytest.approx(phase.sum() * 0.01, abs=0.01)

    def test_hold_power_for_the_rest_of_the_phase(self):
        power = replace(POWER, steering_hold_power=1.5)
        rate = CFG.steering_rate
        energy, duration = reposition_between(
            [0.0] * 4, [4 * rate, rate, 0.0, -2 * rate], CFG, power
        )
        assert duration == pytest.approx(4.0)
        moving = 4.0 + 1.0 + 0.0 + 2.0
        assert energy == pytest.approx(
            power.steering_move_power * moving + 1.5 * (4 * duration - moving)
        )

    def test_no_slew_no_energy(self):
        ackermann = ik_angles(BodyTwist(0.06, 0, 0), LocomotionMode.ACKERMANN)
        energy, duration = reposition_between(SKID, ackermann, CFG, POWER)
        assert energy == 0.0
        assert duration == 0.0

    def test_crab_slews_to_its_heading(self):
        # every unit turns to atan2(vy, vx), which the simulator charges too
        crab = ik_angles(BodyTwist(0.05, 0.03, 0), LocomotionMode.CRAB)
        energy, duration = reposition_between(SKID, crab, CFG, POWER)
        assert duration == pytest.approx(math.atan2(0.03, 0.05) / CFG.steering_rate)
        assert energy == pytest.approx(4 * POWER.steering_move_power * duration)


class TestSimulateTraverse:
    def test_empty_profile(self):
        assert len(simulate_traverse(Scenario(profile=[]))) == 0

    def test_straight_flat_run(self):
        scenario = Scenario(
            profile=[
                ProfileSegment(30.0, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
            ]
        )
        records = simulate_traverse(scenario)
        assert len(records) == 3001
        assert records.column("t")[0] == 0.0
        assert records.column("t")[-1] == pytest.approx(30.0)
        # ground truth integrates the slip-reduced speed
        assert records.column("x")[-1] == pytest.approx(30.0 * 0.06 * 0.95)
        # odometry reports the commanded twist
        assert records.column("odo_vx")[-1] == pytest.approx(0.06)
        assert records.total_power[10] == pytest.approx(54.14, abs=0.01)

    def test_skid_rotation_yaw_deficit(self):
        # commanding 180 deg of odometric yaw yields ~135 deg of true yaw
        duration = math.pi / 0.05
        scenario = Scenario(
            profile=[
                ProfileSegment(duration, BodyTwist(0, 0, 0.05), LocomotionMode.SKID_STEER)
            ]
        )
        records = simulate_traverse(scenario)
        gt_yaw = math.degrees(records.column("heading")[-1])
        assert gt_yaw == pytest.approx(135.0, abs=0.01)

    def test_point_turn_inserts_reposition(self):
        scenario = Scenario(
            profile=[
                ProfileSegment(10.0, BodyTwist(0, 0, 0.05), LocomotionMode.POINT_TURN)
            ],
            marker_offset=(0.4, 0.0),
        )
        records = simulate_traverse(scenario)
        t, odo_wz = records.column("t"), records.column("odo_wz")
        # reposition phase first: body static, steering drawing move power
        assert (records.column("x")[0], records.column("y")[0],
                records.column("heading")[0]) == (0.0, 0.0, 0.0)
        assert records.column("i_steer_fl")[0] * 24 == pytest.approx(
            PowerModelParams().steering_move_power
        )
        assert odo_wz[0] == 0.0
        slew_steps = sum(1 for wz, t_s in zip(odo_wz, t) if wz == 0.0 and t_s < 6)
        assert slew_steps == pytest.approx(498, abs=1)
        # marker stays on its circle during rotation
        moving = odo_wz != 0.0
        for x, y in zip(records.column("marker_x")[moving],
                        records.column("marker_y")[moving]):
            assert math.hypot(x, y) == pytest.approx(0.4, abs=1e-9)

    def test_noise_is_bit_reproducible(self):
        scenario = Scenario(
            profile=[
                ProfileSegment(5.0, BodyTwist(0.06, 0, 0.02), LocomotionMode.SKID_STEER)
            ],
            terrain=TerrainParams(noise_std=0.05, rng_seed=3),
        )
        a = simulate_traverse(scenario)
        b = simulate_traverse(scenario)
        pose = ("x", "y", "heading")
        assert [a.column(n).tolist() for n in pose] == [b.column(n).tolist() for n in pose]

    @pytest.mark.parametrize("preset", ["rotation_skid", "rotation_point_turn"])
    def test_working_memory_is_the_result_and_a_few_columns(self, preset):
        # numpy reports its allocations to tracemalloc, so the peak is exact
        scenario = load_scenario(preset_path(preset))
        simulate_traverse(scenario)  # lazy imports and caches first
        tracemalloc.start()
        try:
            telemetry = simulate_traverse(scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(telemetry) > 10_000
        assert peak < 1.6 * telemetry.values.nbytes

    @pytest.mark.parametrize("step, duration", [
        (0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.01, math.inf), (0.01, math.nan)])
    def test_step_and_duration_must_be_positive_and_finite(self, step, duration):
        # the segment and the scenario check themselves when built, the segment first
        message = (f"duration = {duration!r} outside (0, 10000000]" if step == 0.01
                   else f"step = {step!r} outside (0, 1]")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            profile = [
                ProfileSegment(duration, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
            ]
            simulate_traverse(Scenario(profile=profile, step=step))

    @pytest.mark.parametrize("step, duration, message", [
        (0.01, 1e308, "duration = 1e+308 outside (0, 10000000]"),
        (5e-324, 2.0, f"the profile plans more than {MAX_ROWS} telemetry rows"),
        (0.01, 1e20, "duration = 1e+20 outside (0, 10000000]"),
        (0.01, 1e6, f"the profile plans more than {MAX_ROWS} telemetry rows")],
        ids=["duration_1e308", "step_5e-324", "duration_1e20", "duration_1e6"])
    def test_row_count_is_refused_before_it_is_allocated(self, step, duration, message):
        # a duration past the declared range is refused as the segment is
        # built; 2 / 5e-324 is inf, and 1e6 / 0.01 is past MAX_ROWS
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            profile = [
                ProfileSegment(duration, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
            ]
            simulate_traverse(Scenario(profile=profile, step=step))

    def test_a_refusal_names_the_segment_it_plans(self):
        profile = [
            ProfileSegment(0.05, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER, "a:5"),
            ProfileSegment(1e6, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER, "a:6"),
        ]
        with pytest.raises(DataError, match=f"^a:6: the profile plans more than {MAX_ROWS} "):
            simulate_traverse(Scenario(profile=profile))
        profile[1] = ProfileSegment(1.0, BodyTwist(0, 0, 0.1), LocomotionMode.CRAB, "a:6")
        with pytest.raises(DataError, match="^a:6: yaw rate unsupported in crab mode$"):
            simulate_traverse(Scenario(profile=profile))

    def test_different_seed_diverges(self):
        base = dict(
            profile=[
                ProfileSegment(5.0, BodyTwist(0.06, 0, 0.02), LocomotionMode.SKID_STEER)
            ]
        )
        a = simulate_traverse(
            Scenario(**base, terrain=TerrainParams(noise_std=0.05, rng_seed=3))
        )
        b = simulate_traverse(
            Scenario(**base, terrain=TerrainParams(noise_std=0.05, rng_seed=4))
        )
        pose = ("x", "y", "heading")
        assert [a.column(n)[-1] for n in pose] != [b.column(n)[-1] for n in pose]


class TestCalibration:
    def test_flat_rows_fit_tightly(self):
        params, residuals = calibrate_power(FLAT_ROWS, CFG)
        assert max(abs(r) for r in residuals) <= 0.15
        assert params.rolling_resistance_coeff == pytest.approx(0.201, abs=1e-3)
        assert params.speed_quadratic_coeff == pytest.approx(3069.549, abs=0.01)
        assert params.idle_power_per_drive == 0.0

    def test_defaults_are_the_flat_fit(self):
        params, _ = calibrate_power(FLAT_ROWS, CFG)
        assert POWER.rolling_resistance_coeff == pytest.approx(
            params.rolling_resistance_coeff
        )
        assert POWER.speed_quadratic_coeff == pytest.approx(
            params.speed_quadratic_coeff
        )

    def test_synthetic_round_trip(self):
        truth = replace(
            POWER,
            idle_power_per_drive=1.5,
            rolling_resistance_coeff=0.18,
            speed_quadratic_coeff=2500.0,
        )
        rows = [
            (s, v, model_cot(truth, CFG, s, v))
            for s in (0.0, 5.0, 10.0)
            for v in (0.02, 0.05, 0.09)
        ]
        fitted, residuals = calibrate_power(rows, CFG)
        assert max(abs(r) for r in residuals) < 1e-9
        assert fitted.idle_power_per_drive == pytest.approx(1.5, abs=1e-6)
        assert fitted.rolling_resistance_coeff == pytest.approx(0.18, abs=1e-9)
        assert fitted.speed_quadratic_coeff == pytest.approx(2500.0, abs=1e-5)

    def test_underdetermined_rejected(self):
        with pytest.raises(DataError, match="underdetermined"):
            calibrate_power(FLAT_ROWS[:2], CFG)

    def test_zero_velocity_rejected(self):
        # CalibrationRow's declared range refuses it in a table; here 4 / (m g v)
        # is inf
        with pytest.raises(DataError, match="^calibration terms out of floating-point"):
            calibrate_power([(0, 0.0, 1.0)] + FLAT_ROWS, CFG)

    def test_a_fit_outside_the_declared_ranges_is_refused(self):
        # a quadratic coefficient of 2e6 W s^2/m^2
        mg = CFG.mass * CFG.gravity
        rows = [(0.0, v, 0.2 + 4.0 * 2e6 * v / mg) for v in (0.03, 0.06, 0.08)]
        with pytest.raises(DataError, match=r"^speed_quadratic_coeff = .* outside "):
            calibrate_power(rows, CFG)

    @pytest.mark.parametrize("rows, config", [
        (FLAT_ROWS + [(0.0, 1e308, 1.39)], CFG),  # 4 v / (m g) overflows
        (FLAT_ROWS, RoverConfig(mass=5e-324)),  # m g v rounds to 0
        # the all-zero start's misfit is inf, so no fit could improve on it
        ([(0.0, 0.03, 1e308)] + FLAT_ROWS, CFG),
    ], ids=["velocity_1e308", "mass_5e-324", "cot_1e308"])
    def test_terms_out_of_range_are_refused_before_the_fit(self, rows, config):
        with pytest.raises(DataError, match="^calibration terms out of floating-point"):
            calibrate_power(rows, config)


class TestScenarioFiles:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "run.scn"
        path.write_text(
            "name = demo\n"
            "step = 0.02\n"
            "marker_offset_x = 0.4\n"
            "terrain.slope_deg = 10\n"
            "power.drawbar_force = 25\n"
            "config.mass = 90\n"
            "[profile]\n"
            "duration_s,vx,vy,wz,mode\n"
            "12,0.06,0,0,skid_steer\n"
        )
        scenario = load_scenario(path)
        assert scenario.name == "demo"
        assert scenario.step == 0.02
        assert scenario.marker_offset == (0.4, 0.0)
        assert scenario.terrain.slope_deg == 10.0
        assert scenario.power.drawbar_force == 25.0
        assert scenario.config.mass == 90.0
        assert scenario.profile[0].duration == 12.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("terrain.slope = 10\n[profile]\nduration_s,vx,vy,wz,mode\n")
        with pytest.raises(DataError, match="unknown keys: terrain.slope$"):
            load_scenario(path)

    def test_rng_seed_loads_as_an_integer(self, tmp_path):
        path = tmp_path / "seeded.scn"
        path.write_text("terrain.rng_seed = 12\n[profile]\nduration_s,vx,vy,wz,mode\n")
        seed = load_scenario(path).terrain.rng_seed
        assert seed == 12 and type(seed) is int

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(
            "terrain.slope_deg = steep\n[profile]\nduration_s,vx,vy,wz,mode\n"
        )
        with pytest.raises(DataError, match="non-numeric terrain.slope_deg 'steep'"):
            load_scenario(path)

    def test_profile_errors_name_the_file_line(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(
            "name = x\n# comment\n[profile]\nduration_s,vx,vy,wz,mode\n"
            "1,0.06,0,0,skid_steer\n1,0.06,0,0\n"
        )
        with pytest.raises(DataError, match=f"^{path}:6: expected 5 columns, got 4$"):
            load_scenario(path)

    def test_missing_profile_rejected(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("name = x\n")
        with pytest.raises(DataError, match="profile"):
            load_scenario(path)
