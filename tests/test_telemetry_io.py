import math

import numpy as np
import pytest

from rovermotion.config import BodyTwist, LocomotionMode
from rovermotion.kinematics import ProfileSegment
from rovermotion.telemetry import (
    ACTUATOR_IDS,
    MOCAP_HEADER,
    ActuatorRecord,
    MocapRecord,
    TELEMETRY_HEADER,
    Telemetry,
    TelemetryFormatError,
    TelemetryRecord,
    align_series,
    parse_actuator_csv,
    parse_mocap_csv,
    read_telemetry_csv,
    write_telemetry_csv,
)
from rovermotion.terrain import Scenario, simulate_traverse


def quat_for_yaw(yaw):
    return (math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2))


def mocap_line(t, x, y, yaw, marker="m0"):
    w, qx, qy, qz = quat_for_yaw(yaw)
    return f"{t},{x},{y},0.0,{w},{qx},{qy},{qz},{marker}"


class TestTelemetryCsv:
    def test_round_trip(self, tmp_path):
        scenario = Scenario(
            profile=[
                ProfileSegment(1.0, BodyTwist(0.06, 0, 0.02), LocomotionMode.SKID_STEER)
            ]
        )
        records = simulate_traverse(scenario)
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, records)
        loaded = read_telemetry_csv(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert b.t == pytest.approx(a.t, abs=1e-6)
            assert b.pose == pytest.approx(a.pose, abs=1e-6)
            assert b.total_power == pytest.approx(a.total_power, abs=1e-4)

    def test_values_written_six_decimal(self, tmp_path):
        scenario = Scenario(
            profile=[
                ProfileSegment(0.1, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
            ]
        )
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, simulate_traverse(scenario))
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        assert all("." in c and len(c.split(".")[1]) == 6 for c in cells)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text("t,x,y\n0,0,0\n")
        with pytest.raises(TelemetryFormatError, match="header"):
            read_telemetry_csv(path)

    def test_non_increasing_time_rejected(self, tmp_path):
        scenario = Scenario(
            profile=[
                ProfileSegment(0.05, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
            ]
        )
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, simulate_traverse(scenario))
        lines = path.read_text().splitlines()
        lines.append(lines[1])  # duplicate t=0 row at the end
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TelemetryFormatError, match="non-increasing timestamp"):
            read_telemetry_csv(path)


    def test_header_only_reads_as_empty(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, Telemetry.empty())
        assert path.read_text() == ",".join(TELEMETRY_HEADER) + "\n"
        assert len(read_telemetry_csv(path)) == 0

    def test_rows_the_fast_parser_rejects_still_read(self, tmp_path):
        # CRLF line ends and quoted cells go through the row-by-row reader
        scenario = Scenario(
            profile=[
                ProfileSegment(0.1, BodyTwist(0.06, 0, 0.02), LocomotionMode.SKID_STEER)
            ]
        )
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, simulate_traverse(scenario))
        plain = read_telemetry_csv(path).values
        lines = path.read_text().splitlines()
        lines[2] = '"' + lines[2].replace(",", '","') + '"'
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert np.array_equal(read_telemetry_csv(path).values, plain)


class TestTelemetrySeries:
    @pytest.fixture
    def telemetry(self):
        return simulate_traverse(
            Scenario(
                profile=[
                    ProfileSegment(
                        1.0, BodyTwist(0, 0, 0.05), LocomotionMode.POINT_TURN
                    )
                ],
                marker_offset=(0.4, 0.1),
            )
        )

    def test_records_are_built_on_demand(self, telemetry):
        first = telemetry[0]
        assert isinstance(first, TelemetryRecord)
        assert first == telemetry[0] and first is not telemetry[0]
        assert telemetry[-1] == telemetry[len(telemetry) - 1]
        assert [r.t for r in telemetry] == telemetry.column("t").tolist()
        with pytest.raises(IndexError):
            telemetry[len(telemetry)]

    def test_from_records_round_trip(self, telemetry):
        again = Telemetry.from_records(list(telemetry))
        assert np.array_equal(again.values, telemetry.values)
        assert len(Telemetry.from_records([])) == 0

    def test_total_power_matches_the_records_bit_for_bit(self, telemetry):
        # the series starts with a steering reposition, so the steer terms vary
        assert telemetry.total_power.tolist() == [r.total_power for r in telemetry]
        noisy = Telemetry(np.random.default_rng(5).uniform(0.0, 30.0, (500, 36)))
        assert noisy.total_power.tolist() == [r.total_power for r in noisy]

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="36 columns"):
            Telemetry(np.zeros((3, 35)))


class TestMocapParsing:
    def test_parse_and_yaw(self, tmp_path):
        path = tmp_path / "mocap.csv"
        path.write_text(
            ",".join(MOCAP_HEADER)
            + "\n"
            + mocap_line(0.0, 1.0, 2.0, 0.5)
            + "\n"
            + mocap_line(0.1, 1.1, 2.0, 0.6)
            + "\n"
        )
        records = parse_mocap_csv(path)
        assert len(records) == 2
        assert records[0].position == (1.0, 2.0, 0.0)
        assert records[0].yaw == pytest.approx(0.5)
        assert records[1].marker_id == "m0"

    def test_non_unit_quaternion_line_number(self, tmp_path):
        path = tmp_path / "mocap.csv"
        path.write_text(
            ",".join(MOCAP_HEADER)
            + "\n"
            + mocap_line(0.0, 0, 0, 0.0)
            + "\n"
            + "0.1,0,0,0,0.9,0,0,0.1,m0\n"
        )
        with pytest.raises(TelemetryFormatError, match="non-unit quaternion at line 3"):
            parse_mocap_csv(path)

    def test_bad_cell_line_number(self, tmp_path):
        path = tmp_path / "mocap.csv"
        path.write_text(
            ",".join(MOCAP_HEADER) + "\n" + "0.0,oops,0,0,1,0,0,0,m0\n"
        )
        with pytest.raises(TelemetryFormatError, match=":2:"):
            parse_mocap_csv(path)

    def test_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "mocap.csv"
        path.write_text(
            ",".join(MOCAP_HEADER)
            + "\n"
            + mocap_line(1.0, 0, 0, 0.0)
            + "\n"
            + mocap_line(0.5, 0, 0, 0.0)
            + "\n"
        )
        with pytest.raises(TelemetryFormatError, match=":3: out-of-order"):
            parse_mocap_csv(path)


class TestActuatorParsing:
    def test_parse(self, tmp_path):
        path = tmp_path / "act.csv"
        path.write_text(
            "t,actuator,voltage,current,measured\n"
            "0.0,drive_fl,24.0,0.5,0.4\n"
            "0.0,steer_fl,24.0,0.1,0.0\n"
        )
        records = parse_actuator_csv(path)
        assert [r.actuator_id for r in records] == ["drive_fl", "steer_fl"]
        assert records[0].measured == 0.4

    def test_unknown_actuator(self, tmp_path):
        path = tmp_path / "act.csv"
        path.write_text("t,actuator,voltage,current,measured\n0,drive_xx,24,0,0\n")
        with pytest.raises(TelemetryFormatError, match="unknown actuator"):
            parse_actuator_csv(path)


def act(t, actuator="drive_fl", v=0.4):
    return ActuatorRecord(t, actuator, 24.0, 0.5, v)


def moc(t, x=0.0, yaw=0.0):
    return MocapRecord(t, (x, 0.0, 0.0), quat_for_yaw(yaw), "m0")


class TestAlignment:
    def test_linear_interpolation(self):
        mocap = [moc(0.0, x=0.0), moc(1.0, x=1.0)]
        actuators = [act(0.25), act(0.75)]
        samples = align_series(mocap, actuators, max_gap=1.5)
        assert samples[0].position[0] == pytest.approx(0.25)
        assert samples[1].position[0] == pytest.approx(0.75)
        assert "drive_fl" in samples[0].actuators

    def test_yaw_interpolates_across_wrap(self):
        mocap = [moc(0.0, yaw=math.pi - 0.1), moc(1.0, yaw=-math.pi + 0.1)]
        samples = align_series(mocap, [act(0.5)], max_gap=2.0)
        assert abs(samples[0].yaw) == pytest.approx(math.pi, abs=1e-9)

    def test_gap_becomes_hole(self):
        mocap = [moc(0.0), moc(0.1), moc(2.0), moc(2.1)]
        actuators = [act(0.05), act(1.0), act(2.05)]
        samples = align_series(mocap, actuators, max_gap=0.5)
        assert samples[0].position is not None
        assert samples[1].position is None and samples[1].yaw is None
        assert samples[2].position is not None

    def test_no_overlap(self):
        with pytest.raises(TelemetryFormatError, match="no temporal overlap"):
            align_series([moc(0.0), moc(1.0)], [act(5.0)], max_gap=0.5)

    def test_empty_series(self):
        with pytest.raises(TelemetryFormatError, match="no temporal overlap"):
            align_series([], [act(0.0)], max_gap=0.5)


def test_actuator_id_catalog():
    assert len(ACTUATOR_IDS) == 8
    assert ACTUATOR_IDS[0] == "drive_fl"
    assert ACTUATOR_IDS[-1] == "steer_rr"
