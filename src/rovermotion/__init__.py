"""Four-wheel-steered rover locomotion simulation and telemetry analytics."""

from rovermotion.config import (
    BodyTwist,
    LocomotionMode,
    RoverConfig,
    WheelCommand,
    WheelId,
    load_config,
    validate_config,
    wheel_positions,
)
from rovermotion.kinematics import (
    forward_odometry,
    icr_of,
    inverse_kinematics,
    simulate_pose_track,
)
from rovermotion.metrics import cost_of_transport, energy_vs_yaw, mean_cot
from rovermotion.terrain import (
    PowerModelParams,
    Scenario,
    TerrainParams,
    apply_slip,
    calibrate_power,
    drive_power,
    simulate_traverse,
    steering_reposition_energy,
)

__version__ = "0.1.0"
