"""Secure OFDM joint radar-communication on a switched transmit array.

A time-modulated transmit array scrambles OFDM symbols everywhere except one
steered direction; this package synthesizes those direction-dependent
signals, simulates monostatic returns from point-target scenes, recovers
angle/range/velocity through a DFT coarse stage plus subspace and
least-squares refinement, and measures the directional security of the
communication link as bit error rate versus receiver angle.
"""

__version__ = "0.1.0"

from .coarse import (
    BinPipeline,
    CoarseResult,
    DegenerateBinError,
    NoPeaksError,
    coarse_pipeline,
)
from .comms import (
    Constellation,
    awgn,
    ber,
    ber_vs_angle,
    demodulate,
    link_ber,
    modulate,
    qpsk,
    square_qam,
)
from .model import (
    CoarseEstimate,
    ConfigError,
    EstimateSet,
    Frame,
    RefinedEstimate,
    SceneError,
    SystemConfig,
    Target,
    bin_to_angle_deg,
    bin_to_range_m,
    bin_to_velocity_mps,
    config_from_dict,
    config_hash,
    config_to_dict,
    derived_resolutions,
    load_config,
    range_ramp,
    range_resolution_m,
    sample_covariance,
    slow_time_rotation,
    steering_vector,
    validate_target,
    velocity_resolution_mps,
)
from .refine import (
    RefineOptions,
    SubspaceError,
    estimate_targets,
)
from .scene import (
    GridFormatError,
    Scene,
    load_scene,
    radar_returns,
    read_grid,
    scene_from_dict,
    scene_to_dict,
    validate_scene,
    write_grid,
)
from .tma import (
    DmConditionReport,
    PatternError,
    SwitchingPattern,
    check_dm_condition,
    design_pattern,
    element_gains,
    harmonic_coefficients,
    scramble_symbols,
)
from .transforms import dft, idft

__all__ = [name for name in dir() if not name.startswith("_")]
