"""Quantum noise and dynamic back-action of Michelson-Sagnac interferometers.

Exact two-port scattering, radiation-pressure noise spectra, optical
spring/damping and optical-cooling occupancy for asymmetric signal- and
power-recycled Michelson-type interferometers, together with the
small-asymmetry reduced model and cross-validation between the two.
"""

__version__ = "0.1.0"

from .cooling import (
    CoolingResult,
    MechanicalMode,
    PumpOptimum,
    occupancy,
    occupancy_simplified,
    optimize_pump,
    pump_for_intracavity,
    thermal_occupation,
    thermal_spectra,
)
from .errors import (
    ConfigError,
    DegenerateFrequency,
    MsiNoiseError,
    NonpositiveTemperature,
    OpticalSingularity,
    SingularMatrix,
    SingularSweep,
    UnreachableField,
    UnstableSystem,
)
from .lumped_mode import (
    CouplingConstants,
    LumpedParams,
    approx_force_transfer,
    approx_rigidity,
    asymmetry_polar,
    canonical_spectra,
    coupling_constants,
    fano_spectrum,
    from_exact,
    lorentzians,
    params_for_targets,
)
from .radiation_pressure import (
    ForceNoiseSpectrum,
    RigidityBreakdown,
    force_transfer,
    noise_spectra,
    rigidity,
    rigidity_matrices,
)
from .scattering import (
    InterferometerParams,
    IntracavityField,
    PortVector,
    classical_fields,
    displacement_transfer,
    mode_mixer,
    oracle_solve,
    scattering_matrix,
)

__all__ = [
    "__version__",
    # scattering
    "InterferometerParams", "PortVector", "IntracavityField",
    "mode_mixer", "scattering_matrix", "displacement_transfer",
    "classical_fields", "oracle_solve",
    # radiation pressure
    "ForceNoiseSpectrum", "RigidityBreakdown", "force_transfer",
    "rigidity_matrices", "rigidity", "noise_spectra",
    # reduced model
    "LumpedParams", "CouplingConstants", "asymmetry_polar", "from_exact",
    "params_for_targets", "coupling_constants", "lorentzians",
    "approx_force_transfer", "approx_rigidity", "canonical_spectra",
    "fano_spectrum",
    # cooling
    "MechanicalMode", "CoolingResult", "PumpOptimum", "thermal_occupation",
    "thermal_spectra", "occupancy", "occupancy_simplified", "optimize_pump",
    "pump_for_intracavity",
    # errors
    "MsiNoiseError", "SingularMatrix", "OpticalSingularity", "SingularSweep",
    "DegenerateFrequency", "NonpositiveTemperature", "UnstableSystem",
    "UnreachableField", "ConfigError",
]
