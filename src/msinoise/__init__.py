"""Quantum noise and dynamic back-action of Michelson-Sagnac interferometers.

Exact two-port scattering, radiation-pressure noise spectra, optical
spring/damping and optical-cooling occupancy for asymmetric signal- and
power-recycled Michelson-type interferometers, together with the
small-asymmetry reduced model and cross-validation between the two.
Each public name has one import path, the module that defines it:

- ``scattering``: the parameter and field records, `sideband_blocks`, the
  scalar views, `classical_fields`, `oracle_solve` and the SI constants.
- ``radiation_pressure``: `noise_spectra` and the rigidity.
- ``lumped_mode``: `LumpedParams`, `from_exact` and the closed forms.
- ``cooling``: `occupancy` and `optimize_pump`.
- ``config``: `parse_config`, the one reader of user JSON.
- ``outputs``: `run_spectrum`, `run_compare` and `run_cooling`, the one writer.
- ``verify``: `run_all`, the seeded invariant suite, and `CHECK_NAMES`.
- ``errors``: the exception types, all subclasses of `MsiNoiseError`.
- ``cli``: `main`, the command-line front end.
"""

__version__ = "0.1.0"
