"""Quantum spin Hall lattice simulator.

Submodules:

* ``model``      -- lattice Hamiltonians (open / ribbon / magnetic Bloch) and
  the time-reversal symmetry check;
* ``spectra``    -- eigensolves, band structures, spectral-gap detection;
* ``topology``   -- Chern numbers, the Z2 invariant and phase diagrams;
* ``edgestates`` -- near-Fermi eigenstates, site densities, edge weights;
* ``circuit``    -- dressed-state cells, drive-tone planning, full
  time-dependent evolution and rotating-wave validation;
* ``dynamics``   -- Lindblad evolution of the detection protocol;
* ``config`` / ``runner`` / ``cli`` -- run configuration, artifact output,
  command-line interface.
"""

__version__ = "0.4.0"

from . import model, spectra, topology, edgestates, circuit, dynamics  # noqa: F401

__all__ = [
    "model",
    "spectra",
    "topology",
    "edgestates",
    "circuit",
    "dynamics",
    "__version__",
]
