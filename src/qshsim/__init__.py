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

``import qshsim`` loads none of them: each loads on first use, as
``qshsim.model`` or ``from qshsim import model``.  Only the tasks that
need ``scipy.sparse`` load it: ``edge_states`` (the real-space eigensolve)
and ``lindblad`` (``dynamics``), and ``config.normalize`` of such a config
loads it before the run.
"""

import importlib

__version__ = "0.4.0"

__all__ = [
    "model",
    "spectra",
    "topology",
    "edgestates",
    "circuit",
    "dynamics",
    "__version__",
]


def __getattr__(name):
    """The submodule ``name`` of ``__all__``, imported on first use."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
