"""Edge-state extraction, density maps and localization measures."""

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from qshsim.errors import GaplessError, ParameterError
from qshsim.edgestates import (
    DEFAULT_RING_DEPTH,
    DensityMap,
    edge_eigenstates,
    edge_ring_mask,
    edge_weight,
    site_density,
)
from qshsim import spectra
from qshsim.model import ModelParams, apply_time_reversal, open_hamiltonian
from qshsim.topology import bulk_gap_at

A13 = Fraction(1, 3)
TOPO6 = ModelParams(alpha=A13, nx=6, ny=6)
METAL6 = ModelParams(alpha=A13, beta=0.1, lam=1.0, nx=6, ny=6)
#: the smaller edge-state lattice of the benchmark's task mix, with beta != 0
MIX24 = ModelParams(alpha=A13, beta=0.03, lam=0.2, nx=24, ny=24)


def test_edge_eigenstates_ordering_and_normalization():
    states = edge_eigenstates(TOPO6, 1.5, count=4)
    dists = [abs(e - 1.5) for e, _ in states]
    assert dists == sorted(dists)
    for _, v in states:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    with pytest.raises(ParameterError):
        edge_eigenstates(TOPO6, 1.5, count=0)


def test_site_density_uniform_and_single_site():
    n = 2 * 6 * 6
    uniform = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    dmap = site_density(uniform, 6, 6)
    assert np.allclose(dmap.density, 1.0 / 36.0)
    assert abs(dmap.density.sum() - 1.0) < 1e-9

    single = np.zeros(n, dtype=complex)
    single[0] = 1.0  # spin-up at (m=0, n=0), i.e. site (1,1)
    dmap = site_density(single, 6, 6)
    assert dmap.density[0, 0] == 1.0
    assert dmap.density.sum() == 1.0


def test_spin_channel_maps_mirror_under_time_reversal():
    energy, state = edge_eigenstates(TOPO6, 1.5, count=1)[0]
    partner = apply_time_reversal(state)
    # per-site (spin up, spin down) probabilities, sites n-major
    up = (np.abs(state) ** 2).reshape(6, 6, 2)[:, :, 0]
    dn = (np.abs(partner) ** 2).reshape(6, 6, 2)[:, :, 1]
    assert np.allclose(up, dn, atol=1e-12)


def test_edge_weight_examples():
    mask = edge_ring_mask(6, 6, 1)
    assert mask.sum() == 20  # perimeter sites of a 6x6 lattice

    perim = np.where(mask, 1.0 / 20.0, 0.0)
    dmap = DensityMap(nx=6, ny=6, density=perim)
    assert abs(edge_weight(dmap, 1) - 1.0) < 1e-12

    uniform = DensityMap(nx=6, ny=6, density=np.full((6, 6), 1.0 / 36.0))
    assert abs(edge_weight(uniform, 1) - 20.0 / 36.0) < 1e-12
    assert abs(edge_weight(uniform, 2) - 32.0 / 36.0) < 1e-12

    with pytest.raises(ParameterError):
        edge_weight(uniform, 3)  # ring depth must stay below min(nx,ny)/2


def test_topological_states_hug_the_perimeter():
    for e, v in edge_eigenstates(TOPO6, 1.5, count=2):
        dmap = site_density(v, 6, 6)
        assert edge_weight(dmap, 1) >= 0.85
        assert edge_weight(dmap, 2) >= 0.9


def test_large_lattice_edge_state():
    p42 = ModelParams(alpha=A13, nx=42, ny=42)
    energy, state = edge_eigenstates(p42, 1.5, count=1)[0]
    w = edge_weight(site_density(state, 42, 42), 2)
    assert w >= 0.6


def test_metal_states_leak_into_the_interior():
    energy, state = edge_eigenstates(METAL6, 1.5, count=1)[0]
    w1 = edge_weight(site_density(state, 6, 6), 1)
    assert w1 <= 0.80  # clearly below the topological ~0.93

    # the discrimination is geometry-limited at ring depth 2 on 6x6 (the ring
    # covers 32 of 36 sites); depth 1 separates the phases cleanly
    topo_w1 = edge_weight(
        site_density(edge_eigenstates(TOPO6, 1.5, 1)[0][1], 6, 6), 1
    )
    assert topo_w1 - w1 >= 0.15

    p42m = ModelParams(alpha=A13, beta=0.1, lam=1.0, nx=42, ny=42)
    em, vm = edge_eigenstates(p42m, 1.5, count=1)[0]
    w42m = edge_weight(site_density(vm, 42, 42), 2)
    p42 = ModelParams(alpha=A13, nx=42, ny=42)
    et, vt = edge_eigenstates(p42, 1.5, count=1)[0]
    w42t = edge_weight(site_density(vt, 42, 42), 2)
    assert w42t - w42m >= 0.25  # on the large lattice ring depth 2 separates


def test_kramers_pairing_of_midgap_states():
    states = edge_eigenstates(TOPO6, 1.5, count=4)
    energies = np.array([e for e, _ in states])
    # each level appears twice
    assert abs(energies[0] - energies[1]) < 1e-9
    assert abs(energies[2] - energies[3]) < 1e-9
    v0, v1 = states[0][1], states[1][1]
    tv = apply_time_reversal(v0)
    assert abs(np.vdot(v0, tv)) < 1e-10  # Kramers orthogonality
    span = np.stack([v0, v1], axis=1)
    residual = tv - span @ (span.conj().T @ tv)
    assert np.linalg.norm(residual) < 1e-8  # partner lies in the eigenspace


def test_density_normalization_property():
    for params in (TOPO6, METAL6):
        for e, v in edge_eigenstates(params, 1.5, count=3):
            density = site_density(v, params.nx, params.ny).density
            assert abs(density.sum() - 1.0) < 1e-9


#: smallest lattice side considered free of strong finite-size artifacts
RELIABLE_MIN_SIDE = 6


@dataclass
class SizeScanRow:
    nx: int
    ny: int
    energy: float
    edge_weight: float
    in_bulk_gap: bool
    reliable: bool


def size_effect_scan(sizes, params, e_f, ring_depth=DEFAULT_RING_DEPTH):
    """Edge weight and midgap isolation of the nearest-``e_f`` state per lattice size.

    ``in_bulk_gap`` records whether the state's energy falls inside the bulk
    spectral gap around ``e_f`` (gap from the periodic bands, so it is shared
    by all sizes); ``reliable`` flags sides below the finite-size threshold.
    On lattices too small for the requested ring depth the deepest valid ring
    is used instead (a 4x4 lattice only supports depth 1).
    """
    for nx, ny in sizes:
        if nx < 4 or ny < 4:
            raise ParameterError("size scan needs lattices of at least 4x4")
    try:
        g_lo, g_hi = bulk_gap_at(params, e_f)
    except GaplessError:
        g_lo, g_hi = np.nan, np.nan
    rows = []
    for nx, ny in sizes:
        p = dataclasses.replace(params, nx=nx, ny=ny)
        energy, state = edge_eigenstates(p, e_f, count=1)[0]
        ring = min(ring_depth, (min(nx, ny) - 1) // 2)
        rows.append(SizeScanRow(
            nx=nx,
            ny=ny,
            energy=energy,
            edge_weight=edge_weight(site_density(state, nx, ny), ring),
            in_bulk_gap=bool(np.isfinite(g_lo) and g_lo < energy < g_hi),
            reliable=min(nx, ny) >= RELIABLE_MIN_SIDE,
        ))
    return rows


def _dense_nearest(h, e0, count):
    """Oracle: the ``count`` eigenpairs nearest ``e0`` from a full dense solve.

    Ties in |E - e0| go to the lower energy; the result is ascending.
    """
    vals, vecs = np.linalg.eigh(h.toarray())
    order = np.lexsort((vals, np.abs(vals - e0)))[:count]
    order = order[np.argsort(vals[order])]
    return vals[order], vecs[:, order]


def test_size_effect_scan():
    rows = size_effect_scan([(6, 6), (9, 9), (12, 12)], ModelParams(alpha=A13), 1.5)
    weights = [r.edge_weight for r in rows]
    assert max(weights) - min(weights) < 0.15  # stable across sizes
    assert all(r.in_bulk_gap for r in rows)
    assert all(r.reliable for r in rows)

    small = size_effect_scan([(4, 4)], ModelParams(alpha=A13), 1.5)[0]
    assert not small.reliable

    with pytest.raises(ParameterError):
        size_effect_scan([(3, 4)], ModelParams(alpha=A13), 1.5)


def test_size_effect_scan_gapless_bulk_and_unexpected_errors(monkeypatch):
    # a metallic bulk has no gap to lie in; any other failure is not a metal
    row = size_effect_scan([(6, 6)], METAL6, 1.5)[0]
    assert not row.in_bulk_gap

    def broken(*args, **kwargs):
        raise ValueError("defect in the gap search")

    monkeypatch.setitem(globals(), "bulk_gap_at", broken)
    with pytest.raises(ValueError, match="defect"):
        size_effect_scan([(6, 6)], TOPO6, 1.5)


def test_size_scan_qualitative_agreement_small_vs_large():
    rows = size_effect_scan([(6, 6), (42, 42)], ModelParams(alpha=A13), 1.5)
    assert all(r.edge_weight >= 0.6 for r in rows)
    assert all(r.in_bulk_gap for r in rows)


@pytest.mark.parametrize(
    "params, count",
    [(MIX24, 1), (TOPO6, 1), (TOPO6, 4), (METAL6, 1), (METAL6, 3)],
    ids=["mix24-1", "topo6-1", "topo6-4", "metal6-1", "metal6-3"],
)
def test_shift_invert_edge_states_match_dense_oracle(monkeypatch, params, count):
    # any unit vector of a Kramers pair has the same spin-summed density, so
    # the shift-invert states must reproduce the dense densities one by one
    arpack_calls = []
    eigsh = spectra.spla.eigsh

    def counted(*args, **kwargs):
        arpack_calls.append(kwargs.get("k"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectra.spla, "eigsh", counted)
    states = edge_eigenstates(params, 1.5, count)
    assert arpack_calls == [count]
    vals, vecs = _dense_nearest(open_hamiltonian(params), 1.5, count)
    order = np.argsort(np.abs(vals - 1.5), kind="stable")
    assert len(states) == count
    nx, ny = params.nx, params.ny
    for (energy, state), i in zip(states, order):
        assert abs(energy - vals[i]) <= 1e-10
        found = site_density(state, nx, ny)
        oracle = site_density(vecs[:, i], nx, ny)
        assert np.max(np.abs(found.density - oracle.density)) <= 1e-12
        for ring in (1, 2):
            assert abs(edge_weight(found, ring) - edge_weight(oracle, ring)) <= 1e-12
