"""Eigensolver contracts, band structures and gap detection."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshsim.errors import ParameterError
from qshsim.model import ModelParams, bloch_stack, open_hamiltonian, ribbon_stack
from qshsim import spectra
from qshsim.spectra import (
    GAP_THRESHOLD,
    BandData,
    bulk_bands,
    eig_hermitian,
    find_gap,
    gap_in_window,
    momentum_grid,
    quarter_zone_bands,
    quarter_zone_gap,
    ribbon_bands,
)

A13 = Fraction(1, 3)


def _dense_nearest(h, e0, count):
    """Oracle: the ``count`` eigenpairs nearest ``e0`` from a full dense solve.

    Ties in |E - e0| go to the lower energy; the result is ascending.
    """
    vals, vecs = np.linalg.eigh(h.toarray())
    order = np.lexsort((vals, np.abs(vals - e0)))[:count]
    order = order[np.argsort(vals[order])]
    return vals[order], vecs[:, order]


def test_eig_bloch_spin_degenerate_pairs():
    h = bloch_stack(ModelParams(alpha=A13), [0.0], [0.0])[0, 0]
    vals = np.linalg.eigvalsh(h)
    assert vals.size == 12
    assert np.allclose(vals[0::2], vals[1::2], atol=1e-9)


def test_eig_window_and_nearest_modes():
    h = np.diag(np.arange(10.0))
    vals, vecs = eig_hermitian(h, nearest=(4.2, 3))
    assert np.allclose(vals, [3, 4, 5])


def test_sparse_path_agrees_with_dense_small_instance():
    # the shift-invert interior solve must match the dense oracle
    p = ModelParams(alpha=A13, nx=10, ny=10)
    h = open_hamiltonian(p)
    dv, _ = _dense_nearest(h, 1.5, 8)
    sv, svec = eig_hermitian(h, nearest=(1.5, 8))
    assert np.allclose(np.sort(dv), np.sort(sv), atol=1e-8)
    mat = h.toarray()
    for k in range(sv.size):
        assert np.linalg.norm(mat @ svec[:, k] - sv[k] * svec[:, k]) < 1e-8


def test_nearest_returns_every_requested_pair():
    # shift-invert serves at most dim - 2 pairs; larger requests go dense
    h = open_hamiltonian(ModelParams(alpha=A13, beta=0.1, lam=0.5, nx=3, ny=3))
    dim = h.shape[0]
    dense_all = np.linalg.eigvalsh(h.toarray())
    for count in (dim - 2, dim - 1, dim):
        vals, vecs = eig_hermitian(h, nearest=(1.5, count))
        dv, _ = _dense_nearest(h, 1.5, count)
        assert len(vals) == count and vecs.shape == (dim, count)
        assert np.allclose(vals, dv, atol=1e-10)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(count), atol=1e-12)
    assert np.allclose(eig_hermitian(h, nearest=(1.5, dim))[0], dense_all)
    for count in (0, dim + 1):
        with pytest.raises(ParameterError):
            eig_hermitian(h, nearest=(1.5, count))


def test_momentum_grid_contains_trims():
    ks = momentum_grid(101)  # odd counts are rounded up to even
    assert ks.size == 102
    assert np.any(np.isclose(ks, 0.0))
    assert np.any(np.isclose(ks, -math.pi))  # -pi is pi modulo 2*pi


def test_bulk_bands_flux_third():
    bands = bulk_bands(ModelParams(alpha=A13), (32, 32))
    assert bands.nbands == 12
    assert np.all(np.diff(bands.energies, axis=-1) >= -1e-12)
    # three doubly-spin-degenerate groups of folded pairs
    assert np.allclose(
        bands.energies[..., 0::2], bands.energies[..., 1::2], atol=1e-9
    )
    flat = bands.flat_energies()
    groups = [(-2.8, -1.9), (-0.8, 0.8), (1.9, 2.8)]
    for lo, hi in groups:
        assert np.any((flat > lo) & (flat < hi))
    assert not np.any((flat > 1.0) & (flat < 1.99))  # the upper gap


def test_bulk_bands_zero_flux_cosine():
    bands = bulk_bands(ModelParams(alpha=Fraction(0, 1)), (32, 32))
    flat = bands.flat_energies()
    assert math.isclose(flat.min(), -4.0, abs_tol=1e-9)
    assert math.isclose(flat.max(), 4.0, abs_tol=1e-9)


def test_band_partition_covers_extent():
    bands = bulk_bands(ModelParams(alpha=A13), (24, 24))
    flat = bands.flat_energies()
    widths = np.diff(flat)
    clusters = widths[widths <= 0.05].sum()  # in-band level spacings
    gaps = widths[widths > 0.05].sum()
    assert abs((clusters + gaps) - (flat.max() - flat.min())) < 1e-9


def test_bulk_grid_too_small():
    with pytest.raises(ParameterError):
        bulk_bands(ModelParams(alpha=A13), (8, 8))


def test_ribbon_bands_localization_topological_and_metal():
    topo = ribbon_bands(ModelParams(alpha=A13, lam=1.0), 42, 102)
    ingap = (topo.energies > 1.0) & (topo.energies < 2.0)
    assert ingap.any()
    either = np.maximum(topo.localization[..., 0], topo.localization[..., 1])
    assert either[ingap].max() >= 0.6  # edge branches live in the gap

    metal = ribbon_bands(ModelParams(alpha=A13, beta=0.1, lam=1.0), 42, 102)
    ingap_m = (metal.energies > 1.0) & (metal.energies < 2.0)
    either_m = np.maximum(metal.localization[..., 0], metal.localization[..., 1])
    assert either_m[ingap_m].min() < 0.3  # bulk-delocalized states in the window


def test_ribbon_spin_branches_mirror_at_beta_zero():
    bd = ribbon_bands(ModelParams(alpha=A13), 12, 102)
    ny = 12
    kxs = bd.kx
    p = ModelParams(alpha=A13, ny=ny)
    for kx in (0.3, 1.1):
        up = np.linalg.eigvalsh(ribbon_stack(p, ny, [kx])[0][0::2, 0::2])
        dn = np.linalg.eigvalsh(ribbon_stack(p, ny, [-kx])[0][1::2, 1::2])
        assert np.allclose(up, dn, atol=1e-10)


def test_ribbon_preconditions():
    with pytest.raises(ParameterError):
        ribbon_bands(ModelParams(alpha=A13), 8, 102)  # fewer than 2*lcm(q,2) rows
    with pytest.raises(ParameterError):
        ribbon_bands(ModelParams(alpha=A13), 42, 50)


def test_gap_in_window_examples():
    topo = bulk_bands(ModelParams(alpha=A13), (64, 64))
    r = gap_in_window(topo, (1.0, 2.0), GAP_THRESHOLD)
    assert r.is_gapped and r.gap[0] < 1.5 < r.gap[1]

    metal = bulk_bands(ModelParams(alpha=A13, beta=0.1, lam=1.0), (64, 64))
    assert not gap_in_window(metal, (1.0, 2.0), GAP_THRESHOLD).is_gapped

    # the flux-free cosine band is continuous through the window; at the
    # reference 64x64 grid the sampling artifacts stay below the threshold
    cosine = bulk_bands(ModelParams(alpha=Fraction(0, 1)), (64, 64))
    assert not gap_in_window(cosine, (1.0, 2.0), GAP_THRESHOLD).is_gapped

    with pytest.raises(ParameterError):
        find_gap(np.array([1.0]), (2.0, 2.0), GAP_THRESHOLD)


def test_gap_report_grid_refinement_stable():
    for params, expect in [
        (ModelParams(alpha=A13), True),
        (ModelParams(alpha=A13, beta=0.1, lam=1.0), False),
        (ModelParams(alpha=Fraction(0, 1)), False),
    ]:
        r1 = gap_in_window(bulk_bands(params, (64, 64)), (1.0, 2.0), GAP_THRESHOLD)
        r2 = gap_in_window(bulk_bands(params, (128, 128)), (1.0, 2.0), GAP_THRESHOLD)
        assert r1.is_gapped == r2.is_gapped == expect


def test_spin_degeneracy_even_multiplicity_any_lambda():
    for lam in (0.0, 0.7, 1.3):
        bands = bulk_bands(ModelParams(alpha=A13, lam=lam), (16, 16))
        e = bands.energies.reshape(-1, bands.nbands)
        assert np.allclose(e[:, 0::2], e[:, 1::2], atol=1e-9)


@pytest.mark.parametrize("chunk", [4096, 100])
@pytest.mark.parametrize(
    "alpha, beta, lam",
    [
        (A13, 0.07, 0.4),
        (Fraction(2, 5), 0.13, 1.1),
        (Fraction(1, 2), 0.05, 0.7),
        (Fraction(0, 1), 0.21, 1.7),
        (Fraction(1, 4), 0.16, 0.3),
    ],
)
def test_half_zone_energies_match_full_grid(monkeypatch, chunk, alpha, beta, lam):
    # time reversal plus the x mirror: the kx <= 0, ky <= 0 quarter of the
    # grid carries every level of the whole grid (alpha 1/2 and 0 have Q = 2);
    # chunk 4096 solves each stack in one piece, chunk 100 splits the kx columns
    monkeypatch.setattr(spectra, "BLOCH_CHUNK", chunk)
    params = ModelParams(alpha=alpha, beta=beta, lam=lam)
    Q = params.magnetic_height
    for grid in ((32, 32), (33, 18)):
        quarter = quarter_zone_bands(params, grid)
        full = bulk_bands(params, grid)
        assert quarter.energies.shape[2:] == full.energies.shape[2:]
        assert quarter.energies.shape[:2] == (quarter.kx.size, quarter.ky.size)
        assert 2 * (quarter.kx.size - 1) == full.kx.size
        assert 2 * (quarter.ky.size - 1) == full.ky.size
        assert np.all(quarter.kx <= 0.0) and quarter.kx[0] == -math.pi
        assert quarter.kx[-1] == 0.0
        assert np.all(quarter.ky <= 0.0) and quarter.ky[0] == -math.pi / Q
        assert quarter.ky[-1] == 0.0
        # equal as sets: every level of either lies within 1e-12 of the other
        a, b = quarter.flat_energies(), full.flat_energies()
        assert _set_distance(a, b) <= 1e-12 and _set_distance(b, a) <= 1e-12


def _set_distance(values, ref):
    """Largest distance from a level in ``values`` to the nearest in sorted ``ref``."""
    i = np.clip(np.searchsorted(ref, values), 1, ref.size - 1)
    gaps = np.minimum(np.abs(values - ref[i - 1]), np.abs(values - ref[i]))
    return float(np.max(gaps))


@pytest.mark.parametrize(
    "alpha", [Fraction(0, 1), Fraction(1, 2), Fraction(1, 4), Fraction(2, 5)]
)
def test_pruned_gap_scan_matches_the_full_quarter_scan(alpha):
    # == on the report: the same gap edges, bit for bit, or the same metal;
    # alpha 0 and 1/2 have Q = 2, where the wrap and in-chain bonds share a block
    rng = np.random.default_rng(alpha.denominator)
    points = [(0.0, 0.0)] + [
        (rng.uniform(0.0, 0.25), rng.uniform(0.0, 2.0)) for _ in range(3)
    ]
    windows = [((1.0, 2.0), 0.05), ((-0.6, 0.9), 0.05), ((1.35, 1.55), 0.02)]
    outcomes = set()
    for beta, lam in points:
        params = ModelParams(alpha=alpha, beta=beta, lam=lam)
        for grid in ((16, 16), (48, 48), (64, 64), (128, 128)):
            bands = quarter_zone_bands(params, grid)
            for window, threshold in windows:
                (got,) = quarter_zone_gap([params], grid, window, threshold)
                assert got == gap_in_window(bands, window, threshold)
                assert 0 < got.solved <= bands.energies[..., 0].size
                outcomes.add(got.is_gapped)
    assert outcomes == {True, False}


def test_pruned_gap_scan_rejects_what_the_full_scan_rejects():
    params = ModelParams(alpha=A13)
    with pytest.raises(ParameterError):
        quarter_zone_gap([params], (8, 8), (1.0, 2.0), GAP_THRESHOLD)
    with pytest.raises(ParameterError):
        quarter_zone_gap([params], (32, 32), (2.0, 1.0), GAP_THRESHOLD)
    # a row holds points that differ in lambda alone
    with pytest.raises(ParameterError, match="lambda alone"):
        quarter_zone_gap(
            [params, ModelParams(alpha=A13, beta=0.1)], (32, 32), (1.0, 2.0), GAP_THRESHOLD
        )


@settings(max_examples=8, deadline=None)
@given(
    beta=st.floats(0.0, 0.25),
    lams=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
    grid=st.sampled_from([(64, 64), (128, 128)]),
)
@example(beta=0.0, lams=[0.0], grid=(64, 64))  # a row of one point
@example(beta=0.2, lams=[1.5, 1.9, 1.6, 2.0], grid=(64, 64))  # gapped and metal
@example(beta=0.2, lams=[1.9, 1.5], grid=(128, 128))
def test_row_gap_scan_matches_the_full_scan_per_point(beta, lams, grid):
    # each point of a row scanned together: the report of the full quarter
    # scan, bit for bit, from the solves the point makes alone
    row = [ModelParams(alpha=A13, beta=beta, lam=lam) for lam in lams]
    reports = quarter_zone_gap(row, grid, (1.0, 2.0), GAP_THRESHOLD)
    assert len(reports) == len(row)
    for params, got in zip(row, reports):
        bands = quarter_zone_bands(params, grid)
        assert got == gap_in_window(bands, (1.0, 2.0), GAP_THRESHOLD)
        (alone,) = quarter_zone_gap([params], grid, (1.0, 2.0), GAP_THRESHOLD)
        assert got == alone and got.solved == alone.solved
