"""Lindblad evolution: jump operators, decay laws, populations."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from qshsim.dynamics import (
    LindbladSpec,
    SubspaceBasis,
    _chunk_count,
    corner_up_state,
    decay_scan,
    duration_from_us,
    edge_site_mask,
    embed_excited_hamiltonian,
    gamma_to_khz,
    hamiltonian_liouvillian,
    lindblad_evolve,
    populations,
    unit_dissipator,
    validate_density_matrix,
)
from qshsim.errors import ParameterError
from qshsim.model import ModelParams, open_hamiltonian

A13 = Fraction(1, 3)
#: the detection protocol's 6x6 lattice at flux 1/3
PROTOCOL = ModelParams(alpha=A13, nx=6, ny=6)


def subspace_jump_operators(basis, spec):
    """Explicit sparse jump operators (already scaled by sqrt(gamma))."""
    dim = basis.dim
    root = math.sqrt(spec.gamma)
    r = 1.0 / math.sqrt(2.0)

    def csr(rows, cols, vals):
        op = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        op.eliminate_zeros()
        return op

    ops = []
    for iu, idn in basis.site_pairs():
        if spec.photon_loss:
            ops.append(csr([0, 0], [iu, idn], [root * r, root * -r]))
        if spec.transmon_loss:
            ops.append(csr([0, 0], [iu, idn], [root * r, root * r]))
        if spec.dephasing:
            # -1 off the site, the spin flip |up> <-> |down> on it
            rest = np.setdiff1d(np.arange(dim), [iu, idn])
            ops.append(csr(
                np.concatenate([rest, [iu, idn]]),
                np.concatenate([rest, [idn, iu]]),
                np.concatenate([np.full(rest.size, -root), [root, root]]),
            ))
    return ops


def _lindblad_rhs_reference(rho, h_full, jump_ops):
    """Direct textbook right-hand side; oracle for the Liouvillian."""
    out = -1j * (h_full @ rho - rho @ h_full)
    for op in jump_ops:
        od = op.conj().T
        out += op @ rho @ od - 0.5 * (od @ op @ rho + rho @ od @ op)
    return out


def test_subspace_dimension():
    assert SubspaceBasis(6, 6).dim == 73
    basis = SubspaceBasis(2, 3)
    idx = {basis.state_index(m, n, s) for n in range(3) for m in range(2) for s in (0, 1)}
    assert idx == set(range(1, basis.dim))


def test_time_conversions():
    assert math.isclose(duration_from_us(2.0), 12 * math.pi)
    assert math.isclose(gamma_to_khz(1.0 / 600.0), 5.0)
    assert math.isclose(gamma_to_khz(1.0 / 300.0), 10.0)


def test_jump_operator_examples():
    basis = SubspaceBasis(1, 1)
    ops = subspace_jump_operators(basis, LindbladSpec(gamma=1.0))
    photon, transmon, dephase = ops
    up = np.zeros(3)
    up[1] = 1.0
    down = np.zeros(3)
    down[2] = 1.0
    r = 1 / math.sqrt(2)
    assert np.allclose(photon @ up, [r, 0, 0])
    assert np.allclose(photon @ down, [-r, 0, 0])
    assert np.allclose(transmon @ up, [r, 0, 0])
    assert np.allclose(transmon @ down, [r, 0, 0])
    assert np.allclose(dephase @ up, down)  # within-cell spin flip
    assert np.allclose(dephase @ down, up)
    vac = np.array([1.0, 0, 0])
    assert np.allclose(dephase @ vac, -vac)

    zeros = subspace_jump_operators(basis, LindbladSpec(gamma=0.0))
    assert all(op.nnz == 0 for op in zeros)

    # on two sites, site 1's dephasing is -sqrt(gamma) on the vacuum and site 2
    two = SubspaceBasis(2, 1)
    dephase = subspace_jump_operators(two, LindbladSpec(gamma=4.0))[2]
    expected = -2.0 * np.eye(5)
    expected[1:3, 1:3] = [[0.0, 2.0], [2.0, 0.0]]
    assert np.array_equal(dephase.toarray(), expected)


def test_liouvillian_matches_reference():
    basis = SubspaceBasis(2, 2)
    h = embed_excited_hamiltonian(
        open_hamiltonian(ModelParams(alpha=A13, beta=0.1, nx=2, ny=2)), basis
    )
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = x @ x.conj().T
    rho /= rho.trace()
    lh = hamiltonian_liouvillian(h)
    for flags in [(1, 1, 1), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 0), (0, 1, 1)]:
        for gamma in (0.0, 1.0 / 600.0, 0.37, 1.0):
            spec = LindbladSpec(
                gamma=gamma,
                photon_loss=bool(flags[0]),
                transmon_loss=bool(flags[1]),
                dephasing=bool(flags[2]),
            )
            ops = subspace_jump_operators(basis, spec)
            ref = _lindblad_rhs_reference(rho, h, [op.toarray() for op in ops])
            lv = lh + gamma * unit_dissipator(basis, *map(bool, flags))
            fast = (lv @ rho.ravel()).reshape(rho.shape)
            assert np.max(np.abs(fast - ref)) < 1e-12


def _textbook_liouvillian(h_full, jump_ops):
    """L from the jump operators, one Kronecker term per operator."""
    h = sp.csr_matrix(h_full)
    eye = sp.identity(h.shape[0], format="csr")
    loss = sum((j.conj().T @ j for j in jump_ops), sp.csr_matrix(h.shape))
    left, right = -1j * h - 0.5 * loss, 1j * h - 0.5 * loss
    drift = sp.kron(left, eye) + sp.kron(eye, right.T)
    return sum((sp.kron(j, j.conj()) for j in jump_ops), drift).tocsr()


@pytest.mark.parametrize("nx, ny", [(6, 6), (3, 5), (8, 8)])
def test_decay_scan_matches_per_rate_oracle(nx, ny):
    params = ModelParams(alpha=A13, beta=0.1, lam=0.2, nx=nx, ny=ny)
    gammas = [0.0, 1.0 / 600.0, 1.0 / 300.0]
    t = duration_from_us(0.5)
    rows = decay_scan(gammas, params=params, t_us=0.5)
    basis = SubspaceBasis(nx, ny)
    h = embed_excited_hamiltonian(open_hamiltonian(params), basis)
    for gamma, row in zip(gammas, rows):
        ops = subspace_jump_operators(basis, LindbladSpec(gamma=gamma))
        step = _textbook_liouvillian(h, ops) * t
        chunks = _chunk_count(step)
        vec = corner_up_state(basis).ravel()
        for _ in range(chunks):
            vec = expm_multiply(step / chunks, vec)
        expected = populations(vec.reshape(basis.dim, basis.dim), basis)
        assert row.chunks == chunks
        assert row.gamma_t0 == gamma
        assert np.max(np.abs(np.subtract((row.p1, row.p2, row.p3), expected))) <= 1e-14


def test_single_cell_analytic_decay():
    basis = SubspaceBasis(1, 1)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[1, 1] = 1.0
    g = 0.25
    ts, rhos, _ = lindblad_evolve(
        rho0, np.zeros((2, 2)), LindbladSpec(gamma=g), basis, 8.0
    )
    for t, rho in zip(ts, rhos):
        _, _, p3 = populations(rho, basis)
        assert abs(p3 - math.exp(-g * t)) < 1e-10


def test_closed_system_matches_schroedinger():
    basis = SubspaceBasis(6, 6)
    h = open_hamiltonian(ModelParams(alpha=A13, nx=6, ny=6))
    rho0 = corner_up_state(basis)
    t = 2.0
    _, rhos, _ = lindblad_evolve(
        rho0, h, LindbladSpec(gamma=0.0), basis, t, sample_count=2
    )
    purity = np.trace(rhos[-1] @ rhos[-1]).real
    assert abs(purity - 1.0) < 1e-8

    vals, vecs = np.linalg.eigh(h.toarray())
    psi0 = np.zeros(72, dtype=complex)
    psi0[0] = 1.0
    psi = (vecs * np.exp(-1j * vals * t)) @ (vecs.conj().T @ psi0)
    rho_exact = np.zeros((73, 73), dtype=complex)
    rho_exact[1:, 1:] = np.outer(psi, psi.conj())
    assert np.max(np.abs(rhos[-1] - rho_exact)) < 1e-8


def test_populations_examples():
    basis = SubspaceBasis(6, 6)
    rho = corner_up_state(basis)
    p1, p2, p3 = populations(rho, basis)
    assert (p1, p2, p3) == (1.0, 0.0, 1.0)  # the corner is an edge site

    vac = np.zeros((73, 73), dtype=complex)
    vac[0, 0] = 1.0
    assert populations(vac, basis) == (0.0, 0.0, 0.0)

    mask = edge_site_mask(6, 6)
    assert mask.sum() == 20 and (~mask).sum() == 16


def test_population_consistency_site_sum_vs_vacuum():
    basis = SubspaceBasis(2, 2)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = x @ x.conj().T
    rho /= rho.trace()
    _, _, p3 = populations(rho, basis)
    assert abs(p3 - (1.0 - rho[0, 0].real)) < 1e-10


def test_validate_density_matrix():
    good = np.diag([0.5, 0.5, 0.0]).astype(complex)
    validate_density_matrix(good)
    with pytest.raises(ParameterError):
        validate_density_matrix(np.diag([0.9, 0.3, 0.0]).astype(complex))
    bad = good.copy()
    bad[0, 1] = 0.2
    with pytest.raises(ParameterError):
        validate_density_matrix(bad)


def test_decay_law_and_monotonicity_small_lattice():
    basis = SubspaceBasis(2, 2)
    h = open_hamiltonian(ModelParams(alpha=A13, nx=2, ny=2))
    rho0 = corner_up_state(basis)
    t = 5.0
    p3s = []
    for g in (0.0, 0.02, 0.05, 0.1):
        _, rhos, _ = lindblad_evolve(
            rho0, h, LindbladSpec(gamma=g), basis, t, sample_count=2
        )
        _, _, p3 = populations(rhos[-1], basis)
        assert abs(p3 - math.exp(-g * t)) < 1e-3 * max(math.exp(-g * t), 1e-9)
        p3s.append(p3)
    assert all(a >= b for a, b in zip(p3s, p3s[1:]))  # non-increasing in gamma


def test_dephasing_only_preserves_excitation():
    basis = SubspaceBasis(2, 2)
    h = open_hamiltonian(ModelParams(alpha=A13, nx=2, ny=2))
    spec = LindbladSpec(gamma=0.05, photon_loss=False, transmon_loss=False)
    _, rhos, _ = lindblad_evolve(
        corner_up_state(basis), h, spec, basis, 5.0, sample_count=4
    )
    for rho in rhos:
        _, _, p3 = populations(rho, basis)
        assert abs(p3 - 1.0) < 1e-8


def test_trace_and_positivity_along_trajectory():
    basis = SubspaceBasis(2, 2)
    h = open_hamiltonian(ModelParams(alpha=A13, beta=0.1, nx=2, ny=2))
    _, rhos, _ = lindblad_evolve(
        corner_up_state(basis), h, LindbladSpec(gamma=0.08), basis, 8.0,
        sample_count=9,
    )
    for rho in rhos:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho).min() >= -1e-8


def test_step_guards():
    with pytest.raises(ParameterError):
        LindbladSpec(gamma=-0.1)
    with pytest.raises(ParameterError):
        decay_scan([-1.0], PROTOCOL, t_us=2.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_non_finite_gamma_rejected(gamma):
    with pytest.raises(ParameterError, match="finite"):
        LindbladSpec(gamma=gamma)
    with pytest.raises(ParameterError, match="finite"):
        decay_scan([0.0, gamma], PROTOCOL, t_us=2.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_duration_rejected(t):
    basis = SubspaceBasis(1, 1)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        duration_from_us(t)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        decay_scan([0.0], PROTOCOL, t_us=t)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        lindblad_evolve(
            corner_up_state(basis), np.zeros((2, 2)), LindbladSpec(gamma=0.0),
            basis, t,
        )


@pytest.mark.parametrize("on_diagonal", [False, True])
def test_non_finite_density_matrix_rejected(on_diagonal):
    # One NaN in an otherwise valid state: the Hermiticity, trace and
    # positivity comparisons all read False on NaN, so only the explicit
    # finiteness check can catch it.
    rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
    if on_diagonal:
        rho[1, 1] = np.nan
    else:
        rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(ParameterError, match="non-finite"):
        validate_density_matrix(rho)


def test_snapshot_validation_raises():
    basis = SubspaceBasis(2, 2)
    h = open_hamiltonian(ModelParams(alpha=A13, nx=2, ny=2)).toarray()
    broken = h.copy()
    broken[0, 1] += 0.5  # not Hermitian: rho(t) leaves the Hermitian matrices
    with pytest.raises(ParameterError, match="not Hermitian"):
        lindblad_evolve(
            corner_up_state(basis), broken, LindbladSpec(gamma=0.0), basis, 1.0,
            sample_count=3,
        )
    with pytest.raises(ParameterError, match="trace"):
        lindblad_evolve(
            2.0 * corner_up_state(basis), h, LindbladSpec(gamma=0.0), basis, 1.0
        )


def test_decay_scan_bit_identical_under_global_rng():
    # at 2 us one step exceeds the exact-1-norm bound of expm_multiply, so
    # the run is chunked; an unchunked run would call onenormest, which
    # draws from (and advances) the global np.random state
    gammas = [0.0, 1.0 / 300.0]
    t = duration_from_us(2.0)
    results = []
    for seed in (0, 7, 2024):
        np.random.seed(seed)
        before = np.random.get_state()
        rows = decay_scan(gammas, PROTOCOL, t_us=2.0)
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])
        assert all(r.chunks > 1 for r in rows)
        for r in rows:
            assert abs(r.p3 - math.exp(-r.gamma_t0 * t)) <= 1e-12
        results.append([(r.p1, r.p2, r.p3) for r in rows])
    assert results[0] == results[1] == results[2]


def test_decay_scan_lattice_guard():
    with pytest.raises(ParameterError):
        decay_scan([0.0], params=ModelParams(alpha=A13, nx=9, ny=9), t_us=2.0)


def test_lab_frame_cross_check():
    """Bare-operator master equation in the lab frame vs the reduced model.

    The oracle integrates the driven plaquette with bare jump operators
    (photon loss, qubit loss, qubit dephasing) in the exact interaction
    picture of the free Hamiltonian; the reduced rotating-frame model with
    dressed jump operators must reproduce the site populations up to
    rotating-wave and secular corrections.
    """
    from qshsim.circuit import (
        DEVICE_CELLS,
        _bond_operator,
        dressed_transform,
        free_hamiltonian,
        plaquette_plans,
    )

    cells = DEVICE_CELLS
    n, dim = 4, 9
    beta, gamma, t_final = 0.1, 0.05, 0.5
    plans = plaquette_plans(A13, beta)

    h0 = free_hamiltonian(cells)
    e0, v0 = np.linalg.eigh(h0)
    bonds = [_bond_operator(n, p.bond) for p in plans]
    tone_data = [
        [(t.amplitude, t.freq, t.sign * t.phase) for t in p.tones] for p in plans
    ]
    jumps = []
    for i in range(n):
        pg, qe = 1 + 2 * i, 2 + 2 * i
        a = np.zeros((dim, dim))
        a[0, pg] = 1.0
        sm = np.zeros((dim, dim))
        sm[0, qe] = 1.0
        sz = -np.eye(dim)
        sz[qe, qe] = 1.0
        jumps.extend([a, sm, sz])
    jumps = [math.sqrt(gamma) * j for j in jumps]

    def rot(t):
        return (v0 * np.exp(1j * e0 * t)) @ v0.conj().T

    def rhs(t, rho):
        r = rot(t)
        rd = r.conj().T
        h_i = np.zeros((dim, dim), dtype=complex)
        for op, tones in zip(bonds, tone_data):
            j = sum(a * math.cos(w * t + ph) for a, w, ph in tones)
            h_i += j * (r @ op @ rd)
        out = -1j * (h_i @ rho - rho @ h_i)
        for g_op in jumps:
            gi = r @ g_op @ rd
            gid = gi.conj().T
            out += gi @ rho @ gid - 0.5 * (gid @ gi @ rho + rho @ gid @ gi)
        return out

    w = dressed_transform(n)
    rho_d0 = np.zeros((dim, dim), dtype=complex)
    rho_d0[1, 1] = 1.0
    rho = w @ rho_d0 @ w.T
    fmax = max(t.freq for p in plans for t in p.tones)
    dt = min(0.05 / (2 * max(c.g for c in cells)), (2 * math.pi / fmax) / 60.0)
    steps = int(math.ceil(t_final / dt))
    dt = t_final / steps
    for k in range(steps):
        t = k * dt
        k1 = rhs(t, rho)
        k2 = rhs(t + dt / 2, rho + dt / 2 * k1)
        k3 = rhs(t + dt / 2, rho + dt / 2 * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    def site_pops(r):
        d = np.diag(r).real
        return np.array([d[1 + 2 * i] + d[2 + 2 * i] for i in range(n)])

    pops_lab = site_pops(rho)

    basis = SubspaceBasis(2, 2)
    params = ModelParams(alpha=A13, beta=beta, nx=2, ny=2)
    _, rhos, _ = lindblad_evolve(
        rho_d0,
        open_hamiltonian(params),
        LindbladSpec(gamma=gamma),
        basis,
        t_final,
        sample_count=2,
    )
    pops_rot = site_pops(rhos[-1])

    assert abs(pops_lab.sum() - pops_rot.sum()) < 1e-6  # both follow e^{-gamma t}
    assert np.max(np.abs(pops_lab - pops_rot)) < 0.02
