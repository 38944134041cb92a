"""Lattice-builder contracts: blocks, symmetries, representations."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qshsim.dynamics import SubspaceBasis
from qshsim.errors import ParameterError
from qshsim.model import (
    PAULI_X,
    ModelParams,
    _chain,
    _x_phase,
    apply_time_reversal,
    bloch_stack,
    bloch_step_bounds,
    onsite_energy,
    open_hamiltonian,
    real_bloch_stack,
    real_form,
    ribbon_stack,
    spin_bloch_stack,
    time_reversal_check,
    time_reversal_matrix,
    x_hop_block,
    y_hop_block,
)

A13 = Fraction(1, 3)


def site_linear_index(m: int, n: int, spin: int, nx: int) -> int:
    """Orbital index of spin ``spin`` on site (m, n) in the real-space builds."""
    return 2 * (n * nx + m) + spin


def test_params_validation():
    p = ModelParams(alpha="2/6")
    assert (p.p, p.q) == (1, 3)  # reduced to lowest terms
    assert p.magnetic_height == 6
    with pytest.raises(ParameterError):
        ModelParams(alpha=A13, t0=0.0)
    with pytest.raises(ParameterError):
        ModelParams(alpha=A13, nx=1, ny=4).require_lattice()


@pytest.mark.parametrize("alpha", ["1/0", "x", math.nan, math.inf, None])
def test_params_reject_bad_alpha(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        ModelParams(alpha=alpha)


@pytest.mark.parametrize("field", ["beta", "lam", "t0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ParameterError, match=field):
        ModelParams(alpha=A13, **{field: value})


@pytest.mark.parametrize("field", ["nx", "ny"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 6.5, "6"])
def test_params_reject_non_integer_sides(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        ModelParams(alpha=A13, **{field: value})


@pytest.mark.parametrize("field", ["nx", "ny"])
def test_params_store_integral_sides_as_int(field):
    """A whole float side is stored as an int, which the builders index with."""
    p = ModelParams(alpha=A13, **{field: 6.0})
    assert type(getattr(p, field)) is int and getattr(p, field) == 6
    assert open_hamiltonian(p).shape == (72, 72)


def test_site_linearization_bijection():
    nx, ny = 5, 4
    seen = {
        site_linear_index(m, n, s, nx)
        for n in range(ny)
        for m in range(nx)
        for s in (0, 1)
    }
    assert seen == set(range(2 * nx * ny))
    # the master-equation basis puts the vacuum first, then the same layout
    basis = SubspaceBasis(nx, ny)
    assert all(
        basis.state_index(m, n, s) == 1 + site_linear_index(m, n, s, nx)
        for n in range(ny)
        for m in range(nx)
        for s in (0, 1)
    )


def test_open_hamiltonian_blocks_no_mixing():
    # beta=0, lam=0: x blocks on row 0 are -t0*I and spins never couple
    p = ModelParams(alpha=A13, beta=0.0, lam=0.0, nx=2, ny=2)
    h = open_hamiltonian(p)
    assert h.shape == (8, 8)
    mat = h.toarray()
    i = site_linear_index(0, 0, 0, 2)
    j = site_linear_index(1, 0, 0, 2)
    block = mat[j : j + 2, i : i + 2]
    assert np.allclose(block, -np.eye(2))
    for a in range(0, 8, 2):
        for b in range(1, 8, 2):
            assert mat[a, b] == 0 and mat[b, a] == 0


@pytest.mark.parametrize("side", [2, 6, 42])
def test_open_hamiltonian_is_hermitian_csr_without_stored_zeros(side):
    p = ModelParams(alpha=A13, beta=0.1, lam=0.5, nx=side, ny=side)
    h = open_hamiltonian(p)
    assert isinstance(h, sp.csr_matrix)
    assert h.shape == (2 * side * side,) * 2
    assert h.nnz > 0 and np.all(h.data != 0)
    assert abs(h - h.conj().T).max() == 0.0


def test_open_hamiltonian_y_and_onsite_blocks():
    p = ModelParams(alpha=A13, beta=0.1, lam=1.0, nx=2, ny=2)
    mat = open_hamiltonian(p).toarray()
    c, s = math.cos(0.2 * math.pi), math.sin(0.2 * math.pi)
    expected_y = -np.array([[c, 1j * s], [1j * s, c]])
    i = site_linear_index(0, 0, 0, 2)
    j = site_linear_index(0, 1, 0, 2)
    assert np.allclose(mat[j : j + 2, i : i + 2], expected_y)
    assert np.allclose(mat[j : j + 2, j : j + 2], -1.0 * np.eye(2))  # (-1)^1 * lam
    assert np.allclose(y_hop_block(p), expected_y)
    assert np.allclose(x_hop_block(p, 0), -np.eye(2))


def test_open_spectrum_is_two_superposed_flux_lattices():
    # beta=0, lam=0: the spinful spectrum is the union of the two single-spin
    # flux lattices, which are mutually conjugate, hence doubly degenerate.
    p = ModelParams(alpha=A13, nx=12, ny=12)
    full = np.linalg.eigvalsh(open_hamiltonian(p).toarray())
    up = np.linalg.eigvalsh(open_hamiltonian(p).toarray()[0::2, 0::2])
    merged = np.sort(np.concatenate([up, up]))
    assert np.allclose(full, merged, atol=1e-10)


def test_open_spectrum_doubling_42x42_window():
    # the same doubling near E = 1.5 on the production lattice size
    from qshsim.spectra import eig_hermitian

    p = ModelParams(alpha=A13, nx=42, ny=42)
    h = open_hamiltonian(p)
    assert sp.issparse(h)
    vals, vecs = eig_hermitian(h, nearest=(1.5, 12))
    # residuals certify the interior solve against the operator itself
    for k in range(vals.size):
        r = np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k])
        assert r < 1e-8
    # doubly degenerate (Kramers at beta=0): values pair up
    assert np.allclose(vals[0::2], vals[1::2], atol=1e-9)


def test_ribbon_spin_decoupled_at_beta_zero():
    p = ModelParams(alpha=A13, ny=9)
    mat = ribbon_stack(p, p.ny, [0.37])[0]
    assert np.max(np.abs(mat[0::2, 1::2])) == 0.0


def test_ribbon_midgap_branch_exists():
    p = ModelParams(alpha=A13, ny=42)
    found = False
    for kx in np.linspace(-math.pi, math.pi, 40, endpoint=False):
        e = np.linalg.eigvalsh(ribbon_stack(p, p.ny, [kx])[0])
        if np.any((e > 1.2) & (e < 1.8)):
            found = True
            break
    assert found


def test_ribbon_kx_wrapping():
    p = ModelParams(alpha=A13, ny=6)
    a = ribbon_stack(p, p.ny, [0.3])[0]
    b = ribbon_stack(p, p.ny, [0.3 + 2 * math.pi])[0]
    assert np.allclose(a, b, atol=1e-12)


def test_bloch_dimension_and_spin_degeneracy():
    p = ModelParams(alpha=A13)
    h = bloch_stack(p, [0.2], [0.05])[0, 0]
    assert h.shape == (12, 12)
    vals = np.linalg.eigvalsh(h)
    assert np.allclose(vals[0::2], vals[1::2], atol=1e-9)
    up = np.linalg.eigvalsh(spin_bloch_stack(p, [0.2], [0.05], 0)[0, 0])
    dn = np.linalg.eigvalsh(spin_bloch_stack(p, [0.2], [0.05], 1)[0, 0])
    assert np.allclose(vals, np.sort(np.concatenate([up, dn])), atol=1e-10)


def _real_space_lattice(p, nx, ny, wrap_y):
    """Dense lattice Hamiltonian from the hop blocks, wrapped in x (and in y)."""
    h = np.zeros((2 * nx * ny, 2 * nx * ny), dtype=complex)
    bonds = []
    for n in range(ny):
        for m in range(nx):
            bonds.append(((m + 1) % nx, n, m, n, x_hop_block(p, n)))
            if wrap_y or n + 1 < ny:
                bonds.append((m, (n + 1) % ny, m, n, y_hop_block(p)))
            i = 2 * (n * nx + m)
            h[i : i + 2, i : i + 2] += onsite_energy(p, n) * np.eye(2)
    for m_to, n_to, m_from, n_from, block in bonds:
        j, i = 2 * (n_to * nx + m_to), 2 * (n_from * nx + m_from)
        h[j : j + 2, i : i + 2] += block
        h[i : i + 2, j : j + 2] += block.conj().T
    return h


def test_stacks_match_real_space_torus():
    # the torus of nx x (Q*my) sites has the Bloch momenta kx = 2*pi*j/nx and
    # ky = 2*pi*l/(Q*my); the x-periodic strip has the ribbon momenta kx.
    # Both momentum sets are closed under k -> -k, so the comparison does not
    # depend on the sign convention of the Fourier transform.
    nx, my = 5, 3
    cases = [(A13, 0.07, 0.4), (Fraction(2, 5), 0.16, 1.1), (Fraction(1, 2), 0.11, 0.7)]
    for alpha, beta, lam in cases:
        p = ModelParams(alpha=alpha, beta=beta, lam=lam)
        Q = p.magnetic_height
        kxs = 2 * math.pi * np.arange(nx) / nx
        kys = 2 * math.pi * np.arange(my) / (Q * my)
        torus = np.linalg.eigvalsh(_real_space_lattice(p, nx, Q * my, wrap_y=True))
        bloch = np.sort(np.linalg.eigvalsh(bloch_stack(p, kxs, kys)).ravel())
        assert np.allclose(torus, bloch, atol=1e-10)
        ny = Q + 3
        strip = np.linalg.eigvalsh(_real_space_lattice(p, nx, ny, wrap_y=False))
        ribbon = np.sort(np.linalg.eigvalsh(ribbon_stack(p, ny, kxs)).ravel())
        assert np.allclose(strip, ribbon, atol=1e-10)


def test_flux_periodicity_alpha_plus_one():
    pa = ModelParams(alpha=A13)
    pb = ModelParams(alpha=Fraction(4, 3))
    for kx, ky in [(0.0, 0.1), (1.1, -0.3)]:
        ea = np.linalg.eigvalsh(bloch_stack(pa, [kx], [ky])[0, 0])
        eb = np.linalg.eigvalsh(bloch_stack(pb, [kx], [ky])[0, 0])
        assert np.allclose(ea, eb, atol=1e-10)


def test_time_reversal_examples():
    assert time_reversal_check(ModelParams(alpha=A13, nx=6, ny=6), "open") < 1e-12
    p = ModelParams(alpha=A13, beta=0.1, lam=1.0)
    assert time_reversal_check(p, "bloch", 16) < 1e-12


@settings(max_examples=12, deadline=None)
@given(
    beta=st.floats(0.0, 0.5, allow_nan=False),
    lam=st.floats(0.0, 2.0, allow_nan=False),
)
def test_time_reversal_randomized(beta, lam):
    p = ModelParams(alpha=A13, beta=beta, lam=lam, nx=4, ny=4)
    assert time_reversal_check(p, "open") < 1e-12
    assert time_reversal_check(p, "bloch", 9) < 1e-12


@pytest.mark.parametrize(
    "alpha", [Fraction(0, 1), Fraction(1, 4), A13, Fraction(2, 5), Fraction(1, 2)]
)
def test_mirror_maps_kx_to_minus_kx(alpha):
    # x -> -x with sigma_x on every site: sigma_x exp(-i theta sigma_z) sigma_x
    # = exp(i theta sigma_z), and sigma_x commutes with the y hop; the quarter
    # zone of the bulk gap scan rests on this
    rng = np.random.default_rng(31)
    for _ in range(4):
        p = ModelParams(
            alpha=alpha,
            beta=rng.uniform(0.0, 0.5),
            lam=rng.uniform(-2.0, 2.0),
            t0=rng.uniform(0.5, 2.0),
        )
        Q = p.magnetic_height
        kxs = rng.uniform(-math.pi, math.pi, 5)
        kys = rng.uniform(-math.pi / Q, math.pi / Q, 4)
        mirror = np.kron(np.eye(Q), PAULI_X)
        h = bloch_stack(p, kxs, kys)
        assert np.max(np.abs(mirror @ h @ mirror - bloch_stack(p, -kxs, kys))) <= 1e-12


#: the flux values of the real-form tests; alpha 0 and 1/2 have Q = 2, where the
#: wrap bond and the in-chain bond share a block
PT_ALPHAS = [Fraction(0, 1), Fraction(1, 2), A13, Fraction(1, 4), Fraction(2, 5)]


def _pt_operator(Q: int, ky: float) -> np.ndarray:
    """V(ky) = D(ky) R: R sends row n to row (Q - n) mod Q with sigma_x on the
    spin, D puts exp(-i*ky*Q) on every row but row 0."""
    r = np.kron(np.eye(Q)[(Q - np.arange(Q)) % Q], PAULI_X)
    d = np.repeat(np.r_[1.0, np.full(Q - 1, np.exp(-1j * ky * Q))], 2)
    return d[:, None] * r


def _pt_real_basis(v: np.ndarray) -> np.ndarray:
    """Columns exp(-i phi/2)(e_i + e_j)/sqrt2, i exp(-i phi/2)(e_i - e_j)/sqrt2
    of each pair V e_i = exp(-i phi) e_j, in order of i."""
    dim = v.shape[0]
    cols = []
    for i in range(dim):
        j = int(np.argmax(np.abs(v[:, i])))
        if j > i:
            half = np.exp(0.5j * np.angle(v[j, i]))  # exp(-i phi/2)
            e_i, e_j = np.eye(dim)[i], np.eye(dim)[j]
            cols += [half * (e_i + e_j), 1j * half * (e_i - e_j)]
    return np.array(cols).T / math.sqrt(2.0)


def _random_params(rng, alpha) -> ModelParams:
    return ModelParams(
        alpha=alpha,
        beta=rng.uniform(0.05, 0.5),
        lam=rng.uniform(-2.0, 2.0),
        t0=rng.uniform(0.5, 2.0),
    )


@pytest.mark.parametrize("alpha", PT_ALPHAS)
def test_pt_symmetry_makes_bloch_matrices_real(alpha):
    # inversion with sigma_z on every site, times time reversal: V H(k)* V^H
    # = H(k) with V V* = 1, so H(k) is real in a basis of V K-invariant vectors
    rng = np.random.default_rng(47)
    for _ in range(3):
        p = _random_params(rng, alpha)
        Q = p.magnetic_height
        kxs = rng.uniform(-math.pi, math.pi, 4)
        kys = rng.uniform(-math.pi / Q, math.pi / Q, 3)
        h = bloch_stack(p, kxs, kys)
        real = real_bloch_stack(p, kxs, kys)
        assert real.dtype == np.float64
        for iy, ky in enumerate(kys):
            v = _pt_operator(Q, ky)
            assert np.max(np.abs(v @ v.conj() - np.eye(2 * Q))) <= 1e-14
            hk = h[:, iy]
            assert np.max(np.abs(v @ hk.conj() @ v.conj().T - hk)) <= 1e-13
            w = _pt_real_basis(v)
            assert np.max(np.abs(w.conj().T @ w - np.eye(2 * Q))) <= 1e-14
            rotated = w.conj().T @ hk @ w
            assert np.max(np.abs(rotated.imag)) <= 1e-13
            assert np.max(np.abs(rotated.real - real[:, iy])) <= 1e-13


@pytest.mark.parametrize("alpha", PT_ALPHAS)
def test_real_form_keeps_the_bloch_spectrum(alpha):
    rng = np.random.default_rng(53)
    for _ in range(3):
        p = _random_params(rng, alpha)
        Q = p.magnetic_height
        kxs = rng.uniform(-math.pi, math.pi, 6)
        kys = np.r_[rng.uniform(-math.pi / Q, math.pi / Q, 4), -math.pi / Q, 0.0]
        h = bloch_stack(p, kxs, kys)
        exact = np.linalg.eigvalsh(h)
        built = real_bloch_stack(p, kxs, kys)
        assert np.max(np.abs(built - built.transpose(0, 1, 3, 2))) <= 1e-14
        assert np.max(np.abs(np.linalg.eigvalsh(built) - exact)) <= 1e-12
        rotated = real_form(p, h, kys)
        assert np.max(np.abs(np.linalg.eigvalsh(rotated) - exact)) <= 1e-12
        assert np.max(np.abs(rotated - built)) <= 1e-13


def _loop_chain(params, rows, kxs):
    """The row-by-row chain builder that ``_chain`` vectorizes."""
    kxs = np.asarray(kxs, dtype=float)
    h = np.zeros((kxs.size, 2 * rows, 2 * rows), dtype=complex)
    by = y_hop_block(params)
    for n in range(rows):
        theta = _x_phase(params, n)
        eps = onsite_energy(params, n)
        i = 2 * n
        h[:, i, i] = -2.0 * params.t0 * np.cos(kxs + theta) + eps
        h[:, i + 1, i + 1] = -2.0 * params.t0 * np.cos(kxs - theta) + eps
        if n + 1 < rows:
            j = 2 * (n + 1)
            h[:, j : j + 2, i : i + 2] = by
            h[:, i : i + 2, j : j + 2] = by.conj().T
    return h


@pytest.mark.parametrize("alpha", [A13, Fraction(1, 4), Fraction(2, 5), Fraction(1, 6)])
def test_chain_matches_the_row_loop_bit_for_bit(alpha):
    kxs = np.linspace(-math.pi, math.pi, 101, endpoint=False)
    for beta, lam in ((0.0, 0.0), (0.13, 1.1), (0.21, -0.7)):
        p = ModelParams(alpha=alpha, beta=beta, lam=lam, t0=1.3)
        for rows in (1, 2, 6, 24, 48):
            assert np.array_equal(_chain(p, rows, kxs), _loop_chain(p, rows, kxs))


@pytest.mark.parametrize("alpha", [A13, Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)])
def test_ribbon_is_the_complex_chain_in_the_real_gauge(alpha):
    # D = diag(1, i) on every site: D^H chain D is real, and it is the ribbon
    rng = np.random.default_rng(61)
    kxs = rng.uniform(-math.pi, math.pi, 9)
    for beta, lam in ((0.13, 1.1), (0.21, -0.7), (0.41, 0.3)):
        p = ModelParams(alpha=alpha, beta=beta, lam=lam, t0=1.3)
        for ny in (4, 12, 25):
            ribbon = ribbon_stack(p, ny, kxs)
            assert ribbon.dtype == np.float64
            assert np.array_equal(ribbon, ribbon.transpose(0, 2, 1))
            d = np.tile([1.0, 1j], ny)
            gauged = d.conj()[:, None] * _chain(p, ny, kxs) * d
            assert not gauged.imag.any()
            assert np.array_equal(ribbon, gauged.real)


@pytest.mark.parametrize("alpha", [A13, Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)])
def test_real_ribbon_keeps_levels_and_row_weights(alpha):
    rng = np.random.default_rng(67)
    kxs = rng.uniform(-math.pi, math.pi, 12)
    for beta, lam in ((0.07, 0.4), (0.19, 1.6)):
        p = ModelParams(alpha=alpha, beta=beta, lam=lam)
        ny = 2 * p.magnetic_height + 3
        levels, states = np.linalg.eigh(ribbon_stack(p, ny, kxs))
        exact, vecs = np.linalg.eigh(_chain(p, ny, kxs))
        assert np.max(np.abs(levels - exact)) <= 1e-12
        # row weights summed over each cluster of degenerate levels, the
        # diagonal of its spectral projector; at alpha 1/2 every level is
        # doubly degenerate
        rows = (len(kxs), ny, 2, 2 * ny)
        real_w = np.square(states).reshape(rows).sum(axis=2)
        complex_w = (np.abs(vecs) ** 2).reshape(rows).sum(axis=2)
        for i in range(len(kxs)):
            cluster = np.r_[0, np.cumsum(np.diff(exact[i]) > 1e-6)]
            real_c = np.zeros((ny, cluster[-1] + 1))
            complex_c = np.zeros_like(real_c)
            np.add.at(real_c.T, cluster, real_w[i].T)
            np.add.at(complex_c.T, cluster, complex_w[i].T)
            assert np.max(np.abs(real_c - complex_c)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.sampled_from(PT_ALPHAS),
    beta=st.floats(0.0, 0.5, allow_nan=False),
    lam=st.floats(-2.0, 2.0, allow_nan=False),
    k=st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.0, 1.0)),
    k0=st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.0, 1.0)),
)
def test_levels_move_no_more_than_the_step_bound(alpha, beta, lam, k, k0):
    # Weyl: |E_n(k) - E_n(k0)| <= ||H(k) - H(k0)|| <= dx + dy, the radius of
    # the pruned gap scan without its slack
    p = ModelParams(alpha=alpha, beta=beta, lam=lam)
    Q = p.magnetic_height
    kxs, kys = [k[0], k0[0]], [k[1] * math.pi / Q, k0[1] * math.pi / Q]
    dx, dy = bloch_step_bounds(p, kxs, kys)
    radius = dx[0, 1] + dy[0, 1]
    assert dx[0, 1] == dx[1, 0] and dy[0, 1] == dy[1, 0]
    h = bloch_stack(p, kxs, kys)
    assert np.linalg.norm(h[0, 0] - h[1, 1], 2) <= radius + 1e-12
    levels = np.linalg.eigvalsh(real_bloch_stack(p, kxs, kys))
    assert np.max(np.abs(levels[0, 0] - levels[1, 1])) <= radius + 1e-12


def test_theta_squared_is_minus_one():
    rng = np.random.default_rng(7)
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    assert np.allclose(apply_time_reversal(apply_time_reversal(v)), -v, atol=1e-14)
    s = time_reversal_matrix(12)
    assert np.allclose(s @ s, -np.eye(24))


@settings(max_examples=10, deadline=None)
@given(
    beta=st.floats(0.0, 0.5, allow_nan=False),
    lam=st.floats(-2.0, 2.0, allow_nan=False),
    nx=st.integers(2, 5),
    ny=st.integers(2, 5),
)
def test_builders_hermitian(beta, lam, nx, ny):
    p = ModelParams(alpha=A13, beta=beta, lam=lam, nx=nx, ny=ny)
    h = open_hamiltonian(p).toarray()
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    ribbon = ribbon_stack(p, ny, [0.3])[0]
    assert np.max(np.abs(ribbon - ribbon.conj().T)) <= 1e-12
    bloch = bloch_stack(p, [0.3], [0.1])[0, 0]
    assert np.max(np.abs(bloch - bloch.conj().T)) <= 1e-12


def test_staggering_relabel_symmetry_beta_zero():
    # lam -> -lam is a spectral symmetry on even-ny lattices without spin
    # mixing (row relabel + gauge); spin mixing breaks the gauge argument.
    for lam in (0.5, 1.0, 1.7):
        pa = ModelParams(alpha=A13, beta=0.0, lam=lam, nx=4, ny=6)
        pb = ModelParams(alpha=A13, beta=0.0, lam=-lam, nx=4, ny=6)
        ea = np.linalg.eigvalsh(open_hamiltonian(pa).toarray())
        eb = np.linalg.eigvalsh(open_hamiltonian(pb).toarray())
        assert np.allclose(ea, eb, atol=1e-10)
