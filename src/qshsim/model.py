"""Spinful square-lattice model with flux and spin-mixing hopping phases.

The model is a nearest-neighbor tight-binding Hamiltonian for a two-component
(pseudo-spin 1/2) particle.  Hops in x carry opposite Peierls phases for the
two spins (flux +/-2*pi*alpha per plaquette), hops in y mix the spins through
exp(i*2*pi*beta*sigma_x), and an on-site potential alternates sign between
adjacent rows.  There is one builder per representation:

* ``open_hamiltonian`` -- finite lattice, open boundaries in x and y, CSR;
* ``ribbon_stack``     -- periodic in x, open in y, one real symmetric
  matrix per kx;
* ``bloch_stack``      -- fully periodic, magnetic unit cell of height
  ``lcm(q, 2)`` so that both the flux and the row-alternating potential fit,
  one matrix per (kx, ky).  ``spin_bloch_stack`` is its single-spin slice at
  beta = 0, and ``real_bloch_stack`` the same matrices in a real basis.

The ribbon and the Bloch cell share one row-chain kernel; the Bloch cell adds
the wrap bond.  Inversion with sigma_z on every site (P') times time reversal
is an antiunitary symmetry squaring to +1, so every Bloch matrix is real
symmetric in a fixed basis of P'T-invariant vectors (``real_form``).  The
eigenvalue-only scans solve that form: a stack of real symmetric matrices
takes less time than the complex Hermitian one.  ``real_bloch_parts``
builds the parts of those matrices for a row of points that differ in
lambda alone, from one rotation.  The ribbon has no ky to reverse: there
the mirror x -> -x with sigma_x on every site, times time reversal (M T),
fixes kx and squares to +1, and the ribbon is built real in the gauge where
every spin-down component is multiplied by i.  ``bloch_step_bounds``
bounds how far a Bloch matrix moves between two momenta, which by Weyl's
inequality bounds how far each level moves.

All energies are expressed in units of the hopping strength ``t0``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ParameterError

SPIN_UP = 0
SPIN_DOWN = 1

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

HERMITICITY_TOL = 1e-12
#: fewest sites along each side of an open lattice
LATTICE_MIN_SIDE = 2


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; energies in units of t0, lattice spacings fixed to 1.

    ``alpha`` is the rational flux parameter p/q (reduced automatically),
    ``beta`` the spin-mixing parameter, ``lam`` the amplitude of the
    row-staggered on-site potential, ``nx``/``ny`` the lattice extent.
    """

    alpha: Fraction
    beta: float = 0.0
    lam: float = 0.0
    nx: int = 6
    ny: int = 6
    t0: float = 1.0

    def __post_init__(self):
        try:
            alpha = Fraction(self.alpha)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParameterError(
                f"alpha must be a rational p/q, got {self.alpha!r}"
            ) from exc
        object.__setattr__(self, "alpha", alpha)
        for name in ("beta", "lam", "t0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.t0 <= 0:
            raise ParameterError(f"t0 must be positive, got {self.t0}")
        for name in ("nx", "ny"):
            value = getattr(self, name)
            try:
                integral = int(value) == value  # int() fails on NaN and inf
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def p(self) -> int:
        return self.alpha.numerator

    @property
    def q(self) -> int:
        return self.alpha.denominator

    @property
    def magnetic_height(self) -> int:
        """Rows in the magnetic unit cell: lcm(q, 2) covers flux and staggering."""
        return math.lcm(self.q, 2)

    def require_lattice(self):
        if min(self.nx, self.ny) < LATTICE_MIN_SIDE:
            raise ParameterError(
                f"lattice must be at least 2x2, got {self.nx}x{self.ny}"
            )


def _x_phase(params: ModelParams, n: int) -> float:
    """Angle 2*pi*alpha*n reduced exactly modulo 2*pi (integer arithmetic)."""
    return 2.0 * math.pi * ((params.p * n) % params.q) / params.q


def x_hop_block(params: ModelParams, n: int) -> np.ndarray:
    """Hopping block for (m, n) -> (m+1, n): -t0 * exp(i*2*pi*alpha*n*sigma_z)."""
    theta = _x_phase(params, n)
    return -params.t0 * np.diag([np.exp(1j * theta), np.exp(-1j * theta)])


def y_hop_block(params: ModelParams) -> np.ndarray:
    """Hopping block for (m, n) -> (m, n+1): -t0 * exp(i*2*pi*beta*sigma_x)."""
    ang = 2.0 * math.pi * params.beta
    return -params.t0 * (math.cos(ang) * np.eye(2) + 1j * math.sin(ang) * PAULI_X)


def onsite_energy(params: ModelParams, n: int) -> float:
    return ((-1) ** n) * params.lam * params.t0


def row_params(row) -> ModelParams:
    """The parameters a row of points shares: its first point at lambda = 0.

    A row is a sequence of points that differ in lambda alone (ParameterError
    otherwise), as the points of one beta of a phase diagram do.
    """
    base = replace(row[0], lam=0.0)
    if any(replace(p, lam=0.0) != base for p in row):
        raise ParameterError("the points of a row may differ in lambda alone")
    return base


def open_hamiltonian(params: ModelParams):
    """Finite-lattice Hamiltonian with open boundaries (no wrap bonds), as CSR.

    Built in one pass from index arithmetic.  Spin s of site (m, n) is
    orbital 2*(n*nx + m) + s, and it couples to at most seven orbitals, in
    ascending order: both spins of (m, n-1), then (m-1, n), itself, (m+1, n)
    and both spins of (m, n+1).  So every row comes out sorted, and the CSR
    is canonical.  Zero entries are not stored.
    """
    from scipy.sparse import csr_matrix

    params.require_lattice()
    nx, ny = params.nx, params.ny
    site = np.arange(2 * nx * ny).reshape(ny, nx, 2)
    cols = np.zeros((ny, nx, 2, 7), dtype=np.int64)
    vals = np.zeros((ny, nx, 2, 7), dtype=complex)
    # (m, n) -> (m+1, n) is spin-diagonal, (m, n) -> (m, n+1) mixes the spins
    hop_x = np.array([np.diag(x_hop_block(params, n)) for n in range(ny)])[:, None]
    hop_y = y_hop_block(params)
    cols[1:, ..., :2] = site[:-1, :, None]
    vals[1:, ..., :2] = hop_y
    cols[:, 1:, :, 2] = site[:, :-1]
    vals[:, 1:, :, 2] = hop_x
    cols[..., 3] = site
    vals[..., 3] = np.array([onsite_energy(params, n) for n in range(ny)])[:, None, None]
    cols[:, :-1, :, 4] = site[:, 1:]
    vals[:, :-1, :, 4] = hop_x.conj()
    cols[:-1, ..., 5:] = site[1:, :, None]
    vals[:-1, ..., 5:] = hop_y.conj().T
    keep = vals != 0
    indptr = np.concatenate(([0], np.cumsum(keep.reshape(-1, 7).sum(axis=1))))
    # adding 0 clears the sign of zero parts, which a sparse sum does too
    mat = csr_matrix((vals[keep] + 0.0, cols[keep], indptr), shape=(site.size,) * 2)
    defect = float(abs(mat - mat.conj().T).max())
    if defect > HERMITICITY_TOL:
        raise ParameterError(f"operator not Hermitian: defect {defect:.3e}")
    return mat


def chain_diagonal(params: ModelParams, rows: int, kxs) -> tuple:
    """(up, down): the diagonal of :func:`_chain` per spin, each shape (len(kxs), rows).

    The x hops at momentum kx plus the on-site term of each row n,
    -2 t0 cos(kx +/- theta_n) + eps_n; the chain has no other diagonal entry.
    """
    kxs = np.asarray(kxs, dtype=float)[:, None]
    n = np.arange(rows)
    theta, eps = _x_phase(params, n), onsite_energy(params, n)
    return (
        -2.0 * params.t0 * np.cos(kxs + theta) + eps,
        -2.0 * params.t0 * np.cos(kxs - theta) + eps,
    )


def _chain(params: ModelParams, rows: int, kxs, by=None) -> np.ndarray:
    """On-site terms, x hops at momentum kx and the y bonds of an open chain of rows.

    Shape (len(kxs), 2*rows, 2*rows); the ribbon and the magnetic Bloch cell
    are both built from it.  ``by`` is the 2x2 block of each y bond from row
    n to row n + 1, :func:`y_hop_block` unless given; a real ``by`` gives a
    real chain.  Only the diagonal depends on kx.
    """
    if by is None:
        by = y_hop_block(params)
    kxs = np.asarray(kxs, dtype=float)
    h = np.zeros((kxs.size, 2 * rows, 2 * rows), dtype=by.dtype)
    n = np.arange(rows)
    h[:, 2 * n, 2 * n], h[:, 2 * n + 1, 2 * n + 1] = chain_diagonal(params, rows, kxs)
    # the 2x2 block of each bond (n, n + 1), indexed [bond, spin row, spin column]
    spin = np.arange(2)
    lower = 2 * n[1:, None, None] + spin[:, None]
    upper = 2 * n[:-1, None, None] + spin[None, :]
    h[:, lower, upper] = by
    h[:, upper.transpose(0, 2, 1), lower.transpose(0, 2, 1)] = by.conj().T
    return h


def ribbon_stack(params: ModelParams, ny: int, kxs: np.ndarray) -> np.ndarray:
    """Ribbon Hamiltonians, periodic in x, open in y, real symmetric.

    Shape (len(kxs), 2*ny, 2*ny).  The ribbon is built in the gauge D^H H D,
    D = diag(1, i) on every site (each spin-down component times i).  There
    the y hop -t0 exp(i*2*pi*beta*sigma_x) becomes -t0 [[cos, -sin],
    [sin, cos]] and the diagonal x hops and on-site terms stay as they are.
    The gauge is real because the mirror x -> -x with sigma_x on every
    site, times time reversal, is an antiunitary that fixes kx and squares
    to +1.  D is diagonal and unitary, so the eigenvalues and the per-site
    weights are those of the complex ribbon.
    """
    return _chain(params, ny, kxs, ribbon_y_bond(params))


def ribbon_y_bond(params: ModelParams) -> np.ndarray:
    """The real 2x2 y hop of :func:`ribbon_stack`: -t0 [[cos, -sin], [sin, cos]]
    of 2*pi*beta."""
    ang = 2.0 * math.pi * params.beta
    cos, sin = math.cos(ang), math.sin(ang)
    return -params.t0 * np.array([[cos, -sin], [sin, cos]])


def _wrap(params: ModelParams, kys) -> np.ndarray:
    """The wrap bond of the Bloch cell, shape (len(kys), 2Q, 2Q): the y hop
    from row Q-1 to row 0 of the next cell, times exp(i*ky*Q), and its
    conjugate; zero elsewhere."""
    Q = params.magnetic_height
    kys = np.asarray(kys, dtype=float)
    wrap = np.zeros((kys.size, 2 * Q, 2 * Q), dtype=complex)
    wrap[:, 0:2, -2:] = y_hop_block(params) * np.exp(1j * kys * Q)[:, None, None]
    wrap[:, -2:, 0:2] = wrap[:, 0:2, -2:].conj().transpose(0, 2, 1)
    return wrap


def bloch_stack(params: ModelParams, kxs: np.ndarray, kys: np.ndarray) -> np.ndarray:
    """Magnetic-Bloch Hamiltonians, shape (len(kxs), len(kys), 2Q, 2Q).

    The cell holds Q = lcm(q, 2) rows; kx runs over [-pi, pi) and ky over the
    reduced interval [-pi/Q, pi/Q).  H = chain(kx) + wrap(ky): the whole
    phase exp(i*ky*Q) sits on the wrap bond from row Q-1 to row 0
    (:func:`_wrap`), so H is periodic in ky with period 2pi/Q.  At Q = 2 the
    wrap bond and the chain's one y bond share a block, and add.
    """
    return _chain(params, params.magnetic_height, kxs)[:, None] + _wrap(params, kys)


@functools.lru_cache(maxsize=16)  # one entry per cell height Q in use
def _pt_basis(Q: int) -> tuple:
    """(W0, shifted): the real basis of P'T at ky = 0, and its ky-phased columns.

    P'T maps row n to row (Q - n) mod Q with sigma_x on the spin; at momentum
    ky it also puts exp(-i*ky*Q) on every row but row 0 (V = D(ky) R in
    :func:`real_form`).  Every basis vector e_i has a partner e_j with
    V e_i = c e_j, c = exp(-i*phi), and each pair gives the columns
    exp(-i*phi/2) (e_i + e_j)/sqrt(2) and i exp(-i*phi/2) (e_i - e_j)/sqrt(2),
    which V K leaves unchanged.  ``shifted`` marks the columns with
    phi = ky*Q (the pairs off row 0).  Both are cached per Q and read-only.
    """
    idx = np.arange(2 * Q)
    partner = 2 * ((Q - idx // 2) % Q) + 1 - idx % 2
    i = idx[idx < partner]
    j = partner[i]
    cols = 2 * np.arange(Q)
    w0 = np.zeros((2 * Q, 2 * Q), dtype=complex)
    w0[i, cols] = w0[j, cols] = 1.0 / math.sqrt(2.0)
    w0[i, cols + 1] = 1j / math.sqrt(2.0)
    w0[j, cols + 1] = -1j / math.sqrt(2.0)
    shifted = np.repeat(i >= 2, 2)
    w0.flags.writeable = shifted.flags.writeable = False
    return w0, shifted


def _pt_phase(params: ModelParams, kys) -> np.ndarray:
    """exp(i*(phi_a - phi_b)/2) for the columns a, b of W(ky), shape (len(kys), 2Q, 2Q)."""
    Q = params.magnetic_height
    _, shifted = _pt_basis(Q)
    half = 0.5 * Q * np.asarray(kys, dtype=float)[:, None] * shifted  # phi_a / 2
    return np.exp(1j * (half[:, :, None] - half[:, None, :]))


def real_form(params: ModelParams, h: np.ndarray, kys) -> np.ndarray:
    """Bloch-form matrices ``h`` in the real basis of P'T: Re(W^H h W), real symmetric.

    P' is inversion (m, n) -> (-m, -n) with sigma_z on every site: it commutes
    with the x hops exp(i*theta_n*sigma_z) (theta_{-n} = -theta_n and the hop
    reverses) and sigma_z flips the sigma_x of the reversed y hop.  With time
    reversal it gives the antiunitary V K, V V* = 1, under which every H(k)
    is invariant (the inversion-plus-time-reversal structure of Fu & Kane,
    PRB 76, 045302 (2007)), so H(k) is real in a basis of V K-invariant
    vectors, W(ky) = W0 diag(exp(-i*phi_a/2)).  The imaginary part dropped
    here is rounding.  ``h`` has shape (..., len(kys), 2Q, 2Q), or a 1 in
    the ky axis for a part that does not depend on ky.
    """
    w0, _ = _pt_basis(params.magnetic_height)
    return (w0.conj().T @ h @ w0 * _pt_phase(params, kys)).real


def real_bloch_parts(row, kxs: np.ndarray, kys: np.ndarray) -> tuple:
    """(chain, phase, wrap): the parts of the real Bloch matrices of a row on a grid.

    ``row`` holds points that differ in lambda alone (:func:`row_params`).
    H = chain(kx) + wrap(ky), so each part is rotated once: ``chain`` is
    W0^H chain(kx) W0 per point and kx (complex), shape (len(row), len(kxs),
    2Q, 2Q), ``phase`` the ky factor of :func:`real_form` and ``wrap`` the
    real form of the wrap bond, per ky.  Only the on-site term depends on
    lambda, as lambda times diag(+/-t0), so one rotation serves the row:
    chain(lambda) = chain(0) + lambda W0^H diag(+/-t0) W0, elementwise, and
    a point's parts have the same bits in any row.  :func:`real_bloch_at`
    assembles the matrices from them.
    """
    base = row_params(row)
    Q = base.magnetic_height
    w0, _ = _pt_basis(Q)
    w0h = w0.conj().T
    unit = np.repeat(onsite_energy(replace(base, lam=1.0), np.arange(Q)), 2)
    lams = np.array([p.lam for p in row])[:, None, None, None]
    chain = w0h @ _chain(base, Q, kxs) @ w0 + lams * (w0h @ np.diag(unit) @ w0)
    return chain, _pt_phase(base, kys), real_form(base, _wrap(base, kys), kys)


def real_bloch_at(parts: tuple, ip, ix, iy) -> np.ndarray:
    """Real Bloch matrices of point ip at the grid indices (ix, iy) of
    :func:`real_bloch_parts`.

    Re(chain[ip, ix] * phase[iy]) + wrap[iy], with ip, ix and iy broadcast:
    triples of indices or a whole grid.  The arithmetic is elementwise, so a
    matrix has the same bits whichever set of points it is built in.
    """
    chain, phase, wrap = parts
    return (chain[ip, ix] * phase[iy]).real + wrap[iy]


def real_bloch_stack(params: ModelParams, kxs: np.ndarray, kys: np.ndarray) -> np.ndarray:
    """:func:`bloch_stack` in the real basis of :func:`real_form`, real symmetric.

    Built from :func:`real_bloch_parts` of the row of this point alone; only
    the sum is formed on the (kx, ky) grid.
    """
    parts = real_bloch_parts([params], kxs, kys)
    return real_bloch_at(parts, 0, np.arange(len(kxs))[:, None], np.arange(len(kys)))


def bloch_step_bounds(params: ModelParams, kxs: np.ndarray, kys: np.ndarray) -> tuple:
    """(dx, dy): bounds on the spectral norm of a Bloch matrix's change,
    ||H(kxs[i], ky) - H(kxs[j], ky)|| <= dx[i, j] and
    ||H(kx, kys[i]) - H(kx, kys[j])|| <= dy[i, j].

    Only the diagonal of the chain depends on kx, so dx is the largest change
    of a diagonal entry.  Only the wrap bond depends on ky; it is t0 times a
    unitary times exp(i*ky*Q), so dy = t0 |exp(i*ky_i*Q) - exp(i*ky_j*Q)|.
    By Weyl's inequality, |E_n(k) - E_n(k')| <= ||H(k) - H(k')|| for the
    n-th sorted levels (Bhatia, *Matrix Analysis*, III.2), and the triangle
    inequality adds the two steps.  The on-site term cancels in dx, so the
    bounds are taken at lambda = 0: they depend on alpha, t0 and the momenta
    alone, and every point of a phase-diagram row shares them.
    """
    Q = params.magnetic_height
    diag = np.concatenate(chain_diagonal(replace(params, lam=0.0), Q, kxs), axis=1)
    wrap = np.exp(1j * Q * np.asarray(kys, dtype=float))
    dx = np.abs(diag[:, None] - diag[None]).max(axis=-1)
    return dx, params.t0 * np.abs(wrap[:, None] - wrap[None])


def spin_bloch_stack(
    params: ModelParams, kxs: np.ndarray, kys: np.ndarray, spin: int
) -> np.ndarray:
    """Single-spin Bloch stack (beta = 0), shape (nkx, nky, Q, Q).

    Spin up sees flux +2*pi*alpha, spin down -2*pi*alpha; the staggered
    potential is spin independent.
    """
    if params.beta != 0.0:
        raise ParameterError("spin sectors are decoupled only at beta = 0")
    return bloch_stack(params, kxs, kys)[..., spin::2, spin::2]


def time_reversal_matrix(n_cells: int) -> np.ndarray:
    """Unitary part S of the antiunitary time reversal T = S K, S = ⊕ i*sigma_y."""
    s_cell = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i*sigma_y is real
    return np.kron(np.eye(n_cells), s_cell)


def apply_time_reversal(vec: np.ndarray) -> np.ndarray:
    """Apply T = (⊕ i*sigma_y) K to a state vector."""
    if vec.shape[0] % 2:
        raise ParameterError("time reversal needs an even-dimensional spinful vector")
    s = time_reversal_matrix(vec.shape[0] // 2)
    return s @ vec.conj()


def time_reversal_check(
    params: ModelParams, representation: str = "open", n_k: int = 16
) -> float:
    """Max-norm residual of the time-reversal symmetry of the Hamiltonian.

    ``representation='open'`` checks ||T H T^-1 - H||_max on the finite
    lattice; ``'bloch'`` checks ||T H(k) T^-1 - H(-k)||_max over an n_k-point
    deterministic sample of the reduced zone.
    """
    if representation == "open":
        h = open_hamiltonian(params).toarray()
        s = time_reversal_matrix(h.shape[0] // 2)
        return float(np.max(np.abs(s @ h.conj() @ s.T - h)))
    if representation == "bloch":
        Q = params.magnetic_height
        side = max(2, int(round(math.sqrt(n_k))))
        kxs = np.linspace(-math.pi, math.pi, side, endpoint=False)
        kys = np.linspace(-math.pi / Q, math.pi / Q, side, endpoint=False)
        s = time_reversal_matrix(Q)
        h = bloch_stack(params, kxs, kys)
        h_rev = bloch_stack(params, -kxs, -kys)
        return float(np.max(np.abs(s @ h.conj() @ s.T - h_rev)))
    raise ParameterError(f"unknown representation {representation!r}")
