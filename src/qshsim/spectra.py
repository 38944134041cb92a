"""Hermitian eigensolves, band structures and spectral-gap detection.

The eigenpairs of a real-space operator nearest an energy come from ARPACK
shift-invert wherever ARPACK can serve the count, and from a dense solve
otherwise; band structures use batched dense solves, the bulk ones on the
real symmetric Bloch matrices of :func:`qshsim.model.real_form` and the
ribbon ones on the real ribbon of :func:`qshsim.model.ribbon_stack`.  The
window gap of a bulk grid comes from :func:`quarter_zone_gap`, which solves
only the grid points whose levels, bounded by Weyl's inequality from the
points already solved, could still change the answer, and returns exactly
what the full scan returns; it scans a row of points that differ in lambda
alone together.
Momentum grids always contain k = 0 and k = pi exactly (even point counts
spanning [-pi, pi)), so time-reversal invariant momenta are sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ParameterError, SolverError
from .model import (
    ModelParams,
    bloch_stack,
    bloch_step_bounds,
    real_bloch_at,
    real_bloch_parts,
    real_bloch_stack,
    real_form,
    ribbon_stack,
)

#: minimum empty-interval width (units of t0) accepted as a true spectral gap
GAP_THRESHOLD = 0.05
#: fewest momenta per axis of a bulk band grid
BULK_MIN_GRID = 16
#: most Bloch matrices a bulk band scan builds and solves at once; a 64x64
#: grid peaks about 8 MiB above its result instead of 28 MiB in one piece
BLOCH_CHUNK = 1024
#: most Bloch matrices a round of :func:`quarter_zone_gap` builds and solves
#: at once; a round of a 16-point row in one piece holds tens of MiB of
#: complex temporaries
GAP_CHUNK = 256
#: grid steps between the points of the coarse lattice that
#: :func:`quarter_zone_gap` solves first; a power of two
PRUNE_STRIDE = 8
#: added to every Weyl radius of :func:`quarter_zone_gap`, far above the
#: rounding of a solved level and far below any gap it decides
WEYL_SLACK = 1e-9


@dataclass
class BandData:
    """Eigenvalues over a momentum grid.

    ``energies`` has shape (nkx, nbands) for ribbons and (nkx, nky, nbands)
    for bulk grids, ascending along the last axis.  ``localization`` (ribbons
    only) holds per-state edge weights, shape (nkx, nbands, 2) for the
    (bottom, top) edges.
    """

    kx: np.ndarray
    energies: np.ndarray
    ky: Optional[np.ndarray] = None
    localization: Optional[np.ndarray] = None

    @property
    def nbands(self) -> int:
        return self.energies.shape[-1]

    def flat_energies(self) -> np.ndarray:
        return np.sort(self.energies.ravel())


@dataclass
class GapReport:
    """Largest eigenvalue-free subinterval found inside an energy window."""

    window: tuple
    gap: Optional[tuple]
    gap_threshold: float
    #: Bloch matrices :func:`quarter_zone_gap` solved; None when the report
    #: comes from given bands.  Not part of the report's value.
    solved: Optional[int] = field(default=None, compare=False)

    @property
    def is_gapped(self) -> bool:
        return self.gap is not None


def eig_hermitian(h, nearest: tuple):
    """The ``count`` eigenpairs of Hermitian ``h`` nearest ``e0``, ascending.

    ``nearest=(e0, count)`` with 1 <= count <= dim.  ARPACK shift-invert
    serves every count it can (``count <= dim - 2``), with a fixed start
    vector so repeated solves are reproducible.  Larger counts take the
    dense solve, which breaks ties in |E - e0| towards the lower energy, and
    so does an e0 that is exactly an eigenvalue, where H - e0 has no LU
    factorization to invert.
    """
    e0, count = nearest[0], int(nearest[1])
    mat = sp.csc_matrix(h)
    dim = mat.shape[0]
    if not 1 <= count <= dim:
        raise ParameterError(f"nearest count {count} outside 1..{dim}")
    if count <= dim - 2:  # ARPACK's limit on k for complex Hermitian input
        v0 = np.ones(dim) / math.sqrt(dim)  # fixed start vector: deterministic runs
        try:
            vals, vecs = spla.eigsh(mat, k=count, sigma=e0, which="LM", v0=v0)
        except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare path
            raise SolverError(
                "iterative eigensolver failed to converge",
                diagnostics={
                    "converged_eigenvalues": getattr(exc, "eigenvalues", None),
                    "requested": nearest,
                },
            ) from exc
        except RuntimeError as exc:  # SuperLU's only report of a singular H - e0
            if "exactly singular" not in str(exc):
                raise
        else:
            return _rayleigh_ritz(mat, vecs)
    vals, vecs = np.linalg.eigh(mat.toarray())
    order = np.lexsort((vals, np.abs(vals - e0)))[:count]
    order = order[np.argsort(vals[order])]
    return vals[order], vecs[:, order]


def _rayleigh_ritz(mat, vecs):
    """Orthonormal eigenpairs of ``mat`` in the span of ``vecs``, ascending.

    ARPACK serves complex Hermitian input through its non-Hermitian driver,
    whose vectors for a degenerate level (every Kramers pair) need not be
    orthogonal; projecting onto an orthonormal basis of their span makes
    them so, as the dense solve returns them.
    """
    q, _ = np.linalg.qr(vecs)
    vals, w = np.linalg.eigh(q.conj().T @ (mat @ q))
    return vals, q @ w


def momentum_grid(count: int, period: float = 2.0 * math.pi) -> np.ndarray:
    """Even-count uniform grid over [-period/2, period/2) including 0 exactly."""
    n = int(count)
    if n % 2:
        n += 1
    return np.linspace(-period / 2.0, period / 2.0, n, endpoint=False)


def _zone_grid(params: ModelParams, grid: tuple) -> tuple:
    """(kxs, kys) of an (nkx, nky) grid over the magnetic Brillouin zone."""
    nkx, nky = grid
    if nkx < BULK_MIN_GRID or nky < BULK_MIN_GRID:
        raise ParameterError(
            f"bulk band grid must be at least {BULK_MIN_GRID}x{BULK_MIN_GRID}"
        )
    Q = params.magnetic_height
    return momentum_grid(nkx), momentum_grid(nky, period=2.0 * math.pi / Q)


def _zone_energies(build, kxs, kys) -> np.ndarray:
    """Eigenvalues of the real symmetric ``build(kxs, kys)``, shape (nkx, nky, 2Q).

    The stack is built and solved in kx chunks of at most ``BLOCH_CHUNK``
    matrices, which bounds the memory of a scan.
    """
    step = max(1, BLOCH_CHUNK // kys.size)
    return np.concatenate([
        np.linalg.eigvalsh(build(kxs[i : i + step], kys))
        for i in range(0, kxs.size, step)
    ])


def bulk_bands(params: ModelParams, grid: tuple) -> BandData:
    """Band energies over the magnetic Brillouin zone on an (nkx, nky) grid.

    The Bloch matrices are solved in the real basis of :func:`real_form`.
    """
    kxs, kys = _zone_grid(params, grid)
    energies = _zone_energies(
        lambda kx, ky: real_form(params, bloch_stack(params, kx, ky), ky), kxs, kys
    )
    return BandData(kx=kxs, ky=kys, energies=energies)


def _quarter_grid(params: ModelParams, grid: tuple) -> tuple:
    """(kxs, kys) of the kx <= 0, ky <= 0 quarter of an (nkx, nky) zone grid."""
    kxs, kys = _zone_grid(params, grid)
    return kxs[kxs <= 0.0], kys[kys <= 0.0]


def quarter_zone_bands(params: ModelParams, grid: tuple) -> BandData:
    """Band energies of the kx <= 0, ky <= 0 quarter of the :func:`bulk_bands` grid.

    Time reversal gives E(kx, ky) = E(-kx, -ky).  The mirror x -> -x combined
    with sigma_x on every site maps H(kx, ky) to H(-kx, ky), since
    sigma_x exp(-i theta sigma_z) sigma_x = exp(i theta sigma_z) and sigma_x
    commutes with the y hop; together they give E(kx, ky) = E(kx, -ky).  The
    grid is closed under either sign flip (it holds 0, -pi and -pi/Q, and H
    is periodic in ky), so the quarter carries the energy set of the whole
    grid: 33 x 33 of 64 x 64 points.  The stack is built real symmetric by
    :func:`real_bloch_stack`.
    """
    kxs, kys = _quarter_grid(params, grid)
    energies = _zone_energies(lambda kx, ky: real_bloch_stack(params, kx, ky), kxs, kys)
    return BandData(kx=kxs, ky=kys, energies=energies)


def _lattice(n: int, stride: int) -> np.ndarray:
    """Mask of the indices 0, stride, 2*stride, ... and n - 1 of an axis of n points."""
    idx = np.arange(n)
    return (idx % stride == 0) | (idx == n - 1)


def _corners(n: int, stride: int, idx: np.ndarray) -> tuple:
    """The stride-lattice points around each index: itself twice when on the lattice."""
    on = _lattice(n, stride)[idx]
    below = np.where(on, idx, idx - idx % stride)
    return below, np.where(on, idx, np.minimum(below + stride, n - 1))


def quarter_zone_gap(row, grid: tuple, window: tuple, gap_threshold: float) -> list:
    """``gap_in_window(quarter_zone_bands(params, grid), window, gap_threshold)``
    for each point of ``row``, solving only the grid points whose levels could
    change that answer.

    ``row`` holds points that differ in lambda alone (a beta row of a phase
    diagram, or one point); they are scanned together, each round's
    matrices built and solved for the whole row in chunks of at most
    ``GAP_CHUNK``, but each point's decisions read only its own levels,
    so its report is the same in any row.  Every unsolved point carries an
    interval for each sorted level.  The scan solves the lattice of every
    ``PRUNE_STRIDE``-th point of the quarter grid (and its last point per
    axis), then halves the stride down to 1.  A new point's level n lies
    within r of level n at each of its four corners on the coarser lattice,
    r the bound of :func:`bloch_step_bounds` on ||H(k) - H(corner)|| plus
    ``WEYL_SLACK`` (Weyl's inequality), so its interval is the intersection
    of the four corners' intervals widened by r.  After each step the
    unsolved points whose intervals meet the largest gap of the solved
    levels are solved, until none does.

    The answer is exact, down to the bits of the gap edges.  Once no
    unsolved level can lie inside the largest gap (a, b) of the solved
    levels, (a, b) is also a gap between consecutive levels of the whole
    grid.  Every other gap of the whole grid lies inside a gap of the solved
    levels, so it is no wider (rounding is monotone), and one as wide as
    (a, b) lies inside a solved gap that np.argmax reaches after (a, b):
    the first-maximum rule picks (a, b) again.  Solved levels without a gap
    >= ``gap_threshold`` mean a metal: more levels only narrow the gaps.
    The matrices come from :func:`real_bloch_at`, bit for bit those of
    :func:`quarter_zone_bands`.  Each report's ``solved`` counts them.
    """
    kxs, kys = _quarter_grid(row[0], grid)
    parts = real_bloch_parts(row, kxs, kys)
    dx, dy = bloch_step_bounds(row[0], kxs, kys)
    nx, ny = kxs.size, kys.size
    # per point still scanned: its place in the row, level intervals, solved mask
    ids = np.arange(len(row))
    lo = np.empty((ids.size, nx, ny, 2 * row[0].magnetic_height))
    hi = np.empty_like(lo)
    solved = np.zeros(lo.shape[:-1], dtype=bool)
    reports = [None] * len(row)

    def solve(mask):
        points = np.nonzero(mask)
        for i in range(0, points[0].size, GAP_CHUNK):
            ip, ix, iy = (axis[i : i + GAP_CHUNK] for axis in points)
            lo[ip, ix, iy] = hi[ip, ix, iy] = np.linalg.eigvalsh(
                real_bloch_at(parts, ids[ip], ix, iy)
            )
        solved[points] = True

    def report(p, gap):
        reports[ids[p]] = GapReport(
            window=(float(window[0]), float(window[1])),
            gap=gap,
            gap_threshold=gap_threshold,
            solved=int(solved[p].sum()),
        )

    stride = PRUNE_STRIDE
    # the grid points with intervals, the same for every point
    known = _lattice(nx, stride)[:, None] & _lattice(ny, stride)
    solve(np.broadcast_to(known, solved.shape))
    while True:
        while True:
            gaps = [find_gap(levels[done], window, gap_threshold)
                    for levels, done in zip(lo, solved)]
            gapped = np.array([gap is not None for gap in gaps])
            for p in np.flatnonzero(~gapped):
                report(p, None)
            if not gapped.all():
                ids, solved = ids[gapped], solved[gapped]
                lo = lo[gapped]  # one array at a time bounds the peak
                hi = hi[gapped]
                gaps = [gap for gap in gaps if gap is not None]
                if not ids.size:
                    return reports
            edges = np.array(gaps)[:, :, None, None, None]
            meets = ((lo < edges[:, 1]) & (hi > edges[:, 0])).any(axis=-1)
            meets &= known & ~solved
            if not meets.any():
                break
            solve(meets)
        if stride == 1:
            for p, gap in enumerate(gaps):
                report(p, gap)
            return reports
        ix, iy = np.nonzero(
            _lattice(nx, stride // 2)[:, None] & _lattice(ny, stride // 2) & ~known
        )
        corners = [
            (cx, cy, (dx[ix, cx] + dy[iy, cy] + WEYL_SLACK)[:, None])
            for cx in _corners(nx, stride, ix)
            for cy in _corners(ny, stride, iy)
        ]
        # one point at a time, so the temporaries are one point's, not the row's
        for bound, widen, meet in ((lo, np.subtract, np.maximum),
                                   (hi, np.add, np.minimum)):
            for p in range(ids.size):
                new = None
                for cx, cy, r in corners:
                    corner = widen(bound[p, cx, cy], r)
                    new = corner if new is None else meet(new, corner, out=new)
                bound[p, ix, iy] = new
        known[ix, iy] = True
        stride //= 2


#: fewest ribbon momenta accepted, over [-pi, pi) for the bands and over
#: [0, pi] for the Z2 vote
RIBBON_MIN_KX = 101
#: outermost rows of each ribbon edge whose weight tags a state's localization
EDGE_ROWS = 2


def check_ribbon_grid(params: ModelParams, ny: int, kx_count: int) -> None:
    """ParameterError unless the ribbon holds two magnetic cells and enough momenta."""
    if ny < 2 * params.magnetic_height:
        raise ParameterError(
            f"ribbon height {ny} too small; need at least 2*lcm(q,2) = "
            f"{2 * params.magnetic_height} rows"
        )
    if kx_count < RIBBON_MIN_KX:
        raise ParameterError(
            f"ribbon momentum grid needs at least {RIBBON_MIN_KX} points"
        )


def ribbon_states(params: ModelParams, ny: int, kxs: np.ndarray):
    """Ribbon eigenvalues and per-row weights, shape (nkx, ny, nbands)."""
    energies, vecs = np.linalg.eigh(ribbon_stack(params, ny, kxs))
    weights = np.square(vecs).reshape(len(kxs), ny, 2, 2 * ny)
    return energies, weights.sum(axis=2)


def ribbon_bands(params: ModelParams, ny: int, kx_count: int) -> BandData:
    """Ribbon bands with per-state edge weights.

    The localization tag of each state is the probability weight inside the
    outermost ``EDGE_ROWS`` rows, reported separately for the bottom and the
    top edge.
    """
    check_ribbon_grid(params, ny, kx_count)
    kxs = momentum_grid(kx_count)
    energies, w = ribbon_states(params, ny, kxs)
    bottom = w[:, :EDGE_ROWS].sum(axis=1)
    top = w[:, -EDGE_ROWS:].sum(axis=1)
    localization = np.stack([bottom, top], axis=-1)
    return BandData(kx=kxs, energies=energies, localization=localization)


def find_gap(values: np.ndarray, window: tuple, gap_threshold: float):
    """Maximal empty subinterval of sorted ``values`` inside ``window``."""
    lo, hi = window
    if not hi > lo:
        raise ParameterError(f"empty energy window {window}")
    inside = np.sort(values[(values > lo) & (values < hi)])
    points = np.concatenate(([lo], inside, [hi]))
    widths = np.diff(points)
    i = int(np.argmax(widths))
    gap = (float(points[i]), float(points[i + 1]))
    if widths[i] >= gap_threshold:
        return gap
    return None


def gap_in_window(bands: BandData, window: tuple, gap_threshold: float) -> GapReport:
    """Scan merged band energies for the largest gap inside the window."""
    gap = find_gap(bands.flat_energies(), window, gap_threshold)
    return GapReport(
        window=(float(window[0]), float(window[1])),
        gap=gap,
        gap_threshold=gap_threshold,
    )
