"""Topological invariants and the spin-mixing / staggering phase diagram.

Chern numbers come from the lattice field-strength (link-variable) method on
a discretized magnetic Brillouin zone: overlap-determinant links, plaquette
field strengths folded to the principal branch, integer after rounding.  The
method only needs the selected band group to stay separated from the rest, so
folded degenerate pairs inside the group are fine.

The Z2 index is obtained on a ribbon: count the crossings of the Fermi level
by states localized on one chosen edge for kx in [0, pi]; the parity of that
count is the invariant.  The crossings are located by counting the ribbon
levels below each vote energy from the inertia of a block LDL^T
factorization, in real arithmetic read from the ribbon's diagonal and its
one y-bond block, so only the momenta next to a crossing are diagonalized.
At beta = 0 the tests cross-check it against the spin Chern number
(``test_z2_matches_spin_chern_on_lambda_sweep`` and acceptance criterion 4).
The bulk gap is sampled on a quarter of the zone (time reversal plus the x
mirror), with the Bloch matrices in their real P'T form, and
:func:`classify_point` solves only the points that can change the sampled
gap (:func:`qshsim.spectra.quarter_zone_gap`).  Where the ribbon vote
cannot attribute a crossing to an edge, :func:`classify_point` settles the
point from the bulk: a refined gap scan, then the Wilson-loop Z2 of
Soluyanov & Vanderbilt, PRB 83, 235401 (2011), solved in chunks of kx
lines.  A phase diagram classifies one beta row per
pool task (:func:`_classify_row`): the row's gap scan and ribbon count pass
(:func:`_ribbon_votes`, which :func:`z2_invariant` runs for a row of one)
run once for all its lambda, and each point is then labelled on its own.
The classifier's settings default to ``BULK_GRID``, ``NY_RIBBON`` and
``KX_POINTS`` in :func:`classify_point` and in the config table;
:func:`phase_diagram` takes every setting as given.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    DegeneracyError,
    GaplessError,
    ParameterError,
    QshError,
    ResolutionError,
)
from .model import (
    SPIN_DOWN,
    SPIN_UP,
    ModelParams,
    bloch_stack,
    chain_diagonal,
    onsite_energy,
    ribbon_y_bond,
    row_params,
    spin_bloch_stack,
)
from .spectra import (
    GAP_THRESHOLD,
    GapReport,
    check_ribbon_grid,
    quarter_zone_bands,
    quarter_zone_gap,
    ribbon_states,
)

PHASE_TOPOLOGICAL = "topological"
PHASE_METAL = "metal"
PHASE_TRIVIAL = "trivial"
PHASE_ERROR = "error"  # per-point failure recorded in PhasePoint.error

#: maximum |C - round(C)| accepted when certifying an integer Chern number
CHERN_RESIDUAL_TOL = 0.01
DEFAULT_FERMI_ENERGY = 1.5
DEFAULT_WINDOW = (1.0, 2.0)
#: fewest beta and lambda values of a phase diagram
PHASE_MIN_RESOLUTION = 16
#: the classifier's settings: the bulk gap grid, and the ribbon rows and kx
#: points of the Z2 vote
BULK_GRID = (128, 128)
NY_RIBBON = 48
KX_POINTS = 201
#: bottom-half weight from which a ribbon state counts as a bottom-edge state
EDGE_WEIGHT_MIN = 0.5
#: kx lines of the Wilson-loop Z2, whose parity on every other line (129
#: lines) must agree with that on all of them, and ky points per loop
WILSON_KX_LINES = 257
WILSON_KY_POINTS = 24
#: kx lines of a Wilson loop solved as one stack: 32 lines of 24 ky points
#: hold about 2 MB of 12x12 eigenvectors
WILSON_CHUNK = 32
#: bulk routes that settle a point whose ribbon vote failed
ROUTE_REFINED_GAP = "refined_gap"
ROUTE_WILSON = "wilson"


@dataclass
class PhasePoint:
    beta: float
    lam: float
    phase: str
    nu: Optional[int]
    gap: Optional[GapReport]
    error: Optional[str] = None
    #: bulk route that settled the point after its ribbon vote failed
    route: Optional[str] = None


@dataclass
class PhaseMap:
    beta_grid: np.ndarray
    lambda_grid: np.ndarray
    points: list  # row-major: points[i][j] at (beta_grid[i], lambda_grid[j])


def _band_stack(params: ModelParams, nkx: int, nky: int, spin: Optional[int]):
    """Eigen-decomposition over the periodic FHS grid (no endpoint doubling)."""
    Q = params.magnetic_height
    kxs = np.linspace(-math.pi, math.pi, nkx, endpoint=False)
    kys = np.linspace(-math.pi / Q, math.pi / Q, nky, endpoint=False)
    if spin is None:
        stack = bloch_stack(params, kxs, kys)
    else:
        stack = spin_bloch_stack(params, kxs, kys, spin)
    vals, vecs = np.linalg.eigh(stack)
    return vals, vecs


def _select_band_indices(vals: np.ndarray, bands) -> List[int]:
    nb = vals.shape[-1]
    if isinstance(bands, tuple) and len(bands) == 2 and bands[0] == "below":
        counts = (vals < bands[1]).sum(axis=-1)
        if counts.min() != counts.max():
            raise DegeneracyError(
                f"number of bands below E={bands[1]} varies across the zone "
                f"({counts.min()}..{counts.max()}); no clean band group"
            )
        return list(range(int(counts[0, 0])))
    idx = sorted(int(b) for b in bands)
    if any(b < 0 or b >= nb for b in idx):
        raise ParameterError(f"band indices {idx} out of range for {nb} bands")
    return idx


def chern_fhs(params: ModelParams, bands, kgrid: tuple, spin: Optional[int]) -> int:
    """Chern number of a band group via the lattice field-strength sum.

    ``bands`` is either an explicit list of band indices or ``("below", E)``.
    ``spin`` restricts to one decoupled spin sector (requires beta = 0); None
    takes both spins.
    Raises DegeneracyError if the group touches its complement anywhere on the
    grid and ResolutionError if the rounded total is not integer to within
    ``CHERN_RESIDUAL_TOL``.
    """
    nkx, nky = kgrid
    if nkx < 24 or nky < 24:
        raise ParameterError("FHS grid must be at least 24x24")
    vals, vecs = _band_stack(params, nkx, nky, spin)
    idx = _select_band_indices(vals, bands)
    if not idx:
        return 0
    if idx != list(range(idx[0], idx[0] + len(idx))):
        raise ParameterError("band selection must be a contiguous index range")
    lo, hi = idx[0], idx[-1]
    nb = vals.shape[-1]
    sep = np.inf
    if lo > 0:
        sep = min(sep, float((vals[..., lo] - vals[..., lo - 1]).min()))
    if hi < nb - 1:
        sep = min(sep, float((vals[..., hi + 1] - vals[..., hi]).min()))
    if sep < 1e-9:
        raise DegeneracyError(
            f"selected bands {idx} touch their complement (min separation {sep:.2e})"
        )

    v = vecs[..., idx]  # (nkx, nky, dim, nsel)
    vdag = v.conj().transpose(0, 1, 3, 2)
    ux = np.linalg.det(vdag @ np.roll(v, -1, axis=0))
    uy = np.linalg.det(vdag @ np.roll(v, -1, axis=1))
    if np.min(np.abs(ux)) < 1e-12 or np.min(np.abs(uy)) < 1e-12:
        raise ResolutionError("vanishing link variable; refine the FHS grid")
    # plaquette orientation fixed so the lowest band of the +2*pi*alpha
    # (spin-up) sector at alpha=1/3 carries Chern number +1
    fs = np.angle(
        np.conj(ux) * np.conj(np.roll(uy, -1, axis=0)) * np.roll(ux, -1, axis=1) * uy
    )
    total = float(fs.sum() / (2.0 * math.pi))
    nearest = int(round(total))
    if abs(total - nearest) >= CHERN_RESIDUAL_TOL:
        raise ResolutionError(
            f"field-strength sum {total:.6f} not integer within "
            f"{CHERN_RESIDUAL_TOL}; refine the grid"
        )
    return nearest


def hofstadter_band_groups(params: ModelParams) -> List[List[int]]:
    """Band-index groups of the doubled magnetic cell, one per physical band.

    With the cell height fixed to lcm(q, 2), each of the q physical bands of a
    spin sector folds into a degenerate pair when q is odd; groups collect the
    folded indices so they can be fed to :func:`chern_fhs` together.
    """
    Q = params.magnetic_height
    fold = Q // params.q
    return [list(range(i * fold, (i + 1) * fold)) for i in range(params.q)]


def spin_chern(
    params: ModelParams, e_f: float = DEFAULT_FERMI_ENERGY, kgrid: tuple = (24, 24)
) -> tuple:
    """Per-spin Chern numbers of all bands below ``e_f`` (beta = 0 only)."""
    if params.beta != 0.0:
        raise ParameterError("spin Chern numbers need conserved spin (beta = 0)")
    c_up = chern_fhs(params, ("below", e_f), kgrid=kgrid, spin=SPIN_UP)
    c_down = chern_fhs(params, ("below", e_f), kgrid=kgrid, spin=SPIN_DOWN)
    return c_up, c_down


def bulk_gap_at(params: ModelParams, e_f: float) -> tuple:
    """Sampled bulk gap (e_below, e_above) around e_f, or GaplessError if none.

    The levels come from the ``BULK_GRID`` sample of the zone, so the gap is
    sampled, not certified.  Band extrema between grid points can narrow the
    true gap below ``GAP_THRESHOLD``: at alpha = 1/3, (beta, lambda) =
    (0.2333, 1.3333), the 128x128 sample leaves a gap of 0.061 that refined
    k points close below 0.05.  Every sampled level is a true eigenvalue, so
    a GaplessError is certain.
    """
    flat = quarter_zone_bands(params, BULK_GRID).flat_energies()
    below = flat[flat < e_f]
    above = flat[flat > e_f]
    e_below = float(below.max()) if below.size else -np.inf
    e_above = float(above.min()) if above.size else np.inf
    if np.any(flat == e_f) or (e_above - e_below) < GAP_THRESHOLD:
        raise GaplessError(
            f"no bulk gap at E={e_f}: nearest levels ({e_below:.4f}, {e_above:.4f})"
        )
    return e_below, e_above


def _ribbon_slab(params: ModelParams, ny: int, kxs: np.ndarray):
    """Ribbon eigenvalues plus per-state weight on the bottom half.

    Half-ribbon weights attribute a state to an edge even when its decay
    length grows near a transition, where a fixed shallow ring would fail.
    """
    vals, w = ribbon_states(params, ny, np.asarray(kxs))
    bottom = w[:, : ny // 2].sum(axis=1)
    return vals, bottom


def _count_bottom_crossings(params, ny, e_f, k_lo, k_hi, e_lo, e_hi, w_lo, w_hi, depth):
    """Bottom-edge crossings of e_f between two solved momenta.

    Sign changes are tracked per sorted band index, which also resolves pairs
    of branches crossing e_f in opposite directions within one interval
    (their net level count is unchanged).  Intervals with an ambiguous edge
    character are bisected, twice at most, then flagged.
    """
    flipped = np.nonzero((e_lo < e_f) != (e_hi < e_f))[0]
    if flipped.size == 0:
        return 0
    ambiguous = [
        j
        for j in flipped
        if not (
            min(w_lo[j], w_hi[j]) >= EDGE_WEIGHT_MIN
            or max(w_lo[j], w_hi[j]) < 1.0 - EDGE_WEIGHT_MIN
        )
    ]
    if (flipped.size > 1 or ambiguous) and depth < 2:
        k_mid = 0.5 * (k_lo + k_hi)
        e_mid, w_mid = _ribbon_slab(params, ny, np.array([k_mid]))
        return _count_bottom_crossings(
            params, ny, e_f, k_lo, k_mid, e_lo, e_mid[0], w_lo, w_mid[0], depth + 1
        ) + _count_bottom_crossings(
            params, ny, e_f, k_mid, k_hi, e_mid[0], e_hi, w_mid[0], w_hi, depth + 1
        )
    total = 0
    for j in flipped:
        w = 0.5 * (w_lo[j] + w_hi[j])
        if j in ambiguous:
            raise DegeneracyError(
                f"ambiguous edge weight {w:.3f} for a Fermi crossing near "
                f"kx={k_lo:.4f}; refine the momentum grid"
            )
        if w >= EDGE_WEIGHT_MIN:
            total += 1
    return total


def _ribbon_level_counts(row, ny: int, kxs, energies):
    """Ribbon levels below each energy at each kx, from the inertia of H - E.

    The ribbon H(kx) is block tridiagonal in 2x2 row blocks: A_n on the
    diagonal, C coupling row n to row n-1.  Both are read from the model
    directly, with no ribbon built: A_n is diagonal, the x hops and on-site
    term of :func:`chain_diagonal`, and C is the one real y-bond block of
    :func:`ribbon_y_bond`.  The block LDL^T factorization has the pivots
    D_0 = A_0 - E and D_n = A_n - E - C D_{n-1}^{-1} C^T, and by Sylvester's
    law of inertia H - E has as many negative eigenvalues as the pivots
    together (the Sturm count; Parlett, *The Symmetric Eigenvalue Problem*,
    SIAM 1998).  A symmetric 2x2 pivot has one when its determinant is
    negative, two when its determinant is positive and its trace negative.
    The recursion runs elementwise over (points x energies x kx), one row at
    a time, on the same floating-point values as the entries of
    :func:`qshsim.model.ribbon_stack`.

    ``row`` holds points that differ in lambda alone (:func:`row_params`),
    a row of one for a single point, and ``energies`` one list of energies
    per point.  Returns the counts, shape (len(row), len(energies[0]),
    len(kxs)), and a mask of the kx where some pivot was singular or
    non-finite, shape (len(row), len(kxs)); the counts there are
    meaningless and must come from a dense solve.
    """
    base = row_params(row)
    up, down = chain_diagonal(base, ny, kxs)  # (kx, row n), without the on-site term
    eps = np.array([onsite_energy(p, np.arange(ny)) for p in row])
    (p, q), (r, s) = ribbon_y_bond(base)
    e = np.asarray(energies, dtype=float).reshape(len(row), -1, 1)
    counts = np.zeros((len(row), e.shape[1], len(kxs)), dtype=int)
    sound = np.ones(counts.shape, dtype=bool)
    with np.errstate(all="ignore"):  # a failed pivot poisons only its own kx
        for n in range(ny):
            a = (up[:, n] + eps[:, n, None])[:, None] - e
            c = (down[:, n] + eps[:, n, None])[:, None] - e
            b = 0.0  # A_n is diagonal
            if n:
                # C adj(D) C^T / det(D) for the previous pivot D = [[pa, pb],
                # [pb, pc]], with adj(D) = [[pc, -pb], [-pb, pa]]
                a -= (pc * p * p + pa * q * q - 2.0 * pb * p * q) / det
                c -= (pc * r * r + pa * s * s - 2.0 * pb * r * s) / det
                b -= (pc * p * r - pb * (p * s + q * r) + pa * q * s) / det
            det = a * c - b * b
            counts += (det < 0) + 2 * ((det > 0) & (a + c < 0))
            sound &= np.isfinite(det) & (det != 0)
            pa, pb, pc = a, b, c
    return counts, ~sound.all(axis=1)


def _vote_energies(e_f: float, gap_bounds: tuple) -> tuple:
    """The three vote energies of :func:`z2_invariant`: e_f, and the points a
    quarter of the way from it to each edge of the finite gap ``gap_bounds``
    (GaplessError unless e_f lies inside it)."""
    g_lo, g_hi = gap_bounds
    if not -math.inf < g_lo < e_f < g_hi < math.inf:
        raise GaplessError(f"E={e_f} outside the sampled bulk gap ({g_lo}, {g_hi})")
    return (e_f, e_f - 0.25 * (e_f - g_lo), e_f + 0.25 * (g_hi - e_f))


def _ribbon_votes(row, ny_ribbon: int, kx_points: int, energies) -> list:
    """The vote of each point of ``row`` at its own vote energies, from one
    count pass: per point, the arguments of :func:`_vote_from_counts` after
    ``params``.

    The ribbon needs at least 2*lcm(q, 2) rows and 101 momenta
    (ParameterError otherwise); the kx run over [0, pi], both ends included.
    """
    check_ribbon_grid(row[0], ny_ribbon, kx_points)
    kxs = np.linspace(0.0, math.pi, int(kx_points))
    counts, failed = _ribbon_level_counts(row, ny_ribbon, kxs, energies)
    return [(ny_ribbon, kxs, *vote) for vote in zip(energies, counts, failed)]


def z2_invariant(
    params: ModelParams, e_f: float, ny_ribbon: int, kx_points: int, gap_bounds: tuple
) -> int:
    """Z2 index from the parity of Fermi-level edge crossings on a ribbon.

    Counts, for kx in [0, pi], the states crossing the Fermi level whose
    weight sits on the bottom half of the ribbon (threshold
    ``EDGE_WEIGHT_MIN``); nu is the count mod 2.  ``gap_bounds`` is the
    caller's finite bulk gap (e_below, e_above), and e_f must lie inside it
    (GaplessError otherwise).  The parity is evaluated at three Fermi
    levels inside the bulk gap and the majority is returned: an accidental
    coincidence of opposite-edge branches at one level (where the finite
    ribbon hybridizes them into avoided curves) cannot then flip the result.

    The levels below each vote energy are counted at every kx from the
    inertia of H(kx) - E (:func:`_ribbon_votes`), and
    :func:`_vote_from_counts` finishes the vote.  The ribbon needs at least
    2*lcm(q, 2) rows and 101 momenta (ParameterError otherwise).
    """
    candidates = _vote_energies(e_f, gap_bounds)
    (vote,) = _ribbon_votes([params], ny_ribbon, kx_points, [candidates])
    return _vote_from_counts(params, *vote)


def _vote_from_counts(params, ny_ribbon, kxs, candidates, counts, failed) -> int:
    """The Z2 vote of :func:`z2_invariant` from its level counts at each kx.

    Band j crosses E between two momenta exactly when j lies between their
    two counts, so the ribbon is diagonalized only at the ends of the
    intervals whose count changes, and at the kx whose factorization failed.
    The first two energies are counted first: when both resolve and agree,
    their parity is the majority whatever the third gives, and the third's
    intervals are never solved.
    """
    counts = counts.copy()
    vals = np.empty((kxs.size, 2 * ny_ribbon))
    bottom = np.empty_like(vals)
    solved = np.zeros(kxs.size, dtype=bool)

    def solve_ends(opened):
        """Diagonalize both ends of every ``opened`` interval not yet solved."""
        ends = np.zeros_like(solved)
        ends[:-1] |= opened
        ends[1:] |= opened
        at = np.flatnonzero(ends & ~solved)
        if at.size:
            vals[at], bottom[at] = _ribbon_slab(params, ny_ribbon, kxs[at])
            solved[at] = True

    def parity(ef, count):
        crossings = 0
        for i in np.flatnonzero(count[1:] != count[:-1]):
            crossings += _count_bottom_crossings(
                params, ny_ribbon, ef, kxs[i], kxs[i + 1],
                vals[i], vals[i + 1], bottom[i], bottom[i + 1], 0,
            )
        return crossings % 2

    # the intervals next to a failed kx are solved with the first two
    # energies; the dense solve there supplies every energy's count
    solve_ends((counts[:2, 1:] != counts[:2, :-1]).any(axis=0) | failed[:-1] | failed[1:])
    levels = np.asarray(candidates)[:, None, None]
    counts[:, failed] = (vals[failed] < levels).sum(axis=-1)
    parities, failure = [], None
    for k, (ef, count) in enumerate(zip(candidates, counts)):
        if k == 2:
            if len(parities) == 2 and parities[0] == parities[1]:
                break
            solve_ends(count[1:] != count[:-1])
        try:
            parities.append(parity(ef, count))
        except DegeneracyError as exc:
            failure = exc
    if not parities or (len(parities) == 2 and parities[0] != parities[1]):
        raise failure or DegeneracyError("edge-crossing count unresolved")
    return int(round(np.median(parities)))


def _ky_wilson_phases(params: ModelParams, kxs, kys: np.ndarray, e_f: float, occupied):
    """Wilson-loop eigenphases / 2pi in [0, 1) of the bands below e_f along ky.

    One ky loop per kx, all solved as one stack.  The wrap gauge makes H
    periodic in ky, so each loop closes on its first point; each overlap
    matrix is replaced by the unitary of its polar decomposition.  Raises
    ResolutionError at the first kx, in order, whose occupation varies
    along ky or differs from ``occupied`` (the first line's when None).
    Returns (sorted phases, shape (len(kxs), nocc), the number of occupied
    bands nocc).
    """
    vals, vecs = np.linalg.eigh(bloch_stack(params, kxs, kys))
    for kx, counts in zip(kxs, (vals < e_f).sum(axis=-1)):
        if counts.min() != counts.max():
            raise ResolutionError(
                f"occupation below E={e_f} varies along ky at kx={kx:.4f} "
                f"({counts.min()}..{counts.max()})"
            )
        if occupied is not None and counts[0] != occupied:
            raise ResolutionError(
                f"occupation below E={e_f} varies across kx ({occupied} vs {counts[0]})"
            )
        occupied = int(counts[0])
    u = vecs[..., :occupied]
    overlaps = u.conj().swapaxes(-1, -2) @ np.roll(u, -1, axis=1)
    left, _, right = np.linalg.svd(overlaps)
    unitaries = left @ right
    loop = np.broadcast_to(np.eye(occupied, dtype=complex), unitaries[:, 0].shape)
    for j in range(kys.size):
        loop = loop @ unitaries[:, j]
    phases = np.angle(np.linalg.eigvals(loop)) / (2.0 * math.pi) % 1.0
    return np.sort(phases, axis=-1), occupied


def _largest_gap_midpoint(phases: np.ndarray) -> float:
    """Midpoint of the widest empty arc between Wannier centres on [0, 1)."""
    if phases.size == 0:
        return 0.5
    ring = np.append(phases, phases[0] + 1.0)
    i = int(np.argmax(np.diff(ring)))
    return float((0.5 * (ring[i] + ring[i + 1])) % 1.0)


def _centre_flow_parity(lines: list, gaps: list) -> int:
    """Parity of the Wannier centres the gap midpoint jumps over, line to line."""
    jumps = 0
    for gap_prev, gap, phases in zip(gaps, gaps[1:], lines[1:]):
        lo, hi = sorted((gap_prev, gap))
        jumps += int(np.count_nonzero((phases > lo) & (phases < hi)))
    return jumps % 2


def wilson_z2(params: ModelParams, e_f: float, kx_lines: int) -> tuple:
    """Bulk Z2 index from the flow of the hybrid Wannier centres.

    ky Wilson loops of the bands below e_f, ``WILSON_KY_POINTS`` points
    each, are taken on ``kx_lines`` lines spanning kx in [0, pi].  Following
    Soluyanov & Vanderbilt, the midpoint of the largest gap between Wannier
    centres is tracked from line to line; nu is the parity of the number of
    centres that midpoint jumps over.  For odd ``kx_lines``, every other
    line is the grid of (kx_lines + 1) / 2 lines, so one solve gives
    ``(nu on every other line, nu on all lines)``.
    Raises ResolutionError when the occupation changes across the grid.
    """
    Q = params.magnetic_height
    kys = np.linspace(-math.pi / Q, math.pi / Q, WILSON_KY_POINTS, endpoint=False)
    kxs = np.linspace(0.0, math.pi, int(kx_lines))
    lines, occupied = [], None
    # chunks of lines bound the eigenvectors of a fine grid held at once
    for start in range(0, kxs.size, WILSON_CHUNK):
        chunk = kxs[start : start + WILSON_CHUNK]
        phases, occupied = _ky_wilson_phases(params, chunk, kys, e_f, occupied)
        lines.extend(phases)
    gaps = [_largest_gap_midpoint(phases) for phases in lines]
    return _centre_flow_parity(lines[::2], gaps[::2]), _centre_flow_parity(lines, gaps)


def _fermi_level(window: tuple, gap: tuple) -> float:
    """The window midpoint when it falls inside the gap, else the gap midpoint."""
    g_lo, g_hi = gap
    mid = 0.5 * (window[0] + window[1])
    return mid if g_lo < mid < g_hi else 0.5 * (g_lo + g_hi)


def _labelled(params, nu, report, route=None) -> PhasePoint:
    phase = PHASE_TOPOLOGICAL if nu == 1 else PHASE_TRIVIAL
    return PhasePoint(params.beta, params.lam, phase, nu, report, route=route)


def _settle_from_bulk(params, window, bulk_grid, gap_threshold) -> PhasePoint:
    """Label a point whose ribbon vote failed from the bulk alone.

    The gap is rescanned at twice ``bulk_grid``.  Every sampled level is a
    true eigenvalue, so a window left without a gap is a certified metal.
    Otherwise the Wilson-loop Z2 decides, and it must agree between all
    ``WILSON_KX_LINES`` kx lines and every other one (ResolutionError if not).
    """
    fine = (2 * bulk_grid[0], 2 * bulk_grid[1])
    (report,) = quarter_zone_gap([params], fine, window, gap_threshold)
    if not report.is_gapped:
        return PhasePoint(
            params.beta, params.lam, PHASE_METAL, None, report, route=ROUTE_REFINED_GAP
        )
    e_f = _fermi_level(window, report.gap)
    nus = list(wilson_z2(params, e_f, WILSON_KX_LINES))
    if nus[0] != nus[1]:
        coarse = (WILSON_KX_LINES + 1) // 2
        raise ResolutionError(
            f"Wilson-loop Z2 at E={e_f:.4f} differs between "
            f"{(coarse, WILSON_KX_LINES)} kx lines: {nus}"
        )
    return _labelled(params, nus[0], report, route=ROUTE_WILSON)


def classify_point(
    params: ModelParams,
    window: tuple = DEFAULT_WINDOW,
    bulk_grid: tuple = BULK_GRID,
    ny_ribbon: int = NY_RIBBON,
    kx_points: int = KX_POINTS,
    gap_threshold: float = GAP_THRESHOLD,
) -> PhasePoint:
    """Classify one (beta, lambda) point as topological, trivial or metal.

    Metal if the window holds no spectral gap; otherwise the Z2 index decides,
    evaluated at the window midpoint when it falls inside the detected gap and
    at the gap midpoint otherwise.  When the ribbon vote cannot decide
    (DegeneracyError), the point is settled from the bulk and its ``route``
    says how.  The point is classified as a row of one
    (:func:`_classify_row`); a solver failure is raised.
    """
    (outcome,) = _classify_row(
        [params], window, bulk_grid, ny_ribbon, kx_points, gap_threshold
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _classify_row(row, window, bulk_grid, ny_ribbon, kx_points, gap_threshold) -> list:
    """Classify the points of a row, which differ in lambda alone, as
    :func:`classify_point` does, with its settings given in its order.

    The bulk gap scan and the ribbon count pass run once for the whole row
    (:func:`quarter_zone_gap`, :func:`_ribbon_votes`, for the gapped points
    alone); a failure of either is raised, since the row's points share it.
    Each point is then labelled on its own by :func:`_label_point`: the
    list holds, per point, its PhasePoint, or the QshError or LinAlgError
    its labelling raised.  Any other exception propagates.
    """
    reports = quarter_zone_gap(row, bulk_grid, window, gap_threshold)
    gapped = [i for i, report in enumerate(reports) if report.is_gapped]
    votes = [None] * len(row)
    if gapped:
        energies = [
            _vote_energies(_fermi_level(window, reports[i].gap), reports[i].gap)
            for i in gapped
        ]
        row_votes = _ribbon_votes([row[i] for i in gapped], ny_ribbon, kx_points, energies)
        for i, vote in zip(gapped, row_votes):
            votes[i] = vote
    outcomes = []
    for params, report, vote in zip(row, reports, votes):
        try:
            outcomes.append(
                _label_point(params, report, vote, window, bulk_grid, gap_threshold)
            )
        except (QshError, np.linalg.LinAlgError) as exc:  # recorded per point
            outcomes.append(exc)
    return outcomes


def _label_point(params, report, vote, window, bulk_grid, gap_threshold) -> PhasePoint:
    """Label one point of a row from its gap report and, when gapped, its
    ``vote``: the arguments of :func:`_vote_from_counts` after ``params``."""
    if not report.is_gapped:
        return PhasePoint(params.beta, params.lam, PHASE_METAL, None, report)
    try:
        nu = _vote_from_counts(params, *vote)
    except DegeneracyError:
        return _settle_from_bulk(params, window, bulk_grid, gap_threshold)
    return _labelled(params, nu, report)


@functools.cache
def _openblas_setter(path: str):
    """``openblas_set_num_threads_local`` of the OpenBLAS at ``path``; None
    where the library cannot be loaded or lacks the symbol.  Each path is
    opened once per process."""
    try:
        set_threads = ctypes.CDLL(path).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = ctypes.c_int
    return set_threads


def _openblas_thread_setters() -> list:
    """``openblas_set_num_threads_local`` of every OpenBLAS loaded right now.

    numpy and scipy each bundle their own copy.  scipy's loads only with
    ``scipy.linalg`` or ``scipy.sparse.linalg``, which a phase map never
    imports but an earlier ``edge_states`` run in the same process does, so
    ``/proc/self/maps`` is read at each call.  Empty where the file or the
    symbol is missing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps if "openblas" in line]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6})
    return [s for s in map(_openblas_setter, paths) if s is not None]


def _pin_blas(setters) -> list:
    """One BLAS thread for the calling thread only, in every library of
    ``setters``; returns the counts they held before.  The initializer of
    the :func:`phase_diagram` pool, whose threads end with it, and the
    entry of :func:`single_blas_thread`."""
    return [set_threads(1) for set_threads in setters]


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread on the calling
    thread; yields whether any was pinned.

    On leaving, also by an exception, each library gets back the count its
    setter returned.  Other threads keep their own counts.
    """
    setters = _openblas_thread_setters()
    before = _pin_blas(setters)
    try:
        yield bool(setters)
    finally:
        for set_threads, count in zip(setters, before):
            set_threads(count)


def phase_diagram(
    alpha, *, beta_range, lambda_range, resolution, window, gap_threshold, bulk_grid,
    ny_ribbon, kx_points, threads,
) -> PhaseMap:
    """Classify a (beta, lambda) grid; per-point failures are recorded, not raised.

    Every setting is required: ``resolution`` values of beta and lambda over
    the two ranges, and the settings of :func:`classify_point`, whose
    defaults the config table fills.  One pool task classifies one beta row
    (:func:`_classify_row`), so the row's points share its bulk gap scan and
    ribbon count pass.  The rows run on a pool of ``threads`` worker
    threads, each with single-threaded BLAS, so pool and BLAS threads do not
    compete for cores; a row is fixed by the grid, not by ``threads``, so
    neither are the results.  Solver failures (QshError, LinAlgError) become
    ``"error"`` points: those of a point's own labelling on that point, those
    of the row's shared solves on every point of the row.  Any other
    exception propagates.
    """
    nb, nl = resolution
    if min(nb, nl) < PHASE_MIN_RESOLUTION:
        raise ParameterError("phase-diagram resolution must be at least 16x16")
    betas = np.linspace(beta_range[0], beta_range[1], nb)
    lams = np.linspace(lambda_range[0], lambda_range[1], nl)

    def work(beta):
        try:
            row = [ModelParams(alpha, float(beta), float(lam)) for lam in lams]
            outcomes = _classify_row(
                row, window, bulk_grid, ny_ribbon, kx_points, gap_threshold
            )
        except (QshError, np.linalg.LinAlgError) as exc:  # shared by the row
            outcomes = [exc] * nl
        return [
            outcome if isinstance(outcome, PhasePoint) else PhasePoint(
                float(beta), float(lam), PHASE_ERROR, None, None, str(outcome)
            )
            for lam, outcome in zip(lams, outcomes)
        ]

    setters = _openblas_thread_setters()
    with ThreadPoolExecutor(
        max_workers=threads, initializer=_pin_blas, initargs=(setters,)
    ) as pool:
        points = list(pool.map(work, betas))
    return PhaseMap(beta_grid=betas, lambda_grid=lams, points=points)
