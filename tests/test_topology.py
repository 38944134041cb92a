"""Chern numbers, Z2 index and phase classification."""

import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from qshsim import topology
from qshsim.errors import (
    DegeneracyError,
    GaplessError,
    ParameterError,
    ResolutionError,
)
from qshsim.model import SPIN_DOWN, SPIN_UP, ModelParams, bloch_stack, ribbon_stack
from qshsim.spectra import GAP_THRESHOLD, gap_in_window, quarter_zone_bands
from qshsim.topology import (
    BULK_GRID,
    DEFAULT_WINDOW,
    KX_POINTS,
    NY_RIBBON,
    PHASE_ERROR,
    PHASE_METAL,
    PHASE_TOPOLOGICAL,
    PHASE_TRIVIAL,
    ROUTE_REFINED_GAP,
    ROUTE_WILSON,
    bulk_gap_at,
    chern_fhs,
    classify_point,
    hofstadter_band_groups,
    phase_diagram,
    spin_chern,
    wilson_z2,
    z2_invariant,
)

A13 = Fraction(1, 3)
#: kx lines of the Wilson-loop Z2 checked against other derivations: every
#: other line of ``WILSON_KX_LINES``
COARSE_LINES = (topology.WILSON_KX_LINES + 1) // 2
#: the settings of a phase diagram, each at the config table's default
MAP_SETTINGS = {
    "beta_range": (0.0, 0.25), "lambda_range": (0.0, 2.0), "resolution": (16, 16),
    "window": DEFAULT_WINDOW, "gap_threshold": GAP_THRESHOLD,
    "bulk_grid": BULK_GRID, "ny_ribbon": NY_RIBBON, "kx_points": KX_POINTS,
}


def _vote_in_gap(
    vote, params, e_f, gap_bounds=None, ny_ribbon=NY_RIBBON, kx_points=KX_POINTS
):
    """``vote`` (:func:`z2_invariant` or its oracle) inside ``gap_bounds``, or
    inside the sampled bulk gap around e_f when None (GaplessError if none).

    An infinite bound of the sampled gap (e_f beyond the whole spectrum)
    becomes e_f -/+ 2, so the vote energies shift by 0.25 * 2 = 0.5 there.
    """
    if gap_bounds is None:
        gap_bounds = bulk_gap_at(params, e_f)
        if math.isfinite(e_f):
            gap_bounds = [
                g if math.isfinite(g) else e_f + 2.0 * side
                for g, side in zip(gap_bounds, (-1, 1))
            ]
    return vote(params, e_f, ny_ribbon, kx_points, gap_bounds)


def test_chern_flux_third_band_groups():
    # reference integers confirmed on refined grids
    p = ModelParams(alpha=A13)
    groups = hofstadter_band_groups(p)
    assert groups == [[0, 1], [2, 3], [4, 5]]
    up = [chern_fhs(p, g, (24, 24), spin=SPIN_UP) for g in groups]
    dn = [chern_fhs(p, g, (24, 24), spin=SPIN_DOWN) for g in groups]
    assert up == [1, -2, 1]
    assert dn == [-1, 2, -1]  # time reversal negates Chern numbers
    assert sum(up) == 0 and sum(dn) == 0  # sum rule


def test_chern_grid_stability():
    p = ModelParams(alpha=A13)
    for g in hofstadter_band_groups(p):
        assert chern_fhs(p, g, (24, 24), spin=SPIN_UP) == chern_fhs(
            p, g, (48, 48), spin=SPIN_UP
        )


def test_chern_zero_flux():
    p = ModelParams(alpha=Fraction(0, 1))
    assert chern_fhs(p, [0, 1], (24, 24), spin=SPIN_UP) == 0


def test_chern_degenerate_selection_rejected():
    # a folded sub-band touches its partner: not a valid selection
    p = ModelParams(alpha=A13)
    with pytest.raises(DegeneracyError):
        chern_fhs(p, [0], (24, 24), spin=SPIN_UP)


def test_chern_full_set_kramers_cancellation():
    p = ModelParams(alpha=A13, beta=0.05)
    assert chern_fhs(p, ("below", 1.5), (24, 24), spin=None) == 0


def test_spin_chern_examples():
    assert spin_chern(ModelParams(alpha=A13), 1.5) == (-1, 1)
    assert spin_chern(ModelParams(alpha=A13, lam=1.0), 1.5) == (-1, 1)
    assert spin_chern(ModelParams(alpha=Fraction(0, 1)), -5.0) == (0, 0)
    c_up, c_down = spin_chern(ModelParams(alpha=A13), 1.5)
    assert c_up == -c_down and abs(c_up) == 1
    with pytest.raises(ParameterError):
        spin_chern(ModelParams(alpha=A13, beta=0.1), 1.5)


def test_z2_examples():
    assert _vote_in_gap(z2_invariant, ModelParams(alpha=A13), 1.5) == 1
    assert _vote_in_gap(z2_invariant, ModelParams(alpha=A13, lam=1.0), 1.5) == 1
    # below all bands
    assert _vote_in_gap(z2_invariant, ModelParams(alpha=A13), -5.0) == 0


def test_z2_requires_bulk_gap():
    with pytest.raises(GaplessError):
        _vote_in_gap(z2_invariant, ModelParams(alpha=A13, beta=0.1, lam=1.0), 1.5)
    with pytest.raises(GaplessError):
        bulk_gap_at(ModelParams(alpha=Fraction(0, 1)), 1.5)


def test_z2_gapless_error_names_the_bounds_it_used():
    params = ModelParams(alpha=A13)
    with pytest.raises(GaplessError, match=r"sampled bulk gap \(1\.0, 2\.0\)"):
        z2_invariant(params, 2.5, NY_RIBBON, KX_POINTS, gap_bounds=(1.0, 2.0))
    # no level compares below or above NaN: the sampled bounds are infinite
    with pytest.raises(GaplessError, match=r"sampled bulk gap \(-inf, inf\)"):
        _vote_in_gap(z2_invariant, params, math.nan)
    # a semi-infinite gap (E below the whole spectrum) is not a gap to vote in
    with pytest.raises(GaplessError, match=r"sampled bulk gap \(-inf, "):
        z2_invariant(params, -5.0, NY_RIBBON, KX_POINTS, bulk_gap_at(params, -5.0))


def test_classify_reference_points():
    assert classify_point(ModelParams(alpha=A13)).phase == PHASE_TOPOLOGICAL
    pt = classify_point(ModelParams(alpha=A13, lam=1.0))
    assert pt.phase == PHASE_TOPOLOGICAL and pt.nu == 1
    pt = classify_point(ModelParams(alpha=A13, beta=0.1, lam=1.0))
    assert pt.phase == PHASE_METAL and pt.nu is None


def test_z2_matches_spin_chern_on_lambda_sweep():
    for lam in np.linspace(0.0, 1.0, 5):
        p = ModelParams(alpha=A13, lam=float(lam))
        nu = _vote_in_gap(z2_invariant, p, 1.5)
        c_up, _ = spin_chern(p, 1.5)
        assert nu == abs(c_up) % 2 == 1


def test_phase_boundary_single_crossing_at_lambda_one():
    # sweeping the spin mixing at lam = t0 leaves the topological phase once
    betas = np.linspace(0.0, 0.1, 11)
    labels = []
    for b in betas:
        labels.append(
            classify_point(ModelParams(alpha=A13, beta=float(b), lam=1.0)).phase
        )
    assert labels[0] == PHASE_TOPOLOGICAL
    assert labels[-1] == PHASE_METAL
    flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    assert flips == 1


def _connected_component(points, start):
    """4-connected flood fill over equal-phase grid points."""
    nb, nl = len(points), len(points[0])
    phase = points[start[0]][start[1]].phase
    seen, stack = {start}, [start]
    while stack:
        i, j = stack.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if 0 <= a < nb and 0 <= b < nl and (a, b) not in seen:
                if points[a][b].phase == phase:
                    seen.add((a, b))
                    stack.append((a, b))
    return seen


@pytest.fixture(scope="module")
def tier1_map():
    return phase_diagram(A13, **MAP_SETTINGS, threads=4)


def test_phase_diagram_two_regions(tier1_map):
    pmap = tier1_map
    flat = [pt for row in pmap.points for pt in row]
    assert all(pt.error is None for pt in flat)
    phases = {pt.phase for pt in flat}
    assert phases == {PHASE_TOPOLOGICAL, PHASE_METAL}  # no trivial points
    assert pmap.points[0][0].phase == PHASE_TOPOLOGICAL  # (beta=0, lam=0)
    # point closest to (0.1, 1.0) is metallic
    i = int(np.argmin(np.abs(pmap.beta_grid - 0.1)))
    j = int(np.argmin(np.abs(pmap.lambda_grid - 1.0)))
    assert pmap.points[i][j].phase == PHASE_METAL
    # the beta=0 line is topological up to lam = t0
    for jj, lam in enumerate(pmap.lambda_grid):
        if lam <= 1.0:
            assert pmap.points[0][jj].phase == PHASE_TOPOLOGICAL
    # a topological region grown from (0,0) and a metal region grown from
    # (0.1, 1.0): connected patches, jointly covering most of the window
    topo_region = _connected_component(pmap.points, (0, 0))
    metal_region = _connected_component(pmap.points, (i, j))
    assert len(topo_region) >= 16
    assert len(metal_region) >= 16
    assert not (topo_region & metal_region)


def test_wilson_z2_agrees_over_the_phase_map(tier1_map):
    # the bulk Wilson-loop Z2 is a second derivation of every gapped label
    gapped = [
        pt for row in tier1_map.points for pt in row
        if pt.phase in (PHASE_TOPOLOGICAL, PHASE_TRIVIAL)
    ]
    assert len(gapped) >= 100

    def wilson(pt):
        params = ModelParams(alpha=A13, beta=pt.beta, lam=pt.lam)
        e_f = topology._fermi_level(DEFAULT_WINDOW, pt.gap.gap)
        return wilson_z2(params, e_f, COARSE_LINES)[1]

    with ThreadPoolExecutor(max_workers=4) as pool:  # LAPACK releases the GIL
        nus = list(pool.map(wilson, gapped))
    assert [(pt.beta, pt.lam, nu) for pt, nu in zip(gapped, nus)] == [
        (pt.beta, pt.lam, pt.nu) for pt in gapped
    ]


def test_map_gaps_equal_the_full_quarter_scan(tier1_map):
    # every report of the map, bit for bit that of the full 128^2 quarter
    # scan (256^2 where the bulk settled the point), from under 30 % of it
    points = [pt for row in tier1_map.points for pt in row]

    def full_scan(pt):
        params = ModelParams(alpha=A13, beta=pt.beta, lam=pt.lam)
        grid = (256, 256) if pt.route else (128, 128)
        bands = quarter_zone_bands(params, grid)
        return gap_in_window(bands, DEFAULT_WINDOW, GAP_THRESHOLD)

    with ThreadPoolExecutor(max_workers=4) as pool:  # LAPACK releases the GIL
        reports = list(pool.map(full_scan, points))
    assert [pt.gap for pt in points] == reports
    solved = [pt.gap.solved / 65**2 for pt in points if not pt.route]
    assert len(solved) >= 200 and np.mean(solved) < 0.3


def test_phase_diagram_resolution_guard():
    with pytest.raises(ParameterError):
        phase_diagram(A13, **{**MAP_SETTINGS, "resolution": (8, 8)}, threads=1)


def test_wilson_z2_matches_ribbon_z2():
    # the beta = 0 lambda sweep, the gapped reference points, a trivial gap
    # (E = 0 between the staggered bands) and an empty occupation
    cases = [
        (ModelParams(alpha=A13, lam=float(lam)), 1.5) for lam in np.linspace(0, 1, 5)
    ] + [
        (ModelParams(alpha=A13, lam=1.0), 0.0),
        (ModelParams(alpha=A13, beta=0.05, lam=3.0), 0.0),
        (ModelParams(alpha=Fraction(2, 5), beta=0.05, lam=1.0), 0.95),
        (ModelParams(alpha=A13), -5.0),
    ]
    lines = COARSE_LINES
    nus = [wilson_z2(params, e_f, lines)[1] for params, e_f in cases]
    assert nus == [_vote_in_gap(z2_invariant, params, e_f) for params, e_f in cases]
    assert nus == [1] * 5 + [0, 0, 1, 0]
    # the metal reference point has no gap to fill: the occupation varies
    with pytest.raises(ResolutionError):
        wilson_z2(ModelParams(alpha=A13, beta=0.1, lam=1.0), 1.5, lines)


def _per_line_wilson_z2(params, e_f, kx_lines):
    """Test oracle: the Wilson-loop Z2 solving and chaining one kx line at a time."""
    Q = params.magnetic_height
    kys = np.linspace(-math.pi / Q, math.pi / Q, topology.WILSON_KY_POINTS, endpoint=False)
    parity, occupied, gap_prev = 0, None, None
    for kx in np.linspace(0.0, math.pi, int(kx_lines)):
        vals, vecs = np.linalg.eigh(bloch_stack(params, [kx], kys)[0])
        counts = (vals < e_f).sum(axis=-1)
        if counts.min() != counts.max():
            raise ResolutionError(
                f"occupation below E={e_f} varies along ky at kx={kx:.4f} "
                f"({counts.min()}..{counts.max()})"
            )
        nocc = int(counts[0])
        if occupied is not None and nocc != occupied:
            raise ResolutionError(
                f"occupation below E={e_f} varies across kx ({occupied} vs {nocc})"
            )
        occupied = nocc
        u = vecs[..., :nocc]
        left, _, right = np.linalg.svd(u.conj().transpose(0, 2, 1) @ np.roll(u, -1, axis=0))
        loop = np.eye(nocc, dtype=complex)
        for unitary in left @ right:
            loop = loop @ unitary
        phases = np.sort(np.angle(np.linalg.eigvals(loop)) / (2.0 * math.pi) % 1.0)
        gap = topology._largest_gap_midpoint(phases)
        if gap_prev is not None:
            lo, hi = sorted((gap_prev, gap))
            parity += int(np.count_nonzero((phases > lo) & (phases < hi)))
        gap_prev = gap
    return parity % 2


def _wilson_outcome(fn, *args):
    """The value of ``fn``, or the ResolutionError message it raises."""
    try:
        return fn(*args)
    except ResolutionError as exc:
        return str(exc)


def _per_line_wilson_pair(params, e_f, kx_lines):
    """The oracle on every other line and on all ``kx_lines`` lines; an
    occupation change raises at its first kx among all lines."""
    fine = _per_line_wilson_z2(params, e_f, kx_lines)
    return _per_line_wilson_z2(params, e_f, (kx_lines + 1) // 2), fine


def test_chunked_wilson_z2_matches_the_per_line_loop():
    cases = [  # (params, e_f): gapped, a trivial gap, no occupied band, metals
        (ModelParams(alpha=A13, lam=0.5), 1.5),
        (ModelParams(alpha=A13, beta=1.0 / 6.0), 1.5),
        (ModelParams(alpha=A13, beta=0.05, lam=3.0), 0.0),
        (ModelParams(alpha=Fraction(2, 5), beta=0.05, lam=1.0), 0.95),
        (ModelParams(alpha=Fraction(1, 4), beta=0.03, lam=0.4), 1.6),
        (ModelParams(alpha=A13), -5.0),
        (ModelParams(alpha=A13, beta=0.1, lam=1.0), 1.5),
        (ModelParams(alpha=A13, beta=0.05, lam=0.5), -2.8),
    ]
    outcomes = []
    for params, e_f in cases:
        for lines in (33, COARSE_LINES):
            got = _wilson_outcome(wilson_z2, params, e_f, lines)
            assert got == _wilson_outcome(_per_line_wilson_pair, params, e_f, lines)
            outcomes.append(got)
    assert {(0, 0), (1, 1)} <= set(outcomes)
    assert any("along ky" in str(o) for o in outcomes)
    assert any("across kx" in str(o) for o in outcomes)


# the solver settings of the benchmark's phase-map workload
LIGHT = {"bulk_grid": (64, 64), "ny_ribbon": 24, "kx_points": 101}


def test_bulk_fallback_settles_failed_ribbon_votes():
    # both ribbon votes fail with an ambiguous edge weight at these settings
    topo = ModelParams(alpha=A13, beta=1.0 / 6.0, lam=0.0)
    metal = ModelParams(alpha=A13, beta=0.1, lam=0.5666666666666667)
    for params in (topo, metal):
        bands = quarter_zone_bands(params, LIGHT["bulk_grid"])
        gap = gap_in_window(bands, (1.0, 2.0), GAP_THRESHOLD).gap
        e_f = 1.5 if gap[0] < 1.5 < gap[1] else 0.5 * (gap[0] + gap[1])
        with pytest.raises(DegeneracyError):
            z2_invariant(
                params, e_f, LIGHT["ny_ribbon"], LIGHT["kx_points"], gap_bounds=gap
            )
    pt = classify_point(topo, **LIGHT)
    assert (pt.phase, pt.nu, pt.route) == (PHASE_TOPOLOGICAL, 1, ROUTE_WILSON)
    pt = classify_point(metal, **LIGHT)
    assert (pt.phase, pt.nu, pt.route) == (PHASE_METAL, None, ROUTE_REFINED_GAP)
    assert not pt.gap.is_gapped
    # a point the ribbon vote settles records no route
    assert classify_point(ModelParams(alpha=A13), **LIGHT).route is None


def test_wilson_fallback_requires_the_parity_of_every_other_line(monkeypatch):
    # the point of the fallback test on 17 kx lines: the flow of the Wannier
    # centres is tracked on all 17 lines but not on every other one
    topo = ModelParams(alpha=A13, beta=1.0 / 6.0, lam=0.0)
    assert wilson_z2(topo, 1.5, 17) == (0, 1)
    monkeypatch.setattr(topology, "WILSON_KX_LINES", 17)
    with pytest.raises(
        ResolutionError, match=r"E=1\.5000 differs between \(9, 17\) kx lines: \[0, 1\]"
    ):
        classify_point(topo, **LIGHT)


def test_phase_diagram_errors_and_pool_lifetime(monkeypatch):
    # a corner of the map whose rows hold gapped and metal points
    window = {**MAP_SETTINGS, "beta_range": (0.2, 0.25), "lambda_range": (1.5, 2.0),
              **LIGHT}
    label, gap_scan = topology._label_point, topology.quarter_zone_gap

    def solver_failure(params, *args):
        raise ResolutionError("unresolved")

    threads_before = threading.active_count()
    monkeypatch.setattr(topology, "_label_point", solver_failure)
    pmap = phase_diagram(A13, threads=3, **window)
    flat = [pt for row in pmap.points for pt in row]
    assert {pt.phase for pt in flat} == {PHASE_ERROR}
    assert {pt.error for pt in flat} == {"unresolved"}
    assert threading.active_count() == threads_before

    def programming_error(params, *args):
        raise TypeError("a bug, not a solver failure")

    monkeypatch.setattr(topology, "_label_point", programming_error)
    for threads in (1, 2):
        with pytest.raises(TypeError):
            phase_diagram(A13, threads=threads, **window)
    assert threading.active_count() == threads_before

    # one point of a row fails: every other point keeps its label
    monkeypatch.setattr(topology, "_label_point", label)
    clean = phase_diagram(A13, threads=2, **window)
    i = next(
        i for i, row in enumerate(clean.points)
        if {PHASE_METAL, PHASE_TOPOLOGICAL} <= {pt.phase for pt in row}
    )
    j = next(j for j, pt in enumerate(clean.points[i]) if pt.phase == PHASE_TOPOLOGICAL)
    target = clean.points[i][j]

    def one_failure(params, *args):
        if (params.beta, params.lam) == (target.beta, target.lam):
            raise np.linalg.LinAlgError("one point")
        return label(params, *args)

    monkeypatch.setattr(topology, "_label_point", one_failure)
    pmap = phase_diagram(A13, threads=2, **window)
    failed = pmap.points[i][j]
    assert (failed.beta, failed.lam) == (target.beta, target.lam)
    assert (failed.phase, failed.nu, failed.error) == (PHASE_ERROR, None, "one point")
    pmap.points[i][j] = target
    assert pmap.points == clean.points

    # a failure of the row's shared gap scan is every point's of that row
    def shared_failure(row, *args):
        if row[0].beta == target.beta:
            raise ResolutionError("shared")
        return gap_scan(row, *args)

    monkeypatch.setattr(topology, "_label_point", label)
    monkeypatch.setattr(topology, "quarter_zone_gap", shared_failure)
    pmap = phase_diagram(A13, threads=2, **window)
    assert {(pt.phase, pt.error) for pt in pmap.points[i]} == {(PHASE_ERROR, "shared")}
    pmap.points[i] = clean.points[i]
    assert pmap.points == clean.points
    assert threading.active_count() == threads_before


def _all_kx_vote(params, e_f, ny_ribbon, kx_points, gap_bounds):
    """Test oracle: the ribbon vote with every kx diagonalized.

    Each vote energy walks all ``kx_points - 1`` intervals with the dense
    eigenpairs at both ends.
    """
    g_lo, g_hi = gap_bounds
    if not g_lo < e_f < g_hi:
        raise GaplessError(f"E={e_f} outside the bulk gap")
    kxs = np.linspace(0.0, math.pi, kx_points)
    vals, bottom = topology._ribbon_slab(params, ny_ribbon, kxs)
    parities, failure = [], None
    for ef in (e_f, e_f - 0.25 * (e_f - g_lo), e_f + 0.25 * (g_hi - e_f)):
        try:
            parities.append(sum(
                topology._count_bottom_crossings(
                    params, ny_ribbon, ef, kxs[i], kxs[i + 1], vals[i],
                    vals[i + 1], bottom[i], bottom[i + 1], 0,
                )
                for i in range(kx_points - 1)
            ) % 2)
        except DegeneracyError as exc:
            failure = exc
    if not parities or (len(parities) == 2 and parities[0] != parities[1]):
        raise failure or DegeneracyError("edge-crossing count unresolved")
    return int(round(np.median(parities)))


def _outcome(fn, *args, **kwargs):
    """The value of ``fn``, or the type of the Degeneracy/GaplessError it raises."""
    try:
        return fn(*args, **kwargs)
    except (DegeneracyError, GaplessError) as exc:
        return type(exc)


def _vote_case(params, settings):
    """(e_f, gap bounds) as classify_point picks them; (1.5, None) without a gap."""
    report = gap_in_window(
        quarter_zone_bands(params, settings["bulk_grid"]), DEFAULT_WINDOW, GAP_THRESHOLD
    )
    if not report.is_gapped:
        return 1.5, None
    return topology._fermi_level(DEFAULT_WINDOW, report.gap), report.gap


@pytest.mark.parametrize("ny", [6, 24, 48])
@pytest.mark.parametrize(
    "alpha", [Fraction(0, 1), A13, Fraction(2, 5), Fraction(1, 2)]
)
def test_level_counts_match_dense_eigenvalues(ny, alpha):
    # rows of one to three points (one beta, several lambda), each point
    # with its own energies, counted in one call and point by point
    rng = np.random.default_rng(ny * 10 + alpha.denominator)
    kxs = np.linspace(0.0, math.pi, 101)
    for size in (1, 3, 2):
        beta = rng.uniform(0.0, 0.25)
        row = [
            ModelParams(alpha=alpha, beta=beta, lam=rng.uniform(0.0, 2.0))
            for _ in range(size)
        ]
        expects, energies = [], []
        for params in row:
            levels = np.linalg.eigvalsh(ribbon_stack(params, ny, kxs))
            flat = np.sort(levels.ravel())
            widest = int(np.argmax(np.diff(flat)))
            energies.append([
                rng.uniform(flat[0], flat[-1]),  # inside the bands
                0.5 * (flat[widest] + flat[widest + 1]),  # inside the widest gap
                1.5,
                flat[0] - 1.0,  # beyond the spectrum
                flat[-1] + 1.0,
            ])
            expects.append(
                (levels[None] < np.array(energies[-1])[:, None, None]).sum(axis=-1)
            )
        counts, failed = topology._ribbon_level_counts(row, ny, kxs, energies)
        assert counts.shape == (size, 5, kxs.size) and failed.shape == (size, kxs.size)
        assert not failed.any()
        assert np.array_equal(counts, np.array(expects))
        for params, point_energies, expect in zip(row, energies, expects):
            (counts,), (failed,) = topology._ribbon_level_counts(
                [params], ny, kxs, [point_energies]
            )
            assert not failed.any()
            assert np.array_equal(counts, expect)


def test_zero_pivot_takes_the_dense_route(monkeypatch):
    # at kx = 0 the first row block equals E = 1.5 on its diagonal and has no
    # off-diagonal part: the first pivot is exactly zero
    params = ModelParams(alpha=A13, beta=0.05, lam=3.5)
    kxs = np.linspace(0.0, math.pi, 101)
    solved = []
    slab = topology._ribbon_slab

    def recording_slab(params, ny, kxs):
        solved.extend(np.asarray(kxs).tolist())
        return slab(params, ny, kxs)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (counts,), (failed,) = topology._ribbon_level_counts([params], 24, kxs, [[1.5]])
        assert failed[0] and not failed[1:].any()
        levels = np.linalg.eigvalsh(ribbon_stack(params, 24, kxs))
        assert np.array_equal(counts[0, 1:], (levels[1:] < 1.5).sum(axis=-1))
        gap = bulk_gap_at(params, 1.5)  # a trivial gap of about (-1.78, 1.78)
        expect = _all_kx_vote(params, 1.5, 24, 101, gap_bounds=gap)
        monkeypatch.setattr(topology, "_ribbon_slab", recording_slab)
        assert z2_invariant(params, 1.5, 24, 101, gap_bounds=gap) == expect == 0
    assert 0.0 in solved  # the singular kx went to the dense solve


def test_z2_rejects_ribbons_too_small_to_classify():
    params = ModelParams(alpha=A13)  # nu = 1 at the defaults
    gap = bulk_gap_at(params, 1.5)
    for kx_points in (1, 2, 100):
        with pytest.raises(ParameterError, match="momentum"):
            z2_invariant(params, 1.5, 48, kx_points, gap)
    for ny in (1, 3, 11):
        with pytest.raises(ParameterError, match="height"):
            z2_invariant(params, 1.5, ny, 201, gap)


def test_counted_vote_matches_all_kx_vote():
    cases = [  # (params, e_f, settings, gap bounds)
        (ModelParams(alpha=A13, lam=float(lam)), 1.5, {}, None)
        for lam in np.linspace(0.0, 1.0, 5)
    ] + [
        (ModelParams(alpha=A13), 1.5, {}, None),
        (ModelParams(alpha=A13, lam=1.0), 1.5, {}, None),
        (ModelParams(alpha=A13), -5.0, {}, None),
        (ModelParams(alpha=A13, lam=1.0), 0.0, {}, None),
        (ModelParams(alpha=A13, beta=0.05, lam=3.0), 0.0, {}, None),
        (ModelParams(alpha=Fraction(2, 5), beta=0.05, lam=1.0), 0.95, {}, None),
        (ModelParams(alpha=A13, beta=0.1, lam=1.0), 1.5, {}, None),  # metal
    ]
    light = {k: LIGHT[k] for k in ("ny_ribbon", "kx_points")}
    # the two points whose ribbon vote fails at the light settings
    for params in (
        ModelParams(alpha=A13, beta=1.0 / 6.0, lam=0.0),
        ModelParams(alpha=A13, beta=0.1, lam=0.5666666666666667),
    ):
        e_f, gap = _vote_case(params, LIGHT)
        cases.append((params, e_f, light, gap))
    rng = np.random.default_rng(2024)
    default = {"bulk_grid": (128, 128), "ny_ribbon": 48, "kx_points": 201}
    for settings in (LIGHT, default):
        for _ in range(30):
            params = ModelParams(
                alpha=A13, beta=rng.uniform(0.0, 0.25), lam=rng.uniform(0.0, 2.0)
            )
            e_f, gap = _vote_case(params, settings)
            solver = {k: settings[k] for k in ("ny_ribbon", "kx_points")}
            cases.append((params, e_f, solver, gap))
    outcomes = set()
    for params, e_f, solver, gap in cases:
        got = _outcome(_vote_in_gap, z2_invariant, params, e_f, gap, **solver)
        want = _outcome(_vote_in_gap, _all_kx_vote, params, e_f, gap, **solver)
        assert got == want, (params, e_f, solver)
        outcomes.add(got)
    assert outcomes == {0, 1, DegeneracyError, GaplessError}
