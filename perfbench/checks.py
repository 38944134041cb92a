"""Output checks of the benchmark workloads.

Each check takes parsed outputs and returns one message per problem; the
phase-map and decay-scan checks also return the indices of the points whose
output is wrong, as ``(bad, problems)``.  Empty results mean the output
passed.  The checks never import qshsim and never
recompute physics with it, so they stay independent of the code they judge,
and the tests feed them corrupted outputs directly.
"""

from __future__ import annotations

import csv
import math

#: one-letter codes of the phase labels, as stored in the reference maps
PHASE_CODES = {"topological": "T", "metal": "M", "trivial": "V", "error": "E"}
#: the ``nu`` column each phase label must carry
NU_OF_PHASE = {"topological": "1", "trivial": "0", "metal": "", "error": ""}

#: rotating-wave acceptance (criterion 7): fidelity floor, detuned drift ceiling
RWA_MIN_FIDELITY = 0.99
RWA_MAX_DRIFT = 0.01
#: criterion 8: |P3 - exp(-gamma T)| <= DECAY_REL_TOL * exp(-gamma T)
DECAY_REL_TOL = 1e-3
#: criterion 5a: ring-depth-2 weight of a midgap state on a large lattice
EDGE_MIN_WEIGHT = 0.6
#: criterion 6: minimum tone frequency and per-bond tone separation (t0)
TONE_MIN_MARGIN = 20.0


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_phase_map(rows, betas, lams, reference: str):
    """Phase-map rows (beta-major) against the grid and a reference code string.

    A point passes when its coordinates sit on the grid, its ``nu`` matches
    its phase, and its phase equals the reference wherever neither map holds
    an error.  Two spot checks follow the physics: the lowest-beta row is
    topological for lambda <= 1, and the point nearest (0.1, 1.0) is metal.
    """
    n = len(betas) * len(lams)
    if len(rows) != n or len(reference) != n:
        return set(range(n)), [
            f"phase map has {len(rows)} rows and the reference {len(reference)}, "
            f"expected {n}"
        ]
    bad, problems = set(), []
    for idx, row in enumerate(rows):
        i, j = divmod(idx, len(lams))
        beta, lam, phase = float(row["beta"]), float(row["lambda"]), row["phase"]
        if not (_close(beta, betas[i]) and _close(lam, lams[j])):
            problems.append(f"point {idx} at ({beta}, {lam}) is off the grid")
        elif phase not in NU_OF_PHASE:
            problems.append(f"point {idx} has unknown phase {phase!r}")
        elif row["nu"] != NU_OF_PHASE[phase]:
            problems.append(f"point {idx} is {phase} with nu={row['nu']!r}")
        elif "E" not in (PHASE_CODES[phase], reference[idx]) and (
            PHASE_CODES[phase] != reference[idx]
        ):
            problems.append(
                f"point {idx} ({beta:.6g}, {lam:.6g}) is {phase}, "
                f"reference {reference[idx]}"
            )
        else:
            continue
        bad.add(idx)
    for j, lam in enumerate(lams):
        if lam <= 1.0 and rows[j]["phase"] != "topological":
            bad.add(j)
            problems.append(f"beta={betas[0]:.6g}, lambda={lam:.6g} is not topological")
    i = min(range(len(betas)), key=lambda k: abs(betas[k] - 0.1))
    j = min(range(len(lams)), key=lambda k: abs(lams[k] - 1.0))
    idx = i * len(lams) + j
    if rows[idx]["phase"] != "metal":
        bad.add(idx)
        problems.append(f"point nearest (0.1, 1.0) is {rows[idx]['phase']}, not metal")
    return bad, problems


def check_decay_scan(rows, gammas, t_final: float):
    """Criterion 8 on a decay scan: decay law, edge dominance, monotone P3."""
    if len(rows) != len(gammas):
        return set(range(len(gammas))), [
            f"decay scan has {len(rows)} rows, expected {len(gammas)}"
        ]
    problems = {}
    p3s = [float(row["P3"]) for row in rows]
    for k, (row, gamma) in enumerate(zip(rows, gammas)):
        p1, p2, p3 = float(row["P1"]), float(row["P2"]), p3s[k]
        expected = math.exp(-gamma * t_final)
        if not _close(float(row["gamma_t0"]), gamma):
            problems[k] = f"row {k} has gamma {row['gamma_t0']}, expected {gamma}"
        elif abs(p3 - expected) > DECAY_REL_TOL * expected:
            problems[k] = f"gamma={gamma:.6g}: P3={p3} but exp(-gamma T)={expected}"
        elif not p1 > p2:
            problems[k] = f"gamma={gamma:.6g}: P1={p1} <= P2={p2}"
        elif k and p3 > p3s[k - 1]:
            problems[k] = f"gamma={gamma:.6g}: P3={p3} rises above {p3s[k - 1]}"
    return set(problems), list(problems.values())


def check_bands(rows, meta, grid, nbands: int):
    """The bulk band table is complete and the reported gap holds no level."""
    problems = []
    if len(rows) != grid[0] * grid[1] * nbands:
        problems.append(f"bands table has {len(rows)} rows")
    if not meta.get("is_gapped"):
        problems.append("bands found no gap in the window")
    else:
        # the table holds 12 significant digits, so a gap edge may print inside
        lo, hi = meta["gap"][0] + 1e-9, meta["gap"][1] - 1e-9
        inside = [r for r in rows if lo < float(r["E_t0"]) < hi]
        if inside:
            problems.append(f"{len(inside)} band energies inside the gap ({lo}, {hi})")
    return problems


def check_ribbon(band_rows, loc_rows, kx_points: int, nbands: int):
    """Ribbon tables are complete and every edge weight is a probability."""
    problems = []
    if not len(band_rows) == len(loc_rows) == kx_points * nbands:
        problems.append(
            f"ribbon tables have {len(band_rows)} and {len(loc_rows)} rows, "
            f"expected {kx_points * nbands}"
        )
    for r in loc_rows:
        w_bot, w_top = float(r["edge_bottom"]), float(r["edge_top"])
        if not (0.0 <= w_bot and 0.0 <= w_top and w_bot + w_top <= 1.0 + 1e-9):
            problems.append(f"edge weights ({w_bot}, {w_top}) are not a probability")
            break
    return problems


def check_edge_state(density_rows, state_rows, nx: int, ny: int):
    """The midgap state is normalized and sits on the perimeter ring."""
    problems = []
    if len(density_rows) != nx * ny:
        problems.append(f"density map has {len(density_rows)} sites")
    total = sum(float(r["density"]) for r in density_rows)
    if abs(total - 1.0) > 1e-9:
        problems.append(f"density sums to {total}")
    if len(state_rows) != 1:
        problems.append(f"states table has {len(state_rows)} rows")
    elif float(state_rows[0]["edge_weight"]) < EDGE_MIN_WEIGHT:
        problems.append(f"edge weight {state_rows[0]['edge_weight']} < {EDGE_MIN_WEIGHT}")
    return problems


def check_tones(rows, meta):
    """Twelve tones per plaquette and the criterion-6 addressing margins."""
    problems = []
    if len(rows) != 12:
        problems.append(f"tone plan has {len(rows)} tones, expected 12")
    for key in ("min_tone_freq_t0", "min_per_bond_separation_t0"):
        if not meta.get(key, 0.0) >= TONE_MIN_MARGIN:
            problems.append(f"{key}={meta.get(key)} below {TONE_MIN_MARGIN}")
    return problems


def check_rwa(rows):
    """Criterion 7: rotating-wave fidelity and detuned population drift."""
    if len(rows) != 1:
        return [f"rwa table has {len(rows)} rows"]
    fidelity = float(rows[0]["fidelity"])
    drift = float(rows[0]["detuned_population_change"])
    problems = []
    if not fidelity >= RWA_MIN_FIDELITY:
        problems.append(f"RWA fidelity {fidelity} < {RWA_MIN_FIDELITY}")
    if not drift < RWA_MAX_DRIFT:
        problems.append(f"detuned drift {drift} >= {RWA_MAX_DRIFT}")
    return problems


def check_replay(cold_digests: dict, replay_digests: dict, cached: bool):
    """A cache-hit replay reproduces every cold output byte for byte."""
    problems = []
    if not cached:
        problems.append("replay was not served from the cache")
    if replay_digests != cold_digests:
        problems.append(
            f"replayed outputs {sorted(replay_digests)} differ from the cold ones"
        )
    return problems
