"""Config parsing, artifact output, caching, determinism, CLI surface."""

import contextlib
import fcntl
import hashlib
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qshsim import config, runner
from qshsim.cli import main
from qshsim.config import normalize, parse_config
from qshsim.errors import ConfigError, QshError
from qshsim.runner import LOCK_NAME, run


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_minimal_bands_config(tmp_path):
    path = write_config(
        tmp_path,
        {"alpha": "1/3", "beta": 0, "lambda": 0, "task": "bands", "grid": [16, 16]},
    )
    cfg = parse_config(path)
    assert cfg.task == "bands"
    assert cfg.task_params["grid"] == [16, 16]
    # defaults filled
    assert cfg.task_params["gap_threshold"] == 0.05
    assert cfg.task_params["window"] == [1.0, 2.0]
    assert cfg.model.p == 1 and cfg.model.q == 3


def test_parse_alpha_normalized_with_warning(tmp_path, caplog):
    path = write_config(tmp_path, {"alpha": "2/4", "task": "bands", "grid": [16, 16]})
    with caplog.at_level(logging.WARNING, logger="qshsim"):
        cfg = parse_config(path)
    assert (cfg.model.p, cfg.model.q) == (1, 2)
    assert any("lowest terms" in m for m in caplog.messages)


def test_parse_rejects_bad_configs(tmp_path):
    with pytest.raises(ConfigError, match="two|2 task blocks|task blocks"):
        normalize({"alpha": "1/3", "bands": {}, "ribbon": {}})
    with pytest.raises(ConfigError, match="alpha"):
        normalize({"task": "bands"})
    with pytest.raises(ConfigError, match="alpha"):
        normalize({"alpha": 0.333, "task": "bands"})
    with pytest.raises(ConfigError, match="task"):
        normalize({"alpha": "1/3"})
    with pytest.raises(ConfigError, match="unknown task"):
        normalize({"alpha": "1/3", "task": "frobnicate"})
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": "1/3",}')
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(str(bad))
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("key", ["beta", "lambda", "t0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_model_parameters_rejected(tmp_path, key, value):
    # json writes and reads NaN/Infinity, so they reach the config parser
    path = write_config(tmp_path, {"alpha": "1/3", "task": "bands", key: value})
    with pytest.raises(ConfigError, match="finite"):
        parse_config(path)


@pytest.mark.parametrize("threads", ["x", "2", None, 1.7, 2.0, 0, -1, True, [2]])
def test_threads_must_be_a_positive_integer(threads):
    with pytest.raises(ConfigError, match="threads"):
        normalize({"alpha": "1/3", "task": "bands", "threads": threads})


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 70)
    | st.floats()
    | st.text(max_size=5)
    | st.sampled_from(["1/3", "2/4", "1/0", "0.5", "csv", "bands"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["format", "directory", "beta", "dt", "grid", "windwo"]), inner
    ),
    max_leaves=6,
)
CONFIG_KEYS = st.sampled_from(
    config.COMMON_KEYS + config.TASKS + ("grid", "dt", "x", "grdi", "windwo")
)
#: the keys each task reads, as the README task table documents them
#: (``lindblad.dt`` is accepted, deprecated and dropped)
DOCUMENTED_TASK_KEYS = {
    "bands": {"grid", "window", "gap_threshold"},
    "ribbon": {"ny", "kx_points"},
    "phase_diagram": {
        "beta_range", "lambda_range", "resolution", "window", "gap_threshold",
        "bulk_grid", "ny_ribbon", "kx_points",
    },
    "edge_states": {"e_f", "count", "ring_depth"},
    "tones": {"units", "t0_mhz"},
    "rwa_check": {"t_final", "dt"},
    "lindblad": {"gammas", "t_us", "dt"},
}


@settings(max_examples=300, deadline=None)
@given(data=st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=6))
def test_normalize_fuzz_returns_config_or_raises_config_error(data):
    try:
        cfg = normalize(data)
    except ConfigError:
        return
    assert isinstance(cfg, config.RunConfig)
    # no unknown key survives, at the top level or in the task block
    documented = DOCUMENTED_TASK_KEYS[cfg.task]
    assert set(cfg.task_params) <= documented
    assert set(data) <= set(config.COMMON_KEYS + config.TASKS) | documented


@pytest.mark.parametrize(
    "data",
    [
        {"alpha": "1/3", "task": "bands", "grdi": [16, 16]},
        {"alpha": "1/3", "bands": {"windwo": [1.0, 2.0]}},
        {"alpha": "1/3", "task": "bands", "bands": {"grid": [16, 16]}, "grdi": 1},
        {"alpha": "1/3", "bands": {"grid": [16, 16]}, "grid": [16, 16]},
        {"alpha": "1/3", "rwa_check": {"t_finl": 1.0}},
        {"alpha": "1/3", "ribbon": {"bulk_grid": [64, 64]}},
        {"alpha": "1/3", "model": {"bta": 0.1}, "bands": {}},
        {"alpha": "1/3", "bands": {}, "output": {"fromat": "json"}},
    ],
)
def test_unknown_keys_rejected(data):
    with pytest.raises(ConfigError, match="unknown key"):
        normalize(data)


@pytest.mark.parametrize(
    "params",
    [
        {"dt": 0},
        {"dt": -0.1},
        {"dt": math.nan},
        {"dt": math.inf},
        {"dt": "0.01"},
        {"t_final": -1.0},
        {"t_final": math.nan},
        {"t_final": -math.inf},
        {"t_final": True},
        {"t_final": 10**400},
    ],
)
def test_rwa_check_bad_times_rejected(tmp_path, params):
    with pytest.raises(ConfigError, match="rwa_check"):
        normalize({"alpha": "1/3", "rwa_check": params})
    path = write_config(tmp_path, {"alpha": "1/3", "rwa_check": params})
    assert main(["rwa-check", "--config", path, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "params",
    [
        {"kx_points": 0},
        {"kx_points": 1},
        {"kx_points": 100},
        {"kx_points": 101.0},
        {"kx_points": True},
        {"ny_ribbon": -3},
        {"ny_ribbon": 11},  # fewer than 2*lcm(3, 2) rows
        {"ny_ribbon": "24"},
        {"bulk_grid": [8, 8]},
        {"bulk_grid": [64]},
        {"bulk_grid": [64, 64.5]},
        {"bulk_grid": 64},
        {"resolution": [16]},
        {"resolution": [16, 15]},
        {"resolution": [16, 16.0]},
        {"resolution": [True, 16]},
        {"resolution": "16x16"},
        {"window": [2.0, 1.0]},
        {"window": [1.0, 1.0]},
        {"window": [1.0, math.inf]},
        {"window": [1.0, "2"]},
        {"window": [1.0, 2.0, 3.0]},
        {"beta_range": [0.0, math.nan]},
        {"beta_range": [0.0]},
        {"beta_range": 0.25},
        {"lambda_range": [False, 2.0]},
        {"lambda_range": [0.0, 10**400]},
        {"lambda_range": None},
    ],
)
def test_phase_diagram_bad_solver_settings_rejected(tmp_path, params):
    with pytest.raises(ConfigError, match="phase_diagram"):
        normalize({"alpha": "1/3", "phase_diagram": params})
    path = write_config(tmp_path, {"alpha": "1/3", "phase_diagram": params})
    out = str(tmp_path / "out")
    assert main(["phase-diagram", "--config", path, "--out", out]) == 2


def test_phase_diagram_solver_bounds_accepted():
    cfg = normalize({"alpha": "1/3", "phase_diagram": {
        "bulk_grid": [16, 16], "ny_ribbon": 12, "kx_points": 101}})
    assert cfg.task_params["ny_ribbon"] == 12
    # a reversed beta or lambda range is a valid sweep direction
    cfg = normalize({"alpha": "1/3", "phase_diagram": {
        "resolution": [16, 20], "window": [-1, 0.5],
        "beta_range": [0.25, 0], "lambda_range": [2, -2]}})
    assert cfg.task_params["resolution"] == [16, 20]
    # the ribbon bound follows the magnetic cell: lcm(2, 2) = 2 rows at 1/2
    cfg = normalize({"alpha": "1/2", "phase_diagram": {"ny_ribbon": 4}})
    assert cfg.task_params["ny_ribbon"] == 4


def test_minimal_ribbon_layout_rejects_ambiguous_ny(tmp_path):
    data = {"alpha": "1/3", "task": "ribbon", "ny": 30}
    with pytest.raises(ConfigError, match='"ribbon": {"ny"'):
        normalize(data)
    for layout in (data, dict(data, kx_points=102), dict(data, ribbon={})):
        path = write_config(tmp_path, layout)
        assert main(["ribbon", "--config", path, "--out", str(tmp_path / "o")]) == 2
    # the block layout keeps the two heights apart
    cfg = normalize({"alpha": "1/3", "ny": 30, "ribbon": {"ny": 12}})
    assert (cfg.model.ny, cfg.task_params["ny"]) == (30, 12)
    cfg = normalize({"alpha": "1/3", "task": "ribbon", "kx_points": 102})
    assert (cfg.model.ny, cfg.task_params["ny"]) == (6, 42)


def test_rwa_check_zero_duration_and_automatic_dt_accepted():
    cfg = normalize({"alpha": "1/3", "rwa_check": {"t_final": 0, "dt": 0.01}})
    assert cfg.task_params["t_final"] == 0
    cfg = normalize({"alpha": "1/3", "rwa_check": {"dt": None}})
    assert cfg.task_params["dt"] is None


#: the keys that every task accepted before each moved to the tasks reading it
SHARED_KEYS = {"e_f": 1.5, "gap_threshold": 0.05, "ring_depth": 2, "t0_mhz": 3.0}


BAD_TASK_VALUES = [
    ("bands", {"grid": [8]}),
    ("bands", {"grid": "x"}),
    ("bands", {"gap_threshold": -1}),
    ("lindblad", {"gammas": "x"}),
    ("lindblad", {"gammas": [-1]}),
    ("lindblad", {"gammas": []}),
    ("lindblad", {"t_us": -1}),
    ("edge_states", {"e_f": "x"}),
    ("edge_states", {"count": 0}),
    ("edge_states", {"ring_depth": 9}),  # on the default 6x6 lattice
    ("ribbon", {"kx_points": 1.5}),
    ("ribbon", {"ny": 3}),
    ("tones", {"t0_mhz": -3}),
    ("tones", {"units": "GHz"}),
] + [
    (task, {key: value}) for key, value in SHARED_KEYS.items()
    for task in config.TASKS if key not in DOCUMENTED_TASK_KEYS[task]
]


@pytest.mark.parametrize(
    "task,params", BAD_TASK_VALUES,
    ids=[f"{t}.{k}={v!r}".replace(" ", "") for t, p in BAD_TASK_VALUES
         for k, v in p.items()],
)
def test_bad_task_values_are_config_errors(tmp_path, capsys, task, params):
    with pytest.raises(ConfigError, match=task):
        normalize({"alpha": "1/3", task: params})
    path = write_config(tmp_path, {"alpha": "1/3", task: params})
    command = task.replace("_", "-")
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "model",
    [
        {"nx": 1.5},
        {"nx": 1},
        {"ny": 0},
        {"ny": "6"},
        {"beta": "0.1"},
        {"beta": True},
        {"lambda": [1.0]},
        {"t0": 0},
        {"t0": -1.0},
        {"model": {"nx": 6.0}},
    ],
)
def test_bad_model_values_are_config_errors(tmp_path, model):
    data = {"alpha": "1/3", "bands": {}, **model}
    with pytest.raises(ConfigError, match="must be"):
        normalize(data)
    path = write_config(tmp_path, data)
    assert main(["bands", "--config", path, "--out", str(tmp_path / "out")]) == 2


def test_unread_seed_key_is_a_config_error(tmp_path):
    # nothing reads a top-level seed, so it is rejected like any unknown key
    data = {"alpha": "1/3", "bands": {"grid": [16, 16]}, "seed": "anything"}
    with pytest.raises(ConfigError, match="seed"):
        normalize(data)
    path = write_config(tmp_path, data)
    assert main(["bands", "--config", path, "--out", str(tmp_path / "out")]) == 2


def test_lindblad_lattice_cap_is_a_config_error(tmp_path, capsys):
    data = {"alpha": "1/3", "nx": 9, "ny": 8, "lindblad": {"gammas": [0.0]}}
    with pytest.raises(ConfigError, match="at most 64 sites"):
        normalize(data)
    path = write_config(tmp_path, data)
    assert main(["lindblad", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert normalize(dict(data, nx=8)).model.nx == 8
    # the cap is the master equation's: other tasks take larger lattices
    assert normalize({"alpha": "1/3", "nx": 9, "ny": 8, "tones": {}}).model.nx == 9


def test_phase_diagram_reads_its_gap_threshold(tmp_path, monkeypatch):
    # the window 1..2 is 1 wide, so no gap reaches 2.0: every point is metal
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    # metal points cast no ribbon vote, so the default ribbon costs nothing
    cfg = normalize({"alpha": "1/3", "phase_diagram": {
        "resolution": [16, 16], "bulk_grid": [64, 64], "gap_threshold": 2.0}})
    cfg.out_dir = str(tmp_path / "pd")
    manifest = run(cfg)
    rows = (tmp_path / "pd" / "phase_map.csv").read_text().splitlines()[1:]
    assert len(rows) == 256
    assert {row.split(",")[2] for row in rows} == {"metal"}
    # the manifest names the ribbon settings the config table filled
    params = manifest["config"]["params"]
    assert (params["ny_ribbon"], params["kx_points"]) == (48, 201)


def test_defaults_are_checked_against_the_model():
    # the default ring depth 2 leaves no interior on a 4x4 lattice
    with pytest.raises(ConfigError, match="edge_states.ring_depth"):
        normalize({"alpha": "1/3", "nx": 4, "ny": 4, "edge_states": {}})
    small = {"alpha": "1/3", "nx": 4, "ny": 4, "edge_states": {"ring_depth": 1}}
    assert normalize(small).task_params["ring_depth"] == 1
    # the default 48 ribbon rows hold two magnetic cells of height up to 24
    for alpha in ("1/13", "2/27", "1/26", "3/28"):
        with pytest.raises(ConfigError, match="phase_diagram.ny_ribbon"):
            normalize({"alpha": alpha, "phase_diagram": {}})
    for alpha in ("1/12", "5/24"):
        assert normalize({"alpha": alpha, "phase_diagram": {}}).task_params[
            "ny_ribbon"] == 48
    tall = {"alpha": "1/13", "phase_diagram": {"ny_ribbon": 52}}
    assert normalize(tall).task_params["ny_ribbon"] == 52


#: an in-range value of every documented task key
IN_RANGE_VALUES = {
    "grid": [16, 20], "window": [0.5, 2.5], "gap_threshold": 0.1, "ny": 12,
    "kx_points": 101, "beta_range": [0.0, 0.1], "lambda_range": [0.0, 1.0],
    "resolution": [16, 16], "bulk_grid": [64, 64], "ny_ribbon": 24,
    "e_f": 1.0, "count": 2, "ring_depth": 1, "units": "MHz", "t0_mhz": 3.5,
    "t_final": 1.0, "dt": 0.01, "gammas": [0.0], "t_us": 0.5,
}


def test_documented_optional_keys_accepted():
    for task, keys in DOCUMENTED_TASK_KEYS.items():
        given = keys - {"dt"} if task == "lindblad" else keys  # dropped there
        block = {key: IN_RANGE_VALUES[key] for key in given}
        cfg = normalize({"alpha": "1/3", task: block})
        assert cfg.task_params == block
    cfg = normalize({"alpha": "1/3", "tones": {"units": "MHz", "t0_mhz": 3.5}})
    assert cfg.task_params["t0_mhz"] == 3.5


def test_cache_key_stable_under_key_order():
    a = normalize({"alpha": "1/3", "task": "bands", "grid": [16, 16], "beta": 0.0})
    b = normalize({"beta": 0.0, "grid": [16, 16], "task": "bands", "alpha": "1/3"})
    assert a.cache_key() == b.cache_key()
    # a left-out solver key is its default in the key too
    solver = {"bulk_grid": [128, 128], "ny_ribbon": 48, "kx_points": 201}
    a = normalize({"alpha": "1/3", "phase_diagram": {}})
    b = normalize({"alpha": "1/3", "phase_diagram": solver})
    assert a.cache_key() == b.cache_key()


BANDS_CFG = {"alpha": "1/3", "task": "bands", "grid": [16, 16]}


def test_cache_key_includes_version(monkeypatch):
    key = normalize(BANDS_CFG).cache_key()
    assert normalize(BANDS_CFG).cache_key() == key
    monkeypatch.setattr(config, "__version__", "0.1.0")
    assert normalize(BANDS_CFG).cache_key() != key


def test_run_bands_and_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize(BANDS_CFG)
    cfg.out_dir = str(tmp_path / "out1")
    m1 = run(cfg)
    assert not m1["cached"]
    assert [o["name"] for o in m1["outputs"]] == ["bands.csv"]
    data1 = (tmp_path / "out1" / "bands.csv").read_bytes()

    cfg2 = normalize(BANDS_CFG)
    cfg2.out_dir = str(tmp_path / "out2")
    m2 = run(cfg2)
    assert m2["cached"]
    data2 = (tmp_path / "out2" / "bands.csv").read_bytes()
    assert hashlib.sha256(data1).hexdigest() == hashlib.sha256(data2).hexdigest()

    m3 = run(cfg2, force=True)
    assert not m3["cached"]
    data3 = (tmp_path / "out2" / "bands.csv").read_bytes()
    assert data3 == data1  # determinism: recomputation reproduces the bytes

    # manifest lists every output with its content hash
    manifest = json.loads((tmp_path / "out2" / "run_manifest.json").read_text())
    for entry in manifest["outputs"]:
        digest = hashlib.sha256(
            (tmp_path / "out2" / entry["name"]).read_bytes()
        ).hexdigest()
        assert digest == entry["sha256"]


def test_run_timing_ignores_a_wall_clock_stepped_back(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    wall = itertools.count(1e9, -60.0)  # each reading a minute earlier
    monkeypatch.setattr(time, "time", lambda: next(wall))
    cfg = normalize({"alpha": "1/3", "tones": {}})
    cfg.out_dir = str(tmp_path / "out")
    assert run(cfg)["timing_s"] >= 0


@contextlib.contextmanager
def _holding_lock(out):
    """Hold the output directory's lock from this process, as a run would."""
    with open(out / LOCK_NAME, "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        yield


def test_lock_excludes_concurrent_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "out"
    out.mkdir()
    cfg = normalize(BANDS_CFG)
    cfg.out_dir = str(out)
    with _holding_lock(out):
        with pytest.raises(QshError, match="locked"):
            run(cfg)
    assert not run(cfg)["cached"]
    assert (out / LOCK_NAME).read_text() == ""  # the released file stays


def test_stale_lock_file_does_not_block(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "out"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)  # reaped: its pid names no process now
    cfg = normalize(BANDS_CFG)
    cfg.out_dir = str(out)
    # an empty file, a live pid (this process) and a dead pid: none is held
    for text in ("", f"{os.getpid()}\n", f"{child.pid}\n"):
        (out / LOCK_NAME).write_text(text)
        assert [o["name"] for o in run(cfg)["outputs"]] == ["bands.csv"]
        assert (out / LOCK_NAME).exists()


#: a run that takes the lock of the directory argv[1] and never finishes
HOLD_LOCK = """
import sys, time
from pathlib import Path
from qshsim import runner
with runner._Lock(Path(sys.argv[1])):
    print("held", flush=True)
    time.sleep(600)
"""


def test_lock_of_a_killed_run_is_released(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "out"
    out.mkdir()
    cfg = normalize(BANDS_CFG)
    cfg.out_dir = str(out)
    env = dict(os.environ, PYTHONPATH=str(Path(runner.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(out)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert child.stdout.readline() == "held\n"
        with pytest.raises(QshError, match="locked"):
            run(cfg)
    finally:
        child.kill()  # SIGKILL: the child runs no exit handler
        child.wait(timeout=60)
        child.stdout.close()
    assert not run(cfg)["cached"]


def test_run_stopped_before_publishing_is_recomputed(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize(BANDS_CFG)
    cfg.out_dir = str(tmp_path / "out")

    class Killed(BaseException):
        pass

    def killed(*args):
        raise Killed

    # stop the run between writing the cache entry and publishing it
    with monkeypatch.context() as m:
        m.setattr(runner.os, "rename", killed)
        with pytest.raises(Killed):
            run(cfg)
    assert not runner._cache_dir(cfg).exists()
    # a directory under the key without a manifest is a miss, too
    runner._cache_dir(cfg).mkdir(parents=True)
    (runner._cache_dir(cfg) / "bands.csv").write_text("truncated")
    first = run(cfg)
    assert not first["cached"]
    again = run(cfg)
    assert again["cached"] and again["outputs"] == first["outputs"]


def test_corrupted_cache_file_is_recomputed_not_replayed(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize(BANDS_CFG)
    cfg.out_dir = str(tmp_path / "out1")
    good = run(cfg)
    expected = (tmp_path / "out1" / "bands.csv").read_bytes()
    cached_file = runner._cache_dir(cfg) / "bands.csv"
    data = bytearray(cached_file.read_bytes())
    data[-2] ^= 1  # one flipped bit in the last digit of the last row
    cached_file.write_bytes(bytes(data))

    cfg.out_dir = str(tmp_path / "out2")
    m = run(cfg)
    assert not m["cached"] and m["outputs"] == good["outputs"]
    assert (tmp_path / "out2" / "bands.csv").read_bytes() == expected
    assert cached_file.read_bytes() == expected  # the entry was republished
    cfg.out_dir = str(tmp_path / "out3")
    assert run(cfg)["cached"]
    assert (tmp_path / "out3" / "bands.csv").read_bytes() == expected


#: a file where the name "../x.csv" of a cache entry points, and its digest
BESIDE = b"beside the cache entries\n"
BESIDE_SHA256 = hashlib.sha256(BESIDE).hexdigest()


@pytest.mark.parametrize("stored", [
    [], "x", {"sha256": [], "meta": {}},
    {"sha256": {}, "meta": {}},  # no files: an incomplete entry
    {"sha256": {"": "x"}, "meta": {}},
    {"sha256": {".": "x"}, "meta": {}},
    {"sha256": {"..": "x"}, "meta": {}},
    {"sha256": {"sub/bands.csv": "x"}, "meta": {}},
    {"sha256": {"/bands.csv": "x"}, "meta": {}},
    {"sha256": {"../x.csv": BESIDE_SHA256}, "meta": {}},
])
def test_misshapen_cache_manifest_is_recomputed(tmp_path, monkeypatch, caplog, stored):
    """A cache manifest that is valid JSON of the wrong shape is a miss."""
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize(BANDS_CFG)
    cfg.out_dir = str(tmp_path / "out1")
    good = run(cfg)
    (runner._cache_dir(cfg) / runner.MANIFEST_NAME).write_text(json.dumps(stored))
    (runner._cache_dir(cfg).parent / "x.csv").write_bytes(BESIDE)

    cfg.out_dir = str(tmp_path / "out2")
    before = set(tmp_path.iterdir())
    with caplog.at_level(logging.WARNING, logger="qshsim"):
        m = run(cfg)
    assert not m["cached"] and m["outputs"] == good["outputs"]
    assert "wrong shape" in caplog.text
    assert set(tmp_path.iterdir()) == before | {tmp_path / "out2"}
    cfg.out_dir = str(tmp_path / "out3")
    assert run(cfg)["cached"]  # the entry was republished


def test_unreadable_cache_file_is_recomputed(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize(BANDS_CFG)
    cfg.out_dir = str(tmp_path / "out1")
    good = run(cfg)
    cached_file = runner._cache_dir(cfg) / "bands.csv"
    cached_file.unlink()
    cached_file.mkdir()  # listed in the manifest, but not a file

    cfg.out_dir = str(tmp_path / "out2")
    with caplog.at_level(logging.WARNING, logger="qshsim"):
        m = run(cfg)
    assert not m["cached"] and m["outputs"] == good["outputs"]
    assert "cannot read the cache entry" in caplog.text
    assert run(cfg)["cached"]  # the entry was republished


def test_tones_task_units(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize({"alpha": "1/3", "beta": 0.1, "tones": {}})
    cfg.out_dir = str(tmp_path / "t0")
    run(cfg)
    lines = (tmp_path / "t0" / "tones.csv").read_text().splitlines()
    assert lines[0] == "bond,channel,freq_t0,amplitude_t0,phase_rad,sign"
    assert len(lines) == 1 + 12  # 2 tones on each x bond, 4 on each y bond
    freqs = {float(l.split(",")[2]) for l in lines[1:]}
    assert 50.0 in freqs

    cfg_mhz = normalize({"alpha": "1/3", "beta": 0.1, "tones": {"units": "MHz"}})
    cfg_mhz.out_dir = str(tmp_path / "mhz")
    run(cfg_mhz)
    mhz_lines = (tmp_path / "mhz" / "tones.csv").read_text().splitlines()
    assert mhz_lines[0] == "bond,channel,freq_MHz,amplitude_MHz,phase_rad,sign"
    mhz_freqs = {float(l.split(",")[2]) for l in mhz_lines[1:]}
    assert 150.0 in mhz_freqs  # 50 t0 * 3 MHz


def test_edge_states_task_density_output(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize(
        {"alpha": "1/3", "nx": 6, "ny": 6, "edge_states": {"count": 1}}
    )
    cfg.out_dir = str(tmp_path / "es")
    run(cfg)
    lines = (tmp_path / "es" / "density_000.csv").read_text().splitlines()
    assert lines[0] == "m,n,density"
    assert len(lines) == 1 + 36
    total = perim = 0.0
    for line in lines[1:]:
        m, n, d = line.split(",")
        m, n, d = int(m), int(n), float(d)
        assert 1 <= m <= 6 and 1 <= n <= 6
        total += d
        if m in (1, 6) or n in (1, 6):
            perim += d
    assert abs(total - 1.0) < 1e-9
    assert perim / total >= 0.80  # perimeter carries most of the state


def test_ribbon_task_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize(
        {"alpha": "1/3", "lambda": 1.0, "ribbon": {"ny": 12, "kx_points": 102}}
    )
    cfg.out_dir = str(tmp_path / "rb")
    run(cfg)
    bands = (tmp_path / "rb" / "bands.csv").read_text().splitlines()
    loc = (tmp_path / "rb" / "localization.csv").read_text().splitlines()
    assert bands[0] == "kx,band_index,E_t0"
    assert loc[0] == "kx,band_index,edge_bottom,edge_top"
    assert len(bands) == len(loc) == 1 + 102 * 24
    w = [float(l.split(",")[2]) + float(l.split(",")[3]) for l in loc[1:]]
    assert all(0.0 <= x <= 1.0 + 1e-9 for x in w)


def test_phase_diagram_task_csv(tmp_path, monkeypatch):
    # light solver settings keep this an interface test; the physics of the
    # full window runs in tests/test_topology.py at production settings
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize(
        {
            "alpha": "1/3",
            "phase_diagram": {
                "beta_range": [0.1, 0.15],
                "lambda_range": [0.8, 1.2],
                "resolution": [16, 16],
                "bulk_grid": [64, 64],
                "ny_ribbon": 24,
                "kx_points": 101,
            },
        }
    )
    cfg.out_dir = str(tmp_path / "pd")
    run(cfg)
    lines = (tmp_path / "pd" / "phase_map.csv").read_text().splitlines()
    assert lines[0] == "beta,lambda,phase,nu"
    assert len(lines) == 1 + 256
    phases = [l.split(",")[2] for l in lines[1:]]
    assert set(phases) <= {"topological", "metal", "trivial", "error"}
    # the scanned patch sits mostly in the metallic strip (light solver
    # settings blur the borders, so only a majority is asserted)
    metal_rows = [l for l in lines[1:] if l.split(",")[2] == "metal"]
    assert len(metal_rows) > 128
    assert all(l.split(",")[3] == "" for l in metal_rows)


def test_phase_map_bytes_independent_of_threads(tmp_path, monkeypatch):
    # the benchmark's light window; its point (1/6, 0) is left by the ribbon
    # vote to the bulk fallback
    block = {
        "beta_range": [0.0, 0.25],
        "lambda_range": [0.0, 2.0],
        "resolution": [16, 16],
        "bulk_grid": [64, 64],
        "ny_ribbon": 24,
        "kx_points": 101,
    }
    outputs = []
    for threads in (1, 2, 4):
        monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / f"cache{threads}"))
        cfg = normalize({"alpha": "1/3", "threads": threads, "phase_diagram": block})
        cfg.out_dir = str(tmp_path / f"pd{threads}")
        manifest = run(cfg)
        assert not manifest["cached"]
        csv = (tmp_path / f"pd{threads}" / "phase_map.csv").read_bytes()
        outputs.append((csv, manifest["meta"]))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    meta = outputs[0][1]
    assert meta["point_errors"] == []
    assert meta["bulk_fallback"] == [
        {"beta": 0.16666666666666666, "lambda": 0.0, "route": "wilson",
         "phase": "topological"}
    ]
    assert isinstance(meta["blas_pinned"], int) and meta["blas_pinned"] >= 0


def test_rwa_check_task(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize({"alpha": "1/3", "rwa_check": {}})
    cfg.out_dir = str(tmp_path / "rwa")
    manifest = run(cfg)
    assert manifest["meta"]["fidelity"] >= 0.99
    assert manifest["meta"]["detuned_population_change"] < 0.01


def test_lindblad_task_csv(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    with caplog.at_level(logging.WARNING, logger="qshsim"):
        cfg = normalize(
            {
                "alpha": "1/3",
                "nx": 2,
                "ny": 2,
                "lindblad": {"gammas": [0.0, 0.05], "t_us": 0.2, "dt": 0.002},
            }
        )
    assert "lindblad.dt is deprecated and ignored" in caplog.text
    assert "dt" not in cfg.task_params
    cfg.out_dir = str(tmp_path / "lb")
    manifest = run(cfg)
    meta = manifest["meta"]
    assert meta["method"] == "expm_multiply"
    assert [d["gamma_t0"] for d in meta["diagnostics"]] == [0.0, 0.05]
    for d in meta["diagnostics"]:
        assert d["chunks"] >= 1
        assert d["trace_defect"] < 1e-12 and d["min_eigenvalue"] > -1e-12
    lines = (tmp_path / "lb" / "decay_scan.csv").read_text().splitlines()
    assert lines[0] == "gamma_t0,gamma_kHz_over_2pi,P1,P2,P3"
    assert len(lines) == 3
    t_t0 = manifest["meta"]["T_t0"]
    assert math.isclose(t_t0, 2 * math.pi * 3.0 * 0.2)
    row = lines[2].split(",")
    assert math.isclose(float(row[4]), math.exp(-0.05 * t_t0), rel_tol=1e-3)


def test_json_format_output(tmp_path, monkeypatch):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg = normalize({"alpha": "1/3", "task": "bands", "grid": [16, 16],
                     "output": {"format": "json"}})
    cfg.out_dir = str(tmp_path / "j")
    run(cfg)
    records = json.loads((tmp_path / "j" / "bands.json").read_text())
    assert isinstance(records, list) and records
    assert set(records[0]) == {"kx", "ky", "band_index", "E_t0"}


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / "cache"))
    cfg_path = write_config(tmp_path, BANDS_CFG)
    out = str(tmp_path / "cli_out")
    assert main(["bands", "--config", cfg_path, "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["task"] == "bands" and summary["outputs"] == ["bands.csv"]

    # task/subcommand mismatch is a config error
    assert main(["ribbon", "--config", cfg_path, "--out", out]) == 2

    bad_path = write_config(tmp_path, {"alpha": "1/3"}, name="bad.json")
    assert main(["bands", "--config", bad_path, "--out", out]) == 2

    for threads in ("x", None, 1.7):
        cfg = dict(BANDS_CFG, threads=threads)
        bad_threads = write_config(tmp_path, cfg, name="threads.json")
        assert main(["bands", "--config", bad_threads, "--out", out]) == 2

    typo = write_config(tmp_path, dict(BANDS_CFG, grdi=[8, 8]), name="typo.json")
    assert main(["bands", "--config", typo, "--out", out]) == 2

    # held lock surfaces as a computation error, until it is released
    locked = tmp_path / "locked"
    locked.mkdir()
    with _holding_lock(locked):
        assert main(["bands", "--config", cfg_path, "--out", str(locked)]) == 3
    assert main(["bands", "--config", cfg_path, "--out", str(locked)]) == 0

    # so does a lock file that cannot be opened
    blocked = tmp_path / "blocked"
    (blocked / LOCK_NAME).mkdir(parents=True)
    capsys.readouterr()
    assert main(["bands", "--config", cfg_path, "--out", str(blocked)]) == 3
    assert str(blocked / LOCK_NAME) in capsys.readouterr().err
