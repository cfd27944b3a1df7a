"""Config language, subcommand dispatch, and manifest reproducibility."""
import csv
import json
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from spdelab import cli, montecarlo
from spdelab.cli import (DEFAULT_REGIONS, main, parse_config, print_config,
                         svg_line_chart)
from spdelab.cubes import core_count, count_bound, extended_count
from spdelab.errors import ConfigError, InsufficientDataError, ModelInvalidError
from spdelab.solver import ModelParams, build_model, validate_model

CUSTOM = """\
[grid]
n = 1
npts = 32

[model]
a = random_elliptic
f = linear
g = trig
lambda_f = 0.1
lambda_g = 0.3
iota = 0.5
m = 2
a_seed = 9

[solver]
dt = auto
f0 = bump
horizon = 1.0

[regions]
Q = {"t0": 0.25, "x0": [0.0], "r": 0.4}
P = {"t_lo": 0.5, "t_hi": 1.0, "center": [0.0], "radius": 0.5}

[montecarlo]
paths = 6
seed = 123
chunk = 4
gammas = 1, 4, 16
"""

# every key set to a value other than its default
EVERY_KEY = """\
[grid]
n = 2
npts = 16
extent = 1.5

[model]
a = expr
f = expr
g = expr
lambda_f = 0.2
lambda_g = 0.3
iota = 0.5
m = 1
a_seed = 7
a_value = 0.75
a_expr = 1 + 0.25*sin(pi*x1)*cos(pi*x2)
f_expr = 0.1*u*cos(t)
g_expr = 0.2*u*sin(x1)
growth_bound = 0.6

[solver]
dt = 0.002
f0 = random_positive
amplitude = 2.5
width = 0.75
ic_seed = 3
horizon = 2.0

[regions]
Q = {"t_lo": 0.25, "t_hi": 0.5, "center": [0.0, 0.0], "radius": 0.5}
P = {"t_lo": 1.0, "t_hi": 2.0, "center": [0.25, 0.0], "radius": 0.75}

[montecarlo]
paths = 17
seed = 99
chunk = 5
gammas = 1.5, 3.0
floor = 0.01
alphas = 0.1, 0.2, 0.4
mu = 0.001
nu = 2.0
depth = 2
"""


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def run_cli(*argv):
    return main(list(argv))


def test_defaults_fill_in():
    spec = parse_config("")
    assert spec.grid.n == 1 and spec.grid.npts == 128
    assert spec.model.g_kind == "trig" and spec.model.lambda_g == 0.5
    assert spec.n_paths == 200 and spec.master_seed == 2024
    assert spec.regions == DEFAULT_REGIONS


def test_round_trip_is_identity():
    for text in ("", CUSTOM):
        spec = parse_config(text)
        canon = print_config(spec)
        assert parse_config(canon) == spec
        # printing is idempotent on its own output
        assert print_config(parse_config(canon)) == canon


def _key_values(text):
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def test_every_key_round_trips():
    spec = parse_config(EVERY_KEY)
    canon = print_config(spec)
    assert parse_config(canon) == spec
    assert print_config(parse_config(canon)) == canon
    # the config really sets every key the canonical text writes, each to
    # a value other than its default
    given, written = _key_values(EVERY_KEY), _key_values(canon)
    defaults = _key_values(print_config(parse_config("")))
    assert set(written) == set(given)
    for key in set(given) - {"Q", "P"}:
        assert written[key] != defaults.get(key), key


def test_tol_from_old_manifests_is_ignored():
    # older canonical texts carry tol and scheme = semi-implicit, the one
    # scheme; both replay and neither is printed again
    canon = print_config(parse_config(CUSTOM))
    old = canon.replace("dt = auto\n", "dt = auto\nscheme = semi-implicit\ntol = 1e-10\n")
    assert "tol = 1e-10" in old and "tol" not in canon and "scheme" not in canon
    assert parse_config(old) == parse_config(canon)
    assert print_config(parse_config(old)) == canon
    # any other scheme is refused at its own line, never run as semi-implicit
    for scheme in ("explicit", "rk4"):
        bad = old.replace("scheme = semi-implicit", f"scheme = {scheme}")
        with pytest.raises(ConfigError, match="the one scheme is semi-implicit") as info:
            parse_config(bad)
        assert info.value.line == bad.splitlines().index(f"scheme = {scheme}") + 1


def test_tol_is_a_float_and_a_manifest_with_it_replays(tmp_path):
    # old manifests wrote tol as a float repr; any other value is refused
    # at its own line, as a bad scheme is
    for value in ("banana", "", "1e-8e"):
        text = f"[grid]\nnpts = 16\n\n[solver]\ntol = {value}\n"
        with pytest.raises(ConfigError, match=r"line 5: bad value for \[solver\] tol"):
            parse_config(text)
    cfg = tmp_path / "e.cfg"
    cfg.write_text("[grid]\nnpts = 16\n\n[montecarlo]\npaths = 4\n")
    first = tmp_path / "a"
    assert run_cli("--config", str(cfg), "--out", str(first), "ensemble") == 0
    manifest = json.loads((first / "manifest.json").read_text())
    canon = manifest["config_text"]
    manifest["config_text"] = canon.replace("dt = auto\n", "dt = auto\ntol = 1e-08\n")
    assert "tol = 1e-08" in manifest["config_text"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    replay = tmp_path / "b"
    assert run_cli("--config", str(old), "--out", str(replay), "ensemble") == 0
    assert (replay / "paths.csv").read_bytes() == (first / "paths.csv").read_bytes()
    assert json.loads((replay / "manifest.json").read_text())["config_text"] == canon


def test_output_section_is_unknown():
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[output\]"):
        parse_config("[output]\nplot = true\n")


def test_rejected_value_reported_at_its_own_line():
    cases = [
        ("[solver]\nhorizon = 1.0\n\n[montecarlo]\nchunk = 0\n", 5),
        ("[solver]\nf0 = bump\n[montecarlo]\nfloor = -1\n", 4),
        ("[solver]\ndt = -1\nscheme = semi-implicit\n", 2),
        ("[solver]\ndt = 0.001\nscheme = explicit\n", 3),
        # inf fails each check that NaN fails
        ("[solver]\nhorizon = 1.0\ndt = inf\n", 3),
        ("[model]\nlambda_f = inf\n", 2),
        ("[model]\nm = 2\nlambda_g = inf\n", 3),
        ("[model]\nf = expr\nf_expr = 0.01*u*u\ngrowth_bound = inf\n", 4),
        ("[montecarlo]\nmu = inf\n", 2),
        ("[montecarlo]\npaths = 4\nnu = inf\n", 3),
        ("[montecarlo]\nseed = 3\nfloor = inf\n", 3),
        ("[montecarlo]\ngammas = 1, inf\n", 2),
        ("[montecarlo]\nalphas = inf\n", 2),
        ("[solver]\nf0 = bump\nwidth = inf\n", 3),
        ("[montecarlo]\npaths = 0\n", 2),
        ("[grid]\nn = 2\nnpts = 0\n", 3),
        # the initial condition is built from [solver] keys
        ("[solver]\nhorizon = 1.0\namplitude = -1\n", 3),
        ("[solver]\nf0 = nope\n", 2),
        ("[solver]\nf0 = gaussian\nwidth = 0\n", 3),
        ("[solver]\nwidth = -0.5\n", 2),
        # NaN fails every comparison, so it must fail each check too
        ("[montecarlo]\nseed = 3\nfloor = nan\n", 3),
        ("[montecarlo]\ngammas = 1, nan\n", 2),
        # read only by jn and cubes, but checked before any subcommand runs
        ("[montecarlo]\nmu = -1\n", 2),
        ("[montecarlo]\npaths = 4\nnu = 0\n", 3),
        ("[montecarlo]\nalphas = -1, 0.5\n", 2),
        ("[montecarlo]\ndepth = -1\n", 2),
        ("[grid]\nn = 3\n", 2),
        ("[grid]\nnpts = 2\n", 2),
        ("[grid]\nextent = -1\n", 2),
        ("[model]\nlambda_f = -1\n", 2),
        ("[model]\nm = -1\n", 2),
        ("[model]\ngrowth_bound = -1\n", 2),
        ("[model]\ng = expr\n", 2),
        ("[solver]\nscheme = rk4\n", 2),
        ("[montecarlo]\ngammas = ,\n", 2),
        # a constant A outside [iota, 1/iota] is the pair's fault, not one key's
        ("[model]\na = constant\niota = 0.5\na_value = 5\n", None),
    ]
    for text, line in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line, (text, str(info.value))


# extreme values of the initial-condition and model keys: each is rejected
# at its own line or accepted, never a numpy warning or a raw exception
EXTREME_VALUES = [
    ("[solver]\namplitude = inf\n", 2),
    ("[solver]\nwidth = 1e-320\n", None),
    ("[solver]\nf0 = gaussian\nwidth = 1e-200\n", None),
    ("[solver]\nf0 = gaussian\nwidth = 1e200\n", None),
    ("[model]\nlambda_g = 1e300\n", None),
    ("[model]\ngrowth_bound = 1e308\n", None),
    ("[model]\na = random_elliptic\niota = 1e-320\n", 3),
    # the nodes nearest 0 sit at +-2/7: a field that vanishes at every node
    ("[grid]\nnpts = 7\n\n[solver]\nwidth = 0.001\n", 5),
    ("[solver]\nf0 = gaussian\namplitude = 1e306\nwidth = 1e-5\n", None),
    ("[solver]\nf0 = random_positive\namplitude = 1.7e308\n", 3),
    # dx^2, horizon / dt and |f| + |g| overflow
    ("[grid]\nextent = 1e300\n", 2),
    ("[solver]\ndt = 5e-324\n", 2),
    ("[solver]\nhorizon = 1.7e308\n", 2),
    ("[model]\nlambda_g = 1.7e308\n", 2),
]


@pytest.mark.parametrize("text, line", EXTREME_VALUES)
def test_extreme_values_rejected_at_their_line_or_accepted(text, line):
    if line is not None:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line, str(info.value)
        return
    spec = parse_config(text)
    u0 = spec.initial_condition().values
    # every initial condition here peaks at its amplitude at the node at
    # 0; a width far above the node spacing leaves it constant
    assert np.all(np.isfinite(u0)) and u0.max() == spec.ic_amplitude
    assert u0.min() == (1.0 if "1e200" in text else 0.0)


@pytest.mark.parametrize("text", [t for t, line in EXTREME_VALUES if line is not None])
def test_extreme_value_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run_cli("--config", str(cfg), "--out", str(out), "solve") == 2
    assert "error: line" in capsys.readouterr().err
    assert not out.exists()


def test_rejected_model_reported_at_its_key_line():
    # the single-key rule: a bad expression is only read once its kind
    # key selects it, so that key's line is reported
    cases = [
        ("[model]\niota = 2\n", 2, "iota must lie in"),
        ("[model]\nlambda_f = 0.1\nf = expr\nf_expr = u**2\n", 3, "'u\\*\\*2'"),
    ]
    for text, line, message in cases:
        with pytest.raises(ConfigError, match=f"line {line}: model rejected: .*{message}"):
            parse_config(text)


def test_corrupted_values_found_by_the_property_test():
    # shrunk cases of test_one_corrupted_value_is_reported_at_its_own_line.
    # A kind key given as expr is rejected alone, without its expression,
    # yet the error is another key's: that key's line is reported.  A
    # negative seed or an infinite extent is rejected at its line, not by
    # numpy; a bad channel count or noise kind is rejected with noise off
    cases = [
        ("[model]\nf = expr\nf_expr = 0.5*u\ng = nope\n", 4, "unknown g_kind"),
        ("[model]\na = expr\na_expr = 1 + 0*x\nlambda_f = -1\n", 4, "must be nonnegative"),
        ("[model]\na = expr\na_expr = 1 + 0*x\nlambda_f = nan\n", 4, "must be nonnegative"),
        ("[model]\na = random_elliptic\na_seed = -1\n", 3, "a_seed must be nonnegative"),
        ("[solver]\nf0 = random_positive\nic_seed = -1\n", 3, "ic_seed must be nonnegative"),
        ("[montecarlo]\nseed = -1\n", 2, "master seed must be nonnegative"),
        ("[grid]\nextent = inf\n", 2, "positive and finite"),
        ("[model]\ng = zero\nm = -1\n", 3, "m must be >= 0"),
        ("[model]\nm = 0\ng = nope\n", 3, "unknown g_kind"),
    ]
    for text, line, message in cases:
        with pytest.raises(ConfigError, match=f"line {line}: .*{message}"):
            parse_config(text)


def _readme_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("A config that exercises most sections:\n", 1)[1]
    lines = []
    for line in block.splitlines()[1:]:
        if line and not line.startswith("    "):
            break
        lines.append(line[4:])
    return "\n".join(lines).strip() + "\n"


def test_readme_example_parses_and_round_trips():
    text = _readme_example()
    assert text.startswith("[grid]") and "[montecarlo]" in text
    spec = parse_config(text)
    canon = print_config(spec)
    assert parse_config(canon) == spec
    assert print_config(parse_config(canon)) == canon


def test_cylinder_region_form():
    spec = parse_config(CUSTOM)
    q = spec.regions["Q"]
    assert q.t_hi == pytest.approx(0.25)
    assert q.t_lo == pytest.approx(0.25 - 0.4 ** 2)
    assert q.ball.radius == pytest.approx(0.4)


def test_unknown_section_hint():
    with pytest.raises(ConfigError, match=r"line 1: .*did you mean \[grid\]"):
        parse_config("[grd]\nn = 1\n")


def test_unknown_key_hint():
    with pytest.raises(ConfigError, match=r"line 2: .*did you mean 'f0'"):
        parse_config("[solver]\nfo = bump\n")


def test_malformed_lines():
    with pytest.raises(ConfigError, match="line 1: unterminated"):
        parse_config("[grid\n")
    with pytest.raises(ConfigError, match="key outside any"):
        parse_config("npts = 32\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("[grid]\nnpts 32\n")
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'npts'"):
        parse_config("[grid]\nnpts = 32\nnpts = 64\n")


def test_bad_values_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"line 2: bad value for \[grid\] npts"):
        parse_config("[grid]\nnpts = many\n")
    with pytest.raises(ConfigError, match="region needs keys"):
        parse_config('[regions]\nQ = {"lo": 1}\n')
    with pytest.raises(ConfigError, match="bad region"):
        parse_config("[regions]\nQ = [1, 2]\n")
    # a ball of the wrong dimension or with a NaN center fails at its line
    box = '{"t_lo": 0.0, "t_hi": 0.5, "center": %s, "radius": 0.5}'
    for text, match, line in [
            ('[regions]\nQ = {"t0": 0.5, "x0": [0, 0], "r": 0.5}\n', "dimension 2", 2),
            (f"[grid]\nn = 2\nnpts = 8\n[regions]\nR = {box % '[0.0]'}\n", "dimension 1", 5),
            ('[regions]\nQ = {"t0": 0.5, "x0": [NaN], "r": 0.5}\n', "finite", 2),
            (f"[regions]\nR = {box % '[NaN]'}\n", "finite", 2)]:
        with pytest.raises(ConfigError, match=match) as info:
            parse_config(text)
        assert info.value.line == line, text


def test_window_order_is_checked():
    text = ('[regions]\n'
            'Q = {"t_lo": 0.5, "t_hi": 1.0, "center": [0.0], "radius": 0.5}\n'
            'P = {"t_lo": 0.25, "t_hi": 0.5, "center": [0.0], "radius": 0.5}\n')
    with pytest.raises(ConfigError, match="violated rule"):
        parse_config(text)


def test_model_is_built_eagerly():
    text = "[model]\nf = expr\nf_expr = u**2\n"
    with pytest.raises(ConfigError, match="model rejected"):
        parse_config(text)


def test_solve_writes_results(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("--out", str(out), "solve") == 0
    assert (out / "resolution_study.csv").exists()
    assert (out / "manifest.json").exists()
    assert "error ratios" in capsys.readouterr().out
    rows = read_csv(out / "resolution_study.csv")
    assert rows[0] == ["npts", "dx", "dt", "l2_error", "error_ratio"]
    assert [r[0] for r in rows[1:]] == ["64", "128", "256"]


def test_config_error_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grd]\nn = 1\n")
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "solve") == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.cfg"
    assert run_cli("--config", str(missing), "--out", str(tmp_path / "o2"),
                   "solve") == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2_before_any_write(tmp_path, capsys, threads):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli("--out", str(out), "--threads", threads, "ensemble")
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_broken_manifest_exits_2(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    for blob in ({"version": 1}, {"config_text": 5}, {"config_text": None},
                 {"config_text": ["a"]}):
        path.write_text(json.dumps(blob))
        assert run_cli("--config", str(path), "--out", str(tmp_path / "o"),
                       "solve") == 2, blob
        assert "config_text" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_diverging_ensemble_exits_3(tmp_path, capsys):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(
        "[grid]\nnpts = 32\n\n"
        "[model]\nf = expr\nf_expr = u*u*u\ng = zero\nm = 0\ngrowth_bound = 1000\n\n"
        "[solver]\namplitude = 50.0\nhorizon = 0.5\n\n"
        '[regions]\nbox = {"t_lo": 0.0, "t_hi": 0.5, "center": [0.0], "radius": 1.0}\n\n'
        "[montecarlo]\npaths = 4\nchunk = 2\n")
    out = tmp_path / "boom"
    assert run_cli("--config", str(cfg), "--out", str(out), "ensemble") == 3
    assert "unusable" in capsys.readouterr().err
    # the manifest is still written so the failed run can be replayed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"]["invalid"] is True
    assert manifest["failures"]["count"] == 4
    assert len(manifest["failures"]["steps"]) == 4


def test_ensemble_table_shape(tmp_path):
    cfg = tmp_path / "ens.cfg"
    cfg.write_text(CUSTOM)
    out = tmp_path / "ens"
    assert run_cli("--config", str(cfg), "--out", str(out), "ensemble") == 0
    rows = read_csv(out / "paths.csv")
    assert rows[0][:3] == ["path", "failed", "fail_step"]
    assert len(rows) == 1 + 6
    assert all(r[1] == "false" for r in rows[1:])


def test_seed_override_lands_in_manifest(tmp_path):
    cfg = tmp_path / "ens.cfg"
    cfg.write_text(CUSTOM)
    out = tmp_path / "seeded"
    assert run_cli("--config", str(cfg), "--seed", "99", "--out", str(out),
                   "ensemble") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 99
    assert "seed = 99" in manifest["config_text"]
    assert manifest["config_source"] == CUSTOM
    assert manifest["results"] == ["paths.csv"]


def test_manifest_replay_is_byte_identical(tmp_path):
    cfg = tmp_path / "h.cfg"
    cfg.write_text(CUSTOM)
    first = tmp_path / "a"
    assert run_cli("--config", str(cfg), "--out", str(first), "harnack") == 0
    replay = tmp_path / "b"
    assert run_cli("--config", str(first / "manifest.json"),
                   "--out", str(replay), "harnack") == 0
    threaded = tmp_path / "c"
    assert run_cli("--config", str(cfg), "--threads", "4",
                   "--out", str(threaded), "harnack") == 0
    for name in ("harnack_curve.csv", "harnack_summary.csv"):
        want = (first / name).read_bytes()
        assert (replay / name).read_bytes() == want
        assert (threaded / name).read_bytes() == want
    # replay re-canonicalizes to the same config text
    m0 = json.loads((first / "manifest.json").read_text())
    m1 = json.loads((replay / "manifest.json").read_text())
    assert m0["config_text"] == m1["config_text"]
    assert m0["results"] == m1["results"]


def test_cube_counts_match_recurrence(tmp_path):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("[montecarlo]\ndepth = 2\n")
    out = tmp_path / "cubes"
    assert run_cli("--config", str(cfg), "--out", str(out), "cubes") == 0
    rows = read_csv(out / "cube_counts.csv")
    got = [(int(r[0]), int(r[3]), int(r[5]), int(r[7])) for r in rows[1:]]
    want = [(j, core_count(1, j), extended_count(1, j), count_bound(1, j))
            for j in range(3)]
    assert got == want
    assert [r[1] for r in got] == [1, 128, 16384]
    assert [r[2] for r in got] == [1, 256, 49152]


def test_cube_depth_is_set_by_the_config_and_replays(tmp_path):
    # depth has no flag of its own, so the manifest carries all of it
    with pytest.raises(SystemExit):
        run_cli("--out", str(tmp_path / "flag"), "cubes", "--depth", "2")
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("[montecarlo]\ndepth = 2\n")
    first, replay = tmp_path / "a", tmp_path / "b"
    assert run_cli("--config", str(cfg), "--out", str(first), "cubes") == 0
    assert run_cli("--config", str(first / "manifest.json"),
                   "--out", str(replay), "cubes") == 0
    want = (first / "cube_counts.csv").read_bytes()
    assert (replay / "cube_counts.csv").read_bytes() == want
    assert len(read_csv(first / "cube_counts.csv")) == 1 + 3


@pytest.mark.parametrize("depth", [6, 100000, 10**20])
@pytest.mark.parametrize("command", ["cubes", "jn"])
def test_depth_over_the_cube_budget_exits_2_before_any_work(tmp_path, capsys,
                                                            monkeypatch, command, depth):
    # nothing ran, so this is no numeric failure; jn builds its hierarchy
    # before it solves path 0.  The build stops at the first level past
    # the budget, so the depth costs no time and no count of its size
    # reaches the message
    calls = []
    monkeypatch.setattr(cli, "solve_path", lambda *a, **k: calls.append(a))
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(f"[grid]\nnpts = 32\n\n[montecarlo]\ndepth = {depth}\n")
    out = tmp_path / "o"
    start = time.perf_counter()
    assert run_cli("--config", str(cfg), "--out", str(out), command) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "core hierarchy needs" in err
    assert max(len(run) for run in re.findall(r"\d+", err)) <= 30
    assert list(out.iterdir()) == []
    assert calls == []


# P owns no step (dt = 1/128 at npts 32, 1/512 at the refined npts 64) or
# no node (none lies within 1e-6 of 0.01)
EMPTY_P = {
    "time step": {"t_lo": 0.5001, "t_hi": 0.5002, "center": [0.0], "radius": 0.5},
    "grid node": {"t_lo": 0.5, "t_hi": 1.0, "center": [0.01], "radius": 1e-06},
}


@pytest.mark.parametrize("what", sorted(EMPTY_P))
@pytest.mark.parametrize("command", ["ensemble", "harnack", "positivity", "moser"])
def test_empty_region_exits_2_before_any_path(tmp_path, capsys, monkeypatch,
                                              command, what):
    calls = []
    monkeypatch.setattr(montecarlo, "integrate_batch", lambda *a, **k: calls.append(a))
    p = EMPTY_P[what]
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(
        "[grid]\nnpts = 32\n\n[regions]\n"
        'Q = {"t_lo": 0.0625, "t_hi": 0.25, "center": [0.0], "radius": 0.5}\n'
        f"P = {json.dumps(p)}\n\n[montecarlo]\npaths = 8\n")
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), command) == 2
    err = capsys.readouterr().err
    assert (f"region ({p['t_lo']!r}, {p['t_hi']!r}] x ball of radius "
            f"{p['radius']!r} at {tuple(p['center'])} owns no {what}") in err
    assert calls == []


@pytest.mark.parametrize("command", ["norms", "degiorgi", "jn"])
def test_model_outside_ellipticity_exits_2(tmp_path, capsys, command):
    # a = 3 exceeds 1/iota = 2; the model is checked where the spec is built
    cfg = tmp_path / "ellip.cfg"
    cfg.write_text("[grid]\nnpts = 32\n\n[model]\na = expr\na_expr = 3\niota = 0.5\n")
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), command) == 2
    assert "ellipticity violated" in capsys.readouterr().err


def test_degiorgi_needs_room(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(
        "[solver]\nhorizon = 0.5\n\n"
        '[regions]\nQ = {"t_lo": 0.1, "t_hi": 0.2, "center": [0.0], "radius": 0.5}\n'
        'P = {"t_lo": 0.25, "t_hi": 0.5, "center": [0.0], "radius": 0.5}\n')
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"),
                   "degiorgi") == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["harnack", "moser"])
def test_comparison_needs_region_q(tmp_path, capsys, command):
    cfg = tmp_path / "onlyp.cfg"
    cfg.write_text("[grid]\nnpts = 32\n\n[regions]\n"
                   'P = {"t_lo": 0.5, "t_hi": 1.0, "center": [0.0], "radius": 0.5}\n')
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), command) == 2
    assert "needs a region named 'Q'" in capsys.readouterr().err


def test_degiorgi_needs_a_wide_box(tmp_path, capsys):
    for text in ("[grid]\nnpts = 20\nextent = 1.25\n", "[grid]\nextent = 1.0\n"):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(text)
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "degiorgi") == 2
        assert "needs the box to cover |x| <= 3/2" in capsys.readouterr().err


def test_blown_up_single_path_exits_3(tmp_path, capsys):
    # norms solves one path outside any ensemble, so its blow-up is an
    # error rather than a failed row
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(
        "[grid]\nnpts = 32\n\n"
        "[model]\nf = expr\nf_expr = u*u*u\ng = zero\nm = 0\ngrowth_bound = 1000\n\n"
        "[solver]\namplitude = 50.0\nhorizon = 1.0\n")
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "norms") == 3
    assert "path blew up at step 4" in capsys.readouterr().err


@pytest.mark.parametrize("expr, message", [
    ("1 +", "bad expression '1 \\+'"),
    ("1 + 0*sin(x, u)", "sin takes 1 argument\\(s\\)"),
])
def test_malformed_expression_reported_at_its_key_line(expr, message):
    text = f"[model]\na = expr\na_expr = {expr}\n"
    with pytest.raises(ConfigError, match=f"line 2: model rejected: {message}"):
        parse_config(text)


def test_norms_subcommand(tmp_path):
    cfg = tmp_path / "n.cfg"
    cfg.write_text(CUSTOM)
    out = tmp_path / "norms"
    assert run_cli("--config", str(cfg), "--out", str(out), "norms") == 0
    rows = read_csv(out / "norms.csv")
    assert rows[0] == ["p", "q", "value"]
    assert len(rows) == 8
    vals = [float(r[2]) for r in rows[1:]]
    assert all(np.isfinite(v) and v > 0.0 for v in vals)


def test_jn_subcommand_fits_median_fractions(tmp_path):
    cfg = tmp_path / "jn.cfg"
    cfg.write_text("[grid]\nnpts = 32\n\n[montecarlo]\npaths = 16\nchunk = 8\n")
    out = tmp_path / "jn"
    assert run_cli("--config", str(cfg), "--out", str(out), "jn") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"] == ["jn_cubes.csv", "jn_levelsets.csv",
                                   "jn_summary.csv", "jn_tails.csv"]
    rows = read_csv(out / "jn_summary.csv")
    assert rows[0] == ["side", "decay_rate", "amplitude", "r_squared",
                       "clamp_fraction"]
    assert [r[0] for r in rows[1:]] == ["upper", "lower"]
    assert all(np.isfinite(float(r[1])) and float(r[1]) > 0.0 for r in rows[1:])
    # the tabulated fractions are ensemble medians: in [0, 1] and
    # nonincreasing in alpha on both sides
    lrows = read_csv(out / "jn_levelsets.csv")
    for col in (1, 2):
        fr = np.array([float(r[col]) for r in lrows[1:]])
        assert np.all((fr >= 0.0) & (fr <= 1.0))
        assert np.all(np.diff(fr) <= 1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_jn_cube_half_shorter_than_a_step_exits_2(tmp_path, capsys, n):
    # at npts 16, dt = 1/32 equals the span 4s of a level-1 cube half, and
    # both ends of the upper half of cube 0 round to snapshot 28
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(f"[grid]\nn = {n}\nnpts = 16\n")
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "jn") == 2
    err = capsys.readouterr().err
    assert ("upper half (0.859375, 0.890625] of the level-1 cube is too short for "
            "dt = 0.03125: both its ends fall on snapshot 28; raise npts") in err


def test_jn_failed_fit_leaves_no_result_files(tmp_path, capsys):
    # on this 2D grid the ensemble-median fractions leave only 2 points in
    # the fit band; the cube table is computed first but written only
    # after the fits, so the run directory stays empty
    cfg = tmp_path / "jn2d.cfg"
    cfg.write_text("[grid]\nn = 2\nnpts = 32\n\n[montecarlo]\npaths = 16\n")
    out = tmp_path / "o"
    assert run_cli("--config", str(cfg), "--seed", "1", "--out", str(out), "jn") == 2
    assert "need at least 3 positive level-set fractions" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_jn_fit_error_exits_2_before_any_write(tmp_path, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise InsufficientDataError("no fit")

    monkeypatch.setattr(cli, "fit_decay", failing_fit)
    cfg = tmp_path / "jn.cfg"
    cfg.write_text("[grid]\nnpts = 32\n\n[montecarlo]\npaths = 4\n")
    out = tmp_path / "o"
    assert run_cli("--config", str(cfg), "--out", str(out), "jn") == 2
    assert list(out.iterdir()) == []


def test_plot_flag_writes_svg(tmp_path):
    out = tmp_path / "plotted"
    assert run_cli("--out", str(out), "--plot", "solve") == 0
    svg = (out / "resolution_study.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    manifest = json.loads((out / "manifest.json").read_text())
    assert "resolution_study.svg" in manifest["results"]


def test_svg_line_chart_structure(tmp_path):
    path = tmp_path / "chart.svg"
    svg_line_chart(str(path), [1.0, 2.0, 4.0],
                   [[0.1, 0.2, 0.3], [1.0, 0.5, 0.25]],
                   ["up", "down"], "demo", "x", "y", logx=True)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "demo" in text and ">up<" in text and ">down<" in text


@pytest.mark.parametrize("xs, series, logx, x_ticks, y_ticks", [
    # one x value: the x axis spans [x, x + 1]
    ([3.0], [[1.0]], False, ["3", "3.25", "3.5", "3.75", "4"],
     ["0.94", "1.22", "1.5", "1.78", "2.06"]),
    # one x value on a log axis: [x, 2x]
    ([8.0], [[1.0], [2.0]], True, ["8", "9.514", "11.31", "13.45", "16"],
     ["0.94", "1.22", "1.5", "1.78", "2.06"]),
    # a constant series: the y axis spans [y, y + 1], padded by 6%
    ([1.0, 2.0, 4.0], [[5.0, 5.0, 5.0]], False, ["1", "1.75", "2.5", "3.25", "4"],
     ["4.94", "5.22", "5.5", "5.78", "6.06"]),
], ids=["single-x", "single-x-log", "constant-series"])
def test_svg_line_chart_degenerate_axes(tmp_path, xs, series, logx, x_ticks, y_ticks):
    path = tmp_path / "chart.svg"
    svg_line_chart(str(path), xs, series, [str(k) for k in range(len(series))],
                   "flat", "x", "y", logx=logx)
    text = path.read_text()
    assert re.findall(r'y="382" text-anchor="middle">([^<]*)<', text) == x_ticks
    assert re.findall(r'text-anchor="end">([^<]*)<', text)[:5] == y_ticks
    coords = [float(v) for v in re.findall(r'(?:x1?|x2|y1?|y2)="(-?[0-9.]+)"', text)]
    coords += [float(v) for pts in re.findall(r'points="([^"]*)"', text)
               for pair in pts.split() for v in pair.split(",")]
    assert coords and all(math.isfinite(v) for v in coords)
    assert not re.search(r"nan|inf", text, re.IGNORECASE)

def test_model_outside_its_bounds_reported_at_its_key_line():
    # a = 3 exceeds 1/iota = 2: `a = expr` alone is rejected, so line 5
    text = "[grid]\nnpts = 32\n\n[model]\na = expr\na_expr = 3\niota = 0.5\n"
    with pytest.raises(ConfigError, match="line 5: model rejected: ellipticity violated"):
        parse_config(text)


@pytest.mark.parametrize("text, line, bound", [
    ("[model]\na = expr\na_expr = 1 + 0.5*u*u\niota = 0.5\n", 2, "ellipticity"),
    ("[model]\nf = expr\nf_expr = 0.2*u*u\ng = zero\n", 2, "growth bound"),
], ids=["ellipticity", "growth"])
def test_model_rejected_at_large_u(text, line, bound):
    with pytest.raises(ConfigError, match=f"line {line}: model rejected: {bound} violated"):
        parse_config(text)


@pytest.mark.parametrize("a_expr, t_peak", [
    ("1 + 1.5*exp(-400*(t-0.5)*(t-0.5))", 0.5),
    ("1 + 1.2*exp(-2000*(t-0.7)*(t-0.7))", 0.7),
], ids=["wide", "narrow"])
def test_model_rejected_at_time_spike(a_expr, t_peak):
    # A exceeds 1/iota = 2 only near t_peak: every sample draws its own time
    text = f"[model]\na = expr\na_expr = {a_expr}\niota = 0.5\n"
    with pytest.raises(ConfigError, match="line 2: model rejected: ellipticity violated"):
        parse_config(text)
    cm = build_model(ModelParams(a_kind="expr", a_expr=a_expr, iota=0.5), 1)
    with pytest.raises(ModelInvalidError) as err:
        validate_model(cm, extent=2.0, t_max=1.0)
    t, x, u = err.value.witness
    assert abs(t - t_peak) < 0.05
    assert float(cm.a(np.array([t]), tuple(np.array([c]) for c in x), np.array([u]))[0]) > 2.0


def test_model_is_checked_over_the_configured_horizon():
    # 1 + t/2 stays within [0.5, 2] up to t = 2
    text = "[model]\na = expr\na_expr = 1 + 0.5*t\niota = 0.5\n\n[solver]\nhorizon = {}\n"
    parse_config(text.format(1.0))
    with pytest.raises(ConfigError, match="line 2: model rejected: ellipticity violated"):
        parse_config(text.format(4.0))


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_horizon_reported_at_its_line(value):
    text = f"[model]\na = random_elliptic\niota = 0.5\n\n[solver]\nhorizon = {value}\n"
    with pytest.raises(ConfigError, match="line 6: horizon must be positive and finite"):
        parse_config(text)


REGION_R = '{"t_lo": 0.5, "t_hi": 1.0, "center": [0.25], "radius": 0.5}'


def test_positivity_reads_a_single_region_of_any_name(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"[grid]\nnpts = 32\n\n[regions]\nR = {REGION_R}\n\n"
                   "[montecarlo]\npaths = 4\nchunk = 2\n")
    for command in ("positivity", "ensemble"):
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / command), command) == 0
    mins = [row[1] for row in read_csv(tmp_path / "positivity" / "positivity_paths.csv")[1:]]
    paths = read_csv(tmp_path / "ensemble" / "paths.csv")
    column = paths[0].index("inf_R")
    assert mins == [row[column] for row in paths[1:]]
    # several regions, none named P: no region to pick
    cfg.write_text(cfg.read_text().replace(
        "\n\n[montecarlo]", f"\nS = {REGION_R}\n\n[montecarlo]"))
    capsys.readouterr()
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "two"), "positivity") == 2
    assert "positivity needs a region named 'P'" in capsys.readouterr().err


def test_norms_without_q_use_the_late_unit_window(tmp_path, capsys):
    # with no region Q, norms reads (H/4, H] x B_1
    text = "[grid]\nnpts = 32\n\n[solver]\nhorizon = 0.5\n\n[regions]\n{}\n"
    window = '{"t_lo": 0.125, "t_hi": 0.5, "center": [0.0], "radius": 1.0}'
    other = '{"t_lo": 0.25, "t_hi": 0.5, "center": [0.25], "radius": 0.5}'
    for name, region in (("default", f"R = {other}"),
                         ("explicit", f"Q = {window}")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text.format(region))
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / name), "norms") == 0
    assert "over (0.125, 0.5] x B_1\n" in capsys.readouterr().out
    assert ((tmp_path / "default" / "norms.csv").read_bytes()
            == (tmp_path / "explicit" / "norms.csv").read_bytes())
