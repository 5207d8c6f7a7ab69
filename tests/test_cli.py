import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import hisparse.simulate
from hisparse.cli import main


def write_config(path):
    config = {
        "scenario": "single-user-sweep",
        "system": {"N": 64, "M": 16, "D": 16, "U": 1},
        "channel": {"L": 2, "V": 1},
        "sweep": [4, 8],
        "trials": 3,
        "seed": 1,
    }
    path.write_text(json.dumps(config))


def test_run_and_plot(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "manifest.json").exists()
    assert main(["plot", "--csv", str(out_dir / "results.csv")]) == 0
    assert list(out_dir.glob("*.dat"))
    capsys.readouterr()


def test_run_with_preset(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir),
                 "--preset", "small", "--threads", "2"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["system"]["N"] == 128
    capsys.readouterr()


@pytest.mark.parametrize("config", [
    {"scenario": "single-user-sweep", "sweep": [300]},
    {"scenario": "offgrid-sweep", "sweep": [64], "l1_values": [100], "l2_values": [1]},
], ids=["pilots", "truncation-level"])
def test_preset_sizes_are_the_ones_validated(tmp_path, capsys, config):
    # Np = 300 and L1 = 100 fit the paper preset's N = 1024 but not the
    # default N = 128 the JSON would give: the config is validated once,
    # after --preset has replaced the sizes.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**config, "trials": 1}))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir), "--preset", "paper"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["system"]["N"] == 1024
    assert capsys.readouterr().err == ""


def test_bad_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"scenario\": \"nope\"}")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_out_of_model_config_exits_one_before_any_trial(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config = {"scenario": "single-user-sweep", "sweep": [5, 500], "trials": 1}
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 1
    # Valid at N=1024, out of range once the preset shrinks N to 128.
    config.update(sweep=[300], system={"N": 1024})
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path), "--out", str(out_dir),
                 "--preset", "small"]) == 1
    # An assumed path count below 1, and an HTP refit of 3 columns from 2 samples.
    for bad in ({"scenario": "mismatched-L", "Np": 16, "sweep": [0]},
                {"scenario": "single-user-sweep", "algorithms": ["HTP"], "Mp": 1, "sweep": [2]}):
        config_path.write_text(json.dumps(bad))
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("error: bad config: ") for line in err)
    assert "assumed path count 0" in err[2] and "least-squares support of up to 3" in err[3]


def test_verify_suites_pass(capsys):
    assert main(["verify", "--suite", "operators", "--trials", "8"]) == 0
    assert main(["verify", "--suite", "hirip", "--trials", "6"]) == 0
    assert main(["verify", "--suite", "bounds", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_hirip_prints_its_worst_margins(capsys):
    # Each law over isometry constants prints its worst margin, so a
    # byte-identical output pins the constants it compared.
    assert main(["verify", "--suite", "hirip", "--trials", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    figure = r" max gap -?\d\.\d\de[+-]\d\d\)$"
    # The gaps of the first two lines can read 0, so those lines also print
    # the exact sums of the constants they compared, in repr.
    sums = r"max gap -?\d\.\d\de[+-]\d\d, hierarchical sum (\S+), flat sum (\S+)\)$"
    first = re.fullmatch(r"\[ok\] hierarchical constant never exceeds flat constant "
                         r"\(6 instances, " + sums, lines[0])
    second = re.fullmatch(r"\[ok\] single-level constant coincides with flat constant \(" + sums,
                          lines[1])
    assert re.fullmatch(r"\[ok\] factor bounds dominate exact constants \(both groupings," + figure,
                        lines[2])
    # The padded-extension line prints its largest d_restricted - d_extended
    # and the exact sums of both constants.
    fourth = re.fullmatch(r"\[ok\] row-sampled factor constant bounded by padded extension "
                          r"\(6 seeds, max gap (-?\d\.\d\de[+-]\d\d), "
                          r"restricted sum (\S+), extended sum (\S+)\)$", lines[3])
    assert first and second and fourth
    for line in (first, second):
        hi, flat = (float(text) for text in line.groups())
        assert repr(hi) == line[1] and repr(flat) == line[2]
        assert 0.0 <= hi <= flat  # six constants each, none above its flat twin
    assert second[1] == second[2]  # one level: the same enumeration, the same bits
    gap, restricted, extended = (float(text) for text in fourth.groups())
    assert repr(restricted) == fourth[2] and repr(extended) == fourth[3]
    assert gap <= 1e-12 and 0.0 <= restricted <= extended  # six seeds, none above its extension


def test_verify_operators_prints_its_angle_figures(capsys):
    # The per-angle adjoint line counts the angles it compared bit for bit;
    # the bound line prints its largest |A^H y|^2/beta, which a one-path y
    # (every other design) attains.
    assert main(["verify", "--suite", "operators", "--trials", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    angles = re.fullmatch(r"\[ok\] per-angle adjoint equals the full adjoint bit for bit "
                          r"\((\d+) angles checked\)", lines[-3])
    bound = re.fullmatch(r"\[ok\] per-angle bound holds \(8 designs, largest \|A\^H y\|\^2/beta "
                         r"(\d\.\d{12})\)", lines[-2])
    assert angles and bound and lines[-1] == "verify: PASS"
    assert int(angles[1]) >= 8 and float(bound[1]) == 1.0


def test_verify_bounds_prints_its_worst_margin(capsys):
    # The sparse-approximation line prints its largest ||X - X_sp|| - bound,
    # so a byte-identical output pins sparse_approx's error and bound.
    assert main(["verify", "--suite", "bounds", "--trials", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\[ok\] sparse-approximation error bound holds \(20 channels x 9 "
                        r"truncation levels, max gap -?\d\.\d\de[+-]\d\d\)", lines[1])


def test_verify_exits_quietly_when_its_reader_closes_stdout():
    # `hisparse verify --suite bounds | head -1`: the reader takes the first
    # line and closes the pipe while the suite is still checking. The rest
    # of the output is dropped, the suite still runs to its PASS, and
    # nothing reaches stderr.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "hisparse.cli", "verify", "--suite", "bounds"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, err.decode()
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"[ok] ") and err == b""


def test_verify_failure_exits_two(monkeypatch, capsys):
    import hisparse.cli as cli

    monkeypatch.setitem(cli.SUITES, "operators", lambda seed=0, trials=0: False)
    assert main(["verify", "--suite", "operators"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-1"):
        assert main(["verify", "--suite", "operators", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "verify:" not in captured.out
    err = captured.err.splitlines()
    assert err == [f"error: --trials must be >= 1, got {t}" for t in (0, -1)]


def test_run_rejects_nonpositive_threads(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir),
                 "--threads", "0"]) == 1
    assert not out_dir.exists()
    assert capsys.readouterr().err.splitlines() == ["error: --threads must be >= 1, got 0"]



def test_run_with_a_lane_that_cannot_start_exits_one(tmp_path, capsys, monkeypatch):
    # Thread.start is patched to fail as it does when the system has no thread
    # to give, so no thread starts and no trial runs.
    def refuse(self):
        raise RuntimeError("can't start new thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    config_path = tmp_path / "config.json"
    write_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir),
                 "--threads", "2"]) == 1
    assert not (out_dir / "results.csv").exists() and not (out_dir / "manifest.json").exists()
    assert capsys.readouterr().err.splitlines() == ["error: cannot run sweep: can't start new thread"]


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "a config must be a JSON object, got list"),
    ("8", "a config must be a JSON object, got int"),
], ids=["array", "number"])
def test_run_config_that_is_not_an_object_exits_one(tmp_path, capsys, text, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert not out_dir.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: bad config: {message}"]


@pytest.mark.parametrize("bad, message", [
    ({"channel": {"L": None}}, "channel.L must be an integer, got None"),
    ({"channel": {"K_L": None}}, "channel.K_L must be an integer, got None"),
    ({"system": {"N": None}}, "system.N must be an integer, got None"),
    ({"trials": None}, "trials must be an integer, got None"),
    ({"sweep": [8, None]}, "sweep must be an integer, got None"),
], ids=["channel-l", "channel-k-l", "system-n", "trials", "sweep-point"])
def test_run_config_with_a_null_size_exits_one(tmp_path, capsys, bad, message):
    # JSON null is None: only Np and Mp may be left out that way.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"scenario": "single-user-sweep", "sweep": [8], **bad}))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert not out_dir.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: bad config: {message}"]


def test_plot_unreadable_csv_exits_one(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "missing.csv"
    assert main(["plot", "--csv", str(missing)]) == 1
    assert not missing.parent.exists()
    truncated = tmp_path / "results.csv"
    truncated.write_text("sweep_value,algorithm,mse_mean,mse_stderr,trials,seconds\n4.0,HiIHT\n")
    assert main(["plot", "--csv", str(truncated)]) == 1
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("sweep_value,curve,mse_mean,mse_stderr,trials,seconds\n4.0,HiIHT,1.0,0.0,1,0.0\n")
    assert main(["plot", "--csv", str(renamed)]) == 1
    assert not list(tmp_path.glob("*.dat"))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: cannot read results CSV: ") for line in err)
    assert "unexpected CSV header" in err[2]


@pytest.mark.parametrize("bad, message", [
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ({"snr_db": math.nan}, "snr_db = nan outside [-300, 300]"),
    ({"scenario": "offgrid-sweep", "system": {"alpha": -0.1}}, "alpha*N = -12.8 taps"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"sweep": [16.5]}, "sweep must be an integer, got 16.5"),
    ({"scenario": "multiuser-sweep", "system": {"U": 4}, "v_values": [1.5]},
     "v_values must be an integer, got 1.5"),
    ({"l_values": [2.5]}, "l_values must be an integer, got 2.5"),
    ({"scenario": "omp-compare", "Mp": 8.5}, "Mp must be an integer, got 8.5"),
    ({"trials": True}, "trials must be an integer, got True"),
    ({"system": {"U": 4}, "algorithms": ["FOO"]}, "FOO: unknown algorithm 'FOO'"),
    ({"channel": {"L": 65}}, "HiIHT: the on-grid draw of L = 65 paths can run out of grid points"),
    ({"scenario": "multiuser-sweep", "system": {"U": 4}, "v_values": [4], "channel": {"L": 20}},
     "HiIHT:V=4: the on-grid draw of L = 20 paths can run out of grid points"),
    ({"scenario": "sf-vs-fs", "system": {"U": 4}, "channel": {"L": 70}},
     "HiIHT-FS:V=1: the on-grid draw of L = 70 paths can run out of grid points"),
    ({"scenario": "mismatched-L", "Np": 8, "channel": {"L": 0}},
     "HiIHT: path count L = 0 outside [1, D*M = 2048]"),
    ({"snr_db": True}, "snr_db must be a number, got True"),
    ({"system": {"alpha": "x"}}, "system.alpha must be a number, got 'x'"),
    ({"scenario": "offgrid-sweep", "system": {"alpha": "x"}},
     "system.alpha must be a number, got 'x'"),
    ({"algorithms": []}, "algorithms must be a non-empty list when given"),
    ({"algorithms": "HiIHT"}, "algorithms must be a list, got 'HiIHT'"),
    ({"sweep": "8"}, "sweep must be a list, got '8'"),
    ({"sweep": 8}, "sweep must be a list, got 8"),
    ({"l_values": 3}, "l_values must be a list, got 3"),
    ({"scenario": "multiuser-sweep", "system": {"U": 4}, "v_values": 2},
     "v_values must be a list, got 2"),
    ({"scenario": "offgrid-sweep", "l1_values": "1"}, "l1_values must be a list, got '1'"),
    ({"scenario": "offgrid-sweep", "l2_values": {"L2": 1}},
     "l2_values must be a list, got {'L2': 1}"),
    ({"l_values": []}, "l_values must be a non-empty list when given"),
    ({"scenario": "multiuser-sweep", "system": {"U": 4}, "v_values": []},
     "v_values must be a non-empty list when given"),
    ({"scenario": "offgrid-sweep", "l1_values": []}, "l1_values must be a non-empty list when given"),
    ({"scenario": "offgrid-sweep", "l2_values": []}, "l2_values must be a non-empty list when given"),
    ({"Np": 40, "system": {"N": 32}}, "single-user-sweep does not read Np, got 40"),
    ({"scenario": "omp-compare", "Np": 8}, "omp-compare does not read Np, got 8"),
    ({"l1_values": [100]}, "single-user-sweep does not read l1_values, got [100]"),
    ({"scenario": "multiuser-sweep", "system": {"U": 4}, "l_values": [2]},
     "multiuser-sweep does not read l_values, got [2]"),
    ({"scenario": "mismatched-L", "Np": 8, "v_values": [1]},
     "mismatched-L does not read v_values, got [1]"),
    ({"scenario": "offgrid-sweep", "l_values": [2]}, "offgrid-sweep does not read l_values, got [2]"),
    ({"system": {"alpha": math.nan}}, "single-user-sweep does not read system.alpha, got nan"),
    ({"scenario": "omp-compare", "system": {"alpha": 0.1}},
     "omp-compare does not read system.alpha, got 0.1"),
    ({"scenario": "sf-vs-fs", "system": {"U": 4}, "option": "SF"},
     "sf-vs-fs does not read option, got 'SF'"),
    ({"scenario": "multiuser-sweep", "system": {"U": 4}, "channel": {"V": 3}},
     "multiuser-sweep does not read channel.V, got 3"),
    ({"scenario": "multiuser-sweep", "system": {"U": 4}, "v_values": [2], "channel": {"V": 3}},
     "multiuser-sweep does not read channel.V, got 3"),
    ({"scenario": "sf-vs-fs", "system": {"U": 4}, "channel": {"V": 2}},
     "sf-vs-fs does not read channel.V, got 2"),
    ({"channel": {"L": 7}, "l_values": [2, 3]}, "single-user-sweep does not read channel.L, got 7"),
    ({"option": "SF", "channel": {"K_V": -7}}, "channel.K_V must be >= 1, got -7"),
    ({"option": "SF", "channel": {"K_V": 0}}, "channel.K_V must be >= 1, got 0"),
    ({"scenario": "offgrid-sweep", "option": "SF", "channel": {"K_V": 0}},
     "channel.K_V must be >= 1, got 0"),
    ({"channel": {"K_L": 0}}, "channel.K_L must be >= 1, got 0"),
    ({"scenario": "offgrid-sweep", "channel": {"K_V": -1}}, "channel.K_V must be >= 1, got -1"),
    ({"scenario": "offgrid-sweep", "l1_values": [0]},
     "l1_values: truncation level 0 outside [1, (N - 1) // 2 = 63]"),
    ({"scenario": "offgrid-sweep", "l1_values": [-1]},
     "l1_values: truncation level -1 outside [1, (N - 1) // 2 = 63]"),
    ({"scenario": "offgrid-sweep", "l1_values": [2, 64]},
     "l1_values: truncation level 64 outside [1, (N - 1) // 2 = 63]"),
    ({"scenario": "offgrid-sweep", "l2_values": [32]},
     "l2_values: truncation level 32 outside [1, (M - 1) // 2 = 31]"),
    ({"scenario": "offgrid-sweep", "l2_values": [0, 1]},
     "l2_values: truncation level 0 outside [1, (M - 1) // 2 = 31]"),
    ({"scenario": "offgrid-sweep", "system": {"M": 4}},
     "l2_values: truncation level 2 outside [1, (M - 1) // 2 = 1]"),
    ({"algorithms": ["HiIHT", "IHT", "HiIHT"]}, "algorithms lists 'HiIHT' twice"),
    ({"sweep": [8, 16, 8]}, "sweep lists 8 twice"),
    ({"l_values": [2, 2]}, "l_values lists 2 twice"),
    ({"scenario": "multiuser-sweep", "system": {"U": 4}, "v_values": [1, 4, 4]},
     "v_values lists 4 twice"),
    ({"scenario": "offgrid-sweep", "l1_values": [1, 1]}, "l1_values lists 1 twice"),
    ({"scenario": "offgrid-sweep", "l2_values": [2, 1, 2]}, "l2_values lists 2 twice"),
    ({"system": [1, 2]}, "system must be a JSON object, got [1, 2]"),
    ({"channel": "L=3"}, "channel must be a JSON object, got 'L=3'"),
    ({"scenario": ["single-user-sweep"]}, "unknown scenario ['single-user-sweep']"),
    ({"scenario": 3}, "unknown scenario 3"),
], ids=["negative-seed", "fractional-seed", "nan-snr", "negative-alpha", "fractional-trials",
        "fractional-sweep", "fractional-v", "fractional-l", "fractional-mp", "boolean-trials",
        "unknown-algorithm", "ongrid-l-exceeds-angles", "ongrid-users-exceed-angles",
        "ongrid-sf-vs-fs", "zero-path-count", "boolean-snr", "string-alpha",
        "string-alpha-offgrid", "empty-algorithms", "string-algorithms", "string-sweep",
        "integer-sweep", "integer-l-values", "integer-v-values", "string-l1-values",
        "object-l2-values", "empty-l-values", "empty-v-values", "empty-l1-values",
        "empty-l2-values", "unread-np", "unread-np-omp", "unread-l1-values",
        "unread-l-values", "unread-v-values", "unread-l-values-offgrid", "unread-nan-alpha",
        "unread-alpha", "unread-option-sf-vs-fs", "swept-channel-v", "swept-channel-v-values",
        "swept-channel-v-sf-vs-fs", "swept-channel-l", "negative-k-v-sf", "zero-k-v-sf",
        "zero-k-v-sf-offgrid", "zero-k-l", "negative-k-v-offgrid", "zero-l1", "negative-l1",
        "l1-beyond-n", "l2-beyond-m", "zero-l2", "default-l2-beyond-m", "duplicate-algorithm",
        "duplicate-sweep", "duplicate-l-values", "duplicate-v-values", "duplicate-l1-values",
        "duplicate-l2-values", "array-system", "string-channel", "array-scenario",
        "number-scenario"])
def test_run_config_out_of_model_exits_one_before_any_trial(tmp_path, capsys, bad, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"scenario": "single-user-sweep", "sweep": [8],
                                       "trials": 1, **bad}))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config: ") and message in err[0]


def test_verify_rejects_negative_seed(capsys):
    assert main(["verify", "--suite", "operators", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "verify:" not in captured.out
    assert captured.err.splitlines() == ["error: --seed must be >= 0, got -1"]


def test_run_into_existing_file_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "config.json"
    write_config(config_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")

    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(hisparse.simulate, "run_trial", no_trials)
    assert main(["run", "--config", str(config_path), "--out", str(taken)]) == 1
    assert taken.read_text() == "not a directory"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write results: ")


def test_the_cli_loads_numpy_and_the_standard_library_only():
    # hisparse stays numpy-only. A fresh interpreter imports the CLI and lists
    # every top-level module it has loaded. It runs without the site hook
    # (-S), whose .pth files load packages of their own before any import,
    # with numpy's install directory and src on its path instead.
    src = str(Path(__file__).resolve().parents[1] / "src")
    site = str(Path(np.__file__).resolve().parents[1])
    code = "import sys, hisparse.cli; print(*sorted({m.partition('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src + os.pathsep + site}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split()) - {"__main__"}
    assert {"numpy", "hisparse"} <= loaded
    assert sorted(loaded - {"numpy", "hisparse"} - set(sys.stdlib_module_names)) == []
