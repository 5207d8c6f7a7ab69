import json

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
    assert not out_dir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: bad config: ") for line in err)


def test_verify_suites_pass(capsys):
    assert main(["verify", "--suite", "operators", "--trials", "8"]) == 0
    assert main(["verify", "--suite", "hirip", "--trials", "6"]) == 0
    assert main(["verify", "--suite", "bounds", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_failure_exits_two(monkeypatch, capsys):
    import hisparse.cli as cli

    monkeypatch.setitem(cli.SUITES, "operators", lambda seed=0, trials=0: False)
    assert main(["verify", "--suite", "operators"]) == 2
    assert "FAIL" in capsys.readouterr().out
