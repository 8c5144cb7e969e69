"""Command-line surface checks: subcommands, flag overrides, emitted
artifacts, and exit codes (0 ok, 2 config error, 3 numerical failure,
4 failed verification)."""

import json

import pytest

from corlab import cli
from corlab import harness as hn
from corlab import model as md
from corlab import optim as op
from corlab import tasks as tk


def small_config(n_train=120, **kw) -> hn.RunConfig:
    """Whitened quadratic task; a corit head (256 features at l_mid 1) needs
    n_train > 256 for full-rank whitening."""
    return hn.RunConfig(
        task=tk.TaskSpec(artifact_amp=30.0, artifact_region="boundary",
                         n_train=n_train, n_test=120, seed=0),
        encoder=md.EncoderConfig(layers=2),
        loss="quadratic", standardize="whiten", lr_relative=1.95,
        optimizer=op.SamConfig(rho=0.05, learning_rate=1.0, batch_size=500,
                               steps=60, seed=0), **kw)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config().to_dict()))
    return str(path)


def test_train_writes_reports_and_exits_zero(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["train", "--config", config_path, "--out", str(out),
                     "--rho", "0.01"])
    assert code == 0
    for name in ("steps.csv", "diagnostics.json", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["optimizer"]["rho"] == 0.01
    assert not summary["collapsed"]
    printed = json.loads(capsys.readouterr().out)
    assert printed["train_auc"] == summary["train_auc"]
    # the output directory is not part of the experiment
    other = tmp_path / "elsewhere"
    assert cli.main(["train", "--config", config_path, "--out", str(other),
                     "--rho", "0.01", "--quiet"]) == 0
    for name in ("steps.csv", "diagnostics.json", "summary.json"):
        assert (other / name).read_bytes() == (out / name).read_bytes()


def test_train_without_config_runs_the_default_config(capsys):
    assert cli.main(["train"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["config"] == json.loads(json.dumps(hn.RunConfig().to_dict()))


@pytest.mark.parametrize("command", ["diagnose", "sweep-rho", "compare"])
def test_every_subcommand_runs_the_default_config(command):
    # the default n_train is above the corit head's 256 features, so both
    # heads whiten
    assert cli.main([command, "--quiet"]) == 0


def test_seed_override_changes_both_task_and_optimizer(config_path, capsys):
    code = cli.main(["train", "--config", config_path, "--seed", "9",
                     "--rho", "0.0"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["config"]["task"]["seed"] == 9
    assert printed["config"]["optimizer"]["seed"] == 9


def test_quiet_suppresses_stdout(config_path, capsys):
    assert cli.main(["train", "--config", config_path, "--rho", "0.0",
                     "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_config_exits_2(capsys):
    assert cli.main(["train", "--config", "/nonexistent/config.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_exits_2(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["train", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"task": {}, "encoder": {}, "optimizer": {},
                               "counterpart": {}, "head": "mlp"}))
    assert cli.main(["train", "--config", str(bad)]) == 2
    d = json.loads(open(config_path).read())
    d["optimizer"]["batch_size"] = 0
    bad.write_text(json.dumps(d))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(bad), "--quiet"]) == 2
    assert "batch_size" in capsys.readouterr().err
    d["optimizer"]["batch_size"] = 500
    d["optimizer"]["steps"] = 2.5
    bad.write_text(json.dumps(d))
    assert cli.main(["train", "--config", str(bad), "--quiet"]) == 2
    assert "steps" in capsys.readouterr().err
    d["optimizer"]["steps"] = 60
    cases = ((dict(d, task=dict(d["task"], n_tokens=25)), "task.n_tokens"),
             (dict(d, task=dict(d["task"], dim=16, artifact_channels=[15])),
              "task.dim"),
             (dict(d, head="corit"), "l_mid"),    # the fixture's l_mid 4, 2 layers
             (dict(d, task=dict(d["task"], artifact_channels=[32])),
              "artifact_channels"),
             (dict(d, encoder=dict(d["encoder"], semantic_bias=True,
                                   bias_channels=[40])), "bias_channels"),
             (dict(d, counterpart=dict(d["counterpart"], target_channels=[-1])),
              "counterpart.target_channels"),
             (dict(d, standardize="none"), "standardize"),
             (dict(d, standardize="center"), "standardize"),
             (dict(d, cadence=2.5), "cadence"),
             (dict(d, cadence=True), "cadence"),
             (dict(d, head="corit", l_mid=1.5), "l_mid"),
             (dict(d, head="corit", l_mid=1, alpha=float("nan")), "alpha"),
             (dict(d, head="corit", l_mid=1, alpha=-0.5), "alpha"),
             (dict(d, encoder=dict(d["encoder"], layers=0)), "layers"),
             (dict(d, task=dict(d["task"], noise_sigma=float("nan"))), "noise_sigma"),
             (dict(d, task=dict(d["task"], artifact_amp=float("nan"))),
              "artifact_amp"),
             (dict(d, encoder=dict(d["encoder"], heads=0)), "heads"),
             (dict(d, encoder=dict(d["encoder"], dim=32.0)), "dim"),
             (dict(d, encoder=dict(d["encoder"], semantic_bias="no")), "semantic_bias"),
             (dict(d, encoder=dict(d["encoder"], bias_attenuation=float("nan"))),
              "bias_attenuation"),
             (dict(d, task=dict(d["task"], n_train=1)), "n_train"),
             (dict(d, task=dict(d["task"], n_test=2.5)), "n_test"),
             (dict(d, task=dict(d["task"], artifact_channels=[24.7])),
              "artifact_channels"),
             (dict(d, counterpart=dict(d["counterpart"], target_channels=["25"])),
              "target_channels"),
             (dict(d, encoder=dict(d["encoder"], semantic_bias=True,
                                   bias_channels=[24.7])), "bias_channels"),
             (dict(d, task=dict(d["task"], seed=1.5)), "seed must be"),
             (dict(d, task=dict(d["task"], seed=-1)), "seed must be"),
             (dict(d, optimizer=dict(d["optimizer"], seed=-1)), "seed must be"),
             (dict(d, encoder=dict(d["encoder"], seed=1.5)), "seed must be"),
             (dict(d, counterpart=dict(d["counterpart"], seed="3")), "seed must be"),
             (dict(d, counterpart=dict(d["counterpart"], target_region="foregrond")),
              "target_region"),
             (dict(d, task=dict(d["task"], artifact_region="foregrond")),
              "artifact_region"),
             (dict(d, task=dict(d["task"], n_tokens=15),
                   encoder=dict(d["encoder"], visual_tokens=15)), "n_tokens"),
             (dict(d, task=dict(d["task"], noise_sigma="1")), "noise_sigma"),
             (dict(d, optimizer=dict(d["optimizer"], rho=True)), "rho"),
             (dict(d, head="corit", l_mid=1, alpha=True), "alpha"),
             (dict(d, lr_relative="1.95"), "lr_relative"),
             (dict(d, counterpart=dict(d["counterpart"], perturb_amp=True)),
              "perturb_amp"),
             (dict(d, head="corit", l_mid=1,
                   counterpart=dict(d["counterpart"], target_channels=[])),
              "counterpart"),
             (dict(d, head="corit", l_mid=1,
                   counterpart=dict(d["counterpart"], perturb_amp=0.0)), "counterpart"))
    for e, named in cases:
        bad.write_text(json.dumps(e))
        assert cli.main(["train", "--config", str(bad), "--quiet"]) == 2
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify-theorem", "--config", "/nonexistent.json"],
                                  ["verify-theorem", "--rho", "9"],
                                  ["diagnose", "--rho", "0.9"],
                                  ["sweep-rho", "--rho", "5.0"],
                                  ["compare", "--rho", "0.1"]])
def test_subcommands_refuse_flags_they_do_not_read(argv, capsys):
    # verify-theorem reads no config; sweep-rho sets rho per probe, and
    # diagnose and compare force it to 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergent_run_exits_3(config_path, tmp_path):
    cfg = hn.RunConfig.from_json(open(config_path).read())
    from dataclasses import replace
    blown = replace(cfg, lr_relative=1e9)
    path = tmp_path / "blown.json"
    path.write_text(json.dumps(blown.to_dict()))
    assert cli.main(["train", "--config", str(path), "--quiet"]) == 3


def test_zeroed_feature_channels_exit_2(tmp_path, capsys):
    # full attenuation zeroes 8 feature columns, so the train features are
    # rank-deficient and whitening refuses them: a config error
    cfg = hn.RunConfig(task=tk.TaskSpec(n_train=40, n_test=40),
                       encoder=md.EncoderConfig(semantic_bias=True,
                                                bias_channels=tuple(range(24, 32)),
                                                bias_attenuation=0.0),
                       loss="quadratic")
    path = tmp_path / "zeroed.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["train", "--config", str(path), "--quiet"]) == 2
    assert "rank-deficient" in capsys.readouterr().err


def test_singular_surrogate_exits_3(config_path, capsys, monkeypatch):
    # a transform that zeroes 8 feature columns makes the quadratic
    # surrogate's solve singular: a numerical failure, not a config error,
    # though LinAlgError subclasses ValueError
    fit = hn.fit_standardizer

    def zeroing(F):
        std = fit(F)
        std.transform[:, 24:] = 0.0
        return std

    monkeypatch.setattr(hn, "fit_standardizer", zeroing)
    assert cli.main(["train", "--config", config_path, "--quiet"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_compare_refuses_failed_runs(tmp_path, capsys):
    from dataclasses import replace
    path = tmp_path / "blown.json"
    path.write_text(json.dumps(replace(small_config(l_mid=1), lr_relative=1e9).to_dict()))
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 3
    assert "plain-probe run failed at step" in capsys.readouterr().err
    assert not (out / "compare.json").exists()


@pytest.mark.parametrize("learning_rate", [1e6, 1e12])
def test_saturated_bce_probe_is_diagnosed_not_crashed(tmp_path, learning_rate):
    # the probe saturates after step 0, so later snapshots have lambda_max 0:
    # they set no stability limit and the COR comes from step 0
    cfg = hn.RunConfig(task=tk.TaskSpec(n_train=300, n_test=30, seed=0),
                       encoder=md.EncoderConfig(layers=3), l_mid=2, cadence=3,
                       optimizer=op.SamConfig(rho=0.0, learning_rate=learning_rate,
                                              batch_size=10, steps=7))
    path = tmp_path / "saturated.json"
    path.write_text(json.dumps(cfg.to_dict()))
    for cmd in ("train", "diagnose", "compare"):
        assert cli.main([cmd, "--config", str(path), "--out", str(tmp_path / cmd),
                         "--quiet"]) == 0
    summary = json.loads((tmp_path / "train" / "summary.json").read_text())
    estimates = json.loads((tmp_path / "train" / "diagnostics.json").read_text())["estimates"]
    assert [e["lambda_max"] > 0 for e in estimates] == [True, False, False]
    assert [e["cor_bound"] for e in estimates[1:]] == [float("inf")] * 2
    assert summary["theoretical_cor"] == estimates[0]["cor_bound"]
    assert summary["cor_argmin_step"] == 0


def test_diagnose_forces_zero_radius_and_emits_estimates(config_path, capsys):
    code = cli.main(["diagnose", "--config", config_path])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["config"]["optimizer"]["rho"] == 0.0
    assert len(printed["estimates"]) >= 1
    est = printed["estimates"][0]
    for key in ("lambda_max", "trace_h", "trace_cov", "grad_norm_sq",
                "gsnr", "cor_bound", "geometric", "misspecification", "statistical"):
        assert key in est


def test_sweep_rho_subcommand_writes_json(config_path, tmp_path, capsys,
                                          monkeypatch):
    def no_train_run(*args, **kwargs):
        raise AssertionError("a sweep trains only its probe runs")

    monkeypatch.setattr(hn, "run_train", no_train_run)
    out = tmp_path / "sweep"
    code = cli.main(["sweep-rho", "--config", config_path, "--out", str(out),
                     "--rhos", "0.005,0.02,0.08"])
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert [e["collapsed"] for e in payload["entries"]] == [False, False, True]
    assert 0.02 < payload["empirical_cor"] < 0.08
    assert payload["monotone"]
    assert payload["theoretical_cor"] is None


def test_verify_theorem_subcommand(tmp_path, capsys):
    out = tmp_path / "verify"
    code = cli.main(["verify-theorem", "--instances", "10", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "verify_theorem.json").read_text())
    assert payload["n_passed"] == 10
    assert payload["max_rel_gap"] < 1e-6
    assert dict(json.loads(capsys.readouterr().out), schema_version=hn.SCHEMA_VERSION) == payload


def test_verify_theorem_failure_exits_4(monkeypatch, capsys):
    def fake_campaign(n, seed=0):
        return hn.CampaignReport(n, n - 1, 1.0, 0.0, [{"instance": 0}])

    monkeypatch.setattr(hn, "verify_theorem_campaign", fake_campaign)
    assert cli.main(["verify-theorem", "--instances", "3", "--quiet"]) == 4


def test_compare_subcommand(tmp_path, capsys):
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(small_config(l_mid=1, n_train=300).to_dict()))
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--config", str(path), "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # each head's CorReport, keyed by head, and whether corit's bound is higher
    assert set(payload) == {*hn.HEAD_MODES, "lifted"}
    for head in hn.HEAD_MODES:
        assert set(payload[head]) == {"rho_critical", "argmin_step", "collapsed_zone"}
        assert payload[head]["rho_critical"] > 0.0
    assert payload["lifted"] == (payload["corit"]["rho_critical"]
                                 > payload["plain-probe"]["rho_critical"])
    written = json.loads((out / "compare.json").read_text())
    assert written == dict(payload, schema_version=hn.SCHEMA_VERSION)


def test_rank_deficient_whitening_exits_2(tmp_path, capsys, monkeypatch):
    # 120 train samples span at most 119 of the corit head's 256 feature
    # directions; the ridge would scale the others by ~1,000
    path = tmp_path / "deficient.json"
    path.write_text(json.dumps(small_config(head="corit", l_mid=1).to_dict()))
    splits = []
    generate = tk.generate
    monkeypatch.setattr(tk, "generate",
                        lambda spec, split, *rng: splits.append(split)
                        or generate(spec, split, *rng))
    assert cli.main(["train", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "standardize" in err and "256 features" in err and "n_train 120" in err
    # the fit refuses before the test split is generated and encoded
    assert splits == ["train"]


def test_artifact_on_every_channel_trains(tmp_path):
    # no channel is left for the semantic pattern, which at amplitude 0
    # adds nothing instead of 0 x NaN
    cfg = hn.RunConfig(task=tk.TaskSpec(artifact_amp=4.0, artifact_channels=range(32),
                                        n_train=40, n_test=30),
                       encoder=md.EncoderConfig(layers=2),
                       optimizer=op.SamConfig(batch_size=10, steps=20))
    path = tmp_path / "every_channel.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["train", "--config", str(path), "--quiet"]) == 0


@pytest.fixture(scope="module")
def report_dirs(tmp_path_factory):
    """Every file the CLI writes, from one small config, written twice into
    two directories."""
    config = tmp_path_factory.mktemp("config") / "config.json"
    config.write_text(json.dumps(small_config(l_mid=1, n_train=300).to_dict()))
    dirs = [tmp_path_factory.mktemp("reports") for _ in range(2)]
    for out in dirs:
        for argv in (["train", "--rho", "0.01", "--config", str(config)],
                     ["sweep-rho", "--config", str(config)],
                     ["compare", "--config", str(config)],
                     ["verify-theorem", "--instances", "10"]):
            assert cli.main(argv + ["--out", str(out), "--quiet"]) == 0
    return dirs


def test_every_report_is_byte_identical_across_runs(report_dirs):
    first, second = report_dirs
    names = sorted(p.name for p in first.iterdir())
    assert names == ["compare.json", "diagnostics.json", "steps.csv", "summary.json",
                     "sweep.json", "verify_theorem.json"]
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("name", ["summary.json", "diagnostics.json", "sweep.json",
                                  "verify_theorem.json", "compare.json"])
def test_json_reports_share_one_versioned_format(report_dirs, name):
    text = (report_dirs[0] / name).read_text()
    payload = json.loads(text)
    assert payload["schema_version"] == hn.SCHEMA_VERSION
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
