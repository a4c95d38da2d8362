import os

import pytest

from ompbounds import GuaranteeInputs, cli, thm2_bound
from ompbounds.cli import CSV_HEADER, main


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    return lines[0]


def _kv(lines):
    out = {}
    for line in lines:
        key, _, val = line.partition("=")
        out[key] = val
    return out


@pytest.mark.parametrize(
    "m,mu_text",
    [(1024, "0.031250"), (2, "0.707107"), (4096, "0.015625")],
)
def test_coherence_output(capsys, m, mu_text):
    assert main(["coherence", "-m", str(m)]) == 0
    got = _kv(_lines(capsys))
    assert got["M"] == str(m)
    assert got["N"] == str(2 * m)
    assert got["mu_max"] == mu_text


def test_coherence_rejects_bad_m(capsys):
    assert main(["coherence", "-m", "12"]) == 1
    assert "power of two" in capsys.readouterr().err


BOUND_FLAGS = [
    "bound",
    "--n", "2048",
    "--tau", "10",
    "--mu-max", "0.0313",
    "--s-min", "0.5",
    "--s-max", "1",
    "--sigma", "0.001",
    "--beta", "0.01",
]


def test_bound_output_round_trips(capsys):
    assert main(BOUND_FLAGS) == 0
    got = _kv(_lines(capsys))
    b = thm2_bound(
        GuaranteeInputs(
            n=2048, tau=10, mu_max=0.0313, s_min=0.5, s_max=1.0, sigma=0.001, beta=0.01
        )
    )
    for field in ("rho", "gamma", "p1", "p2", "p3", "lambda_lb", "error_ub", "probability"):
        assert float(got[field]) == getattr(b, field), field
    assert got["thm2_prob"] == got["probability"]
    assert got["thm2_condition"] == "true"
    assert got["thm1_condition"] == "true"
    assert float(got["thm1_prob"]) > 0.999


def test_bound_zero_probabilities_when_conditions_fail(capsys):
    args = list(BOUND_FLAGS)
    args[args.index("--beta") + 1] = "0.4"  # s_min/2 = 0.25 < beta
    assert main(args) == 0
    got = _kv(_lines(capsys))
    assert got["thm1_condition"] == "false"
    assert got["thm2_condition"] == "false"
    assert float(got["thm1_prob"]) == 0.0
    assert float(got["thm2_prob"]) == 0.0


def test_bound_noiseless_lambda_is_one(capsys):
    args = list(BOUND_FLAGS)
    args[args.index("--sigma") + 1] = "0"
    args[args.index("--beta") + 1] = "0"
    assert main(args) == 0
    got = _kv(_lines(capsys))
    assert got["lambda_lb"] == "1.0"
    assert got["alpha"] == "undefined"


@pytest.mark.parametrize(
    "flag,value",
    [("--sigma", "nan"), ("--sigma", "inf"), ("--beta", "nan"), ("--alpha", "nan")],
)
def test_bound_rejects_non_finite_input(capsys, flag, value):
    # NaN compares false against every range bound; left unchecked, a NaN
    # sigma yields thm1_prob=1.0 with exit status 0.
    argv = list(BOUND_FLAGS)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    assert main(argv) == 1
    assert "must be finite" in _one_line_error(capsys)


def test_beta_rejects_nan_sigma(capsys):
    assert main(["beta", "-m", "16", "--sigma", "nan", "--draws", "10"]) == 1
    assert "must be finite" in _one_line_error(capsys)


def test_bound_missing_flags_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "2048", "--tau", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--mu-max" in err and "--beta" in err


def test_beta_zero_sigma(capsys):
    assert main(["beta", "-m", "16", "--sigma", "0", "--seed", "3"]) == 0
    got = _kv(_lines(capsys))
    assert got["beta"] == "0.0"
    assert got["alpha"] == "undefined"
    assert got["draws"] == "10000"


def test_beta_scales_linearly(capsys):
    assert main(["beta", "-m", "64", "--sigma", "0.01", "--draws", "300", "--seed", "5"]) == 0
    first = _kv(_lines(capsys))
    assert main(["beta", "-m", "64", "--sigma", "0.02", "--draws", "300", "--seed", "5"]) == 0
    second = _kv(_lines(capsys))
    assert float(second["beta"]) == 2.0 * float(first["beta"])
    assert first["alpha_valid"] == "true"


@pytest.fixture
def sweep_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# tiny tau sweep\n"
        "m=32\n"
        "sweep=tau\n"
        "sweep_values=1,2,4\n"
        "s_min=0.5\n"
        "s_max=1\n"
        "sigma=0.02\n"
        "trials=40\n"
        "beta_draws=200\n"
    )
    return cfg


def test_sweep_writes_csv_with_exact_header(tmp_path, sweep_config):
    out = tmp_path / "result.csv"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out), "--seed", "9"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
    assert first["sweep"] == "tau"
    assert first["M"] == "32" and first["N"] == "64"
    assert first["tau"] == "1"
    assert first["trials"] == "40"
    assert first["thm1_condition"] in ("true", "false")


def test_sweep_byte_identical_across_runs_and_workers(tmp_path, sweep_config):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--config", str(sweep_config), "--seed", "9"]
    assert main(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(base + ["--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_overrides_and_sigma_sq_alias(tmp_path, sweep_config):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert (
        main(
            ["sweep", "--config", str(sweep_config), "--set", "sigma=0.01",
             "--out", str(out1), "--seed", "4"]
        )
        == 0
    )
    assert (
        main(
            ["sweep", "--config", str(sweep_config), "--set", "sigma_sq=0.0001",
             "--out", str(out2), "--seed", "4"]
        )
        == 0
    )
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_unknown_key_rejected(tmp_path, sweep_config, capsys):
    out = tmp_path / "never.csv"
    code = main(
        ["sweep", "--config", str(sweep_config), "--set", "bogus=1", "--out", str(out)]
    )
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_trials_zero_rejected(tmp_path, sweep_config, capsys):
    out = tmp_path / "never.csv"
    code = main(
        ["sweep", "--config", str(sweep_config), "--set", "trials=0", "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()


def test_sweep_unwritable_output_leaves_nothing(tmp_path, sweep_config, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    code = main(["sweep", "--config", str(sweep_config), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error:")
    assert not any(p.name.startswith(".ompbounds-") for p in tmp_path.iterdir())


def test_sweep_conflicting_sigma_keys(tmp_path, sweep_config, capsys):
    out = tmp_path / "never.csv"
    code = main(
        ["sweep", "--config", str(sweep_config), "--set", "sigma_sq=1e-4",
         "--set", "sigma=0.01", "--out", str(out)]
    )
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_sweep_plot_script(tmp_path, sweep_config):
    out = tmp_path / "r.csv"
    script = tmp_path / "r.gp"
    assert (
        main(
            ["sweep", "--config", str(sweep_config), "--out", str(out),
             "--plot-script", str(script), "--seed", "1"]
        )
        == 0
    )
    text = script.read_text()
    assert os.fspath(out) in text
    for column in ("param_value", "empirical_prob", "thm1_prob", "thm2_prob"):
        assert column in text


@pytest.mark.parametrize(
    "overrides",
    [
        ["sigma=nan"],
        ["sigma_sq=nan"],
        ["s_max=inf"],
        ["sweep=sigma", "sweep_values=0.01,nan", "tau=2"],
        ["sweep=s_min", "sweep_values=nan", "tau=2"],
    ],
)
def test_sweep_rejects_non_finite_input(tmp_path, sweep_config, capsys, overrides):
    # Left unchecked, a NaN sigma yields a CSV of NaN betas with exit status 0.
    out = tmp_path / "never.csv"
    argv = ["sweep", "--config", str(sweep_config), "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert "must be finite" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "workers",
    [0, -1, (os.cpu_count() or 1) + 1, 10**6],
    ids=["zero", "negative", "cpu_count_plus_one", "huge"],
)
def test_sweep_rejects_out_of_range_workers(tmp_path, sweep_config, capsys, monkeypatch, workers):
    def unreachable(*args, **kwargs):
        raise AssertionError("run_sweep reached with an out-of-range worker count")

    monkeypatch.setattr(cli, "run_sweep", unreachable)
    out = tmp_path / "never.csv"
    argv = ["sweep", "--config", str(sweep_config), "--out", str(out), "--workers", str(workers)]
    assert main(argv) == 1
    assert "--workers must lie in [1, " in _one_line_error(capsys)
    assert not out.exists()


def test_sweep_requires_core_keys(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main(["sweep", "--set", "m=16", "--out", str(out)])
    assert code == 1
    assert "missing required config key" in capsys.readouterr().err
