import concurrent.futures
import csv
import io
import os
import stat
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields

import pytest

from ompbounds import GuaranteeInputs, build_identity_hadamard, cli, run_point, thm1, thm2_bound
from ompbounds import montecarlo
from ompbounds.cli import CSV_HEADER, main
from ompbounds.montecarlo import _point_master_seed


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


def test_coherence_allocates_nothing_of_size_m(capsys):
    # The answer is the closed form 1/sqrt(M); building the Kronecker
    # factors of H_M for it would take 64 MB at M = 2^22.
    tracemalloc.start()
    try:
        assert main(["coherence", "-m", str(2**22)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _kv(_lines(capsys))["mu_max"] == "0.000488"
    assert peak < 1_000_000


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


def _bound_with(flag, value):
    """``BOUND_FLAGS`` with ``flag`` set to ``value``, replaced or appended."""
    argv = list(BOUND_FLAGS)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


# Exact stdout of three calculator commands, pinned byte for byte.
GOLDEN_STDOUT = {
    ("coherence", "-m", "1024"): "M=1024\nN=2048\nmu_max=0.031250\n",
    tuple(BOUND_FLAGS): (
        "thm1_condition=true\n"
        "thm1_prob=1.0\n"
        "alpha=5.55770473131347 (derived)\n"
        "thm2_condition=true\n"
        "thm2_prob=0.9486054777489583\n"
        "rho=0.24\n"
        "gamma=0.0313\n"
        "p1=2.4568658115521642e-05\n"
        "p2=2.5094981567891428e-05\n"
        "p3=1.5389197253412733e-23\n"
        "lambda_raw=1.0\n"
        "lambda_lb=1.0\n"
        "error_ub=0.051394522251041644\n"
        "probability_raw=0.9486054777489583\n"
        "probability=0.9486054777489583\n"
    ),
    ("beta", "-m", "64", "--sigma", "0.01", "--draws", "300", "--seed", "5"): (
        "m=64\n"
        "n=128\n"
        "sigma=0.01\n"
        "draws=300\n"
        "beta=0.041300865840666716\n"
        "alpha=0.7577812033377396\n"
        "alpha_valid=true\n"
    ),
}


@pytest.mark.parametrize("argv", GOLDEN_STDOUT, ids=lambda argv: argv[0])
def test_calculator_stdout_is_golden(capsys, argv):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN_STDOUT[argv]
    assert captured.err == ""


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
    assert main(_bound_with(flag, value)) == 1
    assert "must be a finite real" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "flag,value", [("--tau", "2049"), ("--alpha", "-1"), ("--alpha", "0")]
)
def test_bound_rejects_out_of_range_input(capsys, flag, value):
    # More atoms in the support than in the dictionary, or a given alpha
    # outside the guarantee's domain, is an input error, not a zero bound.
    assert main(_bound_with(flag, value)) == 1
    assert flag[2:] in _one_line_error(capsys)


@pytest.mark.parametrize("sigma", ["1.5e-154", "1e-150"])
def test_bound_refuses_a_ratio_whose_derived_alpha_overflows(capsys, sigma):
    # Each of beta and sigma passes its own rule, but beta^2 / (2 sigma^2
    # log n) overflows; this once named alpha, which was never given.
    argv = _bound_with("--sigma", sigma)
    argv[argv.index("--mu-max") + 1] = "0.03125"
    argv[argv.index("--beta") + 1] = "1e10"
    assert main(argv) == 1
    assert _one_line_error(capsys) == (
        f"error: beta^2 / (2 sigma^2 log n) at beta=10000000000.0, sigma={float(sigma)!r} "
        "must be a finite real, got inf"
    )


def test_beta_rejects_nan_sigma(capsys):
    assert main(["beta", "-m", "16", "--sigma", "nan", "--draws", "10"]) == 1
    assert "must be a finite real" in _one_line_error(capsys)


def test_beta_refuses_a_beta_past_its_range_before_printing(capsys):
    # sigma = 1e154 passes its own rule, but the beta it gives, about 2.5
    # times sigma, has no normal square; the five lines before alpha were
    # once printed ahead of the refusal, which named only beta.
    assert main(["beta", "-m", "8", "--sigma", "1e154", "--draws", "4"]) == 1
    assert _one_line_error(capsys) == (
        "error: beta must square to a normal float: when positive, in "
        "[1.492e-154, 1.341e+154], got 2.5007205837787874e+154 at --sigma 1e+154"
    )


def test_bound_flags_are_guarantee_inputs_fields():
    # _cmd_bound builds GuaranteeInputs from the flags by destination name.
    names = [f.name for f in fields(GuaranteeInputs)]
    assert names == ["n", "tau", "mu_max", "s_min", "s_max", "sigma", "beta"]
    dests = vars(cli._build_parser().parse_args(BOUND_FLAGS)).keys() - {"command", "func"}
    assert dests == {*names, "alpha", "tight_lambda"}


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


# --set overrides that turn the tau fixture into each sweep kind.
KIND_OVERRIDES = {
    "tau": [],
    "s_min": ["sweep=s_min", "sweep_values=0.1,0.3,0.5", "tau=2"],
    "sigma": ["sweep=sigma", "sweep_values=0,0.01,0.05", "tau=2"],
}


def _sweep_argv(config, overrides):
    argv = ["sweep", "--config", str(config), "--seed", "9"]
    for item in overrides:
        argv += ["--set", item]
    return argv


@pytest.mark.parametrize("kind", sorted(KIND_OVERRIDES))
def test_sweep_byte_identical_across_runs_and_workers(tmp_path, sweep_config, kind):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = _sweep_argv(sweep_config, KIND_OVERRIDES[kind])
    assert main(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(base + ["--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# Every row of the m=32 and m=64 sweeps above has thm2_prob=0.0; at m=1024
# thm2 is above zero at every point, so this sweep pins its bits.
THM2_SWEEP = [
    "sweep", "--seed", "5", "--set", "m=1024", "--set", "sweep=tau", "--set", "sweep_values=2,4,8",
    "--set", "s_min=0.5", "--set", "s_max=1", "--set", "sigma=0.005", "--set", "trials=20",
    "--set", "beta_draws=500",
]
THM2_PROBS = ["0.9164265857792422", "0.9142816987100679", "0.905231873110694"]


def test_sweep_thm2_bits_byte_identical_across_workers(tmp_path):
    texts = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.csv"
        assert main(THM2_SWEEP + ["--out", str(out), "--workers", str(workers)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert [row["thm2_prob"] for row in csv.DictReader(io.StringIO(texts[0]))] == THM2_PROBS


@pytest.mark.parametrize("kind", sorted(KIND_OVERRIDES))
def test_sweep_csv_byte_identical_at_any_chunking(tmp_path, sweep_config, kind, monkeypatch):
    # A point's 40 trials are cut into min(_CHUNKS, trials) chunks, or more
    # where a chunk would exceed the rows whose working arrays fit in the omp
    # module's _BATCH_BYTES, and each chunk is one lockstep omp call.  Chunks of
    # 40, 13 or 14, 8 and 5 trials under the default cap, 2 under the
    # 4096-byte one and 1 under the 1-byte one must all give the same CSV.
    texts = set()
    for chunks in (1, 3, 5, 8):
        for cap in (2**20, 4096, 1):
            monkeypatch.setattr(montecarlo, "_CHUNKS", chunks)
            monkeypatch.setattr(sys.modules["ompbounds.omp"], "_BATCH_BYTES", cap)
            out = tmp_path / f"chunks{chunks}-cap{cap}.csv"
            assert main(_sweep_argv(sweep_config, KIND_OVERRIDES[kind]) + ["--out", str(out)]) == 0
            texts.add(out.read_bytes())
    assert len(texts) == 1


@pytest.mark.parametrize("kind", sorted(KIND_OVERRIDES))
def test_sweep_csv_schema(tmp_path, sweep_config, kind):
    # The header is built from SweepResult's fields, so pin it literally.
    assert CSV_HEADER == (
        "sweep,param_value,M,N,tau,s_min,s_max,sigma,beta,trials,successes,"
        "empirical_prob,mc_stderr,thm1_condition,thm1_prob,thm2_condition,thm2_prob"
    )
    out = tmp_path / "r.csv"
    assert main(_sweep_argv(sweep_config, KIND_OVERRIDES[kind]) + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    fixed = {"tau": "2", "s_min": "0.5", "sigma": "0.02"}
    for row in rows:
        assert (row["sweep"], row["M"], row["N"], row["s_max"]) == (kind, "32", "64", "1.0")
        assert float(row[kind]) == float(row["param_value"])
        assert row["tau"].isdigit()
        for name, value in fixed.items():
            if name != kind:
                assert row[name] == value, name
    assert [float(r["param_value"]) for r in rows] == sorted({float(r[kind]) for r in rows})


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


def test_sweep_key_given_twice_in_one_source_rejected(tmp_path, sweep_config, capsys):
    # The last of two values once won without a word; a --set key may still
    # override the file's.
    out = tmp_path / "never.csv"
    doubled = tmp_path / "doubled.cfg"
    doubled.write_text(sweep_config.read_text() + "tau = 5\ntau=6\n")
    lines = sweep_config.read_text().count("\n")
    assert main(["sweep", "--config", str(doubled), "--out", str(out)]) == 1
    assert _one_line_error(capsys) == f"error: {doubled}:{lines + 2}: duplicate key 'tau'"
    argv = ["sweep", "--config", str(sweep_config), "--set", "trials=5", "--set", "trials=6"]
    assert main(argv + ["--out", str(out)]) == 1
    assert _one_line_error(capsys) == "error: --set: duplicate key 'trials'"
    assert not out.exists()
    assert main(argv[:-2] + ["--out", str(out)]) == 0


def test_sweep_item_without_equals_rejected(tmp_path, sweep_config, capsys):
    # The file and --set share one reader, so one form names where the item was.
    out = tmp_path / "never.csv"
    broken = tmp_path / "broken.cfg"
    broken.write_text(sweep_config.read_text() + "tau 5  # no equals\n")
    lines = sweep_config.read_text().count("\n")
    assert main(["sweep", "--config", str(broken), "--out", str(out)]) == 1
    expected = f"error: {broken}:{lines + 1}: expected key=value, got 'tau 5'"
    assert _one_line_error(capsys) == expected
    assert main(_sweep_argv(sweep_config, ["trials"]) + ["--out", str(out)]) == 1
    assert _one_line_error(capsys) == "error: --set: expected key=value, got 'trials'"
    assert not out.exists()


def test_sweep_trials_zero_rejected(tmp_path, sweep_config, capsys):
    out = tmp_path / "never.csv"
    code = main(
        ["sweep", "--config", str(sweep_config), "--set", "trials=0", "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()


def _count_omp_calls(monkeypatch) -> list:
    calls = []
    real = montecarlo.omp

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(montecarlo, "omp", counting)
    return calls


def test_sweep_unwritable_output_leaves_nothing(tmp_path, sweep_config, capsys, monkeypatch):
    # A missing directory was once found only after every trial had run, and
    # the message named the temp file, not the path given.
    calls = _count_omp_calls(monkeypatch)
    (tmp_path / "dir").mkdir()
    unwritable = {"missing-dir/x": ": no such directory", "dir": " is a directory"}
    for name, problem in unwritable.items():
        out = tmp_path / name
        assert main(["sweep", "--config", str(sweep_config), "--out", str(out)]) == 1
        assert _one_line_error(capsys) == f"error: --out {str(out)!r}{problem}"
    assert calls == []
    assert sorted(tmp_path.iterdir()) == [tmp_path / "dir", sweep_config]
    assert list((tmp_path / "dir").iterdir()) == []


def test_sweep_plot_script_is_a_usage_error(tmp_path, sweep_config, capsys, monkeypatch):
    # A sweep writes only its CSV: a script that still asks for a plot file
    # stops on a usage error before any trial runs.
    calls = _count_omp_calls(monkeypatch)
    argv = ["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--plot-script", str(tmp_path / "r.gp")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --plot-script" in capsys.readouterr().err
    assert calls == []
    assert sorted(tmp_path.iterdir()) == [sweep_config]


def test_write_atomic_closes_its_file_when_the_mode_cannot_be_set(tmp_path, monkeypatch):
    # The mode was once set before os.fdopen owned the mkstemp descriptor,
    # so a failure there leaked the descriptor.
    made = []
    real_mkstemp = tempfile.mkstemp

    def mkstemp(*args, **kwargs):
        fd, tmp = real_mkstemp(*args, **kwargs)
        made.append((fd, tmp, os.fstat(fd).st_ino))
        return fd, tmp

    def refuse(*args, **kwargs):
        raise PermissionError("mode refused")

    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    for name in ("chmod", "fchmod"):  # whichever call sets the mode
        monkeypatch.setattr(os, name, refuse)
    with pytest.raises(PermissionError, match="^mode refused$"):
        cli._write_atomic(str(tmp_path / "out.csv"), "x\n")
    [(fd, tmp, inode)] = made
    try:
        leaked = os.fstat(fd).st_ino == inode
    except OSError:  # closed, and the number not reused since
        leaked = False
    assert not leaked
    assert not os.path.exists(tmp)
    assert list(tmp_path.iterdir()) == []


def test_sweep_conflicting_sigma_keys(tmp_path, sweep_config, capsys):
    out = tmp_path / "never.csv"
    code = main(
        ["sweep", "--config", str(sweep_config), "--set", "sigma_sq=1e-4",
         "--set", "sigma=0.01", "--out", str(out)]
    )
    assert code == 1
    assert "not both" in capsys.readouterr().err


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
    assert "must be a finite real" in _one_line_error(capsys)
    assert not out.exists()


def _sweep_sigma_at(value):
    return lambda config, out: [
        "sweep", "--config", str(config), "--out", str(out),
        "--set", "sweep=sigma", "--set", f"sweep_values=0.01,{value}", "--set", "tau=2",
    ]


# Each once ended in a ZeroDivisionError or OverflowError traceback, the
# sweeps after every trial had run; at 1e-160 the sweep wrote a wrong
# thm1_prob.  (argv from the sweep config and output path, name, value)
SCALE_REFUSALS = {
    "bound_sigma_underflow": (lambda c, o: _bound_with("--sigma", "1e-300"), "sigma", 1e-300),
    "bound_sigma_overflow": (lambda c, o: _bound_with("--sigma", "1e200"), "sigma", 1e200),
    "bound_beta_overflow": (lambda c, o: _bound_with("--beta", "1e200"), "beta", 1e200),
    "beta_sigma_overflow": (
        lambda c, o: ["beta", "-m", "64", "--sigma", "1e200", "--draws", "10"], "sigma", 1e200
    ),
    "sweep_sigma_underflow": (_sweep_sigma_at("1e-300"), "sigma", 1e-300),
    "sweep_sigma_subnormal_square": (_sweep_sigma_at("1e-160"), "sigma", 1e-160),
    "bound_s_max_overflow": (lambda c, o: _bound_with("--s-max", "1e200"), "s_max", 1e200),
    "sweep_s_max_overflow": (
        lambda c, o: ["sweep", "--config", str(c), "--out", str(o), "--set", "s_max=1e200"],
        "s_max", 1e200,
    ),
}


@pytest.mark.parametrize("case", SCALE_REFUSALS)
def test_sigma_and_beta_without_a_normal_square_are_one_line(
    tmp_path, sweep_config, capsys, monkeypatch, case
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a trial or the beta pass ran for a refused sweep value")

    monkeypatch.setattr(montecarlo, "_count_successes", unreachable)
    monkeypatch.setattr(montecarlo, "unit_correlation_max", unreachable)
    argv, name, value = SCALE_REFUSALS[case]
    out = tmp_path / "never.csv"
    assert main(argv(sweep_config, out)) == 1
    assert _one_line_error(capsys) == (
        f"error: {name} must square to a normal float: when positive, in "
        f"[1.492e-154, 1.341e+154], got {value!r}"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_measurement_whose_squared_norm_overflows_is_one_line(tmp_path, capsys):
    # sigma = 1e153 and the beta it gives pass their rules, but at m = 1024
    # a noise row's squared norm does not fit a float: the sweep once warned
    # of an overflow in omp, wrote a CSV and exited 0.  The refusal once
    # named neither the sweep value nor the trial.
    out = tmp_path / "never.csv"
    seed = _point_master_seed(0, 0)
    for workers in (1, 2):
        argv = ["sweep", "--out", str(out), "--workers", str(workers)]
        for item in ["m=1024", "sweep=tau", "sweep_values=2,4", "tau=2", "s_min=0.5", "s_max=1",
                     "sigma=1e153", "trials=20", "beta_draws=100"]:
            argv += ["--set", item]
        assert main(argv) == 1
        assert _one_line_error(capsys) == (
            f"error: sweep value 2.0, trial 1 on stream ({seed}, 1): "
            "measurement y must have a finite squared norm in every row, got inf"
        )
        assert not out.exists()


@pytest.mark.parametrize(
    "workers",
    [0, -1, 17, 10**6],
    ids=["zero", "negative", "tasks_plus_one", "huge"],
)
def test_sweep_rejects_out_of_range_workers(tmp_path, sweep_config, capsys, monkeypatch, workers):
    # No case may start a process, least of all the huge one.
    def unreachable(*args, **kwargs):
        raise AssertionError("a process pool was built for an out-of-range worker count")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unreachable)
    out = tmp_path / "never.csv"
    argv = ["sweep", "--config", str(sweep_config), "--out", str(out), "--workers", str(workers)]
    assert main(argv) == 1
    # The beta pass and 5 chunks for each of 3 points: 16 tasks.
    assert _one_line_error(capsys) == f"error: workers must be an integer in [1, 16], got {workers}"
    assert not out.exists()


def test_config_keys_are_experiment_config_fields():
    # Derived from ExperimentConfig's fields, so pin them literally.
    assert list(cli.CONFIG_KEYS.items()) == [
        ("m", int),
        ("sweep", str),
        ("sweep_values", tuple),
        ("tau", int),
        ("s_min", float),
        ("s_max", float),
        ("sigma", float),
        ("trials", int),
        ("beta_draws", int),
        ("sigma_sq", float),
    ]
    raw = {"m": "16", "sweep": "sigma", "sweep_values": "0,0.1", "tau": "2", "s_min": "0.5",
           "s_max": "1"}
    cfg = cli._build_experiment(raw, 3)
    assert (cfg.trials, cfg.beta_draws, cfg.master_seed) == (5000, 10_000, 3)
    assert (cfg.sweep_values, cfg.sigma) == ((0.0, 0.1), 0.0)


@pytest.mark.parametrize(
    "overrides,key",
    [
        (["tau=abc"], "'tau'"),
        (["sweep_values=1.5"], "'sweep_values'"),
        (["m=1e3"], "'m'"),
    ],
    ids=["tau", "sweep_values", "m"],
)
def test_sweep_bad_value_names_its_key(tmp_path, sweep_config, capsys, overrides, key):
    out = tmp_path / "never.csv"
    assert main(_sweep_argv(sweep_config, overrides) + ["--out", str(out)]) == 1
    assert key in _one_line_error(capsys)
    assert not out.exists()


def test_sweep_empty_values_rejected(tmp_path, sweep_config, capsys):
    out = tmp_path / "never.csv"
    assert main(_sweep_argv(sweep_config, ["sweep_values=,"]) + ["--out", str(out)]) == 1
    assert "sweep_values must be nonempty" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "beta"])
def test_negative_seed_rejected(tmp_path, sweep_config, capsys, command):
    out = tmp_path / "never.csv"
    if command == "sweep":
        argv = ["sweep", "--config", str(sweep_config), "--out", str(out)]
    else:
        argv = ["beta", "-m", "16", "--sigma", "0.1", "--draws", "10"]
    assert main(argv + ["--seed", "-1"]) == 1
    assert "--seed" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
def test_sweep_outputs_follow_umask(tmp_path, sweep_config, umask):
    out = tmp_path / "r.csv"
    argv = ["sweep", "--config", str(sweep_config), "--out", str(out)]
    old = os.umask(umask)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_sweep_requires_core_keys(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main(["sweep", "--set", "m=16", "--out", str(out)])
    assert code == 1
    assert "missing required config key" in capsys.readouterr().err


# At seed 0 the first singular trial of this m=4 point is 18, which also
# lies in the first of the pool's chunks.  With sigma = 0 the fourth pick
# comes from a residual of rounding noise (norm below 6e-16), so which
# trials are singular depends on the solver's rounding.
SINGULAR_SWEEP = [
    "m=4", "sweep=tau", "sweep_values=4", "s_min=0.5", "s_max=1", "sigma=0",
    "trials=300", "beta_draws=10",
]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_singular_trial_is_one_line(tmp_path, capsys, workers):
    out = tmp_path / "never.csv"
    argv = ["sweep", "--out", str(out), "--workers", str(workers), "--seed", "0"]
    for item in SINGULAR_SWEEP:
        argv += ["--set", item]
    assert main(argv) == 1
    line = _one_line_error(capsys)
    seed = _point_master_seed(0, 0)
    assert f"sweep value 4.0, trial 18 on stream ({seed}, 18): " in line
    assert "singular at iteration" in line
    assert not out.exists()


# Both points of this sweep have singular trials; the first point's trial
# 18 comes first in sweep order.
SINGULAR_TWO_POINTS = [
    "m=4", "sweep=s_min", "sweep_values=0.5,0.6", "tau=4", "s_max=1", "sigma=0",
    "trials=300", "beta_draws=10",
]


def test_sweep_singular_points_report_the_first_at_any_worker_count(tmp_path, capsys):
    lines = []
    for workers in (1, 2):
        argv = ["sweep", "--out", str(tmp_path / "never.csv"), "--workers", str(workers)]
        for item in SINGULAR_TWO_POINTS:
            argv += ["--set", item]
        assert main(argv) == 1
        lines.append(_one_line_error(capsys))
    seed = _point_master_seed(0, 0)
    assert lines[0] == lines[1]
    assert f"sweep value 0.5, trial 18 on stream ({seed}, 18): " in lines[0]


def test_failed_sweep_cancels_the_chunks_not_started(tmp_path, capsys, monkeypatch):
    # Threads stand in for the worker processes, so one counter sees every
    # trial.  A point is 5 chunks of 60 trials, each solved as one omp
    # batch, so uncancelled all 10 chunks reach omp.  Point 0's first chunk
    # holds trial 18 and fails.  Events order the rest: every other chunk
    # waits at its start until the pool's shutdown has returned, and the
    # shutdown first waits until each of the two workers holds such a
    # chunk.  So the cancel lands when both workers have started a chunk,
    # and exactly 3 chunks reach omp: the failing one and those two.
    parked = threading.Semaphore(0)
    shut = threading.Event()

    class OrderedPool(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            try:
                for _ in range(2):
                    assert parked.acquire(timeout=60), "a worker never started a second chunk"
                super().shutdown(wait=False, cancel_futures=cancel_futures)
            finally:
                shut.set()
            super().shutdown(wait=wait)

    real_chunk = montecarlo._count_successes

    def chunk(*args):
        if args[-1] != 0.5 or args[-3] != 1:  # all but point 0's first chunk
            parked.release()
            assert shut.wait(timeout=60), "the pool was never shut down"
        return real_chunk(*args)

    rows = []
    real = montecarlo.omp

    def counting(d, y, tau):
        rows.append(len(y))
        return real(d, y, tau)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OrderedPool)
    monkeypatch.setattr(montecarlo, "_count_successes", chunk)
    monkeypatch.setattr(montecarlo, "omp", counting)
    argv = ["sweep", "--out", str(tmp_path / "never.csv"), "--workers", "2"]
    for item in SINGULAR_TWO_POINTS:
        argv += ["--set", item]
    assert main(argv) == 1
    seed = _point_master_seed(0, 0)
    assert f"sweep value 0.5, trial 18 on stream ({seed}, 18): " in _one_line_error(capsys)
    # The pool stand-in was used: worker processes would count no row here.
    assert set(rows) == {60}
    assert len(rows) == 3


def test_sweep_broken_pool_is_one_line(tmp_path, sweep_config, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise BrokenProcessPool("a worker process terminated abruptly")

    monkeypatch.setattr(cli, "run_sweep", broken)
    out = tmp_path / "never.csv"
    argv = ["sweep", "--config", str(sweep_config), "--out", str(out), "--workers", "1"]
    assert main(argv) == 1
    assert "terminated abruptly" in _one_line_error(capsys)
    assert not out.exists()


# thm1 at n=128 (m=64, mu_max=1/8, s_min=0.5): (sigma, beta), then
# (condition, probability, source) at tau = 1, 3 and 5, as run_point and
# `ompbounds bound` reported them before both called thm1.  The derived
# alpha is positive iff beta > 3.11 sigma; the condition fails for tau=5
# always and for tau=3 at beta=0.2.  A noisy point with beta = 0 is refused.
_UNDEFINED = ((True, 1.0, "undefined"), (True, 1.0, "undefined"), (False, 0.0, "undefined"))
_VALID_P = 0.9999238799608456
THM1_TABLE = {
    "noiseless": ((0.0, 0.0), _UNDEFINED),
    "noiseless_beta": ((0.0, 0.05), _UNDEFINED),
    "alpha_invalid": (
        (0.01, 0.02),
        ((True, 0.0, "derived, invalid"), (True, 0.0, "derived, invalid"),
         (False, 0.0, "derived, invalid")),
    ),
    "alpha_valid": (
        (0.01, 0.05),
        ((True, _VALID_P, "derived"), (True, _VALID_P, "derived"), (False, 0.0, "derived")),
    ),
    "alpha_large": (
        (0.01, 0.2),
        ((True, 1.0, "derived"), (False, 0.0, "derived"), (False, 0.0, "derived")),
    ),
    "beta_zero": ((0.01, 0.0), None),
}


def _thm1_point(tau, sigma, beta, *extra):
    """The inputs and the `bound` argv of one thm1 table point at n=128."""
    d = build_identity_hadamard(64)
    g = GuaranteeInputs(
        n=d.n, tau=tau, mu_max=d.mutual_coherence(), s_min=0.5, s_max=1.0, sigma=sigma, beta=beta
    )
    argv = [
        "bound", "--n", "128", "--tau", str(tau), "--mu-max", repr(d.mutual_coherence()),
        "--s-min", "0.5", "--s-max", "1", "--sigma", repr(sigma), "--beta", repr(beta), *extra,
    ]
    return g, argv


@pytest.mark.parametrize("tau", [1, 3, 5])
@pytest.mark.parametrize("point", THM1_TABLE)
def test_thm1_same_in_sweep_point_and_bound(capsys, tau, point):
    # thm1, a sweep point and `ompbounds bound` each report the table's value.
    (sigma, beta), rows = THM1_TABLE[point]
    g, argv = _thm1_point(tau, sigma, beta)
    if rows is None:
        with pytest.raises(ValueError, match="^beta must be a finite real > 0, got 0.0$"):
            thm1(g)
        with pytest.raises(ValueError, match="^beta must be a finite real > 0, got 0.0$"):
            run_point(g, 1, 0)
        assert main(argv) == 1
        assert _one_line_error(capsys) == "error: beta must be a finite real > 0, got 0.0"
        return
    cond, prob, source = rows[(1, 3, 5).index(tau)]
    cond1, prob1, alpha, source1 = thm1(g)
    assert (cond1, prob1, source1) == (cond, prob, source)
    r = run_point(g, 1, 0)
    assert (r.thm1_condition, r.thm1_prob) == (cond, prob)
    assert main(argv) == 0
    got = _kv(_lines(capsys))
    assert (got["thm1_condition"], float(got["thm1_prob"])) == ("true" if cond else "false", prob)
    assert got["alpha"] == ("undefined" if alpha is None else f"{alpha!r} ({source})")


@pytest.mark.parametrize(
    "tau,sigma,beta,cond,prob",
    [
        (1, 0.01, 0.05, True, 0.9985850589525879),
        (1, 0.0, 0.0, True, 0.9985850589525879),
        (5, 0.01, 0.05, False, 0.0),
    ],
    ids=["noisy", "noiseless", "condition_fails"],
)
def test_thm1_given_alpha(capsys, tau, sigma, beta, cond, prob):
    # A given alpha is used as is, noiseless or not.
    g, argv = _thm1_point(tau, sigma, beta, "--alpha", "1.0")
    assert thm1(g, 1.0) == (cond, prob, 1.0, "given")
    assert main(argv) == 0
    got = _kv(_lines(capsys))
    assert (float(got["thm1_prob"]), got["alpha"]) == (prob, "1.0 (given)")


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_thm1_rejects_given_alpha_not_positive(alpha):
    g, _ = _thm1_point(1, 0.01, 0.05)
    with pytest.raises(ValueError, match=f"^alpha must be a finite real > 0, got {alpha}$"):
        thm1(g, alpha)
