import concurrent.futures
import json
import math
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ompbounds import (
    Dictionary,
    ExperimentConfig,
    GuaranteeInputs,
    RngStream,
    SingularSystemError,
    build_identity_hadamard,
    count_successes,
    draw_sparse_signal,
    omp,
    run_point,
    run_sweep,
    synthesize,
)
from ompbounds import cli, montecarlo
from oracles import DenseDictionary

# ompbounds.omp is the solver function; the module holds the batch budget.
omp_module = sys.modules["ompbounds.omp"]

# Pinned on first computation (m=1024, tau=20, sigma=1e-3, seed 123): all
# 1000 trials recover the support.
REGRESSION_SUCCESSES = 1000


def test_tau_one_noiseless_always_recovers():
    d = build_identity_hadamard(64)
    successes = count_successes(d, 1, 0.5, 1.0, 0.0, 200, 99, param_value=1)
    g = GuaranteeInputs(d.n, 1, d.mutual_coherence(), 0.5, 1.0, 0.0, 0.0)
    r = run_point(g, 200, successes, param_value=1)
    assert r.successes == r.trials == 200
    assert r.empirical_prob == 1.0
    assert r.mc_stderr == 0.0
    assert r.thm2_condition
    assert r.thm1_prob == 1.0  # noiseless limit of the sharp guarantee
    # At N=128 the probabilistic bound is still vacuous (exponential in N),
    # but it must stay a valid lower bound.
    assert 0.0 <= r.thm2_prob <= r.empirical_prob


def test_low_noise_regression_point():
    d = build_identity_hadamard(1024)
    successes = count_successes(d, 20, 0.5, 1.0, 1e-3, 1000, 123, param_value=20)
    g = GuaranteeInputs(d.n, 20, d.mutual_coherence(), 0.5, 1.0, 1e-3, 0.00581)
    r = run_point(g, 1000, successes, param_value=20)
    assert r.empirical_prob >= 0.99
    assert r.successes == REGRESSION_SUCCESSES


@pytest.mark.parametrize(
    "trials,successes,bad",
    [
        (40.0, 12, "trials"),
        (40, 12.5, "successes"),
        (True, 0, "trials"),
    ],
    ids=["float_trials", "float_successes", "bool_trials"],
)
def test_run_point_counts_are_integers(trials, successes, bad):
    # Both counts reach the CSV, where only a Python int is written as one.
    g = GuaranteeInputs(128, 2, 0.125, 0.5, 1.0, 0.01, 0.05)
    value = {"trials": trials, "successes": successes}[bad]
    bounds = {"trials": ">= 1", "successes": "in [0, 40]"}[bad]
    message = f"{bad} must be an integer {bounds}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_point(g, trials, successes)


def test_numpy_trials_write_the_same_csv():
    # run_point stores its counts as int; a numpy count stored as it is
    # would reach the CSV's integer columns as "20.0".
    base = dict(m=16, sweep="tau", sweep_values=(1, 3), tau=1, s_min=0.5, s_max=1.0,
                sigma=0.05, beta_draws=50, master_seed=2)
    texts = []
    for trials in (20, np.int64(20)):
        cfg = ExperimentConfig(**base, trials=trials)
        texts.append(cli._sweep_csv(cfg, run_sweep(cfg)).encode())
    assert texts[0] == texts[1]


def test_run_sweep_deterministic_and_monotone_in_tau():
    cfg = ExperimentConfig(
        m=64,
        sweep="tau",
        sweep_values=(1, 2, 4, 8),
        tau=1,
        s_min=0.5,
        s_max=1.0,
        sigma=0.05,
        trials=150,
        beta_draws=500,
        master_seed=21,
    )
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b
    c = run_sweep(cfg, workers=2)
    assert a == c
    assert [r.param_value for r in a] == [1.0, 2.0, 4.0, 8.0]
    # Bound columns come from one shared beta (sigma fixed across points).
    assert len({r.beta for r in a}) == 1
    probs = [r.empirical_prob for r in a]
    slack = [3 * r.mc_stderr for r in a]
    assert all(p1 >= p2 - s for p1, p2, s in zip(probs, probs[1:], slack))


@pytest.mark.parametrize("workers", [0, -1, True, 1.0, 6])
def test_run_sweep_rejects_bad_worker_counts(monkeypatch, workers):
    # No case may start a process.
    def unreachable(*args, **kwargs):
        raise AssertionError("a process pool was built for a bad worker count")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unreachable)
    cfg = ExperimentConfig(
        m=4, sweep="tau", sweep_values=(1,), tau=1, s_min=0.5, s_max=1.0, sigma=0.0,
        trials=4, beta_draws=1,
    )
    # The beta pass and four single-trial chunks: 5 tasks, whatever the host.
    message = f"workers must be an integer in [1, 5], got {workers!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(cfg, workers=workers)


def test_run_sweep_sigma_rescales_beta_per_point():
    cfg = ExperimentConfig(
        m=32,
        sweep="sigma",
        sweep_values=(0.0, 0.01, 0.02),
        tau=2,
        s_min=0.5,
        s_max=1.0,
        sigma=0.01,
        trials=60,
        beta_draws=400,
        master_seed=5,
    )
    rows = run_sweep(cfg)
    assert rows[0].beta == 0.0
    assert rows[2].beta == 2.0 * rows[1].beta
    assert rows[0].thm1_prob == 1.0 and rows[0].empirical_prob == 1.0


@pytest.mark.parametrize(
    "kw",
    [
        dict(m=12),
        dict(sweep="noise"),
        dict(sweep_values=()),
        dict(sweep_values=(2, 2, 3)),
        dict(sweep_values=(4, 2)),
        dict(sweep="tau", sweep_values=(1.5, 2.0)),
        dict(sweep="s_min", sweep_values=(0.5, 2.0)),
        dict(sweep="sigma", sweep_values=(-0.1, 0.2)),
        dict(trials=0),
        dict(tau=0),
        dict(tau=100),
        dict(s_min=0.0),
        dict(sigma=-1.0),
        dict(beta_draws=0),
        dict(sigma=math.nan),
        dict(s_max=math.inf),
        dict(sweep="sigma", sweep_values=(0.01, math.nan)),
        dict(sweep="s_min", sweep_values=(math.nan,)),
        dict(sweep="s_min", sweep_values=(0.5,), tau=2.5),
        dict(trials=20.0),
        dict(trials=True),
        dict(beta_draws=10.0),
        dict(beta_draws=True),
    ],
)
def test_config_validation(kw):
    base = dict(
        m=64,
        sweep="tau",
        sweep_values=(1, 2),
        tau=1,
        s_min=0.5,
        s_max=1.0,
        sigma=0.01,
        trials=10,
        beta_draws=10,
        master_seed=0,
    )
    base.update(kw)
    with pytest.raises(ValueError):
        ExperimentConfig(**base)


@pytest.mark.parametrize("field", ["trials", "beta_draws"])
def test_config_count_type_error_names_its_field(field):
    # Unchecked, a float count reached the CSV's integer column as "20.0".
    base = dict(m=64, sweep="tau", sweep_values=(1, 2), tau=1, s_min=0.5, s_max=1.0, sigma=0.01)
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got 20.0$"):
        ExperimentConfig(**base, **{field: 20.0})


def test_singular_system_reports_trial():
    # Duplicated atom: any trial whose support hits both copies makes the
    # active set singular on the second iteration.
    d = DenseDictionary(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularSystemError) as exc:
        count_successes(d, 2, 0.5, 1.0, 0.0, 50, 0, param_value=2)
    assert exc.value.trial is not None and exc.value.trial >= 1
    assert exc.value.iteration == 2
    assert "trial" in str(exc.value)
    # The error names the point and the stream that replays the trial, and
    # keeps both through a pickle round trip (the way back from a worker).
    assert (exc.value.seed, exc.value.param_value) == (0, 2.0)
    assert f"stream (0, {exc.value.trial})" in str(exc.value)
    back = pickle.loads(pickle.dumps(exc.value))
    assert str(back) == str(exc.value)


def test_serial_sweep_stops_at_the_first_singular_trial(monkeypatch):
    # Both points have singular trials; at one worker a chunk runs only when
    # its point's record is built, so nothing after the chunk that holds
    # point 0's trial 18 runs.  A point is cut into 5 chunks: trials 1..60
    # first, one omp batch.
    cfg = ExperimentConfig(
        m=4, sweep="s_min", sweep_values=(0.5, 0.6), tau=4, s_min=0.5, s_max=1.0,
        sigma=0.0, trials=300, beta_draws=10, master_seed=0,
    )
    rows = []
    real = montecarlo.omp

    def counting(d, y, tau):
        rows.append(len(y))
        return real(d, y, tau)

    monkeypatch.setattr(montecarlo, "omp", counting)
    with pytest.raises(SingularSystemError) as exc:
        run_sweep(cfg)
    assert (exc.value.param_value, exc.value.trial) == (0.5, 18)
    assert rows == [60]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_refuses_a_point_beta_before_its_trials(monkeypatch, workers):
    # sigma = 1e154 passes the scale rule, but beta = sigma * unit_max does
    # not.  Every point's bound inputs are built once the beta pass returns:
    # at one worker no trial runs (once every trial ran, and omp overflowed,
    # before the refusal).  Threads stand in for the worker processes, so
    # one counter sees every trial; a point is 5 chunks, each one omp call.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    cfg = ExperimentConfig(
        m=64, sweep="sigma", sweep_values=(0.01, 1e154), tau=2, s_min=0.5, s_max=1.0,
        sigma=0.01, trials=50, beta_draws=100,
    )
    rows = []
    real = montecarlo.omp

    def counting(d, y, tau):
        rows.append(len(y))
        time.sleep(0.005)
        return real(d, y, tau)

    monkeypatch.setattr(montecarlo, "omp", counting)
    message = (
        "beta must square to a normal float: when positive, in [1.492e-154, 1.341e+154], "
        "got 4.62495889024863e+154"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_sweep(cfg, workers=workers)
    if workers == 1:
        assert rows == []
    else:
        # The chunks not yet started when the beta pass returned are cancelled.
        assert sum(rows) < 2 * cfg.trials


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_count_refuses_a_measurement_whose_squared_norm_overflows():
    # sigma = 1e153 passes the scale rule, but at m = 1024 a noise row's
    # squared norm, about 1e309, does not fit a float: omp once warned of an
    # overflow in its residual norm and counted trials from inf norms.  The
    # refusal names the first refused trial in trial order and its stream:
    # at 4e152 only trial 12's squared norm, 1.024 times the largest float,
    # overflows, in the third of five chunks.
    d = build_identity_hadamard(1024)
    for sigma, param_value, trial in [(1e153, math.nan, 1), (4e152, 3.5, 12)]:
        message = (
            f"sweep value {param_value!r}, trial {trial} on stream (0, {trial}): "
            "measurement y must have a finite squared norm in every row, got inf"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count_successes(d, 2, 0.5, 1.0, sigma, 20, 0, param_value=param_value)


def test_sweep_schedule_is_the_same_on_every_host(monkeypatch):
    # Two workers run on a one-CPU host, and no CPU count changes the chunks,
    # so none changes the rows that each lockstep omp call solves.
    cfg = ExperimentConfig(
        m=64, sweep="tau", sweep_values=(2, 4), tau=2, s_min=0.5, s_max=1.0,
        sigma=0.05, trials=40, beta_draws=50, master_seed=3,
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = run_sweep(cfg)
    assert run_sweep(cfg, workers=2) == serial
    batches = {}
    real = montecarlo.omp

    def counting(d, y, tau):
        batches[os.cpu_count()].append(len(y))
        return real(d, y, tau)

    monkeypatch.setattr(montecarlo, "omp", counting)
    for cpus in (1, 2, 64):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        batches[cpus] = []
        assert run_sweep(cfg) == serial
    # 5 chunks of 8 trials a point, each one omp batch.
    assert list(batches.values()) == [[8] * 10] * 3


def test_one_cut_where_the_row_cap_binds(monkeypatch):
    # Under this cap rows(64, 2) = 7 and rows(64, 4) = 6, so a 40-trial point
    # is cut into 6 chunks at tau = 2 and 7 at tau = 4, not min(_CHUNKS,
    # trials) = 5: every chunk is one omp call within the cap, and the
    # sweep's task list, hence its worker bound, grows to match.
    cfg = ExperimentConfig(
        m=64, sweep="tau", sweep_values=(2, 4), tau=2, s_min=0.5, s_max=1.0,
        sigma=0.05, trials=40, beta_draws=50, master_seed=3,
    )
    d = build_identity_hadamard(64)
    serial = run_sweep(cfg)
    alone = count_successes(d, 2, 0.5, 1.0, 0.05, 40, 3)
    monkeypatch.setattr(omp_module, "_BATCH_BYTES", 7 * 8 * (3 * d.n + 2 * 2))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    # The beta pass and 6 + 7 chunks: 14 tasks.
    assert run_sweep(cfg, workers=14) == serial
    message = "workers must be an integer in [1, 14], got 15"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(cfg, workers=15)
    calls = []  # per chunk, the (tau, rows) of each omp call it makes
    real_chunk, real_omp = montecarlo._count_successes, montecarlo.omp

    def chunk(*args):
        calls.append([])
        return real_chunk(*args)

    def counting(d, y, tau):
        calls[-1].append((tau, len(y)))
        return real_omp(d, y, tau)

    monkeypatch.setattr(montecarlo, "_count_successes", chunk)
    monkeypatch.setattr(montecarlo, "omp", counting)
    assert run_sweep(cfg) == serial
    assert calls == [[(2, r)] for r in (6, 7, 7, 6, 7, 7)] + [
        [(4, r)] for r in (5, 6, 6, 5, 6, 6, 6)
    ]
    calls.clear()
    assert count_successes(d, 2, 0.5, 1.0, 0.05, 40, 3) == alone
    assert calls == [[(2, r)] for r in (6, 7, 7, 6, 7, 7)]


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_chunk_draw_equals_the_trials_drawn_alone(monkeypatch, sigma):
    # Under this cap a 40-trial point at tau = 2 is cut into 6 chunks, as in
    # test_one_cut_where_the_row_cap_binds.  Each chunk's block and supports
    # have the bits of its trials drawn one at a time on their own streams,
    # and a chunk drawn as two halves gives the same rows.
    d = build_identity_hadamard(64)
    monkeypatch.setattr(omp_module, "_BATCH_BYTES", 7 * 8 * (3 * d.n + 2 * 2))
    chunks = montecarlo._chunks(d, 2, 40)
    assert len(chunks) == 6

    def draw(lo, hi):
        # Copied as drawn: the thread's next draw overwrites the block.
        block, supports = montecarlo.draw_chunk(d, 2, 0.5, 1.0, sigma, 3, lo, hi)
        return block.copy(), supports

    for lo, hi in chunks:
        block, supports = draw(lo, hi)
        assert block.shape == (hi - lo, d.m) and supports.shape == (hi - lo, 2)
        for row, t in enumerate(range(lo, hi)):
            g = RngStream(3, t).generator()
            x = draw_sparse_signal(g, d.n, 2, 0.5, 1.0)
            assert np.array_equal(block[row], synthesize(d, x, sigma, g))
            assert supports.dtype == x.support.dtype
            assert np.array_equal(supports[row], x.support)
        mid = (lo + hi) // 2
        halves = [draw(lo, mid), draw(mid, hi)]
        assert np.array_equal(np.concatenate([b for b, _ in halves]), block)
        assert np.array_equal(np.concatenate([s for _, s in halves]), supports)


def test_singular_trial_replays_alone():
    # The singular sweeps of test_cli name point 0's trial 18 at m = 4; drawn
    # alone from the stream that the error names, it is singular at the same
    # iteration, with the support that it planted.
    seed = montecarlo._point_master_seed(0, 0)
    d = build_identity_hadamard(4)
    block, supports = montecarlo.draw_chunk(d, 4, 0.5, 1.0, 0.0, seed, 18, 19)
    assert supports.shape == (1, 4) and set(supports[0].tolist()) == {0, 1, 5, 7}
    with pytest.raises(SingularSystemError) as exc:
        omp(d, block, 4)
    assert (exc.value.iteration, exc.value.row) == (4, 0)
    with pytest.raises(SingularSystemError) as exc:
        count_successes(d, 4, 0.5, 1.0, 0.0, 18, seed)
    assert (exc.value.iteration, exc.value.trial) == (4, 18)


@pytest.mark.parametrize(
    "cap_rows,cut", [(None, [8] * 5), (7, [6, 7, 7, 6, 7, 7])], ids=["floor", "row_cap"]
)
def test_a_chunk_is_synthesized_in_one_stacked_call(monkeypatch, cap_rows, cut):
    # 40 trials at m = 64, tau = 2: five chunks of 8 at the floor, or six
    # chunks where a cap of 7 rows binds.  Each chunk makes one synthesize
    # and one matvec call over all its trials, and its omp call gets that
    # measurement block itself.
    d = build_identity_hadamard(64)
    want = count_successes(d, 2, 0.5, 1.0, 0.05, 40, 3)
    if cap_rows is not None:
        monkeypatch.setattr(omp_module, "_BATCH_BYTES", cap_rows * 8 * (3 * d.n + 2 * 2))
    chunks = []  # per chunk, the calls it makes
    real = {
        "chunk": montecarlo._count_successes,
        "synthesize": montecarlo.synthesize,
        "matvec": Dictionary.matvec,
        "omp": montecarlo.omp,
    }

    def chunk(*args):
        chunks.append([])
        return real["chunk"](*args)

    def synthesize(d, signals, sigma, streams, out=None):
        observed = real["synthesize"](d, signals, sigma, streams, out=out)
        chunks[-1].append(("synthesize", len(observed), len(streams), observed))
        return observed

    def matvec(self, s, out=None):
        chunks[-1].append(("matvec", s.shape))
        return real["matvec"](self, s, out=out)

    def omp(d, y, tau):
        chunks[-1].append(("omp", y))
        return real["omp"](d, y, tau)

    monkeypatch.setattr(montecarlo, "_count_successes", chunk)
    monkeypatch.setattr(montecarlo, "synthesize", synthesize)
    monkeypatch.setattr(Dictionary, "matvec", matvec)
    monkeypatch.setattr(montecarlo, "omp", omp)
    assert count_successes(d, 2, 0.5, 1.0, 0.05, 40, 3) == want
    assert len(chunks) == len(cut)
    for calls, rows in zip(chunks, cut):
        assert [c[0] for c in calls] == ["matvec", "synthesize", "omp"]
        assert calls[0][1] == (rows, d.n)
        assert calls[1][1:3] == (rows, rows)
        assert calls[2][1] is calls[1][3]


def test_chunks_measure_into_one_kept_block(monkeypatch):
    # Each chunk synthesizes into this thread's kept (B, m) block and omp
    # takes it as it is: two calls in a fresh thread reuse one block, and no
    # omp result is a view of it.
    d = build_identity_hadamard(64)
    want = count_successes(d, 2, 0.5, 1.0, 0.05, 40, 3)
    solved = []
    real = montecarlo.omp

    def solving(d, y, tau):
        solved.append((y, real(d, y, tau)))
        return solved[-1][1]

    def twice():
        counts = [count_successes(d, 2, 0.5, 1.0, 0.05, 40, 3) for _ in range(2)]
        return counts, omp_module._kept.observed

    monkeypatch.setattr(montecarlo, "omp", solving)
    with ThreadPoolExecutor(1) as fresh:
        counts, block = fresh.submit(twice).result(timeout=60)
    assert counts == [want, want] and all(type(c) is int for c in counts)
    assert len(solved) == 10
    for y, result in solved:
        assert y.shape == (8, d.m) and y.base is block
        for field in (result.support, result.coefficients, result.residual_norms):
            assert not np.shares_memory(field, block)


@pytest.mark.parametrize("rows", [1, 7, 13, 337])
def test_chunks_fit_one_batch_at_any_trial_count(monkeypatch, rows):
    # Each chunk is a whole omp call, so no chunk may exceed the rows that fit
    # the cap; the edges are integer arithmetic, exact at any trial count.
    d = build_identity_hadamard(64)
    monkeypatch.setattr(omp_module, "_BATCH_BYTES", rows * 8 * (3 * d.n + 2 * 2))
    for trials in [*range(1, 400), rows * 997 + 3, rows * 5003 - 1]:
        chunks = montecarlo._chunks(d, 2, trials)
        assert len(chunks) == max(min(montecarlo._CHUNKS, trials), -(-trials // rows))
        assert [lo for lo, _ in chunks] == [1] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == trials + 1
        assert max(hi - lo for lo, hi in chunks) <= rows
        assert min(hi - lo for lo, hi in chunks) >= max(hi - lo for lo, hi in chunks) - 1


def test_config_stores_any_sweep_values_as_a_tuple():
    # A generator once passed validation and then broke run_sweep with a
    # TypeError, and a list left the frozen config unhashable.
    base = dict(
        m=32, sweep="tau", tau=1, s_min=0.5, s_max=1.0, sigma=0.02, trials=20,
        beta_draws=50, master_seed=4,
    )
    ref = ExperimentConfig(sweep_values=(1, 2, 4), **base)
    expected = run_sweep(ref)
    for values in ((v for v in (1, 2, 4)), [1, 2, 4], np.array([1, 2, 4])):
        cfg = ExperimentConfig(sweep_values=values, **base)
        assert isinstance(cfg.sweep_values, tuple)
        assert cfg == ref and hash(cfg) == hash(ref)
        assert run_sweep(cfg) == expected


def test_count_successes_memory_is_bounded():
    # Trials are drawn and solved a chunk of 20 at a time, so the peak does
    # not grow with the trial count: 1000 measurements at m=1024 alone would
    # take 8 MB.
    d = build_identity_hadamard(1024)
    d.correlate_all(np.zeros(1024))  # build the Kronecker factors outside the trace
    tracemalloc.start()
    try:
        successes = count_successes(d, 20, 0.5, 1.0, 1e-3, 1000, 123, param_value=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert successes == REGRESSION_SUCCESSES
    assert peak < 3 * 2**20


# Run in a fresh interpreter, whose C heap has no history: 2100 trials at
# m = 1024, tau = 2 are 100 chunks of 21 rows, each synthesized in one stack.
CHUNK_FAULTS = """
import json, resource
from ompbounds import build_identity_hadamard, count_successes

d = build_identity_hadamard(1024)
count_successes(d, 2, 0.3, 1.0, 0.01, 2100, 7)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
count_successes(d, 2, 0.3, 1.0, 0.01, 2100, 7)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
def test_chunks_of_equal_rows_reuse_their_pages():
    # With the stack of coefficients allocated per call, and every trial's
    # signal kept until the stack was built, a chunk's fresh arrays outgrew
    # what the C heap keeps between calls: 26 200 minor faults for these
    # 2100 trials, about 12 a trial, against a few hundred solving each
    # trial's measurement alone.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHUNK_FAULTS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) < 2100


# Run in a fresh interpreter: the calculators, the beta pass and a serial
# sweep load no multiprocessing; a two-worker sweep, run afterwards,
# imports the pool and counts the same successes.
COLD_START = """
import json, sys
from ompbounds import ExperimentConfig, RngStream, build_identity_hadamard, run_sweep
from ompbounds import unit_correlation_max
from ompbounds.cli import main

assert main(["coherence", "-m", "64"]) == 0
assert main(["bound", "--n", "128", "--tau", "2", "--mu-max", "0.125", "--s-min", "0.5",
             "--s-max", "1", "--sigma", "0.01", "--beta", "0.05"]) == 0
assert main(["beta", "-m", "64", "--sigma", "0.01", "--draws", "16", "--seed", "7"]) == 0
unit_correlation_max(build_identity_hadamard(64), 16, RngStream(0, 0))
cfg = ExperimentConfig(m=64, sweep="tau", sweep_values=(2, 16), tau=2, s_min=0.5, s_max=1.0,
                       sigma=0.01, trials=40, beta_draws=16)
out = {"serial": [r.successes for r in run_sweep(cfg, workers=1)]}
out["loaded"] = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
out["parallel"] = [r.successes for r in run_sweep(cfg, workers=2)]
print(json.dumps(out))
"""


def test_serial_process_never_imports_the_process_pool():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["loaded"] == []
    assert out["serial"] == [40, 35]
    assert out["parallel"] == out["serial"]
