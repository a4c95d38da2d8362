import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest

from ompbounds import (
    RngStream,
    SparseSignal,
    build_identity_hadamard,
    draw_sparse_signal,
    draw_support,
    synthesize,
)

# ompbounds.signals holds each thread's kept coefficient stack.
signals_module = sys.modules["ompbounds.signals"]


def _zero_signal(n: int) -> SparseSignal:
    return SparseSignal(
        values=np.zeros(n), support=np.array([], dtype=np.int64), s_min=1.0, s_max=1.0
    )


def test_stream_reproducibility_bit_for_bit():
    d = build_identity_hadamard(16)
    out = []
    for _ in range(2):
        g = RngStream(77, 5).generator()
        s = draw_sparse_signal(g, d.n, 3, 0.5, 1.0)
        m = synthesize(d, s, 0.1, g)
        out.append((s.values.copy(), s.support.copy(), m.observed.copy(), m.noise.copy()))
    np.testing.assert_array_equal(out[0][0], out[1][0])
    np.testing.assert_array_equal(out[0][1], out[1][1])
    np.testing.assert_array_equal(out[0][2], out[1][2])
    np.testing.assert_array_equal(out[0][3], out[1][3])


def test_distinct_streams_differ():
    a = draw_support(RngStream(77, 1).generator(), 100, 10)
    b = draw_support(RngStream(77, 2).generator(), 100, 10)
    c = draw_support(RngStream(78, 1).generator(), 100, 10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_support_edges():
    assert draw_support(RngStream(0, 0).generator(), 5, 0).size == 0
    full = draw_support(RngStream(0, 0).generator(), 5, 5)
    assert sorted(full.tolist()) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        draw_support(RngStream(0, 0).generator(), 5, 6)


def test_draw_support_uniform_over_pairs():
    # n=6, tau=2: 15 unordered pairs, each should appear with freq 1/15 +- 0.01.
    n_draws = 60_000
    g = RngStream(2024, 3).generator()
    counts = {frozenset(pair): 0 for pair in combinations(range(6), 2)}
    for _ in range(n_draws):
        counts[frozenset(draw_support(g, 6, 2).tolist())] += 1
    for pair, cnt in counts.items():
        assert abs(cnt / n_draws - 1 / 15) < 0.01, pair


def test_signal_zero_sparsity():
    s = draw_sparse_signal(RngStream(1, 1).generator(), 10, 0, 0.5, 1.0)
    assert s.support.size == 0 and not s.values.any()


def test_signal_degenerate_interval_gives_unit_magnitudes():
    s = draw_sparse_signal(RngStream(1, 2).generator(), 64, 8, 1.0, 1.0)
    np.testing.assert_array_equal(np.abs(s.values[s.support]), np.ones(8))


def test_signal_moments():
    # 1e5 nonzeros: mean magnitude of U[0.5, 1] is 0.75; signs are centered.
    g = RngStream(5, 0).generator()
    mags, signs = [], []
    for _ in range(1000):
        s = draw_sparse_signal(g, 200, 100, 0.5, 1.0)
        nz = s.values[s.support]
        mags.append(np.abs(nz))
        signs.append(np.sign(nz))
    mags, signs = np.concatenate(mags), np.concatenate(signs)
    assert mags.size == 100_000
    assert abs(mags.mean() - 0.75) < 0.005
    assert abs(signs.mean()) < 0.01


def test_signal_dynamic_range_always_respected():
    g = RngStream(6, 0).generator()
    for _ in range(50):
        s = draw_sparse_signal(g, 32, 5, 0.25, 0.9)
        nz = np.abs(s.values[s.support])
        assert nz.min() >= 0.25 and nz.max() <= 0.9
        off = np.delete(s.values, s.support)
        assert not off.any()


@pytest.mark.parametrize(
    "n,tau,s_min,s_max",
    [(2, 1, 1.0, 1.0), (8, 8, 0.5, 1.0), (64, 5, 1e-3, 1e3), (2048, 60, 0.5, 1.0)],
)
def test_drawn_signals_pass_the_public_validator(n, tau, s_min, s_max):
    # draw_sparse_signal skips SparseSignal's checks; rebuilding each drawn
    # signal through the public constructor runs them.
    g = RngStream(8, n).generator()
    for _ in range(100):
        s = draw_sparse_signal(g, n, tau, s_min, s_max)
        assert s.support.size == tau
        SparseSignal(s.values, s.support, s.s_min, s.s_max)  # raises if a check fails


@pytest.mark.parametrize(
    "s_min,s_max",
    [(0.0, 1.0), (-0.5, 1.0), (2.0, 1.0), (0.5, math.inf), (math.nan, 1.0)],
)
def test_signal_rejects_bad_range(s_min, s_max):
    # An infinite s_max passes the range check; unchecked, the draw overflows
    # inside numpy and a hand-built signal is accepted.
    with pytest.raises(ValueError):
        draw_sparse_signal(RngStream(0, 0).generator(), 10, 2, s_min, s_max)
    with pytest.raises(ValueError):
        SparseSignal(
            values=np.zeros(10), support=np.array([], dtype=np.int64), s_min=s_min, s_max=s_max
        )


@pytest.mark.parametrize(
    "support",
    [np.array([5]), np.array([0.0, 1.0]), [0, 1], np.array([[0], [1]])],
    ids=["out_of_range", "float_array", "list", "two_d"],
)
def test_signal_rejects_bad_support(support):
    # Each once raised numpy's IndexError, an AttributeError or a TypeError
    # that did not name the support.
    shown = " ".join(repr(support).split())
    message = f"support must be a 1-D integer array of indices in [0, 4), got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SparseSignal(values=np.zeros(4), support=support, s_min=0.5, s_max=1.0)


def test_synthesize_noiseless_identity_column():
    d = build_identity_hadamard(4)
    values = np.zeros(8)
    values[0] = 0.7
    s = SparseSignal(values=values, support=np.array([0]), s_min=0.7, s_max=0.7)
    m = synthesize(d, s, 0.0, RngStream(0, 1).generator())
    np.testing.assert_array_equal(m.observed, [0.7, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(m.noise, np.zeros(4))


def test_synthesize_noise_variance():
    d = build_identity_hadamard(128)
    g = RngStream(11, 0).generator()
    zero = _zero_signal(d.n)
    samples = np.concatenate(
        [synthesize(d, zero, 1.0, g).noise for _ in range(800)]
    )
    assert samples.size >= 100_000
    assert abs(samples.var() - 1.0) < 0.02
    np.testing.assert_array_equal(
        synthesize(d, zero, 0.0, RngStream(11, 1).generator()).observed, np.zeros(d.m)
    )


def test_noise_scaling_is_exact():
    d = build_identity_hadamard(32)
    zero = _zero_signal(d.n)
    w1 = synthesize(d, zero, 0.01, RngStream(3, 9).generator()).noise
    w2 = synthesize(d, zero, 0.02, RngStream(3, 9).generator()).noise
    np.testing.assert_array_equal(w2, 2.0 * w1)


def test_synthesize_dimension_mismatch():
    d = build_identity_hadamard(8)
    s = draw_sparse_signal(RngStream(0, 0).generator(), 10, 2, 0.5, 1.0)
    with pytest.raises(ValueError):
        synthesize(d, s, 0.1, RngStream(0, 1).generator())


def test_measurement_identity():
    d = build_identity_hadamard(16)
    g = RngStream(4, 2).generator()
    s = draw_sparse_signal(g, d.n, 4, 0.5, 1.0)
    m = synthesize(d, s, 0.05, g)
    np.testing.assert_array_equal(m.observed, d.matvec(s.values) + m.noise)


@pytest.mark.parametrize("batch", [1, 5, 21])
@pytest.mark.parametrize("m", [4, 64, 1024])
def test_batched_synthesize_rows_equal_single_trials(m, batch):
    # Each trial draws its signal and then its noise from its own stream;
    # row i of the stacked measurement has the bits of trial i alone, and
    # every stream is left where the single path leaves it.
    d = build_identity_hadamard(m)
    tau = min(3, m)

    def trial_streams():
        streams = [RngStream(9, t).generator() for t in range(1, batch + 1)]
        return streams, [draw_sparse_signal(g, d.n, tau, 0.5, 1.0) for g in streams]

    streams, signals = trial_streams()
    got = synthesize(d, signals, 0.05, streams)
    assert got.observed.shape == got.noise.shape == (batch, m)
    alone_streams, alone_signals = trial_streams()
    for row, (s, g) in enumerate(zip(alone_signals, alone_streams)):
        want = synthesize(d, s, 0.05, g)
        assert want.observed.shape == want.noise.shape == (m,)
        assert np.array_equal(got.observed[row], want.observed)
        assert np.array_equal(got.noise[row], want.noise)
    for g, g_alone in zip(streams, alone_streams):
        assert np.array_equal(g.standard_normal(4), g_alone.standard_normal(4))


def test_batched_synthesize_refuses_mismatched_counts():
    d = build_identity_hadamard(8)
    streams = [RngStream(0, t).generator() for t in range(3)]
    signals = [draw_sparse_signal(g, d.n, 2, 0.5, 1.0) for g in streams]
    message = "3 signals need as many generators, got 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synthesize(d, signals, 0.1, streams[:2])
    message = "2 signals need as many generators, got 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synthesize(d, signals[:2], 0.1, streams[0])


def test_batched_synthesize_refuses_a_wrong_length_signal():
    d = build_identity_hadamard(8)
    streams = [RngStream(0, t).generator() for t in range(3)]
    signals = [draw_sparse_signal(g, n, 2, 0.5, 1.0) for g, n in zip(streams, (16, 10, 16))]
    message = "signal length 10 != dictionary n=16"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synthesize(d, signals, 0.1, streams)


def _chunk(d, batch, seed=9, tau=3):
    streams = [RngStream(seed, t).generator() for t in range(1, batch + 1)]
    return streams, [draw_sparse_signal(g, d.n, tau, 0.5, 1.0) for g in streams]


def _synthesized(d, batch, seed=9, tau=3):
    streams, signals = _chunk(d, batch, seed, tau)
    return synthesize(d, signals, 0.05, streams)


def test_signals_drawn_as_they_are_stacked_equal_a_list():
    # A sweep chunk hands synthesize a generator that draws each trial's
    # signal when its row is stacked; each stream still draws its signal
    # before its noise.
    d = build_identity_hadamard(64)
    streams, signals = _chunk(d, 7)
    want = synthesize(d, signals, 0.05, streams)
    lazy_streams = [RngStream(9, t).generator() for t in range(1, 8)]
    lazy = (draw_sparse_signal(g, d.n, 3, 0.5, 1.0) for g in lazy_streams)
    got = synthesize(d, lazy, 0.05, lazy_streams)
    assert np.array_equal(got.observed, want.observed)
    assert np.array_equal(got.noise, want.noise)
    message = "8 signals need as many generators, got 7"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synthesize(d, iter(signals + signals[:1]), 0.05, streams)


def test_batched_synthesize_results_own_their_memory():
    # The coefficient stack is kept for the thread's next call; no result
    # may be a view of it, and a later call changes no earlier result.
    d = build_identity_hadamard(64)
    first = _synthesized(d, 5)
    kept = [first.observed.copy(), first.noise.copy()]
    second = _synthesized(d, 3, seed=10)
    buf = signals_module._coefficients.buf
    for a in (first.observed, first.noise):
        assert not np.shares_memory(a, buf)
        assert not any(np.shares_memory(a, b) for b in (second.observed, second.noise))
    assert np.array_equal(first.observed, kept[0]) and np.array_equal(first.noise, kept[1])


def test_call_after_a_refused_call_equals_a_clean_one():
    # A stack refused at its third signal leaves rows behind in the kept
    # buffer; the next call overwrites every row it uses.
    d = build_identity_hadamard(64)
    streams, signals = _chunk(d, 5)
    bad = signals[:2] + [draw_sparse_signal(streams[2], 10, 3, 0.5, 1.0)] + signals[3:]
    with pytest.raises(ValueError, match="^signal length 10 != dictionary n=128$"):
        synthesize(d, bad, 0.05, streams)
    got = _synthesized(d, 5)
    with ThreadPoolExecutor(1) as fresh:
        want = fresh.submit(_synthesized, d, 5).result(timeout=60)
    assert np.array_equal(got.observed, want.observed)
    assert np.array_equal(got.noise, want.noise)


def test_two_threads_each_keep_their_own_stack():
    d = build_identity_hadamard(256)
    plans = [[(b, 100 * k + b) for b in (1, 4, 9, 21)] * 25 for k in (1, 2)]

    def run(plan, barrier=None):
        if barrier is not None:
            barrier.wait(timeout=60)
        out = []
        for batch, seed in plan:
            meas = _synthesized(d, batch, seed)
            out.append((meas.observed, meas.noise))
        return out

    serial = [run(plan) for plan in plans]
    barrier = threading.Barrier(2)
    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(run, plan, barrier) for plan in plans]
        together = [f.result(timeout=120) for f in futures]
    for want, got in zip(serial, together):
        for (wo, wn), (go, gn) in zip(want, got):
            assert np.array_equal(wo, go) and np.array_equal(wn, gn)


def test_a_stack_over_the_budget_is_not_kept():
    # A sweep chunk's stack fits omp's batch budget and is kept; a larger
    # call, such as a direct one on many signals, frees its own.
    d = build_identity_hadamard(1024)

    def kept_after(batch):
        _synthesized(d, batch, tau=2)
        buf = getattr(signals_module._coefficients, "buf", None)
        return None if buf is None else buf.nbytes

    with ThreadPoolExecutor(1) as fresh:
        assert fresh.submit(kept_after, 21).result(timeout=60) == 21 * d.n * 8
    with ThreadPoolExecutor(1) as fresh:
        assert fresh.submit(kept_after, 100).result(timeout=60) is None
