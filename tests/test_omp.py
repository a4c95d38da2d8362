import copy
import math
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompbounds import (
    Dictionary,
    RngStream,
    SingularSystemError,
    SparseSignal,
    build_identity_hadamard,
    draw_sparse_signal,
    omp,
    support_match,
    synthesize,
)
from ompbounds.montecarlo import _point_master_seed
from oracles import DenseDictionary, exhaustive_l0, omp_direct, omp_qr

# ompbounds.omp is the solver function; the module holds the workspace.
omp_module = sys.modules["ompbounds.omp"]

# Largest tau with (2 tau - 1) mu_max < 1, the noiseless exact-recovery regime.
NOISELESS_TAU = {8: 1, 16: 2, 32: 3, 64: 4}


def _planted(m, tau, seed, sigma, s_min=0.5, s_max=1.0):
    d = build_identity_hadamard(m)
    g = RngStream(seed, 1).generator()
    s = draw_sparse_signal(g, d.n, tau, s_min, s_max)
    meas = synthesize(d, s, sigma, g)
    return d, s, meas


def test_single_atom_noiseless():
    d = build_identity_hadamard(8)
    y = 0.7 * d.column(11)
    r = omp(d, y, 1)
    assert r.support.tolist() == [11]
    assert r.coefficients == pytest.approx([0.7], abs=1e-14)
    assert r.residual_norms[-1] < 1e-14
    assert len(r.support) == 1


def test_planted_pair_matches_oracle():
    d = build_identity_hadamard(8)
    values = np.zeros(16)
    values[2], values[11] = 0.8, -0.6
    s = SparseSignal(values=values, support=np.array([2, 11]), s_min=0.5, s_max=1.0)
    y = d.matvec(values)
    r = omp(d, y, 2)
    assert support_match(r.support, [2, 11])
    assert r.residual_norms[-1] < 1e-10
    oracle = exhaustive_l0(d, y, 2)
    assert support_match(oracle.support, r.support)


def test_zero_measurement_defined_result():
    d = build_identity_hadamard(8)
    r = omp(d, np.zeros(8), 1)
    assert r.support.tolist() == [0]
    assert r.coefficients == pytest.approx([0.0], abs=0)
    assert r.residual_norms[-1] == 0.0


@pytest.mark.parametrize("tau", [0, -1, 9])
def test_tau_out_of_range(tau):
    d = build_identity_hadamard(8)
    with pytest.raises(ValueError):
        omp(d, np.zeros(8), tau)


def test_measurement_shape_checked():
    d = build_identity_hadamard(8)
    with pytest.raises(ValueError):
        omp(d, np.zeros(7), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_measurement_rejected(bad):
    y = np.ones(16)
    y[5] = bad
    with pytest.raises(ValueError, match="measurement y must be finite"):
        omp(build_identity_hadamard(16), y, 3)


@pytest.mark.parametrize("tau", [2.5, 3.0, True, "3"], ids=repr)
def test_tau_must_be_an_integer(tau):
    with pytest.raises(ValueError, match="tau must be an integer"):
        omp(build_identity_hadamard(8), np.ones(8), tau)


def test_numpy_integer_tau_accepted():
    y = np.zeros(8)
    y[[7, 6]] = [3.0, 2.0]
    assert omp(build_identity_hadamard(8), y, np.int64(2)).support.tolist() == [7, 6]


# The oracle's relative argmax margin below which a pick counts as a tie
# that rounding may break either way.
NEAR_TIE = 1e-9


def _assert_agrees_with_qr_oracle(d, y, tau):
    """``omp`` selects as the QR oracle does until the oracle meets a near-tie.

    Picks are compared up to the oracle's first iteration whose relative
    argmax margin is below ``NEAR_TIE`` or whose residual has vanished
    (``<= 1e-12 ||y||``; a singular pick comes only from such a residual).
    Over those iterations the coefficients and residual norms agree within
    ``1e-12 ||y||``.
    """
    trace = []
    try:
        omp_qr(d, y, tau, trace)
    except SingularSystemError:
        pass
    scale = float(np.linalg.norm(y))
    clear = [margin >= NEAR_TIE and norm > 1e-12 * scale for margin, norm in trace]
    k = clear.index(False) if False in clear else tau
    if k == 0:
        return
    want, got = omp_qr(d, y, k), omp(d, y, k)
    assert np.array_equal(got.support, want.support)
    np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(got.residual_norms, want.residual_norms, rtol=0, atol=1e-12 * scale)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda e: st.tuples(st.just(2**e), st.integers(min_value=1, max_value=2**e))
    ),
    st.sampled_from([0.0, 1e-3, 1.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_omp_agrees_with_qr_oracle(m_tau, sigma, seed, zero):
    m, tau = m_tau
    if zero:
        d, y = build_identity_hadamard(m), np.zeros(m)
    else:
        d, _, meas = _planted(m, tau, seed, sigma)
        y = meas.observed
    _assert_agrees_with_qr_oracle(d, y, tau)


# Seeds per tau at m=1024: fewer at tau=200, where omp_qr is slowest.
SEEDS_AT_M1024 = {10: 6, 30: 6, 60: 6, 200: 2}


@pytest.mark.parametrize("tau", sorted(SEEDS_AT_M1024))
def test_omp_agrees_with_qr_oracle_at_m1024(tau):
    for seed in range(SEEDS_AT_M1024[tau]):
        d, _, meas = _planted(1024, tau, seed, sigma=(0.0, 1e-3, 0.1)[seed % 3])
        _assert_agrees_with_qr_oracle(d, meas.observed, tau)


def test_omp_agrees_with_qr_oracle_at_m4096():
    # A 300-atom fit, the largest here, on the way to the m=4096 transition
    # (tau 500..1000), where the factored inverse Gram sums the most terms.
    d, _, meas = _planted(4096, 300, 0, sigma=1e-3)
    _assert_agrees_with_qr_oracle(d, meas.observed, 300)


def _trial_rows(d, tau, sigma, rows):
    """The measurements of a sweep's first point's trials ``1..rows``, one a row."""
    ys = []
    for t in range(1, rows + 1):
        g = RngStream(_point_master_seed(0, 0), t).generator()
        s = draw_sparse_signal(g, d.n, tau, 0.5, 1.0)
        ys.append(synthesize(d, s, sigma, g).observed)
    return np.array(ys)


def _solved_alone(d, y, tau):
    """``omp`` on one measurement, or the iteration at which it is singular."""
    try:
        return omp(d, y, tau)
    except SingularSystemError as err:
        return err.iteration


def _assert_rows_solved_alone(d, ys, tau):
    """Each row of a batch gives the bits it gives alone, or the same singular iteration.

    A batch names only its lowest singular row, so the rows before it are
    solved again as one batch, and the rows after it as the next.
    """
    alone = [_solved_alone(d, y, tau) for y in ys]
    start = 0
    while start < len(ys):
        try:
            batch, stop = omp(d, ys[start:], tau), len(ys)
        except SingularSystemError as err:
            stop = start + err.row
            assert alone[stop] == err.iteration
            batch = omp(d, ys[start:stop], tau) if stop > start else None
        for row, want in enumerate(alone[start:stop]):
            assert not isinstance(want, int), f"row {start + row} is singular alone"
            for field in ("support", "coefficients", "residual_norms"):
                assert np.array_equal(getattr(batch, field)[row], getattr(want, field))
        start = stop + 1


@pytest.mark.parametrize(
    "m,tau,sigma,rows",
    [(4, 4, 0.0, 40), (64, 8, 0.01, 13), (1024, 30, 1e-3, 9), (4096, 300, 1e-3, 3)],
    ids=["m4_singular", "m64", "m1024", "m4096"],
)
def test_batched_rows_bit_identical_to_rows_solved_alone(m, tau, sigma, rows):
    # At m = 4 and sigma = 0 the fourth pick comes from rounding noise, and
    # several of these rows are singular there (trial 18 first).
    d = build_identity_hadamard(m)
    ys = _trial_rows(d, tau, sigma, rows)
    if m == 4:
        assert isinstance(_solved_alone(d, ys[17], tau), int)
    _assert_rows_solved_alone(d, ys, tau)


def _in_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, which starts with no ``omp`` workspace."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result(timeout=60)


def _assert_same_bits(got, want):
    for field in ("support", "coefficients", "residual_norms"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def _workspace_calls():
    """``(d, y, tau)`` over m in {16, 64}, B in {1, 3, 21} and mixed tau; some ``y`` is ``(m,)``."""
    rng = np.random.default_rng(5)
    calls = []
    for m in (16, 64):
        d = build_identity_hadamard(m)
        for batch in (1, 3, 21):
            for tau in (1, 3, m // 2):
                y = rng.normal(size=(batch, m))
                calls.append((d, y[0] if batch == 1 and tau == 3 else y, tau))
    return calls


def test_interleaved_calls_equal_calls_in_a_fresh_thread():
    # The workspace grows, is reused by smaller calls and outlives each call;
    # no order of calls may change a result.
    calls = _workspace_calls()
    fresh = [_in_fresh_thread(omp, *call) for call in calls]
    order = list(range(len(calls)))
    for permuted in (order, order[::-1], order[::2] + order[1::2]):
        for i in permuted:
            _assert_same_bits(omp(*calls[i]), fresh[i])


def test_call_after_a_failed_call_equals_a_clean_solve(monkeypatch):
    # A failed call leaves scattered coefficients and rows of U in the
    # workspace; the next call of the same shape must not see them.
    d4 = build_identity_hadamard(4)
    ys = _trial_rows(d4, 4, 0.0, 40)
    clean = _in_fresh_thread(omp, d4, ys[:17], 4)
    with pytest.raises(SingularSystemError):
        omp(d4, ys, 4)
    _assert_same_bits(omp(d4, ys[:17], 4), clean)

    d = build_identity_hadamard(64)
    y = _trial_rows(d, 6, 0.01, 13)
    clean = _in_fresh_thread(omp, d, y, 6)
    real_apply = Dictionary.apply
    applied = []

    def failing(self, s, out=None):
        applied.append(1)
        if len(applied) == 4:
            raise KeyboardInterrupt
        return real_apply(self, s, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(Dictionary, "apply", failing)
        with pytest.raises(KeyboardInterrupt):
            omp(d, y, 6)
    assert len(applied) == 4
    _assert_same_bits(omp(d, y, 6), clean)


def test_results_do_not_share_the_workspace():
    calls = _workspace_calls()
    earlier = [omp(*call) for call in calls]
    kept = [copy.deepcopy(r) for r in earlier]
    for previous, call in zip(earlier, calls[1:] + calls[:1]):
        later = omp(*call)
        for field in ("support", "coefficients", "residual_norms"):
            a, b = getattr(previous, field), getattr(later, field)
            assert not np.shares_memory(a, b), field
            assert not np.shares_memory(b, omp_module._workspace.buf), field
    for r, copied in zip(earlier, kept):
        _assert_same_bits(r, copied)


def test_two_threads_each_keep_their_own_workspace():
    # Each thread cycles through its own batches of other shapes than the
    # other's, so a workspace shared between them would mix their rows.
    plans = []
    for m, tau, sigma in ((16, 3, 0.01), (64, 5, 0.02)):
        d = build_identity_hadamard(m)
        ys = _trial_rows(d, tau, sigma, 21)
        plans.append([(d, ys[:rows], tau) for rows in (21, 1, 8, 13)])
    fresh = [[_in_fresh_thread(omp, *call) for call in plan] for plan in plans]
    barrier = threading.Barrier(len(plans))
    results = [[] for _ in plans]

    def solve(plan, out):
        barrier.wait(timeout=30)
        for i in range(300):
            out.append(omp(*plan[i % len(plan)]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=job) for job in zip(plans, results)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, fresh):
        assert len(got) == 300
        for i, r in enumerate(got):
            _assert_same_bits(r, want[i % len(want)])


@pytest.mark.parametrize("m,tau,rows", [(64, 8, 3000), (1024, 400, 1)], ids=["batch", "one_row"])
def test_a_call_over_the_budget_keeps_nothing(m, tau, rows):
    # A big direct batch, or one row at a large tau, allocates its working
    # arrays for the call alone, as a call did before the workspace.
    d = build_identity_hadamard(m)
    assert 8 * rows * (3 * d.n + tau * tau) > omp_module._BATCH_BYTES
    y = np.random.default_rng(9).normal(size=(rows, m))

    def traced():
        tracemalloc.start()
        try:
            omp(d, y, tau)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    current, peak = _in_fresh_thread(traced)
    assert peak > omp_module._BATCH_BYTES
    assert current <= omp_module._BATCH_BYTES


def test_batch_shape_follows_the_measurements():
    d, _, meas = _planted(64, 5, 3, sigma=0.01)
    one = omp(d, meas.observed, 5)
    batch = omp(d, meas.observed[None, :], 5)
    assert one.support.shape == one.coefficients.shape == one.residual_norms.shape == (5,)
    assert batch.support.shape == batch.coefficients.shape == batch.residual_norms.shape == (1, 5)
    assert np.array_equal(batch.support[0], one.support)
    for bad in (np.zeros((0, 64)), np.zeros((2, 2, 64)), np.zeros((2, 63))):
        with pytest.raises(ValueError, match="measurement shape"):
            omp(d, bad, 5)


def test_omp_call_structure(monkeypatch):
    d = build_identity_hadamard(64)
    values = np.zeros(d.n)
    values[[3, 10, 70, 100]] = [0.9, -0.6, 0.7, -1.0]
    y = d.matvec(values)
    calls = Counter()

    def counted(name):
        original = getattr(Dictionary, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in ("correlate_all", "matvec", "column"):
        monkeypatch.setattr(Dictionary, name, counted(name))
    r = omp(d, y, 4)
    assert sorted(r.support.tolist()) == [3, 10, 70, 100]
    # One correlation per iteration, the first on y; no atom is built.
    assert calls == Counter(correlate_all=4)


def test_residual_monotone_and_orthogonal():
    for seed in range(10):
        d, s, meas = _planted(16, 5, seed, sigma=0.05)
        r = omp(d, meas.observed, 5)
        diffs = np.diff(np.concatenate([[np.linalg.norm(meas.observed)], r.residual_norms]))
        assert (diffs <= 1e-12).all()
        residual = meas.observed - sum(
            c * d.column(j) for c, j in zip(r.coefficients, r.support)
        )
        for j in r.support:
            assert abs(d.column(j) @ residual) < 1e-8
        assert np.linalg.norm(residual) == pytest.approx(r.residual_norms[-1], abs=1e-10)


def test_incremental_agrees_with_direct():
    for seed in range(10):
        d, s, meas = _planted(16, 6, 100 + seed, sigma=0.1)
        fast = omp(d, meas.observed, 6)
        slow = omp_direct(d, meas.observed, 6)
        assert fast.support.tolist() == slow.support.tolist()
        np.testing.assert_allclose(fast.coefficients, slow.coefficients, atol=1e-10)
        assert fast.residual_norms[-1] == pytest.approx(slow.residual_norms[-1], abs=1e-10)


def test_permutation_equivariance():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(12, 20))
    d = DenseDictionary(a)
    y = rng.normal(size=12)
    base = omp(d, y, 4)
    perm = rng.permutation(20)
    d_perm = DenseDictionary(a[:, perm])
    permuted = omp(d_perm, y, 4)
    # Column j of the original sits at position inv[j] after permuting.
    inv = np.argsort(perm)
    assert permuted.support.tolist() == [int(inv[j]) for j in base.support]
    np.testing.assert_allclose(permuted.coefficients, base.coefficients, atol=1e-10)


@pytest.mark.parametrize("m,tau", sorted(NOISELESS_TAU.items()))
def test_noiseless_recovery_under_coherence_condition(m, tau):
    assert (2 * tau - 1) / math.sqrt(m) < 1.0
    for seed in range(50):
        d, s, meas = _planted(m, tau, 1000 * m + seed, sigma=0.0)
        r = omp(d, meas.observed, tau)
        assert support_match(r.support, s.support), (m, tau, seed)
        assert r.residual_norms[-1] < 1e-10


def test_singular_active_set_reports_iteration():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    d = DenseDictionary(a)
    with pytest.raises(SingularSystemError) as exc:
        omp(d, np.array([1.0, 0.0]), 2)
    assert exc.value.iteration == 2


def test_direct_method_detects_singular_set_too():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    d = DenseDictionary(a)
    with pytest.raises(SingularSystemError):
        omp_direct(d, np.array([1.0, 0.0]), 2)


def test_exhaustive_planted_noiseless():
    d, s, meas = _planted(8, 2, 7, sigma=0.0)
    r = exhaustive_l0(d, meas.observed, 2)
    assert support_match(r.support, s.support)
    assert r.residual_norms[-1] < 1e-12


def test_exhaustive_full_rank_tie_break():
    # tau = m: the identity block attains zero residual first in lex order.
    d = build_identity_hadamard(4)
    y = np.array([0.3, -0.2, 0.9, 0.1])
    r = exhaustive_l0(d, y, 4)
    assert r.support.tolist() == [0, 1, 2, 3]
    assert r.residual_norms[-1] < 1e-12


def test_omp_agrees_with_exhaustive_when_oracle_recovers():
    d = build_identity_hadamard(8)
    agree = recovered = 0
    for t in range(100):
        g = RngStream(31, t).generator()
        s = draw_sparse_signal(g, d.n, 2, 0.5, 1.0)
        meas = synthesize(d, s, 0.01, g)
        oracle = exhaustive_l0(d, meas.observed, 2)
        if support_match(oracle.support, s.support):
            recovered += 1
            if support_match(omp(d, meas.observed, 2).support, oracle.support):
                agree += 1
    assert recovered > 0
    assert agree == recovered


def test_support_match_basics():
    assert support_match([3, 1], [1, 3])
    assert not support_match([1, 2], [1, 3])
    assert support_match([], [])


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=50), unique=True), st.randoms())
def test_support_match_order_invariant(indices, pyrandom):
    shuffled = list(indices)
    pyrandom.shuffle(shuffled)
    assert support_match(shuffled, indices)
