"""Per-layer spans for the benchmark, taken without touching the library.

The library looks its collaborators up by name at call time: ``montecarlo``
binds ``omp``, ``support_match``, ``draw_sparse_signal``, ``synthesize``,
``unit_correlation_max``, ``thm2_bound`` and the thm1 helpers at import,
``cli`` binds ``run_sweep``, and ``Dictionary``'s methods call the
module-global ``fwht``.  A wrapper installed anywhere else would never run,
so :func:`traced` replaces each callable at the name its caller looks up and
restores the originals on exit.

Spans are aggregated as they close, so memory stays flat however many
trials run: per span name the call count, busy time (span duration) and self
time (busy time minus the direct child spans).  Work counters are added at
the same boundaries.  Tracing is single-process: spans opened in worker
processes are lost, so traced runs are serial.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from ompbounds import bounds, cli, dictionary, montecarlo, signals

# Library default batch of unit_correlation_max; one correlate_all call each.
BETA_BATCH = 256


def _count_fwht(counts, args, kwargs, result):
    shape = np.shape(args[0])
    n = shape[-1]
    vectors = math.prod(shape[:-1])
    stages = n.bit_length() - 1
    counts["dictionary.fwht.vectors"] += vectors
    # One add or subtract per element per butterfly stage.
    counts["dictionary.fwht.flops_computed"] += vectors * n * stages
    # The input copy plus one read and one write of every float64 per stage.
    counts["dictionary.fwht.bytes_computed"] += vectors * n * 8 * 2 * (stages + 1)


def _count_omp(counts, args, kwargs, result):
    counts["omp.iterations"] += int(args[2] if len(args) > 2 else kwargs["tau"])


def _count_match(counts, args, kwargs, result):
    counts["omp.matches"] += bool(result)


def _count_draws(counts, args, kwargs, result):
    draws = int(args[1] if len(args) > 1 else kwargs["draws"])
    counts["bounds.draws"] += draws
    counts["bounds.beta_batches"] += -(-draws // kwargs.get("batch", BETA_BATCH))


# (owner, attribute, span name, work counter): owner is where the caller
# looks the name up.
PATCHES = (
    (dictionary, "fwht", "dictionary.fwht", _count_fwht),
    (dictionary.Dictionary, "correlate_all", "dictionary.correlate_all", None),
    (dictionary.Dictionary, "column", "dictionary.column", None),
    (dictionary.Dictionary, "matvec", "dictionary.matvec", None),
    (signals.RngStream, "generator", "signals.generator", None),
    (montecarlo, "draw_sparse_signal", "signals.draw_sparse_signal", None),
    (montecarlo, "synthesize", "signals.synthesize", None),
    (montecarlo, "omp", "omp.omp", _count_omp),
    (montecarlo, "support_match", "omp.support_match", _count_match),
    (montecarlo, "unit_correlation_max", "bounds.unit_correlation_max", _count_draws),
    (bounds, "unit_correlation_max", "bounds.unit_correlation_max", _count_draws),
    (montecarlo, "thm2_bound", "bounds.thm2_bound", None),
    (montecarlo, "thm1_condition", "bounds.thm1", None),
    (montecarlo, "alpha_from_beta", "bounds.thm1", None),
    (montecarlo, "thm1_probability", "bounds.thm1", None),
    (montecarlo, "run_point", "montecarlo.run_point", None),
    (montecarlo, "run_sweep", "montecarlo.run_sweep", None),
    (cli, "run_sweep", "montecarlo.run_sweep", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span aggregates and work counters of one traced pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.errors = Counter()  # span name -> calls that raised
        self.counts = Counter()
        self._open: list[float] = []  # child time of each open span

    def wrap(self, name, fn, count=None):
        def span(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                busy = time.perf_counter() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += busy
                agg = self.spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += busy
                agg[2] += busy - child
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return span

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def busy(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]


@contextmanager
def traced():
    """Install span wrappers on every patched name; yield the :class:`Tracer`."""
    tracer = Tracer()
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in PATCHES]
    try:
        for owner, attr, name, count in PATCHES:
            setattr(owner, attr, tracer.wrap(name, vars(owner)[attr], count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
