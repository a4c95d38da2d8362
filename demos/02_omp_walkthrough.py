"""One OMP recovery, step by step.

Plants a 3-sparse signal in a small identity-Hadamard dictionary, adds a
little noise, and walks through what the solver reports: the selection
order, the least-squares coefficients, and the shrinking residual.
"""

import copy

import numpy as np

from ompbounds import (
    RngStream,
    build_identity_hadamard,
    draw_sparse_signal,
    omp,
    support_match,
    synthesize,
)

m, tau, sigma = 16, 3, 0.02
d = build_identity_hadamard(m)
g = RngStream(7, 1).generator()

signal = draw_sparse_signal(g, d.n, tau, s_min=0.5, s_max=1.0)
# synthesize draws the noise next from g: a copy taken now replays it.
noise = sigma * copy.deepcopy(g).standard_normal(d.m)
y = synthesize(d, signal, sigma, g)

print(f"dictionary: m={d.m}, n={d.n}, mu_max={d.mutual_coherence():.4f}")
print(f"planted support : {sorted(signal.support.tolist())}")
print(f"planted values  : {np.round(signal.values[signal.support], 4).tolist()}")
print(f"noise level     : sigma={sigma}, noise norm = {np.linalg.norm(noise):.5f}")

result = omp(d, y, tau)
print("\nOMP run (exactly tau iterations, least squares re-solved each time):")
print(f"  selection order : {result.support.tolist()}")
for k, rn in enumerate(result.residual_norms, start=1):
    print(f"  after iteration {k}: residual norm = {rn:.5f}")
print(f"  coefficients    : {np.round(result.coefficients, 4).tolist()}")
print(f"  support correct : {support_match(result.support, signal.support)}")
