"""Dictionaries and mutual coherence.

Builds the identity-Hadamard dictionary at a few sizes, shows that its
mutual coherence is exactly 1/sqrt(m), and demonstrates that the fast
Walsh-Hadamard correlation path agrees with a dense matrix product while
being usable at sizes where the dense matrix would be wasteful.
"""

import math
import time

import numpy as np

from ompbounds import build_identity_hadamard, fwht

print("Identity-Hadamard dictionaries A = [I, H/sqrt(m)]  (n = 2m atoms)")
print(f"{'m':>6} {'n':>6} {'mu_max':>10} {'1/sqrt(m)':>10}")
for m in (64, 256, 1024, 2048, 4096):
    d = build_identity_hadamard(m)
    print(f"{d.m:>6} {d.n:>6} {d.mutual_coherence():>10.6f} {1/math.sqrt(m):>10.6f}")

# Lower coherence = more atoms can be told apart; it shrinks like 1/sqrt(m).

print("\nFast correlation vs dense product (m=1024):")
d = build_identity_hadamard(1024)
r = np.random.default_rng(0).normal(size=d.m)
d.correlate_all(r)  # the first call builds the cached Kronecker factors

t0 = time.perf_counter()
fast = d.correlate_all(r)
t_fast = time.perf_counter() - t0

dense = d.to_dense()
t0 = time.perf_counter()
slow = dense.T @ r
t_dense = time.perf_counter() - t0

print(f"  max |fast - dense| = {np.abs(fast - slow).max():.3e}")
print(f"  fast path {t_fast*1e6:.0f} us vs dense matvec {t_dense*1e6:.0f} us")

print("\nThe transform is an involution up to scale: fwht(fwht(x)) = m*x")
x = np.random.default_rng(1).normal(size=8)
print("  x        :", np.round(x, 4))
print("  back/m   :", np.round(fwht(fwht(x)) / 8, 4))
