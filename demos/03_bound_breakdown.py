"""The two recovery guarantees, side by side.

Evaluates the sharp-condition guarantee (thm1) and the probabilistic
guarantee (thm2) across sparsity levels at m=1024, using a worst-case
noise-correlation estimate for beta.  The sharp condition fails beyond a
small sparsity and its curve drops to zero in one step; the probabilistic
bound decays gradually.  The full intermediate breakdown is printed for
one point.
"""

import math

from ompbounds import (
    GuaranteeInputs,
    RngStream,
    build_identity_hadamard,
    thm1,
    thm2_bound,
    unit_correlation_max,
)

m, s_min, s_max, sigma = 1024, 0.5, 1.0, 0.005
d = build_identity_hadamard(m)
# beta is sigma times the worst unit-noise correlation over 10^4 draws.
beta = sigma * unit_correlation_max(d, 10_000, RngStream(0, 0))


def inputs(tau):
    return GuaranteeInputs(
        n=d.n, tau=tau, mu_max=d.mutual_coherence(),
        s_min=s_min, s_max=s_max, sigma=sigma, beta=beta,
    )


# thm1 reports (condition, probability, alpha, source); alpha comes from
# beta, sigma and n, so it is the same at every tau.
taus = (2, 5, 10, 15, 20, 30, 40, 50)
rows = [(tau, thm1(inputs(tau)), thm2_bound(inputs(tau))) for tau in taus]
alpha = rows[0][1][2]
print(f"m={m}, n={d.n}, mu_max={d.mutual_coherence():.4f}, sigma={sigma}")
print(f"worst-case beta over 10^4 noise draws: {beta:.5f}  (alpha={alpha:.3f})\n")

print(f"{'tau':>4} {'thm1 cond':>10} {'thm1 prob':>10} {'thm2 prob':>10}")
for tau, (cond1, p1, _, _), b in rows:
    print(f"{tau:>4} {str(cond1):>10} {p1:>10.4f} {b.probability:>10.4f}")

tau = 15
b = thm2_bound(inputs(tau))
print(f"\nbreakdown at tau={tau}:")
print(f"  rho        = s_min/2 - beta        = {b.rho:.5f}")
print(f"  gamma      = mu_max * s_max        = {b.gamma:.5f}")
print(f"  p1, p2     = per-atom tail bounds  = {b.p1:.3e}, {b.p2:.3e}")
print(f"  p3         = noise-correlation tail= {b.p3:.3e}")
print(f"  lambda_lb  = 1 - n*p3 (clamped)    = {b.lambda_lb:.6f}")
print(f"  error_ub   = n*p2 (unclamped)      = {b.error_ub:.3e}")
print(f"  probability= lambda*(1-error_ub)   = {b.probability:.6f}")

# Same evaluation from the command line:
#   ompbounds bound --n 2048 --tau 15 --mu-max 0.03125 \
#       --s-min 0.5 --s-max 1 --sigma 0.005 --beta <value above>
print(f"\nsanity: 1/sqrt(m) = {1/math.sqrt(m):.5f} equals mu_max above")
