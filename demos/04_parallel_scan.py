"""The linear recurrence u_l = decay_l * u_{l-1} + drive_l computed two ways:
a plain left-to-right loop and a chunked two-pass scan, bit-for-bit checks
included.  Finishes with a small throughput table."""

import numpy as np

from gssm import RecurrenceInputs, bench_recurrence, combine, scan_parallel, scan_sequential

rng = np.random.default_rng(0)

# --- parity -------------------------------------------------------------------
L, lanes = 1000, 64
inp = RecurrenceInputs(decay=rng.uniform(0.0, 1.0, size=(L, lanes)),
                       drive=rng.standard_normal((L, lanes)),
                       u0=rng.standard_normal(lanes))
seq_states = scan_sequential(inp)
par_states = scan_parallel(inp)                 # chunks of ceil(sqrt(L)) = 32 steps
print("max |parallel - sequential|:", float(np.abs(par_states - seq_states).max()))

# Determinism: the same inputs give the same bits.
print("parallel is deterministic:",
      np.array_equal(par_states, scan_parallel(inp)))

# --- why a scan works here at all ----------------------------------------------
# The per-step maps u -> a*u + b compose associatively:
#   (a1,b1) then (a2,b2)  ==  (a1*a2, a2*b1 + b2)
# `combine` is that composition; associativity is what lets chunks be summarized.
x, y, z = ((rng.uniform(0, 1), rng.standard_normal()) for _ in range(3))
left = combine(combine(x, y), z)
right = combine(x, combine(y, z))
print("associativity gap:", max(abs(left[0] - right[0]), abs(left[1] - right[1])))

# --- throughput -----------------------------------------------------------------
print("\nns per element (best of 3, 64 lanes):")
rows = bench_recurrence([2 ** k for k in (10, 12, 14)], lanes=64, repeats=3, seed=0)
print(f"{'L':>6s} {'sequential':>11s} {'parallel':>9s}")
by_l = {}
for r in rows:
    by_l.setdefault(r["L"], {})[r["backend"]] = r["ns_per_element"]
for l_value, ns in sorted(by_l.items()):
    print(f"{l_value:6d} {ns['sequential']:11.1f} {ns['parallel']:9.1f}")
print("(flat per-element cost across L = linear total work)")
