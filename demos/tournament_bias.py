"""Multiparty coin flipping by elimination tournament.

Run:  python demos/tournament_bias.py
"""

import numpy as np

from qcoinflip.multiparty import (
    ADVERSARY_PRESETS,
    BIN_STRATEGIES,
    combined_bias,
    committee_threshold,
    expected_fix_probability,
    lightest_bin_select,
    naive_tournament_bound,
    simulate_tournament,
    tournament_bound,
    tournament_constant,
)
from qcoinflip.quantum import as_rng

print("=== why penalties: the naive tournament decays like k^-1.78 ===")
for k in (8, 64, 1024):
    print(f"  k = {k:>5}: naive bias {naive_tournament_bound(k):.8f}"
          f"   penalty-schedule bias {tournament_bound(k)[1]:.8f}")
print(f"With the doubling penalty schedule, k * (1 - fix probability) stays above"
      f" c = {tournament_constant():.6f}: bias 1/2 - Omega(1/k).")

print("\n=== Monte Carlo against the bound ===")
runs = 200_000
for k in (8, 32):
    bound = 1 - tournament_bound(k)[0]
    print(f"k = {k}: analytic fix-probability bound {bound:.6f}")
    for name, preset in ADVERSARY_PRESETS.items():
        report = simulate_tournament(k, preset, as_rng(11), runs)
        exact = expected_fix_probability(k, preset)
        print(f"  {name:>10}: simulated {report.mc_estimate:.6f} (+-{report.stderr:.6f}),"
              f" closed form {exact:.6f}")

print("\n=== many honest players: shrink the table first ===")
k, g = 256, 64
threshold = committee_threshold(k, g)
print(f"k = {k} with g = {g} honest: lightest-bin down to {threshold} players")
for name, strategy in BIN_STRATEGIES.items():
    result = lightest_bin_select(k, g, 2, threshold, as_rng(0), strategy, runs=2000)
    print(f"  dishonest strategy {name:>6}: honest member present in {result.honest_presence:.1%} of runs")
bias, committee = combined_bias(k, g)
print(f"composed bias bound: {bias:.6f} via a {committee}-player tournament")

print("\n=== the bias scales linearly in g/k ===")
for n in (4, 8, 12):
    k = 2**n
    row = []
    for g in (1, k // 4, k // 2):
        bias, _ = combined_bias(k, g)
        row.append(f"g={g:>5}: {0.5 - bias:.2e}")
    print(f"  k = {k:>5}:  1/2 - bias at " + ",  ".join(row))
