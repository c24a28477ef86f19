"""The quantum broadcast channel and its three emulations.

Run:  python demos/broadcast_channel.py
"""

import numpy as np

from qcoinflip.broadcast import (
    EPR,
    broadcast_qubit,
    classical_broadcast,
    emulate_broadcast_pairwise,
    establish_epr,
    simulate_quantum_channel_via_qbc,
    teleport,
)
from qcoinflip.quantum import StateVector, as_rng, measure, qubits

rng = as_rng(1)
alpha, beta = 0.6, 0.8

print("=== what the channel does ===")
shared = broadcast_qubit(alpha, beta, 3)
print(f"broadcasting {alpha}|0> + {beta}|1> to 3 parties yields the shared state")
print("  ", np.round(shared.amplitudes, 3), " (alpha|000> + beta|111>, NOT three copies)")

print("\n=== emulation 1: broadcast from pairwise channels ===")
out, transcript = emulate_broadcast_pairwise(alpha, beta, 4, rng)
print(f"k = 4: fidelity with the channel output = {out.fidelity(broadcast_qubit(alpha, beta, 4)):.12f}")
print(f"pairwise-channel uses: {transcript[-1]['use_count']}  (= 2(k-1))")
bad, _ = emulate_broadcast_pairwise(1 / np.sqrt(2), 1 / np.sqrt(2), 4, rng, apply_parity_fix=False)
print("without the parity fix the relative phase is random; this run's fidelity:",
      round(bad.fidelity(broadcast_qubit(1 / np.sqrt(2), 1 / np.sqrt(2), 4)), 3))

print("\n=== emulation 2: classical broadcast from one channel use ===")
outcomes, _ = classical_broadcast(1, 5, rng)
print("broadcasting bit 1 to 5 parties:", outcomes)
state = broadcast_qubit(1 / np.sqrt(2), 1 / np.sqrt(2), 5)
bits = []
for j in range(5):
    (bit,), state = measure(state, (j,), rng)
    bits.append(bit)
print("a dishonest sender broadcasting a superposition correlates everyone anyway:", bits)

print("\n=== emulation 3: a private quantum channel from k+1 broadcasts ===")
pair, residual, _, uses = establish_epr(0, 4, 5, rng)
print(f"k = 5: extracted pair fidelity {pair.fidelity(EPR):.12f} after {uses} broadcast uses;")
helpers = int(np.argmax(np.abs(residual.amplitudes)))
print(f"helper registers stay unentangled: they factor out as the basis state |{helpers:03b}>")
payload = StateVector(qubits(1), np.array([1.0, 1.0j]) / np.sqrt(2))
received, bits, _ = teleport(payload, pair, rng)
print(f"teleported payload fidelity {received.fidelity(payload):.12f} using 2 classical bits {bits}")
received, uses, _ = simulate_quantum_channel_via_qbc(0, 4, payload, 5, rng)
print(f"full channel simulation: fidelity {received.fidelity(payload):.12f}, {uses} uses (= k+1)")
