"""The product lower bound on coin-flipping bias, end to end.

Run:  python demos/lower_bound_toolkit.py
"""

from qcoinflip.lowerbound import (
    cheat_product_check,
    dual_bound_sequence,
    multiparty_bias_bound,
    optimal_cheat,
)
from qcoinflip.protocols import (
    alice_announces,
    announce_kparty,
    penalty_protocol,
    penalty_protocol_compact4,
    validate_protocol,
)

print("=== a protocol is a tuple of round unitaries plus outcome projectors ===")
for protocol in (alice_announces(), penalty_protocol_compact4(), penalty_protocol(16.0)):
    report = validate_protocol(protocol)
    print(f"  {protocol.name:<18} valid={report.valid}  p0={report.p0:.3f} p1={report.p1:.3f}"
          f"  dims A/M/B = {protocol.layouts[0].dim}/{protocol.layout_m.dim}/{protocol.layouts[1].dim}")

print("\n=== optimal cheating is a semidefinite program over the honest view ===")
p = alice_announces()
print("alice-announces: the announcer forces any outcome, the listener nothing:")
print(f"  opener forces 1:   {optimal_cheat(p, 1, 1).probability:.6f}   (against an honest listener, party 1)")
print(f"  listener forces 1: {optimal_cheat(p, 0, 1).probability:.6f}   (against an honest opener, party 0)")

print("\npenalty game at v = 16 (forcing, no penalty in the objective):")
pv = penalty_protocol(16.0)
check = cheat_product_check(pv)
bob_honest, alice_honest = check.cheats
print(f"  opener forces 1:    {alice_honest.probability:.6f}")
print(f"  responder forces 1: {bob_honest.probability:.6f}   (= the measurement-attack value)")
print(f"  product {check.product:.6f} >= honest p1 = {check.p_honest:.3f}:"
      f" the product bound in action")

print("\n=== the interpolating certificate sequence ===")
# each cheat SDP's solve also returned its dual chain, made exactly feasible;
# the sequence takes one chain per party and has one value per turn boundary
values = dual_bound_sequence(pv, [cheat.chain for cheat in check.cheats], target=1)
print(f"penalty game at v = 16: chain values ({bob_honest.bound:.5f}, {alice_honest.bound:.5f})")
print(f"F_j = {[round(v, 5) for v in values]}")
print("F_0 = 3/4 * 3/4 bounds the cheat product, F_N is the honest outcome")
print("probability 1/2; the sequence never increases, so cheat products can")
print("never beat honest odds: p_alice * p_bob >= p_1.")

print("\n=== k parties: the others cheat as one coalition against each honest party ===")
kp = announce_kparty(3)
checks = [cheat_product_check(kp, bit) for bit in (0, 1)]
print("3-party announce protocol, per-party forcing probabilities:")
for party in range(kp.k):
    for bit, check3 in enumerate(checks):
        print(f"  party {party} forced to {bit}: {check3.cheats[party].probability:.4f}")
print(f"products {tuple(round(c.product, 4) for c in checks)} >= 1/2: the bound holds")

print("\n=== what that means for the best possible bias ===")
for k in (2, 4, 16, 64):
    bound = multiparty_bias_bound(k)
    print(f"  k = {k:>3}: some party forced with prob >= {bound.q_min:.5f}"
          f" -> bias >= {bound.bias:.5f}")
print("1 - q_min shrinks like ln(2)/k: no protocol beats bias 1/2 - O(g/k).")
