"""Optimal cheating strategies and the product lower bound on bias.

For a fixed two-party protocol, the best an unbounded cheater can do against
the honest party is a semidefinite program over the honest party's view
rho_0..rho_N: the message marginal evolves through the honest unitaries
while the cheater rewrites the message register arbitrarily between rounds.
The SDP lives on the reachable supports S_j of the honest private register
(isometries W_j), and so do its dual variables, a chain Z_0..Z_N with Z_j on
S_j:

    Z_N = W_N^dag P W_N,   Z_j (x) 1 >= K_{j+1}^dag (Z_{j+1} (x) 1) K_{j+1},

where K_{j+1} = (W_{j+1} (x) 1)^dag U_{j+1} (W_j (x) 1) is the compressed round
unitary.  These are exactly the dual constraints of ``cheat_sdp``, so
``verify_dual`` checks a chain.  With the lifted multipliers W_j Z_j W_j^dag,
the scalar sequence F_j = <state_j| Z_{A,j} (x) 1 (x) Z_{B,j} |state_j>
interpolates monotonically from the product of the two cheat values down to
the honest outcome probability: hence p_alice * p_bob >= p_outcome, the
two-party bias bound.  Merging all cheaters into one adversary extends the
bound to k parties: prod_i p_i >= p_outcome, so some player can be forced
with probability at least (1/2)^(1/k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocols import (
    KPartyProtocol,
    TwoPartyProtocol,
    honest_state,
    validate_kparty,
    validate_protocol,
)
from .quantum import HilbertLayout, embed_operator
from .sdp import (
    CERT_TOL,
    Constraint,
    DualCertificate,
    LinearTerm,
    SdpProblem,
    solve,
    verify_dual,
)

SUPPORT_TOL = 1e-10  # relative singular-value cut of a reachable support
PRODUCT_SLACK = 1e-5  # solver accuracy allowed in the product checks


@dataclass(frozen=True)
class CheatResult:
    cheater: str  # "alice" | "bob"
    target_bit: int
    probability: float
    status: str
    residuals: dict

    def __post_init__(self):
        if not -1e-6 <= self.probability <= 1.0 + 1e-6:
            raise ValueError(f"cheat probability {self.probability} outside [0, 1]")


def _honest_side_pieces(protocol: TwoPartyProtocol, cheater: str):
    """Layout, unitaries, projectors and factor bookkeeping of the honest view.

    The honest view is A (x) M when the cheater is Bob, M (x) B when the
    cheater is Alice (matching the order the round unitaries act on).
    """
    if cheater == "bob":
        layout = protocol.layout_a.concat(protocol.layout_m)
        priv = tuple(range(protocol.layout_a.nfactors))
        unitaries = protocol.unitaries_a
        proj = protocol.proj_a
        d_priv = protocol.layout_a.dim
    elif cheater == "alice":
        layout = protocol.layout_m.concat(protocol.layout_b)
        nm = protocol.layout_m.nfactors
        priv = tuple(range(nm, nm + protocol.layout_b.nfactors))
        unitaries = protocol.unitaries_b
        proj = protocol.proj_b
        d_priv = protocol.layout_b.dim
    else:
        raise ValueError("cheater must be 'alice' or 'bob'")
    return layout, priv, unitaries, proj, d_priv


def _priv_kron(cheater: str, priv_mat: np.ndarray, msg_mat: np.ndarray) -> np.ndarray:
    """Kronecker in the honest view's factor order (private first vs last)."""
    if cheater == "bob":  # honest Alice: (A, M)
        return np.kron(priv_mat, msg_mat)
    return np.kron(msg_mat, priv_mat)


def reachable_supports(protocol: TwoPartyProtocol, cheater: str):
    """Orthonormal bases of the private-space subspaces the rounds can reach.

    The honest private register starts at |0> and is only ever touched by
    the honest unitaries, whatever the cheater writes into the message
    register; round j therefore confines it to span of the private
    components of U_j (S_{j-1} (x) M).  Any PSD view state is supported
    inside (reachable subspace) (x) M, so the cheat SDP restricts there
    without loss; this keeps the feasible set's interior nonempty (the full
    formulation pins marginals onto rank-deficient targets).
    """
    layout, priv, unitaries, proj, d_priv = _honest_side_pieces(protocol, cheater)
    d_msg = layout.dim // d_priv
    basis = np.zeros((d_priv, 1), dtype=complex)
    basis[0, 0] = 1.0
    supports = [basis]
    eye_m = np.eye(d_msg, dtype=complex)
    for u in unitaries:
        span = u @ _priv_kron(cheater, supports[-1], eye_m)
        if cheater == "bob":
            components = span.reshape(d_priv, -1)
        else:
            components = span.reshape(d_msg, d_priv, -1).transpose(1, 0, 2).reshape(d_priv, -1)
        svec, svals, _ = np.linalg.svd(components, full_matrices=False)
        rank = int(np.sum(svals > SUPPORT_TOL * max(svals[0], 1.0)))
        supports.append(svec[:, :rank])
    return supports


def cheat_sdp(
    protocol: TwoPartyProtocol,
    cheater: str,
    target: int,
    reduce: bool = True,
) -> SdpProblem:
    """The cheater's optimal-strategy SDP over the honest party's view.

    Variables rho_j live on the honest private space tensor the message
    space; the message marginal is free (the cheater rewrites it), the
    private marginal follows the honest unitaries:

        tr_msg(rho_0) = |0><0|,   tr_msg(rho_j) = tr_msg(U_j rho_{j-1} U_j^dag).

    Objective: the honest party's target-outcome projector on rho_N.

    With ``reduce`` each block is compressed onto its reachable private
    support (see ``reachable_supports``); the optimum is unchanged and the
    solver sees small, strictly feasible blocks.  The round-j multiplier
    then lives on S_j, which is where ``extract_dual_chain`` keeps the dual
    chain.  The unreduced form on the full private space is the reference
    the reduction is tested against.
    """
    if target not in (0, 1):
        raise ValueError("target bit must be 0 or 1")
    layout, priv, unitaries, proj, d_priv = _honest_side_pieces(protocol, cheater)
    n = len(unitaries)
    d_msg = layout.dim // d_priv
    e0 = np.zeros((d_priv, 1), dtype=complex)
    e0[0, 0] = 1.0
    eye_m = np.eye(d_msg, dtype=complex)

    if reduce:
        supports = reachable_supports(protocol, cheater)
        blocks = []
        constraints = []
        for j in range(n + 1):
            s_j = supports[j].shape[1]
            if cheater == "bob":
                block_layout = HilbertLayout((s_j, d_msg))
                keep = (0,)
            else:
                block_layout = HilbertLayout((d_msg, s_j))
                keep = (1,)
            blocks.append((f"rho_{j}", block_layout))
            if j == 0:
                constraints.append(
                    Constraint(
                        "round_0",
                        (LinearTerm("rho_0", 1.0, None, None, ()),),
                        np.array([[1.0]]),
                    )
                )
            else:
                lift_prev = _priv_kron(cheater, supports[j - 1], eye_m)
                compress = _priv_kron(cheater, supports[j], eye_m).conj().T
                kmat = compress @ unitaries[j - 1] @ lift_prev
                constraints.append(
                    Constraint(
                        f"round_{j}",
                        (
                            LinearTerm(f"rho_{j}", 1.0, None, None, keep),
                            LinearTerm(f"rho_{j - 1}", -1.0, kmat, blocks[-1][1], keep),
                        ),
                        np.zeros((s_j, s_j), dtype=complex),
                    )
                )
        w_n = supports[n]
        objective = {
            f"rho_{n}": _priv_kron(cheater, w_n.conj().T @ proj[target] @ w_n, eye_m)
        }
        return SdpProblem(blocks=tuple(blocks), objective=objective, constraints=tuple(constraints))

    blocks = [("rho_0", layout)]
    constraints = [
        Constraint("round_0", (LinearTerm("rho_0", 1.0, None, None, priv),), e0 @ e0.conj().T)
    ]
    for j in range(1, n + 1):
        name = f"rho_{j}"
        blocks.append((name, layout))
        constraints.append(
            Constraint(
                f"round_{j}",
                (
                    LinearTerm(name, 1.0, None, None, priv),
                    LinearTerm(f"rho_{j - 1}", -1.0, unitaries[j - 1], layout, priv),
                ),
                np.zeros((d_priv, d_priv), dtype=complex),
            )
        )
    objective = {f"rho_{n}": embed_operator(proj[target], layout.factor_dims, priv)}
    return SdpProblem(blocks=tuple(blocks), objective=objective, constraints=tuple(constraints))


def optimal_cheat(protocol: TwoPartyProtocol, cheater: str, target: int) -> CheatResult:
    """The cheater's optimal probability of forcing ``target``; RuntimeError unless the solve converged."""
    solution = solve(cheat_sdp(protocol, cheater, target))
    if solution.status != "converged":
        raise RuntimeError(
            f"cheat SDP ({cheater} forcing {target}) did not converge (status {solution.status})"
        )
    return CheatResult(
        cheater=cheater,
        target_bit=target,
        probability=solution.primal_value,
        status=solution.status,
        residuals=solution.residuals,
    )


# ---------------------------------------------------------------------------
# dual chains and the interpolating sequence


def extract_dual_chain(protocol: TwoPartyProtocol, cheater: str, target: int):
    """Solve the cheat SDP and return a feasible multiplier chain Z_0..Z_N.

    The chain lives where ``cheat_sdp`` does, on the reachable supports:
    Z_j is an s_j x s_j matrix on S_j (Z_0 is 1 x 1).  Z_N is pinned to the
    compressed target projector W_N^dag P W_N, which makes block rho_N
    exactly tight.  Walking down from N, each of the solver's multipliers
    is shifted by the identity just far enough that ``verify_dual`` finds
    block rho_j PSD, so the chain is feasible whatever the solver's
    accuracy, and its value Z_0 bounds the cheat probability from above.

    Returns (DualCertificate with multipliers round_0..round_N, solution).
    """
    problem = cheat_sdp(protocol, cheater, target)
    solution = solve(problem)
    proj = _honest_side_pieces(protocol, cheater)[3]
    w_n = reachable_supports(protocol, cheater)[-1]
    n = protocol.rounds
    chain = {
        f"round_{j}": np.atleast_2d(solution.dual_multipliers[f"round_{j}"]).astype(complex)
        for j in range(n)
    }
    chain[f"round_{n}"] = w_n.conj().T @ proj[target] @ w_n
    for j in range(n - 1, -1, -1):
        lam = verify_dual(problem, DualCertificate(chain, 0.0)).lambda_min[f"rho_{j}"]
        if lam < 0.0:
            z = chain[f"round_{j}"]
            chain[f"round_{j}"] = z - lam * np.eye(z.shape[0])
    cert = DualCertificate(multipliers=chain, claimed_value=float(np.real(chain["round_0"][0, 0])))
    return cert, solution


def dual_bound_sequence(
    protocol: TwoPartyProtocol,
    cert_honest_alice: DualCertificate,
    cert_honest_bob: DualCertificate,
    target: int = 1,
):
    """The interpolating values F_j for a pair of feasible multiplier chains.

    cert_honest_alice is the chain for a cheating Bob (multipliers on A's
    supports); cert_honest_bob the chain for a cheating Alice (multipliers
    on B's supports); both must aim at the same ``target`` outcome and pass
    ``verify_dual`` on their ``cheat_sdp``.  F_j is evaluated with the
    lifted chain W_j Z_j W_j^dag: the honest state after round j lies in
    S_j (x) M (x) S_j, and U_j maps S_{j-1} (x) M into S_j (x) M, so the
    step inequalities on the supports are all the ordering needs.  F_0
    equals the product of the two chain values, F_j never increases, and
    F_N >= p_target, with equality when both chains are pinned to the
    target projector (as ``extract_dual_chain`` pins them).
    """
    n = protocol.rounds
    supports = {}
    for label, cheater, cert in (
        ("honest-alice", "bob", cert_honest_alice),
        ("honest-bob", "alice", cert_honest_bob),
    ):
        report = verify_dual(cheat_sdp(protocol, cheater, target), cert)
        if not report.feasible:
            bad = [j for j in range(n + 1) if report.lambda_min[f"rho_{j}"] < -CERT_TOL]
            raise ValueError(f"{label} chain infeasible: rounds {bad} violate the step inequality")
        supports[cheater] = reachable_supports(protocol, cheater)
    shape = (protocol.layout_a.dim, protocol.layout_m.dim, protocol.layout_b.dim)
    values = []
    for j in range(n + 1):
        w_a, w_b = supports["bob"][j], supports["alice"][j]
        za = w_a @ np.atleast_2d(cert_honest_alice.multipliers[f"round_{j}"]) @ w_a.conj().T
        zb = w_b @ np.atleast_2d(cert_honest_bob.multipliers[f"round_{j}"]) @ w_b.conj().T
        psi = honest_state(protocol, j).amplitudes.reshape(shape)
        values.append(
            float(np.real(np.einsum("amb,ax,by,xmy->", psi.conj(), za, zb, psi, optimize=True)))
        )
    return values


# ---------------------------------------------------------------------------
# the product bound


@dataclass(frozen=True)
class ProductCheck:
    p_alice_forces: float
    p_bob_forces: float
    product: float
    p_honest: float
    passed: bool
    balanced_max_ok: bool | None  # None when the protocol is not balanced


def cheat_product_check(protocol: TwoPartyProtocol, target: int = 1) -> ProductCheck:
    """Check p_alice * p_bob >= p_target - PRODUCT_SLACK on a validated protocol.

    For balanced protocols (p_target = 1/2) additionally checks
    max(p_alice, p_bob) >= 2^(-1/2) - PRODUCT_SLACK.
    """
    report = validate_protocol(protocol)
    if not report.valid:
        raise ValueError("protocol fails its honest-run conditions")
    p_honest = report.p1 if target == 1 else report.p0
    p_alice = optimal_cheat(protocol, "alice", target).probability
    p_bob = optimal_cheat(protocol, "bob", target).probability
    product = p_alice * p_bob
    balanced = abs(p_honest - 0.5) <= 1e-9
    return ProductCheck(
        p_alice_forces=p_alice,
        p_bob_forces=p_bob,
        product=product,
        p_honest=p_honest,
        passed=product >= p_honest - PRODUCT_SLACK,
        balanced_max_ok=(max(p_alice, p_bob) >= 2 ** -0.5 - PRODUCT_SLACK) if balanced else None,
    )


# ---------------------------------------------------------------------------
# k-party reduction


def merge_cheaters(protocol: KPartyProtocol, honest: int) -> TwoPartyProtocol:
    """Fuse every party but ``honest`` into a single adversary.

    The honest party keeps its unitaries; consecutive adversary turns
    compose into one unitary on message (x) fused-space; identity rounds pad
    the sequence into strict alternation starting with the honest side.  The
    honest run of the merged protocol reproduces the k-party run exactly (up
    to factor ordering).
    """
    if not 0 <= honest < protocol.k:
        raise ValueError("honest party index out of range")
    others = [i for i in range(protocol.k) if i != honest]
    layout_b = protocol.layouts[others[0]]
    for i in others[1:]:
        layout_b = layout_b.concat(protocol.layouts[i])
    dm = protocol.layout_m.dim
    db = layout_b.dim
    nm = protocol.layout_m.nfactors

    # fused-side dims ordered (message, then the other parties ascending)
    fused_dims = protocol.layout_m.factor_dims + layout_b.factor_dims
    offset = {}  # party -> first factor index within fused_dims
    pos = nm
    for i in others:
        offset[i] = pos
        pos += protocol.layouts[i].nfactors

    tokens = []  # ("A", U on A (x) M) | ("B", U on M (x) fused), adjacent B's merged
    for turn, u in zip(protocol.turns, protocol.unitaries):
        if turn == honest:
            tokens.append(("A", u))
        else:
            nfac = protocol.layouts[turn].nfactors
            factors = tuple(range(offset[turn], offset[turn] + nfac)) + tuple(range(nm))
            big = embed_operator(u, fused_dims, factors)
            if tokens and tokens[-1][0] == "B":
                tokens[-1] = ("B", big @ tokens[-1][1])
            else:
                tokens.append(("B", big))

    da = protocol.layouts[honest].dim
    eye_a = np.eye(da * dm, dtype=complex)
    eye_b = np.eye(dm * db, dtype=complex)
    unitaries_a, unitaries_b = [], []
    i = 0
    while i < len(tokens):
        if tokens[i][0] == "A":
            unitaries_a.append(tokens[i][1])
            i += 1
            if i < len(tokens) and tokens[i][0] == "B":
                unitaries_b.append(tokens[i][1])
                i += 1
            else:
                unitaries_b.append(eye_b)
        else:
            unitaries_a.append(eye_a)
            unitaries_b.append(tokens[i][1])
            i += 1

    rep = others[0]  # any fused party's projector represents the coalition outcome
    rep_factors = tuple(range(offset[rep] - nm, offset[rep] - nm + protocol.layouts[rep].nfactors))
    proj_b_pair = [
        embed_operator(protocol.projectors[rep][bit], layout_b.factor_dims, rep_factors)
        for bit in (0, 1)
    ]
    return TwoPartyProtocol(
        layout_a=protocol.layouts[honest],
        layout_m=protocol.layout_m,
        layout_b=layout_b,
        unitaries_a=tuple(unitaries_a),
        unitaries_b=tuple(unitaries_b),
        proj_a=protocol.projectors[honest],
        proj_b=tuple(proj_b_pair),
        name=f"{protocol.name}-honest{honest}",
    )


@dataclass(frozen=True)
class KPartyCheck:
    probabilities: dict  # (party, bit) -> forcing probability
    products: tuple  # product for bit 0, bit 1
    p0: float
    p1: float
    passed: bool


def kparty_product_check(protocol: KPartyProtocol) -> KPartyCheck:
    """prod_i p_{i,b} >= p_b - PRODUCT_SLACK for both outcome bits, via merged-cheater SDPs."""
    report = validate_kparty(protocol)
    if not report.valid:
        raise ValueError("k-party protocol fails its honest-run conditions")
    probabilities = {}
    for i in range(protocol.k):
        merged = merge_cheaters(protocol, i)
        for bit in (0, 1):
            probabilities[(i, bit)] = optimal_cheat(merged, "bob", bit).probability
    products = tuple(
        float(np.prod([probabilities[(i, bit)] for i in range(protocol.k)])) for bit in (0, 1)
    )
    passed = products[0] >= report.p0 - PRODUCT_SLACK and products[1] >= report.p1 - PRODUCT_SLACK
    return KPartyCheck(
        probabilities=probabilities,
        products=products,
        p0=report.p0,
        p1=report.p1,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# analytic bias bounds


@dataclass(frozen=True)
class BiasLowerBound:
    k: int
    q_min: float
    bias: float
    expansion: float  # first-order value 1 - ln(2)/k


def multiparty_bias_bound(k: int) -> BiasLowerBound:
    """Some party can be forced with probability >= (1/2)^(1/k).

    Equivalently any k-party protocol facing k-1 cheaters has bias at least
    2^(-1/k) - 1/2, which expands as 1/2 - ln(2)/k - O(1/k^2).
    """
    if k < 1:
        raise ValueError("need at least one party")
    q_min = 2.0 ** (-1.0 / k)
    return BiasLowerBound(k=k, q_min=q_min, bias=q_min - 0.5, expansion=1.0 - math.log(2.0) / k)


def group_players(k: int, g: int) -> tuple:
    """Bias bound with g honest players: group into ceil(k/g) super-players.

    Returns (k_prime, BiasLowerBound for k_prime).
    """
    if not 1 <= g <= k:
        raise ValueError("need 1 <= g <= k")
    k_prime = math.ceil(k / g)
    return k_prime, multiparty_bias_bound(k_prime)
