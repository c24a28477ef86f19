"""Optimal cheating strategies and the product lower bound on bias.

For a fixed two-party protocol (``KPartyProtocol`` with k = 2), the best an
unbounded cheater can do against the honest party is a semidefinite program
over the honest party's view rho_0..rho_N, one block per honest turn: the
message marginal evolves through the honest unitaries while the cheater
rewrites the message register arbitrarily between them.  The SDP lives on
the reachable supports S_j of the honest private register (isometries W_j),
each block ordered S_j (x) M, the order every party's unitaries act in.  So
do its dual variables, a chain Z_0..Z_N with Z_j on S_j:

    Z_N = W_N^dag P W_N,   Z_j (x) 1 >= K_{j+1}^dag (Z_{j+1} (x) 1) K_{j+1},

where K_{j+1} = (W_{j+1} (x) 1)^dag U_{j+1} (W_j (x) 1) is the compressed
unitary of honest turn j + 1.  These are exactly the dual constraints of
``cheat_sdp``, so ``verify_dual`` checks a chain.  On a protocol whose turns
alternate 0, 1, 0, 1, ..., with the lifted multipliers W_j Z_j W_j^dag the
scalar sequence F_j = <state_j| Z_{A,j} (x) Z_{B,j} (x) 1 |state_j> over
round pairs j interpolates monotonically from the product of the two cheat
values down to the honest outcome probability: hence
p_alice * p_bob >= p_outcome, the two-party bias bound.  Merging all
cheaters into one adversary (``merge_cheaters``) extends the bound to k
parties: prod_i p_i >= p_outcome, so some player can be forced with
probability at least (1/2)^(1/k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocols import KPartyProtocol, honest_state, validate_protocol
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
    probability: float

    def __post_init__(self):
        if not -1e-6 <= self.probability <= 1.0 + 1e-6:
            raise ValueError(f"cheat probability {self.probability} outside [0, 1]")


def _honest_view(protocol: KPartyProtocol, cheater: str):
    """The honest party's private layout, the message dimension, its
    unitaries on private (x) message in turn order, and its outcome projectors.

    The cheater is party 0 ("alice") or party 1 ("bob") of a two-party
    protocol; the other party is honest.
    """
    if protocol.k != 2:
        raise ValueError("cheat SDPs take a two-party protocol; merge_cheaters fuses k parties into two")
    if cheater not in ("alice", "bob"):
        raise ValueError("cheater must be 'alice' or 'bob'")
    honest = 1 if cheater == "alice" else 0
    unitaries = tuple(u for t, u in zip(protocol.turns, protocol.unitaries) if t == honest)
    return protocol.layouts[honest], protocol.layout_m.dim, unitaries, protocol.projectors[honest]


def reachable_supports(protocol: KPartyProtocol, cheater: str):
    """Orthonormal bases of the private-space subspaces the rounds can reach.

    The honest private register starts at |0> and is only ever touched by
    the honest unitaries, whatever the cheater writes into the message
    register; round j therefore confines it to span of the private
    components of U_j (S_{j-1} (x) M).  Any PSD view state is supported
    inside (reachable subspace) (x) M, so the cheat SDP restricts there
    without loss; this keeps the feasible set's interior nonempty (the full
    formulation pins marginals onto rank-deficient targets).
    """
    layout, d_msg, unitaries, _ = _honest_view(protocol, cheater)
    basis = np.zeros((layout.dim, 1), dtype=complex)
    basis[0, 0] = 1.0
    supports = [basis]
    eye_m = np.eye(d_msg, dtype=complex)
    for u in unitaries:
        components = (u @ np.kron(supports[-1], eye_m)).reshape(layout.dim, -1)
        svec, svals, _ = np.linalg.svd(components, full_matrices=False)
        rank = int(np.sum(svals > SUPPORT_TOL * max(svals[0], 1.0)))
        supports.append(svec[:, :rank])
    return supports


def cheat_sdp(protocol: KPartyProtocol, cheater: str, target: int) -> SdpProblem:
    """The cheater's optimal-strategy SDP over the honest party's view.

    ``cheater`` is "alice" (party 0) or "bob" (party 1) of a two-party
    protocol.  Variables rho_j, one per honest turn and rho_0 before the
    first, live on the honest private space tensor the message space; the
    message marginal is free (the cheater rewrites it between honest turns),
    the private marginal follows the honest unitaries:

        tr_msg(rho_0) = |0><0|,   tr_msg(rho_j) = tr_msg(U_j rho_{j-1} U_j^dag).

    Objective: the honest party's target-outcome projector on rho_N.

    Each block is compressed onto its reachable private support S_j (see
    ``reachable_supports``) and ordered S_j (x) M, as the protocol's
    unitaries act; the optimum is unchanged and the solver sees small,
    strictly feasible blocks.  The round-j multiplier lives on S_j, which is
    where ``extract_dual_chain`` keeps the dual chain.
    """
    if target not in (0, 1):
        raise ValueError("target bit must be 0 or 1")
    _, d_msg, unitaries, proj = _honest_view(protocol, cheater)
    supports = reachable_supports(protocol, cheater)
    eye_m = np.eye(d_msg, dtype=complex)
    lifts = [np.kron(w, eye_m) for w in supports]  # S_j (x) M into private (x) M
    blocks = tuple((f"rho_{j}", HilbertLayout((w.shape[1], d_msg))) for j, w in enumerate(supports))
    constraints = [
        Constraint("round_0", (LinearTerm("rho_0", 1.0, None, None, ()),), np.array([[1.0]]))
    ]
    for j in range(1, len(supports)):
        s_j = supports[j].shape[1]
        kmat = lifts[j].conj().T @ unitaries[j - 1] @ lifts[j - 1]
        constraints.append(
            Constraint(
                f"round_{j}",
                (
                    LinearTerm(f"rho_{j}", 1.0, None, None, (0,)),
                    LinearTerm(f"rho_{j - 1}", -1.0, kmat, blocks[j][1], (0,)),
                ),
                np.zeros((s_j, s_j), dtype=complex),
            )
        )
    w_n = supports[-1]
    objective = {blocks[-1][0]: np.kron(w_n.conj().T @ proj[target] @ w_n, eye_m)}
    return SdpProblem(blocks=blocks, objective=objective, constraints=tuple(constraints))


def optimal_cheat(protocol: KPartyProtocol, cheater: str, target: int) -> CheatResult:
    """The cheater's optimal probability of forcing ``target``; RuntimeError unless the solve converged."""
    solution = solve(cheat_sdp(protocol, cheater, target))
    if solution.status != "converged":
        raise RuntimeError(
            f"cheat SDP ({cheater} forcing {target}) did not converge (status {solution.status})"
        )
    return CheatResult(probability=solution.primal_value)


# ---------------------------------------------------------------------------
# dual chains and the interpolating sequence


def extract_dual_chain(protocol: KPartyProtocol, cheater: str, target: int):
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
    proj = _honest_view(protocol, cheater)[3]
    supports = reachable_supports(protocol, cheater)
    w_n, n = supports[-1], len(supports) - 1
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
    protocol: KPartyProtocol,
    cert_honest_alice: DualCertificate,
    cert_honest_bob: DualCertificate,
    target: int = 1,
):
    """The interpolating values F_j for a pair of feasible multiplier chains.

    cert_honest_alice is the chain for a cheating Bob (multipliers on A's
    supports); cert_honest_bob the chain for a cheating Alice (multipliers
    on B's supports); both must aim at the same ``target`` outcome and pass
    ``verify_dual`` on their ``cheat_sdp``.  The turns must alternate
    0, 1, 0, 1, ...; round pair j ends at turn 2j.  F_j is evaluated with
    the lifted chain W_j Z_j W_j^dag: the honest state after round pair j
    lies in S_j (x) S_j (x) M, and U_j maps S_{j-1} (x) M into S_j (x) M,
    so the step inequalities on the supports are all the ordering needs.
    F_0 equals the product of the two chain values, F_j never increases,
    and F_N >= p_target, with equality when both chains are pinned to the
    target projector (as ``extract_dual_chain`` pins them).
    """
    n = len(protocol.turns) // 2
    if protocol.k != 2 or protocol.turns != (0, 1) * n:
        raise ValueError("the interpolating sequence needs two parties taking turns 0, 1, 0, 1, ...")
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
    shape = (protocol.layouts[0].dim, protocol.layouts[1].dim, protocol.layout_m.dim)
    values = []
    for j in range(n + 1):
        w_a, w_b = supports["bob"][j], supports["alice"][j]
        za = w_a @ np.atleast_2d(cert_honest_alice.multipliers[f"round_{j}"]) @ w_a.conj().T
        zb = w_b @ np.atleast_2d(cert_honest_bob.multipliers[f"round_{j}"]) @ w_b.conj().T
        psi = honest_state(protocol, 2 * j).amplitudes.reshape(shape)
        values.append(
            float(np.real(np.einsum("abm,ax,by,xym->", psi.conj(), za, zb, psi, optimize=True)))
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


def cheat_product_check(protocol: KPartyProtocol, target: int = 1) -> ProductCheck:
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


def merge_cheaters(protocol: KPartyProtocol, honest: int) -> KPartyProtocol:
    """Fuse every party but ``honest`` into a single adversary.

    Returns the two-party protocol whose party 0 is the honest party and
    whose party 1 holds the other parties' spaces in ascending order.  The
    honest party keeps its unitaries; each run of adjacent turns by other
    parties composes into one unitary on (others..., M).  The honest run of
    the merged protocol reproduces the k-party run exactly (up to factor
    ordering).
    """
    if not 0 <= honest < protocol.k:
        raise ValueError("honest party index out of range")
    others = [i for i in range(protocol.k) if i != honest]
    fused = protocol.layouts[others[0]]
    for i in others[1:]:
        fused = fused.concat(protocol.layouts[i])
    fused_dims = fused.factor_dims + protocol.layout_m.factor_dims
    message = tuple(range(fused.nfactors, len(fused_dims)))
    factors = {}  # party -> its factors within the fused space
    for i in others:
        start = sum(len(f) for f in factors.values())
        factors[i] = tuple(range(start, start + protocol.layouts[i].nfactors))

    turns, unitaries = [], []
    for turn, u in zip(protocol.turns, protocol.unitaries):
        if turn == honest:
            turns.append(0)
            unitaries.append(u)
            continue
        u = embed_operator(u, fused_dims, factors[turn] + message)
        if turns and turns[-1] == 1:
            unitaries[-1] = u @ unitaries[-1]
        else:
            turns.append(1)
            unitaries.append(u)

    rep = others[0]  # any fused party's projector represents the coalition outcome
    return KPartyProtocol(
        layouts=(protocol.layouts[honest], fused),
        layout_m=protocol.layout_m,
        turns=tuple(turns),
        unitaries=tuple(unitaries),
        projectors=(
            protocol.projectors[honest],
            tuple(embed_operator(p, fused.factor_dims, factors[rep]) for p in protocol.projectors[rep]),
        ),
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
    report = validate_protocol(protocol)
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
