"""Optimal cheating strategies and the product lower bound on bias.

Against one honest party i of a protocol, the other k - 1 parties act as a
single coalition, and the best it can do is a semidefinite program over
party i's view rho_0..rho_N, one block per turn of party i: the message
marginal evolves through i's unitaries while the coalition rewrites the
message register arbitrarily between them.  So one SDP, keyed by the honest
party's index, serves every k >= 2.  It lives on the reachable supports S_j
of i's private register (isometries W_j), each block ordered S_j (x) M, the
order every party's unitaries act in.  So do its dual variables, a chain
Z_0..Z_N with Z_j on S_j:

    Z_N = W_N^dag P W_N,   Z_j (x) 1 >= K_{j+1}^dag (Z_{j+1} (x) 1) K_{j+1},

where K_{j+1} = (W_{j+1} (x) 1)^dag U_{j+1} (W_j (x) 1) is the compressed
unitary of i's turn j + 1.  These are exactly the dual constraints of
``cheat_sdp``, so ``verify_dual`` checks a chain, and its value Z_0 bounds
the forcing probability from above; ``optimal_cheat`` returns the value
and the chain from one solve.  That solve always runs on sectors:
``sdp.sectors`` reads off the SDP's zeros the finest partitions of each
block's coordinates and each round's columns of W_j on which pinching keeps
feasible points feasible with the same value; the zeros are those of the
protocol's unitaries in the SVD bases W_j of the supports (a protocol
without such zeros keeps its problem).  The sector multipliers, placed on
their columns, are a chain on the S_j, repaired round by round on the
unsplit ``cheat_sdp``'s blocks; no chain is ever checked on its sectors
alone.  With each party's chain lifted to W_j Z_j W_j^dag,
and c_i(r) party i's turns among the first r, the scalar sequence
F_r = <psi_r| (x)_i Z_{i,c_i(r)} (x) 1 |psi_r> over the turn boundaries
r = 0..T of the honest run interpolates monotonically from the product of
the k chain values down to the honest outcome probability: each turn is
one party's unitary, so that party's step inequality, with the other
factors (PSD, on other spaces) held fixed, gives F_{r+1} <= F_r.
Hence prod_i p_i >= p_outcome for every k and every turn order, the
two-party bias bound p_0 * p_1 >= p_outcome at k = 2.  ``cheat_product_check``
checks it on the solver's values, so some player can be forced with
probability at least (1/2)^(1/k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocols import KPartyProtocol, honest_run, validate_protocol
from .quantum import apply_local
from .sdp import (
    CERT_TOL,
    Constraint,
    LinearTerm,
    SdpProblem,
    expand_multipliers,
    restrict,
    sectors,
    solve,
    verify_dual,
)

SUPPORT_TOL = 1e-10  # singular values of a support below this times the largest are cut
PRODUCT_SLACK = 1e-5  # solver accuracy allowed in the product checks


@dataclass(frozen=True)
class CheatResult:
    """The coalition's optimal probability of forcing an outcome on one honest party.

    ``chain`` is a multiplier chain Z_0..Z_N, a dict keyed round_0..round_N,
    that ``verify_dual`` accepts on the cheat SDP; ``bound`` is its value
    Z_0, an upper bound on the probability that does not rest on the solver.
    """

    probability: float
    bound: float
    chain: dict

    def __post_init__(self):
        if not -1e-6 <= self.probability <= 1.0 + 1e-6:
            raise ValueError(f"cheat probability {self.probability} outside [0, 1]")


def _honest_view(protocol: KPartyProtocol, honest: int):
    """The honest party's private layout, the message dimension, its
    unitaries on private (x) message in turn order, and its outcome projectors.

    Every other party belongs to the coalition that rewrites M between the
    honest party's turns.
    """
    if honest not in range(protocol.k):
        raise ValueError(f"honest party index {honest!r} out of range for {protocol.k} parties")
    unitaries = tuple(u for t, u in zip(protocol.turns, protocol.unitaries) if t == honest)
    return protocol.layouts[honest], protocol.layout_m.dim, unitaries, protocol.projectors[honest]


def reachable_supports(protocol: KPartyProtocol, honest: int):
    """Orthonormal bases W_j of the private-space subspaces S_j the honest turns can reach.

    The honest private register starts at |0> and is only ever touched by
    the honest unitaries, whatever the coalition writes into the message
    register; turn j therefore confines it to span of the private
    components of U_j (S_{j-1} (x) M).  Any PSD view state is supported
    inside (reachable subspace) (x) M, so the cheat SDP restricts there
    without loss; this keeps the feasible set's interior nonempty (the full
    formulation pins marginals onto rank-deficient targets).

    W_j is the first ``rank`` left singular vectors of those components, in
    the SVD's own basis: ``rank`` counts the singular values above
    ``SUPPORT_TOL`` times the largest.  On the penalty, announce and relayed
    protocols each column lies on one connected component of
    Pi_j = W_j W_j^dag to 1e-16, so ``cheat_sdp``'s data keep the zeros
    ``sdp.sectors`` splits on; a basis that mixed components would give
    coarser sectors and the same optimum.
    """
    layout, d_msg, unitaries, _ = _honest_view(protocol, honest)
    supports = [np.eye(layout.dim, 1, dtype=complex)]  # |0>
    eye_m = np.eye(d_msg, dtype=complex)
    for u in unitaries:
        components = (u @ np.kron(supports[-1], eye_m)).reshape(layout.dim, -1)
        svec, svals, _ = np.linalg.svd(components, full_matrices=False)
        rank = int(np.sum(svals > SUPPORT_TOL * max(svals[0], 1.0)))
        supports.append(svec[:, :rank])
    return supports


def cheat_sdp(protocol: KPartyProtocol, honest: int, target: int, supports=None) -> SdpProblem:
    """The coalition's optimal-strategy SDP over party ``honest``'s view.

    Variables rho_j, one per honest turn and rho_0 before the first, live
    on the honest private space tensor the message space; the message
    marginal is free (the coalition rewrites it between honest turns), the
    private marginal follows the honest unitaries:

        tr_msg(rho_0) = |0><0|,   tr_msg(rho_j) = tr_msg(U_j rho_{j-1} U_j^dag).

    Objective: the honest party's target-outcome projector on rho_N.

    Each block is compressed onto its reachable private support S_j (see
    ``reachable_supports``) and ordered S_j (x) M, as the protocol's
    unitaries act; the optimum is unchanged and the solver sees small,
    strictly feasible blocks.  The round-j multiplier lives on S_j, which is
    where ``optimal_cheat`` keeps the dual chain.
    """
    if target not in (0, 1):
        raise ValueError("target bit must be 0 or 1")
    _, d_msg, unitaries, proj = _honest_view(protocol, honest)
    supports = supports or reachable_supports(protocol, honest)
    eye_m = np.eye(d_msg, dtype=complex)
    lifts = [np.kron(w, eye_m) for w in supports]  # S_j (x) M into private (x) M
    blocks = tuple((f"rho_{j}", w.shape[1] * d_msg) for j, w in enumerate(supports))
    constraints = [Constraint("round_0", (LinearTerm("rho_0", kept=1),), np.array([[1.0]]))]
    for j in range(1, len(supports)):
        s_j = supports[j].shape[1]
        kmat = lifts[j].conj().T @ unitaries[j - 1] @ lifts[j - 1]
        constraints.append(
            Constraint(
                f"round_{j}",
                (LinearTerm(f"rho_{j}", kept=s_j), LinearTerm(f"rho_{j - 1}", -1.0, kmat, s_j)),
                np.zeros((s_j, s_j), dtype=complex),
            )
        )
    w_n = supports[-1]
    objective = {blocks[-1][0]: np.kron(w_n.conj().T @ proj[target] @ w_n, eye_m)}
    return SdpProblem(blocks=blocks, objective=objective, constraints=tuple(constraints))


def _one_block(problem: SdpProblem, name: str) -> SdpProblem:
    """``problem`` cut to block ``name``: its objective there and each constraint's terms on it."""
    cut = [Constraint(c.name, tuple(t for t in c.terms if t.block == name), c.rhs) for c in problem.constraints]
    objective = {b: c for b, c in problem.objective.items() if b == name}
    return SdpProblem(((name, dict(problem.blocks)[name]),), objective, tuple(c for c in cut if c.terms))


def optimal_cheat(protocol: KPartyProtocol, honest: int, target: int) -> CheatResult:
    """The coalition's optimal probability of forcing ``target`` on party ``honest``, with its dual chain.

    One solve gives both; RuntimeError unless it converged.  The solve runs
    on the sectors of ``cheat_sdp`` that ``sdp.sectors`` reads off its zeros,
    whatever the SDP's size: each block splits into sets of its coordinates
    and each round's constraint into sets of columns of W_j, and the round-j
    multiplier on S_j holds each Z_{j,a} on its sector's columns
    (``expand_multipliers``).  The chain is these multipliers made exactly
    feasible on the unsplit ``cheat_sdp``: Z_N is pinned to the compressed
    target projector W_N^dag P W_N, which makes block rho_N's slack exactly
    0, and walking down from N each Z_j is shifted by the identity just far
    enough that ``verify_dual`` finds block rho_j PSD, on ``cheat_sdp`` cut
    to rho_j.  So the chain is feasible whatever the solver's accuracy, and
    its value Z_0 bounds the probability from above.
    """
    problem = cheat_sdp(protocol, honest, target)
    blocks, rounds = sectors(problem)
    solution = solve(restrict(problem, blocks, rounds))
    if solution.status != "converged":
        raise RuntimeError(
            f"cheat SDP (party {honest} honest, forcing {target}) did not converge (status {solution.status})"
        )
    n = len(problem.blocks) - 1
    multipliers = expand_multipliers(rounds, solution.dual_multipliers)
    chain = {name: np.atleast_2d(z).astype(complex) for name, z in multipliers.items()}
    # the objective is Z_N (x) 1 on S_N (x) M, so Z_N is its every d_msg-th row and column
    d_msg = protocol.layout_m.dim
    chain[f"round_{n}"] = problem.objective[f"rho_{n}"][::d_msg, ::d_msg].copy()
    for j in range(n - 1, -1, -1):
        lam = verify_dual(_one_block(problem, f"rho_{j}"), chain).lambda_min[f"rho_{j}"]
        if lam < 0.0:
            z = chain[f"round_{j}"]
            chain[f"round_{j}"] = z - lam * np.eye(z.shape[0])
    return CheatResult(
        probability=solution.primal_value,
        bound=float(np.real(chain["round_0"][0, 0])),
        chain=chain,
    )


# ---------------------------------------------------------------------------
# the interpolating sequence


def dual_bound_sequence(protocol: KPartyProtocol, chains, target: int = 1):
    """The interpolating values F_0..F_T for one feasible multiplier chain per party.

    chains[i] is a chain of the cheat SDP with party i honest (multipliers on
    party i's supports), as ``optimal_cheat(protocol, i, target).chain``; all
    aim at the same ``target`` outcome and must pass ``verify_dual`` on their
    ``cheat_sdp``.  F_r, at turn boundary r, is evaluated with each party's
    lifted multiplier W_c Z_c W_c^dag, c its turns among the first r: the
    honest state there lies in (x)_i S_{i,c_i(r)} (x) M, and a turn of party
    i maps S_{i,c} (x) M into S_{i,c+1} (x) M, so the step inequalities on the
    supports are all the ordering needs, whatever the turn order.  F_0
    equals the product of the chain values, F_r never increases, and
    F_T >= p_target, with equality when every chain is pinned to the target
    projector (as ``optimal_cheat`` pins them).
    """
    if len(chains) != protocol.k:
        raise ValueError(f"need one chain per party: {protocol.k} parties, {len(chains)} chains")
    lifted = []  # lifted[i][c]: party i's multiplier after c of its turns, on its private space
    for honest, chain in enumerate(chains):
        supports = reachable_supports(protocol, honest)
        report = verify_dual(cheat_sdp(protocol, honest, target, supports), chain)
        if not report.feasible:
            bad = [j for j in range(len(supports)) if report.lambda_min[f"rho_{j}"] < -CERT_TOL]
            raise ValueError(f"party-{honest}-honest chain infeasible: rounds {bad} violate the step inequality")
        lifted.append([w @ np.atleast_2d(chain[f"round_{j}"]) @ w.conj().T for j, w in enumerate(supports)])
    dims = protocol.full_layout.factor_dims
    values = []
    for r, psi in enumerate(honest_run(protocol)):
        phi = psi
        for i, z in enumerate(lifted):
            phi = apply_local(z[protocol.turns[:r].count(i)], phi, dims, protocol.party_factors(i))
        values.append(float(np.real(np.vdot(psi, phi))))
    return values


def sequence_holds(values, p_target: float) -> bool:
    """Whether an interpolating sequence certifies the product bound: it never
    rises by more than ``CERT_TOL`` and ends at ``p_target`` within 1e-9, so
    its first value, the product of the chain values, is at least p_target."""
    return all(a >= b - CERT_TOL for a, b in zip(values, values[1:])) and abs(values[-1] - p_target) <= 1e-9


# ---------------------------------------------------------------------------
# the product bound


@dataclass(frozen=True)
class ProductCheck:
    cheats: tuple  # one CheatResult per honest party i: p_i = cheats[i].probability
    product: float  # prod_i p_i
    p_honest: float  # the honest run's probability of ``target``
    passed: bool
    balanced_max_ok: bool | None  # None when the protocol is not balanced


def cheat_product_check(protocol: KPartyProtocol, target: int = 1) -> ProductCheck:
    """Check prod_i p_i >= p_target - PRODUCT_SLACK on a validated protocol.

    p_i is the probability that the other parties force ``target`` on an
    honest party i.  For balanced protocols (p_target = 1/2) additionally
    checks max_i p_i >= 2^(-1/k) - PRODUCT_SLACK.  RuntimeError if a cheat
    SDP did not converge.
    """
    report = validate_protocol(protocol)
    if not report.valid:
        raise ValueError("protocol fails its honest-run conditions")
    p_honest = report.p1 if target == 1 else report.p0
    cheats = tuple(optimal_cheat(protocol, i, target) for i in range(protocol.k))
    probabilities = [c.probability for c in cheats]
    product = float(np.prod(probabilities))
    balanced = abs(p_honest - 0.5) <= 1e-9
    return ProductCheck(
        cheats=cheats,
        product=product,
        p_honest=p_honest,
        passed=product >= p_honest - PRODUCT_SLACK,
        balanced_max_ok=(max(probabilities) >= 2 ** (-1 / protocol.k) - PRODUCT_SLACK) if balanced else None,
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
