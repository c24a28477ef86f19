import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    COMPARISON_SET,
    assert_sub_arrays,
    full_space_cheat_sdp,
    haar_random_protocol,
    merge_cheaters,
    relayed_penalty_protocol,
)
from qcoinflip import lowerbound
from qcoinflip.lowerbound import (
    cheat_product_check,
    cheat_sdp,
    dual_bound_sequence,
    group_players,
    multiparty_bias_bound,
    optimal_cheat,
    reachable_supports,
    sequence_holds,
)
from qcoinflip.multiparty import FINAL_PHASE_CHEAT_PROB
from qcoinflip.penalty import PenaltyGame, bob_attack, commit_state
from qcoinflip.protocols import (
    KPartyProtocol,
    alice_announces,
    announce_kparty,
    honest_state,
    penalty_protocol,
    penalty_protocol_compact4,
    validate_protocol,
)
from qcoinflip.quantum import HilbertLayout, projector, swap_gate
from qcoinflip.sdp import (
    CERT_TOL,
    Constraint,
    LinearTerm,
    SdpProblem,
    _Compiled,
    expand_multipliers,
    restrict,
    sectors,
    solve,
    verify_dual,
)


def penalty_forcing_oracle(v: float, target: int) -> float:
    """Independent oracle: the commit/reveal forcing probability from the
    direct two-message formulation (no round unitaries involved).

    Variables: the sent register tau and the opened pair states rho_{b a};
    objective: probability that the verifier accepts outcome ``target``.
    """
    game = PenaltyGame(v)
    blocks = [("tau", 3)]
    objective = {}
    constraints = [Constraint("norm", (LinearTerm("tau", kept=1),), np.array([[1.0]]))]
    for b in (0, 1):
        terms = []
        for a in (0, 1):
            name = f"rho_{b}{a}"
            blocks.append((name, 9))
            weight = 0.5 if (a ^ b) == target else 0.0
            objective[name] = weight * projector(commit_state(a, game))
            terms.append(LinearTerm(name, 1.0, swap_gate(3), 3))  # the sent register first
        terms.append(LinearTerm("tau", -1.0))
        constraints.append(Constraint(f"sent_{b}", tuple(terms), np.zeros((3, 3), dtype=complex)))
    sol = solve(SdpProblem(tuple(blocks), objective, tuple(constraints)))
    assert sol.status == "converged"
    return sol.primal_value


def interpolation_oracle(protocol, chains) -> list:
    """Independent F_r: the honest state after r turns, reshaped to one axis
    per party and one for M, with each party's lifted multiplier, after its
    turns among the first r, contracted on its own axis."""
    axes = [lay.dim for lay in protocol.layouts] + [protocol.layout_m.dim]
    supports = [reachable_supports(protocol, i) for i in range(protocol.k)]
    values = []
    for r in range(len(protocol.turns) + 1):
        psi = honest_state(protocol, r).amplitudes.reshape(axes)
        phi = psi
        for i, (w, chain) in enumerate(zip(supports, chains)):
            c = protocol.turns[:r].count(i)
            z = w[c] @ chain[f"round_{c}"] @ w[c].conj().T
            phi = np.moveaxis(np.tensordot(z, phi, axes=(1, i)), 0, i)
        values.append(float(np.vdot(psi, phi).real))
    return values


def assert_interpolates(protocol, cheats, target):
    """The sequence of the cheats' chains: one value per turn boundary, equal
    to the oracle, from the product of the chain values, never rising, down
    to the honest probability of ``target``."""
    chains = [cheat.chain for cheat in cheats]
    values = dual_bound_sequence(protocol, chains, target)
    report = validate_protocol(protocol)
    assert len(values) == len(protocol.turns) + 1
    np.testing.assert_allclose(values, interpolation_oracle(protocol, chains), atol=1e-12)
    assert all(a >= b - CERT_TOL for a, b in zip(values, values[1:])), values
    assert abs(values[0] - math.prod(cheat.bound for cheat in cheats)) <= 1e-12
    assert abs(values[-1] - (report.p1 if target else report.p0)) <= 1e-9
    return values


@pytest.fixture(scope="module")
def v16_check():
    """The product check of penalty_protocol(16) at target 1: its two cheat
    SDPs are solved once for the module."""
    return cheat_product_check(penalty_protocol(16.0))


def problem_key(problem: SdpProblem) -> int:
    """A hash of every number in an SDP, so that equal problems are solved once."""
    parts = [repr(problem.blocks)]
    for name in sorted(problem.objective):
        parts += [name, np.asarray(problem.objective[name]).tobytes()]
    for con in problem.constraints:
        parts += [con.name, np.asarray(con.rhs).tobytes()]
        for t in con.terms:
            parts += [t.block, repr((t.coeff, t.kept)), b"" if t.op is None else t.op.tobytes()]
    return hash(tuple(parts))


COMPARISON_CASES = [
    (name, honest, target) for name, (_, k) in COMPARISON_SET.items() for honest in range(k) for target in (0, 1)
]


def penalty_reference(v: float, honest: int, target: int) -> float:
    """The forcing probability of a ``penalty_protocol(v)`` cheat SDP, from outside it.

    Against an honest Alice the coalition is Bob, whose best is his
    measurement attack, exactly 1/2 + 1/sqrt(v); against an honest Bob it is
    the direct two-message formulation, a small SDP.  The unsplit solves of
    v16 and v25 agree with these to 2e-7.
    """
    return 0.5 + 1.0 / math.sqrt(v) if honest == 0 else penalty_forcing_oracle(v, target)


# the comparison-set members built on a penalty protocol, and its v; in the relayed
# protocol parties 0 and 1 play penalty_protocol(16), and party 0's outcome is settled
# before the relay, so the coalition forces it as Bob does there
PENALTY_V = {"v16": 16.0, "v25": 25.0, "relayed": 16.0}


@pytest.fixture(scope="module")
def sector_comparison(v16_check):
    """For every cheat SDP of the comparison set: the problem, ``optimal_cheat``'s
    result (solved on its sectors) and the forcing probability it
    should reach.  The penalty SDPs take it from ``penalty_reference``, the
    small ones from their unsplit solve; each distinct problem is solved once,
    and the v16 target-1 results come from ``v16_check``."""
    cheats, references, results = {}, {}, {}
    v16 = penalty_protocol(16.0)
    for honest, cheat in enumerate(v16_check.cheats):
        cheats[problem_key(cheat_sdp(v16, honest, 1))] = cheat
    for name, (build, _) in COMPARISON_SET.items():
        protocol = build()
        for honest in range(protocol.k):
            for target in (0, 1):
                problem = cheat_sdp(protocol, honest, target)
                key = problem_key(problem)
                if key not in references:
                    if name in PENALTY_V and honest < 2:
                        references[key] = penalty_reference(PENALTY_V[name], honest, target)
                    else:
                        whole = solve(problem)
                        assert whole.status == "converged", (name, honest, target)
                        references[key] = whole.primal_value
                if key not in cheats:
                    cheats[key] = optimal_cheat(protocol, honest, target)
                results[(name, honest, target)] = (problem, cheats[key], references[key])
    return results


class TestOptimalCheat:
    # party 0 (Alice) opens, party 1 (Bob) responds; optimal_cheat takes the honest one
    def test_announcer_controls_everything(self):
        p = alice_announces()
        assert abs(optimal_cheat(p, 1, 1).probability - 1.0) < 1e-6
        assert abs(optimal_cheat(p, 1, 0).probability - 1.0) < 1e-6

    def test_listener_controls_nothing(self):
        p = alice_announces()
        assert abs(optimal_cheat(p, 0, 1).probability - 0.5) < 1e-6

    def test_cheating_beats_honest_probability(self):
        for protocol in (alice_announces(), penalty_protocol_compact4()):
            report = validate_protocol(protocol)
            for honest in (0, 1):
                for bit in (0, 1):
                    p_honest = report.p1 if bit else report.p0
                    assert optimal_cheat(protocol, honest, bit).probability >= p_honest - 1e-6

    def test_penalty_v16_bob_matches_helstrom(self, v16_check):
        # cross-module consistency: the round-based SDP equals the
        # measurement attack value computed from the states themselves
        value = v16_check.cheats[0].probability
        assert abs(value - bob_attack(PenaltyGame(16.0)).expected_win) < 1e-4

    def test_penalty_v16_alice_matches_direct_formulation(self, v16_check):
        value = v16_check.cheats[1].probability
        oracle = penalty_forcing_oracle(16.0, 1)
        assert abs(value - oracle) < 1e-4

    def test_compact4_alice_matches_direct_formulation(self):
        p = penalty_protocol_compact4()
        value = optimal_cheat(p, 1, 1).probability
        oracle = penalty_forcing_oracle(4.0, 1)
        assert abs(value - oracle) < 1e-4

    def test_reduction_does_not_change_values(self):
        # the full-space form in the protocol's own factor order checks the
        # support reduction and the reordering of an honest Bob's factors;
        # compact4 against an honest Bob is left out because its full-space
        # form stalls short of the tolerances
        announces = alice_announces()
        cases = [(announces, honest, target) for honest in (1, 0) for target in (0, 1)]
        cases.append((penalty_protocol_compact4(), 0, 1))
        for protocol, honest, target in cases:
            full = solve(full_space_cheat_sdp(protocol, honest, target))
            assert full.status == "converged", (protocol.name, honest, target)
            reduced = optimal_cheat(protocol, honest, target).probability
            assert abs(full.primal_value - reduced) < 1e-6, (protocol.name, honest, target)

    def test_blocks_are_private_first_for_either_cheater(self):
        p = penalty_protocol(16.0)
        d_msg = p.layout_m.dim
        for honest in (0, 1):
            supports = reachable_supports(p, honest)
            problem = cheat_sdp(p, honest, 1)
            assert [d for _, d in problem.blocks] == [w.shape[1] * d_msg for w in supports]
            # every round keeps the support, the first factor of support (x) message
            kept = [[t.kept for t in con.terms] for con in problem.constraints]
            assert kept == [[1]] + [[w.shape[1]] * 2 for w in supports[1:]]

    def test_supports_and_sectors_computed_once_per_call(self, monkeypatch):
        # one cheat_sdp per call, and its sectors read off it once
        calls = {"reachable_supports": 0, "sectors": 0}
        for name in calls:
            original = getattr(lowerbound, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(lowerbound, name, counting)
        for honest in (0, 1):
            optimal_cheat(penalty_protocol_compact4(), honest, 1)
        assert calls == {"reachable_supports": 2, "sectors": 2}

    @pytest.mark.parametrize("honest", [-1, 2, "alice"])
    def test_honest_index_out_of_range_raises(self, honest):
        with pytest.raises(ValueError, match="out of range"):
            cheat_sdp(alice_announces(), honest, 1)

    def test_probability_outside_unit_interval_raises(self, monkeypatch):
        real_solve = lowerbound.solve

        def overshoot(problem):
            return replace(real_solve(problem), primal_value=1.5)

        monkeypatch.setattr(lowerbound, "solve", overshoot)
        with pytest.raises(ValueError, match="outside"):
            optimal_cheat(alice_announces(), 0, 1)

    def test_kparty_values_equal_the_merged_coalition(self):
        # the coalition view of the k-party protocol is the same SDP as the
        # two-party protocol that fuses the other parties into one
        for k in (3, 4):
            kp = announce_kparty(k)
            for honest in range(k):
                merged = merge_cheaters(kp, honest)
                for bit in (0, 1):
                    value = optimal_cheat(kp, honest, bit).probability
                    assert value == optimal_cheat(merged, 0, bit).probability, (k, honest, bit)

    def test_cheat_sdp_weak_duality_both_sides(self):
        # solve primal and dual numerically and check the gap sign
        from qcoinflip.sdp import duality_gap

        p = penalty_protocol_compact4()
        for honest in (1, 0):
            problem = cheat_sdp(p, honest, 1)
            sol = solve(problem)
            assert sol.status == "converged"
            gap = duality_gap(problem, sol, sol.dual_multipliers)
            assert gap >= -1e-6
            assert gap <= 1e-4


class TestReachableSupports:
    def test_base_is_zero_ket(self):
        supports = reachable_supports(alice_announces(), 0)
        assert supports[0].shape == (2, 1)
        assert abs(supports[0][0, 0] - 1.0) < 1e-12

    def test_dimensions_never_exceed_space(self):
        p = penalty_protocol(16.0)
        for honest in (0, 1):
            priv_dim = p.layouts[honest].dim
            for w in reachable_supports(p, honest):
                assert w.shape[0] == priv_dim
                assert w.shape[1] <= priv_dim
                np.testing.assert_allclose(w.conj().T @ w, np.eye(w.shape[1]), atol=1e-10)


class TestSymmetrySectors:
    def test_haar_random_unitaries_leave_one_sector_per_round(self, rng, monkeypatch):
        # a Haar-random unitary leaves no zero in its rounds' operators, and the last round's
        # free message alone splits nothing the constraints tell apart: the solve is the
        # unsplit one
        p = haar_random_protocol(rng)
        solutions = []

        def recording(problem):
            solutions.append(solve(problem))
            return solutions[-1]

        monkeypatch.setattr(lowerbound, "solve", recording)
        for honest in range(p.k):
            for target in (0, 1):
                problem = cheat_sdp(p, honest, target)
                blocks, rounds = sectors(problem)
                assert rounds == {}
                assert set(blocks) <= {problem.blocks[-1][0]}
                assert problem_key(restrict(problem, blocks, rounds)) == problem_key(problem)
                cheat = optimal_cheat(p, honest, target)
                whole = solve(problem)
                assert solutions[-1].status == whole.status == "converged"
                assert cheat.probability == whole.primal_value
                assert solutions[-1].iterations == whole.iterations
                assert verify_dual(problem, cheat.chain, tol=1e-10).feasible

    def test_penalty_alice_cheat_sdp_splits(self):
        # the v16 Alice-cheat SDP: blocks 6, 36, 216 and m = 688 become blocks of at most 12
        # and m = 45
        p = penalty_protocol(16.0)
        problem = cheat_sdp(p, 1, 1)
        split = restrict(problem, *sectors(problem))
        assert [d for _, d in problem.blocks] == [6, 36, 216]
        assert (_Compiled(problem).m, _Compiled(split).m) == (688, 45)
        assert max(d for _, d in split.blocks) == 12

    @pytest.mark.parametrize("name", list(COMPARISON_SET))
    def test_every_cheat_sdp_is_solved_on_its_sectors(self, name, monkeypatch):
        # one path: whatever the protocol's size, solve gets the restricted problem
        class Handed(Exception):
            pass

        handed = []

        def recording(problem):
            handed.append(problem)
            raise Handed

        monkeypatch.setattr(lowerbound, "solve", recording)
        p = COMPARISON_SET[name][0]()
        for honest in range(p.k):
            with pytest.raises(Handed):
                optimal_cheat(p, honest, 1)
            problem = cheat_sdp(p, honest, 1)
            found = sectors(problem)
            assert problem_key(handed[-1]) == problem_key(restrict(problem, *found)), honest
            assert_sub_arrays(problem, handed[-1], *found)

    @pytest.mark.parametrize("case", COMPARISON_CASES, ids=["-".join(map(str, c)) for c in COMPARISON_CASES])
    def test_sector_solve_matches_its_reference(self, sector_comparison, case):
        problem, cheat, reference = sector_comparison[case]
        assert abs(cheat.probability - reference) <= 1e-6
        report = verify_dual(problem, cheat.chain, tol=1e-10)
        assert report.feasible, report.lambda_min
        assert cheat.bound == report.bound
        assert cheat.bound >= cheat.probability - 1e-7

    def test_repair_checks_one_block_per_round(self, monkeypatch):
        # round j of the repair checks block rho_j alone, from N - 1 down to 0; rho_N is never
        # read, as its slack Z_N (x) 1 - C is exactly 0 on the unsplit SDP
        checked = []

        def recording(problem, multipliers, tol=CERT_TOL):
            checked.append([name for name, _ in problem.blocks])
            return verify_dual(problem, multipliers, tol)

        monkeypatch.setattr(lowerbound, "verify_dual", recording)
        for name, (build, _) in COMPARISON_SET.items():
            p = build()
            for honest in range(p.k):
                checked.clear()
                cheat = optimal_cheat(p, honest, 1)
                n = len(cheat.chain) - 1
                assert checked == [[f"rho_{j}"] for j in range(n - 1, -1, -1)], (name, honest)
                report = verify_dual(cheat_sdp(p, honest, 1), cheat.chain, tol=1e-10)
                assert report.feasible, (name, honest, report.lambda_min)
                assert report.lambda_min[f"rho_{n}"] == 0.0, (name, honest, report.lambda_min)

    @pytest.mark.parametrize("name", ["v25", "compact4"])
    def test_repair_shifts_every_lowered_round(self, name, monkeypatch):
        # every sector multiplier lowered by 1e-6: each round below N then fails its step
        # inequality, and the repair shifts its multiplier by a multiple of the identity
        lowered = []

        def lowering(problem):
            solution = solve(problem)
            multipliers = {}
            for c, z in solution.dual_multipliers.items():
                z = np.atleast_2d(z)
                multipliers[c] = z - 1e-6 * np.eye(len(z))
            lowered.append(multipliers)
            return replace(solution, dual_multipliers=multipliers)

        monkeypatch.setattr(lowerbound, "solve", lowering)
        p = COMPARISON_SET[name][0]()
        for honest in range(p.k):
            cheat = optimal_cheat(p, honest, 1)
            problem = cheat_sdp(p, honest, 1)
            given = expand_multipliers(sectors(problem)[1], lowered[-1])
            for j in range(len(problem.blocks) - 1):
                shift = cheat.chain[f"round_{j}"] - np.atleast_2d(given[f"round_{j}"])
                lam = shift[0, 0].real
                assert lam > 0.0, (name, honest, j)
                np.testing.assert_allclose(shift, lam * np.eye(len(shift)), rtol=0, atol=1e-14)
            report = verify_dual(problem, cheat.chain, tol=1e-10)
            assert report.feasible, report.lambda_min
            assert cheat.bound == report.bound
            assert cheat.bound >= cheat.probability - 1e-7

    @pytest.mark.parametrize("name", [*COMPARISON_SET, "haar-random"])
    def test_supports_are_bases_of_their_projectors(self, name, rng):
        # W_j^dag W_j = 1 and W_j W_j^dag = Pi_j, the projector onto the range of the private
        # marginal of U_j (Pi_{j-1} (x) 1) U_j^dag
        p = haar_random_protocol(rng) if name == "haar-random" else COMPARISON_SET[name][0]()
        d_msg = p.layout_m.dim
        for honest in range(p.k):
            d_priv = p.layouts[honest].dim
            unitaries = [u for t, u in zip(p.turns, p.unitaries) if t == honest]
            supports = reachable_supports(p, honest)
            pi = np.zeros((d_priv, d_priv), dtype=complex)
            pi[0, 0] = 1.0
            for j, w in enumerate(supports):
                if j:
                    image = unitaries[j - 1] @ np.kron(pi, np.eye(d_msg)) @ unitaries[j - 1].conj().T
                    evals, vecs = np.linalg.eigh(image.reshape(d_priv, d_msg, d_priv, d_msg).trace(axis1=1, axis2=3))
                    pi = vecs[:, evals > 1e-9] @ vecs[:, evals > 1e-9].conj().T
                np.testing.assert_allclose(w.conj().T @ w, np.eye(w.shape[1]), atol=1e-12)
                np.testing.assert_allclose(w @ w.conj().T, pi, atol=1e-10, err_msg=f"{name} {honest} {j}")

    @pytest.mark.parametrize("case", COMPARISON_CASES, ids=["-".join(map(str, c)) for c in COMPARISON_CASES])
    def test_restricted_sizes(self, case):
        # m and the block sizes (size: count) of each cheat SDP on its sectors, the same for
        # either target; a support basis that mixed its projector's components would split
        # coarser
        name, honest, target = case
        sizes = {
            0: (28, {1: 36, 2: 12, 6: 18}),
            1: (45, {1: 32, 2: 5, 6: 32, 12: 2}),
        }
        expected = {
            "v16": sizes,
            "v25": sizes,
            "relayed": {0: (46, {1: 36, 2: 12, 6: 36}), 1: sizes[1], 2: (3, {3: 2, 6: 2})},
            "compact4": {0: (7, {1: 4, 2: 5}), 1: (13, {1: 10, 2: 8})},
            "announces": {0: (3, {2: 3}), 1: (3, {1: 2, 2: 2})},
            "announce3": {0: (3, {2: 3}), 1: (3, {1: 2, 2: 2}), 2: (3, {1: 2, 2: 2})},
        }[name][honest]
        problem = cheat_sdp(COMPARISON_SET[name][0](), honest, target)
        split = restrict(problem, *sectors(problem))
        assert (_Compiled(split).m, Counter(d for _, d in split.blocks)) == expected

    def test_chain_off_its_sectors_is_rejected(self, v16_check):
        # add to Z_1 of the Alice-cheat chain a term between two private sectors: truncated to
        # its sectors the chain is unchanged, yet on the unsplit SDP it soon fails, and the
        # sequence refuses it
        p = penalty_protocol(16.0)
        problem = cheat_sdp(p, 1, 1)
        pieces = sectors(problem)[1]["round_1"]
        chain = v16_check.cheats[1].chain
        off = np.zeros_like(chain["round_1"])
        off[np.ix_(pieces[0], pieces[1])] = 1.0
        off = off + off.conj().T
        for t in 1e-3 * 2.0 ** np.arange(20):
            perturbed = dict(chain, round_1=chain["round_1"] + t * off)
            if not verify_dual(problem, perturbed, tol=1e-10).feasible:
                break
        else:
            pytest.fail("no perturbation made the chain infeasible")
        truncated = np.zeros_like(chain["round_1"])
        for q in pieces:
            truncated[np.ix_(q, q)] = perturbed["round_1"][np.ix_(q, q)]
        np.testing.assert_array_equal(truncated, chain["round_1"])
        with pytest.raises(ValueError, match="party-1-honest chain infeasible"):
            dual_bound_sequence(p, [v16_check.cheats[0].chain, perturbed], target=1)


# generated protocols with Haar-random unitaries: complex cheat SDPs with nothing to split
# on.  Per family, (case, builder) pairs; every (honest, target) of each case is solved
HAAR_FAMILIES = {
    # (Alice, Bob, M) dims (4, 2, 2), turns (0, 1, 0, 1), seeds 0-19
    "fixture": [(seed, lambda seed=seed: haar_random_protocol(np.random.default_rng(seed))) for seed in range(20)],
    # (Alice, Bob, M) dims as keyed, turns (0, 1, 0, 1), seed 0: blocks to 32, m to 129
    "larger": [
        (dims, lambda a=dims[0], b=dims[1], m=dims[2]: haar_random_protocol(np.random.default_rng(0), ((a,), (b,)), m))
        for dims in ((4, 4, 4), (8, 4, 4), (8, 8, 4))
    ],
    # three parties of dim 2, M of dim 2, turns (0, 1, 2, 0, 1, 2), seeds 0-9
    "three-party": [
        (seed, lambda seed=seed: haar_random_protocol(np.random.default_rng(seed), ((2,),) * 3, 2, (0, 1, 2) * 2))
        for seed in range(10)
    ],
}
# the (case, honest, target) that stop, with their status.  Both are primal end-games: the
# best iterate's dual residual is at rounding level and its multipliers pass verify_dual,
# but it misses the gap tolerance (fixture: 2.6e-7, primal 3.8e-9) or FEAS_TOL
# (three-party: primal 1.8e-8, gap 4.4e-8)
HAAR_STOPS = {
    "fixture": {(12, 0, 0): "non-finite-direction"},
    "larger": {},
    "three-party": {(7, 0, 0): "non-finite-direction"},
}


class TestGeneratedComplexProtocols:
    @pytest.mark.parametrize("family", list(HAAR_FAMILIES))
    def test_every_case_converges_to_a_verified_chain_or_names_its_stop(self, family):
        stops = {}
        for case, build in HAAR_FAMILIES[family]:
            protocol = build()
            for honest in range(protocol.k):
                for target in (0, 1):
                    try:
                        cheat = optimal_cheat(protocol, honest, target)
                    except RuntimeError as err:
                        stops[case, honest, target] = re.search(r"\(status ([\w-]+)\)", str(err)).group(1)
                        continue
                    report = verify_dual(cheat_sdp(protocol, honest, target), cheat.chain, tol=1e-10)
                    assert report.feasible, (case, honest, target)
                    assert report.bound == cheat.bound >= cheat.probability - 1e-6, (case, honest, target)
        assert stops == HAAR_STOPS[family]


class TestProductCheck:
    def test_announcer_tight_instance(self):
        check = cheat_product_check(alice_announces())
        assert abs(check.cheats[1].probability - 1.0) < 1e-5  # Alice cheats
        assert abs(check.cheats[0].probability - 0.5) < 1e-5  # Bob cheats
        assert check.product >= check.p_honest - 1e-5
        assert check.passed and check.balanced_max_ok

    def test_compact_penalty(self):
        check = cheat_product_check(penalty_protocol_compact4())
        assert check.passed and check.balanced_max_ok

    def test_penalty_v16(self, v16_check):
        check = v16_check
        assert check.passed and check.balanced_max_ok
        # responder side is the measurement attack; the product bound then
        # forces the opener above 2/3
        assert check.cheats[0].probability >= 2 / 3 - 1e-4

    def test_invalid_protocol_rejected(self):
        base = alice_announces()
        broken = replace(base, projectors=(base.projectors[0], base.projectors[1][::-1]))
        with pytest.raises(ValueError):
            cheat_product_check(broken)

    def test_penalty_v16_realises_the_final_phase_cheat_probability(self, v16_check):
        # the instance multiparty's FINAL_PHASE_CHEAT_PROB names: penalty_protocol(16) run as a
        # plain coin flip, where a cheater forces the outcome with probability 3/4 either way round
        for cheat in v16_check.cheats:
            assert abs(cheat.probability - FINAL_PHASE_CHEAT_PROB) <= 1e-6
            assert -1e-9 <= cheat.bound - FINAL_PHASE_CHEAT_PROB <= 1e-6


class TestDualChains:
    def test_announce_chain_tight_and_constant(self):
        p = alice_announces()
        cheat_a, cheat_b = optimal_cheat(p, 0, 1), optimal_cheat(p, 1, 1)
        assert abs(cheat_a.bound - 0.5) < 1e-5
        assert abs(cheat_b.bound - 1.0) < 1e-5
        values = assert_interpolates(p, (cheat_a, cheat_b), 1)
        assert len(values) == 3
        assert abs(values[0] - 0.5) < 1e-5

    def test_compact_penalty_chain_monotone(self):
        p = penalty_protocol_compact4()
        cheat_a, cheat_b = optimal_cheat(p, 0, 1), optimal_cheat(p, 1, 1)
        assert abs(cheat_a.bound - 1.0) < 1e-6
        assert abs(cheat_b.bound - 0.5) < 1e-6
        values = assert_interpolates(p, (cheat_a, cheat_b), 1)
        assert len(values) == 5
        # the chain start bounds the true cheat product from above
        assert values[0] >= 0.5 - 1e-9

    @pytest.mark.parametrize("target", [0, 1])
    @pytest.mark.parametrize(
        "build",
        [alice_announces, penalty_protocol_compact4, lambda: announce_kparty(3), lambda: announce_kparty(4)],
        ids=["announces", "compact4", "announce3", "announce4"],
    )
    def test_every_turn_boundary_interpolates(self, build, target):
        p = build()
        assert_interpolates(p, [optimal_cheat(p, i, target) for i in range(p.k)], target)

    @pytest.mark.parametrize("target", [0, 1])
    @pytest.mark.parametrize("honest, turns", [(1, (1, 0, 1)), (2, (1, 0))], ids=["honest1", "honest2"])
    def test_any_turn_order_interpolates(self, honest, turns, target):
        # merging around party 1 or 2 puts a coalition turn first: no round pairs to walk
        merged = merge_cheaters(announce_kparty(3), honest)
        assert merged.turns == turns
        cheats = [optimal_cheat(merged, i, target) for i in range(merged.k)]
        values = assert_interpolates(merged, cheats, target)
        assert abs(values[-1] - 0.5) < 1e-12

    def test_chains_are_exactly_feasible(self):
        # every chain optimal_cheat returns is feasible, and its value bounds the solver's optimum
        cases = [(penalty_protocol_compact4(), honest, 1) for honest in (0, 1)]
        for protocol in (alice_announces(), announce_kparty(3)):
            cases += [(protocol, honest, bit) for honest in range(protocol.k) for bit in (0, 1)]
        for protocol, honest, bit in cases:
            cheat = optimal_cheat(protocol, honest, bit)
            report = verify_dual(cheat_sdp(protocol, honest, bit), cheat.chain, tol=1e-10)
            assert report.feasible, (protocol.name, honest, bit, report.lambda_min)
            assert cheat.bound == report.bound
            assert cheat.bound >= cheat.probability - 1e-7
            assert max(np.linalg.norm(z, 2) for z in cheat.chain.values()) <= 2.0

    def test_global_shift_keeps_feasibility_and_raises_values(self):
        p = alice_announces()
        cert_a = optimal_cheat(p, 0, 1).chain
        cert_b = optimal_cheat(p, 1, 1).chain
        eps = 1e-3
        shifted = {k: v + eps * np.eye(v.shape[0]) for k, v in cert_a.items()}
        assert verify_dual(cheat_sdp(p, 0, 1), shifted, tol=1e-10).feasible
        base = dual_bound_sequence(p, (cert_a, cert_b), target=1)
        raised = dual_bound_sequence(p, (shifted, cert_b), target=1)
        assert all(r >= b - 1e-12 for r, b in zip(raised, base))
        assert raised[0] > base[0]

    def test_infeasible_chain_rejected_with_round_index(self):
        # the error names the party whose chain fails and the rounds that fail
        p = alice_announces()
        chains = [optimal_cheat(p, i, 1).chain for i in range(p.k)]
        for party in range(p.k):
            broken = dict(chains[party])
            broken["round_0"] = broken["round_0"] - 0.2 * np.eye(broken["round_0"].shape[0])
            with pytest.raises(ValueError) as err:
                dual_bound_sequence(p, [broken if i == party else c for i, c in enumerate(chains)], target=1)
            assert f"party-{party}-honest chain infeasible: rounds [0]" in str(err.value)

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_chain_per_party_required(self, count):
        p = alice_announces()
        chain = optimal_cheat(p, 0, 1).chain
        with pytest.raises(ValueError, match=f"2 parties, {count} chains"):
            dual_bound_sequence(p, [chain] * count, target=1)

    def test_sequence_that_rises_fails(self):
        # a rise by more than CERT_TOL anywhere fails, one within it holds; both sequences
        # end at p_target
        for rise, held in ((2 * CERT_TOL, False), (CERT_TOL / 2, True)):
            assert sequence_holds([0.75, 0.75 + rise, 0.5], 0.5) is held, rise
            assert sequence_holds([0.75, 0.5 - rise, 0.5], 0.5) is held, rise


class TestMergeCheaters:
    def test_two_party_merge_preserves_everything(self):
        kp = announce_kparty(2)
        merged = merge_cheaters(kp, 0)
        report = validate_protocol(merged)
        assert report.valid
        assert abs(report.p0 - 0.5) < 1e-12
        assert merged.turns == (0, 1)

    def test_consecutive_cheaters_fuse(self):
        kp = announce_kparty(3)
        merged = merge_cheaters(kp, 0)
        assert merged.turns == (0, 1)  # both cheater turns composed into one

    def test_no_padding_turns(self):
        # each turn keeps its place; a cheater run before the honest turn stays first
        kp = announce_kparty(3)
        assert merge_cheaters(kp, 1).turns == (1, 0, 1)
        assert merge_cheaters(kp, 2).turns == (1, 0)

    def test_honest_run_probabilities_preserved(self):
        kp = announce_kparty(3)
        for honest in range(3):
            merged = merge_cheaters(kp, honest)
            report = validate_protocol(merged)
            assert report.valid
            assert abs(report.p0 - 0.5) < 1e-12
            assert abs(report.p1 - 0.5) < 1e-12

    def test_honest_final_state_matches_up_to_reordering(self):
        kp = announce_kparty(3)
        honest = 1
        merged = merge_cheaters(kp, honest)
        psi_k = honest_state(kp, len(kp.turns)).amplitudes.reshape(2, 2, 2, 2)  # A1 A2 A3 M
        psi_m = honest_state(merged, len(merged.turns)).amplitudes.reshape(2, 2, 2, 2)  # A2 A1 A3 M
        np.testing.assert_allclose(psi_m, np.transpose(psi_k, (1, 0, 2, 3)), atol=1e-10)


class TestKPartyProduct:
    def test_announcer_toy(self):
        for bit in (0, 1):
            check = cheat_product_check(announce_kparty(3), bit)
            assert check.passed
            probabilities = [cheat.probability for cheat in check.cheats]
            assert abs(probabilities[0] - 0.5) < 1e-5  # announcer is honest
            assert abs(probabilities[1] - 1.0) < 1e-5
            assert abs(probabilities[2] - 1.0) < 1e-5
            assert check.product >= 0.5 - 1e-5
            assert check.balanced_max_ok  # max_i p_i >= 2^(-1/3)


class TestAnalyticBounds:
    def test_single_party_trivial(self):
        bound = multiparty_bias_bound(1)
        assert abs(bound.q_min - 0.5) < 1e-15
        assert abs(bound.bias) < 1e-15

    def test_two_party_constant(self):
        assert abs(multiparty_bias_bound(2).q_min - 2**-0.5) < 1e-12

    def test_four_party(self):
        assert abs(multiparty_bias_bound(4).q_min - 2**-0.25) < 1e-12

    def test_power_identity_and_expansion(self):
        for k in range(1, 65):
            bound = multiparty_bias_bound(k)
            assert abs(bound.q_min**k - 0.5) < 1e-12
            assert bound.q_min >= 1 - math.log(2) / k

    def test_monotone_to_half(self):
        biases = [multiparty_bias_bound(k).bias for k in range(1, 200)]
        assert all(a < b for a, b in zip(biases, biases[1:]))
        assert 0.5 - biases[-1] < 0.004

    def test_grouping(self):
        k_eff, bound = group_players(64, 8)
        assert k_eff == 8
        assert abs(bound.bias - (2 ** (-1 / 8) - 0.5)) < 1e-12
        assert group_players(5, 1)[0] == 5
        assert group_players(5, 5)[0] == 1


class TestEncodingSideChannel:
    def test_in_place_preparation_leaks_information(self):
        """Preparing the commitment directly on the message register hands
        the cheater a side channel: he controls the register's prior content
        in this adversary model, and the preparation unitary's completion
        columns then reveal more than the commitment itself.  The cheat SDP
        detects the defect as extra forcing power; the shipped encoding
        prepares in private space and swaps out (see penalty_protocol).
        """
        import numpy as np

        from qcoinflip.penalty import PenaltyGame, commit_state
        from qcoinflip.protocols import controlled_by_factor, two_party, unitary_with_first_column
        from qcoinflip.quantum import CNOT, HADAMARD, embed_operator

        game = PenaltyGame(16.0)
        dims_am = (2, 3, 3, 2)  # (o, q1, chan, bit): NO private buffer
        prep = {
            a: (unitary_with_first_column(commit_state(a, game).amplitudes), (1, 2))
            for a in (0, 1)
        }
        u_a1 = controlled_by_factor(dims_am, 0, prep) @ embed_operator(HADAMARD, dims_am, (0,))
        fold_b = embed_operator(CNOT, dims_am, (3, 0))
        write_a = embed_operator(CNOT, dims_am, (0, 3))
        ship_q1 = embed_operator(swap_gate(3), dims_am, (1, 2))
        u_a2 = ship_q1 @ write_a @ fold_b

        dims_mb = (3, 2, 3, 2, 3, 2)
        u_b1 = (
            embed_operator(CNOT, dims_mb, (3, 1))
            @ embed_operator(HADAMARD, dims_mb, (3,))
            @ embed_operator(swap_gate(3), dims_mb, (0, 2))
        )
        u_b2 = embed_operator(swap_gate(2), dims_mb, (1, 5)) @ embed_operator(
            swap_gate(3), dims_mb, (0, 4)
        )
        proj_a = tuple(
            embed_operator(np.diag([1.0 - c, 1.0 * c]).astype(complex), (2, 3), (0,))
            for c in (0, 1)
        )
        dims_b = (3, 2, 3, 2)
        proj_b = []
        for c in (0, 1):
            total = np.zeros((36, 36), dtype=complex)
            for a in (0, 1):
                b = a ^ c
                total += (
                    embed_operator(projector(commit_state(a, game)), dims_b, (2, 0))
                    @ embed_operator(np.diag([1.0 - b, 1.0 * b]).astype(complex), dims_b, (1,))
                    @ embed_operator(np.diag([1.0 - a, 1.0 * a]).astype(complex), dims_b, (3,))
                )
            proj_b.append(total)
        flawed = two_party(
            layout_a=HilbertLayout((2, 3)),
            layout_m=HilbertLayout((3, 2)),
            layout_b=HilbertLayout((3, 2, 3, 2)),
            unitaries_a=(u_a1, u_a2),
            unitaries_b=(u_b1, u_b2),
            proj_a=proj_a,
            proj_b=tuple(proj_b),
            name="penalty-v16-flawed",
        )
        assert validate_protocol(flawed).valid  # honest runs look identical...
        leaked = optimal_cheat(flawed, 0, 1).probability
        honest_encoding = 0.75  # the measurement-attack ceiling
        assert leaked > honest_encoding + 0.05  # ...but the cheater gains power


class TestFullPenaltyChain:
    def test_v16_chain_tight_monotone_and_exact_at_the_end(self, v16_check):
        # the dual chains of the full two-qutrit penalty encoding: both
        # forcing values are 3/4, so the sequence walks from 9/16 down to
        # the honest probability 1/2
        p = penalty_protocol(16.0)
        cheat_a, cheat_b = v16_check.cheats
        cert_a, cert_b = cheat_a.chain, cheat_b.chain
        assert abs(cheat_a.bound - 0.75) < 1e-5
        assert abs(cheat_b.bound - 0.75) < 1e-5
        for honest, cert in enumerate((cert_a, cert_b)):
            assert verify_dual(cheat_sdp(p, honest, 1), cert, tol=1e-10).feasible
        values = assert_interpolates(p, v16_check.cheats, 1)
        assert len(values) == 5
        assert abs(values[-1] - 0.5) < 1e-7

    def test_relayed_three_party_sequence_moves_per_turn(self):
        # a third party copies the outcome after the reveal: party 0's chain
        # gains a round, the copier's is flat at 1, and F stays at 9/16 until
        # the verifier banks the opened pair, then at 1/2
        p = relayed_penalty_protocol()
        assert p.turns == (0, 1, 0, 1, 0, 2)
        assert validate_protocol(p).valid
        cheats = [optimal_cheat(p, i, 1) for i in range(p.k)]
        np.testing.assert_allclose([c.bound for c in cheats], [0.75, 0.75, 1.0], atol=1e-5)
        values = assert_interpolates(p, cheats, 1)
        np.testing.assert_allclose(values, [9 / 16] * 4 + [0.5] * 3, atol=1e-5)
