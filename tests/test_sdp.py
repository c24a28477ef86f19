import warnings

import numpy as np
import pytest

from conftest import random_hermitian, random_unitary
from qcoinflip.quantum import HilbertLayout
from qcoinflip.sdp import (
    FEAS_TOL,
    Constraint,
    DualCertificate,
    LinearTerm,
    SdpProblem,
    _Compiled,
    duality_gap,
    solve,
    verify_dual,
)

SCALAR = HilbertLayout((1,))


def trivial_problem(value=0.5):
    return SdpProblem(
        blocks=(("x", SCALAR),),
        objective={"x": np.array([[1.0]])},
        constraints=(Constraint("pin", (LinearTerm("x"),), np.array([[value]])),),
    )


def _random_matrix(d, rng, real=False):
    g = rng.normal(size=(d, d))
    return g if real else g + 1j * rng.normal(size=(d, d))


def _random_psd(d, rng, trace=None, real=False):
    g = _random_matrix(d, rng, real)
    mat = g @ g.conj().T + 0.1 * np.eye(d)
    if trace is not None:
        mat *= trace / np.trace(mat).real
    return mat


def _random_hermitian(d, rng, real=False):
    if not real:
        return random_hermitian(d, rng)
    g = rng.normal(size=(d, d))
    return (g + g.T) / 2


def random_structured_problem(rng, with_op=True, real=False):
    # right-hand sides come from an explicit strictly feasible point, so the
    # instance is guaranteed solvable; ``real`` draws real data only
    from qcoinflip.quantum import ptrace

    lay_a = HilbertLayout((2, 3))
    lay_b = HilbertLayout((3,))
    p0 = _random_psd(6, rng, real=real)
    q0 = _random_psd(3, rng, trace=1.0, real=real)
    terms1 = (LinearTerm("P", 1.0, None, None, (1,)), LinearTerm("Q", -1.0))
    cons = [Constraint("marginal", terms1, ptrace(p0, (2, 3), (1,)) - q0)]
    if with_op:
        k = _random_matrix(6, rng, real)
        cons.append(
            Constraint(
                "sandwich",
                (LinearTerm("P", 2.0, k, lay_a, (0,)),),
                2.0 * ptrace(k @ p0 @ k.conj().T, (2, 3), (0,)),
            )
        )
    cons.append(Constraint("norm", (LinearTerm("Q", 1.0, None, None, ()),), np.array([[1.0]])))
    return SdpProblem(
        blocks=(("P", lay_a), ("Q", lay_b)),
        objective={"P": _random_hermitian(6, rng, real), "Q": _random_hermitian(3, rng, real)},
        constraints=tuple(cons),
    )


def rotate_phases(problem, rng):
    """The same SDP in each block's basis turned by a diagonal unitary D of random phases.

    X -> D X D^dag maps feasible points to feasible points with the same value,
    and the copy's data is complex.
    """
    phases = {name: np.exp(1j * rng.uniform(0, 2 * np.pi, layout.dim)) for name, layout in problem.blocks}
    layouts = dict(problem.blocks)

    def turned(term):
        op = np.eye(layouts[term.block].dim) if term.op is None else term.op
        image = layouts[term.block] if term.image_layout is None else term.image_layout
        return LinearTerm(term.block, term.coeff, op * phases[term.block].conj(), image, term.keep)

    return SdpProblem(
        blocks=problem.blocks,
        objective={name: np.outer(phases[name], phases[name].conj()) * c for name, c in problem.objective.items()},
        constraints=tuple(Constraint(c.name, tuple(map(turned, c.terms)), c.rhs) for c in problem.constraints),
        objective_constant=problem.objective_constant,
    )


def _random_multiplier_coords(comp, rng):
    real = comp.dtype == np.float64
    mats = {name: _random_hermitian(d, rng, real) for (name, _), d in zip(comp.constraints, comp.con_dims)}
    return comp.y_from_multipliers(mats)


DATA = pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])


class TestCompiled:
    @DATA
    def test_dtype_and_coordinate_count(self, rng, real):
        comp = _Compiled(random_structured_problem(rng, real=real))
        assert comp.con_dims == [3, 2, 1]
        if real:
            assert comp.dtype == np.float64 and comp.m == 6 + 3 + 1
        else:
            assert comp.dtype == np.complex128 and comp.m == 9 + 4 + 1
        assert comp.b.dtype == comp.dtype

    def test_penalty_v16_alice_compiles_to_real_svec(self):
        from qcoinflip.lowerbound import cheat_sdp
        from qcoinflip.protocols import penalty_protocol

        comp = _Compiled(cheat_sdp(penalty_protocol(16), "alice", 1))
        assert comp.dtype == np.float64
        assert comp.m == 688 == sum(d * (d + 1) // 2 for d in comp.con_dims)

    @DATA
    def test_coordinate_round_trip(self, rng, real):
        comp = _Compiled(random_structured_problem(rng, real=real))
        mults = {name: _random_hermitian(d, rng, real) for (name, _), d in zip(comp.constraints, comp.con_dims)}
        mults["norm"] = 0.25
        back = comp.multipliers_from_y(comp.y_from_multipliers(mults))
        assert back.keys() == mults.keys()
        assert isinstance(back["norm"], float) and back["norm"] == 0.25
        for name in ("marginal", "sandwich"):
            assert back[name].dtype == comp.dtype
            np.testing.assert_allclose(back[name], mults[name], atol=1e-14)
        if real:
            # a complex multiplier has no real coordinates; it is refused, never cast
            with pytest.raises(ValueError):
                comp.y_from_multipliers({**mults, "marginal": mults["marginal"] + 1j * np.eye(3)})
        else:
            # a non-Hermitian y comes back as its Hermitian part
            skew = comp.y_from_multipliers({**mults, "marginal": mults["marginal"] + 1j * np.eye(3)})
            np.testing.assert_allclose(comp.multipliers_from_y(skew)["marginal"], mults["marginal"], atol=1e-14)

    @DATA
    def test_apply_adjoint_duality(self, rng, real):
        comp = _Compiled(random_structured_problem(rng, real=real))
        xs = [_random_psd(d, rng, real=real) for d in comp.block_dims]
        y = _random_multiplier_coords(comp, rng)
        lhs = np.vdot(y, comp.apply(xs)).real
        adj = comp.adjoint(y)
        rhs = sum(np.real(np.trace(xs[i] @ adj[i])) for i in range(comp.nblocks))
        assert abs(lhs - rhs) < 1e-9
        # the pre-check's explicit matrix renders the same map
        rows = comp.dense_rows()
        assert rows.dtype == comp.dtype
        np.testing.assert_allclose(rows @ np.concatenate([x.ravel() for x in xs]), comp.apply(xs), atol=1e-9)

    @DATA
    def test_schur_matches_brute_force(self, rng, real):
        comp = _Compiled(random_structured_problem(rng, real=real))
        scalings = [_random_psd(d, rng, real=real) for d in comp.block_dims]
        fast = comp.schur(scalings)
        assert fast.dtype == comp.dtype
        mats = [comp.adjoint(e) for e in np.eye(comp.m, dtype=comp.dtype)]
        slow = np.zeros((comp.m, comp.m), dtype=complex)
        for r in range(comp.m):
            for s in range(comp.m):
                slow[r, s] = sum(
                    np.trace(mats[r][i].conj().T @ scalings[i] @ mats[s][i] @ scalings[i])
                    for i in range(comp.nblocks)
                )
        np.testing.assert_allclose(fast, slow, atol=1e-8)
        np.testing.assert_allclose(fast, fast.conj().T, atol=1e-14 * np.abs(fast).max())


class TestSolve:
    def test_trivial_pin(self):
        sol = solve(trivial_problem(0.5))
        assert sol.status == "converged"
        assert abs(sol.primal_value - 0.5) < 1e-7

    def test_inconsistent_constraints(self):
        prob = SdpProblem(
            blocks=(("x", SCALAR),),
            objective={"x": np.array([[1.0]])},
            constraints=(
                Constraint("pin1", (LinearTerm("x"),), np.array([[0.5]])),
                Constraint("pin2", (LinearTerm("x"),), np.array([[0.7]])),
            ),
        )
        assert solve(prob).status == "infeasible"

    def test_converged_status_describes_returned_iterate(self):
        # this instance passes the 1e-10 gap test on an iterate that does not
        # improve the best residual by 0.1 %; the older best misses the gap
        problem = random_structured_problem(np.random.default_rng(20260808), with_op=False, real=True)
        sol = solve(problem, tol=1e-10)
        assert sol.status == "converged"
        assert sol.residuals["gap"] <= 1e-10
        assert max(sol.residuals["primal"], sol.residuals["dual"]) <= FEAS_TOL

    def test_converged_residuals_within_tolerances(self):
        for seed in range(6):
            for real in (False, True):
                for tol in (1e-7, 1e-10):
                    rng = np.random.default_rng(seed)
                    sol = solve(random_structured_problem(rng, with_op=seed % 2 == 0, real=real), tol=tol)
                    if sol.status == "converged":
                        assert sol.residuals["gap"] <= tol, (seed, real, tol)
                        assert max(sol.residuals["primal"], sol.residuals["dual"]) <= FEAS_TOL

    def test_planted_optima(self, rng):
        # 20 random problems with a planted primal/dual pair satisfying
        # complementary slackness; the solver must recover the known value.
        for trial in range(20):
            d = int(rng.integers(3, 7))
            m = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d))
            lay = HilbertLayout((d,))
            basis_u = random_unitary(d, rng)
            x_star = (
                basis_u[:, :rank] @ np.diag(rng.uniform(0.5, 2.0, rank)) @ basis_u[:, :rank].conj().T
            )
            s_star = (
                basis_u[:, rank:] @ np.diag(rng.uniform(0.5, 2.0, d - rank)) @ basis_u[:, rank:].conj().T
            )
            y_star = rng.normal(size=m)
            amats = [random_hermitian(d, rng) for _ in range(m)]
            c = sum(y_star[k] * amats[k] for k in range(m)) - s_star
            cons = []
            for k in range(m):
                evals, vecs = np.linalg.eigh(amats[k])
                pos = vecs @ np.diag(np.sqrt(np.maximum(evals, 0))) @ vecs.conj().T
                neg = vecs @ np.diag(np.sqrt(np.maximum(-evals, 0))) @ vecs.conj().T
                cons.append(
                    Constraint(
                        f"c{k}",
                        (LinearTerm("X", 1.0, pos, lay, ()), LinearTerm("X", -1.0, neg, lay, ())),
                        np.array([[np.real(np.trace(amats[k] @ x_star))]]),
                    )
                )
            prob = SdpProblem(blocks=(("X", lay),), objective={"X": c}, constraints=tuple(cons))
            sol = solve(prob)
            target = float(np.real(np.trace(c @ x_star)))
            assert sol.status == "converged", f"trial {trial} did not converge"
            assert abs(sol.primal_value - target) < 1e-6, f"trial {trial}"

    def test_block_permutation_invariance(self, rng):
        prob = random_structured_problem(rng)
        flipped = SdpProblem(
            blocks=tuple(reversed(prob.blocks)),
            objective=prob.objective,
            constraints=prob.constraints,
            objective_constant=prob.objective_constant,
        )
        a, b = solve(prob), solve(flipped)
        assert a.status == "converged" and b.status == "converged"
        assert abs(a.primal_value - b.primal_value) < 1e-8

    def test_converged_blocks_are_feasible(self, rng):
        prob = random_structured_problem(rng, with_op=False)
        sol = solve(prob)
        assert sol.status == "converged"
        comp = _Compiled(prob)
        xs = [sol.primal_blocks[name] for name in comp.block_names]
        for x in xs:
            assert np.linalg.eigvalsh((x + x.conj().T) / 2)[0] > -1e-8
        residual = comp.b - comp.apply(xs)
        assert np.linalg.norm(residual) <= 1e-7 * (1 + np.linalg.norm(comp.b))

    @pytest.mark.parametrize("which", ["structured", "penalty-v16", "compact4-alice"])
    def test_phase_rotated_copy_solves_to_same_value(self, rng, which):
        from qcoinflip.lowerbound import cheat_sdp
        from qcoinflip.penalty import PenaltyGame, alice_attack_sdp
        from qcoinflip.protocols import penalty_protocol_compact4

        if which == "structured":
            prob = random_structured_problem(rng, real=True)
            # scaled to value O(1), where the solver's relative gap is an absolute one
            prob = SdpProblem(prob.blocks, {k: c / 40 for k, c in prob.objective.items()}, prob.constraints)
        elif which == "penalty-v16":
            prob = alice_attack_sdp(PenaltyGame(16))
        else:
            prob = cheat_sdp(penalty_protocol_compact4(), "alice", 1)
        turned = rotate_phases(prob, rng)
        assert _Compiled(prob).dtype == np.float64 and _Compiled(turned).dtype == np.complex128
        a, b = solve(prob), solve(turned)
        assert a.status == "converged" and b.status == "converged"
        assert abs(a.primal_value - b.primal_value) < 1e-7

    def test_objective_constant_offsets_value(self):
        prob = trivial_problem(0.5)
        shifted = SdpProblem(prob.blocks, prob.objective, prob.constraints, objective_constant=-2.0)
        assert abs(solve(shifted).primal_value - (-1.5)) < 1e-6

    def test_one_cholesky_of_x_and_of_s_per_iterate(self, rng, monkeypatch):
        from qcoinflip import sdp

        calls = []
        real_chol = sdp._chol

        def counting_chol(mat):
            calls.append(mat.shape)
            return real_chol(mat)

        monkeypatch.setattr(sdp, "_chol", counting_chol)
        prob = random_structured_problem(rng)
        sol = solve(prob)
        assert sol.status == "converged"
        # every iterate but the converged last one takes a step
        assert len(calls) == 2 * len(prob.blocks) * (sol.iterations - 1)


class TestCertificates:
    def test_exact_certificate_gap_zero(self):
        prob = trivial_problem(0.5)
        cert = DualCertificate(multipliers={"pin": 1.0}, claimed_value=0.5)
        report = verify_dual(prob, cert)
        assert report.feasible and abs(report.bound - 0.5) < 1e-12
        sol = solve(prob)
        assert abs(duality_gap(prob, sol, cert)) < 1e-6

    def test_weak_duality_on_random_problems(self, rng):
        # any feasible dual point bounds any converged primal value
        for _ in range(10):
            prob = random_structured_problem(rng, with_op=False)
            sol = solve(prob)
            if sol.status != "converged":
                continue
            cert = DualCertificate(multipliers=dict(sol.dual_multipliers), claimed_value=sol.dual_value)
            report = verify_dual(prob, cert, tol=1e-6)
            if report.feasible:
                assert sol.primal_value <= report.bound + 1e-6

    def test_infeasible_certificate_flagged(self):
        prob = trivial_problem(0.5)
        report = verify_dual(prob, DualCertificate(multipliers={"pin": -1.0}, claimed_value=-0.5))
        assert not report.feasible
        assert report.lambda_min["x"] < -1e-9

    def test_complex_multiplier_on_real_data_checked_as_given(self, rng):
        prob = random_structured_problem(rng, with_op=False, real=True)
        z = random_hermitian(3, rng)
        z += 4.0 * np.eye(3)
        cert = DualCertificate(multipliers={"marginal": z, "norm": 2.5}, claimed_value=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            report = verify_dual(prob, cert, tol=1e-10)
        # A*(Z, n) is 1_2 (x) Z on P and n 1 - Z on Q
        slack_p = np.kron(np.eye(2), z) - prob.objective["P"]
        slack_q = 2.5 * np.eye(3) - z - prob.objective["Q"]
        assert abs(report.lambda_min["P"] - np.linalg.eigvalsh(slack_p)[0]) < 1e-12
        assert abs(report.lambda_min["Q"] - np.linalg.eigvalsh(slack_q)[0]) < 1e-12
        # the imaginary part matters: its real part has another spectrum
        assert abs(np.linalg.eigvalsh(slack_q)[0] - np.linalg.eigvalsh(slack_q.real)[0]) > 1e-3
        rhs = prob.constraints[0].rhs
        assert abs(report.bound - (np.trace(rhs @ z).real + 2.5)) < 1e-12

    def test_missing_multiplier_rejected(self):
        prob = trivial_problem(0.5)
        with pytest.raises(KeyError):
            verify_dual(prob, DualCertificate(multipliers={}, claimed_value=0.0))

