import json

import numpy as np
import pytest

from conftest import random_hermitian, random_unitary
from qcoinflip.quantum import HilbertLayout
from qcoinflip.sdp import (
    Constraint,
    DualCertificate,
    LinearTerm,
    SdpProblem,
    _Compiled,
    _HermBasis,
    certificate_from_json,
    certificate_to_json,
    duality_gap,
    problem_from_json,
    problem_to_json,
    solution_to_json,
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


def _random_psd(d, rng, trace=None):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T + 0.1 * np.eye(d)
    if trace is not None:
        mat *= trace / np.trace(mat).real
    return mat


def random_structured_problem(rng, with_op=True):
    # right-hand sides come from an explicit strictly feasible point, so the
    # instance is guaranteed solvable
    from qcoinflip.quantum import ptrace

    lay_a = HilbertLayout((2, 3))
    lay_b = HilbertLayout((3,))
    p0 = _random_psd(6, rng)
    q0 = _random_psd(3, rng, trace=1.0)
    terms1 = (LinearTerm("P", 1.0, None, None, (1,)), LinearTerm("Q", -1.0))
    cons = [Constraint("marginal", terms1, ptrace(p0, (2, 3), (1,)) - q0)]
    if with_op:
        k = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
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
        objective={"P": random_hermitian(6, rng), "Q": random_hermitian(3, rng)},
        constraints=tuple(cons),
    )


class TestHermBasis:
    def test_orthonormal(self):
        basis = _HermBasis(4)
        mats = [basis.expand(row) for row in np.eye(16)]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                inner = np.trace(a.conj().T @ b).real
                assert abs(inner - (i == j)) < 1e-12

    def test_project_expand_roundtrip(self, rng):
        basis = _HermBasis(5)
        mat = random_hermitian(5, rng)
        np.testing.assert_allclose(basis.expand(basis.project(mat)), mat, atol=1e-12)


class TestCompiled:
    def test_apply_adjoint_duality(self, rng):
        comp = _Compiled(random_structured_problem(rng))
        xs = []
        for d in comp.block_dims:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            xs.append(g @ g.conj().T)
        y = rng.normal(size=comp.m)
        lhs = float(comp.apply(xs) @ y)
        adj = comp.adjoint(y)
        rhs = sum(np.real(np.trace(xs[i] @ adj[i])) for i in range(comp.nblocks))
        assert abs(lhs - rhs) < 1e-9

    def test_schur_matches_brute_force(self, rng):
        comp = _Compiled(random_structured_problem(rng))
        scalings = []
        for d in comp.block_dims:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            scalings.append(g @ g.conj().T + 0.1 * np.eye(d))
        fast = comp.schur(scalings)
        rows = comp.dense_rows()
        bases = [_HermBasis(d) for d in comp.block_dims]
        offs = np.cumsum([0] + [b.size for b in bases])
        mats = [
            [bases[i].expand(rows[r, offs[i] : offs[i + 1]]) for i in range(comp.nblocks)]
            for r in range(comp.m)
        ]
        slow = np.zeros((comp.m, comp.m))
        for r in range(comp.m):
            for s in range(comp.m):
                slow[r, s] = sum(
                    np.real(np.trace(mats[r][i] @ scalings[i] @ mats[s][i] @ scalings[i]))
                    for i in range(comp.nblocks)
                )
        np.testing.assert_allclose(fast, slow, atol=1e-8)


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

    def test_missing_multiplier_rejected(self):
        prob = trivial_problem(0.5)
        with pytest.raises(KeyError):
            verify_dual(prob, DualCertificate(multipliers={}, claimed_value=0.0))


class TestJsonFixtures:
    def test_problem_roundtrip(self, rng):
        prob = random_structured_problem(rng)
        data = json.loads(json.dumps(problem_to_json(prob)))
        back = problem_from_json(data)
        a, b = solve(prob), solve(back)
        assert abs(a.primal_value - b.primal_value) < 1e-7

    def test_solution_and_certificate_serialize(self, rng):
        prob = trivial_problem(0.5)
        sol = solve(prob)
        payload = json.dumps(solution_to_json(sol), sort_keys=True)
        assert json.loads(payload)["status"] == "converged"
        cert = DualCertificate(multipliers={"pin": 1.0}, claimed_value=0.5)
        back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert back.claimed_value == 0.5

    def test_schema_keys_stable(self):
        data = problem_to_json(trivial_problem())
        assert sorted(data) == ["blocks", "constraints", "objective", "objective_constant"]
        assert sorted(data["constraints"][0]) == ["name", "rhs", "terms"]
        assert sorted(data["constraints"][0]["terms"][0]) == ["block", "coeff", "image_dims", "keep", "op"]
