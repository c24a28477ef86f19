import warnings

import numpy as np
import pytest

from conftest import dense_rows, random_hermitian, random_unitary
from qcoinflip.sdp import (
    FEAS_TOL,
    Constraint,
    LinearTerm,
    SdpProblem,
    _Compiled,
    duality_gap,
    solve,
    verify_dual,
)

def trivial_problem(value=0.5):
    return SdpProblem(
        blocks=(("x", 1),),
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
    # P lives on (2) (x) (3); the marginal keeps the 3, so its term moves that factor first
    swap = np.eye(6)[np.arange(6).reshape(2, 3).T.ravel()]
    p0 = _random_psd(6, rng, real=real)
    q0 = _random_psd(3, rng, trace=1.0, real=real)
    terms1 = (LinearTerm("P", 1.0, swap, 3), LinearTerm("Q", -1.0))
    cons = [Constraint("marginal", terms1, p0.reshape(2, 3, 2, 3).trace(axis1=0, axis2=2) - q0)]
    if with_op:
        k = _random_matrix(6, rng, real)
        cons.append(
            Constraint(
                "sandwich",
                (LinearTerm("P", 2.0, k, 2),),
                2.0 * (k @ p0 @ k.conj().T).reshape(2, 3, 2, 3).trace(axis1=1, axis2=3),
            )
        )
    cons.append(Constraint("norm", (LinearTerm("Q", kept=1),), np.array([[1.0]])))
    return SdpProblem(
        blocks=(("P", 6), ("Q", 3)),
        objective={"P": _random_hermitian(6, rng, real), "Q": _random_hermitian(3, rng, real)},
        constraints=tuple(cons),
    )


def rotate_phases(problem, rng):
    """The same SDP in each block's basis turned by a diagonal unitary D of random phases.

    X -> D X D^dag maps feasible points to feasible points with the same value,
    and the copy's data is complex.
    """
    phases = {name: np.exp(1j * rng.uniform(0, 2 * np.pi, d)) for name, d in problem.blocks}
    dims = dict(problem.blocks)

    def turned(term):
        op = np.eye(dims[term.block]) if term.op is None else term.op
        return LinearTerm(term.block, term.coeff, op * phases[term.block].conj(), term.kept)

    return SdpProblem(
        blocks=problem.blocks,
        objective={name: np.outer(phases[name], phases[name].conj()) * c for name, c in problem.objective.items()},
        constraints=tuple(Constraint(c.name, tuple(map(turned, c.terms)), c.rhs) for c in problem.constraints),
    )


def y_from_multipliers(comp, multipliers: dict) -> np.ndarray:
    """Oracle inverse of ``_Compiled.multipliers_from_y``: the coordinates of one multiplier per constraint.

    On real data a complex multiplier has no coordinates and is refused.
    """
    mats = comp.multiplier_matrices(multipliers)
    if comp.dtype.kind == "f":
        if any(np.any(np.imag(z)) for z in mats):
            raise ValueError("complex multipliers have no coordinates on real data")
        mats = [z.real for z in mats]
    return comp._coordinates(mats)


def _random_multiplier_coords(comp, rng):
    real = comp.dtype == np.float64
    mats = {name: _random_hermitian(d, rng, real) for (name, _), d in zip(comp.constraints, comp.con_dims)}
    return y_from_multipliers(comp, mats)


DATA = pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])


class TestCompiled:
    @pytest.mark.parametrize(
        "term, message",
        [
            (LinearTerm("x", 1.0, np.eye(6), 4), "kept dimension 4 does not divide the 6 rows"),
            (LinearTerm("x", kept=0), "kept dimension 0"),
            (LinearTerm("x", 1.0, np.eye(6)[:, :5], 2), r"operator shape \(6, 5\) does not act on block 'x' \(dim 6\)"),
        ],
        ids=["kept-not-a-divisor", "kept-zero", "columns-not-block-dim"],
    )
    def test_bad_term_names_its_constraint(self, term, message):
        prob = SdpProblem((("x", 6),), {}, (Constraint("odd", (term,), np.eye(2)),))
        with pytest.raises(ValueError, match=f"constraint 'odd': {message}"):
            _Compiled(prob)

    def test_sdp_module_imports_nothing_from_quantum(self):
        # factor order lives in ``quantum``; the SDP layer sees matrices only
        import ast

        from qcoinflip import sdp

        tree = ast.parse(open(sdp.__file__, encoding="utf-8").read())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported += [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
        assert not [name for name in imported if "quantum" in name.split(".")], imported

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

        comp = _Compiled(cheat_sdp(penalty_protocol(16), 1, 1))
        assert comp.dtype == np.float64
        assert comp.m == 688 == sum(d * (d + 1) // 2 for d in comp.con_dims)

    @DATA
    def test_coordinate_round_trip(self, rng, real):
        comp = _Compiled(random_structured_problem(rng, real=real))
        mults = {name: _random_hermitian(d, rng, real) for (name, _), d in zip(comp.constraints, comp.con_dims)}
        mults["norm"] = 0.25
        back = comp.multipliers_from_y(y_from_multipliers(comp, mults))
        assert back.keys() == mults.keys()
        assert isinstance(back["norm"], float) and back["norm"] == 0.25
        for name in ("marginal", "sandwich"):
            assert back[name].dtype == comp.dtype
            np.testing.assert_allclose(back[name], mults[name], atol=1e-14)
        if real:
            # a complex multiplier has no real coordinates; it is refused, never cast
            with pytest.raises(ValueError):
                y_from_multipliers(comp, {**mults, "marginal": mults["marginal"] + 1j * np.eye(3)})
        else:
            # a non-Hermitian y comes back as its Hermitian part
            skew = y_from_multipliers(comp, {**mults, "marginal": mults["marginal"] + 1j * np.eye(3)})
            np.testing.assert_allclose(comp.multipliers_from_y(skew)["marginal"], mults["marginal"], atol=1e-14)

    @DATA
    def test_apply_adjoint_duality(self, rng, real):
        comp = _Compiled(random_structured_problem(rng, real=real))
        xs = [_random_psd(d, rng, real=real) for d in comp.block_dims]
        y = _random_multiplier_coords(comp, rng)
        lhs = np.vdot(y, comp.apply(comp.stacked(xs))).real
        adj = comp.unstacked(comp.adjoint(y))
        rhs = sum(np.real(np.trace(xs[i] @ adj[i])) for i in range(comp.nblocks))
        assert abs(lhs - rhs) < 1e-9
        # the explicit oracle matrix renders the same map
        rows = dense_rows(comp)
        assert rows.dtype == comp.dtype
        np.testing.assert_allclose(
            rows @ np.concatenate([x.ravel() for x in xs]), comp.apply(comp.stacked(xs)), atol=1e-9
        )

    @DATA
    @pytest.mark.parametrize("push", [0.0, 0.3], ids=["consistent", "pushed"])
    def test_inconsistency_matches_least_squares(self, rng, real, push):
        # a copy of the marginal constraint makes A rank-deficient; moving the
        # copy's right-hand side pushes b out of A's range
        prob = random_structured_problem(rng, real=real)
        marginal = prob.constraints[0]
        copy = Constraint("copy", marginal.terms, marginal.rhs + push * _random_hermitian(3, rng, real))
        prob = SdpProblem(prob.blocks, prob.objective, prob.constraints + (copy,))
        comp = _Compiled(prob)
        rows = dense_rows(comp)
        sol, *_ = np.linalg.lstsq(rows, comp.b, rcond=None)
        oracle = np.linalg.norm(rows @ sol - comp.b)
        assert abs(comp.inconsistency() - oracle) <= 1e-10 * (1.0 + np.linalg.norm(comp.b))
        if push:
            assert oracle > 0.1
            result = solve(prob)
            assert result.status == "infeasible" and result.iterations == 0
            assert abs(result.residuals["constraint_inconsistency"] - oracle) <= 1e-10
        else:
            assert oracle <= 1e-10 * (1.0 + np.linalg.norm(comp.b))
            assert solve(prob).status != "infeasible"

    @DATA
    def test_schur_matches_brute_force(self, rng, real):
        comp = _Compiled(random_structured_problem(rng, real=real))
        scalings = [_random_psd(d, rng, real=real) for d in comp.block_dims]
        fast = comp.schur(comp.stacked(scalings))
        assert fast.dtype == comp.dtype
        mats = [comp.unstacked(comp.adjoint(e)) for e in np.eye(comp.m, dtype=comp.dtype)]
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
            blocks=(("x", 1),),
            objective={"x": np.array([[1.0]])},
            constraints=(
                Constraint("pin1", (LinearTerm("x"),), np.array([[0.5]])),
                Constraint("pin2", (LinearTerm("x"),), np.array([[0.7]])),
            ),
        )
        assert solve(prob).status == "infeasible"

    def test_inconsistency_detected_at_every_size(self):
        # one 80 x 80 block with its trace pinned to two values
        prob = SdpProblem(
            blocks=(("x", 80),),
            objective={"x": np.eye(80)},
            constraints=tuple(
                Constraint(f"trace_{value}", (LinearTerm("x", kept=1),), np.array([[value]])) for value in (0.5, 0.7)
            ),
        )
        sol = solve(prob)
        assert sol.status == "infeasible" and sol.iterations == 0
        # b = (0.5, 0.7) has the component (0.7 - 0.5) / sqrt(2) off the range of A = (tr, tr)
        assert abs(sol.residuals["constraint_inconsistency"] - 0.2 / np.sqrt(2)) < 1e-12

    def test_converged_status_describes_returned_iterate(self, rng, monkeypatch):
        # a scripted residual sequence: the third iterate passes the 1e-10 gap test without
        # improving the best residual (the second's) by 0.1 %, and the second misses the gap
        from qcoinflip import sdp

        script = [(1.0, 1.0, 1.0), (1e-9, 1e-9, 2e-9), (5e-9, 1e-9, 5e-11)]
        objectives = []

        def scripted(rp, rd, pobj, dobj, b_scale, c_scale):
            objectives.append((pobj, dobj))
            return script[len(objectives) - 1]

        monkeypatch.setattr(sdp, "_residuals", scripted)
        sol = solve(random_structured_problem(rng, with_op=False, real=True), tol=1e-10)
        assert sol.status == "converged" and sol.iterations == 3
        assert (sol.residuals["primal"], sol.residuals["dual"], sol.residuals["gap"]) == script[2]
        assert (sol.primal_value, sol.dual_value) == objectives[2] != objectives[1]

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
                        (LinearTerm("X", 1.0, pos, 1), LinearTerm("X", -1.0, neg, 1)),
                        np.array([[np.real(np.trace(amats[k] @ x_star))]]),
                    )
                )
            prob = SdpProblem(blocks=(("X", d),), objective={"X": c}, constraints=tuple(cons))
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
        residual = comp.b - comp.apply(comp.stacked(xs))
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
            prob = cheat_sdp(penalty_protocol_compact4(), 1, 1)
        turned = rotate_phases(prob, rng)
        assert _Compiled(prob).dtype == np.float64 and _Compiled(turned).dtype == np.complex128
        a, b = solve(prob), solve(turned)
        assert a.status == "converged" and b.status == "converged"
        assert abs(a.primal_value - b.primal_value) < 1e-7

    def test_one_factorization_per_block_per_iterate(self, rng, monkeypatch):
        from qcoinflip import sdp
        from qcoinflip.penalty import PenaltyGame, alice_attack_sdp

        calls, inverses, schur_solves, eighs = [], [], [], []
        real_chol = sdp._chol
        real_inv = np.linalg.inv
        real_solve = np.linalg.solve
        real_eigh = np.linalg.eigh

        def counting_chol(mat):
            calls.append(mat.shape)
            return real_chol(mat)

        def counting_inv(mat):
            inverses.append((mat.shape, np.array_equal(mat, np.tril(mat))))
            return real_inv(mat)

        def counting_solve(mat, rhs):
            schur_solves.append(rhs.shape)
            return real_solve(mat, rhs)

        def counting_eigh(mat, *args, **kwargs):
            eighs.append(mat.shape)
            return real_eigh(mat, *args, **kwargs)

        monkeypatch.setattr(sdp, "_chol", counting_chol)
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        # blocks of sizes 6 and 3, then one of size 3 and four of size 9
        for prob in (random_structured_problem(rng), alice_attack_sdp(PenaltyGame(16))):
            for counts in (calls, inverses, schur_solves, eighs):
                counts.clear()
            sol = solve(prob)
            assert sol.status == "converged"
            # one stack per distinct block size, in order of first appearance; together they
            # hold every block exactly once
            dims = [d for _, d in prob.blocks]
            stacks = [(dims.count(d), d, d) for d in sorted(set(dims), key=dims.index)]
            assert sum(n for n, _, _ in stacks) == len(prob.blocks)
            # every iterate but the converged last one takes a step, and factors X alone:
            # one Cholesky per stack
            iterates = sol.iterations - 1
            assert calls == stacks * iterates
            # each stack of factors is inverted once, and it is lower triangular; the step lengths solve nothing
            assert inverses == [(shape, True) for shape in stacks] * iterates
            # one Schur solve per iterate, with the predictor's and the corrector's right-hand sides
            assert schur_solves == [(_Compiled(prob).m, 2)] * iterates
            # one eigendecomposition per stack per step (NT scaling), after the pre-check's one
            assert eighs[1:] == stacks * iterates

    def test_no_constraints_solves_without_warnings(self):
        # m = 0: there is no Schur system, and no jitter from the mean of its empty diagonal
        prob = SdpProblem(blocks=(("x", 2),), objective={"x": -np.eye(2)}, constraints=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(prob)
        assert sol.status == "converged"
        assert abs(sol.primal_value) < 1e-7

    @pytest.mark.parametrize("c, b", [(1e8, 1e7), (1.0, 1e12), (1e12, 1.0)])
    def test_large_data_converges(self, c, b):
        # the starting point scales with the data (mu = max|b| * |C|), and so does the mu guard
        prob = SdpProblem(
            blocks=(("x", 1),),
            objective={"x": np.array([[c]])},
            constraints=(Constraint("pin", (LinearTerm("x"),), np.array([[b]])),),
        )
        sol = solve(prob)
        assert sol.status == "converged"
        assert abs(sol.primal_value - c * b) <= 1e-6 * c * b


def _nt_scaling_one(lx, s):
    """Reference: ``_nt_scaling`` for one matrix, with 2-d numpy calls."""
    mid = lx.conj().T @ s @ lx
    mid = (mid + mid.conj().T) / 2
    evals, vecs = np.linalg.eigh(mid)
    evals = np.maximum(evals, 1e-300)
    root = (vecs * evals**-0.5) @ vecs.conj().T
    w = lx @ root @ lx.conj().T
    hdag = lx @ (vecs * evals**-0.5)
    return (w + w.conj().T) / 2, hdag @ hdag.conj().T, hdag.conj().T


def _max_step_one(h, dx):
    """Reference: ``_max_step`` for one matrix, with 2-d numpy calls."""
    g = h @ dx @ h.conj().T
    lam = float(np.linalg.eigvalsh((g + g.conj().T) / 2)[0])
    return np.inf if lam >= -1e-14 else -1.0 / lam


def _chol_one(mat):
    """Reference: ``_chol``'s fallbacks for one matrix: a diagonal jitter, then a spectrum floor."""
    d = mat.shape[0]
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(mat + max(abs(np.trace(mat).real) / d, 1.0) * 1e-13 * np.eye(d))
    except np.linalg.LinAlgError:
        evals, vecs = np.linalg.eigh(mat)
        evals = np.maximum(evals, max(float(evals[-1]), 1.0) * 1e-14)
        return np.linalg.cholesky((vecs * evals) @ vecs.conj().T)


def _mixed_stack(d, rng, real):
    """Three PSD matrices: a random one, one with an eigenvalue of 1e-9, one with eigenvalues 1e-6 .. 1e3."""
    mats = [_random_psd(d, rng, real=real) for _ in range(3)]
    for i, low in ((1, None), (2, 1e-6)):
        evals, vecs = np.linalg.eigh(mats[i])
        if low is None:
            evals[0] = 1e-9
        else:
            evals = np.logspace(np.log10(low), 3, d)
        mat = (vecs * evals) @ vecs.conj().T
        mats[i] = (mat + mat.conj().T) / 2
    return np.stack(mats)


class TestNtScaling:
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_scaling_inverse_and_step_against_a_cholesky_of_s(self, rng, d, real):
        from qcoinflip.sdp import _chol, _max_step, _nt_scaling

        x = _mixed_stack(d, rng, real)
        s = np.stack([_random_psd(d, rng, real=real) for _ in x])
        ds = np.stack([_random_hermitian(d, rng, real) for _ in x])
        w, sinv, h = _nt_scaling(_chol(x), s)
        for i in range(len(x)):
            np.testing.assert_allclose(w[i] @ s[i] @ w[i], x[i], rtol=0, atol=1e-12 * np.linalg.norm(x[i]))
            # S^-1 and H go through X's factor, so their rounding grows with X's condition number
            tol = 1e-13 * np.linalg.cond(x[i])
            np.testing.assert_allclose(sinv[i] @ s[i], np.eye(d), rtol=0, atol=tol)
            # oracle: S + t dS = L_S (1 + t L_S^-1 dS L_S^-dag) L_S^dag
            ls_inv = np.linalg.inv(np.linalg.cholesky(s[i]))
            g = ls_inv @ ds[i] @ ls_inv.conj().T
            lam = np.linalg.eigvalsh((g + g.conj().T) / 2)[0]
            oracle = -1.0 / lam if lam < -1e-14 else np.inf
            assert _max_step(h[i : i + 1], ds[i : i + 1]) == pytest.approx(oracle, rel=tol)
        # a stack's step is its most constrained member's
        assert _max_step(h, ds) == min(_max_step(h[i : i + 1], ds[i : i + 1]) for i in range(len(x)))


class TestStackedKernels:
    """The stacked kernels equal per-matrix calls bit for bit."""

    @DATA
    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_nt_scaling_and_step_match_per_matrix_calls(self, rng, d, real):
        from qcoinflip.sdp import _chol, _max_step, _nt_scaling

        x = _mixed_stack(d, rng, real)
        s = _mixed_stack(d, rng, real)[::-1].copy()
        lx = _chol(x)
        stacked = _nt_scaling(lx, s)
        for i in range(len(x)):
            for got, want in zip(stacked, _nt_scaling_one(lx[i], s[i])):
                assert np.array_equal(got[i], want)
        lxinv = np.linalg.inv(lx)
        for h in (lxinv, stacked[2]):
            for _ in range(3):
                dx = np.stack([_random_hermitian(d, rng, real) for _ in x])
                assert _max_step(h, dx) == min(_max_step_one(h[i], dx[i]) for i in range(len(x)))

    @DATA
    @pytest.mark.parametrize(
        "bad", [np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([1.0, -1.0])], ids=["singular-jitter", "indefinite-floor"]
    )
    def test_chol_falls_back_for_the_failing_member_alone(self, rng, real, bad):
        from qcoinflip.sdp import _chol

        bad = bad.astype(np.float64 if real else complex)
        stack = np.stack([_random_psd(2, rng, real=real), bad, _random_psd(2, rng, real=real)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack)
        factors = _chol(stack)
        for i in (0, 2):
            assert np.array_equal(factors[i], np.linalg.cholesky(stack[i]))
        assert np.array_equal(factors[1], _chol_one(stack[1]))
        assert np.all(np.isfinite(factors[1]))


def schur_after_precheck(monkeypatch, fake):
    """Replace ``_Compiled.schur`` by ``fake`` in the iterates; the pre-check's call (the first) stays real."""
    real_schur = _Compiled.schur
    calls = []

    def schur(self, scalings):
        calls.append(None)
        return real_schur(self, scalings) if len(calls) == 1 else fake(self)

    monkeypatch.setattr(_Compiled, "schur", schur)


class TestStopReasons:
    """Every early exit of the interior-point loop names its guard."""

    def test_stall(self, monkeypatch):
        from qcoinflip import sdp

        monkeypatch.setattr(sdp, "_max_step", lambda l, dx: 0.0)  # no step ever moves the iterate
        sol = solve(trivial_problem(0.5))
        assert sol.status == "stall"
        assert sol.iterations == 62

    def test_non_finite_schur(self, monkeypatch):
        schur_after_precheck(monkeypatch, lambda self: np.full((self.m, self.m), np.nan))
        assert solve(trivial_problem(0.5)).status == "non-finite-schur"

    def test_schur_singular(self, monkeypatch):
        # the jitter for a diagonal mean below 1 is 1e-13, which cancels this matrix exactly:
        # LU meets a zero pivot
        schur_after_precheck(monkeypatch, lambda self: np.full((self.m, self.m), -1e-13))
        assert solve(trivial_problem(0.5)).status == "schur-singular"

    def test_non_finite_direction(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda mat, b: np.full(np.shape(b), np.nan))
        assert solve(trivial_problem(0.5)).status == "non-finite-direction"

    def test_non_finite_inverse_of_s(self, monkeypatch):
        # an overflowing S^-1 makes the Schur right-hand side non-finite; the guard, not
        # the linear solve, reports it
        from qcoinflip import sdp

        real_scaling = sdp._nt_scaling

        def overflowing(lx, s):
            w, sinv, h = real_scaling(lx, s)
            return w, np.full_like(sinv, np.inf), h

        monkeypatch.setattr(sdp, "_nt_scaling", overflowing)
        assert solve(trivial_problem(0.5)).status == "non-finite-direction"

    def test_mu_blowup(self, monkeypatch):
        # a huge finite multiplier step: S jumps by 1e30 while X shrinks but stays positive
        monkeypatch.setattr(np.linalg, "solve", lambda mat, b: np.full(np.shape(b), 1e30))
        sol = solve(trivial_problem(0.5))
        assert sol.status == "mu-blowup"
        assert sol.iterations == 2

    def test_iteration_limit(self):
        assert solve(trivial_problem(0.5), max_iter=2).status == "max-iterations"


class TestCertificates:
    def test_exact_certificate_gap_zero(self):
        prob = trivial_problem(0.5)
        cert = {"pin": 1.0}
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
            report = verify_dual(prob, sol.dual_multipliers, tol=1e-6)
            if report.feasible:
                assert sol.primal_value <= report.bound + 1e-6

    def test_infeasible_certificate_flagged(self):
        prob = trivial_problem(0.5)
        report = verify_dual(prob, {"pin": -1.0})
        assert not report.feasible
        assert report.lambda_min["x"] < -1e-9

    def test_complex_multiplier_on_real_data_checked_as_given(self, rng):
        prob = random_structured_problem(rng, with_op=False, real=True)
        z = random_hermitian(3, rng)
        z += 4.0 * np.eye(3)
        cert = {"marginal": z, "norm": 2.5}
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
            verify_dual(prob, {})

