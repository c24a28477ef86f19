import warnings

import numpy as np
import pytest

from conftest import (
    COMPARISON_SET,
    UnionFind,
    assert_sub_arrays,
    dense_rows,
    haar_random_protocol,
    overflowing_r,
    random_hermitian,
    random_unitary,
)
from qcoinflip.lowerbound import cheat_sdp
from qcoinflip.sdp import (
    FEAS_TOL,
    RESTRICT_TOL,
    Constraint,
    LinearTerm,
    SdpProblem,
    _Compiled,
    duality_gap,
    expand_multipliers,
    restrict,
    sectors,
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


def random_structured_problem(rng, with_op=True, real=False, planted=False):
    # right-hand sides come from an explicit strictly feasible point, so the
    # instance is guaranteed solvable; ``real`` draws real data only
    # P lives on (2) (x) (3); the marginal keeps the 3, so its term moves that factor first.
    # ``planted`` splits the 3 into two sectors, one index alone, and sets to zero every entry
    # of the point, the objectives and the sandwich's factor on the 3 between them
    swap = np.eye(6)[np.arange(6).reshape(2, 3).T.ravel()]
    alone = rng.permutation(3) == 0 if planted else np.zeros(3, dtype=bool)
    same = alone[:, None] == alone[None, :]  # the entries of the 3 that may be nonzero
    on_p = np.tile(same, (2, 2))  # and of P = (2) (x) (3)
    p0 = _random_psd(6, rng, real=real) * on_p
    q0 = _random_psd(3, rng, trace=1.0, real=real) * same
    terms1 = (LinearTerm("P", 1.0, swap, 3), LinearTerm("Q", -1.0))
    cons = [Constraint("marginal", terms1, p0.reshape(2, 3, 2, 3).trace(axis1=0, axis2=2) - q0)]
    if with_op:
        if planted:
            k = np.kron(_random_matrix(2, rng, real), _random_matrix(3, rng, real) * same)
        else:
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
        objective={"P": _random_hermitian(6, rng, real) * on_p, "Q": _random_hermitian(3, rng, real) * same},
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

    Coordinate s of Z is Re tr(E_s Z), with E_s the Hermitian matrix of s's
    unit coordinates, so a round trip gives Z back exactly when the E_s are an
    orthonormal basis.  On real data a complex multiplier has no coordinates
    and is refused.
    """
    mats = comp.multiplier_matrices(multipliers)
    if comp.dtype.kind == "f" and any(np.any(np.imag(z)) for z in mats):
        raise ValueError("complex multipliers have no coordinates on real data")
    units = [comp._matrix(c, np.eye(sl.stop - sl.start)) for c, sl in enumerate(comp.slices)]
    return np.concatenate([np.einsum("sij,ji->s", e, z).real for e, z in zip(units, mats)])


def _random_multiplier_coords(comp, rng):
    real = comp.dtype == np.float64
    mats = {name: _random_hermitian(d, rng, real) for (name, _), d in zip(comp.constraints, comp.con_dims)}
    return y_from_multipliers(comp, mats)


DATA = pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])


def block_vector(stacks, comp):
    """The blocks' row-major entries concatenated, as ``dense_rows`` reads them."""
    return np.concatenate([x.ravel() for x in comp.unstacked(stacks)])


def profiled_calls(fn) -> int:
    """How many Python and C calls ``fn()`` makes, as ``sys.setprofile`` sees them."""
    import sys

    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(event) if event in ("call", "c_call") else None)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(calls)


def padded_problem(rng, real=False):
    """Two blocks of one size in one stack, feasible by a planted point.

    A meets the identity alone and B the identity and two operators, so the stacked K
    pads A's rows with zeros below the shared identity rows.
    """
    a0, b0 = _random_psd(3, rng, real=real), _random_psd(3, rng, real=real)
    k1, k2 = _random_matrix(3, rng, real), _random_matrix(3, rng, real)
    return SdpProblem(
        blocks=(("A", 3), ("B", 3)),
        objective={"A": _random_hermitian(3, rng, real), "B": _random_hermitian(3, rng, real)},
        constraints=(
            Constraint("mix", (LinearTerm("A"), LinearTerm("B", 1.0, k1)), a0 + k1 @ b0 @ k1.conj().T),
            Constraint(
                "sandwich", (LinearTerm("B", 2.0, k2, 1),), np.array([[2.0 * np.trace(k2 @ b0 @ k2.conj().T).real]])
            ),
            Constraint(
                "norm", (LinearTerm("A", kept=1), LinearTerm("B", kept=1)), np.array([[np.trace(a0 + b0).real]])
            ),
        ),
    )


class KernelMaps:
    """A, A* and the Schur matrix against oracles built from the terms, on ``problem``'s layout."""

    problem = staticmethod(random_structured_problem)

    @DATA
    def test_apply_adjoint_duality(self, rng, real):
        comp = _Compiled(self.problem(rng, real=real))
        xs = [_random_psd(d, rng, real=real) for d in comp.block_dims]
        y = _random_multiplier_coords(comp, rng)
        lhs = np.vdot(y, comp.apply(comp.stacked(xs))).real
        adj = comp.unstacked(comp.adjoint(y))
        rhs = sum(np.real(np.trace(xs[i] @ adj[i])) for i in range(comp.nblocks))
        assert abs(lhs - rhs) < 1e-9
        # the explicit oracle matrix renders the same maps
        oracle = dense_rows(comp)
        assert oracle.dtype == comp.dtype
        np.testing.assert_allclose(
            oracle @ np.concatenate([x.ravel() for x in xs]), comp.apply(comp.stacked(xs)), atol=1e-9
        )
        np.testing.assert_allclose(block_vector(comp.adjoint(y), comp), oracle.conj().T @ y, atol=1e-12)
        # a non-Hermitian argument (as W rd W - X is, to rounding) gives its Hermitian part's coordinates
        skew = comp.stacked([_random_matrix(d, rng, real) for d in comp.block_dims])
        herm = [(x + x.conj().swapaxes(-1, -2)) / 2 for x in skew]
        np.testing.assert_allclose(comp.apply(skew), oracle @ block_vector(herm, comp), atol=1e-12)
        np.testing.assert_allclose(comp.apply(skew), comp.apply(herm), atol=1e-12)

    @DATA
    @pytest.mark.parametrize("push", [0.0, 0.3], ids=["consistent", "pushed"])
    def test_inconsistency_matches_least_squares(self, rng, real, push):
        # a copy of the marginal constraint makes A rank-deficient; moving the
        # copy's right-hand side pushes b out of A's range
        prob = self.problem(rng, real=real)
        marginal = prob.constraints[0]
        copy = Constraint("copy", marginal.terms, marginal.rhs + push * _random_hermitian(len(marginal.rhs), rng, real))
        prob = SdpProblem(prob.blocks, prob.objective, prob.constraints + (copy,))
        comp = _Compiled(prob)
        oracle_rows = dense_rows(comp)
        sol, *_ = np.linalg.lstsq(oracle_rows, comp.b, rcond=None)
        oracle = np.linalg.norm(oracle_rows @ sol - comp.b)
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
        comp = _Compiled(self.problem(rng, real=real))
        scalings = [_random_psd(d, rng, real=real) for d in comp.block_dims]
        fast = comp.schur(comp.stacked(scalings))
        assert fast.dtype == np.float64
        # row r of the oracle is conj(vec(A*(e_r))), block after block
        offsets = np.cumsum([0] + [d * d for d in comp.block_dims])
        oracle = dense_rows(comp)
        mats = [
            [oracle[r, offsets[i] : offsets[i + 1]].conj().reshape(d, d) for i, d in enumerate(comp.block_dims)]
            for r in range(comp.m)
        ]
        slow = np.zeros((comp.m, comp.m), dtype=complex)
        for r in range(comp.m):
            for s in range(comp.m):
                slow[r, s] = sum(
                    np.trace(mats[r][i].conj().T @ scalings[i] @ mats[s][i] @ scalings[i])
                    for i in range(comp.nblocks)
                )
        np.testing.assert_allclose(fast, slow, atol=1e-8)
        np.testing.assert_allclose(fast, fast.T, atol=1e-14 * np.abs(fast).max())


class TestRowKernels(KernelMaps):
    """The same maps where a stack's members meet different operators, so rows of K pad."""

    problem = staticmethod(padded_problem)

    def test_problem_pads_one_member(self, rng):
        comp = _Compiled(padded_problem(rng))
        ((kmat, _, ident),) = comp.operators
        assert ident == 3 and kmat.shape == (2, 6, 3)
        np.testing.assert_array_equal(kmat[comp.slots[comp.block_names.index("A")][1]], 0)


class TestCompiled(KernelMaps):
    """The compiled layout, and the maps of ``KernelMaps`` on ``random_structured_problem``."""

    @pytest.mark.parametrize(
        "term, message",
        [
            (LinearTerm("x", 1.0, np.eye(6), 4), "kept dimension 4 does not divide the 6 rows"),
            (LinearTerm("x", kept=0), "kept dimension 0"),
            (LinearTerm("x", 1.0, np.eye(6)[:, :5], 2), r"operator shape \(6, 5\) does not act on block 'x' \(dim 6\)"),
            (LinearTerm("x", 1.0, np.eye(6), 3), "a term on block 'x' keeps 3 dimensions but the right-hand side is 2 x 2"),
        ],
        ids=["kept-not-a-divisor", "kept-zero", "columns-not-block-dim", "kept-not-the-rhs-dim"],
    )
    def test_bad_term_names_its_constraint(self, term, message):
        prob = SdpProblem((("x", 6),), {}, (Constraint("odd", (term,), np.eye(2)),))
        with pytest.raises(ValueError, match=f"constraint 'odd': {message}"):
            _Compiled(prob)

    @pytest.mark.parametrize("rhs", [np.ones((2, 3)), np.ones(4), np.float64(1.0)], ids=["2x3", "flat", "scalar"])
    def test_right_hand_side_not_square_names_its_constraint(self, rhs):
        prob = SdpProblem((("x", 2),), {}, (Constraint("odd", (LinearTerm("x"),), rhs),))
        with pytest.raises(ValueError, match="constraint 'odd': right-hand side of shape .* is not square"):
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

    def test_lowerbound_imports_no_private_sdp_name(self):
        # lowerbound reaches the SDP layer through its public names alone
        import ast

        from qcoinflip import lowerbound

        tree = ast.parse(open(lowerbound.__file__, encoding="utf-8").read())
        private = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "sdp":
                private += [alias.name for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sdp":
                private += [node.attr] if node.attr.startswith("_") else []
        assert not private, private

    @DATA
    def test_dtype_and_coordinate_count(self, rng, real):
        comp = _Compiled(random_structured_problem(rng, real=real))
        assert comp.con_dims == [3, 2, 1]
        # a real d x d constraint owns d(d+1)/2 real coordinates, a complex one d^2
        if real:
            assert comp.dtype == np.float64 and comp.m == 6 + 3 + 1
        else:
            assert comp.dtype == np.complex128 and comp.m == 9 + 4 + 1
        assert comp.b.dtype == np.float64

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
            # the coordinates of a non-Hermitian matrix are its Hermitian part's
            skew = y_from_multipliers(comp, {**mults, "marginal": mults["marginal"] + 1j * np.eye(3)})
            np.testing.assert_allclose(comp.multipliers_from_y(skew)["marginal"], mults["marginal"], atol=1e-14)

    @DATA
    def test_compiles_share_read_only_coordinate_maps(self, rng, real):
        prob = random_structured_problem(rng, real=real)
        first, second = _Compiled(prob), _Compiled(prob)
        for a, b in zip(first.coord_maps, second.coord_maps):
            assert all(x is y for x, y in zip(a, b))
            for arr in a:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0

    def test_identity_rows_are_shared_and_members_pad(self):
        from qcoinflip.penalty import PenaltyGame, alice_attack_sdp

        # tau's three identity terms (the normalization's full trace and each sent register's
        # tr_2) share the identity's rows, which head the stack; below them each rho_ba has
        # its swap, and tau, with no other operator, pads those rows with zeros
        problem = alice_attack_sdp(PenaltyGame(16))
        comp = _Compiled(problem)
        ((kmat, _, ident),) = comp.operators
        assert (ident, kmat.shape, comp.widths) == (9, (5, 9, 9), [18])
        rows = [(comp.block_names[t.block_idx], t.row) for _, terms in comp.constraints for t in terms]
        assert [row for name, row in rows if name == "tau"] == [0, 0, 0]
        assert [row for name, row in rows if name != "tau"] == [9] * 4
        swap = problem.constraints[1].terms[0].op
        for p, name in enumerate(comp.block_names):
            np.testing.assert_array_equal(kmat[p], np.zeros((9, 9)) if name == "tau" else swap)
        # two blocks of one size: a meets the identity alone, b two operators of two rows each
        k1, k2 = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0])
        problem = SdpProblem(
            blocks=(("a", 2), ("b", 2)),
            objective={"a": np.eye(2), "b": np.eye(2)},
            constraints=(
                Constraint("trace", (LinearTerm("a", kept=1), LinearTerm("b", 1.0, k1, 1)), np.array([[1.0]])),
                Constraint("pin", (LinearTerm("b", 1.0, k2),), k2 @ k2 / 4),
            ),
        )
        comp = _Compiled(problem)
        ((kmat, _, ident),) = comp.operators
        assert (ident, comp.widths) == (2, [6])
        np.testing.assert_array_equal(kmat, [np.zeros((4, 2)), np.vstack([k1, k2])])
        assert [t.row for _, terms in comp.constraints for t in terms] == [0, 2, 4]
        sol = solve(problem)
        assert sol.status == "converged" and abs(sol.primal_value - 1.0) < 1e-7

    # the values the earlier row and term kernels converged to, which agreed to 1e-9
    PINNED = {
        "structured-complex": (3.7577274729, 3.7577275283),
        "structured-real": (0.9781486812, 0.9781489315),
        "penalty-v16": (0.5151237260, 0.5151238556),
        "compact4-bob": (0.4999999570, 0.5000001061),
        "haar": (0.9820379016, 0.9820379318),
    }

    @pytest.mark.parametrize("which", list(PINNED))
    def test_solves_to_pinned_values(self, rng, which):
        from qcoinflip.penalty import PenaltyGame, alice_attack_sdp
        from qcoinflip.protocols import penalty_protocol_compact4

        if which.startswith("structured"):
            prob = random_structured_problem(rng, real=which.endswith("real"))
            prob = SdpProblem(prob.blocks, {k: c / 40 for k, c in prob.objective.items()}, prob.constraints)
        elif which == "penalty-v16":
            prob = alice_attack_sdp(PenaltyGame(16))
        elif which == "haar":  # complex, with nothing to split on
            prob = cheat_sdp(haar_random_protocol(np.random.default_rng(2)), 0, 1)
        else:
            prob = cheat_sdp(penalty_protocol_compact4(), 1, 1)
        sol = solve(prob)
        primal, dual = self.PINNED[which]
        assert sol.status == "converged"
        assert abs(sol.primal_value - primal) < 1e-7 and abs(sol.dual_value - dual) < 1e-7

    def test_verify_dual_builds_no_table_of_the_solver(self, monkeypatch):
        from qcoinflip.penalty import PenaltyGame, alice_attack_sdp, dual_certificate
        from qcoinflip.protocols import penalty_protocol

        def fail(self):
            pytest.fail("verify_dual built a table of A or of the Schur matrix")

        monkeypatch.setattr(_Compiled, "pair_groups", property(fail))
        monkeypatch.setattr(_Compiled, "coordinate_table", property(fail))
        monkeypatch.setattr(_Compiled, "image_buffer", property(fail))
        game = PenaltyGame(16)
        assert verify_dual(alice_attack_sdp(game), dual_certificate(game)).feasible
        # the unsplit cheat SDP, which verify_dual checks every chain on
        problem = cheat_sdp(penalty_protocol(16), 1, 1)
        assert not verify_dual(problem, {con.name: np.zeros_like(con.rhs) for con in problem.constraints}).feasible

    def test_call_count_follows_stacks_and_shapes_not_terms(self):
        from qcoinflip.protocols import penalty_protocol

        # the split v25 cheat SDP with Alice honest, and the same blocks with one term each
        problem = cheat_sdp(penalty_protocol(25), 0, 1)
        split = restrict(problem, *sectors(problem))
        first = {}
        for con in split.constraints:
            for term in con.terms:
                first.setdefault(term.block, term)
        assert len(first) == len(split.blocks)
        single = SdpProblem(
            split.blocks,
            split.objective,
            tuple(Constraint(name, (t,), np.zeros((t.kept, t.kept))) for name, t in first.items()),
        )
        assert sum(len(con.terms) for con in split.constraints) == 129 and len(single.constraints) == 66
        counts = []
        for prob in (split, single):
            comp = _Compiled(prob)
            x = comp.stacked([np.eye(d) for d in comp.block_dims])
            y = np.ones(comp.m)
            comp.apply(x), comp.schur(x)  # build the tables
            counts.append([profiled_calls(lambda: comp.apply(x)), profiled_calls(lambda: comp.adjoint(y))])
            counts[-1].append(profiled_calls(lambda: comp.schur(x)))
        assert counts[0] == counts[1]

    def test_large_unsplit_problem_stays_lean(self):
        from conftest import alloc_peak_bytes
        from qcoinflip.lowerbound import optimal_cheat

        # complex, with nothing to split on: blocks of 64 and m = 513, whose dense constraint
        # rows would take 210 MB
        protocol = haar_random_protocol(np.random.default_rng(0), ((16,), (8,)), 4)
        problem = cheat_sdp(protocol, 0, 1)
        assert _Compiled(problem).m == 513
        found = []
        assert alloc_peak_bytes(lambda: found.append(optimal_cheat(protocol, 0, 1))) <= 24e6
        assert verify_dual(problem, found[0].chain).feasible


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

    @pytest.mark.parametrize("which", ["structured-complex", "structured-real", "haar"])
    def test_coordinates_are_real_and_multipliers_hermitian(self, rng, monkeypatch, which):
        # b, y and the Schur matrix are float64 whatever the data, and every multiplier
        # ``solve`` returns is Hermitian bit for bit
        if which == "haar":
            prob = cheat_sdp(haar_random_protocol(np.random.default_rng(2)), 0, 1)
        else:
            prob = random_structured_problem(rng, real=which.endswith("real"))
        schurs, ys = [], []
        real_schur, real_from_y = _Compiled.schur, _Compiled.multipliers_from_y
        monkeypatch.setattr(_Compiled, "schur", lambda self, w: schurs.append(real_schur(self, w)) or schurs[-1])
        monkeypatch.setattr(_Compiled, "multipliers_from_y", lambda self, y: ys.append(y) or real_from_y(self, y))
        sol = solve(prob)
        assert sol.status == "converged"
        assert _Compiled(prob).b.dtype == np.float64
        assert schurs and all(m.dtype == np.float64 for m in schurs)
        assert len(ys) == 1 and ys[0].dtype == np.float64
        assert _Compiled(prob).dtype == (np.float64 if which.endswith("real") else np.complex128)
        for name, z in sol.dual_multipliers.items():
            if not isinstance(z, float):
                assert np.array_equal(z, z.conj().T), name

    def test_one_factorization_per_block_per_iterate(self, rng, monkeypatch):
        from qcoinflip import sdp
        from qcoinflip.penalty import PenaltyGame, alice_attack_sdp

        calls, inverses, schur_solves, eighs, eigvalshs = [], [], [], [], []
        real_chol = sdp._chol
        real_inv = np.linalg.inv
        real_solve = np.linalg.solve
        real_eigh = np.linalg.eigh
        real_eigvalsh = np.linalg.eigvalsh

        def counting_chol(mat):
            calls.append(mat.shape)
            return real_chol(mat)

        def counting_inv(mat):
            inverses.append(mat.shape)
            return real_inv(mat)

        def counting_solve(mat, rhs):
            schur_solves.append(rhs.shape)
            return real_solve(mat, rhs)

        def counting_eigh(mat, *args, **kwargs):
            eighs.append(mat.shape)
            return real_eigh(mat, *args, **kwargs)

        def counting_eigvalsh(mat, *args, **kwargs):
            eigvalshs.append(mat.shape)
            return real_eigvalsh(mat, *args, **kwargs)

        monkeypatch.setattr(sdp, "_chol", counting_chol)
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        # blocks of sizes 6 and 3 (two stacks), then five of size 9 (one stack)
        for prob in (random_structured_problem(rng), alice_attack_sdp(PenaltyGame(16))):
            for counts in (calls, inverses, schur_solves, eighs, eigvalshs):
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
            # nothing is inverted: the NT frame gives S^-1 and both step lengths
            assert inverses == []
            # two Schur solves per iterate: the predictor's and the centering's right-hand sides
            # together, then the second-order term's on the same M
            m = _Compiled(prob).m
            assert schur_solves == [(m, 2), (m,)] * iterates
            # one eigendecomposition per stack per step (the NT frame), after the pre-check's one
            assert eighs[1:] == stacks * iterates
            # the predictor's and the corrector's step lengths: one eigvalsh per stack each, on
            # X's and S's scaled directions stacked together
            both = [(2 * n, d, d) for n, _, d in stacks]
            assert eigvalshs == both * 2 * iterates

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
    r = lx @ (vecs * evals**-0.25)
    d = np.sqrt(evals)
    w = r @ r.conj().T
    return (w + w.conj().T) / 2, (r / d) @ r.conj().T, r, d


def _s_step(d, ds):
    """``_max_steps``'s step for S alone: frame diagonals d and the frame direction dS~, X not moving."""
    from qcoinflip.sdp import _max_steps

    return _max_steps([d], [np.zeros_like(ds)], [ds])[1]


def _max_step_one(d, dx):
    """Reference: ``_max_steps`` for one matrix, with 2-d numpy calls."""
    scale = d**-0.5
    lam = float(np.linalg.eigvalsh(dx * np.outer(scale, scale))[0])
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
        from qcoinflip.sdp import _chol, _ct, _hermitian_part, _nt_scaling

        x = _mixed_stack(d, rng, real)
        s = np.stack([_random_psd(d, rng, real=real) for _ in x])
        ds = np.stack([_random_hermitian(d, rng, real) for _ in x])
        w, sinv, r, diag = _nt_scaling(_chol(x), s)
        frame_ds = _hermitian_part(_ct(r) @ ds @ r)  # dS~ = R^dag dS R
        for i in range(len(x)):
            np.testing.assert_allclose(w[i] @ s[i] @ w[i], x[i], rtol=0, atol=1e-12 * np.linalg.norm(x[i]))
            np.testing.assert_allclose(w[i], r[i] @ r[i].conj().T, rtol=0, atol=1e-14 * np.linalg.norm(w[i]))
            # S^-1 = R D^-1 R^dag and R go through X's factor, so their rounding grows with X's condition number
            tol = 1e-13 * np.linalg.cond(x[i])
            # R^dag S R = diag(d) = R^-1 X R^-dag: X and S are one diagonal in the frame
            frame_s = r[i].conj().T @ s[i] @ r[i]
            np.testing.assert_allclose(frame_s, np.diag(diag[i]), rtol=0, atol=10 * tol * np.linalg.norm(s[i]))
            rinv = np.linalg.inv(r[i])
            frame_x = rinv @ x[i] @ rinv.conj().T
            np.testing.assert_allclose(frame_x, np.diag(diag[i]), rtol=0, atol=10 * tol * np.linalg.norm(diag[i]))
            np.testing.assert_allclose(sinv[i] @ s[i], np.eye(d), rtol=0, atol=tol)
            # oracle: S + t dS = L_S (1 + t L_S^-1 dS L_S^-dag) L_S^dag
            ls_inv = np.linalg.inv(np.linalg.cholesky(s[i]))
            g = ls_inv @ ds[i] @ ls_inv.conj().T
            lam = np.linalg.eigvalsh((g + g.conj().T) / 2)[0]
            oracle = -1.0 / lam if lam < -1e-14 else np.inf
            assert _s_step(diag[i : i + 1], frame_ds[i : i + 1]) == pytest.approx(oracle, rel=tol)
        # a stack's step is its most constrained member's
        assert _s_step(diag, frame_ds) == min(_s_step(diag[i : i + 1], frame_ds[i : i + 1]) for i in range(len(x)))


class TestStackedKernels:
    """The stacked kernels equal per-matrix calls bit for bit."""

    @DATA
    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_nt_scaling_and_step_match_per_matrix_calls(self, rng, d, real):
        from qcoinflip.sdp import _chol, _max_steps, _nt_scaling

        x = _mixed_stack(d, rng, real)
        s = _mixed_stack(d, rng, real)[::-1].copy()
        lx = _chol(x)
        stacked = _nt_scaling(lx, s)
        for i in range(len(x)):
            for got, want in zip(stacked, _nt_scaling_one(lx[i], s[i])):
                assert np.array_equal(got[i], want)
        diag = stacked[3]
        # X's and S's steps share one eigvalsh, and a second stack, of another size, joins the minima
        diag2 = _nt_scaling(_chol(_mixed_stack(d + 1, rng, real)), _mixed_stack(d + 1, rng, real))[3]
        for _ in range(3):
            dx, ds = (np.stack([_random_hermitian(d, rng, real) for _ in x]) for _ in range(2))
            dx2 = np.stack([_random_hermitian(d + 1, rng, real) for _ in diag2])
            steps = _max_steps([diag, diag2], [dx, dx2], [ds, -dx2])
            pairs_x = [(diag[i], dx[i]) for i in range(len(x))] + [(diag2[i], dx2[i]) for i in range(len(diag2))]
            pairs_s = [(diag[i], ds[i]) for i in range(len(x))] + [(diag2[i], -dx2[i]) for i in range(len(diag2))]
            assert steps == tuple(min(_max_step_one(dk, dm) for dk, dm in pairs) for pairs in (pairs_x, pairs_s))

    @DATA
    def test_max_steps_refuses_a_product_that_overflows(self, real):
        # d and dX~ are finite, D^-1/2 dX~ D^-1/2 is not: 1e300 * 1e10 overflows to inf, on
        # which eigvalsh raises or returns NaN
        from qcoinflip.sdp import _max_steps

        dtype = np.float64 if real else complex
        tiny = np.array([[1e-300, 1e-300], [1e-300, 1.0]])
        dx = 1e10 * np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(dtype)
        zero = np.zeros_like(dx)
        for member in (0, 1):
            d, dm = tiny[member : member + 1], dx[member : member + 1]
            with np.errstate(over="ignore"):
                assert not np.isfinite(dm * np.outer(d**-0.5, d**-0.5)).all()
                assert _max_steps([d], [dm], [zero[:1]]) is None
                assert _max_steps([d], [zero[:1]], [dm]) is None
        # the same directions at a finite scale bound both steps
        fine = np.ones((2, 2))
        assert _max_steps([fine], [-dx / 1e10], [dx / 1e10]) == (1.0, 1.0)


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


class TestCorrector:
    """One iterate's direction solves the Newton equations of Mehrotra's corrector in the NT frame."""

    @DATA
    def test_direction_solves_the_newton_equations(self, rng, real, monkeypatch):
        from qcoinflip import sdp
        from qcoinflip.sdp import _ct, _direction, _hermitian_part

        comp = _Compiled(random_structured_problem(rng, real=real))
        x = comp.stacked([_random_psd(d, rng, real=real) for d in comp.block_dims])
        s = comp.stacked([_random_psd(d, rng, real=real) for d in comp.block_dims])
        y = _random_multiplier_coords(comp, rng)
        rp = comp.b - comp.apply(x)
        rd = [c - a + sk for c, a, sk in zip(comp.objective, comp.adjoint(y), s)]
        mu = sum(np.vdot(xk, sk).real for xk, sk in zip(x, s)) / sum(comp.block_dims)
        # the frame diagonals and the predictor's frame directions, as the second-order term reads them
        affine = []
        real_second = sdp._second_order
        monkeypatch.setattr(sdp, "_second_order", lambda d, dx, ds: affine.append((d, dx, ds)) or real_second(d, dx, ds))
        step = _direction(comp, x, s, rp, rd, mu)
        assert len(affine) == len(x)

        def close(got, want, scale):
            assert np.linalg.norm(np.ravel(got - want)) <= 1e-10 * scale

        # A(dX) = rp with dX = R dX~ R^dag
        dx = [rk @ dk @ _ct(rk) for rk, dk in zip(step.r, step.dx)]
        close(comp.apply(dx), rp, max(np.linalg.norm(rp), max(np.linalg.norm(d) for d in dx)))
        # dS = A*(dy) - rd
        for a, rdk, dsk in zip(comp.adjoint(step.dy), rd, step.ds):
            close(_hermitian_part(a - rdk), dsk, np.linalg.norm(a) + np.linalg.norm(rdk))

        # D o (dX~ + dS~) = sigma mu 1 - D^2 - dX~_a o dS~_a, with A o B = (A B + B A) / 2 and dS~ = R^dag dS R
        def sym(a, b):
            return (a @ b + b @ a) / 2

        assert 0 < step.sigma_mu < mu
        for rk, dxk, dsk, (dk, xa, sa) in zip(step.r, step.dx, step.ds, affine):
            dmat = dk[..., None] * np.eye(dk.shape[-1])
            frame = _hermitian_part(_ct(rk) @ dsk @ rk)
            rhs = step.sigma_mu * np.eye(dk.shape[-1]) - dmat @ dmat - sym(xa, sa)
            close(sym(dmat, dxk + frame), rhs, np.linalg.norm(dmat @ dmat) + np.linalg.norm(sym(xa, sa)))
            # the predictor's, without centering or the second-order term
            close(sym(dmat, xa + sa), -dmat @ dmat, np.linalg.norm(dmat @ dmat))


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

        monkeypatch.setattr(sdp, "_max_steps", lambda *args: (0.0, 0.0))  # no step ever moves the iterate
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
        # an overflowing S^-1 = R D^-1 R^dag makes the Schur right-hand side non-finite; the
        # guard, not the linear solve, reports it
        from qcoinflip import sdp

        real_scaling = sdp._nt_scaling

        def overflowing(lx, s):
            w, sinv, r, d = real_scaling(lx, s)
            return w, np.full_like(sinv, np.inf), r, d

        monkeypatch.setattr(sdp, "_nt_scaling", overflowing)
        assert solve(trivial_problem(0.5)).status == "non-finite-direction"

    def test_overflowing_step_product(self, monkeypatch):
        # a finite R with R^dag dS R past float64: the step length has no finite eigenvalue
        # to read, and the loop stops there instead of raising from eigvalsh or stepping by NaN
        overflowing_r(monkeypatch)
        sol = solve(trivial_problem(0.5))
        assert sol.status == "non-finite-direction"
        assert sol.iterations == 1

    def test_second_schur_solve_singular(self, monkeypatch):
        # the second-order term's LU solve, on the same M, raises: the loop names it as the first
        real_solve = np.linalg.solve

        def second_fails(mat, rhs):
            if np.ndim(rhs) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(mat, rhs)

        monkeypatch.setattr(np.linalg, "solve", second_fails)
        sol = solve(trivial_problem(0.5))
        assert sol.status == "schur-singular" and sol.iterations == 1

    def test_non_finite_second_order_term(self, monkeypatch):
        from qcoinflip import sdp

        monkeypatch.setattr(sdp, "_second_order", lambda d, dx, ds: np.full_like(dx, np.inf))
        sol = solve(trivial_problem(0.5))
        assert sol.status == "non-finite-direction" and sol.iterations == 1

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



class TestRestrict:
    @DATA
    def test_nothing_listed_is_the_same_problem(self, rng, real):
        problem = random_structured_problem(rng, real=real)
        restricted = restrict(problem, {}, {})
        assert restricted.blocks == problem.blocks
        assert [c.name for c in restricted.constraints] == [c.name for c in problem.constraints]
        whole, same = solve(problem), solve(restricted)
        assert (same.primal_value, same.dual_value, same.iterations) == (
            whole.primal_value,
            whole.dual_value,
            whole.iterations,
        )

    def diagonal_problem(self):
        # X = diag(1/2, 1/2) pinned, objective diag(1, 2): invariant under diag(1, -1)
        return SdpProblem(
            blocks=(("x", 2),),
            objective={"x": np.diag([1.0, 2.0])},
            constraints=(Constraint("pin", (LinearTerm("x"),), np.eye(2) / 2),),
        )

    @pytest.mark.parametrize(
        "lower, status, iterations, value", [(0.0, "converged", 6, 1.5), (0.2, "infeasible", 0, np.nan)]
    )
    def test_kept_index_with_no_term_is_a_zero_row(self, lower, status, iterations, value):
        # K = diag(1, 0) leaves kept index 1 of "pin" with no row in any term: its piece has
        # no terms and compiles as a zero row of A, consistent exactly when its right-hand
        # side is 0, so the split problem ends as the unsplit one does
        problem = SdpProblem(
            blocks=(("x", 2),),
            objective={"x": np.diag([1.0, 2.0])},
            constraints=(
                Constraint("pin", (LinearTerm("x", op=np.diag([1.0, 0.0])),), np.diag([0.5, lower])),
                Constraint("trace", (LinearTerm("x", kept=1),), np.array([[1.0]])),
            ),
        )
        blocks, rounds = sectors(problem)
        split = restrict(problem, blocks, rounds)
        empty = split.constraints[1]
        assert (empty.name, empty.terms) == ("pin/1", ())
        np.testing.assert_array_equal(empty.rhs, [[lower]])
        whole, pieces = solve(problem), solve(split)
        assert (whole.status, whole.iterations) == (pieces.status, pieces.iterations) == (status, iterations)
        np.testing.assert_allclose([whole.primal_value, pieces.primal_value], value, atol=1e-8)
        if status == "converged":
            multipliers = expand_multipliers(rounds, pieces.dual_multipliers)
            assert verify_dual(problem, multipliers, tol=1e-10).feasible

    def test_sectors_split_blocks_and_constraints(self):
        problem = self.diagonal_problem()
        e = [np.array([0]), np.array([1])]
        restricted = restrict(problem, {"x": e}, {"pin": e})
        assert restricted.blocks == (("x/0", 1), ("x/1", 1))
        # each constraint piece keeps the one block piece it reaches
        assert [[t.block for t in c.terms] for c in restricted.constraints] == [["x/0"], ["x/1"]]
        solution = solve(restricted)
        assert solution.status == "converged"
        assert abs(solution.primal_value - 1.5) < 1e-7
        multipliers = expand_multipliers({"pin": e}, solution.dual_multipliers)
        assert set(multipliers) == {"pin"}
        np.testing.assert_allclose(multipliers["pin"], np.diag([1.0, 2.0]), atol=1e-6)
        assert multipliers["pin"][0, 1] == multipliers["pin"][1, 0] == 0.0
        report = verify_dual(problem, multipliers, tol=1e-6)
        assert report.feasible and abs(report.bound - solution.dual_value) < 1e-12

    def test_pieces_entering_the_same_terms_are_joined(self):
        # the trace alone cannot tell pieces 0 and 1 apart: splitting them would add a term
        problem = SdpProblem(
            blocks=(("x", 3),),
            objective={"x": np.diag([1.0, 2.0, 3.0])},
            constraints=(
                Constraint("norm", (LinearTerm("x", kept=1),), np.array([[1.0]])),
                Constraint("pin", (LinearTerm("x", op=np.eye(3)[[2]]),), np.array([[0.5]])),
            ),
        )
        e = [np.array([1]), np.array([0]), np.array([2])]
        restricted = restrict(problem, {"x": e}, {})
        assert restricted.blocks == (("x/0", 2), ("x/1", 1))
        norm, pin = restricted.constraints
        assert [t.block for t in norm.terms] == ["x/0", "x/1"]
        np.testing.assert_array_equal(norm.terms[0].op, np.eye(3)[:, [1, 0]])
        np.testing.assert_array_equal(restricted.objective["x/0"], np.diag([2.0, 1.0]))
        assert [t.block for t in pin.terms] == ["x/1"]
        assert abs(solve(restricted).primal_value - 2.5) < 1e-7

    def test_a_block_whose_pieces_all_join_stays_whole(self):
        problem = SdpProblem(
            blocks=(("x", 2),),
            objective={"x": np.diag([1.0, 2.0])},
            constraints=(Constraint("norm", (LinearTerm("x", kept=1),), np.array([[1.0]])),),
        )
        restricted = restrict(problem, {"x": [np.array([1]), np.array([0])]}, {})
        assert restricted.blocks == problem.blocks
        (term,) = restricted.constraints[0].terms
        assert term == problem.constraints[0].terms[0]
        assert solve(restricted).iterations == solve(problem).iterations

    @staticmethod
    def kept_oracle(keep, term, dim):
        """(V^dag (x) 1) K with V the columns ``keep`` of the identity, by the Kronecker
        product: the oracle of a restricted operator."""
        k = np.eye(dim) if term.op is None else term.op
        dk = term.kept or len(k)
        return np.kron(np.eye(dk)[keep], np.eye(len(k) // dk)) @ k

    @DATA
    def test_constraint_pieces_compress_the_kept_factor(self, rng, real):
        # block P is (kept 3) (x) (traced 2): one term has an operator, one the identity;
        # each piece of the constraint keeps some indices of the kept factor, in their order
        k = _random_matrix(6, rng, real)
        terms = (LinearTerm("P", 2.0, k, 3), LinearTerm("P", -1.0, kept=3))
        problem = SdpProblem(
            blocks=(("P", 6),),
            objective={"P": _random_hermitian(6, rng, real)},
            constraints=(Constraint("c", terms, _random_hermitian(3, rng, real)),),
        )
        keeps = [np.array([2, 0]), np.array([1])]
        restricted = restrict(problem, {}, {"c": keeps})
        assert [c.name for c in restricted.constraints] == ["c/0", "c/1"]
        for keep, con in zip(keeps, restricted.constraints):
            assert [(t.block, t.coeff, t.kept) for t in con.terms] == [("P", 2.0, len(keep)), ("P", -1.0, len(keep))]
            for term, piece in zip(terms, con.terms):
                np.testing.assert_array_equal(piece.op, self.kept_oracle(keep, term, 6))
            np.testing.assert_array_equal(con.rhs, problem.constraints[0].rhs[np.ix_(keep, keep)])
        assert_sub_arrays(problem, restricted, {}, {"c": keeps})

    @DATA
    def test_constraint_and_block_pieces_together(self, rng, real):
        # P = (kept 2) (x) (traced 3), split by the kept index: constraint piece a and block
        # piece a (the indices of |a> (x) C^3, in a shuffled order) meet only each other, so
        # P splits, and each term on P/a is (V_a^dag (x) 1) K E_a
        k = np.kron(np.eye(2), _random_matrix(3, rng, real))
        terms = (LinearTerm("P", 2.0, k, 2), LinearTerm("P", -1.0, kept=2))
        problem = SdpProblem(
            blocks=(("P", 6),),
            objective={"P": _random_hermitian(6, rng, real)},
            constraints=(Constraint("c", terms, _random_hermitian(2, rng, real)),),
        )
        keeps = [np.array([0]), np.array([1])]
        es = [3 * a + rng.permutation(3) for a in (0, 1)]
        restricted = restrict(problem, {"P": es}, {"c": keeps})
        assert restricted.blocks == (("P/0", 3), ("P/1", 3))
        for a, (keep, e, con) in enumerate(zip(keeps, es, restricted.constraints)):
            assert [t.block for t in con.terms] == [f"P/{a}", f"P/{a}"]
            for term, piece in zip(terms, con.terms):
                np.testing.assert_array_equal(piece.op, self.kept_oracle(keep, term, 6) @ np.eye(6)[:, e])
            np.testing.assert_array_equal(restricted.objective[f"P/{a}"], problem.objective["P"][np.ix_(e, e)])
        assert_sub_arrays(problem, restricted, {"P": es}, {"c": keeps})

    @DATA
    def test_every_number_is_an_entry_of_the_problem(self, rng, real):
        # random partitions of every block and of the kept factor of every constraint
        problem = random_structured_problem(rng, real=real)
        dims = dict(problem.blocks)
        blocks = {name: np.array_split(rng.permutation(d), 2) for name, d in dims.items()}
        kept = {"marginal": 3, "sandwich": 2}
        constraints = {name: np.array_split(rng.permutation(d), 2) for name, d in kept.items()}
        restricted = restrict(problem, blocks, constraints)
        names = ["marginal/0", "marginal/1", "sandwich/0", "sandwich/1", "norm"]
        assert [c.name for c in restricted.constraints] == names
        assert_sub_arrays(problem, restricted, blocks, constraints)


def sectors_oracle(problem: SdpProblem):
    """``sectors`` by plain loops: each block's and constraint's labels, a node's label the
    least node of its class, on a union-find over every block coordinate and kept index.

    Nonzero objective and right-hand-side entries join their two indices.  Then pass after
    pass over the nonzero entries (p, x) of each term's rows (., t) at one t: entries whose
    rows are joined join their columns, and entries whose columns are joined join their
    rows, until a pass joins nothing.
    """
    dims = dict(problem.blocks)
    spans, n = {}, 0  # each block's and constraint's first node and node count
    for name, d in problem.blocks:
        spans["block", name], n = (n, d), n + d

    def nonzeros(mat):
        mat = np.atleast_2d(mat)
        return zip(*np.nonzero(np.abs(mat) > RESTRICT_TOL * max(1.0, np.abs(mat).max())))

    pairs, groups = [], []
    for name, c in problem.objective.items():
        s = spans["block", name][0]
        pairs += [(s + i, s + j) for i, j in nonzeros(c)]
    for con in problem.constraints:
        dk = len(np.atleast_2d(con.rhs))
        spans["constraint", con.name] = (n, dk)
        pairs += [(n + i, n + j) for i, j in nonzeros(con.rhs)]
        for term in con.terms:
            k = np.eye(dims[term.block]) if term.op is None else term.op
            dt = len(k) // dk
            s = spans["block", term.block][0]
            groups += [[(n + p, s + x) for p, x in nonzeros(k.reshape(dk, dt, -1)[:, t])] for t in range(dt)]
        n += dk
    classes = UnionFind(n)
    for i, j in pairs:
        classes.union(i, j)
    joined = True
    while joined:
        joined = False
        for group in groups:
            column_of, row_of = {}, {}  # a column of each row class, a row of each column class
            for p, x in group:
                joined |= classes.union(x, column_of.setdefault(classes.find(p), x))
                joined |= classes.union(p, row_of.setdefault(classes.find(x), p))
    labels = classes.labels()
    return {key: labels[s : s + size] - s for key, (s, size) in spans.items()}


def sector_problems(name: str, rng) -> list:
    """A planted random problem, or every cheat SDP of a comparison-set protocol."""
    if name.startswith("planted"):
        return [random_structured_problem(rng, real=name == "planted-real", planted=True)]
    build, k = COMPARISON_SET[name]
    protocol = build()
    return [cheat_sdp(protocol, honest, target) for honest in range(k) for target in (0, 1)]


def term_value(problem: SdpProblem, con: Constraint, x: dict) -> np.ndarray:
    """sum of coeff tr_2(K X K^dag) over the constraint's terms, by a reshape and a trace."""
    dims = dict(problem.blocks)
    dk = len(np.atleast_2d(con.rhs))
    value = np.zeros((dk, dk), dtype=complex)
    for t in con.terms:
        k = np.eye(dims[t.block]) if t.op is None else t.op
        img = k @ x[t.block] @ k.conj().T
        value += t.coeff * img.reshape(dk, len(k) // dk, dk, -1).trace(axis1=1, axis2=3)
    return value


SECTOR_CASES = pytest.mark.parametrize("name", ["planted-complex", "planted-real", *COMPARISON_SET])


class TestSectors:
    @SECTOR_CASES
    def test_pinching_keeps_each_piece_and_zeroes_the_rest(self, name, rng):
        # X -> sum_c Q_c X Q_c on a random PSD X: each constraint value keeps its pieces
        # [P_a, P_a] and is 0 between them, and the objective value is unchanged
        for problem in sector_problems(name, rng):
            block_sectors, constraint_sectors = sectors(problem)
            if name.startswith("planted"):
                assert set(block_sectors) == {"P", "Q"} and set(constraint_sectors) == {"marginal"}
            x, pinched = {}, {}
            for block, d in problem.blocks:
                x[block] = _random_psd(d, rng)
                pinched[block] = np.zeros_like(x[block])
                for q in block_sectors.get(block, [np.arange(d)]):
                    pinched[block][np.ix_(q, q)] = x[block][np.ix_(q, q)]
                assert np.array_equal(np.sort(np.concatenate(block_sectors.get(block, [np.arange(d)]))), np.arange(d))
            for con in problem.constraints:
                whole, split = term_value(problem, con, x), term_value(problem, con, pinched)
                pieces = constraint_sectors.get(con.name, [np.arange(len(whole))])
                assert np.array_equal(np.sort(np.concatenate(pieces)), np.arange(len(whole)))
                scale = 1e-10 * max(1.0, np.abs(whole).max())
                rhs = np.reshape(con.rhs, whole.shape)
                for a, pa in enumerate(pieces):
                    for b, pb in enumerate(pieces):
                        want = whole[np.ix_(pa, pb)] if a == b else 0.0
                        np.testing.assert_allclose(split[np.ix_(pa, pb)], want, rtol=0, atol=scale)
                        assert a == b or not rhs[np.ix_(pa, pb)].any()
            values = [sum(np.vdot(c, blocks[b]).real for b, c in problem.objective.items()) for blocks in (x, pinched)]
            assert abs(values[0] - values[1]) <= 1e-10 * max(1.0, abs(values[0]))

    @SECTOR_CASES
    def test_sectors_are_the_union_find_fixed_point(self, name, rng):
        for problem in sector_problems(name, rng):
            listed = sectors(problem)
            for (kind, key), labels in sectors_oracle(problem).items():
                found = listed[kind == "constraint"].get(key)
                expected = [np.flatnonzero(labels == label) for label in np.unique(labels)]
                if len(expected) == 1:
                    assert found is None, (name, key)
                else:
                    assert len(found) == len(expected) and all(map(np.array_equal, found, expected)), (name, key)

    def test_right_hand_side_joins_what_the_terms_split(self):
        # X pinned: the identity term and the diagonal objective split both indices apart,
        # and an off-diagonal right-hand side entry joins them again
        for off, expected in ((0.0, [np.array([0]), np.array([1])]), (0.1, None)):
            problem = SdpProblem(
                blocks=(("x", 2),),
                objective={"x": np.diag([1.0, 2.0])},
                constraints=(Constraint("pin", (LinearTerm("x"),), np.array([[0.5, off], [off, 0.5]])),),
            )
            blocks, constraints = sectors(problem)
            for found in (blocks.get("x"), constraints.get("pin")):
                if expected is None:
                    assert found is None, off
                else:
                    assert len(found) == 2 and all(map(np.array_equal, found, expected)), off

    @DATA
    def test_no_structural_zero_returns_nothing(self, rng, real):
        # dense data, and the unplanted random problem, whose permutation zeros split nothing
        term = LinearTerm("x", 1.0, _random_matrix(4, rng, real), 2)
        dense = SdpProblem(
            blocks=(("x", 4),),
            objective={"x": _random_hermitian(4, rng, real)},
            constraints=(Constraint("c", (term,), _random_hermitian(2, rng, real)),),
        )
        for problem in (dense, random_structured_problem(rng, real=real)):
            assert sectors(problem) == ({}, {})
