import dataclasses
import re
import warnings

import numpy as np
import pytest

import proxops.qp as qp_mod
from proxops.qp import (
    DATA_LIMIT,
    INFEASIBLE,
    MAX_ITER,
    NOT_FINITE,
    OPTIMAL,
    QpSolution,
    kkt_residual,
    solve,
    solve_batch,
)


def random_feasible_problem(rng, dim=None, n_rows=None):
    """Random strictly convex QP with the origin strictly feasible, as the
    ``(weights, centres, coeffs, rhs)`` that :func:`solve` takes."""
    if dim is None:
        dim = int(rng.integers(2, 13))
    if n_rows is None:
        n_rows = int(rng.integers(1, 13))
    weights = rng.uniform(0.5, 3.0, dim)
    center = rng.uniform(-1.0, 1.0, dim)
    coeffs, rhs = np.zeros((n_rows, dim)), np.zeros(n_rows)
    for i in range(n_rows):
        a = rng.normal(size=dim)
        coeffs[i] = a / np.linalg.norm(a)
        rhs[i] = rng.uniform(0.05, 1.0)
    return weights, center, coeffs, rhs


def objective(qp, x):
    weights, centres = qp[:2]
    d = np.asarray(x, dtype=float) - centres
    return float(np.sum(weights * d * d))


def grid_minimum(qp, step=1e-3):
    """Brute-force oracle: refine a dense grid down to the given step.

    Only meaningful for 3-variable problems; relies on convexity to zoom
    around the incumbent without losing the global minimum.
    """
    lo = np.full(3, -4.0)
    hi = np.full(3, 4.0)
    current = 0.1
    best_x = None
    weights, centres, coeffs, rhs = qp
    while True:
        axes = [np.arange(lo[k], hi[k] + current / 2, current) for k in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        ok = np.ones(len(pts), dtype=bool)
        for a, b in zip(coeffs, rhs):
            ok &= pts @ a <= b + 1e-12
        pts = pts[ok]
        assert len(pts) > 0, "oracle grid lost the feasible set"
        d = pts - centres
        obj = (d * d * weights).sum(axis=1)
        best_x = pts[int(np.argmin(obj))]
        if current <= step:
            return best_x, float(np.min(obj))
        lo = best_x - 1.5 * current
        hi = best_x + 1.5 * current
        current /= 10.0


def test_no_rows_returns_cost_center_exactly():
    centre = np.array([0.3, -1.2, 4.0])
    sol = solve([1.0, 2.0, 0.5], centre, np.zeros((0, 3)), np.zeros(0))
    assert sol.status == OPTIMAL
    assert np.array_equal(sol.x, centre)
    assert sol.kkt_residual == 0.0


def test_box_rows_match_componentwise_clamp():
    # Analytic oracle: with a separable cost and per-axis bounds the
    # minimizer is the clamp of the center into the box.
    rng = np.random.default_rng(123)
    for _ in range(50):
        dim = int(rng.integers(1, 8))
        weights = rng.uniform(0.5, 4.0, dim)
        center = rng.uniform(-3.0, 3.0, dim)
        lo = rng.uniform(-1.5, -0.2, dim)
        hi = rng.uniform(0.2, 1.5, dim)
        box = np.kron(np.eye(dim), [[1.0], [-1.0]])  # +x_k <= hi_k, then -x_k <= -lo_k
        sol = solve(weights, center, box, np.stack([hi, -lo], axis=1).ravel())
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, np.clip(center, lo, hi), rtol=0, atol=1e-9)


def test_three_variable_instances_match_grid_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        qp = random_feasible_problem(rng, dim=3, n_rows=int(rng.integers(1, 7)))
        sol = solve(*qp)
        assert sol.status == OPTIMAL
        _, grid_obj = grid_minimum(qp)
        assert objective(qp, sol.x) <= grid_obj + 1e-5
        # The grid's best feasible point sits within O(step) of the optimum,
        # so its objective can exceed the true one by O(step * gradient).
        grad_norm = float(np.linalg.norm(2.0 * qp[0] * (sol.x - qp[1])))
        assert grid_obj - objective(qp, sol.x) <= 3e-3 * grad_norm + 1e-5


def test_kkt_residual_small_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        qp = random_feasible_problem(rng)
        sol = solve(*qp)
        assert sol.status == OPTIMAL
        assert sol.kkt_residual < 1e-6
        assert kkt_residual(*qp, sol.x, sol.multipliers) == sol.kkt_residual


def test_row_scaling_does_not_move_the_solution():
    rng = np.random.default_rng(31)
    weights, centres, coeffs, rhs = random_feasible_problem(rng, dim=4, n_rows=6)
    base = solve(weights, centres, coeffs, rhs)
    scaled = solve(weights, centres, coeffs * 37.5, rhs * 37.5)
    np.testing.assert_allclose(scaled.x, base.x, rtol=0, atol=1e-7)


def test_adding_a_satisfied_row_does_not_move_the_solution():
    rng = np.random.default_rng(77)
    for _ in range(20):
        weights, centres, coeffs, rhs = random_feasible_problem(rng, dim=5, n_rows=4)
        base = solve(weights, centres, coeffs, rhs)
        assert base.status == OPTIMAL
        a = rng.normal(size=5)
        a /= np.linalg.norm(a)
        slack_rhs = float(a @ base.x) + 0.5  # strictly satisfied at the optimum
        again = solve(weights, centres, np.vstack([coeffs, a]), np.append(rhs, slack_rhs))
        np.testing.assert_allclose(again.x, base.x, rtol=0, atol=1e-7)


def test_row_order_does_not_change_the_unique_minimizer():
    rng = np.random.default_rng(99)
    for _ in range(20):
        weights, centres, coeffs, rhs = random_feasible_problem(rng, dim=6, n_rows=8)
        base = solve(weights, centres, coeffs, rhs)
        perm = rng.permutation(len(rhs))
        other = solve(weights, centres, coeffs[perm], rhs[perm])
        assert np.max(np.abs(other.x - base.x)) <= 10 * 1e-8 + 1e-9


def test_active_rows_hold_with_equality():
    sol = solve(np.ones(2), [2.0, 0.0], [[1.0, 0.0]], [1.0])
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-12)
    assert sol.multipliers[0] == pytest.approx(2.0, abs=1e-8)


def test_vacuous_and_impossible_zero_rows():
    sol = solve([1.0], [0.5], [[0.0]], [1.0])
    assert sol.status == OPTIMAL
    assert sol.x[0] == 0.5

    assert solve([1.0], [0.5], [[0.0]], [-1.0]).status == INFEASIBLE


def test_validation_rejects_bad_problems():
    no_rows = np.zeros((0, 2)), np.zeros(0)
    for bad in (([1.0, -1.0], [0.0, 0.0], *no_rows), ([1.0, 1.0], [0.0], *no_rows),
                ([1.0, 1.0], [0.0, 0.0], [np.ones(3)], [1.0]),
                ([1.0, 1.0], [0.0, 0.0], np.ones((2, 3)), np.ones(2))):
        with pytest.raises(ValueError):
            solve(*bad)
        with pytest.raises(ValueError):
            kkt_residual(*bad, np.zeros(2), np.zeros(len(bad[3])))


def test_kkt_residual_flags_non_optimal_points():
    qp = [1.0, 1.0], [2.0, 2.0], [[1.0, 0.0]], [1.0]
    # violating point
    assert kkt_residual(*qp, [2.0, 2.0], [0.0]) >= 1.0
    # feasible but non-stationary point
    assert kkt_residual(*qp, [0.0, 0.0], [0.0]) >= 1.0
    sol = solve(*qp)
    assert kkt_residual(*qp, sol.x, sol.multipliers) < 1e-8


def test_validation_rejects_non_finite_data():
    for bad in (np.nan, np.inf, -np.inf):
        for problem in (([1.0, bad], [0.0, 0.0], [[1.0, 0.0]], [1.0]),
                        ([1.0, 1.0], [bad, 0.0], [[1.0, 0.0]], [1.0]),
                        ([1.0, 1.0], [0.0, 0.0], [[bad, 0.0]], [1.0]),
                        ([1.0, 1.0], [0.0, 0.0], [[1.0, 0.0]], [bad])):
            with pytest.raises(ValueError):
                solve(*problem)


def test_validation_rejects_oversized_coefficients():
    # A coefficient past DATA_LIMIT is refused like a non-finite one, before
    # its squared row norm can overflow; one at the limit is solved.
    problem = [1.0, 1.0], [0.0, 0.0], [[1e200, 0.0]], [1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coefficients"):
            solve(*problem)
        with pytest.raises(ValueError, match="coefficients"):
            kkt_residual(*problem, np.zeros(2), np.zeros(1))
        assert solve([1.0, 1.0], [0.0, 0.0], [[-DATA_LIMIT, 0.0]], [1.0]).status == OPTIMAL


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_step_is_not_reported_optimal():
    # The minimiser is the origin, but the first step from x = c overflows,
    # leaving x = (-inf, -inf) and a NaN KKT residual.
    sol = solve([1.0, 1.0], [1e308, 1e308], [[1.0, 1.0]], [0.0])
    assert sol.status == NOT_FINITE
    assert solve([1.0, 1.0], [1.0, 1.0], [[1.0, 1.0]], [0.0]).status == OPTIMAL


def _mixed_stack(rng, dim=5, n_rows=7):
    """Same-shape problems: random feasible ones, one with a hopeless zero row,
    one with a duplicated row and one already optimal at ``x = c``."""
    problems = [random_feasible_problem(rng, dim, n_rows) for _ in range(6)]
    weights, centres, coeffs, rhs = problems[0]
    hopeless = coeffs.copy(), rhs.copy()
    hopeless[0][3], hopeless[1][3] = 0.0, -1.0
    duplicated = coeffs.copy(), rhs.copy()
    duplicated[0][4], duplicated[1][4] = duplicated[0][2], duplicated[1][2]
    origin = np.zeros(dim)  # strictly feasible, so no row binds
    problems += [(weights, centres, *hopeless), (weights, centres, *duplicated),
                 (weights, origin, coeffs, rhs)]
    return problems


def _stack(problems):
    return [np.array(field) for field in zip(*problems)]


def test_solve_batch_matches_single_solves():
    rng = np.random.default_rng(12)
    for _ in range(10):
        problems = _mixed_stack(rng)
        batch = solve_batch(*_stack(problems))
        for k, problem in enumerate(problems):
            alone = solve(*problem)
            assert batch.status[k] == alone.status
            assert batch.iterations[k] == alone.iterations
            np.testing.assert_allclose(batch.x[k], alone.x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.multipliers[k], alone.multipliers,
                                       rtol=1e-12, atol=1e-12)
        assert list(batch.status[-3:]) == [INFEASIBLE, OPTIMAL, OPTIMAL]


def test_solve_is_row_0_of_a_stack_of_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        problem = random_feasible_problem(rng)
        alone = solve(*problem)
        row = solve_batch(*(np.asarray(v)[None] for v in problem))[0]
        for field in dataclasses.fields(QpSolution):
            assert np.array_equal(getattr(alone, field.name), getattr(row, field.name))


def test_a_batch_is_a_stack_of_solutions():
    # len is the problem count, batch[k] is problem k's row of every field,
    # and iterating yields every problem's solution in order: for every
    # field, the type and value batch[k] has.  An empty stack yields nothing.
    problems = _mixed_stack(np.random.default_rng(5))
    batch = solve_batch(*_stack(problems))
    assert len(batch) == len(problems) == len(list(batch))
    empty = QpSolution(*(getattr(batch, field.name)[:0] for field in dataclasses.fields(QpSolution)))
    assert len(empty) == 0 and list(empty) == []
    for k, sol in enumerate(batch):
        assert isinstance(sol, QpSolution)
        for field in dataclasses.fields(QpSolution):
            got, indexed = getattr(sol, field.name), getattr(batch[k], field.name)
            assert type(got) is type(indexed) and np.array_equal(got, indexed)
            assert np.array_equal(got, getattr(batch, field.name)[k])
    assert [sol.status for sol in batch][-3:] == [INFEASIBLE, OPTIMAL, OPTIMAL]


def test_finished_problems_stop_changing():
    # The hopeless problem never starts and the already-optimal one finishes
    # on its first scan; both keep x = c exactly while the others iterate.
    problems = _mixed_stack(np.random.default_rng(3))
    batch = solve_batch(*_stack(problems))
    assert batch.iterations.max() > 2
    for k, rounds in ((-3, 0), (-1, 1)):
        assert batch.iterations[k] == rounds
        assert np.array_equal(batch.x[k], problems[k][1])
        assert not batch.multipliers[k].any()
    assert batch.kkt_residual[-3] == np.inf and batch.kkt_residual[-1] == 0.0


def test_warm_guesses_change_only_the_step_count():
    rng = np.random.default_rng(21)
    for _ in range(10):
        problems = _mixed_stack(rng)
        data = _stack(problems)
        cold = solve_batch(*data)
        binding = np.abs(data[3] - np.einsum("bij,bj->bi", data[2], cold.x)) <= 1e-7
        guesses = [np.ones_like(binding), rng.random(binding.shape) < 0.4, binding,
                   np.roll(binding, 1, axis=0)]
        duplicates = binding.copy()
        duplicates[-2, [2, 4]] = True  # the duplicated problem's two equal rows: singular
        for guess in guesses + [duplicates]:
            warm = solve_batch(*data, warm=guess)
            assert list(warm.status) == list(cold.status)
            np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-9)
        assert solve_batch(*data, warm=binding).iterations.max() <= cold.iterations.max()


def test_solve_batch_takes_an_empty_stack():
    batch = solve_batch(np.ones((0, 3)), np.zeros((0, 3)), np.zeros((0, 4, 3)), np.zeros((0, 4)),
                        warm=np.zeros((0, 4), dtype=bool))
    assert batch.x.shape == (0, 3) and batch.status.shape == (0,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_status_precedence_in_one_stack(monkeypatch):
    # One stack, one problem per status: still running at the iteration limit,
    # a hopeless zero row, an overflowing step and a plain optimum.  Each
    # reaches its status through the solver, with no status written over.
    monkeypatch.setattr(qp_mod, "ITERATION_LIMIT", 2)
    weights = np.ones((4, 2))
    centres = np.array([[10.0, 10.0], [0.0, 0.0], [1e308, 1e308], [0.0, 0.0]])
    coeffs = np.array([np.eye(2), [[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]], np.eye(2)])
    rhs = np.array([[0.0, 0.0], [1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
    batch = solve_batch(weights, centres, coeffs, rhs)
    assert list(batch.status) == [MAX_ITER, INFEASIBLE, NOT_FINITE, OPTIMAL]
    assert list(batch.iterations) == [2, 0, 2, 1]
    assert np.isfinite(batch.kkt_residual[[0, 3]]).all() and batch.kkt_residual[3] == 0.0


def test_a_stack_refuses_the_data_it_cannot_solve():
    # A 1e200 coefficient, a NaN centre, an infinite right-hand side and a
    # zero, negative, infinite or NaN weight (no strictly convex problem: at
    # -1, x = c is a stationary point, not a minimum) are each refused before
    # any arithmetic, cold or warm: not_finite, no step, a NaN x, an infinite
    # KKT residual and no warning.  The good problem beside them keeps the
    # bits it gets alone, and no input is written.
    problem = random_feasible_problem(np.random.default_rng(31), 4, 6)
    data = [np.array([v] * 8) for v in problem]
    data[2][0, 1, 2], data[1][1, 0], data[3][2, 3] = 1e200, np.nan, np.inf
    data[0][3:7, 1] = 0.0, -1.0, np.inf, np.nan
    given = [v.copy() for v in data]
    alone = solve(*problem)
    for guess in (None, np.ones((8, 6), dtype=bool)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = solve_batch(*data, warm=guess)
        assert list(batch.status) == [NOT_FINITE] * 7 + [OPTIMAL]
        assert list(batch.iterations[:7]) == [0] * 7
        assert (batch.kkt_residual[:7] == np.inf).all() and np.isnan(batch.x[:7]).all()
        if guess is None:
            for field in dataclasses.fields(QpSolution):
                got, want = (np.asarray(getattr(s, field.name)) for s in (batch[7], alone))
                if got.dtype.kind == "f":
                    got, want = _bits(got), _bits(want)
                assert np.array_equal(got, want), field.name
    for got, want in zip(data, given):
        assert np.array_equal(_bits(got), _bits(want))


def test_warm_guesses_of_another_shape_are_refused():
    # A (m,) guess would broadcast as every problem's guess, and a (B, m + 1)
    # one would fail inside the Gram masking; both are refused up front.
    data = _stack(_mixed_stack(np.random.default_rng(4)))
    b, m = data[3].shape
    for guess in (np.ones(m, dtype=bool), np.ones((b, m + 1), dtype=bool)):
        with pytest.raises(ValueError, match=re.escape(f"{(b, m)}, got {guess.shape}")):
            solve_batch(*data, warm=guess)


def test_stacks_of_mismatched_shapes_are_refused():
    # Nothing broadcasts: a (B, 1) rhs against (B, 3, n) coefficients, a
    # (1, n) centre or weight row against B = 2, and (B, m, n + 1)
    # coefficients each raise, naming every shape.  A (1, n) centre used to
    # stand for every problem's centre.
    rng = np.random.default_rng(5)
    weights, centres, coeffs, rhs = _stack([random_feasible_problem(rng, 2, 3) for _ in range(2)])
    wide = np.concatenate([coeffs, coeffs[..., :1]], axis=2)
    for bad in ((weights, centres, coeffs, rhs[:, :1]), (weights, centres[:1], coeffs, rhs),
                (weights[:1], centres, coeffs, rhs), (weights, centres, wide, rhs)):
        with pytest.raises(ValueError, match=re.escape(str([v.shape for v in bad]))):
            solve_batch(*bad)


def _bits(a):
    """A float array's bits, so that -0.0 and +0.0 compare apart."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _scaled_stack(rng):
    """A mixed stack whose rows are rescaled by factors from 1e-3 to 1e3,
    which moves no solution but keeps the rows as given off unit norm."""
    weights, centres, coeffs, rhs = _stack(_mixed_stack(rng))
    factors = 10.0 ** rng.uniform(-3.0, 3.0, rhs.shape)
    return weights, centres, coeffs * factors[..., None], rhs * factors


def test_margins_are_the_rows_as_given_bit_for_bit(monkeypatch):
    # margins is rhs - coeffs @ x of the returned x, for the rows as given,
    # after a cold start (with a hopeless zero row in the stack), a warm start
    # whose guesses are kept, one whose guesses are all rejected, and a stop at
    # the iteration limit.
    rng = np.random.default_rng(30)
    limited = []
    for _ in range(5):
        data = _scaled_stack(rng)
        cold = solve_batch(*data)
        kept = solve_batch(*data, warm=cold.multipliers > 0.0)
        rejected = solve_batch(*data, warm=np.ones(data[3].shape, dtype=bool))
        assert cold.status[-3] == INFEASIBLE and kept.iterations.max() < cold.iterations.max()
        with monkeypatch.context() as patch:
            patch.setattr(qp_mod, "ITERATION_LIMIT", 2)
            stopped = solve_batch(*data)
        limited += list(stopped.status)
        for sol in (cold, kept, rejected, stopped):
            expected = data[3] - (data[2] @ sol.x[..., None])[..., 0]
            assert sol.margins.shape == data[3].shape
            assert np.array_equal(_bits(sol.margins), _bits(expected))
    assert MAX_ITER in limited


def test_a_rejected_guess_is_the_cold_start_bit_for_bit():
    # A rejected guess starts from x = c with an empty working set, exactly as
    # the cold start does, so every field of the solution keeps its bits.  In
    # the two-variable problem the guessed row x0 <= 1 has a negative
    # multiplier; its equality minimiser (1, 0) meets every row, yet the
    # centre (0, 0) violates x0 >= 0.5.
    single = [np.ones((1, 2)), np.zeros((1, 2)), np.array([[[1.0, 0.0], [-1.0, 0.0]]]),
              np.array([[1.0, -0.5]])]
    stacks = [(single, np.array([[True, False]]))]
    for seed in range(3):  # 7 rows cannot all bind in 5 variables: every guess is rejected
        data = _scaled_stack(np.random.default_rng(seed))
        stacks.append((data, np.ones(data[3].shape, dtype=bool)))
    for data, guess in stacks:
        cold, warm = solve_batch(*data), solve_batch(*data, warm=guess)
        assert cold.iterations.max() >= 2
        for field in dataclasses.fields(QpSolution):
            got, want = getattr(warm, field.name), getattr(cold, field.name)
            if got.dtype.kind == "f":
                got, want = _bits(got), _bits(want)
            assert np.array_equal(got, want), field.name
    assert solve_batch(*single).x.tolist() == [[0.5, 0.0]]


def test_an_optimal_warm_guess_takes_one_solve(monkeypatch):
    # Guessing each problem's binding rows: the warm start's one stacked
    # solve lands on every optimum, the first scan finds no violated row, and
    # no step is taken.
    rng = np.random.default_rng(11)
    data = _stack([random_feasible_problem(rng, 5, 7) for _ in range(6)])
    cold = solve_batch(*data)
    assert cold.iterations.max() >= 3
    calls = []
    real_solve = np.linalg.solve

    def counted(*args):
        calls.append(1)
        return real_solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    warm = solve_batch(*data, warm=cold.multipliers > 0.0)
    assert len(calls) == 1
    assert list(warm.iterations) == [1] * 6 and list(warm.status) == [OPTIMAL] * 6
    np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-12)


def test_a_singular_warm_guess_starts_its_problem_cold(monkeypatch):
    # The warm start's stacked solve raises as if one guessed system were
    # singular, and problem 2's is.  Problem 2 starts cold and keeps the bits
    # of the cold run; every other problem keeps the bits of the plain warm run.
    rng = np.random.default_rng(11)
    data = _stack([random_feasible_problem(rng, 5, 7) for _ in range(6)])
    cold = solve_batch(*data)
    guess = cold.multipliers > 0.0
    plain = solve_batch(*data, warm=guess)
    assert plain.iterations[2] == 1 and cold.iterations[2] > 1
    real_solve, calls = np.linalg.solve, []

    def per_problem(system, rhs):
        if system.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        calls.append(1)
        if len(calls) == 3:  # problem 2, third in the warm start's pass over the stack
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(system, rhs)

    monkeypatch.setattr(np.linalg, "solve", per_problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = solve_batch(*data, warm=guess)
    for field in dataclasses.fields(QpSolution):
        got, want = getattr(batch, field.name), getattr(plain, field.name).copy()
        want[2] = getattr(cold, field.name)[2]
        if got.dtype.kind == "f":
            got, want = _bits(got), _bits(want)
        assert np.array_equal(got, want), field.name


def test_the_most_violated_row_enters_first():
    # x >= 1 and x >= 3 from the centre 0: only the second row binds at the
    # optimum.  Entering it first takes one join and the final scan; entering
    # the lowest-indexed row first would join x >= 1, then trade it for x >= 3.
    sol = solve([1.0], [0.0], [[-1.0], [-1.0]], [-1.0, -3.0])
    assert sol.status == OPTIMAL and sol.iterations == 2
    assert sol.x.tolist() == [3.0] and sol.multipliers.tolist() == [0.0, 6.0]
    # Of equally violated rows the lowest-indexed enters, and it alone binds.
    tie = solve([1.0], [0.0], [[-1.0], [-1.0]], [-2.0, -2.0])
    assert tie.iterations == 2 and tie.multipliers.tolist() == [4.0, 0.0]


def _recipe_draws(seed, count):
    """The first ``count`` draws of a seeded recipe with more rows than
    variables and about half of the problems infeasible, as the
    ``(weights, centres, coeffs, rhs)`` that :func:`solve` takes."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        n = rng.integers(2, 8)
        m = rng.integers(n + 1, 3 * n + 2)
        coeffs, rhs = rng.standard_normal((m, n)), rng.standard_normal(m) * 3
        weights, centres = rng.uniform(0.1, 10, n), rng.standard_normal(n) * 3
        draws.append((weights, centres, coeffs, rhs))
    return draws


def test_draws_whose_step_raised_a_singular_matrix_are_solved():
    # Each draw's working set used to outgrow its n variables until the step
    # loop's stacked solve raised LinAlgError for the whole stack.  Each is
    # infeasible (an LP check says so), and the feasible problems stacked
    # beside it keep the bits they get alone.
    seed_2 = _recipe_draws(2, 3876)
    named = [_recipe_draws(1, 9496)[9495], seed_2[2313], seed_2[3875]]
    rng = np.random.default_rng(8)
    for problem in named:
        m, n = problem[2].shape
        mates = [random_feasible_problem(rng, n, m) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = solve_batch(*_stack([mates[0], problem, *mates[1:]]))
        assert batch.status[1] == INFEASIBLE
        for k, mate in zip((0, 2, 3), mates):
            alone = solve(*mate)
            assert alone.status == OPTIMAL
            for field in dataclasses.fields(QpSolution):
                got, want = (np.asarray(getattr(s, field.name)) for s in (batch[k], alone))
                if got.dtype.kind == "f":
                    got, want = _bits(got), _bits(want)
                assert np.array_equal(got, want), field.name


def test_a_singular_step_stops_only_its_problem(monkeypatch):
    # Every stacked solve raises as if one system were singular, and problem
    # 2's own system is.  Problem 2 stops at its first step with a NaN x and
    # is not_finite; every other problem keeps the bits of the plain run.
    data = _stack(_mixed_stack(np.random.default_rng(12)))
    plain = solve_batch(*data)
    assert plain.iterations[2] > 1
    real_solve, calls = np.linalg.solve, []

    def per_problem(system, rhs):
        if system.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        calls.append(1)
        if len(calls) % len(data[0]) == 3:  # problem 2, third in each pass over the stack
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(system, rhs)

    monkeypatch.setattr(np.linalg, "solve", per_problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = solve_batch(*data)
    assert batch.status[2] == NOT_FINITE and batch.iterations[2] == 1
    assert np.isnan(batch.x[2]).all()
    for field in dataclasses.fields(QpSolution):
        got, want = (np.delete(getattr(s, field.name), 2, axis=0) for s in (batch, plain))
        if got.dtype.kind == "f":
            got, want = _bits(got), _bits(want)
        assert np.array_equal(got, want), field.name


def test_an_x_that_breaks_a_row_is_not_optimal():
    # Two nearly opposite rows meet at the optimum's corner, where the
    # multipliers reach 1e9 and roundoff leaves the computed x breaking row 1
    # by 2e-6 on the unit-norm rows: past VIOLATION_BOUND, so not certified.
    # The problem is feasible, so it is not_finite, not infeasible.
    sol = solve([610.8537238773865, 0.01853451696072679], [13131.535528132417, -8001.597794299322],
                [[-1.112734775966642, -0.83472499173656], [1.3293688831382926, 0.987623891878449]],
                [-0.01040184558727126, 0.02143982346187823])
    assert np.isfinite(sol.x).all() and sol.multipliers.min() > 1e9
    assert sol.status == NOT_FINITE
    assert 1e-6 < -sol.margins[1] / np.hypot(1.3293688831382926, 0.987623891878449) < 1e-5


def test_seeded_draws_are_optimal_only_when_certified():
    # Seeded property on about 2,000 draws with more rows than variables,
    # about half of them infeasible, solved in same-shape stacks: no
    # exception, no warning, and every optimal x breaks no unit-norm row by
    # more than VIOLATION_BOUND and has a KKT residual of at most 1e-6.  Draws
    # 492, 1495, 2747 and 5688 are infeasible (an LP check says so); their
    # working sets used to outgrow n rows and end in a false optimal.
    draws = _recipe_draws(1, 5689)
    named = (492, 1495, 2747, 5688)
    picked = list(range(2000)) + [k for k in named if k >= 2000]
    groups = {}
    for k in picked:
        groups.setdefault(draws[k][2].shape, []).append(k)
    status = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for members in groups.values():
            batch = solve_batch(*_stack([draws[k] for k in members]))
            for k, sol in zip(members, batch):
                status[k] = sol.status
                if sol.status == OPTIMAL:
                    violation = -sol.margins / np.linalg.norm(draws[k][2], axis=1)
                    assert violation.max() <= qp_mod.VIOLATION_BOUND
                    assert sol.kkt_residual <= 1e-6
    assert [status[k] for k in named] == [INFEASIBLE] * 4
    counts = [list(status.values()).count(s) for s in (OPTIMAL, INFEASIBLE)]
    assert sum(counts) == len(picked) and min(counts) > 0.4 * len(picked)
