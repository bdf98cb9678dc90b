import numpy as np
import pytest

import proxops.qp as qp_mod
from proxops.qp import (
    INFEASIBLE,
    MAX_ITER,
    NOT_FINITE,
    OPTIMAL,
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
