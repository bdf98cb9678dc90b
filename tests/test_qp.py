import numpy as np
import pytest

from proxops.qp import (
    INFEASIBLE,
    OPTIMAL,
    QpProblem,
    kkt_residual,
    solve,
    solve_batch,
)


def random_feasible_problem(rng, dim=None, n_rows=None):
    """Random strictly convex QP with the origin strictly feasible."""
    if dim is None:
        dim = int(rng.integers(2, 13))
    if n_rows is None:
        n_rows = int(rng.integers(1, 13))
    weights = rng.uniform(0.5, 3.0, dim)
    center = rng.uniform(-1.0, 1.0, dim)
    rows = []
    for _ in range(n_rows):
        a = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        rows.append((a, float(rng.uniform(0.05, 1.0))))
    return QpProblem(weights, center, rows)


def grid_minimum(qp, step=1e-3):
    """Brute-force oracle: refine a dense grid down to the given step.

    Only meaningful for 3-variable problems; relies on convexity to zoom
    around the incumbent without losing the global minimum.
    """
    lo = np.full(3, -4.0)
    hi = np.full(3, 4.0)
    current = 0.1
    best_x = None
    while True:
        axes = [np.arange(lo[k], hi[k] + current / 2, current) for k in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        ok = np.ones(len(pts), dtype=bool)
        for coeffs, rhs in qp.rows:
            ok &= pts @ coeffs <= rhs + 1e-12
        pts = pts[ok]
        assert len(pts) > 0, "oracle grid lost the feasible set"
        d = pts - qp.cost_center
        obj = (d * d * qp.cost_weights).sum(axis=1)
        best_x = pts[int(np.argmin(obj))]
        if current <= step:
            return best_x, float(np.min(obj))
        lo = best_x - 1.5 * current
        hi = best_x + 1.5 * current
        current /= 10.0


def test_no_rows_returns_cost_center_exactly():
    qp = QpProblem([1.0, 2.0, 0.5], [0.3, -1.2, 4.0], [])
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert np.array_equal(sol.x, qp.cost_center)
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
        rows = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = 1.0
            rows.append((e.copy(), float(hi[k])))
            rows.append((-e, float(-lo[k])))
        sol = solve(QpProblem(weights, center, rows))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, np.clip(center, lo, hi), rtol=0, atol=1e-9)


def test_three_variable_instances_match_grid_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        qp = random_feasible_problem(rng, dim=3, n_rows=int(rng.integers(1, 7)))
        sol = solve(qp)
        assert sol.status == OPTIMAL
        _, grid_obj = grid_minimum(qp)
        assert qp.objective(sol.x) <= grid_obj + 1e-5
        # The grid's best feasible point sits within O(step) of the optimum,
        # so its objective can exceed the true one by O(step * gradient).
        grad_norm = float(np.linalg.norm(2.0 * qp.cost_weights * (sol.x - qp.cost_center)))
        assert grid_obj - qp.objective(sol.x) <= 3e-3 * grad_norm + 1e-5


def test_kkt_residual_small_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        qp = random_feasible_problem(rng)
        sol = solve(qp)
        assert sol.status == OPTIMAL
        assert sol.kkt_residual < 1e-6
        assert kkt_residual(qp, sol.x, sol.multipliers) == sol.kkt_residual


def test_row_scaling_does_not_move_the_solution():
    rng = np.random.default_rng(31)
    qp = random_feasible_problem(rng, dim=4, n_rows=6)
    scaled_rows = [(a * 37.5, r * 37.5) for a, r in qp.rows]
    base = solve(qp)
    scaled = solve(QpProblem(qp.cost_weights, qp.cost_center, scaled_rows))
    np.testing.assert_allclose(scaled.x, base.x, rtol=0, atol=1e-7)


def test_adding_a_satisfied_row_does_not_move_the_solution():
    rng = np.random.default_rng(77)
    for _ in range(20):
        qp = random_feasible_problem(rng, dim=5, n_rows=4)
        base = solve(qp)
        assert base.status == OPTIMAL
        a = rng.normal(size=5)
        a /= np.linalg.norm(a)
        slack_rhs = float(a @ base.x) + 0.5  # strictly satisfied at the optimum
        augmented = QpProblem(qp.cost_weights, qp.cost_center, qp.rows + [(a, slack_rhs)])
        again = solve(augmented)
        np.testing.assert_allclose(again.x, base.x, rtol=0, atol=1e-7)


def test_row_order_does_not_change_the_unique_minimizer():
    rng = np.random.default_rng(99)
    for _ in range(20):
        qp = random_feasible_problem(rng, dim=6, n_rows=8)
        base = solve(qp)
        perm = rng.permutation(len(qp.rows))
        shuffled = QpProblem(qp.cost_weights, qp.cost_center, [qp.rows[i] for i in perm])
        other = solve(shuffled)
        assert np.max(np.abs(other.x - base.x)) <= 10 * 1e-8 + 1e-9


def test_active_rows_hold_with_equality():
    weights = np.ones(2)
    center = np.array([2.0, 0.0])
    rows = [(np.array([1.0, 0.0]), 1.0)]
    sol = solve(QpProblem(weights, center, rows))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-12)
    assert sol.multipliers[0] == pytest.approx(2.0, abs=1e-8)


def test_vacuous_and_impossible_zero_rows():
    qp = QpProblem([1.0], [0.5], [(np.zeros(1), 1.0)])
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert sol.x[0] == 0.5

    bad = QpProblem([1.0], [0.5], [(np.zeros(1), -1.0)])
    assert solve(bad).status == INFEASIBLE


def test_validation_rejects_bad_problems():
    with pytest.raises(ValueError):
        QpProblem([1.0, -1.0], [0.0, 0.0], [])
    with pytest.raises(ValueError):
        QpProblem([1.0, 1.0], [0.0], [])
    with pytest.raises(ValueError):
        QpProblem([1.0, 1.0], [0.0, 0.0], [(np.ones(3), 1.0)])


def test_kkt_residual_flags_non_optimal_points():
    qp = QpProblem([1.0, 1.0], [2.0, 2.0], [(np.array([1.0, 0.0]), 1.0)])
    # violating point
    assert kkt_residual(qp, [2.0, 2.0], [0.0]) >= 1.0
    # feasible but non-stationary point
    assert kkt_residual(qp, [0.0, 0.0], [0.0]) >= 1.0
    sol = solve(qp)
    assert kkt_residual(qp, sol.x, sol.multipliers) < 1e-8


def test_validation_rejects_non_finite_data():
    rows = [(np.array([1.0, 0.0]), 1.0)]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            QpProblem([1.0, bad], [0.0, 0.0], rows)
        with pytest.raises(ValueError):
            QpProblem([1.0, 1.0], [bad, 0.0], rows)
        with pytest.raises(ValueError):
            QpProblem([1.0, 1.0], [0.0, 0.0], [(np.array([bad, 0.0]), 1.0)])
        with pytest.raises(ValueError):
            QpProblem([1.0, 1.0], [0.0, 0.0], [(np.array([1.0, 0.0]), bad)])
        with pytest.raises(ValueError):
            QpProblem.from_arrays([1.0, 1.0], [0.0, 0.0], [[1.0, bad]], [1.0])


def test_from_arrays_is_the_same_problem():
    rng = np.random.default_rng(5)
    for _ in range(20):
        qp = random_feasible_problem(rng)
        coeffs = np.array([a for a, _ in qp.rows])
        rhs = np.array([r for _, r in qp.rows])
        twin = QpProblem.from_arrays(qp.cost_weights, qp.cost_center, coeffs, rhs)
        assert len(twin.rows) == len(qp.rows)
        for (a, r), (a2, r2) in zip(qp.rows, twin.rows):
            assert np.array_equal(a, a2) and r == r2
        assert np.array_equal(solve(twin).x, solve(qp).x)
    with pytest.raises(ValueError):
        QpProblem.from_arrays([1.0, 1.0], [0.0, 0.0], np.ones((2, 3)), np.ones(2))


def test_problem_data_are_read_only_copies():
    coeffs = np.array([[1.0, 0.0], [0.0, 1.0]])
    qp = QpProblem.from_arrays([1.0, 1.0], [2.0, 2.0], coeffs, [1.0, 1.0])
    coeffs[0, 0] = 5.0  # the caller's array is not the problem's
    assert qp.coeffs[0, 0] == 1.0
    for array in (qp.cost_weights, qp.cost_center, qp.coeffs, qp.rhs, qp.rows[0][0]):
        with pytest.raises(ValueError):
            array[0] = 0.0
    qp.rows.append((np.array([1.0, 1.0]), 0.0))  # a fresh list: the problem is unchanged
    assert len(qp.rows) == 2 and np.allclose(solve(qp).x, [1.0, 1.0])


def _mixed_stack(rng, dim=5, n_rows=7):
    """Same-shape problems: random feasible ones, one with a hopeless zero row,
    one with a duplicated row and one already optimal at ``x = c``."""
    problems = [random_feasible_problem(rng, dim, n_rows) for _ in range(6)]
    base = problems[0]
    hopeless = base.coeffs.copy(), base.rhs.copy()
    hopeless[0][3], hopeless[1][3] = 0.0, -1.0
    duplicated = base.coeffs.copy(), base.rhs.copy()
    duplicated[0][4], duplicated[1][4] = duplicated[0][2], duplicated[1][2]
    centre = np.zeros(dim)  # strictly feasible, so no row binds
    problems += [QpProblem.from_arrays(base.cost_weights, base.cost_center, *hopeless),
                 QpProblem.from_arrays(base.cost_weights, base.cost_center, *duplicated),
                 QpProblem.from_arrays(base.cost_weights, centre, base.coeffs, base.rhs)]
    return problems


def _stack(problems):
    return [np.array([getattr(p, f) for p in problems])
            for f in ("cost_weights", "cost_center", "coeffs", "rhs")]


def test_solve_batch_matches_single_solves():
    rng = np.random.default_rng(12)
    for _ in range(10):
        problems = _mixed_stack(rng)
        batch = solve_batch(*_stack(problems))
        for k, problem in enumerate(problems):
            alone = solve(problem)
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
        assert np.array_equal(batch.x[k], problems[k].cost_center)
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
