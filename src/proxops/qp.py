"""Small dense quadratic-program solver for runtime-assurance filtering.

Solves
    min_x  sum_i w_i (x_i - c_i)^2    s.t.  A x <= b
with strictly positive weights ``w``.  Problems of interest have around a
dozen variables and rows, so a dense active-set method with exact KKT
solves is both simple and predictable: it terminates in finitely many
steps, unlike first-order schemes.

:func:`solve_batch` runs the dual active-set iteration of Goldfarb and
Idnani on a stack of same-shape problems in lock-step.  Each problem starts
from the unconstrained minimum ``x = c`` and alternately adds the
lowest-indexed violated row to its working set and releases blocking rows
(Bland-style selection, which prevents cycling on degenerate instances).
Each step makes one violation scan and one stacked linear solve on the
normalised Gram matrices ``A Q^-1 A^T``, which are built once per call; a
problem that has finished stops changing.  :func:`solve` is the call on a
stack of one.

A warm start guesses each problem's working set.  The solver solves the
equality-constrained problem on the guess and starts there when its
multipliers are finite and nonnegative, and cold otherwise.  The problem is
strictly convex, so the guess changes the number of steps and the computed
minimiser only by roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"

TOL = 1e-8  # on rows scaled to unit norm, so scale-free
ITERATION_LIMIT = 200


def _row_scale(coeffs):
    """Each row's Euclidean norm, or 1 for a zero row."""
    norms = np.sqrt((coeffs * coeffs).sum(axis=-1))
    return np.where(norms > 0.0, norms, 1.0)


def _matvec(a, v):
    """``a @ v`` for a stack of matrices and a stack of vectors."""
    return (a @ v[..., None])[..., 0]


class QpProblem:
    """Separable strictly convex QP with finite data and linear inequality rows.

    ``rows`` is a list of (coeffs, rhs) pairs, each meaning coeffs . x <= rhs,
    kept as a matrix ``coeffs`` and a vector ``rhs`` (see :meth:`from_arrays`).
    The data are read-only copies; build a new problem to change them.
    """

    def __init__(self, cost_weights, cost_center, rows=()):
        rows = list(rows)
        self._fill(cost_weights, cost_center, np.vstack(
            [np.zeros((0, np.size(cost_weights)))] + [a for a, _ in rows]), [r for _, r in rows])

    @classmethod
    def from_arrays(cls, cost_weights, cost_center, coeffs, rhs) -> "QpProblem":
        """The problem with rows ``coeffs[i] . x <= rhs[i]``."""
        problem = cls.__new__(cls)
        problem._fill(cost_weights, cost_center, coeffs, rhs)
        return problem

    def _fill(self, cost_weights, cost_center, coeffs, rhs):
        self.cost_weights, self.cost_center, self.coeffs, self.rhs = data = [
            np.array(v, dtype=float) for v in (cost_weights, cost_center, coeffs, rhs)]
        for array in data:
            array.flags.writeable = False
        if self.cost_weights.ndim != 1 or self.cost_weights.shape != self.cost_center.shape:
            raise ValueError("cost_weights and cost_center must be vectors of equal length")
        if self.coeffs.shape != self.rhs.shape + self.cost_weights.shape:
            raise ValueError("row coefficient length must match the variable count")
        if not np.isfinite(np.concatenate([self.cost_weights, self.cost_center,
                                           self.coeffs.ravel(), self.rhs])).all():
            raise ValueError("QP data must be finite")
        if (self.cost_weights <= 0.0).any():
            raise ValueError("cost_weights must be strictly positive")
        self.row_scale = _row_scale(self.coeffs)

    @property
    def rows(self) -> list:
        """A new list of (read-only coeffs, rhs) pairs on every access."""
        return list(zip(self.coeffs, self.rhs.tolist()))

    @property
    def dim(self) -> int:
        return self.cost_weights.shape[0]

    def objective(self, x) -> float:
        d = np.asarray(x, dtype=float) - self.cost_center
        return float(np.sum(self.cost_weights * d * d))


@dataclass
class QpSolution:
    """One problem's solution; from :func:`solve_batch`, every field is an
    array with one entry (or row) per problem."""

    x: np.ndarray
    multipliers: np.ndarray
    status: str
    iterations: int
    kkt_residual: float


def _kkt_residuals(weights, centres, coeffs, rhs, scale, x, multipliers):
    natural = np.minimum(multipliers * scale, (rhs - _matvec(coeffs, x)) / scale)
    grad = 2.0 * weights * (x - centres) + _matvec(coeffs.swapaxes(-1, -2), multipliers)
    return np.maximum(np.abs(grad).max(axis=-1, initial=0.0),
                      np.abs(natural).max(axis=-1, initial=0.0))


def kkt_residual(qp: QpProblem, x, multipliers) -> float:
    """Max of the stationarity residual and, on each row i scaled to unit norm
    with residual s_i and multiplier l_i, the natural residual |min(l_i, -s_i)|.
    Zero (up to roundoff) exactly at the optimum, so it certifies any candidate;
    unlike |l_i s_i| it does not grow with a large slack-penalty multiplier."""
    data = (qp.cost_weights, qp.cost_center, qp.coeffs, qp.rhs, qp.row_scale,
            np.asarray(x, dtype=float), np.asarray(multipliers, dtype=float))
    return float(_kkt_residuals(*(v[None] for v in data))[0])


def solve(qp: QpProblem) -> QpSolution:
    """Solve one QP (:func:`solve_batch` on a stack of one); returns the
    unique minimizer when status is optimal."""
    s = solve_batch(qp.cost_weights[None], qp.cost_center[None], qp.coeffs[None], qp.rhs[None])
    return QpSolution(s.x[0], s.multipliers[0], str(s.status[0]), int(s.iterations[0]),
                      float(s.kkt_residual[0]))


def _solve_each(systems, rhs):
    """Stacked ``np.linalg.solve``, NaN for each exactly singular system."""
    out = np.full(rhs.shape, np.nan)
    for k, (system, b) in enumerate(zip(systems, rhs)):
        try:
            out[k] = np.linalg.solve(system, b)
        except np.linalg.LinAlgError:
            pass
    return out


def _warm_start(gram, rows_a, rows_b, inv_q, centres, guess):
    """The equality-constrained minimiser on each guessed working set, as
    (x, multipliers, working set); the cold start ``x = c`` with an empty set
    where the guess is singular, inconsistent or has a negative multiplier."""
    eye = np.eye(guess.shape[1])
    systems = np.where(guess[:, :, None] & guess[:, None, :], gram, eye)
    rhs = np.where(guess, _matvec(rows_a, centres) - rows_b, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a bad guess is rejected below
        try:
            lam = np.linalg.solve(systems, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            lam = _solve_each(systems, rhs)
        x = centres - inv_q * _matvec(rows_a.swapaxes(1, 2), lam)
        kept = (np.isfinite(lam).all(axis=1) & (lam >= 0.0).all(axis=1)
                & ((np.abs(_matvec(rows_a, x) - rows_b) <= TOL) | ~guess).all(axis=1))
    return (np.where(kept[:, None], x, centres), np.where(guess & kept[:, None], lam, 0.0),
            guess & kept[:, None])


def solve_batch(weights, centres, coeffs, rhs, warm=None) -> QpSolution:
    """Solve B same-shape QPs in lock-step; returns stacked solutions.

    ``weights`` and ``centres`` are (B, n), ``coeffs`` (B, m, n) and ``rhs``
    (B, m); ``warm``, if given, is a (B, m) boolean guess of each problem's
    binding rows.  Per problem this is the dual active-set iteration of
    Goldfarb and Idnani: pick the lowest-indexed violated row and drive it
    into the working set, releasing blocking rows via a ratio test on the
    multipliers.  Stationarity and dual feasibility hold at every step, and
    each release strictly increases the dual objective, so the iteration
    cannot cycle.  Rows are normalized internally, which makes ``TOL``
    scale-free; multipliers are reported for the rows as given.
    """
    weights, centres, coeffs, rhs = (np.asarray(v, dtype=float)
                                     for v in (weights, centres, coeffs, rhs))
    b, m = rhs.shape
    inv_q = 0.5 / weights  # inverses of the Hessian diagonals
    scale = _row_scale(coeffs)
    rows_a = coeffs / scale[..., None]
    rows_b = rhs / scale
    gram = (rows_a * inv_q[:, None]) @ rows_a.swapaxes(1, 2)

    # 0 . x <= rhs is vacuous or hopeless regardless of x.  A vacuous zero
    # row keeps scale 1, so its violation -rhs never exceeds TOL.
    hopeless = ((rhs < -TOL) & ~coeffs.any(axis=2)).any(axis=1)
    active = (np.zeros((b, m), dtype=bool) if warm is None
              else np.asarray(warm, dtype=bool) & ~hopeless[:, None])
    if active.any():
        x, lam, active = _warm_start(gram, rows_a, rows_b, inv_q, centres, active)
    else:  # an empty guess is the cold start
        x, lam = centres.copy(), np.zeros((b, m))
    iterations = np.zeros(b, dtype=int)
    running, infeasible = ~hopeless, hopeless
    entering = np.full(b, -1)  # the row being driven in, or -1 to scan
    every, eye = np.arange(b), np.eye(m)
    for _ in range(ITERATION_LIMIT):
        iterations += running
        scan = running & (entering < 0)
        violated = (_matvec(rows_a, x) - rows_b > TOL) & ~active
        running &= violated.any(axis=1) | ~scan
        if not running.any():
            break
        entering = np.where(scan, violated.argmax(axis=1), entering)

        a_p = rows_a[every, entering]
        g_p = gram[every, :, entering]  # every row's inner product with a_p
        r = np.linalg.solve(np.where(active[:, :, None] & active[:, None, :], gram, eye),
                            np.where(active, g_p, 0.0)[..., None])[..., 0]
        z = inv_q * (a_p - _matvec(rows_a.swapaxes(1, 2), r))
        curvature = (a_p * z).sum(axis=1)  # zero iff a_p depends on the active rows
        flat = curvature <= 1e-11 * g_p[every, entering]

        blocking = np.where(active & (r > 1e-12), lam, np.inf) / np.maximum(r, 1e-12)
        drop = blocking.argmin(axis=1)
        t_block = blocking[every, drop]
        stuck = running & flat & (t_block == np.inf)
        infeasible = infeasible | stuck
        running &= ~stuck
        # A flat step is dual-only: it moves multiplier mass, not x.
        t_full = (np.where(flat, np.inf, (a_p * x).sum(axis=1) - rows_b[every, entering])
                  / np.where(flat, 1.0, curvature))
        t = np.where(running, np.minimum(t_full, t_block), 0.0)
        x = np.where((running & ~flat)[:, None], x - t[:, None] * z, x)
        lam = np.where(running[:, None] & active, lam - t[:, None] * r, lam)
        lam[every, entering] += t
        join = running & (t_full <= t_block)
        release = running & ~join
        active[join, entering[join]] = True
        entering[join] = -1
        lam[release, drop[release]] = 0.0
        active[release, drop[release]] = False

    status = np.where(running, MAX_ITER, np.where(infeasible, INFEASIBLE, OPTIMAL))
    multipliers = np.maximum(lam, 0.0) / scale
    kkt = np.where(hopeless, np.inf,
                   _kkt_residuals(weights, centres, coeffs, rhs, scale, x, multipliers))
    return QpSolution(x, multipliers, status, iterations, kkt)
