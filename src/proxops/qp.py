"""Small dense quadratic-program solver for runtime-assurance filtering.

Solves
    min_x  sum_i w_i (x_i - c_i)^2    s.t.  A x <= b
with strictly positive weights ``w``.  Problems of interest have at most a
dozen variables and around a dozen rows, so a dense active-set method with
exact KKT solves is both simple and predictable: it terminates in finitely
many steps, unlike first-order schemes.

The solver starts from the unconstrained minimum ``x = c`` and alternately
adds the lowest-indexed violated row to the working set and drops the
lowest-indexed row with a negative multiplier (Bland-style selection, which
prevents cycling on degenerate instances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200


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
        norms = np.sqrt(np.einsum("ij,ij->i", self.coeffs, self.coeffs))
        self.row_scale = np.where(norms > 0.0, norms, 1.0)  # 1 for zero rows

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
    x: np.ndarray
    multipliers: np.ndarray
    status: str
    iterations: int
    kkt_residual: float


def kkt_residual(qp: QpProblem, x, multipliers) -> float:
    """Max of the stationarity residual and, on each row i scaled to unit norm
    with residual s_i and multiplier l_i, the natural residual |min(l_i, -s_i)|.
    Zero (up to roundoff) exactly at the optimum, so it certifies any candidate;
    unlike |l_i s_i| it does not grow with a large slack-penalty multiplier."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(multipliers, dtype=float)
    natural = np.minimum(lam * qp.row_scale, (qp.rhs - qp.coeffs @ x) / qp.row_scale)
    grad = 2.0 * qp.cost_weights * (x - qp.cost_center) + qp.coeffs.T @ lam
    return float(max(np.abs(grad).max(initial=0.0), np.abs(natural).max(initial=0.0)))


def solve(qp: QpProblem, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> QpSolution:
    """Solve the QP; returns the unique minimizer when status is optimal.

    Dual active-set iteration in the style of Goldfarb and Idnani: starting
    from the unconstrained minimum, repeatedly pick the lowest-indexed
    violated row and drive it into the active set, releasing blocking rows
    via a ratio test on the multipliers.  Stationarity and dual feasibility
    hold at every step, and each release strictly increases the dual
    objective, so the iteration cannot cycle.  Rows are normalized
    internally, which makes ``tol`` scale-free; multipliers are reported for
    the rows as given.
    """
    m = qp.rhs.shape[0]
    inv_q = 0.5 / qp.cost_weights  # inverse of the Hessian diagonal

    # 0 . x <= rhs is vacuous or hopeless regardless of x.  A vacuous zero
    # row keeps scale 1, so its violation -rhs never exceeds tol.
    if ((qp.rhs < -tol) & ~qp.coeffs.any(axis=1)).any():
        return QpSolution(qp.cost_center.copy(), np.zeros(m), INFEASIBLE, 0, float("inf"))
    scale = qp.row_scale
    rows_a = qp.coeffs / scale[:, None]
    rows_b = qp.rhs / scale

    x = qp.cost_center.copy()
    lam = np.zeros(m)
    active = np.zeros(m, dtype=bool)
    status, iterations, entering = MAX_ITER, 0, -1
    while iterations < max_iter:
        iterations += 1
        if entering < 0:
            violated = (rows_a @ x - rows_b > tol) & ~active
            if not violated.any():
                status = OPTIMAL
                break
            entering = int(violated.argmax())

        a_p = rows_a[entering]
        work = active.nonzero()[0]
        a_w = rows_a[work]
        r = (np.linalg.solve((a_w * inv_q) @ a_w.T, a_w @ (inv_q * a_p))
             if work.size else np.zeros(0))
        z = inv_q * (a_p - a_w.T @ r)
        curvature = float(a_p @ z)  # zero iff a_p depends on the active rows

        blocking = np.where(r > 1e-12, lam[work], np.inf) / np.maximum(r, 1e-12)
        k = int(blocking.argmin()) if work.size else -1
        t_block = float(blocking[k]) if k >= 0 else np.inf
        drop = int(work[k]) if t_block < np.inf else -1

        if curvature <= 1e-11 * float(a_p @ (inv_q * a_p)):
            if drop < 0:
                status = INFEASIBLE
                break
            t_full = np.inf  # dual-only step: move multiplier mass, not x
        else:
            t_full = (float(a_p @ x) - rows_b[entering]) / curvature
        t = min(t_full, t_block)
        if t_full < np.inf:
            x = x - t * z
        lam[work] -= t * r
        lam[entering] += t
        if t_full <= t_block:
            active[entering] = True
            entering = -1
        else:
            lam[drop] = 0.0
            active[drop] = False

    multipliers = np.maximum(lam, 0.0) / scale
    return QpSolution(x, multipliers, status, iterations, kkt_residual(qp, x, multipliers))
