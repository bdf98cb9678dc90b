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
NOT_FINITE = "not_finite"  # finished, but x or its KKT residual overflowed

TOL = 1e-8  # on rows scaled to unit norm, so scale-free
ITERATION_LIMIT = 200


def _row_scale(coeffs):
    """Each row's Euclidean norm, or 1 for a zero row."""
    norms = np.sqrt((coeffs * coeffs).sum(axis=-1))
    return np.where(norms > 0.0, norms, 1.0)


def _matvec(a, v):
    """``a @ v`` for a stack of matrices and a stack of vectors."""
    return (a @ v[..., None])[..., 0]


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


def _checked(weights, centres, coeffs, rhs):
    """One problem's data as float arrays; see :func:`solve` for the checks."""
    weights, centres, coeffs, rhs = data = [np.asarray(v, dtype=float)
                                            for v in (weights, centres, coeffs, rhs)]
    if weights.ndim != 1 or weights.shape != centres.shape:
        raise ValueError("weights and centres must be vectors of equal length")
    if coeffs.shape != rhs.shape + weights.shape:
        raise ValueError("coeffs must be (m, n) for m rhs entries and n weights")
    if not all(np.isfinite(v).all() for v in data):
        raise ValueError("QP data must be finite")
    if (weights <= 0.0).any():
        raise ValueError("weights must be strictly positive")
    return data


def kkt_residual(weights, centres, coeffs, rhs, x, multipliers) -> float:
    """Max of the stationarity residual and, on each row i scaled to unit norm
    with residual s_i and multiplier l_i, the natural residual |min(l_i, -s_i)|.
    Zero (up to roundoff) exactly at the optimum, so it certifies any candidate;
    unlike |l_i s_i| it does not grow with a large slack-penalty multiplier."""
    weights, centres, coeffs, rhs = _checked(weights, centres, coeffs, rhs)
    data = (weights, centres, coeffs, rhs, _row_scale(coeffs),
            np.asarray(x, dtype=float), np.asarray(multipliers, dtype=float))
    return float(_kkt_residuals(*(v[None] for v in data))[0])


def solve(weights, centres, coeffs, rhs) -> QpSolution:
    """Solve one QP with rows ``coeffs[i] . x <= rhs[i]`` (:func:`solve_batch`
    on a stack of one); returns the unique minimizer when status is optimal.

    Raises ``ValueError`` unless ``weights`` and ``centres`` are vectors of
    equal length n, ``coeffs`` is (m, n) for the m entries of ``rhs``, every
    entry is finite and every weight is positive.
    """
    s = solve_batch(*(v[None] for v in _checked(weights, centres, coeffs, rhs)))
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


def _warm_start(gram, eye, rows_a, rows_b, inv_q, centres, guess):
    """The equality-constrained minimiser on each guessed working set, as
    (x, multipliers, working set); the cold start ``x = c`` with an empty set
    where the guess is singular, inconsistent or has a negative multiplier.
    ``eye`` is the (m, m) identity, which stands in for unguessed rows."""
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
    scale-free; multipliers are reported for the rows as given.  A problem
    whose step overflows finishes with a non-finite ``x`` or KKT residual and
    is reported ``NOT_FINITE``, never ``OPTIMAL``.
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
    eye = np.eye(m)
    active = (np.zeros((b, m), dtype=bool) if warm is None
              else np.asarray(warm, dtype=bool) & ~hopeless[:, None])
    if active.any():
        x, lam, active = _warm_start(gram, eye, rows_a, rows_b, inv_q, centres, active)
    else:  # an empty guess is the cold start
        x, lam = centres.copy(), np.zeros((b, m))
    iterations = np.zeros(b, dtype=int)
    running, infeasible = ~hopeless, hopeless
    entering = np.full(b, -1)  # the row being driven in, or -1 to scan
    every = np.arange(b)
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

    multipliers = np.maximum(lam, 0.0) / scale
    kkt = np.where(hopeless, np.inf,
                   _kkt_residuals(weights, centres, coeffs, rhs, scale, x, multipliers))
    finite = np.isfinite(x).all(axis=1) & np.isfinite(kkt)
    status = np.where(running, MAX_ITER, np.where(infeasible, INFEASIBLE,
                                                  np.where(finite, OPTIMAL, NOT_FINITE)))
    return QpSolution(x, multipliers, status, iterations, kkt)
