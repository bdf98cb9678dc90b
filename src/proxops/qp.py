"""Small dense quadratic-program solver for runtime-assurance filtering.

Solves
    min_x  sum_i w_i (x_i - c_i)^2    s.t.  A x <= b
with positive, finite weights ``w`` (:func:`solve_batch` refuses any other
problem, :func:`solve` raises on it).  Problems of interest have around a
dozen variables and rows, so a dense active-set method with exact KKT
solves is both simple and predictable: it terminates in finitely many
steps, unlike first-order schemes.

:func:`solve_batch` runs the dual active-set iteration of Goldfarb and
Idnani on a stack of same-shape problems in lock-step.  Each problem starts
from the unconstrained minimum ``x = c`` and alternately drives the most
violated row (on the rows scaled to unit norm; the lowest-indexed of equals)
into its working set and releases blocking rows by a ratio test on the
multipliers.  Stationarity and dual feasibility hold at every step.  It
cannot cycle whichever violated row enters: each join strictly raises the
dual objective, and no working set repeats at a higher one.  A working set
holds at most n rows: n rows already span every row, so a further one takes
a dual-only step.  Each step makes one violation scan and one stacked linear
solve on the normalised Gram matrices ``A Q^-1 A^T``, which are built once
per call; when that solve raises ``LinAlgError`` each problem is solved
alone, and one whose own system is singular stops.  A problem that has
finished stops changing.  The unit-norm rows make ``TOL`` scale-free;
multipliers and margins are reported for the rows as given.  :func:`solve`
is the call on a stack of one, and returns that stack's row 0.

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
NOT_FINITE = "not_finite"  # refused, or finished with no certified x (see solve_batch)

TOL = 1e-8  # on rows scaled to unit norm, so scale-free
VIOLATION_BOUND = 1e-6  # the most an OPTIMAL x may break a unit-norm row by
ITERATION_LIMIT = 200
DATA_LIMIT = 1e150  # a larger coefficient could overflow its row's squared norm


def _row_scale(coeffs):
    """Each row's Euclidean norm, or 1 for a zero row."""
    norms = np.sqrt((coeffs * coeffs).sum(axis=-1))
    return np.where(norms > 0.0, norms, 1.0)


def _matvec(a, v):
    """``a @ v`` for a stack of matrices and a stack of vectors."""
    return (a @ v[..., None])[..., 0]


class Stack:
    """Base of a dataclass whose fields are arrays with one row per member
    of a stack: ``len(s)`` is the member count and ``s[k]`` is member k, the
    same class built from each field's row k; iterating yields every member
    in order, walking all fields' rows together."""

    def __len__(self):
        return len(getattr(self, next(iter(self.__dataclass_fields__))))

    def __getitem__(self, k):
        return type(self)(*(getattr(self, name)[k] for name in self.__dataclass_fields__))

    def __iter__(self):
        return map(type(self), *(getattr(self, name) for name in self.__dataclass_fields__))


@dataclass
class QpSolution(Stack):
    """Solutions of B problems (see :class:`Stack`); ``sol[k]`` is problem
    k's, with an (n,) ``x``, (m,) ``multipliers`` and scalar fields."""

    x: np.ndarray             # (B, n)
    multipliers: np.ndarray   # (B, m)
    status: np.ndarray        # (B,) str: OPTIMAL, MAX_ITER, INFEASIBLE or NOT_FINITE
    iterations: np.ndarray    # (B,) int
    kkt_residual: np.ndarray  # (B,) float
    margins: np.ndarray       # (B, m): rhs - coeffs @ x for the rows as given


def _kkt_residuals(weights, centres, coeffs, rhs, scale, x, multipliers):
    """The KKT residuals and the margins ``rhs - coeffs @ x`` they are formed from."""
    margins = rhs - _matvec(coeffs, x)
    natural = np.minimum(multipliers * scale, margins / scale)
    grad = 2.0 * weights * (x - centres) + _matvec(coeffs.swapaxes(-1, -2), multipliers)
    return np.maximum(np.abs(grad).max(axis=-1, initial=0.0),
                      np.abs(natural).max(axis=-1, initial=0.0)), margins


def _stack_data(weights, centres, coeffs, rhs, warm=None):
    """A stack's data as float arrays, ``warm`` as a bool array or None, and
    the (B,) mask of the problems :func:`solve_batch` refuses (see there);
    raises ``ValueError`` unless the shapes are those :func:`solve_batch` takes."""
    weights, centres, coeffs, rhs = data = [np.asarray(v, dtype=float)
                                            for v in (weights, centres, coeffs, rhs)]
    if not (weights.ndim == rhs.ndim == 2 and centres.shape == weights.shape
            and len(rhs) == len(weights) and coeffs.shape == rhs.shape + weights.shape[1:]):
        raise ValueError("weights and centres must be (B, n), coefficients (B, m, n) and rhs "
                         f"(B, m), got {[v.shape for v in data]}")
    if warm is not None and np.shape(warm) != rhs.shape:
        raise ValueError(f"warm must be (B, m) = {rhs.shape}, got {np.shape(warm)}")
    refused = ~((np.abs(coeffs) <= DATA_LIMIT).all(axis=(1, 2))
                & np.isfinite(centres).all(axis=1) & np.isfinite(rhs).all(axis=1)
                & ((0.0 < weights) & (weights < np.inf)).all(axis=1))
    return data, None if warm is None else np.asarray(warm, dtype=bool), refused


def _one(*problem):
    """One problem's data as a stack of one; raises ``ValueError`` unless
    :func:`solve_batch` would solve that stack."""
    data, _, refused = _stack_data(*(np.asarray(v)[None] for v in problem))
    if refused[0]:
        raise ValueError("QP data must be finite, weights positive and coefficients at most "
                         f"{DATA_LIMIT:g}")
    return data


def kkt_residual(weights, centres, coeffs, rhs, x, multipliers) -> float:
    """Max of the stationarity residual and, on each row i scaled to unit norm
    with residual s_i and multiplier l_i, the natural residual |min(l_i, -s_i)|.
    Zero (up to roundoff) exactly at the optimum, so it certifies any candidate;
    unlike |l_i s_i| it does not grow with a large slack-penalty multiplier.
    Raises ``ValueError`` on the data :func:`solve` raises on."""
    weights, centres, coeffs, rhs = _one(weights, centres, coeffs, rhs)
    x, multipliers = (np.asarray(v, dtype=float)[None] for v in (x, multipliers))
    return float(_kkt_residuals(weights, centres, coeffs, rhs, _row_scale(coeffs),
                                x, multipliers)[0][0])


def solve(weights, centres, coeffs, rhs) -> QpSolution:
    """Solve one QP with rows ``coeffs[i] . x <= rhs[i]`` (:func:`solve_batch`
    on a stack of one); returns the unique minimizer when status is optimal.

    Raises ``ValueError`` unless ``weights`` and ``centres`` are vectors of
    equal length n, ``coeffs`` is (m, n) for the m entries of ``rhs``, and
    :func:`solve_batch` would not refuse the problem.
    """
    return solve_batch(*_one(weights, centres, coeffs, rhs))[0]


def _solve_masked(gram, eye, mask, b):
    """Each problem's Gram system on its ``mask`` rows, solved for ``b`` on
    those rows, with ``eye`` (the (m, m) identity) standing in for the others,
    and None; or, when the stacked solve raises ``LinAlgError``, each problem
    solved alone, NaN where its system is exactly singular, and the (B,) mask
    of the solutions that hold a NaN."""
    systems = np.where(mask[:, :, None] & mask[:, None, :], gram, eye)
    b = np.where(mask, b, 0.0)
    try:
        return np.linalg.solve(systems, b[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for k, (system, b_k) in enumerate(zip(systems, b)):
            try:
                out[k] = np.linalg.solve(system, b_k)
            except np.linalg.LinAlgError:
                pass
        return out, np.isnan(out).any(axis=1)


def _warm_start(gram, eye, rows_a, rows_b, inv_q, centres, guess):
    """The equality-constrained minimiser on each guessed working set, as
    (x, multipliers, working set, normalised residuals ``A x - b``); the cold
    start ``x = c`` with an empty set where the guess is singular,
    inconsistent or has a negative multiplier.  ``eye`` is the (m, m)
    identity, which stands in for unguessed rows."""
    at_centres = _matvec(rows_a, centres) - rows_b
    with np.errstate(over="ignore", invalid="ignore"):  # a bad guess is rejected below
        lam, _ = _solve_masked(gram, eye, guess, at_centres)
        x = centres - inv_q * _matvec(rows_a.swapaxes(1, 2), lam)
        at_x = _matvec(rows_a, x) - rows_b
        kept = ((0.0 <= lam) & (lam < np.inf)  # finite and nonnegative
                & ((np.abs(at_x) <= TOL) | ~guess)).all(axis=1, keepdims=True)
    active = guess & kept
    return (np.where(kept, x, centres), np.where(active, lam, 0.0), active,
            np.where(kept, at_x, at_centres))


def solve_batch(weights, centres, coeffs, rhs, warm=None) -> QpSolution:
    """Solve B same-shape QPs in lock-step; returns stacked solutions.

    ``weights`` and ``centres`` are (B, n), ``coeffs`` (B, m, n) and ``rhs``
    (B, m); ``warm``, if given, is a (B, m) boolean guess of each problem's
    binding rows.  Any other shape raises ``ValueError``: nothing broadcasts.
    The module docstring gives the iteration.

    ``OPTIMAL`` is certified: a finite x and KKT residual, and no row broken
    by more than :data:`VIOLATION_BOUND` on the unit-norm rows.  A problem
    that finishes without that certificate is ``NOT_FINITE``: its step
    overflowed, its working set's system was singular (the problem stops
    there with a NaN ``x``; the others keep the bits they get alone), or
    roundoff in an ill-conditioned working set left a row broken.  It is not
    ``INFEASIBLE``, which the iteration reports only from a dual step that
    nothing blocks (or a hopeless zero row).

    A problem with a weight that is not positive and finite, a non-finite
    centre or right-hand side, or a coefficient beyond :data:`DATA_LIMIT` in
    magnitude, is refused before any arithmetic on it, without a warning:
    ``NOT_FINITE`` with no iterations, a NaN ``x`` and an infinite KKT
    residual.  No input array is written.
    """
    data, warm, refused = _stack_data(weights, centres, coeffs, rhs, warm)
    weights, centres, coeffs, rhs = data
    (b, m), n = rhs.shape, weights.shape[1]
    if refused.any():  # new arrays: NaN centres under zero rows, where x = c stays
        weights = np.where(refused[:, None], 1.0, weights)
        centres = np.where(refused[:, None], np.nan, centres)
        coeffs = np.where(refused[:, None, None], 0.0, coeffs)
        rhs = np.where(refused[:, None], 0.0, rhs)
    inv_q = 0.5 / weights  # inverses of the Hessian diagonals
    scale = _row_scale(coeffs)
    rows_a = coeffs / scale[..., None]
    rows_b = rhs / scale
    gram = (rows_a * inv_q[:, None]) @ rows_a.swapaxes(1, 2)

    # 0 . x <= rhs is vacuous or hopeless regardless of x.  A vacuous zero
    # row keeps scale 1, so its violation -rhs never exceeds TOL.
    hopeless = ((rhs < -TOL) & ~coeffs.any(axis=2)).any(axis=1)
    idle = hopeless | refused  # problems that take no step
    eye = np.eye(m)
    active = np.zeros((b, m), dtype=bool) if warm is None else warm & ~idle[:, None]
    if active.any():
        x, lam, active, residuals = _warm_start(gram, eye, rows_a, rows_b, inv_q, centres, active)
    else:  # an empty guess is the cold start
        x, lam = centres.copy(), np.zeros((b, m))
        residuals = _matvec(rows_a, x) - rows_b
    iterations = np.zeros(b, dtype=int)
    running, infeasible = ~idle, hopeless
    violated = (residuals > TOL) & ~active  # the first scan, on the start's residuals
    entering = np.full(b, -1)  # the row being driven in, or -1 to scan
    every = np.arange(b)
    for _ in range(ITERATION_LIMIT):
        iterations += running
        scan = running & (entering < 0)
        running &= violated.any(axis=1) | ~scan
        if not running.any():
            break
        # the most violated row, the lowest-indexed of equals
        entering = np.where(scan, np.where(violated, residuals, -np.inf).argmax(axis=1),
                            entering)

        a_p = rows_a[every, entering]
        g_p = gram[every, :, entering]  # every row's inner product with a_p
        r, singular = _solve_masked(gram, eye, active, g_p)
        if singular is not None:  # a running problem's singular set stops it
            lost = running & singular
            x[lost] = np.nan
            running &= ~lost
        z = inv_q * (a_p - _matvec(rows_a.swapaxes(1, 2), r))
        curvature = (a_p * z).sum(axis=1)  # zero iff a_p depends on the active rows
        flat = curvature <= 1e-11 * g_p[every, entering]
        if m > n:  # n rows already span every row: a further one only moves multiplier mass
            flat |= active.sum(axis=1) >= n

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
        residuals = _matvec(rows_a, x) - rows_b
        violated = (residuals > TOL) & ~active

    multipliers = np.maximum(lam, 0.0) / scale
    kkt, margins = _kkt_residuals(weights, centres, coeffs, rhs, scale, x, multipliers)
    kkt = np.where(idle, np.inf, kkt)
    # A finite KKT residual implies a finite x, whose stationarity term it holds.
    # The scans skip active rows, so a row of any kind left broken voids the optimum.
    certified = np.isfinite(kkt) & (residuals <= VIOLATION_BOUND).all(axis=1)
    status = np.where(running, MAX_ITER, np.where(infeasible, INFEASIBLE,
                                                  np.where(certified, OPTIMAL, NOT_FINITE)))
    return QpSolution(x, multipliers, status, iterations, kkt, margins)
