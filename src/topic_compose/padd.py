"""Prior-aware composition inference by dual decomposition.

Each document's composition minimizes a least-squares reconstruction loss
over the simplex, and all documents are tied together by a constraint
asking their empirical topic-topic second moment to lie within sampling
error of the model's A. The master prices that constraint with a symmetric
dual matrix, bounded so that every document's problem stays strongly
convex, and climbs the dual value by backtracking proximal steps; for a
fixed price the documents decouple. A document whose minimizer on the
simplex's affine hull is strictly positive is solved by that closed form;
every other one by relaxed Douglas-Rachford splitting that alternates a
closed-form quadratic prox with simplex projection.
"""

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

# unused here, but bench/tracing.py patches tc_padd.word_topic_posterior
from .model import CompositionMatrix, check_number, normalize_corpus, word_topic_posterior  # noqa: F401
from .parallel import map_chunks
from .simplex import project_simplex_columns

# The documents a solve does not settle in closed form (its boundary
# columns) run Douglas-Rachford in column blocks of a fixed number of
# entries, so block boundaries depend only on K and the number of boundary
# columns, and results do not depend on the worker count. Each iteration
# makes about 35 NumPy calls per block, plus one per topic for the
# projection's prefix sums; 25,600 entries (512 documents at K=50, 2,560 at
# K=10) keep the fixed cost of those calls small against their work. A
# padd-k10 batch of 1,024 documents leaves about 290 boundary columns, one
# block; a second thread speeds PADD up by at most a fifth on two cores at
# the sizes in README, "Determinism".
SLAVE_ENTRIES = 25_600

# Douglas-Rachford relaxation factor, in (0, 2). In projections per batch it
# beat 1.0 and 1.5 at K=10 and K=50, for small and large dual steps alike.
RELAXATION = 1.9

# The price's Frobenius norm is capped at PRICE_CAP times the smallest
# eigenvalue of B^T B, so the prior changes no slave's curvature by more
# than a tenth of the data's weakest. An A that the corpus cannot reach
# drives an uncapped price to where Q is singular, every solve then runs
# to slave_iters, and the solutions follow the wrong A. On the benchmark's
# inputs at seeds 1-3 the accepted price ends on the cap in 1 of 24
# padd-k10 batches, whose A is the pool's own second moment, and in 9 of
# 24 tli-k50 batches, whose A is the analytic Dirichlet moment (README,
# "PADD").
PRICE_CAP = 0.1

# The master also stops once the dual optimality residual of an accepted
# price is below DUAL_TOL * radius: at zero price that is a gap within 1%
# of the radius, and on the cap it is a gradient that points straight out.
DUAL_TOL = 0.01

# The master's first trial step on the per-document price (`padd_infer`).
FIRST_STEP = 1.0


@dataclass(frozen=True)
class PaddConfig:
    """Solver settings.

    master_iters caps the slave solves, rejected trial steps included; the
    master stops earlier once the constraint holds or the price stops
    moving. The class constants are not settings: slave_iters caps each
    solve's Douglas-Rachford iterations, and slave_tol is the threshold
    that every document's Douglas-Rachford step in a block must meet at the
    same iteration for the block to stop (a document whose step meets it
    counts in `docs_converged`); a step is the larger of the infinity norms
    of the change in the iterate and of the gap between the prox point and
    the iterate. Nor are the steps: the master's first is FIRST_STEP, and
    every solve derives its Douglas-Rachford step from the spectrum of its
    slave quadratic.
    """

    master_iters: int = 15
    slave_iters: ClassVar[int] = 150
    slave_tol: ClassVar[float] = 1e-7

    def __post_init__(self):
        check_number(self.master_iters, "master_iters", 1)


@dataclass
class PaddDiagnostics:
    """`radius` is the constraint's radius; every list has one entry per
    slave solve, accepted or not. `infer` records `vars()` of it in its
    manifest as `results`."""

    radius: float = 0.0
    rounds: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    constraint_gap: list = field(default_factory=list)
    mean_loss: list = field(default_factory=list)
    dual_value: list = field(default_factory=list)
    dual_norm: list = field(default_factory=list)
    docs_converged: list = field(default_factory=list)
    closed_form: list = field(default_factory=list)
    dr_iters: list = field(default_factory=list)
    prox_min_eig: list = field(default_factory=list)

    def append(self, *row):
        columns = iter(vars(self).values())
        next(columns)  # radius
        for column, value in zip(columns, row, strict=True):
            column.append(value)


def _symmetrize(X):
    return (X + X.T) / 2.0


def _prox_step(X, c, cap):
    """X moved toward 0 by c in Frobenius norm, stopping at 0, with its norm
    then capped at cap; returns it and whether the cap bound. The norm is
    taken with math.hypot, which does not overflow for entries whose
    squares would."""
    norm = math.hypot(*X.flat)
    if norm - c > cap:
        return X * (cap / norm), True
    return (X * (1.0 - c / norm) if norm > c else np.zeros_like(X)), False


def _dual_residual(Gamma, capped, excess, radius):
    """Twice the norm of phi's smallest supergradient at Gamma once the
    cap's outward normal is taken off (when `capped`); 0 exactly at the
    dual optimum."""
    norm = math.hypot(*Gamma.flat)
    if norm == 0.0:
        return max(0.0, math.hypot(*excess.flat) - radius)
    u = Gamma / norm
    v = excess - radius * u
    if capped:
        v -= max(0.0, float(np.vdot(v, u))) * u
    return math.hypot(*v.flat)


def _prox_inverse(Q, what):
    """Douglas-Rachford prox operator for the slave quadratic Q.

    Q must be positive definite with condition at most 1e12 for the slave
    to be strongly convex, or a RuntimeError naming `what` is raised. The
    step rho = sqrt(lo * hi) over Q's extreme eigenvalues is the classical
    choice for a strongly convex quadratic (Giselsson & Boyd, IEEE TAC
    2017). Returns the symmetrized inverse of Q + rho I, rho and lo.
    """
    eig = np.linalg.eigvalsh(Q)
    lo, hi = float(eig[0]), float(eig[-1])
    if not (lo > 0.0 and hi <= 1e12 * lo):
        raise RuntimeError(
            f"{what} is not positive definite with condition <= 1e12: "
            f"eigenvalues span [{lo:.3e}, {hi:.3e}]"
        )
    rho = math.sqrt(lo * hi)
    return _symmetrize(np.linalg.inv(Q + rho * np.eye(Q.shape[0]))), rho, lo


def _dr_block(P, C, w, q, order, max_iters, tol):
    """Relaxed Douglas-Rachford on a block of columns, from the start pair
    w and auxiliary q. w need not lie on the simplex: it enters only the
    first prox point and step. q and `order`, each column's sort order for
    the projection, are updated in place.

    The quadratic's prox step is the affine map p = P (2w - q) + C. A
    column's step is the larger of |w_new - w| and |p - w| (infinity
    norms), so it converges only once the projection and the prox agree.
    Iterates the whole block until every column's step is at most tol at
    the same iterate, or until the cap, and returns that iterate's
    projected w, how many of its columns have a step at most tol (all of
    them unless the cap was reached) and the number of iterations run. The
    block matches a column-by-column run of the same number of iterations
    only to rounding: BLAS picks its kernel by the product's width, so
    (P @ X)[:, j] and P @ X[:, j:j+1] differ in the last bits (at K=10
    only a single column does; from K=25 on, other widths differ too).
    """
    work = np.empty_like(q)  # holds 2w - q, then RELAXATION * d, then |w_new - w|
    for iters in range(1, max_iters + 1):
        np.subtract(np.multiply(w, 2.0, out=work), q, out=work)
        d = P @ work
        d += C
        d -= w  # p - w
        q += np.multiply(d, RELAXATION, out=work)
        w_new = project_simplex_columns(q, order=order)
        np.abs(np.subtract(w_new, w, out=work), out=work)
        step = np.maximum(work.max(axis=0), np.abs(d, out=d).max(axis=0))
        w = w_new
        if step.max() <= tol:
            break
    return w, int(np.count_nonzero(step <= tol)), iters


def _affine_fit(Q, F):
    """Each column's minimizer of w^T Q w / 2 - f^T w on the simplex's
    affine hull {sum w = 1}, X = Q^-1 (F - 1 nu), and the multipliers nu
    (one per column) that make every column of X sum to 1. With u = Q^-1 1
    and s = 1^T u, nu = (u^T F - 1) / s and X = (Q^-1 - u u^T / s) F + u / s:
    one K-row product and no K x M temporary."""
    Qinv = np.linalg.inv(Q)
    u = Qinv.sum(axis=1)
    u_s = u / u.sum()
    X = (Qinv - np.outer(u, u_s)) @ F
    X += u_s[:, None]
    return X, (u @ F - 1.0) / u.sum()


def _solve_slaves(P, C, X, shift, W0, Q0, order, config, threads):
    """Solve every slave from (W0, Q0), updating Q0 and order in place;
    returns the solve's W (in X's memory if X is given), Q0 as its Qaux,
    the number of columns whose final step is at most slave_tol (the
    settled ones and each block's count), the most iterations of any block
    (0 if none ran) and the number of columns settled in closed form.

    X is each column's affine minimizer and shift its nu / rho, or both are
    None to settle nothing. Where X is strictly positive it is the column's
    simplex minimizer, and (X, X + shift) is a Douglas-Rachford fixed point:
    the prox point of 2X - q is X, and q projects onto X. Such a column is
    settled there, with no iteration, if that pair passes _dr_block's own
    step test on the prox point. The other columns run _dr_block, gathered
    into blocks of their own and scattered back; when none is settled they
    run in place, as gathering and scattering every column made K=50
    solves of 1,024 documents 1.15-1.16 times slower.
    """
    K, M = C.shape
    W = np.empty((K, M)) if X is None else X
    settled = np.zeros(M, dtype=bool) if X is None else (X > 0.0).all(axis=0)
    if settled.any():
        Qs = X + shift
        d = P @ (2.0 * X - Qs)
        d += C
        d -= X
        settled &= np.abs(d, out=d).max(axis=0) <= config.slave_tol
        np.copyto(Q0, Qs, where=settled)
    rest = np.flatnonzero(~settled)
    gather = rest.size < M
    Cr, W0r, Q0r, order_r = (a[:, rest] if gather else a for a in (C, W0, Q0, order))
    Wr = np.empty((K, rest.size)) if gather else W
    converged, iters = [M - rest.size], [0]

    def run(span):
        s = slice(*span)
        Wr[:, s], block_converged, block_iters = _dr_block(
            P, Cr[:, s], W0r[:, s], Q0r[:, s], order_r[:, s],
            config.slave_iters, config.slave_tol)
        converged.append(block_converged)
        iters.append(block_iters)

    map_chunks(rest.size, max(1, SLAVE_ENTRIES // K), run, threads)
    if gather:
        W[:, rest], Q0[:, rest], order[:, rest] = Wr, Q0r, order_r
    return W, Q0, sum(converged), max(iters), M - rest.size


def padd_infer(model, corpus, config=None, threads=1):
    """Infer all compositions under the second-moment prior constraint.

    Document m's slave problem at the per-document price Gamma minimizes
    ||B w - h_m||^2 / 2 + w^T Gamma w / 2 over the simplex, the quadratic
    form of Q = B^T B + Gamma. The constraint is the Frobenius ball
    ||moment - A|| <= radius around A, where moment is the solutions'
    empirical second moment and radius is the plug-in standard error of
    the first solve's moment, sqrt(sum_m ||w_m||^4 - M ||moment||^2) / M.
    The master maximizes the concave dual value

        phi(Gamma) = loss / 2 + <Gamma, moment - A> / 2 - radius ||Gamma|| / 2

    (loss is the mean ||B w_m - h_m||^2 at the slaves' solutions) over
    prices of Frobenius norm at most PRICE_CAP * lambda_min(B^T B), by
    proximal ascent: a trial price shrinks Gamma + s (moment - A) / 2
    toward 0 by s * radius / 2 in Frobenius norm and caps its norm. A
    solve first forms each slave's minimizer on the simplex's affine hull,
    X = Q^-1 (F - 1 nu), and settles the documents whose X is strictly
    positive there (`_solve_slaves`); after an accepted solve that settles
    none, no later solve forms X. The others are re-solved at the trial
    price from the last accepted Douglas-Rachford state; in the first
    solve, at Gamma = 0, from the state w = project(X), q = X. The trial
    is accepted if phi did not fall, else it is discarded; s starts at
    FIRST_STEP, halves after a rejection and doubles after an acceptance
    that neither followed a rejection nor reached the cap. The master
    stops once an accepted solve's gap ||moment - A|| is at most the
    radius, once its `_dual_residual` is below DUAL_TOL * radius, or after
    config.master_iters solves.

    The cap keeps lambda_min(Q) >= 0.9 lambda_min(B^T B), so a trial's Q
    fails `_prox_inverse`'s check only when B^T B's condition exceeds about
    9e11; that check raises RuntimeError, as it does for B^T B itself.
    Returns the last accepted compositions and a PaddDiagnostics with one
    row per solve.
    """
    config = config or PaddConfig()
    if corpus.N != model.N:
        raise ValueError(f"corpus vocabulary {corpus.N} != model vocabulary {model.N}")
    diagnostics = PaddDiagnostics()
    K, M = model.K, corpus.M
    Ht = normalize_corpus(corpus)
    B = model.B
    F = B.T @ Ht
    BtB = B.T @ B
    h_sq = float(np.dot(Ht.data, Ht.data))  # sum of ||h_m||^2
    # each column's sort order, carried from projection to projection
    order = np.repeat(np.arange(K)[:, None], M, axis=1)
    G, rho_trial, min_eig = _prox_inverse(BtB, "slave quadratic Q = B^T B")
    cap = PRICE_CAP * min_eig
    trial, capped, s, phi, grow = np.zeros((K, K)), False, FIRST_STEP, -math.inf, True
    settle = True  # cleared by an accepted solve that settles no document

    for t in range(1, config.master_iters + 1):
        if t > 1:
            trial, capped = _prox_step(Gamma + (s / 2.0) * excess, s * radius / 2.0, cap)
            G, rho_trial, min_eig = _prox_inverse(BtB + trial, "slave quadratic Q")
        X = shift = None
        if settle:
            # after the check, so a singular Q raises its RuntimeError
            X, nu = _affine_fit(BtB + trial, F)
            shift = nu / rho_trial
        if t == 1:
            # the Douglas-Rachford state (w, q) = (project(X), X)
            W, Qaux, rho = project_simplex_columns(X, order=order), X, rho_trial
        # at a fixed point q - w = (F - Qw) / rho; keep that gradient
        Q0 = W + (rho / rho_trial) * (Qaux - W)
        W_t, Qaux_t, converged, dr_iters, closed_form = _solve_slaves(
            rho_trial * G, G @ F, X, shift, W, Q0, order, config, threads)
        # mean ||B w_m - h_m||^2, expanded so Ht is never densified
        loss = float(np.einsum("ij,ij->", BtB @ W_t, W_t)
                     - 2.0 * np.einsum("ij,ij->", W_t, F) + h_sq) / M
        moment = _symmetrize(W_t @ W_t.T) / M
        if t == 1:
            col_sq = np.einsum("ij,ij->j", W_t, W_t)
            radius = math.sqrt(
                max(0.0, float(col_sq @ col_sq) - M * float(np.vdot(moment, moment)))) / M
            diagnostics.radius = radius
        excess_t = moment - model.A
        gap = float(np.linalg.norm(excess_t))
        dual_norm = float(np.linalg.norm(trial))
        phi_t = (loss + float(np.vdot(trial, excess_t)) - radius * dual_norm) / 2.0
        accepted = phi_t >= phi
        diagnostics.append(
            t, s if t > 1 else 0.0, accepted, gap, loss, phi_t, dual_norm,
            converged, closed_form, dr_iters, min_eig,
        )
        if accepted:
            Gamma, W, Qaux, rho, excess, phi = trial, W_t, Qaux_t, rho_trial, excess_t, phi_t
            settle = closed_form > 0
            if (gap <= radius
                    or _dual_residual(Gamma, capped, excess, radius) < DUAL_TOL * radius):
                break
        if t > 1:
            # halve after a rejection and double after an acceptance; keep
            # the step after an acceptance that follows a rejection, or whose
            # price is on the cap, where a longer step only swings the price
            # further round it
            if not accepted:
                s /= 2.0
            elif grow and not capped:
                s *= 2.0
            grow = accepted
    return CompositionMatrix(W), diagnostics
