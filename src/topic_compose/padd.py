"""Prior-aware composition inference by dual decomposition.

Each document's composition minimizes a least-squares reconstruction loss
over the simplex, and all documents are tied together by a soft constraint
asking their empirical topic-topic second moment to match the model's A.
The master loop prices that constraint with a symmetric dual matrix and
takes diminishing subgradient steps; for a fixed price the documents
decouple, and each one is solved by relaxed Douglas-Rachford splitting
that alternates a closed-form quadratic prox with simplex projection.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CompositionMatrix, normalize_corpus, word_topic_posterior, write_rows
from .parallel import map_chunks
from .simplex import project_simplex_columns

# Documents are solved in column blocks of a fixed number of entries, so
# block boundaries depend only on K and M and results do not depend on the
# worker count. Each Douglas-Rachford iteration makes about 40 NumPy calls
# per block, plus one per topic for the projection's prefix sums; 25,600
# entries (512 documents at K=50, 2,560 at K=10) keep the fixed cost of
# those calls small against their work. Even so a second thread does not
# speed PADD up on two cores at these sizes (README, "Determinism").
SLAVE_ENTRIES = 25_600

# Douglas-Rachford relaxation factor, in (0, 2). In projections per batch it
# beat 1.0 and 1.5 at K=10 and K=50, for small and large dual steps alike.
RELAXATION = 1.9

# The master stops once the constraint is met: the Frobenius norm of the gap
# between A and the solutions' second moment is at most GAP_STOP * ||A||_F.
GAP_STOP = 1e-6


@dataclass(frozen=True)
class PaddConfig:
    """Solver settings.

    master_iters caps the master rounds, which stop earlier once the
    constraint is met (see GAP_STOP); slave_iters caps each round's
    Douglas-Rachford iterations; tau0 is the dual step size of master
    round 1, and round t steps tau0 / sqrt(t); slave_tol is the
    per-document stopping threshold on a Douglas-Rachford step, the larger
    of the infinity norms of the change in the iterate and of the gap
    between the prox point and the iterate. The Douglas-Rachford step is
    not a setting: every round derives it from the spectrum of its slave
    quadratic.
    """

    master_iters: int = 15
    slave_iters: int = 150
    tau0: float = 1.0
    slave_tol: float = 1e-7

    def __post_init__(self):
        if self.master_iters < 1:
            raise ValueError("master_iters must be >= 1")
        if self.slave_iters < 1:
            raise ValueError("slave_iters must be >= 1")
        if not (self.tau0 > 0.0 and math.isfinite(self.tau0)):
            raise ValueError(f"tau0 must be > 0, got {self.tau0!r}")
        if not (self.slave_tol > 0.0):
            raise ValueError("slave_tol must be > 0")


@dataclass
class PaddDiagnostics:
    """One row per master round. The fields, in order, are the columns of
    `write_tsv`, whose header names `rounds` as `round`."""

    rounds: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    constraint_gap: list = field(default_factory=list)
    mean_loss: list = field(default_factory=list)
    dual_norm: list = field(default_factory=list)
    mean_final_step: list = field(default_factory=list)
    docs_converged: list = field(default_factory=list)
    prox_min_eig: list = field(default_factory=list)

    def append(self, *row):
        for column, value in zip(vars(self).values(), row, strict=True):
            column.append(value)

    def write_tsv(self, path):
        names = list(vars(self))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\t".join(["round", *names[1:]]) + "\n")
            # %.17g prints the integer columns as %d does
            write_rows(fh, "\t".join(["%.17g"] * len(names)) + "\n",
                       *map(np.asarray, vars(self).values()))


def _symmetrize(X):
    return (X + X.T) / 2.0


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


def _dr_block(P, C, W0, Q0, order, max_iters, tol):
    """Relaxed Douglas-Rachford on a block of columns, from the start pair
    w = W0 and auxiliary q = Q0. W0 need not lie on the simplex: it enters
    only the first prox point and step, and every returned w is projected.

    The quadratic's prox step is the affine map p = P (2w - q) + C. A
    column's step is the larger of |w_new - w| and |p - w| (infinity
    norms), so it converges only once the projection and the prox agree.
    Iterates the whole block until every column's step falls below tol or
    the cap is reached, but freezes each column's w and q at its first
    converged iterate so the block result matches column-by-column runs.
    `order` holds each column's sort order for the projection and is
    updated in place. Returns (w, q, final step sizes).
    """
    w, q = W0, Q0.copy()  # q is updated in place
    out, out_q = w.copy(), q.copy()
    m = w.shape[1]
    work = np.empty_like(q)  # holds 2w - q, then RELAXATION * d, then |w_new - w|
    done = np.zeros(m, dtype=bool)
    converged = 0
    final_step = np.zeros(m)
    step = np.zeros(m)
    for _ in range(max_iters):
        np.subtract(np.multiply(w, 2.0, out=work), q, out=work)
        d = P @ work
        d += C
        d -= w  # p - w
        q += np.multiply(d, RELAXATION, out=work)
        w_new = project_simplex_columns(q, order=order)
        np.abs(np.subtract(w_new, w, out=work), out=work)
        step = np.maximum(work.max(axis=0), np.abs(d, out=d).max(axis=0))
        w = w_new
        newly = ~done & (step <= tol)
        count = np.count_nonzero(newly)
        if count:
            np.copyto(out, w, where=newly)
            np.copyto(out_q, q, where=newly)
            np.copyto(final_step, step, where=newly)
            done |= newly
            converged += count
            if converged == m:
                return out, out_q, final_step
    active = ~done
    np.copyto(out, w, where=active)
    np.copyto(out_q, q, where=active)
    np.copyto(final_step, step, where=active)
    return out, out_q, final_step


def _solve_slaves(P, C, W0, Q0, order, config, threads):
    K, M = C.shape
    out, out_q = np.empty((K, M)), np.empty((K, M))
    steps = np.empty(M)

    def run(span):
        s, e = span
        out[:, s:e], out_q[:, s:e], steps[s:e] = _dr_block(
            P, C[:, s:e], W0[:, s:e], Q0[:, s:e], order[:, s:e],
            config.slave_iters, config.slave_tol,
        )

    map_chunks(M, max(1, SLAVE_ENTRIES // K), run, threads)
    return out, out_q, steps


def padd_infer(model, corpus, config=None, threads=1):
    """Infer all compositions under the second-moment prior constraint.

    Document m's slave problem at dual price Lambda minimizes
    ||B w - h_m||^2 / 2 + w^T (Lambda / M) w / 2 over the simplex, the
    quadratic form of Q = B^T B + Lambda / M. Every master round rebuilds
    the prox operator from Q, re-solves each document resuming its
    previous round's Douglas-Rachford state (round 1 starts from the
    posterior estimate), and moves the dual against the gap between A and
    the solutions' empirical second moment with step tau0 / sqrt(round).
    From round 3 on that state is first extrapolated along the path by
    the last round's change times the ratio of the last two dual moves.
    The master stops after config.master_iters rounds, or earlier once the
    gap is at most GAP_STOP * ||A||_F. Raises RuntimeError when a round's Q
    is not positive definite. Returns the compositions and a
    PaddDiagnostics with one row per round.
    """
    config = config or PaddConfig()
    if corpus.N != model.N:
        raise ValueError(f"corpus vocabulary {corpus.N} != model vocabulary {model.N}")
    diagnostics = PaddDiagnostics()
    K, M = model.K, corpus.M
    Ht = normalize_corpus(corpus)
    if K == 1:
        return CompositionMatrix(np.ones((1, M))), diagnostics

    B = model.B
    # F = B^T Ht and the posterior start come from one sparse product
    F, start = np.split(np.vstack([B.T, word_topic_posterior(model)]) @ Ht, 2)
    BtB = B.T @ B
    h_sq = float(np.dot(Ht.data, Ht.data))  # sum of ||h_m||^2
    gap_stop = GAP_STOP * float(np.linalg.norm(model.A))
    Lambda = np.zeros((K, K))
    # each column's sort order, carried from projection to projection
    order = np.repeat(np.arange(K)[:, None], M, axis=1)
    W = project_simplex_columns(start, order=order)
    Qaux, rho_prev = W, 1.0  # round 1 starts at q = w
    move_prev = move = 0.0  # sizes tau * gap of the last two dual steps

    for t in range(1, config.master_iters + 1):
        Q = BtB + Lambda / M
        G, rho, min_eig = _prox_inverse(Q, f"slave quadratic Q at master round {t}")
        # at a fixed point q - w = (F - Qw) / rho; keep that gradient
        W0, Q0 = W, W + (rho_prev / rho) * (Qaux - W)
        # from round 3 on, extrapolate the last round's solutions along the
        # path by the ratio of the last two dual moves (round 1's move came
        # from the posterior start, not from a dual step: move_prev is 0)
        r = move / move_prev if move_prev > 0.0 else math.nan
        if math.isfinite(r):
            W0 = W + r * (W - W_prev)
            Q0 += r * (Qaux - Qaux_prev)
        W_prev, Qaux_prev = W, Qaux
        W, Qaux, steps = _solve_slaves(rho * G, G @ F, W0, Q0, order, config, threads)
        rho_prev = rho
        if not np.isfinite(W).all():
            raise RuntimeError(f"solver diverged at master round {t}")
        # mean ||B w_m - h_m||^2, expanded so Ht is never densified
        loss = (np.einsum("ij,ij->", BtB @ W, W)
                - 2.0 * np.einsum("ij,ij->", W, F) + h_sq) / M
        moment = _symmetrize(W @ W.T) / M
        gap_mat = model.A - moment
        gap = float(np.linalg.norm(gap_mat))
        tau = config.tau0 / math.sqrt(t)
        Lambda = Lambda - tau * gap_mat
        skew = float(np.abs(Lambda - Lambda.T).max())
        if skew > 1e-10:
            raise RuntimeError(f"dual matrix lost symmetry: skew {skew:.3e}")
        diagnostics.append(
            t, tau, gap, float(loss),
            float(np.linalg.norm(Lambda)), float(steps.mean()),
            int(np.count_nonzero(steps <= config.slave_tol)), min_eig,
        )
        move_prev, move = move, tau * gap
        if gap <= gap_stop:
            break
    return CompositionMatrix(W), diagnostics
