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

from .model import CompositionMatrix, normalize_corpus, word_topic_posterior
from .parallel import map_chunks
from .simplex import project_simplex_columns

# Documents are solved in column blocks of a fixed number of entries, so
# block boundaries depend only on K and M and results do not depend on the
# worker count. Each Douglas-Rachford iteration makes ~20 NumPy calls per
# block; 25,600 entries (512 documents at K=50, 2,560 at K=10) give every
# call enough work with the GIL released to outweigh handing it between
# threads, which smaller blocks at small K do not.
SLAVE_ENTRIES = 25_600


@dataclass(frozen=True)
class PaddConfig:
    """Solver settings.

    loss_weight scales the reconstruction loss against the dual penalty
    (and appears inside the prox operator); relaxation is the
    Douglas-Rachford mixing factor, in (0, 2); tau0 is the dual step size
    of master round 1, and round t steps tau0 / sqrt(t); slave_tol is the
    per-document stopping threshold on the infinity norm of successive
    iterates; dual_stop_tol stops the master early once the dual update
    becomes negligible.
    """

    loss_weight: float = 3.0
    relaxation: float = 1.9
    master_iters: int = 15
    slave_iters: int = 150
    tau0: float = 1.0
    slave_tol: float = 1e-7
    dual_stop_tol: float = 1e-8

    def __post_init__(self):
        if not (self.loss_weight > 0.0 and math.isfinite(self.loss_weight)):
            raise ValueError(f"loss_weight must be > 0, got {self.loss_weight!r}")
        if not (0.0 < self.relaxation < 2.0):
            raise ValueError(f"relaxation must lie in (0, 2), got {self.relaxation!r}")
        if self.master_iters < 1:
            raise ValueError("master_iters must be >= 1")
        if self.slave_iters < 1:
            raise ValueError("slave_iters must be >= 1")
        if not (self.tau0 > 0.0 and math.isfinite(self.tau0)):
            raise ValueError(f"tau0 must be > 0, got {self.tau0!r}")
        if not (self.slave_tol > 0.0):
            raise ValueError("slave_tol must be > 0")
        if self.dual_stop_tol < 0.0:
            raise ValueError("dual_stop_tol must be >= 0")


@dataclass
class PaddDiagnostics:
    """One row per master round."""

    rounds: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    constraint_gap: list = field(default_factory=list)
    mean_loss: list = field(default_factory=list)
    dual_norm: list = field(default_factory=list)
    mean_final_step: list = field(default_factory=list)
    docs_converged: list = field(default_factory=list)
    prox_min_eig: list = field(default_factory=list)

    def append(self, round_, tau, gap, loss, dual_norm, step, converged, min_eig):
        self.rounds.append(int(round_))
        self.tau.append(float(tau))
        self.constraint_gap.append(float(gap))
        self.mean_loss.append(float(loss))
        self.dual_norm.append(float(dual_norm))
        self.mean_final_step.append(float(step))
        self.docs_converged.append(int(converged))
        self.prox_min_eig.append(float(min_eig))

    def write_tsv(self, path):
        cols = ("round", "tau", "constraint_gap", "mean_loss", "dual_norm",
                "mean_final_step", "docs_converged", "prox_min_eig")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\t".join(cols) + "\n")
            for i in range(len(self.rounds)):
                fh.write(
                    f"{self.rounds[i]}\t{self.tau[i]:.17g}\t"
                    f"{self.constraint_gap[i]:.17g}\t{self.mean_loss[i]:.17g}\t"
                    f"{self.dual_norm[i]:.17g}\t{self.mean_final_step[i]:.17g}\t"
                    f"{self.docs_converged[i]}\t{self.prox_min_eig[i]:.17g}\n"
                )


def _symmetrize(X):
    return (X + X.T) / 2.0


def _prox_inverse(S, round_):
    """Invert the symmetric prox matrix S of master round `round_`.

    S must be positive definite with condition number at most 1e12, or
    Douglas-Rachford diverges; returns the symmetrized inverse and the
    smallest eigenvalue of S.
    """
    eig = np.linalg.eigvalsh(S)
    lo, hi = float(eig[0]), float(eig[-1])
    if not (lo > 0.0 and hi <= 1e12 * lo):
        raise RuntimeError(
            f"prox matrix at master round {round_} is not positive definite "
            f"with condition <= 1e12: eigenvalues span [{lo:.3e}, {hi:.3e}]"
        )
    return _symmetrize(np.linalg.inv(S)), lo


def _dr_block(G, F, W0, relaxation, max_iters, tol):
    """Relaxed Douglas-Rachford on a block of columns.

    Iterates the whole block until every column's step falls below tol or
    the cap is reached, but freezes each column's output at its first
    converged iterate so the block result matches column-by-column runs.
    Returns (solutions, final step sizes).
    """
    w = project_simplex_columns(W0)  # iterate lives on the simplex
    q = w.copy()
    out = w.copy()
    m = w.shape[1]
    done = np.zeros(m, dtype=bool)
    final_step = np.zeros(m)
    step = np.zeros(m)
    for _ in range(max_iters):
        p = G @ (2.0 * w - q + F)
        q += relaxation * (p - w)
        w_new = project_simplex_columns(q)
        step = np.abs(w_new - w).max(axis=0)
        w = w_new
        newly = ~done & (step <= tol)
        if newly.any():
            out[:, newly] = w[:, newly]
            final_step[newly] = step[newly]
            done[newly] = True
        if done.all():
            return out, final_step
    active = ~done
    out[:, active] = w[:, active]
    final_step[active] = step[active]
    return out, final_step


def admm_dr_solve(G, f, w0, relaxation=1.9, max_iters=150, tol=1e-7):
    """Solve one document: minimize the quadratic with prox operator G and
    linear term f over the simplex, starting from w0."""
    G = np.asarray(G, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64).ravel()
    w0 = np.asarray(w0, dtype=np.float64).ravel()
    K = f.size
    if G.shape != (K, K) or w0.size != K:
        raise ValueError(f"shape mismatch: G {G.shape}, f {f.shape}, w0 {w0.shape}")
    if not (0.0 < relaxation < 2.0):
        raise ValueError(f"relaxation must lie in (0, 2), got {relaxation!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not (np.isfinite(G).all() and np.isfinite(f).all() and np.isfinite(w0).all()):
        raise ValueError("non-finite input")
    w, _ = _dr_block(G, f[:, None], w0[:, None], relaxation, max_iters, tol)
    return w[:, 0]


def _solve_slaves(G, F, Winit, config, threads):
    K, M = F.shape
    out = np.empty((K, M))
    steps = np.empty(M)

    def run(span):
        s, e = span
        w, fs = _dr_block(
            G, F[:, s:e], Winit[:, s:e],
            config.relaxation, config.slave_iters, config.slave_tol,
        )
        out[:, s:e] = w
        steps[s:e] = fs

    map_chunks(M, max(1, SLAVE_ENTRIES // K), run, threads)
    return out, steps


def _mean_loss(B, W, Ht, block=2048):
    """Mean squared reconstruction error ||B w_m - h_m||^2 over documents."""
    M = W.shape[1]
    total = 0.0
    for s in range(0, M, block):
        e = min(s + block, M)
        D = B @ W[:, s:e] - Ht[:, s:e].toarray()
        total += float(np.einsum("ij,ij->", D, D))
    return total / M


def padd_infer(model, corpus, config=None, threads=1, diagnostics=None):
    """Infer all compositions under the second-moment prior constraint.

    Every master round rebuilds the prox operator from the current dual
    prices, re-solves each document starting from its previous round's
    solution (round 1 starts from the posterior estimate), and moves the
    dual against the gap between A and the solutions' empirical second
    moment with step tau0 / sqrt(round). Raises RuntimeError when a round's
    prox matrix is not positive definite. Returns the compositions;
    per-round numbers go into `diagnostics` if given.
    """
    config = config or PaddConfig()
    if corpus.N != model.N:
        raise ValueError(f"corpus vocabulary {corpus.N} != model vocabulary {model.N}")
    if diagnostics is None:
        diagnostics = PaddDiagnostics()
    K, M = model.K, corpus.M
    Ht = normalize_corpus(corpus)
    W = word_topic_posterior(model).Bbreve @ Ht
    if K == 1:
        return CompositionMatrix(np.ones((1, M))), diagnostics

    B = model.B
    F = config.loss_weight * (B.T @ Ht)  # dense (K, M)
    BtB = B.T @ B
    eye = np.eye(K)
    Lambda = np.zeros((K, K))

    for t in range(1, config.master_iters + 1):
        S = config.loss_weight * (BtB + Lambda / M) + eye
        G, min_eig = _prox_inverse(S, t)
        W, steps = _solve_slaves(G, F, W, config, threads)
        if not np.isfinite(W).all():
            raise RuntimeError(f"solver diverged at master round {t}")
        moment = _symmetrize(W @ W.T) / M
        gap_mat = model.A - moment
        gap = float(np.linalg.norm(gap_mat))
        tau = config.tau0 / math.sqrt(t)
        Lambda = Lambda - tau * gap_mat
        skew = float(np.abs(Lambda - Lambda.T).max())
        if skew > 1e-10:
            raise RuntimeError(f"dual matrix lost symmetry: skew {skew:.3e}")
        diagnostics.append(
            t, tau, gap, _mean_loss(B, W, Ht),
            float(np.linalg.norm(Lambda)), float(steps.mean()),
            np.count_nonzero(steps <= config.slave_tol), min_eig,
        )
        if tau * gap < config.dual_stop_tol:
            break
    return CompositionMatrix(W), diagnostics
