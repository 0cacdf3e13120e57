"""Numeric verification of the transform on twisted first homology.

Working over the free group on loops a_1 .. a_n (the diagonal loop is
eliminated through d = (a_1 ... a_n)^{-1}), the space C_1/dC_2 of
one-cycles modulo simplex boundaries is C^{n r} with basis symbols
G[a_i, v_j].  The braid generator u_k conjugates a_k by a loop d_k, in
closed form from prefix products (``ChainSpace``); restricting to the
kernel of the boundary map gives the raw convolution, and quotienting by
the cycles on local fixed vectors gives the middle convolution.  Measured
per-point eigenvalue multisets are compared with the symbolic prediction,
``katz.row_values``: the transform formula run on rows with the
valuation x -> exp(2 pi i x(assignment)) as its output's group law, so
that no transformed vector is built; with no output it raises, as
``katz.row_step`` does, the ConventionViolation or NoneffectiveTransform
that the command line answers.  The symbolic model is held in
those rows (``VerificationProblem.model``): ``generate_instance`` builds
it in rows and ``symbolic_instance`` values a document's rows, so no
eigenvalue object is built on the way.

u_k moves only the cycles on a_k, so its matrix is U_k = I + X_k S_k^T,
where X_k is n r x r and S_k selects block k.  On an orthonormal basis B
of the kernel or of the middle quotient (dimension m) the action is
therefore I + P_k Q_k^H with P_k = B^H X_k and Q_k^H = B[block k].  By
Sylvester's identity det(lam I_m - P Q^H) = lam^(m-r) det(lam I_r - Q^H P)
its spectrum is 1 with multiplicity m - r plus 1 + eig(Q_k^H P_k): one
r x r eigenproblem per point.

Neither B nor any other n r x n r matrix is formed on the way.  Both
spaces are orthogonal complements of thin factors: the kernel that of
R, the boundary's row space (n r x r, the Q of one thin Householder QR
of the boundary's adjoint), and the middle quotient that of V = [R | U],
with U the Q of a thin QR of the middling cycles projected off R.  So
B B^H = I - V V^H is a projector, and
Q_k^H P_k = X_k[block k] - V[block k] (V^H X_k) costs O(n r^2 (r + f))
per point, f the total fixed dimension.  B itself is built on demand, by
a complete QR of V, for the dense matrices and for the m <= r case.

The local eigendata (lam, V) of each M_k is computed once per instance
and read by the convention check, the fixed spaces and the prediction.
Generated and symbolic instances carry it from construction (M_k =
Q D Q^* with known D and Q; only the last matrix is decomposed), and it
is checked against the matrices; a ``matrices`` document is decomposed
once per point.

The prediction reaches the matcher as ``row_values`` makes it, one
(value, multiplicity) list per point, and the assignment runs on those
counts.

Arrays are complex numpy arrays; tolerances are explicit.  Every rank
decision is a threshold on eigenvalues or on singular values, the latter
those of a QR's small triangular factor, which equal the factored
matrix's.  The layer needs numpy only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .docio import check_raw_dim, complex_array, integer, parse_tol
from .errors import (BoundaryNotSurjective, ConventionViolationNumeric, DocumentError,
                     QuotientRankMismatch, SizeMismatch, shown)
# ``kappa`` is not called here; bench/spans.py wraps ``midconv.homology.kappa``
from .katz import _Rows, fresh_names, kappa, row_values  # noqa: F401
from .scalars import GroupMode, _evaluate

__all__ = [
    "NumericInstance",
    "ChainSpace",
    "RawConvolutionRep",
    "MiddleConvolutionRep",
    "VerificationProblem",
    "VerifyReport",
    "raw_convolution_rep",
    "middle_convolution_rep",
    "generate_instance",
    "symbolic_instance",
    "verify_instance",
    "match_multisets",
]

DEFAULT_TOL = 1e-9
# a symbolic verify realizes a value exp(2 pi i w) only for |Im w| <= MAX_IMAG, a
# modulus in about [1/1000, 1000]: at 1e4 verify already misses its 1e-8 deviation bound
MAX_IMAG = 1.1


@dataclass
class NumericInstance:
    """Explicit monodromy matrices plus numeric twisting scalars.

    ``M[i]`` is the r x r local monodromy at point i (product over all
    points equal to the identity), ``b``/``w`` are the horizontal and
    vertical twisting scalars, ``chi`` the diagonal scalar.  The
    twisting relations chi * prod(b) = 1 and prod(w) = prod(b) are
    enforced within ``tol`` at construction.

    ``eigs`` is ``(lam, V)`` per point with M_k V = V diag(lam): a
    builder that knows it passes it in and it is checked to the same
    bound as the relations; otherwise ``np.linalg.eig`` runs once per
    point.  b_k M_k has the eigenvalues b_k lam and the same eigenvectors.
    """

    M: list
    b: np.ndarray
    w: np.ndarray
    chi: complex
    tol: float = DEFAULT_TOL
    eigs: list | None = None

    def __post_init__(self):
        self.M = [np.asarray(Mi, dtype=complex) for Mi in self.M]
        r = self.M[0].shape[0]
        for Mi in self.M:
            if Mi.shape != (r, r):
                raise SizeMismatch("all matrices must be r x r")
        self.b = np.asarray(self.b, dtype=complex)
        self.w = np.asarray(self.w, dtype=complex)
        if len(self.b) != len(self.M) or len(self.w) != len(self.M):
            raise SizeMismatch("need one b and one w scalar per point")
        self.chi = complex(self.chi)
        prod = np.eye(r, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a NaN residual
            for Mi in self.M:
                prod = prod @ Mi
        checks = {
            "prod(M) = 1": np.linalg.norm(prod - np.eye(r)),
            "chi * prod(b) = 1": abs(self.chi * np.prod(self.b) - 1),
            "prod(w) = prod(b)": abs(np.prod(self.w) - np.prod(self.b)),
        }
        if self.eigs is not None:
            for k, (Mi, (lam, V)) in enumerate(zip(self.M, self.eigs, strict=True)):
                checks[f"M_{k} V_{k} = V_{k} diag(lam_{k})"] = np.linalg.norm(Mi @ V - V * lam)
        # not v <= bound: a NaN residual (an overflowed product) fails too
        bad = {k: float(v) for k, v in checks.items() if not v <= max(self.tol, 1e-10) * 100}
        if bad:
            raise ValueError(f"instance violates its defining relations: {bad}")
        if self.eigs is None:
            self.eigs = [np.linalg.eig(Mi) for Mi in self.M]

    @property
    def n(self) -> int:
        return len(self.M)

    @property
    def r(self) -> int:
        return self.M[0].shape[0]

    def fixed_multiplicity(self, k: int) -> int:
        """Multiplicity of eigenvalue 1 in b_k M_k, within tol."""
        return int(np.sum(np.abs(self.b[k] * self.eigs[k][0] - 1) <= self.tol))

    def measured_defect(self) -> int:
        n, r = self.n, self.r
        return (n - 2) * r - sum(self.fixed_multiplicity(k) for k in range(n))

    def to_json(self) -> dict:
        as_pair = lambda z: [float(np.real(z)), float(np.imag(z))]
        return {
            "points": self.n,
            "rank": self.r,
            "tol": self.tol,
            "matrices": [[[as_pair(z) for z in row] for row in Mi] for Mi in self.M],
            "b": [as_pair(z) for z in self.b],
            "w": [as_pair(z) for z in self.w],
            "chi": as_pair(self.chi),
        }

    @classmethod
    def from_json(cls, doc) -> "NumericInstance":
        """The ``to_json`` form; DocumentError at the path of a bad part."""
        M = complex_array(doc.get("matrices"), "$.matrices", 3)
        if len(M) < 3:
            raise DocumentError("need at least 3 matrices", "$.matrices")
        check_raw_dim(len(M), len(M[0]), "$.matrices")
        try:
            inst = cls(M=M, b=complex_array(doc.get("b"), "$.b", 1),
                       w=complex_array(doc.get("w"), "$.w", 1),
                       chi=complex_array(doc.get("chi"), "$.chi"),
                       tol=parse_tol(doc, DEFAULT_TOL))
        except (ValueError, SizeMismatch) as exc:
            raise DocumentError(str(exc), "$") from None
        # the chain space inverts each twisted action b_k M_k: both it and its
        # inverse must have norm at most 1/tol
        sv = np.linalg.svd(inst.b[:, None, None] * np.array(inst.M), compute_uv=False)
        for k, (low, high) in enumerate(zip(sv[:, -1], sv[:, 0])):
            if not inst.tol <= low <= high <= 1 / inst.tol:
                raise DocumentError(
                    f"the singular values of b_{k} M_{k} must lie in [tol, 1/tol] = "
                    f"[{inst.tol:.3g}, {1 / inst.tol:.3g}], got {low:.3e} to {high:.3e}",
                    f"$.matrices[{k}]")
        for key, size in (("points", inst.n), ("rank", inst.r)):
            if key in doc and integer(doc[key], f"$.{key}") != size:
                raise DocumentError(f"'{key}' is {doc[key]} but the matrices give {size}",
                                    f"$.{key}")
        return inst


# ---------------------------------------------------------------------------
# The chain space
# ---------------------------------------------------------------------------

class ChainSpace:
    """C_1/dC_2 = C^{n r} with basis G[a_i, v_j] and its boundary map.

    The twisted action of a_i is A_i = b_i M_i; the boundary sends
    G[a_i, v] to (A_i - 1) v.  With the prefixes P_i = A_1 ... A_i and their
    running inverses Pbar_i = A_i^-1 ... A_1^-1, the loop
    d_k = (a_{k+1} ... a_n a_1 ... a_k)^-1 (the conjugate of d on which
    ``braid_block_closed_form`` holds) acts by D_k = Pbar_k Pbar_n P_k,
    and G[d_k, v] expands (G[xy, v] = G[y, v] + G[x, y(v)]) to block i
    -Pbar_i Pbar_n P_k v for i <= k and -Pbar_i P_k v for i > k.  P_n =
    chi^-1 I holds only to the relation bound, so it is not substituted.
    """

    def __init__(self, inst: NumericInstance):
        self.inst = inst
        self.n, self.r = inst.n, inst.r
        self.A = [inst.b[i] * inst.M[i] for i in range(self.n)]
        self.boundary = np.hstack([Ai - np.eye(self.r) for Ai in self.A])
        self._rows = None
        eye = np.eye(self.r, dtype=complex)
        self._prefix, inverse = [eye], [eye]  # P_0 .. P_n and Pbar_0 .. Pbar_n
        for Ai in self.A:
            self._prefix.append(self._prefix[-1] @ Ai)
            inverse.append(np.linalg.inv(Ai) @ inverse[-1])
        self._inverse_rows = np.vstack(inverse[1:])  # [Pbar_1; ...; Pbar_n], n r x r

    def embed(self, i: int, v: np.ndarray) -> np.ndarray:
        """Coefficient vector of G[a_{i+1}, v] (i is 0-based)."""
        v = np.asarray(v, dtype=complex)
        out = np.zeros((self.n * self.r,) + v.shape[1:], dtype=complex)
        out[i * self.r:(i + 1) * self.r] = v
        return out

    def delta_k_vector(self, k: int, v: np.ndarray) -> np.ndarray:
        """Coefficient vector of G[d_k, v] (k is 1-based, v a vector or r x m)."""
        if not 1 <= k <= self.n:
            raise IndexError(f"k={k} out of range")
        rows, Pv = self._inverse_rows, self._prefix[k] @ np.asarray(v, dtype=complex)
        return -np.concatenate([rows[:k * self.r] @ (rows[-self.r:] @ Pv), rows[k * self.r:] @ Pv])

    def braid_factor(self, k: int) -> np.ndarray:
        """X_k: the n r x r columns of block k of U_k - I (1-based k); u_k
        sends a_k to d_k^-1 a_k d_k and fixes every other a_i.  Block i is
        Pbar_i Y_k for i <= k and Pbar_i P_n Y_k for i > k, with
        Y_k = P_k A_k D_k - Pbar_n P_k, and block k gains D_k - I."""
        if not 1 <= k <= self.n:
            raise IndexError(f"k={k} out of range")
        r, P, rows = self.r, self._prefix, self._inverse_rows
        C = rows[-r:] @ P[k]                # Pbar_n P_k
        D = rows[(k - 1) * r:k * r] @ C     # D_k
        Y = P[k] @ self.A[k - 1] @ D - C
        X = np.concatenate([rows[:k * r] @ Y, rows[k * r:] @ (P[-1] @ Y)])
        X[(k - 1) * r:k * r] += D - np.eye(r)
        return X

    def braid_matrix(self, k: int) -> np.ndarray:
        """Natural action U_k = I + X_k S_k^T of the braid generator u_k on
        C_1/dC_2 (1-based k; the basepoint twist by w_k is *not* applied)."""
        U = np.eye(self.n * self.r, dtype=complex)
        U[:, (k - 1) * self.r:k * self.r] += self.braid_factor(k)
        return U

    def row_basis(self) -> np.ndarray:
        """R: orthonormal basis (n r x r) of the boundary's row space, the
        orthogonal complement of ker(boundary): the Q of the thin QR
        boundary^H = R T.  T is r x r with the boundary's singular values,
        and BoundaryNotSurjective is raised when the smallest is at most tol."""
        if self._rows is None:
            R, T = np.linalg.qr(self.boundary.conj().T)
            sv = np.linalg.svd(T, compute_uv=False)
            if sv[self.r - 1] <= self.inst.tol:
                raise BoundaryNotSurjective(
                    f"boundary rank below {self.r}: smallest kept singular value "
                    f"{sv[self.r - 1]:.3e}")
            self._rows = R
        return self._rows

    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis of ker(boundary), the complement of
        ``row_basis()``; raises if the boundary is not numerically surjective."""
        return _complement(self.row_basis())


def _complement(V: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(V), for V
    with orthonormal columns: the trailing columns of a complete QR."""
    return np.linalg.qr(V, mode="complete")[0][:, V.shape[1]:]


def braid_block_closed_form(chi: complex, b_k: complex, r_kj: complex) -> np.ndarray:
    """Closed-form action of u_k on span(G[a_k, v], G[d_k, v]) for an
    eigenvector v of M_k with eigenvalue r_kj (columns are images)."""
    return np.array([
        [chi, chi - chi ** 2],
        [1 - b_k * r_kj, 1 + chi * (b_k * r_kj - 1)],
    ], dtype=complex)


# ---------------------------------------------------------------------------
# Raw and middle convolution representations
# ---------------------------------------------------------------------------

@dataclass
class _BraidAction:
    """The w-twisted action w_k (I + P_k Q_k^H) of every u_k on the
    orthogonal complement of span(V), kept as its factors.

    On an orthonormal basis B of that complement P_k = B^H X_k and
    Q_k^H = B[block k].  Since B B^H = I - V V^H, the r x r product is
    Q_k^H P_k = X_k[block k] - V[block k] (V^H X_k): ``spectrum`` needs V
    alone, and B is built (by a complete QR of V) only on demand.  Each
    braid factor X_k is built from the chain space where it is read, so
    no more than one is held at a time.
    """

    V: np.ndarray               # (n r, c), orthonormal columns: what is cut away
    space: ChainSpace           # X_k = space.braid_factor(k)
    w: np.ndarray               # the basepoint twists

    @property
    def dim(self) -> int:
        return self.V.shape[0] - self.V.shape[1]

    @cached_property
    def basis(self) -> np.ndarray:
        """B: (n r, dim), orthonormal columns spanning the complement of V."""
        return _complement(self.V)

    def _factors(self, k: int):
        r = self.space.r
        return (self.basis.conj().T @ self.space.braid_factor(k + 1),
                self.basis[k * r:(k + 1) * r])

    @property
    def matrices(self) -> list:
        """The dense w_k (I + P_k Q_k^H), built on demand."""
        return [wk * (np.eye(self.dim) + P @ Qh)
                for wk, (P, Qh) in zip(self.w, map(self._factors, range(self.space.n)))]

    def spectrum(self, k: int) -> np.ndarray:
        """Eigenvalues of ``matrices[k]`` from the r x r product Q_k^H P_k,
        or from the m x m matrix when m <= r (0-based k)."""
        m, r = self.dim, self.space.r
        if m <= r:
            P, Qh = self._factors(k)
            return self.w[k] * np.linalg.eigvals(np.eye(m) + P @ Qh)
        X, V = self.space.braid_factor(k + 1), self.V
        QhP = X[k * r:(k + 1) * r] - V[k * r:(k + 1) * r] @ (V.conj().T @ X)
        return self.w[k] * np.concatenate([np.ones(m - r), 1 + np.linalg.eigvals(QhP)])


class RawConvolutionRep(_BraidAction):
    """The action on ker(boundary): V is the boundary's row space R."""


@dataclass
class MiddleConvolutionRep(_BraidAction):
    """The action on the kernel's complement of the middling span: V is
    [R | U], with U an orthonormal basis of the middling span."""

    fixed_dims: list            # dim of the local fixed spaces F_k
    raw: RawConvolutionRep


def raw_convolution_rep(inst: NumericInstance) -> RawConvolutionRep:
    """Action of every u_k on H_1 = ker(boundary), twisted by w_k.

    The kernel has dimension (n-1) r whenever the boundary is
    surjective, and u_k acts (before the twist) with the eigenvalues of
    chi * b_k M_k together with 1 of multiplicity (n-2) r.
    """
    space = ChainSpace(inst)
    return RawConvolutionRep(space.row_basis(), space, inst.w)


def _fixed_space(inst: NumericInstance, k: int) -> np.ndarray:
    """Orthonormal basis of the eigenvalue-1 eigenspace of b_k M_k, an
    (r, 0) array with no work when no |b_k lam - 1| is at most tol; a
    DocumentError at ``$.matrices[k]`` when that eigenvalue is not semisimple."""
    lam, vecs = inst.eigs[k]
    ones = np.abs(inst.b[k] * lam - 1) <= inst.tol
    if not ones.any():
        return np.zeros((inst.r, 0), dtype=complex)
    F, _ = np.linalg.qr(vecs[:, ones])
    if np.linalg.norm((inst.b[k] * inst.M[k] - np.eye(inst.r)) @ F) > 100 * inst.tol:
        raise DocumentError(f"eigenvalue 1 of b_{k} M_{k} is not semisimple",
                            f"$.matrices[{k}]")
    return F


def middle_convolution_rep(inst: NumericInstance) -> MiddleConvolutionRep:
    """Quotient of H_1 by the middling span of local fixed vectors.

    The quotient is realized on the orthogonal complement of the span
    inside ker(boundary); the span is invariant under every u_k, so the
    compressed matrices carry exactly the quotient eigenvalues.  With R
    the boundary's row space, the middling columns Phi lie in the kernel
    when R^H Phi vanishes, and Phi - R (R^H Phi) = K K^H Phi has the
    singular values of K^H Phi for any kernel basis K.  Its thin QR U T
    gives the quotient's V = [R | U], and T's singular values, which are
    its own, the rank test.  Both checks and V come from thin factors of
    width r and sum(fixed_dims), with no n r x n r matrix.
    """
    if abs(inst.chi - 1) <= inst.tol:
        raise ConventionViolationNumeric("chi is numerically 1")
    for k, (lam, _) in enumerate(inst.eigs):
        if np.any(np.abs(inst.chi * inst.b[k] * lam - 1) <= inst.tol):
            raise ConventionViolationNumeric(
                f"chi * b_{k} * eigenvalue is numerically 1 at point {k}")
    raw = raw_convolution_rep(inst)
    R = raw.V
    fixed = [_fixed_space(inst, k) for k in range(inst.n)]
    fixed_dims = [F.shape[1] for F in fixed]
    total = sum(fixed_dims)
    if total == 0:
        return MiddleConvolutionRep(R, raw.space, inst.w, fixed_dims, raw)
    # column block k is G[a_{k+1}, F_k] (ChainSpace.embed of the fixed space)
    phi = np.zeros((inst.n * inst.r, total), dtype=complex)
    col = 0
    for k, F in enumerate(fixed):
        phi[k * inst.r:(k + 1) * inst.r, col:col + F.shape[1]] = F
        col += F.shape[1]
    # the columns must lie in the kernel and stay independent
    off_kernel = R.conj().T @ phi
    residual = np.linalg.norm(off_kernel)
    if residual > 100 * inst.tol:
        raise QuotientRankMismatch(
            f"middling cycles leave the kernel by {residual:.3e}")
    U, T = np.linalg.qr(phi - R @ off_kernel)
    rank = int(np.sum(np.linalg.svd(T, compute_uv=False) > inst.tol))
    if rank != total:
        raise QuotientRankMismatch(
            f"middling span has rank {rank}, expected {total}")
    return MiddleConvolutionRep(np.hstack([R, U]), raw.space, inst.w, fixed_dims, raw)


def predicted_middle_spectra(inst: NumericInstance) -> list[list[complex]]:
    """Per-point middle eigenvalues predicted from the instance data:
    w_k chi b_k lam for eigenvalues lam of M_k with b_k lam != 1, plus
    w_k with multiplicity m_k + defect."""
    d = inst.measured_defect()
    out = []
    for (lam, _), bk, wk in zip(inst.eigs, inst.b, inst.w):
        keep = np.abs(bk * lam - 1) > inst.tol
        out.append(list(wk * inst.chi * bk * lam[keep])
                   + [complex(wk)] * (int(np.sum(~keep)) + d))
    return out


def match_multisets(predicted: Sequence, measured: Sequence[complex]) -> float:
    """Best-matching maximum deviation between two equal-size multisets
    of complex numbers (optimal assignment, not greedy).

    ``predicted`` is grouped, (value, multiplicity) pairs as
    ``row_values`` gives them, and the assignment runs on those counts;
    or it is expanded, each value listed once per copy, and is grouped
    first.  A value may sit in more than one group."""
    if len(predicted) and isinstance(predicted[0], tuple):
        values, counts = zip(*predicted)
        values, counts = np.array(values, dtype=complex), np.array(counts)
    else:
        values, counts = np.unique(np.asarray(predicted, dtype=complex), return_counts=True)
    if counts.sum() != len(measured):
        raise SizeMismatch(
            f"multiset sizes differ: {counts.sum()} vs {len(measured)}")
    if not len(measured):
        return 0.0
    cost = np.abs(values[:, None] - np.asarray(measured, dtype=complex)[None, :])
    row, _ = min_sum_assignment(cost, counts)
    return float(cost[row, np.arange(len(measured))].max())


def min_sum_assignment(cost: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, int]:
    """A min-sum assignment of the columns of ``cost`` to its rows, row i
    taking ``counts[i]`` columns: the row of each column, and the number
    of augmenting paths it took.

    Row i stands for ``counts[i]`` equal rows of a square matrix.  The
    start is Jonker-Volgenant column reduction: each column goes to its
    cheapest row while that row has copies left, with the column minima
    as column potentials.  When every column fits the routine stops
    there: each term is its column's minimum, so every min-sum assignment
    has the same multiset of costs.  Otherwise each copy left over takes
    one shortest augmenting path on the reduced costs of the square
    matrix (the Hungarian step, vectorised over the columns).
    """
    nearest = cost.argmin(axis=0)
    if np.all(np.bincount(nearest, minlength=len(counts)) <= counts):
        return nearest, 0
    n = cost.shape[1]
    u, v = np.zeros(n), cost.min(axis=0)                # v: the column minima
    group = np.repeat(np.arange(len(counts)), counts)   # the square matrix's rows
    cost = cost[group]
    starts = np.cumsum(counts) - counts
    order = np.argsort(nearest, kind="stable")
    taken = np.arange(n) - np.searchsorted(nearest[order], nearest[order])
    fits = taken < counts[nearest[order]]
    row4col, col4row = np.full(n, -1), np.full(n, -1)
    row4col[order[fits]] = starts[nearest[order[fits]]] + taken[fits]
    col4row[row4col[order[fits]]] = order[fits]
    free = np.flatnonzero(col4row < 0)
    for start in free:
        # Dijkstra from ``start`` over the columns, up to the first free one
        dist, path = np.full(n, np.inf), np.full(n, -1)
        seen = np.zeros(n, dtype=bool)
        seen_rows, i, low, j = [], start, 0.0, -1
        while j < 0 or row4col[j] >= 0:
            if j >= 0:
                i = row4col[j]
            seen_rows.append(i)
            reach = low + cost[i] - u[i] - v
            closer = ~seen & (reach < dist)
            path[closer], dist[closer] = i, reach[closer]
            j = int(np.where(seen, np.inf, dist).argmin())
            low = dist[j]
            if not np.isfinite(low):
                raise ValueError("the cost matrix has no finite assignment")
            seen[j] = True
        u[start] += low
        u[seen_rows[1:]] += low - dist[col4row[seen_rows[1:]]]
        v[seen] -= low - dist[seen]
        while True:  # flip the path from the free column back to ``start``
            i = path[j]
            row4col[j], col4row[i], j = i, j, col4row[i]
            if i == start:
                break
    return group[row4col], len(free)


# ---------------------------------------------------------------------------
# Instance generation and end-to-end verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationProblem:
    """A numeric instance together with the symbolic model it realizes.

    ``model`` is (rows, classes, h, v) in ``katz._Rows``: the vector's
    classes, each a {row: multiplicity} dict in ``EigDivisor`` entry
    order, and the twist.  The prediction runs on those rows;
    ``vector`` and ``beta`` decode them into objects for other callers."""

    instance: NumericInstance
    model: tuple
    assignment: dict

    vector = property(lambda self: self.model[0].vector(self.model[1]))
    beta = property(lambda self: self.model[0].convoluter(*self.model[2:]))


def _cluster_angles(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """Cluster sorted angle values within 10*tol; returns (angle, mult)."""
    out: list[list] = []
    for v in sorted(values):
        if out and v - out[-1][0] <= 10 * tol:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    # wrap-around: 0 and 1 are the same angle
    if len(out) > 1 and (out[0][0] + 1) - out[-1][0] <= 10 * tol:
        out[0][1] += out[-1][1]
        out.pop()
    return [(a, m) for a, m in out]


def _haar_unitary(k: int, rng) -> np.ndarray:
    """A Haar-random k x k unitary: QR of a complex Gaussian matrix with
    the phases of R's diagonal moved into Q (Mezzadri's recipe, drawn
    exactly as ``scipy.stats.unitary_group.rvs`` draws it)."""
    z = 1 / math.sqrt(2) * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    Q, R = np.linalg.qr(z)
    d = R.diagonal()
    Q *= (d / abs(d))[np.newaxis, :]
    return Q


def _realize(diagonals: Iterable, r: int, rng) -> tuple[list, list]:
    """Matrices with the given spectra at points 1..n-1, then the last,
    and their eigendata ``(lam, V)`` for ``NumericInstance.eigs``.

    Each diagonal D becomes Q D Q^* for a random unitary Q drawn from
    ``rng`` in order (a 1 x 1 needs none), with eigendata (D, Q); the
    last matrix is the inverse of the product of the others, so the
    product relation holds, and is decomposed by ``np.linalg.eig``.
    """
    matrices, eigs, unit = [], [], True
    for diag in diagonals:
        diag = np.asarray(diag, dtype=complex)
        unit = unit and bool(np.all(np.abs(np.abs(diag) - 1) <= 1e-12))
        Q = np.ones((1, 1)) if len(diag) == 1 else _haar_unitary(len(diag), rng)
        matrices.append((Q * diag) @ Q.conj().T)
        eigs.append((diag, Q))
    prod = np.eye(r, dtype=complex)
    for Mi in matrices:
        prod = prod @ Mi
    # a unitary product is inverted by its adjoint, which keeps the relation exact
    matrices.append(prod.conj().T if unit else np.linalg.inv(prod))
    eigs.append(np.linalg.eig(matrices[-1]))
    return matrices, eigs


def generate_instance(seed: int, r: int, n: int,
                      aim: str = "support",
                      v_policy: str = "same",
                      mults: Sequence[Sequence[int]] | None = None,
                      tol: float = DEFAULT_TOL) -> VerificationProblem:
    """Random unit-modulus instance plus the symbolic model it realizes.

    Points 1..n-1 get prescribed eigenvalue angles (one fresh generator
    e<i>_<j> per class, with multiplicities from ``mults``, default all
    ones) and are realized as random unitary conjugates of diagonal
    matrices; the last matrix is the inverse of the product, its classes
    measured by eigenvalue clustering.  ``aim="support"`` points each b_i
    at the inverse of the point's first class; ``aim="fresh"`` draws free
    twisting angles h<i>.  ``v_policy`` is "same" (w = b) or "fresh"
    (w_i = b_i * fresh, product-corrected), the v of ``_Rows.twist`` on
    fresh generators s1 .. s<n-1>.  The model is built in rows directly.
    """
    rng = np.random.default_rng(seed)
    if mults is None:
        mults = [[1] * r for _ in range(n - 1)]
    if len(mults) != n - 1 or any(sum(p) != r or min(p) < 1 for p in mults):
        raise SizeMismatch("need n-1 multiplicity patterns of parts >= 1 summing to r")

    rows = _Rows(GroupMode.MULTIPLICATIVE, 1)
    generator = lambda name: (0, ((name, 1),))
    assignment: dict[str, float] = {}
    classes: list[dict] = []  # {generator row: multiplicity} per point, in entry order

    def diagonals():
        # consumed one point at a time: each point's angles are drawn
        # just before its conjugating unitary
        for i in range(n - 1):
            names = [f"e{i}_{j}" for j in range(len(mults[i]))]
            thetas = rng.uniform(0.02, 0.98, size=len(names)).tolist()
            assignment.update(zip(names, thetas))
            classes.append(rows.ordered([(generator(x), int(m)) for x, m in zip(names, mults[i])]))
            yield np.concatenate([[np.exp(2j * np.pi * th)] * m for th, m in zip(thetas, mults[i])])

    matrices, eigs = _realize(diagonals(), r, rng)
    angles = np.angle(eigs[-1][0]) / (2 * np.pi) % 1.0
    last = _cluster_angles(angles, tol)
    assignment.update((f"e{n - 1}_{j}", float(theta)) for j, (theta, _) in enumerate(last))
    classes.append(rows.ordered([(generator(f"e{n - 1}_{j}"), m) for j, (_, m) in enumerate(last)]))

    if aim == "support":
        # e{i}_0, the point's first class, has the smallest name
        h = [rows.plus(next(iter(g))) for g in classes]
        b = np.array([np.conj(np.exp(2j * np.pi * assignment[f"e{i}_0"])) for i in range(n)])
    elif aim == "fresh":
        h, b = [], []
        for i in range(n):
            theta = float(rng.uniform(0.02, 0.98))
            assignment[f"h{i}"] = theta
            h.append(generator(f"h{i}"))
            b.append(np.exp(2j * np.pi * theta))
        b = np.array(b)
    else:
        raise ValueError(f"unknown aim {aim!r}")

    # twist's fresh names avoid the generators so far, the assignment's keys
    h, v = rows.twist(classes, v_policy, h, stem="s")
    w = b.copy()
    if v is not h:
        phis = rng.uniform(0.0, 1.0, size=n - 1)
        assignment.update(zip(fresh_names(n - 1, assignment, "s"), phis.tolist()))
        w = b * np.exp(2j * np.pi * np.concatenate([phis, [-phis.sum()]]))

    chi = 1 / np.prod(b)
    inst = NumericInstance(M=matrices, b=b, w=w, chi=chi, tol=tol, eigs=eigs)
    return VerificationProblem(inst, (rows, classes, h, v), assignment)


def symbolic_instance(model: tuple, assignment: dict, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> VerificationProblem:
    """Numeric instance of a multiplicative model under ``assignment``.

    ``model`` is (rows, classes, h, v), a ``ProblemDocument.row_form``.  Each
    row is valued once, exp(2 pi i w) of ``scalars._evaluate``'s w, and
    checked: DocumentError at ``$.assignment`` for a missing generator, a w
    not finite or with |Im w| > ``MAX_IMAG``, or matrices that miss their
    relations.  The first n-1 classes are realized as in ``generate_instance``
    and the last matrix closes the product; the model's own last class then
    enters the prediction, which fails if the matrices do not carry it.
    """
    rows, classes, h, v = model
    check_raw_dim(len(classes), sum(classes[0].values()), "$.classes")
    elems = [*h, *v, *(a for g in classes for a in g), rows.t(h)]
    missing = {x for _, terms in elems for x, _ in terms} - assignment.keys()
    if missing:
        raise DocumentError(f"no value assigned to {shown(sorted(missing))}", "$.assignment")

    def valued(c: int, terms: tuple) -> complex:
        try:
            w = _evaluate(rows.den, c, terms, assignment)
        except OverflowError:  # a coefficient past the float range
            w = complex("nan")
        if not (cmath.isfinite(w) and abs(w.imag) <= MAX_IMAG):
            raise DocumentError(f"a value exp(2 pi i w) in {shown(tuple(x for x, _ in terms))} "
                                f"needs a finite w with |Im w| <= {MAX_IMAG}", "$.assignment")
        return cmath.exp(2j * cmath.pi * w)

    value = {row: valued(*row) for row in dict.fromkeys(elems)}.__getitem__
    diagonals = [[z for a, m in g.items() for z in [value(a)] * m] for g in classes[:-1]]
    try:
        matrices, eigs = _realize(diagonals, sum(classes[0].values()), np.random.default_rng(seed))
        inst = NumericInstance(M=matrices, b=[*map(value, h)], w=[*map(value, v)],
                               chi=value(rows.t(h)), tol=tol, eigs=eigs)
    except ValueError:  # moduli off 1 compound over the points
        raise DocumentError("the realized matrices miss their defining relations",
                            "$.assignment") from None
    return VerificationProblem(inst, model, assignment)


@dataclass
class VerifyReport:
    """Outcome of a full numeric-vs-symbolic comparison."""

    n: int
    r: int
    raw_dim: int
    middle_dim: int
    expected_raw_dim: int
    expected_middle_dim: int
    max_deviation: float
    det_product_error: float
    per_point_deviation: list
    ok: bool

    def to_json(self) -> dict:
        return {
            "points": self.n,
            "rank": self.r,
            "raw_dim": self.raw_dim,
            "expected_raw_dim": self.expected_raw_dim,
            "middle_dim": self.middle_dim,
            "expected_middle_dim": self.expected_middle_dim,
            "max_deviation": self.max_deviation,
            "det_product_error": self.det_product_error,
            "per_point_deviation": self.per_point_deviation,
            "ok": self.ok,
        }


def verify_instance(problem: VerificationProblem | NumericInstance,
                    deviation_tol: float = 1e-8) -> VerifyReport:
    """Compare the measured middle-convolution data with the prediction.

    With a full VerificationProblem the prediction comes from the
    symbolic transform through the assignment, grouped as
    ``row_values`` gives it on the model's rows (raising, as ``row_step``
    does, when the transform has no such spectra); with a bare instance it
    comes from the instance's own eigenvalue data, listed with repetition.
    A middle quotient whose dimension differs from the prediction is not ok
    and has no deviations to report.  ``det_product_error``, |prod - 1| over the
    measured eigenvalues, comes from their logarithms if the product overflows.
    """
    if isinstance(problem, NumericInstance):
        inst = problem
        predicted = predicted_middle_spectra(inst)
        expected_middle = len(predicted[0])  # r + d of the prediction
    else:
        inst = problem.instance
        predicted = row_values(*problem.model, problem.assignment)
        expected_middle = sum(m for _, m in predicted[0])
    middle = middle_convolution_rep(inst)
    n, r = inst.n, inst.r
    deviations, det_prod, log_det = [], 1.0 + 0j, 0j
    for k in range(n):
        measured = middle.spectrum(k)
        with np.errstate(all="ignore"):  # an overflow is read from the logarithms below
            det_prod *= np.prod(measured)
            log_det += np.log(measured).sum()
        if middle.dim == expected_middle:
            deviations.append(match_multisets(predicted[k], measured))
    max_dev = max(deviations) if deviations else None
    # a product that left the float range is read from the logarithms (e^709 ~ the largest float)
    det_err = (abs(det_prod - 1) if 0 < abs(det_prod) < math.inf
               else abs(cmath.exp(complex(min(709, log_det.real), log_det.imag)) - 1))
    ok = (middle.raw.dim == (n - 1) * r
          and middle.dim == expected_middle
          and max_dev <= deviation_tol)
    return VerifyReport(
        n=n, r=r,
        raw_dim=middle.raw.dim,
        middle_dim=middle.dim,
        expected_raw_dim=(n - 1) * r,
        expected_middle_dim=expected_middle,
        max_deviation=max_dev,
        det_product_error=det_err,
        per_point_deviation=deviations,
        ok=ok,
    )
