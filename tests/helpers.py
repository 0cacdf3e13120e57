"""Shared builders and oracles for randomized symbolic test suites."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from midconv import (ConventionReport, Convoluter, EigDivisor, EmptinessCertificate,
                     GroupElement, GroupMode, MonodromyVector, NoneffectiveReport, defect,
                     dimension_report)
from midconv.docio import parse_document
from midconv.errors import (BoundaryNotSurjective, ConventionViolationNumeric,
                            MaxStepsExceeded, ModeMismatch, QuotientRankMismatch)
from midconv.higgs import derive_k
from midconv.homology import ChainSpace, _fixed_space
from midconv.katz import fresh_names


def decoded(doc, beta_v=None):
    """The eigenvalue vector of a symbolic document, decoded from its read."""
    parsed = parse_document(doc, beta_v)
    return parsed.rows.vector(parsed.classes)


def random_partition(rng, r, max_part=None):
    cap = max_part or r
    parts = []
    left = r
    while left > 0:
        p = int(rng.integers(1, min(cap, left) + 1))
        parts.append(p)
        left -= p
    return sorted(parts, reverse=True)


def random_vector(rng, mode, r, n, tag, max_part=None):
    divisors = []
    for i in range(n):
        patt = random_partition(rng, r, max_part)
        entries = [(GroupElement.generator(f"{tag}e{i}_{j}", mode), m)
                   for j, m in enumerate(patt)]
        divisors.append(EigDivisor(mode, entries))
    return MonodromyVector(divisors)


def random_beta(rng, vector, aim, v_policy, tag):
    """aim: 'fresh' (independent twist), 'maxmult' (rank-reducing), or
    'support' (inverse of a random support element)."""
    if aim == "fresh":
        h = [GroupElement.generator(f"{tag}h{i}", vector.mode)
             for i in range(vector.n)]
    elif aim == "maxmult":
        h = [g.max_multiplicity()[0].invert() for g in vector]
    elif aim == "support":
        h = [g.support()[int(rng.integers(0, len(g.support())))].invert()
             for g in vector]
    else:
        raise ValueError(aim)
    if v_policy == "same":
        return Convoluter(h)
    return Convoluter.with_fresh_v(h, [f"{tag}s{i}" for i in range(vector.n - 1)])


def tits_vector(r, pmv):
    """A PMV as a dimension vector alpha on the star quiver: the centre r,
    and arm i reading r - m_i1, r - m_i1 - m_i2, ... with the parts in
    descending order and the trailing 0 dropped (a scalar point has an
    empty arm).  Returns (centre, arms)."""
    arms = []
    for parts in pmv:
        left, arm = r, []
        for m in sorted(parts, reverse=True)[:-1]:
            left -= m
            arm.append(left)
        arms.append(arm)
    return r, arms


def tits_form(r, pmv):
    """q(alpha) = sum of alpha_v^2 minus sum over the edges of alpha_s alpha_t."""
    centre, arms = tits_vector(r, pmv)
    q = centre * centre
    for arm in arms:
        chain = [centre, *arm]
        q += sum(a * a for a in arm) - sum(a * b for a, b in zip(chain, chain[1:]))
    return q


def centre_reflection_ranks(r, pmv):
    """The ranks met by reflecting alpha at the centre while that lowers it:
    r -> r + d while d < 0 and every m_i1 + d >= 0, where the largest part
    of each point becomes m_i1 + d (a zero part is dropped) and the parts
    are re-sorted.  The oracle for ``run_algorithm(v).ranks``."""
    ranks = [r]
    pmv = [sorted(p, reverse=True) for p in pmv]
    while True:
        d = (len(pmv) - 2) * r - sum(p[0] for p in pmv)
        if d >= 0 or any(p[0] + d < 0 for p in pmv):
            return ranks
        pmv = [sorted([m for m in (p[0] + d, *p[1:]) if m], reverse=True) for p in pmv]
        r += d
        ranks.append(r)


def naive_kappa_local(beta, vector, i):
    """Literal transcription of the local transform formula, kept
    independent of the library code path: returns the coefficient list
    [(element, coefficient)] without canonicalization."""
    n, r = vector.n, vector.rank
    d = (n - 2) * r - sum(g.multiplicity(h.invert())
                          for g, h in zip(vector, beta.h))
    g = vector[i]
    u = beta.t.combine(beta.h[i]).combine(beta.v[i])
    out = [(beta.v[i], g.multiplicity(beta.h[i].invert()) + d)]
    for a, m in g.entries:
        if not a.combine(beta.h[i]).is_identity():
            out.append((a.combine(u), m))
    return out


def reference_kappa(beta, vector, check=True):
    """The transform on ``GroupElement`` objects, taken literally from the
    definitions and sharing no code with the library's formula: (defect,
    answer), the answer a failing ConventionReport (abstract flavor, with
    ``check``), a NoneffectiveReport or the output vector from
    ``naive_kappa_local`` (entries that meet merged, as they can only past a
    failing convention).  The oracle for ``katz.row_step`` and ``katz.kappa``."""
    n, r = vector.n, vector.rank
    mults = [g.multiplicity(hi.invert()) for g, hi in zip(vector, beta.h)]
    d = (n - 2) * r - sum(mults)
    witnesses = tuple((i, a) for i, (g, hi) in enumerate(zip(vector, beta.h))
                      for a in g.support() if beta.t.combine(hi).combine(a).is_identity())
    if check and (beta.t.is_identity() or witnesses):
        return d, ConventionReport(chi_nontrivial=not beta.t.is_identity(),
                                   chirhobeta_ok=not witnesses, chirhobeta_detail=witnesses)
    points = []
    for i in range(n):
        if mults[i] + d < 0:
            lhs = sum(r - mults[j] for j in range(n) if j != i)
            assert lhs < r
            points.append((i, mults[i] + d, lhs, r))
    if points:
        return d, NoneffectiveReport(tuple(points))
    out = MonodromyVector([EigDivisor(vector.mode, naive_kappa_local(beta, vector, i))
                           for i in range(n)])
    assert out.rank == r + d
    return d, out


def reference_de_rham(beta, vector):
    """The de Rham conventions on ``GroupElement`` objects (additive mode):
    whether t is not an integer, and the (point, eigenvalue) pairs with
    a + h_i + t an integer or a + h_i a nonzero integer.  The oracle for
    the de Rham fields of ``check_conventions(..., de_rham=True)``."""
    bad = []
    for i, (g, hi) in enumerate(zip(vector, beta.h)):
        for a in g.support():
            shifted = a.combine(hi)
            if shifted.combine(beta.t).is_integer() or (
                    shifted.is_integer() and not shifted.is_identity()):
                bad.append((i, a))
    return not beta.t.is_integer(), tuple(bad)


def reference_kappa_spectra(problem):
    """The symbolic prediction through the transformed vector: ``reference_kappa``
    of the problem's twist and vector, each output eigenvalue valued at
    the assignment and listed with its multiplicity.  A NoneffectiveReport
    is returned and a ConventionViolation raised, as by ``kappa``."""
    result = reference_kappa(problem.beta, problem.vector)[1]
    if isinstance(result, ConventionReport):
        raise result.first_violation()
    if not isinstance(result, MonodromyVector):
        return result
    return [[a.to_complex(problem.assignment) for a, m in g.entries for _ in range(m)]
            for g in result]


def reference_convoluter(vector, v_policy="same", stem="_s"):
    """The default convoluter on ``GroupElement`` objects: h_i the inverse of
    ``EigDivisor.max_multiplicity`` of g_i, and v = h or, under fresh v,
    ``Convoluter.with_fresh_v`` with ``fresh_names`` over the vector's
    generators.  The oracle for ``katz.max_mult_convoluter``'s rows."""
    h = [g.max_multiplicity()[0].invert() for g in vector]
    if v_policy == "same":
        return Convoluter(h)
    taken = {x for g in vector for a in g.support() for x in a.expr.generators()}
    return Convoluter.with_fresh_v(h, fresh_names(vector.n - 1, taken, stem))


def reference_run(vector, max_steps=None, v_policy="same"):
    """The reduction loop on ``GroupElement`` objects, returning the answer
    ``AlgorithmTrace.to_json`` gives: the oracle for ``run_algorithm``'s
    integer rows.  It shares no code with the library's transform formula:
    each step is ``reference_kappa``."""
    if vector.mode is GroupMode.CIRCLE:
        raise ModeMismatch("the reduction loop runs in multiplicative or additive mode")
    if max_steps is None:
        max_steps = vector.rank
    steps, inputs, current = [], [], vector

    def answer(status, **extra):
        return {"status": status, "ranks": [v.rank for v in (*inputs, current)],
                "steps": steps, "final": current.to_json(), **extra}

    for step in range(max_steps + 1):
        if all(len(g.entries) == 1 for g in current):
            return answer("AllDiagonal")
        beta = reference_convoluter(current, v_policy, f"_s{step}_")
        d, out = reference_kappa(beta, current)
        if d >= 0:
            return answer("PositiveDefect")
        if isinstance(out, ConventionReport):
            return answer("ConventionFailure", convention_report=out.to_json())
        if isinstance(out, NoneffectiveReport):
            i, coefficient, lhs, r = out.points[0]
            return answer("EmptyNoneffective",
                          certificate=EmptinessCertificate(i, lhs, r, coefficient).to_json())
        inputs.append(current)
        steps.append({"input": current.to_json(), "convoluter": beta.to_json(),
                      "defect": d, "output": out.to_json()})
        current = out
    raise MaxStepsExceeded(f"no terminal state after {max_steps} steps")


def fox_expand(space, word, v):
    """Expansion of G[word, v] over the basis symbols, letter by letter: the
    oracle for ``ChainSpace``'s closed forms.  Letter i > 0 is a_i and -i is
    a_i^{-1}; the rightmost letter acts first, and G[xy, v] = G[y, v] +
    G[x, y(v)] and G[x^{-1}, v] = -G[x, x^{-1}(v)] with the twisted actions
    A_i = b_i M_i.  ``v`` may be a vector or an (r, m) block; the result
    has a leading axis of size n r."""
    inverses = [np.linalg.inv(Ai) for Ai in space.A]
    v = np.asarray(v, dtype=complex)
    cur = v.reshape(space.r, -1).copy()
    out = np.zeros((space.n * space.r, cur.shape[1]), dtype=complex)
    for letter in reversed(list(word)):
        i = abs(letter) - 1
        if not 0 <= i < space.n:
            raise IndexError(f"letter {letter} out of range for n={space.n}")
        block = slice(i * space.r, (i + 1) * space.r)
        if letter > 0:
            out[block] += cur
            cur = space.A[i] @ cur
        else:
            cur = inverses[i] @ cur
            out[block] -= cur
    return out[:, 0] if v.ndim == 1 else out


def delta_k_word(n, k):
    """d_k = (a_{k+1} ... a_n) d (a_{k+1} ... a_n)^{-1}, with d = (a_1 ... a_n)^{-1}."""
    suffix = list(range(k + 1, n + 1))
    return suffix + [-i for i in range(n, 0, -1)] + [-i for i in reversed(suffix)]


def reference_braid_factor(space, k):
    """X_k from the word d_k^{-1} a_k d_k, the image of a_k under u_k,
    expanded by ``fox_expand`` (1-based k)."""
    dk = delta_k_word(space.n, k)
    X = fox_expand(space, [-x for x in reversed(dk)] + [k] + dk, np.eye(space.r))
    X[(k - 1) * space.r:k * space.r] -= np.eye(space.r)
    return X


def reference_middle(inst):
    """The middle quotient from full SVDs: an n r x n r kernel basis K from
    the boundary's full SVD, and the quotient basis B = K C with C the
    trailing left singular vectors of K^H Phi.  Returns ``(dim, fixed_dims,
    spectra)``, each point's spectrum the eigenvalues of w_k (I + P Q^H)
    with P = B^H X_k and Q^H = B[block k], taken from Q^H P when m > r: the
    oracle for ``middle_convolution_rep``'s thin factors."""
    if abs(inst.chi - 1) <= inst.tol:
        raise ConventionViolationNumeric("chi is numerically 1")
    for k, (lam, _) in enumerate(inst.eigs):
        if np.any(np.abs(inst.chi * inst.b[k] * lam - 1) <= inst.tol):
            raise ConventionViolationNumeric(f"chi * b_{k} * eigenvalue is 1 at point {k}")
    n, r = inst.n, inst.r
    space = ChainSpace(inst)
    _, sv, vh = np.linalg.svd(space.boundary, full_matrices=True)
    if sv[r - 1] <= inst.tol:
        raise BoundaryNotSurjective("boundary rank below r")
    K = vh[r:].conj().T
    fixed = [_fixed_space(inst, k) for k in range(n)]
    fixed_dims = [F.shape[1] for F in fixed]
    B = K
    if sum(fixed_dims):
        phi_ambient = np.hstack([space.embed(k, F) for k, F in enumerate(fixed)])
        phi = K.conj().T @ phi_ambient
        if np.linalg.norm(phi_ambient - K @ phi) > 100 * inst.tol:
            raise QuotientRankMismatch("middling cycles leave the kernel")
        U_phi, sv, _ = np.linalg.svd(phi, full_matrices=True)
        rank = int(np.sum(sv > inst.tol))
        if rank != sum(fixed_dims):
            raise QuotientRankMismatch("middling span has the wrong rank")
        B = K @ U_phi[:, rank:]
    m, spectra = B.shape[1], []
    for k in range(n):
        X = space.braid_factor(k + 1)
        P, Qh = B.conj().T @ X, B[k * r:(k + 1) * r]
        if m <= r:
            spectra.append(inst.w[k] * np.linalg.eigvals(np.eye(m) + P @ Qh))
        else:
            spectra.append(inst.w[k] * np.concatenate([np.ones(m - r),
                                                       1 + np.linalg.eigvals(Qh @ P)]))
    return m, fixed_dims, spectra


def _descents(seq):
    """1-based cyclic descent positions of a sequence of ``Fraction`` weights."""
    r = len(seq)
    return [t + 1 for t in range(r) if seq[t] >= seq[(t + 1) % r]]


def _taus(seqs):
    tau = [0] * len(seqs[0])
    for seq in seqs:
        for t in _descents(seq):
            tau[t - 1] += 1
    return tau


def _layers(weights, nu, alpha=None, runs=()):
    """Run j (1..nu) holds, in increasing order, the weights of multiplicity
    >= j other than ``alpha``, and ``alpha`` when j is in ``runs``."""
    return [a for j in range(1, nu + 1)
            for a in sorted([b for b, m in weights if b != alpha and m >= j]
                            + [alpha] * (j in runs))]


def _shifted(weights, shift):
    """The good arrangement whose descent sum is the greedy one's minus ``shift``."""
    nu = max(m for _, m in weights)
    alpha, m = min((a, m) for a, m in weights if m < nu)
    rotate, moves = divmod(shift % sum(m for _, m in weights), nu)
    runs = list(range(1, m + 1))
    for i in reversed(range(m)):
        step = min(moves, nu - m)
        runs[i] += step
        moves -= step
    seq = _layers(weights, nu, alpha, runs)
    return seq[rotate:] + seq[:rotate]


def reference_higgs(vector):
    """The Higgs construction on ``Fraction`` weights, descent by descent
    and with the degree as a plain ``Fraction`` sum: the oracle for the
    integer numerators of ``higgs``.  Returns the ``DegreeNotIntegral``
    message, or the ``construct(vector).to_json()`` and the
    ``verify(...).checks`` it expects (the vector must be constructible
    otherwise)."""
    weights = [[(e.expr.const, m) for e, m in g.entries] for g in vector]
    total = sum((a * m for w in weights for a, m in w), Fraction(0))
    if total.denominator != 1:
        return f"total weight {total} is not an integer; no degree-zero bundle exists"
    n, r = vector.n, vector.rank
    report = dimension_report(vector.pmv())
    assert report.defect > 0 or report.superdefect > 0

    def degree(seqs, z, k1=0):
        tau = _taus(seqs)
        k = derive_k(tau, z, k1, n)
        return sum(k) + sum(sum(seq) for seq in seqs), k, tau

    seqs = [_layers(w, max(m for _, m in w)) for w in weights]
    z = [0] * r
    z[r - 1] = report.defect
    shift = int(-degree(seqs, z)[0]) % r
    if shift and report.defect:
        z[r - 1] -= 1
        z[r - 1 - shift] += 1
    elif shift:
        i = next(i for i, s in enumerate(report.superdefects) if s)
        seqs[i] = _shifted(weights[i], shift)
    deg, k, tau = degree(seqs, z, -int(degree(seqs, z)[0]) // r)
    assert deg == 0
    data = {"arrangements": [[str(a) for a in seq] for seq in seqs], "k": k, "z": z,
            "tau": tau}
    return data, _checks(vector, seqs, k, z, tau)


def reference_checks(data, vector):
    """``higgs.verify(data, vector).checks`` from the ``Fraction`` weights."""
    return _checks(vector, [arr.seq for arr in data.arrangements], list(data.k),
                   list(data.z), list(data.tau))


def _checks(vector, seqs, k, z, tau):
    n, r = len(seqs), len(seqs[0])
    tau_re = _taus(seqs)
    z_re = [k[(j + 1) % r] - (tau_re[j] + k[j] + 2 - n) for j in range(r)]
    bounds = [k[(j + 1) % r] - k[j] + n - 2 for j in range(r)]
    return {
        "point_count": n == vector.n and r == vector.rank,
        "weights_match": all(Counter(seq) == Counter({e.expr.const: m for e, m in g.entries})
                             for seq, g in zip(seqs, vector)),
        "arrangements_good": all(len(_descents(seq)) == max(Counter(seq).values())
                                 for seq in seqs),
        "tau_matches": tau_re == tau,
        "z_matches": z_re == z,
        "theta_maps_exist": all(x >= 0 for x in z_re),
        "z_sums_to_defect": sum(z_re) == defect(vector),
        "degree_zero": sum(k) + sum(sum(seq) for seq in seqs) == 0,
        "map_bounds": all(tau_re[j] <= bounds[j] and (tau_re[j] == bounds[j]) == (z_re[j] == 0)
                          for j in range(r)),
    }
