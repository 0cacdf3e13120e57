"""Numeric verification of the transform via chain-level matrices."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from helpers import (delta_k_word, fox_expand, random_partition, reference_braid_factor,
                     reference_middle)
from midconv import homology
from midconv.errors import (BoundaryNotSurjective, ConventionViolationNumeric, MidconvError,
                            QuotientRankMismatch)
from midconv.homology import (ChainSpace, NumericInstance, generate_instance,
                              braid_block_closed_form, match_multisets,
                              middle_convolution_rep, min_sum_assignment,
                              predicted_middle_spectra, raw_convolution_rep,
                              symbolic_instance, verify_instance)

RNG = np.random.default_rng(2024)


def small_instance(seed=0, r=2, n=3, **kw):
    return generate_instance(seed=seed, r=r, n=n, **kw).instance


def word_action(space, word):
    """The r x r matrix by which a word acts on coefficients (rightmost
    letter first), from the twisted actions A_i = b_i M_i."""
    out = np.eye(space.r, dtype=complex)
    for letter in reversed(word):
        i = abs(letter) - 1
        out = (space.A[i] if letter > 0 else np.linalg.inv(space.A[i])) @ out
    return out


class TestExpandWord:
    """``fox_expand``, the letter-by-letter oracle of ``ChainSpace``'s closed forms."""

    def test_single_letter_is_block_embedding(self):
        inst = small_instance()
        space = ChainSpace(inst)
        v = np.array([1.0, -2.0])
        for k in range(inst.n):
            out = fox_expand(space, [k + 1], v)
            assert np.allclose(out, space.embed(k, v))

    def test_inverse_cancellation(self):
        inst = small_instance(seed=1)
        space = ChainSpace(inst)
        v = RNG.normal(size=inst.r) + 1j * RNG.normal(size=inst.r)
        out = fox_expand(space, [1, -1], v)
        assert np.allclose(out, 0)
        out = fox_expand(space, [-2, 2], v)
        assert np.allclose(out, 0)

    def test_boundary_of_diagonal_word(self):
        # the boundary of G[d, v] must be (chi - 1) v
        inst = small_instance(seed=2, r=3, n=4)
        space = ChainSpace(inst)
        word = [-i for i in range(inst.n, 0, -1)]
        v = RNG.normal(size=inst.r) + 1j * RNG.normal(size=inst.r)
        assert np.allclose(space.boundary @ fox_expand(space, word, v),
                           (inst.chi - 1) * v)

    def test_boundary_consistency_on_random_words(self):
        inst = small_instance(seed=3, r=2, n=4)
        space = ChainSpace(inst)
        for _ in range(20):
            m = int(RNG.integers(1, 9))
            word = [int(x) * int(s) for x, s in
                    zip(RNG.integers(1, inst.n + 1, size=m),
                        RNG.choice([-1, 1], size=m))]
            v = RNG.normal(size=inst.r) + 1j * RNG.normal(size=inst.r)
            lhs = space.boundary @ fox_expand(space, word, v)
            rhs = (word_action(space, word) - np.eye(inst.r)) @ v
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestBraidAction:
    def test_other_blocks_are_identity_columns(self):
        inst = small_instance(seed=4, r=2, n=4)
        space = ChainSpace(inst)
        nr = inst.n * inst.r
        for k in range(1, inst.n + 1):
            U = space.braid_matrix(k)
            for i in range(inst.n):
                if i == k - 1:
                    continue
                block = slice(i * inst.r, (i + 1) * inst.r)
                expected = np.zeros((nr, inst.r))
                expected[block] = np.eye(inst.r)
                assert np.allclose(U[:, block], expected)

    @pytest.mark.parametrize("seed,r,n", [(5, 2, 3), (6, 3, 3), (7, 2, 4)])
    def test_two_by_two_closed_form(self, seed, r, n):
        inst = small_instance(seed=seed, r=r, n=n)
        space = ChainSpace(inst)
        for k in range(1, n + 1):
            lam, vecs = np.linalg.eig(inst.M[k - 1])
            U = space.braid_matrix(k)
            for j in range(r):
                vj = vecs[:, j]
                S = np.column_stack([space.embed(k - 1, vj),
                                     space.delta_k_vector(k, vj)])
                A2 = braid_block_closed_form(inst.chi, inst.b[k - 1], lam[j])
                assert np.linalg.norm(U @ S - S @ A2) < 1e-9
                eig = sorted(np.linalg.eigvals(A2), key=lambda z: abs(z - 1))
                assert abs(eig[0] - 1) < 1e-9
                assert abs(eig[1] - inst.chi * inst.b[k - 1] * lam[j]) < 1e-9

    def test_block_determinant_and_trace(self):
        inst = small_instance(seed=8)
        for k in range(1, inst.n + 1):
            lam = np.linalg.eigvals(inst.M[k - 1])
            for r_kj in lam:
                A2 = braid_block_closed_form(inst.chi, inst.b[k - 1], r_kj)
                prod = inst.chi * inst.b[k - 1] * r_kj
                assert np.linalg.det(A2) == pytest.approx(prod)
                assert np.trace(A2) == pytest.approx(1 + prod)


    @pytest.mark.parametrize("kind", ["generated", "non-unitary", "perturbed"])
    def test_closed_forms_match_fox_oracle(self, kind):
        """``braid_factor`` and ``delta_k_vector`` against the letter-by-letter
        expansion at every k, r 1-5 and n 3-8.  A perturbed instance moves M_0
        by 4e-8, inside the relation bound, so that P_n = chi^-1 I holds only
        to that bound: a closed form that substitutes it misses by about 3e-8."""
        rng = np.random.default_rng({"generated": 1, "non-unitary": 2, "perturbed": 3}[kind])
        gauss = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rel = lambda got, want: np.linalg.norm(got - want) / np.linalg.norm(want)
        for seed in range(20):
            r, n = 1 + seed % 5, 3 + seed % 6
            inst = small_instance(seed=seed, r=r, n=n, aim="fresh")
            if kind == "non-unitary":
                M = [np.eye(r) + 0.2 * gauss(r, r) for _ in range(n - 1)]
                M.append(np.linalg.inv(np.linalg.multi_dot(M)))
                b = rng.uniform(0.5, 2, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
                inst = NumericInstance(M=M, b=b, w=b, chi=1 / np.prod(b))
            elif kind == "perturbed":
                E = gauss(r, r)
                M = [inst.M[0] + 4e-8 * E / np.linalg.norm(E), *inst.M[1:]]
                inst = NumericInstance(M=M, b=inst.b, w=inst.w, chi=inst.chi)
            space = ChainSpace(inst)
            for k in range(1, n + 1):
                assert rel(space.braid_factor(k), reference_braid_factor(space, k)) <= 1e-9
                v = gauss(r, 2)
                assert rel(space.delta_k_vector(k, v),
                           fox_expand(space, delta_k_word(n, k), v)) <= 1e-9
                assert rel(space.delta_k_vector(k, v[:, 0]),
                           fox_expand(space, delta_k_word(n, k), v[:, 0])) <= 1e-9

    def test_out_of_range_point(self):
        space = ChainSpace(small_instance())
        for k in (0, space.n + 1, -1):
            with pytest.raises(IndexError):
                space.braid_factor(k)
            with pytest.raises(IndexError):
                space.delta_k_vector(k, np.ones(space.r))


class TestRawConvolution:
    def test_dimension_and_eigenvalues(self):
        # rank one needs a free twist: aiming at the only eigenvalue of
        # every point forces chi = 1 and kills the boundary map
        for seed, r, n, aim in [(9, 1, 3, "fresh"), (10, 2, 3, "support"),
                                (11, 3, 4, "support")]:
            inst = small_instance(seed=seed, r=r, n=n, aim=aim)
            raw = raw_convolution_rep(inst)
            assert raw.dim == (n - 1) * r
            for k in range(n):
                lam = np.linalg.eigvals(inst.M[k])
                pred = (list(inst.w[k] * inst.chi * inst.b[k] * lam)
                        + [complex(inst.w[k])] * ((n - 2) * r))
                meas = list(np.linalg.eigvals(raw.matrices[k]))
                assert match_multisets(pred, meas) < 1e-9

    def test_scalar_case_dimension_two(self):
        inst = small_instance(seed=12, r=1, n=3, aim="fresh")
        raw = raw_convolution_rep(inst)
        assert raw.dim == 2
        # direct 2x2 computation: the braid matrix on the chain space is
        # 3x3 with an invariant kernel plane whose eigenvalues follow the
        # closed form
        space = ChainSpace(inst)
        K = space.kernel_basis()
        for k in range(1, 4):
            block = inst.w[k - 1] * (K.conj().T @ space.braid_matrix(k) @ K)
            pred = [inst.w[k - 1] * inst.chi * inst.b[k - 1] * inst.M[k - 1][0, 0],
                    complex(inst.w[k - 1])]
            assert match_multisets(pred, list(np.linalg.eigvals(block))) < 1e-9

    def test_similarity_invariance(self):
        inst = small_instance(seed=13, r=2, n=3)
        C = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        conj = NumericInstance(M=[C @ M @ np.linalg.inv(C) for M in inst.M],
                               b=inst.b, w=inst.w, chi=inst.chi, tol=1e-8)
        raw1 = raw_convolution_rep(inst)
        raw2 = raw_convolution_rep(conj)
        for k in range(inst.n):
            assert match_multisets(list(np.linalg.eigvals(raw1.matrices[k])),
                                   list(np.linalg.eigvals(raw2.matrices[k]))) < 1e-7

    def test_boundary_not_surjective_detected(self):
        # identity matrices with trivial twists kill surjectivity
        ey = np.eye(2)
        with pytest.raises(BoundaryNotSurjective):
            inst = NumericInstance(M=[ey, ey, ey], b=[1, 1, 1], w=[1, 1, 1],
                                   chi=1.0)
            raw_convolution_rep(inst)


class TestMiddleConvolution:
    def test_no_fixed_spaces_means_middle_equals_raw(self):
        inst = small_instance(seed=14, r=2, n=3, aim="fresh")
        assert inst.measured_defect() == (inst.n - 2) * inst.r
        mid = middle_convolution_rep(inst)
        assert mid.fixed_dims == [0] * inst.n
        assert mid.dim == mid.raw.dim

    @pytest.mark.parametrize("seed,r,n,aim,vp", [
        (15, 2, 3, "support", "same"),
        (16, 3, 3, "support", "fresh"),
        (17, 3, 4, "support", "same"),
        (18, 2, 4, "fresh", "same"),
    ])
    def test_dimension_and_spectra_match_prediction(self, seed, r, n, aim, vp):
        problem = generate_instance(seed=seed, r=r, n=n, aim=aim, v_policy=vp)
        inst = problem.instance
        mid = middle_convolution_rep(inst)
        assert mid.dim == r + inst.measured_defect()
        spectra = predicted_middle_spectra(inst)
        for k in range(n):
            pred = spectra[k]
            meas = list(np.linalg.eigvals(mid.matrices[k]))
            assert match_multisets(pred, meas) < 1e-9

    def test_repeated_eigenvalue_blocks(self):
        problem = generate_instance(seed=19, r=3, n=3,
                                    mults=[[2, 1], [1, 1, 1]])
        inst = problem.instance
        assert inst.fixed_multiplicity(0) == 2
        mid = middle_convolution_rep(inst)
        assert mid.dim == 3 + inst.measured_defect()
        report = verify_instance(problem)
        assert report.ok and report.max_deviation < 1e-9

    def test_middle_matrices_semisimple(self):
        problem = generate_instance(seed=20, r=3, n=4)
        mid = middle_convolution_rep(problem.instance)
        for T in mid.matrices:
            lam, vecs = np.linalg.eig(T)
            assert np.linalg.cond(vecs) < 1e6

    def test_fixed_column_off_the_kernel(self, monkeypatch):
        # G[a_1, e_1] is a cycle only when e_1 is fixed by b_1 M_1, which
        # a random unitary conjugate does not do
        fixed_space = homology._fixed_space
        monkeypatch.setattr(homology, "_fixed_space", lambda inst, k: (
            np.eye(inst.r, 1, dtype=complex) if k == 0 else fixed_space(inst, k)))
        inst = small_instance(seed=15)
        with pytest.raises(QuotientRankMismatch, match="leave the kernel"):
            middle_convolution_rep(inst)

    def test_duplicated_fixed_column(self, monkeypatch):
        fixed_space = homology._fixed_space
        monkeypatch.setattr(homology, "_fixed_space",
                            lambda inst, k: np.hstack([fixed_space(inst, k)] * 2))
        inst = small_instance(seed=15)
        assert sum(map(inst.fixed_multiplicity, range(inst.n))) > 0
        with pytest.raises(QuotientRankMismatch, match="middling span has rank"):
            middle_convolution_rep(inst)

    def test_convention_violation_detected(self):
        inst = small_instance(seed=21)
        bad = NumericInstance(M=inst.M, b=inst.b, w=inst.w, chi=inst.chi,
                              tol=1e-9)
        bad.chi = 1.0 + 0j  # break the diagonal convention only
        with pytest.raises((ConventionViolationNumeric, ValueError)):
            middle_convolution_rep(bad)


class TestFactoredSpectrum:
    """``spectrum(k)`` against the eigenvalues of the dense compressed
    braid matrix C^H K^H U_k K C, with U_k from ``braid_matrix``."""

    @pytest.mark.parametrize("seed,r,n,aim,vp,mults,m_vs_r", [
        (31, 2, 3, "support", "same", None, -1),
        (32, 3, 3, "support", "fresh", None, 0),
        (33, 2, 4, "support", "same", None, 0),
        (34, 5, 3, "support", "fresh", None, 1),
        (35, 4, 3, "support", "same", [[2, 2], [2, 1, 1]], -1),
        (41, 4, 3, "support", "fresh", [[2, 2], [2, 1, 1]], -1),
        (43, 4, 4, "support", "same", [[2, 1, 1], [3, 1], [2, 2]], 0),
        (36, 6, 4, "support", "fresh", [[2, 2, 1, 1], [3, 3], [1] * 6], 1),
        (37, 3, 5, "fresh", "same", None, 1),
        (38, 4, 4, "fresh", "fresh", [[2, 2], [1, 1, 2], [4]], 1),
        (39, 6, 5, "support", "same", None, 1),
    ])
    def test_matches_dense_oracle(self, seed, r, n, aim, vp, mults, m_vs_r):
        inst = generate_instance(seed=seed, r=r, n=n, aim=aim, v_policy=vp,
                                 mults=mults).instance
        space = ChainSpace(inst)
        mid = middle_convolution_rep(inst)
        assert np.sign(mid.dim - r) == m_vs_r
        if aim == "fresh":
            assert mid.fixed_dims == [0] * n and mid.dim == (n - 1) * r
        for rep in (mid, mid.raw):
            B = rep.basis  # K C for the middle quotient, K for the kernel
            for k in range(n):
                dense = inst.w[k] * (B.conj().T @ space.braid_matrix(k + 1) @ B)
                oracle = list(np.linalg.eigvals(dense))
                assert match_multisets(oracle, list(rep.spectrum(k))) < 1e-9
                view = list(np.linalg.eigvals(rep.matrices[k]))
                assert match_multisets(oracle, view) < 1e-9


class TestQuotientOracle:
    """``middle_convolution_rep`` against ``reference_middle``, the quotient
    built from full SVDs with an n r x n r kernel basis."""

    def test_generated_sweep(self):
        rng = np.random.default_rng(17)
        shapes = {}
        for seed in range(200):
            r, n = int(rng.integers(1, 8)), int(rng.integers(3, 7))
            inst = generate_instance(
                seed=seed, r=r, n=n, aim=("support", "fresh")[int(rng.integers(2))],
                v_policy=("same", "fresh")[int(rng.integers(2))],
                mults=[random_partition(rng, r) for _ in range(n - 1)]).instance
            try:
                want = reference_middle(inst)
            except MidconvError as exc:
                with pytest.raises(type(exc)):
                    middle_convolution_rep(inst)
                shapes[type(exc).__name__] = shapes.get(type(exc).__name__, 0) + 1
                continue
            mid = middle_convolution_rep(inst)
            assert (mid.dim, mid.fixed_dims) == want[:2], seed
            for k, spectrum in enumerate(want[2]):
                assert match_multisets(list(spectrum), list(mid.spectrum(k))) < 1e-9, (seed, k)
            shape = ("m < r", "m = r", "m > r")[int(np.sign(mid.dim - r)) + 1]
            shapes[shape] = shapes.get(shape, 0) + 1
        assert all(shapes.get(s, 0) >= 10 for s in ("m < r", "m = r", "m > r")), shapes


def assert_eigendata(inst):
    """The stored (lam, V) per point against ``eigvals`` of the matrix."""
    for M, (lam, V) in zip(inst.M, inst.eigs):
        assert match_multisets(list(lam), list(np.linalg.eigvals(M))) < 1e-10
        assert np.linalg.norm(M @ V - V @ np.diag(lam)) < 1e-10
        assert np.linalg.matrix_rank(V) == inst.r


EIGENDATA_SHAPES = [
    (51, 1, 3, "support", "same", None),
    (52, 1, 4, "fresh", "fresh", None),
    (53, 3, 3, "support", "fresh", [[2, 1], [1, 1, 1]]),
    (54, 4, 4, "fresh", "same", [[2, 2], [4], [1, 3]]),
    (55, 5, 3, "support", "same", None),
    (56, 3, 5, "fresh", "fresh", [[1, 2], [3], [1, 1, 1], [2, 1]]),
]


class TestEigendata:
    """Generated and symbolic instances carry the eigendata they were
    built from; ``NumericInstance`` checks what it is handed."""

    @pytest.mark.parametrize("seed,r,n,aim,vp,mults", EIGENDATA_SHAPES)
    def test_generated(self, seed, r, n, aim, vp, mults):
        assert_eigendata(generate_instance(seed=seed, r=r, n=n, aim=aim, v_policy=vp,
                                           mults=mults).instance)

    @pytest.mark.parametrize("seed,r,n,aim,vp,mults", EIGENDATA_SHAPES)
    def test_symbolic(self, seed, r, n, aim, vp, mults):
        problem = generate_instance(seed=seed, r=r, n=n, aim=aim, v_policy=vp, mults=mults)
        inst = symbolic_instance(problem.vector, problem.beta, problem.assignment,
                                 seed=seed).instance
        assert_eigendata(inst)

    def test_matrices_decomposed_when_not_given(self):
        inst = small_instance(seed=58, r=3, n=4)
        assert_eigendata(NumericInstance(M=inst.M, b=inst.b, w=inst.w, chi=inst.chi))

    @pytest.mark.parametrize("k", [0, 2])
    def test_permuted_eigenvalues_rejected(self, k):
        inst = small_instance(seed=59, r=3, n=3)
        eigs = list(inst.eigs)
        lam, V = eigs[k]
        eigs[k] = (np.roll(lam, 1), V)
        with pytest.raises(ValueError, match=f"M_{k} V_{k}"):
            NumericInstance(M=inst.M, b=inst.b, w=inst.w, chi=inst.chi, eigs=eigs)


class TestEndToEnd:
    def test_verify_against_symbolic_prediction(self):
        for seed in range(6):
            r = 2 + seed % 2
            n = 3 + seed % 2
            problem = generate_instance(seed=100 + seed, r=r, n=n)
            report = verify_instance(problem)
            assert report.ok
            assert report.raw_dim == (n - 1) * r
            assert report.middle_dim == report.expected_middle_dim
            assert report.max_deviation < 1e-8
            assert report.det_product_error < 1e-8

    def test_product_relation_enforced(self):
        inst = small_instance(seed=22)
        M = [m.copy() for m in inst.M]
        M[0] = 2 * M[0]  # breaks prod(M) = 1
        with pytest.raises(ValueError):
            NumericInstance(M=M, b=inst.b, w=inst.w, chi=inst.chi)

    def test_json_round_trip(self):
        inst = small_instance(seed=23)
        doc = inst.to_json()
        back = NumericInstance.from_json(doc)
        for A, B in zip(inst.M, back.M):
            assert np.allclose(A, B)
        assert np.allclose(inst.b, back.b)
        assert complex(inst.chi) == pytest.approx(complex(back.chi))


class TestMatchMultisets:
    def test_optimal_assignment_not_greedy(self):
        pred = [0.0, 1.0]
        meas = [0.9, 0.1]
        assert match_multisets(pred, meas) == pytest.approx(0.1)

    def test_size_mismatch(self):
        from midconv.errors import SizeMismatch
        with pytest.raises(SizeMismatch):
            match_multisets([1.0], [1.0, 2.0])


def clustered_case(rng):
    """Predicted values in clusters of multiplicity 1-4 and measured values
    perturbed by 1e-14 to 1e-1, shuffled.  Some cases put the cluster
    centres closer together than the perturbation (overlapping clusters),
    some move measured values to another cluster (unequal counts)."""
    k = int(rng.integers(1, 9))
    centres = np.exp(2j * np.pi * rng.random(k))
    if rng.random() < 0.3:
        centres = centres[0] + rng.choice([1e-12, 1e-6, 1e-3], size=k) * centres
    predicted = np.repeat(centres, rng.integers(1, 5, size=k))
    near = predicted.copy()
    if rng.random() < 0.5:
        moved = rng.random(len(near)) < 0.3
        near[moved] = centres[rng.integers(k, size=int(moved.sum()))]
    noise = rng.normal(size=len(near)) + 1j * rng.normal(size=len(near))
    return predicted, rng.permutation(near + 10 ** rng.uniform(-14, -1) * noise)


class TestAssignmentOracle:
    """``min_sum_assignment`` against scipy's ``linear_sum_assignment``."""

    def test_clustered_multisets(self):
        rng = np.random.default_rng(13)
        reduced = augmented = 0
        for _ in range(300):
            predicted, measured = clustered_case(rng)
            size = len(predicted)
            values, counts = np.unique(predicted, return_counts=True)
            cost = np.abs(values[:, None] - measured[None, :])
            row, paths = min_sum_assignment(cost, counts)
            assert list(np.bincount(row, minlength=len(values))) == list(counts)
            square = np.abs(predicted[:, None] - measured[None, :])
            rows, cols = linear_sum_assignment(square)
            ours, theirs = cost[row, np.arange(size)], square[rows, cols]
            assert ours.sum() == pytest.approx(theirs.sum(), rel=1e-12, abs=1e-15)
            # the column reduction gives each measured value its nearest
            # predicted value while that value has copies left; one
            # augmenting path per measured value it could not place
            nearest = np.abs(values[:, None] - measured[None, :]).argmin(axis=0)
            wanted = np.bincount(nearest, minlength=len(values))
            assert paths == np.maximum(wanted - counts, 0).sum()
            if paths == 0:  # each term is its column's minimum: the same max
                reduced += 1
                assert match_multisets(list(predicted), list(measured)) == theirs.max()
            else:
                augmented += 1
                assert match_multisets(list(predicted), list(measured)) == pytest.approx(
                    theirs.max(), rel=1e-12, abs=1e-15)
        assert reduced >= 50 and augmented >= 50, (reduced, augmented)

    def test_random_square_matrices(self):
        rng = np.random.default_rng(14)
        for size in range(1, 61):
            # continuous costs, then small integers with many ties
            for cost in (rng.random((size, size)) * 10.0 ** rng.integers(-3, 4),
                         rng.integers(0, 4, size=(size, size)).astype(float)):
                row, _ = min_sum_assignment(cost, np.ones(size, dtype=int))
                assert sorted(row) == list(range(size))
                rows, cols = linear_sum_assignment(cost)
                assert cost[row, np.arange(size)].sum() == pytest.approx(
                    cost[rows, cols].sum(), rel=1e-12)
