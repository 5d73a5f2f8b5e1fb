"""Decomposition correctness, error paths and exact operation counts."""

import numpy as np
import pytest

from mimodet.complexity import seeded_gramian
from mimodet.decomp import (
    NearSingularError,
    NotPositiveDefiniteError,
    SingularTriangularError,
    as_stack,
    backward_sub,
    cholesky,
    forward_sub,
    gram_schmidt_qr,
    ldl,
    vector_stack,
)
from mimodet.kernels import OpCount, hermitian


def rel_resid(approx, exact):
    return np.linalg.norm(approx - exact) / np.linalg.norm(exact)


class TestGramSchmidtQr:
    def test_identity(self):
        q, r = gram_schmidt_qr(np.eye(4, dtype=complex), OpCount())
        assert np.allclose(q, np.eye(4)) and np.allclose(r, np.eye(4))

    def test_diagonal_input(self):
        q, r = gram_schmidt_qr(np.diag([2.0, 3.0]).astype(complex), OpCount())
        assert np.allclose(q, np.eye(2))
        assert np.allclose(r, np.diag([2.0, 3.0]))

    def test_counts_u8(self):
        acc = OpCount()
        gram_schmidt_qr(seeded_gramian(8, seed=0), acc)
        assert acc.real_mul == 2176 == 8 * 8 * (4 * 8 + 2)
        assert acc.sqrt == 8 and acc.reciprocal == 8

    @pytest.mark.parametrize("u", [2, 3, 5, 16, 31])
    def test_count_formula(self, u):
        acc = OpCount()
        gram_schmidt_qr(seeded_gramian(u, seed=1), acc)
        assert acc.real_mul == u * u * (4 * u + 2)

    def test_factor_invariants(self):
        for seed in range(5):
            a = seeded_gramian(16, seed)
            q, r = gram_schmidt_qr(a, OpCount())
            assert np.abs(q.conj().T @ q - np.eye(16)).max() <= 1e-10
            assert rel_resid(q @ r, a) <= 1e-10
            assert np.all(np.diag(r).imag == 0) and np.all(np.diag(r).real > 0)
            assert np.all(r[np.tril_indices(16, -1)] == 0)

    def test_orthogonality_loss_is_modified_gram_schmidt(self):
        # Björck & Paige (SIAM J. Matrix Anal. Appl. 13(1), 1992): modified
        # Gram-Schmidt keeps |Q^H Q - I| within c u kappa, classical within
        # only u kappa^2, and both keep A = QR to c u. With c = n^2 at n = 12,
        # unit roundoff u = 2^-53 and kappa = 1e6 the bound is
        # 144 * 1.1e-16 * 1e6 = 1.6e-8; classical Gram-Schmidt, held only to
        # order u kappa^2 = 1.1e-4, loses more than that on this matrix
        n, kappa, unit = 12, 1e6, np.finfo(float).eps / 2
        bound = n * n * unit * kappa
        rng = np.random.default_rng(5)
        u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
                for _ in range(2))
        a = u @ np.diag(np.logspace(0, -np.log10(kappa), n)) @ v.conj().T

        def loss(q):
            return np.abs(q.conj().T @ q - np.eye(n)).max()

        def classical_gram_schmidt(a):
            # column i minus its projections on Q's columns 0 .. i-1, all
            # taken from the original column
            q = np.zeros_like(a)
            for i in range(n):
                col = a[:, i] - q[:, :i] @ (q[:, :i].conj().T @ a[:, i])
                q[:, i] = col / np.linalg.norm(col)
            return q

        q, r = gram_schmidt_qr(a, OpCount())
        assert loss(q) <= bound
        assert rel_resid(q @ r, a) <= n * n * unit
        assert loss(classical_gram_schmidt(a)) > bound

    def test_near_singular(self):
        a = np.ones((3, 3), dtype=complex)  # rank one
        with pytest.raises(NearSingularError):
            gram_schmidt_qr(a, OpCount())


class TestCholesky:
    def test_identity(self):
        l = cholesky(np.eye(5, dtype=complex), OpCount())
        assert np.allclose(l, np.eye(5))

    @pytest.mark.parametrize("u,expected", [(8, 392), (16, 2960), (32, 22816)])
    def test_counts(self, u, expected):
        acc = OpCount()
        cholesky(seeded_gramian(u, seed=2), acc)
        assert acc.real_mul == expected
        assert acc.sqrt == u and acc.reciprocal == u

    def test_reconstruction(self):
        for seed in range(5):
            a = seeded_gramian(16, seed)
            l = cholesky(a, OpCount())
            assert rel_resid(l @ l.conj().T, a) <= 1e-10
            assert np.all(l[np.triu_indices(16, 1)] == 0)
            assert np.all(np.diag(l).real > 0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.diag([1.0, -1.0]).astype(complex), OpCount())

    def test_rejects_non_hermitian(self):
        a = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            cholesky(a, OpCount())


class TestLdl:
    def test_identity(self):
        l, d = ldl(np.eye(4, dtype=complex), OpCount())
        assert np.allclose(l, np.eye(4)) and np.allclose(d, np.ones(4))

    def test_diagonal_input(self):
        l, d = ldl(np.diag([4.0, 9.0]).astype(complex), OpCount())
        assert np.allclose(l, np.eye(2)) and np.allclose(d, [4.0, 9.0])

    def test_reconstruction(self):
        a = seeded_gramian(8, seed=3)
        l, d = ldl(a, OpCount())
        assert rel_resid(l @ np.diag(d) @ l.conj().T, a) <= 1e-10
        assert np.all(np.diag(l) == 1.0)
        assert np.all(l[np.triu_indices(8, 1)] == 0)
        assert np.all(d > 0)

    @pytest.mark.parametrize("u", [4, 8, 16, 32])
    def test_counts(self, u):
        acc = OpCount()
        ldl(seeded_gramian(u, seed=4), acc)
        assert acc.sqrt == 0 and acc.reciprocal == u
        assert acc.real_mul == (2 * u**3 + 12 * u**2 - 14 * u) // 3

    def test_relation_to_cholesky(self):
        a = seeded_gramian(12, seed=5)
        c = cholesky(a, OpCount())
        l, d = ldl(a, OpCount())
        assert np.abs(c - l @ np.diag(np.sqrt(d))).max() <= 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            ldl(np.diag([2.0, 0.0]).astype(complex), OpCount())


class TestTriangularSolves:
    def test_forward_identity(self):
        b = np.array([1 + 2j, -3j, 4.0])
        assert np.allclose(forward_sub(np.eye(3, dtype=complex), b, OpCount()), b)

    def test_forward_hand_solve(self):
        l = np.array([[2.0, 0.0], [1.0, 1.0]], dtype=complex)
        z = forward_sub(l, np.array([2.0, 2.0], dtype=complex), OpCount())
        assert np.allclose(z, [1.0, 1.0])

    def test_backward_identity(self):
        b = np.array([5j, 6.0])
        assert np.allclose(backward_sub(np.eye(2, dtype=complex), b, OpCount()), b)

    def test_backward_hand_solve(self):
        u = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        x = backward_sub(u, np.array([3.0, 2.0], dtype=complex), OpCount())
        assert np.allclose(x, [2.0, 1.0])

    def test_residuals_seeded(self):
        rng = np.random.Generator(np.random.Philox(key=[17, 0]))
        for _ in range(5):
            m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            l = np.tril(m) + 4 * np.eye(16)
            b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            z = forward_sub(l, b, OpCount())
            assert np.linalg.norm(l @ z - b) / np.linalg.norm(b) <= 1e-10
            u = np.triu(m) + 4 * np.eye(16)
            x = backward_sub(u, b, OpCount())
            assert np.linalg.norm(u @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_singular_triangular(self):
        l = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(SingularTriangularError):
            forward_sub(l, np.ones(2, dtype=complex), OpCount())
        with pytest.raises(SingularTriangularError):
            backward_sub(l.T.copy(), np.ones(2, dtype=complex), OpCount())

    def test_solver_equivalence_vs_direct_inverse(self):
        # chained forward/backward substitution equals LAPACK's inverse
        # applied to the same right-hand side
        for seed in range(5):
            a = seeded_gramian(8, seed)
            rng = np.random.Generator(np.random.Philox(key=[seed, 23]))
            b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            l = cholesky(a, OpCount())
            x = backward_sub(hermitian(l), forward_sub(l, b, OpCount()), OpCount())
            x_oracle = np.linalg.inv(a) @ b
            assert rel_resid(x, x_oracle) <= 1e-8


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_as_stack_needs_square_matrices(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        as_stack(np.ones(shape))


@pytest.mark.parametrize("shape", [(), (4,), (2, 3, 2)])
def test_vector_stack_needs_length_n(shape):
    with pytest.raises(ValueError, match="expected length 3"):
        vector_stack(np.ones(shape), 3)


def test_reconstruction_property_sample():
    # denser sampling of the 1,000-Gramian sweep lives in the acceptance
    # suite; this keeps a quick cross-size check in the unit tests
    rng = np.random.Generator(np.random.Philox(key=[29, 0]))
    for u in (2, 4, 8, 16, 32):
        for _ in range(10):
            n = int(rng.integers(2, 5)) * u
            g = rng.standard_normal((2, n, u))
            h = (g[0] + 1j * g[1]) / np.sqrt(2)
            sigma2 = float(rng.uniform(0.1, 1.0))
            a = h.conj().T @ h + sigma2 * np.eye(u)
            a = (a + a.conj().T) / 2
            scale = np.linalg.norm(a)
            q, r = gram_schmidt_qr(a, OpCount())
            assert np.linalg.norm(q @ r - a) / scale <= 1e-10
            c = cholesky(a, OpCount())
            assert np.linalg.norm(c @ c.conj().T - a) / scale <= 1e-10
            l, d = ldl(a, OpCount())
            assert np.linalg.norm(l @ np.diag(d) @ l.conj().T - a) / scale <= 1e-10


def test_counts_are_value_independent():
    for u in (3, 8):
        accs = []
        for seed in (0, 1):
            acc = OpCount()
            cholesky(seeded_gramian(u, seed), acc)
            accs.append(acc)
        assert accs[0] == accs[1]
