"""Counted-kernel arithmetic and accounting contracts."""

import numpy as np
import pytest

from mimodet.kernels import (
    OpCount,
    cadd,
    cmul,
    counted_recip,
    counted_sqrt,
    csub,
    dot_h,
    dot_u,
    hermitian,
    matvec,
    norm_sq,
    rcmul,
)


def test_cmul_identity_still_counted():
    acc = OpCount()
    out = cmul(1 + 0j, 3.5 - 2.5j, acc)
    assert out == 3.5 - 2.5j
    assert acc.real_mul == 4 and acc.add == 1 and acc.sub == 1


def test_cmul_hand_value():
    acc = OpCount()
    assert cmul(1 + 2j, 3 + 4j, acc) == -5 + 10j


def test_cmul_gaussian_integer_exactness():
    # products of small integers are exact in doubles, so the float path
    # must agree with exact integer arithmetic bit for bit
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    for _ in range(500):
        a_re, a_im, b_re, b_im = (int(v) for v in rng.integers(-100, 101, size=4))
        got = cmul(complex(a_re, a_im), complex(b_re, b_im), OpCount())
        exact = complex(a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re)
        assert got == exact


def test_cmul_count_scales_with_invocations():
    for u in (2, 5, 16):
        acc = OpCount()
        for _ in range(u * u):
            cmul(1j, 1j, acc)
        assert acc.real_mul == 4 * u * u


def test_rcmul():
    acc = OpCount()
    assert rcmul(0.5, 2 + 4j, acc) == 1 + 2j
    assert acc.real_mul == 2
    acc = OpCount()
    assert rcmul(1.0, -3 + 7j, acc) == -3 + 7j
    assert acc.real_mul == 2  # identity multiplicand still counted
    acc = OpCount()
    pairs = 6 * 5 // 2
    for _ in range(pairs):
        rcmul(2.0, 1j, acc)
    assert acc.real_mul == 2 * pairs


def test_dot_h_orthogonal_basis():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert dot_h(e1, e2, OpCount()) == 0


def test_dot_h_conjugates_first_argument():
    a = np.array([1 + 1j])
    assert dot_h(a, a, OpCount()) == 2 + 0j


def test_dot_h_count():
    for u in (1, 4, 13):
        acc = OpCount()
        dot_h(np.ones(u, dtype=complex), np.ones(u, dtype=complex), acc)
        assert acc.real_mul == 4 * u


def test_dot_h_length_mismatch():
    with pytest.raises(ValueError):
        dot_h(np.ones(3, dtype=complex), np.ones(2, dtype=complex), OpCount())


def test_norm_sq():
    assert norm_sq(np.array([3 + 4j]), OpCount()) == pytest.approx(25.0)
    assert norm_sq(np.zeros(5, dtype=complex), OpCount()) == 0.0
    for u in (2, 8, 21):
        acc = OpCount()
        norm_sq(np.ones(u, dtype=complex), acc)
        assert acc.real_mul == 4 * u  # complex-mult rate per element


def test_matvec_stack_of_vectors_against_one_matrix():
    # four length-4 vectors against one 4x4 matrix are four products,
    # charged as 16 inner products, not the matrix product a @ b
    rng = np.random.Generator(np.random.Philox(key=[11, 1]))
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    acc, one = OpCount(), OpCount()
    out = matvec(a, b, acc)
    matvec(a, b[0], one)
    assert np.allclose(out, np.stack([a @ v for v in b]), atol=1e-12)
    assert not np.allclose(out, a @ b)
    assert acc == OpCount(*(4 * v for v in (one.sqrt, one.reciprocal, one.real_mul,
                                             one.add, one.sub)))


def test_matvec_broadcasts_leading_axes():
    # a (3, 4, 4) stack against (2, 3, 4) vectors: 2 x 3 products, as NSA
    # needs for P SNR points sharing T Gramians
    rng = np.random.Generator(np.random.Philox(key=[11, 2]))
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    v = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    acc = OpCount()
    out = matvec(g, v, acc)
    assert out.shape == (2, 3, 4)
    for p in range(2):
        assert np.array_equal(out[p], matvec(g, v[p], None))
    assert acc.real_mul == 2 * 3 * 4 * (4 * 4)
    with pytest.raises(ValueError):
        matvec(g, v[..., :3], OpCount())


def test_hermitian():
    assert np.array_equal(hermitian(np.eye(3, dtype=complex)), np.eye(3))
    assert hermitian(np.array([[1 + 2j]]))[0, 0] == 1 - 2j
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    for _ in range(20):
        m, k, n = rng.integers(1, 9, size=3)
        a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        b = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        assert np.array_equal(hermitian(hermitian(a)), a)
        lhs = hermitian(a @ b)
        rhs = hermitian(b) @ hermitian(a)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


@pytest.mark.parametrize("shape", [(3, 5), (4, 7, 2), (2, 3, 6, 4)])
@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_hermitian_is_one_contiguous_copy(shape, dtype):
    # the bytes of the conjugate transpose, laid out C-contiguous, also
    # from a non-contiguous view, and never a view of its input
    rng = np.random.Generator(np.random.Philox(key=[12, len(shape)]))
    a = rng.standard_normal(shape).astype(dtype)
    if dtype is np.complex128:
        a += 1j * rng.standard_normal(shape)
    for src in (a, np.swapaxes(a, -1, -2)):
        got = hermitian(src)
        want = np.ascontiguousarray(np.swapaxes(src, -1, -2).conj())
        assert got.flags.c_contiguous and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, src)


def test_determinism():
    a = np.arange(6, dtype=complex).reshape(2, 3) + 0.5j
    b = np.arange(6, dtype=complex).reshape(2, 3) - 0.25j
    acc1, acc2 = OpCount(), OpCount()
    out1 = matvec(a, b, acc1)
    out2 = matvec(a, b, acc2)
    assert np.array_equal(out1, out2)
    assert acc1 == acc2


def test_arrays_charge_per_output_element():
    # a kernel on a stack charges what the same kernel charges per element
    rng = np.random.Generator(np.random.Philox(key=[13, 0]))
    a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((3, 1, 5)) + 1j * rng.standard_normal((3, 1, 5))
    r = rng.standard_normal((3, 4, 1))
    cases = [
        (lambda acc: cmul(a, b, acc), lambda acc: cmul(1j, 2j, acc), 60),
        (lambda acc: rcmul(r, a, acc), lambda acc: rcmul(0.5, 1j, acc), 60),
        (lambda acc: cadd(a, b, acc), lambda acc: cadd(1j, 1j, acc), 60),
        (lambda acc: csub(a, b, acc), lambda acc: csub(1j, 1j, acc), 60),
        (lambda acc: counted_sqrt(np.abs(a), acc), lambda acc: counted_sqrt(2.0, acc), 60),
        (lambda acc: counted_recip(a, acc), lambda acc: counted_recip(2.0, acc), 60),
        (lambda acc: dot_h(b, a, acc), lambda acc: dot_h(a[0, 0], a[0, 1], acc), 12),
        (lambda acc: dot_u(b, a, acc), lambda acc: dot_u(a[0, 0], a[0, 1], acc), 12),
        (lambda acc: norm_sq(a, acc), lambda acc: norm_sq(a[0, 0], acc), 12),
        (lambda acc: matvec(a, a[:, 0, :], acc), lambda acc: matvec(a[0], a[0, 0], acc), 3),
    ]
    for stacked, single, k in cases:
        many, one = OpCount(), OpCount()
        stacked(many)
        single(one)
        assert many == OpCount(*(k * v for v in (one.sqrt, one.reciprocal, one.real_mul,
                                                 one.add, one.sub)))


def test_stacked_values_match_elementwise():
    rng = np.random.Generator(np.random.Philox(key=[13, 1]))
    a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    v = a[:, 0, :]
    assert np.allclose(dot_h(a, a, OpCount()), norm_sq(a, OpCount()), atol=1e-12)
    assert np.allclose(matvec(a, v, OpCount()), np.einsum("bij,bj->bi", a, v), atol=1e-12)
    assert np.allclose(dot_u(a, a, OpCount()), (a * a).sum(axis=-1), atol=1e-12)
