"""Counted-kernel arithmetic and accounting contracts."""

import numpy as np
import pytest

from mimodet.kernels import (
    OpCount,
    cmul,
    dot_h,
    hermitian,
    matmul,
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


def test_cmul_overflow_raises():
    with pytest.raises(FloatingPointError):
        cmul(1e308 + 0j, 1e308 + 0j, OpCount())


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


def test_matmul_identity_and_permutation():
    b = np.array([[1 + 2j, 3j], [4.0, 5 - 1j]])
    assert np.array_equal(matmul(np.eye(2, dtype=complex), b, OpCount()), b)
    perm = np.array([[0, 1], [1, 0]], dtype=complex)
    v = np.array([[7 + 1j], [9.0]])
    assert np.array_equal(matmul(perm, v, OpCount()), v[::-1])


def test_matmul_count_2x2():
    # 8 complex multiplications at 4 real mults each
    acc = OpCount()
    matmul(np.ones((2, 2), dtype=complex), np.ones((2, 2), dtype=complex), acc)
    assert acc.real_mul == 32


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(np.ones((2, 3), dtype=complex), np.ones((2, 2), dtype=complex), OpCount())


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


def test_determinism():
    a = np.arange(6, dtype=complex).reshape(2, 3) + 0.5j
    b = np.arange(6, dtype=complex).reshape(3, 2) - 0.25j
    acc1, acc2 = OpCount(), OpCount()
    out1 = matmul(a, b, acc1)
    out2 = matmul(a, b, acc2)
    assert np.array_equal(out1, out2)
    assert acc1 == acc2
