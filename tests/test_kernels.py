"""Counted-kernel arithmetic and accounting contracts."""

import ast
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import mimodet
from mimodet.kernels import (
    OpCount,
    counted_recip,
    counted_sqrt,
    dot_h,
    dot_u,
    hermitian,
    matvec,
    mul,
)


def test_cmul_identity_still_counted():
    acc = OpCount()
    out = mul(1 + 0j, 3.5 - 2.5j, acc)
    assert out == 3.5 - 2.5j
    assert acc == OpCount(real_mul=4)


def test_cmul_hand_value():
    acc = OpCount()
    assert mul(1 + 2j, 3 + 4j, acc) == -5 + 10j


def test_cmul_gaussian_integer_exactness():
    # products of small integers are exact in doubles, so the float path
    # must agree with exact integer arithmetic bit for bit
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    for _ in range(500):
        a_re, a_im, b_re, b_im = (int(v) for v in rng.integers(-100, 101, size=4))
        got = mul(complex(a_re, a_im), complex(b_re, b_im), OpCount())
        exact = complex(a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re)
        assert got == exact


def test_cmul_count_scales_with_invocations():
    for u in (2, 5, 16):
        acc = OpCount()
        for _ in range(u * u):
            mul(1j, 1j, acc)
        assert acc.real_mul == 4 * u * u


def test_rcmul():
    acc = OpCount()
    assert mul(0.5, 2 + 4j, acc) == 1 + 2j
    assert acc.real_mul == 2
    acc = OpCount()
    assert mul(1.0, -3 + 7j, acc) == -3 + 7j
    assert acc.real_mul == 2  # identity multiplicand still counted
    acc = OpCount()
    pairs = 6 * 5 // 2
    for _ in range(pairs):
        mul(2.0, 1j, acc)
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


@pytest.mark.parametrize("dot", [dot_h, dot_u])
def test_inner_product_refuses_a_length_one_axis(dot):
    # einsum alone would broadcast the length-1 axis against the other
    with pytest.raises(ValueError, match="length mismatch"):
        dot(np.ones(3, dtype=complex), np.ones(1, dtype=complex), OpCount())


@pytest.mark.parametrize("a,b,message", [
    (np.ones(3), np.ones(3), "left operand must be a matrix"),
    (np.ones((2, 3)), np.ones(2), "dimension mismatch"),
])
def test_matvec_bad_shapes(a, b, message):
    with pytest.raises(ValueError, match=message):
        matvec(a, b, OpCount())


def test_norm_sq():
    # a squared norm is dot_h(a, a).real, charged at the complex-mult rate
    a = np.array([3 + 4j])
    assert dot_h(a, a, OpCount()).real == pytest.approx(25.0)
    zero = np.zeros(5, dtype=complex)
    assert dot_h(zero, zero, OpCount()).real == 0.0
    for u in (2, 8, 21):
        acc = OpCount()
        a = np.ones(u, dtype=complex)
        dot_h(a, a, acc)
        assert acc == OpCount(real_mul=4 * u)


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
    assert acc == OpCount(*(4 * v for v in astuple(one)))


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
        (lambda acc: mul(a, b, acc), lambda acc: mul(1j, 2j, acc), 60),
        (lambda acc: mul(r, a, acc), lambda acc: mul(0.5, 1j, acc), 60),
        (lambda acc: counted_sqrt(np.abs(a), acc), lambda acc: counted_sqrt(2.0, acc), 60),
        (lambda acc: counted_recip(a, acc), lambda acc: counted_recip(2.0, acc), 60),
        (lambda acc: dot_h(b, a, acc), lambda acc: dot_h(a[0, 0], a[0, 1], acc), 12),
        (lambda acc: dot_u(b, a, acc), lambda acc: dot_u(a[0, 0], a[0, 1], acc), 12),
        (lambda acc: matvec(a, a[:, 0, :], acc), lambda acc: matvec(a[0], a[0, 0], acc), 3),
    ]
    for stacked, single, k in cases:
        many, one = OpCount(), OpCount()
        stacked(many)
        single(one)
        assert many == OpCount(*(k * v for v in astuple(one)))

    # the operands set the rate: 1 real multiplication per scalar product,
    # doubled for each complex operand; values are NumPy's own, bit for bit
    re, cx = a.real.copy(), a
    for x, y, rate in [(re, re, 1), (re, cx, 2), (cx, re, 2), (cx, cx, 4)]:
        acc = OpCount()
        assert mul(x, y, acc).tobytes() == np.multiply(x, y).tobytes()
        assert acc == OpCount(real_mul=rate * 60)
    # a Python float scalar is a real operand
    for y, rate in [(re, 1), (cx, 2)]:
        acc = OpCount()
        assert mul(0.5, y, acc).tobytes() == np.multiply(0.5, y).tobytes()
        assert acc == OpCount(real_mul=rate * 60)
    # a real (P, 1, 1) array against a complex stack, as one beta per SNR point
    beta = rng.standard_normal((2, 1, 1))
    acc = OpCount()
    assert mul(beta, cx[0], acc).tobytes() == np.multiply(beta, cx[0]).tobytes()
    assert acc == OpCount(real_mul=2 * 2 * 4 * 5)
    # inner products and matrix-vector products with one real operand
    for x, y in [(re, cx), (cx, re)]:
        acc = OpCount()
        assert dot_h(x, y, acc).tobytes() == np.einsum("...k,...k->...", x.conj(), y).tobytes()
        assert acc == OpCount(real_mul=2 * 5 * 12)
        acc = OpCount()
        assert dot_u(x, y, acc).tobytes() == np.einsum("...k,...k->...", x, y).tobytes()
        assert acc == OpCount(real_mul=2 * 5 * 12)
        acc = OpCount()
        v = y[:, 0, :]
        assert matvec(x, v, acc).tobytes() == (x @ v[..., None])[..., 0].tobytes()
        assert acc == OpCount(real_mul=2 * 5 * 12)


def test_stacked_values_match_elementwise():
    rng = np.random.Generator(np.random.Philox(key=[13, 1]))
    a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    v = a[:, 0, :]
    assert np.allclose(dot_h(a, a, OpCount()), (np.abs(a) ** 2).sum(axis=-1), atol=1e-12)
    assert np.allclose(matvec(a, v, OpCount()), np.einsum("bij,bj->bi", a, v), atol=1e-12)
    assert np.allclose(dot_u(a, a, OpCount()), (a * a).sum(axis=-1), atol=1e-12)


def calls_in_src(name: str) -> list[str]:
    """Where ``src/mimodet`` calls a function or method named ``name``, as
    ``module.function[.inner]`` (``module`` at the top level), in source order."""
    calls = []
    for path in sorted(Path(mimodet.__file__).parent.glob("*.py")):

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    calls.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return calls


def test_the_counting_rule_lives_in_kernels():
    # outside kernels, only the Gramian charges by hand: it forms H^H H in
    # one product and charges the U(U+1)/2 inner products of its upper half
    outside = [where for where in calls_in_src("charge") if not where.startswith("kernels.")]
    assert outside == ["detect.gramian"]


def test_the_failure_rule_and_the_inner_product_live_once():
    # floating-point warnings are switched off in one place, the decorator
    # that is also the one non-finite check, and every solver wears it;
    # dot_h is dot_u on conj(a), so one kernel takes every inner product
    assert calls_in_src("errstate") == ["decomp.finite_result.checked"]
    src = Path(mimodet.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not {"flag_non_finite", "_contract"} & defined
    assert not calls_in_src("flag_non_finite") and not calls_in_src("_contract")
    wearers = {f"{module}.{node.name}" for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and any(getattr(d, "id", None) == "finite_result" for d in node.decorator_list)}
    assert wearers == {"decomp.gram_schmidt_qr", "decomp.cholesky", "decomp.ldl",
                       "decomp._triangular_sub", "detect.exact_solve", "detect.nsa_solve",
                       "detect.gs_solve", "detect.cg_solve", "detect.admin_solve"}
    dot_h_def = next(node for node in ast.walk(trees["kernels"])
                     if isinstance(node, ast.FunctionDef) and node.name == "dot_h")
    body = [stmt for stmt in dot_h_def.body if not isinstance(stmt, ast.Expr)]  # no docstring
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    assert isinstance(body[0].value, ast.Call) and body[0].value.func.id == "dot_u"
