"""Closed forms of the real multiplications every executed path counts.

One detection on an N x U channel: the Gramian and the matched filter it
shares, and the solve of each detector (factor and one right-hand side
for the exact kinds, t iterations for the others). The forms are
ROADMAP item 4's table; ``complexity.formula_rm`` holds the paper's
models, which differ from these, and ``tests/opcounts.json`` pins the
same counts as data at a few sizes.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimodet import detect
from mimodet.detect import Backend
from mimodet.kernels import OpCount

BETA = 0.5
# name/U or name/U/t -> [sqrt, reciprocal, real_mul], each on a 2U x U channel
PINNED = json.loads(Path(__file__).with_name("opcounts.json").read_text())
# path -> its real multiplications at (N, U, t), in exact arithmetic
FORMS = {
    "gramian": lambda n, u, t: 2 * n * u * (u + 1),
    "matched_filter": lambda n, u, t: 4 * n * u,
    "exact_solve.qr": lambda n, u, t: 4 * u**3 + 8 * u**2 + 2 * u,
    "exact_solve.chol": lambda n, u, t: Fraction(2 * u**3 + 15 * u**2 + 7 * u, 3),
    "exact_solve.ldl": lambda n, u, t: Fraction(2 * u**3 + 24 * u**2 + 4 * u, 3),
    "nsa_solve": lambda n, u, t: 2 * u + (t - 1) * (4 * u**2 + 2 * u),
    "gs_solve": lambda n, u, t: t * (4 * u**2 - 2 * u),
    "cg_solve": lambda n, u, t: t * (4 * u**2 + 14 * u + 2) + 4 * u,
    "admin_solve": lambda n, u, t: (Fraction(2 * u**3 + 24 * u**2 + 4 * u, 3)
                                    + (t - 1) * (4 * u**2 + 8 * u)),
}
# path -> its counted call on the channel h, received vector y and t
CALLS = {
    "gramian": lambda h, y, t, acc: detect.gramian(h, 0.0, acc),
    "matched_filter": lambda h, y, t, acc: detect.matched_filter(h, y, acc),
    **{f"exact_solve.{be.value}": (
        lambda h, y, t, acc, be=be: detect.exact_solve(*shared(h, y), be, acc, reg=BETA))
       for be in Backend},
    "nsa_solve": lambda h, y, t, acc: detect.nsa_solve(*shared(h, y), t, acc, reg=BETA),
    "gs_solve": lambda h, y, t, acc: detect.gs_solve(*shared(h, y), t, acc, reg=BETA),
    "cg_solve": lambda h, y, t, acc: detect.cg_solve(*shared(h, y), t, acc, reg=BETA),
    "admin_solve": lambda h, y, t, acc: detect.admin_solve(*shared(h, y), t, BETA, 1.0, acc,
                                                           reg=BETA),
}


def shared(h, y):
    """G0 = H^H H and x_mf = H^H y, formed untallied."""
    return detect.gramian(h, 0.0, None), detect.matched_filter(h, y, None)


@settings(max_examples=60)
@given(u=st.integers(1, 32), t=st.integers(1, 6), extra=st.integers(0, 96),
       seed=st.integers(0, 2**32 - 1))
@example(u=32, t=6, extra=96, seed=0)  # the largest: N = 4U = 128
def test_every_executed_path_counts_its_closed_form(u, t, extra, seed):
    # N in U..4U; the counts depend on shapes only, so any channel will do
    n = u + extra % (3 * u + 1)
    rng = np.random.Generator(np.random.Philox(key=[seed, u]))
    h = (rng.standard_normal((n, u)) + 1j * rng.standard_normal((n, u))) / np.sqrt(2)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for name, call in CALLS.items():
        acc = OpCount()
        call(h, y, t, acc)
        assert acc.real_mul == FORMS[name](n, u, t), (name, n, u, t)


@pytest.mark.parametrize("key", sorted(k for k in PINNED if k.split("/")[0] in FORMS))
def test_every_pinned_count_is_its_closed_form(key):
    name, u, t = (key.split("/") + ["1"])[:3]
    assert PINNED[key][2] == FORMS[name](2 * int(u), int(u), int(t))
