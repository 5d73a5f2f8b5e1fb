"""Constellations, channel statistics, noise and the SNR convention."""

import numpy as np
import pytest

from mimodet import phy


def all_labels_bits(constellation):
    b = constellation.bits_per_symbol
    return np.array(
        [int(c) for label in range(constellation.order) for c in f"{label:0{b}b}"],
        dtype=np.uint8,
    )


@pytest.mark.parametrize("order", [4, 16, 64])
def test_unit_average_energy(order):
    c = phy.make_constellation(order)
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_gray_adjacency_per_axis(order):
    c = phy.make_constellation(order)
    step = 2 * c.scale
    checked = 0
    for li in range(order):
        for lj in range(li + 1, order):
            pi, pj = c.points[li], c.points[lj]
            same_row = abs(pi.imag - pj.imag) < 1e-12
            same_col = abs(pi.real - pj.real) < 1e-12
            adjacent = (same_row and abs(abs(pi.real - pj.real) - step) < 1e-12) or (
                same_col and abs(abs(pi.imag - pj.imag) - step) < 1e-12
            )
            if adjacent:
                assert bin(li ^ lj).count("1") == 1
                checked += 1
    m = c.levels_per_axis
    assert checked == 2 * m * (m - 1)  # every axis-adjacent pair seen


def test_qpsk_table():
    c = phy.make_constellation(4)
    s = 1 / np.sqrt(2)
    # gray-ordered walk 00 -> 01 -> 11 -> 10 circles the four points
    expected = {0b00: -s - s * 1j, 0b01: -s + s * 1j, 0b11: s + s * 1j, 0b10: s - s * 1j}
    for label, point in expected.items():
        assert c.points[label] == pytest.approx(point, abs=1e-15)


def test_qam64_all_zeros_label():
    c = phy.make_constellation(64)
    assert c.points[0] == pytest.approx((-7 - 7j) / np.sqrt(42), rel=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_modulate_slice_roundtrip(order):
    c = phy.make_constellation(order)
    bits = all_labels_bits(c)
    symbols = phy.modulate(bits, c)
    hard, bits_back = phy.hard_slice(symbols, c)
    assert np.array_equal(bits, bits_back)
    assert np.array_equal(hard, symbols)


def test_modulate_rejects_bad_length():
    with pytest.raises(ValueError):
        phy.modulate(np.zeros(5, dtype=np.uint8), phy.make_constellation(4))


def test_slice_tie_break():
    c = phy.make_constellation(4)
    hard, bits = phy.hard_slice(np.array([0 + 0j]), c)
    assert hard[0] == pytest.approx((-1 - 1j) / np.sqrt(2))
    assert list(bits) == [0, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)],
                         ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag"])
def test_slice_refuses_non_finite(bad):
    # a non-finite estimate has no nearest point; it used to slice to an
    # arbitrary one with only a cast warning
    soft = np.zeros((2, 3), dtype=complex)
    soft[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        phy.hard_slice(soft, phy.make_constellation(16))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_slice_small_perturbation(order):
    c = phy.make_constellation(order)
    bits = all_labels_bits(c)
    symbols = phy.modulate(bits, c)
    rng = np.random.Generator(np.random.Philox(key=[3, 1]))
    wobble = 1e-6 * (rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(symbols.shape))
    _, bits_back = phy.hard_slice(symbols + wobble, c)
    assert np.array_equal(bits, bits_back)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_slice_matches_nearest_point_oracle(order):
    # brute-force nearest point with (re, im) tie ordering
    c = phy.make_constellation(order)
    by_coord = sorted(range(order), key=lambda l: (c.points[l].real, c.points[l].imag))
    rng = np.random.Generator(np.random.Philox(key=[5, 2]))
    soft = 1.5 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
    hard, _ = phy.hard_slice(soft, c)
    for v, got in zip(soft, hard):
        dists = [(abs(v - c.points[l]) ** 2, i) for i, l in enumerate(by_coord)]
        best = min(dists)[1]
        assert got == c.points[by_coord[best]]


def test_channel_statistics():
    rng = phy.substream(101, 0)
    h = phy.draw_channel(100, 1000, rng)
    power = np.abs(h) ** 2
    assert np.mean(power) == pytest.approx(1.0, abs=0.02)
    flat = h.reshape(-1)
    corr = np.corrcoef(flat[:-1].real, flat[1:].real)[0, 1]
    assert abs(corr) <= 0.02


def test_channel_fixed_seed_is_frozen():
    h = phy.draw_channel(2, 2, phy.substream(12345, 6))
    expected = np.array(
        [
            [-0.74842493 + 0.014538j, 0.14195132 + 0.84237538j],
            [0.04584502 - 0.50263023j, 0.94829189 + 0.31018973j],
        ]
    )
    assert np.allclose(h, expected, atol=1e-8)
    assert np.array_equal(h, phy.draw_channel(2, 2, phy.substream(12345, 6)))


@pytest.mark.parametrize("seed", [0, 1, 777, 2**64 - 1])
@pytest.mark.parametrize("n, u", [(1, 1), (4, 4), (32, 32), (256, 16)])
def test_complex_draws_equal_the_sum_formula(seed, n, u):
    # the draws are built in place; they must stay bitwise
    # (g[0] + 1j g[1]) / sqrt(2) on the same normals
    for index in range(3):
        g = phy.substream(seed, index).standard_normal((2, n, u))
        h = phy.draw_channel(n, u, phy.substream(seed, index))
        assert h.tobytes() == ((g[0] + 1j * g[1]) / np.sqrt(2.0)).tobytes()
        g = phy.substream(seed, index).standard_normal((2, n))
        noise = phy.draw_noise_unit(n, phy.substream(seed, index))
        assert noise.tobytes() == ((g[0] + 1j * g[1]) / np.sqrt(2.0)).tobytes()


def test_substream_keys_every_seed_below_2_64():
    # seeds past 2**63 must not collapse onto their float64 neighbours
    draws = {phy.substream(seed, 0).integers(0, 2**63)
             for seed in (2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)}
    assert len(draws) == 4


def test_noise_variance_and_circularity():
    n = phy.draw_noise_unit(100_000, phy.substream(77, 0))
    assert np.mean(np.abs(n) ** 2) == pytest.approx(1.0, abs=0.025)
    assert np.var(n.real) == pytest.approx(0.5, abs=0.025)
    assert np.var(n.imag) == pytest.approx(0.5, abs=0.025)


def test_sigma2_from_snr():
    assert phy.sigma2_from_snr(0.0, 1) == pytest.approx(1.0)
    assert phy.sigma2_from_snr(10.0, 16) == pytest.approx(1.6)
    assert phy.sigma2_from_snr(7.0, 32) == pytest.approx(2 * phy.sigma2_from_snr(7.0, 16))


def test_channel_hardening():
    # (1/N) H^H H concentrates around the identity as N grows; the mean
    # relative Frobenius deviation for i.i.d. CN(0,1) entries is
    # sqrt(U/N), so 256x16 sits at 0.25 and must beat a 64x16 system
    u = 16

    def mean_dev(n):
        devs = []
        for seed in range(100):
            h = phy.draw_channel(n, u, phy.substream(500 + n, seed))
            g = h.conj().T @ h / n
            devs.append(np.linalg.norm(g - np.eye(u)) / np.linalg.norm(np.eye(u)))
        return float(np.mean(devs))

    wide = mean_dev(256)
    assert wide <= 0.30
    assert wide < mean_dev(64) / 1.5


def test_constellation_csv():
    c = phy.make_constellation(4)
    text = phy.constellation_csv(c)
    lines = text.strip().split("\n")
    assert lines[0] == "label,re,im"
    assert len(lines) == 5
    label, re, im = lines[1].split(",")
    assert label == "00"
    assert complex(float(re), float(im)) == c.points[0]


@pytest.mark.parametrize("order,name", [(4, "qpsk"), (16, "qam16"), (64, "qam64")])
def test_docs_tables_are_current(order, name):
    # the bit-exact tables shipped under docs/ must match the code
    from pathlib import Path

    path = Path(__file__).parents[1] / "docs" / "constellations" / f"{name}.csv"
    assert path.read_text() == phy.constellation_csv(phy.make_constellation(order))


def old_hard_slice_bits(x_soft, c):
    """The bits as ``hard_slice`` formed them on int64 labels."""
    m, half = c.levels_per_axis, c.bits_per_symbol // 2

    def axis(coord):
        return np.clip(np.ceil((coord / c.scale + (m - 1)) / 2.0 - 0.5), 0, m - 1).astype(np.int64)

    labels = (phy.gray_encode(axis(x_soft.real)) << half) | phy.gray_encode(axis(x_soft.imag))
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    return ((labels[..., None] >> shifts) & 1).astype(np.uint8).reshape(-1)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_slice_bits_equal_the_int64_formula(order):
    # every point, every midpoint between neighbours, far outside the
    # grid, and a random stack shaped like the sweep's (points, trials, U)
    c = phy.make_constellation(order)
    levels = np.unique(c.points.real)
    coords = np.concatenate([levels, (levels[1:] + levels[:-1]) / 2, [-1e9, 1e9, 0.0]])
    grid = (coords[:, None] + 1j * coords[None, :]).ravel()
    rng = np.random.Generator(np.random.Philox(key=[order, 9]))
    stack = 1.5 * (rng.standard_normal((3, 5, 7)) + 1j * rng.standard_normal((3, 5, 7)))
    for soft in (grid, stack):
        _, bits = phy.hard_slice(soft, c)
        want = old_hard_slice_bits(soft, c)
        assert bits.dtype == np.uint8 and bits.tobytes() == want.tobytes()
