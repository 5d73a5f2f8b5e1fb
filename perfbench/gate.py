"""Correctness gate: record digests, an independent reference sweep, exact counts.

Every sweep the benchmark times is checked three ways before its numbers
are reported:

* its records equal those of ``reference_records``, a NumPy
  re-implementation of the Monte-Carlo sweep (batched solves in place of
  the counted kernels, nearest-point slicing, the same chunked early
  stop), run on the same Philox draws for the seed the benchmark asked
  for. This works for any seed.
* where ``references.json`` holds a digest for the workload and seed,
  the records' digest equals it. The digests were taken from one-worker
  runs, so a multi-worker sweep must match the one-worker records.
* the exact real-multiplication counts of the workload's shape equal the
  closed forms (decompositions) or the values recorded with the digests.

A digest covers only ``(detector, params, snr_db, trials_run,
bit_errors, bits_total, failures)`` of each record, so columns added to
the CSV later do not move it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
from mimodet import montecarlo, phy
from mimodet.detect import Kind

def record_rows(records) -> list[list]:
    """The gated fields of each record, as JSON-ready rows."""
    return [
        [r.detector, r.params, float(r.snr_db), int(r.trials_run), int(r.bit_errors),
         int(r.bits_total), int(r.failures)]
        for r in records
    ]


def digest(rows: list[list]) -> str:
    text = "\n".join(json.dumps(row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _regularized(g0: np.ndarray, reg: float) -> np.ndarray:
    return g0 + reg * np.eye(g0.shape[-1])


def _solve(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(g, b[..., None])[..., 0]


def _gs(g, b, t):
    x = np.zeros_like(b)
    for _ in range(t):
        for i in range(b.shape[1]):
            s = b[:, i] - np.einsum("bj,bj->b", g[:, i, :i], x[:, :i]) \
                - np.einsum("bj,bj->b", g[:, i, i + 1:], x[:, i + 1:])
            x[:, i] = s / g[:, i, i].real
    return x


def _nsa(g, b, t):
    d_inv = 1.0 / np.einsum("bii->bi", g).real
    e = g.copy()
    e[:, np.arange(g.shape[1]), np.arange(g.shape[1])] = 0.0
    term = d_inv * b
    total = term.copy()
    for _ in range(1, t):
        term = -d_inv * np.einsum("bij,bj->bi", e, term)
        total = total + term
    return total


def _cg(g, b, t):
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rs = np.einsum("bi,bi->b", r.conj(), r).real
    for _ in range(t):
        gp = np.einsum("bij,bj->bi", g, p)
        alpha = rs / np.einsum("bi,bi->b", p.conj(), gp).real
        x = x + alpha[:, None] * p
        r = r - alpha[:, None] * gp
        rs_new = np.einsum("bi,bi->b", r.conj(), r).real
        p = r + (rs_new / rs)[:, None] * p
        rs = rs_new
    return x


def _admin(g, b, t, beta, box):
    def clip(v):
        return np.clip(v.real, -box, box) + 1j * np.clip(v.imag, -box, box)

    x = _solve(g, b)
    z = clip(x)
    lam = x - z
    for _ in range(1, t):
        x = _solve(g, b + beta * (z - lam))
        z = clip(x + lam)
        lam = lam + (x - z)
    return x


def _slice_bits(soft: np.ndarray, const) -> np.ndarray:
    """Bits of the nearest constellation point, (trials, users * bits)."""
    labels = np.abs(soft[..., None] - const.points).argmin(axis=-1)
    shifts = np.arange(const.bits_per_symbol - 1, -1, -1)
    bits = (labels[..., None] >> shifts) & 1
    return bits.reshape(soft.shape[0], -1).astype(np.uint8)


def _chunk_errors(config, snr_db, lo, hi, const) -> list[int]:
    sigma2 = config.u / 10.0 ** (snr_db / 10.0)
    draws = [montecarlo.trial_realization(config, sigma2, t) for t in range(lo, hi)]
    bits = np.stack([d[0] for d in draws])
    x = np.stack([d[1] for d in draws])
    h = np.stack([d[2] for d in draws])
    noise = np.stack([d[3] for d in draws])
    y = np.einsum("bnu,bu->bn", h, x) + noise
    hh = h.conj().transpose(0, 2, 1)
    g0 = hh @ h
    x_mf = np.einsum("bun,bn->bu", hh, y)
    out = []
    for spec in config.detectors:
        if spec.kind is Kind.SIMO:
            # per-user matched filter on the interference-free signal
            yk = h * x[:, None, :] + noise[:, :, None]
            soft = np.einsum("bnu,bnu->bu", h.conj(), yk) / np.einsum(
                "bnu,bnu->bu", h.conj(), h).real
        elif spec.kind in (Kind.ZF, Kind.MMSE):
            soft = _solve(_regularized(g0, sigma2 if spec.kind is Kind.MMSE else 0.0), x_mf)
        elif spec.kind is Kind.NSA:
            soft = _nsa(_regularized(g0, sigma2), x_mf, spec.iterations)
        elif spec.kind is Kind.GS:
            soft = _gs(_regularized(g0, sigma2), x_mf, spec.iterations)
        elif spec.kind is Kind.CG:
            soft = _cg(_regularized(g0, sigma2), x_mf, spec.iterations)
        elif spec.kind is Kind.ADMIN:
            beta = spec.admin_beta(sigma2)
            soft = _admin(_regularized(g0, beta), x_mf, spec.iterations, beta, const.box_radius)
        else:
            raise ValueError(f"no reference for detector {spec.kind}")
        out.append(int(np.count_nonzero(_slice_bits(soft, const) != bits)))
    return out


def reference_records(config, seed: int) -> list[list]:
    """Expected record rows of ``run_sweep(config)`` for master seed ``seed``.

    Follows the engine's stated contract: trials in chunks of
    ``chunk_size``; a detector's tally freezes at the end of the chunk in
    which it reached ``stop_at_errors``; a point ends once every detector
    has stopped. The draws come from ``montecarlo.trial_realization``
    with the requested seed, so a sweep that ran another seed fails.
    """
    config = dataclasses.replace(config, master_seed=seed)
    const = phy.make_constellation(config.order)
    bits_per_trial = config.u * const.bits_per_symbol
    ndet = len(config.detectors)
    rows = []
    for snr in config.snr_db:
        errors = [0] * ndet
        trials_run = [config.trials] * ndet
        stopped = [False] * ndet
        for lo in range(0, config.trials, config.chunk_size):
            hi = min(lo + config.chunk_size, config.trials)
            chunk = _chunk_errors(config, snr, lo, hi, const)
            for d in range(ndet):
                if stopped[d]:
                    continue
                errors[d] += chunk[d]
                if config.stop_at_errors is not None and errors[d] >= config.stop_at_errors:
                    stopped[d] = True
                    trials_run[d] = hi
            if all(stopped):
                break
        for d, spec in enumerate(config.detectors):
            rows.append([spec.name, spec.params, float(snr), trials_run[d], errors[d],
                         trials_run[d] * bits_per_trial, 0])
    return rows


def check_rows(rows: list[list], expected: list[list], stored_digest: str | None) -> list[str]:
    """Mismatches of one sweep's rows; an empty list means the sweep passed."""
    problems = []
    if rows != expected:
        bad = [i for i, (a, b) in enumerate(zip(rows, expected)) if a != b]
        if len(rows) != len(expected):
            problems.append(f"{len(rows)} records, reference has {len(expected)}")
        for i in bad[:3]:
            problems.append(f"record {i}: got {rows[i]}, reference {expected[i]}")
    if stored_digest is not None and digest(rows) != stored_digest:
        problems.append(f"digest {digest(rows)[:12]} != stored {stored_digest[:12]}")
    return problems


def check_counts(counts: dict, recorded: dict | None) -> list[str]:
    """Exact-count mismatches: decompositions against their closed forms,
    everything else against the values recorded at the reference commit."""
    problems = []
    for name, got in counts["factor_real_mul"].items():
        want = counts["formula_real_mul"][name]
        if got != want:
            problems.append(f"{name} real_mul {got} != closed form {want}")
    if recorded is not None:
        for name, want in recorded.items():
            got = counts["real_mul"].get(name)
            if got != want:
                problems.append(f"real_mul.{name} {got} != recorded {want}")
    return problems
