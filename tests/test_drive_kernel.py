"""The drive kernel in the Jy eigenbasis: the parity blocks of the fused
Jz^2 junction, split steps against a dense product of exact exponentials,
the period operators against plain split stepping, and the bound of the
junction cache."""

import numpy as np
import pytest
import scipy.linalg as sla

from spinsqueeze.dicke import axis_eigensystem, dim_for, m_values, spin_matrix
from spinsqueeze.hamiltonians import DriveEnvelope, drive_integral, matrix, quadratic
from spinsqueeze.propagator import (
    DrivenEngine,
    _aligned_grid,
    _PeriodOperators,
    _split_steps,
    junction_blocks,
)

PHASES = [0.0, 0.3, np.pi / 2, -np.pi / 2, 0.9]
SPP = 32


def envelope(phase, omega=2 * np.pi * 40.0):
    return DriveEnvelope(0.9057 * omega, omega, phase)


def random_block(j, cols, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim_for(j), cols)) + 1j * rng.normal(size=(dim_for(j), cols))
    return x / np.linalg.norm(x, axis=0)


def dense_split_steps(j, chi, env, grid):
    """Strang steps as one dense product of expm factors."""
    jz2 = matrix(j, quadratic("z"))
    jy = spin_matrix(j, (0, 1, 0))
    u = np.eye(dim_for(j), dtype=complex)
    for a, b in zip(grid[:-1], grid[1:]):
        half = sla.expm(-0.5j * chi * (b - a) * jz2)
        u = half @ sla.expm(-1j * drive_integral(env, a, b) * jy) @ half @ u
    return u


@pytest.mark.parametrize("j", [1.5, 2.5, 3, 20, 20.5])
def test_junction_is_block_diagonal_by_parity(j):
    vals, vecs = axis_eigensystem(j)
    classes = np.round(vals + j).astype(int) % 2
    assert np.array_equal(classes, np.arange(dim_for(j)) % 2)
    chi_h = 0.37
    dense = vecs.T @ (np.exp(-1j * chi_h * m_values(j) ** 2)[:, None] * vecs)
    off = dense[np.ix_(classes == 0, classes == 1)]
    assert np.max(np.abs(off)) <= 1e-13
    for p, block in enumerate(junction_blocks(j, chi_h)):
        assert np.max(np.abs(block - dense[np.ix_(classes == p, classes == p)])) <= 1e-13


@pytest.mark.parametrize("n", [5, 6, 40])
@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize(
    "span",
    [(0.37, 9.55), (0.0, 6.0), (2.4, 3.1), (5.2, 5.7), (3.0, 11.25)],
    ids=["both-ends-off-grid", "on-grid", "two-partial-steps", "one-partial-step", "end-off-grid"],
)
def test_split_steps_match_dense_product(n, phase, cols, span):
    j, chi = n / 2, 1.0
    env = envelope(phase)
    h = env.period / SPP
    t0, t1 = span[0] * h, span[1] * h
    x = random_block(j, cols, seed=n)
    want = dense_split_steps(j, chi, env, _aligned_grid(t0, t1, h)) @ x
    got = _split_steps(j, x, chi, env, h, t0, t1)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n", [5, 6, 40])
@pytest.mark.parametrize("phase", PHASES)
def test_half_period_operators_match_split_steps(n, phase):
    j, chi = n / 2, 1.0
    env = envelope(phase)
    h, half = env.period / SPP, env.period / 2
    ops = _PeriodOperators(j, chi, env, SPP)
    x = random_block(j, 2, seed=n)
    first = _split_steps(j, x, chi, env, h, 0.0, half)
    second = _split_steps(j, x, chi, env, h, half, 2 * half)
    assert np.max(np.abs(ops.jump(x, 0) - first)) <= 1e-12
    assert np.max(np.abs(ops.jump(x, 1) - second)) <= 1e-12
    assert np.max(np.abs(ops.u_half.conj().T @ ops.u_half - np.eye(dim_for(j)))) <= 1e-12


@pytest.mark.parametrize("n", [6, 41, 100])
@pytest.mark.parametrize("phase", PHASES)
def test_period_operator_path_matches_plain_split_stepping(n, phase):
    j, chi = n / 2, 1.0
    env = envelope(phase, omega=2 * np.pi * 300.0)
    t0, t1 = 0.123 * env.period, 23.61 * env.period
    x = random_block(j, 1, seed=n)[:, 0]
    direct = DrivenEngine(j, chi, env, SPP)
    fast = DrivenEngine(j, chi, env, SPP, t1 - t0)
    assert direct._ops is None and fast._ops is not None
    a = direct.advance(x, t0, t1)
    b = fast.advance(x, t0, t1)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_junction_cache_is_bounded():
    limit = junction_blocks.cache_info().maxsize
    assert limit is not None
    for k in range(1, limit + 4):
        junction_blocks(2.5, 0.01 * k)
        assert junction_blocks.cache_info().currsize <= limit
    assert junction_blocks.cache_info().currsize == limit
