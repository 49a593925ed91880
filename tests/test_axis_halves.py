"""The half-size Jx eigenbasis: U_s and U_a against the dense eigenpairs of Jx,
fold (W^T) and unfold (W), the junction blocks in both of _junction's branches, the form of
the reversal R = W^T Rz(pi) W, and x and y rotations against expm.

Two mutations of dicke.axis_eigensystem make all five tests fail at some N:
dropping the sqrt(2) on the odd-dim middle coupling (the eigenvalues then miss
the half-integer snap, and axis_eigensystem raises), and swapping the classes,
U_s for U_a."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze.dicke import _rotate_axis, axis_eigensystem, dim_for, fold, m_values, spin_matrix, unfold
from spinsqueeze.hamiltonians import DriveEnvelope
from spinsqueeze.propagator import _junction, _PeriodOperators, junction_blocks

from drive_helpers import dense_axis_basis

SIZES = [1, 2, 5, 6, 41, 100]  # N; odd N has even dim


def random_block(dim, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))


@pytest.mark.parametrize("n", SIZES)
def test_halves_match_dense_eigenpairs(n):
    j, dim = n / 2, n + 1
    vals, us, ua = axis_eigensystem(j)
    assert (len(us), len(ua)) == ((dim + 1) // 2, dim // 2)
    for u in (us, ua):
        assert u.dtype == np.float64
        assert np.max(np.abs(u.T @ u - np.eye(len(u)))) <= 1e-12
    dense_vals, dense_vecs = np.linalg.eigh(spin_matrix(j, (1, 0, 0)).real)
    w = dense_axis_basis(j)[1]
    # each frame column is the dense eigenvector of its eigenvalue, up to sign
    idx = np.round(vals + j).astype(int)
    assert np.max(np.abs(vals - dense_vals[idx])) <= 1e-12
    signs = np.sign(np.sum(w * dense_vecs[:, idx], axis=0))
    assert np.max(np.abs(w - dense_vecs[:, idx] * signs)) <= 1e-12
    # the s class is symmetric under m -> -m and holds j - lambda even; the a class the rest
    ns = len(us)
    assert np.array_equal(w[::-1, :ns], w[:, :ns]) and np.array_equal(w[::-1, ns:], -w[:, ns:])
    assert np.all(np.round(j - vals[:ns]) % 2 == 0) and np.all(np.round(j - vals[ns:]) % 2 == 1)


@pytest.mark.parametrize("n", SIZES)
def test_fold_then_unfold_is_the_identity(n):
    # fold is W^T and unfold W, each two half-size products; W is orthogonal
    j = n / 2
    x = random_block(n + 1, 3, seed=n)
    c = fold(j, x)
    assert np.max(np.abs(c - dense_axis_basis(j)[1].T @ x)) <= 1e-13 * np.max(np.abs(x))
    assert np.max(np.abs(unfold(j, c) - x)) <= 1e-13 * np.max(np.abs(x))
    assert np.allclose(np.linalg.norm(c, axis=0), np.linalg.norm(x, axis=0), rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ratio", [1.0, 0.37], ids=["on-grid", "off-grid"])
def test_junction_matches_dense_blocks(n, ratio):
    # on-grid lengths take junction_blocks, off-grid ones the path through z
    j, h = n / 2, 0.29
    w = dense_axis_basis(j)[1]
    dense = w.T @ (np.exp(-1j * ratio * h * m_values(j) ** 2)[:, None] * w)
    y = random_block(n + 1, 2, seed=n)
    assert np.max(np.abs(_junction(j, y, ratio * h, h) - dense @ y)) <= 1e-12
    if ratio == 1.0:
        ns = (n + 2) // 2
        blocks = junction_blocks(j, h)
        assert np.max(np.abs(blocks[0] - dense[:ns, :ns])) <= 1e-13
        assert np.max(np.abs(blocks[1] - dense[ns:, ns:])) <= 1e-13


@pytest.mark.parametrize("n", SIZES)
def test_reversal_form(n):
    # R keeps the classes and reverses each for even N; for odd N it reverses the
    # whole frame, so it swaps them; its entries are +-1 (even N) or +-i (odd N)
    j, dim, ns = n / 2, n + 1, (n + 2) // 2
    w = dense_axis_basis(j)[1]
    dense = w.T @ (np.exp(-1j * np.pi * m_values(j))[:, None] * w)
    ops = _PeriodOperators(j, DriveEnvelope(0.9 * 2 * np.pi * 40, 2 * np.pi * 40, 0.3), 16)
    if n % 2 == 0:
        want = np.r_[np.arange(ns)[::-1], ns + np.arange(dim - ns)[::-1]]
    else:
        want = np.arange(dim)[::-1]
    assert np.array_equal(ops.perm, want)
    r = np.zeros((dim, dim), dtype=complex)
    r[ops.perm, np.arange(dim)] = ops.phase[:, 0]
    assert np.max(np.abs(r - dense)) <= 1e-12
    assert set(ops.phase[:, 0].tolist()) <= ({1, -1} if n % 2 == 0 else {1j, -1j})


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    axis=st.sampled_from(["x", "y"]),
    angle=st.floats(-2 * np.pi, 2 * np.pi),
    cols=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_rotate_axis_matches_expm(n, axis, angle, cols, seed):
    j = n / 2
    x = random_block(dim_for(j), cols, seed)
    want = sla.expm(-1j * angle * spin_matrix(j, (float(axis == "x"), float(axis == "y"), 0.0))) @ x
    got = _rotate_axis(j, x, axis, angle)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
