"""The real structured spectral layer: parity-split tridiagonal generators,
the one real Jx basis that serves x and y rotations, and the bounds of
the spectral caches."""

import numpy as np
import pytest
import scipy.linalg as sla

from spinsqueeze import dicke, hamiltonians, propagator, protocols
from spinsqueeze.dicke import DickeState, axis_eigensystem, dim_for, make_css, rotate_block, spin_matrix
from spinsqueeze.hamiltonians import DriveEnvelope, matrix
from spinsqueeze.propagator import full_hilbert_oracle, period_operators, spectral

from drive_helpers import dense_axis_basis

J_VALUES = [0.5, 1, 1.5, 2.5, 30]

# (name, (cz, cx, cy)) for every quadratic generator the engine diagonalizes;
# mixture-1.0 has a zero band
GENERATORS = [
    ("tact", (1.0, 0.0, -1.0)),
    ("quadratic-x", (0.0, 1.0, 0.0)),
    ("quadratic-y", (0.0, 0.0, 1.0)),
    ("quadratic-z", (1.0, 0.0, 0.0)),
    ("pulse-effective", (1.0 / 3.0, 2.0 / 3.0, 0.0)),
    *[(f"mixture-{a0}", (a0, 1.0 - a0, 0.0)) for a0 in (1.0, 0.5, -0.4)],
]


def random_block(j, cols, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim_for(j), cols)) + 1j * rng.normal(size=(dim_for(j), cols))
    return x / np.linalg.norm(x, axis=0)


def spin_squares(j, coeffs):
    """cz*Jz^2 + cx*Jx^2 + cy*Jy^2 from dense spin operators, independent
    of the band formulas."""
    ops = [spin_matrix(j, unit) for unit in ((0, 0, 1), (1, 0, 0), (0, 1, 0))]
    return sum(c * (op @ op) for c, op in zip(coeffs, ops))


@pytest.mark.parametrize("j", J_VALUES)
@pytest.mark.parametrize("name,coeffs", GENERATORS, ids=[g[0] for g in GENERATORS])
def test_parity_split_matches_dense_eigh(j, name, coeffs):
    h = spin_squares(j, coeffs)
    scale = max(1.0, j * j)
    assert np.max(np.abs(matrix(j, *coeffs) - h)) <= 1e-12 * scale
    vals, vecs = sla.eigh(h)
    prop = spectral(float(j), *coeffs)
    split = np.sort(np.concatenate([block_vals for _, block_vals, _ in prop.blocks]))
    assert np.max(np.abs(split - vals)) <= 1e-12 * scale
    x = random_block(j, 3)
    for t in (0.0, 0.37, 2.1):
        want = vecs @ (np.exp(-1j * t * vals)[:, None] * (vecs.conj().T @ x))
        got = prop.synthesize(prop.coefficients(x), [t])
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(prop.evolve(DickeState(j, x[:, 0]), t).amplitudes - want[:, 0])) <= 1e-12
        if 2 * j <= 10:  # the 2^N tensor-product oracle, from a tilted coherent state
            css = make_css(j, 0.9, 0.3)
            oracle, _ = full_hilbert_oracle(css, coeffs, t)
            assert np.max(np.abs(prop.evolve(css, t).amplitudes - oracle.amplitudes)) <= 1e-10


@pytest.mark.parametrize("j", J_VALUES)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_real_basis_rotations_match_expm(j, axis):
    unit = (float(axis == "x"), float(axis == "y"), 0.0)
    op = spin_matrix(j, unit)
    x = random_block(j, 3, seed=1)
    want = sla.expm(-1j * 0.83 * op) @ x
    assert np.max(np.abs(rotate_block(j, x, unit, 0.83) - want)) <= 1e-12
    angles = np.array([0.3, -1.7, np.pi])
    want = np.stack([sla.expm(-1j * a * op) @ x[:, r] for r, a in enumerate(angles)], axis=1)
    assert np.max(np.abs(rotate_block(j, x, unit, angles) - want)) <= 1e-12


@pytest.mark.parametrize("j", J_VALUES)
def test_axis_basis_is_real_and_snapped(j):
    vals, vecs = dense_axis_basis(j)
    assert vecs.dtype == np.float64
    assert np.array_equal(vals, np.round(2 * vals) / 2)
    jx = spin_matrix(j, (1, 0, 0)).real
    assert np.max(np.abs(jx @ vecs - vecs * vals)) <= 1e-9 * j
    assert np.max(np.abs(vecs.T @ vecs - np.eye(dim_for(j)))) <= 1e-12


@pytest.mark.parametrize(
    "cached,call",
    [
        (axis_eigensystem, lambda j: axis_eigensystem(j)),
        (spectral, lambda j: spectral(j, 1.0, 0.0, -1.0)),
        (period_operators, lambda j: period_operators(j, 1.0, DriveEnvelope(2.0, 10.0, 0.3), 16)),
    ],
    ids=["axis_eigensystem", "spectral", "period_operators"],
)
def test_caches_are_bounded(cached, call):
    limit = cached.cache_info().maxsize
    assert limit is not None
    for k in range(1, limit + 4):
        call(k / 2)
        assert cached.cache_info().currsize <= limit
    assert cached.cache_info().currsize == limit


def test_every_cache_has_a_bound():
    caches = {
        f"{mod.__name__}.{name}": obj.cache_parameters()["maxsize"]
        for mod in (dicke, hamiltonians, propagator, protocols)
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_parameters")
    }
    assert "spinsqueeze.dicke.ladder_values" in caches
    assert [name for name, maxsize in caches.items() if maxsize is None] == []
