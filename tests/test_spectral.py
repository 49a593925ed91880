"""The real structured spectral layer: the reversal classes of the tridiagonal
generators, built only where a state populates them, the one real Jx basis
that serves x and y rotations, and the bounds of the spectral caches."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla

from spinsqueeze import dicke, hamiltonians, propagator, protocols
from spinsqueeze.diagnostics import squeezing_columns
from spinsqueeze.dicke import (
    DickeState,
    axis_eigensystem,
    dim_for,
    make_css,
    make_dicke_state,
    rotate_block,
    spin_matrix,
)
from spinsqueeze.hamiltonians import DriveEnvelope, alpha0, matrix, quadratic_bands
from spinsqueeze.propagator import SpectralPropagator, full_hilbert_oracle, period_operators, spectral

from drive_helpers import dense_axis_basis

J_VALUES = [0.5, 1, 1.5, 2.5, 30, 30.5]

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
    split = np.sort(np.concatenate([prop.eigensystem(c)[0] for c in range(len(prop.classes))]))
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


def counted_build(prop, state):
    """prop's coefficients and a 16-time synthesis of state, with the eigh_tridiagonal calls and
    the basis products they made."""
    with (
        mock.patch.object(propagator.sla, "eigh_tridiagonal", wraps=sla.eigh_tridiagonal) as solves,
        mock.patch.object(propagator, "basis_product", wraps=propagator.basis_product) as products,
    ):
        coeffs = prop.coefficients(state.amplitudes[:, None])
        prop.synthesize(coeffs, np.linspace(0.0, 0.1, 16))
    return coeffs, [call.args[0] for call in solves.call_args_list], products.call_count


@pytest.mark.parametrize("n", [300, 301])
def test_symmetric_state_builds_only_symmetric_classes(n):
    # the x state is exactly reversal-symmetric: an odd dim (even N) populates the s folds of both
    # parities, classes 0 and 2; an even dim populates class 0, the s half of the one eigensystem
    state = protocols._css_x(n)
    assert np.array_equal(state.amplitudes, state.amplitudes[::-1])
    prop = SpectralPropagator(*quadratic_bands(n / 2, 1.0, 0.0, -1.0))
    coeffs, solved, products = counted_build(prop, state)
    built = (0, 2) if n % 2 == 0 else (0,)
    assert [c is None for c in coeffs] == [c not in built for c in range(len(prop.classes))]
    assert len(solved) == len(built)
    assert all(d is prop.tridiagonals[prop.classes[c]][0] for d, c in zip(solved, built))
    assert products == 2 * len(built)  # one coefficient and one synthesis product per populated class


def test_north_pole_builds_no_odd_parity_class():
    # |j, j> of an odd dim lies on the even basis indices: their s and a folds, classes 0 and 1
    prop = SpectralPropagator(*quadratic_bands(150, 1.0 / 3.0, 2.0 / 3.0, 0.0))
    coeffs, solved, products = counted_build(prop, make_dicke_state(150, 150))
    assert [c is None for c in coeffs] == [False, False, True, True]
    assert len(solved) == 2 and all(d is prop.tridiagonals[c][0] for d, c in zip(solved, (0, 1)))
    assert products == 4


def dense_xi2(n, coeffs, state, times):
    """xi^2 of state evolved under cz*Jz^2 + cx*Jx^2 + cy*Jy^2 through a dense eigh."""
    vals, vecs = sla.eigh(matrix(n / 2, *coeffs))
    block = vecs @ (np.exp(-1j * np.outer(vals, times)) * (vecs.T @ state.amplitudes)[:, None])
    return squeezing_columns(n / 2, block).xi2


@pytest.mark.parametrize("n", [100, 101, 400])
def test_records_match_dense_evolution(n):
    # an implementation-independent pin: each spectral record within 1e-9 relative of dense eigh
    times = np.linspace(0.0, 2 * protocols.t_opt_protocol(n), 100)
    a0 = alpha0(protocols.PAPER_RATIO)
    x_state, pole = protocols._css_x(n), make_dicke_state(n / 2, n / 2)
    tact = protocols.reference_runs(n, "tact")
    drive = protocols.effective_drive_record(n, protocols.PAPER_RATIO, times)
    pulse = protocols.effective_pulse_record(n, 1.0, times)
    cases = [
        (tact.xi2(), (1.0, 0.0, -1.0), x_state, tact.times()),
        (drive.xi2(), (a0, 1 - a0, 0.0), x_state, times),
        (pulse.xi2(), (1 / 3, 2 / 3, 0.0), pole, times),
    ]
    for got, coeffs, state, at in cases:
        want = dense_xi2(n, coeffs, state, at)
        assert np.max(np.abs(got - want) / want) <= 1e-9


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
        (period_operators, lambda j: period_operators(j, DriveEnvelope(2.0, 10.0, 0.3), 16)),
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
