import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg as sla

from spinsqueeze.diagnostics import mean_spin
from spinsqueeze.dicke import (
    DickeState,
    RotationSpec,
    apply_spin,
    css_amplitudes,
    fidelity,
    make_css,
    make_dicke_state,
    rotate,
    rotate_classical,
    rotate_vector,
    spin_matrix,
)
from spinsqueeze.errors import DomainError
from spinsqueeze.propagator import dicke_isometry, full_spin_ops

UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def second_moment(state, unit_a, unit_b):
    """<A B> for A = unit_a . J and B = unit_b . J, as the inner product of
    A|state> and B|state> (A is Hermitian)."""
    j, amps = state.j, state.amplitudes
    return complex(np.vdot(apply_spin(j, unit_a, amps), apply_spin(j, unit_b, amps)))


def dense_rotation(j, axis, angle):
    return sla.expm(-1j * angle * spin_matrix(j, axis))


class TestBasisStates:
    def test_basis_vector_top(self):
        s = make_dicke_state(1, 1)
        assert np.allclose(s.amplitudes, [1, 0, 0])

    def test_basis_vector_bottom_half_integer(self):
        s = make_dicke_state(2.5, -2.5)
        expected = np.zeros(6)
        expected[-1] = 1
        assert np.allclose(s.amplitudes, expected)

    def test_out_of_range_m(self):
        with pytest.raises(DomainError):
            make_dicke_state(1, 2)

    def test_non_half_integer_j(self):
        with pytest.raises(DomainError):
            make_dicke_state(0.7, 0)

    def test_wrong_length_amplitudes(self):
        with pytest.raises(DomainError):
            DickeState(1, np.array([1.0, 0.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            DickeState(1, np.array([1.0, 1.0, 0.0]))


class TestOperators:
    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 5])
    def test_commutators_cyclic(self, j):
        jx, jy, jz = (spin_matrix(j, unit) for unit in UNITS)
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12

    @pytest.mark.parametrize("j", [0.5, 1, 2.5])
    def test_hermitian(self, j):
        for unit in UNITS:
            mat = spin_matrix(j, unit)
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_ladder_entries(self):
        jp = spin_matrix(1, (1, 0, 0)) + 1j * spin_matrix(1, (0, 1, 0))
        # <1,1|J+|1,0> = <1,0|J+|1,-1> = sqrt(2)
        assert jp[0, 1] == pytest.approx(np.sqrt(2))
        assert jp[1, 2] == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "coeffs", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.3, -1.2, 0.8), (-2.0, 0.5, -0.7)]
    )
    def test_spin_action_matches_full_space_oracle(self, n, coeffs):
        # the symmetric-subspace block of the collective spin, built from
        # 2^N tensor products: independent of the ladder values
        iso = dicke_isometry(n)
        full = sum(c * op for c, op in zip(coeffs, full_spin_ops(n)))
        want = iso.conj().T @ full @ iso
        assert np.max(np.abs(spin_matrix(n / 2, coeffs) - want)) <= 1e-12
        rng = np.random.default_rng(n)
        vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        assert np.max(np.abs(apply_spin(n / 2, coeffs, vec) - want @ vec)) <= 1e-12

    def test_expectation_eigenstate(self):
        s = make_dicke_state(3, 3)
        assert mean_spin(s)[2] == pytest.approx(3.0)

    def test_second_moment_css_variance(self):
        # <Jz^2> on the x-pointing CSS is N/4 with N = 2j
        for j in (1, 5, 12.5):
            val = second_moment(make_css(j, np.pi / 2, 0.0), (0, 0, 1), (0, 0, 1))
            assert val.real == pytest.approx(j / 2, rel=1e-10)
            assert abs(val.imag) < 1e-12

    def test_second_moment_jx2_on_m0(self):
        s = make_dicke_state(1, 0)
        assert second_moment(s, (1, 0, 0), (1, 0, 0)).real == pytest.approx(1.0)

    def test_second_moment_variance_inequality(self):
        rng = np.random.default_rng(7)
        j = 4
        vec = rng.normal(size=9) + 1j * rng.normal(size=9)
        s = DickeState(j, vec / np.linalg.norm(vec))
        for unit, mean in zip(UNITS, mean_spin(s)):
            assert second_moment(s, unit, unit).real >= mean**2 - 1e-12


class TestRotations:
    def test_north_pole_to_x(self):
        s = rotate(make_dicke_state(4, 4), RotationSpec((0, 1, 0), np.pi / 2))
        assert np.allclose(mean_spin(s), [4, 0, 0], atol=1e-9)

    def test_spin_flip(self):
        s = rotate(make_dicke_state(3, 3), RotationSpec((1, 0, 0), np.pi))
        assert fidelity(s, make_dicke_state(3, -3)) == pytest.approx(1.0, abs=1e-10)

    def test_wigner_d_column_j1(self):
        # |1,0> rotated by pi/2 about y, against the dense expm oracle
        s = rotate(make_dicke_state(1, 0), RotationSpec((0, 1, 0), np.pi / 2))
        oracle = dense_rotation(1, (0, 1, 0), np.pi / 2) @ np.array([0, 1, 0], complex)
        assert np.allclose(s.amplitudes, oracle, atol=1e-12)

    @pytest.mark.parametrize("axis", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    def test_axis_rotation_matches_expm(self, axis):
        rng = np.random.default_rng(3)
        j = 2.5
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec /= np.linalg.norm(vec)
        angle = 0.7321
        got = rotate_vector(j, vec, RotationSpec(axis, angle))
        want = dense_rotation(j, axis, angle) @ vec
        assert np.max(np.abs(got - want)) < 1e-11

    def test_general_axis_matches_expm(self):
        rng = np.random.default_rng(5)
        j = 2
        for _ in range(5):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-3, 3)
            vec = rng.normal(size=5) + 1j * rng.normal(size=5)
            vec /= np.linalg.norm(vec)
            got = rotate_vector(j, vec, RotationSpec(tuple(axis), angle))
            want = dense_rotation(j, tuple(axis), angle) @ vec
            assert np.max(np.abs(got - want)) < 1e-10

    def test_mean_spin_transforms_classically(self):
        rng = np.random.default_rng(11)
        j = 6
        state = make_css(j, 1.1, 0.4)
        for _ in range(4):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, 2 * np.pi)
            rotated = rotate(state, RotationSpec(tuple(axis), angle))
            expected = rotate_classical(mean_spin(state), axis, angle)
            assert np.allclose(mean_spin(rotated), expected, atol=1e-8 * j)

    def test_group_action_composition(self):
        rng = np.random.default_rng(13)
        for j in (1.5, 4, 10):
            state = make_css(j, 0.9, 2.0)
            a1 = rng.normal(size=3)
            a1 /= np.linalg.norm(a1)
            a2 = rng.normal(size=3)
            a2 /= np.linalg.norm(a2)
            t1, t2 = rng.uniform(0, np.pi, size=2)
            seq = rotate(rotate(state, RotationSpec(tuple(a1), t1)), RotationSpec(tuple(a2), t2))
            # compose the two rotations into one axis/angle via dense matrices
            u = dense_rotation(j, tuple(a2), t2) @ dense_rotation(j, tuple(a1), t1)
            composed = DickeState(j, u @ state.amplitudes)
            assert fidelity(seq, composed) == pytest.approx(1.0, abs=1e-9)

    def test_norm_preserved(self):
        s = make_css(50, 0.3, 0.2)
        r = rotate(s, RotationSpec((0, 1, 0), 1.234))
        assert r.norm_error() < 1e-10

    def test_non_unit_axis_rejected(self):
        with pytest.raises(DomainError):
            RotationSpec((1, 1, 0), 0.5)
        for axis in ((np.nan, 0, 0), (1, np.nan, 0)):  # abs(nan - 1) > tol is False: NaN must fail too
            with pytest.raises(DomainError, match="unit length"):
                RotationSpec(axis, 0.5)


class TestCss:
    def test_north_pole(self):
        for j in (0.5, 3, 7.5):
            s = make_css(j, 0.0, 1.3)
            assert fidelity(s, make_dicke_state(j, j)) == pytest.approx(1.0, abs=1e-12)

    def test_x_pointing_definition(self):
        # CSS(pi/2, 0) must equal exp(-i pi Jy / 2)|j,j>
        j = 6
        direct = rotate(make_dicke_state(j, j), RotationSpec((0, 1, 0), np.pi / 2))
        assert fidelity(make_css(j, np.pi / 2, 0.0), direct) == pytest.approx(
            1.0, abs=1e-12
        )
        assert np.allclose(mean_spin(direct), [j, 0, 0], atol=1e-9)

    def test_spin_half_y_pointing(self):
        # closed 2x2 rotation by hand: amplitudes (1/sqrt2, i/sqrt2) up to phase
        s = make_css(0.5, np.pi / 2, np.pi / 2)
        ref = np.array([1.0, 1j]) / np.sqrt(2)
        assert abs(np.vdot(ref, s.amplitudes)) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(mean_spin(s), [0, 0.5, 0], atol=1e-12)

    @pytest.mark.parametrize("j", [0.5, 2, 10.5, 40])
    def test_mean_spin_direction(self, j):
        theta, phi = 1.05, 4.4
        s = make_css(j, theta, phi)
        want = j * np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        assert np.allclose(mean_spin(s), want, atol=1e-9 * j)

    @pytest.mark.parametrize("j", [0.5, 1, 9.5, 100])
    def test_closed_form_matches_rotation(self, j):
        for theta, phi in ((0.3, 0.0), (1.8, 2.2), (np.pi / 2, 5.9)):
            a = make_css(j, theta, phi).amplitudes
            b = css_amplitudes(j, theta, phi)
            assert abs(np.vdot(a, b)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 400, 1250, 4000])
    def test_closed_form_matches_exact_binomials(self, n):
        # sqrt(binom(n, k)) cos^(n-k) sin^k, normalized, in 60-digit decimals from exact binomials;
        # the largest entry error measured is 4.7e-13 of the peak, at n = 4000 and theta = pi/2
        with localcontext() as ctx:
            ctx.prec = 60
            roots = [Decimal(math.comb(n, k)).sqrt() for k in range(n + 1)]
            for theta in (0.0, 0.3, np.pi / 2, 2.9, np.pi):
                c, s = (max(Decimal(f(theta / 2)), Decimal("1e-300")) for f in (math.cos, math.sin))
                exact = [r * c ** (n - k) * s**k for k, r in enumerate(roots)]
                norm = sum(a * a for a in exact).sqrt()
                want = np.array([float(a / norm) for a in exact])
                got = css_amplitudes(n / 2, theta, 0.0)
                assert np.max(np.abs(got - want)) <= 1e-12 * want.max(), theta

    @pytest.mark.parametrize("build", [make_css, css_amplitudes])
    @pytest.mark.parametrize("theta,phi,name", [(np.nan, 0.0, "theta"), (np.inf, 0.0, "theta"),
                                                (0.3, np.inf, "phi"), (0.3, np.nan, "phi"), (0.3, -np.inf, "phi")])
    def test_non_finite_angle_is_named(self, build, theta, phi, name):
        with pytest.raises(DomainError, match=rf"^{name} must be finite"):
            build(5, theta, phi)

    def test_casimir(self):
        for j in (0.5, 2, 9):
            s = make_css(j, 0.77, 1.2)
            total = sum(second_moment(s, unit, unit).real for unit in UNITS)
            assert abs(total - j * (j + 1)) < 1e-9 * max(1.0, j**2)


class TestSnapshot:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        vec = rng.normal(size=12) + 1j * rng.normal(size=12)
        state = DickeState(5.5, vec / np.linalg.norm(vec))
        path = tmp_path / "state.json"
        state.save(path)
        back = DickeState.load(path)
        assert back.j == state.j
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_snapshot_schema(self):
        state = make_css(2, 0.4, 0.1)
        data = json.loads(state.to_snapshot_json())
        assert data["N"] == 4
        assert data["j"] == 2
        assert data["basis"] == "Jz-descending"
        assert len(data["amplitudes"]) == 5
        assert all(len(pair) == 2 for pair in data["amplitudes"])

    def test_wrong_basis_rejected(self):
        state = make_css(1, 0.4, 0.1)
        data = json.loads(state.to_snapshot_json())
        data["basis"] = "Jz-ascending"
        with pytest.raises(DomainError):
            DickeState.from_snapshot(data)

    @pytest.mark.parametrize("key", ["N", "j", "amplitudes"])
    def test_missing_field_named(self, key):
        data = json.loads(make_css(1, 0.4, 0.1).to_snapshot_json())
        del data[key]
        with pytest.raises(DomainError, match=f"'{key}'"):
            DickeState.from_snapshot(data)

    @pytest.mark.parametrize("value", [2.5, True, float("inf"), "2.5"])
    def test_non_integral_n_is_malformed(self, value):
        data = json.loads(make_css(1, 0.4, 0.1).to_snapshot_json())
        data["N"] = value
        with pytest.raises(DomainError, match="field 'N' is malformed"):
            DickeState.from_snapshot(data)

    def test_integral_float_n_loads(self):
        data = json.loads(make_css(1, 0.4, 0.1).to_snapshot_json())
        data["N"] = 2.0
        assert DickeState.from_snapshot(data).n_particles == 2

    def test_not_json_names_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{truncated")
        with pytest.raises(DomainError, match="state.json is not JSON"):
            DickeState.load(path)
