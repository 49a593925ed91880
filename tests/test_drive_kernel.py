"""The drive kernel in the Jy eigenbasis: the parity blocks of the fused
Jz^2 junction, split steps against a dense product of exact exponentials,
the frame's half-period blocks and the reversal R against their dense
definitions, the mirrored half period against the walked one and the path
each phase takes, the period operators and a sampled frame chain against
plain split stepping, the bound of the junction cache, and the one instant
rule (GRID_TOL) that every grid decision of the drive clock reads."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import propagator
from spinsqueeze.diagnostics import squeezing_columns
from spinsqueeze.dicke import DickeState, dim_for, make_css, m_values, spin_matrix
from spinsqueeze.hamiltonians import DriveEnvelope, drive_integral, quadratic_matrix
from spinsqueeze.propagator import (
    GRID_TOL,
    DrivenEngine,
    _aligned_grid,
    _drive_walk,
    _PeriodOperators,
    _split_steps,
    evolve_block,
    evolve_schedule,
    frame_enter,
    frame_leave,
    junction_blocks,
)
from spinsqueeze.protocols import drive_zero_times
from spinsqueeze.schedule import DrivenSegment, ProtocolSchedule, QuadraticSegment

from drive_helpers import dense_axis_basis, raw_end, split_steps_only

PHASES = [0.0, 0.3, np.pi / 2, -np.pi / 2, 0.9]
SPP = 32


def envelope(phase, omega=2 * np.pi * 40.0):
    return DriveEnvelope(0.9057 * omega, omega, phase)


def random_block(j, cols, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim_for(j), cols)) + 1j * rng.normal(size=(dim_for(j), cols))
    return x / np.linalg.norm(x, axis=0)


def dense_split_steps(j, env, grid):
    """Strang steps as one dense product of expm factors."""
    jz2 = quadratic_matrix(j, "z")
    jy = spin_matrix(j, (0, 1, 0))
    u = np.eye(dim_for(j), dtype=complex)
    for a, b in zip(grid[:-1], grid[1:]):
        half = sla.expm(-0.5j * (b - a) * jz2)
        u = half @ sla.expm(-1j * drive_integral(env, a, b) * jy) @ half @ u
    return u


@pytest.mark.parametrize("j", [1.5, 2.5, 3, 20, 20.5])
def test_junction_is_block_diagonal_by_parity(j):
    # the frame order puts the s class (j - lambda even) on the top rows, the a class below
    vals, vecs = dense_axis_basis(j)
    classes = np.round(j - vals).astype(int) % 2
    assert np.array_equal(classes, (np.arange(dim_for(j)) >= (dim_for(j) + 1) // 2).astype(int))
    h = 0.37
    dense = vecs.T @ (np.exp(-1j * h * m_values(j) ** 2)[:, None] * vecs)
    off = dense[np.ix_(classes == 0, classes == 1)]
    assert np.max(np.abs(off)) <= 1e-13
    for p, block in enumerate(junction_blocks(j, h)):
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
    j = n / 2
    env = envelope(phase)
    h = env.period / SPP
    t0, t1 = span[0] * h, span[1] * h
    x = random_block(j, cols, seed=n)
    want = dense_split_steps(j, env, _aligned_grid(t0, t1, h)) @ x
    got = _split_steps(j, x, env, h, t0, t1)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n", [5, 6, 40])
@pytest.mark.parametrize("phase", PHASES)
def test_half_period_operators_match_split_steps(n, phase):
    j = n / 2
    env = envelope(phase)
    h, half = env.period / SPP, env.period / 2
    ops = _PeriodOperators(j, env, SPP)
    x = random_block(j, 2, seed=n)
    for k, halves in ((0, 1), (1, 1), (0, 2)):  # the jumps act on frame blocks: enter, jump, leave
        want = _split_steps(j, x, env, h, k * half, (k + halves) * half)
        got = frame_leave(j, ops.jump(frame_enter(j, x), k, halves))
        assert np.max(np.abs(got - want)) <= 1e-12
    for block in ops.blocks:
        assert np.max(np.abs(block.conj().T @ block - np.eye(len(block)))) <= 1e-12


def walked_blocks(j, env, spp):
    """U's class blocks as Mh P Mh, the walk P over all spp/2 substeps from the identity."""
    h = env.period / spp
    mh = junction_blocks(j, h / 2)
    ns, na = len(mh[0]), len(mh[1])
    y = np.zeros((ns + na, ns), dtype=complex)
    y[:ns], y[ns:, :na] = np.eye(ns), np.eye(na)
    y = _drive_walk(j, y, env, h, [k * h for k in range(spp // 2 + 1)])
    return tuple(m @ c @ m for m, c in zip(mh, (y[:ns], y[ns:, :na])))


@pytest.mark.parametrize("n", [60, 61, 300])
@pytest.mark.parametrize("phase", [np.pi / 2, -np.pi / 2])
@pytest.mark.parametrize("spp", [32, 34, 64, 128])
def test_mirrored_half_period_matches_walk(n, phase, spp):
    # spp 34 has an odd spp/2: the lone middle substep stands between the mirrored halves
    env = envelope(phase)
    ops = _PeriodOperators(n / 2, env, spp)
    for got, want in zip(ops.blocks, walked_blocks(n / 2, env, spp)):
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize(
    "phase,mirror",
    [(0.0, False), (0.3, False), (np.pi / 2, True), (-np.pi / 2, True), (0.9, False),
     (3 * np.pi / 2, True), (-3 * np.pi / 2, True)],
)
@pytest.mark.parametrize("spp", [2, 32, 34])
def test_each_phase_takes_its_half_period_path(phase, mirror, spp):
    # the substeps each _drive_walk call is given: the whole half period's spp/2 for
    # the walk; at phase = pi/2 mod pi the first quarter's spp//4, then the middle
    # substep when spp/2 is odd. spp 2 has no quarter walk and walks.
    substeps, walk = [], _drive_walk

    def counted(j, y, env, h, grid):
        substeps.append(len(grid) - 1)
        return walk(j, y, env, h, grid)

    with mock.patch.object(propagator, "_drive_walk", counted):
        _PeriodOperators(2.5, envelope(phase), spp)
    assert substeps == ([spp // 4] + [1] * (spp % 4 // 2) if mirror and spp >= 4 else [spp // 2])


def dense_reversal(j):
    """R = W^T Rz(pi) W in the frame, dense."""
    vecs = dense_axis_basis(j)[1]
    return vecs.T @ (np.exp(-1j * np.pi * m_values(j))[:, None] * vecs)


@pytest.mark.parametrize("n", [5, 6, 41, 100])
def test_frame_blocks_are_unitary(n):
    ops = _PeriodOperators(n / 2, envelope(0.3), SPP)
    assert [len(block) for block in ops.blocks] == [(n + 2) // 2, (n + 1) // 2]
    for block in ops.blocks:
        assert np.max(np.abs(block.conj().T @ block - np.eye(len(block)))) <= 1e-12


@pytest.mark.parametrize("n", [5, 6, 41, 100])
def test_reversal_is_a_phased_reversal_by_class(n):
    # R sends frame index i to rows[i]: each class reversed for even N, the whole frame for odd N
    j, dim, ns = n / 2, n + 1, (n + 2) // 2
    dense = dense_reversal(j)
    rows = np.r_[ns - 1 : -1 : -1, dim - 1 : ns - 1 : -1] if n % 2 == 0 else dim - 1 - np.arange(dim)
    on = dense[rows, np.arange(dim)]
    off = dense.copy()
    off[rows, np.arange(dim)] = 0
    assert np.max(np.abs(off)) <= 1e-12
    ops = _PeriodOperators(j, envelope(0.3), SPP)
    assert np.array_equal(ops.perm, rows)
    assert np.max(np.abs(ops.phase[:, 0] - on)) <= 1e-12
    assert set(np.abs(ops.phase[:, 0]).tolist()) == {1.0}
    # even N keeps the classes, the top ns rows and the rest, odd N swaps them
    assert np.all((rows < ns) == (np.arange(dim) < ns)) == (n % 2 == 0)
    assert np.all((rows < ns) != (np.arange(dim) < ns)) == (n % 2 == 1)


@pytest.mark.parametrize("n", [5, 6, 41, 100])
@pytest.mark.parametrize("phase", PHASES)
def test_odd_half_and_whole_period_by_reversal(n, phase):
    j = n / 2
    ops = _PeriodOperators(j, envelope(phase), SPP)
    u = np.zeros((n + 1, n + 1), dtype=complex)
    ns = len(ops.blocks[0])
    u[:ns, :ns], u[ns:, ns:] = ops.blocks
    r = dense_reversal(j)
    y = random_block(j, 3, seed=n)
    assert np.max(np.abs(ops.jump(y, 0) - u @ y)) <= 1e-12
    assert np.max(np.abs(ops.jump(y, 1) - r @ u @ r.conj().T @ y)) <= 1e-12
    assert np.max(np.abs(ops.jump(y, 0, 2) - r @ u @ r.conj().T @ u @ y)) <= 1e-12
    for block in ops.period:
        assert np.max(np.abs(block.conj().T @ block - np.eye(len(block)))) <= 1e-12


@pytest.mark.parametrize("n", [5, 6, 41, 100])
@pytest.mark.parametrize("phase", PHASES)
def test_period_operator_path_matches_plain_split_stepping(n, phase):
    j = n / 2
    env = envelope(phase, omega=2 * np.pi * 300.0)
    t0, t1 = 0.123 * env.period, 23.61 * env.period
    assert DrivenEngine(j, env, SPP, t1 - t0)._ops is not None
    # a Jz^2 hold to t0 that both runs share, then the drive from t0 to t1
    segments = (QuadraticSegment(t0), DrivenSegment(env, t1 - t0, SPP))
    state = DickeState(j, random_block(j, 1, seed=n)[:, 0])
    with split_steps_only():
        a = raw_end(state, *segments)
    b = raw_end(state, *segments)
    assert np.max(np.abs(a - b)) <= 1e-10


@pytest.mark.parametrize("n", [5, 6, 41, 100])
@pytest.mark.parametrize("phase", PHASES)
def test_sampled_frame_chain_matches_plain_split_stepping(n, phase):
    # samples on the h grid (half periods among them) and off it, so the
    # chain holds the block in the frame and in z, jumps and walks, and
    # reports tiles that mix frame copies with z-basis columns. The reference
    # follows the branch rule in plain split steps: the chain stops at the whole
    # period holding the start of each sample's half period, and a sample reads
    # the chain stepped from there to that start and through the half period's
    # earlier samples; the final block is the unsampled run's
    j = n / 2
    env = envelope(phase, omega=2 * np.pi * 300.0)
    h, half = env.period / SPP, env.period / 2
    t1 = 23.5 * env.period
    times = [0.0, 3 * half, 3 * half + 0.37 * h, 3 * half + 5 * h, 11.3 * half, 20 * half, 20 * half + h, t1]
    x0 = random_block(j, 1, seed=n)
    schedule = ProtocolSchedule((DrivenSegment(env, t1, SPP),), tuple(times))
    final, record = evolve_schedule(DickeState(j, x0[:, 0]), schedule)

    def plain(x, a, b):
        return _split_steps(j, x, env, h, a, b) if b > a else x

    chain, at, branch, want = x0, 0.0, None, []
    for s in times:
        k = int(np.floor(s / half + 1e-9))
        if k != branch:
            stop = (k - k % 2) * half
            chain, at = plain(chain, at, stop), stop
            y, ty, branch = plain(chain, stop, k * half), k * half, k
        y, ty = plain(y, ty, s), s
        want.append(squeezing_columns(j, y).column(0).xi2)
    x = plain(x0, 0.0, t1)
    assert abs(np.vdot(final.amplitudes, x[:, 0] / np.linalg.norm(x))) >= 1 - 1e-10
    assert np.allclose(record.xi2(), want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("n", [6, 41, 100])
@pytest.mark.parametrize("phase", [-np.pi / 2, 0.3, 0.9])
@pytest.mark.parametrize("omega,periods", [(2 * np.pi * 300.0, 20.37), (2 * np.pi * 30.0, 10.37)])
def test_samples_do_not_steer_the_driven_chain(n, phase, omega, periods):
    # with period operators a sampled driven chain takes the unsampled chain's
    # products; without them a stop at a whole period splits a fused junction
    j, env = n / 2, envelope(phase, omega)
    seg = DrivenSegment(env, periods * env.period, 64)
    uniform = np.random.default_rng(n).uniform(0.0, seg.duration, 25)
    times = np.unique(np.concatenate([drive_zero_times(env, seg.duration), uniform]))
    x0 = random_block(j, 1, seed=n)
    sampled, _ = evolve_block(j, x0, ProtocolSchedule((seg,), tuple(times.tolist())))
    plain, _ = evolve_block(j, x0, ProtocolSchedule((seg,), ()))
    if DrivenEngine.jumps_pay(j, env, 64, seg.duration):
        assert sampled.tobytes() == plain.tobytes()
    else:
        assert np.max(np.abs(sampled - plain)) <= 1e-14


def test_junction_cache_is_bounded():
    limit = junction_blocks.cache_info().maxsize
    assert limit is not None
    for k in range(1, limit + 4):
        junction_blocks(2.5, 0.01 * k)
        assert junction_blocks.cache_info().currsize <= limit
    assert junction_blocks.cache_info().currsize == limit


# The instant rule. Every grid decision of the drive clock (whether advance holds a block in
# the frame, which half period a sample's branch starts from, where jumps start and stop, which
# walks are skipped, the substep grid and the cached junctions) reads one tolerance: a drive
# time within GRID_TOL * h of a multiple of h is that multiple. A decision that disagreed with
# the others would read a frame block as a z-basis block, or the reverse, near an instant.

CSS10 = make_css(5, np.pi / 2, 0)  # N = 10 along x


def sampled_xi2(spp, times, duration=None):
    """xi^2 of CSS10 sampled at times on a drive of the duration, by default 20.3 periods, over
    which the N = 10 chain jumps half periods."""
    env = envelope(-np.pi / 2)
    seg = DrivenSegment(env, 20.3 * env.period if duration is None else duration, spp)
    return evolve_schedule(CSS10, ProtocolSchedule((seg,), tuple(times)))[1].xi2()


def walked(spp, t):
    """CSS10 split-stepped from 0 to t in one walk, outside the engine, z basis at both ends."""
    env = envelope(-np.pi / 2)
    return _split_steps(5, CSS10.amplitudes[:, None], env, env.period / spp, 0.0, t)


@pytest.mark.parametrize("spp", [64, 4096])
@pytest.mark.parametrize("offset", [-2e-9, -1.1e-9, -0.9e-9, -5e-10, 0.0, 5e-10, 0.9e-9, 1.1e-9, 1.6e-9, 1e-8])
def test_every_grid_decision_reads_one_rule(spp, offset):
    # t = 10 T + offset * h: on the grid, at the instant of half period 20, exactly when |offset| <= GRID_TOL
    env = envelope(-np.pi / 2)
    h = env.period / spp
    engine, t = DrivenEngine(2.5, env, spp, 20.3 * env.period), 10 * env.period + offset * h
    at = abs(offset) <= GRID_TOL
    assert engine.framed(t) == at
    assert engine.branch_point(t)[0] == (20 if offset >= -GRID_TOL else 19)
    assert len(_aligned_grid(t, t + 3 * h, h)) == (4 if at else 5)
    assert len(_aligned_grid(t - 3 * h, t, h)) == (4 if at else 5)


@pytest.mark.parametrize(
    "spp, offsets",
    [(64, [-2e-9]), (64, [1e-8, 0.3 * 64]), (4096, [1.6e-9])],
    ids=["just-before-an-instant", "after-one-just-past-it", "just-past-an-instant-fine-grid"],
)
def test_samples_near_an_instant_read_their_own_time(spp, offsets):
    # samples at 10 T + offset * h against one walk to each; a block read in the wrong basis
    # reads several times the state's xi^2
    h = envelope(-np.pi / 2).period / spp
    times = [10 * spp * h + off * h for off in offsets]
    want = [squeezing_columns(5, walked(spp, t)).column(0).xi2 for t in times]
    assert np.allclose(sampled_xi2(spp, times), want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("spp", [64, 34])
@pytest.mark.parametrize("edge", [-1e-9, 1e-9])
def test_samples_at_the_tolerance_edge_read_their_own_time(spp, edge):
    # 25 consecutive floats around 10 T + edge * h, where t / h -+ GRID_TOL rounds either way: every
    # decision reads the same bounds, so a sample is framed exactly when its branch and walks say so
    h = envelope(-np.pi / 2).period / spp
    base = 10 * spp * h + edge * h
    for t in base + np.spacing(base) * np.arange(-12, 13):
        want = squeezing_columns(5, walked(spp, t)).column(0).xi2
        assert sampled_xi2(spp, [t])[0] == pytest.approx(want, rel=1e-9)


def test_segment_ending_just_before_an_instant():
    # the end 20 T - 2e-9 h lies in half period 39: the chain must not run on to 20 T and
    # hand back its frame block as the z-basis end state
    env = envelope(-np.pi / 2)
    t1 = 20 * env.period - 2e-9 * env.period / 64
    got = raw_end(CSS10, DrivenSegment(env, t1, 64))
    want = walked(64, t1)[:, 0]
    assert abs(np.vdot(want, got)) / (np.linalg.norm(got) * np.linalg.norm(want)) >= 1 - 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    spp=st.sampled_from([64, 4096]),
    picks=st.lists(st.tuples(st.integers(1, 6), st.floats(-1e-7, 1e-7)), min_size=1, max_size=3),
)
def test_samples_near_instants_match_each_sample_alone(spp, picks):
    # samples at k T/2 + offset * h, read off a chain that jumps half periods, against each
    # sample alone in a schedule that ends at it, on split steps alone
    h = envelope(-np.pi / 2).period / spp
    times = sorted({k * spp // 2 * h + off * h for k, off in picks})
    got = sampled_xi2(spp, times)
    with split_steps_only():
        alone = [sampled_xi2(spp, [t], duration=t)[0] for t in times]
    assert np.allclose(got, alone, rtol=1e-9, atol=0)
