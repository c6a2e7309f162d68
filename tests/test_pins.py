"""Exact pins on seeded engine sessions, their round streams, oracle
branches and the other exact routes (closed forms, sweeps, Bloch
reductions and projections).

The pinned values are what the engine and the oracle produce today, float
for float.  Faster state construction or measurement must keep the same
arithmetic: a change that moves a bit here changes what a seed reproduces.
"""

import dataclasses
import hashlib
import json
import math
import random
import tracemalloc

import pytest

from qgamble.analysis import (
    cheat_gain_exact,
    cheat_gain_quadratic_bound,
    claim_gain_upper_bound,
    optimal_check_rate,
    oracle_expected_gain,
    oracle_round_branches,
    oracle_transcript_distribution,
    oracle_transfer_variance,
    quadratic_bound_optimum,
    sweep_cheat_gain,
)
from qgamble.protocol import (
    MIN_CHECKS_FOR_ABORT,
    CheckResult,
    ProtocolParams,
    ProtocolViolation,
    RoundType,
    SessionStats,
    StateLabel,
    _run_rounds,
    _streams,
    run_round,
    run_session,
    session_rng,
)
from qgamble.qubits import (
    BASIS_DISCRIM,
    BASIS_X,
    BASIS_Z,
    DISCRIM_0,
    DISCRIM_PLUS,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    Ensemble,
    Outcome,
    Subsystem,
    TwoQubitPure,
    basis_from_bloch_angle,
    ensemble_average_bloch,
    project_subsystem,
    reduced_bloch,
    state_from_bloch,
)
from qgamble.strategies import (
    AliceStrategy,
    BobStrategy,
    CheatPoint,
    ClaimPolicy,
    Preparation,
    ensemble_cheat,
    entangled_cheat,
    fixed_state_cheat,
    honest_alice,
    honest_bob,
)

NORMAL, CHECK = RoundType.NORMAL, RoundType.CHECK
ZERO, PLUS = StateLabel.ZERO, StateLabel.PLUS
PASS, FAIL = CheckResult.PASS, CheckResult.FAIL
NOT_APPLICABLE = CheckResult.NOT_APPLICABLE

SESSIONS = {
    "honest": (honest_alice, ProtocolParams(0.1, 100.0), 17),
    "entangled_z": (
        lambda: entangled_cheat({lab: BASIS_Z for lab in StateLabel}),
        ProtocolParams(0.1, 100.0),
        18,
    ),
    "noisy_entangled_x": (
        lambda: entangled_cheat({lab: BASIS_X for lab in StateLabel}),
        ProtocolParams(0.05, 1_000.0, noise=0.05),
        19,
    ),
    "noisy_fixed": (
        lambda: fixed_state_cheat(CheatPoint(0.3, 0.7, ClaimPolicy.ZERO)),
        ProtocolParams(0.1, 100.0, noise=0.1),
        20,
    ),
}

PINNED_STATS = {
    "honest": SessionStats(
        rounds=3000,
        alice_gain_total=448.35569799683003,
        transfer_sq_total=19650.134187980748,
        check_rounds=271,
        check_fails=0,
        bob_wins=2346,
        aborted=False,
    ),
    "entangled_z": SessionStats(
        rounds=3000,
        alice_gain_total=701.0075016124417,
        transfer_sq_total=20870.045009674377,
        check_rounds=291,
        check_fails=0,
        bob_wins=2322,
        aborted=False,
    ),
    "noisy_entangled_x": SessionStats(
        rounds=2408,
        alice_gain_total=-30375.911836921812,
        transfer_sq_total=36040980.528978616,
        check_rounds=100,
        check_fails=36,
        bob_wins=1172,
        aborted=True,
    ),
    "noisy_fixed": SessionStats(
        rounds=963,
        alice_gain_total=-628.2119779463159,
        transfer_sq_total=170211.72813232176,
        check_rounds=100,
        check_fails=16,
        bob_wins=623,
        aborted=True,
    ),
}

# Noisy entangled policy: z basis after guess zero, x basis after guess plus.
# (prob, round type, guess, claim, check result, transfer)
PINNED_BRANCHES = [
    (0.3851659675052146, NORMAL, ZERO, ZERO, NOT_APPLICABLE, -1.0),
    (0.06608403249478517, NORMAL, ZERO, PLUS, NOT_APPLICABLE, 5.828427124746189),
    (0.38516596750521453, NORMAL, PLUS, ZERO, NOT_APPLICABLE, 5.828427124746189),
    (0.06608403249478521, NORMAL, PLUS, PLUS, NOT_APPLICABLE, -1.0),
    (0.011874999999999997, CHECK, ZERO, ZERO, PASS, -1.0),
    (0.011875, CHECK, ZERO, PLUS, PASS, 5.828427124746189),
    (0.002968749999999999, CHECK, PLUS, ZERO, FAIL, -1000.0),
    (0.017303143026590247, CHECK, PLUS, ZERO, PASS, 5.828427124746189),
    (0.002968749999999997, CHECK, PLUS, PLUS, FAIL, -1000.0),
    (0.0005093569734097496, CHECK, PLUS, PLUS, PASS, -1.0),
    (0.001159368991136582, NORMAL, ZERO, ZERO, NOT_APPLICABLE, -1.0),
    (0.001159368991136582, NORMAL, ZERO, PLUS, NOT_APPLICABLE, 5.828427124746189),
    (0.013514595351060163, NORMAL, PLUS, ZERO, NOT_APPLICABLE, 5.828427124746189),
    (1.6658024878645313e-34, NORMAL, PLUS, PLUS, NOT_APPLICABLE, -1.0),
    (0.0002083333333333333, CHECK, ZERO, ZERO, FAIL, -1000.0),
    (0.00020833333333333335, CHECK, ZERO, PLUS, PASS, 5.828427124746189),
    (0.00030356391274719723, CHECK, PLUS, ZERO, FAIL, -1000.0),
    (5.208333333333341e-05, CHECK, PLUS, ZERO, PASS, 5.828427124746189),
    (5.208333333333329e-05, CHECK, PLUS, PLUS, FAIL, -1000.0),
    (8.936087252802624e-06, CHECK, PLUS, PLUS, PASS, -1.0),
    (0.001159368991136582, NORMAL, ZERO, ZERO, NOT_APPLICABLE, -1.0),
    (0.006757297675530083, NORMAL, ZERO, PLUS, NOT_APPLICABLE, 5.828427124746189),
    (0.006757297675530078, NORMAL, PLUS, ZERO, NOT_APPLICABLE, 5.828427124746189),
    (0.001159368991136582, NORMAL, PLUS, PLUS, NOT_APPLICABLE, -1.0),
    (0.0002083333333333333, CHECK, ZERO, ZERO, FAIL, -1000.0),
    (0.00020833333333333327, CHECK, ZERO, PLUS, FAIL, -1000.0),
    (9.251858538542972e-20, CHECK, ZERO, PLUS, PASS, 5.828427124746189),
    (0.00030356391274719723, CHECK, PLUS, ZERO, FAIL, -1000.0),
    (5.208333333333341e-05, CHECK, PLUS, ZERO, PASS, 5.828427124746189),
    (8.936087252802599e-06, CHECK, PLUS, PLUS, FAIL, -1000.0),
    (5.2083333333333316e-05, CHECK, PLUS, PLUS, PASS, -1.0),
    (0.006757297675530081, NORMAL, ZERO, ZERO, NOT_APPLICABLE, -1.0),
    (0.006757297675530085, NORMAL, ZERO, PLUS, NOT_APPLICABLE, 5.828427124746189),
    (0.0023187379822731634, NORMAL, PLUS, PLUS, NOT_APPLICABLE, -1.0),
    (0.0002083333333333333, CHECK, ZERO, ZERO, PASS, -1.0),
    (0.00020833333333333327, CHECK, ZERO, PLUS, FAIL, -1000.0),
    (9.251858538542972e-20, CHECK, ZERO, PLUS, PASS, 5.828427124746189),
    (5.2083333333333316e-05, CHECK, PLUS, ZERO, FAIL, -1000.0),
    (0.0003035639127471973, CHECK, PLUS, ZERO, PASS, 5.828427124746189),
    (8.936087252802599e-06, CHECK, PLUS, PLUS, FAIL, -1000.0),
    (5.2083333333333316e-05, CHECK, PLUS, PLUS, PASS, -1.0),
]


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_seeded_session_stats(name):
    make_alice, params, seed = SESSIONS[name]
    stats = run_session(
        make_alice(), honest_bob(params.check_rate), params, 3_000, session_rng(seed)
    )
    assert stats == PINNED_STATS[name]


def test_noisy_entangled_oracle_branches():
    params = ProtocolParams(0.05, 1_000.0, noise=0.05)
    alice = entangled_cheat({ZERO: BASIS_Z, PLUS: BASIS_X})
    got = [
        (b.prob, b.round_type, b.bob_guess, b.alice_claim, b.check_result, b.transfer)
        for b in oracle_round_branches(alice, params)
    ]
    assert got == PINNED_BRANCHES


def _oracle_family():
    """Seeded product mixtures and entangled strategies spanning the oracle's
    cases: off-plane states, exact eigenstates (zero-probability branches),
    both claims, complex two-qubit states with zero amplitudes, built-in and
    z-x-plane bases, and the default and a constant outcome table."""
    g = random.Random(7)
    eigenstates = (KET_0, KET_1, KET_PLUS, KET_MINUS, DISCRIM_0, DISCRIM_PLUS)
    bases = (BASIS_Z, BASIS_X, BASIS_DISCRIM)
    constant_table = {Outcome.PLUS: ZERO, Outcome.MINUS: ZERO}
    family = []
    for _ in range(24):
        k = g.randint(1, 4)
        raw = [g.random() + 0.05 for _ in range(k)]
        states = [
            g.choice(eigenstates) if g.random() < 0.3
            else state_from_bloch(g.uniform(0.0, math.pi), g.uniform(0.0, 2.0 * math.pi))
            for _ in range(k)
        ]
        members = Ensemble(tuple((w / sum(raw), s) for w, s in zip(raw, states)))
        family.append(ensemble_cheat(members, [g.choice((ZERO, PLUS)) for _ in range(k)]))
    for _ in range(24):
        amps = [complex(g.gauss(0.0, 1.0), g.gauss(0.0, 1.0)) for _ in range(4)]
        for i in g.sample(range(4), g.randint(0, 2)):
            amps[i] = 0j
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        policy = {
            lab: g.choice(bases) if g.random() < 0.5
            else basis_from_bloch_angle(g.uniform(0.0, math.pi))
            for lab in (ZERO, PLUS)
        }
        table = constant_table if g.random() < 0.25 else None
        state = TwoQubitPure(tuple(a / norm for a in amps))
        family.append(entangled_cheat(policy, table, state))
    return family


# sha256 over the four oracle views of every strategy in _oracle_family under
# each of ORACLE_PARAMS.
ORACLE_PARAMS = (
    ProtocolParams(0.13, 250.0),
    ProtocolParams(0.05, 1_000.0, noise=0.02),
    ProtocolParams(0.3, 20.0, noise=0.3),
    ProtocolParams(0.5, 7.0, noise=0.9),
)
PINNED_ORACLE = "1a0272cdc0083f41de4c897cb25ea16cd7ff24c546192fae2f2c68a35ae4d691"


def test_oracle_digest_over_strategy_space():
    digest = hashlib.sha256()
    for params in ORACLE_PARAMS:
        for alice in _oracle_family():
            views = (
                oracle_round_branches(alice, params),
                oracle_expected_gain(alice, params),
                oracle_transfer_variance(alice, params),
                oracle_transcript_distribution(alice, params),
            )
            digest.update(repr(views).encode() + b"\n")
    assert digest.hexdigest() == PINNED_ORACLE


def _exact_views():
    """Seeded inputs to the exact routes outside the oracle, and what each
    returns: Bloch reductions and projections of two-qubit states (zero
    and real amplitudes included, whose products carry signed zeros),
    ensemble averages, the closed forms with the quadratic bound and its
    optimum, and sweep rows."""
    g = random.Random(11)
    eigenstates = (KET_0, KET_1, KET_PLUS, KET_MINUS, DISCRIM_0, DISCRIM_PLUS)
    views = []
    for _ in range(32):
        imag = 0.0 if g.random() < 0.4 else 1.0
        amps = [complex(g.gauss(0.0, 1.0), imag * g.gauss(0.0, 1.0)) for _ in range(4)]
        for i in g.sample(range(4), g.randint(0, 2)):
            amps[i] = 0j
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        state = TwoQubitPure(tuple(a / norm for a in amps))
        zx = basis_from_bloch_angle(g.uniform(0.0, math.pi))
        for which in Subsystem:
            views.append(reduced_bloch(state, which))
            for basis in (BASIS_Z, BASIS_X, BASIS_DISCRIM, zx):
                views.append(project_subsystem(state, which, basis))
    for _ in range(16):
        k = g.randint(1, 4)
        raw = [g.random() + 0.05 for _ in range(k)]
        states = [
            g.choice(eigenstates) if g.random() < 0.3
            else state_from_bloch(g.uniform(0.0, math.pi), g.uniform(0.0, 2.0 * math.pi))
            for _ in range(k)
        ]
        members = Ensemble(tuple((w / sum(raw), s) for w, s in zip(raw, states)))
        views.append(ensemble_average_bloch(members))
    for _ in range(24):
        theta = g.uniform(-math.pi, math.pi)
        rate, penalty = g.uniform(0.001, 0.5), 10.0 ** g.uniform(0.5, 6.0)
        for claim in (ZERO, PLUS):
            views.append(cheat_gain_exact(theta, rate, penalty, claim))
            views.append(claim_gain_upper_bound(theta, rate, penalty, claim))
        views.append(cheat_gain_quadratic_bound(theta, rate, penalty))
        views.append(quadratic_bound_optimum(rate, penalty))
        views.append(optimal_check_rate(penalty))
    for _ in range(4):
        rate, penalty = g.uniform(0.001, 0.5), 10.0 ** g.uniform(0.5, 6.0)
        thetas = [g.uniform(0.0, math.pi) for _ in range(7)] + [0.0, math.pi / 2.0]
        phis = [g.uniform(0.0, 2.0 * math.pi) for _ in range(4)] + [0.0, math.pi]
        views.append(sweep_cheat_gain(rate, penalty, thetas, phis))
    return views


# sha256 over the repr of every value in _exact_views.
PINNED_EXACT = "aad291dbdf4f9e80b7e345a8e88e52faa7a643d0147dafb9a375c71080ab57d6"


def test_exact_digest():
    digest = hashlib.sha256()
    for view in _exact_views():
        digest.update(repr(view).encode() + b"\n")
    assert digest.hexdigest() == PINNED_EXACT


def _stream_digest(records) -> str:
    """sha256 over each record's row."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(json.dumps(rec.as_row(), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def _ensemble():
    members = Ensemble(((0.35, state_from_bloch(0.4, 0.0)), (0.65, state_from_bloch(1.2, 0.3))))
    return ensemble_cheat(members, [ZERO, PLUS])


# Every stream is 2,000 rounds long unless the abort rule ends it.
STREAMS = {
    "honest_checks": (honest_alice, ProtocolParams(0.2, 100.0), 31),
    "entangled_zx": (
        lambda: entangled_cheat({ZERO: BASIS_Z, PLUS: BASIS_X}),
        ProtocolParams(0.1, 100.0, abort_threshold=1.0),
        32,
    ),
    "noisy_fixed": (
        lambda: fixed_state_cheat(CheatPoint(0.3, 0.7, ClaimPolicy.ZERO)),
        ProtocolParams(0.1, 100.0, noise=0.1, abort_threshold=1.0),
        33,
    ),
    "ensemble": (_ensemble, ProtocolParams(0.15, 50.0, abort_threshold=1.0), 34),
    "noisy_abort": (
        lambda: entangled_cheat({lab: BASIS_Z for lab in StateLabel}),
        ProtocolParams(0.2, 20.0, noise=0.3),
        35,
    ),
}

# (records, sha256 of the stream)
PINNED_STREAMS = {
    "honest_checks": (
        2000,
        "63bfd6bd9d3d31be09cc262d2a4e44cf3adb1829764e83bda450f63e90c440f3",
    ),
    "entangled_zx": (
        2000,
        "48d757edc7f4f57f1bc07c03193641e71fb6387d91c9fb8b8a185a997dc04cec",
    ),
    "noisy_fixed": (
        2000,
        "48c16115bc0ff947b306cddc6a5752166c52cdc76705df8b97295e7a82fa803d",
    ),
    "ensemble": (
        2000,
        "d6c5a90c381fc8824238e79c4eaefa152185a80ed20b09412a2bfcab48546b6b",
    ),
    "noisy_abort": (
        496,
        "b86613f5f6358ffb277611a182e27186ac3181fd3889720c5fd3587da5e080db",
    ),
}

PINNED_RUN_ROUND = (
    200,
    "f58417c18bd75e209b8eef344e700c7d57e55e86231cc31a98d8d74c06382afa",
)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_seeded_round_stream(name):
    make_alice, params, seed = STREAMS[name]
    records = []
    run_session(
        make_alice(), honest_bob(params.check_rate), params, 2_000, session_rng(seed),
        on_round=records.append,
    )
    assert (len(records), _stream_digest(records)) == PINNED_STREAMS[name]
    assert all(rec.settlement_ok(params) for rec in records)


def test_run_round_stream():
    params = ProtocolParams(0.3, 50.0, noise=0.1)
    alice = entangled_cheat({ZERO: BASIS_Z, PLUS: BASIS_X})
    bob = honest_bob(params.check_rate)
    rng = session_rng(36)
    records = [run_round(alice, bob, params, rng) for _ in range(200)]
    assert (len(records), _stream_digest(records)) == PINNED_RUN_ROUND
    assert all(rec.settlement_ok(params) for rec in records)


# --------------------------------------------------------------------------
# How a session consumes its streams.  A loop of one-round `_run_rounds`
# calls on one set of streams, each call with a register, split table and
# views of its own, is the reference for which numbers a session draws and
# where it leaves each stream.


class _LateViolator(BobStrategy):
    """Honest Bob until round `at`, where he draws once and then measures
    Alice's subsystem, which the engine rejects."""

    def __init__(self, check_rate: float, at: int):
        self.inner = honest_bob(check_rate)
        self.left = at

    def play(self, received, is_check, rng):
        self.left -= 1
        if self.left == 0:
            rng.random()
            received.measure(BASIS_Z, which=Subsystem.A)
        return self.inner.play(received, is_check, rng)


class _MixedDrawAlice(AliceStrategy):
    """Honest Alice that, every `every` rounds, also draws an integer, an
    array and a normal from her stream between her uniform draws."""

    def __init__(self, every: int = 1):
        self.every = every
        self.rounds = 0

    def prepare(self, rng):
        u = rng.random()
        self.rounds += 1
        if self.rounds % self.every:
            label = ZERO if u < 0.5 else PLUS
            return Preparation(label.state, label)
        k = rng.integers(5)
        extra = rng.random(3)
        shift = rng.normal()
        label = ZERO if (u + extra[k % 3] + 0.1 * shift) % 1.0 < 0.5 else PLUS
        return Preparation(label.state, label)

    def claim(self, memo, own_view, bob_guess, rng):
        return memo


# (Alice factory, params, seed); Bob is honest.  "aborting" is a noiseless
# fixed cheat whose checks fail a third of the time.
DRAW_SESSIONS = {
    "honest": (honest_alice, ProtocolParams(0.2, 20.0, abort_threshold=1.0), 41),
    "fixed": (
        lambda: fixed_state_cheat(CheatPoint(0.4, 0.0, ClaimPolicy.ZERO)),
        ProtocolParams(0.1, 50.0, abort_threshold=1.0),
        42,
    ),
    "ensemble": (_ensemble, ProtocolParams(0.15, 50.0, abort_threshold=1.0), 43),
    "entangled_z": (
        lambda: entangled_cheat({lab: BASIS_Z for lab in StateLabel}),
        ProtocolParams(0.1, 100.0),
        44,
    ),
    "entangled_zx": (
        lambda: entangled_cheat({ZERO: BASIS_Z, PLUS: BASIS_X}),
        ProtocolParams(0.1, 100.0, abort_threshold=1.0),
        45,
    ),
    "aborting": (
        lambda: fixed_state_cheat(CheatPoint(1.2, 0.0, ClaimPolicy.ZERO)),
        ProtocolParams(0.3, 20.0),
        46,
    ),
    "noisy": (
        lambda: entangled_cheat({ZERO: BASIS_Z, PLUS: BASIS_X}),
        ProtocolParams(0.2, 20.0, noise=0.05),
        47,
    ),
    "mixed_draws": (_MixedDrawAlice, ProtocolParams(0.2, 20.0), 48),
    "rare_mixed_draws": (lambda: _MixedDrawAlice(97), ProtocolParams(0.2, 20.0), 51),
}

DRAW_ROUNDS = (1, 7, 5_000)


def _round_loop(alice, bob, params, n_rounds, streams, on_round):
    """`run_session`'s ledger rules, one round at a time on `streams`."""
    checks = fails = 0
    records = []
    for _ in range(n_rounds):
        _run_rounds(alice, bob, params, 1, streams, records.append)
        rec = records[-1]
        on_round(rec)
        if rec.round_type is CHECK:
            checks += 1
            fails += rec.check_result is FAIL
        if checks >= MIN_CHECKS_FOR_ABORT and fails > params.abort_threshold * checks:
            return


def _after_draws(rng) -> tuple:
    """The Generator's state, then the next three draws from it."""
    state = rng.bit_generator.state
    return state, rng.random(), int(rng.integers(1000)), rng.random()


def _streams_after_draws(streams) -> list:
    return [_after_draws(stream) for stream in streams]


@pytest.mark.parametrize("n_rounds", DRAW_ROUNDS)
@pytest.mark.parametrize("name", sorted(DRAW_SESSIONS))
def test_session_draws_like_a_round_loop(name, n_rounds):
    make_alice, params, seed = DRAW_SESSIONS[name]
    bob = honest_bob(params.check_rate)
    records, streams = [], _streams(session_rng(seed))
    _run_rounds(make_alice(), bob, params, n_rounds, streams, records.append)
    expected, ref_streams = [], _streams(session_rng(seed))
    _round_loop(make_alice(), bob, params, n_rounds, ref_streams, expected.append)
    assert records == expected
    assert _streams_after_draws(streams) == _streams_after_draws(ref_streams)
    session = []
    run_session(make_alice(), bob, params, n_rounds, session_rng(seed), on_round=session.append)
    assert session == records


class _FreshStateAlice(AliceStrategy):
    """Sends a new `state_from_bloch` object every round, each at a polar
    angle no earlier round used, and claims the nearer legal state."""

    def __init__(self):
        self.rounds = 0

    def prepare(self, rng):
        self.rounds += 1
        theta = math.pi * ((self.rounds * 0.6180339887498949) % 1.0)
        return Preparation(state_from_bloch(theta, 0.0), ZERO if theta < 0.5 * math.pi else PLUS)

    def claim(self, memo, own_view, bob_guess, rng):
        return memo


@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_fresh_states_get_fresh_splits(noise):
    # A session's split table is keyed by object ids; a stale entry would
    # show as a record or a stream state that a loop of one-round calls,
    # whose every round starts an empty table, does not produce.
    params = ProtocolParams(0.2, 20.0, noise=noise, abort_threshold=1.0)
    bob = honest_bob(params.check_rate)
    records, streams = [], _streams(session_rng(52))
    _run_rounds(_FreshStateAlice(), bob, params, 5_000, streams, records.append)
    expected, ref_streams = [], _streams(session_rng(52))
    _round_loop(_FreshStateAlice(), bob, params, 5_000, ref_streams, expected.append)
    assert len(records) == 5_000
    assert records == expected
    assert _streams_after_draws(streams) == _streams_after_draws(ref_streams)


def test_split_table_stays_bounded():
    bob = honest_bob(0.2)
    # Warm up first, so one-off set-up inside numpy is not counted.
    run_session(
        _FreshStateAlice(), bob, ProtocolParams(0.2, 20.0, abort_threshold=1.0), 1_000,
        session_rng(53),
    )
    bound = 2**20
    # The states noise flips to share the table with the splits.
    for n, noise in ((20_000, 0.0), (200_000, 0.0), (20_000, 0.1)):
        params = ProtocolParams(0.2, 20.0, noise=noise, abort_threshold=1.0)
        tracemalloc.start()
        try:
            stats = run_session(_FreshStateAlice(), bob, params, n, session_rng(53))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, noise, peak)
        assert stats.rounds == n


def test_violation_leaves_generator_where_round_loop_does():
    params = ProtocolParams(0.2, 20.0)
    streams, ref_streams = _streams(session_rng(49)), _streams(session_rng(49))
    with pytest.raises(ProtocolViolation, match="bob attempted to measure subsystem A"):
        _run_rounds(honest_alice(), _LateViolator(0.2, 300), params, 1_000, streams, None)
    with pytest.raises(ProtocolViolation, match="bob attempted to measure subsystem A"):
        _round_loop(
            honest_alice(), _LateViolator(0.2, 300), params, 1_000, ref_streams, lambda rec: None
        )
    assert _streams_after_draws(streams) == _streams_after_draws(ref_streams)


def _session_digest(stats, rng, streams) -> str:
    """sha256 over the stats, then the state and next three draws of the
    caller's Generator and of each stream."""
    payload = [None if stats is None else dataclasses.astuple(stats), *_after_draws(rng)]
    for stream in streams:
        payload += _after_draws(stream)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _pinned_digests(name) -> list[str]:
    make_alice, params, seed = DRAW_SESSIONS[name]
    digests = []
    for n_rounds in DRAW_ROUNDS:
        rng = session_rng(seed)
        streams = _streams(rng)
        bob = honest_bob(params.check_rate)
        stats = _run_rounds(make_alice(), bob, params, n_rounds, streams, None)
        digests.append(_session_digest(stats, rng, streams))
    return digests


# sha256 per n_rounds in DRAW_ROUNDS.
PINNED_DRAWS = {
    "aborting": [
        "00e88484541f45693578f0ae38eef9f74ec659b7e0271d4afd6358bb9fd08447",
        "ee99e9cd6efff83623d8d02da7b625b0c5f99ec3d35b35daeec7ef49dcee104f",
        "8e0029f7478fbc92186fc1ffdb6834177e4384ae981ddbc9d0f6a5e2f695e0cc",
    ],
    "ensemble": [
        "d403a36f49c4db99758b3337973f7e9ac74729bf53257132b678d7c2f1568e3f",
        "459b60c839429cd524549b4b2c8f3a32c337d3c67e7412a9b04ca32b1bea40a6",
        "c2bc2d22f323adcd3a55ea52ea8d2b74c5de657ef249395a2dce0aa280dd24c6",
    ],
    "entangled_z": [
        "edcc717ef1e9b0ca6970b372fcf88a452dfc1024ec7843cf431607cf565398eb",
        "cfd4d964d2d8b94f1d8d4beeac49452b6dd332f12ff8b49c744ad74a20650602",
        "f16ba0e072761df51776d838a0624c67a74f0e4095d44fc54974a191f0e12569",
    ],
    "entangled_zx": [
        "f2860fa81f27d1971980515bed6fa86926d24c7877e35746acd364bd9e2b28ef",
        "dbe326b93ef24be50d659e8100c8c69ca51501225f0d463bc4708c493cef4b04",
        "932d95fc5d1ca7ea29ba21746f67de4b9307c8cf2da7e871d3619da630148864",
    ],
    "fixed": [
        "7725f4c22b3de4dcded66bbd1733eebce75368a21eabe54e1e6e3abc41b2c78f",
        "3d9607403ff59155c3f9257e4ec3ec46269e21cd3cc51f6b23d0ea89c7f720bb",
        "87ba24b0f421ec5bb8e2b5f14a8ff207ea6803b91bfd651073390fb04307ea1e",
    ],
    "honest": [
        "f833db8e3bb1663e9f75383baf515c64f50dc120d69b186b69787cb5ee1cc8b3",
        "04726036839918e979c24cc36c14f486ada440729aca4eb3986f58dcfb8994ba",
        "ee5164ffabcaf44dbddcff12d3609a57e8eeeb42f712165b24a4ac13ac2e397d",
    ],
    "mixed_draws": [
        "03eaaebb26b8de92a91b5f8b6699e4713d2541af07521c0d9e9aa5a0b82ff71d",
        "3735f267bb396a4b201ab2eb5b2b93063daf01cb500c9e28658d5842d1374404",
        "074ed44433d370faed40d3b62324f15507b774b9c84789680b34ca3e72efcf1d",
    ],
    "noisy": [
        "4bf72229ec6c302982a6ec346701f0947a085628fc96865bc20328f920b392dd",
        "9b45ec4e201c0aa417c11a80a6525b8fcb7378b69495eb18034ad084738fa397",
        "cce0ac55ac532e49d5c9d65345d2fc7460fe28d62d3c9cc5583ef0f02ef38bf6",
    ],
    "rare_mixed_draws": [
        "4d71cc650b194523e2dafed1df3eef6b98e366d41b13aacfe06265b2f0d0859a",
        "fdadb5f098085a57a65d2b6aacc9e4100e46387867daaeb3e7220a4d82bc6050",
        "1002b94373ee9edfa49fe2261f93d5b5b58c60c1960d9ec08a96423c7feb3ea8",
    ],
}

PINNED_VIOLATION_DRAWS = "823627444419f4e205a9913cb93c08fdde7befcaf95ea3d919d0d36a63ec97a7"


@pytest.mark.parametrize("name", sorted(DRAW_SESSIONS))
def test_seeded_session_draws(name):
    assert _pinned_digests(name) == PINNED_DRAWS[name]


def test_seeded_violation_draws():
    rng = session_rng(50)
    streams = _streams(rng)
    with pytest.raises(ProtocolViolation):
        _run_rounds(
            honest_alice(), _LateViolator(0.2, 300), ProtocolParams(0.2, 20.0), 1_000, streams, None
        )
    assert _session_digest(None, rng, streams) == PINNED_VIOLATION_DRAWS
