"""Exact pins on seeded engine sessions, their round streams and oracle
branches.

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
    oracle_expected_gain,
    oracle_round_branches,
    oracle_transcript_distribution,
    oracle_transfer_variance,
)
from qgamble.protocol import (
    MIN_CHECKS_FOR_ABORT,
    CheckResult,
    ProtocolParams,
    ProtocolViolation,
    RoundType,
    SessionStats,
    StateLabel,
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
        alice_gain_total=823.9191898578739,
        transfer_sq_total=21463.51513914695,
        check_rounds=308,
        check_fails=0,
        bob_wins=2285,
        aborted=False,
    ),
    "entangled_z": SessionStats(
        rounds=3000,
        alice_gain_total=960.487732352798,
        transfer_sq_total=22122.92639411648,
        check_rounds=325,
        check_fails=0,
        bob_wins=2257,
        aborted=False,
    ),
    "noisy_entangled_x": SessionStats(
        rounds=2039,
        alice_gain_total=-19056.83275988345,
        transfer_sq_total=24035612.003440823,
        check_rounds=100,
        check_fails=24,
        bob_wins=963,
        aborted=True,
    ),
    "noisy_fixed": SessionStats(
        rounds=1088,
        alice_gain_total=-155.76118445748924,
        transfer_sq_total=141790.4328932554,
        check_rounds=100,
        check_fails=13,
        bob_wins=706,
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
    ProtocolParams(0.13, 250.0, loss_payout=4.5),
    ProtocolParams(0.05, 1_000.0, noise=0.02),
    ProtocolParams(0.3, 20.0, win_payout=2.0, noise=0.3),
    ProtocolParams(0.5, 7.0, noise=0.9),
)
PINNED_ORACLE = "c9d5c01b9670f01f4cc8e21e3160d908becbc70d761c1eb9b683363bf0ed739f"


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


def _stream_digest(records) -> str:
    """sha256 over each record's row plus Bob's measurement outcome."""
    digest = hashlib.sha256()
    for rec in records:
        row = rec.as_row()
        outcome = rec.bob_measurement_outcome
        row["bob_measurement_outcome"] = None if outcome is None else outcome.value
        digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
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
        "49bda824808b49e3d9101a180ddcfffa19a7b1dc367611a4aa47cd1784f31cc5",
    ),
    "entangled_zx": (
        2000,
        "82b486218eccbbe361ac2e7f1fbf1e585ffaa84e2a84daf23a00a27f3265f9d3",
    ),
    "noisy_fixed": (
        2000,
        "8dbacbc9f5fdcce89df8977688b782c73cc746ffe090c4177b62599f3d95e2d9",
    ),
    "ensemble": (
        2000,
        "77673ada8e21e621f1b8de9d78c819925742d433ca5ac7c0ab11930ca0efcb14",
    ),
    "noisy_abort": (
        498,
        "ac8a44e32bf3f9844cc5b327b3f9ead1cfcdf8ff23767d6fbcdf36d2d6219e31",
    ),
}

PINNED_RUN_ROUND = (
    200,
    "c09b8bab242bd985e42c113ba456363907c1421be3fffffe15742ef67a6f0856",
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
# How a session consumes its Generator.  `run_round` draws straight from the
# Generator it is given, so a loop of `run_round` is the reference for which
# numbers `run_session` uses and where it leaves the caller's Generator.


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
            received.measure(BASIS_Z, rng, which=Subsystem.A)
        return self.inner.play(received, is_check, rng)


class _MixedDrawAlice(AliceStrategy):
    """Honest Alice that, every `every` rounds, also draws an integer, an
    array and a normal from the Generator between her uniform draws."""

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


def _round_loop(alice, bob, params, n_rounds, rng, on_round):
    """`run_session`'s ledger rules, one `run_round` at a time."""
    checks = fails = 0
    for _ in range(n_rounds):
        rec = run_round(alice, bob, params, rng)
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


@pytest.mark.parametrize("n_rounds", DRAW_ROUNDS)
@pytest.mark.parametrize("name", sorted(DRAW_SESSIONS))
def test_session_draws_like_a_round_loop(name, n_rounds):
    make_alice, params, seed = DRAW_SESSIONS[name]
    bob = honest_bob(params.check_rate)
    records, rng = [], session_rng(seed)
    run_session(make_alice(), bob, params, n_rounds, rng, on_round=records.append)
    expected, ref_rng = [], session_rng(seed)
    _round_loop(make_alice(), bob, params, n_rounds, ref_rng, expected.append)
    assert records == expected
    assert _after_draws(rng) == _after_draws(ref_rng)


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
    # show as a record or a Generator state that a loop of run_round,
    # whose every round starts an empty table, does not produce.
    params = ProtocolParams(0.2, 20.0, noise=noise, abort_threshold=1.0)
    bob = honest_bob(params.check_rate)
    records, rng = [], session_rng(52)
    run_session(_FreshStateAlice(), bob, params, 5_000, rng, on_round=records.append)
    expected, ref_rng = [], session_rng(52)
    _round_loop(_FreshStateAlice(), bob, params, 5_000, ref_rng, expected.append)
    assert len(records) == 5_000
    assert records == expected
    assert _after_draws(rng) == _after_draws(ref_rng)


def test_split_table_stays_bounded():
    params = ProtocolParams(0.2, 20.0, abort_threshold=1.0)
    bob = honest_bob(params.check_rate)
    # Warm up first, so one-off set-up inside numpy is not counted.
    run_session(_FreshStateAlice(), bob, params, 1_000, session_rng(53))
    bound = 2**20
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            stats = run_session(_FreshStateAlice(), bob, params, n, session_rng(53))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, peak)
        assert stats.rounds == n


def test_violation_leaves_generator_where_round_loop_does():
    params = ProtocolParams(0.2, 20.0)
    rng, ref_rng = session_rng(49), session_rng(49)
    with pytest.raises(ProtocolViolation, match="bob attempted to measure subsystem A"):
        run_session(honest_alice(), _LateViolator(0.2, 300), params, 1_000, rng)
    with pytest.raises(ProtocolViolation, match="bob attempted to measure subsystem A"):
        _round_loop(
            honest_alice(), _LateViolator(0.2, 300), params, 1_000, ref_rng, lambda rec: None
        )
    assert _after_draws(rng) == _after_draws(ref_rng)


def _session_digest(stats, rng) -> str:
    """sha256 over the stats, the Generator's state and its next three draws."""
    payload = [None if stats is None else dataclasses.astuple(stats), *_after_draws(rng)]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _pinned_digests(name) -> list[str]:
    make_alice, params, seed = DRAW_SESSIONS[name]
    digests = []
    for n_rounds in DRAW_ROUNDS:
        rng = session_rng(seed)
        stats = run_session(make_alice(), honest_bob(params.check_rate), params, n_rounds, rng)
        digests.append(_session_digest(stats, rng))
    return digests


# sha256 per n_rounds in DRAW_ROUNDS.
PINNED_DRAWS = {
    "aborting": [
        "bf9dc156b16a3efa1be3b58f711200a166b4469183f42277553d5c8028cc2247",
        "406e96744e37d40a6e7be79a51bd5f3d35805c3361b3c69bf000ff2d60465896",
        "e1db8b95b895386e309bea1f857ab6bc9f2336b929ecf49703ab03ff5b06d3a9",
    ],
    "ensemble": [
        "409264d415e82850690f6ab911e1a2b37e8d65e0d6e5e3511076dfff897b0e19",
        "103b31a1c33a7a64e3a160f3adf0e8cbddea7421fdcee2c7fe5cd6d7d10cf692",
        "a40d17785b5cbf27ca8972736f188e84b4a3c8bffd95be0035b2757a19d743db",
    ],
    "entangled_z": [
        "af2dfea2e0c4cb12a9f32ea0147b1403ad4125153790f00382153073e1eb281d",
        "32d73e6e0e3054c77f2e1459aac4e0ec4da10ed05c6c0eb788d141d94ccf9405",
        "ee31a3d0cd06918d23c0f21ce6c51470ce11c33ae29b3ed38f08b7f58d0245dd",
    ],
    "entangled_zx": [
        "ec6eee14725aa83522325f03708ee25a156beb3f1fdd5d5b34f50ea5bbbbe2b7",
        "27e3cfacf9df4ebaea6f8ffdb11c2191d16639eda29c8007ad453c74ea38cb62",
        "1868b4ad66cac86ce89e3cf24a80eb2cc2086eb6bf4ebed553f1c64e89010f19",
    ],
    "fixed": [
        "8d405deae4d2e2f569aef01fb79e19d0830dd1de0cf4a7ef37a537f2391e3dfe",
        "c6c1bea14f9494752743802dbc24867bfd24d1c35a418bd99c733ef65169e6fb",
        "aaa045097b19ba39da05446afebb7a317f8c9d4e2d58be5e00c0ffd76e92283d",
    ],
    "honest": [
        "980cf271add520f734f759b7b89047eb7d117fd9f2b32189ca57dcb9f5300e4e",
        "81559ee13d328adc2d69d74fff958d701eab96a2e76b8ba859624e729469394c",
        "340583f5af71659b0e468ea5bfd128d0b36d800760c4c6a88847f5b814097fd5",
    ],
    "mixed_draws": [
        "0df62742d143ad9411d9a60747bf551b6994d7667ca155fb2947bb4f42d3eacc",
        "c02660abb0eb3c0ed0dac841f5f8b583baf5d9fde932afb77998feba36adb2bb",
        "352e790e547dac8a7800f97005db5bc9e74d6d2a375a81634ed73e943ce82078",
    ],
    "rare_mixed_draws": [
        "814f467d5e5787a02cf5047cf501882c3523901aa117c485dd0e73c90a12c16b",
        "faf659b107a9b2f9a61ed57e472bf542debae9ef8c499dae739d5c3c28d32001",
        "19bdbb6776b7e6cc3726d3b29fb7f3a8e01ae844123f898549aa14f6c226eef0",
    ],
    "noisy": [
        "92c610a0367ebe64c9383320ca549e7ce2040ee5cc08e1381e0d2cfbf1b25574",
        "32b435c836d393e75a36602caff587cbe40daf6b9e4e1d7a090080aafd192f45",
        "02ed5dd990ad3705e19377d9c631b98c8398e1508920f48513ad4082c938eb6a",
    ],
}

PINNED_VIOLATION_DRAWS = "eb4b64a782d1f57985e6e4764c38f4af4d5d2456fb64e98b2ef2f690833bd2d0"


@pytest.mark.parametrize("name", sorted(DRAW_SESSIONS))
def test_seeded_session_draws(name):
    assert _pinned_digests(name) == PINNED_DRAWS[name]


def test_seeded_violation_draws():
    rng = session_rng(50)
    with pytest.raises(ProtocolViolation):
        run_session(honest_alice(), _LateViolator(0.2, 300), ProtocolParams(0.2, 20.0), 1_000, rng)
    assert _session_digest(None, rng) == PINNED_VIOLATION_DRAWS
