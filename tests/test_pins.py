"""Exact pins on seeded engine sessions, their round streams and oracle
branches.

The pinned values are what the engine and the oracle produce today, float
for float.  Faster state construction or measurement must keep the same
arithmetic: a change that moves a bit here changes what a seed reproduces.
"""

import hashlib
import json

import pytest

from qgamble.analysis import oracle_round_branches
from qgamble.protocol import (
    CheckResult,
    ProtocolParams,
    RoundType,
    SessionStats,
    StateLabel,
    run_round,
    run_session,
    session_rng,
)
from qgamble.qubits import BASIS_X, BASIS_Z, Ensemble, state_from_bloch
from qgamble.strategies import (
    CheatPoint,
    ClaimPolicy,
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
