"""Exact pins on seeded engine sessions and oracle branches.

The pinned values are what the engine and the oracle produce today, float
for float.  Faster state construction or measurement must keep the same
arithmetic: a change that moves a bit here changes what a seed reproduces.
"""

import pytest

from qgamble.analysis import oracle_round_branches
from qgamble.protocol import (
    CheckResult,
    ProtocolParams,
    RoundType,
    SessionStats,
    StateLabel,
    run_session,
    session_rng,
)
from qgamble.qubits import BASIS_X, BASIS_Z
from qgamble.strategies import (
    CheatPoint,
    ClaimPolicy,
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
