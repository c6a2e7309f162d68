"""The honest game: why the payouts make it fair.

Alice sends one of two nonorthogonal qubits, |0> or |+>.  No measurement
tells them apart with certainty; the best projective measurement guesses
right with probability cos^2(pi/8) ~ 0.854.  The payouts (1 coin to Bob on
a win, p/(1-p) coins to Alice on a loss) are tuned so the expected
transfer of a normal round is exactly zero.
"""

import math

from qgamble import (
    BASIS_DISCRIM,
    DEFAULT_LOSS_PAYOUT,
    KET_0,
    KET_PLUS,
    OPTIMAL_GUESS_PROB,
    ProtocolParams,
    monte_carlo_gain,
    oracle_expected_gain,
    overlap,
    run_session_fast,
    session_rng,
)
from qgamble.strategies import honest_alice

print("=== The two legal states ===")
print(f"|<0|+>|^2 = {overlap(KET_0, KET_PLUS):.6f}  (nonorthogonal, so no certainty)")
print(f"best guess probability  p = {OPTIMAL_GUESS_PROB:.7f} = cos^2(pi/8)")
print(f"  attained by the basis tilted halfway between them:")
print(f"  |<d0|0>|^2 = {overlap(BASIS_DISCRIM.plus, KET_0):.7f}")
print(f"  |<d+|+>|^2 = {overlap(BASIS_DISCRIM.minus, KET_PLUS):.7f}")

loss = DEFAULT_LOSS_PAYOUT  # p/(1-p), fixed by the protocol
print(f"\npayouts: Bob win -> 1 coin, Bob loss -> p/(1-p) = {loss:.7f} coins")
print(f"normal-round expectation: {-OPTIMAL_GUESS_PROB + (1-OPTIMAL_GUESS_PROB)*loss:+.2e}")

print("\n=== A million rounds of honest play ===")
params = ProtocolParams(check_rate=0.01, penalty=10_000.0)
stats = run_session_fast(
    honest_alice().branch_model().members, params, 1_000_000, session_rng(0)
)
mc = monte_carlo_gain(stats)
print(f"rounds={stats.rounds}  checks={stats.check_rounds}  fails={stats.check_fails}")
print(f"Bob's win rate over normal rounds: {stats.normal_win_rate:.5f}")
print(f"Alice's mean gain per round: {mc.mean:+.5f} +- {mc.std_error:.5f}")

exact = oracle_expected_gain(honest_alice(), params)
print(f"exact expectation (branch enumeration): {exact.total:+.7f}")
print(f"  = check_rate * (1 + sqrt 2) = {params.check_rate * (1 + math.sqrt(2)):+.7f}")
print("\nChecking rounds leak a little to Alice: Bob's blind guess only wins")
print("half the time while the payouts are tuned for his informed rate.")
