"""Entanglement attacks: the four built-in z/x policies do not beat honest play.

Instead of committing to a state, Alice can keep half of an entangled
pair and measure her half only after hearing Bob's guess.  Her kept qubit
steers Bob's, but never changes his reduced state.  On the standard
attack state, the x measurement steers onto tilted states that walk into
the verification penalty.  This demo checks only those four z/x policies
on that one state; other states and bases do beat the cap (ROADMAP
item 1).
"""

import math

from qgamble.analysis import (
    entangled_policy_gains,
    oracle_expected_gain,
    oracle_transcript_distribution,
    optimal_check_rate,
)
from qgamble.protocol import ProtocolParams, StateLabel
from qgamble.qubits import (
    BASIS_X,
    BASIS_Z,
    Subsystem,
    overlap,
    project_subsystem,
    reduced_bloch,
)
from qgamble.strategies import entangled_cheat, honest_alice, standard_attack_state

state = standard_attack_state()
print("=== The attack resource ===")
print("joint state amplitudes (|00>,|01>,|10>,|11>):")
print("  ", [f"{a.real:+.4f}{a.imag:+.4f}j" for a in state.amps])
v = reduced_bloch(state, Subsystem.B)
print(f"Bob's reduced Bloch vector: ({v.x:.4f}, {v.y:.4f}, {v.z:.4f})")
print("identical to honest play's mixture, whatever Alice later measures")

print("\n=== Steering ===")
for basis, name in ((BASIS_Z, "z"), (BASIS_X, "x")):
    sides = project_subsystem(state, Subsystem.A, basis)
    print(f"Alice measures {name}:")
    for (p, bob_state), tag in zip(sides, ("plus", "minus")):
        print(
            f"  outcome {tag:5s} w.p. {p:.6f} -> Bob holds"
            f" ({bob_state.amp0.real:+.4f}, {bob_state.amp1.real:+.4f})"
        )

print("\nThe x-measurement steers onto tilted states whose overlap with the")
print("forbidden outcomes is large:")
(_, near), (_, far) = project_subsystem(state, Subsystem.A, BASIS_X)
for label, s in (("near", near), ("far", far)):
    bad_z = overlap(StateLabel.ZERO.verification_basis.minus, s)
    bad_x = overlap(StateLabel.PLUS.verification_basis.minus, s)
    print(f"  {label}: conviction prob {bad_z:.4f} claiming |0>, {bad_x:.4f} claiming |+>")

penalty = 10_000.0
rate = optimal_check_rate(penalty).check_rate
params = ProtocolParams(rate, penalty)

print("\n=== Every policy in the adaptive family ===")
for name, gain in entangled_policy_gains(params):
    print(f"  {name:22s} expected gain {gain.total:+12.5f} per round")

print("\nThe z-z policy is exactly honest play:")
z_attack = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
da = oracle_transcript_distribution(z_attack, params)
db = oracle_transcript_distribution(honest_alice(), params)
dist = max(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in set(da) | set(db))
print(f"  max transcript-probability difference vs honest: {dist:.2e}")
print("\nAmong these four policies, delaying the commitment buys nothing and")
print("deviating from it loses coins.  Other entangled states and bases are")
print("not covered here, and some of them beat the cap.")
