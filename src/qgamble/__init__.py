"""qgamble: simulate and analyze a coin-gambling game built on the
impossibility of perfectly distinguishing two nonorthogonal qubit states.

The library has four layers:

* :mod:`qgamble.qubits` - exact one- and two-qubit pure-state machinery.
* :mod:`qgamble.protocol` - the round/session engine with payouts, the
  Pauli noise channel, and the abort rule.
* :mod:`qgamble.strategies` - honest players plus the cheating families
  (fixed state, ensembles, adaptive entanglement attacks).
* :mod:`qgamble.analysis` - closed-form gains and bounds, an exact
  branch-enumeration oracle, Monte Carlo estimators, and grid sweeps.

A command-line harness (:mod:`qgamble.cli`, installed as ``qgamble``)
runs sessions, sweeps, and the full cross-check suite.
"""

from .qubits import (
    BASIS_DISCRIM,
    BASIS_X,
    BASIS_Z,
    DISCRIM_0,
    DISCRIM_PLUS,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    OPTIMAL_GUESS_PROB,
    BlochVector,
    Ensemble,
    MeasurementBasis,
    Outcome,
    PureQubit,
    Subsystem,
    TwoQubitPure,
    apply_pauli,
    bloch_from_state,
    ensemble_average_bloch,
    overlap,
    reduced_bloch,
    state_from_bloch,
)
from .protocol import (
    DEFAULT_LOSS_PAYOUT,
    CheckResult,
    ProtocolParams,
    ProtocolViolation,
    RoundRecord,
    RoundType,
    SessionStats,
    StateLabel,
    run_round,
    run_session,
    run_session_fast,
    session_rng,
)
from .strategies import (
    CheatPoint,
    ClaimPolicy,
    ensemble_cheat,
    entangled_cheat,
    fixed_state_cheat,
    honest_alice,
    honest_bob,
    standard_attack_state,
)
from .analysis import (
    GainBreakdown,
    MonteCarloEstimate,
    Optimum,
    cheat_gain_exact,
    cheat_gain_quadratic_bound,
    claim_gain_upper_bound,
    monte_carlo_gain,
    optimal_check_rate,
    oracle_expected_gain,
    oracle_transcript_distribution,
    protocol_constants,
    quadratic_bound_optimum,
    sweep_cheat_gain,
    unmeasured_posterior,
)

__version__ = "0.1.0"
