"""Shared hypothesis strategies and small independent oracles for the tests."""

import math

import numpy as np
from hypothesis import strategies as st

from qgamble.analysis import oracle_transcript_distribution
from qgamble.protocol import (
    DEFAULT_LOSS_PAYOUT,
    CheckResult,
    ProtocolParams,
    RoundType,
    SessionStats,
)
from qgamble.qubits import MeasurementBasis, PureQubit, TwoQubitPure, orthogonal_state

_component = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def pure_qubits(draw):
    parts = [draw(_component) for _ in range(4)]
    a0 = complex(parts[0], parts[1])
    a1 = complex(parts[2], parts[3])
    norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    if norm < 0.2:
        a0, norm = a0 + 1.0, abs(a0 + 1.0 + 0j)
        norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    return PureQubit(a0 / norm, a1 / norm)


@st.composite
def two_qubit_states(draw):
    parts = [draw(_component) for _ in range(8)]
    amps = [complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    if norm < 0.2:
        amps[0] += 1.0
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return TwoQubitPure(tuple(a / norm for a in amps))


@st.composite
def bases(draw):
    plus = draw(pure_qubits())
    return MeasurementBasis(plus, orthogonal_state(plus), "random")


def amps_vector(state: TwoQubitPure) -> np.ndarray:
    """Raw amplitude 4-vector in |00>,|01>,|10>,|11> order."""
    return np.array(state.amps, dtype=complex)


def partial_trace_bloch(state: TwoQubitPure, keep_second: bool) -> tuple[float, float, float]:
    """Independent reduced-state Bloch vector via an explicit density matrix."""
    psi = amps_vector(state).reshape(2, 2)
    if keep_second:
        rho = np.einsum("ab,ac->bc", psi, psi.conj())
    else:
        rho = np.einsum("ab,cb->ac", psi, psi.conj())
    x = 2.0 * rho[0, 1].real
    y = -2.0 * rho[0, 1].imag
    z = (rho[0, 0] - rho[1, 1]).real
    return x, y, z


def joint_probability(
    state: TwoQubitPure, a_state: PureQubit, b_state: PureQubit
) -> float:
    """|<a (x) b | psi>|^2 computed directly from the amplitudes."""
    amp = 0.0 + 0.0j
    for i, ai in enumerate((a_state.amp0, a_state.amp1)):
        for j, bj in enumerate((b_state.amp0, b_state.amp1)):
            amp += ai.conjugate() * bj.conjugate() * state.amp(i, j)
    return abs(amp) ** 2


def class_counts(stats: SessionStats, params: ProtocolParams) -> list[int]:
    """(normal win, normal loss, check fail, check-pass win, check-pass
    loss) counts, the last two recovered from the ledger total."""
    win, loss = 1.0, DEFAULT_LOSS_PAYOUT
    normal_loss = stats.normal_rounds - stats.bob_wins
    passes = stats.check_rounds - stats.check_fails
    pass_loss = (
        stats.alice_gain_total - loss * normal_loss + win * stats.bob_wins
        + win * passes + params.penalty * stats.check_fails
    ) / (loss + win)
    assert abs(pass_loss - round(pass_loss)) < 1e-6
    pass_loss = round(pass_loss)
    counts = [stats.bob_wins, normal_loss, stats.check_fails, passes - pass_loss, pass_loss]
    assert min(counts) >= 0, counts
    return counts


def class_masses(alice, params: ProtocolParams) -> list[float]:
    """The same five classes' probabilities from the enumeration oracle."""
    masses = [0.0] * 5
    for (kind, guess, claim, result), prob in oracle_transcript_distribution(
        alice, params
    ).items():
        if kind is RoundType.NORMAL:
            masses[0 if guess == claim else 1] += prob
        elif result is CheckResult.FAIL:
            masses[2] += prob
        else:
            masses[3 if guess == claim else 4] += prob
    return masses


def kept_ledger_chi2(sessions) -> float:
    """Pooled fit of where sessions stopped to what they kept.

    `sessions` holds (class_counts, class_masses) pairs.  The abort rule
    reads only the check rounds and their results, so given a session's
    normal rounds and passed checks, its normal wins and its pass wins are
    binomial with the oracle's conditional win masses, whether or not it
    aborted.  Returns z_normal**2 + z_pass**2 of the pooled win counts,
    chi-square with 2 degrees of freedom for an exact sampler.
    """
    dev = [0.0, 0.0]
    var = [0.0, 0.0]
    for counts, masses in sessions:
        for j, (won, lost) in enumerate(((0, 1), (3, 4))):
            n = counts[won] + counts[lost]
            if n == 0:
                continue
            p = masses[won] / (masses[won] + masses[lost])
            dev[j] += counts[won] - n * p
            var[j] += n * p * (1.0 - p)
    for d, v in zip(dev, var):
        assert v > 0.0 or d == 0.0, (dev, var)
    return math.fsum(d * d / v for d, v in zip(dev, var) if v > 0.0)
