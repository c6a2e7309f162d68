"""Round and session execution for the gambling protocol.

One round: Alice prepares a qubit register and sends subsystem B to Bob
(a lone qubit for unentangled play).  An optional Pauli noise channel acts
on the transmitted qubit.  Bob then either plays a normal round (measure,
announce a guess about which legal state was sent) or, with the check
rate, a checking round (store the qubit, announce a uniformly random
guess).  Alice answers with a claim label, which fixes the win/lose
announcement: Bob wins exactly when his guess equals the claim.  In a
checking round the engine then measures the stored qubit in the claimed
state's eigenbasis; an orthogonal outcome convicts Alice and costs her the
penalty, otherwise the round settles like a normal one.  The verdict is a
protocol step, like the settlement: no strategy reports it.

Coins flow through a zero-sum ledger: a Bob win costs Alice `win_payout`
(one coin by default), a Bob loss pays Alice `loss_payout` (p/(1-p) by
default, which makes normal rounds exactly fair against honest play).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .qubits import (
    BASIS_DISCRIM,
    BASIS_X,
    BASIS_Z,
    KET_0,
    KET_PLUS,
    OPTIMAL_GUESS_PROB,
    PAULI_AXES,
    Ensemble,
    MeasurementBasis,
    Outcome,
    PureQubit,
    Subsystem,
    TwoQubitPure,
    _bloch_xyz,
    apply_pauli,
    apply_pauli_pair,
    measure,
    measure_subsystem,
)

__all__ = [
    "DEFAULT_LOSS_PAYOUT",
    "MIN_CHECKS_FOR_ABORT",
    "StateLabel",
    "RoundType",
    "CheckResult",
    "ProtocolParams",
    "RoundRecord",
    "SessionStats",
    "ProtocolViolation",
    "RoundRegister",
    "SubsystemView",
    "BobMove",
    "run_round",
    "run_session",
    "run_session_fast",
    "session_rng",
]

#: Payout to Alice when Bob guesses wrong; chosen so that honest normal
#: rounds have zero expected transfer when Bob guesses right with
#: probability OPTIMAL_GUESS_PROB.
DEFAULT_LOSS_PAYOUT = OPTIMAL_GUESS_PROB / (1.0 - OPTIMAL_GUESS_PROB)

#: The abort rule only engages once this many checking rounds have been seen.
MIN_CHECKS_FOR_ABORT = 100


class StateLabel(Enum):
    """Identity of a legal protocol state: |0> or |+>."""

    ZERO = "zero"
    PLUS = "plus"

    @property
    def state(self) -> PureQubit:
        return KET_0 if self is StateLabel.ZERO else KET_PLUS

    @property
    def verification_basis(self) -> MeasurementBasis:
        """Eigenbasis used to test a claim; the claimed state sits on `plus`."""
        return BASIS_Z if self is StateLabel.ZERO else BASIS_X

    def other(self) -> "StateLabel":
        return StateLabel.PLUS if self is StateLabel.ZERO else StateLabel.ZERO


class RoundType(Enum):
    NORMAL = "normal"
    CHECK = "check"


class CheckResult(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


# The round path reads enum members through these names: on Python 3.11,
# reading a member off its Enum class costs about 0.1 us, several times
# per round.
_A, _B = Subsystem.A, Subsystem.B
_NORMAL, _CHECK = RoundType.NORMAL, RoundType.CHECK
_PASS, _FAIL = CheckResult.PASS, CheckResult.FAIL
_NOT_APPLICABLE = CheckResult.NOT_APPLICABLE
_PLUS, _MINUS = Outcome.PLUS, Outcome.MINUS


class ProtocolViolation(RuntimeError):
    """A strategy acted on a subsystem it does not control."""


@dataclass(frozen=True)
class ProtocolParams:
    """Public parameters of a session.

    check_rate: probability of a checking round.
    penalty: coins Alice pays when convicted in a checking round.
    noise: per-round probability of a uniformly random Pauli error on the
        transmitted qubit.
    abort_threshold: Bob aborts once the empirical check-failure rate
        exceeds this, after MIN_CHECKS_FOR_ABORT checking rounds.
    """

    check_rate: float
    penalty: float
    loss_payout: float = DEFAULT_LOSS_PAYOUT
    win_payout: float = 1.0
    noise: float = 0.0
    abort_threshold: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.check_rate < 1.0:
            raise ValueError(f"check_rate must lie in (0, 1), got {self.check_rate}")
        if not (math.isfinite(self.penalty) and self.penalty > 0.0):
            raise ValueError(f"penalty must be positive and finite, got {self.penalty}")
        for name in ("loss_payout", "win_payout"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError(f"noise must lie in [0, 1), got {self.noise}")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ValueError("abort_threshold must lie in [0, 1]")


class RoundRecord(NamedTuple):
    """Transcript of one round; `transfer` is signed, positive = paid to Alice."""

    round_type: RoundType
    bob_guess: StateLabel
    alice_claim: StateLabel
    check_result: CheckResult
    transfer: float
    bob_measurement_outcome: Optional[Outcome] = None

    def settlement_ok(self, params: ProtocolParams) -> bool:
        """Does the transfer follow from the announcements and check result?"""
        if (self.check_result is CheckResult.NOT_APPLICABLE) != (
            self.round_type is RoundType.NORMAL
        ):
            return False
        if self.check_result is CheckResult.FAIL:
            return self.transfer == -params.penalty
        return self.transfer == _settle(self.bob_guess, self.alice_claim, params)

    def as_row(self) -> dict:
        return {
            "round_type": self.round_type.value,
            "bob_guess": self.bob_guess.value,
            "alice_claim": self.alice_claim.value,
            "check_result": self.check_result.value,
            "transfer": self.transfer,
        }


@dataclass(frozen=True)
class SessionStats:
    """Aggregated ledger of a session.  Bob's total is minus Alice's."""

    rounds: int
    alice_gain_total: float
    transfer_sq_total: float
    check_rounds: int
    check_fails: int
    bob_wins: int
    aborted: bool

    @property
    def normal_rounds(self) -> int:
        return self.rounds - self.check_rounds

    @property
    def bob_gain_total(self) -> float:
        return -self.alice_gain_total

    @property
    def normal_win_rate(self) -> float:
        if self.normal_rounds == 0:
            raise ValueError("no normal rounds played")
        return self.bob_wins / self.normal_rounds

    def merge(self, other: "SessionStats") -> "SessionStats":
        return SessionStats(
            rounds=self.rounds + other.rounds,
            alice_gain_total=self.alice_gain_total + other.alice_gain_total,
            transfer_sq_total=self.transfer_sq_total + other.transfer_sq_total,
            check_rounds=self.check_rounds + other.check_rounds,
            check_fails=self.check_fails + other.check_fails,
            bob_wins=self.bob_wins + other.bob_wins,
            aborted=self.aborted or other.aborted,
        )


class BobMove(NamedTuple):
    """Bob's reply in a round: his announced guess, and either the stored
    qubit view (checking round) or his measurement outcome (normal round)."""

    guess: StateLabel
    stored: Optional["SubsystemView"]
    outcome: Optional[Outcome]


class RoundRegister:
    """Engine-owned quantum state of one round.

    Strategies never hold raw states during play; they measure through
    SubsystemView handles, which lets the engine enforce that each party
    touches only its own subsystem and that nothing is measured twice.
    Subsystem A belongs to "alice" and B to "bob".
    """

    __slots__ = ("_state", "_pure_holder", "_a_measured", "_b_measured")

    def __init__(self, state: PureQubit | TwoQubitPure):
        self._state: PureQubit | TwoQubitPure | None = state
        # For a lone qubit, which subsystem it belongs to.
        self._pure_holder = _B
        self._a_measured = False
        self._b_measured = False

    def apply_noise(self, eps: float, rng) -> None:
        """Pauli channel on the transmitted subsystem (B), in transit."""
        if eps == 0.0 or rng.random() >= eps:
            return
        axis = PAULI_AXES[rng.integers(3)]
        if isinstance(self._state, TwoQubitPure):
            self._state = apply_pauli_pair(self._state, Subsystem.B, axis)
        else:
            assert self._state is not None and self._pure_holder is Subsystem.B
            self._state = apply_pauli(self._state, axis)

    def measure(
        self, which: Subsystem, basis: MeasurementBasis, rng, actor: str
    ) -> Outcome:
        is_a = which is _A
        owner = "alice" if is_a else "bob" if which is _B else None
        if actor != owner:
            raise ProtocolViolation(
                f"{actor} attempted to measure subsystem {which.value}"
            )
        if self._a_measured if is_a else self._b_measured:
            raise ProtocolViolation(f"subsystem {which.value} was already measured")
        state = self._state
        if isinstance(state, TwoQubitPure):
            outcome, self._state = measure_subsystem(state, which, basis, rng)
            self._pure_holder = _B if is_a else _A
        else:
            if state is None or which is not self._pure_holder:
                raise ProtocolViolation(
                    f"{actor} holds no qubit on subsystem {which.value}"
                )
            outcome, self._state = measure(state, basis, rng)
        if is_a:
            self._a_measured = True
        else:
            self._b_measured = True
        return outcome


class SubsystemView:
    """A party's measurement handle onto its own half of the round register."""

    __slots__ = ("_register", "_which", "_actor")

    def __init__(self, register: RoundRegister, which: Subsystem, actor: str):
        self._register = register
        self._which = which
        self._actor = actor

    def measure(
        self, basis: MeasurementBasis, rng, which: Subsystem | None = None
    ) -> Outcome:
        """Measure the holder's subsystem.  Naming any other subsystem is a
        protocol violation and raises."""
        return self._register.measure(
            self._which if which is None else which, basis, rng, self._actor
        )


def _settle(guess: StateLabel, claim: StateLabel, params: ProtocolParams) -> float:
    return -params.win_payout if guess == claim else params.loss_payout


def _play_round(alice, bob, params: ProtocolParams, rng) -> tuple:
    """Play one round between an Alice and a Bob strategy; returns the
    RoundRecord fields as a plain tuple."""
    prep = alice.prepare(rng)
    register = RoundRegister(prep.state)
    if params.noise > 0.0:
        register.apply_noise(params.noise, rng)

    is_check = rng.random() < params.check_rate
    move = bob.play(SubsystemView(register, _B, "bob"), is_check, rng)
    guess = move.guess
    claim = alice.claim(prep.memo, SubsystemView(register, _A, "alice"), guess, rng)

    if is_check:
        if move.stored is None:
            raise ProtocolViolation("checking round requires Bob to store the qubit")
        # The engine measures subsystem B itself, not through the object Bob
        # returned, so nothing Bob hands back can decide the verdict.  If he
        # measured the qubit before the claim, the register raises.
        if register.measure(_B, claim.verification_basis, rng, "bob") is _MINUS:
            return _CHECK, guess, claim, _FAIL, -params.penalty, _MINUS
        round_type, result, outcome = _CHECK, _PASS, _PLUS
    else:
        round_type, result, outcome = _NORMAL, _NOT_APPLICABLE, move.outcome
    return round_type, guess, claim, result, _settle(guess, claim, params), outcome


def run_round(alice, bob, params: ProtocolParams, rng) -> RoundRecord:
    """Execute one protocol round between an Alice and a Bob strategy."""
    return RoundRecord(*_play_round(alice, bob, params, rng))


#: Blocks of uniforms a session draws ahead of its rounds: the first holds
#: _BLOCK_MIN doubles and each next one twice as many, up to _BLOCK_CAP.
_BLOCK_MIN, _BLOCK_CAP = 16, 1024


class _Draws:
    """Serves a session's uniforms from blocks drawn off its Generator.

    `Generator.random(n)` yields the same doubles as n calls of
    `Generator.random()`, so a block changes no draw.  The Generator runs
    ahead of the draws used; `sync` winds it back to exactly where
    one-at-a-time draws would leave it, by restoring the state saved
    before the block and replaying the doubles used.  The saved state
    includes the bit generator's 32-bit buffer, which `random` never
    touches.  Any other use of the Generator through this object syncs
    first and then goes to the Generator itself.
    """

    __slots__ = ("_rng", "_block", "_size", "_saved")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block = iter(())
        self._size = _BLOCK_MIN // 2
        self._saved = None

    def random(self, size=None, dtype=None, out=None):
        if size is None and dtype is None and out is None:
            for u in self._block:
                return u
            return self._refill()
        self.sync()
        return self._rng.random(size, np.float64 if dtype is None else dtype, out)

    def _refill(self) -> float:
        rng = self._rng
        self._saved = rng.bit_generator.state
        size = self._size = min(2 * self._size, _BLOCK_CAP)
        self._block = block = iter(rng.random(size).tolist())
        return next(block)

    def sync(self) -> None:
        """Put the Generator where one-at-a-time draws would have left it."""
        left = operator.length_hint(self._block)
        if left:
            rng = self._rng
            rng.bit_generator.state = self._saved
            rng.random(self._size - left)
            self._block = iter(())

    def __getattr__(self, name):
        if name in _Draws.__slots__:
            raise AttributeError(name)
        self.sync()
        return getattr(self._rng, name)


def _round_count(n_rounds) -> int:
    """`n_rounds` as an int; bools, floats and other non-integers raise."""
    if isinstance(n_rounds, bool):
        raise TypeError("n_rounds must be an integer")
    try:
        n_rounds = operator.index(n_rounds)
    except TypeError:
        raise TypeError("n_rounds must be an integer") from None
    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    return n_rounds


def run_session(
    alice,
    bob,
    params: ProtocolParams,
    n_rounds: int,
    rng,
    on_round: Callable[[RoundRecord], None] | None = None,
) -> SessionStats:
    """Run rounds sequentially, stopping early if the abort rule triggers.

    `on_round`, when given, receives every RoundRecord (transcript hook);
    without it no record is built.

    A noiseless session on a `numpy.random.Generator` draws its uniforms
    in blocks: the engine and the players receive a wrapper as `rng` that
    serves the same doubles in the same order as the Generator would.
    Every other use of that wrapper (`integers`, `normal`, `random(3)`,
    `bit_generator`, ...) first puts the Generator where one-at-a-time
    draws would have left it, and so does `run_session` on return and when
    an exception propagates.  While the session runs, though, the
    Generator itself is ahead of the draws used: code that draws from the
    same Generator object other than through the `rng` argument, such as
    an `on_round` hook or a strategy that kept its own reference to it,
    sees different numbers than with one-at-a-time draws.  Noisy sessions
    and other `rng` types draw directly.
    """
    n_rounds = _round_count(n_rounds)
    draws = None
    if type(rng) is np.random.Generator and params.noise == 0.0:
        rng = draws = _Draws(rng)
    try:
        return _run_rounds(alice, bob, params, n_rounds, rng, on_round)
    finally:
        if draws is not None:
            draws.sync()


def _run_rounds(alice, bob, params, n_rounds, rng, on_round) -> SessionStats:
    total = 0.0
    total_sq = 0.0
    checks = fails = wins = played = 0
    aborted = False
    abort_threshold = params.abort_threshold
    for _ in range(n_rounds):
        values = _play_round(alice, bob, params, rng)
        round_type, guess, claim, result, transfer, _ = values
        played += 1
        total += transfer
        total_sq += transfer * transfer
        if round_type is _CHECK:
            checks += 1
            if result is _FAIL:
                fails += 1
        elif guess == claim:
            wins += 1
        if on_round is not None:
            on_round(RoundRecord(*values))
        if checks >= MIN_CHECKS_FOR_ABORT and fails > abort_threshold * checks:
            aborted = True
            break
    return SessionStats(played, total, total_sq, checks, fails, wins, aborted)


def run_session_fast(
    members: Sequence[tuple[float, PureQubit, StateLabel]],
    params: ProtocolParams,
    n_rounds: int,
    rng,
) -> SessionStats:
    """Count-level session against honest Bob for unentangled preparations.

    `members` lists Alice's per-round preparation mixture as
    (weight, state, claim label) triples; the weights must form a
    probability distribution, as in `Ensemble`.  The claim may not depend
    on Bob's guess (true of every unentangled built-in strategy).

    Rounds are i.i.d. and the ledger depends on them only through five
    class counts: normal win, normal loss, check fail, check-pass win and
    check-pass loss.  So the counts are drawn directly, with the
    mixture-averaged win and fail probabilities, distributed exactly as
    the ledger of `run_session` with honest players.  When the abort rule
    can trigger, only the check rounds are walked (geometric gaps between
    them, a Bernoulli fail at each) up to the first check that triggers
    it.  Time is O(check_rate * n_rounds) and memory does not grow with
    n_rounds.
    """
    n_rounds = _round_count(n_rounds)
    Ensemble(tuple((w, s) for w, s, _ in members))  # raises unless a distribution
    win, fail = _class_probabilities(members, params.noise)

    if params.abort_threshold >= 1.0:
        kept, aborted = n_rounds, False
        checks = int(rng.binomial(n_rounds, params.check_rate))
        fails = int(rng.binomial(checks, fail))
    else:
        kept, checks, fails, aborted = _walk_checks(n_rounds, fail, params, rng)
    passes = checks - fails
    pass_wins = int(rng.binomial(passes, 0.5))
    wins = int(rng.binomial(kept - checks, win))
    losses = kept - checks - wins + passes - pass_wins
    bob_paid = wins + pass_wins
    return SessionStats(
        rounds=kept,
        alice_gain_total=params.loss_payout * losses
        - params.win_payout * bob_paid
        - params.penalty * fails,
        transfer_sq_total=params.loss_payout**2 * losses
        + params.win_payout**2 * bob_paid
        + params.penalty**2 * fails,
        check_rounds=checks,
        check_fails=fails,
        bob_wins=wins,
        aborted=aborted,
    )


# Per claim, the Bloch vectors of the projector whose outcome is a Bob win
# in a normal round (the discrimination outcome pointing at the claim) and
# of the one that convicts in a check (the claim's verification minus).
_WIN_AXIS = {
    StateLabel.ZERO: _bloch_xyz(BASIS_DISCRIM.plus),
    StateLabel.PLUS: _bloch_xyz(BASIS_DISCRIM.minus),
}
_FAIL_AXIS = {lab: _bloch_xyz(lab.verification_basis.minus) for lab in StateLabel}


def _class_probabilities(
    members: Sequence[tuple[float, PureQubit, StateLabel]], eps: float
) -> tuple[float, float]:
    """Probabilities of a Bob win in a normal round and of a failed check.

    Both are linear in each claim's weighted Bloch vector
    sigma_c = sum of w_k v_k over the members claiming c: a projector with
    Bloch vector n fires with probability (t_c + n.sigma_c)/2, where t_c is
    the claim's total weight.  The Pauli channel of rate eps scales every
    Bloch vector by 1 - 4 eps/3 (the depolarizing channel).
    """
    sigma = dict.fromkeys(_WIN_AXIS, (0.0, 0.0, 0.0, 0.0))  # claim: (t_c, sigma_c)
    for w, s, lab in members:
        vx, vy, vz = _bloch_xyz(s)
        t, x, y, z = sigma[lab]
        sigma[lab] = (t + w, x + w * vx, y + w * vy, z + w * vz)
    shrink = 1.0 - 4.0 * eps / 3.0
    win = fail = 0.0
    for claim, (t, x, y, z) in sigma.items():
        x, y, z = shrink * x, shrink * y, shrink * z
        nx, ny, nz = _WIN_AXIS[claim]
        win += 0.5 * (t + nx * x + ny * y + nz * z)
        nx, ny, nz = _FAIL_AXIS[claim]
        fail += 0.5 * (t + nx * x + ny * y + nz * z)
    # Rounding can carry either sum an ulp outside [0, 1].
    return min(max(win, 0.0), 1.0), min(max(fail, 0.0), 1.0)


#: Check rounds drawn per step of `_walk_checks`.
_CHECK_CHUNK = 4096


def _walk_checks(
    n_rounds: int, fail: float, params: ProtocolParams, rng
) -> tuple[int, int, int, bool]:
    """Draw the check-round subsequence up to the abort or the last round.

    Returns (rounds kept, checks, fails, aborted).  Only check rounds can
    trigger the abort rule, so the session stops at the first check where
    it holds; that round is the last one kept.
    """
    pos = checks = fails = 0
    while True:
        size = min(_CHECK_CHUNK, n_rounds - pos)
        at = pos + np.cumsum(rng.geometric(params.check_rate, size))
        cum_fails = fails + np.cumsum(rng.random(size) < fail)
        cum_checks = np.arange(checks + 1, checks + size + 1)
        inside = int(np.searchsorted(at, n_rounds, side="right"))
        trigger = (cum_checks[:inside] >= MIN_CHECKS_FOR_ABORT) & (
            cum_fails[:inside] > params.abort_threshold * cum_checks[:inside]
        )
        if trigger.any():
            i = int(np.argmax(trigger))
            return int(at[i]), int(cum_checks[i]), int(cum_fails[i]), True
        if inside:
            last = inside - 1
            pos, checks, fails = int(at[last]), int(cum_checks[last]), int(cum_fails[last])
        if inside < size or pos == n_rounds:
            return n_rounds, checks, fails, False


def session_rng(master_seed: int, session_index: int = 0) -> np.random.Generator:
    """Deterministic per-session stream: child `session_index` of the master seed.

    Parallel and serial runs agree because each session's stream depends
    only on (master_seed, session_index).
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(session_index,))
    return np.random.default_rng(seq)
