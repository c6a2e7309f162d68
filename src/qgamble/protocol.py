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

Coins flow through a zero-sum ledger under a fixed rule: a Bob win costs
Alice one coin, a Bob loss pays her `DEFAULT_LOSS_PAYOUT` = p/(1-p), with
p = cos^2(pi/8), which makes normal rounds exactly fair against honest play.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

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
    _split,
    apply_pauli,
    apply_pauli_pair,
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
_LABEL_ZERO, _LABEL_PLUS = StateLabel.ZERO, StateLabel.PLUS


class ProtocolViolation(RuntimeError):
    """A strategy broke a rule of the protocol: it acted on a subsystem it
    does not control, or announced a guess or claim that is not a
    StateLabel."""


def _check_rate(value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"check_rate must lie in (0, 1), got {value}")


def _check_label(value, what: str) -> None:
    if not isinstance(value, StateLabel):
        raise ValueError(f"{what} must be a StateLabel, got {value!r}")


def _check_penalty(value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"penalty must be positive and finite, got {value}")


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
    noise: float = 0.0
    abort_threshold: float = 0.05

    def __post_init__(self):
        _check_rate(self.check_rate)
        _check_penalty(self.penalty)
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

    def settlement_ok(self, params: ProtocolParams) -> bool:
        """Does the transfer follow from the announcements and check result?"""
        if (self.check_result is _NOT_APPLICABLE) != (self.round_type is _NORMAL):
            return False
        if self.check_result is _FAIL:
            return self.transfer == -params.penalty
        return self.transfer == _settle(self.bob_guess, self.alice_claim)

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


#: A split table is cleared once it holds this many entries, so a session
#: that sends a new state object every round keeps a bounded table.
_SPLITS_MAX = 64


class RoundRegister:
    """Engine-owned quantum state of a round.

    Strategies never hold raw states during play; they measure through
    SubsystemView handles, which lets the engine enforce that each party
    touches only its own subsystem and that nothing is measured twice.
    Subsystem A belongs to "alice" and B to "bob".  The rules live in
    `SubsystemView.measure`.

    One register serves a whole session: at the start of each round the
    engine resets its state, its lone-qubit holder (B) and both measured
    flags.  `_splits` is the register's table of what its states turn
    into: exact splits (`qubits._split`), keyed by (id(state), measures A,
    id(basis)), and the states the Pauli channel flips to, keyed by
    (id(state), axis index).  Each entry holds the objects of its key, so
    no id can be reused while the entry exists.  The table stays on the
    register across the rounds of a session, and `run_round` and a bare
    register start an empty one.
    """

    __slots__ = ("_state", "_pure_holder", "_a_measured", "_b_measured", "_splits")

    def __init__(self, state: PureQubit | TwoQubitPure | None):
        self._state: PureQubit | TwoQubitPure | None = state
        # For a lone qubit, which subsystem it belongs to.
        self._pure_holder = _B
        self._a_measured = False
        self._b_measured = False
        self._splits: dict = {}

    def apply_noise(self, eps: float, rng) -> None:
        """Pauli channel on the transmitted subsystem (B), in transit.

        `apply_pauli` and `apply_pauli_pair` are deterministic, so a state
        is flipped once per axis and the flipped state reused from the
        split table, which has then split it already."""
        if eps == 0.0 or rng.random() >= eps:
            return
        index = int(3.0 * rng.random())
        state, splits = self._state, self._splits
        key = (id(state), index)
        entry = splits.get(key)
        if entry is None:
            if isinstance(state, TwoQubitPure):
                flipped = apply_pauli_pair(state, _B, PAULI_AXES[index])
            else:
                assert state is not None and self._pure_holder is _B
                flipped = apply_pauli(state, PAULI_AXES[index])
            if len(splits) >= _SPLITS_MAX:
                splits.clear()
            entry = splits[key] = (flipped, state)
        self._state = entry[0]


class SubsystemView:
    """A party's measurement handle onto its own half of the round register.

    A session hands each party one view for all its rounds, so a view
    always refers to the current round: one kept from an earlier round
    measures this round's qubit, under this round's rules.  The view holds
    `draw`, the engine stream's uniform draw, and every outcome is drawn
    from it, never from a party's own stream.
    """

    __slots__ = ("_register", "_which", "_actor", "_draw")

    def __init__(
        self,
        register: RoundRegister,
        which: Subsystem | None,
        actor: str,
        draw: Callable[[], float],
    ):
        self._register = register
        self._which = which
        self._actor = actor
        self._draw = draw

    def measure(self, basis: MeasurementBasis, which: Subsystem | None = None) -> Outcome:
        """Measure the holder's subsystem.  Naming any other subsystem is a
        protocol violation and raises, as does measuring a subsystem twice
        in a round or one that holds no qubit."""
        own = self._which
        if which is not None and which is not own:
            raise ProtocolViolation(
                f"{self._actor} attempted to measure subsystem {which.value}"
            )
        register = self._register
        is_a = own is _A
        if register._a_measured if is_a else register._b_measured:
            raise ProtocolViolation(f"subsystem {own.value} was already measured")
        state = register._state
        entangled = isinstance(state, TwoQubitPure)
        if not entangled and (state is None or own is not register._pure_holder):
            raise ProtocolViolation(
                f"{self._actor} holds no qubit on subsystem {own.value}"
            )
        splits = register._splits
        key = (id(state), is_a, id(basis))
        entry = splits.get(key)
        if entry is None:
            if len(splits) >= _SPLITS_MAX:
                splits.clear()
            entry = splits[key] = (*_split(state, own, basis), state, basis)
        if self._draw() < entry[0]:
            outcome, register._state = _PLUS, entry[1]
        else:
            outcome, register._state = _MINUS, entry[2]
        if entangled:
            register._pure_holder = _B if is_a else _A
        if is_a:
            register._a_measured = True
        else:
            register._b_measured = True
        return outcome


def _settle(guess: StateLabel, claim: StateLabel) -> float:
    """The settlement rule, which `_run_rounds` applies inline."""
    return -1.0 if guess == claim else DEFAULT_LOSS_PAYOUT


# The protocol's projectors as Bloch axes: Bob's outcome that announces
# guess zero, and per claim the verification outcome that convicts.
_GUESS_ZERO_AXIS = _bloch_xyz(BASIS_DISCRIM.plus)
_FAIL_AXIS = {lab: _bloch_xyz(lab.verification_basis.minus) for lab in StateLabel}


def _born(axis, t, x, y, z):
    """(t + n.v)/2, with n the projector's Bloch `axis`: the weight with
    which it fires on states of total weight t whose weighted Bloch vectors
    sum to v = (x, y, z).  Works on floats and on numpy arrays."""
    nx, ny, nz = axis
    return 0.5 * (t + (nx * x + ny * y + nz * z))


def run_round(alice, bob, params: ProtocolParams, rng) -> RoundRecord:
    """Execute one protocol round between an Alice and a Bob strategy.

    Like `run_session`, it seeds three private streams from `rng`.  The
    three `PCG64` seedings cost several times the round itself, so play
    many rounds with `run_session`, which seeds once.
    """
    records: list = []
    _run_rounds(alice, bob, params, 1, _streams(rng), records.append)
    return records[0]


#: Blocks of uniforms a stream draws ahead: the first holds _BLOCK_MIN
#: doubles and each next one twice as many, up to _BLOCK_CAP.
_BLOCK_MIN, _BLOCK_CAP = 16, 1024


def _blocks(generator: np.random.Generator):
    """The blocks of uniforms a stream serves, as lists, drawn when asked.

    It takes the Generator, not the stream: a stream it referred to would
    sit in a reference cycle and keep its blocks until the cyclic GC ran.
    """
    n = _BLOCK_MIN
    while True:
        yield generator.random(n).tolist()
        n = min(2 * n, _BLOCK_CAP)


class _Draws:
    """One private stream: `random()` is served from blocks drawn off the
    stream's own Generator, and every other attribute is the Generator's.

    `Generator.random(n)` yields the same doubles as n calls of
    `Generator.random()`.  Nothing else draws from this Generator, so
    running it ahead of the doubles used changes nobody's numbers.  The
    doubles come from `_next`, a C-level iterator over `_blocks`, which
    the engine and the views call directly.
    """

    __slots__ = ("_rng", "_next")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._next = itertools.chain.from_iterable(_blocks(rng)).__next__

    def random(self, size=None, dtype=None, out=None):
        # Named parameters, not *args and **kwargs: an empty **kwargs dict
        # costs about 60 ns a call, and a session makes several a round.
        if size is not None or dtype is not None or out is not None:
            return self._rng.random(size, np.float64 if dtype is None else dtype, out)
        return self._next()

    def __getattr__(self, name):
        if name in _Draws.__slots__:
            raise AttributeError(name)
        return getattr(self._rng, name)


def _streams(rng) -> tuple[_Draws, _Draws, _Draws]:
    """The private streams of the engine, Alice and Bob, each seeded from
    its own draw of one `rng.integers(2**63, size=3)` call.

    A party can read its own seed (`bit_generator.seed_seq`), and one
    draw of `rng` does not give the others.  The children of one
    `SeedSequence.spawn` share their entropy, so each party could rebuild
    the others' streams from its own.
    """
    seeds = rng.integers(2**63, size=3).tolist()
    return tuple(_Draws(np.random.Generator(np.random.PCG64(seed))) for seed in seeds)


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

    The engine, Alice and Bob each draw from a private stream, each
    seeded from its own draw of one `rng.integers(2**63, size=3)` call: a
    session advances the caller's `rng` by exactly that call.  The
    engine's stream draws the check coins, the noise and every
    measurement outcome; each party receives its own stream as `rng`.
    """
    n_rounds = _round_count(n_rounds)
    return _run_rounds(alice, bob, params, n_rounds, _streams(rng), on_round)


def _run_rounds(alice, bob, params, n_rounds, streams, on_round) -> SessionStats:
    """Play up to `n_rounds` rounds on one register and one pair of views;
    `streams` are the engine's, Alice's and Bob's."""
    rng, alice_rng, bob_rng = streams
    draw = rng._next
    check_rate, noise = params.check_rate, params.noise
    abort_threshold = params.abort_threshold
    on_win, on_loss, on_fail = -1.0, DEFAULT_LOSS_PAYOUT, -params.penalty
    prepare, claim_of, play = alice.prepare, alice.claim, bob.play
    register = RoundRegister(None)
    bob_view = SubsystemView(register, _B, "bob", draw)
    alice_view = SubsystemView(register, _A, "alice", draw)
    total = total_sq = 0.0
    checks = fails = wins = played = 0
    aborted = False
    for played in range(1, n_rounds + 1):
        prep = prepare(alice_rng)
        register._state = prep.state
        register._pure_holder = _B
        register._a_measured = register._b_measured = False
        if noise > 0.0:
            register.apply_noise(noise, rng)
        is_check = draw() < check_rate
        guess = play(bob_view, is_check, bob_rng)
        if guess is not _LABEL_ZERO and guess is not _LABEL_PLUS:
            raise ProtocolViolation(f"bob guessed {guess!r}, which is not a StateLabel")
        claim = claim_of(prep.memo, alice_view, guess, alice_rng)
        if claim is _LABEL_ZERO:
            basis = BASIS_Z
        elif claim is _LABEL_PLUS:
            basis = BASIS_X
        else:
            raise ProtocolViolation(f"alice claimed {claim!r}, which is not a StateLabel")
        transfer = on_win if guess is claim else on_loss
        if is_check:
            # The engine measures subsystem B through its own view, so
            # nothing Bob returns or defines can decide the verdict.  If he
            # measured the qubit before the claim, the view raises.
            checks += 1
            if bob_view.measure(basis) is _MINUS:
                fails += 1
                round_type, result, transfer = _CHECK, _FAIL, on_fail
            else:
                round_type, result = _CHECK, _PASS
        else:
            if guess is claim:
                wins += 1
            round_type, result = _NORMAL, _NOT_APPLICABLE
        total += transfer
        total_sq += transfer * transfer
        if on_round is not None:
            on_round(tuple.__new__(
                RoundRecord, (round_type, guess, claim, result, transfer)))
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
    for i, (_, _, claim) in enumerate(members):
        _check_label(claim, f"the claim of members[{i}]")
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
        alice_gain_total=DEFAULT_LOSS_PAYOUT * losses - bob_paid - params.penalty * fails,
        transfer_sq_total=DEFAULT_LOSS_PAYOUT**2 * losses + bob_paid + params.penalty**2 * fails,
        check_rounds=checks,
        check_fails=fails,
        bob_wins=wins,
        aborted=aborted,
    )


def _class_probabilities(
    members: Sequence[tuple[float, PureQubit, StateLabel]], eps: float
) -> tuple[float, float]:
    """Probabilities of a Bob win in a normal round and of a failed check.

    Both are linear in each claim's weighted Bloch vector
    sigma_c = sum of w_k v_k over the members claiming c: a projector with
    Bloch vector n fires with probability (t_c + n.sigma_c)/2 (`_born`),
    where t_c is the claim's total weight; Bob wins against claim plus when
    guess zero does not fire.  The Pauli channel of rate eps scales every
    Bloch vector by 1 - 4 eps/3 (the depolarizing channel).
    """
    sigma = dict.fromkeys(StateLabel, (0.0, 0.0, 0.0, 0.0))  # claim: (t_c, sigma_c)
    for w, s, lab in members:
        vx, vy, vz = _bloch_xyz(s)
        t, x, y, z = sigma[lab]
        sigma[lab] = (t + w, x + w * vx, y + w * vy, z + w * vz)
    shrink = 1.0 - 4.0 * eps / 3.0
    win = fail = 0.0
    for claim, (t, x, y, z) in sigma.items():
        x, y, z = shrink * x, shrink * y, shrink * z
        p_zero = _born(_GUESS_ZERO_AXIS, t, x, y, z)
        win += p_zero if claim is _LABEL_ZERO else t - p_zero
        fail += _born(_FAIL_AXIS[claim], t, x, y, z)
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
