"""Player behaviours: honest parties, fixed-state and ensemble cheats, and
adaptive entanglement attacks.

Every Alice strategy exposes two faces.  The interactive face
(`prepare`/`claim`) drives the round engine through measurement views.
The declarative face (`branch_model`) describes the strategy's finite
randomness so the analysis module can enumerate all round branches
exactly; strategies without a finite description raise
NonEnumerableStrategyError there.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from .protocol import StateLabel, SubsystemView, _check_label, _check_rate
from .qubits import (
    BASIS_DISCRIM,
    KET_0,
    KET_PLUS,
    BlochVector,
    Ensemble,
    MeasurementBasis,
    Outcome,
    PureQubit,
    Subsystem,
    TwoQubitPure,
    ensemble_average_bloch,
    overlap,
    reduced_bloch,
    state_from_bloch,
)

__all__ = [
    "ClaimPolicy",
    "CheatPoint",
    "Preparation",
    "ProductModel",
    "EntangledModel",
    "NonEnumerableStrategyError",
    "AliceStrategy",
    "BobStrategy",
    "honest_alice",
    "honest_bob",
    "fixed_state_cheat",
    "ensemble_cheat",
    "entangled_cheat",
    "standard_attack_state",
    "DEFAULT_OUTCOME_LABELS",
    "declared_bob_bloch",
]


# Per-round code reads enum members through these names: on Python 3.11,
# reading a member off its Enum class costs about 0.1 us.
_ZERO, _PLUS = StateLabel.ZERO, StateLabel.PLUS
_OUTCOME_PLUS = Outcome.PLUS


class ClaimPolicy(Enum):
    """How a fixed-state cheat picks its claim."""

    ZERO = "zero"
    PLUS = "plus"
    NEAREST = "nearest"


@dataclass(frozen=True)
class CheatPoint:
    """A single cheating preparation: Bloch angles plus a claim policy."""

    theta: float
    phi: float = 0.0
    claim_policy: ClaimPolicy = ClaimPolicy.NEAREST

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


class Preparation(NamedTuple):
    """What Alice hands the engine: the register state and her private memo."""

    state: PureQubit | TwoQubitPure
    memo: Any = None


@dataclass(frozen=True)
class ProductModel:
    """Finite unentangled preparation mixture; claims fixed per member."""

    members: tuple[tuple[float, PureQubit, StateLabel], ...]


@dataclass(frozen=True)
class EntangledModel:
    """Entangled preparation with a guess-conditioned measurement policy."""

    state: TwoQubitPure
    basis_by_guess: Mapping[StateLabel, MeasurementBasis]
    label_by_outcome: Mapping[Outcome, StateLabel]


class NonEnumerableStrategyError(TypeError):
    """The strategy's randomness has no finite branch description."""


class AliceStrategy(abc.ABC):
    """Sender side.  May act only on subsystem A after sending.

    `rng` is Alice's private stream, with the methods of a numpy Generator.
    """

    @abc.abstractmethod
    def prepare(self, rng) -> Preparation:
        """Produce the round's quantum register (subsystem B goes to Bob)."""

    @abc.abstractmethod
    def claim(
        self, memo: Any, own_view: SubsystemView, bob_guess: StateLabel, rng
    ) -> StateLabel:
        """Announce the claim, optionally measuring subsystem A through the view."""

    def branch_model(self) -> ProductModel | EntangledModel:
        raise NonEnumerableStrategyError(
            f"{type(self).__name__} has no finite branch description"
        )


class BobStrategy(abc.ABC):
    """Receiver side.  Bob's move is his guess.  In a checking round he
    leaves the received qubit unmeasured; the engine then measures it in
    the verification basis of Alice's claim and decides the check, and a
    qubit Bob measured before the claim is a protocol violation.  Unless a
    check convicts Alice, a guess equal to her claim wins Bob one coin and
    any other pays her `DEFAULT_LOSS_PAYOUT`.

    `rng` is Bob's private stream, with the methods of a numpy Generator.
    """

    @abc.abstractmethod
    def play(self, received: SubsystemView, is_check: bool, rng) -> StateLabel:
        """Bob's guess; in a checking round the received view stays
        unmeasured."""


class _HonestBob(BobStrategy):
    """Plays the optimal discrimination measurement in normal rounds and
    guesses uniformly, leaving the qubit unmeasured, in checking rounds.

    `check_rate` is the publicly announced rate at which this player
    requests checking rounds; the engine draws the per-round decision, so
    the constructor only checks it.
    """

    def __init__(self, check_rate: float):
        _check_rate(check_rate)

    def play(self, received, is_check, rng) -> StateLabel:
        if is_check:
            return _ZERO if rng.random() < 0.5 else _PLUS
        if received.measure(BASIS_DISCRIM) is _OUTCOME_PLUS:
            return _ZERO
        return _PLUS


class _ProductAlice(AliceStrategy):
    """Samples a member of a finite preparation mixture per round and claims
    that member's label.  A lone member is sent without a draw."""

    def __init__(self, members: tuple[tuple[float, PureQubit, StateLabel], ...]):
        self.members = members
        self._preps = tuple(Preparation(state, label) for _, state, label in members)
        self._edges = tuple(itertools.accumulate(w for w, _, _ in members))

    def prepare(self, rng) -> Preparation:
        preps = self._preps
        if len(preps) == 1:
            return preps[0]
        u = rng.random()
        for prep, edge in zip(preps, self._edges):
            if u < edge:
                return prep
        return preps[-1]

    def claim(self, memo, own_view, bob_guess, rng) -> StateLabel:
        return memo

    def branch_model(self) -> ProductModel:
        return ProductModel(self.members)


class _EntangledCheat(AliceStrategy):
    """Keeps half of an entangled pair and delays her measurement until after
    Bob's guess, choosing the basis by the announced guess."""

    def __init__(
        self,
        state: TwoQubitPure,
        basis_by_guess: dict[StateLabel, MeasurementBasis],
        label_by_outcome: dict[Outcome, StateLabel],
    ):
        self.state = state
        self.basis_by_guess = basis_by_guess
        self.label_by_outcome = label_by_outcome
        # Resolved once: an enum-keyed lookup hashes through the Python-level
        # Enum.__hash__, twice per round.
        self._basis_if_zero = basis_by_guess[StateLabel.ZERO]
        self._basis_if_plus = basis_by_guess[StateLabel.PLUS]
        self._label_if_plus = label_by_outcome[Outcome.PLUS]
        self._label_if_minus = label_by_outcome[Outcome.MINUS]
        self._prep = Preparation(state)

    def prepare(self, rng) -> Preparation:
        return self._prep

    def claim(self, memo, own_view, bob_guess, rng) -> StateLabel:
        basis = self._basis_if_zero if bob_guess is _ZERO else self._basis_if_plus
        if own_view.measure(basis) is _OUTCOME_PLUS:
            return self._label_if_plus
        return self._label_if_minus

    def branch_model(self) -> EntangledModel:
        return EntangledModel(self.state, self.basis_by_guess, self.label_by_outcome)


DEFAULT_OUTCOME_LABELS: dict[Outcome, StateLabel] = {
    Outcome.PLUS: StateLabel.ZERO,
    Outcome.MINUS: StateLabel.PLUS,
}


def honest_alice() -> AliceStrategy:
    """Sends |0> or |+> with probability 1/2 each and always claims truthfully."""
    return _ProductAlice(((0.5, KET_0, _ZERO), (0.5, KET_PLUS, _PLUS)))


def honest_bob(check_rate: float) -> BobStrategy:
    return _HonestBob(check_rate)


def _nearest_label(state: PureQubit) -> StateLabel:
    # Tie at the symmetric point goes to ZERO; the payoff is the same either way.
    if overlap(KET_0, state) >= overlap(KET_PLUS, state):
        return StateLabel.ZERO
    return StateLabel.PLUS


def fixed_state_cheat(point: CheatPoint) -> AliceStrategy:
    state = state_from_bloch(point.theta, point.phi)
    if point.claim_policy is ClaimPolicy.ZERO:
        label = StateLabel.ZERO
    elif point.claim_policy is ClaimPolicy.PLUS:
        label = StateLabel.PLUS
    else:
        label = _nearest_label(state)
    return _ProductAlice(((1.0, state, label),))


def ensemble_cheat(
    ensemble: Ensemble, claims: Sequence[StateLabel]
) -> AliceStrategy:
    """Play a fixed mixture of states, claiming each member's assigned label."""
    if len(claims) != len(ensemble.entries):
        raise ValueError("need exactly one claim label per ensemble member")
    for i, lab in enumerate(claims):
        _check_label(lab, f"claim {i}")
    members = tuple(
        (w, s, lab) for (w, s), lab in zip(ensemble.entries, claims)
    )
    return _ProductAlice(members)


def standard_attack_state() -> TwoQubitPure:
    """(|0>_A |0>_B + |1>_A |+>_B)/sqrt(2): the built-in entangled resource.

    Measuring A in the z basis steers Bob's qubit to |0> or |+> with equal
    probability, so Bob's reduced state matches honest play exactly.
    """
    s = 1.0 / math.sqrt(2.0)
    return TwoQubitPure((s, 0.0, 0.5, 0.5))


def entangled_cheat(
    basis_policy: Mapping[StateLabel, MeasurementBasis],
    label_by_outcome: Optional[Mapping[Outcome, StateLabel]] = None,
    state: Optional[TwoQubitPure] = None,
) -> AliceStrategy:
    """Adaptive entanglement attack.

    `basis_policy` maps Bob's announced guess to the basis Alice measures
    her kept qubit in; `label_by_outcome` turns her outcome into the claim
    (defaults to plus -> ZERO, minus -> PLUS, the truthful table for a
    z-basis measurement of the standard attack state).  A custom two-qubit
    `state` may be supplied for exploration.
    """
    policy = dict(basis_policy)
    missing = [lab for lab in StateLabel if lab not in policy]
    if missing:
        raise ValueError(f"basis policy must cover every guess, missing {missing}")
    table = dict(DEFAULT_OUTCOME_LABELS if label_by_outcome is None else label_by_outcome)
    if any(o not in table for o in Outcome):
        raise ValueError("outcome table must cover both outcomes")
    for o in Outcome:
        _check_label(table[o], f"label for outcome {o.value}")
    return _EntangledCheat(state or standard_attack_state(), policy, table)


def declared_bob_bloch(alice: AliceStrategy) -> BlochVector:
    """Bloch vector of Bob's pre-measurement reduced state under this strategy.

    Independent of everything Alice does after sending; what the no-cloning
    side of the protocol pins down.
    """
    model = alice.branch_model()
    if isinstance(model, ProductModel):
        return ensemble_average_bloch(
            Ensemble(tuple((w, s) for w, s, _ in model.members))
        )
    return reduced_bloch(model.state, Subsystem.B)
