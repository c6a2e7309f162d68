"""Player behaviours: honest parties, fixed-state and ensemble cheats, and
adaptive entanglement attacks.

Every Alice strategy exposes two faces.  The interactive face
(`prepare`/`claim`) drives the round engine through measurement views.
The declarative face (`branch_model`) describes the strategy's finite
randomness so the analysis module can enumerate all round branches
exactly; strategies without a finite description raise
NonEnumerableStrategyError there.  A built-in Alice is her own branch
model, a `ProductModel` or an `EntangledModel`: one object is played by
the engine, enumerated by the oracle and sampled by the fast sampler.
A model holds its policy once, in the form its rounds and the oracle read
it: a `ProductModel` its (weight, state, claim) members, an
`EntangledModel` its state and the basis and claim of each branch.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from .protocol import (
    StateLabel,
    SubsystemView,
    _PLUS,
    _ZERO,
    _check_label,
    _check_rate,
)
from .qubits import (
    BASIS_DISCRIM,
    KET_0,
    KET_PLUS,
    Ensemble,
    MeasurementBasis,
    Outcome,
    PureQubit,
    TwoQubitPure,
    _IdentityEnum,
    _OUTCOME_MINUS,
    _OUTCOME_PLUS,
    overlap,
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
]


# Iterating an Enum class runs Python-level EnumType methods.
_LABELS = (_ZERO, _PLUS)
_OUTCOMES = (_OUTCOME_PLUS, _OUTCOME_MINUS)


class ClaimPolicy(_IdentityEnum):
    """How a fixed-state cheat picks its claim."""

    ZERO = "zero"
    PLUS = "plus"
    NEAREST = "nearest"


_NEAREST = ClaimPolicy.NEAREST
#: The claim of each fixed claim policy.
_CLAIM_OF_POLICY = {ClaimPolicy.ZERO: _ZERO, ClaimPolicy.PLUS: _PLUS}


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


class ProductModel(AliceStrategy):
    """Finite unentangled preparation mixture, claims fixed per member: sends
    a member per round (a lone one without a draw) and claims its label."""

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
        return self


class EntangledModel(AliceStrategy):
    """Entangled preparation with a guess-conditioned measurement policy:
    keeps half of the pair and measures it after Bob's guess, in a basis
    chosen by that guess."""

    def __init__(
        self,
        state: TwoQubitPure,
        basis_by_guess: dict[StateLabel, MeasurementBasis],
        label_by_outcome: dict[Outcome, StateLabel],
    ):
        self.state = state
        # The policy is kept resolved, so a round and the oracle read one
        # attribute each instead of a table and a key.
        self._basis_if_zero = basis_by_guess[_ZERO]
        self._basis_if_plus = basis_by_guess[_PLUS]
        self._label_if_plus = label_by_outcome[_OUTCOME_PLUS]
        self._label_if_minus = label_by_outcome[_OUTCOME_MINUS]
        self._prep = Preparation(state)

    def prepare(self, rng) -> Preparation:
        return self._prep

    def claim(self, memo, own_view, bob_guess, rng) -> StateLabel:
        basis = self._basis_if_zero if bob_guess is _ZERO else self._basis_if_plus
        if own_view.measure(basis) is _OUTCOME_PLUS:
            return self._label_if_plus
        return self._label_if_minus

    def branch_model(self) -> EntangledModel:
        return self


DEFAULT_OUTCOME_LABELS: dict[Outcome, StateLabel] = {
    _OUTCOME_PLUS: _ZERO,
    _OUTCOME_MINUS: _PLUS,
}


def honest_alice() -> ProductModel:
    """Sends |0> or |+> with probability 1/2 each and always claims truthfully."""
    return ProductModel(((0.5, KET_0, _ZERO), (0.5, KET_PLUS, _PLUS)))


def honest_bob(check_rate: float) -> BobStrategy:
    return _HonestBob(check_rate)


def _nearest_label(state: PureQubit) -> StateLabel:
    # Tie at the symmetric point goes to ZERO; the payoff is the same either way.
    if overlap(KET_0, state) >= overlap(KET_PLUS, state):
        return _ZERO
    return _PLUS


def fixed_state_cheat(point: CheatPoint) -> ProductModel:
    state = state_from_bloch(point.theta, point.phi)
    if point.claim_policy is _NEAREST:
        return ProductModel(((1.0, state, _nearest_label(state)),))
    return ProductModel(((1.0, state, _CLAIM_OF_POLICY[point.claim_policy]),))


def ensemble_cheat(ensemble: Ensemble, claims: Sequence[StateLabel]) -> ProductModel:
    """Play a fixed mixture of states, claiming each member's assigned label."""
    if len(claims) != len(ensemble.entries):
        raise ValueError("need exactly one claim label per ensemble member")
    for i, lab in enumerate(claims):
        _check_label(lab, f"claim {i}")
    members = tuple((w, s, lab) for (w, s), lab in zip(ensemble.entries, claims))
    return ProductModel(members)


_STANDARD_ATTACK_STATE = TwoQubitPure((1.0 / math.sqrt(2.0), 0.0, 0.5, 0.5))


def standard_attack_state() -> TwoQubitPure:
    """(|0>_A |0>_B + |1>_A |+>_B)/sqrt(2): the built-in entangled resource.

    Measuring A in the z basis steers Bob's qubit to |0> or |+> with equal
    probability, so Bob's reduced state matches honest play exactly.  Every
    call returns the same immutable state.
    """
    return _STANDARD_ATTACK_STATE


def entangled_cheat(
    basis_policy: Mapping[StateLabel, MeasurementBasis],
    label_by_outcome: Optional[Mapping[Outcome, StateLabel]] = None,
    state: Optional[TwoQubitPure] = None,
) -> EntangledModel:
    """Adaptive entanglement attack.

    `basis_policy` maps Bob's announced guess to the basis Alice measures
    her kept qubit in; `label_by_outcome` turns her outcome into the claim
    (defaults to plus -> ZERO, minus -> PLUS, the truthful table for a
    z-basis measurement of the standard attack state).  A custom two-qubit
    `state` may be supplied for exploration.
    """
    policy = dict(basis_policy)
    missing = [lab for lab in _LABELS if lab not in policy]
    if missing:
        raise ValueError(f"basis policy must cover every guess, missing {missing}")
    extra = [key for key in policy if not isinstance(key, StateLabel)]
    if extra:
        raise ValueError(f"basis policy keys must be StateLabels, got {extra}")
    for lab, basis in policy.items():
        if not isinstance(basis, MeasurementBasis):
            raise ValueError(
                f"basis for guess {lab.value} must be a MeasurementBasis, got {basis!r}"
            )
    table = dict(DEFAULT_OUTCOME_LABELS if label_by_outcome is None else label_by_outcome)
    if any(o not in table for o in _OUTCOMES):
        raise ValueError("outcome table must cover both outcomes")
    extra = [key for key in table if not isinstance(key, Outcome)]
    if extra:
        raise ValueError(f"outcome table keys must be Outcomes, got {extra}")
    _check_label(table[_OUTCOME_PLUS], "label for outcome plus")
    _check_label(table[_OUTCOME_MINUS], "label for outcome minus")
    state = _STANDARD_ATTACK_STATE if state is None else state
    if not isinstance(state, TwoQubitPure):
        raise ValueError(f"state must be a TwoQubitPure, got {state!r}")
    return EntangledModel(state, policy, table)
