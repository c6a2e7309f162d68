"""Round/session engine tests: settlement, noise, abort, and the fast path."""

import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import class_counts, class_masses, kept_ledger_chi2, pure_qubits
from hypothesis import given, settings
from hypothesis import strategies as st

from qgamble import protocol
from qgamble.analysis import (
    exact_tolerance,
    monte_carlo_gain,
    optimal_check_rate,
    oracle_expected_gain,
    oracle_transcript_distribution,
)
from qgamble.protocol import (
    DEFAULT_LOSS_PAYOUT,
    MIN_CHECKS_FOR_ABORT,
    CheckResult,
    ProtocolParams,
    ProtocolViolation,
    RoundRegister,
    RoundType,
    SessionStats,
    StateLabel,
    SubsystemView,
    _run_rounds,
    _settle,
    _streams,
    run_round,
    run_session,
    run_session_fast,
    session_rng,
)
from qgamble.qubits import (
    BASIS_DISCRIM,
    BASIS_X,
    BASIS_Z,
    KET_0,
    KET_MINUS,
    KET_PLUS,
    OPTIMAL_GUESS_PROB,
    PAULI_AXES,
    Ensemble,
    MeasurementBasis,
    Outcome,
    Subsystem,
    apply_pauli,
    overlap,
    state_from_bloch,
)
from qgamble.strategies import (
    AliceStrategy,
    CheatPoint,
    ClaimPolicy,
    Preparation,
    ensemble_cheat,
    entangled_cheat,
    fixed_state_cheat,
    honest_alice,
    honest_bob,
    standard_attack_state,
)

RNG = np.random.default_rng

LOSS = DEFAULT_LOSS_PAYOUT


def default_params(**kw):
    base = dict(check_rate=0.1, penalty=100.0)
    base.update(kw)
    return ProtocolParams(**base)


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(check_rate=0.0),
            dict(check_rate=1.0),
            dict(penalty=0.0),
            dict(noise=-0.1),
            dict(noise=1.0),
            dict(abort_threshold=1.5),
            dict(abort_threshold=-0.1),
            dict(penalty=math.nan),
            dict(penalty=math.inf),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            default_params(**kw)

    def test_default_loss_payout(self):
        assert DEFAULT_LOSS_PAYOUT == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-12)

    def test_payouts_are_not_params(self):
        # The payout rule is fixed; a call that still sets a payout fails.
        with pytest.raises(TypeError):
            ProtocolParams(0.1, 100.0, loss_payout=4.5)

    @pytest.mark.parametrize("guess", list(StateLabel))
    @pytest.mark.parametrize("claim", list(StateLabel))
    def test_settlement_is_the_fixed_rule(self, guess, claim):
        assert _settle(guess, claim) == (-1.0 if guess is claim else DEFAULT_LOSS_PAYOUT)


class TestRunRound:
    def test_transfers_take_legal_values(self):
        params = default_params()
        alice, bob = honest_alice(), honest_bob(params.check_rate)
        rng = RNG(10)
        legal = {-1.0, LOSS}
        for _ in range(300):
            rec = run_round(alice, bob, params, rng)
            assert rec.transfer in legal  # honest play never pays the penalty
            assert rec.settlement_ok(params)
            assert (rec.round_type is RoundType.CHECK) == (
                rec.check_result is not CheckResult.NOT_APPLICABLE
            )

    def test_honest_check_rounds_always_pass(self):
        params = default_params(check_rate=0.9)
        alice, bob = honest_alice(), honest_bob(params.check_rate)
        rng = RNG(11)
        checks = 0
        for _ in range(400):
            rec = run_round(alice, bob, params, rng)
            if rec.round_type is RoundType.CHECK:
                checks += 1
                assert rec.check_result is CheckResult.PASS
        assert checks > 300

    def test_win_means_guess_equals_claim(self):
        params = default_params()
        alice, bob = honest_alice(), honest_bob(params.check_rate)
        rng = RNG(12)
        for _ in range(200):
            rec = run_round(alice, bob, params, rng)
            if rec.check_result is not CheckResult.FAIL:
                if rec.bob_guess == rec.alice_claim:
                    assert rec.transfer == -1.0
                else:
                    assert rec.transfer == LOSS

    def test_orthogonal_cheat_always_caught(self):
        # Sending |->, orthogonal to the claimed |+>, fails every check.
        params = default_params(check_rate=0.9)
        bob = honest_bob(params.check_rate)
        rng = RNG(13)

        class MinusCheat(AliceStrategy):
            def prepare(self, rng):
                return Preparation(KET_MINUS)

            def claim(self, memo, own_view, bob_guess, rng):
                return StateLabel.PLUS

        checks = 0
        for _ in range(300):
            rec = run_round(MinusCheat(), bob, params, rng)
            if rec.round_type is RoundType.CHECK:
                checks += 1
                assert rec.check_result is CheckResult.FAIL
                assert rec.transfer == -params.penalty
        assert checks > 200

    def test_verification_precedes_settlement(self):
        params = default_params(check_rate=0.9)

        class SpyBob:
            def __init__(self):
                self.inner = honest_bob(params.check_rate)
                self.stored = None

            def play(self, received, is_check, rng):
                self.stored = received
                return self.inner.play(received, is_check, rng)

        spy = SpyBob()
        rng = RNG(14)
        checks = 0
        for _ in range(100):
            rec = run_round(honest_alice(), spy, params, rng)
            assert rec.settlement_ok(params)
            if rec.round_type is RoundType.CHECK:
                checks += 1
                # The engine spent the stored qubit on the verdict, exactly once.
                with pytest.raises(ProtocolViolation, match="already measured"):
                    spy.stored.measure(BASIS_Z)
        assert checks > 70

    @pytest.mark.parametrize("forgery", ["verify_fail", "stand_in"])
    def test_bob_cannot_decide_the_verdict(self, forgery):
        # Neither a verdict Bob reports nor a stored object of his own whose
        # outcomes he picks has a say: the engine measures the register.
        params = default_params(check_rate=0.5)

        class StandIn:
            def measure(self, basis, which=None):
                return Outcome.MINUS

        class ForgingBob:
            def __init__(self):
                self.inner = honest_bob(params.check_rate)
                self.stored = StandIn() if forgery == "stand_in" else None

            def play(self, received, is_check, rng):
                return self.inner.play(received, is_check, rng)

            def verify(self, stored, claim, rng):
                return CheckResult.FAIL

        stats = run_session(honest_alice(), ForgingBob(), params, 2_000, session_rng(22))
        assert stats.check_rounds > MIN_CHECKS_FOR_ABORT
        assert stats.check_fails == 0
        assert not stats.aborted

    def test_alice_touching_bobs_qubit_rejected(self):
        params = default_params()

        class RogueAlice(AliceStrategy):
            def prepare(self, rng):
                return Preparation(KET_0)

            def claim(self, memo, own_view, bob_guess, rng):
                own_view.measure(BASIS_Z, which=Subsystem.B)
                return StateLabel.ZERO

        with pytest.raises(ProtocolViolation):
            for _ in range(50):
                run_round(RogueAlice(), honest_bob(params.check_rate), params, RNG(15))

    def test_unentangled_alice_has_no_kept_qubit(self):
        params = default_params()

        class ConfusedAlice(AliceStrategy):
            def prepare(self, rng):
                return Preparation(KET_0)

            def claim(self, memo, own_view, bob_guess, rng):
                own_view.measure(BASIS_Z)
                return StateLabel.ZERO

        with pytest.raises(ProtocolViolation):
            run_round(ConfusedAlice(), honest_bob(params.check_rate), params, RNG(16))

    def test_double_measurement_rejected(self):
        params = default_params(check_rate=0.001)

        class GreedyBob:
            def play(self, received, is_check, rng):
                received.measure(BASIS_Z)
                received.measure(BASIS_Z)
                return StateLabel.ZERO

        with pytest.raises(ProtocolViolation):
            run_round(honest_alice(), GreedyBob(), params, RNG(17))

    def test_entangled_alice_measures_kept_half_once(self):
        params = default_params()

        class GreedyAlice(AliceStrategy):
            def prepare(self, rng):
                return Preparation(standard_attack_state())

            def claim(self, memo, own_view, bob_guess, rng):
                own_view.measure(BASIS_Z)
                own_view.measure(BASIS_Z)
                return StateLabel.ZERO

        with pytest.raises(ProtocolViolation, match="subsystem A was already measured"):
            run_round(GreedyAlice(), honest_bob(params.check_rate), params, RNG(18))

    def test_bob_naming_alices_half_rejected(self):
        params = default_params(check_rate=0.001)

        class PeekingBob:
            def play(self, received, is_check, rng):
                received.measure(BASIS_Z, which=Subsystem.A)
                return StateLabel.ZERO

        alice = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
        with pytest.raises(ProtocolViolation, match="bob attempted to measure subsystem A"):
            run_round(alice, PeekingBob(), params, RNG(19))

    @pytest.mark.parametrize("basis", [BASIS_Z, BASIS_DISCRIM], ids=["z", "discrim"])
    def test_stored_qubit_measured_before_verify_rejected(self, basis):
        # Bob measures every round, checking rounds too, and guesses from
        # the outcome.
        params = default_params(check_rate=0.999)

        class EagerBob:
            def play(self, received, is_check, rng):
                outcome = received.measure(basis)
                return StateLabel.ZERO if outcome is Outcome.PLUS else StateLabel.PLUS

        rng = RNG(20)
        with pytest.raises(ProtocolViolation, match="subsystem B was already measured"):
            for _ in range(20):
                run_round(honest_alice(), EagerBob(), params, rng)

    def test_guess_only_bob_gets_the_engines_verdict(self):
        # Bob never measures and returns only his guess; the engine measures
        # the qubit he leaves in each checking round and decides the check.
        params = default_params(check_rate=0.5)

        class GuessingBob:
            def play(self, received, is_check, rng):
                return StateLabel.ZERO

        honest = run_session(honest_alice(), GuessingBob(), params, 2_000, session_rng(21))
        assert honest.check_rounds > MIN_CHECKS_FOR_ABORT
        assert honest.check_fails == 0
        assert not honest.aborted
        minus_as_plus = ensemble_cheat(Ensemble(((1.0, KET_MINUS),)), [StateLabel.PLUS])
        caught = run_session(minus_as_plus, GuessingBob(), params, 2_000, session_rng(21))
        assert caught.check_rounds == caught.check_fails == MIN_CHECKS_FOR_ABORT
        assert caught.aborted

    @pytest.mark.parametrize("check_rate", [0.001, 0.999], ids=["normal", "check"])
    def test_bob_returning_a_pair_rejected(self, check_rate):
        # A Bob whose move is still (guess, received view) announces a tuple,
        # which is not a guess.
        params = default_params(check_rate=check_rate)

        class PairBob:
            def __init__(self):
                self.inner = honest_bob(params.check_rate)

            def play(self, received, is_check, rng):
                return self.inner.play(received, is_check, rng), received

        with pytest.raises(
            ProtocolViolation,
            match=r"^bob guessed \(<StateLabel\.\w+: '\w+'>, <qgamble\.protocol\.SubsystemView "
            r"object at 0x[0-9a-f]+>\), which is not a StateLabel$",
        ):
            run_round(honest_alice(), PairBob(), params, RNG(21))


def _rogue_alice(own_view):
    own_view.measure(BASIS_Z, which=Subsystem.B)


def _measure_once(view):
    view.measure(BASIS_Z)


def _measure_twice(view):
    view.measure(BASIS_Z)
    view.measure(BASIS_Z)


def _peeking_bob(received):
    received.measure(BASIS_Z, which=Subsystem.A)


class _LateAlice(AliceStrategy):
    """Plays `inner` for `honest` rounds, then claims by calling `violate`
    on her view, as the single-round violators of TestRunRound do."""

    def __init__(self, inner, violate, honest):
        self.inner, self.violate, self.left = inner, violate, honest

    def prepare(self, rng):
        return self.inner.prepare(rng)

    def claim(self, memo, own_view, bob_guess, rng):
        self.left -= 1
        if self.left < 0:
            self.violate(own_view)
        return self.inner.claim(memo, own_view, bob_guess, rng)


class _LateBob:
    """Honest Bob for `honest` rounds, then plays by calling `violate` on
    the received view."""

    def __init__(self, check_rate, violate, honest):
        self.inner, self.violate, self.left = honest_bob(check_rate), violate, honest

    def play(self, received, is_check, rng):
        self.left -= 1
        if self.left < 0:
            self.violate(received)
        return self.inner.play(received, is_check, rng)


def _entangled_z():
    return entangled_cheat({lab: BASIS_Z for lab in StateLabel})


# (Alice factory, Bob factory, message); the factories take the number of
# honest rounds before the violation.  The cases are RogueAlice,
# ConfusedAlice, GreedyBob, GreedyAlice and PeekingBob of TestRunRound.
WARM_VIOLATIONS = {
    "rogue_alice": (
        lambda k: _LateAlice(honest_alice(), _rogue_alice, k),
        lambda k: honest_bob(0.1),
        "alice attempted to measure subsystem B",
    ),
    "confused_alice": (
        lambda k: _LateAlice(honest_alice(), _measure_once, k),
        lambda k: honest_bob(0.1),
        "alice holds no qubit on subsystem A",
    ),
    "greedy_bob": (
        lambda k: honest_alice(),
        lambda k: _LateBob(0.1, _measure_twice, k),
        "subsystem B was already measured",
    ),
    "greedy_alice": (
        lambda k: _LateAlice(_entangled_z(), _measure_twice, k),
        lambda k: honest_bob(0.1),
        "subsystem A was already measured",
    ),
    "peeking_bob": (
        lambda k: _entangled_z(),
        lambda k: _LateBob(0.1, _peeking_bob, k),
        "bob attempted to measure subsystem A",
    ),
}


@pytest.mark.parametrize("name", sorted(WARM_VIOLATIONS))
def test_violation_against_warm_split_table(name):
    # A round of its own starts with an empty split table; 300 honest
    # rounds of a session fill it.  The violation and its message must not
    # depend on which.
    make_alice, make_bob, message = WARM_VIOLATIONS[name]
    exact = f"^{re.escape(message)}$"
    params = default_params()
    with pytest.raises(ProtocolViolation, match=exact):
        run_round(make_alice(0), make_bob(0), params, RNG(23))
    alice, bob = make_alice(300), make_bob(300)
    with pytest.raises(ProtocolViolation, match=exact):
        run_session(alice, bob, params, 1_000, session_rng(23))
    late = alice if isinstance(alice, _LateAlice) else bob
    assert late.left == -1


class _LateClaimAlice(AliceStrategy):
    """Plays `inner` for `honest` rounds, then claims `value`."""

    def __init__(self, inner, value, honest):
        self.inner, self.value, self.left = inner, value, honest

    def prepare(self, rng):
        return self.inner.prepare(rng)

    def claim(self, memo, own_view, bob_guess, rng):
        claim = self.inner.claim(memo, own_view, bob_guess, rng)
        self.left -= 1
        return claim if self.left >= 0 else self.value


class _LateGuessBob:
    """Honest Bob for `honest` rounds, then announces `value` as his guess."""

    def __init__(self, check_rate, value, honest):
        self.inner, self.value, self.left = honest_bob(check_rate), value, honest

    def play(self, received, is_check, rng):
        guess = self.inner.play(received, is_check, rng)
        self.left -= 1
        return guess if self.left >= 0 else self.value


# (Alice factory, Bob factory, message) for announcements that are not a
# StateLabel; the factories take the number of honest rounds first.
NON_LABELS = {
    "alice_claims_none": (
        lambda k: _LateClaimAlice(honest_alice(), None, k),
        lambda k: honest_bob(0.1),
        "alice claimed None, which is not a StateLabel",
    ),
    "alice_claims_str": (
        lambda k: _LateClaimAlice(_entangled_z(), "zero", k),
        lambda k: honest_bob(0.1),
        "alice claimed 'zero', which is not a StateLabel",
    ),
    "bob_guesses_str": (
        lambda k: honest_alice(),
        lambda k: _LateGuessBob(0.1, "junk", k),
        "bob guessed 'junk', which is not a StateLabel",
    ),
}


@pytest.mark.parametrize("check_rate", [0.001, 0.999], ids=["normal", "check"])
@pytest.mark.parametrize("name", sorted(NON_LABELS))
def test_non_label_announcement_rejected(name, check_rate):
    # Settling on such a claim or guess would pay Alice every normal round
    # (it never equals the other party's label), and a checking round has
    # no basis to verify it in.
    make_alice, make_bob, message = NON_LABELS[name]
    exact = f"^{re.escape(message)}$"
    params = default_params(check_rate=check_rate)
    with pytest.raises(ProtocolViolation, match=exact):
        run_round(make_alice(0), make_bob(0), params, RNG(23))
    alice, bob = make_alice(300), make_bob(300)
    with pytest.raises(ProtocolViolation, match=exact):
        run_session(alice, bob, params, 1_000, session_rng(23))
    late = bob if isinstance(bob, _LateGuessBob) else alice
    assert late.left == -1


class _KeepingBob:
    """Honest Bob who keeps the view of his first round and plays every
    later round on it, whatever view he is handed."""

    def __init__(self, check_rate):
        self.inner, self.kept = honest_bob(check_rate), None

    def play(self, received, is_check, rng):
        if self.kept is None:
            self.kept = received
        return self.inner.play(self.kept, is_check, rng)


class TestSessionViews:
    """A session hands each party one view, which always refers to the
    current round; `run_round` hands out new ones every call."""

    @pytest.mark.parametrize(
        "make_alice", [honest_alice, _entangled_z], ids=["honest", "entangled_z"]
    )
    def test_kept_view_measures_current_round(self, make_alice):
        params = default_params()
        streams, ref_streams = _streams(session_rng(24)), _streams(session_rng(24))
        records, expected = [], []
        stats = _run_rounds(
            make_alice(), _KeepingBob(0.1), params, 2_000, streams, records.append
        )
        ref = _run_rounds(
            make_alice(), honest_bob(0.1), params, 2_000, ref_streams, expected.append
        )
        assert records == expected
        assert stats == ref
        for stream, ref_stream in zip(streams, ref_streams):
            assert stream.bit_generator.state == ref_stream.bit_generator.state
            assert stream.random() == ref_stream.random()

    def test_kept_and_new_view_share_the_round(self):
        class TwoViewBob(_KeepingBob):
            def play(self, received, is_check, rng):
                if self.kept is not None:
                    self.kept.measure(BASIS_Z)
                    received.measure(BASIS_Z)
                return super().play(received, is_check, rng)

        with pytest.raises(ProtocolViolation, match="^subsystem B was already measured$"):
            run_session(honest_alice(), TwoViewBob(0.1), default_params(), 10, session_rng(25))

    def test_stored_view_stays_measured_in_hook(self):
        class StoringBob:
            def __init__(self):
                self.inner, self.stored = honest_bob(0.5), None

            def play(self, received, is_check, rng):
                self.stored = received
                return self.inner.play(received, is_check, rng)

        bob, checked = StoringBob(), []

        def hook(rec):
            if rec.round_type is RoundType.CHECK:
                with pytest.raises(ProtocolViolation, match="^subsystem B was already measured$"):
                    bob.stored.measure(BASIS_Z)
                checked.append(rec)

        params = default_params(check_rate=0.5)
        run_session(honest_alice(), bob, params, 200, session_rng(26), on_round=hook)
        assert len(checked) > 50

    def test_run_rounds_never_share_a_register(self):
        params = default_params()
        bob = _KeepingBob(params.check_rate)
        run_round(honest_alice(), bob, params, RNG(27))
        # The kept view still refers to the first call's register, whose
        # qubit was measured there (by Bob or by the check).
        with pytest.raises(ProtocolViolation, match="^subsystem B was already measured$"):
            run_round(honest_alice(), bob, params, RNG(28))
        views = []

        class RecordingBob:
            def play(self, received, is_check, rng):
                views.append(received)
                return honest_bob(0.1).play(received, is_check, rng)

        for seed in (29, 30):
            run_round(honest_alice(), RecordingBob(), params, RNG(seed))
        assert views[0]._register is not views[1]._register


class TestNoise:
    """The engine's channel: `RoundRegister.apply_noise` draws a real Pauli
    error on the transmitted subsystem."""

    def test_zero_noise_identity(self):
        rng = RNG(20)
        before = rng.bit_generator.state
        for _ in range(20):
            register = RoundRegister(KET_0)
            register.apply_noise(0.0, rng)
            assert register._state is KET_0
        assert rng.bit_generator.state == before

    def test_full_noise_branch_weights(self):
        # Enumerating the three Pauli branches on |0>: x and y flip, z fixes.
        rng = RNG(21)
        n = 30_000
        flipped = 0
        for _ in range(n):
            register = RoundRegister(KET_0)
            register.apply_noise(1.0 - 1e-12, rng)
            view = SubsystemView(register, Subsystem.B, "bob", rng.random)
            flipped += view.measure(BASIS_Z) is Outcome.MINUS
        sigma = math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / n)
        assert abs(flipped / n - 2.0 / 3.0) < 5.0 * sigma

    def test_noisy_check_fail_rate(self):
        # Independent oracle: enumerate the channel branches on each honest
        # state and read off the orthogonal-outcome probability.
        eps = 0.3
        for label in StateLabel:
            fail = eps / 3.0 * sum(
                overlap(
                    label.verification_basis.minus, apply_pauli(label.state, ax)
                )
                for ax in PAULI_AXES
            )
            assert fail == pytest.approx(2.0 * eps / 3.0, abs=1e-12)
        params = default_params(check_rate=0.5, noise=eps, abort_threshold=1.0)
        stats = run_session(
            honest_alice(), honest_bob(0.5), params, 20_000, session_rng(22)
        )
        rate = stats.check_fails / stats.check_rounds
        sigma = math.sqrt(0.2 * 0.8 / stats.check_rounds)
        assert abs(rate - 2.0 * eps / 3.0) < 5.0 * sigma


    @pytest.mark.parametrize(
        "name, make_alice, limit",
        [("apply_pauli", honest_alice, 6), ("apply_pauli_pair", _entangled_z, 3)],
        ids=["honest", "entangled"],
    )
    def test_flipped_states_are_reused(self, monkeypatch, name, make_alice, limit):
        # The channel is deterministic once its axis is drawn, so a session
        # flips each state it sends at most once per axis: honest Alice
        # sends two states, the entangled cheat one.
        calls = []
        flip = getattr(protocol, name)

        def counted(*args):
            calls.append(args)
            return flip(*args)

        monkeypatch.setattr(protocol, name, counted)
        params = default_params(check_rate=0.2, noise=0.3, abort_threshold=1.0)
        stats = run_session(make_alice(), honest_bob(0.2), params, 5_000, session_rng(26))
        assert stats.rounds == 5_000
        assert 0 < len(calls) <= limit


#: Upper 1e-4 quantiles of the chi-square distribution, by degrees of
#: freedom (one less than the number of transcript keys).
CHI2_1E4 = {5: 25.7448, 7: 29.8775, 11: 37.3670}

_TRANSCRIPT_CASES = (
    ("honest", honest_alice, 0.0),
    ("fixed", lambda: fixed_state_cheat(CheatPoint(0.5, 0.3, ClaimPolicy.ZERO)), 0.0),
    (
        "ensemble",
        lambda: ensemble_cheat(
            Ensemble(((0.35, state_from_bloch(0.4, 0.0)), (0.65, state_from_bloch(1.2, 0.3)))),
            [StateLabel.ZERO, StateLabel.PLUS],
        ),
        0.0,
    ),
    (
        "noisy_entangled_zx",
        lambda: entangled_cheat({StateLabel.ZERO: BASIS_Z, StateLabel.PLUS: BASIS_X}),
        0.1,
    ),
)


class TestEngineTranscripts:
    @pytest.mark.parametrize(
        "index", range(len(_TRANSCRIPT_CASES)), ids=[c[0] for c in _TRANSCRIPT_CASES]
    )
    def test_transcripts_fit_oracle(self, index):
        # The full observable key of every round played by the engine,
        # against the oracle's exact distribution; the noisy entangled case
        # runs the engine's pair-noise draws against the oracle's branches.
        _, make, noise = _TRANSCRIPT_CASES[index]
        alice = make()
        params = default_params(check_rate=0.2, penalty=20.0, noise=noise, abort_threshold=1.0)
        n = 40_000
        seen = Counter()
        run_session(
            alice, honest_bob(0.2), params, n, session_rng(60, index),
            on_round=lambda rec: seen.update(
                [(rec.round_type, rec.bob_guess, rec.alice_claim, rec.check_result)]
            ),
        )
        dist = oracle_transcript_distribution(alice, params)
        assert set(seen) <= set(dist), set(seen) - set(dist)
        expected = {key: n * p for key, p in dist.items()}
        assert min(expected.values()) > 50.0
        chi2 = sum((seen[key] - e) ** 2 / e for key, e in expected.items())
        assert chi2 < CHI2_1E4[len(dist) - 1], (seen, expected)


class TestSession:
    def test_zero_sum_ledger(self):
        params = default_params()
        transfers = []
        stats = run_session(
            honest_alice(),
            honest_bob(params.check_rate),
            params,
            500,
            session_rng(30),
            on_round=lambda rec: transfers.append(rec.transfer),
        )
        assert stats.alice_gain_total == sum(transfers)
        assert stats.bob_gain_total == -stats.alice_gain_total
        assert stats.rounds == len(transfers)

    def test_check_rate_binomial(self):
        params = default_params(check_rate=0.25)
        stats = run_session(
            honest_alice(), honest_bob(0.25), params, 20_000, session_rng(31)
        )
        sigma = math.sqrt(0.25 * 0.75 * stats.rounds)
        assert abs(stats.check_rounds - 0.25 * stats.rounds) < 5.0 * sigma

    def test_no_fails_no_abort_at_zero_noise(self):
        params = default_params(check_rate=0.5, abort_threshold=0.0)
        stats = run_session(
            honest_alice(), honest_bob(0.5), params, 2_000, session_rng(32)
        )
        assert stats.check_fails == 0
        assert not stats.aborted
        assert stats.rounds == 2_000

    def test_noise_triggers_abort(self):
        params = default_params(check_rate=0.5, noise=0.2, abort_threshold=0.05)
        stats = run_session(
            honest_alice(), honest_bob(0.5), params, 5_000, session_rng(33)
        )
        assert stats.aborted
        assert stats.rounds < 5_000
        assert stats.check_rounds >= MIN_CHECKS_FOR_ABORT

    def test_reproducible_by_seed(self):
        params = default_params()
        a = run_session(honest_alice(), honest_bob(0.1), params, 300, session_rng(34))
        b = run_session(honest_alice(), honest_bob(0.1), params, 300, session_rng(34))
        assert a == b

    def test_merge_associative(self):
        params = default_params()
        parts = [
            run_session(honest_alice(), honest_bob(0.1), params, 200, session_rng(35, i))
            for i in range(3)
        ]
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        # Counters are exact; the coin sums associate up to float rounding.
        assert (left.rounds, left.check_rounds, left.check_fails, left.bob_wins) == (
            right.rounds, right.check_rounds, right.check_fails, right.bob_wins,
        )
        assert left.alice_gain_total == pytest.approx(right.alice_gain_total, rel=1e-12)
        assert left.transfer_sq_total == pytest.approx(right.transfer_sq_total, rel=1e-12)
        assert left.rounds == 600

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            run_session(honest_alice(), honest_bob(0.1), default_params(), 0, RNG(36))

    @pytest.mark.parametrize("n_rounds", [2.5, 1e6, True, "7"])
    @pytest.mark.parametrize("abort_threshold", [0.05, 1.0])
    def test_rejects_non_integer_rounds(self, n_rounds, abort_threshold):
        params = default_params(abort_threshold=abort_threshold)
        with pytest.raises(TypeError, match="n_rounds must be an integer"):
            run_session(honest_alice(), honest_bob(0.1), params, n_rounds, RNG(36))

    def test_accepts_numpy_integer_rounds(self):
        params = default_params()
        a = run_session(honest_alice(), honest_bob(0.1), params, np.int64(50), RNG(37))
        b = run_session(honest_alice(), honest_bob(0.1), params, 50, RNG(37))
        assert a == b and type(a.rounds) is int


class TestFastSession:
    def test_reproducible_by_seed(self):
        members = honest_alice().branch_model().members
        params = default_params()
        a = run_session_fast(members, params, 5_000, session_rng(40))
        b = run_session_fast(members, params, 5_000, session_rng(40))
        assert a == b

    @pytest.mark.parametrize("n_rounds", [2.5, 1e6, True, "7"])
    @pytest.mark.parametrize("abort_threshold", [0.05, 1.0])
    def test_rejects_non_integer_rounds(self, n_rounds, abort_threshold):
        members = honest_alice().branch_model().members
        params = default_params(abort_threshold=abort_threshold)
        with pytest.raises(TypeError, match="n_rounds must be an integer"):
            run_session_fast(members, params, n_rounds, RNG(40))

    @pytest.mark.parametrize("n_rounds", [0, -3])
    def test_rejects_fewer_than_one_round(self, n_rounds):
        members = honest_alice().branch_model().members
        with pytest.raises(ValueError, match="at least 1"):
            run_session_fast(members, default_params(), n_rounds, RNG(40))

    def test_accepts_numpy_integer_rounds(self):
        members = honest_alice().branch_model().members
        params = default_params()
        a = run_session_fast(members, params, np.int64(5_000), session_rng(40))
        b = run_session_fast(members, params, 5_000, session_rng(40))
        assert a == b and type(a.rounds) is int

    def test_agrees_with_oracle_honest(self):
        params = ProtocolParams(0.01, 10_000.0)
        alice = honest_alice()
        stats = run_session_fast(
            alice.branch_model().members, params, 1_000_000, session_rng(41)
        )
        mc = monte_carlo_gain(stats)
        oracle = oracle_expected_gain(alice, params)
        assert abs(mc.mean - oracle.total) <= 4.0 * mc.std_error

    def test_agrees_with_oracle_cheat(self):
        params = ProtocolParams(0.0139385, 10_000.0)
        alice = fixed_state_cheat(CheatPoint(0.3, 0.0, ClaimPolicy.ZERO))
        stats = run_session_fast(
            alice.branch_model().members, params, 1_000_000, session_rng(42)
        )
        mc = monte_carlo_gain(stats)
        oracle = oracle_expected_gain(alice, params)
        assert abs(mc.mean - oracle.total) <= 4.0 * mc.std_error

    def test_agrees_with_engine_distribution(self):
        # Same protocol through both code paths: both land within their
        # Monte Carlo bands of the same exact value.
        params = default_params(check_rate=0.2, penalty=50.0)
        alice = honest_alice()
        oracle = oracle_expected_gain(alice, params).total
        fast = monte_carlo_gain(
            run_session_fast(alice.branch_model().members, params, 200_000, session_rng(43))
        )
        slow = monte_carlo_gain(
            run_session(alice, honest_bob(0.2), params, 50_000, session_rng(44))
        )
        assert abs(fast.mean - oracle) <= 4.0 * fast.std_error
        assert abs(slow.mean - oracle) <= 4.0 * slow.std_error

    def test_noise_abort_matches_engine_rule(self):
        params = default_params(check_rate=0.5, noise=0.2, abort_threshold=0.05)
        members = honest_alice().branch_model().members
        stats = run_session_fast(members, params, 5_000, session_rng(45))
        assert stats.aborted
        assert stats.check_rounds >= MIN_CHECKS_FOR_ABORT
        clean = run_session_fast(
            members, default_params(check_rate=0.5, abort_threshold=0.0), 5_000,
            session_rng(46),
        )
        assert not clean.aborted and clean.check_fails == 0

    @pytest.mark.parametrize(
        "members",
        [
            [(0.3, KET_0, StateLabel.ZERO)],
            [],
            [(-1.0, KET_0, StateLabel.ZERO), (2.0, KET_PLUS, StateLabel.PLUS)],
        ],
        ids=["short", "empty", "negative"],
    )
    def test_rejects_non_distribution(self, members):
        with pytest.raises(ValueError):
            run_session_fast(members, default_params(), 1_000, session_rng(40))

    def test_rejects_non_label_claims(self):
        # Once a KeyError from the per-claim tables of the sampler.
        members = [(0.5, KET_0, StateLabel.ZERO), (0.5, KET_PLUS, "zero")]
        with pytest.raises(
            ValueError, match=r"^the claim of members\[1\] must be a StateLabel, got 'zero'$"
        ):
            run_session_fast(members, default_params(), 1_000, session_rng(40))

    def test_win_rate_near_optimum(self):
        params = ProtocolParams(0.01, 10_000.0)
        stats = run_session_fast(
            honest_alice().branch_model().members, params, 400_000, session_rng(47)
        )
        sigma = math.sqrt(
            OPTIMAL_GUESS_PROB * (1 - OPTIMAL_GUESS_PROB) / stats.normal_rounds
        )
        assert abs(stats.normal_win_rate - OPTIMAL_GUESS_PROB) < 5.0 * sigma


#: Upper 1e-4 quantiles of the chi-square distribution with 4 degrees of
#: freedom (five outcome classes) and with 2 (-2 ln 1e-4).
CHI2_4DOF_1E4 = 23.5127
CHI2_2DOF_1E4 = 18.4207

_CHI2_CASES = (
    ("zero_0.3", fixed_state_cheat(CheatPoint(0.3, 0.0, ClaimPolicy.ZERO)), 0.0),
    ("plus_1.0", fixed_state_cheat(CheatPoint(1.0, 0.0, ClaimPolicy.PLUS)), 0.0),
    ("zero_0.6_offplane", fixed_state_cheat(CheatPoint(0.6, 1.0, ClaimPolicy.ZERO)), 0.0),
    (
        "noisy_ensemble",
        ensemble_cheat(
            Ensemble(((0.35, state_from_bloch(0.4, 0.0)), (0.65, state_from_bloch(1.2, 0.3)))),
            [StateLabel.ZERO, StateLabel.PLUS],
        ),
        0.1,
    ),
)


class TestCountSampler:
    """run_session_fast draws class counts; these tests check it against
    the oracle's class masses and against the reference engine."""

    @pytest.mark.parametrize("abort_threshold", [1.0, 0.99])
    @pytest.mark.parametrize(
        "index", range(len(_CHI2_CASES)), ids=[c[0] for c in _CHI2_CASES]
    )
    def test_class_counts_fit_oracle(self, index, abort_threshold):
        # abort_threshold 1.0 draws the counts directly; 0.99 walks the
        # check rounds, where an abort is out of reach at these fail rates.
        _, alice, noise = _CHI2_CASES[index]
        params = default_params(
            check_rate=0.2, noise=noise, abort_threshold=abort_threshold
        )
        n = 200_000
        stats = run_session_fast(
            alice.branch_model().members, params, n,
            session_rng(48, 2 * index + (abort_threshold < 1.0)),
        )
        assert stats.rounds == n and not stats.aborted
        observed = class_counts(stats, params)
        expected = [n * m for m in class_masses(alice, params)]
        assert sum(expected) == pytest.approx(n, rel=1e-12)
        assert min(expected) > 100.0
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2 < CHI2_4DOF_1E4, (observed, expected)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(st.floats(0.01, 1.0), pure_qubits(), st.sampled_from(StateLabel)),
            min_size=1,
            max_size=4,
        ),
        rate=st.floats(0.001, 0.999),
        penalty=st.floats(1.0, 1e6),
        eps=st.floats(0.0, 0.99, exclude_max=True),
    )
    def test_class_probabilities_match_oracle(self, draws, rate, penalty, eps):
        # Exact: the sampler's win and fail probabilities are the oracle's
        # class masses conditioned on a normal and on a checking round.
        total = math.fsum(w for w, _, _ in draws)
        alice = ensemble_cheat(
            Ensemble(tuple((w / total, s) for w, s, _ in draws)), [c for _, _, c in draws]
        )
        params = default_params(check_rate=rate, penalty=penalty, noise=eps)
        m = class_masses(alice, params)
        win, fail = protocol._class_probabilities(alice.branch_model().members, eps)
        want_win, want_fail = m[0] / (m[0] + m[1]), m[2] / (m[2] + m[3] + m[4])
        assert abs(win - want_win) <= exact_tolerance(win, want_win)
        assert abs(fail - want_fail) <= exact_tolerance(fail, want_fail)

    def test_abort_sits_at_first_trigger(self):
        # Per-check fail rate 0.06 against a 0.05 threshold: sessions abort
        # at widely spread checks, some long after MIN_CHECKS_FOR_ABORT.
        params = default_params(check_rate=0.5, noise=0.09, abort_threshold=0.05)
        members = honest_alice().branch_model().members
        thr = params.abort_threshold
        late = 0
        for i in range(400):
            stats = run_session_fast(members, params, 4_000, session_rng(49, i))
            if not stats.aborted:
                assert stats.rounds == 4_000
                continue
            checks, fails = stats.check_rounds, stats.check_fails
            assert checks >= MIN_CHECKS_FOR_ABORT and fails > thr * checks
            # One check earlier the rule did not hold yet.
            assert checks == MIN_CHECKS_FOR_ABORT or fails - 1 <= thr * (checks - 1)
            late += checks > MIN_CHECKS_FOR_ABORT
        assert late >= 50

    @pytest.mark.parametrize(
        "index", range(1, len(_CHI2_CASES)), ids=[c[0] for c in _CHI2_CASES[1:]]
    )
    def test_aborted_ledger_fits_oracle(self, index):
        # Per-check fail rates 0.08-0.11 against the 0.05 threshold: every
        # session aborts, and its classes other than the fails are drawn
        # over the kept rounds only.
        _, alice, noise = _CHI2_CASES[index]
        params = default_params(check_rate=0.2, noise=noise)
        members = alice.branch_model().members
        masses = class_masses(alice, params)
        sessions = []
        for i in range(300):
            stats = run_session_fast(members, params, 100_000, session_rng(54 + index, i))
            assert stats.aborted and stats.rounds < 100_000
            sessions.append((class_counts(stats, params), masses))
        assert kept_ledger_chi2(sessions) < CHI2_2DOF_1E4

    def test_kept_rounds_match_engine(self):
        params = default_params(check_rate=0.5, noise=0.1, abort_threshold=0.05)
        n = 1_000
        fast = np.array([
            run_session_fast(
                honest_alice().branch_model().members, params, n, session_rng(51, i)
            ).rounds
            for i in range(4_000)
        ])
        slow = np.array([
            run_session(honest_alice(), honest_bob(0.5), params, n, session_rng(52, i)).rounds
            for i in range(150)
        ])
        assert 0 < np.count_nonzero(fast < n) < len(fast)
        se = math.sqrt(fast.var(ddof=1) / len(fast) + slow.var(ddof=1) / len(slow))
        assert abs(fast.mean() - slow.mean()) <= 4.0 * se

    def test_memory_does_not_grow_with_rounds(self):
        # Abort rule on, default rate at R = 1e4: the check rounds are
        # walked to the end, about 1.4e7 of them at 1e9 rounds.
        rate = optimal_check_rate(10_000.0).check_rate
        params = ProtocolParams(rate, 10_000.0)
        members = honest_alice().branch_model().members
        # Warm up first, so one-off set-up inside numpy is not counted.
        run_session_fast(members, params, 1_000, session_rng(53))
        bound = 2**20
        for n in (10**6, 10**9):
            tracemalloc.start()
            try:
                stats = run_session_fast(members, params, n, session_rng(53))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, peak)
            assert stats.rounds == n and not stats.aborted
            sigma = math.sqrt(n * rate * (1.0 - rate))
            assert abs(stats.check_rounds - n * rate) < 5.0 * sigma


class TestStats:
    def test_win_rate_requires_normal_rounds(self):
        s = SessionStats(2, 0.0, 0.0, 2, 0, 0, False)
        with pytest.raises(ValueError):
            s.normal_win_rate

    def test_record_row_shape(self):
        params = default_params()
        rows = []
        run_session(
            honest_alice(), honest_bob(0.1), params, 50, session_rng(50),
            on_round=lambda rec: rows.append(rec.as_row()),
        )
        assert len(rows) == 50
        assert set(rows[0]) == {
            "round_type", "bob_guess", "alice_claim", "check_result", "transfer",
        }


class TestSessionRng:
    def test_streams_differ_by_index(self):
        a = session_rng(7, 0).random(4).tolist()
        b = session_rng(7, 1).random(4).tolist()
        assert a != b

    def test_streams_repeat(self):
        assert session_rng(7, 3).random(4).tolist() == session_rng(7, 3).random(4).tolist()

    def test_session_and_round_seed_from_one_call(self):
        # The three streams of a session or a round are seeded from the
        # draws of one `integers` call.
        params = default_params(noise=0.1)
        for play in (
            lambda rng: run_session(honest_alice(), honest_bob(0.1), params, 500, rng),
            lambda rng: run_round(_entangled_z(), honest_bob(0.1), params, rng),
        ):
            rng, ref_rng = session_rng(9), session_rng(9)
            play(rng)
            ref_rng.integers(2**63, size=3)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


    def test_streams_keep_the_numpy_api(self):
        # A stream serves `random()` itself; every other public name of the
        # Generator must still be the wrapped Generator's, not a slot of
        # the stream that shadows it.
        for stream in _streams(session_rng(10)):
            for name in dir(np.random.Generator):
                if not name.startswith("_") and name != "random":
                    assert getattr(stream, name) == getattr(stream._rng, name), name
            assert isinstance(stream.random(size=3), np.ndarray)


# --------------------------------------------------------------------------
# Attackers that read the stream they are handed through the public numpy
# API.  The first kind copies the state of its `rng` into a fresh
# Generator and reads that copy's next uniforms: were the stream shared
# with the engine or with the other party, those would be the check coin,
# Alice's preparation coin or the Born draw of Bob's own measurement.  The
# second kind rebuilds another party's stream from its own stream's seed
# and counts that party's draws: were the streams seeded as the children of
# one `SeedSequence.spawn(3)` call, it would read the same uniforms.


def _peek(rng) -> np.random.Generator:
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    return copy


def _sibling(rng, key) -> np.random.Generator:
    """The stream spawned with spawn key `key` from the seed of `rng`, rebuilt
    from its `bit_generator.seed_seq` (numpy 1.24 names it `_seed_seq`).
    Were the streams one spawn's children, key 0 would be the engine's and
    key 1 Alice's."""
    bits = rng.bit_generator
    seq = bits.seed_seq if hasattr(bits, "seed_seq") else bits._seed_seq
    seed = np.random.SeedSequence(seq.entropy, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seed))


class _CheckPredictingAlice(AliceStrategy):
    """Sends |0> and reads her copy for the engine's check coin.  She claims
    ZERO, which passes a check, when she predicts one, and otherwise claims
    the opposite of Bob's guess, which wins a normal round."""

    def __init__(self, check_rate):
        self.check_rate = check_rate

    def prepare(self, rng):
        return Preparation(KET_0, self.check_coin(rng) < self.check_rate)

    def check_coin(self, rng):
        return _peek(rng).random()

    def claim(self, memo, own_view, bob_guess, rng):
        if memo or bob_guess is StateLabel.PLUS:
            return StateLabel.ZERO
        return StateLabel.PLUS


class _SeedReadingAlice(_CheckPredictingAlice):
    """Rebuilds the engine's stream from her seed.  Against honest Bob the
    engine draws twice a round: the check coin, then Bob's outcome in a
    normal round or the verdict in a check."""

    engine = None

    def check_coin(self, rng):
        if self.engine is None:
            self.engine = _sibling(rng, 0)
        coin, _ = self.engine.random(2)
        return coin


class _PreparationPredictingBob:
    """Never measures.  Guesses from the uniform he read last round for
    honest Alice's next preparation, past the verdict draw of a check."""

    def __init__(self):
        self.predicted = 0.5

    def play(self, received, is_check, rng):
        guess = StateLabel.ZERO if self.predicted < 0.5 else StateLabel.PLUS
        copy = _peek(rng)
        if is_check:
            copy.random()
        self.predicted = copy.random()
        return guess


class _SeedReadingBob:
    """Never measures.  Rebuilds Alice's stream from his seed and reads the
    uniform honest Alice drew for this round's preparation."""

    alice = None

    def play(self, received, is_check, rng):
        if self.alice is None:
            self.alice = _sibling(rng, 1)
        return StateLabel.ZERO if self.alice.random() < 0.5 else StateLabel.PLUS


_ANTI_X = MeasurementBasis(KET_MINUS, KET_PLUS)


class _BornPeekingBob:
    """Reads the uniform his measurement's outcome would be drawn from and
    picks the basis in which that uniform separates |0> from |+>: z when it
    exceeds 1/2, where |+> alone can give MINUS, and (|->, |+>) otherwise,
    where |0> alone can give PLUS.  The engine draws the outcome."""

    def play(self, received, is_check, rng):
        u = self.outcome_draw(rng)
        if is_check:
            return StateLabel.ZERO
        outcome = received.measure(BASIS_Z if u > 0.5 else _ANTI_X)
        return StateLabel.ZERO if outcome is Outcome.PLUS else StateLabel.PLUS

    def outcome_draw(self, rng):
        return _peek(rng).random()


class _SeedReadingBornBob(_BornPeekingBob):
    """Rebuilds the engine's stream from his seed.  Against honest Alice the
    engine draws twice a round: the check coin, drawn before he plays,
    then his outcome in a normal round or the verdict in a check."""

    engine = None

    def outcome_draw(self, rng):
        if self.engine is None:
            self.engine = _sibling(rng, 0)
        _, u = self.engine.random(2)
        return u


class TestPrivateStreams:
    """At the paper's check rate for R = 1e4, abort off.  With one stream
    shared by the engine and both parties, the state-copying Alice earned
    5.78 per round with no check failed, and both state-copying Bobs won
    every normal round.  With the streams spawned from one seed, each
    seed-reading attacker did as well."""

    R = 10_000.0
    N = 20_000

    def params(self):
        return ProtocolParams(optimal_check_rate(self.R).check_rate, self.R, abort_threshold=1.0)

    @pytest.mark.parametrize(
        "attacker", [_CheckPredictingAlice, _SeedReadingAlice], ids=["state", "seed"]
    )
    def test_alice_cannot_predict_checks(self, attacker):
        params = self.params()
        alice = attacker(params.check_rate)
        stats = run_session(alice, honest_bob(params.check_rate), params, self.N, session_rng(1))
        mc = monte_carlo_gain(stats)
        assert stats.check_fails > 0
        assert mc.mean + 4.0 * mc.std_error < optimal_check_rate(self.R).gain_cap

    @pytest.mark.parametrize(
        "attacker", [_PreparationPredictingBob, _SeedReadingBob], ids=["state", "seed"]
    )
    def test_bob_cannot_predict_preparations(self, attacker):
        params = self.params()
        stats = run_session(honest_alice(), attacker(), params, self.N, session_rng(2))
        sigma = math.sqrt(0.25 / stats.normal_rounds)
        assert abs(stats.normal_win_rate - 0.5) < 4.0 * sigma

    def test_engine_draws_leave_party_streams_alone(self):
        # Neither party draws, and each measures whenever the rules let it:
        # the check coins, the noise and every outcome come from the
        # engine's stream, so each party's stream ends where it started.
        # The state-copying attackers above read a state that blocks run
        # ahead of, so this is what shows a stream shared with the engine.
        seen = {}

        class StillAlice(AliceStrategy):
            inner = _entangled_z()

            def prepare(self, rng):
                seen.setdefault("alice", (rng, rng.bit_generator.state))
                return self.inner.prepare(rng)

            def claim(self, memo, own_view, bob_guess, rng):
                return self.inner.claim(memo, own_view, bob_guess, rng)

        class StillBob:
            def play(self, received, is_check, rng):
                seen.setdefault("bob", (rng, rng.bit_generator.state))
                if is_check:
                    return StateLabel.ZERO
                outcome = received.measure(BASIS_DISCRIM)
                return StateLabel.ZERO if outcome is Outcome.PLUS else StateLabel.PLUS

        params = default_params(check_rate=0.2, noise=0.1, abort_threshold=1.0)
        stats = run_session(StillAlice(), StillBob(), params, 2_000, session_rng(8))
        assert stats.rounds == 2_000
        (alice_rng, alice_state), (bob_rng, bob_state) = seen["alice"], seen["bob"]
        assert alice_rng is not bob_rng
        assert alice_rng.bit_generator.state == alice_state
        assert bob_rng.bit_generator.state == bob_state

    @pytest.mark.parametrize(
        "attacker", [_BornPeekingBob, _SeedReadingBornBob], ids=["state", "seed"]
    )
    def test_bob_cannot_predict_outcomes(self, attacker):
        params = self.params()
        stats = run_session(honest_alice(), attacker(), params, self.N, session_rng(3))
        p = OPTIMAL_GUESS_PROB
        sigma = math.sqrt(p * (1.0 - p) / stats.normal_rounds)
        assert stats.normal_win_rate < p + 4.0 * sigma
