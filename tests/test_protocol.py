"""Round/session engine tests: settlement, noise, abort, and the fast path."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import class_counts, class_masses, kept_ledger_chi2

from qgamble.analysis import (
    monte_carlo_gain,
    optimal_check_rate,
    oracle_expected_gain,
    oracle_transcript_distribution,
)
from qgamble.protocol import (
    DEFAULT_LOSS_PAYOUT,
    MIN_CHECKS_FOR_ABORT,
    BobMove,
    CheckResult,
    ProtocolParams,
    ProtocolViolation,
    RoundRegister,
    RoundType,
    SessionStats,
    StateLabel,
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
    PAULI_AXES,
    Ensemble,
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
            dict(win_payout=0.0),
            dict(penalty=math.nan),
            dict(penalty=math.inf),
            dict(loss_payout=math.nan),
            dict(loss_payout=math.inf),
            dict(win_payout=math.nan),
            dict(win_payout=math.inf),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            default_params(**kw)

    def test_default_loss_payout(self):
        assert DEFAULT_LOSS_PAYOUT == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-12)


class TestRunRound:
    def test_transfers_take_legal_values(self):
        params = default_params()
        alice, bob = honest_alice(), honest_bob(params.check_rate)
        rng = RNG(10)
        legal = {-params.win_payout, params.loss_payout}
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
                    assert rec.transfer == -params.win_payout
                else:
                    assert rec.transfer == params.loss_payout

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
                move = self.inner.play(received, is_check, rng)
                self.stored = move.stored
                return move

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
                    spy.stored.measure(BASIS_Z, rng)
        assert checks > 70

    @pytest.mark.parametrize("forgery", ["verify_fail", "stand_in"])
    def test_bob_cannot_decide_the_verdict(self, forgery):
        # Neither a verdict Bob reports nor a stored object of his own whose
        # outcomes he picks has a say: the engine measures the register.
        params = default_params(check_rate=0.5)

        class StandIn:
            def measure(self, basis, rng, which=None):
                return Outcome.MINUS

        class ForgingBob:
            def __init__(self):
                self.inner = honest_bob(params.check_rate)

            def play(self, received, is_check, rng):
                move = self.inner.play(received, is_check, rng)
                if is_check and forgery == "stand_in":
                    return move._replace(stored=StandIn())
                return move

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
                own_view.measure(BASIS_Z, rng, which=Subsystem.B)
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
                own_view.measure(BASIS_Z, rng)
                return StateLabel.ZERO

        with pytest.raises(ProtocolViolation):
            run_round(ConfusedAlice(), honest_bob(params.check_rate), params, RNG(16))

    def test_double_measurement_rejected(self):
        params = default_params(check_rate=0.001)

        class GreedyBob:
            def play(self, received, is_check, rng):
                received.measure(BASIS_Z, rng)
                received.measure(BASIS_Z, rng)
                return BobMove(StateLabel.ZERO, None, Outcome.PLUS)

        with pytest.raises(ProtocolViolation):
            run_round(honest_alice(), GreedyBob(), params, RNG(17))

    def test_entangled_alice_measures_kept_half_once(self):
        params = default_params()

        class GreedyAlice(AliceStrategy):
            def prepare(self, rng):
                return Preparation(standard_attack_state())

            def claim(self, memo, own_view, bob_guess, rng):
                own_view.measure(BASIS_Z, rng)
                own_view.measure(BASIS_Z, rng)
                return StateLabel.ZERO

        with pytest.raises(ProtocolViolation, match="subsystem A was already measured"):
            run_round(GreedyAlice(), honest_bob(params.check_rate), params, RNG(18))

    def test_bob_naming_alices_half_rejected(self):
        params = default_params(check_rate=0.001)

        class PeekingBob:
            def play(self, received, is_check, rng):
                received.measure(BASIS_Z, rng, which=Subsystem.A)
                return BobMove(StateLabel.ZERO, None, Outcome.PLUS)

        alice = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
        with pytest.raises(ProtocolViolation, match="bob attempted to measure subsystem A"):
            run_round(alice, PeekingBob(), params, RNG(19))

    @pytest.mark.parametrize("basis", [BASIS_Z, BASIS_DISCRIM], ids=["z", "discrim"])
    def test_stored_qubit_measured_before_verify_rejected(self, basis):
        # Bob measures every round, guesses from the outcome and still hands
        # the measured qubit back as stored.
        params = default_params(check_rate=0.999)

        class EagerBob:
            def play(self, received, is_check, rng):
                outcome = received.measure(basis, rng)
                guess = StateLabel.ZERO if outcome is Outcome.PLUS else StateLabel.PLUS
                return BobMove(guess, received if is_check else None, outcome)

        rng = RNG(20)
        with pytest.raises(ProtocolViolation, match="subsystem B was already measured"):
            for _ in range(20):
                run_round(honest_alice(), EagerBob(), params, rng)

    def test_check_round_without_stored_qubit_rejected(self):
        params = default_params(check_rate=0.999)

        class ForgetfulBob:
            def play(self, received, is_check, rng):
                return BobMove(StateLabel.ZERO, None, None)

        rng = RNG(21)
        with pytest.raises(ProtocolViolation, match="requires Bob to store the qubit"):
            for _ in range(20):
                run_round(honest_alice(), ForgetfulBob(), params, rng)


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
            flipped += register.measure(Subsystem.B, BASIS_Z, rng, "bob") is Outcome.MINUS
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

    def test_win_rate_near_optimum(self):
        from qgamble.qubits import OPTIMAL_GUESS_PROB

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
