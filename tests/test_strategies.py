"""Strategy behaviour: honest play, cheating families, entanglement attacks."""

import math

import numpy as np
import pytest

from qgamble.analysis import (
    oracle_expected_gain,
    oracle_transcript_distribution,
)
from qgamble.protocol import (
    ProtocolParams,
    StateLabel,
    run_session,
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
    BlochVector,
    Ensemble,
    Outcome,
    PureQubit,
    Subsystem,
    TwoQubitPure,
    basis_from_bloch_angle,
    overlap,
    project_subsystem,
    reduced_bloch,
)
from qgamble.strategies import (
    CheatPoint,
    ClaimPolicy,
    NonEnumerableStrategyError,
    AliceStrategy,
    declared_bob_bloch,
    ensemble_cheat,
    entangled_cheat,
    fixed_state_cheat,
    honest_alice,
    honest_bob,
    standard_attack_state,
)

RNG = np.random.default_rng

PARAMS = ProtocolParams(0.0139385, 10_000.0)


def transcript_distance(a, b, params=PARAMS) -> float:
    da = oracle_transcript_distribution(a, params)
    db = oracle_transcript_distribution(b, params)
    return max(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in set(da) | set(db))


class TestHonestAlice:
    def test_preparation_frequencies(self):
        alice = honest_alice()
        rng = RNG(60)
        n = 40_000
        zeros = sum(
            alice.prepare(rng).memo is StateLabel.ZERO for _ in range(n)
        )
        assert abs(zeros / n - 0.5) < 5.0 * math.sqrt(0.25 / n)

    def test_claims_truthfully(self):
        alice = honest_alice()
        rng = RNG(61)
        for _ in range(100):
            prep = alice.prepare(rng)
            for guess in StateLabel:
                assert alice.claim(prep.memo, None, guess, rng) is prep.memo

    def test_never_fails_checks(self):
        params = ProtocolParams(0.5, 100.0)
        stats = run_session(
            honest_alice(), honest_bob(0.5), params, 3_000, session_rng(62)
        )
        assert stats.check_fails == 0


class TestHonestBob:
    def test_win_rate_against_honest_alice(self):
        params = ProtocolParams(0.02, 100.0)
        stats = run_session(
            honest_alice(), honest_bob(0.02), params, 30_000, session_rng(63)
        )
        p = OPTIMAL_GUESS_PROB
        sigma = math.sqrt(p * (1 - p) / stats.normal_rounds)
        assert abs(stats.normal_win_rate - p) < 5.0 * sigma

    def test_guess_distribution_on_plus(self):
        # Receiving |+>, the announced guess is PLUS with the optimal rate.
        expected = overlap(BASIS_DISCRIM.minus, KET_PLUS)
        assert expected == pytest.approx(OPTIMAL_GUESS_PROB, abs=1e-12)

        class PlusAlice(AliceStrategy):
            def prepare(self, rng):
                from qgamble.strategies import Preparation

                return Preparation(KET_PLUS)

            def claim(self, memo, own_view, bob_guess, rng):
                return StateLabel.PLUS

        params = ProtocolParams(0.001, 100.0)
        records = []
        run_session(PlusAlice(), honest_bob(0.001), params, 20_000, RNG(64),
                    on_round=records.append)
        assert len(records) == 20_000
        hits = rounds = 0
        for rec in records:
            if rec.round_type.value == "normal":
                rounds += 1
                hits += rec.bob_guess is StateLabel.PLUS
        sigma = math.sqrt(expected * (1 - expected) / rounds)
        assert abs(hits / rounds - expected) < 5.0 * sigma

    def test_check_guess_uniform(self):
        params = ProtocolParams(0.999, 100.0)
        records = []
        run_session(honest_alice(), honest_bob(0.999), params, 20_000, RNG(65),
                    on_round=records.append)
        assert len(records) == 20_000
        guesses = []
        for rec in records:
            if rec.round_type.value == "check":
                guesses.append(rec.bob_guess is StateLabel.ZERO)
        frac = sum(guesses) / len(guesses)
        assert abs(frac - 0.5) < 5.0 * math.sqrt(0.25 / len(guesses))

    def test_invalid_check_rate(self):
        with pytest.raises(ValueError):
            honest_bob(0.0)

    def test_measurement_is_optimal_over_plane_grid(self):
        # Exact (no sampling): among 360 z-x-plane projective bases, none
        # beats the discrimination basis, whose success rate is cos^2(pi/8).
        def success(basis) -> float:
            hit_a = 0.5 * overlap(basis.plus, KET_0) + 0.5 * overlap(
                basis.minus, KET_PLUS
            )
            return max(hit_a, 1.0 - hit_a)

        best = max(
            success(basis_from_bloch_angle(2.0 * math.pi * k / 360.0))
            for k in range(360)
        )
        assert best <= OPTIMAL_GUESS_PROB + 1e-12
        assert best == pytest.approx(OPTIMAL_GUESS_PROB, abs=1e-9)
        assert success(BASIS_DISCRIM) == pytest.approx(OPTIMAL_GUESS_PROB, abs=1e-12)


class TestFixedStateCheat:
    def test_zero_angle_is_honest_restricted(self):
        cheat = fixed_state_cheat(CheatPoint(0.0, 0.0, ClaimPolicy.ZERO))
        members = cheat.branch_model().members
        assert members == ((1.0, KET_0, StateLabel.ZERO),)

    def test_nearest_claim_constant_and_tied_to_zero(self):
        near_zero = fixed_state_cheat(CheatPoint(0.2, 0.0, ClaimPolicy.NEAREST))
        assert near_zero.branch_model().members[0][2] is StateLabel.ZERO
        near_plus = fixed_state_cheat(
            CheatPoint(math.pi / 2 - 0.2, 0.0, ClaimPolicy.NEAREST)
        )
        assert near_plus.branch_model().members[0][2] is StateLabel.PLUS
        # Symmetric point: the tie breaks toward ZERO.
        tied = fixed_state_cheat(CheatPoint(math.pi / 4, 0.0, ClaimPolicy.NEAREST))
        assert tied.branch_model().members[0][2] is StateLabel.ZERO

    def test_validates_angles(self):
        with pytest.raises(ValueError):
            CheatPoint(-0.1)
        with pytest.raises(ValueError):
            CheatPoint(1.0, 7.0)

    def test_deterministic_given_stream(self):
        cheat = fixed_state_cheat(CheatPoint(0.4, 0.3, ClaimPolicy.NEAREST))
        recs_a = []
        recs_b = []
        params = ProtocolParams(0.3, 100.0)
        run_session(cheat, honest_bob(0.3), params, 100, session_rng(66),
                    on_round=lambda r: recs_a.append(r))
        run_session(cheat, honest_bob(0.3), params, 100, session_rng(66),
                    on_round=lambda r: recs_b.append(r))
        assert recs_a == recs_b


class TestEnsembleCheat:
    def test_singleton_equals_fixed_state(self):
        state = PureQubit(math.cos(0.15), math.sin(0.15))
        lone = ensemble_cheat(Ensemble(((1.0, state),)), [StateLabel.ZERO])
        fixed = fixed_state_cheat(CheatPoint(0.3, 0.0, ClaimPolicy.ZERO))
        assert oracle_expected_gain(lone, PARAMS).total == pytest.approx(
            oracle_expected_gain(fixed, PARAMS).total, abs=1e-12
        )

    def test_truthful_legal_mixture_is_honest(self):
        mix = ensemble_cheat(
            Ensemble(((0.5, KET_0), (0.5, KET_PLUS))),
            [StateLabel.ZERO, StateLabel.PLUS],
        )
        assert transcript_distance(mix, honest_alice()) <= 1e-12

    def test_orthogonal_member_always_caught(self):
        liar = ensemble_cheat(Ensemble(((1.0, KET_MINUS),)), [StateLabel.PLUS])
        dist = oracle_transcript_distribution(liar, PARAMS)
        fail_prob = sum(
            p for (rt, _, _, res), p in dist.items() if res.value == "fail"
        )
        assert fail_prob == pytest.approx(PARAMS.check_rate, abs=1e-12)

    def test_claim_count_must_match(self):
        with pytest.raises(ValueError):
            ensemble_cheat(Ensemble(((1.0, KET_0),)), [])

    @pytest.mark.parametrize("bad", ["zero", None], ids=["str", "none"])
    def test_claims_must_be_state_labels(self, bad):
        with pytest.raises(ValueError, match=r"^claim 0 must be a StateLabel, got "):
            ensemble_cheat(Ensemble(((1.0, KET_0),)), [bad])
        with pytest.raises(ValueError, match=rf"^claim 1 must be a StateLabel, got {bad!r}$"):
            ensemble_cheat(
                Ensemble(((0.5, KET_0), (0.5, KET_PLUS))), [StateLabel.ZERO, bad]
            )

    def test_sampling_frequencies(self):
        mix = ensemble_cheat(
            Ensemble(((0.25, KET_0), (0.75, KET_PLUS))),
            [StateLabel.ZERO, StateLabel.PLUS],
        )
        rng = RNG(67)
        n = 40_000
        zeros = sum(mix.prepare(rng).memo is StateLabel.ZERO for _ in range(n))
        assert abs(zeros / n - 0.25) < 5.0 * math.sqrt(0.25 * 0.75 / n)


class TestEntangledCheat:
    def test_attack_state_amplitudes(self):
        s = standard_attack_state()
        root_half = 1.0 / math.sqrt(2.0)
        assert abs(s.amp(0, 0) - root_half) < 1e-12
        assert abs(s.amp(0, 1)) < 1e-12
        assert abs(s.amp(1, 0) - 0.5) < 1e-12
        assert abs(s.amp(1, 1) - 0.5) < 1e-12

    def test_constant_z_reduces_to_honest(self):
        z_attack = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
        assert transcript_distance(z_attack, honest_alice()) <= 1e-12

    def test_constant_x_equals_induced_ensemble(self):
        x_attack = entangled_cheat({lab: BASIS_X for lab in StateLabel})
        (w_near, near), (w_far, far) = project_subsystem(
            standard_attack_state(), Subsystem.A, BASIS_X
        )
        induced = ensemble_cheat(
            Ensemble(((w_near, near), (w_far, far))),
            [StateLabel.ZERO, StateLabel.PLUS],
        )
        assert transcript_distance(x_attack, induced) <= 1e-12

    def test_steered_weights(self):
        (w_near, _), (w_far, _) = project_subsystem(
            standard_attack_state(), Subsystem.A, BASIS_X
        )
        assert w_near == pytest.approx((2.0 + math.sqrt(2.0)) / 4.0, abs=1e-12)
        assert w_far == pytest.approx((2.0 - math.sqrt(2.0)) / 4.0, abs=1e-12)

    def test_x_attack_loses_badly(self):
        for penalty in (100.0, 10_000.0):
            from qgamble.analysis import optimal_check_rate

            rate = optimal_check_rate(penalty).check_rate
            for table in (
                None,
                {Outcome.PLUS: StateLabel.PLUS, Outcome.MINUS: StateLabel.ZERO},
                {Outcome.PLUS: StateLabel.ZERO, Outcome.MINUS: StateLabel.ZERO},
            ):
                attack = entangled_cheat(
                    {lab: BASIS_X for lab in StateLabel}, label_by_outcome=table
                )
                gain = oracle_expected_gain(attack, ProtocolParams(rate, penalty))
                assert gain.total < 0.0

    def test_policy_must_cover_both_guesses(self):
        with pytest.raises(ValueError):
            entangled_cheat({StateLabel.ZERO: BASIS_Z})

    @pytest.mark.parametrize("table", [{}, {Outcome.PLUS: StateLabel.ZERO}])
    def test_outcome_table_must_cover_both_outcomes(self, table):
        with pytest.raises(ValueError, match="outcome table must cover both outcomes"):
            entangled_cheat({lab: BASIS_Z for lab in StateLabel}, label_by_outcome=table)

    @pytest.mark.parametrize("bad", ["zero", None], ids=["str", "none"])
    def test_outcome_labels_must_be_state_labels(self, bad):
        # Built, such a table would make the oracle fail with AttributeError.
        policy = {lab: BASIS_Z for lab in StateLabel}
        with pytest.raises(
            ValueError, match=rf"^label for outcome plus must be a StateLabel, got {bad!r}$"
        ):
            entangled_cheat(policy, {Outcome.PLUS: bad, Outcome.MINUS: StateLabel.PLUS})
        with pytest.raises(ValueError, match="^label for outcome minus must be a StateLabel"):
            entangled_cheat(policy, {Outcome.PLUS: StateLabel.ZERO, Outcome.MINUS: bad})

    def test_custom_state_accepted(self):
        bell = TwoQubitPure((1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)))
        attack = entangled_cheat({lab: BASIS_Z for lab in StateLabel}, state=bell)
        assert attack.branch_model().state is bell

    def test_adaptive_policy_runs_in_engine(self):
        attack = entangled_cheat(
            {StateLabel.ZERO: BASIS_Z, StateLabel.PLUS: BASIS_X}
        )
        params = ProtocolParams(0.3, 100.0)
        stats = run_session(attack, honest_bob(0.3), params, 2_000, session_rng(68))
        assert stats.rounds >= 1


class TestDeclaredReducedState:
    def test_every_builtin_matches_and_is_steering_proof(self):
        target = BlochVector(0.5, 0.0, 0.5)
        strategies = [
            honest_alice(),
            ensemble_cheat(
                Ensemble(((0.5, KET_0), (0.5, KET_PLUS))),
                [StateLabel.ZERO, StateLabel.PLUS],
            ),
            entangled_cheat({lab: BASIS_Z for lab in StateLabel}),
            entangled_cheat({lab: BASIS_X for lab in StateLabel}),
        ]
        for strat in strategies:
            assert declared_bob_bloch(strat).isclose(target, tol=1e-12)
        # And the fixed cheat declares its own state's vector.
        cheat = fixed_state_cheat(CheatPoint(0.3, 0.1, ClaimPolicy.NEAREST))
        v = declared_bob_bloch(cheat)
        assert v.norm() == pytest.approx(1.0, abs=1e-9)

    def test_entangled_reduced_state_ignores_policy(self):
        z = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
        x = entangled_cheat({lab: BASIS_X for lab in StateLabel})
        assert declared_bob_bloch(z).isclose(declared_bob_bloch(x), tol=0.0)
        assert declared_bob_bloch(z).isclose(
            reduced_bloch(standard_attack_state(), Subsystem.B), tol=0.0
        )


class TestEnumerability:
    def test_custom_strategy_rejected_by_oracle(self):
        class OpaqueAlice(AliceStrategy):
            def prepare(self, rng):
                from qgamble.strategies import Preparation

                return Preparation(KET_0)

            def claim(self, memo, own_view, bob_guess, rng):
                return StateLabel.ZERO

        with pytest.raises(NonEnumerableStrategyError):
            oracle_expected_gain(OpaqueAlice(), PARAMS)
