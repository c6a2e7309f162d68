"""Closed forms, the enumeration oracle, Monte Carlo, optimizers, sweeps."""

import copy
import math
import re

import numpy as np
import pytest

from qgamble import analysis
from qgamble.analysis import (
    GainBreakdown,
    ProtocolConstants,
    cheat_gain_exact,
    cheat_gain_quadratic_bound,
    claim_gain_upper_bound,
    entangled_policy_gains,
    golden_section_max,
    monte_carlo_gain,
    optimal_check_rate,
    oracle_expected_gain,
    oracle_round_branches,
    oracle_transcript_distribution,
    protocol_constants,
    quadratic_bound_optimum,
    sweep_cheat_gain,
    unmeasured_posterior,
)
from qgamble.protocol import (
    DEFAULT_LOSS_PAYOUT,
    CheckResult,
    ProtocolParams,
    StateLabel,
    run_session_fast,
    session_rng,
)
from qgamble.qubits import BASIS_X, BASIS_Z, Ensemble, KET_0, KET_PLUS, PureQubit
from qgamble.strategies import (
    CheatPoint,
    ClaimPolicy,
    ensemble_cheat,
    entangled_cheat,
    fixed_state_cheat,
    honest_alice,
)

SQ2 = math.sqrt(2.0)
PARAMS = ProtocolParams(0.0139385, 10_000.0)

# The three closed forms as functions of (theta, check_rate, penalty).
CLOSED_FORMS = {
    "exact": lambda t, r, pen: cheat_gain_exact(t, r, pen, StateLabel.ZERO),
    "ceiling": lambda t, r, pen: claim_gain_upper_bound(t, r, pen, StateLabel.PLUS),
    "quadratic": cheat_gain_quadratic_bound,
}
# (theta, check_rate, penalty, message) with one bad argument each.
BAD_CLOSED_FORM_ARGS = [
    *((0.3, r, 100.0, f"check_rate must lie in (0, 1), got {r}")
      for r in (0.0, 1.0, 1.5, math.nan)),
    *((0.3, 0.1, pen, f"penalty must be positive and finite, got {pen}")
      for pen in (0.0, -1.0, math.nan, math.inf)),
    *((t, 0.1, 100.0, f"theta must be finite, got {t}")
      for t in (math.nan, math.inf, -math.inf)),
    # Several bad arguments: theta's fault is named first, then the rate's.
    (math.nan, 1.5, -1.0, "theta must be finite, got nan"),
    (0.3, math.nan, math.inf, "check_rate must lie in (0, 1), got nan"),
]


class TestConstants:
    def test_values(self):
        c = protocol_constants()
        assert c.guess_prob == pytest.approx(0.8535533905932737, abs=1e-12)
        assert c.loss_payout == pytest.approx(3.0 + 2.0 * SQ2, abs=1e-12)
        assert c.slope == pytest.approx(SQ2 / 4.0, abs=1e-12)
        assert c.slope / (1.0 - c.guess_prob) == pytest.approx(1.0 + SQ2, abs=1e-12)

    def test_loss_payout_is_the_protocols(self):
        assert protocol_constants().loss_payout == DEFAULT_LOSS_PAYOUT

    def test_same_value_on_every_call(self):
        p = math.cos(math.pi / 8.0) ** 2
        expect = ProtocolConstants(
            p, p / (1.0 - p), math.cos(math.pi / 8.0) * math.sin(math.pi / 8.0)
        )
        assert [protocol_constants() for _ in range(3)] == [expect] * 3


class TestExactGain:
    @pytest.mark.parametrize("label", ["zero", "plus", 0, None])
    def test_closed_forms_reject_non_labels(self, label):
        # A string once read as PLUS: cheat_gain_exact(0.3, 0.1, 100.0, "zero")
        # gave the PLUS gain 0.24042, where ZERO gives 0.75186.
        with pytest.raises(ValueError, match=f"claim must be a StateLabel, got {label!r}"):
            cheat_gain_exact(0.3, 0.1, 100.0, label)
        with pytest.raises(ValueError, match=f"claim must be a StateLabel, got {label!r}"):
            claim_gain_upper_bound(0.3, 0.1, 100.0, label)
        with pytest.raises(ValueError, match=f"guess must be a StateLabel, got {label!r}"):
            unmeasured_posterior(0.3, 0.1, label)

    @pytest.mark.parametrize("form", CLOSED_FORMS)
    @pytest.mark.parametrize(
        "theta, rate, penalty, message",
        BAD_CLOSED_FORM_ARGS,
        ids=[f"{t}-{r}-{pen}" for t, r, pen, _ in BAD_CLOSED_FORM_ARGS],
    )
    def test_closed_forms_reject_bad_arguments(self, form, theta, rate, penalty, message):
        # cheat_gain_exact(0.3, 1.5, 100.0, ZERO) once returned a breakdown
        # and cheat_gain_quadratic_bound(0.1, nan, 100.0) returned nan.
        with pytest.raises(ValueError, match=re.escape(message)):
            CLOSED_FORMS[form](theta, rate, penalty)

    def test_legal_state_leaks_only_pass_term(self):
        g = cheat_gain_exact(0.0, 0.01, 1_000.0, StateLabel.ZERO)
        assert g.normal_term == pytest.approx(0.0, abs=1e-12)
        assert g.detect_term == 0.0
        assert g.total == pytest.approx(0.01 * (1.0 + SQ2), abs=1e-12)

    def test_halfway_state_detection_cost(self):
        g = cheat_gain_exact(math.pi / 2.0, 0.01, 1_000.0, StateLabel.ZERO)
        assert g.detect_term == pytest.approx(-5.0, abs=1e-9)

    def test_reflection_symmetry(self):
        # Swapping the two legal states maps theta to pi/2 - theta.
        for i in range(50):
            theta = math.pi / 2.0 * i / 49.0
            a = cheat_gain_exact(theta, 0.01, 1_000.0, StateLabel.ZERO)
            b = cheat_gain_exact(math.pi / 2.0 - theta, 0.01, 1_000.0, StateLabel.PLUS)
            assert a.total == pytest.approx(b.total, abs=1e-12)
            assert a.detect_term == pytest.approx(b.detect_term, abs=1e-12)

    def test_breakdown_terms_sum(self):
        g = cheat_gain_exact(0.4, 0.05, 300.0, StateLabel.PLUS)
        assert g.total == pytest.approx(
            g.normal_term + g.detect_term + g.pass_term, abs=1e-12
        )

    def test_breakdown_validation(self):
        with pytest.raises(ValueError, match="detect_term must be nonpositive"):
            GainBreakdown(0.0, 0.5, 0.0, 0.5)
        with pytest.raises(ValueError, match="breakdown terms do not sum to the total"):
            GainBreakdown(1.0, 0.0, 0.0, 2.0)
        # NaN once passed both checks, and an infinite term the sum check.
        nan, inf = math.nan, math.inf
        for terms in (
            (0.0, nan, 0.0, 0.0),
            (nan, 0.0, 0.0, nan),
            (0.0, 0.0, 0.0, nan),
            (inf, 0.0, 0.0, 0.0),
            (0.0, -inf, 0.0, 0.0),
            (0.0, inf, 0.0, inf),
            (0.0, 0.0, 0.0, -inf),
        ):
            with pytest.raises(ValueError, match="breakdown terms must be finite"):
                GainBreakdown(*terms)
        for terms in ((inf, 0.0, 0.0), (0.0, 0.0, nan)):
            with pytest.raises(ValueError, match="breakdown terms must be finite"):
                GainBreakdown.from_terms(*terms)
        with pytest.raises(ValueError, match="theta must be finite"):
            cheat_gain_exact(nan, 0.1, 100.0, StateLabel.ZERO)

    def test_breakdown_is_an_immutable_tuple(self):
        g = GainBreakdown.from_terms(0.5, -0.25, 0.125)
        assert repr(g) == (
            "GainBreakdown(normal_term=0.5, detect_term=-0.25, pass_term=0.125, total=0.375)"
        )
        assert g == (0.5, -0.25, 0.125, 0.375)
        twin = GainBreakdown(0.5, -0.25, 0.125, 0.375)
        assert twin == g and hash(twin) == hash(g)
        assert copy.deepcopy(g) == g
        for name in ("total", "extra"):
            with pytest.raises(AttributeError):
                setattr(g, name, 1.0)
        # _replace builds through the checks.
        with pytest.raises(ValueError, match="do not sum"):
            g._replace(total=1.0)

    def test_breakdown_tolerance_scales_with_terms(self):
        # cheat_gain_exact(0.01, 0.5, 1e6, PLUS): the plain sum of these
        # terms is an ulp off their fsum, more than 1e-12 at this magnitude.
        terms = (2.2202712713275408, -212640.4668816002, 0.6937472821316412)
        g = GainBreakdown.from_terms(*terms)
        assert abs(g.total - sum(terms)) > 1e-12
        for total in (g.total + 1e-6, g.total - 1e-6, 2.0 * g.total):
            with pytest.raises(ValueError):
                GainBreakdown(*terms, total)


class TestClaimCeiling:
    def test_oracle_never_exceeds_ceiling(self):
        for r, penalty in ((0.01, 1_000.0), (0.0139385, 10_000.0), (0.1, 100.0)):
            params = ProtocolParams(r, penalty)
            for i in range(40):
                theta = math.pi * i / 39.0
                for claim in StateLabel:
                    strat = fixed_state_cheat(
                        CheatPoint(theta, 0.0, ClaimPolicy(claim.value))
                    )
                    gain = oracle_expected_gain(strat, params).total
                    ceiling = claim_gain_upper_bound(theta, r, penalty, claim)
                    assert gain <= ceiling + 1e-12


class TestQuadraticBound:
    def test_constant_term_at_zero(self):
        assert cheat_gain_quadratic_bound(0.0, 0.02, 500.0) == pytest.approx(
            3.0 * 0.02, abs=1e-15
        )

    def test_value_at_published_optimum(self):
        v = cheat_gain_quadratic_bound(0.0346409, 0.0139385, 10_000.0)
        assert v == pytest.approx(0.08363, abs=5e-6)

    def test_bounds_exact_gain_in_small_angle_regime(self):
        # The bound holds where it is used: near the optimum, at the
        # penalty-matched check rate.  (It is not a global bound; the
        # dropped positive curvature of the normal term overtakes the
        # quadratic margin at larger angles.)
        for penalty in (100.0, 10_000.0, 1_000_000.0):
            rate = optimal_check_rate(penalty).check_rate
            params = ProtocolParams(rate, penalty)
            theta_star = quadratic_bound_optimum(rate, penalty).theta_star
            for i in range(200):
                theta = 1.5 * theta_star * i / 199.0
                bound = cheat_gain_quadratic_bound(theta, rate, penalty)
                exact = oracle_expected_gain(
                    fixed_state_cheat(CheatPoint(theta, 0.0, ClaimPolicy.ZERO)),
                    params,
                ).total
                assert exact <= bound + 1e-12


class TestOptimum:
    def test_closed_form_values(self):
        opt = quadratic_bound_optimum(0.01, 10_000.0)
        assert opt.gain_max == pytest.approx(
            (1.0 + SQ2) ** 2 / 100.0 + 0.03, abs=1e-12
        )
        assert opt.gain_max == pytest.approx(0.08828427, abs=1e-8)
        assert opt.theta_star == pytest.approx(
            2.0 * (1.0 + SQ2) / 100.0, abs=1e-12
        )

    def test_golden_section_recovers_closed_form(self):
        for rate, penalty in ((0.01, 10_000.0), (0.0139385, 10_000.0), (0.139, 100.0)):
            opt = quadratic_bound_optimum(rate, penalty)
            theta, gain = golden_section_max(
                lambda t: cheat_gain_quadratic_bound(t, rate, penalty),
                0.0,
                math.pi / 4.0,
            )
            assert theta == pytest.approx(opt.theta_star, abs=1e-9)
            assert gain == pytest.approx(opt.gain_max, abs=1e-9)

    def test_golden_section_argmax_over_many_pairs(self):
        # The parabolic polish must not lose the vertex to an ulp-level tie.
        rng = np.random.default_rng(20261018)
        for _ in range(20_000):
            rate = rng.uniform(0.01, 0.2)
            penalty = 10.0 ** rng.uniform(math.log10(10.0 / rate), 5.0)
            theta, _ = golden_section_max(
                lambda t: cheat_gain_quadratic_bound(t, rate, penalty),
                0.0,
                math.pi / 4.0,
            )
            assert abs(theta - quadratic_bound_optimum(rate, penalty).theta_star) <= 1e-9

    def test_golden_section_generic_function(self):
        x, fx = golden_section_max(lambda t: -((t - 0.3) ** 2) + 1.0, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert fx == pytest.approx(1.0, abs=1e-12)

    def test_golden_section_rejects_bad_bounds(self):
        # Reversed bounds once returned (0.5, -0.04) for a maximum of 0 at
        # 0.3, and a NaN or inf bound returned (nan, nan).
        def f(t):
            return -((t - 0.3) ** 2)

        for lo, hi, name in (
            (1.0, 0.0, "lo must lie below hi"),
            (0.5, 0.5, "lo must lie below hi"),
            (math.nan, 1.0, "lo must be finite"),
            (0.0, math.nan, "hi must be finite"),
            (-math.inf, 1.0, "lo must be finite"),
            (0.0, math.inf, "hi must be finite"),
        ):
            with pytest.raises(ValueError, match=name):
                golden_section_max(f, lo, hi)

    @pytest.mark.parametrize(
        "rate, penalty, field",
        [
            (0.0, 100.0, "check_rate"),
            (1.0, 100.0, "check_rate"),
            (-0.1, 100.0, "check_rate"),
            (math.nan, 100.0, "check_rate"),
            (0.1, 0.0, "penalty"),
            (0.1, -5.0, "penalty"),
            (0.1, math.nan, "penalty"),
            (0.1, math.inf, "penalty"),
        ],
    )
    def test_optimum_rejects_bad_arguments(self, rate, penalty, field):
        # A zero rate once raised ZeroDivisionError and a NaN one returned
        # Optimum(nan, nan).
        bad = rate if field == "check_rate" else penalty
        with pytest.raises(ValueError, match=f"^{field} must .*, got {bad}$"):
            quadratic_bound_optimum(rate, penalty)

    def test_gain_max_decreases_with_penalty(self):
        gains = [
            quadratic_bound_optimum(0.01, pen).gain_max
            for pen in (1e2, 1e3, 1e4, 1e5)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestCheckRatePolicy:
    def test_plugin_values(self):
        rate, cap = optimal_check_rate(10_000.0)
        assert rate == pytest.approx((1.0 + SQ2) / math.sqrt(3e4), abs=1e-12)
        assert cap == pytest.approx(2.0 * math.sqrt(3.0) * (1.0 + SQ2) / 100.0, abs=1e-12)
        assert rate == pytest.approx(0.0139385, abs=2e-7)
        assert cap == pytest.approx(0.0836308, abs=2e-7)

    def test_cap_equals_optimum_at_its_rate(self):
        for penalty in (10.0, 100.0, 1_000.0, 10_000.0, 1_000_000.0):
            rate, cap = optimal_check_rate(penalty)
            assert quadratic_bound_optimum(rate, penalty).gain_max == pytest.approx(
                cap, abs=1e-12
            )

    def test_inverse_sqrt_scaling(self):
        assert optimal_check_rate(100.0).gain_cap / optimal_check_rate(
            10_000.0
        ).gain_cap == pytest.approx(10.0, abs=1e-9)
        assert optimal_check_rate(4.0 * 777.0).gain_cap == pytest.approx(
            optimal_check_rate(777.0).gain_cap / 2.0, abs=1e-12
        )

    def test_rejects_bad_penalty(self):
        for penalty in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                optimal_check_rate(penalty)


class TestPosterior:
    def test_plugin_example(self):
        p = protocol_constants().guess_prob
        expected = 0.05 / (0.05 + 0.9 * p)
        got = unmeasured_posterior(0.0, 0.1, StateLabel.ZERO)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.0611098, abs=1e-7)

    def test_floor_over_grid(self):
        for i in range(100):
            theta = math.pi * i / 99.0
            for j in range(100):
                rate = (j + 1) / 101.0
                for guess in StateLabel:
                    assert (
                        unmeasured_posterior(theta, rate, guess) >= 0.5 * rate - 1e-15
                    )

    def test_vanishes_with_check_rate(self):
        for rate in (1e-3, 1e-6, 1e-9):
            assert unmeasured_posterior(0.3, rate, StateLabel.ZERO) < rate

    def test_certain_conditioning_overlap(self):
        # At theta = 3*pi/4 the PLUS-guess conditioning probability is
        # exactly 1, where the posterior is (r/2)/(1 - r/2): the floor is
        # approached, with an O(r^2) gap that closes only as r -> 0.
        for rate in (0.5, 0.1, 0.01, 1e-4):
            got = unmeasured_posterior(0.75 * math.pi, rate, StateLabel.PLUS)
            assert got == pytest.approx(0.5 * rate / (1.0 - 0.5 * rate), abs=1e-15)
            assert 0.0 <= got - 0.5 * rate <= 0.5 * rate * rate


    def test_rejects_check_rate_outside_unit_interval(self):
        # 1.5 once gave 1.216, -0.5 gave -1.666 and NaN gave NaN.
        for rate in (0.0, 1.0, 1.5, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="check_rate must lie in"):
                unmeasured_posterior(0.3, rate, StateLabel.ZERO)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_nan_theta(self, theta):
        with pytest.raises(ValueError, match=rf"^theta must be finite, got {theta}$"):
            unmeasured_posterior(theta, 0.1, StateLabel.PLUS)


class TestOracle:
    def test_honest_baseline(self):
        for rate in (0.01, 0.1, 0.5):
            params = ProtocolParams(rate, 100.0)
            g = oracle_expected_gain(honest_alice(), params)
            assert g.normal_term / (1.0 - rate) == pytest.approx(0.0, abs=1e-12)
            assert g.detect_term == 0.0
            assert g.total == pytest.approx(rate * (1.0 + SQ2), abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        for r, penalty in ((0.01, 1_000.0), (0.0139385, 10_000.0)):
            params = ProtocolParams(r, penalty)
            for i in range(25):
                theta = math.pi / 2.0 * i / 24.0
                for claim in StateLabel:
                    strat = fixed_state_cheat(
                        CheatPoint(theta, 0.0, ClaimPolicy(claim.value))
                    )
                    closed = cheat_gain_exact(theta, r, penalty, claim)
                    oracle = oracle_expected_gain(strat, params)
                    assert oracle.total == pytest.approx(closed.total, abs=1e-12)
                    assert oracle.normal_term == pytest.approx(
                        closed.normal_term, abs=1e-12
                    )
                    assert oracle.detect_term == pytest.approx(
                        closed.detect_term, abs=1e-12
                    )

    def test_branch_probabilities_sum_to_one(self):
        for strat in (
            honest_alice(),
            fixed_state_cheat(CheatPoint(0.4, 0.2, ClaimPolicy.NEAREST)),
            entangled_cheat({lab: BASIS_X for lab in StateLabel}),
        ):
            branches = oracle_round_branches(strat, PARAMS)
            assert math.fsum(b.prob for b in branches) == pytest.approx(1.0, abs=1e-12)

    def test_constant_z_attack_matches_honest_gain(self):
        z = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
        assert oracle_expected_gain(z, PARAMS).total == pytest.approx(
            oracle_expected_gain(honest_alice(), PARAMS).total, abs=1e-12
        )

    def test_constant_x_attack_matches_hand_formula(self):
        # Direct computation: the kept and sent halves give independent
        # outcomes, so every announcement matches with probability 1/2;
        # a quarter of checked rounds are convicted regardless of the table.
        for rate, penalty in ((0.139385, 100.0), (0.0139385, 10_000.0)):
            x = entangled_cheat({lab: BASIS_X for lab in StateLabel})
            hand = (1.0 - rate) * (1.0 + SQ2) + rate * (
                0.75 * (1.0 + SQ2) - 0.25 * penalty
            )
            got = oracle_expected_gain(x, ProtocolParams(rate, penalty)).total
            assert got == pytest.approx(hand, abs=1e-12)

    def test_noise_fail_probability(self):
        eps = 0.3
        params = ProtocolParams(0.2, 100.0, noise=eps)
        dist = oracle_transcript_distribution(honest_alice(), params)
        fail = math.fsum(
            p for (rt, g, c, res), p in dist.items() if res is CheckResult.FAIL
        )
        assert fail == pytest.approx(0.2 * 2.0 * eps / 3.0, abs=1e-12)

    def test_transfer_variance_matches_hand_formula(self):
        from qgamble.analysis import oracle_transfer_variance

        r = 0.2
        params = ProtocolParams(r, 100.0)
        p, loss, _ = protocol_constants()
        second = (1.0 - r) * (p + (1.0 - p) * loss**2) + r * 0.5 * (1.0 + loss**2)
        mean = r * (1.0 + SQ2)
        assert oracle_transfer_variance(honest_alice(), params) == pytest.approx(
            second - mean * mean, abs=1e-10
        )

    def test_mixture_gain_is_member_average(self):
        # Mixed-claim strategies interpolate their members, so the best
        # single (state, claim) pair always bounds a mixture.
        s1 = PureQubit(math.cos(0.1), math.sin(0.1))
        s2 = PureQubit(math.cos(0.6), math.sin(0.6))
        mix = ensemble_cheat(
            Ensemble(((0.3, s1), (0.7, s2))), [StateLabel.ZERO, StateLabel.PLUS]
        )
        g_mix = oracle_expected_gain(mix, PARAMS).total
        g1 = oracle_expected_gain(
            ensemble_cheat(Ensemble(((1.0, s1),)), [StateLabel.ZERO]), PARAMS
        ).total
        g2 = oracle_expected_gain(
            ensemble_cheat(Ensemble(((1.0, s2),)), [StateLabel.PLUS]), PARAMS
        ).total
        assert g_mix == pytest.approx(0.3 * g1 + 0.7 * g2, abs=1e-12)
        assert g_mix <= max(g1, g2) + 1e-12


class TestMonteCarlo:
    def test_honest_session_hits_oracle(self):
        params = ProtocolParams(0.01, 10_000.0)
        stats = run_session_fast(
            honest_alice().branch_model().members, params, 1_000_000, session_rng(70)
        )
        mc = monte_carlo_gain(stats)
        assert abs(mc.mean - 0.01 * (1.0 + SQ2)) <= 4.0 * mc.std_error

    def test_rejects_single_round(self):
        stats = run_session_fast(
            honest_alice().branch_model().members,
            ProtocolParams(0.5, 10.0),
            1,
            session_rng(71),
        )
        with pytest.raises(ValueError):
            monte_carlo_gain(stats)

    def test_deterministic_for_same_seed(self):
        params = ProtocolParams(0.1, 100.0)
        members = honest_alice().branch_model().members
        a = monte_carlo_gain(run_session_fast(members, params, 10_000, session_rng(72)))
        b = monte_carlo_gain(run_session_fast(members, params, 10_000, session_rng(72)))
        assert a == b

    def test_every_builtin_strategy_matches_oracle(self):
        # Reference-engine sessions against the enumeration, using the
        # exact per-round variance so rare penalty branches are priced in.
        from qgamble.analysis import oracle_transfer_variance
        from qgamble.protocol import run_session
        from qgamble.strategies import honest_bob

        params = ProtocolParams(0.139385, 100.0, abort_threshold=1.0)
        matrix = [
            honest_alice(),
            fixed_state_cheat(CheatPoint(0.3, 0.0, ClaimPolicy.ZERO)),
            ensemble_cheat(
                Ensemble(((0.5, KET_0), (0.5, KET_PLUS))),
                [StateLabel.ZERO, StateLabel.PLUS],
            ),
            entangled_cheat({lab: BASIS_Z for lab in StateLabel}),
            entangled_cheat({lab: BASIS_X for lab in StateLabel}),
            entangled_cheat({StateLabel.ZERO: BASIS_Z, StateLabel.PLUS: BASIS_X}),
        ]
        n = 30_000
        for i, alice in enumerate(matrix):
            oracle = oracle_expected_gain(alice, params).total
            sigma = math.sqrt(oracle_transfer_variance(alice, params) / n)
            stats = run_session(
                alice, honest_bob(params.check_rate), params, n, session_rng(73, i)
            )
            mc = monte_carlo_gain(stats)
            assert abs(mc.mean - oracle) <= 4.0 * max(sigma, mc.std_error)


class TestSweep:
    def test_plane_dominance_and_cap(self):
        for penalty in (100.0, 10_000.0):
            rate, cap = optimal_check_rate(penalty)
            thetas = [math.pi / 4.0 * i / 49.0 for i in range(50)]
            phis = [0.0, math.pi / 4.0, math.pi / 2.0]
            result = sweep_cheat_gain(rate, penalty, thetas, phis)
            assert result.best.gain.total <= 1.1 * cap
            best_at = {}
            for row in result.rows:
                key = (row.theta, row.phi)
                if key not in best_at or row.gain.total > best_at[key]:
                    best_at[key] = row.gain.total
            for theta in thetas:
                base = best_at[(theta, 0.0)]
                assert all(best_at[(theta, ph)] <= base + 1e-15 for ph in phis[1:])

    def test_argmax_near_quadratic_optimum(self):
        penalty = 10_000.0
        rate = optimal_check_rate(penalty).check_rate
        theta_star = quadratic_bound_optimum(rate, penalty).theta_star
        thetas = [math.pi / 4.0 * i / 199.0 for i in range(200)]
        result = sweep_cheat_gain(rate, penalty, thetas, [0.0])
        step = thetas[1] - thetas[0]
        assert abs(result.best.theta - theta_star) <= step

    def test_rows_cover_grid(self):
        result = sweep_cheat_gain(0.1, 100.0, [0.0, 0.1], [0.0, 1.0])
        assert len(result.rows) == 2 * 2 * 2

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sweep_cheat_gain(0.1, 100.0, [], [0.0])

    def test_numpy_grids_match_lists(self):
        thetas, phis = np.linspace(0.0, 1.0, 3), np.array([0.0, 0.5])
        from_numpy = sweep_cheat_gain(0.1, 100.0, thetas, phis)
        from_lists = sweep_cheat_gain(0.1, 100.0, thetas.tolist(), phis.tolist())
        assert from_numpy == from_lists
        with pytest.raises(ValueError):
            sweep_cheat_gain(0.1, 100.0, np.array([]), phis)
        with pytest.raises(ValueError):
            sweep_cheat_gain(0.1, 100.0, thetas, np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, bad):
        with pytest.raises(ValueError):
            sweep_cheat_gain(0.1, 100.0, [0.0, bad], [0.0])
        with pytest.raises(ValueError):
            sweep_cheat_gain(0.1, 100.0, [0.0], [0.0, bad])

    def test_rows_match_oracle_term_by_term(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            rate = rng.uniform(0.001, 0.999)
            penalty = 10.0 ** rng.uniform(-2.0, math.log10(1e4 / rate))
            thetas = [0.0, math.pi / 2.0, math.pi] + list(rng.uniform(0.0, math.pi, 4))
            phis = [0.0, math.pi] + list(rng.uniform(0.0, 2.0 * math.pi, 3))
            params = ProtocolParams(rate, penalty)
            tol = 1e-14 * max(1.0, rate * penalty)
            result = sweep_cheat_gain(rate, penalty, thetas, phis)
            expected_keys = [(t, p, c) for t in thetas for p in phis for c in StateLabel]
            assert [(r.theta, r.phi, r.claim) for r in result.rows] == expected_keys
            for row in result.rows:
                point = CheatPoint(row.theta, row.phi, ClaimPolicy(row.claim.value))
                oracle = oracle_expected_gain(fixed_state_cheat(point), params)
                assert abs(row.gain.normal_term - oracle.normal_term) <= tol
                assert abs(row.gain.detect_term - oracle.detect_term) <= tol
                assert abs(row.gain.pass_term - oracle.pass_term) <= tol
                assert abs(row.gain.total - oracle.total) <= tol

    def test_ties_go_to_earliest_row(self):
        # Every azimuth at theta = 0 is the same state, and the grid repeats
        # that state; the legal state |0> with a truthful claim is the best.
        # The first theta, |1>, ties with nothing, so the earliest best row
        # is not the first row.
        thetas = [math.pi, 0.0, 0.0]
        phis = [0.0, 1.0, 2.0]
        result = sweep_cheat_gain(0.1, 100.0, thetas, phis)
        assert result.best is result.rows[6]
        assert result.best.claim is StateLabel.ZERO
        assert sum(r.gain.total == result.best.gain.total for r in result.rows) == 6


class TestPolicyFamily:
    def test_z_policy_is_the_only_profitable_one(self):
        rows = entangled_policy_gains(PARAMS)
        gains = dict(rows)
        assert len(rows) == 4
        zz = gains["zero->z,plus->z"]
        assert zz.total == pytest.approx(
            PARAMS.check_rate * (1.0 + SQ2), abs=1e-12
        )
        for name, gain in gains.items():
            if name != "zero->z,plus->z":
                assert gain.total < 0.0
