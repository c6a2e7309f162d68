"""Closed-form gain analysis, exact expectation oracle, and cross-checks.

Three independent routes to Alice's expected per-round gain are kept
deliberately separate so they can check each other:

* closed forms in this module (trig expressions in the z-x plane),
* the branch-enumeration oracle (`oracle_expected_gain`), which walks every
  probabilistic branch of a round with exact Born probabilities, and
* Monte Carlo over simulated sessions (`monte_carlo_gain`).

Also here: the quadratic small-angle bound on cheating gain, its
closed-form optimum, the check rate that minimizes the achievable maximum
for a given penalty, the Bayesian posterior that Bob skipped his
measurement, and grid sweeps over cheating preparations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .protocol import (
    DEFAULT_LOSS_PAYOUT,
    CheckResult,
    ProtocolParams,
    RoundType,
    SessionStats,
    StateLabel,
    _FAIL_AXIS,
    _GUESS_ZERO_AXIS,
    _born,
    _check_label,
    _check_penalty,
    _check_rate,
    _settle,
)
from .qubits import (
    BASIS_DISCRIM,
    BASIS_X,
    BASIS_Z,
    OPTIMAL_GUESS_PROB,
    PAULI_AXES,
    Outcome,
    PureQubit,
    Subsystem,
    _COS8,
    _SIN8,
    _amps_after,
    _pauli_pair_amps,
    _two_qubit_amps,
    apply_pauli,
    overlap,
    state_from_bloch,
)
from .strategies import AliceStrategy, EntangledModel, ProductModel, entangled_cheat

__all__ = [
    "ProtocolConstants",
    "protocol_constants",
    "GainBreakdown",
    "Optimum",
    "CheckRatePolicy",
    "MonteCarloEstimate",
    "RoundBranch",
    "SweepRow",
    "SweepResult",
    "cheat_gain_exact",
    "claim_gain_upper_bound",
    "cheat_gain_quadratic_bound",
    "quadratic_bound_optimum",
    "optimal_check_rate",
    "unmeasured_posterior",
    "golden_section_max",
    "oracle_round_branches",
    "oracle_expected_gain",
    "oracle_transfer_variance",
    "oracle_transcript_distribution",
    "monte_carlo_gain",
    "sweep_cheat_gain",
    "all_thetas_peak_in_plane",
    "entangled_policy_gains",
    "exact_tolerance",
]

# Per-branch code reads enum members through these names: on Python 3.11,
# reading a member off its Enum class costs about 0.1 us.
_ZERO, _PLUS = StateLabel.ZERO, StateLabel.PLUS
_NORMAL, _CHECK = RoundType.NORMAL, RoundType.CHECK
_PASS, _FAIL = CheckResult.PASS, CheckResult.FAIL
_NOT_APPLICABLE = CheckResult.NOT_APPLICABLE
_OUTCOME_PLUS, _OUTCOME_MINUS = Outcome.PLUS, Outcome.MINUS
_B = Subsystem.B


class ProtocolConstants(NamedTuple):
    """The three numbers the whole analysis runs on."""

    guess_prob: float  # cos^2(pi/8), Bob's optimal correct-guess probability
    loss_payout: float  # p/(1-p), Alice's winnings when Bob guesses wrong
    slope: float  # cos(pi/8) sin(pi/8), small-angle gain slope numerator


_SLOPE = _COS8 * _SIN8
#: slope / (1 - p): the small-angle gain per radian.
_GAIN_SLOPE = _SLOPE / (1.0 - OPTIMAL_GUESS_PROB)
_CONSTANTS = ProtocolConstants(OPTIMAL_GUESS_PROB, DEFAULT_LOSS_PAYOUT, _SLOPE)


def protocol_constants() -> ProtocolConstants:
    return _CONSTANTS


class _GainFields(NamedTuple):
    normal_term: float
    detect_term: float
    pass_term: float
    total: float


class GainBreakdown(_GainFields):
    """Expected per-round gain split by round branch.

    normal_term: contribution of normal rounds (weight 1-r included).
    detect_term: checking rounds Alice fails (always <= 0).
    pass_term: checking rounds Alice survives.

    A tuple of the four fields, checked on construction: a value compares
    equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(
        cls, normal_term: float, detect_term: float, pass_term: float, total: float
    ) -> "GainBreakdown":
        n, d, p = normal_term, detect_term, pass_term
        size = abs(n) + abs(d) + abs(p)
        # Every comparison is false on NaN, and an infinite term makes `size`
        # infinite.  The plain sum and the fsum of from_terms differ by
        # rounding, which grows with the terms' magnitude.
        if not (
            d <= 1e-12
            and size < math.inf
            and abs(n + d + p - total) <= 1e-12 * max(1.0, size)
        ):
            if not (size < math.inf and math.isfinite(total)):
                raise ValueError("breakdown terms must be finite")
            if not d <= 1e-12:
                raise ValueError("detect_term must be nonpositive")
            raise ValueError("breakdown terms do not sum to the total")
        return tuple.__new__(cls, (n, d, p, total))

    @classmethod
    def _make(cls, iterable) -> "GainBreakdown":
        # namedtuple's _make, and _replace through it, would skip __new__.
        return cls(*iterable)

    @classmethod
    def from_terms(
        cls, normal_term: float, detect_term: float, pass_term: float
    ) -> "GainBreakdown":
        return cls(
            normal_term,
            detect_term,
            pass_term,
            math.fsum((normal_term, detect_term, pass_term)),
        )


def exact_tolerance(a: float, b: float) -> float:
    """Slack for comparing two exact routes to one value: 1e-12, scaled by
    the larger magnitude once it passes 1 (one ulp of a value near 4096
    is already 9e-13)."""
    return 1e-12 * max(1.0, abs(a), abs(b))


class Optimum(NamedTuple):
    theta_star: float
    gain_max: float


class CheckRatePolicy(NamedTuple):
    check_rate: float
    gain_cap: float


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    n: int


def _plane_overlaps(theta: float, claim: StateLabel) -> tuple[float, float, float, float]:
    """(p_match, p_mismatch, p_caught, p_survive) for |j> at angle theta, z-x plane.

    p_match is the probability Bob's optimal-measurement guess equals the
    claim; p_caught the probability the verification measurement convicts.
    """
    if claim is StateLabel.ZERO:
        c = math.cos(math.pi / 8.0 + 0.5 * theta)
        s = math.sin(math.pi / 8.0 + 0.5 * theta)
        caught = math.sin(0.5 * theta) ** 2
        return c * c, s * s, caught, 1.0 - caught
    if claim is not StateLabel.PLUS:
        _check_label(claim, "claim")
    # Mirror image through the axis halfway between the two legal states.
    s = math.sin(math.pi / 8.0 + 0.5 * theta)
    c = math.cos(math.pi / 8.0 + 0.5 * theta)
    caught = 0.5 * (1.0 - math.sin(theta))
    return s * s, c * c, caught, 1.0 - caught


def _check_theta(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")


def _check_closed_form(theta: float, check_rate: float, penalty: float) -> None:
    """A finite theta, and the check-rate and penalty rules."""
    _check_theta(theta)
    _check_rate(check_rate)
    _check_penalty(penalty)


def cheat_gain_exact(
    theta: float, check_rate: float, penalty: float, claim: StateLabel
) -> GainBreakdown:
    """Exact expected per-round gain of a fixed z-x-plane cheat, closed form.

    Normal rounds pay -1 on a matching guess and p/(1-p) otherwise;
    checking rounds convict with the orthogonal-outcome probability and
    otherwise settle against a uniform guess.
    """
    _check_closed_form(theta, check_rate, penalty)
    match, mismatch, caught, survive = _plane_overlaps(theta, claim)
    normal = (1.0 - check_rate) * (-match + mismatch * DEFAULT_LOSS_PAYOUT)
    detect = -check_rate * caught * penalty
    passed = check_rate * survive * 0.5 * (DEFAULT_LOSS_PAYOUT - 1.0)
    return GainBreakdown.from_terms(normal, detect, passed)


def claim_gain_upper_bound(
    theta: float, check_rate: float, penalty: float, claim: StateLabel
) -> float:
    """Worst-case ceiling on the gain of a fixed claim: the best possible
    payout minus half the check rate times the conviction loss.

    The half accounts for Alice's Bayesian uncertainty about whether Bob
    measured; the exact gain always sits below this.
    """
    _check_closed_form(theta, check_rate, penalty)
    _, _, caught, _ = _plane_overlaps(theta, claim)
    return DEFAULT_LOSS_PAYOUT - 0.5 * check_rate * caught * penalty


def cheat_gain_quadratic_bound(theta: float, check_rate: float, penalty: float) -> float:
    """Small-angle upper bound on the cheating gain near |0>:
    linear reward in theta minus a quadratic conviction cost plus a 3r cushion."""
    _check_closed_form(theta, check_rate, penalty)
    rr = check_rate * penalty
    return _GAIN_SLOPE * theta - 0.25 * rr * theta * theta + 3.0 * check_rate


def quadratic_bound_optimum(check_rate: float, penalty: float) -> Optimum:
    """Closed-form maximum of the quadratic bound over theta.

    Raises ValueError unless 0 < check_rate < 1 and the penalty is
    positive and finite.
    """
    _check_rate(check_rate)
    _check_penalty(penalty)
    c = _GAIN_SLOPE
    rr = check_rate * penalty
    theta_star = 2.0 * c / rr
    return Optimum(theta_star, c * c / rr + 3.0 * check_rate)


def optimal_check_rate(penalty: float) -> CheckRatePolicy:
    """Check rate minimizing the quadratic-bound maximum for a given penalty.

    The resulting cap on Alice's gain scales as 1/sqrt(penalty).
    """
    _check_penalty(penalty)
    c = _GAIN_SLOPE
    rate = c / math.sqrt(3.0 * penalty)
    cap = 2.0 * math.sqrt(3.0) * c / math.sqrt(penalty)
    return CheckRatePolicy(rate, cap)


def unmeasured_posterior(theta: float, check_rate: float, guess: StateLabel) -> float:
    """Bayes posterior that Bob performed no measurement, given his guess.

    Conditions on Bob announcing `guess` when Alice sent the z-x-plane
    state at `theta`.  Never drops below check_rate/2: an unmeasuring Bob
    guesses uniformly, so half the check rate always survives the update.
    Raises ValueError unless `theta` is finite, 0 < check_rate < 1 (as
    ProtocolParams requires) and `guess` is a StateLabel.
    """
    _check_theta(theta)
    _check_rate(check_rate)
    _check_label(guess, "guess")
    state = state_from_bloch(theta, 0.0)
    anchor = BASIS_DISCRIM.plus if guess is StateLabel.ZERO else BASIS_DISCRIM.minus
    q = overlap(anchor, state)
    half_r = 0.5 * check_rate
    return half_r / (half_r + (1.0 - check_rate) * q)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: The golden-section bracket stops at this width or after this many steps.
_GOLDEN_TOL, _GOLDEN_MAX_ITER = 1e-12, 200


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function.

    Finishes with one parabolic polish on widely spaced points: near the
    top the bracket stalls in comparison noise, while a three-point fit
    stays well conditioned (and is exact for quadratic objectives).
    Raises ValueError for a non-finite bound or for lo >= hi.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if lo >= hi:
        raise ValueError(f"lo must lie below hi, got lo={lo}, hi={hi}")
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= _GOLDEN_TOL:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    fx = f(x)
    h = (hi - lo) / 16.0
    xm = min(max(x, lo + h), hi - h)
    fa, fm, fb = f(xm - h), f(xm), f(xm + h)
    denom = fa - 2.0 * fm + fb
    if denom < 0.0:
        cand = xm + 0.5 * h * (fa - fb) / denom
        if lo <= cand <= hi:
            fc = f(cand)
            # Near the top, f(cand) and f(x) tie up to rounding, and the
            # vertex of the fit is the better argmax: an ulp-level loss
            # must not reject it.
            if fc >= fx - 4.0 * math.ulp(fx):
                return cand, fc
    return x, fx


class RoundBranch(NamedTuple):
    """One elementary probabilistic branch of a round."""

    prob: float
    round_type: RoundType
    bob_guess: StateLabel
    alice_claim: StateLabel
    check_result: CheckResult
    transfer: float


def _noise_variants(state, eps: float, pauli):
    """The Pauli channel's branches as (weight, state) pairs; `pauli(state,
    axis)` applies one Pauli to the transmitted qubit."""
    if eps == 0.0:
        yield 1.0, state
        return
    yield 1.0 - eps, state
    for axis in PAULI_AXES:
        yield eps / 3.0, pauli(state, axis)


def _product_branches(
    model: ProductModel, params: ProtocolParams
) -> Iterable[RoundBranch]:
    r = params.check_rate
    for weight, member, claim in model.members:
        for nw, state in _noise_variants(member, params.noise, apply_pauli):
            w = weight * nw
            p_plus = overlap(BASIS_DISCRIM.plus, state)
            for guess, q in (
                (StateLabel.ZERO, p_plus),
                (StateLabel.PLUS, 1.0 - p_plus),
            ):
                yield RoundBranch(
                    w * (1.0 - r) * q,
                    RoundType.NORMAL,
                    guess,
                    claim,
                    CheckResult.NOT_APPLICABLE,
                    _settle(guess, claim),
                )
            caught = overlap(claim.verification_basis.minus, state)
            for guess in StateLabel:
                yield RoundBranch(
                    w * r * 0.5 * caught,
                    RoundType.CHECK,
                    guess,
                    claim,
                    CheckResult.FAIL,
                    -params.penalty,
                )
                yield RoundBranch(
                    w * r * 0.5 * (1.0 - caught),
                    RoundType.CHECK,
                    guess,
                    claim,
                    CheckResult.PASS,
                    _settle(guess, claim),
                )


def _overlap(c0: complex, c1: complex, a0: complex, a1: complex) -> float:
    """`overlap` on amplitudes, with (c0, c1) those of the state projected
    onto, already conjugated."""
    return min(1.0, max(0.0, abs(c0 * a0 + c1 * a1) ** 2))


def _conjugated(state: PureQubit) -> tuple[complex, complex]:
    return state.amp0.conjugate(), state.amp1.conjugate()


def _flip_b(amps: tuple[complex, ...], axis: str) -> tuple[complex, ...]:
    """`apply_pauli_pair(state, B, axis)` on amplitude tuples: the amplitudes
    of the TwoQubitPure it returns."""
    return _two_qubit_amps(_pauli_pair_amps(amps, _B, axis))


# RoundBranch fields.  `_entangled_branches` yields them as plain tuples,
# with every per-branch constant (settlements, conjugated amplitudes, the
# strategy's lookup tables) resolved once per call: enum-keyed lookups hash
# through the Python-level Enum.__hash__.  It projects amplitude tuples,
# with no state object per noise branch or projection.
# `_product_branches` still yields RoundBranch objects, which the consumers
# index the same way.  A tuple version is 2-3x faster per call, but the
# benchmark harness keeps every operation's latency (more operations raise
# its peak RSS) and reads its tail at p99.99 from 100,000 operations on
# (ROADMAP item 12).
_Branch = tuple[float, RoundType, StateLabel, StateLabel, CheckResult, float]


def _entangled_branches(model: EntangledModel, params: ProtocolParams) -> Iterator[_Branch]:
    r = params.check_rate
    penalty = -params.penalty
    labels = (
        model.label_by_outcome[_OUTCOME_PLUS],
        model.label_by_outcome[_OUTCOME_MINUS],
    )
    # Per guess: Alice's two conjugated basis states, each with its claim,
    # settlement and the conjugated failing state of the claim's
    # verification basis.
    policy = []
    for guess in (_ZERO, _PLUS):
        basis = model.basis_by_guess[guess]
        sides = tuple(
            (
                *_conjugated(onto),
                claim,
                _settle(guess, claim),
                *_conjugated(claim.verification_basis.minus),
            )
            for onto, claim in zip((basis.plus, basis.minus), labels)
        )
        policy.append((guess, sides))
    # Bob's outcome plus, onto BASIS_DISCRIM.plus, announces guess zero.
    bob_sides = (
        (*_conjugated(BASIS_DISCRIM.plus), policy[0]),
        (*_conjugated(BASIS_DISCRIM.minus), policy[1]),
    )
    for nw, (s00, s01, s10, s11) in _noise_variants(model.state.amps, params.noise, _flip_b):
        # Normal rounds: Bob measures his half first, then Alice measures
        # hers in the basis picked by his announced guess.
        normal = nw * (1.0 - r)
        for e0, e1, (guess, sides) in bob_sides:
            p_b, a0, a1 = _amps_after(e0 * s00 + e1 * s01, e0 * s10 + e1 * s11)
            if p_b == 0.0:
                continue
            weight = normal * p_b
            for c0, c1, claim, settled, _, _ in sides:
                q = _overlap(c0, c1, a0, a1)
                yield weight * q, _NORMAL, guess, claim, _NOT_APPLICABLE, settled
        # Checking rounds: Bob stores, so Alice's measurement steers his qubit.
        check = nw * r * 0.5
        for guess, sides in policy:
            for c0, c1, claim, settled, m0, m1 in sides:
                p_a, b0, b1 = _amps_after(c0 * s00 + c1 * s10, c0 * s01 + c1 * s11)
                if p_a == 0.0:
                    continue
                weight = check * p_a
                caught = _overlap(m0, m1, b0, b1)
                yield weight * caught, _CHECK, guess, claim, _FAIL, penalty
                yield weight * (1.0 - caught), _CHECK, guess, claim, _PASS, settled


def _branches(alice: AliceStrategy, params: ProtocolParams) -> Iterator[_Branch]:
    """Every branch of one round, zero-probability ones included."""
    model = alice.branch_model()
    if isinstance(model, ProductModel):
        return _product_branches(model, params)
    return _entangled_branches(model, params)


def oracle_round_branches(
    alice: AliceStrategy, params: ProtocolParams
) -> list[RoundBranch]:
    """Every probabilistic branch of one round against honest Bob, with
    exact Born probabilities; raises NonEnumerableStrategyError for
    strategies without a finite description."""
    return [RoundBranch._make(b) for b in _branches(alice, params) if b[0] > 0.0]


def oracle_expected_gain(alice: AliceStrategy, params: ProtocolParams) -> GainBreakdown:
    """Exact expected per-round gain for Alice by full branch enumeration."""
    normal, detect, passed = [], [], []
    for prob, round_type, _, _, result, transfer in _branches(alice, params):
        if prob > 0.0:
            if round_type is _NORMAL:
                normal.append(prob * transfer)
            elif result is _FAIL:
                detect.append(prob * transfer)
            else:
                passed.append(prob * transfer)
    return GainBreakdown.from_terms(math.fsum(normal), math.fsum(detect), math.fsum(passed))


def oracle_transfer_variance(alice: AliceStrategy, params: ProtocolParams) -> float:
    """Exact per-round variance of the transfer.

    Sampling-free counterpart to the Monte Carlo standard error; unlike the
    sample estimate it accounts for penalty events too rare to have shown
    up in a finite run.
    """
    first, second = [], []
    for prob, _, _, _, _, transfer in _branches(alice, params):
        if prob > 0.0:
            moment = prob * transfer
            first.append(moment)
            second.append(moment * transfer)
    mean = math.fsum(first)
    return max(0.0, math.fsum(second) - mean * mean)


def oracle_transcript_distribution(
    alice: AliceStrategy, params: ProtocolParams
) -> dict[tuple[RoundType, StateLabel, StateLabel, CheckResult], float]:
    """Exact distribution over observable round transcripts
    (round type, guess, claim, check result)."""
    # Keyed by the members' identities, which hash without Enum.__hash__;
    # each transcript tuple is built once, in first-seen order.
    buckets: dict[tuple[int, int, int, int], tuple[tuple, list[float]]] = {}
    for prob, round_type, guess, claim, result, _ in _branches(alice, params):
        if prob > 0.0:
            ident = (id(round_type), id(guess), id(claim), id(result))
            bucket = buckets.get(ident)
            if bucket is None:
                bucket = buckets[ident] = ((round_type, guess, claim, result), [])
            bucket[1].append(prob)
    return {key: math.fsum(probs) for key, probs in buckets.values()}


def monte_carlo_gain(stats: SessionStats) -> MonteCarloEstimate:
    """Per-round mean gain with its sample standard error."""
    n = stats.rounds
    if n < 2:
        raise ValueError("need at least two rounds for a standard error")
    mean = stats.alice_gain_total / n
    var = max(0.0, (stats.transfer_sq_total - n * mean * mean) / (n - 1))
    return MonteCarloEstimate(mean, math.sqrt(var / n), n)


#: The claims a sweep scores at every grid point, in row order.
_SWEEP_CLAIMS = (_ZERO, _PLUS)


class SweepRow(NamedTuple):
    theta: float
    phi: float
    claim: StateLabel
    gain: GainBreakdown


class SweepResult(NamedTuple):
    rows: tuple[SweepRow, ...]
    best: SweepRow


def sweep_cheat_gain(
    check_rate: float,
    penalty: float,
    theta_grid: Sequence[float],
    phi_grid: Sequence[float],
) -> SweepResult:
    """Exact gain for every (theta, phi, claim) grid point, plus the argmax.

    Every probability a fixed-state cheat meets is (1 + n.v)/2 in the Bloch
    vector v of the sent state, so each gain term is affine in v; the terms
    are evaluated for the whole grid at once.  The branch-enumeration
    oracle computes the same rows independently and the tests hold the two
    together.  Ties go to the earliest grid point, so an unbroken symmetry
    in phi reports the first phi value.
    """
    if len(theta_grid) == 0 or len(phi_grid) == 0:
        raise ValueError("sweep grids must be non-empty")
    theta = np.asarray(theta_grid, dtype=float)[:, None]
    phi = np.asarray(phi_grid, dtype=float)[None, :]
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise ValueError("sweep angles must be finite")
    params = ProtocolParams(check_rate, penalty)
    r = params.check_rate
    sin_t = np.sin(theta)
    x, y, z = sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)
    p_zero = np.clip(_born(_GUESS_ZERO_AXIS, 1.0, x, y, z), 0.0, 1.0)
    per_claim = []
    for claim in _SWEEP_CLAIMS:
        caught = np.clip(_born(_FAIL_AXIS[claim], 1.0, x, y, z), 0.0, 1.0)
        on_zero = _settle(StateLabel.ZERO, claim)
        on_plus = _settle(StateLabel.PLUS, claim)
        normal = (1.0 - r) * (p_zero * on_zero + (1.0 - p_zero) * on_plus)
        detect = 0.0 - r * caught * params.penalty  # 0.0, not -0.0, when never caught
        passed = r * (1.0 - caught) * 0.5 * (on_zero + on_plus)
        per_claim.append(np.stack((normal, detect, passed), axis=-1))
    cells = np.stack(per_claim, axis=2).tolist()  # [theta][phi][claim][term]
    rows = [
        SweepRow(theta_value, phi_value, claim, GainBreakdown.from_terms(*terms))
        for theta_value, plane in zip(theta_grid, cells)
        for phi_value, line in zip(phi_grid, plane)
        for claim, terms in zip(_SWEEP_CLAIMS, line)
    ]
    best = max(rows, key=lambda row: row.gain.total)
    return SweepResult(tuple(rows), best)


def all_thetas_peak_in_plane(result: SweepResult, check_rate: float, penalty: float) -> bool:
    """True when, for every swept theta, no swept phi beats the better
    in-plane azimuth after maximizing over the claim.

    The in-plane azimuths are 0 and pi, and azimuth pi is polar angle
    -theta, so the in-plane best is the closed form at +theta or -theta.
    The `exact_tolerance` slack absorbs rounding between the sweep's
    values and the closed form.
    """
    best_at: dict[float, float] = {}
    for row in result.rows:
        best_at[row.theta] = max(best_at.get(row.theta, -math.inf), row.gain.total)
    for theta, best in best_at.items():
        in_plane = max(
            cheat_gain_exact(polar, check_rate, penalty, claim).total
            for polar in (theta, -theta)
            for claim in StateLabel
        )
        if best > in_plane + exact_tolerance(best, in_plane):
            return False
    return True


def entangled_policy_gains(params: ProtocolParams) -> list[tuple[str, GainBreakdown]]:
    """Oracle gains over the declared family of entanglement-attack policies:
    every assignment of a measurement basis, z or x, to each of Bob's
    possible guesses, with the default outcome-to-claim table."""
    bases = (BASIS_Z, BASIS_X)
    rows = []
    for b_zero in bases:
        for b_plus in bases:
            policy = {StateLabel.ZERO: b_zero, StateLabel.PLUS: b_plus}
            name = f"zero->{b_zero.label},plus->{b_plus.label}"
            gain = oracle_expected_gain(entangled_cheat(policy), params)
            rows.append((name, gain))
    return rows
