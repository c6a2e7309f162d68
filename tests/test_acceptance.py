"""Acceptance suite: one test per headline guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Every tolerance is pinned here; the heavy Monte Carlo cases carry their
stated time budgets.
"""

import math
import time
from statistics import NormalDist

import numpy as np
import pytest
from conftest import class_counts, class_masses, kept_ledger_chi2

from qgamble import analysis
from qgamble.analysis import (
    cheat_gain_exact,
    cheat_gain_quadratic_bound,
    golden_section_max,
    optimal_check_rate,
    oracle_expected_gain,
    oracle_round_branches,
    oracle_transcript_distribution,
    quadratic_bound_optimum,
    sweep_cheat_gain,
    unmeasured_posterior,
)
from qgamble.protocol import (
    CheckResult,
    ProtocolParams,
    StateLabel,
    run_session,
    run_session_fast,
    session_rng,
)
from qgamble.qubits import (
    BASIS_DISCRIM,
    BASIS_X,
    BASIS_Z,
    KET_0,
    KET_PLUS,
    BlochVector,
    Ensemble,
    Outcome,
    PureQubit,
    Subsystem,
    TwoQubitPure,
    bloch_from_state,
    ensemble_average_bloch,
    overlap,
    project_subsystem,
    reduced_bloch,
)
from qgamble.strategies import (
    CheatPoint,
    ClaimPolicy,
    entangled_cheat,
    fixed_state_cheat,
    honest_alice,
    honest_bob,
    standard_attack_state,
)

SQ2 = math.sqrt(2.0)
GUESS_PROB = math.cos(math.pi / 8.0) ** 2


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cap_sweeps():
    """Cheat-gain sweeps at the penalty-matched check rate, reused by two tests."""
    out = {}
    thetas = [math.pi / 4.0 * i / 199.0 for i in range(200)]
    phis = [0.0, math.pi / 4.0, math.pi / 2.0]
    for penalty in (100.0, 10_000.0):
        rate = optimal_check_rate(penalty).check_rate
        out[penalty] = (phis, thetas, sweep_cheat_gain(rate, penalty, thetas, phis))
    return out


def test_1_optimal_guess_win_rate():
    t0 = time.perf_counter()
    params = ProtocolParams(0.01, 10_000.0)
    stats = run_session_fast(
        honest_alice().branch_model().members, params, 1_000_000, session_rng(101)
    )
    elapsed = time.perf_counter() - t0
    win = stats.normal_win_rate
    ok = abs(win - GUESS_PROB) <= 0.0015 and elapsed < 10.0
    report(
        "optimal-guess win rate over a million honest rounds",
        ok,
        f"win_rate={win:.7f} target={GUESS_PROB:.7f} elapsed={elapsed:.2f}s",
    )


def test_2_honest_play_exact_expectations():
    worst_normal = worst_total = 0.0
    for rate in (0.01, 0.0139385, 0.25):
        gain = oracle_expected_gain(honest_alice(), ProtocolParams(rate, 10_000.0))
        worst_normal = max(worst_normal, abs(gain.normal_term / (1.0 - rate)))
        worst_total = max(worst_total, abs(gain.total - rate * (1.0 + SQ2)))
    ok = worst_normal <= 1e-12 and worst_total <= 1e-12
    report(
        "honest play: fair normal rounds, exact checking-round leak",
        ok,
        f"normal_dev={worst_normal:.2e} total_dev={worst_total:.2e}",
    )


def session_total_z(alice, params: ProtocolParams, rounds: int, total: float) -> float:
    """Exact two-sided tail of a session's total transfer, as a normal z.

    With the abort rule off the fail count is Binomial(rounds, q), and given
    k fails the other rounds are i.i.d. with bounded transfers, so their sum
    is normal to high accuracy.  Next to a legal state a session expects
    under one fail, where a z from the sample (or even the exact) standard
    error is not normal: one fail moves the mean by many sigma.
    """
    branches = oracle_round_branches(alice, params)
    fail = [b for b in branches if b.check_result is CheckResult.FAIL]
    rest = [b for b in branches if b.check_result is not CheckResult.FAIL]
    assert all(b.transfer == -params.penalty for b in fail)
    q = math.fsum(b.prob for b in fail)
    keep = math.fsum(b.prob for b in rest)
    mean = math.fsum(b.prob * b.transfer for b in rest) / keep
    var = max(0.0, math.fsum(b.prob * b.transfer**2 for b in rest) / keep - mean**2)
    half = 12.0 * math.sqrt(rounds * q * keep) + 40.0
    upper, lower = [], []
    for k in range(max(0, int(rounds * q - half)), min(rounds, int(rounds * q + half)) + 1):
        if q == 0.0:
            pk = 1.0 if k == 0 else 0.0
        else:
            pk = math.exp(
                math.lgamma(rounds + 1) - math.lgamma(k + 1) - math.lgamma(rounds - k + 1)
                + k * math.log(q) + (rounds - k) * math.log1p(-q)
            )
        # the non-fail rounds must sum to total + penalty * k
        gap = (total + params.penalty * k - (rounds - k) * mean) / math.sqrt(
            2.0 * (rounds - k) * var
        )
        upper.append(pk * 0.5 * math.erfc(gap))
        lower.append(pk * 0.5 * math.erfc(-gap))
    p_value = min(1.0, 2.0 * min(math.fsum(upper), math.fsum(lower)))
    if p_value <= 0.0:
        return math.inf
    return 0.0 if p_value >= 1.0 else NormalDist().inv_cdf(1.0 - p_value / 2.0)


def test_3_closed_form_oracle_monte_carlo_agreement():
    # The oracle gives per-round expectations for a fixed number of rounds;
    # an aborted session stops right after a fail, so the mean comparison
    # runs with the abort rule off.  Each session's total is held to 4 sigma
    # through its exact tail; over the 400 sessions a correct sampler fails
    # about 2.5% of master seeds (measured: 11 of 300).  A second session
    # per cell runs with the abort rule on; the ledgers of those that abort
    # are fitted, given where they stopped, to the oracle's class masses.
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_z = 0.0
    aborted = []
    idx = 0
    for rate, penalty in ((0.01, 1_000.0), (0.0139385, 10_000.0)):
        params = ProtocolParams(rate, penalty, abort_threshold=1.0)
        params_abort = ProtocolParams(rate, penalty)
        for i in range(100):
            theta = math.pi / 2.0 * i / 99.0
            for claim in StateLabel:
                strat = fixed_state_cheat(
                    CheatPoint(theta, 0.0, ClaimPolicy(claim.value))
                )
                oracle = oracle_expected_gain(strat, params)
                closed = cheat_gain_exact(theta, rate, penalty, claim)
                worst_eq = max(worst_eq, abs(closed.total - oracle.total))
                members = strat.branch_model().members
                stats = run_session_fast(
                    members, params, 1_000_000, session_rng(2026, idx)
                )
                assert stats.rounds == 1_000_000 and not stats.aborted
                z = session_total_z(strat, params, stats.rounds, stats.alice_gain_total)
                worst_z = max(worst_z, z)
                stopped = run_session_fast(
                    members, params_abort, 1_000_000, session_rng(2026, 400 + idx)
                )
                if stopped.aborted:
                    aborted.append((
                        class_counts(stopped, params_abort),
                        class_masses(strat, params_abort),
                    ))
                idx += 1
    # Two degrees of freedom: the 4-sigma two-sided tail, -2 ln p.
    ledger_chi2 = kept_ledger_chi2(aborted)
    ledger_gate = -2.0 * math.log(math.erfc(4.0 / math.sqrt(2.0)))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_eq <= 1e-12 and worst_z <= 4.0 and len(aborted) >= 100
        and ledger_chi2 <= ledger_gate and elapsed < 120.0
    )
    report(
        "closed form = oracle = Monte Carlo across the cheat grid",
        ok,
        f"max|closed-oracle|={worst_eq:.2e} max_z={worst_z:.2f} "
        f"aborted={len(aborted)} ledger_chi2={ledger_chi2:.2f} elapsed={elapsed:.1f}s",
    )


def test_4_quadratic_optimum_closed_forms():
    t0 = time.perf_counter()
    worst_theta = worst_gain = 0.0
    for rate, penalty in ((0.0139385, 10_000.0), (0.01, 10_000.0)):
        opt = quadratic_bound_optimum(rate, penalty)
        theta, gain = golden_section_max(
            lambda t: cheat_gain_quadratic_bound(t, rate, penalty), 0.0, math.pi / 4.0
        )
        worst_theta = max(worst_theta, abs(theta - opt.theta_star))
        worst_gain = max(worst_gain, abs(gain - opt.gain_max))
    worst_cap = 0.0
    for penalty in (10.0, 100.0, 1_000.0, 10_000.0, 1_000_000.0):
        rate, cap = optimal_check_rate(penalty)
        worst_cap = max(
            worst_cap, abs(quadratic_bound_optimum(rate, penalty).gain_max - cap)
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_theta <= 1e-9
        and worst_gain <= 1e-9
        and worst_cap <= 1e-12
        and elapsed < 1.0
    )
    report(
        "numerical optimizer reproduces the closed-form optimum and cap",
        ok,
        f"dtheta={worst_theta:.1e} dgain={worst_gain:.1e} dcap={worst_cap:.1e} "
        f"elapsed={elapsed:.3f}s",
    )


def test_5_security_cap_scaling(cap_sweeps):
    caps = {}
    ok = True
    detail = []
    for penalty, (phis, thetas, result) in cap_sweeps.items():
        cap = optimal_check_rate(penalty).gain_cap
        caps[penalty] = cap
        ok = ok and result.best.gain.total <= 1.1 * cap
        detail.append(f"R={penalty:g}: max={result.best.gain.total:.5f} cap={cap:.5f}")
    ratio = caps[100.0] / caps[10_000.0]
    ok = ok and abs(ratio - 10.0) <= 1e-9
    report(
        "cheating gain capped, cap falls as the inverse square root of the penalty",
        ok,
        "; ".join(detail) + f"; ratio={ratio:.12f}",
    )


def test_6_best_cheat_lies_in_zx_plane(cap_sweeps):
    ok = True
    for penalty, (phis, thetas, result) in cap_sweeps.items():
        best_at = {}
        for row in result.rows:
            key = (row.theta, row.phi)
            if key not in best_at or row.gain.total > best_at[key]:
                best_at[key] = row.gain.total
        for theta in thetas:
            base = best_at[(theta, 0.0)]
            if any(best_at[(theta, ph)] > base for ph in phis[1:]):
                ok = False
    report("the maximizing preparation stays in the z-x plane for every angle", ok)


def test_7_entanglement_attack_reductions():
    params = ProtocolParams(0.0139385, 10_000.0)
    z_attack = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
    da = oracle_transcript_distribution(z_attack, params)
    db = oracle_transcript_distribution(honest_alice(), params)
    dist = max(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in set(da) | set(db))

    (w_near, _), _ = project_subsystem(standard_attack_state(), Subsystem.A, BASIS_X)
    weight_dev = abs(w_near - (2.0 + SQ2) / 4.0)

    x_gains = []
    for penalty in (100.0, 10_000.0):
        rate = optimal_check_rate(penalty).check_rate
        x_attack = entangled_cheat({lab: BASIS_X for lab in StateLabel})
        x_gains.append(
            oracle_expected_gain(x_attack, ProtocolParams(rate, penalty)).total
        )
    ok = dist <= 1e-12 and weight_dev <= 1e-12 and all(g < 0.0 for g in x_gains)
    report(
        "entanglement attacks reduce to honest play or lose outright",
        ok,
        f"z_dist={dist:.1e} weight_dev={weight_dev:.1e} x_gains={x_gains}",
    )


def test_8_remote_steering_mixture_condition():
    target = BlochVector(0.5, 0.0, 0.5)
    legal = ensemble_average_bloch(Ensemble(((0.5, KET_0), (0.5, KET_PLUS))))
    (w_near, near), (w_far, far) = project_subsystem(
        standard_attack_state(), Subsystem.A, BASIS_X
    )
    steered = ensemble_average_bloch(Ensemble(((w_near, near), (w_far, far))))
    ok = legal.isclose(target, tol=1e-12) and steered.isclose(target, tol=1e-12)
    report(
        "both preparable mixtures average to the same reduced state",
        ok,
        f"legal=({legal.x:.12f},{legal.y:.12f},{legal.z:.12f}) "
        f"steered=({steered.x:.12f},{steered.y:.12f},{steered.z:.12f})",
    )


def test_9_posterior_floor():
    worst = math.inf
    for i in range(100):
        theta = math.pi * i / 99.0
        for j in range(100):
            rate = (j + 1) / 101.0
            for guess in StateLabel:
                margin = unmeasured_posterior(theta, rate, guess) - 0.5 * rate
                worst = min(worst, margin)
    ok = worst >= -1e-15
    report(
        "Bob's possible non-measurement never drops below half the check rate",
        ok,
        f"min_margin={worst:.2e}",
    )


def test_10_property_suites():
    failures = []

    # Zero-sum ledger on an engine session.
    params = ProtocolParams(0.2, 100.0)
    transfers = []
    stats = run_session(
        honest_alice(), honest_bob(0.2), params, 2_000, session_rng(103),
        on_round=lambda rec: transfers.append(rec.transfer),
    )
    if stats.alice_gain_total != sum(transfers) or stats.bob_gain_total != -stats.alice_gain_total:
        failures.append("zero-sum ledger")

    # No-signaling and measurement-order commutation on fixed entangled states.
    probe = TwoQubitPure((0.5, 0.5j, -0.5, 0.5))
    for state in (standard_attack_state(), probe):
        before = reduced_bloch(state, Subsystem.B)
        for basis_a in (BASIS_Z, BASIS_X, BASIS_DISCRIM):
            mix = [0.0, 0.0, 0.0]
            for p, rem in project_subsystem(state, Subsystem.A, basis_a):
                if rem is not None:
                    v = bloch_from_state(rem)
                    mix[0] += p * v.x
                    mix[1] += p * v.y
                    mix[2] += p * v.z
            if not before.isclose(BlochVector(*mix), tol=1e-12):
                failures.append("no-signaling")
            for basis_b in (BASIS_Z, BASIS_DISCRIM):
                a_first = project_subsystem(state, Subsystem.A, basis_a)
                b_first = project_subsystem(state, Subsystem.B, basis_b)
                for i, a_out in enumerate(Outcome):
                    for j, b_out in enumerate(Outcome):
                        pa, rem_b = a_first[i]
                        pb, rem_a = b_first[j]
                        p_ab = pa * (
                            overlap(basis_b.state_of(b_out), rem_b) if rem_b else 0.0
                        )
                        p_ba = pb * (
                            overlap(basis_a.state_of(a_out), rem_a) if rem_a else 0.0
                        )
                        if abs(p_ab - p_ba) > 1e-12:
                            failures.append("measurement-order commutation")

    # Normalization preserved along a chain of operations.
    s = PureQubit(math.cos(0.3), math.sin(0.3) * 1j)
    for basis in (BASIS_Z, BASIS_X, BASIS_DISCRIM):
        for member in (basis.plus, basis.minus):
            if abs(abs(member.amp0) ** 2 + abs(member.amp1) ** 2 - 1.0) > 1e-12:
                failures.append("normalization")
    rng = session_rng(104)
    from qgamble.qubits import apply_pauli, measure

    for _ in range(200):
        _, s = measure(apply_pauli(s, "y"), BASIS_DISCRIM, rng)
        if abs(abs(s.amp0) ** 2 + abs(s.amp1) ** 2 - 1.0) > 1e-12:
            failures.append("normalization chain")

    # Reproducibility by seed through both session paths.
    a = run_session(honest_alice(), honest_bob(0.2), params, 500, session_rng(105))
    b = run_session(honest_alice(), honest_bob(0.2), params, 500, session_rng(105))
    if a != b:
        failures.append("engine reproducibility")
    members = honest_alice().branch_model().members
    fa = run_session_fast(members, params, 5_000, session_rng(106))
    fb = run_session_fast(members, params, 5_000, session_rng(106))
    if fa != fb:
        failures.append("fast-path reproducibility")

    report(
        "property suite: ledger, no-signaling, commutation, normalization, seeds",
        not failures,
        "all held" if not failures else f"violated: {sorted(set(failures))}",
    )


def test_11_noise_abort():
    noisy = ProtocolParams(0.2, 100.0, noise=0.2, abort_threshold=0.05)
    clean = ProtocolParams(0.2, 100.0, noise=0.0, abort_threshold=0.05)
    aborted = sum(
        run_session(
            honest_alice(), honest_bob(0.2), noisy, 2_000, session_rng(107, i)
        ).aborted
        for i in range(100)
    )
    clean_aborts = sum(
        run_session(
            honest_alice(), honest_bob(0.2), clean, 2_000, session_rng(108, i)
        ).aborted
        for i in range(100)
    )
    ok = aborted / 100.0 > 0.99 and clean_aborts == 0
    report(
        "noisy sessions abort, clean sessions never do",
        ok,
        f"noisy_abort_rate={aborted / 100.0:.2f} clean_aborts={clean_aborts}",
    )
