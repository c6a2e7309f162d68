"""The four workloads: seeded operation catalogues and their correctness gates.

`build(workload, seed)` turns the seed into a fixed catalogue of distinct
operations and returns it in a seeded order.  The measured loop cycles
through it, so each distinct operation repeats many times in a run.

Sampled operations (sessions, and the CLI commands that play them) repeat
identical inputs: a fresh session seed on every repeat would turn each
repeat into a new 4-sigma check and make chance failures common.  Their
exact counts (rounds ledgered, aborts, checks, CLI output bytes and hashes)
must repeat identically.  Deterministic operations (the exact_analysis
tasks but the golden-section searches, the CLI's `sweep` and `entangle`)
draw fresh inputs of the same shape on every repeat, so a cache inside the
package cannot pass for speed; their repeat `v` runs on inputs drawn from
the seed, the key and `v`, and the runner re-runs repeat 0 to check that
its counts repeat.  The package only
ever receives the generated inputs.

An operation returns an `Outcome`.  It fails when any gate below fails:

* closed form and oracle differ by more than 1e-12;
* a Monte Carlo mean lies more than 4 sigma from the oracle, with sigma
  taken from `oracle_transfer_variance` (the sample error misses penalties
  too rare to show up in one session);
* an abort expectation is not met;
* a CLI command exits non-zero, reports a failing check, or prints bytes
  that differ between repeats.

Only agreement between the three routes to the gain is gated.  The CLI's
`max_gain_within_cap` / `sweep_max_within_cap` rows are recorded and never
asserted: they pass wrongly at R=100 against guess-adaptive claims (a
known defect, see DESIGN.md).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import qgamble  # noqa: E402  (the entry points put SRC on sys.path first)

if Path(qgamble.__file__).resolve().parent != SRC / "qgamble":
    raise ImportError(f"qgamble was imported from {qgamble.__file__}, not from {SRC}")

from qgamble import analysis, protocol, qubits, strategies  # noqa: E402
from qgamble.protocol import ProtocolParams, StateLabel  # noqa: E402

WORKLOADS = ("crosscheck_grid", "exact_analysis", "reference_engine", "cli_cold")

EXACT_TOL = 1e-12
OPTIMIZER_TOL = 1e-9
#: Golden-section search locates a maximum only to about sqrt(machine eps);
#: its parabolic polish is rejected on an ulp-level tie for ~0.3% of (r, R)
#: pairs, leaving theta up to ~9e-9 off (the gain stays within 1e-15).
ARGMAX_TOL = 1e-8
Z_GATE = 4.0
#: Rows whose verdict the benchmark records but never gates on.
KNOWN_DEFECT_ROWS = frozenset({"max_gain_within_cap", "sweep_max_within_cap"})
#: abort_threshold above 1 can never trigger: the verdict compares
#: per-round expectations, which the oracle computes without the abort rule.
NO_ABORT = 1.0

_now = time.perf_counter
ZERO, PLUS = StateLabel.ZERO, StateLabel.PLUS


@dataclass
class Outcome:
    """What one operation did and which gates it failed."""

    problems: list[str] = field(default_factory=list)
    #: Exact counts that must repeat whenever this operation repeats.
    counts: dict = field(default_factory=dict)
    rounds: int = 0
    z_scores: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def close(self, what: str, a: float, b: float, tol: float) -> None:
        if not abs(a - b) <= tol:
            self.problems.append(f"{what}: |{a!r} - {b!r}| > {tol:g}")

    def mc_verdict(self, what: str, mean: float, expected: float, variance: float,
                   rounds: int) -> None:
        sigma = math.sqrt(variance / rounds)
        z = abs(mean - expected) / sigma if sigma > 0.0 else (
            0.0 if mean == expected else math.inf)
        self.z_scores.append(z)
        if z > Z_GATE:
            self.problems.append(f"{what}: Monte Carlo {z:.2f} sigma from the oracle")


@dataclass(frozen=True)
class Op:
    """One distinct operation.  `run(tracer, inputs)` is the timed work;
    `inputs(variant)` builds its arguments beforehand, outside the timing.
    An operation that `varies` runs repeat v on inputs(v); the others always
    run on inputs(0)."""

    key: str
    kind: str
    run: Callable[..., Outcome]
    inputs: Callable[[int], object] = lambda variant: None
    varies: bool = False


def _varied(base: int, key: str, kind: str, run, draw) -> Op:
    """An operation whose repeat v runs on draw(rng), rng seeded by (base, key, v)."""
    return Op(key, kind, run, lambda v: draw(random.Random(f"{base}:{key}:{v}")), varies=True)


def _oracle_layer(alice) -> str:
    model = alice.branch_model()
    return ("analysis.oracle_product" if isinstance(model, strategies.ProductModel)
            else "analysis.oracle_entangled")


def _oracle(tr, alice, params, out: Outcome):
    """Exact mean and variance; in traced runs also the branch count."""
    with tr.span(_oracle_layer(alice), calls=2):
        gain = analysis.oracle_expected_gain(alice, params)
        variance = analysis.oracle_transfer_variance(alice, params)
    if tr.enabled:
        with tr.span("analysis.oracle_branches"):
            out.counts.setdefault("branches", []).append(
                len(analysis.oracle_round_branches(alice, params)))
    return gain, variance


def _check_abort(out: Outcome, stats, n_rounds: int, expect_abort: bool) -> None:
    if expect_abort:
        if not (stats.aborted and stats.rounds < n_rounds
                and stats.check_rounds >= protocol.MIN_CHECKS_FOR_ABORT):
            out.problems.append(
                f"expected an abort, got aborted={stats.aborted} after {stats.rounds} rounds")
    elif stats.aborted or stats.rounds != n_rounds:
        out.problems.append(f"unexpected abort after {stats.rounds} of {n_rounds} rounds")


# --------------------------------------------------------------------------
# crosscheck_grid: closed form + oracle + run_session_fast verdict per cheat.

CROSSCHECK_ROUNDS = 1_000_000

# (check_rate, penalty, claim, theta range).  At R=1e4 theta stays at least
# 0.1 away from the claimed legal state: closer, a single rare penalty moves
# a 1e6-round mean by more than half a sigma, and the 4-sigma gate would
# fail by chance about once per thousand verdicts instead of ~1e-4.
_GRID = (
    (0.01, 1_000.0, ZERO, 0.0, 0.6),
    (0.0139385, 10_000.0, PLUS, 0.8, 1.45),
    (0.05, 100.0, ZERO, 0.0, 1.0),
    (0.2, 20.0, PLUS, 0.4, math.pi / 2.0),
)


def _weights(g: random.Random, k: int) -> list[float]:
    raw = [g.uniform(0.5, 1.5) for _ in range(k)]
    total = sum(raw)
    w = [x / total for x in raw[:-1]]
    return w + [1.0 - sum(w)]


def _verdict_op(key, params, members, master, index, expect_abort):
    """members: (weight, theta, phi, claim) tuples."""
    in_plane = params.noise == 0.0 and all(phi == 0.0 for _, _, phi, _ in members)

    def run(tr, _inputs) -> Outcome:
        out = Outcome()
        with tr.span("qubits", calls=len(members)):
            states = [qubits.state_from_bloch(th, phi) for _, th, phi, _ in members]
        with tr.span("strategies", calls=2):
            alice = strategies.ensemble_cheat(
                qubits.Ensemble(tuple((w, s) for (w, _, _, _), s in zip(members, states))),
                [claim for _, _, _, claim in members],
            )
            model_members = alice.branch_model().members
        gain, variance = _oracle(tr, alice, params, out)
        if in_plane:
            with tr.span("analysis.closed_form", calls=len(members)):
                closed = math.fsum(
                    w * analysis.cheat_gain_exact(th, params.check_rate, params.penalty,
                                                  claim).total
                    for w, th, _, claim in members)
            out.close("closed form vs oracle", closed, gain.total, EXACT_TOL)
        with tr.span("protocol.fast") as sp:
            stats = protocol.run_session_fast(
                model_members, params, CROSSCHECK_ROUNDS, protocol.session_rng(master, index))
            sp.add(rounds_drawn=CROSSCHECK_ROUNDS, rounds_kept=stats.rounds)
        out.rounds = stats.rounds
        out.counts.update(rounds=stats.rounds, aborted=stats.aborted,
                          checks=stats.check_rounds, fails=stats.check_fails)
        _check_abort(out, stats, CROSSCHECK_ROUNDS, expect_abort)
        if not expect_abort:
            with tr.span("analysis.monte_carlo"):
                mc = analysis.monte_carlo_gain(stats)
            out.mc_verdict("session mean", mc.mean, gain.total, variance, stats.rounds)
        return out

    kind = "abort" if expect_abort else f"members{len(members)}" + (
        "_noisy" if params.noise else "")
    return Op(key, kind, run)


def _crosscheck(g: random.Random) -> list[Op]:
    master = g.getrandbits(32)
    ops = []
    for rate, penalty, claim, lo, hi in _GRID:
        theta = g.uniform(lo, hi)
        ops.append(((rate, penalty), 0.0, [(1.0, theta, 0.0, claim)], False))
    ens2 = [(w, g.uniform(*rng), 0.0, c) for w, (rng, c) in zip(
        _weights(g, 2), (((0.0, 0.4), ZERO), ((1.2, math.pi / 2.0), PLUS)))]
    ens4 = [(w, g.uniform(*rng), 0.0, c) for w, (rng, c) in zip(
        _weights(g, 4), (((0.0, 0.3), ZERO), ((0.3, 0.7), ZERO),
                         ((0.9, 1.3), PLUS), ((1.3, math.pi / 2.0), PLUS)))]
    ops += [
        ((0.05, 100.0), 0.0, ens2, False),
        ((0.01, 1_000.0), 0.0, ens4, False),
        ((0.2, 20.0), 0.02, ens4, False),
        ((0.05, 100.0), 0.05, [(1.0, g.uniform(0.0, 0.6), 0.0, ZERO)], False),
        # A noisy legal mixture must abort early: per-check failure rate 1/6.
        ((0.2, 20.0), 0.25, [(0.5, 0.0, 0.0, ZERO), (0.5, math.pi / 2.0, 0.0, PLUS)], True),
    ]
    built = []
    for index, ((rate, penalty), noise, members, expect_abort) in enumerate(ops):
        params = ProtocolParams(rate, penalty, noise=noise,
                                abort_threshold=0.05 if expect_abort else NO_ABORT)
        built.append(_verdict_op(f"verdict{index}", params, members, master, index,
                                 expect_abort))
    return built


# --------------------------------------------------------------------------
# exact_analysis: oracle and qubits primitives, no random numbers drawn by
# the package.  Every repeat of a task runs on freshly drawn inputs.

_PHIS = (0.0, math.pi / 4.0, math.pi / 2.0, math.pi)


def _sweep(tr, inputs) -> Outcome:
    """Sweep over azimuths 0, pi/4, pi/2 and pi.  Every gain is affine in the
    Bloch vector with no y component, so for each theta the better of the two
    in-plane azimuths (0 and pi, the latter being polar angle -theta) is at
    least every off-plane value, and both match the closed form."""
    rate, penalty, thetas = inputs
    out = Outcome()
    with tr.span("analysis.sweep", calls=len(thetas) * len(_PHIS) * 2):
        result = analysis.sweep_cheat_gain(rate, penalty, thetas, list(_PHIS))
    with tr.span("analysis.closed_form", calls=len(thetas) * 4):
        closed = {(t, phi, c): analysis.cheat_gain_exact(
            t if phi == 0.0 else -t, rate, penalty, c).total
            for t in thetas for phi in (0.0, math.pi) for c in StateLabel}
    best_at: dict = {}
    worst = 0.0
    for row in result.rows:
        key_tp = (row.theta, row.phi)
        best_at[key_tp] = max(best_at.get(key_tp, -math.inf), row.gain.total)
        if (row.theta, row.phi, row.claim) in closed:
            worst = max(worst, abs(row.gain.total - closed[(row.theta, row.phi, row.claim)]))
    out.close("sweep rows vs closed form", worst, 0.0, EXACT_TOL)
    for t in thetas:
        in_plane = max(best_at[(t, 0.0)], best_at[(t, math.pi)])
        if max(best_at[(t, p)] for p in _PHIS[1:3]) > in_plane + EXACT_TOL:
            out.problems.append(f"off-plane gain beats the z-x plane at theta={t!r}")
    if result.best.gain.total != max(r.gain.total for r in result.rows):
        out.problems.append("sweep best row is not the maximum")
    out.counts["rows"] = len(result.rows)
    return out


def _policies(tr, inputs) -> Outcome:
    """x_loses: the settings use the optimal check rate for R >= 100 without
    noise, where the constant-x attack is known to lose (acceptance test 7)."""
    settings, x_loses = inputs
    out = Outcome()
    for rate, penalty, noise in settings:
        params = ProtocolParams(rate, penalty, noise=noise)
        with tr.span("analysis.policy_gains", calls=4):
            gains = dict(analysis.entangled_policy_gains(params))
        with tr.span("strategies"):
            honest = strategies.honest_alice()
        with tr.span("analysis.oracle_product"):
            baseline = analysis.oracle_expected_gain(honest, params).total
        out.close(f"z-policy vs honest {params}", gains["zero->z,plus->z"].total,
                  baseline, EXACT_TOL)
        if x_loses and not gains["zero->x,plus->x"].total < 0.0:
            out.problems.append(f"constant-x attack does not lose at {params}")
    out.counts["policies"] = 4 * len(settings)
    return out


def _transcripts(tr, settings) -> Outcome:
    out = Outcome()
    cells = 0
    for rate, penalty, noise in settings:
        params = ProtocolParams(rate, penalty, noise=noise)
        with tr.span("strategies", calls=3):
            z_attack = strategies.entangled_cheat({lab: qubits.BASIS_Z for lab in StateLabel})
            x_attack = strategies.entangled_cheat({lab: qubits.BASIS_X for lab in StateLabel})
            honest = strategies.honest_alice()
        with tr.span("analysis.oracle_entangled", calls=2):
            dz = analysis.oracle_transcript_distribution(z_attack, params)
            dx = analysis.oracle_transcript_distribution(x_attack, params)
        with tr.span("analysis.oracle_product"):
            dh = analysis.oracle_transcript_distribution(honest, params)
        dist = max(abs(dz.get(k, 0.0) - dh.get(k, 0.0)) for k in set(dz) | set(dh))
        out.close(f"z-attack vs honest transcripts {params}", dist, 0.0, EXACT_TOL)
        for name, d in (("z", dz), ("x", dx), ("honest", dh)):
            out.close(f"{name} transcript mass", math.fsum(d.values()), 1.0, EXACT_TOL)
        cells += len(dz) + len(dx) + len(dh)
    out.counts["transcript_cells"] = cells
    return out


def _theta_grid(tr, inputs) -> Outcome:
    rate, penalty, thetas = inputs
    out = Outcome()
    params = ProtocolParams(rate, penalty)
    points = [(t, c) for t in thetas for c in StateLabel]
    with tr.span("strategies", calls=len(points)):
        strats = [strategies.fixed_state_cheat(
            strategies.CheatPoint(t, 0.0, strategies.ClaimPolicy(c.value)))
            for t, c in points]
    with tr.span("analysis.oracle_product", calls=len(points)):
        oracle = [analysis.oracle_expected_gain(s, params).total for s in strats]
    if tr.enabled:
        with tr.span("analysis.oracle_branches", calls=len(points)):
            out.counts["branches"] = [
                len(analysis.oracle_round_branches(s, params)) for s in strats]
    with tr.span("analysis.closed_form", calls=2 * len(points)):
        closed = [analysis.cheat_gain_exact(t, rate, penalty, c).total for t, c in points]
        ceiling = [analysis.claim_gain_upper_bound(t, rate, penalty, c) for t, c in points]
    out.close("closed form vs oracle grid",
              max(abs(a - b) for a, b in zip(closed, oracle)), 0.0, EXACT_TOL)
    if any(o > c + EXACT_TOL for o, c in zip(oracle, ceiling)):
        out.problems.append("oracle gain above the claim ceiling")
    out.counts["points"] = len(points)
    return out


_CAP_PENALTIES = (10.0, 100.0, 1_000.0, 10_000.0, 1e6)


def _optimizer(tr, pairs) -> Outcome:
    out = Outcome()
    for rate, penalty in pairs:
        with tr.span("analysis.optimizer"):
            theta, gain = analysis.golden_section_max(
                lambda t: analysis.cheat_gain_quadratic_bound(t, rate, penalty),
                0.0, math.pi / 4.0)
        with tr.span("analysis.closed_form"):
            opt = analysis.quadratic_bound_optimum(rate, penalty)
        out.close(f"golden theta at r={rate!r} R={penalty!r}", theta, opt.theta_star,
                  ARGMAX_TOL)
        out.close(f"golden gain at r={rate!r} R={penalty!r}", gain, opt.gain_max,
                  OPTIMIZER_TOL)
    for penalty in _CAP_PENALTIES:
        with tr.span("analysis.closed_form", calls=2):
            rate, cap = analysis.optimal_check_rate(penalty)
            ident = analysis.quadratic_bound_optimum(rate, penalty).gain_max
        out.close(f"cap identity at R={penalty!r}", ident, cap, EXACT_TOL)
    out.counts["searches"] = len(pairs)
    return out


_BASES = (qubits.BASIS_Z, qubits.BASIS_X, qubits.BASIS_DISCRIM)


def _steering(tr, inputs) -> Outcome:
    """No-signalling: whatever basis Alice measures, the ensemble she steers
    Bob's qubit into averages to his reduced state."""
    pair_amps, angles = inputs
    out = Outcome()
    worst = 0.0
    with tr.span("qubits", calls=len(pair_amps) * (2 + 2 * len(_BASES))):
        for amps in pair_amps:
            state = qubits.TwoQubitPure(amps)
            target = qubits.reduced_bloch(state, qubits.Subsystem.B)
            for basis in _BASES:
                (p0, s0), (p1, s1) = qubits.project_subsystem(
                    state, qubits.Subsystem.A, basis)
                worst = max(worst, abs(p0 + p1 - 1.0))
                entries = tuple((p, s) for p, s in ((p0, s0), (p1, s1)) if s is not None)
                total = math.fsum(p for p, _ in entries)
                avg = qubits.ensemble_average_bloch(
                    qubits.Ensemble(tuple((p / total, s) for p, s in entries)))
                worst = max(worst, abs(avg.x - target.x), abs(avg.y - target.y),
                            abs(avg.z - target.z))
    out.close("steered ensemble vs reduced state", worst, 0.0, EXACT_TOL)
    worst = 0.0
    with tr.span("qubits", calls=3 * len(angles)):
        for polar, azimuth in angles:
            v = qubits.bloch_from_state(qubits.state_from_bloch(polar, azimuth))
            p2, a2 = qubits.bloch_angles(v)
            worst = max(worst, abs(p2 - polar), abs(math.remainder(a2 - azimuth, math.tau)))
    out.close("Bloch angle round trip", worst, 0.0, qubits.ATOL_DERIVED)
    out.counts["states"] = len(pair_amps) + len(angles)
    return out


def _random_pair(g: random.Random) -> tuple[complex, ...]:
    amps = [complex(g.gauss(0.0, 1.0), g.gauss(0.0, 1.0)) for _ in range(4)]
    norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
    return tuple(a / norm for a in amps)


def _jittered(g: random.Random, n: int, hi: float) -> list[float]:
    step = hi / (n - 1)
    return [min(hi, max(0.0, i * step + g.uniform(-0.25, 0.25) * step)) for i in range(n)]


def _settings(g: random.Random) -> list[tuple[float, float, float]]:
    return [(g.uniform(0.01, 0.2), g.choice((100.0, 1_000.0, 10_000.0)), noise)
            for noise in (0.0, 0.02, 0.05, 0.1)]


def _optimal(g: random.Random) -> list[tuple[float, float, float]]:
    """The optimal check rate at one penalty from each decade of [1e2, 1e5]."""
    return [(analysis.optimal_check_rate(penalty).check_rate, penalty, 0.0)
            for penalty in (10.0 ** g.uniform(k, k + 1) for k in (2, 3, 4))]


def _steering_inputs(g: random.Random):
    return ([_random_pair(g) for _ in range(24)],
            [(g.uniform(0.01, math.pi - 0.01), g.uniform(-math.pi, math.pi))
             for _ in range(24)])


def _exact(g: random.Random) -> list[Op]:
    base = g.getrandbits(64)
    tasks = [
        ("sweep0", "sweep", _sweep,
         lambda r: (0.0139385, 10_000.0, _jittered(r, 18, math.pi / 4.0))),
        ("sweep1", "sweep", _sweep,
         lambda r: (r.uniform(0.01, 0.2), 100.0, _jittered(r, 18, math.pi / 2.0))),
        ("policies0", "policy_gains", _policies, lambda r: (_optimal(r), True)),
        ("policies1", "policy_gains", _policies, lambda r: (_settings(r), False)),
        ("transcripts", "transcripts", _transcripts,
         lambda r: [s for i, s in enumerate(_settings(r)) if i != 1] + _optimal(r)[1:2]),
        ("thetas0", "theta_grid", _theta_grid,
         lambda r: (0.01, 1_000.0, _jittered(r, 48, math.pi / 2.0))),
        ("thetas1", "theta_grid", _theta_grid,
         lambda r: (r.uniform(0.005, 0.02), 10_000.0, _jittered(r, 48, math.pi / 2.0))),
        ("steering0", "steering", _steering, _steering_inputs),
        ("steering1", "steering", _steering, _steering_inputs),
    ]
    # The searches repeat fixed (r, R) pairs: across thousands of fresh pairs
    # per run the argmax gate would meet the tail of golden_section_max's
    # miss (up to 8.7e-9 of the 1e-8 gate over 1e6 pairs, largest at r*R
    # near 10).  Each search gets a fresh closure, so it cannot be cached.
    # r*R >= 10 keeps the quadratic optimum 2c/(rR) inside the searched [0, pi/4].
    pairs = [(g.uniform(0.01, 0.2), g.choice((1_000.0, 10_000.0))) for _ in range(12)]
    return [_varied(base, key, kind, run, draw) for key, kind, run, draw in tasks] + [
        Op("optimizer", "optimizer", _optimizer, lambda v: pairs)]


# --------------------------------------------------------------------------
# reference_engine: run_session between interactive players.

ENGINE_ROUNDS = 4_000
ENGINE_ABORT_ROUNDS = 20_000


class _TimedPlayer:
    """Forwards the engine's per-round calls to a player and sums their time,
    so traced runs can separate strategy time from the engine's own.  Each
    method is spelled out so that only the clock reads, not a lookup or a
    closure, fall outside the timed interval into the engine's self time."""

    def __init__(self, inner):
        self.inner = inner
        self.busy = 0.0

    def prepare(self, rng):
        t0 = _now()
        result = self.inner.prepare(rng)
        self.busy += _now() - t0
        return result

    def claim(self, memo, own_view, bob_guess, rng):
        t0 = _now()
        result = self.inner.claim(memo, own_view, bob_guess, rng)
        self.busy += _now() - t0
        return result

    def play(self, received, is_check, rng):
        t0 = _now()
        result = self.inner.play(received, is_check, rng)
        self.busy += _now() - t0
        return result

    def verify(self, stored, claim, rng):
        t0 = _now()
        result = self.inner.verify(stored, claim, rng)
        self.busy += _now() - t0
        return result


def _session_op(key, kind, make_alice, params, n_rounds, master, index, transcript,
                expect_abort):
    def run(tr, _inputs) -> Outcome:
        out = Outcome()
        with tr.span("strategies", calls=2):
            alice = make_alice()
            bob = strategies.honest_bob(params.check_rate)
        rows: list = []
        hook = rows.append if transcript else None
        hook_time = [0.0]
        if tr.enabled:
            alice, bob = _TimedPlayer(alice), _TimedPlayer(bob)
            if transcript:
                def hook(rec, _append=rows.append):
                    t0 = _now()
                    _append(rec)
                    hook_time[0] += _now() - t0
        with tr.span("protocol.engine") as sp:
            stats = protocol.run_session(alice, bob, params, n_rounds,
                                         protocol.session_rng(master, index), on_round=hook)
            sp.add(rounds=stats.rounds, sessions=1, aborted=int(stats.aborted))
            if tr.enabled:
                sp.attribute("strategies", alice.busy + bob.busy)
                sp.attribute("bench.hook", hook_time[0])
                alice = alice.inner
        out.rounds = stats.rounds
        out.counts.update(rounds=stats.rounds, aborted=stats.aborted,
                          checks=stats.check_rounds, fails=stats.check_fails,
                          wins=stats.bob_wins)
        _check_abort(out, stats, n_rounds, expect_abort)
        if transcript:
            total = 0.0
            for rec in rows:
                total += rec.transfer
            if len(rows) != stats.rounds or total != stats.alice_gain_total:
                out.problems.append("transcript does not add up to the session ledger")
            if not all(rec.settlement_ok(params) for rec in rows):
                out.problems.append("transcript round settled wrongly")
        if not expect_abort:
            gain, variance = _oracle(tr, alice, params, out)
            with tr.span("analysis.monte_carlo"):
                mc = analysis.monte_carlo_gain(stats)
            out.mc_verdict("session mean", mc.mean, gain.total, variance, stats.rounds)
        return out

    return Op(key, kind, run)


def _engine(g: random.Random) -> list[Op]:
    master = g.getrandbits(32)

    def policy(zero, plus):
        return lambda: strategies.entangled_cheat({ZERO: zero, PLUS: plus})

    z, x = qubits.BASIS_Z, qubits.BASIS_X
    t_fixed = g.uniform(0.2, 0.6)
    ens = [(w, g.uniform(*rng), c) for w, (rng, c) in zip(
        _weights(g, 2), (((0.1, 0.5), ZERO), ((1.1, 1.5), PLUS)))]

    def ensemble():
        return strategies.ensemble_cheat(
            qubits.Ensemble(tuple((w, qubits.state_from_bloch(t, 0.0)) for w, t, _ in ens)),
            [c for _, _, c in ens])

    def fixed():
        return strategies.fixed_state_cheat(
            strategies.CheatPoint(t_fixed, 0.0, strategies.ClaimPolicy.ZERO))

    clean = ProtocolParams(0.2, 20.0, abort_threshold=NO_ABORT)
    other = ProtocolParams(0.1, 50.0, abort_threshold=NO_ABORT)
    # Per-check failure rate 0.2 against the 0.05 abort threshold.
    noisy = ProtocolParams(0.2, 20.0, noise=0.3)
    specs = [
        ("honest", strategies.honest_alice, clean, True, False),
        ("honest", strategies.honest_alice, other, False, False),
        ("entangled_z", policy(z, z), clean, True, False),
        ("entangled_x", policy(x, x), clean, False, False),
        ("entangled_zx", policy(z, x), other, False, False),
        ("ensemble", ensemble, clean, True, False),
        ("fixed", fixed, clean, False, False),
        ("noisy_abort", strategies.honest_alice, noisy, False, True),
        ("noisy_abort", policy(z, z), noisy, True, True),
    ]
    return [
        _session_op(f"session{i}", kind, make, params,
                    ENGINE_ABORT_ROUNDS if abort else ENGINE_ROUNDS, master, i, transcript,
                    abort)
        for i, (kind, make, params, transcript, abort) in enumerate(specs)
    ]


# --------------------------------------------------------------------------
# cli_cold: one fresh interpreter per command.

CLI_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _doc_rows(data: bytes, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(data)["rows"]
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    out = []
    for row in rows:
        if row.get("section") == "check":
            out.append({"name": row["name"], "value": row.get("value"),
                        "passed": row.get("passed") == "true"})
    return out


def check_cli_result(out: Outcome, command: str, returncode: int, data: bytes,
                     fmt: str, extra: bytes = b"") -> None:
    """Gate one CLI result: exit status, check rows, and exact bytes."""
    try:
        rows = _doc_rows(data, fmt)
    except (ValueError, KeyError) as exc:
        out.problems.append(f"{command}: unreadable output ({exc})")
        return
    failing = {r["name"] for r in rows if r.get("passed") is False}
    for row in rows:
        if row.get("name") in KNOWN_DEFECT_ROWS:
            out.notes[row["name"]] = {"passed": row.get("passed"), "value": row.get("value")}
    unexpected = failing - KNOWN_DEFECT_ROWS
    if unexpected:
        out.problems.append(f"{command}: failing checks {sorted(unexpected)}")
    expected_code = 1 if failing else 0
    if returncode != expected_code:
        out.problems.append(f"{command}: exit code {returncode}, expected {expected_code}")
    blob = data + extra
    out.counts.update(bytes=len(blob), sha256=hashlib.sha256(blob).hexdigest())


@dataclass(frozen=True)
class CliCommand:
    name: str  # metric label: verify, sweep, entangle, honest, cheat, honest_transcript
    #: The arguments, or for a deterministic command a function drawing
    #: fresh ones of the same shape for each repeat.
    args: tuple[str, ...] | Callable[[random.Random], tuple[str, ...]]
    fmt: str = "json"
    transcript: bool = False

    @property
    def varies(self) -> bool:
        return callable(self.args)

    def argv(self, work: Path, tag: str, g: random.Random) -> list[str]:
        args = list(self.args(g) if self.varies else self.args)
        if self.transcript:
            args += ["--transcript", str(work / f"transcript-{tag}.{self.fmt}")]
        return args


def _read_transcript(out: Outcome, cmd: CliCommand, argv: list[str]) -> bytes:
    if not cmd.transcript:
        return b""
    path = Path(argv[argv.index("--transcript") + 1])
    data = path.read_bytes() if path.exists() else b""
    if not data:
        out.problems.append(f"{cmd.name}: no transcript written")
    path.unlink(missing_ok=True)
    return data


def _cli_child(cmd: CliCommand):
    def run(tr, argv) -> Outcome:
        out = Outcome()
        with tr.span("cli.child", tag=cmd.name):
            proc = subprocess.run(
                [sys.executable, "-m", "qgamble.cli", *argv], cwd=ROOT, env=child_env(),
                capture_output=True, timeout=CLI_TIMEOUT_S)
        extra = _read_transcript(out, cmd, argv)
        if proc.returncode not in (0, 1):
            out.problems.append(
                f"{cmd.name}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            return out
        check_cli_result(out, cmd.name, proc.returncode, proc.stdout, cmd.fmt, extra)
        return out

    return run


def _cli_in_process(cmd: CliCommand):
    """The command through main(..., standalone_mode=False) in this process,
    its document written to a file named by --output."""
    from qgamble import cli

    def run(tr, argv) -> Outcome:
        out = Outcome()
        target = Path(argv[-1])
        with tr.span("cli.inproc", tag=cmd.name):
            code = cli.main(argv, standalone_mode=False)
        extra = _read_transcript(out, cmd, argv)
        check_cli_result(out, cmd.name, code, target.read_bytes(), cmd.fmt, extra)
        target.unlink()
        return out

    return run


def cli_commands(g: random.Random) -> list[CliCommand]:
    """verify and the sampled commands repeat fixed arguments: verify's
    golden-section rows would meet the ~0.3% of (r, R) where the search
    misses theta* by more than 1e-9, and a sampled command is a 4-sigma
    check that a fresh seed per repeat would fail by chance."""
    seeds = [g.randrange(1, 2**31) for _ in range(3)]
    theta = f"{g.uniform(0.1, 0.6):.6f}"
    return [
        CliCommand("verify", ("verify", "-R", "10000")),
        # Records the known-defect row: max_gain_within_cap passes at R=100.
        CliCommand("sweep", lambda r: ("sweep", "-R", "100", "--theta-points",
                                       str(r.randrange(40, 81)), "--format", "csv"),
                   fmt="csv"),
        CliCommand("entangle", lambda r: ("entangle", "-R", f"{10.0 ** r.uniform(2, 5):.6g}")),
        CliCommand("honest", ("honest", "--seed", str(seeds[0]), "--rounds", "200000",
                              "-R", "100")),
        CliCommand("cheat", ("cheat", "--seed", str(seeds[1]), "--rounds", "200000",
                             "-r", "0.05", "-R", "100", "--theta", theta, "--claim", "zero")),
        CliCommand("honest_transcript",
                   ("honest", "--seed", str(seeds[2]), "--rounds", "20000", "-R", "100",
                    "--transcript-rounds", "2000", "--format", "csv"),
                   fmt="csv", transcript=True),
    ]


def _cli(g: random.Random, work: Path, in_process: bool) -> list[Op]:
    """One fresh interpreter per operation, or with `in_process` the same
    commands through cli.main in this process (keys inproc0, inproc1, ...)."""
    base = g.getrandbits(64)
    ops = []
    for i, cmd in enumerate(cli_commands(g)):
        key = f"inproc{i}" if in_process else f"cli{i}"

        def inputs(v, i=i, cmd=cmd, key=key):
            argv = cmd.argv(work, key, random.Random(f"{base}:cli{i}:{v}"))
            return argv + ["--output", str(work / f"{key}.{cmd.fmt}")] if in_process else argv

        run = _cli_in_process(cmd) if in_process else _cli_child(cmd)
        ops.append(Op(key, cmd.name, run, inputs, cmd.varies))
    return ops


# --------------------------------------------------------------------------

def build(workload: str, seed: int, work: Path | None = None,
          in_process: bool = False) -> list[Op]:
    """The workload's distinct operations, in a seeded order.  `work` is the
    directory for files the CLI writes; `in_process` (cli_cold only) gives
    the in-process variant of each command."""
    g = random.Random(f"{workload}:{seed}")
    if workload == "crosscheck_grid":
        ops = _crosscheck(g)
    elif workload == "exact_analysis":
        ops = _exact(g)
    elif workload == "reference_engine":
        ops = _engine(g)
    elif workload == "cli_cold":
        import qgamble.cli  # noqa: F401  (a cold command is ready once the CLI is imported)

        ops = _cli(g, work or Path("."), in_process)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    g.shuffle(ops)
    return ops
