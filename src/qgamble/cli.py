"""Command-line experiment harness.

Subcommands: ``honest`` (play honest sessions), ``cheat`` (one fixed
cheating preparation, oracle vs Monte Carlo), ``sweep`` (grid of cheating
preparations against the security cap), ``entangle`` (entanglement-attack
policies vs the honest baseline), ``verify`` (the full closed-form /
oracle / optimizer cross-check suite).

Results are a single deterministic document (JSON or CSV) echoing the
full configuration, so a result file alone reproduces the run.  Exit code
0 means every embedded check passed, 1 means some check failed, 2 means
the configuration was invalid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import __version__, analysis
from .protocol import (
    ProtocolParams,
    StateLabel,
    run_session,
    run_session_fast,
    session_rng,
)
from .qubits import BASIS_X, BASIS_Z, Subsystem, project_subsystem
from .strategies import (
    CheatPoint,
    ClaimPolicy,
    entangled_cheat,
    fixed_state_cheat,
    honest_alice,
    honest_bob,
)

_PREFERRED_COLUMNS = [
    "section",
    "name",
    "theta",
    "phi",
    "claim",
    "value",
    "std_error",
    "expected",
    "tolerance",
    "comparison",
    "passed",
]


@dataclass
class ResultDocument:
    command: str
    config: dict
    rows: list[dict] = field(default_factory=list)
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(r.get("passed", True) for r in self.rows)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "rows": self.rows,
            "passed": self.passed,
            "version": self.version,
        }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize(doc: ResultDocument, fmt: str) -> bytes:
    """Render a result document; identical documents serialize identically."""
    if fmt == "json":
        text = json.dumps(doc.as_dict(), indent=2, sort_keys=True) + "\n"
        return text.encode()
    if fmt == "csv":
        rows = [
            {"section": "meta", "name": "command", "value": doc.command},
            {"section": "meta", "name": "version", "value": doc.version},
            {"section": "meta", "name": "passed", "value": doc.passed},
        ]
        rows += [
            {"section": "config", "name": k, "value": v}
            for k, v in sorted(doc.config.items())
        ]
        rows += doc.rows
        keys = {k for r in rows for k in r}
        header = [c for c in _PREFERRED_COLUMNS if c in keys]
        header += sorted(keys - set(header))
        lines = [",".join(header)]
        for r in rows:
            lines.append(",".join(_csv_cell(r.get(k)) for k in header))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown output format {fmt!r}")


def _emit(doc: ResultDocument, fmt: str, output: str | None) -> None:
    data = serialize(doc, fmt)
    if output:
        Path(output).write_bytes(data)
    else:
        click.get_binary_stream("stdout").write(data)


def _metric(name, value, std_error=None, **extra) -> dict:
    row = {"section": "metric", "name": name, "value": value}
    if std_error is not None:
        row["std_error"] = std_error
    row.update(extra)
    return row


def _check_close(name, value, expected, tolerance, **extra) -> dict:
    return {
        "section": "check",
        "name": name,
        "value": value,
        "expected": expected,
        "tolerance": tolerance,
        "comparison": "within",
        "passed": abs(value - expected) <= tolerance,
        **extra,
    }


def _check_at_most(name, value, bound, **extra) -> dict:
    return {
        "section": "check",
        "name": name,
        "value": value,
        "expected": bound,
        "tolerance": 0.0,
        "comparison": "at_most",
        "passed": value <= bound,
        **extra,
    }


def _check_at_least(name, value, bound, **extra) -> dict:
    return {
        "section": "check",
        "name": name,
        "value": value,
        "expected": bound,
        "tolerance": 0.0,
        "comparison": "at_least",
        "passed": value >= bound,
        **extra,
    }


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise click.BadParameter(str(exc), param_hint="--config")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.BadParameter(
                f"line {lineno} is not key=value: {raw!r}", param_hint="--config"
            )
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def _resolve(explicit, cfg: dict, key: str, default, cast):
    if explicit is not None:
        return explicit
    if key in cfg:
        try:
            return cast(cfg[key])
        except (TypeError, ValueError):
            raise click.BadParameter(
                f"config value {cfg[key]!r} is invalid", param_hint=key
            )
    return default() if callable(default) else default


def _validated_params(check_rate, penalty, noise) -> ProtocolParams:
    if not (math.isfinite(penalty) and penalty > 0):
        raise click.BadParameter(
            f"penalty must be positive and finite, got {penalty}", param_hint="--penalty"
        )
    if check_rate is None:
        check_rate = analysis.optimal_check_rate(penalty).check_rate
    if not 0.0 < check_rate < 1.0:
        raise click.BadParameter(
            f"check rate must lie in (0, 1), got {check_rate}",
            param_hint="--check-rate",
        )
    if not 0.0 <= noise < 1.0:
        raise click.BadParameter(
            f"noise must lie in [0, 1), got {noise}", param_hint="--noise"
        )
    return ProtocolParams(check_rate, penalty, noise=noise)


def _common_config(seed, rounds, params: ProtocolParams, fmt, output) -> dict:
    return {
        "seed": seed,
        "rounds": rounds,
        "check_rate": params.check_rate,
        "penalty": params.penalty,
        "noise": params.noise,
        "output_format": fmt,
        "output_path": output or "",
    }


def _write_transcript(path, fmt, alice, bob, params, rounds, rng) -> None:
    rows: list[dict] = []
    run_session(alice, bob, params, rounds, rng, on_round=lambda rec: rows.append(rec.as_row()))
    if fmt == "json":
        Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return
    header = ["round_type", "bob_guess", "alice_claim", "check_result", "transfer"]
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(_csv_cell(r[k]) for k in header))
    Path(path).write_text("\n".join(lines) + "\n")


def _shared_options(fn):
    fn = click.option("--config", "config_path", default=None, metavar="PATH",
                      help="Flat key=value config file; flags override it.")(fn)
    fn = click.option("--output", default=None, metavar="PATH",
                      help="Write the result document here instead of stdout.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                      default=None, help="Output format (default json).")(fn)
    fn = click.option("--noise", type=float, default=None,
                      help="Pauli noise rate on the transmitted qubit (default 0).")(fn)
    fn = click.option("--penalty", "-R", type=float, default=None,
                      help="Coins Alice pays on a failed check (default 10000).")(fn)
    fn = click.option("--check-rate", "-r", type=float, default=None,
                      help="Checking-round rate (default: optimal for the penalty).")(fn)
    fn = click.option("--rounds", type=int, default=None,
                      help="Rounds per session (default 1000000).")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Master seed (default 0).")(fn)
    return fn


def _resolve_shared(seed, rounds, check_rate, penalty, noise, fmt, output, config_path):
    cfg = _load_config_file(config_path)
    seed = _resolve(seed, cfg, "seed", 0, int)
    rounds = _resolve(rounds, cfg, "rounds", 1_000_000, int)
    penalty = _resolve(penalty, cfg, "penalty", 10_000.0, float)
    check_rate = _resolve(check_rate, cfg, "check_rate", None, float)
    noise = _resolve(noise, cfg, "noise", 0.0, float)
    fmt = _resolve(fmt, cfg, "format", "json", str)
    output = _resolve(output, cfg, "output", None, str)
    if rounds < 2:
        raise click.BadParameter("rounds must be at least 2", param_hint="--rounds")
    if fmt not in ("json", "csv"):
        raise click.BadParameter(f"unknown format {fmt!r}", param_hint="--format")
    rate_was_default = check_rate is None
    params = _validated_params(check_rate, penalty, noise)
    return seed, rounds, params, fmt, output, cfg, rate_was_default


@click.group()
@click.version_option(__version__)
def main():
    """Simulate and analyze the two-state quantum gambling game."""


@main.command()
@_shared_options
@click.option("--transcript", default=None, metavar="PATH",
              help="Also export a per-round transcript of a reference-engine session.")
@click.option("--transcript-rounds", type=int, default=1000, show_default=True,
              help="Rounds in the transcript session.")
@click.pass_context
def honest(ctx, seed, rounds, check_rate, penalty, noise, fmt, output, config_path,
           transcript, transcript_rounds):
    """Honest play: session statistics and the win rate against theory."""
    seed, rounds, params, fmt, output, _, _ = _resolve_shared(
        seed, rounds, check_rate, penalty, noise, fmt, output, config_path
    )
    p = analysis.protocol_constants().guess_prob
    alice = honest_alice()
    stats = run_session_fast(
        alice.branch_model().members, params, rounds, session_rng(seed, 0)
    )
    oracle = analysis.oracle_expected_gain(alice, params)
    mc = analysis.monte_carlo_gain(stats)

    rows = [
        _metric("rounds_played", float(stats.rounds)),
        _metric("check_rounds", float(stats.check_rounds)),
        _metric("check_fails", float(stats.check_fails)),
        _metric("aborted", stats.aborted),
        _metric("alice_gain_per_round", mc.mean, std_error=mc.std_error),
        _metric("oracle_gain_per_round", oracle.total),
    ]
    if stats.normal_rounds > 0:
        win_rate = stats.normal_win_rate
        sigma = math.sqrt(p * (1.0 - p) / stats.normal_rounds)
        rows.append(_metric("bob_win_rate", win_rate))
        if params.noise == 0.0:
            rows.append(
                _check_close("win_rate_matches_theory", win_rate, p, 4.0 * sigma)
            )
    sigma_exact = math.sqrt(
        analysis.oracle_transfer_variance(alice, params) / stats.rounds
    )
    rows.append(
        _check_close(
            "monte_carlo_matches_oracle", mc.mean, oracle.total, 4.0 * sigma_exact
        )
    )
    if transcript:
        _write_transcript(
            transcript, fmt, honest_alice(), honest_bob(params.check_rate),
            params, transcript_rounds, session_rng(seed, 1),
        )
    config = _common_config(seed, rounds, params, fmt, output)
    config["transcript"] = transcript or ""
    doc = ResultDocument("honest", config, rows)
    _emit(doc, fmt, output)
    ctx.exit(0 if doc.passed else 1)


def _parse_claim(claim: str) -> ClaimPolicy:
    try:
        return ClaimPolicy(claim)
    except ValueError:
        raise click.BadParameter(
            f"claim must be one of zero, plus, nearest; got {claim!r}",
            param_hint="--claim",
        )


@main.command()
@_shared_options
@click.option("--theta", type=float, default=None, help="Polar Bloch angle in [0, pi].")
@click.option("--phi", type=float, default=None,
              help="Azimuthal Bloch angle in [0, 2*pi) (default 0).")
@click.option("--claim", default=None,
              help="Claim policy: zero, plus, or nearest (default nearest).")
@click.pass_context
def cheat(ctx, seed, rounds, check_rate, penalty, noise, fmt, output, config_path,
          theta, phi, claim):
    """One fixed cheating preparation: oracle gain vs Monte Carlo."""
    cfg = _load_config_file(config_path)
    theta = _resolve(theta, cfg, "theta", None, float)
    phi = _resolve(phi, cfg, "phi", 0.0, float)
    claim = _resolve(claim, cfg, "claim", "nearest", str)
    if theta is None:
        raise click.BadParameter("theta is required", param_hint="--theta")
    if not 0.0 <= theta <= math.pi:
        raise click.BadParameter(
            f"theta out of range [0, pi]: {theta}", param_hint="--theta"
        )
    if not 0.0 <= phi < 2.0 * math.pi:
        raise click.BadParameter(
            f"phi out of range [0, 2*pi): {phi}", param_hint="--phi"
        )
    policy = _parse_claim(claim)
    seed, rounds, params, fmt, output, _, _ = _resolve_shared(
        seed, rounds, check_rate, penalty, noise, fmt, output, config_path
    )

    strat = fixed_state_cheat(CheatPoint(theta, phi, policy))
    label = strat.branch_model().members[0][2]
    oracle = analysis.oracle_expected_gain(strat, params)
    stats = run_session_fast(
        strat.branch_model().members, params, rounds, session_rng(seed, 0)
    )
    mc = analysis.monte_carlo_gain(stats)

    rows = [
        _metric("claim_label", label.value),
        _metric("oracle_gain_per_round", oracle.total),
        _metric("oracle_normal_term", oracle.normal_term),
        _metric("oracle_detect_term", oracle.detect_term),
        _metric("oracle_pass_term", oracle.pass_term),
        _metric("monte_carlo_gain_per_round", mc.mean, std_error=mc.std_error),
        _check_close(
            "monte_carlo_matches_oracle",
            mc.mean,
            oracle.total,
            4.0 * math.sqrt(analysis.oracle_transfer_variance(strat, params) / stats.rounds),
        ),
    ]
    if phi == 0.0 and params.noise == 0.0:
        closed = analysis.cheat_gain_exact(theta, params.check_rate, params.penalty, label)
        rows.append(
            _check_close("closed_form_matches_oracle", closed.total, oracle.total, 1e-12)
        )
    config = _common_config(seed, rounds, params, fmt, output)
    config.update({"theta": theta, "phi": phi, "claim": policy.value})
    doc = ResultDocument("cheat", config, rows)
    _emit(doc, fmt, output)
    ctx.exit(0 if doc.passed else 1)


@main.command()
@_shared_options
@click.option("--theta-points", type=int, default=200, show_default=True,
              help="Grid points over [0, theta-max].")
@click.option("--theta-max", type=float, default=math.pi / 4.0, show_default=True)
@click.option("--phi-grid", default="0,0.7853981633974483,1.5707963267948966",
              show_default=True, help="Comma-separated azimuthal angles.")
@click.pass_context
def sweep(ctx, seed, rounds, check_rate, penalty, noise, fmt, output, config_path,
          theta_points, theta_max, phi_grid):
    """Grid sweep of cheating gains against the security cap."""
    seed, rounds, params, fmt, output, _, rate_was_default = _resolve_shared(
        seed, rounds, check_rate, penalty, noise, fmt, output, config_path
    )
    if theta_points < 2:
        raise click.BadParameter("need at least 2 points", param_hint="--theta-points")
    try:
        phis = [float(x) for x in phi_grid.split(",") if x.strip()]
    except ValueError:
        raise click.BadParameter(
            f"could not parse phi grid {phi_grid!r}", param_hint="--phi-grid"
        )
    if not phis:
        raise click.BadParameter("phi grid is empty", param_hint="--phi-grid")

    thetas = [theta_max * i / (theta_points - 1) for i in range(theta_points)]
    result = analysis.sweep_cheat_gain(
        params.check_rate, params.penalty, thetas, phis
    )
    rows = [
        {
            "section": "grid",
            "theta": row.theta,
            "phi": row.phi,
            "claim": row.claim.value,
            "value": row.gain.total,
            "normal_term": row.gain.normal_term,
            "detect_term": row.gain.detect_term,
            "pass_term": row.gain.pass_term,
        }
        for row in result.rows
    ]
    best = result.best
    rows.append(
        _metric("max_gain", best.gain.total, theta=best.theta, phi=best.phi,
                claim=best.claim.value)
    )
    in_plane = all_thetas_peak_in_plane(result, params.check_rate, params.penalty)
    rows.append(
        {
            "section": "check",
            "name": "max_in_zx_plane",
            "value": in_plane,
            "expected": True,
            "tolerance": 0.0,
            "comparison": "equals",
            "passed": in_plane,
        }
    )
    if rate_was_default:
        cap = analysis.optimal_check_rate(params.penalty).gain_cap
        rows.append(_check_at_most("max_gain_within_cap", best.gain.total, 1.1 * cap))
    config = _common_config(seed, rounds, params, fmt, output)
    config.update(
        {"theta_points": theta_points, "theta_max": theta_max,
         "phi_grid": ",".join(format(p, ".17g") for p in phis)}
    )
    doc = ResultDocument("sweep", config, rows)
    _emit(doc, fmt, output)
    ctx.exit(0 if doc.passed else 1)


@main.command()
@_shared_options
@click.pass_context
def entangle(ctx, seed, rounds, check_rate, penalty, noise, fmt, output, config_path):
    """Entanglement-attack policies against the honest baseline."""
    seed, rounds, params, fmt, output, _, _ = _resolve_shared(
        seed, rounds, check_rate, penalty, noise, fmt, output, config_path
    )
    rows = []
    for name, gain in analysis.entangled_policy_gains(params):
        rows.append(_metric(f"policy_gain[{name}]", gain.total))

    honest_gain = analysis.oracle_expected_gain(honest_alice(), params)
    z_policy = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
    rows.append(
        _check_close(
            "constant_z_equals_honest",
            _transcript_distance(z_policy, honest_alice(), params),
            0.0,
            1e-12,
        )
    )
    rows.append(_metric("honest_gain_per_round", honest_gain.total))

    (p_near, _), _ = project_subsystem(
        entangled_cheat({lab: BASIS_X for lab in StateLabel}).branch_model().state,
        Subsystem.A,
        BASIS_X,
    )
    rows.append(
        _check_close(
            "steered_state_weight", p_near, (2.0 + math.sqrt(2.0)) / 4.0, 1e-12
        )
    )
    if params.penalty >= 100.0:
        x_gain = analysis.oracle_expected_gain(
            entangled_cheat({lab: BASIS_X for lab in StateLabel}), params
        )
        rows.append(_check_at_most("constant_x_gain_negative", x_gain.total, 0.0))
    config = _common_config(seed, rounds, params, fmt, output)
    doc = ResultDocument("entangle", config, rows)
    _emit(doc, fmt, output)
    ctx.exit(0 if doc.passed else 1)


def _transcript_distance(alice_a, alice_b, params) -> float:
    da = analysis.oracle_transcript_distribution(alice_a, params)
    db = analysis.oracle_transcript_distribution(alice_b, params)
    keys = set(da) | set(db)
    return max(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)


def verification_checks(check_rate: float | None, penalty: float) -> list[dict]:
    """The closed-form / oracle / optimizer cross-check suite."""
    from .qubits import KET_0, KET_PLUS, Ensemble, ensemble_average_bloch
    from .strategies import standard_attack_state

    consts = analysis.protocol_constants()
    p, loss, slope = consts
    if check_rate is None:
        check_rate = analysis.optimal_check_rate(penalty).check_rate
    params = ProtocolParams(check_rate, penalty)
    checks: list[dict] = []

    checks.append(_check_close("loss_payout_identity", loss, 3.0 + 2.0 * math.sqrt(2.0), 1e-12))
    checks.append(
        _check_close("gain_slope_identity", slope / (1.0 - p), 1.0 + math.sqrt(2.0), 1e-12)
    )

    honest_gain = analysis.oracle_expected_gain(honest_alice(), params)
    checks.append(
        _check_close(
            "honest_normal_rounds_fair",
            honest_gain.normal_term / (1.0 - check_rate),
            0.0,
            1e-12,
        )
    )
    checks.append(
        _check_close(
            "honest_baseline_gain",
            honest_gain.total,
            check_rate * (1.0 + math.sqrt(2.0)),
            1e-12,
        )
    )

    worst = 0.0
    for i in range(25):
        theta = math.pi / 2.0 * i / 24.0
        for claim in StateLabel:
            closed = analysis.cheat_gain_exact(theta, check_rate, penalty, claim)
            strat = fixed_state_cheat(
                CheatPoint(theta, 0.0, ClaimPolicy(claim.value))
            )
            oracle = analysis.oracle_expected_gain(strat, params)
            worst = max(worst, abs(closed.total - oracle.total))
            ceiling = analysis.claim_gain_upper_bound(theta, check_rate, penalty, claim)
            if oracle.total > ceiling + 1e-12:
                checks.append(
                    _check_at_most(
                        f"gain_ceiling[theta={theta:.4f},{claim.value}]",
                        oracle.total,
                        ceiling + 1e-12,
                    )
                )
    checks.append(_check_close("closed_form_matches_oracle_grid", worst, 0.0, 1e-12))

    opt = analysis.quadratic_bound_optimum(check_rate, penalty)
    theta_gs, gain_gs = analysis.golden_section_max(
        lambda t: analysis.cheat_gain_quadratic_bound(t, check_rate, penalty),
        0.0,
        math.pi / 4.0,
    )
    checks.append(_check_close("optimizer_matches_theta_star", theta_gs, opt.theta_star, 1e-9))
    checks.append(_check_close("optimizer_matches_gain_max", gain_gs, opt.gain_max, 1e-9))

    for pen in (10.0, 100.0, 1000.0, 10_000.0, 1_000_000.0):
        rate, cap = analysis.optimal_check_rate(pen)
        ident = analysis.quadratic_bound_optimum(rate, pen).gain_max
        checks.append(_check_close(f"cap_identity[R={pen:g}]", ident, cap, 1e-12))
    cap_small = analysis.optimal_check_rate(100.0).gain_cap
    cap_large = analysis.optimal_check_rate(10_000.0).gain_cap
    checks.append(_check_close("cap_scaling_sqrt", cap_small / cap_large, 10.0, 1e-9))

    min_margin = math.inf
    for i in range(25):
        theta = math.pi * i / 24.0
        for j in range(25):
            r = (j + 1) / 26.0
            for guess in StateLabel:
                f_u = analysis.unmeasured_posterior(theta, r, guess)
                min_margin = min(min_margin, f_u - 0.5 * r)
    checks.append(_check_at_least("posterior_floor", min_margin, -1e-15))

    legal = Ensemble(((0.5, KET_0), (0.5, KET_PLUS)))
    avg = ensemble_average_bloch(legal)
    checks.append(_check_close("legal_mixture_bloch_x", avg.x, 0.5, 1e-12))
    checks.append(_check_close("legal_mixture_bloch_z", avg.z, 0.5, 1e-12))

    z_attack = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
    checks.append(
        _check_close(
            "constant_z_attack_equals_honest",
            _transcript_distance(z_attack, honest_alice(), params),
            0.0,
            1e-12,
        )
    )
    x_attack = entangled_cheat({lab: BASIS_X for lab in StateLabel})
    (p_near, _), _ = project_subsystem(standard_attack_state(), Subsystem.A, BASIS_X)
    checks.append(
        _check_close("steered_state_weight", p_near, (2.0 + math.sqrt(2.0)) / 4.0, 1e-12)
    )
    if penalty >= 100.0:
        checks.append(
            _check_at_most(
                "constant_x_attack_loses",
                analysis.oracle_expected_gain(x_attack, params).total,
                0.0,
            )
        )

    rate_star, cap = analysis.optimal_check_rate(penalty)
    thetas = [math.pi / 4.0 * i / 39.0 for i in range(40)]
    phis = [0.0, math.pi / 4.0, math.pi / 2.0]
    result = analysis.sweep_cheat_gain(rate_star, penalty, thetas, phis)
    checks.append(
        _check_at_most("sweep_max_within_cap", result.best.gain.total, 1.1 * cap)
    )
    in_plane = all_thetas_peak_in_plane(result, rate_star, penalty)
    checks.append(
        {
            "section": "check",
            "name": "sweep_max_in_zx_plane",
            "value": in_plane,
            "expected": True,
            "tolerance": 0.0,
            "comparison": "equals",
            "passed": in_plane,
        }
    )
    return checks


def all_thetas_peak_in_plane(result, check_rate: float, penalty: float) -> bool:
    """True when, for every swept theta, no swept phi beats the better
    in-plane azimuth after maximizing over the claim.

    The in-plane azimuths are 0 and pi, and azimuth pi is polar angle
    -theta, so the in-plane best is the closed form at +theta or -theta.
    The 1e-12 slack absorbs rounding between the sweep's oracle values
    and the closed form.
    """
    best_at: dict[float, float] = {}
    for row in result.rows:
        best_at[row.theta] = max(best_at.get(row.theta, -math.inf), row.gain.total)
    for theta, best in best_at.items():
        in_plane = max(
            analysis.cheat_gain_exact(polar, check_rate, penalty, claim).total
            for polar in (theta, -theta)
            for claim in StateLabel
        )
        if best > in_plane + 1e-12:
            return False
    return True


@main.command()
@_shared_options
@click.pass_context
def verify(ctx, seed, rounds, check_rate, penalty, noise, fmt, output, config_path):
    """Run the full closed-form / oracle / optimizer cross-check suite."""
    seed, rounds, params, fmt, output, _, rate_default = _resolve_shared(
        seed, rounds, check_rate, penalty, noise, fmt, output, config_path
    )
    rows = verification_checks(
        None if rate_default else params.check_rate, params.penalty
    )
    config = _common_config(seed, rounds, params, fmt, output)
    doc = ResultDocument("verify", config, rows)
    _emit(doc, fmt, output)
    ctx.exit(0 if doc.passed else 1)


if __name__ == "__main__":
    main()
