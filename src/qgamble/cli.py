"""Command-line experiment harness.

Subcommands: ``honest`` (play honest sessions), ``cheat`` (one fixed
cheating preparation, oracle vs Monte Carlo), ``sweep`` (grid of cheating
preparations against the security cap), ``entangle`` (entanglement-attack
policies vs the honest baseline), ``verify`` (the full closed-form /
oracle / optimizer cross-check suite).

Every option lives in one table, `_OPTIONS`, and each command lists the
keys it reads.  A value comes from its flag, else from the ``--config``
file, else from the table's default.  Results are a single deterministic
document (JSON or CSV) whose ``config`` holds the resolved values under
their config-file keys, so feeding a result's ``config`` back through
``--config`` replays the run byte for byte.  Exit code 0 means every
embedded check passed, 1 means some check failed, 2 means the
configuration was invalid.
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
from .qubits import (
    BASIS_X,
    BASIS_Z,
    KET_0,
    KET_PLUS,
    Ensemble,
    Subsystem,
    ensemble_average_bloch,
    project_subsystem,
)
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
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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


def _emit(doc: ResultDocument, fmt: str, output: str) -> None:
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


_COMPARISONS = {
    "within": lambda value, expected, tolerance: abs(value - expected) <= tolerance,
    "at_most": lambda value, expected, tolerance: value <= expected,
    "at_least": lambda value, expected, tolerance: value >= expected,
    "equals": lambda value, expected, tolerance: value == expected,
}


def _check(name, value, expected, comparison, tolerance=0.0) -> dict:
    return {
        "section": "check",
        "name": name,
        "value": value,
        "expected": expected,
        "tolerance": tolerance,
        "comparison": comparison,
        "passed": _COMPARISONS[comparison](value, expected, tolerance),
    }


# --------------------------------------------------------------------------
# The option table.


class _FloatList(click.ParamType):
    """Comma-separated numbers, normalized to 17 significant digits so the
    echoed value parses back to the same floats."""

    name = "floats"

    def convert(self, value, param, ctx):
        try:
            floats = [float(x) for x in str(value).split(",") if x.strip()]
        except ValueError:
            self.fail(f"could not parse {value!r} as comma-separated numbers", param, ctx)
        if not floats:
            self.fail("the list is empty", param, ctx)
        return ",".join(format(x, ".17g") for x in floats)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _optimal_rate(config: dict) -> float:
    return analysis.optimal_check_rate(config["penalty"]).check_rate


@dataclass(frozen=True)
class _Option:
    key: str  # config-file key, click parameter name and echoed config key
    flags: tuple[str, ...]
    type: click.ParamType
    #: A value; or a function of the values resolved before this one; or
    #: None when the option is required.
    default: object
    help: str
    #: What a valid (finite) value satisfies, and that rule in words.
    valid: object = None
    rule: str = ""


_OPTIONS = {opt.key: opt for opt in (
    _Option("seed", ("--seed",), click.INT, 0, "Master seed (default 0).",
            lambda v: v >= 0, "non-negative"),
    _Option("rounds", ("--rounds",), click.INT, 1_000_000,
            "Rounds per session (default 1000000).", lambda v: v >= 2, "at least 2"),
    _Option("penalty", ("--penalty", "-R"), click.FLOAT, 10_000.0,
            "Coins Alice pays on a failed check (default 10000).",
            lambda v: v > 0.0, "positive"),
    _Option("check_rate", ("--check-rate", "-r"), click.FLOAT, _optimal_rate,
            "Checking-round rate (default: optimal for the penalty).",
            lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    _Option("noise", ("--noise",), click.FLOAT, 0.0,
            "Pauli noise rate on the transmitted qubit (default 0).",
            lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    _Option("theta", ("--theta",), click.FLOAT, None, "Polar Bloch angle in [0, pi].",
            lambda v: 0.0 <= v <= math.pi, "in [0, pi]"),
    _Option("phi", ("--phi",), click.FLOAT, 0.0,
            "Azimuthal Bloch angle in [0, 2*pi) (default 0).",
            lambda v: 0.0 <= v < 2.0 * math.pi, "in [0, 2*pi)"),
    _Option("claim", ("--claim",), click.Choice([p.value for p in ClaimPolicy]),
            "nearest", "Claim policy (default nearest)."),
    _Option("theta_points", ("--theta-points",), click.INT, 200,
            "Grid points over [0, theta-max] (default 200).",
            lambda v: v >= 2, "at least 2"),
    _Option("theta_max", ("--theta-max",), click.FLOAT, math.pi / 4.0,
            "Largest swept polar angle, in (0, pi] (default pi/4).",
            lambda v: 0.0 < v <= math.pi, "in (0, pi]"),
    _Option("phi_grid", ("--phi-grid",), _FloatList(),
            "0,0.7853981633974483,1.5707963267948966",
            "Comma-separated azimuthal angles (default 0,pi/4,pi/2).",
            lambda v: all(math.isfinite(x) for x in _floats(v)), "finite"),
    _Option("transcript", ("--transcript",), click.Path(), "",
            "Also export a per-round transcript of a reference-engine session to PATH."),
    _Option("transcript_rounds", ("--transcript-rounds",), click.INT, 1000,
            "Rounds in the transcript session (default 1000).",
            lambda v: v >= 1, "at least 1"),
    _Option("format", ("--format",), click.Choice(["json", "csv"]), "json",
            "Output format (default json)."),
    _Option("output", ("--output",), click.Path(), "",
            "Write the result document to PATH instead of stdout."),
)}

#: Read by every command, to write its result document.
_OUTPUT_KEYS = ("format", "output")


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


def _resolve(command: str, keys: tuple[str, ...], flags: dict, config_path) -> dict:
    """Flag over config file over default, for the options `keys`, each
    converted, checked finite and checked against its rule.  Returns the
    values under their config-file keys; any other key in the file is an
    error."""
    file_values = _load_config_file(config_path)
    for key in file_values:
        if key not in keys:
            raise click.BadParameter(
                f"{command} reads no key {key!r}; its keys are {', '.join(sorted(keys))}",
                param_hint="--config",
            )
    config: dict = {}
    for opt in _OPTIONS.values():
        if opt.key not in keys:
            continue
        hint = opt.flags[0]
        if flags[opt.key] is not None:
            value = flags[opt.key]
        elif opt.key in file_values:
            value, hint = file_values[opt.key], f"config key {opt.key!r}"
        elif opt.default is None:
            raise click.BadParameter(f"{opt.key} is required", param_hint=hint)
        else:
            value = opt.default(config) if callable(opt.default) else opt.default
        try:
            value = opt.type.convert(value, None, None)
        except click.BadParameter as exc:
            raise click.BadParameter(exc.message, param_hint=hint)
        if isinstance(value, float) and not math.isfinite(value):
            raise click.BadParameter(f"must be finite, got {value}", param_hint=hint)
        if opt.valid is not None and not opt.valid(value):
            raise click.BadParameter(f"must be {opt.rule}, got {value}", param_hint=hint)
        config[opt.key] = value
    return config


@click.group()
@click.version_option(__version__)
def main():
    """Simulate and analyze the two-state quantum gambling game."""


def _command(*keys: str):
    """Register the decorated function as a subcommand that reads the table
    options `keys` (plus the output options).  The function maps the
    resolved config to the rows of the result document."""
    keys = keys + _OUTPUT_KEYS

    def register(rows_for):
        name = rows_for.__name__

        def run(config_path, **flags):
            config = _resolve(name, keys, flags, config_path)
            doc = ResultDocument(name, config, rows_for(config))
            _emit(doc, config["format"], config["output"])
            click.get_current_context().exit(0 if doc.passed else 1)

        run = click.option("--config", "config_path", default=None, metavar="PATH",
                           help="Flat key = value config file; flags override it.")(run)
        for key in reversed(keys):
            opt = _OPTIONS[key]
            run = click.option(*opt.flags, opt.key, type=opt.type, default=None,
                               help=opt.help)(run)
        return main.command(name, help=rows_for.__doc__)(run)

    return register


def _params(config: dict) -> ProtocolParams:
    return ProtocolParams(config["check_rate"], config["penalty"], noise=config["noise"])


# --------------------------------------------------------------------------
# Check rows shared by several commands.


def _transcript_distance(alice_a, alice_b, params) -> float:
    da = analysis.oracle_transcript_distribution(alice_a, params)
    db = analysis.oracle_transcript_distribution(alice_b, params)
    keys = set(da) | set(db)
    return max(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)


def _entanglement_checks(params: ProtocolParams) -> list[dict]:
    """The constant-z attack is honest play, the x-basis steering weight,
    and (for R >= 100) the constant-x attack loses."""
    z_attack = entangled_cheat({lab: BASIS_Z for lab in StateLabel})
    x_attack = entangled_cheat({lab: BASIS_X for lab in StateLabel})
    (p_near, _), _ = project_subsystem(x_attack.branch_model().state, Subsystem.A, BASIS_X)
    rows = [
        _check("constant_z_equals_honest",
               _transcript_distance(z_attack, honest_alice(), params), 0.0, "within", 1e-12),
        _check("steered_state_weight", p_near, (2.0 + math.sqrt(2.0)) / 4.0, "within", 1e-12),
    ]
    if params.penalty >= 100.0:
        x_gain = analysis.oracle_expected_gain(x_attack, params)
        rows.append(_check("constant_x_gain_negative", x_gain.total, 0.0, "at_most"))
    return rows


def _theta_grid(theta_max: float, points: int) -> list[float]:
    return [theta_max * i / (points - 1) for i in range(points)]


def _sweep_checks(result: analysis.SweepResult, check_rate: float, penalty: float) -> list[dict]:
    """The sweep peaks in the z-x plane, and, at the optimal check rate for
    the penalty, stays within 1.1 times the cap."""
    in_plane = analysis.all_thetas_peak_in_plane(result, check_rate, penalty)
    rows = [_check("max_in_zx_plane", in_plane, True, "equals")]
    rate_star, cap = analysis.optimal_check_rate(penalty)
    if check_rate == rate_star:
        rows.append(_check("max_gain_within_cap", result.best.gain.total, 1.1 * cap, "at_most"))
    return rows


def _sampled_session(alice, params: ProtocolParams, config: dict):
    """`alice` against honest Bob on the count-level sampler: the stats, the
    oracle gain, the Monte Carlo estimate and the row holding the two together."""
    stats = run_session_fast(
        alice.branch_model().members, params, config["rounds"], session_rng(config["seed"], 0)
    )
    oracle = analysis.oracle_expected_gain(alice, params)
    mc = analysis.monte_carlo_gain(stats)
    sigma = math.sqrt(analysis.oracle_transfer_variance(alice, params) / stats.rounds)
    row = _check("monte_carlo_matches_oracle", mc.mean, oracle.total, "within", 4.0 * sigma)
    return stats, oracle, mc, row


# --------------------------------------------------------------------------
# Commands.


@_command("seed", "rounds", "check_rate", "penalty", "noise", "transcript",
          "transcript_rounds")
def honest(config):
    """Honest play: session statistics and the win rate against theory."""
    params = _params(config)
    p = analysis.protocol_constants().guess_prob
    stats, oracle, mc, matches = _sampled_session(honest_alice(), params, config)
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
            rows.append(_check("win_rate_matches_theory", win_rate, p, "within", 4.0 * sigma))
    rows.append(matches)
    if config["transcript"]:
        _write_transcript(
            config["transcript"], config["format"], honest_alice(),
            honest_bob(params.check_rate), params, config["transcript_rounds"],
            session_rng(config["seed"], 1),
        )
    return rows


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


@_command("seed", "rounds", "check_rate", "penalty", "noise", "theta", "phi", "claim")
def cheat(config):
    """One fixed cheating preparation: oracle gain vs Monte Carlo."""
    params = _params(config)
    theta, phi = config["theta"], config["phi"]
    strat = fixed_state_cheat(CheatPoint(theta, phi, ClaimPolicy(config["claim"])))
    label = strat.branch_model().members[0][2]
    _, oracle, mc, matches = _sampled_session(strat, params, config)
    rows = [
        _metric("claim_label", label.value),
        _metric("oracle_gain_per_round", oracle.total),
        _metric("oracle_normal_term", oracle.normal_term),
        _metric("oracle_detect_term", oracle.detect_term),
        _metric("oracle_pass_term", oracle.pass_term),
        _metric("monte_carlo_gain_per_round", mc.mean, std_error=mc.std_error),
        matches,
    ]
    if phi == 0.0 and params.noise == 0.0:
        closed = analysis.cheat_gain_exact(theta, params.check_rate, params.penalty, label)
        rows.append(_check(
            "closed_form_matches_oracle", closed.total, oracle.total, "within",
            analysis.exact_tolerance(closed.total, oracle.total),
        ))
    return rows


@_command("check_rate", "penalty", "theta_points", "theta_max", "phi_grid")
def sweep(config):
    """Grid sweep of cheating gains against the security cap."""
    rate, penalty = config["check_rate"], config["penalty"]
    result = analysis.sweep_cheat_gain(
        rate, penalty, _theta_grid(config["theta_max"], config["theta_points"]),
        _floats(config["phi_grid"]),
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
    return rows + _sweep_checks(result, rate, penalty)


@_command("check_rate", "penalty", "noise")
def entangle(config):
    """Entanglement-attack policies against the honest baseline."""
    params = _params(config)
    rows = [
        _metric(f"policy_gain[{name}]", gain.total)
        for name, gain in analysis.entangled_policy_gains(params)
    ]
    honest_gain = analysis.oracle_expected_gain(honest_alice(), params)
    rows.append(_metric("honest_gain_per_round", honest_gain.total))
    return rows + _entanglement_checks(params)


def verification_checks(check_rate: float, penalty: float) -> list[dict]:
    """The closed-form / oracle / optimizer cross-check suite."""
    p, loss, slope = analysis.protocol_constants()
    params = ProtocolParams(check_rate, penalty)
    checks = [
        _check("loss_payout_identity", loss, 3.0 + 2.0 * math.sqrt(2.0), "within", 1e-12),
        _check("gain_slope_identity", slope / (1.0 - p), 1.0 + math.sqrt(2.0), "within", 1e-12),
    ]

    honest_gain = analysis.oracle_expected_gain(honest_alice(), params)
    checks.append(_check("honest_normal_rounds_fair",
                         honest_gain.normal_term / (1.0 - check_rate), 0.0, "within", 1e-12))
    checks.append(_check("honest_baseline_gain", honest_gain.total,
                         check_rate * (1.0 + math.sqrt(2.0)), "within", 1e-12))

    # Each gap is divided by the scale `exact_tolerance` applies,
    # max(1, |closed|, |oracle|): absolute up to magnitude 1, relative above.
    worst = 0.0
    for i in range(25):
        theta = math.pi / 2.0 * i / 24.0
        for claim in StateLabel:
            closed = analysis.cheat_gain_exact(theta, check_rate, penalty, claim)
            strat = fixed_state_cheat(
                CheatPoint(theta, 0.0, ClaimPolicy(claim.value))
            )
            oracle = analysis.oracle_expected_gain(strat, params)
            gap = abs(closed.total - oracle.total)
            worst = max(worst, gap * 1e-12 / analysis.exact_tolerance(closed.total, oracle.total))
            ceiling = analysis.claim_gain_upper_bound(theta, check_rate, penalty, claim)
            limit = ceiling + analysis.exact_tolerance(oracle.total, ceiling)
            if oracle.total > limit:
                checks.append(_check(f"gain_ceiling[theta={theta:.4f},{claim.value}]",
                                     oracle.total, limit, "at_most"))
    checks.append(_check("closed_form_matches_oracle_grid", worst, 0.0, "within", 1e-12))

    opt = analysis.quadratic_bound_optimum(check_rate, penalty)
    theta_gs, gain_gs = analysis.golden_section_max(
        lambda t: analysis.cheat_gain_quadratic_bound(t, check_rate, penalty),
        0.0,
        math.pi / 4.0,
    )
    checks.append(
        _check("optimizer_matches_theta_star", theta_gs, opt.theta_star, "within", 1e-9)
    )
    checks.append(_check("optimizer_matches_gain_max", gain_gs, opt.gain_max, "within", 1e-9))

    for pen in (10.0, 100.0, 1000.0, 10_000.0, 1_000_000.0):
        rate, cap = analysis.optimal_check_rate(pen)
        ident = analysis.quadratic_bound_optimum(rate, pen).gain_max
        checks.append(_check(f"cap_identity[R={pen:g}]", ident, cap, "within", 1e-12))
    cap_small = analysis.optimal_check_rate(100.0).gain_cap
    cap_large = analysis.optimal_check_rate(10_000.0).gain_cap
    checks.append(_check("cap_scaling_sqrt", cap_small / cap_large, 10.0, "within", 1e-9))

    min_margin = math.inf
    for i in range(25):
        theta = math.pi * i / 24.0
        for j in range(25):
            r = (j + 1) / 26.0
            for guess in StateLabel:
                f_u = analysis.unmeasured_posterior(theta, r, guess)
                min_margin = min(min_margin, f_u - 0.5 * r)
    checks.append(_check("posterior_floor", min_margin, -1e-15, "at_least"))

    avg = ensemble_average_bloch(Ensemble(((0.5, KET_0), (0.5, KET_PLUS))))
    checks.append(_check("legal_mixture_bloch_x", avg.x, 0.5, "within", 1e-12))
    checks.append(_check("legal_mixture_bloch_z", avg.z, 0.5, "within", 1e-12))

    checks += _entanglement_checks(params)
    result = analysis.sweep_cheat_gain(
        check_rate, penalty, _theta_grid(math.pi / 4.0, 40),
        [0.0, math.pi / 4.0, math.pi / 2.0],
    )
    return checks + _sweep_checks(result, check_rate, penalty)


@_command("check_rate", "penalty")
def verify(config):
    """Run the full closed-form / oracle / optimizer cross-check suite."""
    return verification_checks(config["check_rate"], config["penalty"])


if __name__ == "__main__":
    main()
