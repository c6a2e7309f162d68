"""Exact single- and two-qubit pure-state machinery.

Everything the protocol needs from quantum mechanics lives here: pure
states as pairs (or quadruples) of complex amplitudes, Bloch-vector
conversions, measurement bases, exact Born probabilities and post-states
of projective measurements (a lone qubit or one subsystem of a pair),
Pauli actions, and ensemble averages of Bloch vectors.  Nothing here
samples: the engine's one Born draw is `protocol.SubsystemView.measure`.

States are immutable values.  A global-phase convention (the amplitude of
largest-index-zero basis state is real and nonnegative) makes states from
different code paths directly comparable.  Mixed states never appear as
density matrices; they are handled as ensembles of pure states or as the
Bloch vector of a reduced state, which is all the protocol requires.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal, NamedTuple

__all__ = [
    "ATOL_STATE",
    "ATOL_DERIVED",
    "Outcome",
    "Subsystem",
    "PureQubit",
    "BlochVector",
    "MeasurementBasis",
    "TwoQubitPure",
    "Ensemble",
    "state_from_bloch",
    "bloch_from_state",
    "bloch_angles",
    "overlap",
    "orthogonal_state",
    "project_subsystem",
    "reduced_bloch",
    "ensemble_average_bloch",
    "apply_pauli",
    "apply_pauli_pair",
    "PAULI_AXES",
    "tensor_product",
    "basis_from_bloch_angle",
    "KET_0",
    "KET_1",
    "KET_PLUS",
    "KET_MINUS",
    "DISCRIM_0",
    "DISCRIM_PLUS",
    "BASIS_Z",
    "BASIS_X",
    "BASIS_DISCRIM",
    "OPTIMAL_GUESS_PROB",
]

# Construction-time invariants are enforced at 1e-12; derived quantities
# (round trips, reduced states) are compared at 1e-9.  Double precision
# over at most four amplitudes keeps both comfortably.
ATOL_STATE = 1e-12
ATOL_DERIVED = 1e-9

# Below this magnitude an amplitude is not used as the phase reference.
_PHASE_CUTOFF = 1e-9

PauliAxis = Literal["x", "y", "z"]

#: The three Pauli axes, in the order noise draws index them.
PAULI_AXES: tuple[PauliAxis, ...] = ("x", "y", "z")


class _IdentityEnum(Enum):
    """Base of the package's enums.

    Each enum's members are also bound to private module names beside it
    (`_A`, `_ZERO`, `_NORMAL`, ...), which the per-round and per-branch
    code of every module reads: on Python 3.11, reading a member off its
    Enum class costs about 0.1 us.
    """

    # Members compare by identity, so they hash by it too: Enum.__hash__
    # hashes the member's name in Python.
    __hash__ = object.__hash__


class Outcome(_IdentityEnum):
    """Which projector of a two-outcome measurement fired."""

    PLUS = "plus"
    MINUS = "minus"


_OUTCOME_PLUS, _OUTCOME_MINUS = Outcome.PLUS, Outcome.MINUS


class Subsystem(_IdentityEnum):
    """Tensor-factor labels of a two-qubit state: A is kept, B is sent."""

    A = "A"
    B = "B"


_A, _B = Subsystem.A, Subsystem.B


def _canonical(a0: complex, a1: complex, m0: float, m1: float) -> tuple[complex, complex]:
    """PureQubit's global phase: the first amplitude above _PHASE_CUTOFF
    (else the last) becomes real and nonnegative.  m0 and m1 are the
    amplitudes' magnitudes."""
    mag = m0 if m0 > _PHASE_CUTOFF else m1
    if mag != 0.0:
        phase = (a0 if m0 > _PHASE_CUTOFF else a1) / mag
        a0, a1 = a0 / phase, a1 / phase
    return a0, a1


@dataclass(frozen=True, init=False)
class PureQubit:
    """Normalized single-qubit pure state a0|0> + a1|1>."""

    amp0: complex
    amp1: complex

    def __init__(self, amp0: complex, amp1: complex):
        a0, a1 = complex(amp0), complex(amp1)
        try:
            m0, m1 = abs(a0), abs(a1)
            norm_sq = m0**2 + m1**2
        except OverflowError:
            # An amplitude past about 1.3e154 in magnitude: the norm is
            # infinite, which the test below rejects before m0 is read.
            norm_sq = math.inf
        # One comparison, false on a NaN or infinite amplitude too; the
        # finiteness test only picks the message.
        if not abs(norm_sq - 1.0) <= ATOL_STATE:
            if not (cmath.isfinite(a0) and cmath.isfinite(a1)):
                raise ValueError("amplitudes must be finite")
            raise ValueError(f"state not normalized: |amps|^2 = {norm_sq!r}")
        a0, a1 = _canonical(a0, a1, m0, m1)
        object.__setattr__(self, "amp0", a0)
        object.__setattr__(self, "amp1", a1)

    def inner(self, other: "PureQubit") -> complex:
        """<self|other>."""
        return self.amp0.conjugate() * other.amp0 + self.amp1.conjugate() * other.amp1

    def isclose(self, other: "PureQubit", tol: float = ATOL_DERIVED) -> bool:
        """Amplitude-wise comparison; the phase convention makes this meaningful."""
        return (
            abs(self.amp0 - other.amp0) <= tol and abs(self.amp1 - other.amp1) <= tol
        )


class _BlochFields(NamedTuple):
    x: float
    y: float
    z: float


class BlochVector(_BlochFields):
    """Real 3-vector r with rho = (1 + r.sigma)/2; pure states sit on the unit sphere.

    A tuple of (x, y, z), checked on construction: a value compares equal
    to the plain tuple of its components.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float) -> "BlochVector":
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("Bloch components must be finite")
        v = tuple.__new__(cls, (x, y, z))
        if math.sqrt(x * x + y * y + z * z) > 1.0 + ATOL_STATE:
            raise ValueError(f"Bloch vector outside the unit ball: {v}")
        return v

    @classmethod
    def _make(cls, iterable) -> "BlochVector":
        # namedtuple's _make, and _replace through it, would skip __new__.
        return cls(*iterable)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def isclose(self, other: "BlochVector", tol: float = ATOL_DERIVED) -> bool:
        return (
            abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal qubit pair defining a two-outcome projective measurement."""

    plus: PureQubit
    minus: PureQubit
    label: str = ""

    def __post_init__(self):
        if abs(self.plus.inner(self.minus)) > ATOL_STATE:
            raise ValueError(f"basis states are not orthogonal: {self.label!r}")

    def state_of(self, outcome: Outcome) -> PureQubit:
        return self.plus if outcome is _OUTCOME_PLUS else self.minus


def _two_qubit_amps(amps) -> tuple[complex, complex, complex, complex]:
    """TwoQubitPure's checks and phase convention: the amplitudes as a
    finite, normalized 4-tuple of complex numbers whose first amplitude
    above _PHASE_CUTOFF (else the last) is real and nonnegative."""
    if len(amps) != 4:
        raise ValueError("two-qubit state needs exactly 4 amplitudes")
    a0, a1 = complex(amps[0]), complex(amps[1])
    a2, a3 = complex(amps[2]), complex(amps[3])
    try:
        m0, m1, m2, m3 = abs(a0), abs(a1), abs(a2), abs(a3)
        norm_sq = m0**2 + m1**2 + m2**2 + m3**2
    except OverflowError:
        norm_sq = math.inf  # as in PureQubit
    if not abs(norm_sq - 1.0) <= ATOL_STATE:
        if not (
            cmath.isfinite(a0) and cmath.isfinite(a1)
            and cmath.isfinite(a2) and cmath.isfinite(a3)
        ):
            raise ValueError("amplitudes must be finite")
        raise ValueError(f"state not normalized: |amps|^2 = {norm_sq!r}")
    if m0 > _PHASE_CUTOFF:
        ref, mag = a0, m0
    elif m1 > _PHASE_CUTOFF:
        ref, mag = a1, m1
    elif m2 > _PHASE_CUTOFF:
        ref, mag = a2, m2
    else:
        ref, mag = a3, m3
    if mag != 0.0:
        phase = ref / mag
        a0, a1, a2, a3 = a0 / phase, a1 / phase, a2 / phase, a3 / phase
    return a0, a1, a2, a3


@dataclass(frozen=True, init=False)
class TwoQubitPure:
    """Normalized two-qubit pure state; amplitude order |00>,|01>,|10>,|11>.

    The first index is subsystem A (the sender keeps it), the second is
    subsystem B (transmitted).
    """

    amps: tuple[complex, complex, complex, complex]

    def __init__(self, amps: tuple[complex, complex, complex, complex]):
        object.__setattr__(self, "amps", _two_qubit_amps(amps))

    def amp(self, a: int, b: int) -> complex:
        return self.amps[2 * a + b]


@dataclass(frozen=True, init=False)
class Ensemble:
    """Probability-weighted mixture of pure states."""

    entries: tuple[tuple[float, PureQubit], ...]

    def __init__(self, entries: tuple[tuple[float, PureQubit], ...]):
        # One pass over the entries.  An empty ensemble fails the sum (fsum
        # of nothing is 0.0), and the per-index messages are worked out only
        # on failure, the first fault first.
        checked, weights, valid = [], [], True
        for w, s in entries:
            w = float(w)
            if not (0.0 <= w < math.inf and isinstance(s, PureQubit)):
                valid = False
            checked.append((w, s))
            weights.append(w)
        if not (valid and abs(math.fsum(weights) - 1.0) <= ATOL_STATE):
            if not checked:
                raise ValueError("ensemble must not be empty")
            for i, (w, s) in enumerate(checked):
                if not 0.0 <= w < math.inf:
                    raise ValueError(
                        f"ensemble weight {i} must be nonnegative and finite, got {w!r}"
                    )
                if not isinstance(s, PureQubit):
                    raise ValueError(f"ensemble entry {i} must hold a PureQubit, got {s!r}")
            total = math.fsum(weights)
            raise ValueError(f"ensemble weights must sum to 1, got {total!r}")
        object.__setattr__(self, "entries", tuple(checked))


def state_from_bloch(polar: float, azimuth: float) -> PureQubit:
    """Pure state with Bloch vector (sin p cos a, sin p sin a, cos p)."""
    half = 0.5 * polar
    return PureQubit(math.cos(half), cmath.exp(1j * azimuth) * math.sin(half))


def _bloch_xyz(state: PureQubit) -> tuple[float, float, float]:
    """Bloch components of a pure state, without building a BlochVector."""
    cross = state.amp0.conjugate() * state.amp1
    return 2.0 * cross.real, 2.0 * cross.imag, abs(state.amp0) ** 2 - abs(state.amp1) ** 2


def bloch_from_state(state: PureQubit) -> BlochVector:
    return BlochVector(*_bloch_xyz(state))


def bloch_angles(v: BlochVector) -> tuple[float, float]:
    """(polar, azimuth) of a Bloch vector; well conditioned at the poles."""
    return math.atan2(math.hypot(v.x, v.y), v.z), math.atan2(v.y, v.x)


def overlap(a: PureQubit, b: PureQubit) -> float:
    """Transition probability |<a|b>|^2, clipped into [0, 1]."""
    inner = a.amp0.conjugate() * b.amp0 + a.amp1.conjugate() * b.amp1
    return min(1.0, max(0.0, abs(inner) ** 2))


def orthogonal_state(state: PureQubit) -> PureQubit:
    """The unique (up to phase) state orthogonal to `state`."""
    return PureQubit(-state.amp1.conjugate(), state.amp0.conjugate())


def basis_from_bloch_angle(polar: float, label: str = "") -> MeasurementBasis:
    """Projective basis in the z-x plane; `plus` points along the given polar angle."""
    plus = state_from_bloch(polar, 0.0)
    return MeasurementBasis(plus, orthogonal_state(plus), label or f"zx({polar:.6f})")


def _residue(
    state: TwoQubitPure, which: Subsystem, onto: PureQubit
) -> tuple[complex, complex, float]:
    """Unnormalized partner amplitudes left by projecting `which` onto `onto`,
    and their squared norm."""
    s00, s01, s10, s11 = state.amps
    c0, c1 = onto.amp0.conjugate(), onto.amp1.conjugate()
    if which is _A:
        r0 = c0 * s00 + c1 * s10
        r1 = c0 * s01 + c1 * s11
    else:
        r0 = c0 * s00 + c1 * s01
        r1 = c0 * s10 + c1 * s11
    return r0, r1, abs(r0) ** 2 + abs(r1) ** 2


def _outcome_prob(norm_sq: float) -> float:
    # Below 1e-30 the outcome is impossible; normalizing the residue would
    # only amplify rounding noise (and underflows outright for subnormal
    # residues).
    return 0.0 if norm_sq <= 1e-30 else min(1.0, norm_sq)


def _collapse(r0: complex, r1: complex, norm_sq: float) -> tuple[float, PureQubit | None]:
    """Outcome probability of a residue from `_residue`, plus the normalized
    partner state (None for an impossible outcome)."""
    prob = _outcome_prob(norm_sq)
    if prob == 0.0:
        return 0.0, None
    scale = 1.0 / math.sqrt(norm_sq)
    return prob, PureQubit(r0 * scale, r1 * scale)


def _amps_after(r0: complex, r1: complex) -> tuple[float, complex, complex]:
    """`_collapse` without building the partner: the outcome probability of
    a residue and the partner's amplitudes, bit for bit those of the
    PureQubit that `_collapse` returns ((0.0, 0j, 0j) for an impossible
    outcome)."""
    norm_sq = abs(r0) ** 2 + abs(r1) ** 2
    prob = _outcome_prob(norm_sq)
    if prob == 0.0:
        return 0.0, 0j, 0j
    scale = 1.0 / math.sqrt(norm_sq)
    a0, a1 = r0 * scale, r1 * scale
    return (prob, *_canonical(a0, a1, abs(a0), abs(a1)))


def _project_once(
    state: TwoQubitPure, which: Subsystem, onto: PureQubit
) -> tuple[float, PureQubit | None]:
    """Probability of projecting `which` onto `onto`, plus the collapsed partner state."""
    return _collapse(*_residue(state, which, onto))


def project_subsystem(
    state: TwoQubitPure, which: Subsystem, basis: MeasurementBasis
) -> tuple[tuple[float, PureQubit | None], tuple[float, PureQubit | None]]:
    """Exact outcome probabilities and collapsed partner states, no sampling.

    Returns ((p_plus, remaining_plus), (p_minus, remaining_minus)) where
    `remaining` is the normalized state of the unmeasured subsystem, or
    None for an impossible outcome.
    """
    return (
        _project_once(state, which, basis.plus),
        _project_once(state, which, basis.minus),
    )


def _split(
    state: PureQubit | TwoQubitPure, which: Subsystem, basis: MeasurementBasis
) -> tuple[float, PureQubit | None, PureQubit | None]:
    """(p_plus, after_plus, after_minus) of measuring `which` in `basis`.

    For a lone qubit `which` is not read: p_plus is `overlap(basis.plus,
    state)` and the post-states are the basis states.  For a two-qubit
    state, p_plus and the collapsed partner states are those of
    `project_subsystem` (None for an impossible outcome).  No sampling.
    """
    if isinstance(state, TwoQubitPure):
        (p_plus, after_plus), (_, after_minus) = project_subsystem(state, which, basis)
        return p_plus, after_plus, after_minus
    return overlap(basis.plus, state), basis.plus, basis.minus


def reduced_bloch(state: TwoQubitPure, which: Subsystem) -> BlochVector:
    """Bloch vector of the reduced (partial-trace) state of one subsystem."""
    s00, s01, s10, s11 = state.amps
    # The coherence starts from int 0, as a sum() would: 0 + z turns a
    # -0.0 part of z into 0.0, which the vector's signed zeros show.
    if which is _B:
        rho00 = abs(s00) ** 2 + abs(s10) ** 2
        rho11 = abs(s01) ** 2 + abs(s11) ** 2
        rho01 = 0 + s00 * s01.conjugate() + s10 * s11.conjugate()
    else:
        rho00 = abs(s00) ** 2 + abs(s01) ** 2
        rho11 = abs(s10) ** 2 + abs(s11) ** 2
        rho01 = 0 + s00 * s10.conjugate() + s01 * s11.conjugate()
    return BlochVector(2.0 * rho01.real, -2.0 * rho01.imag, rho00 - rho11)


def ensemble_average_bloch(ensemble: Ensemble) -> BlochVector:
    """Weighted sum of member Bloch vectors; the Bloch vector of the mixture."""
    xs, ys, zs = [], [], []
    for w, s in ensemble.entries:
        x, y, z = _bloch_xyz(s)
        xs.append(w * x)
        ys.append(w * y)
        zs.append(w * z)
    return BlochVector(math.fsum(xs), math.fsum(ys), math.fsum(zs))


def _pauli(axis: PauliAxis, a0: complex, a1: complex) -> tuple[complex, complex]:
    """The Pauli matrix of `axis` applied to one amplitude pair."""
    if axis == "x":
        return a1, a0
    if axis == "y":
        return -1j * a1, 1j * a0
    if axis == "z":
        return a0, -a1
    raise ValueError(f"unknown Pauli axis {axis!r}")


def apply_pauli(state: PureQubit, axis: PauliAxis) -> PureQubit:
    """Standard Pauli action; involutive up to global phase."""
    return PureQubit(*_pauli(axis, state.amp0, state.amp1))


def _pauli_pair_amps(
    amps: tuple[complex, complex, complex, complex], which: Subsystem, axis: PauliAxis
) -> tuple[complex, complex, complex, complex]:
    """`apply_pauli_pair` on an amplitude 4-tuple, before TwoQubitPure's
    checks and phase convention."""
    s00, s01, s10, s11 = amps
    if which is _A:
        t00, t10 = _pauli(axis, s00, s10)
        t01, t11 = _pauli(axis, s01, s11)
        return t00, t01, t10, t11
    return _pauli(axis, s00, s01) + _pauli(axis, s10, s11)


def apply_pauli_pair(
    state: TwoQubitPure, which: Subsystem, axis: PauliAxis
) -> TwoQubitPure:
    """Pauli on one factor of a two-qubit state (identity on the other).

    On B it acts on each row (A fixed) of the amplitude table; on A, on
    each column (B fixed)."""
    return TwoQubitPure(_pauli_pair_amps(state.amps, which, axis))


def tensor_product(a: PureQubit, b: PureQubit) -> TwoQubitPure:
    """Product state a (x) b with a on subsystem A."""
    return TwoQubitPure(
        (a.amp0 * b.amp0, a.amp0 * b.amp1, a.amp1 * b.amp0, a.amp1 * b.amp1)
    )


_SQRT_HALF = 1.0 / math.sqrt(2.0)
_COS8 = math.cos(math.pi / 8.0)
_SIN8 = math.sin(math.pi / 8.0)

KET_0 = PureQubit(1.0, 0.0)
KET_1 = PureQubit(0.0, 1.0)
#: (|0> + |1>)/sqrt(2); the protocol's second legal state.
KET_PLUS = PureQubit(_SQRT_HALF, _SQRT_HALF)
KET_MINUS = PureQubit(_SQRT_HALF, -_SQRT_HALF)

#: Discrimination-basis state whose outcome signals "the qubit was |0>".
#: Bloch vector (z - x)/sqrt(2).
DISCRIM_0 = PureQubit(_COS8, -_SIN8)
#: Counterpart signalling "the qubit was |+>"; Bloch vector (x - z)/sqrt(2).
DISCRIM_PLUS = PureQubit(_SIN8, _COS8)

BASIS_Z = MeasurementBasis(KET_0, KET_1, "z")
BASIS_X = MeasurementBasis(KET_PLUS, KET_MINUS, "x")
#: The projective measurement that best distinguishes |0> from |+>.
BASIS_DISCRIM = MeasurementBasis(DISCRIM_0, DISCRIM_PLUS, "discrim")

#: Best achievable probability of correctly guessing between |0> and |+>:
#: cos^2(pi/8), attained by BASIS_DISCRIM.
OPTIMAL_GUESS_PROB = _COS8 * _COS8
