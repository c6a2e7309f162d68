"""Tests for the pure-state machinery, from frozen values and independent oracles."""

import cmath
import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bases,
    joint_probability,
    partial_trace_bloch,
    pure_qubits,
    two_qubit_states,
)
from qgamble.qubits import (
    BASIS_DISCRIM,
    BASIS_X,
    BASIS_Z,
    DISCRIM_0,
    DISCRIM_PLUS,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    OPTIMAL_GUESS_PROB,
    PAULI_AXES,
    BlochVector,
    Ensemble,
    MeasurementBasis,
    Outcome,
    PureQubit,
    Subsystem,
    TwoQubitPure,
    apply_pauli,
    apply_pauli_pair,
    basis_from_bloch_angle,
    bloch_angles,
    bloch_from_state,
    ensemble_average_bloch,
    orthogonal_state,
    overlap,
    project_subsystem,
    reduced_bloch,
    state_from_bloch,
    tensor_product,
)

RNG = np.random.default_rng

SQ2 = math.sqrt(2.0)


def attack_pair() -> TwoQubitPure:
    """(|00> + |1>|+>)/sqrt(2), written out by hand."""
    return TwoQubitPure((1.0 / SQ2, 0.0, 0.5, 0.5))


# A reference copy of the phase convention, kept apart from qubits: every
# amplitude is divided by the phase of the first one above 1e-9 (else the
# last).  The constructors' stored amplitudes must match it bit for bit.
_PHASE_CUTOFF = 1e-9


def _reference_qubit(a0, a1) -> tuple[complex, complex]:
    a0, a1 = complex(a0), complex(a1)
    m0, m1 = abs(a0), abs(a1)
    mag = m0 if m0 > _PHASE_CUTOFF else m1
    if mag != 0.0:
        phase = (a0 if m0 > _PHASE_CUTOFF else a1) / mag
        a0, a1 = a0 / phase, a1 / phase
    return a0, a1


def _reference_pair(amps) -> tuple[complex, ...]:
    amps = tuple(complex(a) for a in amps)
    mags = [abs(a) for a in amps]
    ref = next((i for i in range(3) if mags[i] > _PHASE_CUTOFF), 3)
    if mags[ref] != 0.0:
        phase = amps[ref] / mags[ref]
        amps = tuple(a / phase for a in amps)
    return amps


def _bits(amps) -> list[tuple[str, str]]:
    """Amplitudes as exact hex pairs, so signed zeros count."""
    if isinstance(amps, PureQubit):
        amps = (amps.amp0, amps.amp1)
    elif isinstance(amps, TwoQubitPure):
        amps = amps.amps
    return [(a.real.hex(), a.imag.hex()) for a in amps]


_phases = st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t))


def _weight_fault(index: int, weight: float) -> str:
    return rf"^ensemble weight {index} must be nonnegative and finite, got {weight!r}$"


#: Non-finite amplitudes, each of which must be named as such in any slot.
NONFINITE = [math.nan, math.inf, -math.inf, complex(0.6, math.nan), complex(-math.inf, 0.8)]
NONFINITE_IDS = ["nan", "inf", "-inf", "nan_imag", "-inf_real"]
#: Finite amplitudes whose squared magnitude overflows a float.
HUGE = [1e200, -1e200, 1e200j, complex(1.5e308, 1.5e308)]
HUGE_IDS = ["huge", "-huge", "huge_imag", "huge_complex"]


def _with(amps: tuple, slot: int, value) -> tuple:
    return amps[:slot] + (value,) + amps[slot + 1:]


def _state_faults():
    """(constructor, arguments, message) for every rejected state shape."""
    finite = "^amplitudes must be finite$"
    for bad, name in zip(NONFINITE, NONFINITE_IDS):
        for slot in range(2):
            yield pytest.param(PureQubit, _with((0.6, 0.8), slot, bad), finite,
                               id=f"qubit-{slot}-{name}")
            # Named as non-finite even when no other amplitude is nonzero.
            yield pytest.param(PureQubit, _with((0.0, 0.0), slot, bad), finite,
                               id=f"qubit-{slot}-{name}-alone")
        for slot in range(4):
            yield pytest.param(TwoQubitPure, (_with((0.5, 0.5, 0.5, 0.5), slot, bad),), finite,
                               id=f"pair-{slot}-{name}")
            yield pytest.param(TwoQubitPure, (_with((0.0, 0.0, 0.0, 0.0), slot, bad),), finite,
                               id=f"pair-{slot}-{name}-alone")
    # A huge amplitude's squared norm overflows to inf, unless a non-finite
    # amplitude beside it is named first.
    overflow = r"^state not normalized: \|amps\|\^2 = inf$"
    for bad, name in zip(HUGE, HUGE_IDS):
        for slot in range(2):
            yield pytest.param(PureQubit, _with((0.6, 0.8), slot, bad), overflow,
                               id=f"qubit-{slot}-{name}")
            yield pytest.param(PureQubit, _with((math.nan, math.nan), slot, bad), finite,
                               id=f"qubit-{slot}-{name}-nan")
        for slot in range(4):
            yield pytest.param(TwoQubitPure, (_with((0.5, 0.5, 0.5, 0.5), slot, bad),),
                               overflow, id=f"pair-{slot}-{name}")
            nan_beside = _with((0.0, 0.0, 0.0, 0.0), (slot + 1) % 4, math.nan)
            yield pytest.param(TwoQubitPure, (_with(nan_beside, slot, bad),), finite,
                               id=f"pair-{slot}-{name}-nan")
    for cls, amps, norm_sq, name in (
        (PureQubit, (1.0, 1.0), 2.0, "qubit-over"),
        (PureQubit, (0.0, 0.0), 0.0, "qubit-zero"),
        # Just past the 1e-12 tolerance.
        (PureQubit, (0.6, 0.8j + 1e-6), 1.000000000001, "qubit-edge"),
        (TwoQubitPure, ((1.0, 1.0, 0.0, 0.0),), 2.0, "pair-over"),
        (TwoQubitPure, ((0.0, 0.0, 0.0, 0.0),), 0.0, "pair-zero"),
        (TwoQubitPure, ((0.5, 0.5, 0.5, 0.5j + 1e-6),), 1.000000000001, "pair-edge"),
    ):
        message = rf"^state not normalized: \|amps\|\^2 = {re.escape(repr(norm_sq))}$"
        yield pytest.param(cls, amps, message, id=name)
    yield pytest.param(TwoQubitPure, ((1.0, 0.0, 0.0),),
                       "^two-qubit state needs exactly 4 amplitudes$", id="pair-three")


class TestConstruction:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureQubit(1.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PureQubit(complex(math.nan, 0.0), 0.0)

    @pytest.mark.parametrize("cls, args, message", _state_faults())
    def test_state_constructors_name_the_fault(self, cls, args, message):
        with pytest.raises(ValueError, match=message):
            cls(*args)

    @given(pure_qubits(), _phases)
    @settings(derandomize=True, max_examples=200)
    def test_stored_amplitudes_match_reference(self, state, phase):
        for raw in ((state.amp0, state.amp1), (state.amp0 * phase, state.amp1 * phase)):
            assert _bits(PureQubit(*raw)) == _bits(_reference_qubit(*raw))

    @given(two_qubit_states(), _phases)
    @settings(derandomize=True, max_examples=200)
    def test_two_qubit_stored_amplitudes_match_reference(self, state, phase):
        for raw in (state.amps, tuple(a * phase for a in state.amps)):
            assert _bits(TwoQubitPure(raw)) == _bits(_reference_pair(raw))

    def test_global_phase_convention(self):
        s = PureQubit(0.6j, 0.8)
        assert s.amp0.real == pytest.approx(0.6, abs=1e-15)
        assert abs(s.amp0.imag) < 1e-15
        # amp1 picks up the compensating phase
        assert abs(s.amp1 - (-0.8j)) < 1e-12

    def test_phase_convention_falls_back_to_amp1(self):
        s = PureQubit(0.0, 1j)
        assert s.amp1 == pytest.approx(1.0)

    def test_two_qubit_phase_convention(self):
        # The first amplitude above the cutoff becomes real and nonnegative,
        # and a global phase on the input does not show in the stored state.
        s = TwoQubitPure((0.5j, 0.5, -0.5, 0.5j))
        assert s.amps[0] == pytest.approx(0.5, abs=1e-15)
        assert s.amps[0].imag == 0.0
        turned = TwoQubitPure(tuple(a * complex(0.6, 0.8) for a in s.amps))
        assert all(abs(a - b) < 1e-15 for a, b in zip(turned.amps, s.amps))
        skip = TwoQubitPure((0.0, 0.6j, 0.8, 0.0))
        assert skip.amps[1] == pytest.approx(0.6, abs=1e-15)
        assert skip.amps[1].imag == 0.0
        assert skip.amps[2] == pytest.approx(-0.8j, abs=1e-15)

    def test_two_qubit_normalization(self):
        with pytest.raises(ValueError):
            TwoQubitPure((1.0, 1.0, 0.0, 0.0))

    def test_basis_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            MeasurementBasis(KET_0, KET_PLUS, "skew")

    def test_bloch_vector_inside_ball(self):
        with pytest.raises(
            ValueError, match=r"outside the unit ball: BlochVector\(x=1.0, y=1.0, z=1.0\)"
        ):
            BlochVector(1.0, 1.0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="Bloch components must be finite"):
                BlochVector(0.0, bad, 0.0)

    def test_bloch_vector_is_an_immutable_tuple(self):
        v = BlochVector(0.5, 0.0, -0.5)
        assert repr(v) == "BlochVector(x=0.5, y=0.0, z=-0.5)"
        assert v == (0.5, 0.0, -0.5)
        twin = BlochVector(0.5, 0.0, -0.5)
        assert twin == v and hash(twin) == hash(v)
        assert copy.deepcopy(v) == v
        for name in ("x", "extra"):
            with pytest.raises(AttributeError):
                setattr(v, name, 0.25)
        # _replace builds through the checks.
        with pytest.raises(ValueError, match="outside the unit ball"):
            v._replace(x=1.0)

    def test_ensemble_weights(self):
        with pytest.raises(ValueError):
            Ensemble(((0.7, KET_0), (0.7, KET_PLUS)))
        with pytest.raises(ValueError):
            Ensemble(((-0.5, KET_0), (1.5, KET_PLUS)))
        # NaN weights once passed the sum check: abs(nan - 1) > tol is False.
        for (w0, w1), index in (
            ((math.nan, math.nan), 0),
            ((1.0, math.nan), 1),
            ((math.inf, 0.0), 0),
            ((0.5, -math.inf), 1),
            ((-0.5, 1.5), 0),
            ((1.5, -0.5), 1),
            ((2.0, -1.0), 1),
        ):
            message = _weight_fault(index, (w0, w1)[index])
            with pytest.raises(ValueError, match=message):
                Ensemble(((w0, KET_0), (w1, KET_PLUS)))

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param((), "^ensemble must not be empty$", id="empty"),
            pytest.param(((0.7, KET_0), (0.7, KET_PLUS)),
                         "^ensemble weights must sum to 1, got 1.4$", id="sum-over"),
            pytest.param(((0.25, KET_0),),
                         "^ensemble weights must sum to 1, got 0.25$", id="sum-under"),
            # The first fault wins: the lowest index first, at one index the
            # weight before the entry, and any entry's fault before the sum.
            pytest.param(((math.nan, "psi"), (-1.0, None)), _weight_fault(0, math.nan),
                         id="weight-before-entry"),
            pytest.param(((0.5, "psi"), (-1.0, KET_0)),
                         "^ensemble entry 0 must hold a PureQubit, got 'psi'$",
                         id="entry-before-later-weight"),
            pytest.param(((0.7, KET_0), (0.7, "psi")),
                         "^ensemble entry 1 must hold a PureQubit, got 'psi'$",
                         id="entry-before-sum"),
            pytest.param(((0.7, KET_0), (math.inf, KET_PLUS), (0.7, None)),
                         _weight_fault(1, math.inf), id="weight-before-sum"),
        ],
    )
    def test_ensemble_names_the_first_fault(self, entries, message):
        with pytest.raises(ValueError, match=message):
            Ensemble(entries)

    def test_ensemble_stores_float_weights(self):
        # A -0.0 weight passes (0.0 <= -0.0), and int weights become floats.
        ens = Ensemble(((1, KET_0), (-0.0, KET_PLUS)))
        assert ens.entries == ((1.0, KET_0), (-0.0, KET_PLUS))
        assert [type(w) for w, _ in ens.entries] == [float, float]

    @pytest.mark.parametrize("bad", ["psi", None], ids=["str", "none"])
    def test_ensemble_entries_must_be_pure_qubits(self, bad):
        # Built, such an entry would fail later with AttributeError.
        message = rf"^ensemble entry 0 must hold a PureQubit, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            Ensemble(((1.0, bad),))
        with pytest.raises(ValueError, match="^ensemble entry 1 must hold a PureQubit"):
            Ensemble(((0.5, KET_0), (0.5, bad)))


class TestBlochConversions:
    def test_north_pole(self):
        assert state_from_bloch(0.0, 0.0).isclose(KET_0, tol=1e-12)

    def test_plus_axis(self):
        assert state_from_bloch(math.pi / 2.0, 0.0).isclose(KET_PLUS, tol=1e-12)

    def test_discrimination_state(self):
        # polar pi/4 at azimuth pi lands on (z - x)/sqrt(2)
        s = state_from_bloch(math.pi / 4.0, math.pi)
        assert s.isclose(DISCRIM_0, tol=1e-12)
        v = bloch_from_state(s)
        assert v.isclose(BlochVector(-1.0 / SQ2, 0.0, 1.0 / SQ2), tol=1e-12)

    def test_cardinal_vectors(self):
        assert bloch_from_state(KET_0).isclose(BlochVector(0, 0, 1), tol=1e-12)
        assert bloch_from_state(KET_PLUS).isclose(BlochVector(1, 0, 0), tol=1e-12)
        assert bloch_from_state(KET_MINUS).isclose(BlochVector(-1, 0, 0), tol=1e-12)

    @given(pure_qubits())
    @settings(max_examples=150)
    def test_round_trip(self, s):
        v = bloch_from_state(s)
        assert abs(v.norm() - 1.0) <= 1e-9
        v2 = bloch_from_state(state_from_bloch(*bloch_angles(v)))
        assert v2.isclose(v, tol=1e-9)


class TestOverlap:
    def test_halfway_states(self):
        assert overlap(KET_0, KET_PLUS) == pytest.approx(0.5, abs=1e-12)

    def test_optimal_guess_probability(self):
        assert overlap(DISCRIM_0, KET_0) == pytest.approx(
            math.cos(math.pi / 8.0) ** 2, abs=1e-12
        )
        assert OPTIMAL_GUESS_PROB == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_orthogonal(self):
        assert overlap(KET_1, KET_0) == 0.0

    @given(pure_qubits(), pure_qubits())
    @settings(max_examples=150)
    def test_range_and_symmetry(self, a, b):
        p = overlap(a, b)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(overlap(b, a), abs=1e-12)

    @given(pure_qubits(), bases())
    @settings(max_examples=150)
    def test_born_probabilities_sum_to_one(self, s, basis):
        assert overlap(basis.plus, s) + overlap(basis.minus, s) == pytest.approx(
            1.0, abs=1e-12
        )

    @given(pure_qubits())
    @settings(max_examples=100)
    def test_orthogonal_state_is_orthogonal(self, s):
        assert abs(s.inner(orthogonal_state(s))) <= 1e-12


class TestTwoQubit:
    def test_attack_state_z_measurement(self):
        (p_plus, rem_plus), (p_minus, rem_minus) = project_subsystem(
            attack_pair(), Subsystem.A, BASIS_Z
        )
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)
        assert rem_plus.isclose(KET_0, tol=1e-12)
        assert rem_minus.isclose(KET_PLUS, tol=1e-12)

    def test_attack_state_x_measurement(self):
        # Steers Bob to the normalized sum/difference of the legal states.
        (p_near, near), (p_far, far) = project_subsystem(
            attack_pair(), Subsystem.A, BASIS_X
        )
        assert p_near == pytest.approx((2.0 + SQ2) / 4.0, abs=1e-12)
        assert p_far == pytest.approx((2.0 - SQ2) / 4.0, abs=1e-12)
        c8, s8 = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
        assert near.isclose(PureQubit(c8, s8), tol=1e-12)
        assert far.isclose(PureQubit(s8, -c8), tol=1e-12)

    def test_product_state_cannot_steer(self):
        # Every possible outcome on A leaves B as it was; z on |0> has one.
        state = tensor_product(KET_0, KET_PLUS)
        for basis in (BASIS_Z, BASIS_X, BASIS_DISCRIM):
            for p, remaining in project_subsystem(state, Subsystem.A, basis):
                assert p == 0.0 and remaining is None or remaining.isclose(KET_PLUS, tol=1e-12)

    def test_reduced_bloch_attack_state(self):
        # Hand computation: equal mixture of |0> and |+>.
        v = reduced_bloch(attack_pair(), Subsystem.B)
        assert v.isclose(BlochVector(0.5, 0.0, 0.5), tol=1e-12)

    def test_reduced_bloch_product(self):
        v = reduced_bloch(tensor_product(KET_0, KET_0), Subsystem.B)
        assert v.isclose(BlochVector(0.0, 0.0, 1.0), tol=1e-12)

    def test_reduced_bloch_singlet(self):
        s = TwoQubitPure((0.0, 1.0 / SQ2, -1.0 / SQ2, 0.0))
        v = reduced_bloch(s, Subsystem.B)
        assert v.isclose(BlochVector(0.0, 0.0, 0.0), tol=1e-12)

    @given(two_qubit_states())
    @settings(max_examples=150)
    def test_reduced_bloch_matches_partial_trace(self, state):
        for which, keep_second in ((Subsystem.B, True), (Subsystem.A, False)):
            got = reduced_bloch(state, which)
            x, y, z = partial_trace_bloch(state, keep_second)
            assert got.isclose(BlochVector(x, y, z), tol=1e-12)

    @given(two_qubit_states(), bases(), bases())
    @settings(max_examples=100)
    def test_measurement_order_commutes(self, state, basis_a, basis_b):
        # The joint outcome distribution must not depend on who measures
        # first, and must match the direct projection formula.
        a_first = project_subsystem(state, Subsystem.A, basis_a)
        b_first = project_subsystem(state, Subsystem.B, basis_b)
        for i, a_out in enumerate(Outcome):
            for j, b_out in enumerate(Outcome):
                pa, rem_b = a_first[i]
                p_ab = pa * (overlap(basis_b.state_of(b_out), rem_b) if rem_b else 0.0)
                pb, rem_a = b_first[j]
                p_ba = pb * (overlap(basis_a.state_of(a_out), rem_a) if rem_a else 0.0)
                direct = joint_probability(
                    state, basis_a.state_of(a_out), basis_b.state_of(b_out)
                )
                assert p_ab == pytest.approx(direct, abs=1e-12)
                assert p_ba == pytest.approx(direct, abs=1e-12)

    @given(two_qubit_states(), bases())
    @settings(max_examples=100)
    def test_no_signaling(self, state, basis_a):
        # Bob's reduced state equals the outcome-weighted mixture of his
        # post-measurement states, whatever basis is used on A.
        before = reduced_bloch(state, Subsystem.B)
        sides = project_subsystem(state, Subsystem.A, basis_a)
        mix = [0.0, 0.0, 0.0]
        for p, rem in sides:
            if rem is None:
                continue
            v = bloch_from_state(rem)
            mix[0] += p * v.x
            mix[1] += p * v.y
            mix[2] += p * v.z
        assert before.isclose(BlochVector(*mix), tol=1e-12)


class TestEnsembles:
    def test_legal_mixture(self):
        e = Ensemble(((0.5, KET_0), (0.5, KET_PLUS)))
        assert ensemble_average_bloch(e).isclose(BlochVector(0.5, 0.0, 0.5), tol=1e-12)

    def test_steered_decomposition_matches(self):
        # The x-measurement steering weights reproduce the same mixture:
        # members sit at +-(x+z)/sqrt(2) with weights (2 +- sqrt 2)/4.
        c8, s8 = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
        near = PureQubit(c8, s8)
        far = PureQubit(s8, -c8)
        assert bloch_from_state(near).isclose(
            BlochVector(1 / SQ2, 0.0, 1 / SQ2), tol=1e-12
        )
        assert bloch_from_state(far).isclose(
            BlochVector(-1 / SQ2, 0.0, -1 / SQ2), tol=1e-12
        )
        e = Ensemble((((2.0 + SQ2) / 4.0, near), ((2.0 - SQ2) / 4.0, far)))
        assert ensemble_average_bloch(e).isclose(BlochVector(0.5, 0.0, 0.5), tol=1e-12)

    def test_singleton(self):
        e = Ensemble(((1.0, KET_0),))
        assert ensemble_average_bloch(e).isclose(BlochVector(0, 0, 1), tol=1e-12)

    @given(pure_qubits(), pure_qubits())
    @settings(max_examples=100)
    def test_linearity_in_weights(self, a, b):
        for w in (0.0, 0.25, 0.5, 1.0):
            e = Ensemble(((w, a), (1.0 - w, b)))
            va, vb = bloch_from_state(a), bloch_from_state(b)
            expect = BlochVector(
                w * va.x + (1 - w) * vb.x,
                w * va.y + (1 - w) * vb.y,
                w * va.z + (1 - w) * vb.z,
            )
            assert ensemble_average_bloch(e).isclose(expect, tol=1e-12)


class TestPauli:
    def test_bit_flip(self):
        assert apply_pauli(KET_0, "x").isclose(KET_1, tol=1e-12)

    def test_phase_flip_on_plus(self):
        assert apply_pauli(KET_PLUS, "z").isclose(KET_MINUS, tol=1e-12)

    def test_phase_flip_fixes_zero(self):
        assert overlap(apply_pauli(KET_0, "z"), KET_0) == pytest.approx(1.0, abs=1e-12)

    @given(pure_qubits())
    @settings(max_examples=100)
    def test_involutive_up_to_phase(self, s):
        for axis in PAULI_AXES:
            twice = apply_pauli(apply_pauli(s, axis), axis)
            assert overlap(twice, s) == pytest.approx(1.0, abs=1e-12)

    @given(two_qubit_states())
    @settings(max_examples=60)
    def test_pair_pauli_acts_on_one_factor(self, state):
        flipped = apply_pauli_pair(state, Subsystem.B, "x")
        # Unmeasured subsystem A is untouched.
        got = reduced_bloch(flipped, Subsystem.A)
        assert got.isclose(reduced_bloch(state, Subsystem.A), tol=1e-12)
        # B's Bloch vector flips in x-conjugation: (x, y, z) -> (x, -y, -z).
        vb = reduced_bloch(state, Subsystem.B)
        assert reduced_bloch(flipped, Subsystem.B).isclose(
            BlochVector(vb.x, -vb.y, -vb.z), tol=1e-12
        )


    @given(pure_qubits(), pure_qubits())
    @settings(max_examples=60)
    def test_pair_pauli_matches_factor_pauli(self, a, b):
        pair = tensor_product(a, b)
        for axis in PAULI_AXES:
            for which, expect in (
                (Subsystem.A, tensor_product(apply_pauli(a, axis), b)),
                (Subsystem.B, tensor_product(a, apply_pauli(b, axis))),
            ):
                got = apply_pauli_pair(pair, which, axis)
                inner = sum(x.conjugate() * y for x, y in zip(got.amps, expect.amps))
                assert abs(inner) ** 2 == pytest.approx(1.0, abs=1e-12), (which, axis)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            apply_pauli(KET_0, "w")
        for which in Subsystem:
            with pytest.raises(ValueError):
                apply_pauli_pair(tensor_product(KET_0, KET_0), which, "w")


class TestNormalizationPreserved:
    @given(two_qubit_states(), bases())
    @settings(max_examples=100)
    def test_collapse_normalized(self, state, basis):
        for p, rem in project_subsystem(state, Subsystem.A, basis):
            if rem is not None:
                assert abs(abs(rem.amp0) ** 2 + abs(rem.amp1) ** 2 - 1.0) <= 1e-12

    def test_basis_grid_constructible(self):
        for k in range(360):
            basis_from_bloch_angle(2.0 * math.pi * k / 360.0)
