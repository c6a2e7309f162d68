"""Every name a module exports through `__all__` exists."""

import pytest

from qgamble import analysis, protocol, qubits, strategies


@pytest.mark.parametrize("module", [qubits, protocol, strategies, analysis],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize(
    "enum",
    [protocol.StateLabel, protocol.RoundType, protocol.CheckResult,
     qubits.Outcome, qubits.Subsystem, strategies.ClaimPolicy],
    ids=lambda e: e.__name__,
)
def test_enum_members_hash_by_identity(enum):
    # Equality is identity, so the hash may be too; a member still finds
    # its entry in a dict and in a set, and a value never stands for it.
    for member in enum:
        assert hash(member) == object.__hash__(member)
        assert {member: 1}[member] == 1 and member in set(enum)
        assert member != member.value and member.value not in {member: 1}
