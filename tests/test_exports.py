"""Every name a module exports through `__all__` exists."""

import pytest

from qgamble import analysis, protocol, qubits, strategies


@pytest.mark.parametrize("module", [qubits, protocol, strategies, analysis],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
