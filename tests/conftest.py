from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from helpers import build_descriptor_set

# ``pytest --hypothesis-profile=dev`` reports a failing example as found,
# without shrinking it first: a quick answer while changing the engine.
# Without the option every test runs the default profile and its own
# max_examples.
settings.register_profile("dev", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture
def ds_two_slices():
    """Two slices (eMBB, uRLLC) sharing one DU VNFD with the matching
    auxiliary NSD; full IL product over 2 CU x 2 DU scale levels."""
    return build_descriptor_set(n_slices=2)


@pytest.fixture
def ds_three_slices():
    return build_descriptor_set(n_slices=3, du_counts=(1, 2, 3))
