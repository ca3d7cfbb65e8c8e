"""Shared input generators for the test suite: the library's own draws."""

import numpy as np
import pytest

from entbound import ProbeState, random_density
from entbound.channels import random_tp_channel
from entbound.probe import random_probe

random_tp_kraus = random_tp_channel
random_mixed = random_density
probe_density = ProbeState.density


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
