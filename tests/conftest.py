import numpy as np
import pytest
from hypothesis import settings

from diracflow import PacketParams

# A failing property test prints the @reproduce_failure line that replays its
# example, so an intermittent failure can be pinned.  Every other setting is
# the loaded profile's: no draw, example count or deadline changes.
settings.register_profile("diracflow", parent=settings.default, print_blob=True)
settings.load_profile("diracflow")


@pytest.fixture(scope="session")
def fig3_packet():
    """The ensemble-experiment parameter set: k0=10, m=3, sigma=1, theta0=pi/2."""
    return PacketParams(sigma=1.0, k0=10.0, theta0=np.pi / 2, omega0=0.0, mass=3.0)
