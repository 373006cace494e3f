import os
from pathlib import Path

import numpy as np
import pytest

from gle_spectra import GleParams, SpectralDensityCtx, parse_kernel_spec

# environment of the child interpreters that tests start: the package is
# imported from the source tree, as pytest itself imports it
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])
    ),
}

# the parameter point used throughout: trapped, unit mass and coupling
TRAPPED = GleParams(m=1.0, lam=1.0, beta=1.0, gamma=2.0, kbt=1.0)

CM_PRESETS = ("powerlaw:0.3", "powerlaw:0.5", "powerlaw:0.7", "rouse:[1,2,4]", "one-plus-t-inverse")
PHI_PRESETS = ("gaussian:1", "cauchy:1,1")
EQUIPARTITION_PRESETS = (
    "powerlaw:0.3",
    "powerlaw:0.5",
    "powerlaw:0.7",
    "rouse:[1,2,4]",
    "gaussian:1",
    "cauchy:1,1",
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def trapped_ctx(spec, **overrides):
    params = TRAPPED if not overrides else GleParams(
        m=overrides.get("m", 1.0),
        lam=overrides.get("lam", 1.0),
        beta=overrides.get("beta", 1.0),
        gamma=overrides.get("gamma", 2.0),
        kbt=overrides.get("kbt", 1.0),
    )
    return SpectralDensityCtx(params, parse_kernel_spec(spec))


def free_ctx(spec, m=1.0):
    params = GleParams(m=m, lam=1.0, beta=1.0, gamma=0.0, kbt=1.0)
    return SpectralDensityCtx(params, parse_kernel_spec(spec))
