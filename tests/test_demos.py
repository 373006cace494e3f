"""Every demo runs to completion."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_kernels_and_measures.py",
        "02_transforms_three_routes.py",
        "03_spectral_densities.py",
        "04_msd_growth_laws.py",
        "05_equipartition.py",
        "06_monte_carlo.py",
    ],
)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
