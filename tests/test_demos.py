"""Every demo runs to completion without a warning."""

from pathlib import Path
import subprocess
import sys

import pytest

from conftest import SRC_ENV

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
    proc = subprocess.run(
        # as tests/test_cli.py starts the CLI: any warning fails the demo
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
